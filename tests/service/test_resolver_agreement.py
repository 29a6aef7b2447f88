"""Resolver agreement: every served answer equals the scalar oracles.

The resolver prices a whole batch's memo misses with one call of the
vectorized eq. (3) kernel.  Whatever the batch holds, each answer must
be the one the scalar path gives, compared with ``==``:

* ``time_us == multiphase_time(m, d, partition, params)``;
* within the sweep bound, ``partition == table.lookup(m)``;
* beyond it, ``partition == best_partition(..., method="scalar")``.

Batches are drawn with hypothesis over both presets, d in 1..12, and
block sizes that include exact table boundaries and their ``nextafter``
neighbours, 0, the coverage bound and the float just above it,
duplicates, and an overflow-scale size (5e306) whose dead phase slots
must stay ``+0.0`` rather than turn the answer into NaN.  Splitting the
same queries into batches of any sizes must not change an answer.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition
from repro.service.batch import resolve_queries
from repro.service.registry import OptimizerRegistry

PRESETS = ("hypothetical", "ipsc860")
DIMS = tuple(range(1, 13))
#: sweep bound of the shards under test: small, so that moderate block
#: sizes land beyond it and exercise full-pool scoring
BOUND = 100.0
OVERFLOW_M = 5e306


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    OptimizerRegistry(m_max=BOUND).save_shards(directory, dims=DIMS)
    return directory


@pytest.fixture(scope="module")
def tables(shard_dir):
    registry = OptimizerRegistry.from_shards(shard_dir)
    return {(p, d): registry.table(p, d) for p in PRESETS for d in DIMS}


def block_sizes(boundaries):
    """Block sizes for one (preset, d) cell, edge cases weighted in."""
    edges = [0.0, BOUND, math.nextafter(BOUND, math.inf), OVERFLOW_M]
    for b in boundaries:
        edges += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=0.0, max_value=4 * BOUND, allow_nan=False),
    )


@st.composite
def query_lists(draw, tables):
    cells = draw(
        st.lists(
            st.tuples(st.sampled_from(PRESETS), st.sampled_from(DIMS)),
            min_size=1,
            max_size=6,
        )
    )
    queries = []
    for preset, d in cells:
        ms = draw(
            st.lists(block_sizes(tables[preset, d].boundaries), min_size=1, max_size=4)
        )
        queries += [(preset, d, m) for m in ms]
    # duplicates, inside a batch and across the batches of a split
    queries += draw(st.lists(st.sampled_from(queries), max_size=4))
    return draw(st.permutations(queries))


def check_answer(result, registry, tables):
    params = registry.params(result.preset)
    assert not math.isnan(result.time_us)
    assert result.time_us == multiphase_time(
        result.m, result.d, result.partition, params
    )
    if result.m <= BOUND:
        assert result.partition == tables[result.preset, result.d].lookup(result.m)
        assert result.source in ("grid", "memo")
    else:
        oracle = best_partition(result.m, result.d, params, method="scalar")
        assert result.partition == oracle.partition
        assert result.source in ("pool", "memo")


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_every_answer_matches_the_scalar_oracles(shard_dir, tables, data):
    queries = data.draw(query_lists(tables))
    registry = OptimizerRegistry.from_shards(shard_dir)
    results = resolve_queries(registry, queries)
    assert [(r.preset, r.d, r.m) for r in results] == queries
    for result in results:
        check_answer(result, registry, tables)
    # one kernel call prices every miss of the batch
    assert registry.stats.grid_calls == 1


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_batch_splits_do_not_change_answers(shard_dir, tables, data):
    queries = data.draw(query_lists(tables))
    whole = resolve_queries(OptimizerRegistry.from_shards(shard_dir), queries)
    registry = OptimizerRegistry.from_shards(shard_dir)
    split = []
    start = 0
    while start < len(queries):
        size = data.draw(st.integers(min_value=1, max_value=len(queries) - start))
        split += resolve_queries(registry, queries[start : start + size])
        start += size
    assert [(r.partition, r.time_us) for r in split] == [
        (r.partition, r.time_us) for r in whole
    ]


def test_overflow_scale_block_size_stays_finite_or_inf(shard_dir, tables):
    """At m = 5e306 some candidates overflow to inf; padding slots must
    still add an exact +0.0, so no answer is NaN and every answer is
    the scalar model's (inf included)."""
    registry = OptimizerRegistry.from_shards(shard_dir)
    queries = [(p, d, OVERFLOW_M) for p in PRESETS for d in DIMS]
    for result in resolve_queries(registry, queries):
        check_answer(result, registry, tables)
