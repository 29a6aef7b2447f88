"""Resolver agreement: every served answer equals the scalar oracles.

The resolver prices a whole batch's memo misses with one call of the
vectorized eq. (3) kernel.  Whatever the batch holds, each answer must
be the one the scalar path gives, compared with ``==``:

* ``time_us == multiphase_time(m, d, partition, params)``;
* within the sweep bound, ``partition == table.lookup(m)``;
* beyond it, ``partition == best_partition(..., method="scalar")``.

Batches are drawn with hypothesis over both presets, d in 1..12, and
block sizes that include exact table boundaries and their ``nextafter``
neighbours, 0 and -0.0, the coverage bound and the float just above it,
duplicates, and an overflow-scale size (5e306) whose dead phase slots
must stay ``+0.0`` rather than turn the answer into NaN.  Splitting the
same queries into batches of any sizes must not change an answer.

Binary frames sent to a live :class:`AsyncOptimizerServer` go through
the columnar path; each ``OP_RESULT`` payload must equal, byte for
byte, one built here from the oracles and an LRU model of the memo,
and the object API must give the same answers and provenance.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import struct
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition
from repro.service import batch, wire
from repro.service.async_server import AsyncOptimizerServer
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
    edges = [0.0, -0.0, BOUND, math.nextafter(BOUND, math.inf), OVERFLOW_M]
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


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_row_budget_chunks_do_not_change_answers(shard_dir, tables, data):
    """Pricing in chunks of whole cells gives every answer bit for bit,
    one kernel call per chunk and the same rows in total."""
    queries = data.draw(query_lists(tables))
    whole_registry = OptimizerRegistry.from_shards(shard_dir)
    whole = resolve_queries(whole_registry, queries)
    registry = OptimizerRegistry.from_shards(shard_dir)
    # the budget still fits the largest cell, p(12) = 77 rows
    budget = data.draw(st.integers(min_value=77, max_value=400))
    with mock.patch.object(batch, "KERNEL_ROWS", budget):
        chunked = resolve_queries(registry, queries)
    assert [(r.partition, r.time_us, r.source) for r in chunked] == [
        (r.partition, r.time_us, r.source) for r in whole
    ]
    rows = registry.stats.grid_cells
    assert rows == whole_registry.stats.grid_cells
    assert math.ceil(rows / budget) <= registry.stats.grid_calls <= rows


def test_overflow_scale_block_size_stays_finite_or_inf(shard_dir, tables):
    """At m = 5e306 some candidates overflow to inf; padding slots must
    still add an exact +0.0, so no answer is NaN and every answer is
    the scalar model's (inf included)."""
    registry = OptimizerRegistry.from_shards(shard_dir)
    queries = [(p, d, OVERFLOW_M) for p in PRESETS for d in DIMS]
    for result in resolve_queries(registry, queries):
        check_answer(result, registry, tables)


# ----------------------------------------------------------------------
# binary frames through a live server: the columnar path
# ----------------------------------------------------------------------
#: memo bounds under test: none, smaller than one frame's cells, and
#: the default (nothing evicted)
CAPACITIES = (0, 1, 3, 65536)


@pytest.fixture(scope="module")
def socket_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sockets")
    return (directory / f"s{k}.sock" for k in itertools.count())


@st.composite
def frame_lists(draw, tables):
    """Up to four frames of up to eight queries drawn from one small
    pool, so cells repeat inside a frame and across frames."""
    pool = draw(query_lists(tables))
    frames = st.lists(st.sampled_from(pool), max_size=8)
    return draw(st.lists(frames, min_size=1, max_size=4))


def oracle(registry, tables, preset, d, m):
    """``(partition, time_us)`` from the scalar model and the tables."""
    params = registry.params(preset)
    if m <= BOUND:
        partition = tables[preset, d].lookup(m)
    else:
        partition = best_partition(m, d, params, method="scalar").partition
    return partition, multiphase_time(m, d, partition, params)


def expected_answers(frames, capacity, answer):
    """Per frame, each query's ``(partition, time_us, source)``, with
    the memo modelled as an LRU of ``capacity`` cells.  Within a flush
    the hits are touched in query order; then the new cells are stored
    grouped by ``(preset, d)`` in first-miss order, each group by block
    size."""
    memo: OrderedDict = OrderedDict()
    out = []
    for frame in frames:
        answers, missed = [], {}
        for preset, d, m in frame:
            cell = (preset, d, m + 0.0)
            if cell in memo:
                memo.move_to_end(cell)
                source = "memo"
            else:
                missed.setdefault((preset, d), set()).add(cell[2])
                source = "grid" if cell[2] <= BOUND else "pool"
            answers.append((*answer(cell), source))
        for (preset, d), ms in missed.items():
            for m in sorted(ms):
                memo[preset, d, m] = None
                while len(memo) > capacity:
                    memo.popitem(last=False)
        out.append(answers)
    return out


def result_payload(answers):
    """An OP_RESULT payload, packed here rather than by the codec."""
    return b"".join((
        struct.pack("<I", len(answers)),
        np.array([t for _, t, _ in answers], dtype="<f8").tobytes(),
        bytes(wire.SOURCE_CODES[s] for _, _, s in answers),
        bytes(len(p) for p, _, _ in answers),
        bytes(part for p, _, _ in answers for part in p),
    ))


async def served_payloads(registry, path, frames):
    """Each frame's OP_RESULT payload from a live server, one flush per
    frame (the next frame is sent after the reply)."""
    server = AsyncOptimizerServer(registry)
    await server.start(f"unix:{path}")
    reader, writer = await asyncio.open_unix_connection(str(path))
    try:
        writer.write(wire.pack_frame(wire.OP_HELLO, wire.hello_payload()))
        await writer.drain()
        _, opcode, hello = await wire.read_frame(reader)
        assert opcode == wire.OP_HELLO_OK
        index = {name: i for i, name in enumerate(wire.parse_hello_ok(hello)["presets"])}
        payloads = []
        for frame in frames:
            records = wire.make_query_records([(index[p], d, m) for p, d, m in frame])
            writer.write(wire.pack_frame(wire.OP_QUERY, wire.encode_query_records(records)))
            await writer.drain()
            _, opcode, payload = await wire.read_frame(reader)
            assert opcode == wire.OP_RESULT, payload
            payloads.append(payload)
        return payloads
    finally:
        writer.close()
        await server.aclose()


@pytest.mark.skipif(not hasattr(asyncio, "open_unix_connection"), reason="needs unix sockets")
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_binary_payloads_match_an_independent_encoding(
    shard_dir, tables, socket_paths, data
):
    frames = data.draw(frame_lists(tables))
    capacity = data.draw(st.sampled_from(CAPACITIES))
    scalar = OptimizerRegistry.from_shards(shard_dir)
    cache: dict = {}

    def answer(cell):
        if cell not in cache:
            cache[cell] = oracle(scalar, tables, *cell)
        return cache[cell]

    expected = expected_answers(frames, capacity, answer)
    served = asyncio.run(served_payloads(
        OptimizerRegistry.from_shards(shard_dir, memo_capacity=capacity),
        next(socket_paths),
        frames,
    ))
    assert served == [result_payload(answers) for answers in expected]

    objects = OptimizerRegistry.from_shards(shard_dir, memo_capacity=capacity)
    for frame, answers in zip(frames, expected):
        results = resolve_queries(objects, frame)
        assert [(r.partition, r.time_us, r.source) for r in results] == answers
