"""Tests for batched query resolution."""

from __future__ import annotations

import json
import math

import pytest

from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition
from repro.model.params import ipsc860
from repro.service.batch import Query, QueryBatch, as_query, resolve_queries
from repro.service.registry import OptimizerRegistry
from repro.service.server import handle_request


@pytest.fixture()
def registry():
    return OptimizerRegistry()


class TestResolution:
    def test_results_in_input_order(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 7, 40.0)
        batch.add("hypothetical", 6, 24.0)
        batch.add("ipsc860", 5, 40.0)
        results = batch.resolve()
        assert [r.partition for r in results] == [(4, 3), (3, 3), (3, 2)]
        assert [(r.preset, r.d, r.m) for r in results] == [
            ("ipsc860", 7, 40.0),
            ("hypothetical", 6, 24.0),
            ("ipsc860", 5, 40.0),
        ]

    def test_times_bitwise_equal_scalar_model(self, registry):
        queries = [
            ("ipsc860", d, m) for d in (5, 6, 7) for m in (1.0, 24.0, 80.0, 320.0)
        ]
        for result in resolve_queries(registry, queries):
            expected = multiphase_time(
                result.m, result.d, result.partition, registry.params(result.preset)
            )
            assert result.time_us == expected

    def test_partitions_match_optimizer(self, registry):
        """Away from the ~1e-3 B switch-point refinement, the served
        partition is exactly the optimizer's choice."""
        for d in (5, 6, 7):
            for m in (1.0, 24.0, 40.0, 80.0, 160.0, 320.0):
                result = resolve_queries(registry, [("ipsc860", d, m)])[0]
                assert result.partition == best_partition(m, d, ipsc860()).partition

    def test_tags_echoed(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 6, 24.0, tag="a")
        batch.add("ipsc860", 6, 24.0, tag="b")
        assert [r.tag for r in batch.resolve()] == ["a", "b"]

    def test_tuple_and_query_inputs(self, registry):
        mixed = [("ipsc860", 6, 24.0), Query("ipsc860", 6, 24)]
        results = resolve_queries(registry, mixed)
        assert results[0].partition == results[1].partition
        assert results[1].m == 24.0

    def test_batch_clears_after_resolve(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 6, 24.0)
        assert len(batch) == 1
        batch.resolve()
        assert len(batch) == 0
        assert batch.resolve() == []


class TestCoalescing:
    def test_one_kernel_call_per_batch(self, registry):
        # three (preset, d) groups, all within the sweep bound: the
        # whole batch is priced by one kernel call, one row per cell
        queries = [("ipsc860", 6, m) for m in (1.0, 2.0, 3.0)]
        queries += [("ipsc860", 7, m) for m in (1.0, 2.0)]
        queries += [("hypothetical", 6, 1.0)]
        resolve_queries(registry, queries)
        assert registry.stats.grid_calls == 1
        assert registry.stats.grid_cells == 6  # no cross-product waste

    def test_beyond_bound_cells_cost_one_row_per_pool_member(self):
        registry = OptimizerRegistry(m_max=100.0)
        resolve_queries(
            registry,
            [("ipsc860", 7, 40.0), ("ipsc860", 7, 300.0), ("ipsc860", 5, 500.0)],
        )
        assert registry.stats.grid_calls == 1
        # 1 covered row + p(7) = 15 and p(5) = 7 pool rows
        assert registry.stats.grid_cells == 1 + 15 + 7

    def test_duplicates_cost_one_cell(self, registry):
        resolve_queries(registry, [("ipsc860", 6, 24.0)] * 10)
        assert registry.stats.grid_calls == 1
        assert registry.stats.coalesced == 9
        # 1 unique m x 1 winning partition
        assert registry.stats.grid_cells == 1

    def test_second_batch_is_all_memo(self, registry):
        queries = [("ipsc860", 6, m) for m in (1.0, 24.0, 80.0)]
        resolve_queries(registry, queries)
        calls_after_first = registry.stats.grid_calls
        results = resolve_queries(registry, queries)
        assert all(r.source == "memo" for r in results)
        assert registry.stats.grid_calls == calls_after_first
        # exactly one cell per unique block size was ever evaluated
        assert registry.stats.grid_cells == 3

    def test_extend(self, registry):
        batch = QueryBatch(registry)
        batch.extend([("ipsc860", 6, 1.0), ("ipsc860", 6, 2.0)])
        assert len(batch) == 2
        assert len(batch.resolve()) == 2

    def test_failed_extend_leaves_batch_unchanged(self, registry):
        batch = QueryBatch(registry)
        with pytest.raises(ValueError):
            batch.extend([("ipsc860", 6, 1.0), ("ipsc860", 0, 2.0)])
        assert len(batch) == 0


class TestCoverageBound:
    """Beyond the table's sweep bound the last hull segment is only an
    extrapolation, so the service re-evaluates exactly."""

    def test_beyond_bound_matches_exact_optimizer(self):
        registry = OptimizerRegistry(m_max=100.0)
        result = resolve_queries(registry, [("ipsc860", 7, 300.0)])[0]
        # the d=7 table swept to 100 B ends on (4, 3); at 300 B the true
        # optimum is the single-phase algorithm
        assert result.partition == best_partition(300.0, 7, ipsc860()).partition == (7,)
        assert result.time_us == multiphase_time(300.0, 7, (7,), ipsc860())

    def test_beyond_bound_results_are_memoized(self):
        registry = OptimizerRegistry(m_max=100.0)
        resolve_queries(registry, [("ipsc860", 7, 300.0)])
        assert resolve_queries(registry, [("ipsc860", 7, 300.0)])[0].source == "memo"

    def test_shard_records_its_sweep_bound(self, tmp_path):
        OptimizerRegistry(m_max=100.0).save_shards(tmp_path, dims=(7,))
        serving = OptimizerRegistry.from_shards(tmp_path)  # default m_max=400
        assert serving.coverage("ipsc860", 7) == 100.0
        result = resolve_queries(serving, [("ipsc860", 7, 300.0)])[0]
        assert result.partition == (7,)

    def test_shard_without_recorded_bound_is_never_trusted(self, tmp_path):
        # save_shard's public default records no sweep bound; such a
        # shard's tables must not be served as exact at any block size
        from repro.model.optimizer import hull_of_optimality
        from repro.model.store import save_shard

        save_shard(
            {7: hull_of_optimality(7, ipsc860(), m_max=100.0)},
            ipsc860(),
            tmp_path / "ipsc860.shard",
        )
        serving = OptimizerRegistry.from_shards(tmp_path)
        assert serving.coverage("ipsc860", 7) == 0.0
        result = resolve_queries(serving, [("ipsc860", 7, 300.0)])[0]
        assert result.source == "pool"
        assert result.partition == best_partition(300.0, 7, ipsc860()).partition

    def test_within_bound_uses_the_table(self):
        registry = OptimizerRegistry(m_max=100.0)
        result = resolve_queries(registry, [("ipsc860", 7, 40.0)])[0]
        assert result.partition == (4, 3)

    def test_beyond_bound_reports_pool_source(self):
        registry = OptimizerRegistry(m_max=100.0)
        result = resolve_queries(registry, [("ipsc860", 7, 300.0)])[0]
        assert result.source == "pool"

    def test_all_beyond_group_never_touches_the_table(self, tmp_path):
        # a group whose every block size exceeds the sweep bound is
        # answered by one full-pool grid call; the table must not be
        # swept (fresh registry) nor loaded (shard-backed registry)
        fresh = OptimizerRegistry(m_max=100.0)
        resolve_queries(fresh, [("ipsc860", 7, 300.0), ("ipsc860", 7, 500.0)])
        assert fresh.stats.tables_built == 0
        assert fresh.stats.tables_loaded == 0

        OptimizerRegistry(m_max=100.0).save_shards(tmp_path, dims=(7,))
        serving = OptimizerRegistry.from_shards(tmp_path)
        resolve_queries(serving, [("ipsc860", 7, 300.0)])
        assert serving.stats.tables_loaded == 0
        assert serving.stats.tables_built == 0


class TestSignedZero:
    """-0.0 and 0.0 share a memo entry and a coalescing key, so both are
    admitted as 0.0 and neither sign leaks into the other's answer."""

    def test_tuple_queries_echo_positive_zero(self, registry):
        results = resolve_queries(
            registry, [("ipsc860", 7, -0.0), ("ipsc860", 7, 0.0)]
        )
        assert [math.copysign(1.0, r.m) for r in results] == [1.0, 1.0]
        assert results[0].partition == results[1].partition
        assert results[0].time_us == results[1].time_us
        assert registry.stats.coalesced == 1

    def test_batch_add_and_as_query_normalize(self, registry):
        assert math.copysign(1.0, as_query(("ipsc860", 7, -0.0)).m) == 1.0
        batch = QueryBatch(registry)
        batch.add("ipsc860", 7, -0.0)
        assert math.copysign(1.0, batch.resolve()[0].m) == 1.0

    def test_json_request_echoes_positive_zero(self, registry):
        response = handle_request(
            [
                {"preset": "ipsc860", "d": 7, "m": -0.0},
                {"preset": "ipsc860", "d": 7, "m": 0.0},
            ],
            registry,
        )
        line = json.dumps(response)
        assert '"m": -0.0' not in line
        assert [r["m"] for r in response["results"]] == [0.0, 0.0]


class TestValidation:
    def test_rejects_bad_dimension(self, registry):
        with pytest.raises(ValueError):
            QueryBatch(registry).add("ipsc860", -1, 24.0)

    def test_rejects_bad_block_size(self, registry):
        with pytest.raises(ValueError):
            QueryBatch(registry).add("ipsc860", 6, float("nan"))

    def test_unknown_preset_raises_at_resolve(self, registry):
        batch = QueryBatch(registry)
        batch.add("cray", 6, 24.0)
        with pytest.raises(ValueError, match="unknown machine preset"):
            batch.resolve()

    def test_failed_batch_leaves_no_partial_state(self, registry):
        # presets are validated before any group resolves, so a batch
        # with one bad query neither serves nor memoizes the good ones
        with pytest.raises(ValueError, match="unknown machine preset"):
            resolve_queries(
                registry, [("ipsc860", 6, 24.0), ("cray", 6, 24.0)]
            )
        assert registry.stats.queries == 0
        assert registry.stats.grid_calls == 0
        assert registry.memo_get(("ipsc860", 6, 24.0)) is None
