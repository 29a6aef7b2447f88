"""Tests for the sharded optimizer-table registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.optimizer import hull_of_optimality
from repro.model.params import hypothetical, ipsc860
from repro.service import wire
from repro.service.registry import (
    DEFAULT_DIMS,
    OptimizerRegistry,
    PartitionCatalog,
    SlotMemo,
)


@pytest.fixture()
def registry():
    return OptimizerRegistry()


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    OptimizerRegistry().save_shards(directory, dims=(5, 6, 7))
    return directory


class TestPresets:
    def test_default_presets(self, registry):
        assert registry.preset_names == ("hypothetical", "ipsc860")

    def test_params(self, registry):
        assert registry.params("ipsc860") == ipsc860()

    def test_unknown_preset(self, registry):
        with pytest.raises(ValueError, match="unknown machine preset"):
            registry.params("cray")

    def test_explicit_presets_mapping(self):
        registry = OptimizerRegistry({"only": hypothetical()})
        assert registry.preset_names == ("only",)
        assert registry.params("only") == hypothetical()


class TestTables:
    def test_table_matches_direct_hull(self, registry):
        assert registry.table("ipsc860", 5) == hull_of_optimality(5, ipsc860())

    def test_table_is_cached(self, registry):
        assert registry.table("ipsc860", 5) is registry.table("ipsc860", 5)
        assert registry.stats.tables_built == 1

    def test_lookup(self, registry):
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)

    def test_lru_eviction(self):
        registry = OptimizerRegistry(max_loaded_tables=2)
        for d in (4, 5, 6):
            registry.table("ipsc860", d)
        assert registry.loaded_tables == 2
        assert registry.stats.tables_evicted == 1
        # the evicted d=4 is rebuilt on demand
        registry.table("ipsc860", 4)
        assert registry.stats.tables_built == 4

    def test_precompute(self, registry):
        registry.precompute(["ipsc860"], dims=(4, 5))
        assert registry.loaded_tables == 2
        assert registry.stats.tables_built == 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="max_loaded_tables"):
            OptimizerRegistry(max_loaded_tables=0)
        with pytest.raises(ValueError, match="memo_capacity"):
            OptimizerRegistry(memo_capacity=-1)


class TestShardBacking:
    def test_save_shards_layout(self, tmp_path):
        registry = OptimizerRegistry()
        written = registry.save_shards(tmp_path, presets=["ipsc860"], dims=(5, 6))
        assert [p.name for p in written] == ["ipsc860.shard"]

    def test_from_shards_serves_without_building(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        assert registry.preset_names == ("hypothetical", "ipsc860")
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)
        assert registry.stats.tables_loaded == 1
        assert registry.stats.tables_built == 0

    def test_shard_tables_equal_fresh_sweeps(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        for d in (5, 6, 7):
            assert registry.table("ipsc860", d) == hull_of_optimality(d, ipsc860())

    def test_evicted_shard_table_reloads(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir, max_loaded_tables=1)
        registry.table("ipsc860", 5)
        registry.table("ipsc860", 6)  # evicts d=5
        registry.table("ipsc860", 5)  # reloads from the shard, no sweep
        assert registry.stats.tables_loaded == 3
        assert registry.stats.tables_built == 0
        assert registry.stats.tables_evicted == 2

    def test_renamed_shard_file_rejected(self, tmp_path):
        OptimizerRegistry().save_shards(tmp_path, presets=["hypothetical"], dims=(5,))
        (tmp_path / "hypothetical.shard").rename(tmp_path / "ipsc860.shard")
        with pytest.raises(ValueError, match="renaming a shard"):
            OptimizerRegistry.from_shards(tmp_path)

    def test_reexported_shard_keeps_the_original_bound(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        OptimizerRegistry(m_max=50.0).save_shards(first, dims=(7,))
        # re-exporting through a wider registry must not overclaim the
        # 0-50 B sweep as exact out to the new registry's 400 B default
        OptimizerRegistry.from_shards(first).save_shards(second, dims=(7,))
        assert OptimizerRegistry.from_shards(second).coverage("ipsc860", 7) == 50.0

    def test_eviction_drops_the_shard_cache_too(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir, max_loaded_tables=1)
        registry.table("ipsc860", 5)
        shard = registry._shards["ipsc860"]
        assert 5 in shard._cache
        registry.table("ipsc860", 6)  # evicts d=5 from the LRU...
        assert 5 not in shard._cache  # ...and from the shard's cache

    def test_missing_dim_falls_back_to_sweep(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        registry.table("ipsc860", 4)  # not in the shard (dims 5-7)
        assert registry.stats.tables_built == 1

    def test_conflicting_preset_override_rejected(self, shard_dir):
        bad = ipsc860().with_overrides(latency=1.0)
        with pytest.raises(ValueError, match="different .* calibration"):
            OptimizerRegistry({"ipsc860": bad}, shard_dir=shard_dir)

    def test_empty_shard_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="holds no .*\\.shard"):
            OptimizerRegistry.from_shards(tmp_path / "empty")

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            OptimizerRegistry.from_shards(tmp_path / "nope")


class TestMemo:
    def test_memo_hits_on_repeat(self, registry):
        first = registry.resolve([("ipsc860", 6, 24.0)])[0]
        second = registry.resolve([("ipsc860", 6, 24.0)])[0]
        assert first.source == "grid"
        assert second.source == "memo"
        assert second.partition == first.partition
        assert second.time_us == first.time_us
        assert registry.stats.memo_hits == 1
        assert registry.stats.memo_hit_rate == 0.5

    def test_memo_capacity_zero_disables(self):
        registry = OptimizerRegistry(memo_capacity=0)
        registry.resolve([("ipsc860", 6, 24.0)])
        assert registry.resolve([("ipsc860", 6, 24.0)])[0].source == "grid"

    def test_memo_eviction(self):
        registry = OptimizerRegistry(memo_capacity=1)
        registry.resolve([("ipsc860", 6, 24.0)])
        registry.resolve([("ipsc860", 6, 32.0)])  # evicts the 24.0 entry
        assert registry.resolve([("ipsc860", 6, 24.0)])[0].source == "grid"


class TestSlotMemo:
    def test_least_recently_touched_key_is_evicted_first(self):
        memo = SlotMemo(3)
        memo.put([b"a", b"b", b"c"], [1.0, 2.0, 3.0], [10, 20, 30])
        assert memo.probe([b"a"]) == [0]  # a is now the most recent
        memo.put([b"d"], [4.0], [40])  # evicts b, not a
        assert list(memo.slots) == [b"c", b"a", b"d"]
        assert memo.probe([b"b"]) == [-1]
        # d reused b's slot; every answer still belongs to its own key
        answers = {
            key: (memo.time_us[slot], memo.part_id[slot])
            for key, slot in memo.slots.items()
        }
        assert answers == {b"a": (1.0, 10), b"c": (3.0, 30), b"d": (4.0, 40)}

    def test_repeated_put_updates_in_place(self):
        memo = SlotMemo(4)
        memo.put([b"a", b"b"], [1.0, 2.0], [1, 2])
        memo.put([b"a"], [5.0], [7])
        assert len(memo) == 2
        (slot,) = memo.probe([b"a"])
        assert (memo.time_us[slot], memo.part_id[slot]) == (5.0, 7)
        assert list(memo.slots) == [b"b", b"a"]

    def test_put_of_more_keys_than_capacity_keeps_the_last(self):
        memo = SlotMemo(2)
        memo.put([b"x"], [9.0], [9])
        memo.put([b"a", b"b", b"c"], [1.0, 2.0, 3.0], [1, 2, 3])
        assert list(memo.slots) == [b"b", b"c"]
        assert [memo.time_us[s] for s in memo.probe([b"b", b"c"])] == [2.0, 3.0]

    def test_capacity_zero_stores_nothing(self):
        memo = SlotMemo(0)
        memo.put([b"a"], [1.0], [1])
        assert len(memo) == 0 and memo.probe([b"a"]) == [-1]
        registry = OptimizerRegistry(memo_capacity=0)
        registry.resolve([("ipsc860", 6, 24.0), ("ipsc860", 6, 32.0)])
        assert len(registry.memo) == 0 and len(registry.memo.time_us) == 0

    def test_columns_grow_with_use_not_capacity(self):
        registry = OptimizerRegistry(memo_capacity=65536)
        assert len(registry.memo.time_us) == 0
        registry.resolve([("ipsc860", 6, float(m)) for m in range(3)])
        assert 3 <= len(registry.memo.time_us) < 65536

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_hit_survives_misses_that_evict_its_slot(self, capacity):
        """A flush that hits A, then misses more cells than the memo
        holds, evicts A's slot and hands it to a miss; A must still get
        its own answer."""
        registry = OptimizerRegistry(memo_capacity=capacity)
        (first,) = registry.resolve([("ipsc860", 7, 40.0)])
        misses = [("ipsc860", 5, 300.0 + k) for k in range(capacity + 2)]
        results = registry.resolve([("ipsc860", 7, 40.0), *misses])
        assert results[0].source == "memo"
        assert (results[0].partition, results[0].time_us) == (
            first.partition, first.time_us,
        )
        fresh = OptimizerRegistry().resolve(misses)
        assert [(r.partition, r.time_us) for r in results[1:]] == [
            (r.partition, r.time_us) for r in fresh
        ]
        # the same through the columnar core
        registry = OptimizerRegistry(memo_capacity=capacity)
        records = wire.make_query_records(
            [(1, 7, 40.0)] + [(1, d, m) for _, d, m in misses]
        )
        registry.resolve(records[:1])
        columns = registry.resolve(records)
        assert columns.time_us[0] == first.time_us
        assert registry.partitions.partitions[columns.part_id[0]] == first.partition
        assert columns.source.tolist() == [0] + [1] * len(misses)


class TestPartitionCatalog:
    def test_intern_is_stable_and_pads_rows(self):
        catalog = PartitionCatalog()
        ids = [catalog.intern(p) for p in [(4, 3), (5,), (4, 3), (1,) * 24]]
        assert ids == [0, 1, 0, 2]
        assert catalog.lengths[:3].tolist() == [2, 1, 24]
        assert catalog.rows[0].tolist() == [4, 3] + [0] * 22
        assert catalog.rows[2].tolist() == [1] * 24
        for k in range(40):  # growth keeps earlier rows
            catalog.intern((k + 1, 1))
        assert catalog.partitions[1] == (5,)
        assert np.array_equal(catalog.rows[1, :2], [5, 0])


class TestDefaults:
    def test_default_dims_cover_paper_figures(self):
        assert set((5, 6, 7)) <= set(DEFAULT_DIMS)
