"""Tests for the vectorized grid evaluation of the cost model.

The load-bearing guarantee is *bitwise* agreement with the scalar
model: the grid path drives the figures, tables, hulls, and sweeps,
whose text outputs must not move by one ulp when batching is on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import cached_partitions, partitions
from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition, best_partitions
from repro.model.params import hypothetical, ipsc860
from repro.model.vectorized import (
    canonical_pools,
    grid_winners,
    machine_coefficients,
    multiphase_time_grid,
    multiphase_time_pairs,
    pack_partitions,
)

PRESET_PARAMS = (ipsc860(), hypothetical())


def params_strategy():
    """Presets plus randomized constants (sync handshake on and off)."""
    finite = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
    randomized = st.builds(
        lambda lam, tau, delta, rho, lam0, gamma, sync: ipsc860().with_overrides(
            latency=lam,
            byte_time=tau,
            hop_time=delta,
            permute_time=rho,
            sync_latency=lam0,
            global_sync_per_dim=gamma,
            pairwise_sync=sync,
        ),
        finite, finite, finite, finite, finite, finite, st.booleans(),
    )
    return st.one_of(st.sampled_from(PRESET_PARAMS), randomized)


class TestGridMatchesScalar:
    @settings(deadline=None, max_examples=120)
    @given(
        d=st.integers(min_value=1, max_value=10),
        ms=st.lists(
            st.floats(min_value=0.0, max_value=4096.0, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        params=params_strategy(),
        data=st.data(),
    )
    def test_full_float_precision_agreement(self, d, ms, params, data):
        """Property: every grid cell equals the scalar model exactly —
        ``==`` on floats, not approx — over randomized block sizes,
        dimensions, partition subsets, and machine constants."""
        pool = list(cached_partitions(d))
        subset = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool))
        )
        grid = multiphase_time_grid(ms, d, subset, params)
        assert grid.shape == (len(subset), len(ms))
        for i, partition in enumerate(subset):
            for j, m in enumerate(ms):
                assert grid[i, j] == multiphase_time(m, d, partition, params)

    def test_unordered_partitions_accepted(self, ipsc):
        """Compositions (non-canonical orderings) evaluate too, exactly
        like the scalar model does."""
        grid = multiphase_time_grid([40.0], 7, [(2, 3, 2), (3, 4)], ipsc)
        assert grid[0, 0] == multiphase_time(40.0, 7, (2, 3, 2), ipsc)
        assert grid[1, 0] == multiphase_time(40.0, 7, (3, 4), ipsc)

    def test_full_pool_d7_dense_grid(self, ipsc):
        ms = [i * 400.0 / 511 for i in range(512)]
        pool = list(partitions(7))
        grid = multiphase_time_grid(ms, 7, pool, ipsc)
        spot = [(0, 0), (7, 99), (14, 511), (3, 256)]
        for i, j in spot:
            assert grid[i, j] == multiphase_time(ms[j], 7, pool[i], ipsc)


class TestPairsMatchScalar:
    @settings(deadline=None, max_examples=120)
    @given(
        d=st.integers(min_value=1, max_value=10),
        ms=st.lists(
            st.floats(min_value=0.0, max_value=4096.0, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        params=params_strategy(),
        data=st.data(),
    )
    def test_elementwise_agreement(self, d, ms, params, data):
        """Property: each (m, partition) pairing equals the scalar
        model exactly — the pairs kernel is the grid's diagonal."""
        pool = list(cached_partitions(d))
        candidates = data.draw(
            st.lists(st.sampled_from(pool), min_size=len(ms), max_size=len(ms))
        )
        times = multiphase_time_pairs(ms, d, candidates, params)
        assert times.shape == (len(ms),)
        for i, (m, partition) in enumerate(zip(ms, candidates)):
            assert times[i] == multiphase_time(m, d, partition, params)

    def test_length_mismatch_rejected(self, ipsc):
        with pytest.raises(ValueError, match="paired with"):
            multiphase_time_pairs([1.0, 2.0], 5, [(5,)], ipsc)

    def test_empty(self, ipsc):
        assert multiphase_time_pairs([], 5, [], ipsc).shape == (0,)


class TestValidation:
    def test_rejects_negative_block_size(self, ipsc):
        with pytest.raises(ValueError, match=">= 0"):
            multiphase_time_grid([4.0, -1.0], 5, [(5,)], ipsc)

    def test_rejects_nan_block_size(self, ipsc):
        with pytest.raises(ValueError, match="finite"):
            multiphase_time_grid([float("nan")], 5, [(5,)], ipsc)

    def test_rejects_2d_input(self, ipsc):
        with pytest.raises(ValueError, match="one-dimensional"):
            multiphase_time_grid([[1.0, 2.0]], 5, [(5,)], ipsc)

    def test_rejects_bad_partition(self, ipsc):
        with pytest.raises(ValueError, match="sums to"):
            multiphase_time_grid([1.0], 5, [(3, 3)], ipsc)

    def test_empty_pool_and_empty_grid(self, ipsc):
        assert multiphase_time_grid([1.0], 5, [], ipsc).shape == (0, 1)
        assert multiphase_time_grid([], 5, [(5,)], ipsc).shape == (1, 0)

    def test_pack_partitions_pads_with_zeros(self):
        pool, packed = pack_partitions([(4,), (2, 1, 1)], 4)
        assert pool == ((4,), (2, 1, 1))
        assert packed.tolist() == [[4, 0, 0], [2, 1, 1]]


class TestWinners:
    def test_grid_winners_match_scalar_tiebreak(self, ipsc):
        pool = list(partitions(7))
        ms = [0.0, 12.0, 40.0, 160.0, 400.0]
        winners = grid_winners(multiphase_time_grid(ms, 7, pool, ipsc), pool)
        expected = [
            min(pool, key=lambda p: (multiphase_time(m, 7, p, ipsc), p)) for m in ms
        ]
        assert winners == expected

    def test_grid_winners_shape_mismatch(self, ipsc):
        times = multiphase_time_grid([1.0], 5, cached_partitions(5), ipsc)
        with pytest.raises(ValueError, match="rows"):
            grid_winners(times, [(5,)])

    def test_exact_tie_prefers_smaller_tuple(self):
        """With all costs forced to zero every partition ties; the
        batched tie-break must pick the lexicographically smallest
        tuple, like the scalar ``min(pool, key=(time, p))``."""
        free = ipsc860().with_overrides(
            latency=0.0, byte_time=0.0, hop_time=0.0, permute_time=0.0,
            sync_latency=0.0, global_sync_per_dim=0.0,
        )
        pool = list(partitions(6))
        winners = grid_winners(multiphase_time_grid([8.0], 6, pool, free), pool)
        assert winners == [min(pool)]


class TestBestPartitionsBatch:
    def test_matches_scalar_best_partition(self, ipsc):
        ms = [0.0, 1.0, 12.5, 40.0, 399.0, 400.0]
        batch = best_partitions(ms, 7, ipsc)
        for m, choice in zip(ms, batch):
            scalar = best_partition(m, 7, ipsc, method="scalar")
            assert choice.m == scalar.m
            assert choice.partition == scalar.partition
            assert choice.time == scalar.time
            assert choice.ranking == scalar.ranking

    def test_candidate_restriction(self, ipsc):
        (choice,) = best_partitions([40.0], 6, ipsc, candidates=[(6,), (3, 3)])
        assert {p for p, _ in choice.ranking} == {(6,), (3, 3)}

    def test_ranking_times_are_python_floats(self, ipsc):
        (choice,) = best_partitions([40.0], 5, ipsc)
        assert all(type(t) is float for _, t in choice.ranking)
        assert type(choice.time) is float

    def test_empty_batch(self, ipsc):
        assert best_partitions([], 5, ipsc) == []


class TestOverflowDomain:
    def test_dead_slots_stay_zero_at_overflowing_block_sizes(self, ipsc):
        """Padding slots contribute an exact +0.0 even when m*2**d
        overflows float64: the grid must mirror the scalar model's
        inf, never NaN."""
        with np.errstate(over="ignore"):
            grid = multiphase_time_grid([5e306], 7, [(7,), (4, 3)], ipsc)
        assert not np.isnan(grid).any()
        for i, p in enumerate([(7,), (4, 3)]):
            assert grid[i, 0] == multiphase_time(5e306, 7, p, ipsc)


class TestCanonicalPools:
    def test_each_pool_is_every_partition_sorted(self):
        pools, starts, packed = canonical_pools(9)
        assert packed.shape == (len(pools), 9)
        for d in range(1, 10):
            pool = pools[starts[d - 1] : starts[d]]
            assert pool == tuple(sorted(cached_partitions(d)))
            for row, partition in enumerate(pool, start=starts[d - 1]):
                assert packed[row].tolist() == [*partition] + [0] * (9 - len(partition))

    def test_shared_arrays_are_read_only(self):
        _, starts, packed = canonical_pools(4)
        with pytest.raises(ValueError):
            packed[0, 0] = 2
        with pytest.raises(ValueError):
            starts[0] = 1


def test_machine_coefficients_are_the_scalar_models(ipsc):
    assert machine_coefficients(ipsc, 7) == (
        ipsc.exchange_latency,
        ipsc.byte_time,
        ipsc.exchange_hop_time,
        ipsc.permute_time,
        ipsc.global_sync_time(7),
    )
