"""Vectorized (numpy) fast path for the eqs. (1)–(3) cost model.

The paper's §6 enumeration — model every partition of ``d`` at every
block size of interest, keep the lower envelope — is embarrassingly
data-parallel, yet :func:`repro.model.cost.multiphase_time` evaluates
one scalar ``(m, partition)`` pair per call.  This module evaluates the
whole **block-size grid × candidate-partition matrix** in one shot
with numpy broadcasting, which is what lets the optimizer, the sweeps,
and the figure generators answer "which partition should a library
call?" at production rates.

Bit-for-bit agreement with the scalar path is a hard requirement (the
figure and table text outputs must not move by even one ulp), so the
kernel applies *exactly the same IEEE-754 operations in exactly the
same order* as :func:`repro.model.cost.phase_cost` /
:func:`repro.model.cost.multiphase_time`:

* per phase: ``((transmission + distance) + shuffle) + global_sync``
  with ``transmission = n_tx * (λ_x + τ·(m·2**(d-d_i)))``;
* per partition: left-to-right accumulation over the phases, starting
  from ``0.0`` (Python's ``sum``);
* powers of two come from ``ldexp`` so the scale factors are exact.

Padded phase slots (partitions shorter than the widest candidate)
would contribute an exact ``+0.0``, which leaves every total unchanged,
so the kernel skips them: ragged partition lists cost nothing in
precision, and only live phases cost time.

One private slot loop, :func:`_eq3_kernel`, does all of this: the grid
and pairs entry points are thin validating wrappers over it, and the
query service prices a whole batch of mixed machines and cube
dimensions with one call of it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.core.partitions import cached_partitions
from repro.model.params import MachineParams
from repro.util.validation import MAX_DIMENSION, check_dimension, check_partition

__all__ = [
    "canonical_pools",
    "grid_winners",
    "machine_coefficients",
    "multiphase_time_grid",
    "multiphase_time_pairs",
    "pack_partitions",
]


def pack_partitions(
    partitions: Iterable[Sequence[int]], d: int
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Validate candidates and pack them into a padded ``(P, K)`` int
    matrix (``K`` = longest candidate; missing phases are ``0``).

    Returns the validated pool (as tuples, original order preserved)
    alongside the matrix, so callers can map row indices back to
    partitions.
    """
    check_dimension(d, minimum=1)
    pool = tuple(check_partition(p, d) for p in partitions)
    width = max((len(p) for p in pool), default=1)
    packed = np.zeros((len(pool), width), dtype=np.int64)
    for row, parts in enumerate(pool):
        packed[row, : len(parts)] = parts
    return pool, packed


@lru_cache(maxsize=None)
def canonical_pools(
    d_max: int,
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """Every partition of every cube dimension ``1..d_max``, validated
    and packed once per process: ``(pools, starts, packed)``.

    The pool of ``d`` is rows ``starts[d - 1]:starts[d]`` of both the
    flat partition tuple ``pools`` and the ``(N, d_max)`` matrix
    ``packed``.  Each pool is sorted by partition tuple, so a row-wise
    argmin's first minimum is the smallest tuple among the tied: the
    :func:`grid_winners` total order.  The arrays are read-only
    because every caller shares them.
    """
    check_dimension(d_max, minimum=1)
    pools: list[tuple[int, ...]] = []
    blocks = []
    for d in range(1, d_max + 1):
        pool, block = pack_partitions(sorted(cached_partitions(d)), d)
        pools.extend(pool)
        blocks.append(np.pad(block, ((0, 0), (0, d_max - d))))
    starts = np.cumsum([0] + [len(block) for block in blocks])
    packed = np.concatenate(blocks).astype(np.int8)  # parts <= 24
    starts.setflags(write=False)
    packed.setflags(write=False)
    return tuple(pools), starts, packed


def machine_coefficients(
    params: MachineParams, d: int
) -> tuple[float, float, float, float, float]:
    """The five eq. (3) coefficients of ``params`` on a ``d``-cube:
    ``(λ_x, τ, δ_x, ρ, global sync)``, in the kernel's argument order."""
    return (params.exchange_latency, params.byte_time, params.exchange_hop_time,
            params.permute_time, params.global_sync_time(d))


#: eq. (3) terms of one phase, looked up by its dimension ``d_i``: the
#: ``2**d_i - 1`` transmissions and their total distance
#: ``d_i * 2**(d_i - 1)``; and powers of two, ``_POW2[k] = 2**k`` and
#: ``_SCALE[d, d_i] = 2**(d - d_i)`` (read only for ``d_i <= d``).
#: Powers of two are exact, so each lookup is the float the scalar
#: model computes.
_DIMS = range(MAX_DIMENSION + 1)
_N_TX = np.array([(1 << di) - 1 for di in _DIMS], dtype=np.int64)
_DISTANCE = np.array([di << max(di - 1, 0) for di in _DIMS], dtype=np.int64)
_POW2 = np.ldexp(1.0, np.arange(MAX_DIMENSION + 1, dtype=np.int32))
_SCALE = np.array([[_POW2[abs(d - di)] for di in _DIMS] for d in _DIMS])


def _eq3_kernel(m, d, parts, lam_x, tau, delta_x, rho, gsync) -> np.ndarray:
    """The one eq. (3) slot loop.

    ``parts`` is an ``(R, K)`` packed partition matrix: one candidate
    per row, its phases first, ``0`` in the dead slots after them.  Each
    other argument is a scalar or an array of the result's rank whose
    leading axis is the row axis (length ``R``) or a broadcast axis
    (length 1), so the result has shape ``(R, ...)``: the grid passes
    ``m`` as ``(1, M)``; pairs and the query service pass one value per
    row.  Inputs are trusted: callers validate partitions and block
    sizes.

    Rows are visited in decreasing phase count, so slot ``s`` touches
    only the leading rows that have a phase there.  A dead slot would
    add an exact ``+0.0``, which leaves every total unchanged, so
    skipping it is exact.
    """
    n_rows, width = parts.shape
    n_phases = (parts > 0).sum(axis=1)
    order = np.argsort(-n_phases, kind="stable")
    #: per slot, how many rows have a phase in it
    counts = np.cumsum(np.bincount(n_phases, minlength=width + 1)[::-1])[::-1][1:]

    def by_row(x):
        x = np.asarray(x)
        return x[order] if x.ndim and x.shape[0] == n_rows else x

    m, d, lam_x, tau, delta_x, rho, gsync = map(
        by_row, (m, d, lam_x, tau, delta_x, rho, gsync)
    )
    parts = parts[order]
    trailing = np.broadcast_shapes(
        *(x.shape[1:] for x in (m, d, lam_x, tau, delta_x, rho, gsync))
    )
    column = (slice(None),) + (np.newaxis,) * len(trailing)
    total = np.zeros((n_rows, *trailing))
    # overflow to inf at astronomically large m is the scalar model's
    # answer too, not an error
    with np.errstate(over="ignore"):
        #: ρ·(m·2**d), charged per phase only in multi-phase schedules
        shuffle = np.where(
            (n_phases[order] > 1)[column], rho * (m * _POW2[d]), 0.0
        )

        def head(x):  # the rows of the current slot, ``k`` of them
            return x[:k] if x.ndim and x.shape[0] == n_rows else x

        for slot, k in enumerate(counts.tolist()):
            di = parts[:k, slot][column]
            phase = _N_TX[di] * (
                head(lam_x) + head(tau) * (head(m) * _SCALE[head(d), di])
            )
            phase = phase + head(delta_x) * _DISTANCE[di]
            phase = phase + head(shuffle)
            phase = phase + head(gsync)
            total[:k] += phase
    out = np.empty_like(total)
    out[order] = total
    return out


def _block_sizes(ms: Sequence[float] | np.ndarray) -> np.ndarray:
    m_arr = np.asarray(ms, dtype=np.float64)
    if m_arr.ndim != 1:
        raise ValueError(f"ms must be one-dimensional, got shape {m_arr.shape}")
    if m_arr.size and (not np.all(np.isfinite(m_arr)) or np.any(m_arr < 0)):
        bad = m_arr[~(np.isfinite(m_arr) & (m_arr >= 0))][0]
        raise ValueError(f"block sizes must be finite and >= 0, got {bad}")
    return m_arr


def multiphase_time_grid(
    ms: Sequence[float] | np.ndarray,
    d: int,
    partitions: Iterable[Sequence[int]],
    params: MachineParams,
) -> np.ndarray:
    """Predicted multiphase-exchange time for every ``(partition, m)``
    pair: a ``(len(partitions), len(ms))`` float64 array.

    Equivalent to — and bitwise identical with — the scalar loop::

        [[multiphase_time(m, d, p, params) for m in ms] for p in partitions]

    but evaluated by broadcasting over the full grid, phase by phase.
    The phase loop runs at most ``d`` times; everything inside it is a
    whole-matrix numpy operation.

    >>> from repro.model.params import hypothetical
    >>> multiphase_time_grid([24.0], 6, [(1,) * 6, (2, 4)], hypothetical())
    array([[15144.],
           [ 9984.]])
    """
    _, packed = pack_partitions(partitions, d)
    m_arr = _block_sizes(ms)
    return _eq3_kernel(
        m_arr[np.newaxis, :], d, packed, *machine_coefficients(params, d)
    )


def multiphase_time_pairs(
    ms: Sequence[float] | np.ndarray,
    d: int,
    partitions: Iterable[Sequence[int]],
    params: MachineParams,
) -> np.ndarray:
    """Predicted time for each ``(ms[i], partitions[i])`` pairing: a
    ``(len(ms),)`` float64 vector.

    The elementwise form of :func:`multiphase_time_grid` — the same
    kernel, applied along one axis instead of broadcasting the cross
    product — so it is bitwise identical to::

        [multiphase_time(m, d, p, params) for m, p in zip(ms, partitions)]

    Use it when each block size pairs with its own candidate (the
    lockstep crossover bisections), where the grid's cross product
    would evaluate cells nobody reads.
    """
    pool, packed = pack_partitions(partitions, d)
    m_arr = _block_sizes(ms)
    if m_arr.shape[0] != len(pool):
        raise ValueError(
            f"{m_arr.shape[0]} block sizes paired with {len(pool)} partitions"
        )
    return _eq3_kernel(m_arr, d, packed, *machine_coefficients(params, d))


def grid_winners(
    times: np.ndarray, pool: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Per-column winner of a ``(P, M)`` time grid, tie-broken by the
    smaller partition tuple — the same total order as
    ``min(pool, key=lambda p: (time(p), p))`` on the scalar path.
    """
    if times.shape[0] != len(pool):
        raise ValueError(
            f"time grid has {times.shape[0]} rows for {len(pool)} candidates"
        )
    order = sorted(range(len(pool)), key=lambda i: pool[i])
    # argmin returns the first minimal row; rows sorted by partition
    # tuple make "first" mean "smallest tuple among the tied"
    best = times[order, :].argmin(axis=0)
    return [pool[order[i]] for i in best]
