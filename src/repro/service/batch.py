"""Batched query resolution over an optimizer registry.

A :class:`QueryBatch` collects heterogeneous ``(preset, d, m)``
lookups and answers them all in one pass:

1. every query checks the registry's result memo first;
2. the misses are grouped by ``(preset, d)`` and deduplicated by block
   size, so repeats inside one batch cost one cell;
3. the whole batch's misses become one set of rows: a block size
   within the table's recorded sweep bound is one row, the partition
   the preset's stored :class:`~repro.model.optimizer.OptimizerTable`
   holds for it (a bisect, no model evaluation); a block size beyond
   the bound — where the table's last segment would be an unverified
   extrapolation — is one row per member of the full candidate pool;
4. one call of the eq. (3) kernel of :mod:`repro.model.vectorized`
   prices every row, and a segmented argmin picks each beyond-bound
   cell's winner in the order of
   :func:`~repro.model.optimizer.best_partition`, bit for bit.

The memo and the registry's counters are written only after the
pricing pass succeeds.

The kernel is bitwise-identical to the scalar model, so each
result's ``time_us`` equals ``multiphase_time(m, d, partition,
params)`` to the last bit; within the sweep bound the partition is the
stored table's answer, whose switch points are located to ~1e-3 bytes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.model.vectorized import _eq3_kernel, canonical_pools, machine_coefficients

# unused here (batches are priced by _eq3_kernel); bound for tools that
# wrap the grid kernel at this module by attribute
from repro.model.vectorized import multiphase_time_grid  # noqa: F401
from repro.util.validation import MAX_DIMENSION, check_block_size, check_dimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.registry import OptimizerRegistry

__all__ = [
    "Query",
    "QueryBatch",
    "QueryResult",
    "as_query",
    "check_query_values",
    "queries_from_arrays",
    "resolve_queries",
]


@dataclass(frozen=True)
class Query:
    """One optimal-partition lookup."""

    preset: str
    d: int
    m: float
    #: opaque caller payload echoed on the result (e.g. a request id)
    tag: Any = None


@dataclass(frozen=True)
class QueryResult:
    """The served answer for one :class:`Query`."""

    preset: str
    d: int
    m: float
    partition: tuple[int, ...]
    time_us: float
    #: ``"memo"`` (repeat query), ``"grid"`` (the table's partition,
    #: priced by the batch's kernel call), or ``"pool"`` (beyond the
    #: table's sweep bound: exact full-pool scoring in that same call)
    source: str
    tag: Any = None


def check_query_values(d: int, m: float) -> float:
    """The admission checks every transport shares: one place to add a
    rule so the stdio loop and the socket server cannot drift apart.

    Returns the block size as admitted: a float, with ``-0.0`` turned
    into ``0.0``.  The two compare equal, so they share a memo entry and
    a coalescing key, and without this the first sign seen would be
    echoed to every query of the cell."""
    check_dimension(d, minimum=1)
    m = check_block_size(m)
    if not math.isfinite(m):
        raise ValueError(f"block size must be finite, got {m}")
    return m + 0.0  # -0.0 + 0.0 == +0.0; every other float is unchanged


def queries_from_arrays(
    catalog: Sequence[str], records: np.ndarray
) -> list[Query]:
    """Normalized :class:`Query` objects for packed wire records.

    ``records`` is an array of ``(preset, d, m)`` records (the binary
    transport's :data:`repro.service.wire.QUERY_DTYPE`); ``catalog``
    maps its integer preset indices to preset names.  Validation is the
    same gate :func:`check_query_values` applies per query — dimension
    in range, block size finite and non-negative, ``-0.0`` admitted as
    ``0.0`` — but evaluated over whole columns in numpy, so the
    admission cost of a frame is proportional to one pass, not one
    Python call per query.  The returned queries are
    ``pre_normalized``-grade for :func:`resolve_queries`.
    """
    presets = records["preset"]
    dims = records["d"]
    sizes = records["m"] + 0.0  # -0.0 -> 0.0, as check_query_values does
    if presets.size and int(presets.max()) >= len(catalog):
        bad = int(presets[presets >= len(catalog)][0])
        raise ValueError(
            f"preset index {bad} out of range for a catalog of {len(catalog)}"
        )
    if dims.size:
        lo, hi = int(dims.min()), int(dims.max())
        if lo < 1:
            raise ValueError(f"cube dimension must be >= 1, got {lo}")
        if hi > MAX_DIMENSION:
            raise ValueError(
                f"cube dimension {hi} exceeds the supported maximum "
                f"{MAX_DIMENSION} ({2 ** MAX_DIMENSION} nodes); did you "
                f"pass the node count instead?"
            )
    if sizes.size and not bool(np.isfinite(sizes).all()):
        bad_m = float(sizes[~np.isfinite(sizes)][0])
        raise ValueError(f"block size must be finite, got {bad_m}")
    if sizes.size and bool((sizes < 0).any()):
        raise ValueError(
            f"block size must be >= 0, got {float(sizes[sizes < 0][0])}"
        )
    names = [catalog[int(p)] for p in presets.tolist()]
    return [
        Query(preset=name, d=d, m=m)
        for name, d, m in zip(names, dims.tolist(), sizes.tolist())
    ]


def as_query(item: "Query | tuple[str | None, int, float]") -> Query:
    """Normalize and validate one lookup (a :class:`Query` or a bare
    ``(preset, d, m)`` tuple) — the shared admission check for every
    resolution path, including the socket transports."""
    if isinstance(item, Query):
        query = item
    else:
        preset, d, m = item
        query = Query(preset=preset, d=d, m=m)
    m = check_query_values(query.d, query.m)
    return Query(query.preset, int(query.d), m, query.tag)


def resolve_queries(
    registry: "OptimizerRegistry",
    queries: Iterable[Query | tuple],
    *,
    pre_normalized: bool = False,
) -> list[QueryResult]:
    """Answer every query, pricing all misses in one kernel call.

    Accepts :class:`Query` objects or bare ``(preset, d, m)`` tuples;
    results come back in input order.  ``pre_normalized=True`` skips
    re-validation for callers (like the socket transport's admission
    path) whose queries already passed :func:`as_query`-grade checks —
    on a hot serving path the redundant :class:`Query` reconstruction
    is measurable.
    """
    if pre_normalized:
        return _resolve_normalized(registry, list(queries))
    return _resolve_normalized(registry, [as_query(q) for q in queries])


def _resolve_normalized(
    registry: "OptimizerRegistry", normalized: list[Query]
) -> list[QueryResult]:
    for query in normalized:
        registry.params(query.preset)  # reject unknown presets before any
        # stats/memo mutation, so a failed batch leaves no partial state
    results: list[QueryResult | None] = [None] * len(normalized)
    #: (preset, d) -> m -> indices awaiting that cell
    pending: dict[tuple[str, int], dict[float, list[int]]] = {}
    for i, query in enumerate(normalized):
        hit = registry.memo_get((query.preset, query.d, query.m))
        if hit is not None:
            results[i] = QueryResult(
                query.preset, query.d, query.m, *hit, "memo", query.tag
            )
        else:
            group = pending.setdefault((query.preset, query.d), {})
            group.setdefault(query.m, []).append(i)

    cells, n_rows = _price_misses(registry, pending)
    # the pricing pass succeeded: only now write the memo and counters
    misses = 0
    for preset, d, m, partition, time_us, source in cells:
        registry.memo_put((preset, d, m), (partition, time_us))
        waiting = pending[preset, d][m]
        misses += len(waiting)
        for i in waiting:
            results[i] = QueryResult(
                preset, d, m, partition, time_us, source, normalized[i].tag
            )
    stats = registry.stats
    stats.queries += len(normalized)
    stats.memo_hits += len(normalized) - misses
    stats.memo_misses += misses
    stats.coalesced += misses - len(cells)
    if cells:
        stats.grid_calls += 1
        stats.grid_cells += n_rows
    return results  # type: ignore[return-value]


def _price_misses(
    registry: "OptimizerRegistry",
    pending: dict[tuple[str, int], dict[float, list[int]]],
) -> tuple[list[tuple[str, int, float, tuple[int, ...], float, str]], int]:
    """Price every missed cell of a batch with one kernel call.

    Each cell gets a run of candidate rows: a cell the table covers has
    one, its table partition; a cell beyond the sweep bound has one per
    member of its cube's canonical pool, sorted by partition tuple.  An
    argmin over each run picks the fastest candidate and, among tied
    ones, the smallest tuple: the
    :func:`~repro.model.vectorized.grid_winners` order.

    Returns ``(preset, d, m, partition, time_us, source)`` per cell, in
    group order and then block-size order, and the number of rows priced.
    """
    if not pending:
        return [], 0
    keys: list[tuple[str, int, float, str]] = []
    cell_group: list[int] = []
    #: a covered cell's index into ``table_parts``; -1 beyond the bound
    cell_part: list[int] = []
    table_parts: dict[tuple[int, ...], int] = {}
    for g, ((preset, d), by_m) in enumerate(pending.items()):
        ms = sorted(by_m)
        n_covered = bisect_right(ms, registry.coverage(preset, d))
        if n_covered:
            # fetched only here, so an all-beyond group never loads (or
            # sweeps) its table; the segments were validated at load
            table = registry.table(preset, d)
            for m in ms[:n_covered]:
                keys.append((preset, d, m, "grid"))
                partition = table.lookup(m)
                cell_part.append(table_parts.setdefault(partition, len(table_parts)))
        keys += [(preset, d, m, "pool") for m in ms[n_covered:]]
        cell_part += [-1] * (len(ms) - n_covered)
        cell_group += [g] * len(ms)

    cell_d = np.array([d for _, d in pending], dtype=np.intp)[cell_group]
    beyond = np.asarray(cell_part) < 0
    pools, starts, catalog = canonical_pools(int(cell_d[beyond].max(initial=1)))
    # candidate rows: the batch's table partitions, then every pool
    labels = [*table_parts, *pools]
    candidates = np.zeros((len(labels), max(map(len, labels))), dtype=np.int8)
    for row, partition in enumerate(table_parts):
        candidates[row, : len(partition)] = partition
    candidates[len(table_parts) :, : catalog.shape[1]] = catalog
    pool_d = np.where(beyond, cell_d, 1)  # a covered cell's pool is unused
    first = np.where(beyond, len(table_parts) + starts[pool_d - 1], cell_part)
    sizes = np.where(beyond, starts[pool_d] - starts[pool_d - 1], 1)
    run_start = np.cumsum(sizes) - sizes
    cell_of_row = np.repeat(np.arange(len(keys)), sizes)
    rows = first[cell_of_row] + np.arange(len(cell_of_row)) - run_start[cell_of_row]
    coefficients = np.array(
        [machine_coefficients(registry.params(p), d) for p, d in pending]
    ).T
    times = _eq3_kernel(
        np.array([m for _, _, m, _ in keys])[cell_of_row],
        cell_d[cell_of_row],
        candidates[rows],
        *coefficients[:, np.asarray(cell_group)[cell_of_row]],
    )

    # segmented argmin with np.argmin's rule: in each run the first
    # minimum wins (the first NaN, if the run has one)
    low = np.minimum.reduceat(times, run_start)[cell_of_row]
    hits = np.flatnonzero((times == low) | (np.isnan(low) & np.isnan(times)))
    best = hits[np.searchsorted(hits, run_start)]
    cells = [
        (preset, d, m, labels[row], time_us, source)
        for (preset, d, m, source), row, time_us in zip(
            keys, rows[best].tolist(), times[best].tolist()
        )
    ]
    return cells, len(times)


class QueryBatch:
    """Accumulate lookups, then :meth:`resolve` them in one pass.

    >>> from repro.service.registry import OptimizerRegistry
    >>> batch = QueryBatch(OptimizerRegistry())
    >>> _ = batch.add("ipsc860", 7, 40.0)
    >>> _ = batch.add("ipsc860", 5, 40.0)
    >>> [r.partition for r in batch.resolve()]
    [(4, 3), (3, 2)]
    """

    def __init__(self, registry: "OptimizerRegistry") -> None:
        self._registry = registry
        self._queries: list[Query] = []

    def add(self, preset: str, d: int, m: float, *, tag: Any = None) -> int:
        """Queue one lookup; returns its index in the result list."""
        self._queries.append(as_query(Query(preset, d, m, tag)))
        return len(self._queries) - 1

    def extend(self, queries: Iterable[Query | tuple]) -> None:
        """Queue many lookups (``Query`` objects or bare tuples)."""
        normalized = [as_query(q) for q in queries]
        # validate everything first so a bad item leaves the batch
        # unchanged instead of half-queued
        self._queries.extend(normalized)

    def __len__(self) -> int:
        return len(self._queries)

    def resolve(self) -> list[QueryResult]:
        """Answer every queued query (and clear the batch)."""
        queries, self._queries = self._queries, []
        # add()/extend() already normalized and validated each query
        return _resolve_normalized(self._registry, queries)
