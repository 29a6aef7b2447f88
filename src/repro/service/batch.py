"""Batched query resolution over an optimizer registry.

Every lookup, from any transport, is answered by one columnar core
over an array of :data:`~repro.service.wire.QUERY_DTYPE` records
``(preset index, d, m)``, in one pass:

1. each record's 12 bytes probe the registry's result memo
   (:class:`~repro.service.registry.SlotMemo`), and every hit's answer
   is gathered from the memo's columns at once — before any miss is
   written, because a miss may evict a hit's slot and reuse it;
2. the misses are grouped by ``(preset, d)`` and deduplicated by block
   size, so repeats inside one batch cost one cell;
3. the misses become rows: a block size within the table's recorded
   sweep bound is one row, the partition the preset's stored
   :class:`~repro.model.optimizer.OptimizerTable` holds for it (a
   bisect, no model evaluation); a block size beyond the bound — where
   the table's last segment would be an unverified extrapolation — is
   one row per member of the full candidate pool;
4. the eq. (3) kernel of :mod:`repro.model.vectorized` prices the rows
   in one call — or, for a batch of more than :data:`KERNEL_ROWS`
   rows, one call per chunk of whole cells — and a segmented argmin
   picks each beyond-bound cell's winner in the order of
   :func:`~repro.model.optimizer.best_partition`, bit for bit.

The memo and the registry's counters are written only after the
pricing pass succeeds.  Answers come back as :class:`ResultColumns`,
which the binary wire encodes without a per-query object; the object
API (:class:`Query` in, :class:`QueryResult` out, :class:`QueryBatch`)
packs its queries into records, calls the same core and unpacks.

The kernel is bitwise-identical to the scalar model, so each
result's ``time_us`` equals ``multiphase_time(m, d, partition,
params)`` to the last bit; within the sweep bound the partition is the
stored table's answer, whose switch points are located to ~1e-3 bytes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Sequence, overload

import numpy as np

from repro.model.vectorized import _eq3_kernel, canonical_pools, machine_coefficients

# unused here (batches are priced by _eq3_kernel); bound for tools that
# wrap the grid kernel at this module by attribute
from repro.model.vectorized import multiphase_time_grid  # noqa: F401
from repro.service.wire import QUERY_DTYPE, SOURCE_CODES, SOURCE_NAMES
from repro.util.validation import MAX_DIMENSION, check_block_size, check_dimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.registry import OptimizerRegistry, PartitionCatalog

__all__ = [
    "KERNEL_ROWS",
    "Query",
    "QueryBatch",
    "QueryResult",
    "ResultColumns",
    "as_query",
    "check_query_values",
    "queries_from_arrays",
    "query_results",
    "records_from_queries",
    "resolve_queries",
]

#: most candidate rows one kernel call prices.  It bounds the miss
#: path's per-row arrays for any batch size, fits every 64-query batch
#: in one call (64 * p(24) = 100,800 rows), and exceeds the largest
#: cell (p(24) = 1,575 rows), so chunks split between whole cells.
KERNEL_ROWS = 1 << 17

# the memo's code is 0, so a zeroed source column reads "memo"
_GRID, _POOL = SOURCE_CODES["grid"], SOURCE_CODES["pool"]
_INF_BITS = int(np.array(math.inf).view(np.uint64))


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


@dataclass(frozen=True)
class ResultColumns:
    """The answers to a record array, in query order, as columns."""

    #: float64 predicted exchange time of each query's answer
    time_us: np.ndarray
    #: uint8 provenance of each answer, an index into
    #: :data:`~repro.service.wire.SOURCE_NAMES`
    source: np.ndarray
    #: each answer's partition, an id into ``partitions``
    part_id: np.ndarray
    partitions: "PartitionCatalog"

    def __getitem__(self, index: slice) -> "ResultColumns":
        return ResultColumns(
            self.time_us[index], self.source[index], self.part_id[index],
            self.partitions,
        )


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
) -> np.ndarray:
    """Packed wire records, validated and normalized.

    ``records`` is an array of ``(preset, d, m)`` records (the binary
    transport's :data:`~repro.service.wire.QUERY_DTYPE`); ``catalog``
    holds the preset names its integer preset indices refer to.
    Validation is the same gate :func:`check_query_values` applies per
    query — dimension in range, block size finite and non-negative,
    ``-0.0`` admitted as ``0.0`` — but evaluated over whole columns in
    numpy, so admitting a frame costs a few array passes, not one
    Python call per query.  The records come back unchanged, or as a
    copy when a ``-0.0`` had to be rewritten; either way they are what
    :func:`resolve_queries` takes when ``catalog`` is the registry's
    ``preset_names``.
    """
    if records.dtype != QUERY_DTYPE:
        raise TypeError(f"expected QUERY_DTYPE records, got dtype {records.dtype}")
    if not len(records):
        return records
    presets, dims = records["preset"], records["d"]
    if int(presets.max()) >= len(catalog):
        bad = int(presets[presets >= len(catalog)][0])
        raise ValueError(
            f"preset index {bad} out of range for a catalog of {len(catalog)}"
        )
    lo, hi = int(dims.min()), int(dims.max())
    if lo < 1:
        raise ValueError(f"cube dimension must be >= 1, got {lo}")
    if hi > MAX_DIMENSION:
        raise ValueError(
            f"cube dimension {hi} exceeds the supported maximum "
            f"{MAX_DIMENSION} ({2 ** MAX_DIMENSION} nodes); did you "
            f"pass the node count instead?"
        )
    # read as unsigned integers, the finite non-negative doubles other
    # than -0.0 are exactly the bit patterns below +inf's
    if int(records["m"].view(np.uint64).max()) >= _INF_BITS:
        records = records.copy()
        sizes = records["m"]
        sizes += 0.0  # -0.0 -> 0.0, as check_query_values does
        if not bool(np.isfinite(sizes).all()):
            bad_m = float(sizes[~np.isfinite(sizes)][0])
            raise ValueError(f"block size must be finite, got {bad_m}")
        if bool((sizes < 0).any()):
            raise ValueError(f"block size must be >= 0, got {float(sizes[sizes < 0][0])}")
    return records


def as_query(item: "Query | tuple[str | None, int, float]") -> Query:
    """Normalize and validate one lookup (a :class:`Query` or a bare
    ``(preset, d, m)`` tuple) — the shared admission check for every
    object-level resolution path, including the JSON transports."""
    if isinstance(item, Query):
        query = item
    else:
        preset, d, m = item
        query = Query(preset=preset, d=d, m=m)
    m = check_query_values(query.d, query.m)
    return Query(query.preset, int(query.d), m, query.tag)


def records_from_queries(
    registry: "OptimizerRegistry", queries: Sequence[Query]
) -> np.ndarray:
    """Admitted queries (see :func:`as_query`) as the records
    :func:`resolve_queries` takes; an unknown preset raises here."""
    return np.array(
        [(registry.preset_id(q.preset), q.d, q.m) for q in queries],
        dtype=QUERY_DTYPE,
    )


def query_results(
    queries: Sequence[Query], columns: ResultColumns
) -> list[QueryResult]:
    """One :class:`QueryResult` per query, from its answer columns."""
    partitions = columns.partitions.partitions
    return [
        QueryResult(
            q.preset, q.d, q.m, partitions[pid], time_us, SOURCE_NAMES[code], q.tag
        )
        for q, time_us, code, pid in zip(
            queries,
            columns.time_us.tolist(),
            columns.source.tolist(),
            columns.part_id.tolist(),
        )
    ]


@overload
def resolve_queries(
    registry: "OptimizerRegistry", queries: np.ndarray
) -> ResultColumns: ...


@overload
def resolve_queries(
    registry: "OptimizerRegistry", queries: Iterable[Query | tuple]
) -> list[QueryResult]: ...


def resolve_queries(registry, queries):
    """Answer every query, pricing all misses in one kernel call (one
    per :data:`KERNEL_ROWS` candidate rows).

    A :data:`~repro.service.wire.QUERY_DTYPE` array — already admitted
    by :func:`queries_from_arrays` against ``registry.preset_names`` —
    is answered as :class:`ResultColumns`.  Any other iterable holds
    :class:`Query` objects or bare ``(preset, d, m)`` tuples; each is
    validated by :func:`as_query` and the answers come back as
    :class:`QueryResult` objects.  Either way results are in input
    order and come from the same columnar core.
    """
    if isinstance(queries, np.ndarray):
        return _resolve_records(registry, queries)
    return _resolve_objects(registry, [as_query(q) for q in queries])


def _resolve_objects(
    registry: "OptimizerRegistry", queries: list[Query]
) -> list[QueryResult]:
    records = records_from_queries(registry, queries)
    return query_results(queries, _resolve_records(registry, records))


def _resolve_records(
    registry: "OptimizerRegistry", records: np.ndarray
) -> ResultColumns:
    if records.dtype != QUERY_DTYPE:
        raise TypeError(f"expected QUERY_DTYPE records, got dtype {records.dtype}")
    memo, stats = registry.memo, registry.stats
    keys = records.view("V12").tolist()
    slots = memo.probe(keys)
    n = len(keys)
    at = np.array(slots, dtype=np.intp)
    if -1 not in slots:
        stats.queries += n
        stats.memo_hits += n
        return ResultColumns(
            memo.time_us[at], np.zeros(n, dtype=np.uint8), memo.part_id[at],
            registry.partitions,
        )
    hit = at >= 0
    # gather every hit's answer before any miss is written: a miss can
    # evict a hit's slot and reuse it within this batch
    time_us = np.zeros(n)
    part_id = np.zeros(n, dtype=np.int32)
    source = np.zeros(n, dtype=np.uint8)
    time_us[hit] = memo.time_us[at[hit]]
    part_id[hit] = memo.part_id[at[hit]]

    miss = np.flatnonzero(~hit)
    names = registry.preset_names
    #: (preset, d) -> m -> indices awaiting that cell
    pending: dict[tuple[str, int], dict[float, list[int]]] = {}
    missed = records[miss]
    for i, p, d, m in zip(
        miss.tolist(),
        missed["preset"].tolist(),
        missed["d"].tolist(),
        missed["m"].tolist(),
    ):
        pending.setdefault((names[p], d), {}).setdefault(m, []).append(i)

    waiting, cell_time, cell_part, cell_source, n_rows, n_calls = _price_misses(
        registry, pending
    )
    # the pricing pass succeeded: only now write answers, memo, counters
    cell_of = np.repeat(np.arange(len(waiting)), [len(w) for w in waiting])
    waiters = np.fromiter(chain.from_iterable(waiting), dtype=np.intp, count=len(miss))
    time_us[waiters] = cell_time[cell_of]
    part_id[waiters] = cell_part[cell_of]
    source[waiters] = cell_source[cell_of]
    memo.put([keys[w[0]] for w in waiting], cell_time, cell_part)
    stats.queries += n
    stats.memo_hits += n - len(miss)
    stats.memo_misses += len(miss)
    stats.coalesced += len(miss) - len(waiting)
    stats.grid_calls += n_calls
    stats.grid_cells += n_rows
    return ResultColumns(time_us, source, part_id, registry.partitions)


def _price_misses(
    registry: "OptimizerRegistry",
    pending: dict[tuple[str, int], dict[float, list[int]]],
) -> tuple[list[list[int]], np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Price every missed cell of a batch with the eq. (3) kernel.

    Each cell gets a run of candidate rows: a cell the table covers has
    one, its table partition; a cell beyond the sweep bound has one per
    member of its cube's canonical pool, sorted by partition tuple.  An
    argmin over each run picks the fastest candidate and, among tied
    ones, the smallest tuple: the
    :func:`~repro.model.vectorized.grid_winners` order.  The rows go to
    the kernel in chunks of whole cells of at most :data:`KERNEL_ROWS`
    rows; every row's time is independent of its chunk.

    Returns, per cell in group order and then block-size order: the
    indices waiting on it, its time, its partition's id in the
    registry's catalog and its source code; then the rows priced and
    the kernel calls made.
    """
    waiting: list[list[int]] = []
    cell_m: list[float] = []
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
            cell_part += [
                table_parts.setdefault(table.lookup(m), len(table_parts))
                for m in ms[:n_covered]
            ]
        cell_part += [-1] * (len(ms) - n_covered)
        cell_group += [g] * len(ms)
        cell_m += ms
        waiting += [by_m[m] for m in ms]

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
    coefficients = np.array(
        [machine_coefficients(registry.params(p), d) for p, d in pending]
    ).T[:, cell_group]
    m_col = np.array(cell_m)

    win_row = np.empty(len(waiting), dtype=np.intp)
    win_time = np.empty(len(waiting))
    ends = np.cumsum(sizes)
    lo = calls = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + KERNEL_ROWS, side="right")))
        chunk = slice(lo, hi)
        run = sizes[chunk]
        run_start = np.cumsum(run) - run
        cell_of_row = np.repeat(np.arange(hi - lo), run)
        rows = first[chunk][cell_of_row] + np.arange(len(cell_of_row)) - run_start[cell_of_row]
        times = _eq3_kernel(
            m_col[chunk][cell_of_row],
            cell_d[chunk][cell_of_row],
            candidates[rows],
            *coefficients[:, chunk][:, cell_of_row],
        )
        # segmented argmin with np.argmin's rule: in each run the first
        # minimum wins (the first NaN, if the run has one)
        low = np.minimum.reduceat(times, run_start)[cell_of_row]
        hits = np.flatnonzero((times == low) | (np.isnan(low) & np.isnan(times)))
        best = hits[np.searchsorted(hits, run_start)]
        win_row[chunk] = rows[best]
        win_time[chunk] = times[best]
        lo, calls = hi, calls + 1

    intern = registry.partitions.intern
    part_id = np.array([intern(labels[r]) for r in win_row.tolist()], dtype=np.int32)
    source = np.where(beyond, _POOL, _GRID).astype(np.uint8)
    return waiting, win_time, part_id, source, int(ends[-1]), calls


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
        return _resolve_objects(self._registry, queries)
