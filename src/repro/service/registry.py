"""Sharded registry of precomputed optimizer tables.

The registry is the storage half of the query service: it owns one
:class:`~repro.model.optimizer.OptimizerTable` per (machine preset ×
cube dimension), either loaded lazily from the v2 shard files of
:mod:`repro.model.store` or built on demand by the grid-kernel hull
sweep.  Two bounded caches keep a long-lived process healthy under
arbitrary traffic:

* a **table LRU** (``max_loaded_tables``) over materialized tables —
  shard-backed tables reload lazily after eviction, built tables are
  re-swept;
* a **result memo** (``memo_capacity``) over resolved
  ``(preset, d, m)`` queries, so repeat lookups skip both the table
  bisect and the grid call entirely.

Every interaction is counted in :class:`RegistryStats`, which the
JSON-lines server reports in-band (``{"op": "stats"}``) and the CLI
prints after a serving session.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.model.optimizer import OptimizerTable, hull_of_optimality
from repro.model.params import PRESETS, MachineParams
from repro.model.store import ShardFile, load_shard, save_shard

__all__ = ["DEFAULT_DIMS", "OptimizerRegistry", "RegistryStats", "SHARD_SUFFIX"]

#: dimensions precomputed/sharded by default — the paper's figure range
#: plus the neighbouring cubes a library is likely to be asked about
DEFAULT_DIMS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)

#: shard files in a registry directory are named ``<preset><suffix>``
SHARD_SUFFIX = ".shard"


@dataclass
class RegistryStats:
    """Counters for one registry's lifetime."""

    #: individual queries seen by :func:`repro.service.batch.resolve_queries`
    queries: int = 0
    #: queries answered straight from the result memo
    memo_hits: int = 0
    #: queries that needed a table lookup or pool scoring
    memo_misses: int = 0
    #: same-batch duplicates folded into an already-scheduled grid cell
    coalesced: int = 0
    #: tables swept from scratch (no shard held them)
    tables_built: int = 0
    #: tables materialized from a shard file
    tables_loaded: int = 0
    #: tables dropped by the LRU bound
    tables_evicted: int = 0
    #: eq. (3) kernel calls issued by batch resolution: one per
    #: resolved batch that had memo misses
    grid_calls: int = 0
    #: rows those calls priced: one per covered cell, one per pool
    #: member for each cell beyond the sweep bound
    grid_cells: int = 0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of queries served from the memo (0.0 when idle)."""
        return self.memo_hits / self.queries if self.queries else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot, hit rate included."""
        return {
            "queries": self.queries,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "coalesced": self.coalesced,
            "tables_built": self.tables_built,
            "tables_loaded": self.tables_loaded,
            "tables_evicted": self.tables_evicted,
            "grid_calls": self.grid_calls,
            "grid_cells": self.grid_cells,
        }


def _normalize_presets(
    presets: Mapping[str, MachineParams | Callable[[], MachineParams]] | None,
) -> dict[str, MachineParams]:
    source = presets if presets is not None else PRESETS
    out: dict[str, MachineParams] = {}
    for name, value in source.items():
        out[name] = value() if callable(value) else value
    return out


class OptimizerRegistry:
    """Precomputed optimal-partition tables, served preset × dimension.

    >>> registry = OptimizerRegistry()
    >>> registry.lookup("ipsc860", 7, 40.0)
    (4, 3)
    """

    def __init__(
        self,
        presets: Mapping[str, MachineParams | Callable[[], MachineParams]] | None = None,
        *,
        shard_dir: str | Path | None = None,
        m_max: float = 400.0,
        resolution: float = 0.25,
        max_loaded_tables: int = 64,
        memo_capacity: int = 65536,
    ) -> None:
        if max_loaded_tables < 1:
            raise ValueError(f"max_loaded_tables must be >= 1, got {max_loaded_tables}")
        if memo_capacity < 0:
            raise ValueError(f"memo_capacity must be >= 0, got {memo_capacity}")
        self.m_max = float(m_max)
        self.resolution = float(resolution)
        self.max_loaded_tables = int(max_loaded_tables)
        self.memo_capacity = int(memo_capacity)
        self.stats = RegistryStats()
        self._presets = _normalize_presets(presets)
        self._shards: dict[str, ShardFile] = {}
        self._tables: OrderedDict[tuple[str, int], OptimizerTable] = OrderedDict()
        self._memo: OrderedDict[
            tuple[str, int, float], tuple[tuple[int, ...], float]
        ] = OrderedDict()
        if shard_dir is not None:
            self._attach_shard_dir(Path(shard_dir))

    # ------------------------------------------------------------------
    # presets and shards
    # ------------------------------------------------------------------
    def _attach_shard_dir(self, directory: Path) -> None:
        if not directory.is_dir():
            raise ValueError(f"shard directory {directory} does not exist")
        paths = sorted(directory.glob(f"*{SHARD_SUFFIX}"))
        if not paths:
            raise ValueError(
                f"shard directory {directory} holds no *{SHARD_SUFFIX} files; "
                "build it with 'repro shards' (or check the path)"
            )
        for path in paths:
            shard = load_shard(path)
            name = path.name[: -len(SHARD_SUFFIX)]
            if shard.preset is not None and shard.preset != name:
                raise ValueError(
                    f"shard {path} was saved for preset {shard.preset!r} but is "
                    f"named {name!r}; renaming a shard would serve the wrong "
                    "calibration"
                )
            known = self._presets.get(name)
            if known is not None and known != shard.params:
                raise ValueError(
                    f"shard {path} was built for a different {name!r} calibration; "
                    "rebuild the shard or drop the preset override"
                )
            # shards may introduce presets the process didn't configure
            self._presets[name] = shard.params
            self._shards[name] = shard

    @property
    def preset_names(self) -> tuple[str, ...]:
        """Presets this registry can answer for, sorted."""
        return tuple(sorted(self._presets))

    def params(self, preset: str) -> MachineParams:
        """The calibration behind ``preset``."""
        try:
            return self._presets[preset]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {preset!r}; have {sorted(self._presets)}"
            ) from None

    # ------------------------------------------------------------------
    # tables (LRU over materialized tables)
    # ------------------------------------------------------------------
    def table(self, preset: str, d: int) -> OptimizerTable:
        """The optimizer table for ``(preset, d)`` — from the LRU, the
        preset's shard, or a fresh grid-kernel sweep, in that order."""
        key = (preset, int(d))
        cached = self._tables.get(key)
        if cached is not None:
            self._tables.move_to_end(key)
            return cached
        params = self.params(preset)
        shard = self._shards.get(preset)
        if shard is not None and int(d) in shard:
            table = shard.load(int(d))
            self.stats.tables_loaded += 1
        else:
            table = hull_of_optimality(
                int(d), params, m_max=self.m_max, resolution=self.resolution
            )
            self.stats.tables_built += 1
        self._tables[key] = table
        while len(self._tables) > self.max_loaded_tables:
            (old_preset, old_d), _ = self._tables.popitem(last=False)
            old_shard = self._shards.get(old_preset)
            if old_shard is not None:
                old_shard.unload(old_d)
            self.stats.tables_evicted += 1
        return table

    @property
    def loaded_tables(self) -> int:
        """How many tables are currently materialized."""
        return len(self._tables)

    def has_shard(self, preset: str, d: int) -> bool:
        """Whether a shard file backs the ``(preset, d)`` table."""
        shard = self._shards.get(preset)
        return shard is not None and int(d) in shard

    def lookup(self, preset: str, d: int, m: float) -> tuple[int, ...]:
        """The stored optimal partition for one ``(preset, d, m)``."""
        return self.table(preset, d).lookup(m)

    def coverage(self, preset: str, d: int) -> float:
        """Block-size bound up to which the ``(preset, d)`` table's
        answers are exact.  Shards record the bound they were swept
        to; a shard that never recorded one is not trusted at all
        (bound 0.0 — every query re-scores the full pool exactly).
        Tables built in-process are exact up to this registry's
        ``m_max``.  Queries beyond the bound are re-evaluated exactly
        instead of trusting the table's last segment."""
        self.params(preset)  # unknown presets raise like everywhere else
        shard = self._shards.get(preset)
        if shard is not None and int(d) in shard:
            return shard.m_max if shard.m_max is not None else 0.0
        return self.m_max

    # ------------------------------------------------------------------
    # result memo
    # ------------------------------------------------------------------
    def memo_get(
        self, key: tuple[str, int, float]
    ) -> tuple[tuple[int, ...], float] | None:
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
        return entry

    def memo_put(
        self, key: tuple[str, int, float], value: tuple[tuple[int, ...], float]
    ) -> None:
        if self.memo_capacity == 0:
            return
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_capacity:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def resolve(self, queries: Iterable) -> list:
        """Resolve many ``(preset, d, m)`` lookups in one coalesced
        pass — see :func:`repro.service.batch.resolve_queries`."""
        from repro.service.batch import resolve_queries

        return resolve_queries(self, queries)

    # ------------------------------------------------------------------
    # precompute / persist
    # ------------------------------------------------------------------
    def precompute(
        self,
        presets: Sequence[str] | None = None,
        dims: Sequence[int] = DEFAULT_DIMS,
    ) -> None:
        """Materialize tables for every requested preset × dimension."""
        for preset in presets if presets is not None else self.preset_names:
            for d in dims:
                self.table(preset, d)

    def save_shards(
        self,
        directory: str | Path,
        presets: Sequence[str] | None = None,
        dims: Sequence[int] = DEFAULT_DIMS,
    ) -> list[Path]:
        """Write one shard file per preset into ``directory``.

        Tables not yet materialized are computed first; the result is a
        directory :meth:`from_shards` (or ``repro serve --shards``) can
        serve without re-running any sweep.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for preset in presets if presets is not None else self.preset_names:
            tables = {int(d): self.table(preset, d) for d in dims}
            # a table loaded from a shard is only exact up to the bound
            # *that* shard was swept to, which may be tighter than this
            # registry's m_max — record the tightest bound among the
            # exported dims so a re-exported shard never overclaims
            bound = min(
                (self.coverage(preset, d) for d in dims), default=self.m_max
            )
            path = directory / f"{preset}{SHARD_SUFFIX}"
            written.append(
                save_shard(
                    tables, self.params(preset), path, m_max=bound, preset=preset
                )
            )
        return written

    @classmethod
    def from_shards(cls, directory: str | Path, **kwargs) -> "OptimizerRegistry":
        """A registry serving a prebuilt shard directory.

        Presets are taken from the shard headers themselves, so the
        serving process needs no calibration of its own.
        """
        return cls(presets={}, shard_dir=directory, **kwargs)
