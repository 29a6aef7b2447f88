"""Shared plumbing for the benchmark: paths, child environments,
summary statistics, the host-speed reference clock, peak memory, and
the span tracer.

Everything here runs from the benchmark's own files.  The tracer
records spans around calls into the repository's public functions by
wrapping them at their import site for the duration of a traced
phase; nothing inside ``src/`` is edited or instrumented.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

#: the checkout root: this file lives in ``<root>/perfbench/``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: per-run scratch space (sockets, shards, span files); git-ignored
WORK = ROOT / ".perfbench_work"

#: single-threaded numerics for every process the benchmark starts
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def require_source() -> None:
    """Exit non-zero unless the program's source is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for child processes: the source tree on the path,
    BLAS pinned to one thread, no bytecode written into the checkout."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # one string-hash seed, so set and dict orders repeat run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def use_source() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    for key, value in THREAD_PINS.items():
        os.environ.setdefault(key, value)
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: seconds :func:`reference_loop` takes on the 2-vCPU VM the benchmark
#: was sized on, at that host's usual speed
REFERENCE_S = 0.008

_REF_SMALL = np.arange(64, dtype=np.float64)
_REF_LARGE = np.linspace(1.0, 2.0, 4096)


def reference_loop() -> float:
    """Seconds the host takes, right now, for a fixed piece of work
    shaped like the program's: dict and tuple traffic in the interpreter,
    then small and mid-sized numpy calls.  It is the benchmark's own
    code, so no change to the program can move it."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i & 255, i % 11, float(i))
        table[key] = table.get(key, 0.0) + _REF_SMALL[i & 63]
    x = np.sqrt(_REF_SMALL + 1.0)
    for _ in range(300):
        x = np.minimum(x * 1.0001, _REF_SMALL + 2.0)
    y = _REF_LARGE
    for _ in range(200):
        y = np.minimum(y * 1.0001 + _REF_LARGE, 4.0)
        y.reshape(64, 64).sum(axis=1)
    return time.perf_counter() - t0


class ReferenceClock:
    """Rescales timed units of work to the reference host speed.

    On the 2-vCPU VM the benchmark was sized on, neighbours sharing the
    host change the speed of every process by up to 2x for seconds to
    minutes at a time; the process's CPU time follows, so it cannot
    separate the program from the host.  The clock runs
    :func:`reference_loop` before the first unit and after each one,
    and rescales each unit's host seconds by ``REFERENCE_S`` over the
    mean of the two reference timings around it.  A program that gets
    10% faster still reads 10% faster; a host that gets 10% slower
    mostly cancels out (over ten seeds per workload the inter-quartile
    spread of throughput fell from 0.08-0.21 of the median to
    0.03-0.06)."""

    def __init__(self) -> None:
        self.last = reference_loop()
        #: every reference timing taken, seconds
        self.samples = [self.last]

    def rescale(self, host_s: float) -> float:
        """``host_s`` seconds of the unit that just ended, at reference
        speed.  Runs the reference loop; call it between units only."""
        after = reference_loop()
        self.samples.append(after)
        ref_s = host_s * 2.0 * REFERENCE_S / (self.last + after)
        self.last = after
        return ref_s


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent_id, name, start_ns, end_ns, request_id)``;
    the parent is whichever span was open when this one started, so
    nested public calls (a grid-kernel call inside a resolver pass)
    attribute their time to the right layer.  Spans stay in memory and
    are written out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, object]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        #: request id stamped on spans opened while it is set
        self.request_id: object = None
        #: per span name, work counted from the wrapped calls' results
        self.counts: dict[str, int] = {}

    def record(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.request_id))

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``
        until :meth:`unwrap`.  ``owner`` is the module or class the
        caller looks the name up in; ``count(result)``, when given,
        adds each call's work to ``counts[name]``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.record(name, original, *args, **kwargs)
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr`` until :meth:`unwrap`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time (µs).  Self
        time is a span's duration minus the time its child spans cover."""
        child_ns: dict[int, int] = {}
        for span_id, parent, _, start, end, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
            dur = end - start
            row["calls"] += 1
            row["total_us"] += dur / 1e3
            row["self_us"] += (dur - child_ns.get(span_id, 0)) / 1e3
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as a Chrome trace-event file (opens in
        chrome://tracing or Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[3] for s in self.spans), default=0)
        events = [
            {
                "name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
                "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent, "request": rid},
            }
            for span_id, parent, name, start, end, rid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            # base_ns: the time.perf_counter_ns() reading ts 0 stands for
            json.dump({"traceEvents": events, "otherData": {"base_ns": base}}, fh)


def layer(table: dict, name: str, key: str = "self_us") -> float:
    return table.get(name, {}).get(key, 0.0)


def calls(table: dict, name: str) -> int:
    return int(table.get(name, {}).get("calls", 0))
