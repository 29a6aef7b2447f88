"""Worker process for the offline workloads (``plan_sweep``, ``chaos_replay``).

Started by ``run.py``; prints ``ready`` once its imports are done (the
parent times process start to that line as set-up), then measures
until its deadline and prints one JSON line with what it saw.  With
``--probe`` it exits right after ``ready``: the parent starts probes
to take several set-up samples per run.

Both workloads call only public functions of the ``repro`` package.
Traced runs wrap those functions (and the public functions they call
in turn) in spans from this file; nothing in ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import (
    ReferenceClock, Tracer, calls, layer, median, peak_rss_mb, percentile, use_source,
)

use_source()

import numpy as np  # noqa: E402

import repro.analysis.chaos as chaos_mod  # noqa: E402
import repro.model.optimizer as optimizer_mod  # noqa: E402
import repro.sim.fastpath as fastpath_mod  # noqa: E402
from repro.analysis.sweep import partition_sweep  # noqa: E402
from repro.analysis.validation import validate_policy  # noqa: E402
from repro.comm.program import simulate_exchange  # noqa: E402
from repro.core.blocks import BlockBuffer  # noqa: E402
from repro.core.partitions import cached_partitions  # noqa: E402
from repro.core.programs import exchange_steps  # noqa: E402
from repro.model.optimizer import best_partition, hull_of_optimality  # noqa: E402
from repro.model.params import PRESETS  # noqa: E402
from repro.plan.patterns import PATTERNS, plan_pattern  # noqa: E402
from repro.plan.policies import AdaptivePolicy, FixedPolicy, make_policy  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.fastpath import batch_program_times  # noqa: E402
from repro.sim.machine import SimulatedHypercube  # noqa: E402

#: cube dimensions the planning pass covers, for both presets
PLAN_DIMS = tuple(range(2, 13))
#: block sizes per cube for partition_sweep, and the program-pricing grid
SWEEP_SIZES = 512
PROGRAM_GRID = 64
#: the hull's own sweep: 0..400 B at 0.25 B (hull_of_optimality defaults)
HULL_POINTS = 1601
#: oracle samples per run (event engine, scalar model)
ORACLE_SAMPLES = 6
#: plan_sweep reads peak memory after this many passes, so that it
#: covers the same work however many passes the host fits into the run:
#: read at the end, it crept up with further passes (80.3-86.0 MB over
#: fifteen runs, against 79.9-81.3 MB after two).  chaos_replay reads it
#: at the end: its peak varies mostly with the seed's fault plans, and a
#: reading after two sweeps spread wider (0.041 of the median over ten
#: seeds, against 0.028-0.031)
MEMORY_AFTER = 2
#: the chaos sweep every run replays: d=5, m=40, 8 exchanges per workload
CHAOS = dict(
    d=5, m=40, n_steps=8,
    failure_rates=(0.0, 0.1, 0.25), straggler_scales=(1.0, 4.0, 16.0),
    policies=("fixed", "adaptive"),
)
CHAOS_EXCHANGES = (
    len(CHAOS["failure_rates"]) * len(CHAOS["straggler_scales"])
    * len(CHAOS["policies"]) * CHAOS["n_steps"]
)


# ----------------------------------------------------------------------
# plan_sweep
# ----------------------------------------------------------------------
def plan_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    sizes = np.sort(rng.uniform(0.0, 400.0, SWEEP_SIZES)).tolist()
    # integral block sizes so the event-engine oracle can replay them
    grid = np.sort(rng.choice(np.arange(1, 401), PROGRAM_GRID, replace=False))
    return {"sizes": sizes, "grid": [float(m) for m in grid], "rng": rng}


def plan_configs_per_pass() -> int:
    """Priced (preset, d, m, candidate) configurations in one pass,
    counted from the inputs: every candidate partition at every hull
    sweep point, sweep block size and program-grid size, plus each
    pattern decision's candidates (counted as they are returned)."""
    pool = sum(len(cached_partitions(d)) for d in PLAN_DIMS)
    return len(PRESETS) * pool * (HULL_POINTS + SWEEP_SIZES + PROGRAM_GRID)


def plan_pass(inputs: dict, clock: ReferenceClock) -> dict:
    """One single-threaded planning pass over both presets × d=2..12.

    ``unit_s`` times each (preset, d) cube in order, then the closing
    ``validate_policy`` call: the units every pass repeats identically.
    ``unit_ref_s`` holds the same times at reference host speed."""
    sizes, grid = inputs["sizes"], inputs["grid"]
    unit_s: list[float] = []
    unit_ref_s: list[float] = []
    pattern_candidates = 0
    chosen_us = 0.0
    sweep_cells = []
    program_times = {}
    for name in sorted(PRESETS):
        params = PRESETS[name]()
        for d in PLAN_DIMS:
            t0 = time.perf_counter()
            hull_of_optimality(d, params)
            cells = partition_sweep([d], sizes, params)
            programs = [exchange_steps(d, part) for part in cached_partitions(d)]
            times = batch_program_times(
                [(program, m) for program in programs for m in grid], params
            )
            for k, pattern in enumerate(PATTERNS):
                decision = plan_pattern(pattern, grid[(d + k) % len(grid)], d, params)
                pattern_candidates += len(decision.candidates)
            unit_s.append(time.perf_counter() - t0)
            unit_ref_s.append(clock.rescale(unit_s[-1]))
            chosen_us += sum(cell.time_us for cell in cells)
            sweep_cells.append((name, d, cells))
            program_times[(name, d)] = (programs, times)
    t0 = time.perf_counter()
    report = validate_policy(make_policy("model", PRESETS["ipsc860"]()))
    unit_s.append(time.perf_counter() - t0)
    unit_ref_s.append(clock.rescale(unit_s[-1]))
    return {
        "unit_s": unit_s,
        "unit_ref_s": unit_ref_s,
        "pattern_candidates": pattern_candidates,
        "chosen_us": chosen_us,
        "sweep_cells": sweep_cells,
        "program_times": program_times,
        "validation": report,
    }


def plan_oracles(inputs: dict, result: dict) -> tuple[int, int, list[str]]:
    """Seeded sample of the pass's answers against the event engine and
    the scalar model; returns ``(checked, failed, messages)``."""
    rng = inputs["rng"]
    grid = inputs["grid"]
    checked = failed = 0
    problems: list[str] = []
    names = sorted(PRESETS)
    for _ in range(ORACLE_SAMPLES):
        # event engine: one compiled-program price per sample
        name = names[int(rng.integers(len(names)))]
        d = int(rng.integers(2, 8))
        programs, times = result["program_times"][(name, d)]
        row = int(rng.integers(len(programs)))
        col = int(rng.integers(len(grid)))
        fast = float(times[row * len(grid) + col])
        event = simulate_exchange(
            d, int(grid[col]), programs[row].partition, PRESETS[name](), verify=True
        ).time_us
        checked += 1
        if fast != event:
            failed += 1
            problems.append(
                f"{name} d={d} {programs[row].partition} m={grid[col]}: "
                f"fast {fast!r} != event engine {event!r}"
            )
        # scalar model: one partition_sweep cell per sample
        name, d, cells = result["sweep_cells"][int(rng.integers(len(result["sweep_cells"])))]
        cell = cells[int(rng.integers(len(cells)))]
        scalar = best_partition(cell.m, d, PRESETS[name](), method="scalar")
        checked += 1
        if (scalar.partition, scalar.time) != (cell.partition, cell.time_us):
            failed += 1
            problems.append(
                f"{name} d={d} m={cell.m}: sweep {cell.partition}/{cell.time_us!r} "
                f"!= scalar {scalar.partition}/{scalar.time!r}"
            )
    # one whole hull, grid path against the scalar path
    name = names[int(rng.integers(len(names)))]
    d = int(rng.integers(2, 7))
    params = PRESETS[name]()
    checked += 1
    if hull_of_optimality(d, params) != hull_of_optimality(d, params, method="scalar"):
        failed += 1
        problems.append(f"{name} d={d}: grid hull != scalar hull")
    report = result["validation"]
    checked += 1
    if report.engine_boots != 0 or report.max_rel_error >= 0.01:
        failed += 1
        problems.append(
            f"validate_policy: {report.engine_boots} engine boots, "
            f"max rel error {report.max_rel_error!r}"
        )
    return checked, failed, problems


def best_of(repeats: list[list[float]]) -> list[float]:
    """Per unit of work, its fastest host time over identical repeats
    (the unit latencies reported per layer)."""
    return [min(times) for times in zip(*repeats)]


def typical(repeats: list[list[float]]) -> list[float]:
    """Per unit of work, its median time over identical repeats."""
    return [median(times) for times in zip(*repeats)]


def configs_per_s(per_pass: int, first: dict, passes: list[list[float]]) -> float:
    """Configurations of one pass over the pass's typical time."""
    return (per_pass + first["result"]["pattern_candidates"]) / sum(typical(passes))


def trace_plan(tracer: Tracer) -> None:
    tracer.wrap(optimizer_mod, "multiphase_time_grid", "grid", count=lambda r: r.size)
    tracer.wrap(sys.modules[__name__], "hull_of_optimality", "optimizer.hull")
    tracer.wrap(sys.modules[__name__], "partition_sweep", "optimizer.sweep")
    tracer.wrap(sys.modules[__name__], "exchange_steps", "programs.build")
    tracer.wrap(sys.modules[__name__], "batch_program_times", "fastpath.price")
    tracer.wrap(fastpath_mod, "compile_program", "fastpath.compile")
    tracer.wrap(sys.modules[__name__], "plan_pattern", "plan.pattern")
    tracer.wrap(sys.modules[__name__], "validate_policy", "plan.validate")


def run_plan(args) -> dict:
    inputs = plan_inputs(args.seed)
    per_pass = plan_configs_per_pass()
    boots_before = Engine.boot_count

    first: dict = {}
    chosen: list[float] = []
    memory: list[float] = []
    clock = ReferenceClock()

    def one_pass(host: list, ref: list) -> None:
        result = plan_pass(inputs, clock)
        chosen.append(result["chosen_us"])
        if len(chosen) == MEMORY_AFTER:
            memory.append(peak_rss_mb())
        first.setdefault("result", result)
        host.append(result["unit_s"])
        ref.append(result["unit_ref_s"])

    out: dict = {}
    # per pass, its unit times: host seconds and at reference speed
    passes: list[list[float]] = []
    ref_passes: list[list[float]] = []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # passes alternate plain and traced, so both see the same host
        # conditions and the difference between them is the tracing
        tracer = Tracer()
        traced: list[list[float]] = []
        traced_ref: list[list[float]] = []
        while len(traced) < 2 or time.perf_counter() < deadline:
            one_pass(passes, ref_passes)
            trace_plan(tracer)
            tracer.request_id = len(traced)  # spans of one pass share its number
            one_pass(traced, traced_ref)
            tracer.unwrap()
        tracer.dump(args.span_file)
        table = tracer.self_times()
        n_pass = len(traced)
        price_s = layer(table, "fastpath.price", "total_us") / 1e6
        sweep_s = layer(table, "optimizer.sweep", "total_us") / 1e6
        grid_us = layer(table, "grid", "total_us")
        rate_plain = configs_per_s(per_pass, first, ref_passes)
        rate_traced = configs_per_s(per_pass, first, traced_ref)
        n_program_configs = len(PRESETS) * PROGRAM_GRID * sum(
            len(cached_partitions(d)) for d in PLAN_DIMS
        )
        out["layers"] = {
            "programs.build_us": layer(table, "programs.build", "total_us") / n_pass,
            "fastpath.compile_us": layer(table, "fastpath.compile", "total_us") / n_pass,
            "fastpath.configs_per_s": n_program_configs * n_pass / price_s,
            "optimizer.hull_s": layer(table, "optimizer.hull", "total_us") / 1e6 / n_pass,
            "optimizer.sweep_cells_per_s": (
                len(PRESETS) * SWEEP_SIZES * len(PLAN_DIMS) * n_pass / sweep_s
            ),
            "grid.us_per_call": grid_us / max(1, calls(table, "grid")),
            "grid.cells_per_s": tracer.counts.get("grid", 0) / (grid_us / 1e6),
            "trace.overhead_pct": 100.0 * (rate_plain - rate_traced) / rate_plain,
        }
    else:
        while not passes or time.perf_counter() < deadline:
            one_pass(passes, ref_passes)
    boots = Engine.boot_count - boots_before
    if args.trace:
        out["layers"]["fastpath.engine_boots"] = boots

    checked, failed, problems = plan_oracles(inputs, first["result"])
    # every pass must give the first pass's answers
    for value in chosen[1:]:
        checked += 1
        if value != chosen[0]:
            failed += 1
            problems.append("a later pass chose differently from the first")
    checked += 1
    if boots:
        failed += 1
        problems.append(f"{boots} event engines booted during the timed passes")
    out.update({
        "attempted": checked,
        "failed": failed,
        "problems": problems,
        "work_per_s": configs_per_s(per_pass, first, ref_passes),
        "host_work_per_s": configs_per_s(per_pass, first, passes),
        "reference_ms": median(clock.samples) * 1e3,
        "latency_p50_us": median(best_of(passes)[:-1]) * 1e6,
        "latency_p99_us": percentile(best_of(passes)[:-1], 99.0) * 1e6,
        "chosen_plan_ms": chosen[0] / 1e3,
        # at the end in a run too short for MEMORY_AFTER passes
        "peak_rss_mb": memory[0] if memory else peak_rss_mb(),
    })
    return out


# ----------------------------------------------------------------------
# chaos_replay
# ----------------------------------------------------------------------
def chaos_seed(seed: int) -> int:
    """The run's chaos sweep seed, drawn from the workload seed."""
    return int(np.random.default_rng([seed, 2]).integers(0, 2**31 - 1))


def adaptive_summary(report) -> tuple[float, float]:
    """(summed adaptive completion µs, max adaptive-vs-fixed regret)."""
    total = 0.0
    regret = -np.inf
    for cell in report.cells:
        if cell.policy != "adaptive":
            continue
        fixed = report.cell(cell.failure_rate, cell.straggler_scale, "fixed")
        total += cell.completion_us
        regret = max(regret, (cell.completion_us - fixed.completion_us) / fixed.completion_us)
    return total, float(regret)


def run_chaos(args) -> dict:
    """Repeat one seed's chaos sweep until the time is used (at least
    twice: the repeats must give byte-identical reports)."""
    seed = chaos_seed(args.seed)
    # each degraded workload's time: host seconds and at reference speed
    workload_s: list[float] = []
    workload_ref_s: list[float] = []
    timing = Tracer()
    original = chaos_mod.run_degraded_workload
    clock = ReferenceClock()

    def timed_workload(*a, **kw):
        t0 = time.perf_counter()
        result = original(*a, **kw)
        workload_s.append(time.perf_counter() - t0)
        workload_ref_s.append(clock.rescale(workload_s[-1]))
        return result

    timing.patch(chaos_mod, "run_degraded_workload", timed_workload)
    tracer = Tracer()
    events = [0]
    retries: list = []
    sweep_s: list[float] = []
    reports = []
    deadline = time.perf_counter() + args.seconds
    # a traced run alternates plain and traced sweeps, so each pair
    # prices the tracing on identical work under the same host conditions.
    # Another sweep starts while at least half of one still fits.
    while (
        len(reports) < 2
        or time.perf_counter() + sweep_s[-1] / 2 <= deadline
        or (args.trace and len(reports) % 2)
    ):
        traced = bool(args.trace) and len(reports) % 2 == 1
        if traced:
            install_chaos_tracing(tracer, events, retries)
            tracer.request_id = len(reports)  # spans of one sweep share its number
        t0 = time.perf_counter()
        reports.append(chaos_mod.chaos_sweep(seed=seed, **CHAOS))
        sweep_s.append(time.perf_counter() - t0)
        if traced:
            tracer.unwrap()
    timing.unwrap()

    checked = failed = 0
    problems: list[str] = []
    for report in reports:
        for cell in report.cells:
            checked += 1
            if cell.n_drops:
                failed += 1
                problems.append(f"seed {seed}: {cell.n_drops} drops in {cell}")
    reference = json.dumps(reports[0].as_dict())
    for report in reports[1:]:
        checked += 1
        if json.dumps(report.as_dict()) != reference:
            failed += 1
            problems.append("two same-seed chaos sweeps gave different reports")
    per_sweep = len(workload_s) // len(reports)

    def sweeps(times: list[float]) -> list[list[float]]:
        return [times[i : i + per_sweep] for i in range(0, len(times), per_sweep)]

    repeats, ref_repeats = sweeps(workload_s), sweeps(workload_ref_s)
    step = 2 if args.trace else 1
    plain = best_of(repeats[::step])
    plain_ref = typical(ref_repeats[::step])
    sim_us, regret = adaptive_summary(reports[0])
    out = {
        "attempted": checked,
        "failed": failed,
        "problems": problems,
        "work_per_s": CHAOS_EXCHANGES / sum(plain_ref),
        "host_work_per_s": CHAOS_EXCHANGES / sum(typical(repeats[::step])),
        "reference_ms": median(clock.samples) * 1e3,
        "latency_p50_us": median(plain) * 1e6,
        "latency_p99_us": percentile(plain, 99.0) * 1e6,
        "chosen_plan_ms": sim_us / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        tracer.dump(args.span_file)
        layers = chaos_layers(tracer, reports[1::2], events[0], retries)
        layers["plan.adaptive_regret_max"] = regret
        traced_s = sum(typical(ref_repeats[1::2]))
        plain_s = sum(plain_ref)
        layers["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        out["layers"] = layers
    return out


def install_chaos_tracing(tracer: Tracer, events: list, retries: list) -> None:
    run_plain = SimulatedHypercube.run

    def run_traced(machine, *a, **kw):
        before = machine.engine.n_events
        result = tracer.record("engine.run", run_plain, machine, *a, **kw)
        events[0] += result.n_events - before
        return result

    tracer.patch(SimulatedHypercube, "run", run_traced)
    workload_plain = chaos_mod.run_degraded_workload

    def workload_traced(*a, **kw):
        result = tracer.record("chaos.workload", workload_plain, *a, **kw)
        retries.extend(result.trace.retries)
        return result

    tracer.patch(chaos_mod, "run_degraded_workload", workload_traced)
    tracer.wrap(BlockBuffer, "verify_complete_exchange_result", "engine.verify")
    tracer.wrap(AdaptivePolicy, "decide", "plan.decide")
    tracer.wrap(FixedPolicy, "decide", "plan.decide")


def chaos_layers(tracer: Tracer, reports, events: int, retries: list) -> dict:
    """Per-layer figures over the traced sweeps (``reports``)."""
    table = tracer.self_times()
    n_sweeps = len(reports)
    exchanges = CHAOS_EXCHANGES * n_sweeps
    run_us = layer(table, "engine.run", "total_us")
    adaptive = [c for r in reports for c in r.cells if c.policy == "adaptive"]
    return {
        "engine.events": events / n_sweeps,
        "engine.events_per_s": events / (run_us / 1e6),
        "engine.us_per_exchange": layer(table, "engine.run") / exchanges,
        "engine.verify_us_per_exchange": (
            layer(table, "engine.verify", "total_us") / exchanges
        ),
        "faults.retries": len(retries) / n_sweeps,
        "faults.stall_ms": sum(r.t_retry - r.t_blocked for r in retries) / 1e3 / n_sweeps,
        "plan.decide_us": (
            layer(table, "plan.decide", "total_us") / max(1, calls(table, "plan.decide"))
        ),
        "plan.replans": sum(c.n_replans for c in adaptive) / n_sweeps,
        "plan.switches": sum(c.n_switches for c in adaptive) / n_sweeps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("plan_sweep", "chaos_replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-file", type=Path, default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run_plan(args) if args.workload == "plan_sweep" else run_chaos(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
