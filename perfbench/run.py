"""Benchmark of the optimizer stack: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each one is there):

``serve_hot``     the socket server on a Zipf working set the memo holds
``serve_cold``    the same server on fresh cells, half beyond the sweep bound
``plan_sweep``    one process of planning passes: hulls, sweeps, programs
``chaos_replay``  chaos sweeps on the event engine, fixed vs adaptive

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
measures again with spans around each layer's public calls and prints the
per-layer metrics, the tracing overhead among them.  Either way every
answer is checked; the last line of output is one JSON object and the
exit code is non-zero when any check failed.

Times behind ``setup_s`` and ``work_per_s`` are rescaled to a reference
host speed (``common.ReferenceClock``), so that neighbours slowing the
host do not read as the program slowing; each run also prints both
figures at the host's own speed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from common import (  # noqa: E402
    REFERENCE_S, ROOT, WORK, ReferenceClock, child_env, median, require_source, use_source,
)

WORKLOADS = ("serve_hot", "serve_cold", "plan_sweep", "chaos_replay")

#: end-to-end metrics, reported by every workload in its own unit of work
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "chosen_plan_ms": "ms",
}
#: what the generic names mean on each workload (printed with the figures)
ALIASES = {
    "serve_hot": {"work_per_s": "serve_qps", "tail.latency_p50_us": "request_p50_us",
                  "tail.latency_p99_us": "request_p99_us"},
    "serve_cold": {"work_per_s": "serve_qps", "tail.latency_p50_us": "request_p50_us",
                   "tail.latency_p99_us": "request_p99_us"},
    "plan_sweep": {"work_per_s": "plan_configs_per_s",
                   "tail.latency_p50_us": "cube_plan_p50_us",
                   "tail.latency_p99_us": "cube_plan_p99_us"},
    "chaos_replay": {"work_per_s": "chaos_exchanges_per_s",
                     "tail.latency_p50_us": "workload_replay_p50_us",
                     "tail.latency_p99_us": "workload_replay_p99_us",
                     "chosen_plan_ms": "chaos_sim_ms"},
}
#: per-layer metrics; a traced run reports all of them, 0 where its
#: workload leaves the layer idle
PER_LAYER = {
    "wire.decode_us_per_query": "us",
    "wire.encode_us_per_query": "us",
    "wire.request_bytes_per_query": "B",
    "wire.response_bytes_per_query": "B",
    "resolver.admit_us_per_query": "us",
    "resolver.resolve_us_per_query": "us",
    "resolver.memo_hit_rate": "ratio",
    "resolver.dedup_ratio": "ratio",
    "resolver.coalesced": "count",
    "resolver.grid_calls_per_1k_queries": "count",
    "resolver.tables_evicted": "count",
    "grid.us_per_call": "us",
    "grid.cells_per_s": "1/s",
    "server.batches": "count",
    "server.mean_batch_queries": "count",
    "server.flushes_size": "count",
    "server.flushes_drain": "count",
    "server.p50_us": "us",
    "server.p99_us": "us",
    "server.shed": "count",
    "server.remainder_us_per_request": "us",
    "loadgen.lag_p99_us": "us",
    "loadgen.backlog_max": "count",
    "programs.build_us": "us",
    "fastpath.compile_us": "us",
    "fastpath.configs_per_s": "1/s",
    "fastpath.engine_boots": "count",
    "optimizer.hull_s": "s",
    "optimizer.sweep_cells_per_s": "1/s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.us_per_exchange": "us",
    "engine.verify_us_per_exchange": "us",
    "faults.retries": "count",
    "faults.stall_ms": "ms",
    "plan.decide_us": "us",
    "plan.replans": "count",
    "plan.switches": "count",
    "plan.adaptive_regret_max": "ratio",
    "tail.latency_p50_us": "us",
    "tail.latency_p99_us": "us",
    "run.error_rate": "ratio",
    "trace.overhead_pct": "%",
}
#: set-up samples per offline run (each a fresh probe process)
SETUP_SAMPLES = 5
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170.0


def start_worker(cmd: list[str]) -> tuple[float, str]:
    """Run one worker to its end; returns (seconds from process start to
    its ``ready`` line, its standard output after that line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return took, out


def run_offline(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time ``SETUP_SAMPLES`` worker starts, process start to its ``ready``
    line, in probes that exit right there; then start the worker that
    does the measured work.  The reference loop runs after each probe
    has exited, so nothing else runs beside it."""
    worker = Path(__file__).parent / "offline.py"
    cmd = [sys.executable, str(worker), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--span-file", str(WORK / f"spans-{workload}.json")]
    setup_s, setup_ref_s = [], []
    clock = ReferenceClock()
    for _ in range(SETUP_SAMPLES):
        took, _ = start_worker([*cmd, "--probe"])
        setup_s.append(took)
        setup_ref_s.append(clock.rescale(took))
    _, out = start_worker(cmd)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = median(setup_ref_s)
    result["host_setup_s"] = median(setup_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    os.chdir(ROOT)  # socket paths are relative to the checkout root
    use_source()
    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload.startswith("serve_"):
        import serve

        result = serve.run(args.workload, args.seed, args.seconds, trace)
    else:
        result = run_offline(args.workload, args.seed, args.seconds, trace)

    attempted, failed = int(result["attempted"]), int(result["failed"])
    if trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(result.get("layers", {}))
        layers["run.error_rate"] = failed / attempted
        # demoted from the end-to-end set: they do not repeat run to run
        # within any allowed bound on a host whose speed drifts
        layers["tail.latency_p50_us"] = result["latency_p50_us"]
        layers["tail.latency_p99_us"] = result["latency_p99_us"]
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    aliases = ALIASES[args.workload]
    for name, metric in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{args.workload:13s} {label:45s} {metric['value']:16.4f} {metric['unit']}")
    # the figures before rescaling to the reference host speed, and how
    # long the reference loop took this run (common.ReferenceClock)
    print(f"{args.workload:13s} {'setup_s at host speed':45s} "
          f"{result['host_setup_s']:16.4f} s")
    print(f"{args.workload:13s} {'work_per_s at host speed':45s} "
          f"{result['host_work_per_s']:16.4f} 1/s")
    print(f"{args.workload:13s} {'reference loop (nominal %.1f ms)' % (REFERENCE_S * 1e3):45s} "
          f"{result['reference_ms']:16.4f} ms")
    print(f"{args.workload:13s} {'error_rate':45s} {failed / attempted:16.4f} "
          f"({failed} failed of {attempted} attempted)")
    for problem in result.get("problems", []):
        print(f"{args.workload:13s} FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
