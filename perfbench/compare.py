"""Compare a parent and a change on the benchmark, run by run.

Collect alternating pairs (each pair runs both sides on the same seed,
and which side goes first alternates from pair to pair)::

    python3 perfbench/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --runs 10 --out results/

That writes ``results/parent.jsonl`` and ``results/change.jsonl`` (one
line per run: workload, seed, pair, and the run's result object) and
prints the table.  To print the table for result sets collected
earlier::

    python3 perfbench/compare.py table results/parent.jsonl results/change.jsonl

One row per workload × end-to-end metric: each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict against the metric's bound in ``BENCHMARK.json``:

``better``      the change won at least 9 pairs in 10 and its median moved
                the good way by more than the parent's own quartile spread
``worse``       the change's median is worse than the parent's by more
                than the bound
``unchanged``   neither
``unresolved``  fewer than 10 pairs, or the parent's own spread is wider
                than the bound, so no verdict is safe unless every change
                run beats (or loses to) every parent run
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: fewer pairs than this never yield a verdict
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], bound: float, higher: bool
) -> tuple[str, float]:
    """(verdict, share of pairs won by the change)."""
    def gain(p: float, c: float) -> float:
        return c - p if higher else p - c

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if len(pairs) < MIN_PAIRS:
        return "unresolved", share
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    spread = (q3 - q1) / abs(mp) if mp else float("inf")
    if spread > bound:
        if all(gain(p, c) > 0 for p in parent for c in change):
            return "better", share
        if all(gain(p, c) < 0 for p in parent for c in change):
            return "worse", share
        return "unresolved", share
    if -gain(mp, mc) > bound * abs(mp):
        return "worse", share
    if share >= 0.9 and gain(mp, mc) > q3 - q1:
        return "better", share
    return "unchanged", share


def load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            by_workload.setdefault(row["workload"], []).append(row)
    for rows in by_workload.values():
        rows.sort(key=lambda row: row["pair"])
    return by_workload


def table(parent_path: Path, change_path: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(parent_path), load(change_path)
    header = (f"{'workload':13s} {'metric':16s} {'unit':5s} "
              f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
              f"{'won':>5s}  verdict")
    print(header)
    print("-" * len(header))
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in parent or name not in change:
            print(f"{name:13s} (no runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pv = [row["result"]["metrics"][key]["value"] for row in parent[name]]
            cv = [row["result"]["metrics"][key]["value"] for row in change[name]]
            n = min(len(pv), len(cv))
            word, share = verdict(pv[:n], cv[:n], metric["bound"],
                                  metric["better"] == "higher")
            status |= word == "worse"

            def cell(values):
                q1, q2, q3 = quartiles(values)
                return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"

            print(f"{name:13s} {key:16s} {metric['unit']:5s} {cell(pv):>34s} "
                  f"{cell(cv):>34s} {share:5.0%}  {word}")
    return status


def collect(parent_dir: Path, change_dir: Path, runs: int, out: Path,
            workloads: list[str], first_seed: int) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = workloads or [w["name"] for w in spec["workloads"]]
    out.mkdir(parents=True, exist_ok=True)
    files = {side: open(out / f"{side}.jsonl", "a", encoding="utf-8")
             for side in ("parent", "change")}
    try:
        for pair in range(runs):
            seed = first_seed + pair
            order = [("parent", parent_dir), ("change", change_dir)]
            if pair % 2:
                order.reverse()
            for name in names:
                for side, checkout in order:
                    cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{side} {name} seed {seed} failed:\n{proc.stdout}{proc.stderr}",
                              file=sys.stderr)
                        return 1
                    files[side].write(json.dumps({
                        "workload": name, "seed": seed, "pair": pair,
                        "result": json.loads(lines[-1]),
                    }) + "\n")
                    files[side].flush()
    finally:
        for fh in files.values():
            fh.close()
    return table(out / "parent.jsonl", out / "change.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="collect alternating pairs, then compare")
    p_run.add_argument("parent", type=Path)
    p_run.add_argument("change", type=Path)
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--workload", action="append", default=[])
    p_run.add_argument("--first-seed", type=int, default=1)
    p_table = sub.add_parser("table", help="compare two collected result sets")
    p_table.add_argument("parent", type=Path)
    p_table.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return collect(args.parent, args.change, args.runs, args.out,
                       args.workload, args.first_seed)
    return table(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
