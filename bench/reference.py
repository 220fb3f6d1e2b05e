"""Repeat benchmark runs over seeds and print a reference table.

    python3 bench/reference.py --seeds 1-10 [--traced] [--json FILE]

For each workload of BENCHMARK.json it runs ``bench/run.py`` once per
seed, one run at a time and for BENCHMARK.json's ``run_seconds``, and
prints, per end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median,
with the failed share of the operations.  ``--traced`` adds one traced run
per seed and prints the tracing overhead as the ratio traced / untraced
of the medians of ops_per_s and op_p50_ms.  The README's reference
tables are this script's output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import load_spec  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--json", help="also write every run's output here")
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    spec = load_spec()
    seconds = spec["run_seconds"]
    record = {}
    print("| workload | metric | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    for w in (w["name"] for w in spec["workloads"]):
        runs = [_run(w, s, seconds, 0) for s in seeds]
        record[w] = {"untraced": runs}
        for m in (m["name"] for m in spec["end_to_end"]):
            med, q1, q3, spread = _stats(
                [r["metrics"][m]["value"] for r in runs])
            print(f"| {w} | {m} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} |", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"| {w} | failed share | {', '.join(f'{s:.4f}' for s in shares)}"
              f" | | | |", flush=True)
        if not all(r["correct"] for r in runs):
            print(f"| {w} | INCORRECT RUNS | | | | |", flush=True)
        if args.traced:
            traced = [_run(w, s, seconds, 1) for s in seeds]
            record[w]["traced"] = traced
            for m in ("ops_per_s", "op_p50_ms"):
                plain = statistics.median(
                    r["metrics"][m]["value"] for r in runs)
                with_trace = statistics.median(
                    r["metrics"][f"trace.{m}"]["value"] for r in traced)
                print(f"| {w} | traced / untraced {m} | "
                      f"{with_trace / plain:.3f} | | | |", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
