"""Run one workload of the asianpde benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory and nowhere else.  The run first starts SETUP_PROBES
fresh interpreters that only import ``asianpde.cli``, then one worker
interpreter that imports it, runs the workload for S seconds, one operation
at a time, and checks every output (``worker.py``).  Set-up time is the
median over all of these starts.  The last line printed is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced worker.  OpenBLAS and OpenMP run one thread.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import import_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    return env


def _start(cmd: list[str], stderr) -> tuple[subprocess.Popen, float]:
    """Start an interpreter; return it and its seconds until 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            env=_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[-1]} did not start (see {stderr.name})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a started interpreter; kill it if it outlives timeout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"run exceeded {RUN_LIMIT_S:g} s")
    return out


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "asianpde" / "cli.py").is_file():
        return _fail(f"no asianpde sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    # byte-compile first, so no start below pays for compiling the program
    if not compileall.compile_dir(ROOT / "src", quiet=1) \
            or not compileall.compile_dir(BENCH, quiet=1, maxlevels=0):
        return _fail("the sources do not compile")

    deadline = time.perf_counter() + RUN_LIMIT_S
    py = sys.executable
    worker = str(BENCH / "worker.py")
    err_path = OUT / f"{args.workload}.stderr"
    ready = []
    with open(err_path, "w") as err:
        try:
            for _ in range(SETUP_PROBES if not args.trace else 0):
                proc, t = _start([py, worker, "--probe"], err)
                _finish(proc, deadline - time.perf_counter())
                ready.append(t)
            cmd = [py] + (["-X", "importtime"] if args.trace else []) + [
                worker, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.trace:
                cmd += ["--trace-file", str(
                    OUT / f"trace-{args.workload}-seed{args.seed}.json")]
            proc, t = _start(cmd, err)
            ready.append(t)
            out = _finish(proc, deadline - time.perf_counter())
        except RuntimeError as exc:
            return _fail(str(exc))
    if proc.returncode != 0 or not out.strip():
        return _fail(f"worker exited {proc.returncode} (see {err_path})")
    summary = json.loads(out.strip().splitlines()[-1])

    if summary["failures"]:
        print("failed checks: " + json.dumps(summary["failures"]))
    if args.trace:
        values = summary["layers"]
        for module, secs in import_times(err_path.read_text()).items():
            if module.startswith("asianpde."):
                values[f"import.{module[9:]}.cumulative_s"] = secs
        for m in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
            values[f"trace.{m}"] = summary[m]
        listed = spec["per_layer"]
    else:
        values = dict(summary, setup_s=statistics.median(ready))
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        return _fail("the run produced no " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": summary["unexpected_failures"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
