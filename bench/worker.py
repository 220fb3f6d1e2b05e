"""One fresh interpreter of a benchmark run.

``worker.py --probe`` imports ``asianpde.cli``, prints ``ready`` and exits:
the run measures set-up time on it.  ``worker.py --workload W ...`` does the
same, then runs whole rounds of W one operation at a time until the
operations it times have taken the run length, checks every round's
outputs against the oracles as the round ends, and prints one JSON summary
line.  With ``--trace 1`` the public functions of the program are wrapped
first (see ``layertrace.py``).
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A run stops after this many operations even if time is left, so that its
# checks, which cost more than a kernel-points operation, stay bounded when
# the program gets much faster.
MAX_OPS = 100_000


def _import_program() -> None:
    import asianpde.cli  # noqa: F401  (the import is the set-up)
    src = (ROOT / "src").resolve()
    if src not in Path(sys.modules["asianpde"].__file__).resolve().parents:
        raise SystemExit(f"asianpde was imported from outside {src}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int)
    p.add_argument("--trace-file")
    args = p.parse_args()

    _import_program()
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy as np
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()

    # Each round is checked as soon as it has run, and then dropped, so
    # nothing the worker keeps grows with the number of operations but the
    # latencies, 8 bytes each.  Only the calls into the program are timed,
    # and kept operations are left out of the timing: their cost says
    # nothing of the program's speed on the work it gets right.
    latencies = array("d")
    failures, unexpected, attempted, timed_s = {}, 0, 0, 0.0
    k = 0
    while timed_s < args.seconds and attempted < MAX_OPS:
        ops = wl.round(args.seed, k)
        outs = []
        for op in ops:
            if tracer is not None:
                tracer.op_id = attempted + len(outs)
            t0 = time.perf_counter()
            try:
                out = wl.run_op(op)
            except Exception as exc:    # a raising operation has failed
                out = {"exception": f"{type(exc).__name__}: {exc}"}
            dt = time.perf_counter() - t0
            if not op.get("kept"):
                latencies.append(dt)
                timed_s += dt
            outs.append(out)
        for reason in wl.check_round(ops, outs):
            if reason is not None:
                failures[reason] = failures.get(reason, 0) + 1
                unexpected += not isinstance(reason, workloads.Known)
        attempted += len(ops)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    lat_ms = np.asarray(latencies) * 1e3
    summary = {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "unexpected_failures": unexpected,
        "failures": failures,
        "rounds": k,
        "ops_per_s": len(latencies) / timed_s,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
