"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper at every ``asianpde`` module attribute that held the
function, so ``asianpde.pricing.panel_nodes`` and
``asianpde.kernels.panel_nodes`` are both traced.  No program file changes.

Each call is a span (name, start, end, parent span, operation id).  Self
time is a span's duration minus the durations of its child spans; it is
accumulated for every call, while whole spans are kept only up to
SPAN_CAP (a run of ``kernel-points`` makes hundreds of thousands) and
written out by ``dump``.
"""
from __future__ import annotations

import functools
import json
import sys
import time

TRACED_MODULES = ("cli", "pricing", "_quadrature", "kernels", "mc", "fd")
SPAN_CAP = 50_000


def _z_count(args, kwargs):
    import numpy as np
    return int(np.size(kwargs["z"] if "z" in kwargs else args[0]))


def _path_steps(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return cfg.n_paths * cfg.n_steps


def _cell_steps(args, kwargs):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return grid.nx * grid.ny * grid.nt


# work counted from the arguments: kernel z values, MC path-steps, FD
# cell-steps
WORK = {
    "kernels.theta_batch": ("z_evals", "z_per_s", _z_count),
    "mc.simulate_terminal": ("path_steps", "path_steps_per_s", _path_steps),
    "fd.solve_cauchy": ("cell_steps", "cell_steps_per_s", _cell_steps),
}


def public_functions(module) -> dict:
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        obj = getattr(module, n, None)
        if callable(obj) and not isinstance(obj, type) \
                and getattr(obj, "__module__", None) == module.__name__:
            out[n] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}   # name -> [calls, self, total, work]
        self._stack: list[list] = []       # [child seconds, span index]
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans = self._stack, self.spans
        work = WORK[name][2] if name in WORK else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            idx = -1
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
                if work is not None:
                    stats[3] += work(args, kwargs)
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent, self.op_id)
        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "asianpde" or n.startswith("asianpde.")}
        for short in TRACED_MODULES:
            module = mods[f"asianpde.{short}"]
            for fname, fn in public_functions(module).items():
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (calls, self_s, total_s, work) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in WORK:
                count, rate, _ = WORK[name]
                out[f"{name}.{count}"] = work
                out[f"{name}.{rate}"] = work / total_s if total_s > 0 else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "stats": self.stats}, fh)


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3:
            try:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return found
