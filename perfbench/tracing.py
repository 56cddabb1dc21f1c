"""Span tracing around qframes' public functions, installed from outside.

The library carries no instrumentation, so the traced run wraps the public
functions of each layer in place and restores them afterwards. A name bound
with ``from .qlinalg import herm_eig`` lives in several module namespaces
(``frames``, ``sampling``, ``checks``, ``qframes`` itself); every namespace
holding the original object gets the same wrapper, and ``uninstall`` puts
the original object back in each.

Spans nest by parent and are kept in memory; ``Tracer.end_job`` turns
the spans of one job into per-layer counts and times, and also times the
LAPACK floors (``eigh``/``svd`` on the complex embedding of the very inputs
the library received) outside any span.

Run as a script, this module is the traced child of the ``cli-io`` workload:

    python tracing.py SPANS.json dual IN.json --json

runs ``qframes.cli.main`` under the tracer, writes the spans and the job's
per-layer metrics to SPANS.json, and exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Functions wrapped wherever a qframes module namespace binds them:
# (defining module, attribute, span name).
FUNCTIONS = [
    ("qframes.qlinalg", "herm_eig", "qlinalg.herm_eig"),
    ("qframes.qlinalg", "svd", "qlinalg.svd"),
    ("qframes.qlinalg", "pinv", "qlinalg.pinv"),
    ("qframes.qlinalg", "kernel_basis", "qlinalg.kernel_basis"),
    ("qframes.qlinalg", "solve_min_norm", "qlinalg.solve_min_norm"),
    ("qframes.qlinalg", "matrix_rank", "qlinalg.matrix_rank"),
    ("qframes.qlinalg", "operator_norm", "qlinalg.operator_norm"),
    ("qframes.frame_ops", "are_equivalent", "frame_ops.are_equivalent"),
    ("qframes.frame_ops", "intertwiner", "frame_ops.intertwiner"),
    ("qframes.frame_ops", "map_frame", "frame_ops.map_frame"),
    ("qframes.frame_ops", "project_frame", "frame_ops.project_frame"),
    ("qframes.checks", "run_checks", "checks.run_checks"),
    ("qframes.cli", "main", "cli.main"),
    ("qframes.cli", "load_frame", "cli.load_frame"),
] + [("qframes.cli", f"cmd_{c}", "cli.cmd") for c in (
    "gen", "info", "dual", "parseval", "coeffs", "reconstruct", "map",
    "equiv", "check")]

# Methods wrapped on their class: (module, class, attribute, span name).
METHODS = [
    ("qframes.frames", "Frame", "__init__", "frames.construct"),
    ("qframes.frames", "Frame", "from_dict", "frames.from_dict"),
    ("qframes.frames", "Frame", "to_dict", "frames.to_dict"),
    ("qframes.frames", "Frame", "report", "frames.report"),
    ("qframes.frames", "Frame", "canonical_dual", "frames.canonical_dual"),
    ("qframes.frames", "Frame", "parseval_normalize", "frames.parseval_normalize"),
    ("qframes.frames", "Frame", "coefficients", "frames.coefficients"),
]

# Constructors only counted, because a span per scalar would cost more than
# the scalar arithmetic it measures.
COUNTED = [("qframes.quaternion", "Quaternion", "__init__", "quaternion.Quaternion")]

# Columns of the svd factors each caller goes on to use, given the factored
# shape (m, n) and the rank r it computes. svd calls made elsewhere are left
# out of the useful fraction.
SVD_CALLERS = {
    "qlinalg.pinv": lambda m, n, r: 2 * r,
    "qlinalg.solve_min_norm": lambda m, n, r: 2 * r,
    "qlinalg.kernel_basis": lambda m, n, r: n - r,
    "qlinalg.matrix_rank": lambda m, n, r: 0,
}

# Spans whose arguments or results the per-layer metrics need afterwards.
_KEEP_INPUT = {"qlinalg.herm_eig", "qlinalg.svd"}
_KEEP_ARGS = set(SVD_CALLERS)

FLOOR_REPEATS = 3

# Per-layer metrics reported for every traced run, with their units. Counts
# and times are per traced job.
PER_LAYER_UNITS = {
    "qlinalg.herm_eig.calls": "count",
    "qlinalg.herm_eig.self_ms": "ms",
    "qlinalg.herm_eig.floor_ms": "ms",
    "qlinalg.herm_eig.over_floor": "ratio",
    "qlinalg.svd.calls": "count",
    "qlinalg.svd.self_ms": "ms",
    "qlinalg.svd.floor_ms": "ms",
    "qlinalg.svd.over_floor": "ratio",
    "qlinalg.svd.useful_frac": "ratio",
    "qlinalg.pinv.ms": "ms",
    "qlinalg.kernel_basis.ms": "ms",
    "qlinalg.operator_norm.ms": "ms",
    "frames.construct.calls": "count",
    "frames.construct.ms": "ms",
    "frames.from_dict.ms": "ms",
    "frames.to_dict.ms": "ms",
    "frames.report.self_ms": "ms",
    "frames.canonical_dual.self_ms": "ms",
    "frames.parseval_normalize.self_ms": "ms",
    "frames.coefficients.self_ms": "ms",
    "frame_ops.are_equivalent.ms": "ms",
    "frame_ops.intertwiner.calls": "count",
    "frame_ops.intertwiner.self_ms": "ms",
    "frame_ops.map_frame.self_ms": "ms",
    "frame_ops.project_frame.self_ms": "ms",
    "cli.interp_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_frame.ms": "ms",
    "cli.cmd.self_ms": "ms",
    "checks.run_checks.self_ms": "ms",
    "quaternion.Quaternion.calls": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records nested spans of the jobs run while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []   # [job, name, parent, start, end, payload]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = -1
        self._job_first = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        keep_input = name in _KEEP_INPUT
        keep_args = name in _KEEP_ARGS

        def traced(*args, **kwargs):
            index = len(spans)
            record = [self._job, name, stack[-1] if stack else -1, clock(), 0.0,
                      None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if keep_input:
                record[5] = (args[0], result)
            elif keep_args:
                record[5] = (fn, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every qframes namespace that binds it."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for mod_name in {t[0] for t in FUNCTIONS + METHODS + COUNTED}:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qframes" or n.startswith("qframes."))]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS + COUNTED:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            make = self._counter if (mod_name, cls_name, attr, span) in COUNTED \
                else self._wrap
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__, span)))
            else:
                self._set(cls, attr, make(raw, span))

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job
        self._job_first = len(self.spans)
        self.counts.clear()

    def end_job(self) -> dict[str, float]:
        """Per-layer metrics of the job just run; drops the kept inputs."""
        spans = self.spans[self._job_first:]
        base = self._job_first
        metrics = _aggregate(spans, base)
        metrics["quaternion.Quaternion.calls"] = float(
            self.counts["quaternion.Quaternion"])
        for record in spans:
            record[5] = None
        self._job = -1
        return metrics

    def adopt(self, job: int, child: dict) -> dict[str, float]:
        """Take in the spans a traced child process wrote for one job."""
        offset = len(self.spans)
        for _, name, parent, start, end in child["spans"]:
            self.spans.append([job, name, parent + offset if parent >= 0 else -1,
                               start, end, None])
        return child["metrics"]

    def dump(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[s[0], ids[s[1]], s[2], round(s[3], 9), round(s[4], 9)]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "name", "parent", "start_s", "end_s"],
                       "names": names, "spans": rows}, fh)


def _self_times(spans: list[list], base: int) -> list[float]:
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        parent = s[2] - base
        if parent >= 0:
            own[parent] -= s[4] - s[3]
    return own


def _floor_ms(run, arg) -> float:
    best = float("inf")
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _aggregate(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer counts and times of one job's spans (base: first index)."""
    import numpy as np
    from qframes.qlinalg import complex_adjoint

    own = _self_times(spans, base)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    incl_ms: dict[str, float] = defaultdict(float)
    names = [s[1] for s in spans]
    for i, s in enumerate(spans):
        name = s[1]
        calls[name] += 1
        self_ms[name] += own[i] * 1e3
        # inclusive time counts only the outermost span of each name
        parent = s[2] - base
        nested = False
        while parent >= 0:
            if names[parent] == name:
                nested = True
                break
            parent = spans[parent][2] - base
        if not nested:
            incl_ms[name] += (s[4] - s[3]) * 1e3

    floor = {"qlinalg.herm_eig": 0.0, "qlinalg.svd": 0.0}
    used = returned = 0
    for s in spans:
        if s[1] == "qlinalg.herm_eig" and s[5] is not None:
            floor["qlinalg.herm_eig"] += _floor_ms(np.linalg.eigh,
                                                    complex_adjoint(s[5][0]))
        elif s[1] == "qlinalg.svd" and s[5] is not None:
            M, fac = s[5]
            floor["qlinalg.svd"] += _floor_ms(np.linalg.svd, complex_adjoint(M))
            parent = s[2] - base
            caller = names[parent] if parent >= 0 else None
            if caller in SVD_CALLERS:
                m, n = M.shape
                fn, args, kwargs = spans[parent][5]
                rtol = inspect.signature(fn).bind(*args, **kwargs).arguments.get("rtol")
                r = fac.rank(rtol)
                used += SVD_CALLERS[caller](m, n, r)
                returned += m + n

    out: dict[str, float] = {}
    for layer in ("qlinalg.herm_eig", "qlinalg.svd"):
        out[f"{layer}.calls"] = float(calls[layer])
        out[f"{layer}.self_ms"] = self_ms[layer]
        out[f"{layer}.floor_ms"] = floor[layer]
    out["qlinalg.svd.used_cols"] = float(used)
    out["qlinalg.svd.returned_cols"] = float(returned)
    for name in ("qlinalg.pinv", "qlinalg.kernel_basis", "qlinalg.operator_norm",
                 "frames.construct", "frames.from_dict", "frames.to_dict",
                 "frame_ops.are_equivalent", "cli.load_frame"):
        out[f"{name}.ms"] = incl_ms[name]
    out["frames.construct.calls"] = float(calls["frames.construct"])
    out["frame_ops.intertwiner.calls"] = float(calls["frame_ops.intertwiner"])
    for name in ("frames.report", "frames.canonical_dual",
                 "frames.parseval_normalize", "frames.coefficients",
                 "frame_ops.intertwiner", "frame_ops.map_frame",
                 "frame_ops.project_frame", "cli.cmd", "checks.run_checks"):
        out[f"{name}.self_ms"] = self_ms[name]
    out["self_sum_ms"] = float(sum(own)) * 1e3
    return out


def summarize(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Mean per traced job of each per-layer metric, with the derived ratios."""
    jobs = max(len(per_job), 1)
    total: dict[str, float] = defaultdict(float)
    for metrics in per_job:
        for key, value in metrics.items():
            total[key] += value
    out = {key: value / jobs for key, value in total.items()}
    for layer in ("qlinalg.herm_eig", "qlinalg.svd"):
        floor = total[f"{layer}.floor_ms"]
        out[f"{layer}.over_floor"] = total[f"{layer}.self_ms"] / floor if floor else 0.0
    returned = total["qlinalg.svd.returned_cols"]
    out["qlinalg.svd.useful_frac"] = (total["qlinalg.svd.used_cols"] / returned
                                      if returned else 0.0)
    return out


def _child(argv: list[str]) -> int:
    """Traced child of cli-io: run ``qframes.cli.main`` under the tracer."""
    spans_path, cli_argv = argv[0], argv[1:]
    import qframes.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_job(0)
    try:
        code = qframes.cli.main(cli_argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    metrics = tracer.end_job()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s[:5] for s in tracer.spans], "metrics": metrics}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
