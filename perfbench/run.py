"""Benchmark for qframes: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload calc-generic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client in this process, BLAS pinned
to one thread, and at most one child process at a time. Set-up (import,
input generation, file writing and one warm-up job) runs several times and
is reported as a median. The timed loop then runs jobs for ``--seconds``
(and at least once over the workload's input pool), checking every job's
output; a job that raises, exits non-zero or fails its check counts as
failed and the loop goes on.

Times are contention-corrected (see ``Reference``): each measurement is
scaled by how much slower a fixed reference task ran around it than it runs
on a quiet core. The uncorrected times are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced jobs with jobs run under ``tracing.Tracer`` and reports the
per-layer metrics, the tracing overhead, and the LAPACK and interpreter
floors; the spans go to ``.perfbench/spans-<workload>-seed<seed>.json``.

The output is a table of every metric with its unit and sample count, a
``record:`` line with the same numbers and the environment as JSON, and as
the last line the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
CLI_FLOOR_REPEATS = 5
WORKLOAD_NAMES = ("calc-generic", "ops-degenerate", "cli-io", "check-suite")

# Time of one Reference sample on an uncontended core of the machine the
# benchmark was calibrated on: 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
# with OpenBLAS 0.3.31 on one thread.
REFERENCE_QUIET_S = 0.5e-3

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
    "job_p90_ms": "ms", "fail_frac": "ratio", "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
# fail_frac is printed but left out of the result object: it is 0 on a
# correct program, and the result's "failed"/"attempted" carry it.
RESULT_END_TO_END = [k for k in END_TO_END_UNITS if k != "fail_frac"]


class Reference:
    """A fixed Python-and-LAPACK task timed just before and after each measurement.

    Other tenants of the host slow this machine by 1.1x to 2x, in phases
    that last from seconds to minutes, and the slowdown hits interpreted
    code and LAPACK alike. A measurement made while the reference took r
    seconds is reported as measurement * REFERENCE_QUIET_S / r: what it
    would read on a quiet core. The ratio of measurement to reference holds
    steady where neither does alone; a whole run can be contended, so the
    quiet time is a constant, not the run's fastest sample. The library
    never runs inside the reference, so a change to the library moves the
    measurement and not r.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((48, 48)) + 0j
        self._matrix = a @ a.conj().T
        self._eigh = np.linalg.eigh
        self.samples: list[float] = []

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(4000):
            total += k * k
        self._eigh(self._matrix)
        return time.perf_counter() - start

    def _sample(self) -> float:
        value = min(self._once(), self._once())
        self.samples.append(value)
        return value

    def measure(self, fn, *args):
        """(result or None, error or None, seconds, reference seconds)."""
        before = self._sample()
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a raising job is a failed job; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return result, error, seconds, 0.5 * (before + self._sample())


class Series:
    """Measurements with the reference time around each; corrected on read."""

    def __init__(self):
        self.raw: list[float] = []
        self.refs: list[float] = []

    def add(self, seconds: float, ref: float) -> None:
        self.raw.append(seconds)
        self.refs.append(ref)

    def corrected(self) -> list[float]:
        return [s * REFERENCE_QUIET_S / r for s, r in zip(self.raw, self.refs)]


def _import_seconds(env: dict[str, str]) -> float:
    """Import time of numpy + qframes.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import qframes.cli; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def _spawn(cmd: list[str], env: dict[str, str]) -> None:
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)


def _cli_floors(env: dict[str, str], reference: Reference) -> tuple[float, float]:
    """(interpreter + numpy floor, qframes.cli import above it), in ms."""
    numpy_s, cli_s = Series(), Series()
    for _ in range(CLI_FLOOR_REPEATS):
        for code, series in (("import numpy", numpy_s), ("import qframes.cli", cli_s)):
            _, error, seconds, ref = reference.measure(
                _spawn, [sys.executable, "-c", code], env)
            if error is not None:
                raise RuntimeError(f"{code!r} failed in a fresh interpreter: {error}")
            series.add(seconds, ref)
    floor = statistics.median(numpy_s.corrected())
    return floor * 1e3, (statistics.median(cli_s.corrected()) - floor) * 1e3


def _percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pins": {k: os.environ.get(k) for k in PINS},
        "seed": seed,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _check(workload, i: int, out, error: str | None) -> tuple[float | None, str | None]:
    if error is not None:
        return None, error
    try:
        return workload.verify(i, out), None
    except Exception as exc:  # a wrong or unreadable output is a failed job
        return None, f"{type(exc).__name__}: {exc}"


def _traced_job(tracer, reference: Reference, workload, i: int, workdir: str):
    """One job under the tracer: measure()'s tuple plus its per-layer metrics."""
    tracer.begin_job(i)
    if workload.in_process:
        tracer.install()
        try:
            measured = reference.measure(workload.job, i)
        finally:
            tracer.uninstall()
        return (*measured, tracer.end_job())
    spans_path = os.path.join(workdir, f"child-spans-{i}.json")
    out, error, seconds, ref = reference.measure(workload.job, i, spans_path)
    try:
        with open(spans_path, encoding="utf-8") as fh:
            return out, error, seconds, ref, tracer.adopt(i, json.load(fh))
    except (OSError, ValueError) as exc:
        return out, error or f"no spans from the traced child: {exc}", seconds, ref, None


def _setup(cls, seed: int, workdir: str, env, reference: Reference, errors: list[str]):
    """Set up SETUP_REPEATS times; the last workload and the set-up samples."""
    imports, setups = Series(), Series()
    for _ in range(SETUP_REPEATS):
        import_s, error, _, ref = reference.measure(_import_seconds, env)
        if error is not None:
            raise RuntimeError(f"importing qframes.cli failed: {error}")
        imports.add(import_s, ref)

        def build():
            workload = cls()
            workload.setup(seed, workdir)
            try:
                out, error = workload.job(0), None
            except Exception as exc:  # reported like a failed job
                out, error = None, f"{type(exc).__name__}: {exc}"
            return workload, _check(workload, 0, out, error)[1]

        built, error, seconds, ref = reference.measure(build)
        if error is not None:
            raise RuntimeError(f"setting up {cls.name} failed: {error}")
        workload, warm_error = built
        setups.add(seconds, ref)
        if warm_error:
            errors.append(f"warm-up: {warm_error}")
    return workload, imports, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the full record."""
    import tracing
    import workloads

    os.environ.update(PINS)   # children inherit them, also when called in-process
    env = workloads.child_env()
    reference = Reference()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    errors: list[str] = []
    try:
        workload, imports, setups = _setup(workloads.WORKLOADS[name], seed, workdir,
                                           env, reference, errors)
        tracer = tracing.Tracer() if trace else None
        plain, traced = Series(), Series()
        per_job: list[tuple[dict, float]] = []
        worst = 0.0
        attempted = failed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or attempted < workload.pool_size:
            i = attempted
            if tracer is not None and i % 2:
                out, error, latency, ref, layer = _traced_job(
                    tracer, reference, workload, i, workdir)
                traced.add(latency, ref)
                if layer is not None:
                    per_job.append((layer, ref))
                    if layer["self_sum_ms"] > latency * 1e3:
                        errors.append(f"job {i}: self times exceed its latency")
            else:
                out, error, latency, ref = reference.measure(workload.job, i)
                plain.add(latency, ref)
            ratio, error = _check(workload, i, out, error)
            attempted += 1
            if error is None:
                worst = max(worst, ratio)
            else:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"job {i}: {error}")

        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "attempted": attempted,
                  "failed": failed, "errors": errors,
                  "env": _environment(seed)}
        if tracer is None:
            record["metrics"] = _end_to_end(plain, attempted, failed, imports, setups,
                                            worst, workload)
        else:
            record["metrics"] = _per_layer(tracing, per_job, plain, traced, env,
                                           reference)
            tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
        record["reference"] = {
            "median_ms": statistics.median(reference.samples) * 1e3,
            "median_slowdown": statistics.median(reference.samples) / REFERENCE_QUIET_S,
            "n": len(reference.samples),
        }
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _metric(value: float, unit: str, n: int, raw: float | None = None) -> dict:
    out = {"value": value, "unit": unit, "n": n}
    if raw is not None:
        out["raw"] = raw
    return out


def _latency_metrics(lat: list[float]) -> dict[str, float]:
    lat = sorted(lat)
    p90, beyond = _percentile(lat, 0.9)
    return {"jobs_per_s": len(lat) / sum(lat), "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": p90 * 1e3, "beyond": beyond}


def _end_to_end(plain: Series, attempted, failed, imports: Series, setups: Series,
                worst, workload) -> dict:
    corrected = _latency_metrics(plain.corrected())
    raw = _latency_metrics(plain.raw)
    setup_s = statistics.median(imports.corrected()) + statistics.median(setups.corrected())
    setup_raw = statistics.median(imports.raw) + statistics.median(setups.raw)
    digits = -math.log10(max(worst, 1e-300)) if failed == 0 else 0.0
    n = len(plain.raw)
    return {
        "setup_s": _metric(setup_s, "s", len(setups.raw), setup_raw),
        "jobs_per_s": _metric(corrected["jobs_per_s"], "1/s", n, raw["jobs_per_s"]),
        "job_p50_ms": _metric(corrected["job_p50_ms"], "ms", n, raw["job_p50_ms"]),
        "job_p90_ms": dict(_metric(corrected["job_p90_ms"], "ms", n, raw["job_p90_ms"]),
                           beyond=corrected["beyond"]),
        "fail_frac": _metric(failed / attempted, "ratio", attempted),
        "accuracy_digits": _metric(digits, "digits", workload.pool_size),
        "peak_rss_mb": _metric(_peak_rss_mb(not workload.in_process), "MB", 1),
    }


def _per_layer(tracing, per_job, plain: Series, traced: Series, env,
               reference: Reference) -> dict:
    scaled = []
    for layer, ref in per_job:
        factor = REFERENCE_QUIET_S / ref
        scaled.append({k: v * factor if k.endswith("ms") else v for k, v in layer.items()})
    summary = tracing.summarize(scaled)
    floor_ms, import_ms = _cli_floors(env, reference)
    summary["cli.interp_floor_ms"] = floor_ms
    summary["cli.import_ms"] = import_ms
    summary["trace.overhead_frac"] = (statistics.median(traced.corrected())
                                      / statistics.median(plain.corrected()) - 1.0)
    n = {"cli.interp_floor_ms": CLI_FLOOR_REPEATS, "cli.import_ms": CLI_FLOOR_REPEATS,
         "trace.overhead_frac": len(traced.raw) + len(plain.raw)}
    return {key: _metric(float(summary.get(key, 0.0)), unit, n.get(key, len(per_job)))
            for key, unit in tracing.PER_LAYER_UNITS.items()}


def _print_record(record: dict) -> None:
    name = record["workload"]
    ref = record["reference"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"reference: median {ref['median_ms']:.4f} ms, slowdown "
          f"{ref['median_slowdown']:.3f} (n={ref['n']})")
    for key, m in record["metrics"].items():
        extra = f" raw {m['raw']:.6g}" if "raw" in m else ""
        extra += f" ({m['beyond']} beyond)" if "beyond" in m else ""
        print(f"{name:15s} {key:36s} {m['value']:14.6g} {m['unit']:7s} n={m['n']}{extra}")
    for error in record["errors"]:
        print(f"{name:15s} error: {error}")
    print("record: " + json.dumps(record, sort_keys=True))


def _result(records: list[dict], keys: list[str], prefix: bool) -> dict:
    metrics = {}
    for record in records:
        for key in keys:
            m = record["metrics"][key]
            label = f"{record['workload']}/{key}" if prefix else key
            metrics[label] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["failed"] == 0 and not r["errors"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def _result_keys(trace: bool) -> list[str]:
    if not trace:
        return RESULT_END_TO_END
    import tracing

    return list(tracing.PER_LAYER_UNITS)


def _run_all(args) -> int:
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        record_lines = [line for line in lines if line.startswith("record: ")]
        if out.returncode != 0 or not record_lines:
            print(f"{name}: exited {out.returncode} without a record", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        records.append(json.loads(record_lines[-1][len("record: "):]))
    print(json.dumps(_result(records, _result_keys(bool(args.trace)), prefix=True)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "qframes", "__init__.py")):
        print(f"error: no qframes sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINS)   # before numpy loads, here and in every child
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return _run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(record)
    print(json.dumps(_result([record], _result_keys(bool(args.trace)), prefix=False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
