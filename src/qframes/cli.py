"""Command line front end: generate, inspect, and transform frame files.

Frames, operators, and vectors travel as JSON with quaternion entries spelled
as four real components [a0, a1, a2, a3]. Artifacts are written with --out;
--json switches the stdout report from a human table to machine JSON. Every
JSON output is byte for byte json.dumps(indent=2, allow_nan=False) plus a
newline: _dumps writes rectangular nests of floats, the bulk of a frame file,
in one pass, and hands every other value to json. Exit codes: 0 success,
1 failed verification (the check suite), 2 usage or malformed input,
including an entry that is not a number, or a problem too large for memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .checks import DEFAULT_SIZES, run_checks
from .frames import (Frame, _bound_readings, _dual_residuals, _identity_drift,
                     _spread)
from .frame_ops import are_equivalent, frame_with_frame_operator, map_frame
from .qlinalg import QMatrix, QVector, _ratio, _real_array
from .sampling import random_frame


# ---------------------------------------------------------------------------
# file formats

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, got "
                         f"{type(data).__name__}")
    return data


def load_frame(path: str) -> Frame:
    data = _load_json(path)
    try:
        return Frame.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def load_operator(path: str) -> QMatrix:
    data = _load_json(path)
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise ValueError(f'{path}: operator data must carry "{key}"')
    rows, cols = data["rows"], data["cols"]
    for key, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f'{path}: "{key}" must be a positive integer, '
                             f'got {value!r}')
    arr = _real_array(data["entries"], path)
    if arr.shape != (rows, cols, 4):
        raise ValueError(f"{path}: entries have shape {arr.shape}, expected "
                         f"({rows}, {cols}, 4)")
    _require_finite(arr, path)
    return QMatrix(arr)


def load_vector(path: str) -> QVector:
    data = _load_json(path)
    if "entries" not in data:
        raise ValueError(f'{path}: vector data must carry "entries"')
    arr = _real_array(data["entries"], path)
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] < 1:
        raise ValueError(f"{path}: entries have shape {arr.shape}, expected "
                         f"(n, 4) with n >= 1")
    _require_finite(arr, path)
    return QVector(arr)


def _require_finite(arr: np.ndarray, path: str) -> None:
    """Reject NaN and infinite components, naming the first entry holding one."""
    bad = np.argwhere(~np.isfinite(arr).all(axis=-1))
    if len(bad):
        where = ", ".join(str(k) for k in bad[0])
        raise ValueError(f"{path}: entry ({where}) has a non-finite component: "
                         f"{arr[tuple(bad[0])].tolist()}")


def _dumps(data) -> str:
    """json.dumps(data, indent=2, allow_nan=False) + "\\n", byte for byte.

    Strict JSON: a NaN or infinite value raises ValueError (exit 2).
    """
    return _encode(data, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """obj as indented JSON whose line breaks are nl (newline plus indent)."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = (f"{_encode_str(key)}: {_encode(value, inner)}"
                 for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(obj) is list:
        found = _float_block(obj)
        if found is not None:
            return _write_block(*found, nl)
    # JSON strings escape their newlines, so every newline here is layout
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", nl)


def _float_block(obj: list) -> tuple[list, tuple[int, ...]] | None:
    """(flat floats, shape) if obj is a rectangular nest of non-empty lists
    of Python floats, the shape of Frame.to_dict() and .tolist(); else None."""
    shape = []
    flat = [obj]
    while type(flat[0]) is list:
        n = len(flat[0])
        if n == 0 or set(map(type, flat)) != {list} or set(map(len, flat)) != {n}:
            return None
        shape.append(n)
        flat = list(chain.from_iterable(flat))
    if set(map(type, flat)) != {float}:
        return None
    return flat, tuple(shape)


def _write_block(flat: list, shape: tuple[int, ...], nl: str) -> str:
    """The indented JSON of a float nest: reprs interleaved with separators."""
    if not all(map(math.isfinite, flat)):
        bad = next(x for x in flat if not math.isfinite(x))
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(bad))
    d = len(shape)
    pad = [nl + "  " * t for t in range(d + 1)]
    # sep[j] follows an entry after which the innermost j lists close
    sep = ["".join(pad[t] + "]" for t in range(d - 1, d - j - 1, -1)) + ","
           + "".join(pad[t] + "[" for t in range(d - j, d)) + pad[d]
           for j in range(d)]
    seps = [sep[0]] * (shape[-1] - 1)
    for j, n in enumerate(reversed(shape[:-1]), start=1):
        seps = (seps + [sep[j]]) * n
        seps.pop()
    parts = [None] * (2 * len(flat) + 1)
    parts[0] = "[" + "".join(pad[t] + "[" for t in range(1, d)) + pad[d]
    parts[1::2] = map(float.__repr__, flat)
    seps.append("".join(pad[t] + "]" for t in range(d - 1, -1, -1)))
    parts[2::2] = seps
    return "".join(parts)


def _write(path: str, data) -> None:
    text = _dumps(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# reporting helpers

def _emit(args, payload: dict, lines: list[str], **artifact) -> None:
    """Print the report; a produced object, passed as key=object, goes to
    --out when given and otherwise inline in the payload under key."""
    for key, obj in artifact.items():
        if args.out:
            _write(args.out, obj)
            payload["written"] = args.out
            lines.append(f"written: {args.out}")
        else:
            payload[key] = obj
    if args.json:
        sys.stdout.write(_dumps(payload))
    else:
        for line in lines:
            print(line)


def _bounds_lines(report: dict) -> list[str]:
    lines = [f"status: {report['status']}"]
    b = report["bounds"]
    lines.append(f"bounds: lower={b['lower']:.12g} upper={b['upper']:.12g}")
    lines.append("spectrum: " + " ".join(f"{x:.12g}" for x in report["spectrum"]))
    for key, value in report["residuals"].items():
        lines.append(f"residual {key}: {value:.3e}")
    return lines


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args) -> int:
    if args.kind == "with-operator":
        if not args.operator:
            raise ValueError("gen --kind with-operator needs --operator FILE")
        frame = frame_with_frame_operator(load_operator(args.operator))
        if args.dim is not None and args.dim != frame.dim:
            raise ValueError(f"--dim {args.dim} contradicts the operator size "
                             f"{frame.dim}")
        if args.count is not None and args.count != frame.count:
            raise ValueError(f"--count {args.count} contradicts the operator "
                             f"size {frame.count}")
    else:
        if args.operator:
            raise ValueError("--operator needs --kind with-operator")
        if args.dim is None or args.count is None:
            raise ValueError("gen needs --dim and --count")
        if not 1 <= args.dim <= args.count:
            raise ValueError(f"need 1 <= dim <= count, got dim={args.dim} "
                             f"count={args.count}")
        rng = np.random.default_rng(args.seed)
        frame = random_frame(args.dim, args.count, rng)
        if args.kind == "parseval":
            frame = frame.parseval_normalize()
    report = frame.report().to_dict()
    payload: dict = {"dim": frame.dim, "count": frame.count,
                     "kind": args.kind, **report}
    lines = [f"generated {args.kind} frame: dim={frame.dim} count={frame.count}"]
    lines += _bounds_lines(report)
    _emit(args, payload, lines, frame=frame.to_dict())
    return 0


def cmd_info(args) -> int:
    frame = load_frame(args.frame)
    report = frame.report().to_dict()
    payload: dict = {"dim": frame.dim, "count": frame.count, **report}
    lines = [f"frame: dim={frame.dim} count={frame.count}"]
    lines += _bounds_lines(report)
    if frame.is_frame:
        lower, upper = _bound_readings(frame)
        cross = {"lower": _spread(lower), "upper": _spread(upper)}
        payload.update({"lower_formulas": lower, "upper_formulas": upper,
                        "cross_residuals": cross})
        for side, formulas in (("lower", lower), ("upper", upper)):
            for name, value in formulas.items():
                lines.append(f"{side} [{name}]: {value:.12g}")
            lines.append(f"{side} cross-residual: {cross[side]:.3e}")
    _emit(args, payload, lines)
    return 0


def cmd_dual(args) -> int:
    frame = load_frame(args.frame)
    dual = frame.canonical_dual()
    dbounds = dual.optimal_bounds()
    residuals = _dual_residuals(frame)
    payload: dict = {
        "dim": dual.dim, "count": dual.count,
        "bounds": {"lower": dbounds.lower, "upper": dbounds.upper},
        "residuals": residuals,
    }
    lines = [f"canonical dual: dim={dual.dim} count={dual.count}",
             f"bounds: lower={dbounds.lower:.12g} upper={dbounds.upper:.12g}"]
    lines += [f"residual {key}: {value:.3e}" for key, value in residuals.items()]
    _emit(args, payload, lines, frame=dual.to_dict())
    return 0


def cmd_parseval(args) -> int:
    frame = load_frame(args.frame)
    tight = frame.parseval_normalize()
    drift = _identity_drift(tight.frame_operator)
    payload: dict = {"dim": tight.dim, "count": tight.count,
                     "residuals": {"parseval": drift}}
    lines = [f"parseval normalization: dim={tight.dim} count={tight.count}",
             f"residual parseval: {drift:.3e}"]
    _emit(args, payload, lines, frame=tight.to_dict())
    return 0


def cmd_coeffs(args) -> int:
    frame = load_frame(args.frame)
    u = load_vector(args.vector)
    if len(u) != frame.dim:
        raise ValueError(f"vector length {len(u)} does not match frame "
                         f"dimension {frame.dim}")
    c = frame.coefficients(u)
    residual = _ratio((frame.reconstruct(c) - u).norm(), u.norm())
    payload: dict = {"count": frame.count,
                     "reconstruction_residual": residual}
    lines = [f"coefficients: {frame.count}",
             f"reconstruction residual: {residual:.3e}"]
    _emit(args, payload, lines, coefficients={"entries": c.tolist()})
    return 0


def cmd_reconstruct(args) -> int:
    frame = load_frame(args.frame)
    c = load_vector(args.coefficients)
    v = frame.reconstruct(c)
    payload: dict = {"dim": frame.dim, "norm": v.norm()}
    lines = [f"reconstructed vector in H^{frame.dim}", f"norm: {v.norm():.12g}"]
    _emit(args, payload, lines, vector={"entries": v.tolist()})
    return 0


def cmd_map(args) -> int:
    frame = load_frame(args.frame)
    L = load_operator(args.operator)
    image, report = map_frame(L, frame)
    report = report.to_dict()
    payload: dict = {"dim": image.dim, "count": image.count,
                     "is_frame": image.is_frame, **report}
    lines = [f"mapped frame: dim={image.dim} count={image.count}"]
    if not image.is_frame:
        payload["note"] = "not a frame: the operator image fails to span"
        lines.append(payload["note"])
    lines += _bounds_lines(report)
    _emit(args, payload, lines, frame=image.to_dict())
    return 0


def cmd_equiv(args) -> int:
    first = load_frame(args.frame1)
    second = load_frame(args.frame2)
    verdict = are_equivalent(first, second)
    payload = verdict.to_dict()
    lines = [f"relation: {verdict.relation}"]
    if verdict.residual is not None:
        lines.append(f"intertwiner residual: {verdict.residual:.3e}")
    if verdict.witness is not None:
        lines.append("witness kernel vector present")
    _emit(args, payload, lines)
    return 0


def cmd_check(args) -> int:
    sizes = _parse_sizes(args.sizes) if args.sizes is not None else None
    report = run_checks(seed=args.seed, sizes=sizes, tolerance=args.tol)
    lines = []
    for entry in report["checks"]:
        status = "PASS" if entry["passed"] else "FAIL"
        shown = ("none" if entry["max_residual"] is None
                 else f"{entry['max_residual']:.3e}")
        lines.append(f"{status} {entry['name']}: max residual {shown} "
                     f"(tolerance {entry['tolerance']:.1e})")
        if entry.get("error"):
            lines.append(f"     error: {entry['error']}")
    lines.append(f"{len(report['checks']) - report['failures']} of "
                 f"{len(report['checks'])} checks passed")
    _emit(args, report, lines)
    return 0 if report["passed"] else 1


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for token in text.split(","):
        parts = token.split("x")
        if len(parts) != 2:
            raise ValueError(f"bad size {token!r}: expected NxM like 3x8")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad size {token!r}: expected NxM like 3x8")
        sizes.append((n, m))
    return sizes


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit "
                                         "integer")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerance must be a finite positive "
                                         "number")
    return value


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qframes",
        description="finite quaternionic frames: generate, inspect, transform")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of a table")
        if out:
            p.add_argument("--out", metavar="PATH",
                           help="write the produced object to PATH")

    p = sub.add_parser("gen", help="generate a frame file")
    p.add_argument("--dim", "-n", type=int, help="ambient dimension")
    p.add_argument("--count", "-m", type=int, help="number of vectors")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (u64)")
    p.add_argument("--kind", choices=["generic", "parseval", "with-operator"],
                   default="generic")
    p.add_argument("--operator", metavar="PATH",
                   help="prescribed frame operator (kind=with-operator)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("info", help="frame status, bounds, residuals")
    p.add_argument("frame")
    common(p, out=False)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("dual", help="canonical dual frame")
    p.add_argument("frame")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("parseval", help="Parseval normalization")
    p.add_argument("frame")
    common(p)
    p.set_defaults(func=cmd_parseval)

    p = sub.add_parser("coeffs", help="minimal-norm frame coefficients")
    p.add_argument("frame")
    p.add_argument("vector")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("reconstruct", help="synthesize a vector from coefficients")
    p.add_argument("frame")
    p.add_argument("coefficients")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("map", help="apply an operator to every frame vector")
    p.add_argument("frame")
    p.add_argument("operator")
    common(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("equiv", help="classify a frame pair by intertwiners")
    p.add_argument("frame1")
    p.add_argument("frame2")
    common(p, out=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("check", help="run the numerical verification suite")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (u64)")
    p.add_argument("--sizes", metavar="LIST",
                   help="comma-separated NxM pairs, default "
                        + ",".join(f"{n}x{m}" for n, m in DEFAULT_SIZES))
    p.add_argument("--tol", type=_tolerance,
                   help="override every check tolerance with one value")
    common(p, out=False)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a file numpy can shape but the host cannot hold
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
