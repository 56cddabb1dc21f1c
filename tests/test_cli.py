"""End-to-end command line runs through cli.main in this process, with one
parity test against `python -m qframes.cli` run as a child process."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from conftest import run_child, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

import qframes.checks
import qframes.cli
import qframes.frames
from qframes.cli import _dumps, main
from qframes.frames import Frame
from qframes.sampling import random_frame, random_invertible

RECON_TOL = 1e-9


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def diag_operator(values):
    n = len(values)
    entries = [[[0.0, 0.0, 0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for i, v in enumerate(values):
        entries[i][i] = [float(v), 0.0, 0.0, 0.0]
    return {"rows": n, "cols": n, "entries": entries}


def basis_frame(dim, indices):
    vectors = []
    for i in indices:
        v = [[0.0, 0.0, 0.0, 0.0] for _ in range(dim)]
        v[i] = [1.0, 0.0, 0.0, 0.0]
        vectors.append(v)
    return {"dim": dim, "vectors": vectors}


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        res = run_cli(["gen", "-n", "2", "-m", "5", "--seed", "7",
                       "--out", name], tmp_path)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_seed_changes_output(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "1", "--out", "a.json"],
            tmp_path)
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "2", "--out", "b.json"],
            tmp_path)
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_gen_parseval_bounds_are_one(tmp_path):
    res = run_cli(["gen", "-n", "3", "-m", "7", "--seed", "11",
                   "--kind", "parseval", "--out", "t.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    info = run_cli(["info", "t.json", "--json"], tmp_path)
    report = json.loads(info.stdout)
    assert report["bounds"]["lower"] == pytest.approx(1.0, abs=RECON_TOL)
    assert report["bounds"]["upper"] == pytest.approx(1.0, abs=RECON_TOL)


def test_gen_inline_frame_without_out(tmp_path):
    res = run_cli(["gen", "-n", "2", "-m", "4", "--seed", "3", "--json"],
                  tmp_path)
    payload = json.loads(res.stdout)
    assert payload["frame"]["dim"] == 2
    assert len(payload["frame"]["vectors"]) == 4
    assert "written" not in payload


def test_gen_rejects_dim_above_count(tmp_path):
    res = run_cli(["gen", "-n", "5", "-m", "3"], tmp_path)
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_gen_rejects_bad_seed(tmp_path):
    res = run_cli(["gen", "-n", "2", "-m", "4", "--seed", "-1"], tmp_path)
    assert res.returncode == 2


def test_gen_with_prescribed_operator(tmp_path):
    write_json(tmp_path / "op.json", diag_operator([4.0, 1.0]))
    res = run_cli(["gen", "--kind", "with-operator", "--operator", "op.json",
                   "--out", "f.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    info = run_cli(["info", "f.json", "--json"], tmp_path)
    report = json.loads(info.stdout)
    assert report["bounds"]["lower"] == pytest.approx(1.0, rel=1e-9)
    assert report["bounds"]["upper"] == pytest.approx(4.0, rel=1e-9)


def test_gen_with_operator_needs_operator_file(tmp_path):
    res = run_cli(["gen", "--kind", "with-operator"], tmp_path)
    assert res.returncode == 2
    assert "needs --operator" in res.stderr


@pytest.mark.parametrize("kind", ["generic", "parseval"])
def test_gen_refuses_an_operator_it_would_ignore(tmp_path, capsys, kind):
    write_json(tmp_path / "op.json", diag_operator([4.0, 1.0]))
    out = tmp_path / "f.json"
    assert main(["gen", "-n", "2", "-m", "3", "--kind", kind, "--operator",
                 str(tmp_path / "op.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --operator needs --kind "
                                       "with-operator\n")
    assert not out.exists()


def test_gen_with_operator_rejects_indefinite(tmp_path):
    write_json(tmp_path / "op.json", diag_operator([1.0, -1.0]))
    res = run_cli(["gen", "--kind", "with-operator", "--operator", "op.json"],
                  tmp_path)
    assert res.returncode == 2
    assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# info


def test_info_reports_cross_checked_bounds(tmp_path):
    run_cli(["gen", "-n", "3", "-m", "6", "--seed", "5", "--out", "f.json"],
            tmp_path)
    res = run_cli(["info", "f.json", "--json"], tmp_path)
    report = json.loads(res.stdout)
    assert report["status"] == "frame"
    assert set(report["lower_formulas"]) == {
        "spectral", "inverse-operator-norm", "synthesis-pseudoinverse"}
    assert set(report["upper_formulas"]) == {
        "spectral", "frame-operator-norm", "synthesis-norm"}
    assert report["cross_residuals"]["lower"] <= 1e-8
    assert report["cross_residuals"]["upper"] <= 1e-8
    assert len(report["spectrum"]) == 3


def test_info_table_output(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "4", "--seed", "5", "--out", "f.json"],
            tmp_path)
    res = run_cli(["info", "f.json"], tmp_path)
    assert res.returncode == 0
    assert "status: frame" in res.stdout
    assert "bounds: lower=" in res.stdout
    assert "lower [spectral]:" in res.stdout


def test_info_and_dual_report_the_shared_identities(tmp_path, capsys):
    # the command line prints the residuals the check suite reduces
    path = str(tmp_path / "f.json")
    assert main(["gen", "-n", "4", "-m", "12", "--seed", "7", "--out", path]) == 0
    capsys.readouterr()
    frame = qframes.cli.load_frame(path)
    assert main(["info", path, "--json"]) == 0
    lower, upper = qframes.frames._bound_readings(frame)
    assert json.loads(capsys.readouterr().out)["cross_residuals"] == {
        "lower": qframes.frames._spread(lower),
        "upper": qframes.frames._spread(upper)}
    assert main(["dual", path, "--json"]) == 0
    assert (json.loads(capsys.readouterr().out)["residuals"]
            == qframes.frames._dual_residuals(frame))


def test_a_nan_reading_reaches_the_text_report(tmp_path, monkeypatch, capsys):
    # the builtin max and min would drop the NaN and print a zero spread
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))
    monkeypatch.setattr("qframes.frames.operator_norm", lambda M: math.nan)
    assert main(["info", str(tmp_path / "f.json")]) == 0
    out = capsys.readouterr().out
    assert "lower cross-residual: nan\n" in out
    assert "upper cross-residual: nan\n" in out
    # a NaN lower bound of the frame alone spoils the second reciprocity term
    bounds = Frame.optimal_bounds

    def nan_lower(self):
        found = bounds(self)
        if self._primal is not None:  # the canonical dual keeps its bounds
            return found
        return dataclasses.replace(found, lower=math.nan)

    monkeypatch.setattr(Frame, "optimal_bounds", nan_lower)
    assert main(["dual", str(tmp_path / "f.json")]) == 0
    assert "residual bound-reciprocity: nan\n" in capsys.readouterr().out


def test_info_rank_deficient_family(tmp_path):
    write_json(tmp_path / "f.json", basis_frame(2, [0, 0]))
    res = run_cli(["info", "f.json", "--json"], tmp_path)
    report = json.loads(res.stdout)
    assert res.returncode == 0
    assert report["status"] == "rank-deficient"
    assert "lower_formulas" not in report


def test_info_frame_beyond_the_double_range(tmp_path):
    # S = T T* near 1e400 does not fit in a double: one error line, no warning
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4)) * 1e200
    write_json(tmp_path / "big.json", {"dim": 2, "vectors": vectors.tolist()})
    res = run_cli(["info", "big.json"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: frame bounds exceed the double range")
    assert res.stderr.count("\n") == 1


def test_info_frame_below_the_double_range(tmp_path):
    # S = T T* near 1e-320 has lost its digits: one error line, no warning
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4)) * 1e-160
    write_json(tmp_path / "tiny.json", {"dim": 2, "vectors": vectors.tolist()})
    res = run_cli(["info", "tiny.json"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: frame bounds fall below the double "
                                 "range")
    assert res.stderr.count("\n") == 1


def test_frame_whose_operator_nears_the_largest_double(tmp_path):
    # S = 1.2e308 fits, but S + S* and the pairing sums of its doubled
    # spectrum would not: each is halved before the sum, so the frame gets
    # its bounds and its Parseval form, and only the dual, whose S is
    # 1 / 1.2e308, leaves the double range
    write_json(tmp_path / "F.json",
               {"dim": 1, "vectors": [[[math.sqrt(1.2e308), 0, 0, 0]]]})
    info = run_cli(["info", "F.json", "--json"], tmp_path)
    assert (info.returncode, info.stderr) == (0, "")
    bounds = json.loads(info.stdout)["bounds"]
    assert bounds["lower"] == bounds["upper"] == pytest.approx(1.2e308,
                                                               rel=1e-12)
    for args in (["parseval", "F.json"], ["parseval", "F.json", "--json"],
                 ["info", "F.json"]):
        res = run_cli(args, tmp_path)
        assert (res.returncode, res.stderr) == (0, ""), args
    res = run_cli(["dual", "F.json", "--json"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: frame bounds fall below the double "
                                 "range")
    assert res.stderr.count("\n") == 1


def test_frame_whose_inverse_operator_nears_the_largest_double(tmp_path):
    # S = 2^-1022 is normal and S^-1 = 2^1022 fits, but the sum of the
    # blocks of 2^1022 before halving would not
    write_json(tmp_path / "F.json",
               {"dim": 1, "vectors": [[[2.0 ** -511, 0, 0, 0]]]})
    info = run_cli(["info", "F.json", "--json"], tmp_path)
    assert (info.returncode, info.stderr) == (0, "")
    report = json.loads(info.stdout)
    assert report["bounds"]["lower"] == report["bounds"]["upper"] == 2.0 ** -1022
    assert all(math.isfinite(r) for r in report["residuals"].values())
    dual = run_cli(["dual", "F.json", "--json"], tmp_path)
    assert (dual.returncode, dual.stderr) == (0, "")
    payload = json.loads(dual.stdout)
    assert payload["frame"]["vectors"] == [[[2.0 ** 511, 0.0, 0.0, 0.0]]]
    assert payload["bounds"]["lower"] == payload["bounds"]["upper"] == 2.0 ** 1022
    for args in (["dual", "F.json"], ["info", "F.json"],
                 ["parseval", "F.json", "--json"]):
        res = run_cli(args, tmp_path)
        assert (res.returncode, res.stderr) == (0, ""), args


# ---------------------------------------------------------------------------
# dual / parseval / coeffs / reconstruct round trips


def test_dual_reports_reciprocity(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "9", "--out", "f.json"],
            tmp_path)
    res = run_cli(["dual", "f.json", "--json", "--out", "d.json"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["residuals"]["bound-reciprocity"] <= 1e-9
    assert payload["residuals"]["dual-round-trip"] <= 1e-9
    assert payload["written"] == "d.json"
    # dual of the dual lands back on the original bounds
    orig = json.loads(run_cli(["info", "f.json", "--json"], tmp_path).stdout)
    dd = run_cli(["dual", "d.json", "--json", "--out", "dd.json"], tmp_path)
    back = json.loads(run_cli(["info", "dd.json", "--json"], tmp_path).stdout)
    assert back["bounds"]["lower"] == pytest.approx(orig["bounds"]["lower"],
                                                    rel=1e-8)
    assert back["bounds"]["upper"] == pytest.approx(orig["bounds"]["upper"],
                                                    rel=1e-8)


def test_parseval_output_is_tight(tmp_path):
    run_cli(["gen", "-n", "3", "-m", "8", "--seed", "13", "--out", "f.json"],
            tmp_path)
    res = run_cli(["parseval", "f.json", "--json", "--out", "t.json"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["residuals"]["parseval"] <= 1e-9
    report = json.loads(run_cli(["info", "t.json", "--json"], tmp_path).stdout)
    assert report["bounds"]["lower"] == pytest.approx(1.0, abs=1e-9)
    assert report["bounds"]["upper"] == pytest.approx(1.0, abs=1e-9)


def test_coeffs_then_reconstruct_round_trip(tmp_path):
    run_cli(["gen", "-n", "3", "-m", "6", "--seed", "17", "--out", "f.json"],
            tmp_path)
    u = [[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [2.0, 0.0, -1.0, 1.0]]
    write_json(tmp_path / "u.json", {"entries": u})
    res = run_cli(["coeffs", "f.json", "u.json", "--json", "--out", "c.json"],
                  tmp_path)
    payload = json.loads(res.stdout)
    assert payload["reconstruction_residual"] <= RECON_TOL
    res = run_cli(["reconstruct", "f.json", "c.json", "--json",
                   "--out", "u2.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    rebuilt = np.asarray(json.loads((tmp_path / "u2.json").read_text())["entries"])
    gap = np.linalg.norm(rebuilt - np.asarray(u))
    assert gap <= RECON_TOL * np.linalg.norm(np.asarray(u))


def test_coeffs_residual_is_scale_free(tmp_path):
    # |u 2^-1000| is about 3.9e-301, below where a floor under the size
    # would have cut the ratio: the residual must read as u's does, to the
    # eight or so digits its subnormal gap carries
    run_cli(["gen", "-n", "4", "-m", "12", "--seed", "7", "--out", "f.json"],
            tmp_path)
    u = np.array([[1, 2, 0, -1], [0, 1, 1, 0], [0.5, 0, 0, 0], [0, 0, 0, 3]])
    residuals = []
    for c in (1.0, 2.0 ** -1000):
        write_json(tmp_path / "u.json", {"entries": (u * c).tolist()})
        res = run_cli(["coeffs", "f.json", "u.json", "--json"], tmp_path)
        assert res.returncode == 0, res.stderr
        residuals.append(json.loads(res.stdout)["reconstruction_residual"])
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-8, abs=0)


def test_coeffs_rejects_wrong_vector_length(tmp_path):
    run_cli(["gen", "-n", "3", "-m", "6", "--seed", "17", "--out", "f.json"],
            tmp_path)
    write_json(tmp_path / "u.json", {"entries": [[1.0, 0.0, 0.0, 0.0]]})
    res = run_cli(["coeffs", "f.json", "u.json"], tmp_path)
    assert res.returncode == 2
    assert "does not match frame dimension" in res.stderr


# ---------------------------------------------------------------------------
# map / equiv


def test_map_identity_keeps_bounds(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "21", "--out", "f.json"],
            tmp_path)
    write_json(tmp_path / "op.json", diag_operator([1.0, 1.0]))
    orig = json.loads(run_cli(["info", "f.json", "--json"], tmp_path).stdout)
    res = run_cli(["map", "f.json", "op.json", "--json"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["is_frame"] is True
    assert payload["residuals"]["operator-conjugation"] <= 1e-12
    assert payload["bounds"]["lower"] == pytest.approx(
        orig["bounds"]["lower"], rel=1e-12)


def test_map_rank_deficient_operator_warns(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "21", "--out", "f.json"],
            tmp_path)
    write_json(tmp_path / "op.json", diag_operator([1.0, 0.0]))
    res = run_cli(["map", "f.json", "op.json", "--json"], tmp_path)
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    assert payload["is_frame"] is False
    assert payload["note"] == "not a frame: the operator image fails to span"
    table = run_cli(["map", "f.json", "op.json"], tmp_path)
    assert "not a frame" in table.stdout


def test_equiv_same_frame(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "5", "--seed", "23", "--out", "f.json"],
            tmp_path)
    res = run_cli(["equiv", "f.json", "f.json", "--json"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["relation"] == "equivalent"
    assert payload["residual"] <= 1e-8


def test_equiv_same_frame_near_1e200(tmp_path):
    # the rounding-level rows of the kernel test square past the largest double
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4)) * 1e200
    write_json(tmp_path / "big.json", {"dim": 2, "vectors": vectors.tolist()})
    res = run_cli(["equiv", "big.json", "big.json", "--json"], tmp_path)
    assert res.returncode == 0
    assert res.stderr == ""
    assert json.loads(res.stdout)["relation"] == "equivalent"


def test_equiv_residual_is_relative_near_1e200(tmp_path):
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4)) * 1e200
    write_json(tmp_path / "big.json", {"dim": 2, "vectors": vectors.tolist()})
    res = run_cli(["equiv", "big.json", "big.json"], tmp_path)
    assert res.returncode == 0
    line, = (x for x in res.stdout.splitlines()
             if x.startswith("intertwiner residual: "))
    assert float(line.split(": ")[1]) <= 1e-12


def test_equiv_reports_witness(tmp_path):
    write_json(tmp_path / "a.json", basis_frame(2, [0, 0, 1]))
    write_json(tmp_path / "b.json", basis_frame(2, [0, 1, 1]))
    res = run_cli(["equiv", "a.json", "b.json", "--json"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["relation"] == "none"
    assert "witness" in payload
    table = run_cli(["equiv", "a.json", "b.json"], tmp_path)
    assert "relation: none" in table.stdout
    assert "witness kernel vector present" in table.stdout


def _frames_below_the_normal_range(tmp_path):
    """f.json, its image g.json under an invertible L, and an unrelated
    h.json, each scaled by 2^-1030 (subnormal entries); returns L."""
    c = 2.0 ** -1030
    T = random_frame(3, 8, np.random.default_rng(3)).synthesis
    L = random_invertible(3, np.random.default_rng(4))
    U = random_frame(3, 8, np.random.default_rng(5)).synthesis
    for name, X in (("f", T), ("g", L @ T), ("h", U)):
        write_json(tmp_path / f"{name}.json",
                   Frame.from_synthesis(X * c).to_dict())
    return L


def test_equiv_of_frames_below_the_normal_range(tmp_path):
    L = _frames_below_the_normal_range(tmp_path)
    table = run_cli(["equiv", "f.json", "g.json"], tmp_path)
    assert (table.returncode, table.stderr) == (0, "")
    assert "relation: equivalent" in table.stdout
    line, = (x for x in table.stdout.splitlines()
             if x.startswith("intertwiner residual: "))
    assert float(line.split(": ")[1]) <= 1e-12
    res = run_cli(["equiv", "f.json", "g.json", "--json"], tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    payload = json.loads(res.stdout, parse_constant=pytest.fail)
    assert payload["relation"] == "equivalent"
    assert payload["residual"] <= 1e-12
    gap = np.array(payload["intertwiner"]) - L.components
    assert np.linalg.norm(gap) <= 1e-12 * L.frobenius_norm()


def test_equiv_of_unrelated_frames_below_the_normal_range(tmp_path):
    _frames_below_the_normal_range(tmp_path)
    table = run_cli(["equiv", "f.json", "h.json"], tmp_path)
    assert (table.returncode, table.stderr) == (0, "")
    assert "relation: none" in table.stdout
    assert "witness kernel vector present" in table.stdout
    res = run_cli(["equiv", "f.json", "h.json", "--json"], tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    payload = json.loads(res.stdout, parse_constant=pytest.fail)
    assert payload["relation"] == "none"
    assert np.linalg.norm(payload["witness"]) == pytest.approx(1.0, rel=1e-12,
                                                               abs=0)


# ---------------------------------------------------------------------------
# check


def test_check_suite_passes_and_is_stable(tmp_path):
    first = run_cli(["check", "--seed", "0"], tmp_path)
    second = run_cli(["check", "--seed", "0"], tmp_path)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "26 of 26 checks passed" in first.stdout
    assert "FAIL" not in first.stdout


def test_check_json_report(tmp_path):
    res = run_cli(["check", "--seed", "0", "--json"], tmp_path)
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert report["failures"] == 0
    assert len(report["checks"]) == 26
    for entry in report["checks"]:
        assert entry["passed"], entry


def test_check_custom_sizes(tmp_path):
    res = run_cli(["check", "--seed", "1", "--sizes", "2x5,3x7"], tmp_path)
    assert res.returncode == 0
    assert "26 of 26 checks passed" in res.stdout


def test_check_impossible_tolerance_fails(tmp_path):
    res = run_cli(["check", "--seed", "0", "--tol", "1e-300"], tmp_path)
    assert res.returncode == 1
    assert "FAIL" in res.stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_check_rejects_bad_tolerance(tmp_path, tol):
    res = run_cli(["check", "--tol", tol], tmp_path)
    assert res.returncode == 2
    assert "--tol" in res.stderr and "finite positive" in res.stderr


def test_check_rejects_bad_sizes(tmp_path):
    res = run_cli(["check", "--sizes", "3by8"], tmp_path)
    assert res.returncode == 2
    assert "bad size" in res.stderr


def test_check_rejects_fewer_vectors_than_the_dimension(tmp_path):
    res = run_cli(["check", "--sizes", "2x6,6x4"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "(6, 4)" in res.stderr


def test_check_rejects_an_empty_size_list(capsys):
    # an empty --sizes is a bad size, not a request for the default sizes
    assert main(["check", "--sizes", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad size '': expected NxM like 3x8\n"


def _raises(rng, sizes):
    raise ZeroDivisionError("float division by zero")


@pytest.mark.parametrize("fn, error", [
    (_raises, "ZeroDivisionError: float division by zero"),
    (lambda rng, sizes: math.inf, "residual is inf"),
    (lambda rng, sizes: math.nan, "residual is nan"),
], ids=["raises", "inf", "nan"])
def test_check_reports_a_failed_residual_as_null_with_its_error(
        monkeypatch, capsys, fn, error):
    # the report stays strict JSON, and the command exits 1, not 2
    first, *rest = qframes.checks.CHECKS
    monkeypatch.setattr(qframes.checks, "CHECKS",
                        [dataclasses.replace(first, fn=fn), *rest])
    assert main(["check"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[:2] == [
        f"FAIL {first.name}: max residual none (tolerance {first.tolerance:.1e})",
        f"     error: {error}"]
    assert lines[-1] == f"{len(rest)} of {len(rest) + 1} checks passed"
    assert err == ""

    assert main(["check", "--json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out, parse_constant=pytest.fail)
    assert report["checks"][0] == {
        "name": first.name, "description": first.description,
        "max_residual": None, "tolerance": first.tolerance, "passed": False,
        "error": error}
    assert report["failures"] == 1
    assert err == ""


# ---------------------------------------------------------------------------
# malformed input


def test_missing_file_exits_2(tmp_path):
    res = run_cli(["info", "missing.json"], tmp_path)
    assert res.returncode == 2
    assert "no such file" in res.stderr


def test_invalid_json_exits_2(tmp_path):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    res = run_cli(["info", "bad.json"], tmp_path)
    assert res.returncode == 2
    assert "not valid JSON" in res.stderr


def test_malformed_frame_payload_exits_2(tmp_path):
    write_json(tmp_path / "bad.json", {"dim": 2, "vectors": [[[1, 0]]]})
    res = run_cli(["info", "bad.json"], tmp_path)
    assert res.returncode == 2
    assert "vector 0" in res.stderr


def test_malformed_operator_payload_exits_2(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "4", "--seed", "1", "--out", "f.json"],
            tmp_path)
    write_json(tmp_path / "op.json", {"rows": 2, "cols": 2, "entries": [[1]]})
    res = run_cli(["map", "f.json", "op.json"], tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize("payload, message", [
    ({"dim": True, "vectors": [[[1, 0, 0, 0]]]},
     'f.json: "dim" must be a positive integer, got True'),
    ({"dim": 2, "vectors": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                            [[1, 0, 0, 0], [0, 0, float("nan"), 0]]]},
     "f.json: vector 1, entry 1: components must be finite"),
], ids=["bool-dim", "nan-entry"])
def test_frame_file_values_are_checked(tmp_path, payload, message):
    write_json(tmp_path / "f.json", payload)
    res = run_cli(["info", "f.json"], tmp_path)
    assert res.returncode == 2
    assert message in res.stderr


@pytest.mark.parametrize("key", ["rows", "cols"])
def test_operator_file_rejects_bool_dimension(tmp_path, key):
    # true == 1 in Python, so a 1 x 1 operator would otherwise pass
    run_cli(["gen", "-n", "1", "-m", "2", "--seed", "1", "--out", "f.json"],
            tmp_path)
    op = diag_operator([2.0])
    op[key] = True
    write_json(tmp_path / "op.json", op)
    res = run_cli(["map", "f.json", "op.json"], tmp_path)
    assert res.returncode == 2
    assert f'op.json: "{key}" must be a positive integer, got True' in res.stderr


def test_non_finite_operator_and_vector_entries_exit_2(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "4", "--seed", "1", "--out", "f.json"],
            tmp_path)
    op = diag_operator([1.0, 2.0])
    op["entries"][1][0][3] = float("nan")
    write_json(tmp_path / "op.json", op)
    res = run_cli(["map", "f.json", "op.json"], tmp_path)
    assert res.returncode == 2
    assert "op.json: entry (1, 0) has a non-finite component" in res.stderr
    write_json(tmp_path / "u.json",
               {"entries": [[1.0, 0.0, 0.0, 0.0], [float("inf"), 0.0, 0.0, 0.0]]})
    res = run_cli(["coeffs", "f.json", "u.json"], tmp_path)
    assert res.returncode == 2
    assert "u.json: entry (1) has a non-finite component" in res.stderr


# entries that are not numbers: a JSON object, lists of uneven length, a string
BAD_ENTRIES = [{"a": 1}, [[1, 0, 0, 0], [0, 1]], "abc"]
BAD_IDS = ["object", "ragged", "string"]


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=BAD_IDS)
def test_frame_file_entry_errors_name_the_vector(tmp_path, bad):
    frame = basis_frame(2, [0, 1])
    frame["vectors"][1] = bad
    write_json(tmp_path / "f.json", frame)
    res = run_cli(["info", "f.json"], tmp_path)
    assert res.returncode == 2
    assert "f.json: vector 1: entries must be numbers" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=BAD_IDS)
def test_operator_file_entry_errors_name_the_file(tmp_path, bad):
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))
    op = diag_operator([1.0, 2.0])
    op["entries"][1] = bad
    write_json(tmp_path / "op.json", op)
    res = run_cli(["map", "f.json", "op.json"], tmp_path)
    assert res.returncode == 2
    assert "op.json: entries must be numbers" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=BAD_IDS)
def test_vector_file_entry_errors_name_the_file(tmp_path, bad):
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))
    write_json(tmp_path / "u.json", {"entries": [[1.0, 0.0, 0.0, 0.0], bad]})
    res = run_cli(["coeffs", "f.json", "u.json"], tmp_path)
    assert res.returncode == 2
    assert "u.json: entries must be numbers" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("kind", ["frame", "operator", "vector"])
def test_entry_too_large_for_a_float_exits_2(tmp_path, kind):
    # a JSON integer beyond the double range cannot be read as a number
    frame = basis_frame(2, [0, 1])
    op = diag_operator([1.0, 2.0])
    vec = {"entries": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}
    {"frame": frame["vectors"][1], "operator": op["entries"][1],
     "vector": vec["entries"]}[kind][1][0] = 10**400
    write_json(tmp_path / "f.json", frame)
    write_json(tmp_path / "op.json", op)
    write_json(tmp_path / "u.json", vec)
    args, where = {"frame": (["info", "f.json"], "f.json: vector 1"),
                   "operator": (["map", "f.json", "op.json"], "op.json"),
                   "vector": (["coeffs", "f.json", "u.json"], "u.json")}[kind]
    res = run_cli(args, tmp_path)
    assert res.returncode == 2
    assert f"{where}: entries must be numbers" in res.stderr
    assert "too large" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("kind", ["frame", "operator", "vector"])
def test_numeric_string_component_exits_2(tmp_path, kind):
    # "1.5" reads as a number, but a component must be a JSON number
    frame = basis_frame(2, [0, 1])
    op = diag_operator([1.0, 2.0])
    vec = {"entries": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}
    {"frame": frame["vectors"][1], "operator": op["entries"][1],
     "vector": vec["entries"]}[kind][1][0] = "1.5"
    write_json(tmp_path / "f.json", frame)
    write_json(tmp_path / "op.json", op)
    write_json(tmp_path / "u.json", vec)
    args, where = {"frame": (["info", "f.json"], "f.json: vector 1"),
                   "operator": (["map", "f.json", "op.json"], "op.json"),
                   "vector": (["coeffs", "f.json", "u.json"], "u.json")}[kind]
    res = run_cli(args, tmp_path)
    assert res.returncode == 2
    assert f"{where}: entries must be numbers in lists of equal length (" \
        in res.stderr
    assert "Traceback" not in res.stderr


def test_non_object_top_level_exits_2(tmp_path):
    run_cli(["gen", "-n", "2", "-m", "4", "--seed", "1", "--out", "f.json"],
            tmp_path)
    (tmp_path / "five.json").write_text("5\n", encoding="utf-8")
    for args in (["map", "f.json", "five.json"],
                 ["coeffs", "f.json", "five.json"],
                 ["info", "five.json"]):
        res = run_cli(args, tmp_path)
        assert res.returncode == 2
        assert "five.json: the top level must be a JSON object" in res.stderr
        assert "Traceback" not in res.stderr


def test_usage_error_exits_2(tmp_path):
    res = run_cli(["frobnicate"], tmp_path)
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["info", "dual", "parseval"])
def test_dim_beyond_any_array_names_the_file_and_the_field(tmp_path, capsys,
                                                           command):
    # 16 * dim^2 bytes for S exceeds intp.max, so numpy cannot shape S; no
    # dim below that bound is run here, since one may try to allocate it
    path = tmp_path / "huge.json"
    write_json(path, {"dim": 10 ** 12, "vectors": []})
    assert 16 * 10 ** 24 > np.iinfo(np.intp).max
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f'error: {path}: "dim" is too large')


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 14.9 TiB for an array with shape (1000000, 1000000)",
     "Unable to allocate 14.9 TiB for an array with shape (1000000, 1000000)"),
    ("", "an allocation failed"),
], ids=["numpy-message", "no-message"])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys,
                                         message, shown):
    # a dim numpy can shape but the host cannot hold fails allocating S;
    # that allocation is stood in for here, never attempted
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))

    def failing(T):
        raise MemoryError(message)

    monkeypatch.setattr(qframes.frames, "_hermitian_outer", failing)
    assert main(["info", str(tmp_path / "f.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory: {shown}\n"


def test_numerical_failure_is_labelled(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, so main must catch it first
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))

    def failing(M):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(qframes.frames, "herm_eig", failing)
    assert main(["info", str(tmp_path / "f.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigh did not converge")


def test_non_finite_output_is_an_error(tmp_path, monkeypatch, capsys):
    # a NaN that reaches the output ends in exit 2, never in bare NaN
    write_json(tmp_path / "f.json", basis_frame(2, [0, 1]))
    monkeypatch.setattr("qframes.frames.operator_norm", lambda M: math.nan)
    assert main(["info", str(tmp_path / "f.json"), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "JSON compliant" in err

    monkeypatch.setattr(Frame, "to_dict", lambda self: {
        "dim": self.dim, "vectors": [[[math.inf, 0.0, 0.0, 0.0]] * self.dim]})
    out_path = tmp_path / "d.json"
    assert main(["dual", str(tmp_path / "f.json"), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# the JSON writer equals json.dumps(indent=2, allow_nan=False)

finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308])
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
leaves = (finite_floats | st.integers() | st.booleans() | st.none()
          | st.text())


@st.composite
def rectangular(draw, elements=finite_floats):
    """A rectangular nest of lists up to depth 4; a zero extent gives []."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))

    def build(dims):
        if not dims:
            return draw(elements)
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


blocks = rectangular() | rectangular(finite_floats | st.integers())
odd_keys = st.integers() | st.booleans() | st.none() | finite_floats
trees = st.recursive(
    leaves | blocks,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  | st.dictionaries(odd_keys, kids, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_dumps_equals_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, allow_nan=False) + "\n"


@st.composite
def trees_with_non_finite(draw):
    block = draw(rectangular())
    flat = block
    while isinstance(flat, list) and flat and isinstance(flat[0], list):
        flat = flat[draw(st.integers(0, len(flat) - 1))]
    bad = draw(non_finite)
    if isinstance(flat, list) and flat:
        flat[draw(st.integers(0, len(flat) - 1))] = bad
    else:
        block = bad
    return draw(st.sampled_from([
        block, [draw(trees), block], {"ok": draw(trees), "bad": block},
        {1: block}]))


@settings(max_examples=200, deadline=None)
@given(trees_with_non_finite())
def test_dumps_rejects_non_finite_values(tree):
    with pytest.raises(ValueError, match="JSON compliant"):
        _dumps(tree)


# ---------------------------------------------------------------------------
# the in-process runner against `python -m qframes.cli`

PARITY_CASES = [
    ["gen", "-n", "2", "-m", "5", "--seed", "7", "--out", "f.json"],
    ["gen", "-n", "2", "-m", "3", "--seed", "3", "--kind", "parseval",
     "--json"],
    ["info", "f.json"],
    ["info", "f.json", "--json"],
    ["dual", "f.json", "--out", "d.json"],
    ["parseval", "f.json", "--json", "--out", "p.json"],
    ["coeffs", "f.json", "u.json", "--out", "c.json"],
    ["reconstruct", "f.json", "c.json", "--json"],
    ["map", "f.json", "op.json", "--out", "m.json"],
    ["equiv", "f.json", "d.json"],
    ["check", "--seed", "1", "--sizes", "2x3"],
    ["check", "--seed", "0", "--sizes", "2x3", "--tol", "1e-300", "--json"],
    ["info", "bad.json"],
    ["gen", "-n", "2", "-m", "4", "--seed", "-1"],
]


def _parity_run(runner, cwd):
    """Each case's return code, stdout and stderr, and the bytes of every
    file in cwd afterwards, starting from the same input files."""
    cwd.mkdir()
    write_json(cwd / "u.json", {"entries": [[1.0, 2.0, 0.0, 0.0],
                                            [0.0, 0.0, -1.0, 0.5]]})
    write_json(cwd / "op.json", diag_operator([2.0, 0.5]))
    (cwd / "bad.json").write_text("{not json\n", encoding="utf-8")
    runs = [runner(args, cwd) for args in PARITY_CASES]
    results = [(r.returncode, r.stdout, r.stderr) for r in runs]
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return results, files


def test_in_process_runs_match_child_processes(tmp_path, monkeypatch):
    # argparse wraps usage at the terminal width; a child's captured stdout
    # has no terminal, so both runs wrap at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    child = _parity_run(run_child, tmp_path / "child")
    assert {code for code, _, _ in child[0]} == {0, 1, 2}
    assert {"d.json", "p.json", "c.json", "m.json"} <= set(child[1])
    assert _parity_run(run_cli, tmp_path / "first") == child
    # a second pass in the same process sees no state left by the first
    assert _parity_run(run_cli, tmp_path / "second") == child


def _info_replaced_by(monkeypatch, command):
    monkeypatch.setattr(qframes.cli, "cmd_info", command)
    return ["info", "f.json"]


def test_runner_writes_a_warning_to_stderr(tmp_path, monkeypatch):
    def warning(args):
        warnings.warn("a user warning", UserWarning)
        print("done")
        return 0

    res = run_cli(_info_replaced_by(monkeypatch, warning), tmp_path)
    assert (res.returncode, res.stdout) == (0, "done\n")
    assert "UserWarning: a user warning\n" in res.stderr


def test_runner_keeps_runtime_warnings_errors(tmp_path, monkeypatch):
    def overflow(args):
        warnings.warn("overflow encountered", RuntimeWarning)
        return 0

    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        run_cli(_info_replaced_by(monkeypatch, overflow), tmp_path)


def test_runner_reads_system_exit_as_a_return_code(tmp_path, monkeypatch):
    def leave(args):
        raise SystemExit(0)

    res = run_cli(_info_replaced_by(monkeypatch, leave), tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")


def test_runner_restores_the_working_directory(tmp_path, monkeypatch):
    def fail(args):
        assert os.path.samefile(os.getcwd(), tmp_path)
        raise KeyError("escaped")

    home = os.getcwd()
    with pytest.raises(KeyError, match="escaped"):
        run_cli(_info_replaced_by(monkeypatch, fail), tmp_path)
    assert os.getcwd() == home
