"""End-to-end command line runs through a subprocess."""

import json

import numpy as np
import pytest
from conftest import run_cli

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


def test_info_rank_deficient_family(tmp_path):
    write_json(tmp_path / "f.json", basis_frame(2, [0, 0]))
    res = run_cli(["info", "f.json", "--json"], tmp_path)
    report = json.loads(res.stdout)
    assert res.returncode == 0
    assert report["status"] == "rank-deficient"
    assert "lower_formulas" not in report


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
