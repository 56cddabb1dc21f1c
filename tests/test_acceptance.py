"""Acceptance gate: eleven numbered behavioral criteria, one verdict line each.

Every test draws seeded randomness, measures a worst-case residual against a
fixed tolerance, prints a single PASS/FAIL line, and asserts. Run with -s to
see the verdict lines on success:

    python -m pytest tests/test_acceptance.py -q -s
"""

import json

import numpy as np
from conftest import run_child

from qframes.frame_ops import are_equivalent, map_frame, project_frame, \
    unitary_invariance_check
from qframes.frames import Frame
from qframes.qlinalg import (
    QMatrix,
    QVector,
    complex_adjoint,
    herm_eig,
    kernel_basis,
    matrix_rank,
    operator_norm,
    pinv,
)
from qframes.quaternion import Quaternion
from qframes.sampling import (
    random_frame,
    random_hermitian,
    random_invertible,
    random_matrix,
    random_quaternion,
    random_rank_deficient,
    random_unitary,
    random_vector,
    random_with_spectrum,
)

e = QVector.basis


def _verdict(index: int, label: str, worst: float, tol: float) -> None:
    ok = worst <= tol
    word = "PASS" if ok else "FAIL"
    print(f"{word} criterion {index:2d} [{label}]: "
          f"worst residual {worst:.3e}, tolerance {tol:.1e}")
    assert ok, f"criterion {index} ({label}): {worst:.3e} > {tol:.1e}"


def _size(rng) -> tuple[int, int]:
    n = int(rng.integers(2, 7))
    m = n + int(rng.integers(2, 9))
    return n, m


def _inverse_frame_operator(fr: Frame) -> QMatrix:
    return herm_eig(fr.frame_operator).apply(lambda lam: 1.0 / lam)


# ---------------------------------------------------------------------------
# 1. reconstruction from minimal-norm coefficients, both expansion routes


def test_criterion_01_reconstruction():
    rng = np.random.default_rng([90, 1])
    worst = 0.0
    for _ in range(200):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        for _ in range(10):
            u = random_vector(n, rng)
            scale = u.norm()
            natural = fr.natural_representation(u)
            mirrored = fr.dual_expansion(u)
            worst = max(worst,
                        (natural - u).norm() / scale,
                        (mirrored - u).norm() / scale,
                        (natural - mirrored).norm() / scale)
    _verdict(1, "reconstruction identity", worst, 1e-9)


# ---------------------------------------------------------------------------
# 2. three formulas for each optimal bound agree


def test_criterion_02_bound_formulas():
    rng = np.random.default_rng([90, 2])
    worst = 0.0
    for _ in range(200):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        lo, hi = fr.optimal_bounds().as_tuple()
        inv_norm = operator_norm(_inverse_frame_operator(fr))
        synth_norm = operator_norm(fr.synthesis)
        pinv_norm = operator_norm(pinv(fr.synthesis))
        worst = max(worst,
                    abs(lo - 1.0 / inv_norm) / lo,
                    abs(hi - synth_norm ** 2) / hi,
                    abs(pinv_norm ** 2 * lo - 1.0))
    _verdict(2, "optimal bound formulas", worst, 1e-8)


# ---------------------------------------------------------------------------
# 3. pseudoinverse of the synthesis matrix equals the dual-analysis route


def test_criterion_03_pseudoinverse_identity():
    rng = np.random.default_rng([90, 3])
    worst = 0.0
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        via_svd = pinv(fr.synthesis)
        via_dual = fr.synthesis.H @ _inverse_frame_operator(fr)
        gap = (via_svd - via_dual).entry_moduli().max()
        worst = max(worst, gap / via_svd.entry_moduli().max())
    _verdict(3, "pseudoinverse identity", worst, 1e-9)


# ---------------------------------------------------------------------------
# 4. norm splitting: frame coefficients strictly beat every alternative


def test_criterion_04_minimal_norm():
    rng = np.random.default_rng([90, 4])
    worst = 0.0
    strict = True
    for _ in range(50):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        null = kernel_basis(fr.synthesis)
        u = random_vector(n, rng)
        c = fr.coefficients(u)
        for _ in range(20):
            k = QVector.zeros(m)
            for col in range(null.shape[1]):
                k = k + null.column(col) * random_quaternion(rng)
            offered = c + k
            chk = fr.pythagoras_check(u, offered)
            worst = max(worst, chk.residual)
            if k.norm() > 1e-6 and c.norm() >= offered.norm():
                strict = False
    assert strict, "a perturbed representation undercut the frame coefficients"
    _verdict(4, "minimal-norm coefficients", worst, 1e-8)


# ---------------------------------------------------------------------------
# 5. operator images: full rank preserves frames, rank deficiency breaks them


def test_criterion_05_operator_images():
    rng = np.random.default_rng([90, 5])
    worst = 0.0
    flagged = True
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        image, report = map_frame(random_invertible(n, rng), fr)
        if not image.is_frame:
            flagged = False
        worst = max(worst, report.residuals.get("operator-conjugation", 1.0))
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        lost = random_rank_deficient(n, n, int(rng.integers(0, n)), rng)
        image, _ = map_frame(lost, fr)
        if image.is_frame:
            flagged = False
    assert flagged, "an operator image was classified on the wrong side"
    _verdict(5, "operator-image frames", worst, 1e-9)


# ---------------------------------------------------------------------------
# 6. canonical dual bounds, dual round trip, Parseval normalization


def test_criterion_06_duals_and_parseval():
    rng = np.random.default_rng([90, 6])
    worst = 0.0
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        lo, hi = fr.optimal_bounds().as_tuple()
        dual = fr.canonical_dual()
        dlo, dhi = dual.optimal_bounds().as_tuple()
        worst = max(worst, abs(dlo * hi - 1.0), abs(dhi * lo - 1.0))
        back = dual.canonical_dual()
        scale = max(v.norm() for v in fr)
        worst = max(worst, max((v - w).norm() for v, w in zip(fr, back)) / scale)
        tight = fr.parseval_normalize()
        drift = tight.frame_operator - QMatrix.identity(n)
        worst = max(worst, drift.frobenius_norm())
    _verdict(6, "duals and Parseval form", worst, 1e-9)


# ---------------------------------------------------------------------------
# 7. unitaries keep the bounds; projections keep Parseval frames Parseval


def test_criterion_07_unitary_and_projection():
    rng = np.random.default_rng([90, 7])
    worst = 0.0
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        U = random_unitary(n, rng)
        _, _, drift = unitary_invariance_check(U, fr)
        worst = max(worst, drift)
        if n >= 3:
            d = int(rng.integers(1, n))
            basis = QMatrix.from_columns([U.column(k) for k in range(d)])
            compressed, _ = project_frame(basis, fr.parseval_normalize())
            gap = compressed.frame_operator - QMatrix.identity(d)
            worst = max(worst, gap.frobenius_norm())
    _verdict(7, "unitary and projection invariance", worst, 1e-9)


# ---------------------------------------------------------------------------
# 8. equivalence: intertwiners for positive cases, witnesses for negative


def test_criterion_08_equivalence():
    rng = np.random.default_rng([90, 8])
    worst = 0.0
    ok = True

    first = Frame([e(2, 0), e(2, 0), e(2, 1)])
    second = Frame([e(2, 0), e(2, 1), e(2, 1)])
    res = are_equivalent(first, second)
    ok &= res.relation == "none" and res.witness is not None
    if res.witness is not None:
        ok &= (first.synthesis @ res.witness).norm() <= 1e-10
        ok &= (second.synthesis @ res.witness).norm() > 1e-6

    for _ in range(40):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        ok &= are_equivalent(fr, fr).relation == "equivalent"
        L = random_invertible(n, rng)
        image = Frame([L @ v for v in fr], dim=n)
        forward = are_equivalent(fr, image)
        backward = are_equivalent(image, fr)
        ok &= forward.relation == "equivalent"
        ok &= backward.relation == "equivalent"
        ok &= matrix_rank(forward.intertwiner) == n
        worst = max(worst, forward.residual, backward.residual)
        M = random_invertible(n, rng)
        third = Frame([M @ v for v in image], dim=n)
        ok &= are_equivalent(fr, third).relation == "equivalent"
    assert ok, "an equivalence verdict or witness came out wrong"
    _verdict(8, "frame equivalence", worst, 1e-9)


# ---------------------------------------------------------------------------
# 9. spectral kernel: embedding, doubled eigenvalues, Penrose identities


def test_criterion_09_spectral_kernel():
    rng = np.random.default_rng([90, 9])
    star_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_matrix(n, n, rng)
        B = random_matrix(n, n, rng)
        prod = complex_adjoint(A @ B) - complex_adjoint(A) @ complex_adjoint(B)
        star = complex_adjoint(A.H) - complex_adjoint(A).conj().T
        scale = np.linalg.norm(complex_adjoint(A)) * \
            np.linalg.norm(complex_adjoint(B))
        star_worst = max(star_worst,
                         np.linalg.norm(prod) / scale,
                         np.linalg.norm(star))
    assert star_worst <= 1e-12, f"embedding drift {star_worst:.3e}"

    pair_worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 7))
        if trial % 5 == 0:
            # inject repeated eigenvalues to stress the pairing logic
            lam = rng.choice([0.0, 1.0, 1.0, 2.0, 5.0], size=n)
            U = random_unitary(n, rng)
            skew = U @ QMatrix.diag([Quaternion(x) for x in lam]) @ U.H
            H = (skew + skew.H) * 0.5
        else:
            H = random_hermitian(n, rng)
        eig = herm_eig(H)  # raises if the doubled pairing breaks down
        recon = eig.apply(lambda x: x)
        assert (recon - H).frobenius_norm() <= 1e-9 * max(
            H.frobenius_norm(), 1.0)
        raw = np.linalg.eigvalsh(complex_adjoint(H))
        scale = max(abs(raw[0]), abs(raw[-1]), 1.0)
        pair_worst = max(pair_worst,
                         float(np.abs(raw[::2] - raw[1::2]).max()) / scale)
    assert pair_worst <= 1e-8, f"doubling pairs split by {pair_worst:.3e}"

    worst = 0.0
    for n, m in ((3, 5), (5, 3), (4, 4), (2, 6)):
        for rank in range(min(n, m) + 1):
            if rank == 0:
                M = QMatrix.zeros(n, m)
            elif rank == min(n, m):
                sigma = np.sort(rng.uniform(0.5, 2.0, size=rank))[::-1]
                M = random_with_spectrum(n, m, sigma, rng)
            else:
                M = random_rank_deficient(n, m, rank, rng)
            X = pinv(M)
            scale = max(M.frobenius_norm(), 1.0)
            worst = max(worst,
                        (M @ X @ M - M).frobenius_norm() / scale,
                        (X @ M @ X - X).frobenius_norm() / max(
                            X.frobenius_norm(), 1.0),
                        ((M @ X).H - M @ X).frobenius_norm(),
                        ((X @ M).H - X @ M).frobenius_norm())
    _verdict(9, "spectral kernel integrity", worst, 1e-9)


# ---------------------------------------------------------------------------
# 10. coefficient transport matrix and its norm envelope


def test_criterion_10_coefficient_transport():
    rng = np.random.default_rng([90, 10])
    worst = 0.0
    bounded = True
    for _ in range(100):
        n, m = _size(rng)
        fr = random_frame(n, m, rng)
        R = random_matrix(n, n, rng)
        u = random_vector(n, rng)
        lam = fr.coefficient_transport(R)
        direct = fr.coefficients(R @ u)
        via = lam @ fr.coefficients(u)
        worst = max(worst, (via - direct).norm() / max(direct.norm(), 1.0))
        lo, hi = fr.optimal_bounds().as_tuple()
        envelope = (hi / lo) * operator_norm(R) * (1 + 1e-9)
        if operator_norm(lam) > envelope:
            bounded = False
    assert bounded, "a transport matrix escaped its norm envelope"
    _verdict(10, "coefficient transport", worst, 1e-9)


# ---------------------------------------------------------------------------
# 11. command line determinism


def test_criterion_11_cli_determinism(tmp_path):
    def run(args):
        return run_child(args, tmp_path)

    gen_cmd = ["gen", "-n", "3", "-m", "7", "--seed", "41", "--out", "a.json"]
    gen1 = run(gen_cmd)
    first_bytes = (tmp_path / "a.json").read_bytes()
    gen2 = run(gen_cmd)
    ok = gen1.returncode == 0 and gen2.returncode == 0
    ok &= gen1.stdout == gen2.stdout
    ok &= first_bytes == (tmp_path / "a.json").read_bytes()

    info1 = run(["info", "a.json", "--json"])
    info2 = run(["info", "a.json", "--json"])
    ok &= info1.returncode == 0 and info1.stdout == info2.stdout
    ok &= json.loads(info1.stdout)["status"] == "frame"

    chk1 = run(["check", "--seed", "0"])
    chk2 = run(["check", "--seed", "0"])
    ok &= chk1.returncode == 0 and chk2.returncode == 0
    ok &= chk1.stdout == chk2.stdout

    worst = 0.0 if ok else 1.0
    _verdict(11, "command line determinism", worst, 1e-12)
