"""The four benchmark workloads: seeded inputs, one job each, and its check.

Every workload makes its inputs from the seed with numpy alone, so the
library only ever receives generated arrays and files. A job builds fresh
``Frame`` objects, so no ``cached_property`` result of one job reaches the
next. ``verify`` checks a job's output against an oracle computed here from
the complex embedding, at the library's own tolerances, and returns the
worst residual as a share of its tolerance; it raises ``Failed`` otherwise.

Inputs come from a small pool that jobs cycle through. A job's residuals
depend only on its pool item, so the worst over the pool repeats exactly
for a seed once every item has run.

Library calls go through module attributes (``qframes.frame_ops.map_frame``,
not a name imported here) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import qframes
import qframes.checks
import qframes.frame_ops
import qframes.frames
import qframes.qlinalg

HERE = os.path.dirname(os.path.abspath(__file__))

# The library's tolerances, by the check that owns each identity.
CHECK_TOL = {c.name: c.tolerance for c in qframes.checks.CHECKS}
RECON_TOL = CHECK_TOL["reconstruction-identity"]
PARSEVAL_TOL = CHECK_TOL["parseval-normalization"]
RECIPROCITY_TOL = CHECK_TOL["canonical-dual-reciprocity"]
BOUND_TOL = CHECK_TOL["bound-formula-agreement"]
IMAGE_TOL = CHECK_TOL["operator-image-frames"]
EQUIV_TOL = CHECK_TOL["equivalence-classification"]
ENVELOPE_SLACK = 1e-9      # relative slack the projection check allows
CLI_RECON_TOL = 1e-9       # RECON_TOL of the command line tests


def child_env() -> dict[str, str]:
    """The parent's environment, thread pins included, plus an absolute
    PYTHONPATH to the qframes sources, so a child started in any directory
    imports the same library."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qframes.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


class Failed(Exception):
    """A job's output broke an identity or a verdict the library promises."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Failed(what)


def _ratio(residual: float, tol: float, what: str) -> float:
    if not residual <= tol:
        raise Failed(f"{what}: residual {residual:.3e} exceeds {tol:.1e}")
    return residual / tol


# ---------------------------------------------------------------------------
# numpy oracle on the complex embedding chi(X) = [[A, B], [-conj B, conj A]]

def embed(comps: np.ndarray) -> np.ndarray:
    """chi of a quaternion matrix given as real components, shape (m, n, 4)."""
    a = comps[..., 0] + 1j * comps[..., 1]
    b = comps[..., 2] + 1j * comps[..., 3]
    return np.block([[a, b], [-b.conj(), a.conj()]])


def unembed(chi: np.ndarray) -> np.ndarray:
    m, n = chi.shape[0] // 2, chi.shape[1] // 2
    a, b = chi[:m, :n], chi[:m, n:]
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def synthesis(vectors: np.ndarray) -> np.ndarray:
    """chi(T) for a family given as components, shape (count, dim, 4)."""
    return embed(np.ascontiguousarray(vectors.transpose(1, 0, 2)))


def frame_components(frame) -> np.ndarray:
    return np.stack([v.components for v in frame.vectors])


def identity_drift(chi: np.ndarray) -> float:
    """||X - I||_F / sqrt(n) for chi = chi(X), X square of size n."""
    n = chi.shape[0] // 2
    return float(np.linalg.norm(chi - np.eye(2 * n)) / np.sqrt(2 * n))


def bounds_of(chi_t: np.ndarray) -> tuple[float, float]:
    lam = np.linalg.eigvalsh(chi_t @ chi_t.conj().T)
    return float(lam[0]), float(lam[-1])


def rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal((*shape, 4))


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name: str
    pool_size: int
    in_process = True    # False: the job is a child process, traced from inside


class CalcGeneric(Workload):
    """Frame calculus on generic 64 x 192 frames: simple spectra, no svd."""

    name = "calc-generic"
    dim, count, trips = 64, 192, 16
    pool_size = 8

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 0])
        self.pool = [(_gaussian(rng, self.count, self.dim),
                      _gaussian(rng, self.trips, self.dim))
                     for _ in range(self.pool_size)]

    def job(self, i: int):
        arr, us = self.pool[i % self.pool_size]
        F = qframes.frames.Frame(arr, dim=self.dim)
        report = F.report()
        dual = F.canonical_dual()
        tight = F.parseval_normalize()
        trips = []
        for u_comps in us:
            u = qframes.qlinalg.QVector(u_comps)
            trips.append(F.reconstruct(F.coefficients(u)))
        return report, dual, tight, trips

    def verify(self, i: int, out) -> float:
        arr, us = self.pool[i % self.pool_size]
        report, dual, tight, trips = out
        chi_t = synthesis(arr)
        lower, upper = bounds_of(chi_t)
        is_frame = lower > self.dim * qframes.frames.FRAME_RTOL * upper
        _require(report.status == ("frame" if is_frame else "rank-deficient"),
                 f"status {report.status!r} disagrees with the spectrum")
        _require(is_frame, "a generic Gaussian family should be a frame")
        worst = max(_ratio(rel_gap(report.lower, lower), BOUND_TOL, "lower bound"),
                    _ratio(rel_gap(report.upper, upper), BOUND_TOL, "upper bound"))
        for key, tol in (("reconstruction", RECON_TOL),
                         ("dual-reconstruction", RECON_TOL),
                         ("parseval", PARSEVAL_TOL)):
            worst = max(worst, _ratio(report.residuals[key], tol, key))
        _require((dual.dim, dual.count, tight.dim, tight.count)
                 == (self.dim, self.count) * 2, "derived frame has the wrong shape")
        chi_d = synthesis(frame_components(dual))
        worst = max(worst, _ratio(identity_drift(chi_t @ chi_d.conj().T),
                                  RECON_TOL, "dual reconstruction T D*"))
        chi_p = synthesis(frame_components(tight))
        worst = max(worst, _ratio(identity_drift(chi_p @ chi_p.conj().T),
                                  PARSEVAL_TOL, "Parseval frame operator"))
        for u_comps, back in zip(us, trips):
            gap = np.linalg.norm(back.components - u_comps) / np.linalg.norm(u_comps)
            worst = max(worst, _ratio(gap, qframes.frames.REPRESENTATION_RTOL,
                                      "coefficient round trip"))
        return worst


def _split_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return unembed(embed(x) @ embed(y))


def _orthonormal_columns(x: np.ndarray) -> np.ndarray:
    """Polar factor of a tall quaternion matrix; chi keeps its structure."""
    u, _, vh = np.linalg.svd(embed(x), full_matrices=False)
    return unembed(u @ vh)


class OpsDegenerate(Workload):
    """Operators on 12 x 36 frames: clusters, big kernels, pinv, rank-9 L."""

    name = "ops-degenerate"
    dim, count, rank, sub = 12, 36, 9, 6
    pool_size = 4

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 1])
        QMatrix = qframes.qlinalg.QMatrix
        self.pool = []
        for _ in range(self.pool_size):
            f = _gaussian(rng, self.count, self.dim)
            g = _gaussian(rng, self.count, self.dim)
            low = _split_product(_gaussian(rng, self.dim, self.rank),
                                 _gaussian(rng, self.rank, self.dim))
            basis = _orthonormal_columns(_gaussian(rng, self.dim, self.sub))
            chi_f = synthesis(f)
            self.pool.append({
                "f": f, "g": g, "L": QMatrix(low), "B": QMatrix(basis),
                "low": low, "basis": basis, "chi_f": chi_f,
                "bounds_f": bounds_of(chi_f),
                "norm_f": float(np.linalg.norm(chi_f, 2)),
            })

    def job(self, i: int):
        item = self.pool[i % self.pool_size]
        Frame = qframes.frames.Frame
        F = Frame(item["f"], dim=self.dim)
        G = Frame(item["g"], dim=self.dim)
        tight_report = F.parseval_normalize().report()
        dual = F.canonical_dual()
        to_dual = qframes.frame_ops.are_equivalent(F, dual)
        to_other = qframes.frame_ops.are_equivalent(F, G)
        image, image_report = qframes.frame_ops.map_frame(item["L"], F)
        compressed, bounds = qframes.frame_ops.project_frame(item["B"], F)
        return (tight_report, dual, to_dual, to_other, image, image_report,
                compressed, bounds)

    def verify(self, i: int, out) -> float:
        item = self.pool[i % self.pool_size]
        (tight_report, dual, to_dual, to_other, image, image_report,
         compressed, bounds) = out
        chi_f = item["chi_f"]

        _require(tight_report.status == "frame", "Parseval frame lost frame status")
        worst = max(_ratio(abs(tight_report.lower - 1.0), PARSEVAL_TOL, "Parseval lower"),
                    _ratio(abs(tight_report.upper - 1.0), PARSEVAL_TOL, "Parseval upper"))
        for key, tol in (("reconstruction", RECON_TOL),
                         ("dual-reconstruction", RECON_TOL),
                         ("parseval", PARSEVAL_TOL)):
            worst = max(worst, _ratio(tight_report.residuals[key], tol, key))

        _require(to_dual.relation == "equivalent",
                 f"frame vs its dual: {to_dual.relation!r}, expected 'equivalent'")
        chi_d = synthesis(frame_components(dual))
        chi_l = embed(to_dual.intertwiner.components)
        worst = max(worst, _ratio(
            np.linalg.norm(chi_l @ chi_f - chi_d, 2) / np.linalg.norm(chi_d, 2),
            EQUIV_TOL, "intertwiner onto the dual"))

        _require(to_other.relation == "none",
                 f"independent frames: {to_other.relation!r}, expected 'none'")
        _require(to_other.witness is not None, "'none' verdict without a witness")
        w = to_other.witness.components
        w_chi = embed(w[:, None, :])[:, :1]
        kernel_rtol = qframes.frame_ops.KERNEL_RTOL
        chi_g = synthesis(item["g"])
        worst = max(worst, _ratio(
            np.linalg.norm(chi_f @ w_chi) / (np.linalg.norm(w) * item["norm_f"]),
            kernel_rtol, "witness in ker T_F"))
        _require(np.linalg.norm(chi_g @ w_chi)
                 > kernel_rtol * np.linalg.norm(w) * np.linalg.norm(chi_g, 2),
                 "witness is annihilated by T_G")

        _require(not image.is_frame and image_report.status == "rank-deficient",
                 "image under a rank-deficient operator reported as a frame")
        chi_img = synthesis(frame_components(image))
        chi_low = embed(item["low"])
        worst = max(worst, _ratio(
            np.linalg.norm(chi_img - chi_low @ chi_f)
            / (np.linalg.norm(chi_low, 2) * np.linalg.norm(chi_f)),
            IMAGE_TOL, "image vectors L u_i"))

        chi_b = embed(item["basis"])
        chi_c = synthesis(frame_components(compressed))
        worst = max(worst, _ratio(
            np.linalg.norm(chi_c - chi_b.conj().T @ chi_f) / np.linalg.norm(chi_f),
            IMAGE_TOL, "compressed vectors B* u_i"))
        lower, upper = bounds_of(chi_c)
        worst = max(worst,
                    _ratio(rel_gap(bounds.lower, lower), BOUND_TOL, "compressed lower"),
                    _ratio(rel_gap(bounds.upper, upper), BOUND_TOL, "compressed upper"))
        env_lower, env_upper = item["bounds_f"]
        _require(env_lower <= bounds.lower * (1 + ENVELOPE_SLACK)
                 and bounds.upper <= env_upper * (1 + ENVELOPE_SLACK),
                 "compressed bounds leave the inherited envelope")
        return worst


class CliIo(Workload):
    """One ``qframes.cli dual --json`` subprocess on a dim-8, 512-vector file."""

    name = "cli-io"
    dim, count = 8, 512
    pool_size = 4
    in_process = False

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 2])
        self.env = child_env()
        self.workdir = workdir
        self.pool = []
        for k in range(self.pool_size):
            arr = _gaussian(rng, self.count, self.dim)
            path = os.path.join(workdir, f"frame{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"dim": self.dim, "vectors": arr.tolist()},
                                    indent=2) + "\n")
            chi_f = synthesis(arr)
            self.pool.append((path, chi_f, bounds_of(chi_f)))

    def command(self, i: int, spans_path: str | None = None) -> list[str]:
        args = ["dual", self.pool[i % self.pool_size][0], "--json"]
        if spans_path is None:
            return [sys.executable, "-m", "qframes.cli", *args]
        return [sys.executable, os.path.join(HERE, "tracing.py"), spans_path, *args]

    def job(self, i: int, spans_path: str | None = None):
        return subprocess.run(self.command(i, spans_path), cwd=self.workdir,
                              env=self.env, capture_output=True, text=True)

    def verify(self, i: int, out) -> float:
        _, chi_f, (lower, upper) = self.pool[i % self.pool_size]
        _require(out.returncode == 0,
                 f"exit {out.returncode}: {out.stderr.strip()[-300:]}")
        payload = json.loads(out.stdout)
        frame = payload["frame"]
        _require((payload["dim"], payload["count"], frame["dim"], len(frame["vectors"]))
                 == (self.dim, self.count, self.dim, self.count),
                 "dual frame has the wrong shape")
        worst = max(_ratio(payload["residuals"]["bound-reciprocity"],
                           CLI_RECON_TOL, "reported bound reciprocity"),
                    _ratio(payload["residuals"]["dual-round-trip"],
                           CLI_RECON_TOL, "reported dual round trip"))
        b = payload["bounds"]
        worst = max(worst,
                    _ratio(abs(b["lower"] - 1.0 / upper) * upper, RECIPROCITY_TOL,
                           "dual lower bound is 1/B"),
                    _ratio(abs(b["upper"] - 1.0 / lower) * lower, RECIPROCITY_TOL,
                           "dual upper bound is 1/A"))
        chi_d = synthesis(np.asarray(frame["vectors"], dtype=float))
        worst = max(worst, _ratio(identity_drift(chi_f @ chi_d.conj().T),
                                  CLI_RECON_TOL, "dual reconstruction T D*"))
        return worst


class CheckSuite(Workload):
    """``run_checks`` at the default sizes: many tiny problems (n <= 4)."""

    name = "check-suite"
    pool_size = 8

    def setup(self, seed: int, workdir: str) -> None:
        self.seeds = [seed + k for k in range(self.pool_size)]

    def job(self, i: int):
        return qframes.checks.run_checks(seed=self.seeds[i % self.pool_size])

    def verify(self, i: int, out) -> float:
        failing = [c["name"] for c in out["checks"] if not c["passed"]]
        _require(out["passed"] and not failing, f"checks failed: {failing}")
        _require(len(out["checks"]) == len(qframes.checks.CHECKS),
                 "the suite skipped checks")
        return max(_ratio(c["max_residual"], CHECK_TOL[c["name"]], c["name"])
                   for c in out["checks"])


WORKLOADS = {w.name: w for w in (CalcGeneric, OpsDegenerate, CliIo, CheckSuite)}
