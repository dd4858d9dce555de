"""Two-qubit state tomography in the time-bin encoding.

Sixteen projective settings (per qubit: early, late, and two superposition
phases) are simulated as Poisson coincidence counts and inverted either
linearly or through a positivity-enforcing maximum-likelihood fit of a
Cholesky-parameterized density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .linalg import dag, eig_hermitian, hermitian_basis

_KET_E = np.array([1.0, 0.0], dtype=complex)
_KET_L = np.array([0.0, 1.0], dtype=complex)

# MLE stopping rule (relative log-likelihood improvement), L-BFGS-B cap.
_MLE_FTOL = 1e-10
_MLE_MAX_ITER = 2000


@dataclass(frozen=True)
class Projector:
    """Single-qubit analysis projector: E, L, or S(phase).

    S(phase) projects onto (|e> + e^{i phase} |l>) / sqrt(2).
    """

    kind: str
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("E", "L", "S"):
            raise ValueError(f"unknown projector kind {self.kind!r}")

    def ket(self) -> np.ndarray:
        if self.kind == "E":
            return _KET_E.copy()
        if self.kind == "L":
            return _KET_L.copy()
        return (_KET_E + np.exp(1j * self.phase) * _KET_L) / np.sqrt(2.0)

    def matrix(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())

    def label(self) -> str:
        return self.kind if self.kind != "S" else f"S{self.phase:.6f}"

    @staticmethod
    def from_label(label: str) -> "Projector":
        if label in ("E", "L"):
            return Projector(label)
        if label.startswith("S"):
            return Projector("S", float(label[1:]))
        raise ValueError(f"cannot parse projector label {label!r}")


@dataclass(frozen=True)
class MeasurementSetting:
    """Joint setting: one projector on the XX qubit, one on the X qubit."""

    xx: Projector
    x: Projector

    def operator(self) -> np.ndarray:
        return np.kron(self.xx.matrix(), self.x.matrix())


def standard_settings() -> list[MeasurementSetting]:
    """The 4 x 4 product of per-qubit projectors {E, L, S(0), S(pi/2)}.

    One time basis and two energy bases per qubit; the joint set spans the
    full 16-dimensional operator space.
    """
    per_qubit = [Projector("E"), Projector("L"),
                 Projector("S", 0.0), Projector("S", np.pi / 2.0)]
    return [MeasurementSetting(a, b) for a in per_qubit for b in per_qubit]


@dataclass
class TomographyDataset:
    settings: list[MeasurementSetting]
    counts: np.ndarray
    total_per_setting: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if len(self.counts) != len(self.settings):
            raise ValueError("counts and settings lengths differ")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")


def _setting_operators(settings: list[MeasurementSetting]) -> np.ndarray:
    """The joint projector of each setting, shape (len(settings), 4, 4).

    Each is the rank-1 projector onto the joint ket |xx> (x) |x>, built for
    all settings at once; equal to stacking ``MeasurementSetting.operator``.
    """
    kets = np.array([[s.xx.ket(), s.x.ket()] for s in settings]).reshape(
        len(settings), 2, 2)
    joint = np.einsum("ki,kj->kij", kets[:, 0], kets[:, 1]).reshape(-1, 4)
    return np.einsum("ki,kj->kij", joint, joint.conj())


def expected_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_mean: float) -> np.ndarray:
    """Noise-free expected coincidences n_mean * tr(rho P) per setting."""
    ops = _setting_operators(settings)
    return n_mean * np.einsum("ij,kji->k", rho, ops).real


def simulate_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_mean: float, seed: int) -> TomographyDataset:
    """Poisson coincidence counts for each setting, deterministic per seed."""
    if n_mean <= 0:
        raise ValueError("n_mean must be positive")
    mu = np.clip(expected_counts(rho, settings, n_mean), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mu).astype(float)
    return TomographyDataset(settings=list(settings), counts=counts,
                             total_per_setting=float(n_mean))


def _estimate_norm(data: TomographyDataset) -> float:
    """Counts-based estimate of the per-setting normalization.

    The four time-basis settings (E/L on both qubits) partition unity, so
    their count sum estimates the Poisson mean scale.
    """
    idx = [i for i, s in enumerate(data.settings)
           if s.xx.kind in ("E", "L") and s.x.kind in ("E", "L")]
    if len(idx) != 4:
        raise ValueError(
            "normalization needs exactly the four time-basis settings; "
            f"found {len(idx)}")
    total = float(np.sum(data.counts[idx]))
    if total <= 0:
        raise ValueError("degenerate dataset: time-basis counts sum to zero")
    return total


@dataclass
class LinearReconstruction:
    rho: np.ndarray
    physical: bool
    min_eigenvalue: float


def reconstruct_linear(data: TomographyDataset) -> LinearReconstruction:
    """Invert the 16 linear equations tr(P_k rho) = counts_k / n_hat.

    The output is Hermitian with unit trace but may carry negative
    eigenvalues at finite counts; ``physical`` flags whether it is PSD
    within 1e-9.
    """
    n_hat = _estimate_norm(data)
    probs = data.counts / n_hat
    basis = hermitian_basis(4)
    ops = _setting_operators(data.settings)
    design = np.einsum("kij,bji->kb", ops, basis).real
    if np.linalg.matrix_rank(design, tol=1e-10) < 16:
        raise ValueError("singular design matrix: settings are not "
                         "informationally complete")
    coeff = np.linalg.solve(design, probs)
    rho = sum(c * b for c, b in zip(coeff, basis))
    rho = 0.5 * (rho + dag(rho))
    rho = rho / np.trace(rho).real
    w, _ = eig_hermitian(rho, herm_tol=1e-8)
    return LinearReconstruction(rho=rho, physical=bool(w[-1] >= -1e-9),
                                min_eigenvalue=float(w[-1]))


# --- maximum likelihood -------------------------------------------------------

# parameter layout: 4 real diagonals then (re, im) pairs for the strictly
# lower triangle of T, row-major
_LOWER = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[np.arange(4), np.arange(4)] = t[:4]
    for k, (i, j) in enumerate(_LOWER):
        m[i, j] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return m


def _params_from_t(m: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = np.real(np.diag(m))
    for k, (i, j) in enumerate(_LOWER):
        t[4 + 2 * k] = m[i, j].real
        t[5 + 2 * k] = m[i, j].imag
    return t


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    m = _t_from_params(t)
    g = dag(m) @ m
    return g / np.trace(g).real


@dataclass
class MleResult:
    rho: np.ndarray
    converged: bool
    n_iter: int
    log_likelihood: float


def _poisson_nll_and_grad(t: np.ndarray, ops: np.ndarray,
                          counts: np.ndarray, n_hat: float):
    """Poisson deviance of the Cholesky parameters, with its analytic
    gradient (chain rule through dG = dT^dag T + T^dag dT).

    The deviance is the negative log-likelihood shifted by the saturated
    model's value, so it is ~0 at a perfect fit; that keeps the optimizer's
    relative-improvement stopping rule meaningful.  It is summed term by
    term, (mu - c) + c log(c / mu) >= 0, rather than as the difference of
    two sums of order counts * log(counts), which would cancel to roundoff
    near the optimum.  The shift is constant in t, so the gradient is that
    of the log-likelihood itself.
    """
    m = _t_from_params(t)
    g = dag(m) @ m
    s = np.trace(g).real
    q = np.einsum("kij,ji->k", ops, g).real
    mu = np.clip(n_hat * q / s, 1e-12, None)
    seen = counts > 0
    nll = float(np.sum(mu - counts)
                + np.sum(counts[seen] * np.log(counts[seen] / mu[seen])))
    coeff = (1.0 - counts / mu) * (n_hat / s)
    w = np.einsum("k,kij->ij", coeff, ops)
    w = w - np.eye(4) * np.sum(coeff * q) / s
    wt = w @ dag(m)  # tr(W T^dag dT) = (W T^dag)_{ba} for dT = E_ab
    grad = np.zeros(16)
    grad[:4] = 2.0 * np.real(np.diag(wt))
    for k, (i, j) in enumerate(_LOWER):
        grad[4 + 2 * k] = 2.0 * wt[j, i].real
        grad[5 + 2 * k] = -2.0 * wt[j, i].imag
    return nll, grad


def reconstruct_mle(data: TomographyDataset) -> MleResult:
    """Maximum-likelihood density matrix from Poisson counts.

    rho = T^dag T / tr(T^dag T) with lower-triangular T (16 real
    parameters), maximizing the Poisson log-likelihood; deterministic
    L-BFGS-B ascent starting from the PSD-projected linear inversion.
    Convergence is declared at relative log-likelihood improvement below
    ``_MLE_FTOL``; non-convergence at the iteration cap is reported through
    ``converged`` with the best iterate retained.
    """
    if float(np.sum(data.counts)) <= 0:
        raise ValueError("degenerate dataset: all counts are zero, "
                         "likelihood is flat")
    n_hat = _estimate_norm(data)
    ops = _setting_operators(data.settings)
    counts = data.counts

    def nll_and_grad(t: np.ndarray):
        return _poisson_nll_and_grad(t, ops, counts, n_hat)

    linear = reconstruct_linear(data)
    w, v = eig_hermitian(linear.rho, herm_tol=1e-8)
    w = np.clip(w, 0.0, None)
    rho0 = (v * w) @ dag(v)
    rho0 = rho0 / np.trace(rho0).real
    # minute mixing keeps the Cholesky factorization of rank-deficient
    # starts well posed without displacing the optimum noticeably
    rho0 = (1 - 1e-12) * rho0 + 1e-12 * np.eye(4) / 4.0
    # lower-triangular T with T^dag T = rho0, via Cholesky of the
    # index-reversed matrix
    m_rev = np.linalg.cholesky(rho0[::-1, ::-1])
    t0 = _params_from_t(dag(m_rev)[::-1, ::-1])

    nll0, _ = nll_and_grad(t0)
    best_t, best_nll = t0, nll0
    success, n_iter = False, 0
    t_start, f_before = t0, nll0
    improvement = np.inf
    for _ in range(3):  # restart if the line search stalls on the PSD boundary
        res = minimize(nll_and_grad, t_start, jac=True, method="L-BFGS-B",
                       options={"ftol": _MLE_FTOL, "gtol": 1e-12,
                                "maxiter": _MLE_MAX_ITER,
                                "maxfun": 10 * _MLE_MAX_ITER})
        n_iter += int(res.nit)
        improvement = f_before - float(res.fun)
        if res.fun < best_nll:
            best_t, best_nll = res.x, float(res.fun)
        success = bool(res.success)
        if success or res.nit == 0:
            break
        t_start, f_before = res.x, float(res.fun)
    # a stall with no measurable improvement satisfies the relative
    # log-likelihood stopping rule even when the line search aborts
    converged = success or improvement <= _MLE_FTOL * max(1.0, abs(best_nll))
    rho = _rho_from_params(best_t)
    mu = np.clip(n_hat * np.einsum("kij,ji->k", ops, rho).real, 1e-12, None)
    log_lik = float(np.sum(counts * np.log(mu) - mu))
    return MleResult(rho=rho, converged=converged, n_iter=n_iter,
                     log_likelihood=log_lik)


# --- dataset file ------------------------------------------------------------

def save_dataset(data: TomographyDataset, path) -> None:
    """Plain-text table: setting id, projector labels, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n_mean = {data.total_per_setting:.12e}\n")
        fh.write("# id xx_projector x_projector counts\n")
        for i, (s, c) in enumerate(zip(data.settings, data.counts)):
            fh.write(f"{i} {s.xx.label()} {s.x.label()} {c:.12g}\n")


def load_dataset(path) -> TomographyDataset:
    settings, counts, n_mean = [], [], 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# n_mean"):
                n_mean = float(line.split("=")[1])
                continue
            if not line or line.startswith("#"):
                continue
            _, xx, x, c = line.split()
            settings.append(MeasurementSetting(Projector.from_label(xx),
                                               Projector.from_label(x)))
            counts.append(float(c))
    return TomographyDataset(settings=settings, counts=np.array(counts),
                             total_per_setting=n_mean)
