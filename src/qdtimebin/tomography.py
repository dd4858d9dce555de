"""Two-qubit state tomography in the time-bin encoding.

Sixteen projective settings (per qubit: early, late, and two superposition
phases) are simulated as Poisson coincidence counts and inverted either
linearly or through a positivity-enforcing maximum-likelihood fit of
rho = T^dag T / tr(T^dag T) over a full complex 4 x 4 factor T.
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

@dataclass
class MleResult:
    rho: np.ndarray
    converged: bool
    n_iter: int
    log_likelihood: float
    deviance: float  # the optimizer's final objective, ~0 at a perfect fit


def _t_from_params(t: np.ndarray) -> np.ndarray:
    """The full complex 4 x 4 factor T = t[:16] + 1j t[16:], row-major."""
    return (t[:16] + 1j * t[16:]).reshape(4, 4)


def _poisson_nll_and_grad(t: np.ndarray, ops: np.ndarray,
                          counts: np.ndarray, n_hat: float):
    """Poisson deviance of rho = T^dag T / tr(T^dag T), with its analytic
    gradient in the 32 real parameters of T.

    The deviance is the negative log-likelihood shifted by the saturated
    model's value, so it is ~0 at a perfect fit; that keeps the optimizer's
    relative-improvement stopping rule meaningful.  Each term,
    (mu - c) + c log(c / mu), is summed as c (d - log1p(d)) with
    d = (mu - c) / c, or as mu where c = 0: neither can round below zero,
    and neither cancels to roundoff near the optimum.  The shift is
    constant in t, so the gradient is that of the log-likelihood itself:
    with W = d(nll)/dG (Hermitian) at G = T^dag T,
    d(nll) = 2 Re tr(W T^dag dT), so the gradient in Re T and Im T is the
    real and imaginary part of 2 T W.
    """
    m = _t_from_params(t)
    g = dag(m) @ m
    s = np.trace(g).real
    q = np.einsum("kij,ji->k", ops, g).real
    mu = np.clip(n_hat * q / s, 1e-12, None)
    seen = counts > 0
    d = (mu[seen] - counts[seen]) / counts[seen]
    nll = float(np.sum(counts[seen] * (d - np.log1p(d)))
                + np.sum(mu[~seen]))
    coeff = (1.0 - counts / mu) * (n_hat / s)
    w = np.einsum("k,kij->ij", coeff, ops)
    w = w - np.eye(4) * np.sum(coeff * q) / s
    grad = 2.0 * m @ w
    return nll, np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def reconstruct_mle(data: TomographyDataset) -> MleResult:
    """Maximum-likelihood density matrix from Poisson counts.

    rho = T^dag T / tr(T^dag T) with a full complex 4 x 4 T (32 real
    parameters), maximizing the Poisson log-likelihood with one
    deterministic L-BFGS-B run from the PSD-projected linear inversion.
    A square factor leaves the factored problem without spurious local
    minima (Burer and Monteiro, Math. Program. 103, 427 (2005)).
    Convergence is declared at relative log-likelihood improvement below
    ``_MLE_FTOL``, or when the line search stalls with no measurable
    improvement; otherwise ``converged`` is false.
    """
    if float(np.sum(data.counts)) <= 0:
        raise ValueError("degenerate dataset: all counts are zero, "
                         "likelihood is flat")
    n_hat = _estimate_norm(data)
    ops = _setting_operators(data.settings)
    counts = data.counts

    def nll_and_grad(t: np.ndarray):
        return _poisson_nll_and_grad(t, ops, counts, n_hat)

    w, v = eig_hermitian(reconstruct_linear(data).rho, herm_tol=1e-8)
    w = np.clip(w, 0.0, None)
    # A zero eigenvalue gives a zero row of T, where the gradient (2 T W)
    # vanishes too, so L-BFGS-B could not grow that direction again.  Mixing
    # 1e-8 of the identity (rows of norm 5e-5) lets it grow within the
    # stopping rule; at 1e-12 some low-count fits stall on a rank-2 face.
    w = (1 - 1e-8) * w / np.sum(w) + 1e-8 / 4.0
    t0 = (np.sqrt(w)[:, None] * dag(v)).ravel()
    t0 = np.concatenate([t0.real, t0.imag])

    res = minimize(nll_and_grad, t0, jac=True, method="L-BFGS-B",
                   options={"ftol": _MLE_FTOL, "gtol": 1e-12,
                            "maxiter": _MLE_MAX_ITER,
                            "maxfun": 10 * _MLE_MAX_ITER})
    deviance = float(res.fun)
    # a stall with no measurable improvement satisfies the relative
    # log-likelihood stopping rule even when the line search aborts
    improvement = nll_and_grad(t0)[0] - deviance
    converged = bool(res.success) or (
        improvement <= _MLE_FTOL * max(1.0, abs(deviance)))
    m = _t_from_params(res.x)
    g = dag(m) @ m
    rho = g / np.trace(g).real
    mu = np.clip(n_hat * np.einsum("kij,ji->k", ops, rho).real, 1e-12, None)
    log_lik = float(np.sum(counts * np.log(mu) - mu))
    return MleResult(rho=rho, converged=converged, n_iter=int(res.nit),
                     log_likelihood=log_lik, deviance=deviance)


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
