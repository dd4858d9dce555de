"""Two-qubit state tomography in the time-bin encoding.

A setting projects onto one joint ket |k> = |xx> (x) |x>, so the settings
are held as the (n, 4) matrix of their kets and a count enters only through
<k|rho|k>.  Poisson counts of the standard sixteen (per qubit: early, late,
two superposition phases) are inverted by one least-squares solve, or by a
positivity-enforcing maximum-likelihood fit of rho = T^dag T / tr(T^dag T)
over a full complex 4 x 4 factor T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import dag, eig_hermitian

# MLE stopping rule (relative log-likelihood improvement), L-BFGS-B cap.
_MLE_FTOL = 1e-10
_MLE_MAX_ITER = 2000
# Largest optimality gap of a converged fit: fits at 500 and 1e5 counts end
# below 3e-3, one stuck on a face of lower rank at 0.2 to 2.
_MLE_GAP_TOL = 1e-2


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
        if self.kind == "S":
            return np.array([1.0, np.exp(1j * self.phase)]) / np.sqrt(2.0)
        return np.array([1.0, 0.0] if self.kind == "E" else [0.0, 1.0],
                        dtype=complex)

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
        if not np.all(np.isfinite(self.counts) & (self.counts >= 0)):
            raise ValueError("counts must be finite and non-negative")


def _setting_kets(settings: list[MeasurementSetting]) -> np.ndarray:
    """The joint ket |k> = |xx> (x) |x> of each setting, shape
    (len(settings), 4); the setting's operator is |k><k|."""
    kets = np.array([[s.xx.ket(), s.x.ket()] for s in settings]).reshape(
        len(settings), 2, 2)
    return (kets[:, 0, :, None] * kets[:, 1, None, :]).reshape(-1, 4)


def _probabilities(kets: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<k|rho|k> for each row k of ``kets``."""
    return np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real


def expected_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_mean: float) -> np.ndarray:
    """Noise-free expected coincidences n_mean * <k|rho|k> per setting."""
    return n_mean * _probabilities(_setting_kets(settings), rho)


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
    """Solve <k|rho|k> = sum_ij conj(k_i) k_j rho_ij = counts_k / n_hat,
    one equation per setting, for the 16 entries of rho by least squares.

    The design must have rank 16.  The output is Hermitian with unit trace
    but may carry negative eigenvalues at finite counts; ``physical`` flags
    whether it is PSD within 1e-9.
    """
    n_hat = _estimate_norm(data)
    kets = _setting_kets(data.settings)
    rows = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 16)
    vec, _, rank, _ = np.linalg.lstsq(rows, data.counts / n_hat, rcond=1e-10)
    if rank < 16:
        raise ValueError("singular design matrix: settings are not "
                         "informationally complete")
    rho = vec.reshape(4, 4)
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
    n_iter: int  # L-BFGS-B iterations, of both runs after a restart
    log_likelihood: float
    deviance: float  # the optimizer's final objective, ~0 at a perfect fit


def _t_from_params(t: np.ndarray) -> np.ndarray:
    """The full complex 4 x 4 factor T = t[:16] + 1j t[16:], row-major."""
    return (t[:16] + 1j * t[16:]).reshape(4, 4)


def _poisson_nll_and_grad(t: np.ndarray, kets: np.ndarray,
                          counts: np.ndarray, n_hat: float):
    """Poisson deviance of rho = T^dag T / tr(T^dag T), with its analytic
    gradient in the 32 real parameters of T.  Setting k, a row of ``kets``,
    has the mean count mu_k = n_hat q_k / s, q_k = ||T k||^2, s = ||T||_F^2.

    The deviance is the negative log-likelihood shifted by the saturated
    model's value, so it is ~0 at a perfect fit; that keeps the optimizer's
    relative-improvement stopping rule meaningful.  Each term,
    (mu - c) + c log(c / mu), is summed as c (d - log1p(d)) with
    d = (mu - c) / c, or as mu where c = 0: neither can round below zero,
    and neither cancels to roundoff near the optimum.  The shift is
    constant in t, so the gradient is that of the log-likelihood itself:
    with coeff_k = (1 - c_k / mu_k) n_hat / s and K the 4 x n matrix of
    kets, W = d(nll)/dG = K diag(coeff) K^dag - I sum coeff q / s at
    G = T^dag T, d(nll) = 2 Re tr(W T^dag dT), and the gradient in Re T and
    Im T is the real and imaginary part of 2 T W.
    """
    m = _t_from_params(t)
    tk = m @ kets.T
    s = t @ t
    q = np.sum(tk.real ** 2 + tk.imag ** 2, axis=0)
    mu = np.clip(n_hat * q / s, 1e-12, None)
    seen = counts > 0
    d = (mu[seen] - counts[seen]) / counts[seen]
    nll = float(np.sum(counts[seen] * (d - np.log1p(d)))
                + np.sum(mu[~seen]))
    coeff = (1.0 - counts / mu) * (n_hat / s)
    grad = 2.0 * ((tk * coeff) @ kets.conj() - m * (np.sum(coeff * q) / s))
    return nll, np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def reconstruct_mle(data: TomographyDataset) -> MleResult:
    """Maximum-likelihood density matrix from Poisson counts.

    rho = T^dag T / tr(T^dag T) with a full complex 4 x 4 T (32 real
    parameters), maximizing the Poisson log-likelihood with a
    deterministic L-BFGS-B run from the PSD-projected linear inversion.
    A square factor leaves the factored problem without spurious local
    minima (Burer and Monteiro, Math. Program. 103, 427 (2005)).  A run
    stops at relative log-likelihood improvement below ``_MLE_FTOL``.  The
    deviance is convex in rho with gradient
    G = n_hat sum_k (1 - c_k / mu_k) |k><k|, so no state lies more than the
    optimality gap tr(G rho) - lambda_min(G) below the fit; it is
    ``converged`` when that gap is within ``_MLE_GAP_TOL``.
    """
    if float(np.sum(data.counts)) <= 0:
        raise ValueError("degenerate dataset: all counts are zero, "
                         "likelihood is flat")
    n_hat = _estimate_norm(data)
    kets = _setting_kets(data.settings)
    counts = data.counts

    # T = diag(sqrt(w)) V^dag.  A zero eigenvalue gives a zero row of T,
    # where the gradient (2 T W) vanishes too.  Mixing 1e-8 of I/4 (rows of
    # norm 5e-5) lets it grow within the stopping rule; a fit that stops on
    # a face of lower rank anyway is run once more, mixed 1e-2.
    rho, n_iter = reconstruct_linear(data).rho, 0
    for mix in (1e-8, 1e-2):
        w, v = eig_hermitian(rho, herm_tol=1e-8)
        w = np.clip(w, 0.0, None)
        w = (1 - mix) * w / np.sum(w) + mix / 4.0
        t0 = (np.sqrt(w)[:, None] * dag(v)).ravel()
        t0 = np.concatenate([t0.real, t0.imag])
        res = minimize(_poisson_nll_and_grad, t0, (kets, counts, n_hat),
                       jac=True, method="L-BFGS-B",
                       options={"ftol": _MLE_FTOL, "gtol": 1e-12,
                                "maxiter": _MLE_MAX_ITER,
                                "maxfun": 10 * _MLE_MAX_ITER})
        n_iter += res.nit
        m = _t_from_params(res.x)
        g = dag(m) @ m
        rho = g / np.trace(g).real
        mu = np.clip(n_hat * _probabilities(kets, rho), 1e-12, None)
        coeff = n_hat * (1.0 - counts / mu)
        gap = (coeff @ mu / n_hat
               - np.linalg.eigvalsh((kets.T * coeff) @ kets.conj())[0])
        if gap <= _MLE_GAP_TOL:
            break
    log_lik = float(np.sum(counts * np.log(mu) - mu))
    return MleResult(rho=rho, converged=bool(gap <= _MLE_GAP_TOL),
                     n_iter=int(n_iter), log_likelihood=log_lik,
                     deviance=float(res.fun))


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
            elif line and not line.startswith("#"):
                _, xx, x, c = line.split()
                settings.append(MeasurementSetting(Projector.from_label(xx),
                                                   Projector.from_label(x)))
                counts.append(float(c))
    return TomographyDataset(settings=settings, counts=np.array(counts),
                             total_per_setting=n_mean)
