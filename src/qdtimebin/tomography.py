"""Two-qubit state tomography in the time-bin encoding.

A setting projects onto one joint ket |k> = |xx> (x) |x>, so the settings
are held as the (n, 4) matrix of their kets and a count enters only through
<k|rho|k>.  Poisson counts of the standard sixteen (per qubit: early, late,
two superposition phases) are inverted by least squares, or fitted by
maximum likelihood over the density matrices: an accelerated projected
gradient in rho that fits the datasets of one settings list as one stack,
each stopping on its own (``reconstruct_mle_many``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import check_field
from .linalg import eig_hermitian

# MLE stopping rule: a step without momentum that lowers a fit's deviance by
# at most this fraction of max(deviance, 1) ends the fit.  Cap on its
# iterations.
_MLE_REL_DECREASE = 1e-12
_MLE_MAX_ITER = 2000
# Factor on a fit's curvature estimate after each accepted step, so that
# its steps grow again after a backtrack.  Measured at ~500 counts (240
# fits in stacks of 40): 144 passes per stack at 0.9, 164 at 0.8, 198 at
# 0.6.
_MLE_L_SHRINK = 0.9
# Largest optimality gap of a converged fit: 1,400 fits at ~500 and 1e5
# counts end below 2.2e-4.
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
        check_field("phase", self.phase, np.isfinite, "finite")

    def ket(self) -> np.ndarray:
        if self.kind == "S":
            return np.array([1.0, np.exp(1j * self.phase)]) / np.sqrt(2.0)
        return np.array([1.0, 0.0] if self.kind == "E" else [0.0, 1.0],
                        dtype=complex)

    def label(self) -> str:
        """E, L, or S followed by the phase; ``from_label`` reads back the
        same phase exactly."""
        return self.kind if self.kind != "S" else f"S{float(self.phase)!r}"

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


def expected_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_mean: float) -> np.ndarray:
    """Noise-free expected coincidences n_mean * <k|rho|k> per setting."""
    return n_mean * (_design(_setting_kets(settings)) @ rho.ravel()).real


def simulate_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_mean: float, seed: int | Sequence[int]
                    ) -> TomographyDataset | list[TomographyDataset]:
    """Poisson coincidence counts for each setting, deterministic per seed.

    ``seed`` is one seed, which gives one dataset, or a sequence of seeds,
    which gives one dataset per seed, each the one its seed gives alone:
    every draw is ``np.random.default_rng(seed).poisson`` of one expected
    count vector.
    """
    if n_mean <= 0:
        raise ValueError("n_mean must be positive")
    mu = np.clip(expected_counts(rho, settings, n_mean), 0.0, None)
    many = np.ndim(seed) > 0
    datasets = [TomographyDataset(
        settings=list(settings),
        counts=np.random.default_rng(s).poisson(mu).astype(float),
        total_per_setting=float(n_mean))
        for s in (seed if many else [seed])]
    return datasets if many else datasets[0]


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


def _design(kets: np.ndarray) -> np.ndarray:
    """The (n, 16) rows conj(k_i) k_j: row k applied to rho, raveled
    row-major, is <k|rho|k>."""
    return (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 16)


def _invert_linear(rows: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Solve rows @ vec(rho_s) = freqs[s] for every s by one least-squares
    solve with len(freqs) right-hand sides; the (S, 4, 4) Hermitian parts,
    each of unit trace."""
    vec, _, rank, _ = np.linalg.lstsq(rows, freqs.T, rcond=1e-10)
    if rank < 16:
        raise ValueError("singular design matrix: settings are not "
                         "informationally complete")
    rho = vec.T.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    # the real diagonal is summed: a complex trace of a stack can round
    # differently from that of one of its matrices alone
    return rho / np.diagonal(rho, axis1=1, axis2=2).real.sum(axis=1)[:, None, None]


def reconstruct_linear(data: TomographyDataset) -> LinearReconstruction:
    """Solve <k|rho|k> = sum_ij conj(k_i) k_j rho_ij = counts_k / n_hat,
    one equation per setting, for the 16 entries of rho by least squares.

    The design must have rank 16.  The output is Hermitian with unit trace
    but may carry negative eigenvalues at finite counts; ``physical`` flags
    whether it is PSD within 1e-9.
    """
    rows = _design(_setting_kets(data.settings))
    rho = _invert_linear(rows, data.counts[None] / _estimate_norm(data))[0]
    w, _ = eig_hermitian(rho, herm_tol=1e-8)
    return LinearReconstruction(rho=rho, physical=bool(w[-1] >= -1e-9),
                                min_eigenvalue=float(w[-1]))


# --- maximum likelihood -------------------------------------------------------

@dataclass
class MleResult:
    rho: np.ndarray
    converged: bool
    n_iter: int  # accelerated projected-gradient iterations
    log_likelihood: float
    deviance: float  # Poisson deviance of rho, ~0 at a perfect fit


def _project_states(y: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm to each Hermitian matrix of
    the (S, 4, 4) stack ``y``: its eigenvalues projected onto the
    probability simplex, in its eigenbasis."""
    w, v = np.linalg.eigh(y)
    u = w[:, ::-1]
    excess = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, 5)
    rank = np.sum(u > excess, axis=1)
    shift = np.take_along_axis(excess, rank[:, None] - 1, axis=1)
    w = np.maximum(w - shift, 0.0)
    return (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _deviance(mu: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Poisson deviance of each row of the mean counts ``mu``:
    sum_k (mu_k - c_k) + c_k log(c_k / mu_k).

    Each term is summed as c (d - log1p(d)) with d = (mu - c) / c, or as mu
    where c = 0: neither can round below zero, and neither cancels to
    roundoff near the optimum.  It is +inf where mu_k <= 0 on a setting with
    c_k > 0.
    """
    seen = counts > 0
    d = np.divide(mu - counts, counts, out=np.zeros_like(mu), where=seen)
    log = np.log1p(d, out=np.full_like(mu, -np.inf), where=d > -1.0)
    return np.sum(np.where(seen, counts * (d - log), mu), axis=1)


def _gradient(mu: np.ndarray, counts: np.ndarray, n_hat: np.ndarray,
              projectors: np.ndarray) -> np.ndarray:
    """Gradient in rho of each row's deviance (``_deviance``),
    G = n_hat sum_k (1 - c_k / mu_k) |k><k|, shape (S, 4, 4); row k of
    ``projectors`` is |k><k| raveled row-major, and ``mu`` must be positive
    where c_k > 0.  The product is taken per row, as (1, n) @ (n, 16), so
    that a row's rounding does not depend on how many rows there are."""
    ratio = np.divide(counts, mu, out=np.zeros_like(mu), where=counts > 0)
    weights = n_hat[:, None] * (1.0 - ratio)
    return (weights[:, None] @ projectors).reshape(-1, 4, 4)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) of each pair of Hermitian matrices in two (S, 4, 4) stacks."""
    return np.sum(a.conj() * b, axis=(1, 2)).real


def reconstruct_mle_many(datasets: list[TomographyDataset]) -> list[MleResult]:
    """Maximum-likelihood density matrices of datasets that share one
    settings list, fitted as one stack; ValueError if the lists differ.

    Setting k, with joint ket |k>, has the mean count mu_k = n_hat <k|rho|k>
    (n_hat from ``_estimate_norm``).  The Poisson deviance D (``_deviance``)
    is convex in rho, with gradient G = n_hat sum_k (1 - c_k / mu_k) |k><k|.
    Each fit is an accelerated projected gradient in rho over the density
    matrices (Shang, Zhang and Ng, PRA 95, 062336 (2017)):

    - Start: the linear inversion of every dataset, one least-squares
      solve with a right-hand side per dataset, projected onto the density
      matrices and mixed with 1e-8 of I/4, so that mu_k > 0 everywhere.
    - Iteration: a Nesterov extrapolation from the last two iterates, a
      step along -G / L from there, and the projection of the result: one
      batched eigendecomposition, with the eigenvalues projected onto the
      probability simplex.  Projection reaches faces of lower rank exactly.
    - Step: each fit keeps its own curvature estimate L.  A step above the
      quadratic bound D(base) + tr(G d) + L |d|^2 / 2 doubles L and is taken
      again; an accepted step shrinks L by ``_MLE_L_SHRINK``.
    - Restart: the momentum restarts when the extrapolated point has
      mu_k <= 0 on a setting with counts (the step is taken from the last
      iterate), and when an accepted step lowers D by at most
      ``_MLE_REL_DECREASE`` of max(D, 1); a step that raises D is discarded.
    - Stop: a fit leaves the stack when such a small decrease (or a rise)
      comes from a step without momentum, or after ``_MLE_MAX_ITER``
      iterations.  ``n_iter`` counts its accepted steps, discarded rises
      included, and not the retries after a backtrack.

    No state lies more than the optimality gap tr(G rho) - lambda_min(G)
    below the fit; it is ``converged`` when that gap is within
    ``_MLE_GAP_TOL``.  Every product is taken per fit, so each result is
    the one its dataset gets alone.
    """
    if not datasets:
        raise ValueError("no datasets to reconstruct")
    settings = datasets[0].settings
    if any(d.settings != settings for d in datasets[1:]):
        raise ValueError("datasets of one reconstruction must share one "
                         "settings list")
    counts = np.array([d.counts for d in datasets])
    if np.any(np.sum(counts, axis=1) <= 0):
        raise ValueError("degenerate dataset: all counts are zero, "
                         "likelihood is flat")
    n_hat = np.array([_estimate_norm(d) for d in datasets])
    kets = _setting_kets(settings)
    rows = _design(kets)
    projectors = rows.conj()  # |k><k| raveled row-major

    # the product is taken per fit, as (1, 16) @ (16, n), so that a fit's
    # rounding, and with it its answer, does not depend on the stack
    def means(rho, scale):
        return scale[:, None] * (rho.reshape(-1, 1, 16) @ rows.T)[:, 0].real

    mix = 1e-8
    start = ((1.0 - mix) * _project_states(
        _invert_linear(rows, counts / n_hat[:, None])) + mix / 4.0 * np.eye(4))
    fitted, n_iter = np.empty_like(start), np.zeros(len(datasets), dtype=int)
    # the fits still running, one entry each: rho, the iterate before it
    # (the momentum), the mean counts and deviance of rho, the momentum
    # weight theta and the curvature estimate L
    fit = np.arange(len(datasets))
    c, scale, rho, prev = counts, n_hat, start, start.copy()
    mu = means(rho, scale)
    dev = _deviance(mu, c)
    theta, lip, iters = np.ones(len(fit)), n_hat.copy(), np.zeros(len(fit), int)
    while fit.size:
        # extrapolate, unless that leaves a setting with counts unexplained
        plain = theta == 1.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        base = rho + ((theta - 1.0) / theta_next)[:, None, None] * (rho - prev)
        mu_base = means(base, scale)
        lost = np.any((mu_base <= 0) & (c > 0), axis=1)
        base[lost], mu_base[lost], theta_next[lost] = rho[lost], mu[lost], 1.0
        plain |= lost
        grad = _gradient(mu_base, c, scale, projectors)
        step = _project_states(base - grad / lip[:, None, None])
        delta = step - base
        mu_step = means(step, scale)
        dev_step = _deviance(mu_step, c)
        # a step above the quadratic bound doubles L and is taken again
        ok = dev_step <= (
            _deviance(mu_base, c)
            + _inner(grad, delta) + 0.5 * lip * _inner(delta, delta))
        lip *= np.where(ok, _MLE_L_SHRINK, 2.0)
        iters += ok
        # a rise discards the step; a rise or a small decrease restarts the
        # momentum, and ends the fit if the step was taken without it
        small = ok & (dev - dev_step
                      <= _MLE_REL_DECREASE * np.maximum(dev, 1.0))
        theta[ok] = np.where(small[ok], 1.0, theta_next[ok])
        move = ok & (dev_step <= dev)
        done = small & plain
        prev[move], rho[move] = rho[move], step[move]
        mu[move], dev[move] = mu_step[move], dev_step[move]
        stop = done | (iters >= _MLE_MAX_ITER)
        if stop.any():
            fitted[fit[stop]], n_iter[fit[stop]] = rho[stop], iters[stop]
            fit, c, scale, rho, prev, mu, dev, theta, lip, iters = (
                a[~stop] for a in (fit, c, scale, rho, prev, mu, dev, theta,
                                   lip, iters))

    rho = 0.5 * (fitted + fitted.conj().transpose(0, 2, 1))
    mu = means(rho, n_hat)
    dev = _deviance(mu, counts)
    grad = _gradient(mu, counts, n_hat, projectors)
    gap = _inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]
    seen = counts > 0
    log_lik = np.sum(np.where(seen, counts * np.log(
        mu, out=np.zeros_like(mu), where=seen), 0.0) - mu, axis=1)
    return [MleResult(rho=rho[s], converged=bool(gap[s] <= _MLE_GAP_TOL),
                      n_iter=int(n_iter[s]), log_likelihood=float(log_lik[s]),
                      deviance=float(dev[s]))
            for s in range(len(datasets))]


def reconstruct_mle(data: TomographyDataset) -> MleResult:
    """Maximum-likelihood density matrix from Poisson counts: the
    accelerated projected gradient of ``reconstruct_mle_many`` on one
    dataset, which stops once a step without momentum lowers the deviance
    by at most 1e-12 of max(deviance, 1); ``n_iter`` counts its accepted
    steps."""
    return reconstruct_mle_many([data])[0]


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
