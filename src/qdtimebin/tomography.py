"""Two-qubit state tomography in the time-bin encoding.

A setting projects onto one joint ket |k> = |xx> (x) |x>, so the settings
are held as the (n, 4) matrix of their kets and a count enters only through
<k|rho|k>.  Poisson counts of the standard sixteen (per qubit: early, late,
two superposition phases) are inverted by least squares, or fitted by
maximum likelihood over the density matrices (``reconstruct_mle_many``):
the datasets of one settings list are fitted as one stack, each by an
accelerated projected gradient in rho until its rank settles, then by
damped Newton steps on the face of that rank, and each stops on its own
once its optimality gap certifies it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import check_field
from .linalg import eig_hermitian

# MLE stopping rule: a fit stops once its certified optimality gap is at
# most this fraction of max(deviance, 1).  At ~500 counts (deviance ~10) the
# deviance cannot resolve a smaller gap.  Cap on its steps.
_MLE_TOL = 1e-7
# The gap is a difference of terms of G = n_hat sum_k (1 - c_k / mu_k)
# |k><k|, so it cannot be resolved below a few tens of eps n_hat: Newton
# fits at 1e5-1e15 counts reach 0.5-27 eps n_hat and no lower.  A gap within
# this multiple of n_hat certifies too; it binds above ~7e6 counts.
_MLE_GAP_ROUNDING = 64 * np.finfo(float).eps
_MLE_MAX_ITER = 2000
# Factor on a fit's curvature estimate after each accepted step, so that
# its steps grow again after a backtrack.  Measured at ~500 counts (240
# fits in stacks of 40): 144 passes per stack at 0.9, 164 at 0.8, 198 at
# 0.6.
_MLE_L_SHRINK = 0.9
# Projected-gradient steps that lower the deviance at one rank, after which
# a fit finishes with Newton steps on that rank's face.
_MLE_RANK_HOLD = 5
# Each term c_k (d - log1p(d)), d = (mu_k - c_k) / c_k, of the deviance
# rounds by ~eps |mu_k - c_k|: a Newton step that raises the deviance by at
# most this multiple of sum_k |mu_k - c_k| is not a rise.  Without it, steps
# near the optimum are judged by rounding, and at ~500 counts 1 fit in 40
# (perfbench tomo seed 303) fails its damping at a gap of 2.7e-7.
_MLE_DEV_ROUNDING = 4 * np.finfo(float).eps
# Levenberg-Marquardt damping of the Newton steps, relative to the largest
# diagonal entry of a fit's Hessian: its start, and the value past which
# the fit goes back to the projected gradient.
_MLE_DAMPING = (1e-3, 1e3)


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
    converged: bool  # the gap certifies the fit (reconstruct_mle_many)
    n_iter: int  # accepted projected-gradient steps plus accepted Newton steps
    log_likelihood: float
    deviance: float  # Poisson deviance of rho, ~0 at a perfect fit
    gap: float  # tr(G rho) - lambda_min(G), the most any state lowers D


def _project_states(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest density matrix in Frobenius norm to each Hermitian matrix of
    the (S, 4, 4) stack ``y``: its eigenvalues projected onto the
    probability simplex, in its eigenbasis; and the rank of each."""
    w, v = np.linalg.eigh(y)
    u = w[:, ::-1]
    excess = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, 5)
    rank = np.sum(u > excess, axis=1)
    shift = np.take_along_axis(excess, rank[:, None] - 1, axis=1)
    w = np.maximum(w - shift, 0.0)
    return (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1), rank


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


class _Likelihood:
    """The deviance of a stack of fits that share one settings list: one
    row of ``counts`` and one count scale of ``n_hat`` per fit.  Every
    product is taken per fit, so that a fit's rounding, and with it its
    answer, does not depend on the stack."""

    def __init__(self, kets: np.ndarray, counts: np.ndarray,
                 n_hat: np.ndarray):
        self.kets, self.counts, self.n_hat = kets, counts, n_hat
        self.rows = _design(kets)
        self.projectors = self.rows.conj()  # |k><k| raveled row-major

    def means(self, rho: np.ndarray, fits) -> np.ndarray:
        """mu_k = n_hat <k|rho|k> of each fit, as (1, 16) @ (16, n)."""
        return self.n_hat[fits, None] * (
            rho.reshape(-1, 1, 16) @ self.rows.T)[:, 0].real

    def deviance(self, mu: np.ndarray, fits) -> np.ndarray:
        return _deviance(mu, self.counts[fits])

    def gradient(self, mu: np.ndarray, fits) -> np.ndarray:
        return _gradient(mu, self.counts[fits], self.n_hat[fits],
                         self.projectors)

    def certified(self, rho, mu, dev, fits):
        """The gradient G at each rho, its optimality gap
        tr(G rho) - lambda_min(G), and whether the gap certifies: it is
        within ``_MLE_TOL`` * max(dev, 1), or within ``_MLE_GAP_ROUNDING``
        * n_hat, the rounding of the gap itself."""
        grad = self.gradient(mu, fits)
        gap = _inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]
        return grad, gap, gap <= np.maximum(
            _MLE_TOL * np.maximum(dev, 1.0),
            _MLE_GAP_ROUNDING * self.n_hat[fits])


def _apg(lik: _Likelihood, fits: np.ndarray, rho: np.ndarray,
         iters: np.ndarray):
    """Accelerated projected-gradient steps from each ``rho`` until its
    projected rank has held for ``_MLE_RANK_HOLD`` steps that lower D, or
    ``iters`` reaches ``_MLE_MAX_ITER``; see ``reconstruct_mle_many``.
    Returns the final (rho, iters) and, per fit, the rank of the face to
    finish on with Newton steps, or 0 for a fit that is done: its gap
    certifies, or it is out of steps."""
    out_rho, out_iters = rho.copy(), iters.copy()
    face = np.zeros(len(fits), dtype=int)
    # the fits still running, one entry each: rho, the iterate before it
    # (the momentum), the mean counts and deviance of rho, the momentum
    # weight theta, the curvature estimate L, and the projected rank of rho
    # and how many steps that lower D it has held
    at = np.arange(len(fits))
    prev, rho, iters = rho.copy(), rho.copy(), iters.copy()
    mu = lik.means(rho, fits)
    dev = lik.deviance(mu, fits)
    theta, lip = np.ones(len(fits)), lik.n_hat[fits].copy()
    rank, hold = np.zeros(len(fits), dtype=int), np.zeros(len(fits), int)
    while at.size:
        # extrapolate, unless that leaves a setting with counts unexplained
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        base = rho + ((theta - 1.0) / theta_next)[:, None, None] * (rho - prev)
        mu_base = lik.means(base, fits)
        lost = np.any((mu_base <= 0) & (lik.counts[fits] > 0), axis=1)
        base[lost], mu_base[lost], theta_next[lost] = rho[lost], mu[lost], 1.0
        grad = lik.gradient(mu_base, fits)
        step, step_rank = _project_states(base - grad / lip[:, None, None])
        delta = step - base
        mu_step = lik.means(step, fits)
        dev_step = lik.deviance(mu_step, fits)
        # a step above the quadratic bound doubles L and is taken again
        ok = dev_step <= (
            lik.deviance(mu_base, fits)
            + _inner(grad, delta) + 0.5 * lip * _inner(delta, delta))
        lip *= np.where(ok, _MLE_L_SHRINK, 2.0)
        iters += ok
        # a rise discards the step and restarts the momentum
        move = ok & (dev_step <= dev)
        theta[ok] = np.where(move[ok], theta_next[ok], 1.0)
        prev[move], rho[move] = rho[move], step[move]
        mu[move], dev[move] = mu_step[move], dev_step[move]
        hold[move] = np.where(step_rank[move] == rank[move], hold[move] + 1, 1)
        rank[move] = step_rank[move]
        # a fit whose rank has held goes on with Newton steps unless its
        # gap already certifies it
        held = hold >= _MLE_RANK_HOLD
        newton = held.copy()
        if held.any():
            newton[held] = ~lik.certified(rho[held], mu[held], dev[held],
                                          fits[held])[2]
        stop = held | (iters >= _MLE_MAX_ITER)
        if stop.any():
            out_rho[at[stop]], out_iters[at[stop]] = rho[stop], iters[stop]
            face[at[stop]] = np.where(newton[stop], rank[stop], 0)
            keep = ~stop
            at, fits, rho, prev, mu, dev, theta, lip, rank, hold, iters = (
                a[keep] for a in (at, fits, rho, prev, mu, dev, theta, lip,
                                  rank, hold, iters))
    return out_rho, out_iters, face


def _real(z: np.ndarray) -> np.ndarray:
    """Real coordinates of each complex array of a stack: its real parts,
    then its imaginary parts, raveled along the last axis."""
    z = z.reshape(*z.shape[:-2], -1)
    return np.concatenate((z.real, z.imag), axis=-1)


def _newton_system(lik: _Likelihood, fits, t, rho, mu, grad):
    """Gradient (S, 8r) and Hessian (S, 8r, 8r) of each fit's deviance in
    the real coordinates (``_real``) of its unit-norm (4, r) factor T,
    rho = T T^dag / |T|^2.

    With A = G - tr(G rho) I the gradient is 2 A T.  The deviance is
    sum_k phi_k(mu_k) with mu_k = n_hat |T^dag k|^2 / |T|^2, so the Hessian
    is J^T diag(c / mu^2) J, J_k = 2 (n_hat |k><k| T - mu_k T) the
    gradient of mu_k, plus the Hessian of the Rayleigh quotient
    tr(T^dag G T) / |T|^2 at fixed G: H -> 2 (A H - 2 T <A T, H>
    - 2 A T <T, H>), with the real inner product <X, Y> = Re tr(X^dag Y).
    """
    r = t.shape[2]
    a = grad - _inner(grad, rho)[:, None, None] * np.eye(4)
    at = a @ t
    tk = lik.kets.conj() @ t  # <k|T, (S, n, r)
    jac = lik.kets[:, :, None] * tk[:, :, None, :]  # |k><k|T, (S, n, 4, r)
    jac *= lik.n_hat[fits, None, None, None]
    jac -= mu[:, :, None, None] * t[:, None]
    jac = _real(2.0 * jac)
    c = lik.counts[fits]
    curv = np.divide(c, mu ** 2, out=np.zeros_like(mu), where=c > 0)
    hess = jac.transpose(0, 2, 1) @ (curv[:, :, None] * jac)
    # A H with H raveled row-major is kron(A, I_r) on the complex entries
    m = 4 * r
    left = np.einsum("sil,jk->sijlk", 2.0 * a, np.eye(r)).reshape(-1, m, m)
    hess[:, :m, :m] += left.real
    hess[:, m:, m:] += left.real
    hess[:, :m, m:] -= left.imag
    hess[:, m:, :m] += left.imag
    tv, av = _real(t), _real(at)
    outer = 4.0 * tv[:, :, None] * av[:, None, :]
    hess -= outer
    hess -= outer.transpose(0, 2, 1)
    return 2.0 * av, hess


def _newton(lik: _Likelihood, fits: np.ndarray, rho: np.ndarray,
            iters: np.ndarray, r: int):
    """Damped Newton steps on the rank-r face from each ``rho``, in a (4, r)
    factor T of its top r eigenpairs, until its gap certifies or it stalls;
    see ``reconstruct_mle_many``.  Returns the final (rho, iters) and
    whether each fit certified."""
    out_rho, out_iters = rho.copy(), iters.copy()
    certified = np.zeros(len(fits), dtype=bool)
    w, v = np.linalg.eigh(rho)
    t = v[:, :, 4 - r:] * np.sqrt(np.maximum(w[:, None, 4 - r:], 0.0))
    t /= np.linalg.norm(t, axis=(1, 2))[:, None, None]
    at = np.arange(len(fits))
    iters = iters.copy()
    rho = t @ t.conj().transpose(0, 2, 1)
    mu = lik.means(rho, fits)
    dev = lik.deviance(mu, fits)
    grad, gap, done = lik.certified(rho, mu, dev, fits)
    g, hess = _newton_system(lik, fits, t, rho, mu, grad)
    damp = np.full(len(fits), _MLE_DAMPING[0])
    gap_prev = np.full(len(fits), np.inf)
    eye = np.eye(8 * r)
    # a fit that already certifies takes no step
    stop = done.copy()
    while True:
        if stop.any():
            out_rho[at[stop]], out_iters[at[stop]] = rho[stop], iters[stop]
            certified[at[stop]] = done[stop]
            keep = ~stop
            at, fits, t, rho, mu, dev, gap, gap_prev, g, hess, damp, iters = (
                a[keep] for a in (at, fits, t, rho, mu, dev, gap, gap_prev, g,
                                  hess, damp, iters))
        if not at.size:
            return out_rho, out_iters, certified
        scale = np.max(np.diagonal(hess, axis1=1, axis2=2), axis=1)
        step = np.linalg.solve(
            hess + (damp * scale)[:, None, None] * eye, -g[:, :, None])[:, :, 0]
        t_new = t + (step[:, :4 * r] + 1j * step[:, 4 * r:]).reshape(-1, 4, r)
        t_new /= np.linalg.norm(t_new, axis=(1, 2))[:, None, None]
        rho_new = t_new @ t_new.conj().transpose(0, 2, 1)
        mu_new = lik.means(rho_new, fits)
        dev_new = lik.deviance(mu_new, fits)
        ok = dev_new <= dev + _MLE_DEV_ROUNDING * np.sum(
            np.abs(mu - lik.counts[fits]), axis=1)
        damp *= np.where(ok, 0.1, 10.0)
        iters += ok
        stop = ~ok & (damp > _MLE_DAMPING[1])
        done = np.zeros(len(at), dtype=bool)
        if ok.any():
            t[ok], rho[ok], mu[ok], dev[ok] = (
                t_new[ok], rho_new[ok], mu_new[ok], dev_new[ok])
            # a stall: the gap is not below the larger of the two before it
            gap_old = np.maximum(gap[ok], gap_prev[ok])
            gap_prev[ok] = gap[ok]
            grad, gap[ok], done[ok] = lik.certified(rho[ok], mu[ok], dev[ok],
                                                    fits[ok])
            stop[ok] = done[ok] | (gap[ok] >= gap_old)
            go = ~stop[ok]
            on = np.flatnonzero(ok)[go]
            if on.size:
                g[on], hess[on] = _newton_system(lik, fits[on], t[on],
                                                 rho[on], mu[on], grad[go])


def reconstruct_mle_many(datasets: list[TomographyDataset]) -> list[MleResult]:
    """Maximum-likelihood density matrices of datasets that share one
    settings list, fitted as one stack; ValueError if the lists differ.

    Setting k, with joint ket |k>, has the mean count mu_k = n_hat <k|rho|k>
    (n_hat from ``_estimate_norm``).  The Poisson deviance D (``_deviance``)
    is convex in rho, with gradient G = n_hat sum_k (1 - c_k / mu_k) |k><k|.
    No state lies more than the optimality gap tr(G rho) - lambda_min(G)
    below rho, and every fit stops once that certified gap is at most
    ``_MLE_TOL`` * max(D, 1), or within ``_MLE_GAP_ROUNDING`` * n_hat, its
    own rounding; it is then ``converged``.  Each fit starts
    with an accelerated projected gradient in rho over the density
    matrices (Shang, Zhang and Ng, PRA 95, 062336 (2017)) and finishes with
    Newton steps on the face of fixed rank its iterates reach (Absil,
    Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds,
    2008):

    - Start: the linear inversion of every dataset, one least-squares
      solve with a right-hand side per dataset, projected onto the density
      matrices; a projection of rank below 4 is mixed with 1e-8 of I/4, so
      that mu_k > 0 everywhere.  A start that certifies (at high counts the
      inversion is often physical, and then exact) takes no step.
    - Projected gradient: a Nesterov extrapolation from the last two
      iterates, a step along -G / L from there, and the projection of the
      result: one batched eigendecomposition, with the eigenvalues
      projected onto the probability simplex.  Projection reaches faces of
      lower rank exactly.  Each fit keeps its own curvature estimate L: a
      step above the quadratic bound D(base) + tr(G d) + L |d|^2 / 2
      doubles L and is taken again, and an accepted step shrinks L by
      ``_MLE_L_SHRINK``.  The momentum restarts when the extrapolated
      point has mu_k <= 0 on a setting with counts (the step is taken from
      the last iterate), and when an accepted step raises D, which
      discards it.
    - Newton: once the projected rank r has held for ``_MLE_RANK_HOLD``
      steps that lower D, a fit that does not certify takes damped Newton
      steps in a factor T of its top r eigenpairs, rho = T T^dag / |T|^2
      (``_newton_system``).  Each fit keeps its own Levenberg-Marquardt
      damping, relative to its Hessian's largest diagonal entry: x0.1
      after a step that does not raise D beyond its rounding
      (``_MLE_DEV_ROUNDING``), x10 after one that does, which is
      discarded.  The damping also handles the directions T -> T U and
      T -> a T, along which D is constant.  A fit goes back to the
      projected gradient from its Newton point when an accepted step
      leaves its gap no lower than the larger of its two gaps before (the
      rank is the wrong one), or when its damping passes
      ``_MLE_DAMPING[1]``.
    - Stop: on the certified gap, or after ``_MLE_MAX_ITER`` steps.
      ``n_iter`` counts the projected-gradient steps within the quadratic
      bound, a discarded rise included but not a retry after a backtrack,
      and the Newton steps that are not discarded.

    Every product is taken per fit and the Newton fits are grouped by r,
    so each result is the one its dataset gets alone.
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
    lik = _Likelihood(_setting_kets(settings), counts, n_hat)

    rho, rank = _project_states(
        _invert_linear(lik.rows, counts / n_hat[:, None]))
    mix = 1e-8
    rho[rank < 4] = (1.0 - mix) * rho[rank < 4] + mix / 4.0 * np.eye(4)
    n_iter = np.zeros(len(datasets), dtype=int)
    every = np.arange(len(datasets))
    mu = lik.means(rho, every)
    running = every[~lik.certified(rho, mu, lik.deviance(mu, every), every)[2]]
    while running.size:
        rho[running], n_iter[running], face = _apg(
            lik, running, rho[running], n_iter[running])
        back = [running[:0]]
        for r in np.unique(face[face > 0]):
            fits = running[face == r]
            rho[fits], n_iter[fits], certified = _newton(
                lik, fits, rho[fits], n_iter[fits], r)
            back.append(fits[~certified])
        # a fit whose Newton steps stalled goes on from its Newton point
        running = np.sort(np.concatenate(back))
        running = running[n_iter[running] < _MLE_MAX_ITER]

    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    mu = lik.means(rho, every)
    dev = lik.deviance(mu, every)
    _, gap, converged = lik.certified(rho, mu, dev, every)
    seen = counts > 0
    log_lik = np.sum(np.where(seen, counts * np.log(
        mu, out=np.zeros_like(mu), where=seen), 0.0) - mu, axis=1)
    return [MleResult(rho=rho[s], converged=bool(converged[s]),
                      n_iter=int(n_iter[s]), log_likelihood=float(log_lik[s]),
                      deviance=float(dev[s]), gap=float(gap[s]))
            for s in range(len(datasets))]


def reconstruct_mle(data: TomographyDataset) -> MleResult:
    """Maximum-likelihood density matrix from Poisson counts: the fit of
    ``reconstruct_mle_many`` on one dataset, which stops once its certified
    optimality gap is at most 1e-7 of max(deviance, 1); ``n_iter`` counts
    its accepted projected-gradient and Newton steps."""
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
