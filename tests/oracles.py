"""Independent reference computations used only by the test suite.

Everything here is deliberately built from scratch (column-stacking
vectorization, closed forms, exact matrix exponentials) rather than reusing
the library's own operators, so agreement is a genuine cross-check.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

G, X, B = 0, 1, 2


def ketbra3(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def ladder_hamiltonian(omega, delta_x, delta_b):
    h = np.zeros((3, 3), dtype=complex)
    h[G, X] = h[X, G] = omega / 2.0
    h[X, B] = h[B, X] = omega / 2.0
    h[X, X] = delta_x - delta_b
    h[B, B] = -2.0 * delta_b
    return h


def ladder_jumps(gamma_b, gamma_x, gamma_deph):
    """(operator, rate) pairs: cascade decay plus population dephasing."""
    jumps = [(ketbra3(X, B), gamma_b), (ketbra3(G, X), gamma_x)]
    a_bb = np.diag([0.0, -1.0, 1.0]).astype(complex)
    a_xx = np.diag([-1.0, 1.0, 0.0]).astype(complex)
    jumps += [(a_bb, gamma_deph), (a_xx, gamma_deph)]
    return jumps


def lindblad_superoperator(h, jumps):
    """Column-stacking superoperator of drho/dt = -i[h, rho] + dissipators."""
    n = h.shape[0]
    eye = np.eye(n)
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        anti = op.conj().T @ op
        s += rate * (np.kron(op.conj(), op)
                     - 0.5 * (np.kron(eye, anti) + np.kron(anti.T, eye)))
    return s


def apply_superoperator(s, rho):
    v = rho.reshape(-1, order="F")
    return (s @ v).reshape(rho.shape, order="F")


def propagate_expm(rho0, h, jumps, t):
    """Exact propagation at constant generator via the matrix exponential."""
    s = lindblad_superoperator(h, jumps)
    v = rho0.reshape(-1, order="F")
    return (expm(s * t) @ v).reshape(rho0.shape, order="F")


def pulse_emission(areas, sigma, delta_x, gamma_b, gamma_x, gamma_bg,
                   gamma_i0, n_p, method="DOP853"):
    """Total (p_x, p_b) of a Gaussian two-photon pulse from the ground state,
    one entry per pulse area, on two-photon resonance.

    scipy's ``method`` at rtol 1e-13 integrates the column-stacked density
    matrices of all areas, with the integrals of rho_xx and rho_bb, over
    t0 +- 5 sigma (t0 = 0), as the real and imaginary parts of one real
    vector: Radau, for a window made stiff by dephasing, takes no complex
    state, and gets a finite-difference Jacobian.  The emission after the
    window is the population left on each level with a positive rate,
    rho_bb also feeding the exciton.
    """
    areas = np.asarray(areas, dtype=float)
    n = len(areas)
    peak = areas / (sigma * np.sqrt(np.pi / np.log(2.0)))
    # the generator is linear in the Hamiltonian and in each rate
    s_static = lindblad_superoperator(ladder_hamiltonian(0.0, delta_x, 0.0),
                                      ladder_jumps(gamma_b, gamma_x, 0.0))
    s_drive = lindblad_superoperator(ladder_hamiltonian(1.0, 0.0, 0.0), [])
    s_deph = lindblad_superoperator(np.zeros((3, 3)), ladder_jumps(0.0, 0.0,
                                                                   1.0))
    xx, bb = X + 3 * X, B + 3 * B  # column-stacking indices

    def rhs(t, y):
        v = np.ascontiguousarray(y).view(complex).reshape(11, n)
        omega = peak * np.exp(-np.log(2.0) * t ** 2 / sigma ** 2)
        rate = gamma_bg + gamma_i0 * omega ** n_p
        dv = (s_static @ v[:9] + (s_drive @ v[:9]) * omega
              + (s_deph @ v[:9]) * rate)
        return np.vstack([dv, v[[xx, bb]]]).ravel().view(float)

    y0 = np.zeros((11, n), dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (-5.0 * sigma, 5.0 * sigma), y0.ravel().view(float),
                    method=method, rtol=1e-13, atol=1e-15)
    v = sol.y[:, -1].view(complex).reshape(11, n).real
    tail_b = v[bb] if gamma_b > 0 else 0.0
    tail_x = v[xx] + tail_b if gamma_x > 0 else 0.0
    return gamma_x * v[9] + tail_x, gamma_b * v[10] + tail_b


def cascade_populations(t, gamma_b, gamma_x):
    """Free biexciton cascade starting from rho = |b><b| (gamma_b != gamma_x)."""
    t = np.asarray(t, dtype=float)
    p_b = np.exp(-gamma_b * t)
    p_x = gamma_b / (gamma_b - gamma_x) * (np.exp(-gamma_x * t)
                                           - np.exp(-gamma_b * t))
    return p_b, p_x


def cascade_emission(t, gamma_b, gamma_x):
    """Closed-form emission integrals for the free cascade from |b><b|."""
    p_b_emit = 1.0 - np.exp(-gamma_b * t)
    int_x = gamma_b / (gamma_b - gamma_x) * (
        (1.0 - np.exp(-gamma_x * t)) / gamma_x
        - (1.0 - np.exp(-gamma_b * t)) / gamma_b)
    return gamma_x * int_x, p_b_emit


def random_density_matrix(rng, dim):
    """Haar-ish random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def fringe_visibility(rho, relative_phase, n=2 ** 16):
    """Contrast of <psi|rho|psi> sampled at n analysis phases alpha, with
    psi = (|e> + e^{i alpha}|l>) x (|e> + e^{i (alpha + relative_phase)}|l>)/2
    and the XX photon first."""
    alpha = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    xx = np.stack([np.ones(n), np.exp(1j * alpha)], axis=1)
    x = np.stack([np.ones(n), np.exp(1j * (alpha + relative_phase))], axis=1)
    psi = (xx[:, :, None] * x[:, None, :]).reshape(n, 4) / 2.0
    p = np.einsum("ni,ij,nj->n", psi.conj(), rho, psi).real
    return (p.max() - p.min()) / (p.max() + p.min())


def _standard_kets():
    """Joint kets of the library's sixteen settings, XX photon first, in its
    order: per qubit E, L, S(0), S(pi/2)."""
    per_qubit = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                 np.array([1.0, 1.0]) / np.sqrt(2.0),
                 np.array([1.0, 1.0j]) / np.sqrt(2.0)]
    return np.array([np.kron(a, b) for a in per_qubit for b in per_qubit])


def mle_optimality_gap(rho, counts, kets=None):
    """Upper bound on deviance(rho) - min deviance for tomography counts.

    ``kets`` holds the joint ket of each setting, XX photon first; by
    default the library's sixteen (``_standard_kets``).  The four
    time-basis settings must be 0, 1, 4 and 5, as in that order and any
    list that extends it; their sum is the count scale n.  With
    mu_k = n tr(P_k rho), the deviance sum(mu_k - c_k log mu_k) is convex in
    rho, and its gradient is G = n sum_k (1 - c_k / mu_k) P_k.  Over
    unit-trace PSD states the minimum is then at least
    deviance(rho) - (tr(G rho) - lambda_min(G)).
    """
    counts = np.asarray(counts, dtype=float)
    if kets is None:
        kets = _standard_kets()
    ops = np.array([np.outer(k, k.conj()) for k in kets])
    n = counts[[0, 1, 4, 5]].sum()
    mu = n * np.einsum("kij,ji->k", ops, rho).real
    grad = n * np.einsum("k,kij->ij", 1.0 - counts / mu, ops)
    grad = 0.5 * (grad + grad.conj().T)
    return float(np.trace(grad @ rho).real - np.linalg.eigvalsh(grad)[0])


def poisson_deviance(rho, counts, kets=None):
    """sum_k (mu_k - c_k) + c_k log(c_k / mu_k), mu_k = n <k|rho|k>, with
    ``kets`` and the count scale n as in ``mle_optimality_gap``; ~0 at a
    perfect fit, and +inf where mu_k <= 0 on a setting with counts."""
    counts = np.asarray(counts, dtype=float)
    if kets is None:
        kets = _standard_kets()
    kets = np.asarray(kets)
    mu = counts[[0, 1, 4, 5]].sum() * np.einsum(
        "ki,ij,kj->k", kets.conj(), rho, kets).real
    seen = counts > 0
    if (mu[seen] <= 0).any():
        return np.inf
    return float(np.sum(mu - counts)
                 + np.sum(counts[seen] * np.log(counts[seen] / mu[seen])))


def mle_lbfgs(counts, kets=None):
    """Reference maximum-likelihood fit: (rho, deviance, iterations).

    rho = T^dag T / tr(T^dag T) over a full complex 4 x 4 factor T, by
    scipy's L-BFGS-B (ftol 1e-10) from the linear inversion with its
    negative eigenvalues clipped and 1e-8 of I/4 mixed in; a fit whose
    ``mle_optimality_gap`` is above 1e-2 (stopped on a face of lower
    rank) is run once more from its result mixed with 1e-2 of I/4.
    ``kets`` and the count scale n are as in ``mle_optimality_gap``.  With
    q_k = ||T k||^2 and s = ||T||_F^2, mu_k = n q_k / s; with
    coeff_k = (1 - c_k / mu_k) n / s and W = K diag(coeff) K^dag
    - I sum(coeff q) / s, the gradient in Re T and Im T is the real and
    imaginary part of 2 T W.
    """
    from scipy.optimize import minimize

    counts = np.asarray(counts, dtype=float)
    if kets is None:
        kets = _standard_kets()
    kets = np.asarray(kets, dtype=complex)
    n = counts[[0, 1, 4, 5]].sum()
    seen = counts > 0

    def factor(t):
        return (t[:16] + 1j * t[16:]).reshape(4, 4)

    def nll_and_grad(t):
        m = factor(t)
        tk = m @ kets.T
        s = t @ t
        q = np.sum(tk.real ** 2 + tk.imag ** 2, axis=0)
        mu = np.clip(n * q / s, 1e-12, None)
        d = (mu[seen] - counts[seen]) / counts[seen]
        nll = np.sum(counts[seen] * (d - np.log1p(d))) + np.sum(mu[~seen])
        coeff = (1.0 - counts / mu) * (n / s)
        grad = 2.0 * ((tk * coeff) @ kets.conj() - m * (np.sum(coeff * q) / s))
        return nll, np.concatenate([grad.real.ravel(), grad.imag.ravel()])

    rows = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(-1, 16)
    rho = np.linalg.lstsq(rows, counts / n, rcond=None)[0].reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    n_iter = 0
    for mix in (1e-8, 1e-2):
        w, v = np.linalg.eigh(rho)
        w = np.clip(w, 0.0, None)
        w = (1 - mix) * w / np.sum(w) + mix / 4.0
        t0 = (np.sqrt(w)[:, None] * v.conj().T).ravel()
        res = minimize(nll_and_grad, np.concatenate([t0.real, t0.imag]),
                       jac=True, method="L-BFGS-B",
                       options={"ftol": 1e-10, "gtol": 1e-12,
                                "maxiter": 2000, "maxfun": 20000})
        n_iter += res.nit
        m = factor(res.x)
        g = m.conj().T @ m
        rho = g / np.trace(g).real
        if mle_optimality_gap(rho, counts, kets) <= 1e-2:
            break
    return rho, float(res.fun), n_iter


def mle_face_newton(rho, counts, kets=None, steps=3):
    """Reference fit polished on the face of ``rho``: Newton steps in a
    factor T of its r eigenvalues above 1e-9 (T is 4 x r, rho = T T^dag /
    |T|^2), with ``kets`` and the count scale n as in
    ``mle_optimality_gap``.  The gradient in Re T and Im T is the real and
    imaginary part of 2 (G - tr(G rho) I) T / |T|^2; the Hessian is its
    central difference, and each step its least-squares solve, since
    T -> T U and T -> a T leave rho unchanged."""
    counts = np.asarray(counts, dtype=float)
    if kets is None:
        kets = _standard_kets()
    ops = np.array([np.outer(k, k.conj()) for k in kets])
    n = counts[[0, 1, 4, 5]].sum()
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-9
    shape = (4, int(keep.sum()))

    def state(x):
        t = (x[:x.size // 2] + 1j * x[x.size // 2:]).reshape(shape)
        return t, t @ t.conj().T / (x @ x)

    def gradient(x):
        t, r = state(x)
        mu = n * np.einsum("kij,ji->k", ops, r).real
        g = n * np.einsum("k,kij->ij", 1.0 - counts / mu, ops)
        gt = 2.0 * (g - np.trace(g @ r).real * np.eye(4)) @ t / (x @ x)
        return np.concatenate([gt.real.ravel(), gt.imag.ravel()])

    t = v[:, keep] * np.sqrt(w[keep])
    x = np.concatenate([t.real.ravel(), t.imag.ravel()])
    h = 1e-6
    for _ in range(steps):
        hess = np.array([(gradient(x + e) - gradient(x - e)) / (2.0 * h)
                         for e in h * np.eye(x.size)])
        x = x + np.linalg.lstsq(0.5 * (hess + hess.T), -gradient(x),
                                rcond=1e-9)[0]
    return state(x)[1]
