"""Independent reference computations shared by the tests.

These deliberately avoid the package's own code paths: covering counts come
from an explicit greedy construction checked against the volumetric
bound ``alpha * log1p(2 omega / eps)``, the data-fidelity gradient of one
row from 2-D @ 1-D products, gradients from central finite
differences, spectral norms from the symmetric eigenproblem of the Gram
matrix, the regularized solves from a dense normal-equations solve with
an explicit inverse, the alternating objective and its scale gradient
from dense matrix products, the alternating least-squares iteration that
the networks unroll from the model equations on one measurement at a
time, and the entropy integral from adaptive-Simpson quadrature. The
paper's corollary expressions for the two variants' bounds are stated
here too, and so is a reference assembly of the bound's log-domain
constants, entropy sums and sample complexity that does every scalar
step through numpy (``np.logaddexp`` on scalars, ``ndarray.max``/``sum``)
from the package's own Tikhonov and data-fit constants and the two
variants' step constants, restated here.
"""

import math

import numpy as np

from cgbound.lipschitz import H_MAX, TAU_H, datafit_grad_constants, fc_lipschitz, tikhonov_constants


def greedy_cover_count(points, eps, norm=None):
    """Size of a greedy eps-cover of a finite point cloud.

    Picks any uncovered point as a new center until everything is within
    eps of some center; the result upper-bounds the covering number of the
    cloud (and of any set the cloud discretizes, up to resolution).
    """
    if norm is None:
        norm = lambda d: np.linalg.norm(d, axis=-1)
    pts = np.asarray(points, dtype=np.float64)
    uncovered = np.ones(len(pts), dtype=bool)
    count = 0
    while uncovered.any():
        center = pts[np.argmax(uncovered)]
        count += 1
        uncovered &= norm(pts - center) > eps
    return count


def central_diff_grad(f, x, h=1e-6):
    """Componentwise central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def covering_log_bound(omega, alpha, eps):
    """Log covering number bound of a radius-omega ball of dimension alpha.

    A radius-omega ball in any norm on R^alpha is covered by at most
    ``(1 + 2*omega/eps)^alpha`` balls of radius eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if alpha < 0 or omega <= 0:
        raise ValueError("alpha must be nonnegative and omega positive")
    return alpha * math.log1p(2.0 * omega / eps)


def spectral_norm_oracle(M):
    """Largest singular value via the symmetric eigenproblem of M^T M."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    return float(np.sqrt(np.linalg.eigvalsh(M.T @ M)[-1]))


def tikhonov_oracle(A, z, y, P):
    """Dense normal-equations solve with an explicit covariance inverse."""
    Az = A @ np.diag(z)
    return np.linalg.solve(Az.T @ Az + np.linalg.inv(P), Az.T @ y)


def datafit_grad_oracle(A, u, z, y):
    """Data-fidelity gradient ``A_u^T (A_u z - y)`` of one row, by 2-D @ 1-D products."""
    Au = A * u
    return Au.T @ (Au @ z - y)


def cost_oracle(u, z, y, A, P, reg=None):
    """Alternating objective ``0.5||y - A(z*u)||^2 + 0.5 u^T P^-1 u + R(z)``.

    The covariance term uses an explicit inverse of the dense matrix ``P``.
    """
    resid = y - A @ (z * u)
    value = 0.5 * float(resid @ resid) + 0.5 * float(u @ np.linalg.inv(P) @ u)
    return value if reg is None else value + float(reg(z))


def grad_z_oracle(z, u, y, A, mu):
    """Scale gradient of the alternating objective.

    Data term ``A_u^T (A_u z - y)`` with ``A_u = A diag(u)`` plus, for the
    exp scale nonlinearity and ``mu != 0``, the regularizer gradient
    ``mu * log(z) / z``.
    """
    Au = A @ np.diag(u)
    g = Au.T @ (Au @ z - y)
    return g if mu == 0.0 else g + mu * np.log(z) / z


def _clamp(x, lo, hi):
    return np.array([min(max(xi, lo), hi) for xi in x])


def _project_ball(v, radius):
    nrm = np.linalg.norm(v)
    return v if nrm <= radius else v * (radius / nrm)


def _relu_chain(weights, x):
    for W in weights[:-1]:
        x = np.maximum(W @ x, 0.0)
    return weights[-1] @ x


def alternating_ls_oracle(y, A, P, blocks, config):
    """Alternating least-squares iteration that the unrolled networks mirror.

    The scale starts at the normalized back-projection ``A^T y / ||A||_2``
    clamped to ``[lo, z_inf]`` (``lo`` is ``a`` for cgnet, 0 for drcgnet) and
    the Gaussian estimate at the dense regularized solve. Each of the K
    rounds applies J scale updates, each clamped to ``[0, z_inf]``, then
    refreshes the Gaussian estimate:

    * cgnet, step ``(B, mu)``: ``clamp(z - B proj_xi(g + mu log(z) / z), a, b)``,
    * drcgnet, step ``(W_1 .. W_Lc, delta)``:
      ``z - delta proj_xi(g) + W_Lc relu(... relu(W_1 z))``,

    with the data-term gradient ``g = A_u^T (A_u z - y)``, ``A_u = A diag(u)``.
    The output is ``z * u`` projected onto the c_max ball. ``y`` is one
    measurement; ``[b[k, j] for b in blocks]`` are the blocks of step j in round k.
    """
    b = config.bounds
    lo = b.a if config.variant == "cgnet" else 0.0
    z = _clamp(A.T @ y / np.linalg.norm(A, 2), lo, b.z_inf)
    u = tikhonov_oracle(A, z, y, P)
    for k in range(config.K):
        for j in range(config.J):
            if config.variant == "cgnet":
                B, mu = [b[k, j] for b in blocks]
                g = grad_z_oracle(z, u, y, A, mu)
                z = _clamp(z - B @ _project_ball(g, b.xi), b.a, b.b)
            else:
                *weights, delta = [b[k, j] for b in blocks]
                g = grad_z_oracle(z, u, y, A, 0.0)
                z = z - delta * _project_ball(g, b.xi) + _relu_chain(weights, z)
            z = _clamp(z, 0.0, b.z_inf)
        u = tikhonov_oracle(A, z, y, P)
    return _project_ball(z * u, b.c_max)


def random_spd(rng, n, jitter=1e-2):
    G = rng.standard_normal((n, n))
    return G @ G.T + jitter * np.eye(n)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm = f(0.5 * (a + m))
    frm = f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def dudley_integral_quad(beta, nu, tol=1e-8):
    """Adaptive-Simpson value of ``integral_0^beta sqrt(ln(1 + nu/eps)) d eps``.

    The integrand has an integrable singularity at 0; the substitution
    ``eps = beta * u^2`` removes it before quadrature. Serves as the
    independent oracle for ``cgbound.bounds.dudley_closed_form``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0:
        return 0.0

    def h(u):
        if u == 0.0:
            return 0.0
        return 2.0 * beta * u * math.sqrt(math.log1p(nu / (beta * u * u)))

    fa, fm, fb = h(0.0), h(0.5), h(1.0)
    whole = (fa + 4.0 * fm + fb) / 6.0
    return _adaptive_simpson(h, 0.0, 1.0, fa, fm, fb, whole, tol, 50)


def cor1_comparator(n, m, network_size, Ns):
    """Dominant scaling expression of the quadratic-update network's bound."""
    return n * math.sqrt(network_size**3 * (math.log(m) + math.log(n)) / Ns)


def cor2_comparator(n, m, network_size, Ns):
    """Dominant scaling expression of the learned-regularizer network's bound."""
    return math.sqrt(network_size**3 * (math.log(m) + math.log(n)) / Ns)


# ---------------------------------------------------------------------------
# reference assembly of the bound, every scalar step through numpy
# ---------------------------------------------------------------------------

def _safe_log(x):
    return -math.inf if x == 0.0 else math.log(x)


def _logsumexp_ref(values):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 1:
        return float(values[0] + 0.0)
    hi = values.max()
    if hi == -math.inf:
        return -math.inf
    return float(hi + np.log(np.exp(values - hi).sum()))


def _log_factor_ref(log_coeff, log_kappa):
    return 1.0 + np.logaddexp(0.0, log_coeff + log_kappa)


def step_constants_oracle(config, model, y_max):
    """``(r1, r2, r3)`` of one scale update of the configured variant."""
    b = config.bounds
    Lz, Lu = datafit_grad_constants(b.z_inf, config.p_max, y_max, model)
    if config.variant == "cgnet":
        r1 = 1.0 + config.p_max * (Lz + config.mu_bound * TAU_H)
        return r1, config.p_max * Lu, (b.xi, config.p_max * H_MAX)
    x_norm = math.sqrt(config.n) * b.z_inf  # 2-norm bound of a scale
    wprod, weight_coeffs = fc_lipschitz(config.weight_bounds, x_norm)
    return 1.0 + config.delta * Lz + wprod, config.delta * Lu, (*weight_coeffs, b.xi)


def assemble_oracle(config, c1, c2, step, kappa_prefactor):
    """The chained log constants of ``lipschitz._assemble``, as a dict."""
    K, J = config.K, config.J
    r1, r2, r3 = step
    log_r1 = _safe_log(r1)
    log_r2 = _safe_log(r2)
    exps = np.arange(J - 1, -1, -1, dtype=np.float64)
    log_rhat1 = J * log_r1
    log_rhat2 = log_r2 + _logsumexp_ref(exps * log_r1)
    log_r3 = np.array([_safe_log(r) for r in r3])
    log_rhat3 = exps[:, None] * log_r1 + log_r3[None, :]
    log_q = np.logaddexp(log_rhat1, log_rhat2 + _safe_log(c1))
    tail = np.arange(K - 1, -1, -1, dtype=np.float64)
    log_chat1 = _safe_log(c2) + log_rhat2 + _logsumexp_ref(tail * log_q)
    log_chat2 = tail[:, None, None] * log_q + log_rhat3[None, :, :]
    log_pref = _safe_log(kappa_prefactor)
    log_kappa = np.logaddexp(log_pref + log_chat1, _safe_log(config.bounds.z_inf * c2))
    return {
        "c1": c1, "c2": c2, "log_rhat1": log_rhat1, "log_rhat2": log_rhat2,
        "log_rhat3": log_rhat3, "log_chat1": log_chat1, "log_chat2": log_chat2,
        "log_kappa": float(log_kappa), "log_kappa_kdj": log_pref + log_chat2,
    }


def network_constants_oracle(config, model, y_max):
    """Worst-case constants over the parameter balls and the y_max ball."""
    b, p_max = config.bounds, config.p_max
    c1, c2 = tikhonov_constants(y_max, b.z_inf, p_max, p_max, (p_max / config.p_min) ** 2, model)
    step = step_constants_oracle(config, model, y_max)
    return assemble_oracle(config, c1, c2, step, b.z_inf * (c1 + p_max * y_max * model.norm_inf))


def network_constants_exact_oracle(config, model, y, P, P_tilde):
    """Instance-exact constants for one measurement and covariance pair."""
    b = config.bounds
    y2 = float(np.linalg.norm(y))
    y_inf = float(np.abs(y).max())
    c1, c2 = tikhonov_constants(y2, b.z_inf, P.p_max, P_tilde.p_max, P.cond * P_tilde.cond, model)
    step = step_constants_oracle(config, model, y2)
    return assemble_oracle(config, c1, c2, step, b.z_inf * (c1 + P.p_max * model.norm_inf * y_inf))


def _entropy_ref(config, model, y_max):
    cns = network_constants_oracle(config, model, y_max)
    c_max = config.bounds.c_max
    kjd1 = config.K * config.J * config.D + 1
    dim_p = 1 if config.variant == "cgnet" else 2 * config.n - 1  # scaled identity, tridiagonal
    term2_cov = math.sqrt(dim_p * _log_factor_ref(
        math.log(4.0 * config.p_max * kjd1 / c_max), cns["log_kappa"]))
    specs = config.block_specs
    alphas = np.array([a for _, a, _, _ in specs], dtype=np.float64)
    omegas = np.array([w for _, _, w, _ in specs], dtype=np.float64)
    log_coeffs = np.log(4.0 * omegas * kjd1 / c_max)
    factors = _log_factor_ref(log_coeffs[None, None, :], cns["log_kappa_kdj"])
    block_sums = np.sqrt(alphas[None, None, :] * factors).sum(axis=(0, 1))
    is_scalar = np.array([shape == () for shape, _, _, _ in specs])
    sums = (term2_cov, float(block_sums[~is_scalar].sum()), float(block_sums[is_scalar].sum()))
    return cns, dim_p, alphas, omegas, kjd1, sums


def _ns_terms_ref(config, loss, sums, Ns, eps_conf):
    scale = 8.0 * loss.tau * config.bounds.c_max / math.sqrt(Ns)
    term2 = scale * (sums[0] + sums[1] + sums[2])
    term3 = 4.0 * loss.c * math.sqrt(2.0 * math.log(4.0 / eps_conf) / Ns)
    return scale, term2, term3


def geb_oracle(config, model, loss, Ns, eps_conf, y_max):
    """``(terms, constants)``: the bound's terms and inputs as in
    ``BoundReport.to_dict`` without its ``constants``, and the log constants."""
    cns, dim_p, alphas, omegas, kjd1, sums = _entropy_ref(config, model, y_max)
    scale, term2, term3 = _ns_terms_ref(config, loss, sums, Ns, eps_conf)
    terms = {
        "term1": 0.0, "term2": float(term2), "term3": float(term3),
        "total": float(0.0 + term2 + term3), "term2_cov": float(scale * sums[0]),
        "term2_weights": float(scale * sums[1]), "term2_scalars": float(scale * sums[2]),
        "inputs": {
            "Ns": int(Ns), "eps_conf": float(eps_conf), "y_max": float(y_max),
            "dim_P": int(dim_p), "alphas": [float(a) for a in alphas],
            "omegas": [float(w) for w in omegas], "tau": float(loss.tau),
            "c": float(loss.c), "KJD_plus_1": int(kjd1),
        },
    }
    return terms, cns


def sample_complexity_oracle(config, model, loss, gap, eps_conf, y_max):
    """Smallest Ns whose term2 + term3 is <= gap: the closed form
    ``ceil((block(1) / gap)^2)`` settled by integer steps."""
    sums = _entropy_ref(config, model, y_max)[-1]

    def block(ns):
        _, term2, term3 = _ns_terms_ref(config, loss, sums, ns, eps_conf)
        return term2 + term3

    if block(1) <= gap:
        return 1
    ratio = block(1) / gap
    ns = math.ceil(ratio * ratio)
    while block(ns) > gap:
        ns += 1
    while block(ns - 1) <= gap:
        ns -= 1
    return ns
