"""Independent reference computations shared by the tests.

These deliberately avoid the package's own code paths: covering counts come
from an explicit greedy construction, gradients from central finite
differences, spectral norms from the symmetric eigenproblem of the Gram
matrix, the regularized solves from a dense normal-equations solve with
an explicit inverse, the alternating objective and its scale gradient
from dense matrix products, the alternating least-squares iteration that
the networks unroll from the model equations on one measurement at a
time, and the entropy integral from adaptive-Simpson quadrature. The
paper's corollary expressions for the two variants' bounds are stated
here too.
"""

import math

import numpy as np


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


def spectral_norm_oracle(M):
    """Largest singular value via the symmetric eigenproblem of M^T M."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    return float(np.sqrt(np.linalg.eigvalsh(M.T @ M)[-1]))


def tikhonov_oracle(A, z, y, P):
    """Dense normal-equations solve with an explicit covariance inverse."""
    Az = A @ np.diag(z)
    return np.linalg.solve(Az.T @ Az + np.linalg.inv(P), Az.T @ y)


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
    measurement; ``blocks[k][j]`` are the blocks of step j in round k.
    """
    b = config.bounds
    lo = b.a if config.variant == "cgnet" else 0.0
    z = _clamp(A.T @ y / np.linalg.norm(A, 2), lo, b.z_inf)
    u = tikhonov_oracle(A, z, y, P)
    for k in range(config.K):
        for j in range(config.J):
            if config.variant == "cgnet":
                B, mu = blocks[k][j]
                g = grad_z_oracle(z, u, y, A, mu)
                z = _clamp(z - B @ _project_ball(g, b.xi), b.a, b.b)
            else:
                *weights, delta = blocks[k][j]
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
