"""Independent reference computations shared by the tests.

These deliberately avoid the package's own code paths: covering counts come
from an explicit greedy construction, gradients from central finite
differences, spectral norms from the symmetric eigenproblem of the Gram
matrix, the regularized solves from a dense normal-equations solve with
an explicit inverse, and the alternating least-squares iteration that the
networks unroll from the model equations on one measurement at a time.
"""

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
            Au = A @ np.diag(u)
            g = Au.T @ (Au @ z - y)
            if config.variant == "cgnet":
                B, mu = blocks[k][j]
                z = _clamp(z - B @ _project_ball(g + mu * np.log(z) / z, b.xi), b.a, b.b)
            else:
                *weights, delta = blocks[k][j]
                z = z - delta * _project_ball(g, b.xi) + _relu_chain(weights, z)
            z = _clamp(z, 0.0, b.z_inf)
        u = tikhonov_oracle(A, z, y, P)
    return _project_ball(z * u, b.c_max)


def random_spd(rng, n, jitter=1e-2):
    G = rng.standard_normal((n, n))
    return G @ G.T + jitter * np.eye(n)
