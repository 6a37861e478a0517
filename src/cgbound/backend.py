"""Numeric kernels.

The hot inner loops of the package (clamp/projection activations, the
regularized least-squares solves, and the per-layer scale updates) are plain
vectorized numpy functions, collected in the ``kernels`` table. Callers look
entries up in the table at call time, so a profiler can wrap them in place.
"""

import numpy as np

__all__ = [
    "active_backend",
    "kernels",
]


def _mrelu(x, a, b):
    # two-ReLU clamp a + ReLU(x-a) - ReLU(x-b), written as min/max
    return np.minimum(np.maximum(x, a), b)


def _ball_project(v, radius):
    nrm = np.sqrt(np.dot(v, v))
    return v / max(1.0, nrm / radius)


def _tikhonov_primal(A, z, y, P_inv):
    Az = A * z
    M = Az.T @ Az + P_inv
    return np.linalg.solve(M, Az.T @ y)


def _tikhonov_woodbury(A, z, y, P):
    Az = A * z
    S = np.eye(A.shape[0]) + (Az @ P) @ Az.T
    return P @ (Az.T @ np.linalg.solve(S, y))


def _datafit_grad(A, u, z, y):
    Au = A * u
    return Au.T @ (Au @ z - y)


def _cgnet_step(z, u, y, A, B, mu, a, b, xi):
    g = _datafit_grad(A, u, z, y)
    if mu != 0.0:
        g = g + mu * (np.log(z) / z)
    return _mrelu(z - B @ _ball_project(g, xi), a, b)


def _drcgnet_vstep(z, u, y, A, delta, xi):
    return z - delta * _ball_project(_datafit_grad(A, u, z, y), xi)


kernels = {
    "mrelu": _mrelu,
    "ball_project": _ball_project,
    "tikhonov_primal": _tikhonov_primal,
    "tikhonov_woodbury": _tikhonov_woodbury,
    "datafit_grad": _datafit_grad,
    "cgnet_step": _cgnet_step,
    "drcgnet_vstep": _drcgnet_vstep,
}


def active_backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
