"""Numeric kernels.

The hot inner loops of the package (clamp/projection activations, the
regularized least-squares solves, and the per-layer scale updates) are plain
vectorized numpy functions, collected in the ``kernels`` table. Callers look
entries up in the table at call time, so a profiler can wrap them in place.

Every vector argument carries an optional leading batch axis: ``y`` is
``(m,)`` or ``(B, m)``, ``z`` and ``u`` are ``(n,)`` or ``(B, n)``, and the
result has the same leading shape. A mat-vec is written ``(M @ x[..., None])
[..., 0]`` and a squared norm ``v[..., None, :] @ v[..., :, None]``, so numpy
hands each row to the same BLAS routine (gemv, dot, gesv) as a 1-D call and
every row of a batch is bitwise equal to the 1-D result. ``einsum`` would
not be: its own summation differs from ``np.dot`` in the last bit.

The parameters of a stack may differ per row: ``P``, ``P_inv`` and ``B``
are then ``(B, n, n)`` stacks and ``mu`` and ``delta`` ``(B,)`` arrays,
and each row still equals the 1-D call with its own parameters.
"""

import numpy as np

__all__ = [
    "active_backend",
    "kernels",
]


def _matvec(M, x):
    return (M @ x[..., None])[..., 0]


def _mrelu(x, a, b):
    # two-ReLU clamp a + ReLU(x-a) - ReLU(x-b), written as min/max
    return np.minimum(np.maximum(x, a), b)


def _row_norm(v):
    """``(..., 1)`` Euclidean row norms; a finite row whose squared norm
    overflows is rescaled by its largest entry, the rest keep their bits."""
    nrm = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0])
    big = np.isinf(nrm[..., 0])
    if big.any():
        big = big & np.isfinite(v).all(axis=-1)  # a row holding inf keeps norm inf
        w = v[big]
        s = np.abs(w).max(axis=-1, keepdims=True)
        nrm[big] = s * np.linalg.norm(w / s, axis=-1, keepdims=True)
    return nrm


def _ball_project(v, radius):
    return v / np.maximum(1.0, _row_norm(v) / radius)


def _tikhonov_primal(A, z, y, P_inv):
    Az = A * z[..., None, :]
    AzT = Az.swapaxes(-1, -2)
    M = AzT @ Az + P_inv
    return np.linalg.solve(M, AzT @ y[..., None])[..., 0]


def _tikhonov_woodbury(A, z, y, P):
    Az = A * z[..., None, :]
    AzT = Az.swapaxes(-1, -2)
    S = np.eye(A.shape[0]) + (Az @ P) @ AzT
    return (P @ (AzT @ np.linalg.solve(S, y[..., None])))[..., 0]


def _datafit_grad(A, u, z, y):
    Au = A * u[..., None, :]
    return _matvec(Au.swapaxes(-1, -2), _matvec(Au, z) - y)


def _clip_datafit(g, A, u, z, y, xi):
    """The step gradient ``g`` projected onto the xi-ball. Its data-fit part
    grows like ``|y|^2``; a row whose norm is not finite is recomputed from
    ``(u, y)`` over their largest entry, scaled by a power of two to its own
    largest entry so its squared norm cannot underflow, and put on the
    xi-sphere (a bounded regularizer term is below rounding there). Other
    rows keep their bits."""
    nrm = _row_norm(g)
    out = g / np.maximum(1.0, nrm / xi)
    huge = ~np.isfinite(nrm[..., 0])
    if huge.any():
        lead = nrm.shape[:-1]
        uh, zh, yh = (np.broadcast_to(x, lead + x.shape[-1:])[huge] for x in (u, z, y))
        s = np.maximum(np.abs(uh).max(axis=-1, keepdims=True), np.abs(yh).max(axis=-1, keepdims=True))
        gh = _datafit_grad(A, uh / s, zh, yh / s)
        gh = np.ldexp(gh, -np.frexp(np.abs(gh).max(axis=-1, keepdims=True))[1])
        out[huge] = xi * gh / _row_norm(gh)
    return out


def _cgnet_step(z, u, y, A, B, mu, a, b, xi):
    g = _datafit_grad(A, u, z, y) + np.asarray(mu)[..., None] * (np.log(z) / z)
    return _mrelu(z - _matvec(B, _clip_datafit(g, A, u, z, y, xi)), a, b)


def _drcgnet_vstep(z, u, y, A, delta, xi):
    g = _datafit_grad(A, u, z, y)
    return z - np.asarray(delta)[..., None] * _clip_datafit(g, A, u, z, y, xi)


kernels = {
    "mrelu": _mrelu,
    "row_norm": _row_norm,
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
