"""Unrolled estimation networks for the compound-Gaussian signal model.

Two realizations of the same layer template are implemented:

* ``cgnet``    - projected steepest descent on the scale variable with a
  learned quadratic-norm matrix B and a log-normal regularizer weight mu
  (the scale nonlinearity is fixed to exp, so the regularizer gradient is
  ``mu * log(z) / z``),
* ``drcgnet``  - projected gradient descent on the data-fidelity term plus a
  learned correction subnetwork of dense ReLU layers.

``forward`` runs the unrolled network and records every iterate; each of
its K layers is one round of the alternating least-squares iteration: J
projected scale updates, then a regularized solve for the Gaussian factor.

The forward pass, the scale steps and the subnetwork take one measurement
vector or a stack of them along a leading batch axis (``y`` of shape
``(m,)`` or ``(B, m)``), and every iterate carries the same leading shape.
A stack runs as one pass, and each of its rows is bitwise equal to the
forward pass of that row alone.
"""

from dataclasses import dataclass

import numpy as np

from .backend import kernels
from .model import (
    SignalBounds,
    SpdMatrix,
    _as_rows,
    _check_finite_rows,
    ball_project,
    mrelu,
    spectral_norm,
    tikhonov_solve,
)

__all__ = [
    "NetworkConfig",
    "ParameterSet",
    "ForwardTrace",
    "grad_z_F",
    "cgnet_scale_step",
    "subnet_forward",
    "drcgnet_scale_step",
    "forward",
    "sample_parameters",
    "sample_covariance",
    "validate_parameters",
    "parameter_distance",
]

VARIANTS = ("cgnet", "drcgnet")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, admissible-region radii, and parameter-ball radii.

    ``K`` outer layers each apply ``J`` scale updates. The covariance ball
    is the set of SPD matrices with spectrum inside ``[p_min, p_max]``,
    structured as a scaled identity for ``cgnet`` and tridiagonal for
    ``drcgnet``. For ``cgnet`` the per-step parameters are (B, mu) with
    ``||B||_2 <= p_max`` and ``|mu| <= mu_bound``. For ``drcgnet`` they are
    the subnetwork weight matrices (layer ell maps n*f[ell-1] -> n*f[ell],
    spectral norm at most w[ell-1]) followed by the step size delta.
    Kernel sizes enter only the parameter-count bookkeeping.
    """

    variant: str
    n: int
    K: int
    J: int
    bounds: SignalBounds
    p_min: float
    p_max: float
    mu_bound: float = 0.0
    Lc: int = 0
    filters: tuple = ()
    kernels: tuple = ()
    weight_bounds: tuple = ()
    delta: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if not (0 < self.p_min <= self.p_max):
            raise ValueError("require 0 < p_min <= p_max")
        object.__setattr__(self, "filters", tuple(int(f) for f in self.filters))
        object.__setattr__(self, "kernels", tuple(int(k) for k in self.kernels))
        object.__setattr__(self, "weight_bounds", tuple(float(w) for w in self.weight_bounds))
        if self.variant == "cgnet":
            if self.mu_bound <= 0:
                raise ValueError("cgnet requires a positive mu_bound")
        else:
            if self.Lc < 1:
                raise ValueError("drcgnet requires Lc >= 1")
            if len(self.filters) != self.Lc + 1:
                raise ValueError("filters must list f_0 .. f_Lc")
            if self.filters[0] != 1 or self.filters[-1] != 1:
                raise ValueError("filters must start and end with a single channel")
            if any(f < 1 for f in self.filters):
                raise ValueError("filter counts must be positive")
            if len(self.kernels) != self.Lc or any(k < 1 for k in self.kernels):
                raise ValueError("kernels must list Lc positive kernel sizes")
            if len(self.weight_bounds) != self.Lc or any(w <= 0 for w in self.weight_bounds):
                raise ValueError("weight_bounds must list Lc positive radii")
            if self.delta <= 0:
                raise ValueError("drcgnet requires a positive delta")

    @property
    def D(self):
        """Number of parameter blocks per scale update."""
        return 2 if self.variant == "cgnet" else self.Lc + 1

    @property
    def cov_structure(self):
        return "scaled_identity" if self.variant == "cgnet" else "tridiagonal"

    def weight_shape(self, ell):
        """Dense shape of subnetwork layer ``ell`` (1-based)."""
        return (self.n * self.filters[ell], self.n * self.filters[ell - 1])

    def parameter_dims(self):
        """Per-block (dimension, ball radius) pairs, d = 1 .. D."""
        if self.variant == "cgnet":
            return (
                (self.n * (self.n + 1) // 2, self.p_max),
                (1, self.mu_bound),
            )
        dims = [
            (self.filters[d - 1] * self.filters[d] * self.kernels[d - 1] ** 2, self.weight_bounds[d - 1])
            for d in range(1, self.Lc + 1)
        ]
        dims.append((1, self.delta))
        return tuple(dims)


@dataclass(frozen=True)
class ParameterSet:
    """Covariance plus one tuple of parameter blocks per (layer, step).

    ``blocks[k][j]`` holds the D blocks of scale update j+1 in layer k+1:
    ``(B, mu)`` for cgnet, ``(W_1, ..., W_Lc, delta)`` for drcgnet.
    """

    P: SpdMatrix
    blocks: tuple


@dataclass(frozen=True)
class ForwardTrace:
    """All iterates of one unrolled forward pass, each ``(n,)`` or ``(B, n)``."""

    z0: np.ndarray
    z: tuple  # z[k][j], k = 0..K-1, j = 0..J-1
    u: tuple  # u[0] = initial estimate, u[k] after layer k
    output: np.ndarray


def grad_z_F(z, u, y, model, mu):
    """Scale-variable gradient of the alternating objective.

    Data term ``A_u^T (A_u z - y)`` plus, for the exp scale nonlinearity,
    the regularizer gradient ``mu * log(z) / z``. The log term is only
    defined for strictly positive z.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if mu != 0.0 and np.any(z <= 0.0):
        raise ValueError("grad_z_F with mu != 0 requires strictly positive z")
    g = kernels["datafit_grad"](model.A, u, z, y)
    if mu != 0.0:
        g = g + mu * (np.log(z) / z)
    return g


def cgnet_scale_step(z, u, y, model, B, mu, bounds):
    """One projected steepest-descent scale update.

    Clips the gradient to the xi-ball, applies the learned matrix B, and
    clamps the result to [a, b] componentwise.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    if mu != 0.0 and np.any(z <= 0.0):
        raise ValueError("cgnet scale step with mu != 0 requires strictly positive z")
    return kernels["cgnet_step"](
        z, u, y, model.A, B, float(mu), bounds.a, bounds.b, bounds.xi
    )


def subnet_forward(weights, z):
    """Dense feed-forward chain with ReLU between layers, linear last layer.

    ``z`` is one input vector or a stack of them along a leading axis.
    """
    x = np.ascontiguousarray(z, dtype=np.float64)
    last = len(weights) - 1
    for i, W in enumerate(weights):
        W = np.asarray(W, dtype=np.float64)
        if W.shape[1] != x.shape[-1]:
            raise ValueError(
                f"layer {i + 1} expects input of length {W.shape[1]}, got {x.shape[-1]}"
            )
        x = (W @ x[..., None])[..., 0]
        if i != last:
            x = np.maximum(x, 0.0)
    return x


def drcgnet_scale_step(z, u, y, model, delta, weights, bounds):
    """One projected-gradient scale update with learned correction.

    Data-fidelity descent ``z - delta * clip(A_u^T(A_u z - y))`` plus the
    subnetwork output; the caller applies the [0, z_inf] clamp.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    v = kernels["drcgnet_vstep"](z, u, y, model.A, float(delta), bounds.xi)
    return v + subnet_forward(weights, z)


def _initial_scale(y, model, config):
    """Normalized back-projection clamped into the admissible scale region.

    The lower clamp is 0 for drcgnet; for cgnet it is the clamp floor ``a``
    so that the log-regularizer gradient is defined at the first update.
    """
    z_init = (model.A.T @ y[..., None])[..., 0] / model.norm2
    lo = config.bounds.a if config.variant == "cgnet" else 0.0
    return mrelu(z_init, lo, config.bounds.z_inf)


def _scale_update(z, u, y, model, theta_kj, config):
    b = config.bounds
    if config.variant == "cgnet":
        B, mu = theta_kj
        out = cgnet_scale_step(z, u, y, model, B, float(mu), b)
    else:
        weights = theta_kj[: config.Lc]
        delta = float(theta_kj[config.Lc])
        out = drcgnet_scale_step(z, u, y, model, delta, weights, b)
    return mrelu(out, 0.0, b.z_inf)


def forward(y, theta, config, model):
    """Run the unrolled network and return the full iterate trace.

    The output is the Hadamard product of the final scale and Gaussian
    estimates projected onto the c_max ball, so ``||output||_2 <= c_max``
    and every scale iterate lies in ``[0, z_inf]`` by construction.

    ``y`` is one measurement of shape ``(m,)`` or a ``(B, m)`` stack of
    them; every field of the trace then has shape ``(n,)`` or ``(B, n)``,
    and row ``i`` of each equals the trace of ``forward(y[i], ...)``
    bitwise.

    A non-finite ``y`` raises ``ValueError`` naming its first bad row. An
    overflow in the layers leaves an inf or NaN that the next solve reports
    as ``NumericalFailure``, so numpy's warnings about it are silenced.
    """
    y = _as_rows(y, model.m, "y")
    _check_finite_rows(y, ValueError, "y has")
    if config.n != model.n:
        raise ValueError("config.n and model.n disagree")
    with np.errstate(over="ignore", invalid="ignore"):
        z = _initial_scale(y, model, config)
        z0 = z
        u = tikhonov_solve(model, z, y, theta.P)
        us = [u]
        zs = []
        for k in range(config.K):
            zk = []
            for j in range(config.J):
                z = _scale_update(z, u, y, model, theta.blocks[k][j], config)
                zk.append(z)
            zs.append(tuple(zk))
            u = tikhonov_solve(model, z, y, theta.P)
            us.append(u)
        output = ball_project(z * u, config.bounds.c_max)
    return ForwardTrace(z0=z0, z=tuple(zs), u=tuple(us), output=output)


# ---------------------------------------------------------------------------
# sampling inside the admissible parameter balls
# ---------------------------------------------------------------------------

def _sample_spd(rng, n, target_norm):
    """Random SPD matrix rescaled to the requested spectral norm."""
    G = rng.standard_normal((n, n))
    S = G @ G.T + 1e-3 * np.eye(n)
    return S * (target_norm / np.linalg.eigvalsh(S)[-1])


def sample_covariance(structure, n, p_min, p_max, rng):
    """Random SPD matrix of the given structure with spectrum in [p_min, p_max].

    The Gram-structured draws are affinely rescaled so their extreme
    eigenvalues land exactly on the interval endpoints, which exercises the
    boundary of the admissible set.
    """
    if structure == "scaled_identity":
        lam = rng.uniform(p_min, p_max)
        return SpdMatrix(lam * np.eye(n))
    if structure == "diagonal":
        d = rng.uniform(p_min, p_max, size=n)
        return SpdMatrix(np.diag(d))
    if structure == "tridiagonal":
        Ltri = np.diag(rng.uniform(0.3, 1.0, size=n))
        if n > 1:
            Ltri += np.diag(rng.uniform(-0.5, 0.5, size=n - 1), k=-1)
        M = Ltri @ Ltri.T
    elif structure == "full":
        G = rng.standard_normal((n, n))
        M = G @ G.T
    else:
        raise ValueError(f"unknown covariance structure {structure!r}")
    eigs = np.linalg.eigvalsh(M)
    lo, hi = eigs[0], eigs[-1]
    if n == 1 or hi - lo < 1e-12 or p_max - p_min < 1e-12:
        # degenerate spectrum or collapsed interval: any point inside works
        M = p_max * np.eye(n)
    else:
        alpha = (p_max - p_min) / (hi - lo)
        M = alpha * M + (p_min - alpha * lo) * np.eye(n)
    M = 0.5 * (M + M.T)
    return SpdMatrix(M)


def _sample_blocks(config, rng):
    blocks = []
    for _ in range(config.K):
        row = []
        for _ in range(config.J):
            if config.variant == "cgnet":
                B = _sample_spd(rng, config.n, config.p_max * rng.uniform(0.0, 1.0))
                mu = rng.uniform(-config.mu_bound, config.mu_bound)
                row.append((B, mu))
            else:
                ws = []
                for ell in range(1, config.Lc + 1):
                    shape = config.weight_shape(ell)
                    W = rng.standard_normal(shape)
                    nrm = spectral_norm(W)
                    target = config.weight_bounds[ell - 1] * rng.uniform(0.0, 1.0)
                    ws.append(W * (target / nrm) if nrm > 0 else W)
                delta = rng.uniform(-config.delta, config.delta)
                row.append(tuple(ws) + (delta,))
        blocks.append(tuple(row))
    return tuple(blocks)


def sample_parameters(config, seed):
    """Deterministic draw of a full parameter set inside its balls.

    ``seed`` is anything ``np.random.default_rng`` accepts; a ``Generator``
    is used as is, so callers can continue an existing stream. Directions
    are Gaussian; radii are scaled by an independent uniform factor in
    [0, 1] so samples reach the ball boundaries where the sensitivity bounds
    are tightest.
    """
    rng = np.random.default_rng(seed)
    P = sample_covariance(config.cov_structure, config.n, config.p_min, config.p_max, rng)
    return ParameterSet(P=P, blocks=_sample_blocks(config, rng))


def validate_parameters(theta, config, tol=1e-9):
    """Check every block against its ball constraint; raise on violation."""
    if theta.P.p_max > config.p_max * (1 + tol) or theta.P.p_min < config.p_min * (1 - tol):
        raise ValueError("covariance spectrum leaves [p_min, p_max]")
    if len(theta.blocks) != config.K or any(len(row) != config.J for row in theta.blocks):
        raise ValueError("parameter blocks do not match (K, J)")
    for k, row in enumerate(theta.blocks, start=1):
        for j, kj in enumerate(row, start=1):
            if config.variant == "cgnet":
                B, mu = kj
                if spectral_norm(B) > config.p_max * (1 + tol):
                    raise ValueError(f"B at layer {k} step {j} leaves its spectral ball")
                if abs(mu) > config.mu_bound * (1 + tol):
                    raise ValueError(f"mu at layer {k} step {j} leaves [-mu, mu]")
            else:
                for ell in range(1, config.Lc + 1):
                    W = kj[ell - 1]
                    if W.shape != config.weight_shape(ell):
                        raise ValueError(f"weight {ell} at layer {k} step {j} has wrong shape")
                    if spectral_norm(W) > config.weight_bounds[ell - 1] * (1 + tol):
                        raise ValueError(f"weight {ell} at layer {k} step {j} leaves its ball")
                if abs(kj[config.Lc]) > config.delta * (1 + tol):
                    raise ValueError(f"delta at layer {k} step {j} leaves [-delta, delta]")


def parameter_distance(t1, t2, config):
    """Block norms of the difference of two parameter sets.

    Returns ``(||P1 - P2||_2, dist)`` where ``dist[(k, j, d)]`` uses the
    spectral norm for matrix blocks and absolute value for scalars
    (1-based indices).
    """
    p_dist = spectral_norm(t1.P.P - t2.P.P)
    dist = {}
    for k in range(config.K):
        for j in range(config.J):
            b1, b2 = t1.blocks[k][j], t2.blocks[k][j]
            for d in range(config.D):
                x1, x2 = b1[d], b2[d]
                if np.ndim(x1) == 0:
                    dist[(k + 1, j + 1, d + 1)] = abs(float(x1) - float(x2))
                else:
                    dist[(k + 1, j + 1, d + 1)] = spectral_norm(np.asarray(x1) - np.asarray(x2))
    return p_dist, dist
