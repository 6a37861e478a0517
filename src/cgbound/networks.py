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
forward pass of that row alone. ``forward`` also takes a tuple of parameter
sets for one measurement, run as one pass along the same leading axis: each
block stack is joined once per call, and each solve stacks its covariances.
"""

import math
from dataclasses import dataclass, field

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
    "subnet_forward",
    "forward",
    "sample_parameters",
    "sample_covariance",
    "validate_parameters",
    "parameter_distance",
]

VARIANTS = ("cgnet", "drcgnet")
BALL_TOL = 1e-9  # relative slack of validate_parameters' ball, spectrum and structure checks


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, admissible-region radii, and parameter-ball radii.

    ``K`` outer layers each apply ``J`` scale updates. The covariance ball
    is the set of SPD matrices with spectrum inside ``[p_min, p_max]``,
    structured as a scaled identity for ``cgnet`` and tridiagonal for
    ``drcgnet``.

    ``block_specs`` is the one table of the block layout, set at
    construction: the ``(shape, covering dimension, ball radius)`` of each
    block d = 1 .. D of one scale update, the scalar block (shape ``()``)
    last. cgnet: B (n x n and symmetric, so of dimension n(n+1)/2, radius
    p_max), then mu (radius mu_bound). drcgnet: the subnetwork weight W_ell
    (n f_ell x n f_(ell-1), a convolution of dimension f_(ell-1) f_ell
    k_ell^2, spectral-norm radius w_ell) for ell = 1 .. Lc, then the step
    size delta. Kernel sizes enter only the covering dimensions.
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
    # set in __post_init__, not a cached_property: that writes the instance
    # __dict__, which makes every attribute read of the config slower
    block_specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if not (0 < self.p_min <= self.p_max < math.inf):
            raise ValueError("require 0 < p_min <= p_max < inf")
        object.__setattr__(self, "filters", tuple(int(f) for f in self.filters))
        object.__setattr__(self, "kernels", tuple(int(k) for k in self.kernels))
        object.__setattr__(self, "weight_bounds", tuple(float(w) for w in self.weight_bounds))
        n = self.n
        if self.variant == "cgnet":
            if not 0 < self.mu_bound < math.inf:
                raise ValueError("cgnet requires a positive finite mu_bound")
            weights, scalar_radius = (((n, n), n * (n + 1) // 2, self.p_max),), self.mu_bound
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
            if len(self.weight_bounds) != self.Lc or not all(
                    0 < w < math.inf for w in self.weight_bounds):
                raise ValueError("weight_bounds must list Lc positive finite radii")
            if not 0 < self.delta < math.inf:
                raise ValueError("drcgnet requires a positive finite delta")
            f, k, w = self.filters, self.kernels, self.weight_bounds
            weights = tuple(((n * f[ell], n * f[ell - 1]), f[ell - 1] * f[ell] * k[ell - 1] ** 2, w[ell - 1])
                            for ell in range(1, self.Lc + 1))
            scalar_radius = self.delta
        object.__setattr__(self, "block_specs", weights + (((), 1, scalar_radius),))

    @property
    def D(self):
        """Number of parameter blocks per scale update."""
        return len(self.block_specs)

    @property
    def cov_structure(self):
        return "scaled_identity" if self.variant == "cgnet" else "tridiagonal"


@dataclass(frozen=True)
class ParameterSet:
    """Covariance plus one stack of parameter blocks per block index.

    ``blocks[d]`` holds block d+1 of every scale update: a ``(K, J, r, c)``
    stack for a matrix block, a ``(K, J)`` array for a scalar block. So
    ``[b[k, j] for b in blocks]`` are the D blocks of scale update j+1 in
    layer k+1: ``(B, mu)`` for cgnet, ``(W_1, ..., W_Lc, delta)`` for drcgnet.
    """

    P: SpdMatrix
    blocks: tuple


@dataclass(frozen=True)
class ForwardTrace:
    """All iterates of one unrolled forward pass, each ``(n,)``, ``(B, n)`` or ``(T, n)``."""

    z0: np.ndarray
    z: tuple  # z[k][j], k = 0..K-1, j = 0..J-1
    u: tuple  # u[0] = initial estimate, u[k] after layer k
    output: np.ndarray


def subnet_forward(weights, z):
    """Dense feed-forward chain with ReLU between layers, linear last layer.

    ``z`` is one input vector or a stack of them along a leading axis. A
    weight may be a matching stack of matrices, one per row.
    """
    x = np.ascontiguousarray(z, dtype=np.float64)
    last = len(weights) - 1
    for i, W in enumerate(weights):
        W = np.asarray(W, dtype=np.float64)
        if W.shape[-1] != x.shape[-1]:
            raise ValueError(
                f"layer {i + 1} expects input of length {W.shape[-1]}, got {x.shape[-1]}"
            )
        x = (W @ x[..., None])[..., 0]
        if i != last:
            x = np.maximum(x, 0.0)
    return x


def _initial_scale(y, model, config):
    """Normalized back-projection clamped into the admissible scale region."""
    z_init = (model.A.T @ y[..., None])[..., 0] / model.norm2
    return mrelu(z_init, _scale_floor(config), config.bounds.z_inf)


def _scale_floor(config):
    """Lower end of the admissible scale region: 0 for drcgnet; for cgnet the
    clamp floor ``a``, so that the log-regularizer gradient is defined."""
    return config.bounds.a if config.variant == "cgnet" else 0.0


def _scale_update(z, u, y, model, theta_kj, config):
    """One scale update: the variant's step, clamped to [0, z_inf]. ``theta_kj``
    holds its D blocks, each stacked per row for a stack of parameter sets.
    A gradient that overflows is recomputed by the kernel; the caller
    silences numpy's warnings about it."""
    b = config.bounds
    if config.variant == "cgnet":
        B, mu = theta_kj
        mu = np.asarray(mu, dtype=np.float64)
        if np.any((mu != 0.0)[..., None] & (z <= 0.0)):
            raise ValueError("cgnet scale step with mu != 0 requires strictly positive z")
        out = kernels["cgnet_step"](z, u, y, model.A, B, mu, b.a, b.b, b.xi)
    else:
        v = kernels["drcgnet_vstep"](z, u, y, model.A, theta_kj[-1], b.xi)
        out = v + subnet_forward(theta_kj[:-1], z)
    return mrelu(out, 0.0, b.z_inf)


def _layer(z, u, y, model, blocks, k, config):
    """The J scale iterates of layer ``k + 1``, from ``z`` with the Gaussian estimate ``u``."""
    zk = []
    for j in range(config.J):
        z = _scale_update(z, u, y, model, [b[k, j] for b in blocks], config)
        zk.append(z)
    return tuple(zk)


def _stack_blocks(grids):
    """T block tuples stacked per block index along axis 2: ``blocks[d][k, j]``
    is then a ``(T, r, c)`` stack of matrix blocks or a ``(T,)`` array of scalars."""
    return tuple(np.stack(bs, axis=2) for bs in zip(*grids, strict=True))


def forward(y, theta, config, model):
    """Run the unrolled network and return the full iterate trace.

    The output is the Hadamard product of the final scale and Gaussian
    estimates projected onto the c_max ball, so ``||output||_2 <= c_max``
    and every scale iterate lies in ``[0, z_inf]`` by construction.

    ``y`` is one measurement of shape ``(m,)`` or a ``(B, m)`` stack of
    them; every field of the trace then has shape ``(n,)`` or ``(B, n)``,
    and row ``i`` of each equals the trace of ``forward(y[i], ...)``
    bitwise. ``theta`` is one ``ParameterSet``, or a tuple of T of them for
    one measurement ``y``: every field then has shape ``(T, n)``, and row
    ``t`` equals the trace of ``forward(y, theta[t], ...)`` bitwise.

    A non-finite ``y`` raises ``ValueError`` naming its first bad row. A
    singular solve raises ``NumericalFailure``, as does the inf or NaN that an
    overflow in the layers leaves, so numpy's warnings about it are silenced.
    """
    y = _as_rows(y, model.m, "y")
    _check_finite_rows(y, ValueError, "y has")
    if config.n != model.n:
        raise ValueError("config.n and model.n disagree")
    if isinstance(theta, ParameterSet):
        P, blocks = theta.P, theta.blocks
    else:
        theta = tuple(theta)
        if not theta or not all(isinstance(t, ParameterSet) for t in theta):
            raise TypeError("theta must be a ParameterSet or a nonempty tuple of them")
        if y.ndim != 1:
            raise ValueError(f"a tuple of parameter sets takes one y of shape ({model.m},)")
        P, blocks = tuple(t.P for t in theta), _stack_blocks([t.blocks for t in theta])
        y = np.array([y] * len(theta))
    with np.errstate(over="ignore", invalid="ignore"):
        z = _initial_scale(y, model, config)
        z0 = z
        u = tikhonov_solve(model, z, y, P)
        us = [u]
        zs = []
        for k in range(config.K):
            zs.append(_layer(z, u, y, model, blocks, k, config))
            z = zs[-1][-1]
            u = tikhonov_solve(model, z, y, P)
            us.append(u)
        output = ball_project(z * u, config.bounds.c_max)
    return ForwardTrace(z0=z0, z=tuple(zs), u=tuple(us), output=output)


# ---------------------------------------------------------------------------
# sampling inside the admissible parameter balls
# ---------------------------------------------------------------------------

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
    """Blocks inside their balls: Gaussian directions, uniform radius factors.

    Every draw is made first, in block order, with the shapes and radii of
    ``config.block_specs``; then one stacked ``eigvalsh``
    (cgnet) or one stacked SVD per weight layer (drcgnet) sets the norms of
    all K*J steps, and one broadcast product rescales them. Returns the
    ``ParameterSet.blocks`` tuple: one ``(K, J, ...)`` stack per block index.
    """
    kj = config.K * config.J
    *weights, (_, _, scalar_radius) = config.block_specs
    scalars = []
    if config.variant == "cgnet":
        ((shape, _, radius),) = weights
        radii, mats = np.empty(kj), []
        for i in range(kj):
            radii[i] = radius * rng.random()
            G = rng.standard_normal(shape)
            mats.append(G @ G.T + 1e-3 * np.eye(config.n))
            scalars.append(rng.uniform(-scalar_radius, scalar_radius))
        S = np.array(mats)
        blocks = [S * (radii / np.linalg.eigvalsh(S)[:, -1])[:, None, None]]
    else:
        mats, radii = [[] for _ in weights], np.empty((len(weights), kj))
        for i in range(kj):
            for ell, (shape, _, radius) in enumerate(weights):
                mats[ell].append(rng.standard_normal(shape))
                radii[ell, i] = radius * rng.random()
            scalars.append(rng.uniform(-scalar_radius, scalar_radius))
        blocks = []
        for ms, r in zip(mats, radii):
            W = np.array(ms)
            nrm = spectral_norm(W)
            blocks.append(W * np.divide(r, nrm, out=np.ones(kj), where=nrm > 0)[:, None, None])
    blocks.append(scalars)
    return tuple(np.reshape(b, (config.K, config.J) + np.shape(b)[1:]) for b in blocks)


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


def _block_norms(blocks):
    """``(K, J, D)`` norms of ``ParameterSet.blocks``-shaped stacks: one stacked
    SVD per matrix stack (spectral norms), absolute values of scalar stacks."""
    return np.stack([spectral_norm(b) if np.ndim(b) > 2 else np.abs(b) for b in blocks], axis=-1)


def validate_parameters(theta, config):
    """Check the covariance and every block stack against their balls; raise on violation.

    The covariance needs its spectrum in ``[p_min, p_max]``, then the
    structure ``config.cov_structure``: each entry of ``P - P[0, 0] I``
    (cgnet) or outside the three middle diagonals (drcgnet) at most
    ``BALL_TOL * ||P||_2`` in absolute value.
    """
    if theta.P.p_max > config.p_max * (1 + BALL_TOL) or theta.P.p_min < config.p_min * (1 - BALL_TOL):
        raise ValueError("covariance spectrum leaves [p_min, p_max]")
    P = theta.P.P
    if config.variant == "cgnet":
        off = P - P[0, 0] * np.eye(config.n)
    else:
        off = P - np.triu(np.tril(P, 1), -1)
    if np.max(np.abs(off)) > BALL_TOL * theta.P.p_max:
        raise ValueError(f"covariance is not {config.cov_structure}")
    specs = config.block_specs
    if len(theta.blocks) != len(specs):
        raise ValueError(f"expected {len(specs)} block stacks, got {len(theta.blocks)}")
    for d, (b, (shape, _, _)) in enumerate(zip(theta.blocks, specs), start=1):
        if np.shape(b) != (config.K, config.J) + shape:
            raise ValueError(f"block {d} stack has shape {np.shape(b)}, "
                             f"expected {(config.K, config.J) + shape}")
    radii = np.array([radius for _, _, radius in specs])
    outside = np.argwhere(~(_block_norms(theta.blocks) <= radii * (1 + BALL_TOL)))  # NaN is outside
    if outside.size:
        k, j, d = outside[0] + 1
        raise ValueError(f"block {d} at layer {k} step {j} leaves its ball")


def parameter_distance(t1, t2):
    """Block norms of the difference of two parameter sets.

    Returns ``(||P1 - P2||_2, dist)`` where ``dist[k, j, d]`` is the distance
    of block d+1 of scale update j+1 in layer k+1, a ``(K, J, D)`` array:
    spectral norm for matrix blocks, absolute value for scalars.
    """
    p_dist = spectral_norm(t1.P.P - t2.P.P)
    return p_dist, _block_norms([b1 - b2 for b1, b2 in zip(t1.blocks, t2.blocks, strict=True)])
