"""Randomized certification of the sensitivity inequalities.

Every target draws admissible inputs (scales inside their sup-norm ball,
covariances inside the bounded-spectrum SPD set, parameter blocks inside
their balls, Gaussian estimates as regularized least-squares images of
admissible scales), evaluates both sides of one inequality, and records
whether ``lhs <= rhs * (1 + 1e-9) + 1e-12`` together with the tightness
ratio lhs/rhs. A left side that the networks compute (data-fit gradient,
Tikhonov solve, forward pass, ReLU chain) runs the package's own kernels;
the 2-row scale chain of ``scale_mapping`` runs ``forward``'s layer loop.
The solve-level targets draw their model, measurement, scale rows and
covariances through one helper, ``_draw``.

Targets
-------
reg_inverse_norm     spectral norm of (A_z^T A_z + P^-1)^-1 capped by ||P||_2
gram_diff            movement of A_z^T A_z under scale movement
inverse_diff         movement of P^-1 under movement of P
reg_inverse_diff     movement of the regularized inverse under both
scale_mapping        J-fold scale-update composition within one layer
tikhonov_lipschitz   movement of the regularized least-squares estimate
tikhonov_norm        2- and sup-norm caps on the estimate itself
scale_chain          final scale iterate across all K layers
network_lipschitz    end-to-end network output under parameter movement
datafit_grad         movement of the data-fidelity gradient
subnet_norm          norm cap of the dense ReLU chain
subnet_lipschitz     joint input/weight sensitivity of the chain

Per-trial randomness is derived from (seed, trial index), so trials are
independent of execution order and may be distributed across workers.
``verify_targets`` runs a list of targets in one pass, drawing once per trial
for the targets that share a draw: ``scale_chain`` and ``network_lipschitz``
check one forward pair, ``tikhonov_lipschitz`` and ``datafit_grad`` one solve pair.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .backend import kernels
from .lipschitz import (
    datafit_grad_constants,
    fc_lipschitz,
    network_constants_exact,
    tikhonov_constants,
)
from .model import (
    MeasurementModel,
    SignalBounds,
    spectral_norm,
    tikhonov_solve,
)
from .networks import (
    NetworkConfig,
    _block_norms,
    _layer,
    _sample_blocks,
    _scale_floor,
    _stack_blocks,
    forward,
    parameter_distance,
    sample_covariance,
    sample_parameters,
    subnet_forward,
)

__all__ = ["TARGETS", "TrialDims", "VerificationReport", "verify_lipschitz", "verify_targets"]

REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class TrialDims:
    """Problem-size caps and ball radii used by the randomized trials."""

    n_max: int = 12
    m_max: int = 6
    kj_max: int = 12
    lc_max: int = 2
    p_min: float = 0.5
    p_max: float = 2.0
    mu_bound: float = 1.5
    delta: float = 0.7
    w_lo: float = 0.3
    w_hi: float = 1.2
    bounds: SignalBounds = field(default_factory=SignalBounds.default)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one randomized certification run."""

    target: str
    trials: int
    passes: int
    median_tightness: float
    max_tightness: float
    seed: int

    @property
    def all_hold(self):
        return self.passes == self.trials

    def to_dict(self):
        out = {**asdict(self), "all_hold": self.all_hold, "rel_tol": REL_TOL, "abs_tol": ABS_TOL}
        # a failing trial can make a tightness ratio inf, written as null
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in out.items()}


def _trial_rng(seed, index):
    return np.random.default_rng((int(seed), int(index)))


def _sample_model(rng, dims):
    m = int(rng.integers(1, dims.m_max + 1))
    n = int(rng.integers(2, dims.n_max + 1))
    return MeasurementModel(rng.standard_normal((m, n)))


def _sample_P(rng, n, dims, structure=None):
    if structure is None:
        structure = ("scaled_identity", "diagonal", "tridiagonal", "full")[int(rng.integers(4))]
    return sample_covariance(structure, n, dims.p_min, dims.p_max, rng)


def _sample_kj(rng, dims):
    K = int(rng.integers(1, 4))
    J = int(rng.integers(1, dims.kj_max // K + 1))
    return K, J


def _sample_config(rng, dims, n, K, J):
    shared = dict(n=n, K=K, J=J, bounds=dims.bounds, p_min=dims.p_min, p_max=dims.p_max)
    if rng.integers(2) == 0:
        return NetworkConfig(variant="cgnet", mu_bound=dims.mu_bound, **shared)
    Lc = int(rng.integers(1, dims.lc_max + 1))
    filters = [1] + [int(rng.integers(1, 3)) for _ in range(Lc - 1)] + [1]
    return NetworkConfig(
        variant="drcgnet",
        Lc=Lc,
        filters=tuple(filters),
        kernels=tuple(int(rng.integers(1, 4)) for _ in range(Lc)),
        weight_bounds=tuple(rng.uniform(dims.w_lo, dims.w_hi, size=Lc)),
        delta=dims.delta,
        **shared,
    )


def _admissible_scales(rng, config):
    """Two scale rows in the region the iterates reach: cgnet keeps them in [a, b]."""
    return rng.uniform(_scale_floor(config), config.bounds.z_inf, size=(2, config.n))


def _draw(rng, dims, rows, covariances, measurement=False):
    """``(model, y, z, Ps)`` drawn in that order: a model, a measurement ``y``
    (None unless ``measurement``), a ``(rows, n)`` stack of scales in the
    z_inf ball, and a list of ``covariances`` covariances. One ``(rows, n)``
    uniform draw reads the stream as ``rows`` n-vector draws do."""
    model = _sample_model(rng, dims)
    y = rng.standard_normal(model.m) if measurement else None
    z = rng.uniform(-dims.bounds.z_inf, dims.bounds.z_inf, size=(rows, model.n))
    return model, y, z, [_sample_P(rng, model.n, dims) for _ in range(covariances)]


# ---------------------------------------------------------------------------
# per-target trials: each returns (lhs, rhs), or for the targets that share
# one draw a dict of zero-argument checks returning it, by target
# ---------------------------------------------------------------------------

def _trial_reg_inverse_norm(rng, dims):
    model, _, (z,), (P,) = _draw(rng, dims, 1, 1)
    Az = model.A * z
    return float(1.0 / np.linalg.eigvalsh(Az.T @ Az + P.P_inv)[0]), P.p_max


def _trial_gram_diff(rng, dims):
    model, _, (z1, z2), _ = _draw(rng, dims, 2, 0)
    A1, A2 = model.A * z1, model.A * z2
    lhs = spectral_norm(A2.T @ A2 - A1.T @ A1)
    rhs = 2.0 * dims.bounds.z_inf * model.norm2**2 * float(np.abs(z1 - z2).max())
    return lhs, rhs


def _trial_inverse_diff(rng, dims):
    n = int(rng.integers(2, dims.n_max + 1))
    P = _sample_P(rng, n, dims)
    Pt = _sample_P(rng, n, dims)
    lhs = spectral_norm(Pt.P_inv - P.P_inv)
    rhs = P.p_min_inv * Pt.p_min_inv * spectral_norm(P.P - Pt.P)
    return lhs, rhs


def _trial_reg_inverse_diff(rng, dims):
    model, _, (z1, z2), (P, Pt) = _draw(rng, dims, 2, 2)
    A1, A2 = model.A * z1, model.A * z2
    M1, M2 = np.linalg.inv(np.array([A1.T @ A1 + P.P_inv, A2.T @ A2 + Pt.P_inv]))
    lhs = spectral_norm(M1 - M2)
    rhs = 2.0 * dims.bounds.z_inf * model.norm2**2 * P.p_max * Pt.p_max * float(
        np.abs(z1 - z2).max()
    ) + P.cond * Pt.cond * spectral_norm(P.P - Pt.P)
    return lhs, rhs


def _solve_pair(rng, dims):
    """``(model, y, z, P1, P2, u)``: two scale rows ``z`` and the rows ``u``
    of their Tikhonov solves with y, P1 and y, P2."""
    model, y, z, (P1, P2) = _draw(rng, dims, 2, 2, measurement=True)
    return model, y, z, P1, P2, tikhonov_solve(model, z, np.array([y, y]), (P1, P2))


def _trial_solve_pair(rng, dims):
    """The ``tikhonov_lipschitz`` and ``datafit_grad`` checks of one solve pair."""
    model, y, z, P1, P2, u = _solve_pair(rng, dims)

    def tikhonov():
        c1, c2 = tikhonov_constants(float(np.linalg.norm(y)), dims.bounds.z_inf, P1.p_max,
                                    P2.p_max, P1.cond * P2.cond, model)
        rhs = c1 * float(np.abs(z[0] - z[1]).max()) + c2 * spectral_norm(P1.P - P2.P)
        return float(np.linalg.norm(u[0] - u[1])), rhs

    def datafit():
        g = kernels["datafit_grad"](model.A, u, z, y)
        Lz, Lu = datafit_grad_constants(dims.bounds.z_inf, dims.p_max, float(np.linalg.norm(y)), model)
        rhs = Lz * float(np.linalg.norm(z[0] - z[1])) + Lu * float(np.linalg.norm(u[0] - u[1]))
        return float(np.linalg.norm(g[0] - g[1])), rhs

    return {"tikhonov_lipschitz": tikhonov, "datafit_grad": datafit}


def _trial_tikhonov_norm(rng, dims):
    model, y, (z,), (P,) = _draw(rng, dims, 1, 1, measurement=True)
    t = tikhonov_solve(model, z, y, P)
    zi = float(np.abs(z).max())
    lhs2 = float(np.linalg.norm(t))
    rhs2 = zi * P.p_max * model.norm2 * float(np.linalg.norm(y))
    lhsi = float(np.abs(t).max())
    rhsi = zi * P.p_max * model.norm_inf * float(np.abs(y).max())
    # report the tighter of the two ratios as the trial outcome; both must hold
    if lhs2 * rhsi > lhsi * rhs2:
        return lhs2, rhs2
    return lhsi, rhsi


def _trial_scale_mapping(rng, dims):
    model = _sample_model(rng, dims)
    J = int(rng.integers(1, dims.kj_max + 1))
    config = _sample_config(rng, dims, model.n, K=1, J=J)
    y = rng.standard_normal(model.m)
    P1 = _sample_P(rng, model.n, dims, config.cov_structure)
    P2 = _sample_P(rng, model.n, dims, config.cov_structure)
    yy = np.array([y, y])
    u = tikhonov_solve(model, _admissible_scales(rng, config), yy, (P1, P2))
    z = _admissible_scales(rng, config)
    b1, b2 = _sample_blocks(config, rng), _sample_blocks(config, rng)

    # both chains as one 2-row chain through forward's layer loop
    a = _layer(z, u, yy, model, _stack_blocks((b1, b2)), 0, config)[-1]
    lhs = float(np.linalg.norm(a[0] - a[1]))

    # K = 1, so the layer constants are the J-fold composition itself
    cns = network_constants_exact(config, model, y, P1, P2)
    dist = _block_norms([x1 - x2 for x1, x2 in zip(b1, b2)])
    rhs = cns.r_hat1 * float(np.linalg.norm(z[0] - z[1]))
    rhs += cns.r_hat2 * float(np.linalg.norm(u[0] - u[1]))
    return lhs, _theta_sum(cns.r_hat3, dist[0], rhs)


def _theta_sum(coeffs, dist, total):
    """``total`` plus the coefficient-weighted block distances, added one term
    at a time in (k, j, d) order (a numpy reduction would reorder the sum)."""
    for c, x in zip(coeffs.ravel().tolist(), dist.ravel().tolist(), strict=True):
        total += c * x
    return total


def _trial_forward_pair(rng, dims):
    """The ``scale_chain`` and ``network_lipschitz`` checks of one forward pair."""
    model = _sample_model(rng, dims)
    K, J = _sample_kj(rng, dims)
    config = _sample_config(rng, dims, model.n, K, J)
    y = rng.standard_normal(model.m)
    t1 = sample_parameters(config, rng)
    t2 = sample_parameters(config, rng)
    trace = forward(y, (t1, t2), config, model)  # row 0 runs t1, row 1 runs t2
    cns = network_constants_exact(config, model, y, t1.P, t2.P)
    p_dist, dist = parameter_distance(t1, t2)

    def chain():
        z = trace.z[-1][-1]
        return (float(np.linalg.norm(z[0] - z[1])),
                cns.c_hat1 * p_dist + _theta_sum(cns.c_hat2, dist, 0.0))

    def network():
        return (float(np.linalg.norm(trace.output[0] - trace.output[1])),
                cns.kappa * p_dist + _theta_sum(cns.kappa_kdj, dist, 0.0))

    return {"scale_chain": chain, "network_lipschitz": network}


def _sample_stack(rng):
    T = int(rng.integers(1, 4))
    widths = [int(rng.integers(2, 11)) for _ in range(T + 1)]
    return [rng.standard_normal((widths[t + 1], widths[t])) for t in range(T)]


def _trial_subnet_norm(rng, dims):
    Ws = _sample_stack(rng)
    x = rng.standard_normal(Ws[0].shape[1])
    lhs = float(np.linalg.norm(np.maximum(subnet_forward(Ws, x), 0.0)))
    rhs = float(np.prod([spectral_norm(W) for W in Ws])) * float(np.linalg.norm(x))
    return lhs, rhs


def _trial_subnet_lipschitz(rng, dims):
    W1 = _sample_stack(rng)
    W2 = [rng.standard_normal(W.shape) for W in W1]
    x1 = rng.standard_normal(W1[0].shape[1])
    x2 = rng.standard_normal(W1[0].shape[1])
    caps = [max(spectral_norm(a), spectral_norm(b)) for a, b in zip(W1, W2)]
    ic, wc = fc_lipschitz(caps, float(np.linalg.norm(x1)))
    lhs = float(np.linalg.norm(subnet_forward(W1, x1) - subnet_forward(W2, x2)))
    rhs = ic * float(np.linalg.norm(x1 - x2))
    for t, (a, b) in enumerate(zip(W1, W2)):
        rhs += wc[t] * spectral_norm(a - b)
    return lhs, rhs


TARGETS = {
    "reg_inverse_norm": _trial_reg_inverse_norm,
    "gram_diff": _trial_gram_diff,
    "inverse_diff": _trial_inverse_diff,
    "reg_inverse_diff": _trial_reg_inverse_diff,
    "scale_mapping": _trial_scale_mapping,
    "tikhonov_lipschitz": _trial_solve_pair,
    "tikhonov_norm": _trial_tikhonov_norm,
    "scale_chain": _trial_forward_pair,
    "network_lipschitz": _trial_forward_pair,
    "datafit_grad": _trial_solve_pair,
    "subnet_norm": _trial_subnet_norm,
    "subnet_lipschitz": _trial_subnet_lipschitz,
}


def verify_targets(targets, trials, dims=None, seed=0):
    """Run ``trials`` randomized checks of each inequality target in ``targets``.

    Returns one report per entry of ``targets``, in order; a repeated name
    gets equal reports. Trial ``i`` calls each distinct trial function once
    on the ``(seed, i)`` stream, so targets that share a draw (the forward
    pair, the solve pair) share it, and each report equals the target's own
    run. Raises ``ValueError`` for unknown targets. A report records the
    pass count and the median and maximum tightness ratio lhs/rhs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    groups, pairs = {}, {}  # trial function -> its distinct targets; target -> its (lhs, rhs)
    for target in dict.fromkeys(targets):
        if target not in TARGETS:
            known = ", ".join(sorted(TARGETS))
            raise ValueError(f"unknown target {target!r}; known targets: {known}")
        groups.setdefault(TARGETS[target], []).append(target)
        pairs[target] = []
    dims = dims or TrialDims()
    for i in range(trials):
        for trial_fn, names in groups.items():
            got = trial_fn(_trial_rng(seed, i), dims)
            for target in names:
                pairs[target].append(got[target]() if isinstance(got, dict) else got)
    reports = {}
    for target, trial_pairs in pairs.items():
        passes = int(sum(lhs <= rhs * (1.0 + REL_TOL) + ABS_TOL for lhs, rhs in trial_pairs))
        ratios = np.array([lhs / rhs if rhs > 0.0 else 1.0 if lhs <= ABS_TOL else math.inf
                           for lhs, rhs in trial_pairs])
        reports[target] = VerificationReport(target, trials, passes, float(np.median(ratios)),
                                             float(ratios.max()), int(seed))
    return [reports[target] for target in targets]


def verify_lipschitz(target, trials, dims=None, seed=0):
    """The report of :func:`verify_targets` for the one target ``target``."""
    return verify_targets([target], trials, dims, seed)[0]
