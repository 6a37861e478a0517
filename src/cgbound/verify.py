"""Randomized certification of the sensitivity inequalities.

Every target draws admissible inputs (scales inside their sup-norm ball,
covariances inside the bounded-spectrum SPD set, parameter blocks inside
their balls, Gaussian estimates as regularized least-squares images of
admissible scales), evaluates both sides of one inequality, and records
whether ``lhs <= rhs * (1 + 1e-9) + 1e-12`` together with the tightness
ratio lhs/rhs.

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
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
    _sample_blocks,
    _scale_update,
    _stack_blocks,
    forward,
    parameter_distance,
    sample_covariance,
    sample_parameters,
    subnet_forward,
)

__all__ = ["TARGETS", "TrialDims", "VerificationReport", "verify_lipschitz"]

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
        return {
            "target": self.target,
            "trials": self.trials,
            "passes": self.passes,
            "all_hold": self.all_hold,
            "median_tightness": self.median_tightness,
            "max_tightness": self.max_tightness,
            "seed": self.seed,
            "rel_tol": REL_TOL,
            "abs_tol": ABS_TOL,
        }


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
    if rng.integers(2) == 0:
        return NetworkConfig(
            variant="cgnet",
            n=n,
            K=K,
            J=J,
            bounds=dims.bounds,
            p_min=dims.p_min,
            p_max=dims.p_max,
            mu_bound=dims.mu_bound,
        )
    Lc = int(rng.integers(1, dims.lc_max + 1))
    filters = [1] + [int(rng.integers(1, 3)) for _ in range(Lc - 1)] + [1]
    return NetworkConfig(
        variant="drcgnet",
        n=n,
        K=K,
        J=J,
        bounds=dims.bounds,
        p_min=dims.p_min,
        p_max=dims.p_max,
        Lc=Lc,
        filters=tuple(filters),
        kernels=tuple(int(rng.integers(1, 4)) for _ in range(Lc)),
        weight_bounds=tuple(rng.uniform(dims.w_lo, dims.w_hi, size=Lc)),
        delta=dims.delta,
    )


def _admissible_scale(rng, config):
    # reachable region of the scale iterates: cgnet keeps them in [a, b]
    lo = config.bounds.a if config.variant == "cgnet" else 0.0
    return rng.uniform(lo, config.bounds.z_inf, size=config.n)


def _spd_inverse_norm(M):
    return float(1.0 / np.linalg.eigvalsh(M)[0])


# ---------------------------------------------------------------------------
# per-target trials: each returns (lhs, rhs)
# ---------------------------------------------------------------------------

def _trial_reg_inverse_norm(rng, dims):
    model = _sample_model(rng, dims)
    z = rng.uniform(-dims.bounds.z_inf, dims.bounds.z_inf, size=model.n)
    P = _sample_P(rng, model.n, dims)
    Az = model.A * z
    M = Az.T @ Az + P.P_inv
    return _spd_inverse_norm(M), P.p_max


def _trial_gram_diff(rng, dims):
    model = _sample_model(rng, dims)
    z_inf = dims.bounds.z_inf
    z1 = rng.uniform(-z_inf, z_inf, size=model.n)
    z2 = rng.uniform(-z_inf, z_inf, size=model.n)
    A1, A2 = model.A * z1, model.A * z2
    lhs = spectral_norm(A2.T @ A2 - A1.T @ A1)
    rhs = 2.0 * z_inf * model.norm2**2 * float(np.abs(z1 - z2).max())
    return lhs, rhs


def _trial_inverse_diff(rng, dims):
    n = int(rng.integers(2, dims.n_max + 1))
    P = _sample_P(rng, n, dims)
    Pt = _sample_P(rng, n, dims)
    lhs = spectral_norm(Pt.P_inv - P.P_inv)
    rhs = P.p_min_inv * Pt.p_min_inv * spectral_norm(P.P - Pt.P)
    return lhs, rhs


def _trial_reg_inverse_diff(rng, dims):
    model = _sample_model(rng, dims)
    z_inf = dims.bounds.z_inf
    z1 = rng.uniform(-z_inf, z_inf, size=model.n)
    z2 = rng.uniform(-z_inf, z_inf, size=model.n)
    P = _sample_P(rng, model.n, dims)
    Pt = _sample_P(rng, model.n, dims)
    A1, A2 = model.A * z1, model.A * z2
    M1, M2 = np.linalg.inv(np.array([A1.T @ A1 + P.P_inv, A2.T @ A2 + Pt.P_inv]))
    lhs = spectral_norm(M1 - M2)
    rhs = 2.0 * z_inf * model.norm2**2 * P.p_max * Pt.p_max * float(
        np.abs(z1 - z2).max()
    ) + P.cond * Pt.cond * spectral_norm(P.P - Pt.P)
    return lhs, rhs


def _trial_tikhonov_lipschitz(rng, dims):
    model = _sample_model(rng, dims)
    z_inf = dims.bounds.z_inf
    y = rng.standard_normal(model.m)
    z1 = rng.uniform(-z_inf, z_inf, size=model.n)
    z2 = rng.uniform(-z_inf, z_inf, size=model.n)
    P = _sample_P(rng, model.n, dims)
    Pt = _sample_P(rng, model.n, dims)
    t1, t2 = tikhonov_solve(model, np.array([z1, z2]), np.array([y, y]), (P, Pt))
    lhs = float(np.linalg.norm(t1 - t2))
    y2 = float(np.linalg.norm(y))
    c1, c2 = tikhonov_constants(y2, z_inf, P.p_max, Pt.p_max, P.cond * Pt.cond, model)
    rhs = c1 * float(np.abs(z1 - z2).max()) + c2 * spectral_norm(P.P - Pt.P)
    return lhs, rhs


def _trial_tikhonov_norm(rng, dims):
    model = _sample_model(rng, dims)
    z_inf = dims.bounds.z_inf
    y = rng.standard_normal(model.m)
    z = rng.uniform(-z_inf, z_inf, size=model.n)
    P = _sample_P(rng, model.n, dims)
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


def _trial_datafit_grad(rng, dims):
    model = _sample_model(rng, dims)
    z_inf = dims.bounds.z_inf
    y = rng.standard_normal(model.m)
    z1 = rng.uniform(-z_inf, z_inf, size=model.n)
    z2 = rng.uniform(-z_inf, z_inf, size=model.n)
    P1 = _sample_P(rng, model.n, dims)
    P2 = _sample_P(rng, model.n, dims)
    u1, u2 = tikhonov_solve(model, np.array([z1, z2]), np.array([y, y]), (P1, P2))
    Au1, Au2 = model.A * u1, model.A * u2
    lhs = float(np.linalg.norm(Au1.T @ (Au1 @ z1 - y) - Au2.T @ (Au2 @ z2 - y)))
    Lz, Lu = datafit_grad_constants(z_inf, dims.p_max, float(np.linalg.norm(y)), model)
    rhs = Lz * float(np.linalg.norm(z1 - z2)) + Lu * float(np.linalg.norm(u1 - u2))
    return lhs, rhs


def _trial_scale_mapping(rng, dims):
    model = _sample_model(rng, dims)
    J = int(rng.integers(1, dims.kj_max + 1))
    config = _sample_config(rng, dims, model.n, K=1, J=J)
    y = rng.standard_normal(model.m)
    P1 = _sample_P(rng, model.n, dims, config.cov_structure)
    P2 = _sample_P(rng, model.n, dims, config.cov_structure)
    s = np.array([_admissible_scale(rng, config), _admissible_scale(rng, config)])
    yy = np.array([y, y])
    u = tikhonov_solve(model, s, yy, (P1, P2))
    u1, u2 = u
    z1 = _admissible_scale(rng, config)
    z2 = _admissible_scale(rng, config)
    b1, b2 = _sample_blocks(config, rng), _sample_blocks(config, rng)

    # both chains as one 2-row chain
    blocks = _stack_blocks((b1, b2))
    a = np.array([z1, z2])
    for j in range(J):
        a = _scale_update(a, u, yy, model, [b[0, j] for b in blocks], config)
    lhs = float(np.linalg.norm(a[0] - a[1]))

    # K = 1, so the layer constants are the J-fold composition itself
    cns = network_constants_exact(config, model, y, P1, P2)
    dist = _block_norms([x1 - x2 for x1, x2 in zip(b1, b2)])
    rhs = cns.r_hat1 * float(np.linalg.norm(z1 - z2))
    rhs += cns.r_hat2 * float(np.linalg.norm(u1 - u2))
    return lhs, _theta_sum(cns.r_hat3, dist[0], rhs)


def _forward_pair(rng, dims):
    model = _sample_model(rng, dims)
    K, J = _sample_kj(rng, dims)
    config = _sample_config(rng, dims, model.n, K, J)
    y = rng.standard_normal(model.m)
    t1 = sample_parameters(config, rng)
    t2 = sample_parameters(config, rng)
    trace = forward(y, (t1, t2), config, model)  # row 0 runs t1, row 1 runs t2
    cns = network_constants_exact(config, model, y, t1.P, t2.P)
    p_dist, dist = parameter_distance(t1, t2)
    return trace, cns, p_dist, dist


def _theta_sum(coeffs, dist, total):
    """``total`` plus the coefficient-weighted block distances, added one term
    at a time in (k, j, d) order (a numpy reduction would reorder the sum)."""
    for c, x in zip(coeffs.ravel().tolist(), dist.ravel().tolist(), strict=True):
        total += c * x
    return total


def _trial_scale_chain(rng, dims):
    trace, cns, p_dist, dist = _forward_pair(rng, dims)
    z = trace.z[-1][-1]
    lhs = float(np.linalg.norm(z[0] - z[1]))
    rhs = cns.c_hat1 * p_dist + _theta_sum(cns.c_hat2, dist, 0.0)
    return lhs, rhs


def _trial_network_lipschitz(rng, dims):
    trace, cns, p_dist, dist = _forward_pair(rng, dims)
    lhs = float(np.linalg.norm(trace.output[0] - trace.output[1]))
    rhs = cns.kappa * p_dist + _theta_sum(cns.kappa_kdj, dist, 0.0)
    return lhs, rhs


def _sample_stack(rng, max_width=10):
    T = int(rng.integers(1, 4))
    widths = [int(rng.integers(2, max_width + 1)) for _ in range(T + 1)]
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
    ic, wc = fc_lipschitz(caps, 1.0, float(np.linalg.norm(x1)))
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
    "tikhonov_lipschitz": _trial_tikhonov_lipschitz,
    "tikhonov_norm": _trial_tikhonov_norm,
    "scale_chain": _trial_scale_chain,
    "network_lipschitz": _trial_network_lipschitz,
    "datafit_grad": _trial_datafit_grad,
    "subnet_norm": _trial_subnet_norm,
    "subnet_lipschitz": _trial_subnet_lipschitz,
}


def verify_lipschitz(target, trials, dims=None, seed=0):
    """Run ``trials`` randomized checks of one inequality target.

    Raises ``ValueError`` for unknown targets. The report records the pass
    count and the median and maximum tightness ratio lhs/rhs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        trial_fn = TARGETS[target]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise ValueError(f"unknown target {target!r}; known targets: {known}") from None
    dims = dims or TrialDims()
    passes = 0
    ratios = np.empty(trials)
    for i in range(trials):
        lhs, rhs = trial_fn(_trial_rng(seed, i), dims)
        if lhs <= rhs * (1.0 + REL_TOL) + ABS_TOL:
            passes += 1
        if rhs > 0.0:
            ratios[i] = lhs / rhs
        else:
            ratios[i] = 1.0 if lhs <= ABS_TOL else math.inf
    return VerificationReport(
        target=target,
        trials=trials,
        passes=passes,
        median_tightness=float(np.median(ratios)),
        max_tightness=float(ratios.max()),
        seed=int(seed),
    )
