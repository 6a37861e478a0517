"""Sensitivity constants of the unrolled networks.

Builds the full chain from per-step contraction constants of a single scale
update, through their aggregation over the J updates of one layer and the K
layers of the network, up to the end-to-end coefficients that bound how much
the network output can move when the covariance or any scale-update
parameter moves.

The aggregated constants grow geometrically in K*J and overflow float64 at
the sizes the scaling studies use, so every chained quantity is stored in
log form (``log_*`` fields) only; the generalization-bound evaluators
consume only the logs, and each linear value is derived from its log the
first time it is read.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backend import kernels

__all__ = [
    "H_MAX",
    "TAU_H",
    "AggregateConstants",
    "tikhonov_constants",
    "network_constants",
    "network_constants_exact",
    "datafit_grad_constants",
    "fc_lipschitz",
]

# Extrema of the exp-scale regularizer derivatives over [1, inf), which holds
# every cgnet scale since NetworkConfig requires 1 <= a <= z_inf: max of
# |log(z)/z| is 1/e (at z = e), and max of its derivative's magnitude
# |(1 - log z)/z^2| is 1 (at z = 1).
H_MAX = math.exp(-1.0)
TAU_H = 1.0


def _safe_log(x):
    return -math.inf if x == 0.0 else math.log(x)


def _logsumexp(values):
    """``log(sum(exp(values)))`` of a float64 array, shifted by its maximum."""
    if values.size == 1:  # the exp/log round trip below returns v + 0.0 exactly
        return float(values[0] + 0.0)
    hi = np.maximum.reduce(values)
    return float(hi + np.log(np.add.reduce(np.exp(values - hi))))


_LN2 = math.log(2.0)


def _logaddexp(x, y):
    """``np.logaddexp`` of two floats, by numpy's own formula on libm calls.

    Equal arguments (equal infinities included) give ``x + ln 2``; otherwise
    the larger one plus ``log1p(exp(-|x - y|))``; a NaN difference is
    returned as is. numpy's loop calls the same ``log1p`` and ``exp``, so the
    two agree bit for bit, without numpy's dispatch on a scalar.
    """
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d


def _linear(log_name):
    """The linear value of a stored log, computed on first read and cached."""

    def read(self):
        with np.errstate(over="ignore"):
            value = np.exp(getattr(self, log_name))
        return value if isinstance(value, np.ndarray) else float(value)

    return cached_property(read)


@dataclass(frozen=True)
class AggregateConstants:
    """End-to-end sensitivity coefficients of the unrolled network.

    ``kappa`` bounds the output movement per unit covariance movement,
    ``kappa_kdj[k-1, j-1, d-1]`` per unit movement of parameter block d of
    scale update j in layer k. Only ``c1``, ``c2`` and the logs are stored;
    ``r_hat1``, ``r_hat2``, ``r_hat3``, ``c_hat1``, ``c_hat2``, ``kappa``
    and ``kappa_kdj`` are each ``np.exp`` of their log, derived on first
    read. Linear values may overflow to ``inf`` for large networks; the
    ``log_*`` fields are always finite (or ``-inf``).
    """

    c1: float
    c2: float
    log_rhat1: float
    log_rhat2: float
    log_rhat3: np.ndarray
    log_chat1: float
    log_chat2: np.ndarray
    log_kappa: float
    log_kappa_kdj: np.ndarray

    r_hat1 = _linear("log_rhat1")
    r_hat2 = _linear("log_rhat2")
    r_hat3 = _linear("log_rhat3")
    c_hat1 = _linear("log_chat1")
    c_hat2 = _linear("log_chat2")
    kappa = _linear("log_kappa")
    kappa_kdj = _linear("log_kappa_kdj")


def tikhonov_constants(y_norm2, z_inf, p_max, p_max_tilde, cond, model):
    """Sensitivity of the regularized least-squares estimate.

    ``c1`` multiplies scale movement, ``c2`` covariance movement, for pairs
    ``(P, P_tilde)`` with ``||P||_2 <= p_max``, ``||P_tilde||_2 <=
    p_max_tilde`` and ``cond(P) * cond(P_tilde) <= cond``.
    """
    a2 = model.norm2
    c1 = p_max * y_norm2 * a2 * (1.0 + 2.0 * z_inf**2 * p_max_tilde * a2**2)
    c2 = z_inf * y_norm2 * a2 * cond
    return c1, c2


def datafit_grad_constants(z_inf, p_max, y_norm2, model):
    """Joint Lipschitz coefficients of the data-fidelity gradient.

    Returns ``(Lz, Lu)`` multiplying scale and Gaussian-estimate movement,
    valid when the Gaussian estimates are regularized least-squares images
    of admissible scales.
    """
    a2, ainf = model.norm2, model.norm_inf
    Lz = (z_inf * p_max * y_norm2 * a2 * ainf) ** 2
    Lu = y_norm2 * a2 * (1.0 + z_inf**2 * p_max * a2 * (a2 + ainf))
    return Lz, Lu


def fc_lipschitz(weight_norms, x_norm):
    """Input and per-weight Lipschitz coefficients of a dense ReLU chain.

    For T layers with spectral-norm caps ``weight_norms`` and the
    1-Lipschitz ReLU between them: the input coefficient is
    ``prod(weight_norms)`` and weight t's coefficient is
    ``prod(other norms) * x_norm``, for inputs of 2-norm at most ``x_norm``.
    """
    w = [float(v) for v in weight_norms]
    if not w:
        raise ValueError("need at least one layer")
    weight_coeffs = [math.prod(w[:t] + w[t + 1:], start=1.0) * x_norm for t in range(len(w))]
    return math.prod(w, start=1.0), weight_coeffs


def _assemble(config, c1, c2, r1, r2, r3, kappa_prefactor):
    """Log-domain assembly of the layer-chained constants.

    Only the logs are computed; the linear values are derived when read.
    One layer's J updates compose to ``r_hat1 = r1^J``, ``r_hat2 = r2 *
    sum_j r1^(J-j)`` (a sum, finite at r1 = 1) and ``r_hat3[j-1, d-1] =
    r3[d] * r1^(J-j)``.
    """
    K, J, D = config.K, config.J, config.D
    log_r1 = _safe_log(r1)
    log_r2 = _safe_log(r2)
    log_c1 = _safe_log(c1)
    log_c2 = _safe_log(c2)
    # (J - j) * log r1 for j = 1..J
    log_r1_pows = np.arange(J - 1, -1, -1, dtype=np.float64) * log_r1
    log_rhat1 = J * log_r1
    log_rhat2 = log_r2 + _logsumexp(log_r1_pows)
    log_r3 = np.array([_safe_log(r) for r in r3])
    log_rhat3 = log_r1_pows[:, None] + log_r3  # (J, D)

    # per-layer growth factor r_hat1 + r_hat2 * c1, chained over layers above k:
    # (K - k) * log q for k = 1..K
    log_q = _logaddexp(log_rhat1, log_rhat2 + log_c1)
    log_q_pows = np.arange(K - 1, -1, -1, dtype=np.float64) * log_q
    log_chat1 = log_c2 + log_rhat2 + _logsumexp(log_q_pows)
    log_chat2 = log_q_pows[:, None, None] + log_rhat3  # (K, J, D)

    log_pref = _safe_log(kappa_prefactor)
    log_kappa = _logaddexp(log_pref + log_chat1, _safe_log(config.bounds.z_inf * c2))
    log_kappa_kdj = log_pref + log_chat2

    return AggregateConstants(
        c1=c1,
        c2=c2,
        log_rhat1=log_rhat1,
        log_rhat2=log_rhat2,
        log_rhat3=log_rhat3,
        log_chat1=log_chat1,
        log_chat2=log_chat2,
        log_kappa=log_kappa,
        log_kappa_kdj=log_kappa_kdj,
    )


def _chain(config, model, y_norm, exact=None):
    """``_assemble`` of the Tikhonov, step and prefactor constants.

    The step constants ``(r1, r2, r3)`` of one scale update multiply the
    movement of the scale, of the Gaussian estimate and of each parameter
    block (``r3[d-1]`` for block d) over the parameter balls and the
    radius-``y_norm`` measurement ball. The rest is the worst case over the
    covariance ball and that ball, or, with ``exact = (P, P_tilde, y_inf)``,
    for that pair and a measurement of 2-norm ``y_norm`` and max-norm
    ``y_inf``. A constant that overflows or is not finite raises a
    ValueError naming ``y_norm`` and the model's norms, so it never reaches
    the logs as ``inf`` and the bound as NaN.
    """
    if y_norm < 0:
        raise ValueError("y_max must be nonnegative")
    b = config.bounds
    z_inf = b.z_inf
    try:
        if exact is None:
            p_max = p_max_tilde = config.p_max
            cond = (p_max / config.p_min) ** 2
            pref_y = p_max * y_norm * model.norm_inf
        else:
            P, P_tilde, y_inf = exact
            p_max, p_max_tilde, cond = P.p_max, P_tilde.p_max, P.cond * P_tilde.cond
            pref_y = p_max * model.norm_inf * y_inf
        c1, c2 = tikhonov_constants(y_norm, z_inf, p_max, p_max_tilde, cond, model)
        Lz, Lu = datafit_grad_constants(z_inf, config.p_max, y_norm, model)
        if config.variant == "cgnet":  # projected steepest descent
            r1 = 1.0 + config.p_max * (Lz + config.mu_bound * TAU_H)
            r2, r3 = config.p_max * Lu, (b.xi, config.p_max * H_MAX)
        else:  # learned correction
            # the correction subnetwork's input is a scale, of 2-norm <= sqrt(n) z_inf
            wprod, weight_coeffs = fc_lipschitz(config.weight_bounds, math.sqrt(config.n) * z_inf)
            r1 = 1.0 + config.delta * Lz + wprod
            r2, r3 = config.delta * Lu, (*weight_coeffs, b.xi)
        pref = z_inf * (c1 + pref_y)
        finite = all(map(math.isfinite, (c1, c2, r1, r2, *r3, pref)))
    except OverflowError:  # a float ``**`` out of range
        finite = False
    if not finite:
        raise ValueError(
            f"the network constants overflow float64 at y_max = {y_norm!r} with "
            f"||A||_2 = {model.norm2!r}, ||A||_inf = {model.norm_inf!r}, "
            f"p_min = {config.p_min!r} and p_max = {config.p_max!r}"
        )
    return _assemble(config, c1, c2, r1, r2, r3, pref)


def network_constants(config, model, y_max):
    """Worst-case end-to-end sensitivity constants of the network.

    Maximizes over the admissible parameter balls and the radius-``y_max``
    measurement ball, matching the constants that enter the generalization
    bound.
    """
    return _chain(config, model, y_max)


def network_constants_exact(config, model, y, P, P_tilde):
    """Instance-exact sensitivity constants for one measurement and pair.

    The regularized-solve coefficients use the actual spectra and condition
    numbers of ``(P, P_tilde)`` and the actual measurement norms; the
    per-step constants still range over the parameter balls.
    """
    y = np.asarray(y, dtype=np.float64)
    y_inf = float(np.abs(y).max()) if y.size else 0.0
    with np.errstate(over="ignore"):  # the kernel rescales an overflowing square
        y_norm = float(kernels["row_norm"](y)[0])
    return _chain(config, model, y_norm, (P, P_tilde, y_inf))
