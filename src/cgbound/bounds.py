"""Generalization-error bound assembly and its scaling-law evaluators.

Puts together the three-term high-probability bound on the gap between
population and training loss of the unrolled networks: the (supplied)
empirical loss, a complexity term built from covering numbers of the
parameter balls through a closed-form entropy-integral bound, and a
confidence term. Also provides the closed-form integral bound itself,
training-measurement radius estimates, closed-form sample-complexity
inversion, and log-log slope fits of the bound against signal dimension,
network size, and sample count.
"""

import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .backend import kernels
from .lipschitz import network_constants
from .model import MeasurementModel, SignalBounds
from .networks import NetworkConfig

__all__ = [
    "LossSpec",
    "BoundReport",
    "ScalingFit",
    "SweepSpec",
    "dim_cov",
    "dudley_closed_form",
    "ymax_estimate",
    "geb_bound",
    "scaling_study",
    "sweep_bound",
    "scaling_fit",
    "sample_complexity",
    "norm_log_sum",
]

# high-probability white-noise inflation of the measurement radius
# (normal quantile at per-entry failure probability 1e-9)
WHITE_NOISE_QUANTILE = 6.11

# largest sample count sample_complexity resolves: geb_bound takes the
# square root of a float, so above 2^53 neighbouring counts share a block
NS_CEILING = 2**53


def _check_ns(Ns):
    try:
        valid = math.isfinite(Ns) and Ns >= 1 and Ns == int(Ns)
    except OverflowError:  # an integer beyond float range
        valid = False
    if not valid or isinstance(Ns, (bool, np.bool_)):  # a bool passes as an int
        raise ValueError(f"Ns must be a finite integer >= 1, got {Ns}")


def _check_eps_conf(eps_conf):
    if not (0.0 < eps_conf < 1.0):
        raise ValueError(f"eps_conf must lie in (0, 1), got {eps_conf}")


@dataclass(frozen=True)
class LossSpec:
    """Loss-function constants: Lipschitz coefficient tau and range bound c."""

    tau: float
    c: float
    name: str

    def __post_init__(self):
        if not (0 < self.tau < math.inf and 0 < self.c < math.inf):
            raise ValueError(f"tau and c must be positive and finite, got {self.tau} and {self.c}")

    @classmethod
    def mae(cls, n, c_max):
        """Mean absolute error on the radius-c_max ball."""
        return cls(tau=1.0 / math.sqrt(n), c=c_max / math.sqrt(n), name="mae")

    @classmethod
    def ssim(cls, tau=None):
        """Structural-similarity loss; its Lipschitz constant must be supplied."""
        if tau is None:
            raise ValueError(
                "the structural-similarity loss needs an explicit tau; "
                "no default is provided"
            )
        return cls(tau=float(tau), c=2.0, name="ssim")


@dataclass(frozen=True)
class BoundReport:
    """Three-term generalization bound with its constants and inputs.

    ``term2_cov``, ``term2_weights``, ``term2_scalars`` split the complexity
    term into the covariance block, the matrix-parameter blocks, and the
    scalar-parameter blocks (they sum to ``term2``).
    """

    term1: float
    term2: float
    term3: float
    total: float
    term2_cov: float
    term2_weights: float
    term2_scalars: float
    constants: object
    inputs: dict = field(repr=False)

    def to_dict(self):
        # the fields read shallowly, so the constants' arrays are not deep-copied;
        # a non-finite constant (an overflowing linear value, the log of 0) reads null
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        names = ("c1", "c2", "r_hat1", "r_hat2", "c_hat1", "kappa", "log_kappa")
        constants = (getattr(self.constants, name) for name in names)
        out["constants"] = {name: v if math.isfinite(v) else None for name, v in zip(names, constants)}
        return out


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares log-log slope of the complexity term along one axis."""

    exponent: float
    r_squared: float
    axis: str
    values: tuple
    fitted: tuple
    r_diagnostic: tuple  # per-point log(y_max) + log(||A||_2) + log(||A||_inf)


@dataclass(frozen=True)
class SweepSpec:
    """The axis ("n", "kj" or "ns") of a scaling study, its values (at least
    4 positive integers spanning a decade), the sample count of each point
    off the ``ns`` axis and the confidence; see :func:`scaling_study`."""

    axis: str
    values: tuple
    Ns: int = 10000
    eps_conf: float = 0.05

    def __post_init__(self):
        _check_ns(self.Ns)
        _check_eps_conf(self.eps_conf)
        if self.axis not in ("n", "kj", "ns"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if len(self.values) < 4:
            raise ValueError("sweep needs at least 4 points")
        vals = sorted(float(v) for v in self.values)
        if not all(v.is_integer() for v in vals):
            raise ValueError(f"sweep values must be integers, got {self.values}")
        if vals[0] <= 0 or vals[-1] / vals[0] < 10.0:
            raise ValueError("sweep must span at least one decade of positive values")
        if self.axis == "n" and vals[0] < 2:  # its fit divides by sqrt(ln n)
            raise ValueError(f"the n axis starts at 2, got {self.values}")


def dim_cov(structure, n):
    """Free-parameter count of each covariance structure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = {
        "scaled_identity": 1,
        "diagonal": n,
        "tridiagonal": 2 * n - 1,
        "full": n * (n + 1) // 2,
    }
    try:
        return table[structure]
    except KeyError:
        raise ValueError(f"unknown covariance structure {structure!r}") from None


def _covering_term(alpha, log_ratio):
    """Entropy term ``sqrt(alpha * ln(e * (1 + ratio)))`` of a dimension-alpha
    ball, elementwise; ``1 + logaddexp(0, log ratio)`` is stable for huge ratios."""
    return np.sqrt(alpha * (1.0 + np.logaddexp(0.0, log_ratio)))


def dudley_closed_form(beta, nu):
    """Closed-form upper bound ``beta * sqrt(ln(e*(1 + nu/beta)))``.

    Dominates ``integral_0^beta sqrt(ln(1 + nu/eps)) d eps`` for every
    nu >= 0, beta > 0. It is ``beta`` times the covering term that
    :func:`geb_bound` sums, at dimension 1 and ratio ``nu / beta``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    log_ratio = math.log(nu) - math.log(beta) if nu > 0 else -math.inf
    return beta * float(_covering_term(1.0, log_ratio))


def ymax_estimate(model, c_max, mode, dataset=None):
    """Radius of the training measurements.

    ``"noiseless"`` uses ``c_max * ||A||_2``; ``"white_noise"`` adds the
    high-probability noise inflation ``6.11 * sigma``; ``"dataset"`` takes
    the largest Euclidean norm over the rows of a ``(B, m)`` measurement stack.
    """
    if mode == "noiseless":
        return c_max * model.norm2
    if mode == "white_noise":
        return c_max * model.norm2 + WHITE_NOISE_QUANTILE * model.sigma
    if mode == "dataset":
        if dataset is None or len(dataset) == 0:
            raise ValueError("dataset mode requires a nonempty dataset")
        Y = np.asarray(dataset, dtype=np.float64)
        if Y.ndim != 2:
            raise ValueError(f"dataset must be a (B, m) stack of measurements, got shape {Y.shape}")
        with np.errstate(over="ignore"):  # an overflowing row is rescaled
            return float(kernels["row_norm"](Y).max())
    raise ValueError(f"unknown mode {mode!r}")


def norm_log_sum(model, y_max):
    """Diagnostic ``log(y_max) + log(||A||_2) + log(||A||_inf)``."""
    return math.log(y_max) + math.log(model.norm2) + math.log(model.norm_inf)


def _entropy(config, model, eps_conf, y_max, empirical_loss=0.0):
    """Ns-free part of the bound: the input checks other than ``Ns``'s, the
    network constants and the covering-entropy sums.

    Returns ``(constants, dim_P, alphas, omegas, KJD + 1, sums)``, where
    ``sums`` holds the covariance, matrix-block and scalar-block entropy sums
    that term2 scales. ``empirical_loss`` is only checked, in the order
    :func:`geb_bound` checks its inputs. Each covering block enters as
    ``_covering_term(dimension, log coeff + log kappa)``; the scalar block is
    the last, of shape ``()`` in ``config.block_shapes()``.
    """
    _check_eps_conf(eps_conf)
    if not (math.isfinite(y_max) and y_max >= 0):
        raise ValueError(f"y_max must be finite and nonnegative, got {y_max}")
    if not math.isfinite(empirical_loss):
        raise ValueError(f"empirical_loss must be finite, got {empirical_loss}")
    if config.n != model.n:
        raise ValueError("config.n and model.n disagree")

    cns = network_constants(config, model, y_max)
    c_max = config.bounds.c_max
    kjd1 = config.K * config.J * config.D + 1
    dim_p = dim_cov(config.cov_structure, config.n)

    dims = config.parameter_dims()
    radii = (config.p_max, *(w for _, w in dims))
    ratios = [4.0 * w * kjd1 / c_max for w in radii]
    for w, ratio in zip(radii, ratios):
        if not sys.float_info.min <= ratio < math.inf:
            raise ValueError(f"the covering ratio 4 * (KJD + 1) * radius / c_max is {ratio!r}, "
                             f"outside the normal float64 range, at radius = {w!r} and c_max = {c_max!r}")
    term2_cov = float(_covering_term(dim_p, math.log(ratios[0]) + cns.log_kappa))

    alphas, omegas = np.array(dims, dtype=np.float64).T
    log_coeffs = np.log(ratios[1:])
    terms = _covering_term(alphas, log_coeffs + cns.log_kappa_kdj)  # (K, J, D)
    block_sums = np.add.reduce(terms, axis=(0, 1))  # per d

    term2_weights = float(np.add.reduce(block_sums[:-1]))  # matrix blocks, any dimension
    term2_scalars = float(block_sums[-1])
    return cns, dim_p, alphas, omegas, kjd1, (term2_cov, term2_weights, term2_scalars)


def _overflow(loss, Ns, term2, term3):
    """The named error of a bound that overflows float64."""
    return ValueError(
        f"the bound overflows float64 at tau = {loss.tau!r}, c = {loss.c!r} and Ns = {Ns!r}: "
        f"term2 = {term2!r}, term3 = {term3!r}"
    )


def _ns_terms(config, loss, sums, Ns, eps_conf):
    """The 1/sqrt(Ns) scale of the entropy sums, term2 and term3 at ``Ns``;
    the sum of the two terms must be finite."""
    scale = 8.0 * loss.tau * config.bounds.c_max / math.sqrt(Ns)
    term2 = scale * (sums[0] + sums[1] + sums[2])
    term3 = 4.0 * loss.c * math.sqrt(2.0 * math.log(4.0 / eps_conf) / Ns)
    if not math.isfinite(term2 + term3):
        raise _overflow(loss, Ns, term2, term3)
    return scale, term2, term3


def _report(config, loss, Ns, eps_conf, y_max, empirical_loss, entropy):
    """The :class:`BoundReport` at ``Ns`` from the Ns-free ``entropy``."""
    cns, dim_p, alphas, omegas, kjd1, sums = entropy
    scale, term2, term3 = _ns_terms(config, loss, sums, Ns, eps_conf)
    total = empirical_loss + term2 + term3
    if not math.isfinite(total):
        raise _overflow(loss, Ns, term2, term3)
    return BoundReport(
        term1=float(empirical_loss),
        term2=float(term2),
        term3=float(term3),
        total=float(total),
        term2_cov=float(scale * sums[0]),
        term2_weights=float(scale * sums[1]),
        term2_scalars=float(scale * sums[2]),
        constants=cns,
        inputs={
            "Ns": int(Ns),
            "eps_conf": float(eps_conf),
            "y_max": float(y_max),
            "dim_P": int(dim_p),
            "alphas": alphas.tolist(),
            "omegas": omegas.tolist(),
            "tau": float(loss.tau),
            "c": float(loss.c),
            "KJD_plus_1": int(kjd1),
        },
    )


def geb_bound(config, model, loss, Ns, eps_conf, y_max, empirical_loss=0.0):
    """Assemble the three-term generalization bound.

    term1 is the supplied empirical loss; term2 the complexity block
    ``8 * tau * c_max / sqrt(Ns)`` times the covering-entropy sum over the
    covariance ball and every per-step parameter ball; term3 the confidence
    block ``4 * c * sqrt(2 * ln(4 / eps_conf) / Ns)``. The network constants
    and the entropy sum do not depend on ``Ns``; only the two scale factors do.
    """
    _check_ns(Ns)
    entropy = _entropy(config, model, eps_conf, y_max, empirical_loss)
    return _report(config, loss, Ns, eps_conf, y_max, empirical_loss, entropy)


# ---------------------------------------------------------------------------
# sweeps and scaling-law fits
# ---------------------------------------------------------------------------

def _sweep_model(n):
    return MeasurementModel((float(n) ** 6.0) * np.ones((1, n)))


def _factor_kj(v):
    r = int(round(math.sqrt(v)))
    if r * r == v:
        return r, r
    return int(v), 1


def scaling_study(spec):
    """The ``(config, model, spec, loss)`` that :func:`sweep_bound` sweeps along ``spec.axis``.

    axis = "n": the quadratic-update variant, whose matrix-parameter count
    grows with n, resized per point over ``_sweep_model(n)`` (``n^6`` times
    the all-ones 1 x n matrix: operator norms grow polynomially, the regime
    the scaling laws describe); the model returned is the first point's.
    Its loss carries a fixed supplied Lipschitz constant, so the per-n bound
    is not rescaled by the loss. axis = "kj": the learned-regularizer
    variant on a fixed small model, K and J factored from each value
    (square when possible). axis = "ns": the kj study; only Ns varies.
    """
    if spec.axis == "n":
        config = NetworkConfig(
            variant="cgnet",
            n=int(spec.values[0]),
            K=4,
            J=4,
            bounds=SignalBounds.default(),
            p_min=1.0,
            p_max=1.0,
            mu_bound=1.0,
        )
        return config, _sweep_model(config.n), spec, LossSpec.ssim(tau=1.0)
    config = NetworkConfig(
        variant="drcgnet",
        n=4,
        K=2,
        J=2,
        bounds=SignalBounds.default(),
        p_min=0.5,
        p_max=2.0,
        Lc=2,
        filters=(1, 2, 1),
        kernels=(5, 5),
        weight_bounds=(1.1, 1.1),
        delta=0.9,
    )
    model = MeasurementModel(2.0 * np.ones((2, 4)))
    return config, model, spec, LossSpec.mae(config.n, config.bounds.c_max)


def sweep_bound(config, model, loss, spec):
    """Evaluate the bound along one axis; rows of (axis, report, r).

    Along ``ns`` only the sample count changes, so the Ns-free entropy is
    assembled once and each row applies the Ns-dependent factors to it, by
    the helper :func:`geb_bound` uses.
    """
    if spec.axis == "ns":
        y_max = ymax_estimate(model, config.bounds.c_max, "noiseless")
        entropy = _entropy(config, model, spec.eps_conf, y_max)
        r = norm_log_sum(model, y_max)
        return [(float(v), _report(config, loss, int(v), spec.eps_conf, y_max, 0.0, entropy), r)
                for v in spec.values]
    rows = []
    for v in spec.values:
        if spec.axis == "n":
            cfg = replace(config, n=int(v))
            mdl = _sweep_model(cfg.n)
            lss = LossSpec.mae(cfg.n, cfg.bounds.c_max) if loss.name == "mae" else loss
        else:  # kj
            K, J = _factor_kj(int(v))
            cfg, mdl, lss = replace(config, K=K, J=J), model, loss
        y_max = ymax_estimate(mdl, cfg.bounds.c_max, "noiseless")
        rep = geb_bound(cfg, mdl, lss, spec.Ns, spec.eps_conf, y_max)
        rows.append((float(v), rep, norm_log_sum(mdl, y_max)))
    return rows


def _least_squares_loglog(xs, ys):
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(((ly - fitted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def scaling_fit(config, model, loss, spec):
    """Log-log slope of the complexity term along the sweep axis.

    Along ``n`` the fit uses the matrix-parameter block of the complexity
    term (the part whose dimension count grows with n; the covariance and
    scalar blocks are lower order) divided by ``sqrt(ln n)``. Along ``kj``
    every block grows alike, so the fit uses the full term divided by the
    constant ``sqrt(ln m + ln n)``. Along ``ns`` the raw term is fitted.
    """
    return _fit_rows(config, model, spec, sweep_bound(config, model, loss, spec))


def _fit_rows(config, model, spec, rows):
    """``scaling_fit`` of the rows ``sweep_bound`` returned for ``spec``."""
    xs = [v for v, _, _ in rows]
    if spec.axis == "n":
        ys = [rep.term2_weights / math.sqrt(math.log(v)) for v, rep, _ in rows]
    elif spec.axis == "kj":
        log_mn = math.log(model.m) + math.log(config.n)
        corr = math.sqrt(log_mn) if log_mn > 0 else 1.0
        ys = [rep.term2 / corr for _, rep, _ in rows]
    else:
        ys = [rep.term2 for _, rep, _ in rows]
    exponent, r2 = _least_squares_loglog(xs, ys)
    return ScalingFit(
        exponent=exponent,
        r_squared=r2,
        axis=spec.axis,
        values=tuple(xs),
        fitted=tuple(float(y) for y in ys),
        r_diagnostic=tuple(float(r) for _, _, r in rows),
    )


def sample_complexity(config, model, loss, gap, eps_conf, y_max):
    """Smallest sample count whose complexity-plus-confidence block is <= gap.

    The network constants and the covering-entropy sum of term2 do not
    depend on Ns, so they are assembled once per call; ``block(ns)`` applies
    only the Ns-dependent factors, by the expressions :func:`geb_bound` uses,
    and equals its ``term2 + term3`` bitwise. Both terms scale as
    1/sqrt(Ns), so the block is its value at one sample over sqrt(Ns) and
    the answer is ``ceil((block(1)/gap)^2)``. A few integer steps against
    the block itself settle the rounding. A block that overflows float64
    raises the named ``ValueError`` of :func:`geb_bound`.
    """
    if not gap > 0:
        raise ValueError(f"gap must be positive, got {gap}")
    sums = _entropy(config, model, eps_conf, y_max)[-1]

    def block(ns):
        _, term2, term3 = _ns_terms(config, loss, sums, ns, eps_conf)
        return term2 + term3

    b1 = block(1)
    if b1 <= gap:
        return 1
    ratio = b1 / gap
    if not ratio * ratio <= NS_CEILING:
        raise ValueError("gap unattainable below the sample-count ceiling")
    ns = math.ceil(ratio * ratio)
    while block(ns) > gap:
        ns += 1
    while block(ns - 1) <= gap:
        ns -= 1
    return ns
