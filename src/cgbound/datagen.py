"""Synthetic compound-Gaussian data and empirical generalization gaps.

Signals are Hadamard products c = z * u of a log-normal scale variable
(clamped into the admissible interval) and a correlated Gaussian factor,
jointly rescaled into the signal ball so the factorization survives.
Measurements follow the linear model with optional white noise.

``empirical_gap`` freezes one network hypothesis, measures its training
loss on a generated dataset and its population loss by fresh Monte Carlo
draws, and compares the absolute difference against the assembled bound.
The training and test rows go through the network as one stacked forward
pass, and ``mae_loss`` scores all of them at once.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bounds import _check_ns, geb_bound, ymax_estimate
from .model import SignalBounds, SpdMatrix
from .networks import forward

__all__ = [
    "CgDataSpec",
    "CgDataset",
    "GapReport",
    "generate_cg_dataset",
    "mae_loss",
    "empirical_gap",
]


@dataclass(frozen=True)
class CgDataSpec:
    """Distribution parameters for one synthetic dataset."""

    model: object
    sigma_u: SpdMatrix
    bounds: SignalBounds
    Ns: int
    seed: int

    def __post_init__(self):
        _check_ns(self.Ns)
        object.__setattr__(self, "Ns", int(self.Ns))
        if self.sigma_u.n != self.model.n:
            raise ValueError("sigma_u must be n x n")


@dataclass(frozen=True)
class CgDataset:
    """Generated samples; rows are (y, c) pairs with their latent factors.

    ``Z`` and ``U`` are the post-rescale factors, so ``C = Z * U`` exactly;
    ``scales`` holds the shrink factor applied to each sample (1 when the
    raw signal already fit inside the c_max ball). The pre-rescale scale
    variables ``Z / sqrt(scales)`` lie in the clamp interval [a, b].
    """

    Y: np.ndarray
    C: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    scales: np.ndarray

    def __len__(self):
        return self.Y.shape[0]


def generate_cg_dataset(spec):
    """Draw ``Ns`` (measurement, signal) pairs, deterministically in the seed.

    A ``model.sigma`` whose noise overflows the measurements raises ``ValueError``.
    """
    rng = np.random.default_rng(spec.seed)
    model, b = spec.model, spec.bounds
    n, m, Ns = model.n, model.m, spec.Ns

    chi = rng.standard_normal((Ns, n))
    Z = np.clip(np.exp(chi), b.a, b.b)
    Lu = np.linalg.cholesky(spec.sigma_u.P)
    U = rng.standard_normal((Ns, n)) @ Lu.T
    C = Z * U

    norms = np.linalg.norm(C, axis=1)
    scales = np.minimum(1.0, b.c_max / np.maximum(norms, 1e-300))
    root = np.sqrt(scales)[:, None]
    Z, U = Z * root, U * root
    C = Z * U

    Y = C @ model.A.T
    if model.sigma > 0.0:
        with np.errstate(over="ignore"):
            Y = Y + model.sigma * rng.standard_normal((Ns, m))
        if not np.isfinite(Y).all():
            raise ValueError(f"model.sigma = {model.sigma!r} makes the noisy measurements overflow")
    return CgDataset(Y=Y, C=C, Z=Z, U=U, scales=scales)


def mae_loss(x1, x2):
    """Mean absolute error ``||x1 - x2||_1 / n`` over the last axis.

    A float for two vectors; one value per row for ``(B, n)`` stacks.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    err = np.abs(x1 - np.asarray(x2, dtype=np.float64)).sum(axis=-1) / x1.shape[-1]
    return float(err) if err.ndim == 0 else err


@dataclass(frozen=True)
class GapReport:
    """Monte-Carlo generalization gap of one frozen hypothesis."""

    empirical_gap: float
    bound_total: float
    holds: bool
    trials: int
    seed: int
    train_loss: float
    test_loss: float
    test_stderr: float

    def to_dict(self):
        return asdict(self)


def empirical_gap(theta, config, loss, train_spec, test_draws, seed):
    """Gap between Monte-Carlo population loss and training loss.

    The hypothesis is the network frozen at ``theta``. The population loss
    is approximated with ``test_draws`` fresh samples (their standard error
    is reported so the comparison stays honest); the bound is evaluated at
    the training measurement radius, with ``eps_conf = 0.05`` whatever a run
    config's ``geb.eps_conf`` holds. Only the mean-absolute-error loss has
    an in-package implementation.
    """
    if loss.name != "mae":
        raise ValueError(
            "empirical_gap evaluates the mean-absolute-error loss only; "
            "other losses need an external evaluator"
        )
    if test_draws < 1:
        raise ValueError("test_draws must be >= 1")
    model = train_spec.model
    train = generate_cg_dataset(train_spec)
    test = generate_cg_dataset(replace(train_spec, Ns=test_draws, seed=seed))
    out = forward(np.concatenate([train.Y, test.Y]), theta, config, model).output
    losses = mae_loss(out, np.concatenate([train.C, test.C]))
    train_losses, test_losses = losses[: len(train)], losses[len(train):]

    y_max = ymax_estimate(model, train_spec.bounds.c_max, "dataset", dataset=train.Y)
    report = geb_bound(config, model, loss, train_spec.Ns, 0.05, y_max)
    gap = abs(float(test_losses.mean()) - float(train_losses.mean()))
    stderr = float(test_losses.std(ddof=1) / math.sqrt(test_draws)) if test_draws > 1 else 0.0
    return GapReport(
        empirical_gap=gap,
        bound_total=report.total,
        holds=bool(gap <= report.total),
        trials=int(test_draws),
        seed=int(seed),
        train_loss=float(train_losses.mean()),
        test_loss=float(test_losses.mean()),
        test_stderr=stderr,
    )
