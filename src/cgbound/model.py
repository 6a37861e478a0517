"""Core domain types and shared numerics.

Holds the linear measurement model ``y = A(z * u) + noise`` with cached
operator norms, the symmetric-positive-definite covariance type with its
cached spectrum bounds, the clamp/projection activations, and the
regularized least-squares (Tikhonov) solver, which picks its primal or
Woodbury form by shape. The activations and the solver take a vector or a
stack of vectors along a leading batch axis and act on each row (the last
axis) independently.

Everything here is a pure function of its inputs; constructed objects are
immutable and safe to share across threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .backend import kernels

__all__ = [
    "NumericalFailure",
    "MeasurementModel",
    "SpdMatrix",
    "SignalBounds",
    "spectral_norm",
    "operator_inf_norm",
    "mrelu",
    "ball_project",
    "tikhonov_solve",
]

SYMMETRY_TOL = 1e-12


class NumericalFailure(RuntimeError):
    """A linear solve was singular or produced non-finite values despite the SPD guards."""


def _as_rows(x, n, name):
    """``x`` as a length-``n`` vector or a ``(B, n)`` stack of them."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise ValueError(f"{name} must have shape ({n},) or (B, {n}), got {v.shape}")
    return v


def spectral_norm(M):
    """Largest singular value of a dense matrix (exact via full SVD).

    A ``(..., r, c)`` stack gives an array of the norms of its matrices,
    each bitwise equal to the norm of that matrix alone.
    """
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    sigma = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(sigma) if M.ndim == 2 else sigma


def operator_inf_norm(M):
    """Operator infinity norm: maximum absolute row sum."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    return float(np.abs(M).sum(axis=1).max())


@dataclass(frozen=True)
class MeasurementModel:
    """Sensing matrix with noise level and cached operator norms.

    ``norm2`` and ``norm_inf`` are computed once at construction; they must
    always agree with a fresh recomputation (checked by the test suite).
    """

    A: np.ndarray
    sigma: float = 0.0
    norm2: float = field(init=False)
    norm_inf: float = field(init=False)

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError(f"A must be a 2-D matrix with m, n >= 1, got shape {A.shape}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        # the max absolute row sum is finite iff every entry is (barring
        # overflow) and zero iff A is zero, so it screens A before the SVD
        with np.errstate(over="ignore"):  # an overflowing row sum is named below
            norm_inf = operator_inf_norm(A)
        if not math.isfinite(norm_inf):
            raise ValueError(f"A must have finite entries and row sums, got norm_inf={norm_inf}")
        if norm_inf == 0.0:
            raise ValueError("A must not be all zero")
        norm2 = spectral_norm(A)
        if not math.isfinite(norm2):
            raise ValueError(f"A's spectral norm overflows float64, got norm2={norm2}")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "norm2", norm2)
        object.__setattr__(self, "norm_inf", norm_inf)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix with cached spectrum bounds.

    ``p_max`` is the spectral norm, ``p_min_inv`` the spectral norm of the
    inverse (so the smallest eigenvalue is ``1 / p_min_inv``).
    """

    P: np.ndarray
    p_max: float = field(init=False)
    p_min_inv: float = field(init=False)
    P_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        P = np.ascontiguousarray(self.P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be square, got shape {P.shape}")
        asym = float(np.abs(P - P.T).max())
        if asym > SYMMETRY_TOL:
            raise ValueError(f"P is not symmetric: max|P - P^T| = {asym:.3e}")
        eigs = np.linalg.eigvalsh(P)
        if eigs[0] <= 0.0:
            raise ValueError(f"P is not positive definite: min eigenvalue {eigs[0]:.3e}")
        P.setflags(write=False)
        P_inv = np.linalg.inv(P)
        P_inv = np.ascontiguousarray(0.5 * (P_inv + P_inv.T))
        P_inv.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "p_max", float(eigs[-1]))
        object.__setattr__(self, "p_min_inv", float(1.0 / eigs[0]))
        object.__setattr__(self, "P_inv", P_inv)

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def p_min(self):
        return 1.0 / self.p_min_inv

    @property
    def cond(self):
        return self.p_max * self.p_min_inv


@dataclass(frozen=True)
class SignalBounds:
    """Admissible-region radii: signal, scale, gradient clip, and clamp interval."""

    c_max: float
    z_inf: float
    xi: float
    a: float
    b: float

    def __post_init__(self):
        if not (-math.inf < self.a <= self.b < math.inf):
            raise ValueError(f"clamp interval requires finite a <= b, got a={self.a}, b={self.b}")
        for name in ("c_max", "z_inf", "xi"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @classmethod
    def default(cls):
        """Exponential-scale setup: clamp [1, e^3], unit clip, unit signal ball."""
        e3 = math.exp(3.0)
        return cls(c_max=1.0, z_inf=e3, xi=1.0, a=1.0, b=e3)


def mrelu(x, a, b):
    """Componentwise clamp of ``x`` to ``[a, b]`` built from two ReLUs."""
    if a > b:
        raise ValueError(f"mrelu requires a <= b, got a={a}, b={b}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    return kernels["mrelu"](x, float(a), float(b))


def ball_project(v, radius):
    """Projection of ``v`` onto the Euclidean ball of the given radius.

    A ``(B, n)`` stack is projected row by row. A row whose squared norm
    overflows is rescaled by its largest entry (numpy still warns).
    """
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    v = np.ascontiguousarray(v, dtype=np.float64)
    return kernels["ball_project"](v, float(radius))


def _check_finite_rows(x, error, what):
    """Raise ``error`` if ``x`` is not finite, naming the first bad row of a stack."""
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        where = "" if x.ndim == 1 else f" in row {np.flatnonzero(~finite)[0]}"
        raise error(f"{what} non-finite values{where}")


def tikhonov_solve(model, z, y, P):
    """Regularized least-squares estimate ``(A_z^T A_z + P^-1)^-1 A_z^T y``.

    When m < n it solves the equivalent m x m Woodbury system
    ``P A_z^T (I + A_z P A_z^T)^-1 y``, otherwise the n x n normal
    equations; the two forms agree to rounding error.

    ``z`` and ``y`` are one vector each, or ``(B, n)`` and ``(B, m)`` stacks
    solved row by row into a ``(B, n)`` result; each row is bitwise equal to
    the solve of that row alone. ``P`` is one ``SpdMatrix`` for every row,
    or a tuple of B of them, one per row, stacked as the form reads them
    (``P`` or ``P^-1``). A system singular in float64 raises ``NumericalFailure``,
    and so does a non-finite result, naming the first failing row of a stack.
    """
    z = _as_rows(z, model.n, "z")
    y = _as_rows(y, model.m, "y")
    if z.shape[:-1] != y.shape[:-1]:
        raise ValueError(f"z and y must stack the same rows, got shapes {z.shape} and {y.shape}")
    one = isinstance(P, SpdMatrix)
    if not one:
        P = tuple(P)
        if not P or not all(isinstance(p, SpdMatrix) for p in P):
            raise TypeError("P must be an SpdMatrix or a nonempty tuple of them")
        if z.shape[:-1] != (len(P),):
            raise ValueError(f"a tuple of {len(P)} P needs ({len(P)}, n) rows, got shape {z.shape}")
    n = P.n if one else next((p.n for p in P if p.n != model.n), model.n)  # first wrong size
    if n != model.n:
        raise ValueError(f"P must be {model.n} x {model.n}, got {n}")
    woodbury = model.m < model.n
    read = "P" if woodbury else "P_inv"  # the covariance matrix the form reads
    M = getattr(P, read) if one else np.array([getattr(p, read) for p in P])
    try:
        out = kernels["tikhonov_woodbury" if woodbury else "tikhonov_primal"](model.A, z, y, M)
    except np.linalg.LinAlgError as exc:
        system = "I + A_z P A_z^T" if woodbury else "A_z^T A_z + P^-1"
        raise NumericalFailure(f"tikhonov solve: the system {system} is singular in float64") from exc
    _check_finite_rows(out, NumericalFailure, "tikhonov solve produced")
    return out
