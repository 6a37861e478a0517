"""Core domain types and shared numerics.

Holds the linear measurement model ``y = A(z * u) + noise`` with cached
operator norms, the four structured symmetric-positive-definite covariance
constructions, the clamp/projection activations, the regularized
least-squares (Tikhonov) solver, which picks its primal or Woodbury form by
shape, and the alternating cost function they all minimize. The activations
and the solver take a vector or a stack of vectors along a leading batch
axis and act on each row (the last axis) independently.

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
    "CovarianceSpec",
    "SignalBounds",
    "COV_STRUCTURES",
    "spectral_norm",
    "operator_inf_norm",
    "mrelu",
    "ball_project",
    "build_covariance",
    "tikhonov_solve",
    "cost_eval",
]

COV_STRUCTURES = ("scaled_identity", "diagonal", "tridiagonal", "full")

SYMMETRY_TOL = 1e-12


class NumericalFailure(RuntimeError):
    """A linear solve produced non-finite values despite the SPD guards."""


def _as_vector(x, n=None, name="vector"):
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {v.shape[0]}")
    return v


def _as_rows(x, n, name):
    """``x`` as a length-``n`` vector or a ``(B, n)`` stack of them."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise ValueError(f"{name} must have shape ({n},) or (B, {n}), got {v.shape}")
    return v


def spectral_norm(M):
    """Largest singular value of a dense matrix (exact via full SVD)."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    return float(np.linalg.svd(M, compute_uv=False)[0])


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
        norm_inf = operator_inf_norm(A)
        if not math.isfinite(norm_inf):
            raise ValueError(f"A must have finite entries and row sums, got norm_inf={norm_inf}")
        if norm_inf == 0.0:
            raise ValueError("A must not be all zero")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "norm2", spectral_norm(A))
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
        if self.a > self.b:
            raise ValueError(f"clamp interval requires a <= b, got a={self.a}, b={self.b}")
        for name in ("c_max", "z_inf", "xi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def default(cls):
        """Exponential-scale setup: clamp [1, e^3], unit clip, unit signal ball."""
        e3 = math.exp(3.0)
        return cls(c_max=1.0, z_inf=e3, xi=1.0, a=1.0, b=e3)


@dataclass(frozen=True)
class CovarianceSpec:
    """Parameters of one structured covariance construction.

    structure            parameters used
    ----------------     -------------------------------------------
    scaled_identity      lam (scalar), n
    diagonal             lam_vec (length n)
    tridiagonal          lam1 (length n), lam2 (length n-1)
    full                 L (n x n, lower triangular)

    ``epsilon`` is the positive stabilizer that keeps the materialized
    matrix positive definite.
    """

    structure: str
    epsilon: float = 1e-4
    n: int = 0
    lam: float = 0.0
    lam_vec: tuple = ()
    lam1: tuple = ()
    lam2: tuple = ()
    L: tuple = ()

    def __post_init__(self):
        if self.structure not in COV_STRUCTURES:
            raise ValueError(f"unknown covariance structure {self.structure!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


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


def build_covariance(spec):
    """Materialize a CovarianceSpec into an SpdMatrix.

    The scaled-identity and diagonal constructions clamp their learned
    entries below by ``epsilon``; the Gram constructions add ``epsilon * I``
    to a lower-triangular product, so the smallest eigenvalue is at least
    ``epsilon`` in every case.
    """
    eps = spec.epsilon
    if spec.structure == "scaled_identity":
        if spec.n < 1:
            raise ValueError("scaled_identity requires n >= 1")
        P = max(spec.lam, eps) * np.eye(spec.n)
    elif spec.structure == "diagonal":
        lam = _as_vector(spec.lam_vec, name="lam_vec")
        if lam.size < 1:
            raise ValueError("diagonal requires a nonempty lam_vec")
        P = np.diag(np.maximum(lam, eps))
    elif spec.structure == "tridiagonal":
        lam1 = _as_vector(spec.lam1, name="lam1")
        lam2 = _as_vector(spec.lam2, name="lam2")
        n = lam1.size
        if n < 1 or lam2.size != n - 1:
            raise ValueError(
                f"tridiagonal requires len(lam1)=n>=1 and len(lam2)=n-1, got {n} and {lam2.size}"
            )
        Ltri = np.diag(lam1)
        if n > 1:
            Ltri += np.diag(lam2, k=-1)
        P = Ltri @ Ltri.T + eps * np.eye(n)
    else:  # full
        L = np.asarray(spec.L, dtype=np.float64)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError(f"full requires a square L, got shape {L.shape}")
        L = np.tril(L)
        P = L @ L.T + eps * np.eye(L.shape[0])
    P = 0.5 * (P + P.T)
    return SpdMatrix(P)


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
    the solve of that row alone. A non-finite result raises
    ``NumericalFailure``, naming the first failing row of a stack.
    """
    z = _as_rows(z, model.n, "z")
    y = _as_rows(y, model.m, "y")
    if z.shape[:-1] != y.shape[:-1]:
        raise ValueError(f"z and y must stack the same rows, got shapes {z.shape} and {y.shape}")
    if P.n != model.n:
        raise ValueError(f"P must be {model.n} x {model.n}, got {P.n}")
    if model.m < model.n:
        out = kernels["tikhonov_woodbury"](model.A, z, y, P.P)
    else:
        out = kernels["tikhonov_primal"](model.A, z, y, P.P_inv)
    _check_finite_rows(out, NumericalFailure, "tikhonov solve produced")
    return out


def cost_eval(u, z, y, model, P, reg=None):
    """Alternating objective: 0.5*||y - A(z*u)||^2 + 0.5*u^T P^-1 u + R(z)."""
    u = _as_vector(u, model.n, "u")
    z = _as_vector(z, model.n, "z")
    y = _as_vector(y, model.m, "y")
    resid = y - model.A @ (z * u)
    value = 0.5 * float(resid @ resid) + 0.5 * float(u @ (P.P_inv @ u))
    if reg is not None:
        value += float(reg(z))
    return value
