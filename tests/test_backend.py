"""Kernel table of the numpy backend."""

import numpy as np
import pytest

from cgbound.backend import active_backend, kernels

from oracles import datafit_grad_oracle, random_spd

SEED_BACKEND = 0x5EED_000B

KERNEL_NAMES = {
    "mrelu",
    "row_norm",
    "ball_project",
    "tikhonov_primal",
    "tikhonov_woodbury",
    "datafit_grad",
    "cgnet_step",
    "drcgnet_vstep",
}


def test_active_backend_is_known():
    assert active_backend() == "numpy"
    assert set(kernels) == KERNEL_NAMES


def _stacked_calls(rng, m, n, B):
    """Per kernel: its arguments, with (B, .) stacks at the listed positions."""
    A = rng.standard_normal((m, n))
    P = random_spd(rng, n)
    z = rng.uniform(0.5, 3.0, size=(B, n))
    u = rng.standard_normal((B, n))
    y = 3.0 * rng.standard_normal((B, m))
    v = rng.standard_normal((B, n)) * rng.uniform(0.1, 3.0, size=(B, 1))
    return {
        "mrelu": ((v, -0.5, 0.8), (0,)),
        "row_norm": ((v,), (0,)),
        "ball_project": ((v, np.sqrt(n)), (0,)),
        "tikhonov_primal": ((A, z, y, np.linalg.inv(P)), (1, 2)),
        "tikhonov_woodbury": ((A, z, y, P), (1, 2)),
        "datafit_grad": ((A, u, z, y), (1, 2, 3)),
        "cgnet_step": ((z, u, y, A, random_spd(rng, n), 0.7, 1.0, 20.0, 1.0), (0, 1, 2)),
        "drcgnet_vstep": ((z, u, y, A, 0.4, 1.0), (0, 1, 2)),
    }


def _shapes():
    for n in range(1, 20):
        for m in sorted({1, max(1, n // 2), n, n + 3}):
            yield m, n


# Unbatched reference forms: 2-D @ 1-D products and np.dot, the BLAS calls
# the stacked kernels must reproduce row for row. einsum('...i,...i'), for
# one, differs from np.dot in the last bit.
def _ref_ball_project(v, radius):
    return v / max(1.0, np.sqrt(np.dot(v, v)) / radius)


def _ref_tikhonov_primal(A, z, y, P_inv):
    Az = A * z
    return np.linalg.solve(Az.T @ Az + P_inv, Az.T @ y)


def _ref_tikhonov_woodbury(A, z, y, P):
    Az = A * z
    S = np.eye(A.shape[0]) + (Az @ P) @ Az.T
    return P @ (Az.T @ np.linalg.solve(S, y))


def _ref_cgnet_step(z, u, y, A, B, mu, a, b, xi):
    g = datafit_grad_oracle(A, u, z, y) + mu * (np.log(z) / z)
    return np.minimum(np.maximum(z - B @ _ref_ball_project(g, xi), a), b)


def _ref_drcgnet_vstep(z, u, y, A, delta, xi):
    return z - delta * _ref_ball_project(datafit_grad_oracle(A, u, z, y), xi)


REFERENCE = {
    "mrelu": lambda x, a, b: np.minimum(np.maximum(x, a), b),
    "row_norm": lambda v: np.sqrt(np.dot(v, v))[None],
    "ball_project": _ref_ball_project,
    "tikhonov_primal": _ref_tikhonov_primal,
    "tikhonov_woodbury": _ref_tikhonov_woodbury,
    "datafit_grad": datafit_grad_oracle,
    "cgnet_step": _ref_cgnet_step,
    "drcgnet_vstep": _ref_drcgnet_vstep,
}


@pytest.mark.parametrize("name", sorted(KERNEL_NAMES))
def test_stack_equals_row_calls(name):
    # m < n and m >= n, so both Tikhonov forms see both shapes
    rng = np.random.default_rng(SEED_BACKEND)
    for m, n in _shapes():
        B = int(rng.integers(1, 41))
        args, stacked = _stacked_calls(rng, m, n, B)[name]
        rows = [
            tuple(a[i] if pos in stacked else a for pos, a in enumerate(args))
            for i in range(B)
        ]
        out = kernels[name](*args)
        msg = f"m={m} n={n} B={B}"
        np.testing.assert_array_equal(out, np.stack([kernels[name](*r) for r in rows]), err_msg=msg)
        np.testing.assert_array_equal(out, np.stack([REFERENCE[name](*r) for r in rows]), err_msg=msg)


@pytest.mark.parametrize("name", ["tikhonov_primal", "tikhonov_woodbury", "cgnet_step", "drcgnet_vstep"])
def test_parameter_stack_equals_row_calls(name):
    # P, P_inv and B as (T, n, n) stacks, mu and delta as (T,) arrays with zeros
    rng = np.random.default_rng(SEED_BACKEND + 1)
    for m, n in _shapes():
        T = int(rng.integers(1, 6))
        A = rng.standard_normal((m, n))
        P = np.stack([random_spd(rng, n) for _ in range(T)])
        z = rng.uniform(0.5, 3.0, size=(T, n))
        u = rng.standard_normal((T, n))
        y = 3.0 * rng.standard_normal((T, m))
        coef = rng.uniform(-1.0, 1.0, size=T) * (rng.random(T) < 0.6)
        args = {
            "tikhonov_primal": (A, z, y, np.linalg.inv(P)),
            "tikhonov_woodbury": (A, z, y, P),
            "cgnet_step": (z, u, y, A, P, coef, 1.0, 20.0, 1.0),
            "drcgnet_vstep": (z, u, y, A, coef, 1.0),
        }[name]
        out = kernels[name](*args)
        rows = [tuple(a[t] if np.ndim(a) and a is not A else a for a in args) for t in range(T)]
        msg = f"m={m} n={n} T={T}"
        np.testing.assert_array_equal(out, np.stack([kernels[name](*r) for r in rows]), err_msg=msg)
        np.testing.assert_array_equal(out, np.stack([REFERENCE[name](*r) for r in rows]), err_msg=msg)


def test_row_norm_of_a_row_holding_inf_is_inf():
    # a row holding inf has norm inf, with no warning; a huge finite row in the
    # same stack is still rescaled and a small one keeps its bits
    row_norm = kernels["row_norm"]
    for v in ([np.inf, 1.0], [-np.inf, np.inf], [0.0, -np.inf, 2.0]):
        np.testing.assert_array_equal(row_norm(np.array(v)), [np.inf])
    v = np.array([[1e200, 1e200], [np.inf, 0.0], [3.0, 4.0]])
    with np.errstate(over="ignore"):  # the finite huge row's square overflows
        out = row_norm(v)
    np.testing.assert_array_equal(out[1:], [[np.inf], [5.0]])
    np.testing.assert_allclose(out[0], [2**0.5 * 1e200], rtol=1e-15)


def test_fallback_gradient_whose_square_underflows_is_clipped_to_xi():
    # g = A u (A u z - y) overflows; its recompute over max(|u|, |y|) is about
    # 1e-229, whose square underflows to 0. The clip must still give xi.
    A, z, u, y = np.array([[8.79497427e-99]]), np.array([0.5]), np.array([1e140]), np.array([-3.3e268])
    with np.errstate(over="ignore", invalid="ignore"):  # forward's errstate
        out = kernels["drcgnet_vstep"](z, u, y, A, 1.0, 1e-3)
    np.testing.assert_array_equal(out, [0.5 - 1e-3])
