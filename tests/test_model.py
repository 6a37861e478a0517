"""Core types, activations, covariance construction, and the solver."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cgbound.backend import kernels
from cgbound.model import (
    MeasurementModel,
    NumericalFailure,
    SignalBounds,
    SpdMatrix,
    ball_project,
    mrelu,
    operator_inf_norm,
    spectral_norm,
    tikhonov_solve,
)

from cgbound.serialize import ConfigError, _parse_covariance, array_to_json

from oracles import cost_oracle, random_spd, spectral_norm_oracle, tikhonov_oracle

SEED_MODEL = 0x5EED_0001


class TestMrelu:
    def test_clamp_above(self):
        np.testing.assert_array_equal(mrelu(np.array([3.0]), 0.0, 2.0), [2.0])

    def test_clamp_below(self):
        np.testing.assert_array_equal(mrelu(np.array([-1.0]), 0.0, 2.0), [0.0])

    def test_identity_inside_interval(self):
        np.testing.assert_array_equal(mrelu(np.array([2.0]), 1.0, math.exp(3.0)), [2.0])

    def test_matches_two_relu_form(self):
        rng = np.random.default_rng(SEED_MODEL)
        x = rng.uniform(-5, 5, size=100)
        a, b = -1.2, 2.7
        relu = lambda v: np.maximum(v, 0.0)
        np.testing.assert_allclose(mrelu(x, a, b), a + relu(x - a) - relu(x - b))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            mrelu(np.array([1.0]), 2.0, 1.0)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(SEED_MODEL)
        x = rng.uniform(-10, 10, size=(10000, 6))
        y = rng.uniform(-10, 10, size=(10000, 6))
        fx, fy = mrelu(x, -2.0, 3.0), mrelu(y, -2.0, 3.0)
        lhs = np.linalg.norm(fx - fy, axis=1)
        rhs = np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= rhs + 1e-12), f"seed {SEED_MODEL:#x}"


class TestBallProject:
    def test_inside_ball_identity(self):
        np.testing.assert_array_equal(ball_project(np.array([0.3, 0.4]), 1.0), [0.3, 0.4])

    def test_rescales_to_radius(self):
        np.testing.assert_allclose(ball_project(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_norm_and_collinearity(self):
        rng = np.random.default_rng(SEED_MODEL)
        v = rng.standard_normal(7)
        v *= 10.0 / np.linalg.norm(v)
        out = ball_project(v, 2.0)
        assert np.linalg.norm(out) == pytest.approx(2.0, rel=1e-12)
        cosine = float(out @ v) / (np.linalg.norm(out) * np.linalg.norm(v))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ball_project(np.array([1.0]), 0.0)

    def test_squared_norm_overflow(self):
        # the squared norm overflows to inf; those rows are rescaled, not zeroed
        v = np.array([[1e200, 1e200], [3.0, 4.0], [-1e160, 0.0]])
        with np.errstate(over="ignore"):
            out = ball_project(v, 1.0)
            np.testing.assert_allclose(ball_project(v[0], 1.0), [2**-0.5, 2**-0.5], rtol=1e-15)
        np.testing.assert_allclose(out[0], [2**-0.5, 2**-0.5], rtol=1e-15)
        np.testing.assert_array_equal(out[1:], [[0.6, 0.8], [-1.0, 0.0]])

    def test_one_lipschitz(self):
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(10000):
            x = rng.standard_normal(4) * rng.uniform(0.1, 5)
            y = rng.standard_normal(4) * rng.uniform(0.1, 5)
            lhs = np.linalg.norm(ball_project(x, 1.5) - ball_project(y, 1.5))
            assert lhs <= np.linalg.norm(x - y) + 1e-12, f"seed {SEED_MODEL:#x}"


class TestMeasurementModel:
    def test_cached_norms_match_recomputation(self):
        rng = np.random.default_rng(SEED_MODEL)
        A = rng.standard_normal((5, 9))
        model = MeasurementModel(A, sigma=0.3)
        assert model.norm2 == pytest.approx(spectral_norm_oracle(A), rel=1e-10)
        assert model.norm_inf == pytest.approx(np.abs(A).sum(axis=1).max(), rel=1e-10)
        assert (model.m, model.n) == (5, 9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MeasurementModel(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            MeasurementModel(np.zeros(3))
        with pytest.raises(ValueError):
            MeasurementModel(np.eye(2), sigma=-1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            MeasurementModel(np.eye(2), sigma=sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_matrix(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="A must have finite entries"):
            MeasurementModel(A)

    def test_overflowing_row_sum_is_named_without_a_warning(self):
        # finite entries whose absolute row sum overflows float64
        with pytest.raises(ValueError, match="A must have finite entries and row sums"):
            MeasurementModel(np.array([[1e308, 1e308]]))

    def test_overflowing_spectral_norm_is_named(self):
        # finite row sums, but ||A||_2 = sqrt(2) * 1.5e308 overflows
        with pytest.raises(ValueError, match="^A's spectral norm overflows float64, got norm2=inf$"):
            MeasurementModel(np.array([[1.5e308], [1.5e308]]))

    def test_rejects_all_zero_matrix(self):
        # a zero operator has no back-projection scale (norm2 == 0)
        with pytest.raises(ValueError, match="A must not be all zero"):
            MeasurementModel(np.zeros((2, 3)))


class TestSpdMatrix:
    def test_spectrum_fields(self):
        P = SpdMatrix(np.diag([0.5, 2.0, 1.0]))
        assert P.p_max == pytest.approx(2.0)
        assert P.p_min_inv == pytest.approx(2.0)
        assert P.cond >= 1.0

    def test_rejects_asymmetric(self):
        M = np.eye(3)
        M[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            SpdMatrix(M)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            SpdMatrix(np.diag([1.0, -0.1]))


class TestSignalBounds:
    def test_default_interval(self):
        b = SignalBounds.default()
        assert b.a == 1.0 and b.b == pytest.approx(math.exp(3.0))
        assert b.z_inf == pytest.approx(math.exp(3.0)) and b.c_max == 1.0

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            SignalBounds(c_max=1.0, z_inf=1.0, xi=1.0, a=2.0, b=1.0)

    @pytest.mark.parametrize("field, value", [
        ("c_max", math.inf), ("z_inf", math.nan), ("xi", math.nan), ("a", math.nan),
        ("b", math.inf),
    ])
    def test_rejects_non_finite_radii(self, field, value):
        with pytest.raises(ValueError):
            replace(SignalBounds.default(), **{field: value})


class TestBuildCovariance:
    """Covariance specs built by the ``dataset.sigma_u`` config reader."""

    @staticmethod
    def _build(**spec):
        return _parse_covariance(spec, "dataset.sigma_u")

    def test_scaled_identity(self):
        P = self._build(structure="scaled_identity", epsilon=0.1, n=3, lam=2.0)
        np.testing.assert_allclose(P.P, 2.0 * np.eye(3))

    def test_diagonal_clamps(self):
        P = self._build(structure="diagonal", epsilon=0.1, lam_vec=[-1.0, 5.0])
        np.testing.assert_allclose(P.P, np.diag([0.1, 5.0]))

    def test_tridiagonal_identity_factor(self):
        P = self._build(structure="tridiagonal", epsilon=0.01, lam1=[1.0, 1.0], lam2=[0.0])
        np.testing.assert_allclose(P.P, 1.01 * np.eye(2))

    def test_full_gram(self):
        L = np.array([[1.0, 0.0], [0.5, 2.0]])
        P = self._build(structure="full", epsilon=0.01, L=array_to_json(L))
        np.testing.assert_allclose(P.P, L @ L.T + 0.01 * np.eye(2))

    def test_wrong_param_lengths(self):
        with pytest.raises(ConfigError, match=r"^dataset\.sigma_u\.lam2:"):
            self._build(structure="tridiagonal", lam1=[1.0, 1.0], lam2=[0.0, 0.0])

    def test_min_eigenvalue_floor(self):
        rng = np.random.default_rng(SEED_MODEL)
        eps = 1e-3
        for _ in range(50):
            n = int(rng.integers(1, 7))
            specs = [
                dict(structure="scaled_identity", epsilon=eps, n=n, lam=float(rng.normal())),
                dict(structure="diagonal", epsilon=eps, lam_vec=list(rng.normal(size=n))),
                dict(
                    structure="tridiagonal", epsilon=eps,
                    lam1=list(rng.normal(size=n)), lam2=list(rng.normal(size=n - 1)),
                ),
                dict(structure="full", epsilon=eps, L=array_to_json(rng.normal(size=(n, n)))),
            ]
            for spec in specs:
                P = self._build(**spec)
                assert np.linalg.eigvalsh(P.P)[0] >= eps - 1e-12, spec["structure"]


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_absolute_eigenvalue(self):
        assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_against_gram_eigenproblem(self):
        rng = np.random.default_rng(SEED_MODEL)
        M = rng.standard_normal((8, 8))
        assert spectral_norm(M) == pytest.approx(spectral_norm_oracle(M), rel=1e-10)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(20):
            M = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            assert spectral_norm(M) == pytest.approx(spectral_norm(M.T), rel=1e-10)

    def test_stack_equals_matrix_calls(self):
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(300):
            lead = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 3))))
            r, c = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            M = rng.standard_normal(lead + (r, c)) * rng.uniform(1e-3, 1e3)
            got = spectral_norm(M)
            assert isinstance(got, np.ndarray) and got.shape == lead
            for idx in np.ndindex(lead):
                want = spectral_norm(M[idx])
                assert isinstance(want, float)
                assert got[idx] == want, (lead, r, c, idx)

    def test_inf_norm_is_max_row_sum(self):
        M = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert operator_inf_norm(M) == pytest.approx(3.5)


@st.composite
def _solve_cases(draw):
    """A model scaled by 10^e over the float64 range, scales in the z_inf
    ball with some exact zeros, and one P or a tuple of them, one per row."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        model = MeasurementModel(10.0 ** draw(st.integers(-150, 205)) * rng.standard_normal((m, n)))
    except ValueError:
        assume(False)
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    lead = () if rows is None else (rows,)
    z_inf = SignalBounds.default().z_inf
    z = rng.uniform(-z_inf, z_inf, size=lead + (n,)) * (rng.random(lead + (n,)) < 0.7)
    y = rng.standard_normal(lead + (m,))
    Ps = [SpdMatrix(random_spd(rng, n)) for _ in range(rows or 1)]
    return model, z, y, Ps[0] if rows is None else tuple(Ps)


class TestTikhonovSolve:
    def test_scalar_instance(self):
        model = MeasurementModel(np.array([[1.0]]))
        P = SpdMatrix(np.array([[1.0]]))
        out = tikhonov_solve(model, np.array([1.0]), np.array([2.0]), P)
        np.testing.assert_allclose(out, [1.0])

    def test_zero_scale_gives_zero(self):
        rng = np.random.default_rng(SEED_MODEL)
        model = MeasurementModel(rng.standard_normal((3, 5)))
        P = SpdMatrix(random_spd(rng, 5))
        out = tikhonov_solve(model, np.zeros(5), rng.standard_normal(3), P)
        np.testing.assert_allclose(out, np.zeros(5), atol=1e-14)

    def test_paths_agree_and_match_oracle(self):
        rng = np.random.default_rng(SEED_MODEL)
        model = MeasurementModel(rng.standard_normal((4, 8)))
        P = SpdMatrix(random_spd(rng, 8))
        z = rng.uniform(-2, 2, size=8)
        y = rng.standard_normal(4)
        primal = kernels["tikhonov_primal"](model.A, z, y, P.P_inv)
        wood = kernels["tikhonov_woodbury"](model.A, z, y, P.P)
        ref = tikhonov_oracle(model.A, z, y, P.P)
        np.testing.assert_array_equal(tikhonov_solve(model, z, y, P), wood)  # m < n
        np.testing.assert_allclose(primal, wood, rtol=1e-8)
        np.testing.assert_allclose(primal, ref, rtol=1e-8)

    def test_woodbury_equivalence_randomized(self):
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(2000):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 9))
            model = MeasurementModel(rng.standard_normal((m, n)))
            P = SpdMatrix(random_spd(rng, n))
            z = rng.uniform(-2, 2, size=n)
            y = rng.standard_normal(m)
            t1 = kernels["tikhonov_primal"](model.A, z, y, P.P_inv)
            t2 = kernels["tikhonov_woodbury"](model.A, z, y, P.P)
            denom = max(np.linalg.norm(t1), 1e-30)
            assert np.linalg.norm(t1 - t2) / denom <= 1e-8, f"seed {SEED_MODEL:#x}"

    def test_regularized_inverse_norm_cap(self):
        # spectral norm of (A_z^T A_z + P^-1)^-1 never exceeds ||P||_2
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(500):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 7))
            A = rng.standard_normal((m, n))
            z = rng.uniform(-3, 3, size=n)
            P = SpdMatrix(random_spd(rng, n))
            Az = A * z
            lhs = spectral_norm(np.linalg.inv(Az.T @ Az + P.P_inv))
            assert lhs <= P.p_max * (1 + 1e-9) + 1e-12

    def test_shape_validation(self):
        model = MeasurementModel(np.eye(3))
        P = SpdMatrix(np.eye(3))
        with pytest.raises(ValueError):
            tikhonov_solve(model, np.zeros(2), np.zeros(3), P)
        # stacks must carry the same rows
        for z, y in ((np.zeros((2, 3)), np.zeros((4, 3))), (np.zeros(3), np.zeros((2, 3)))):
            with pytest.raises(ValueError, match="same rows"):
                tikhonov_solve(model, z, y, P)


    def test_tuple_of_P_equals_row_solves(self):
        # m < n (Woodbury) and m >= n (primal), one P per row
        rng = np.random.default_rng(SEED_MODEL)
        for _ in range(300):
            n, m, T = (int(v) for v in rng.integers(1, 10, size=3))
            model = MeasurementModel(rng.standard_normal((m, n)))
            Ps = tuple(SpdMatrix(random_spd(rng, n)) for _ in range(T))
            z = rng.uniform(-3, 3, size=(T, n))
            y = rng.standard_normal((T, m))
            out = tikhonov_solve(model, z, y, Ps)
            assert out.shape == (T, n)
            for t in range(T):
                np.testing.assert_array_equal(
                    out[t], tikhonov_solve(model, z[t], y[t], Ps[t]), err_msg=f"m={m} n={n} T={T}"
                )

    def test_tuple_of_P_validation(self):
        model = MeasurementModel(np.eye(3))
        P = SpdMatrix(np.eye(3))
        with pytest.raises(ValueError, match="needs"):
            tikhonov_solve(model, np.zeros((3, 3)), np.zeros((3, 3)), (P, P))
        with pytest.raises(ValueError, match="needs"):
            tikhonov_solve(model, np.zeros(3), np.zeros(3), (P,))
        with pytest.raises(ValueError, match="^P must be 3 x 3, got 2$"):
            tikhonov_solve(model, np.zeros((2, 3)), np.zeros((2, 3)), (P, SpdMatrix(np.eye(2))))
        with pytest.raises(TypeError):
            tikhonov_solve(model, np.zeros((1, 3)), np.zeros((1, 3)), (np.eye(3),))
        with pytest.raises(TypeError):
            tikhonov_solve(model, np.zeros((1, 3)), np.zeros((1, 3)), ())

    @pytest.mark.parametrize("shape, system", [
        ((2, 3), "I + A_z P A_z^T"), ((3, 2), "A_z^T A_z + P^-1"),
    ], ids=["woodbury", "primal"])
    def test_singular_system_is_a_numerical_failure(self, shape, system):
        # A_z's Gram matrix, of size 1e304, is rank one: the identity or P^-1
        # added to it is below rounding, so the system is singular in float64
        model = MeasurementModel(1e152 * np.ones(shape))
        m, n = shape
        with pytest.raises(NumericalFailure, match=f"the system {re.escape(system)} is singular"):
            tikhonov_solve(model, np.ones(n), np.ones(m), SpdMatrix(np.eye(n)))

    def test_singular_system_with_tuple_of_P(self):
        model = MeasurementModel(1e152 * np.ones((2, 3)))
        P = SpdMatrix(np.eye(3))
        with pytest.raises(NumericalFailure, match=r"I \+ A_z P A_z\^T is singular"):
            tikhonov_solve(model, np.ones((2, 3)), np.ones((2, 2)), (P, P))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_solve_cases())
    @example((MeasurementModel(1e152 * np.ones((2, 3))), np.ones(3), np.ones(2), SpdMatrix(np.eye(3))))
    def test_solve_returns_finite_rows_or_a_numerical_failure(self, case):
        model, z, y, P = case
        with np.errstate(over="ignore", invalid="ignore"):  # as forward runs its solves
            try:
                out = tikhonov_solve(model, z, y, P)
            except NumericalFailure:
                return
        assert out.shape == z.shape and np.all(np.isfinite(out))


class TestCostEval:
    def test_zero_estimate(self):
        A = np.array([[1.0, 1.0]])
        val = cost_oracle(np.zeros(2), np.ones(2), np.array([2.0]), A, np.eye(2))
        assert val == pytest.approx(2.0)

    def test_all_terms_vanish(self):
        A = np.array([[1.0, 1.0]])
        val = cost_oracle(np.zeros(2), np.ones(2), np.zeros(1), A, np.eye(2))
        assert val == 0.0

    def test_term_by_term_recomputation(self):
        rng = np.random.default_rng(SEED_MODEL)
        model = MeasurementModel(rng.standard_normal((3, 6)))
        P = SpdMatrix(random_spd(rng, 6))
        u, z = rng.standard_normal(6), rng.uniform(0.5, 2, size=6)
        y = rng.standard_normal(3)
        reg = lambda zz: 0.25 * float(np.sum(np.log(zz) ** 2))
        val = cost_oracle(u, z, y, model.A, P.P, reg=reg)
        resid = y - model.A @ (z * u)
        expected = 0.5 * resid @ resid + 0.5 * u @ np.linalg.solve(P.P, u) + reg(z)
        assert val == pytest.approx(expected, rel=1e-12)
