"""Unrolled forward passes, scale updates, and parameter sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgbound.datagen import generate_cg_dataset
from cgbound.model import (
    MeasurementModel,
    NumericalFailure,
    SignalBounds,
    ball_project,
    mrelu,
    spectral_norm,
    tikhonov_solve,
)
from cgbound.networks import (
    NetworkConfig,
    ParameterSet,
    _scale_update,
    forward,
    parameter_distance,
    sample_covariance,
    sample_parameters,
    subnet_forward,
    validate_parameters,
)
from cgbound.report import default_config
from cgbound.serialize import load_run_config

from oracles import (
    alternating_ls_oracle,
    central_diff_grad,
    cost_oracle,
    grad_z_oracle,
    random_spd,
)

SEED_NET = 0x5EED_0002

BOUNDS = SignalBounds.default()


def _model(rng, m=4, n=8):
    return MeasurementModel(rng.standard_normal((m, n)))


def _cg_config(n=8, K=2, J=2):
    return NetworkConfig(
        variant="cgnet", n=n, K=K, J=J, bounds=BOUNDS,
        p_min=0.5, p_max=2.0, mu_bound=1.0,
    )


def _dr_config(n=8, K=2, J=2, Lc=1):
    filters = (1,) * (Lc + 1) if Lc == 1 else (1, 2, 1)
    return NetworkConfig(
        variant="drcgnet", n=n, K=K, J=J, bounds=BOUNDS,
        p_min=0.5, p_max=2.0, Lc=Lc, filters=filters,
        kernels=(3,) * Lc, weight_bounds=(0.9,) * Lc, delta=0.5,
    )


class TestGradZ:
    def test_zero_gaussian_and_mu(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(1, 3, size=8)
        out = grad_z_oracle(z, np.zeros(8), rng.standard_normal(4), model.A, 0.0)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_unit_scale_kills_log_term(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        out = grad_z_oracle(np.ones(8), np.zeros(8), rng.standard_normal(4), model.A, 5.0)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_matches_finite_differences(self):
        # gradient of the alternating objective with R(z) = (mu/2)||log z||^2
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        P = random_spd(rng, 8)
        u = rng.standard_normal(8)
        z = rng.uniform(1.2, 2.5, size=8)
        y = rng.standard_normal(4)
        mu = 0.7
        reg = lambda zz: 0.5 * mu * float(np.sum(np.log(zz) ** 2))
        f = lambda zz: cost_oracle(u, zz, y, model.A, P, reg=reg)
        fd = central_diff_grad(f, z, h=1e-6)
        np.testing.assert_allclose(grad_z_oracle(z, u, y, model.A, mu), fd, rtol=1e-4)

    def test_domain_error(self):
        model = MeasurementModel(np.eye(2))
        # a stack is checked whole: one bad entry in its last row
        z = np.ones((3, 2))
        z[2, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            _scale_update(z, np.zeros((3, 2)), np.zeros((3, 2)), model, (np.eye(2), 1.0), _cg_config(n=2))


class TestCgnetStep:
    def test_zero_matrix_is_pure_clamp(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(0.5, 30, size=8)
        u = rng.standard_normal(8)
        y = rng.standard_normal(4)
        out = _scale_update(z, u, y, model, (np.zeros((8, 8)), 0.0), _cg_config())
        np.testing.assert_array_equal(out, mrelu(mrelu(z, BOUNDS.a, BOUNDS.b), 0.0, BOUNDS.z_inf))

    def test_unit_scale_zero_gaussian_fixed_point(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        B = random_spd(rng, 8)
        out = _scale_update(np.ones(8), np.zeros(8), rng.standard_normal(4),
                            model, (B, 0.8), _cg_config())
        np.testing.assert_allclose(out, np.ones(8), atol=1e-14)

    def test_composition_oracle(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(1, 15, size=8)
        u = rng.standard_normal(8)
        y = rng.standard_normal(4)
        B = random_spd(rng, 8)
        mu = 0.4
        out = _scale_update(z, u, y, model, (B, mu), _cg_config())
        expected = mrelu(mrelu(
            z - B @ ball_project(grad_z_oracle(z, u, y, model.A, mu), BOUNDS.xi),
            BOUNDS.a, BOUNDS.b,
        ), 0.0, BOUNDS.z_inf)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)


class TestSubnet:
    def test_single_identity_layer(self):
        z = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(subnet_forward([np.eye(3)], z), z)

    def test_zero_last_layer(self):
        rng = np.random.default_rng(SEED_NET)
        Ws = [rng.standard_normal((5, 3)), np.zeros((2, 5))]
        np.testing.assert_array_equal(subnet_forward(Ws, rng.standard_normal(3)), np.zeros(2))

    def test_inactive_relu_equals_plain_product(self):
        rng = np.random.default_rng(SEED_NET)
        W1 = rng.uniform(0.1, 1.0, size=(4, 3))
        W2 = rng.uniform(0.1, 1.0, size=(2, 4))
        z = rng.uniform(0.0, 1.0, size=3)
        np.testing.assert_allclose(subnet_forward([W1, W2], z), W2 @ (W1 @ z), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            subnet_forward([np.eye(3)], np.zeros(4))

    def test_norm_cap(self):
        rng = np.random.default_rng(SEED_NET)
        for _ in range(300):
            T = int(rng.integers(1, 4))
            widths = [int(rng.integers(2, 7)) for _ in range(T + 1)]
            Ws = [rng.standard_normal((widths[t + 1], widths[t])) for t in range(T)]
            x = rng.standard_normal(widths[0])
            lhs = np.linalg.norm(np.maximum(subnet_forward(Ws, x), 0.0))
            rhs = np.prod([spectral_norm(W) for W in Ws]) * np.linalg.norm(x)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestDrcgnetStep:
    def test_identity_update(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(0, 3, size=8)
        out = _scale_update(z, rng.standard_normal(8), rng.standard_normal(4),
                            model, (np.zeros((8, 8)), 0.0), _dr_config())
        np.testing.assert_array_equal(out, mrelu(z, 0.0, BOUNDS.z_inf))

    def test_zero_gaussian_zero_weights(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(0, 3, size=8)
        out = _scale_update(z, np.zeros(8), rng.standard_normal(4),
                            model, (np.zeros((8, 8)), 0.7), _dr_config())
        np.testing.assert_allclose(out, mrelu(z, 0.0, BOUNDS.z_inf), atol=1e-14)

    def test_composition_oracle(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = rng.uniform(0, 3, size=8)
        u = rng.standard_normal(8)
        y = rng.standard_normal(4)
        W = rng.standard_normal((8, 8))
        delta = 0.3
        out = _scale_update(z, u, y, model, (W, delta), _dr_config())
        Au = model.A * u
        v = z - delta * ball_project(Au.T @ (Au @ z - y), BOUNDS.xi)
        np.testing.assert_allclose(out, mrelu(v + W @ z, 0.0, BOUNDS.z_inf), rtol=1e-12, atol=1e-14)


class TestForward:
    def test_zero_measurement_gives_zero_output(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        for config in (_cg_config(), _dr_config()):
            theta = sample_parameters(config, 5)
            trace = forward(np.zeros(4), theta, config, model)
            np.testing.assert_allclose(trace.output, np.zeros(8), atol=1e-14)
            if config.variant == "drcgnet":
                np.testing.assert_array_equal(trace.z0, np.zeros(8))

    def test_single_layer_hand_composition(self):
        # K = J = 1 with B = 0 and mu = 0 reduces to clamp -> solve -> clamp
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        config = _cg_config(K=1, J=1)
        P = sample_covariance("scaled_identity", 8, 0.5, 2.0, np.random.default_rng(3))
        theta = ParameterSet(P=P, blocks=(np.zeros((1, 1, 8, 8)), np.zeros((1, 1))))
        y = rng.standard_normal(4)
        trace = forward(y, theta, config, model)

        z0 = mrelu(model.A.T @ y / model.norm2, BOUNDS.a, BOUNDS.z_inf)
        z1 = mrelu(mrelu(z0, BOUNDS.a, BOUNDS.b), 0.0, BOUNDS.z_inf)
        u1 = tikhonov_solve(model, z1, y, P)
        expected = ball_project(z1 * u1, BOUNDS.c_max)
        np.testing.assert_allclose(trace.output, expected, rtol=1e-12, atol=1e-15)

    def test_trace_invariants(self):
        rng = np.random.default_rng(SEED_NET)
        for trial in range(100):
            model = _model(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(2, 9)))
            config = (_cg_config, _dr_config)[trial % 2](n=model.n)
            theta = sample_parameters(config, int(rng.integers(2**31)))
            y = rng.standard_normal(model.m) * rng.uniform(0.1, 5)
            trace = forward(y, theta, config, model)
            assert np.linalg.norm(trace.output) <= config.bounds.c_max * (1 + 1e-12)
            for zk in trace.z:
                for zj in zk:
                    assert np.all(zj >= -1e-15) and np.all(zj <= config.bounds.z_inf + 1e-12)
            assert len(trace.u) == config.K + 1

    def test_shape_errors(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        config = _cg_config()
        theta = sample_parameters(config, 1)
        with pytest.raises(ValueError):
            forward(np.zeros(5), theta, config, model)
        for bad in (np.zeros((3, 5)), np.zeros((2, 3, 4)), np.zeros(())):
            with pytest.raises(ValueError, match="y must have shape"):
                forward(bad, theta, config, model)

    @pytest.mark.filterwarnings("error")
    def test_numerical_failure_names_row(self):
        # the overflow surfaces as the named failure, with no warning first;
        # with m = n the normal equations' right side A_z^T y overflows
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng, m=8)
        for config in (_cg_config(), _dr_config()):
            theta = sample_parameters(config, 1)
            Y = rng.standard_normal((4, 8))
            Y[2] = 1e307
            with pytest.raises(NumericalFailure, match="non-finite values in row 2$"):
                forward(Y, theta, config, model)
            with pytest.raises(NumericalFailure, match="non-finite values$"):
                forward(Y[2], theta, config, model)

    @pytest.mark.filterwarnings("error")
    def test_singular_solve_is_a_numerical_failure(self):
        # I + A_z P A_z^T is rank one at 1e304, with the identity below rounding
        config = _dr_config(n=3, K=1, J=1)
        model = MeasurementModel(1e152 * np.ones((2, 3)))
        theta = sample_parameters(config, 1)
        for thetas in (theta, (theta, theta)):
            with pytest.raises(NumericalFailure, match="is singular in float64$"):
                forward(np.ones(2), thetas, config, model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_measurement(self, bad):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        config = _dr_config()
        theta = sample_parameters(config, 1)
        Y = rng.standard_normal((4, 4))
        Y[1, 3] = bad
        with pytest.raises(ValueError, match="^y has non-finite values in row 1$"):
            forward(Y, theta, config, model)
        with pytest.raises(ValueError, match="^y has non-finite values$"):
            forward(Y[1], theta, config, model)

    @pytest.mark.filterwarnings("error")
    def test_huge_measurement_reaches_signal_ball(self):
        # z * u has a squared norm above the float64 range; its projection
        # must land on the c_max sphere, not at zero
        cfg = load_run_config(default_config())
        theta = sample_parameters(cfg.network, 3)
        y = 1e155 * generate_cg_dataset(cfg.dataset_spec).Y[0]
        out = forward(y, theta, cfg.network, cfg.model).output
        assert np.linalg.norm(out) == pytest.approx(cfg.network.bounds.c_max, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["cgnet", "drcgnet", "default"])
    def test_measurements_above_1e154_run(self, variant):
        # the data-fit gradient, of size |y|^2, overflows; the clip keeps its
        # direction, and every other row of a stack keeps its bits
        rng = np.random.default_rng(SEED_NET)
        if variant == "default":
            cfg = load_run_config(default_config())
            config, model = cfg.network, cfg.model
        else:
            config = _cg_config() if variant == "cgnet" else _dr_config()
            model = _model(rng)
        theta = sample_parameters(config, 3)
        for scale in (1e155, 1e160, 1e300):
            out = forward(scale * np.ones(model.m), theta, config, model).output
            assert np.all(np.isfinite(out)), scale
        Y = rng.standard_normal((5, model.m))
        Y[2] = 1e160 * rng.uniform(0.5, 2.0, size=model.m)
        trace = forward(Y, theta, config, model)
        assert np.all(np.isfinite(trace.output))
        for i, y in enumerate(Y):
            for got, want in zip(_trace_fields(trace), _trace_fields(forward(y, theta, config, model))):
                np.testing.assert_array_equal(got[i], want)

    def test_cgnet_rejects_a_zero_scale(self):
        # with a = 0 the initial clamp leaves z = 0 where A^T y < 0, and the
        # log term of a nonzero mu is undefined there
        config = replace(_cg_config(n=4), bounds=replace(BOUNDS, a=0.0))
        theta = sample_parameters(config, 1)
        with pytest.raises(ValueError, match="requires strictly positive z"):
            forward(np.array([1.0, -1.0, 2.0, -2.0]), theta, config, MeasurementModel(np.eye(4)))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_fallback_gradient_stays_on_the_xi_sphere(self):
        # the data-fit gradient overflows and its recompute, about 1e-229, has a
        # squared norm that underflows; the step must move z by about B * xi,
        # not send it to the clamp ceiling
        bounds = SignalBounds(c_max=1.52e92, z_inf=19.710476026451484, xi=1.1263761501765088e-20,
                              a=3.155936251341694e-4, b=19.710476026451484)
        config = NetworkConfig(variant="cgnet", n=1, K=1, J=1, bounds=bounds,
                               p_min=0.5, p_max=2.0, mu_bound=2.808103821780739)
        theta = sample_parameters(config, 22578684)
        trace = forward(np.array([-3.27868323e+268]), theta, config,
                        MeasurementModel(np.array([[8.79497427e-99]])))
        assert trace.z[0][0][0] == pytest.approx(trace.z0[0], rel=1e-12)


def _trace_fields(trace):
    return [trace.z0, *(z for zk in trace.z for z in zk), *trace.u, trace.output]


@st.composite
def _stacked_forward_cases(draw):
    K = draw(st.integers(1, 12))
    J = draw(st.integers(1, 12 // K))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    if draw(st.sampled_from(("cgnet", "drcgnet"))) == "cgnet":
        config = _cg_config(n=n, K=K, J=J)
    else:
        config = _dr_config(n=n, K=K, J=J, Lc=draw(st.integers(1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    model = MeasurementModel(rng.standard_normal((m, n)))
    theta = sample_parameters(config, rng)
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    Y = draw(arrays(np.float64, (draw(st.integers(1, 40)), m), elements=finite))
    return config, model, theta, Y


class TestStackedForward:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_stacked_forward_cases())
    def test_rows_match_single_passes_and_invariants_hold(self, case):
        config, model, theta, Y = case
        trace = forward(Y, theta, config, model)
        fields = _trace_fields(trace)
        assert all(f.shape == (Y.shape[0], config.n) for f in fields)
        for i, y in enumerate(Y):
            for got, want in zip(fields, _trace_fields(forward(y, theta, config, model))):
                np.testing.assert_array_equal(got[i], want)
        assert np.all(np.linalg.norm(trace.output, axis=-1) <= config.bounds.c_max * (1 + 1e-12))
        for z in (trace.z0, *(z for zk in trace.z for z in zk)):
            assert np.all((z >= 0.0) & (z <= config.bounds.z_inf))


@st.composite
def _parameter_stack_cases(draw):
    K = draw(st.integers(1, 12))
    J = draw(st.integers(1, 12 // K))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    if draw(st.sampled_from(("cgnet", "drcgnet"))) == "cgnet":
        config = _cg_config(n=n, K=K, J=J)
    else:
        config = _dr_config(n=n, K=K, J=J, Lc=draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = MeasurementModel(rng.standard_normal((m, n)))
    thetas = []
    for _ in range(draw(st.integers(1, 4))):
        theta = sample_parameters(config, rng)
        if draw(st.booleans()):
            # a zero last block: mu for cgnet (no log term), delta for drcgnet
            blocks = (*theta.blocks[:-1], np.zeros_like(theta.blocks[-1]))
            theta = ParameterSet(P=theta.P, blocks=blocks)
        thetas.append(theta)
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    y = draw(arrays(np.float64, (m,), elements=finite))
    return config, model, tuple(thetas), y


class TestParameterStack:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_parameter_stack_cases())
    def test_rows_match_single_passes(self, case):
        config, model, thetas, y = case
        fields = _trace_fields(forward(y, thetas, config, model))
        assert all(f.shape == (len(thetas), config.n) for f in fields)
        for t, theta in enumerate(thetas):
            for got, want in zip(fields, _trace_fields(forward(y, theta, config, model))):
                np.testing.assert_array_equal(got[t], want)

    def test_zero_mu_row_skips_log_term(self):
        # a row with mu == 0 may hold z <= 0, where the log term is undefined
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        z = np.stack([rng.uniform(1, 3, size=8), np.zeros(8)])
        u, y = rng.standard_normal((2, 8)), rng.standard_normal((2, 4))
        B = np.stack([random_spd(rng, 8), random_spd(rng, 8)])
        mu = np.array([0.7, 0.0])
        config = _cg_config()
        out = _scale_update(z, u, y, model, (B, mu), config)
        for t in range(2):
            np.testing.assert_array_equal(out[t], _scale_update(z[t], u[t], y[t], model, (B[t], mu[t]), config))

    def test_rejects_bad_stacks(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        config = _cg_config()
        theta = sample_parameters(config, 1)
        with pytest.raises(ValueError, match="one y"):
            forward(rng.standard_normal((2, 4)), (theta, theta), config, model)
        with pytest.raises(TypeError):
            forward(rng.standard_normal(4), (), config, model)
        with pytest.raises(ValueError):  # a stack of another (K, J)
            forward(rng.standard_normal(4), (theta, sample_parameters(_cg_config(K=1), 2)), config, model)


class TestNetworkConfig:
    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            _cg_config(K=0)

    @pytest.mark.parametrize("make, field, value", [
        (_cg_config, "p_max", math.inf),
        (_cg_config, "mu_bound", math.nan),
        (_cg_config, "mu_bound", math.inf),
        (_dr_config, "delta", math.nan),
        (_dr_config, "delta", math.inf),
        (_dr_config, "weight_bounds", (math.inf,)),
        (_dr_config, "weight_bounds", (math.nan,)),
    ], ids=["p_max_inf", "mu_nan", "mu_inf", "delta_nan", "delta_inf", "weight_inf", "weight_nan"])
    def test_rejects_non_finite_radii(self, make, field, value):
        with pytest.raises(ValueError, match=field):
            replace(make(), **{field: value})


class TestGcgls:
    """The forward pass against the alternating least-squares oracle."""

    def test_matches_forward_bit_path(self):
        rng = np.random.default_rng(SEED_NET)
        for trial in range(20):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            model = _model(rng, m=m, n=n)
            config = (_cg_config, _dr_config)[trial % 2](n=n, K=int(rng.integers(1, 3)),
                                                         J=int(rng.integers(1, 3)))
            theta = sample_parameters(config, trial)
            y = rng.standard_normal(m)
            ref = alternating_ls_oracle(y, model.A, theta.P.P, theta.blocks, config)
            out = forward(y, theta, config, model).output
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_zero_measurement(self):
        rng = np.random.default_rng(SEED_NET)
        model = _model(rng)
        config = _dr_config()
        theta = sample_parameters(config, 2)
        out = alternating_ls_oracle(np.zeros(4), model.A, theta.P.P, theta.blocks, config)
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)


class TestSampling:
    def test_deterministic_in_seed(self):
        config = _dr_config(Lc=2)
        t1 = sample_parameters(config, 99)
        t2 = sample_parameters(config, 99)
        np.testing.assert_array_equal(t1.P.P, t2.P.P)
        for b1, b2 in zip(t1.blocks, t2.blocks, strict=True):
            np.testing.assert_array_equal(b1, b2)

    def test_different_seeds_differ(self):
        config = _cg_config()
        t1 = sample_parameters(config, 1)
        t2 = sample_parameters(config, 2)
        assert not np.array_equal(t1.blocks[0][0, 0], t2.blocks[0][0, 0])

    def test_samples_pass_ball_validation(self):
        for i in range(1000):
            config = (_cg_config, _dr_config)[i % 2](n=6, K=1, J=1)
            validate_parameters(sample_parameters(config, i), config)

    def test_covariance_structures_and_spectrum(self):
        rng = np.random.default_rng(SEED_NET)
        for structure in ("scaled_identity", "diagonal", "tridiagonal", "full"):
            P = sample_covariance(structure, 6, 0.5, 2.0, rng)
            eigs = np.linalg.eigvalsh(P.P)
            assert eigs[0] >= 0.5 - 1e-9 and eigs[-1] <= 2.0 + 1e-9
            if structure == "tridiagonal":
                off = np.triu(np.abs(P.P), k=2)
                assert np.max(off) < 1e-12

    def test_validation_rejects_each_violation(self):
        for config in (_cg_config(K=2, J=3), _dr_config(K=2, J=3, Lc=2)):
            theta = sample_parameters(config, 11)
            blocks = theta.blocks
            with pytest.raises(ValueError, match=f"expected {config.D} block stacks"):
                validate_parameters(replace(theta, blocks=blocks[:-1]), config)
            with pytest.raises(ValueError, match=r"block 1 stack has shape \(3, 2, "):
                validate_parameters(replace(theta, blocks=(blocks[0].swapaxes(0, 1), *blocks[1:])), config)
            with pytest.raises(ValueError, match=f"block {config.D} stack has shape \\(2, 3, 1\\)"):
                validate_parameters(replace(theta, blocks=(*blocks[:-1], blocks[-1][..., None])), config)
            for value in (1.01 * config.parameter_dims()[-1][1], math.nan):
                far = blocks[-1].copy()
                far[1, 2] = value
                with pytest.raises(ValueError, match=f"block {config.D} at layer 2 step 3 leaves its ball"):
                    validate_parameters(replace(theta, blocks=(*blocks[:-1], far)), config)
            wide = blocks[0].copy()
            wide[0, 1] *= 1.01 * config.parameter_dims()[0][1] / spectral_norm(wide[0, 1])
            with pytest.raises(ValueError, match="block 1 at layer 1 step 2 leaves its ball"):
                validate_parameters(replace(theta, blocks=(wide, *blocks[1:])), config)
            for lam in (0.99 * config.p_min, 1.01 * config.p_max):
                P = sample_covariance("scaled_identity", config.n, lam, lam, np.random.default_rng(1))
                with pytest.raises(ValueError, match=r"covariance spectrum leaves \[p_min, p_max\]"):
                    validate_parameters(replace(theta, P=P), config)

    def test_parameter_distance_matches_single_block_norms(self):
        for config in (_cg_config(K=2, J=3), _dr_config(K=3, J=1, Lc=2)):
            t1, t2 = sample_parameters(config, 21), sample_parameters(config, 22)
            p_dist, dist = parameter_distance(t1, t2)
            assert p_dist == spectral_norm(t1.P.P - t2.P.P)
            assert dist.shape == (config.K, config.J, config.D)
            for k, j, d in np.ndindex(dist.shape):
                diff = t1.blocks[d][k, j] - t2.blocks[d][k, j]
                assert dist[k, j, d] == (spectral_norm(diff) if diff.ndim else abs(diff))

    def test_parameter_distance_zero_for_identical(self):
        config = _dr_config()
        theta = sample_parameters(config, 7)
        p_dist, dist = parameter_distance(theta, theta)
        assert p_dist == 0.0 and dist.shape == (config.K, config.J, config.D) and not dist.any()
