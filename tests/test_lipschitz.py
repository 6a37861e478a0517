"""Sensitivity-constant formulas, aggregation, and dominance checks."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cgbound.lipschitz import (
    H_MAX,
    TAU_H,
    _assemble,
    _logaddexp,
    _logsumexp,
    datafit_grad_constants,
    fc_lipschitz,
    network_constants,
    network_constants_exact,
    tikhonov_constants,
)
from cgbound.model import MeasurementModel, SignalBounds
from cgbound.networks import NetworkConfig, sample_covariance

SEED_LIP = 0x5EED_0003

E3 = math.exp(3.0)
UNIT_MODEL = MeasurementModel(np.array([[1.0]]))


class TestRegularizerExtrema:
    def test_log_over_z_peak(self):
        # max of log(z)/z over [1, e^3] sits at z = e with value 1/e
        z = np.linspace(1.0, E3, 200001)
        grid_max = np.max(np.log(z) / z)
        assert grid_max <= H_MAX + 1e-9
        assert grid_max == pytest.approx(H_MAX, abs=1e-6)

    def test_derivative_bound_peak(self):
        # max of (1 - log z)/z^2 over [1, e^3] sits at z = 1 with value 1
        z = np.linspace(1.0, E3, 200001)
        grid_max = np.max((1.0 - np.log(z)) / z**2)
        assert grid_max <= TAU_H + 1e-9
        assert grid_max == pytest.approx(TAU_H, abs=1e-6)


def _step(config, model, y_max):
    """``(r1, r2, r3)`` read from the chain at K = J = 1, where ``r_hat1 = r1``,
    ``r_hat2 = r2`` and ``r_hat3[0] = r3``."""
    cns = network_constants(replace(config, K=1, J=1), model, y_max)
    return cns.r_hat1, cns.r_hat2, tuple(cns.r_hat3[0].tolist())


def _cg_step_config(p_max=2.0, mu_bound=1.0, xi=1.0):
    bounds = SignalBounds(c_max=1.0, z_inf=E3, xi=xi, a=1.0, b=E3)
    return NetworkConfig(variant="cgnet", n=1, K=1, J=1, bounds=bounds,
                         p_min=0.5, p_max=p_max, mu_bound=mu_bound)


def _dr_step_config(n, z_inf, xi, delta, weight_bounds):
    Lc = len(weight_bounds)
    bounds = SignalBounds(c_max=1.0, z_inf=z_inf, xi=xi, a=1.0, b=E3)
    return NetworkConfig(variant="drcgnet", n=n, K=1, J=1, bounds=bounds, p_min=0.5,
                         p_max=2.0, Lc=Lc, filters=(1,) * (Lc + 1), kernels=(1,) * Lc,
                         weight_bounds=weight_bounds, delta=delta)


class TestStepConstants:
    # the parameter balls have positive radii, so a radius of 1e-300 stands
    # in for 0: its products vanish next to the 1 of r1

    def test_drcgnet_formula_zeroes(self):
        cfg = _dr_step_config(n=4, z_inf=E3, xi=1.0, delta=1e-300, weight_bounds=(1e-300,))
        r1, r2, _ = _step(cfg, UNIT_MODEL, 0.0)
        assert r1 == 1.0 and r2 == 0.0

    def test_cgnet_zero_measurement_and_mu(self):
        r1, r2, _ = _step(_cg_step_config(mu_bound=1e-300), UNIT_MODEL, 0.0)
        assert r1 == 1.0 and r2 == 0.0

    def test_cgnet_frozen_value(self):
        # 1 + 10*((e^3 * 10)^2 + 1), evaluated at 40 digits: 403439.7934927351226
        r1, _, _ = _step(_cg_step_config(p_max=10.0), UNIT_MODEL, 1.0)
        assert r1 == pytest.approx(403439.7934927351226, rel=1e-14)

    def test_block_coefficients(self):
        _, _, r3 = _step(_cg_step_config(xi=1.5), UNIT_MODEL, 1.0)
        assert r3 == pytest.approx((1.5, 2.0 * H_MAX), rel=1e-15)
        cfg = _dr_step_config(n=9, z_inf=2.0, xi=1.5, delta=0.5, weight_bounds=(0.5, 4.0))
        _, _, r3 = _step(cfg, UNIT_MODEL, 1.0)
        # matrix blocks: sqrt(n) * z_inf * product of the other radii
        assert r3 == pytest.approx((3.0 * 2.0 * 4.0, 3.0 * 2.0 * 0.5, 1.5), rel=1e-15)

    def test_rejects_negative(self):
        for cfg in (_cg_step_config(), _dr_step_config(4, E3, 1.0, 0.5, (1.0,))):
            with pytest.raises(ValueError, match="y_max must be nonnegative"):
                network_constants(cfg, UNIT_MODEL, -1.0)


def _compose(r1, r2, r3, J):
    """The J-fold composition as the bound assembles it: one layer (K = 1)."""
    return _assemble(_cg_config(K=1, J=J), 1.0, 1.0, r1, r2, r3, 1.0)


class TestLayerComposition:
    def test_single_step_identity(self):
        agg = _compose(3.0, 2.0, (0.5, 0.25), 1)
        assert agg.r_hat1 == pytest.approx(3.0, rel=1e-15)
        assert agg.r_hat2 == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(agg.r_hat3, [[0.5, 0.25]], rtol=1e-15)

    def test_unit_contraction_degenerate_sum(self):
        agg = _compose(1.0, 0.3, (1.0, 1.0), 5)
        assert agg.r_hat2 == pytest.approx(5 * 0.3)

    def test_geometric_sum_value(self):
        agg = _compose(2.0, 1.0, (1.0, 1.0), 3)
        assert agg.r_hat2 == pytest.approx(7.0)  # 4 + 2 + 1
        assert agg.r_hat1 == pytest.approx(8.0)
        np.testing.assert_allclose(agg.r_hat3[:, 0], [4.0, 2.0, 1.0])

    def test_continuity_at_unit_contraction(self):
        # explicit sum agrees with the quotient form on both sides of r1 = 1
        for r1 in (1.0 - 1e-8, 1.0 + 1e-8):
            agg = _compose(r1, 1.3, (1.0, 1.0), 6)
            quotient = 1.3 * (1.0 - r1**6) / (1.0 - r1)
            assert agg.r_hat2 == pytest.approx(quotient, rel=1e-6)
            assert agg.r_hat2 == pytest.approx(1.3 * 6, rel=1e-6)


def _worst_tikhonov(y_norm2, z_inf, p_max, p_min, model):
    return tikhonov_constants(y_norm2, z_inf, p_max, p_max, (p_max / p_min) ** 2, model)


class TestTikhonovConstants:
    def test_zero_measurement(self):
        assert _worst_tikhonov(0.0, E3, 2.0, 0.5, UNIT_MODEL) == (0.0, 0.0)

    def test_zero_scale_radius(self):
        c1, c2 = _worst_tikhonov(1.5, 0.0, 2.0, 0.5, UNIT_MODEL)
        assert c1 == pytest.approx(2.0 * 1.5) and c2 == 0.0

    def test_numeric_instance(self):
        model = MeasurementModel(np.array([[3.0]]))
        c1, c2 = _worst_tikhonov(2.0, 1.5, 4.0, 0.5, model)
        # c1 = 4*2*3*(1 + 2*1.5^2*4*9); c2 = 1.5*2*3*(4/0.5)^2
        assert c1 == pytest.approx(24.0 * 163.0, rel=1e-14)
        assert c2 == pytest.approx(9.0 * 64.0, rel=1e-14)

    def test_pair_norms_enter_separately(self):
        model = MeasurementModel(np.array([[3.0]]))
        c1, c2 = tikhonov_constants(2.0, 1.5, 4.0, 0.5, 5.0, model)
        # c1 = 4*2*3*(1 + 2*1.5^2*0.5*9); c2 = 1.5*2*3*5
        assert c1 == pytest.approx(24.0 * 21.25, rel=1e-14)
        assert c2 == pytest.approx(9.0 * 5.0, rel=1e-14)

    def test_worst_case_dominates_exact(self):
        rng = np.random.default_rng(SEED_LIP)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            model = MeasurementModel(rng.standard_normal((3, n)))
            P = sample_covariance("full", n, 0.5, 2.0, rng)
            Pt = sample_covariance("full", n, 0.5, 2.0, rng)
            y2 = float(rng.uniform(0, 3))
            exact = tikhonov_constants(y2, E3, P.p_max, Pt.p_max, P.cond * Pt.cond, model)
            worst = _worst_tikhonov(y2, E3, 2.0, 0.5, model)
            assert worst[0] >= exact[0] * (1 - 1e-12)
            assert worst[1] >= exact[1] * (1 - 1e-12)


class TestDatafitConstants:
    def test_zero_measurement(self):
        assert datafit_grad_constants(E3, 2.0, 0.0, UNIT_MODEL) == (0.0, 0.0)

    def test_zero_scale_radius(self):
        Lz, Lu = datafit_grad_constants(0.0, 2.0, 1.5, UNIT_MODEL)
        assert Lz == 0.0 and Lu == pytest.approx(1.5)

    def test_numeric_instance(self):
        model = MeasurementModel(np.array([[2.0]]))
        Lz, Lu = datafit_grad_constants(1.5, 4.0, 3.0, model)
        assert Lz == pytest.approx((1.5 * 4.0 * 3.0 * 2.0 * 2.0) ** 2, rel=1e-14)
        assert Lu == pytest.approx(3.0 * 2.0 * (1.0 + 1.5**2 * 4.0 * 2.0 * 4.0), rel=1e-14)


class TestFcLipschitz:
    def test_single_layer(self):
        ic, wc = fc_lipschitz((2.5,), 3.0)
        assert ic == 2.5 and wc == [3.0]

    def test_zero_cap_kills_input_coeff(self):
        ic, _ = fc_lipschitz((2.0, 0.0), 1.0)
        assert ic == 0.0

    def test_two_layer_values(self):
        ic, wc = fc_lipschitz((2.0, 3.0), 1.0)
        assert ic == pytest.approx(6.0)
        assert wc == pytest.approx([3.0, 2.0])

    def test_rejects_no_layers(self):
        with pytest.raises(ValueError, match="^need at least one layer$"):
            fc_lipschitz([], 1.0)


def _cg_config(n=3, K=2, J=2, bounds=None):
    return NetworkConfig(
        variant="cgnet", n=n, K=K, J=J,
        bounds=bounds or SignalBounds.default(),
        p_min=0.5, p_max=2.0, mu_bound=1.0,
    )


class TestNetworkConstants:
    def test_single_layer_chain(self):
        model = MeasurementModel(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]]))
        cfg = _cg_config(K=1, J=1)
        cns = network_constants(cfg, model, 1.2)
        c1, c2 = _worst_tikhonov(1.2, E3, 2.0, 0.5, model)
        assert cns.c_hat1 == pytest.approx(c2 * cns.r_hat2, rel=1e-12)

    def test_two_layer_hand_expansion(self):
        model = MeasurementModel(np.array([[0.7, 0.2, -0.1]]))
        cfg = _cg_config(K=2, J=1)
        cns = network_constants(cfg, model, 0.9)
        r1, r2, r3 = _step(cfg, model, 0.9)
        c1, c2 = _worst_tikhonov(0.9, E3, 2.0, 0.5, model)
        expected = c2 * (r2 * (r1 + r2 * c1) + r2)
        assert cns.c_hat1 == pytest.approx(expected, rel=1e-10)
        pref = E3 * (c1 + 2.0 * 0.9 * model.norm_inf)
        assert cns.kappa == pytest.approx(pref * cns.c_hat1 + E3 * c2, rel=1e-10)
        assert cns.kappa_kdj[1, 0, 0] == pytest.approx(pref * r3[0], rel=1e-10)

    def test_zero_radius_collapses_everything(self):
        model = MeasurementModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cns = network_constants(_cg_config(n=2), model, 0.0)
        assert cns.kappa == 0.0
        assert np.all(cns.kappa_kdj == 0.0)
        assert cns.log_kappa == -math.inf

    def test_kappa_floor(self):
        model = MeasurementModel(np.array([[1.0, 0.3, 0.0]]))
        cfg = _cg_config()
        cns = network_constants(cfg, model, 1.1)
        assert cns.kappa >= E3 * cns.c2 * (1 - 1e-12)

    def test_monotone_in_each_knob(self):
        model = MeasurementModel(np.array([[1.0, 0.3, -0.2]]))
        base = network_constants(_cg_config(), model, 1.0).kappa

        for y in (1.5, 2.0, 4.0):
            assert network_constants(_cg_config(), model, y).kappa >= base
        for K in (3, 4):
            assert network_constants(_cg_config(K=K), model, 1.0).kappa >= base
        for J in (3, 4):
            assert network_constants(_cg_config(J=J), model, 1.0).kappa >= base
        prev = base
        for z_inf in (E3 * 2, E3 * 4):
            b = SignalBounds(c_max=1.0, z_inf=z_inf, xi=1.0, a=1.0, b=z_inf)
            cur = network_constants(_cg_config(bounds=b), model, 1.0).kappa
            assert cur >= prev
            prev = cur
        prev = base
        for p_max in (3.0, 5.0):
            cfg = NetworkConfig(variant="cgnet", n=3, K=2, J=2,
                                bounds=SignalBounds.default(),
                                p_min=0.5, p_max=p_max, mu_bound=1.0)
            cur = network_constants(cfg, model, 1.0).kappa
            assert cur >= prev
            prev = cur

    def test_worst_case_dominates_exact(self):
        rng = np.random.default_rng(SEED_LIP)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            model = MeasurementModel(rng.standard_normal((2, n)))
            cfg = NetworkConfig(variant="cgnet", n=n, K=2, J=2,
                                bounds=SignalBounds.default(),
                                p_min=0.5, p_max=2.0, mu_bound=1.0)
            y = rng.standard_normal(2)
            P = sample_covariance("scaled_identity", n, 0.5, 2.0, rng)
            Pt = sample_covariance("scaled_identity", n, 0.5, 2.0, rng)
            exact = network_constants_exact(cfg, model, y, P, Pt)
            worst = network_constants(cfg, model, float(np.linalg.norm(y)))
            assert worst.kappa >= exact.kappa * (1 - 1e-12)
            assert np.all(worst.kappa_kdj >= exact.kappa_kdj * (1 - 1e-12))

    def test_log_linear_consistency(self):
        model = MeasurementModel(np.array([[1.0, 0.3, -0.2]]))
        cns = network_constants(_cg_config(), model, 1.0)
        assert math.log(cns.kappa) == pytest.approx(cns.log_kappa, rel=1e-12)
        np.testing.assert_allclose(np.log(cns.kappa_kdj), cns.log_kappa_kdj, rtol=1e-12)


def _dr_config(n=3, K=2, J=2):
    return NetworkConfig(
        variant="drcgnet", n=n, K=K, J=J, bounds=SignalBounds.default(),
        p_min=0.5, p_max=2.0, Lc=2, filters=(1, 2, 1), kernels=(3, 2),
        weight_bounds=(0.8, 1.1), delta=0.4,
    )


def _bits(x):
    """Bit pattern of a float or a float array, for bitwise comparisons."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    assert type(x) is float
    return x.hex()


def _np_exp(log_value):
    """``np.exp`` of a stored log, as a float for a scalar log."""
    with np.errstate(over="ignore"):
        value = np.exp(log_value)
    return value if isinstance(value, np.ndarray) else float(value)


LINEAR_FROM_LOG = {
    "r_hat1": "log_rhat1",
    "r_hat2": "log_rhat2",
    "r_hat3": "log_rhat3",
    "c_hat1": "log_chat1",
    "c_hat2": "log_chat2",
    "kappa": "log_kappa",
    "kappa_kdj": "log_kappa_kdj",
}


class TestLogDomainStorage:
    """Only the logs are stored; the linear values and the shortcuts must
    give the bits of the formulas they replace."""

    def test_fc_lipschitz_equals_np_prod_formula(self):
        rng = np.random.default_rng(SEED_LIP)
        for _ in range(2000):
            T = int(rng.integers(1, 5))
            w = rng.uniform(0.0, 3.0, size=T)
            w[rng.random(T) < 0.2] = 0.0
            x_norm = float(rng.uniform(0.0, 5.0))
            ic, wc = fc_lipschitz(tuple(w), x_norm)
            ws = [float(v) for v in w]
            assert _bits(ic) == _bits(float(np.prod(ws)))
            for t in range(1, T + 1):
                others = float(np.prod([ws[i] for i in range(T) if i != t - 1]))
                assert _bits(wc[t - 1]) == _bits(others * x_norm)

    @pytest.mark.parametrize("v", [0.0, -0.0, -math.inf, 1e300, -1e300])
    def test_single_value_logsumexp_equals_general_formula(self, v):
        values = np.array([v])
        hi = values.max()
        general = -math.inf if hi == -math.inf else float(hi + np.log(np.exp(values - hi).sum()))
        assert _bits(_logsumexp(values)) == _bits(general)

    @pytest.mark.parametrize("cfg", [_cg_config(), _dr_config(), _cg_config(K=1, J=1),
                                     _dr_config(K=3, J=1)], ids=["cg", "dr", "cg_k1j1", "dr_j1"])
    def test_linear_fields_are_exp_of_their_logs(self, cfg):
        rng = np.random.default_rng(SEED_LIP + 1)
        model = MeasurementModel(rng.standard_normal((2, cfg.n)))
        y = rng.standard_normal(2)
        P = sample_covariance("full", cfg.n, 0.5, 2.0, rng)
        Pt = sample_covariance("full", cfg.n, 0.5, 2.0, rng)
        for cns in (network_constants(cfg, model, 1.3),
                    network_constants_exact(cfg, model, y, P, Pt)):
            for linear, log in LINEAR_FROM_LOG.items():
                value = getattr(cns, linear)
                assert _bits(value) == _bits(_np_exp(getattr(cns, log)))
                assert getattr(cns, linear) is value

    def test_overflowing_constant_reads_inf_without_warning(self):
        model = MeasurementModel(1e3 * np.ones((1, 3)))
        cns = network_constants(_cg_config(K=32, J=32), model, 10.0)
        assert math.isfinite(cns.log_kappa) and cns.log_kappa > 710.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cns.kappa == math.inf
            assert cns.kappa_kdj.max() == math.inf
            assert cns.r_hat1 == math.inf



class TestFloatLogaddexp:
    """``_logaddexp`` on floats must give ``np.logaddexp``'s bits."""

    def test_random_pairs_match_numpy(self):
        rng = np.random.default_rng(SEED_LIP + 2)
        far = rng.uniform(-800.0, 800.0, size=(60000, 2))
        base = rng.uniform(-50.0, 50.0, size=60000)
        near = np.stack([base, base + rng.normal(0.0, 1e-6, size=60000)], axis=1)
        scaled = 10.0 ** rng.uniform(-300.0, 300.0, size=(20000, 2))
        scaled *= rng.choice([-1.0, 1.0], size=scaled.shape)
        pairs = np.concatenate([far, near, scaled])
        want = np.logaddexp(pairs[:, 0], pairs[:, 1])
        got = np.array([_logaddexp(x, y) for x, y in pairs.tolist()])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x, y", [
        (math.inf, math.inf), (-math.inf, -math.inf), (math.inf, -math.inf),
        (-math.inf, math.inf), (math.inf, 3.0), (3.0, math.inf), (-math.inf, 3.0),
        (3.0, -math.inf), (0.0, 0.0), (-0.0, 0.0), (2.5, 2.5), (-1e300, -1e300),
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.inf), (math.nan, math.nan),
    ])
    def test_special_values_match_numpy(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logaddexp(x, y)
        assert type(got) is float
        with np.errstate(invalid="ignore"):  # numpy flags a NaN argument
            want = float(np.logaddexp(x, y))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(want)


# Each of these measurement models and radii made a Tikhonov or step
# constant overflow: the first set inf into c1 and NaN into the bound, the
# second raised a bare OverflowError from a float ``**``.
OVERFLOWING = [(3e152, 1e-250), (1.0, 1e153)]


class TestOverflowingConstants:
    @pytest.mark.parametrize("make_config", [_cg_config, _dr_config], ids=["cgnet", "drcgnet"])
    @pytest.mark.parametrize("scale, y_max", OVERFLOWING, ids=["inf_c1", "pow_overflow"])
    def test_raise_a_named_value_error(self, make_config, scale, y_max):
        cfg = make_config()
        model = MeasurementModel(scale * np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.4]]))
        rng = np.random.default_rng(SEED_LIP + 3)
        P = sample_covariance("full", cfg.n, 0.5, 2.0, rng)
        y = np.full(2, y_max / math.sqrt(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflow float64 at y_max = .*\|\|A\|\|_2"):
                network_constants(cfg, model, y_max)
            with pytest.raises(ValueError, match=r"overflow float64 at y_max = .*\|\|A\|\|_inf"):
                network_constants_exact(cfg, model, y, P, P)

    @pytest.mark.parametrize("make_config", [_cg_config, _dr_config], ids=["cgnet", "drcgnet"])
    def test_exact_constants_take_the_true_norm_of_a_huge_y(self, make_config):
        # ||y||^2 overflows float64 but ||y|| = 7e159 * sqrt(2) does not
        cfg = make_config()
        A = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.4]])
        P = sample_covariance("full", cfg.n, 0.5, 2.0, np.random.default_rng(SEED_LIP + 4))
        y = np.full(2, 7e159)
        y_norm = 7e159 * math.sqrt(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = network_constants_exact(cfg, MeasurementModel(1e-200 * A), y, P, P)
            with pytest.raises(ValueError, match=re.escape(f"y_max = {y_norm!r} with")):
                network_constants_exact(cfg, MeasurementModel(A), y, P, P)
        assert math.isfinite(exact.log_kappa) and np.isfinite(exact.log_kappa_kdj).all()

    def test_covariance_ratio_overflow_is_named(self):
        cfg = NetworkConfig(variant="cgnet", n=3, K=2, J=2, bounds=SignalBounds.default(),
                            p_min=1e-160, p_max=1.0, mu_bound=1.0)
        with pytest.raises(ValueError, match="p_min = 1e-160"):
            network_constants(cfg, MeasurementModel(np.ones((1, 3))), 1.0)
