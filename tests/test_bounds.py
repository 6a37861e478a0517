"""Bound assembly, entropy-integral bound, covering counts, and scaling."""

import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from cgbound import bounds
from cgbound.bounds import (
    LossSpec,
    SweepSpec,
    dudley_closed_form,
    geb_bound,
    sample_complexity,
    scaling_fit,
    ymax_estimate,
)
from cgbound.lipschitz import network_constants, network_constants_exact
from cgbound.model import MeasurementModel, SignalBounds
from cgbound.networks import NetworkConfig, sample_covariance
from cgbound.report import default_config, scaling_study_specs
from cgbound.serialize import dumps_canonical, load_run_config

from oracles import (
    cor1_comparator,
    covering_log_bound,
    cor2_comparator,
    dudley_integral_quad,
    geb_oracle,
    greedy_cover_count,
    network_constants_exact_oracle,
    network_constants_oracle,
    sample_complexity_oracle,
)

SEED_GEB = 0x5EED_0004

E3 = math.exp(3.0)

# the sweep fields that serialize.sweep_specs defaults
SWEEP_FIELDS = {"Ns": 10000, "eps_conf": 0.05}


def _count_calls(monkeypatch, *names):
    """``{name: 0}`` counting each later call of the named ``bounds`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(bounds, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    return calls


class TestCoveringLogBound:
    def test_zero_dimension(self):
        assert covering_log_bound(1.0, 0, 0.5) == 0.0

    def test_eps_twice_radius(self):
        assert covering_log_bound(1.0, 3, 2.0) == pytest.approx(3 * math.log(2.0))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            covering_log_bound(1.0, 1, 0.0)

    def test_dominates_greedy_interval_cover(self):
        # 1-D: walk [-1, 1] placing each center one eps past the uncovered
        # frontier; at eps = 0.5 this needs <= 3 points <= exp(ln 5) = 5
        lo, hi, eps = -1.0, 1.0, 0.5
        count, frontier = 0, lo
        while frontier <= hi:
            count += 1
            frontier = (frontier + eps) + eps  # center + its radius
        assert count <= 3
        assert count <= math.exp(covering_log_bound(1.0, 1, 0.5))

    def test_dominates_greedy_box_covers(self):
        rng = np.random.default_rng(SEED_GEB)
        for dim in (1, 2):
            for eps in (0.3, 0.5, 1.0):
                omega = 1.0
                grid = np.linspace(-omega, omega, 41)
                if dim == 1:
                    pts = grid[:, None]
                else:
                    pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
                # sup-norm balls cover the box; the bound holds for any norm
                count = greedy_cover_count(pts, eps, norm=lambda d: np.abs(d).max(axis=-1))
                assert math.log(count) <= covering_log_bound(omega, dim, eps) + 1e-12


class TestDudley:
    def test_zero_nu(self):
        assert dudley_closed_form(2.0, 0.0) == pytest.approx(2.0)

    def test_frozen_value(self):
        # sqrt(1 + ln 2) at 40 digits: 1.301209891047537845
        assert dudley_closed_form(1.0, 1.0) == pytest.approx(1.301209891047537845, rel=1e-15)

    def test_quadrature_below_closed_form(self):
        rng = np.random.default_rng(SEED_GEB)
        for _ in range(100):
            beta = float(10.0 ** rng.uniform(-3, 3))
            nu = float(10.0 ** rng.uniform(-3, 3))
            closed = dudley_closed_form(beta, nu)
            quad = dudley_integral_quad(beta, nu, tol=1e-8)
            assert closed - quad >= -1e-10
            assert quad >= 0.0

    def test_quadrature_exactness_on_flat_integrand(self):
        # nu -> 0 makes the integrand vanish
        assert dudley_integral_quad(1.0, 0.0) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            dudley_closed_form(0.0, 1.0)
        with pytest.raises(ValueError, match="^nu must be nonnegative$"):
            dudley_closed_form(1.0, -1.0)
        with pytest.raises(ValueError):
            dudley_integral_quad(1.0, -1.0)


class TestYmax:
    MODEL = MeasurementModel(np.array([[2.0, 0.0], [0.0, 1.0]]), sigma=0.5)

    def test_zero_noise_matches_noiseless(self):
        quiet = MeasurementModel(self.MODEL.A, sigma=0.0)
        assert ymax_estimate(quiet, 1.0, "white_noise") == ymax_estimate(quiet, 1.0, "noiseless")

    def test_white_noise_inflation(self):
        assert ymax_estimate(self.MODEL, 1.0, "white_noise") == pytest.approx(2.0 + 6.11 * 0.5)

    def test_dataset_mode(self):
        assert ymax_estimate(self.MODEL, 1.0, "dataset", dataset=[np.array([3.0, 4.0])]) == 5.0

    def test_dataset_mode_equals_row_norms(self):
        rng = np.random.default_rng(SEED_GEB)
        for _ in range(300):
            B, m = rng.integers(1, 201), rng.integers(1, 41)
            Y = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal((B, m))
            got = ymax_estimate(self.MODEL, 1.0, "dataset", dataset=Y)
            assert got == max(np.linalg.norm(y) for y in Y)

    def test_dataset_mode_takes_the_norm_of_a_huge_row(self):
        # the squared norm of the second row overflows; no warning, no inf
        Y = np.array([[3.0, 4.0], [6e159, 8e159], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ymax_estimate(self.MODEL, 1.0, "dataset", dataset=Y)
        assert got == pytest.approx(1e160, rel=1e-15)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            ymax_estimate(self.MODEL, 1.0, "dataset", dataset=[])
        with pytest.raises(ValueError, match="stack"):
            ymax_estimate(self.MODEL, 1.0, "dataset", dataset=np.array([3.0, 4.0]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            ymax_estimate(self.MODEL, 1.0, "bogus")


def _cg_config(n=4, K=1, J=1):
    return NetworkConfig(
        variant="cgnet", n=n, K=K, J=J, bounds=SignalBounds.default(),
        p_min=0.5, p_max=2.0, mu_bound=1.0,
    )


def _dr_config(n=4, K=1, J=1):
    return NetworkConfig(
        variant="drcgnet", n=n, K=K, J=J, bounds=SignalBounds.default(),
        p_min=0.5, p_max=2.0, Lc=1, filters=(1, 1), kernels=(3,),
        weight_bounds=(0.8,), delta=0.5,
    )


FROZEN_A = np.array([[0.5, -0.25, 0.75, 1.0], [0.25, 0.5, -0.5, 0.3]])


class TestDimCov:
    """The covariance ball's covering dimension: 1 for cgnet's scaled
    identity, 2n - 1 for drcgnet's tridiagonal covariance."""

    def test_values(self):
        assert [_cg_config(n=n).cov_spec[1] for n in (1, 2, 5)] == [1, 1, 1]
        assert [_dr_config(n=n).cov_spec[1] for n in (1, 2, 5)] == [1, 3, 9]
        model = MeasurementModel(FROZEN_A)
        loss = LossSpec.mae(4, 1.0)
        reported = [geb_bound(make(), model, loss, 1000, 0.05, 2.0).inputs["dim_P"]
                    for make in (_cg_config, _dr_config)]
        assert reported == [1, 7]


class TestGebBound:
    def test_frozen_instance(self):
        # reference values computed independently at 40-digit precision
        model = MeasurementModel(FROZEN_A)
        rep = geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), 1000, 0.05, 2.0)
        assert rep.term2 == pytest.approx(4.085084527049023, rel=1e-12)
        assert rep.term3 == pytest.approx(0.187233044832879468, rel=1e-12)
        assert rep.total == pytest.approx(4.272317571881902662, rel=1e-12)
        assert rep.constants.kappa == pytest.approx(1730263421705.546, rel=1e-11)
        assert rep.total == rep.term1 + rep.term2 + rep.term3

    def test_frozen_instance_recomputed_with_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        model = MeasurementModel(FROZEN_A)
        rep = geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), 1000, 0.05, 2.0)

        A2, Ainf = mp.mpf(model.norm2), mp.mpf(2.5)
        zinf, pmax, pmin = mp.exp(3), mp.mpf(2), mp.mpf("0.5")
        delta, w1, ymax, xi = mp.mpf("0.5"), mp.mpf("0.8"), mp.mpf(2), mp.mpf(1)
        c1 = pmax * ymax * A2 * (1 + 2 * zinf**2 * pmax * A2**2)
        c2 = zinf * ymax * A2 * (pmax / pmin) ** 2
        r1 = 1 + delta * (zinf * pmax * ymax * A2 * Ainf) ** 2 + w1
        r2 = delta * ymax * A2 * (1 + zinf**2 * pmax * A2 * (A2 + Ainf))
        chat1 = c2 * r2
        pref = zinf * (c1 + pmax * ymax * Ainf)
        kappa = pref * chat1 + zinf * c2
        kap = [pref * mp.sqrt(4) * zinf, pref * xi]
        kjd1 = 1 * 1 * 2 + 1
        t_cov = mp.sqrt(7 * (1 + mp.log(1 + 4 * pmax * kjd1 * kappa)))
        t_blk = mp.sqrt(9 * (1 + mp.log(1 + 4 * w1 * kjd1 * kap[0])))
        t_blk += mp.sqrt(1 * (1 + mp.log(1 + 4 * delta * kjd1 * kap[1])))
        term2 = 8 * mp.mpf("0.5") / mp.sqrt(1000) * (t_cov + t_blk)
        term3 = 4 * mp.mpf("0.5") * mp.sqrt(2 * mp.log(4 / mp.mpf("0.05")) / 1000)
        assert rep.term2 == pytest.approx(float(term2), rel=1e-12)
        assert rep.term3 == pytest.approx(float(term3), rel=1e-12)

    def test_zero_radius_log_collapse(self):
        model = MeasurementModel(FROZEN_A)
        cfg = _dr_config()
        loss = LossSpec.mae(4, 1.0)
        rep = geb_bound(cfg, model, loss, 400, 0.05, 0.0)
        expected = (8 * loss.tau * 1.0 / math.sqrt(400)) * (
            math.sqrt(cfg.cov_spec[1]) + sum(math.sqrt(a) for _, a, _, _ in cfg.block_specs)
        )
        assert rep.term2 == pytest.approx(expected, rel=1e-12)

    def test_quadrupling_samples_halves_terms(self):
        model = MeasurementModel(FROZEN_A)
        cfg = _dr_config()
        loss = LossSpec.mae(4, 1.0)
        r1 = geb_bound(cfg, model, loss, 500, 0.05, 2.0)
        r4 = geb_bound(cfg, model, loss, 2000, 0.05, 2.0)
        assert r4.term2 == pytest.approx(r1.term2 / 2, rel=1e-12)
        assert r4.term3 == pytest.approx(r1.term3 / 2, rel=1e-12)

    def test_block_split_sums_to_term2(self):
        model = MeasurementModel(FROZEN_A)
        rep = geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), 1000, 0.05, 2.0)
        assert rep.term2 == pytest.approx(
            rep.term2_cov + rep.term2_weights + rep.term2_scalars, rel=1e-12
        )

    def test_rejects_bad_confidence(self):
        model = MeasurementModel(FROZEN_A)
        for eps in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), 100, eps, 1.0)

    @pytest.mark.parametrize("name, value", [
        ("y_max", math.nan), ("y_max", math.inf), ("y_max", -1.0), ("empirical_loss", math.nan),
        ("Ns", 2.5), ("Ns", math.nan), ("Ns", math.inf), ("Ns", 10**400), ("Ns", True),
    ])
    def test_rejects_non_finite_inputs(self, name, value):
        model = MeasurementModel(FROZEN_A)
        args = {"Ns": 100, "eps_conf": 0.05, "y_max": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), **args)

    def test_checks_inputs_in_order(self):
        # Ns, eps_conf, y_max, empirical_loss, then the config/model match
        model = MeasurementModel(FROZEN_A[:, :3])
        good = {"Ns": 100, "eps_conf": 0.05, "y_max": 1.0, "empirical_loss": 0.0}
        args = {"Ns": 0, "eps_conf": 2.0, "y_max": math.nan, "empirical_loss": math.nan}
        for name in good:
            with pytest.raises(ValueError, match=name):
                geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), **args)
            args[name] = good[name]
        with pytest.raises(ValueError, match="disagree"):
            geb_bound(_dr_config(), model, LossSpec.mae(4, 1.0), **args)

    def test_accepts_integral_float_sample_count(self):
        model = MeasurementModel(FROZEN_A)
        loss = LossSpec.mae(4, 1.0)
        as_float = geb_bound(_dr_config(), model, loss, 1000.0, 0.05, 1.0)
        as_int = geb_bound(_dr_config(), model, loss, 1000, 0.05, 1.0)
        assert as_float.total == as_int.total
        assert as_float.inputs["Ns"] == 1000

    def test_monotonicity_grid(self):
        model = MeasurementModel(FROZEN_A)
        loss = LossSpec.mae(4, 1.0)
        base = geb_bound(_dr_config(), model, loss, 1000, 0.05, 2.0).term2

        for K in (2, 3):
            assert geb_bound(_dr_config(K=K), model, loss, 1000, 0.05, 2.0).term2 >= base
        for J in (2, 3):
            assert geb_bound(_dr_config(J=J), model, loss, 1000, 0.05, 2.0).term2 >= base
        for y in (3.0, 5.0):
            assert geb_bound(_dr_config(), model, loss, 1000, 0.05, y).term2 >= base

        # adding a unit-radius layer increases the block count (D grows)
        deeper = NetworkConfig(
            variant="drcgnet", n=4, K=1, J=1, bounds=SignalBounds.default(),
            p_min=0.5, p_max=2.0, Lc=2, filters=(1, 1, 1), kernels=(3, 3),
            weight_bounds=(0.8, 1.0), delta=0.5,
        )
        assert geb_bound(deeper, model, loss, 1000, 0.05, 2.0).term2 >= base

        # larger z_inf, p_max, and weight radii inflate the bound
        big_b = SignalBounds(c_max=1.0, z_inf=2 * E3, xi=1.0, a=1.0, b=2 * E3)
        big = NetworkConfig(
            variant="drcgnet", n=4, K=1, J=1, bounds=big_b,
            p_min=0.5, p_max=2.0, Lc=1, filters=(1, 1), kernels=(3,),
            weight_bounds=(0.8,), delta=0.5,
        )
        assert geb_bound(big, model, loss, 1000, 0.05, 2.0).term2 >= base
        wider = NetworkConfig(
            variant="drcgnet", n=4, K=1, J=1, bounds=SignalBounds.default(),
            p_min=0.5, p_max=4.0, Lc=1, filters=(1, 1), kernels=(3,),
            weight_bounds=(1.6,), delta=0.5,
        )
        assert geb_bound(wider, model, loss, 1000, 0.05, 2.0).term2 >= base

        # nonincreasing in the sample count and the confidence level
        for Ns in (4000, 16000):
            assert geb_bound(_dr_config(), model, loss, Ns, 0.05, 2.0).total <= base + 1.0
        t_eps = [geb_bound(_dr_config(), model, loss, 1000, e, 2.0).term3
                 for e in (0.01, 0.05, 0.2, 0.8)]
        assert all(a >= b for a, b in zip(t_eps, t_eps[1:]))

    def test_sample_count_invariance(self):
        model = MeasurementModel(FROZEN_A)
        loss = LossSpec.mae(4, 1.0)
        vals = []
        for Ns in (100, 1000, 10000, 100000, 1000000):
            rep = geb_bound(_dr_config(), model, loss, Ns, 0.05, 2.0)
            vals.append((rep.term2 + rep.term3) * math.sqrt(Ns))
        ref = vals[0]
        for v in vals[1:]:
            assert v == pytest.approx(ref, rel=1e-10)


class TestBlockSplit:
    """term2_weights holds every matrix block and term2_scalars the scalar
    block, whatever a matrix block's dimension."""

    CONFIGS = {
        "cgnet_n1": NetworkConfig(variant="cgnet", n=1, K=2, J=1, bounds=SignalBounds.default(),
                                  p_min=0.5, p_max=2.0, mu_bound=1.0),
        "drcgnet_kernel1": NetworkConfig(
            variant="drcgnet", n=4, K=2, J=1, bounds=SignalBounds.default(), p_min=0.5,
            p_max=2.0, Lc=1, filters=(1, 1), kernels=(1,), weight_bounds=(0.8,), delta=0.5),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_dimension_one_matrix_block_counts_as_weights(self, name):
        config = self.CONFIGS[name]
        assert [a for _, a, _, _ in config.block_specs] == [1, 1]
        model = MeasurementModel(FROZEN_A[:, :config.n])
        loss = LossSpec.mae(config.n, 1.0)
        rep = geb_bound(config, model, loss, 1000, 0.05, 2.0)
        kjd1 = rep.inputs["KJD_plus_1"]
        scale = 8.0 * loss.tau / math.sqrt(1000)
        want = [scale * sum(math.sqrt(1.0 + math.log1p(4.0 * w * kjd1 * kap))
                            for kap in rep.constants.kappa_kdj[:, :, d].ravel())
                for d, (_, _, w, _) in enumerate(config.block_specs)]
        assert rep.term2_weights == pytest.approx(want[0], rel=1e-12)
        assert rep.term2_scalars == pytest.approx(want[1], rel=1e-12)


class TestNonFiniteBound:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_terms_raise_a_named_error(self):
        # finite inputs whose product overflows: term2 = total = inf at the parent
        run = load_run_config(default_config())
        y_max = ymax_estimate(run.model, run.bounds.c_max, "noiseless")
        loss = LossSpec.ssim(tau=1e308)
        match = r"^the bound overflows float64 at tau = 1e\+308, c = 2\.0 and Ns = 1000:"
        with pytest.raises(ValueError, match=match):
            geb_bound(run.network, run.model, loss, 1000, 0.05, y_max)
        spec = SweepSpec(axis="ns", values=(1000, 10000, 100000, 1000000), **SWEEP_FIELDS)
        with pytest.raises(ValueError, match=match):
            bounds.sweep_bound(run.network, run.model, loss, spec)

    @pytest.mark.filterwarnings("error")
    def test_sample_complexity_names_the_overflow(self):
        # the overflow used to read "gap unattainable below the sample-count ceiling"
        run = load_run_config(default_config())
        y_max = ymax_estimate(run.model, run.bounds.c_max, "noiseless")
        match = r"^the bound overflows float64 at tau = 1e\+308, c = 2\.0 and Ns = 1:"
        with pytest.raises(ValueError, match=match):
            sample_complexity(run.network, run.model, LossSpec.ssim(tau=1e308), 1.0, 0.05, y_max)
        # finite terms near 1e308 each, whose sum overflows
        term2 = geb_bound(run.network, run.model, LossSpec.ssim(tau=1.0), 1, 0.05, y_max).term2
        loss = LossSpec(tau=1e308 / term2, c=1e307, name="ssim")
        with pytest.raises(ValueError, match=r"and Ns = 1: term2 = [\d.]+e\+308, term3 = [\d.]+e\+308$"):
            sample_complexity(run.network, run.model, loss, 1.0, 0.05, y_max)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_raises_a_named_error(self):
        # finite term2 and term3 whose sum with the empirical loss overflows
        run = load_run_config(default_config())
        y_max = ymax_estimate(run.model, run.bounds.c_max, "noiseless")
        term2 = geb_bound(run.network, run.model, LossSpec.ssim(tau=1.0), 1000, 0.05, y_max).term2
        loss = LossSpec.ssim(tau=1e308 / term2)
        assert math.isfinite(geb_bound(run.network, run.model, loss, 1000, 0.05, y_max).total)
        with pytest.raises(ValueError, match=r"^the bound overflows float64 at .* and Ns = 1000: term2 = "):
            geb_bound(run.network, run.model, loss, 1000, 0.05, y_max, empirical_loss=1e308)

    def test_log_of_a_zero_constant_is_written_as_null(self):
        # y_max = 0 makes kappa 0, whose log is -inf
        run = load_run_config(default_config())
        payload = geb_bound(run.network, run.model, run.loss, 1000, 0.05, 0.0).to_dict()
        assert payload["constants"]["kappa"] == 0.0 and payload["constants"]["log_kappa"] is None
        assert json.loads(dumps_canonical(payload))["constants"]["log_kappa"] is None
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps_canonical({"log_kappa": -math.inf})


class TestLossSpec:
    def test_mae_constants(self):
        loss = LossSpec.mae(16, 2.0)
        assert loss.tau == pytest.approx(0.25) and loss.c == pytest.approx(0.5)

    @pytest.mark.parametrize("tau, c", [(math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_constants(self, tau, c):
        with pytest.raises(ValueError, match="finite"):
            LossSpec(tau=tau, c=c, name="mae")

    def test_ssim_requires_tau(self):
        with pytest.raises(TypeError, match="tau"):
            LossSpec.ssim()
        assert LossSpec.ssim(0.7).c == 2.0


class TestScaling:
    def test_sample_count_axis_is_exact_half_power(self):
        studies = scaling_study_specs({})
        cfg, mdl, spec, loss = studies["ns"]
        fit = scaling_fit(cfg, mdl, loss, spec)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-6)
        assert "axis" not in asdict(fit)  # the study's key names the axis

    def test_degenerate_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="n", values=(4, 5, 6, 7), **SWEEP_FIELDS)
        with pytest.raises(ValueError):
            SweepSpec(axis="ns", values=(10, 1000), **SWEEP_FIELDS)
        with pytest.raises(ValueError):
            SweepSpec(axis="depth", values=(1, 10, 100, 1000), **SWEEP_FIELDS)
        with pytest.raises(ValueError, match="integers"):
            SweepSpec(axis="n", values=(4, 8, 16, 32, 64.5), **SWEEP_FIELDS)
        for name, value in (("Ns", 0), ("Ns", 2.5), ("eps_conf", 0.0), ("eps_conf", 1.0)):
            with pytest.raises(ValueError, match=name):
                SweepSpec(axis="ns", values=(10, 100, 1000, 10000), **{**SWEEP_FIELDS, name: value})
        with pytest.raises(TypeError, match="Ns.*eps_conf"):  # serialize.sweep_specs defaults them
            SweepSpec(axis="ns", values=(10, 100, 1000, 10000))

    def test_n_axis_starts_at_two(self):
        # the n-axis fit divides by sqrt(ln n), which is 0 at n = 1
        with pytest.raises(ValueError, match="the n axis starts at 2"):
            SweepSpec(axis="n", values=(1, 2, 4, 8, 16), **SWEEP_FIELDS)
        assert SweepSpec(axis="kj", values=(1, 4, 16, 64), **SWEEP_FIELDS).values == (1, 4, 16, 64)

    @staticmethod
    def _assert_rows_equal_geb_bound(rows, spec, points):
        """Each row is the value, ``geb_bound`` and the r diagnostic of its
        ``(config, model, loss, Ns)`` point, bitwise."""
        assert [v for v, _, _ in rows] == [float(v) for v in spec.values]
        for (_, rep, r), (cfg, mdl, loss, Ns) in zip(rows, points, strict=True):
            y_max = ymax_estimate(mdl, cfg.bounds.c_max, "noiseless")
            want = geb_bound(cfg, mdl, loss, Ns, spec.eps_conf, y_max)
            assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
            assert r.hex() == bounds.norm_log_sum(mdl, y_max).hex()

    @pytest.mark.parametrize("variant", ["default", "cgnet"])
    def test_ns_rows_equal_geb_bound(self, variant):
        cfg, mdl, spec, loss = scaling_study_specs({})["ns"]
        if variant == "cgnet":
            cfg = _cg_config(n=cfg.n, K=3, J=2)
        rows = bounds.sweep_bound(cfg, mdl, loss, spec)
        self._assert_rows_equal_geb_bound(rows, spec, [(cfg, mdl, loss, int(v)) for v in spec.values])

    @pytest.mark.parametrize("loss_name", ["ssim", "mae"])
    def test_n_rows_equal_geb_bound(self, loss_name):
        # each point resizes the network and the model; a mae loss follows n
        cfg, _, spec, loss = scaling_study_specs({})["n"]
        if loss_name == "mae":
            loss = LossSpec.mae(cfg.n, cfg.bounds.c_max)
        points = []
        for v in map(int, spec.values):
            point_loss = LossSpec.mae(v, cfg.bounds.c_max) if loss_name == "mae" else loss
            model = MeasurementModel(float(v) ** 6.0 * np.ones((1, v)))
            points.append((replace(cfg, n=v), model, point_loss, spec.Ns))
        rows = bounds.sweep_bound(cfg, points[0][1], loss, spec)
        self._assert_rows_equal_geb_bound(rows, spec, points)

    def test_kj_rows_equal_geb_bound(self):
        # K * J values that are not squares run as K = v, J = 1
        spec = SweepSpec(axis="kj", values=(2, 8, 32, 128), **SWEEP_FIELDS)
        cfg, mdl, spec, loss = bounds.scaling_study(spec)
        rows = bounds.sweep_bound(cfg, mdl, loss, spec)
        self._assert_rows_equal_geb_bound(
            rows, spec, [(replace(cfg, K=int(v), J=1), mdl, loss, spec.Ns) for v in spec.values])
        assert [rep.inputs["KJD_plus_1"] for _, rep, _ in rows] == [7, 25, 97, 385]

    def test_ns_sweep_assembles_constants_once(self, monkeypatch):
        cfg, mdl, spec, loss = scaling_study_specs({})["ns"]
        calls = _count_calls(monkeypatch, "network_constants", "geb_bound")
        assert len(bounds.sweep_bound(cfg, mdl, loss, spec)) == len(spec.values)
        assert calls == {"network_constants": 1, "geb_bound": 0}

    @pytest.mark.parametrize("axis", ["n", "kj"])
    def test_sweep_assembles_constants_once_per_point(self, monkeypatch, axis):
        cfg, mdl, spec, loss = scaling_study_specs({})[axis]
        calls = _count_calls(monkeypatch, "network_constants", "geb_bound")
        assert len(bounds.sweep_bound(cfg, mdl, loss, spec)) == len(spec.values)
        assert calls == {"network_constants": len(spec.values), "geb_bound": 0}

    def test_r_diagnostic_present(self):
        studies = scaling_study_specs({})
        cfg, mdl, spec, loss = studies["kj"]
        fit = scaling_fit(cfg, mdl, loss, spec)
        assert len(fit.r_diagnostic) == len(spec.values)
        assert all(np.isfinite(fit.r_diagnostic))


class TestComparators:
    def test_ratio_is_linear_in_dimension(self):
        ns = np.array([4, 8, 16, 32, 64], dtype=float)
        ratio = [cor1_comparator(n, 8, 64, 1000) / cor2_comparator(n, 8, 64, 1000) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(ratio), 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_first_exceeds_second(self):
        for n in (2, 8, 32):
            assert cor1_comparator(n, 4, 16, 100) > cor2_comparator(n, 4, 16, 100)


class TestSampleComplexity:
    MODEL = MeasurementModel(FROZEN_A)
    LOSS = LossSpec.mae(4, 1.0)

    def _block(self, Ns):
        rep = geb_bound(_dr_config(), self.MODEL, self.LOSS, Ns, 0.05, 2.0)
        return rep.term2 + rep.term3

    def test_loose_gap_returns_one(self):
        gap = self._block(1) + 1.0
        assert sample_complexity(_dr_config(), self.MODEL, self.LOSS, gap, 0.05, 2.0) == 1

    def test_boundary_is_exact(self):
        ns = sample_complexity(_dr_config(), self.MODEL, self.LOSS, 0.5, 0.05, 2.0)
        assert self._block(ns) <= 0.5
        assert ns == 1 or self._block(ns - 1) > 0.5

    def test_halving_gap_quadruples_samples(self):
        n1 = sample_complexity(_dr_config(), self.MODEL, self.LOSS, 0.4, 0.05, 2.0)
        n2 = sample_complexity(_dr_config(), self.MODEL, self.LOSS, 0.2, 0.05, 2.0)
        assert n2 / n1 == pytest.approx(4.0, rel=0.01)

    @pytest.mark.parametrize("target", [1e12, 1e15])
    def test_boundary_is_exact_at_large_counts(self, target):
        gap = self._block(1) / math.sqrt(target)
        ns = sample_complexity(_dr_config(), self.MODEL, self.LOSS, gap, 0.05, 2.0)
        assert ns == pytest.approx(target, rel=1e-6)
        assert self._block(ns) <= gap < self._block(ns - 1)

    def test_gap_beyond_ceiling_unattainable(self):
        # needs about 2^54 samples; above 2^53 float sample counts share a block
        gap = self._block(1) / math.sqrt(2.0**54)
        with pytest.raises(ValueError, match="unattainable"):
            sample_complexity(_dr_config(), self.MODEL, self.LOSS, gap, 0.05, 2.0)

    def test_rounding_up_from_the_closed_form(self):
        # the gap one ulp below block(6) puts ceil((block(1) / gap)^2) at 6,
        # whose block is still above the gap, so the answer steps up to 7
        run = load_run_config(default_config())
        y_max = ymax_estimate(run.model, run.bounds.c_max, "noiseless")

        def block(ns):
            rep = geb_bound(run.network, run.model, run.loss, ns, 0.05, y_max)
            return rep.term2 + rep.term3

        gap = float(np.nextafter(block(6), 0.0))
        assert math.ceil((block(1) / gap) ** 2) == 6 and block(6) > gap
        assert sample_complexity(run.network, run.model, run.loss, gap, 0.05, y_max) == 7

    def test_rejects_nonpositive_gap(self):
        for gap in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="gap"):
                sample_complexity(_dr_config(), self.MODEL, self.LOSS, gap, 0.05, 2.0)

    def test_assembles_constants_once(self, monkeypatch):
        gap = self._block(1) / 30.0
        calls = _count_calls(monkeypatch, "network_constants", "geb_bound")
        assert sample_complexity(_dr_config(), self.MODEL, self.LOSS, gap, 0.05, 2.0) > 1
        assert calls == {"network_constants": 1, "geb_bound": 0}

    @pytest.mark.parametrize("make_config", [_cg_config, _dr_config], ids=["cgnet", "drcgnet"])
    @pytest.mark.parametrize("n, m, K, J", [(2, 1, 1, 1), (4, 2, 2, 1), (4, 4, 1, 2), (8, 3, 2, 2)])
    def test_matches_reference_walk(self, make_config, n, m, K, J):
        config = make_config(n=n, K=K, J=J)
        rng = np.random.default_rng((SEED_GEB, n, m, K, J))
        model = MeasurementModel(rng.standard_normal((m, n)))
        loss = LossSpec.mae(n, 1.0)
        y_max = ymax_estimate(model, 1.0, "noiseless")

        def block(ns):
            rep = geb_bound(config, model, loss, ns, 0.05, y_max)
            return rep.term2 + rep.term3

        for target, share in ((37, 1.0), (120, 1.0 + 1e-3), (240, 1.0 - 1e-3)):
            gap = block(target) * share
            walk = 1
            while block(walk) > gap:
                walk += 1
            assert sample_complexity(config, model, loss, gap, 0.05, y_max) == walk

    @pytest.mark.parametrize("eps_conf, y_max, n, match", [
        (1.5, 2.0, 4, "eps_conf"), (0.05, math.nan, 4, "y_max"), (0.05, 2.0, 3, "disagree"),
    ], ids=["eps_conf", "nan_y_max", "mismatched_n"])
    def test_rejects_bad_inputs(self, eps_conf, y_max, n, match):
        model = MeasurementModel(FROZEN_A[:, :n])
        with pytest.raises(ValueError, match=match):
            sample_complexity(_dr_config(), model, self.LOSS, 0.5, eps_conf, y_max)


def _same(a, b):
    """Bitwise equality of two floats or two float arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return type(a) is float and type(b) is float and a.hex() == b.hex()


def _random_case(rng, i):
    """A random (config, model, y_max) with K*J from 1 up to 4096."""
    K, J = ((1, 1), (64, 64), (1, 64), (64, 1))[i] if i < 4 else tuple(
        int(v) for v in rng.choice([1, 2, 3, 5, 8, 9, 13, 16, 31, 64], size=2))
    n = int(rng.integers(2, 12))
    sb = SignalBounds.default()
    p_min = float(rng.uniform(0.1, 1.0))
    p_max = p_min * float(rng.uniform(1.0, 8.0))
    if i % 2:
        config = NetworkConfig(variant="cgnet", n=n, K=K, J=J, bounds=sb, p_min=p_min,
                               p_max=p_max, mu_bound=float(rng.uniform(0.0, 2.0)))
    else:
        Lc = int(rng.integers(1, 10))
        config = NetworkConfig(
            variant="drcgnet", n=n, K=K, J=J, bounds=sb, p_min=p_min, p_max=p_max, Lc=Lc,
            filters=(1,) + tuple(int(v) for v in rng.integers(1, 4, size=Lc - 1)) + (1,),
            kernels=tuple(int(v) for v in rng.integers(1, 6, size=Lc)),
            weight_bounds=tuple(float(v) for v in rng.uniform(0.2, 1.5, size=Lc)),
            delta=float(rng.uniform(0.0, 1.0)),
        )
    model = MeasurementModel(rng.standard_normal((int(rng.integers(1, 7)), n))
                             * 10.0 ** rng.uniform(-2.0, 2.0))
    y_max = 0.0 if i == 5 else ymax_estimate(model, sb.c_max, "noiseless") * float(rng.uniform(0.5, 2.0))
    return config, model, y_max


class TestReferenceAssembly:
    """The float-path assembly gives the bits of the numpy-scalar reference
    in tests/oracles.py: constants, bound, and sample complexity."""

    CASES = 48

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(SEED_GEB + 5)
        cases = [_random_case(rng, i) for i in range(self.CASES)]
        kj = {config.K * config.J for config, _, _ in cases}
        assert min(kj) == 1 and max(kj) == 4096 and len(kj) > 10
        return cases

    def test_network_constants(self, cases):
        rng = np.random.default_rng(SEED_GEB + 6)
        for config, model, y_max in cases:
            for cns, want in (
                (network_constants(config, model, y_max),
                 network_constants_oracle(config, model, y_max)),
                self._exact_pair(rng, config, model),
            ):
                for name, value in want.items():
                    assert _same(getattr(cns, name), value), (config.K, config.J, name)

    @staticmethod
    def _exact_pair(rng, config, model):
        y = rng.standard_normal(model.m) * 10.0 ** rng.uniform(-2.0, 2.0)
        P = sample_covariance("full", config.n, config.p_min, config.p_max, rng)
        Pt = sample_covariance("diagonal", config.n, config.p_min, config.p_max, rng)
        return (network_constants_exact(config, model, y, P, Pt),
                network_constants_exact_oracle(config, model, y, P, Pt))

    def test_geb_bound_and_sample_complexity(self, cases):
        rng = np.random.default_rng(SEED_GEB + 7)
        for config, model, y_max in cases:
            loss = LossSpec.mae(config.n, config.bounds.c_max)
            Ns = int(10.0 ** rng.uniform(0.0, 7.0))
            rep = geb_bound(config, model, loss, Ns, 0.05, y_max)
            terms, cns = geb_oracle(config, model, loss, Ns, 0.05, y_max)
            got = rep.to_dict()
            del got["constants"]
            assert json.dumps(got, sort_keys=True) == json.dumps(terms, sort_keys=True)
            for name, value in cns.items():
                assert _same(getattr(rep.constants, name), value), (config.K, config.J, name)
            gap = (rep.term2 + rep.term3) * float(rng.uniform(0.5, 2.0))
            assert (sample_complexity(config, model, loss, gap, 0.05, y_max)
                    == sample_complexity_oracle(config, model, loss, gap, 0.05, y_max))


def underflowing_ratio_config(case):
    """A config one of whose covering ratios ``4 (KJD + 1) radius / c_max``
    underflows to 0: a tiny weight radius under a huge ``c_max``, or a tiny
    covariance radius under a huger ``c_max``."""
    cfg = default_config()
    bounds_section = {"c_max": 1.0, "z_inf": E3, "xi": 1.0, "a": 1.0, "b": E3}
    if case == "weight_radius":
        cfg["model"] = {"m": 2, "n": 4, "matrix": {"generator": "ones"}}
        cfg["network"].update(K=4, J=4, Lc=1, weight_bounds=[1e-300])
        bounds_section.update(c_max=1e30, z_inf=20.0, b=20.0)
        cfg["geb"]["ymax_mode"] = "noiseless"
        del cfg["dataset"]
    else:  # covariance radius
        cfg["network"].update(p_min=1e-30, p_max=1e-30)
        bounds_section["c_max"] = 1e300
    cfg["bounds"] = bounds_section
    return cfg


class TestUnderflowingCoveringRatio:
    # the weight radius gave a bound of 8.77e31 with a divide-by-zero warning,
    # the covariance radius a bare "math domain error"
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["weight_radius", "covariance_radius"])
    def test_geb_bound_names_the_radius_and_c_max(self, case):
        run = load_run_config(underflowing_ratio_config(case))
        radius, c_max = {"weight_radius": ("1e-300", "1e+30"),
                         "covariance_radius": ("1e-30", "1e+300")}[case]
        want = ("the covering ratio 4 * (KJD + 1) * radius / c_max is 0.0, outside the normal "
                f"float64 range, at radius = {radius} and c_max = {c_max}")
        with pytest.raises(ValueError) as err:
            geb_bound(run.network, run.model, run.loss, 1000, 0.05, 1.0)
        assert str(err.value) == want


class TestOverflowingInputs:
    """Constants that overflow raise a ValueError naming y_max, with no
    RuntimeWarning and no NaN bound."""

    @pytest.mark.parametrize("scale, y_max", [(3e152, 1e-250), (1.0, 1e160)],
                             ids=["inf_c1", "pow_overflow"])
    def test_geb_bound_and_sample_complexity_raise(self, scale, y_max):
        run = load_run_config(default_config())
        model = MeasurementModel(scale * run.model.A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float64 at y_max"):
                geb_bound(run.network, model, run.loss, 1000, 0.05, y_max)
            with pytest.raises(ValueError, match="overflow float64 at y_max"):
                sample_complexity(run.network, model, run.loss, 1.0, 0.05, y_max)
