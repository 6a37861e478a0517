"""Synthetic data generation and the empirical-gap harness."""

import numpy as np
import pytest

from cgbound.bounds import LossSpec
from cgbound.datagen import CgDataSpec, empirical_gap, generate_cg_dataset, mae_loss
from cgbound.model import MeasurementModel, SignalBounds, SpdMatrix
from cgbound.networks import NetworkConfig, sample_parameters

SEED_DATA = 0x5EED_0006

BOUNDS = SignalBounds.default()


def _spec(Ns=64, sigma=0.0, seed=SEED_DATA, n=6, m=3):
    rng = np.random.default_rng(123)
    model = MeasurementModel(rng.standard_normal((m, n)), sigma=sigma)
    return CgDataSpec(model=model, sigma_u=SpdMatrix(0.5 * np.eye(n)),
                      bounds=BOUNDS, Ns=Ns, seed=seed)


class TestGenerate:
    def test_sample_invariants(self):
        data = generate_cg_dataset(_spec(Ns=500))
        norms = np.linalg.norm(data.C, axis=1)
        assert np.all(norms <= BOUNDS.c_max * (1 + 1e-12))
        # the factorization survives the joint rescale
        np.testing.assert_allclose(data.C, data.Z * data.U, rtol=1e-12, atol=1e-15)
        # pre-rescale scale variables lie in the clamp interval
        z_raw = data.Z / np.sqrt(data.scales)[:, None]
        assert np.all(z_raw >= BOUNDS.a - 1e-12)
        assert np.all(z_raw <= BOUNDS.b + 1e-12)

    def test_noiseless_measurements(self):
        spec = _spec(Ns=200, sigma=0.0)
        data = generate_cg_dataset(spec)
        np.testing.assert_allclose(data.Y, data.C @ spec.model.A.T, rtol=1e-12, atol=1e-15)
        assert np.max(np.linalg.norm(data.Y, axis=1)) <= BOUNDS.c_max * spec.model.norm2 + 1e-9

    def test_noise_changes_measurements(self):
        quiet = generate_cg_dataset(_spec(sigma=0.0))
        noisy = generate_cg_dataset(_spec(sigma=0.3))
        assert not np.allclose(quiet.Y, noisy.Y)

    def test_overflowing_noise_names_sigma(self):
        with pytest.raises(ValueError, match="model.sigma"):
            generate_cg_dataset(_spec(sigma=1e308))

    def test_deterministic_in_seed(self):
        a = generate_cg_dataset(_spec())
        b = generate_cg_dataset(_spec())
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.C, b.C)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _spec(Ns=0)

    @pytest.mark.parametrize("Ns", [2.5, True, np.bool_(True)], ids=["fraction", "bool", "np_bool"])
    def test_rejects_non_integer_sizes(self, Ns):
        with pytest.raises(ValueError, match="Ns must be a finite integer"):
            _spec(Ns=Ns)

    def test_gap_rejects_fractional_test_draws(self):
        theta = sample_parameters(_config(), 6)
        with pytest.raises(ValueError, match="Ns must be a finite integer"):
            empirical_gap(theta, _config(), LossSpec.mae(6, 1.0), _spec(Ns=8), test_draws=2.5, seed=1)

    def test_rejects_a_mismatched_signal_covariance(self):
        spec = _spec()
        with pytest.raises(ValueError, match="^sigma_u must be n x n$"):
            CgDataSpec(model=spec.model, sigma_u=SpdMatrix(0.5 * np.eye(7)), bounds=BOUNDS, Ns=8, seed=1)

    def test_gap_rejects_zero_test_draws(self):
        theta = sample_parameters(_config(), 6)
        with pytest.raises(ValueError, match="^test_draws must be >= 1$"):
            empirical_gap(theta, _config(), LossSpec.mae(6, 1.0), _spec(Ns=8), test_draws=0, seed=1)

    def test_integral_float_size_is_stored_as_int(self):
        spec = _spec(Ns=48.0)
        assert type(spec.Ns) is int and spec.Ns == 48
        assert len(generate_cg_dataset(spec)) == 48

    def test_pairs_view(self):
        data = generate_cg_dataset(_spec(Ns=5))
        assert len(data) == 5 and data.Y.shape[0] == data.C.shape[0] == 5


class TestMaeLoss:
    def test_value(self):
        assert mae_loss([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_on_equal(self):
        assert mae_loss([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_stack_equals_row_calls(self):
        rng = np.random.default_rng(SEED_DATA)
        for n in (1, 2, 7, 8, 9, 31, 200):
            x1, x2 = rng.standard_normal((2, 25, n))
            losses = mae_loss(x1, x2)
            assert losses.shape == (25,)
            rows = [mae_loss(a, b) for a, b in zip(x1, x2)]
            assert all(isinstance(r, float) for r in rows)
            np.testing.assert_array_equal(losses, rows)


def _config(n=6):
    return NetworkConfig(
        variant="drcgnet", n=n, K=1, J=1, bounds=BOUNDS,
        p_min=0.5, p_max=2.0, Lc=1, filters=(1, 1), kernels=(3,),
        weight_bounds=(0.9,), delta=0.5,
    )


class TestEmpiricalGap:
    def test_identical_train_and_test_gap_is_zero(self):
        spec = _spec(Ns=16)
        theta = sample_parameters(_config(), 3)
        rep = empirical_gap(theta, _config(), LossSpec.mae(6, 1.0), spec,
                            test_draws=16, seed=spec.seed)
        assert rep.empirical_gap == 0.0
        assert rep.holds

    def test_gap_bounded_by_loss_range(self):
        spec = _spec(Ns=24)
        loss = LossSpec.mae(6, 1.0)
        theta = sample_parameters(_config(), 4)
        rep = empirical_gap(theta, _config(), loss, spec, test_draws=200, seed=9)
        assert rep.empirical_gap <= 2 * loss.c

    def test_desk_scale_run_holds(self):
        spec = _spec(Ns=32, n=8, m=4)
        config = _config(n=8)
        theta = sample_parameters(config, 5)
        rep = empirical_gap(theta, config, LossSpec.mae(8, 1.0), spec,
                            test_draws=400, seed=10)
        assert rep.holds and rep.bound_total > rep.empirical_gap
        assert rep.test_stderr > 0.0

    def test_rejects_external_loss(self):
        spec = _spec(Ns=8)
        theta = sample_parameters(_config(), 6)
        with pytest.raises(ValueError, match="mean-absolute-error"):
            empirical_gap(theta, _config(), LossSpec.ssim(0.5), spec, 8, 1)
