"""Randomized certification harness: target coverage and reporting."""

import numpy as np
import pytest

from cgbound.backend import kernels
from cgbound.verify import TARGETS, TrialDims, _solve_pair, _trial_rng, verify_lipschitz

from oracles import datafit_grad_oracle

SEED_VER = 0x5EED_0005


def test_target_table_is_complete():
    assert sorted(TARGETS) == [
        "datafit_grad",
        "gram_diff",
        "inverse_diff",
        "network_lipschitz",
        "reg_inverse_diff",
        "reg_inverse_norm",
        "scale_chain",
        "scale_mapping",
        "subnet_lipschitz",
        "subnet_norm",
        "tikhonov_lipschitz",
        "tikhonov_norm",
    ]


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_target_holds_on_small_runs(target):
    rep = verify_lipschitz(target, 500, seed=SEED_VER)
    assert rep.all_hold, f"{target} failed {rep.trials - rep.passes} trials (seed {SEED_VER:#x})"
    assert rep.max_tightness <= 1.0 + 1e-9
    assert 0.0 <= rep.median_tightness <= rep.max_tightness


def test_reports_are_deterministic_in_seed():
    a = verify_lipschitz("gram_diff", 200, seed=7)
    b = verify_lipschitz("gram_diff", 200, seed=7)
    assert a == b
    c = verify_lipschitz("gram_diff", 200, seed=8)
    assert c.median_tightness != a.median_tightness


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown target"):
        verify_lipschitz("triangle_inequality", 10)


def test_requires_positive_trials():
    with pytest.raises(ValueError):
        verify_lipschitz("gram_diff", 0)


def test_report_payload():
    rep = verify_lipschitz("subnet_norm", 50, seed=1)
    d = rep.to_dict()
    assert d["target"] == "subnet_norm"
    assert d["trials"] == 50 and d["passes"] == 50
    assert d["all_hold"] is True
    assert d["rel_tol"] == 1e-9 and d["abs_tol"] == 1e-12


def test_custom_dims_respected():
    dims = TrialDims(n_max=4, m_max=2, kj_max=4)
    rep = verify_lipschitz("scale_chain", 100, dims=dims, seed=SEED_VER)
    assert rep.all_hold


def test_identical_parameters_give_zero_distance():
    # degenerate direction of the output-sensitivity check: same parameters
    # on both sides must produce lhs = 0 <= rhs
    from cgbound.lipschitz import network_constants_exact
    from cgbound.model import MeasurementModel, SignalBounds
    from cgbound.networks import NetworkConfig, forward, sample_parameters

    rng = np.random.default_rng(SEED_VER)
    model = MeasurementModel(rng.standard_normal((3, 5)))
    config = NetworkConfig(
        variant="cgnet", n=5, K=2, J=2, bounds=SignalBounds.default(),
        p_min=0.5, p_max=2.0, mu_bound=1.0,
    )
    theta = sample_parameters(config, 11)
    y = rng.standard_normal(3)
    t1 = forward(y, theta, config, model)
    t2 = forward(y, theta, config, model)
    assert np.array_equal(t1.output, t2.output)
    cns = network_constants_exact(config, model, y, theta.P, theta.P)
    assert cns.kappa >= 0.0


def test_theta_sum_adds_in_kjd_order():
    # the certified right-hand sides keep the bits of the (k, j, d) triple loop
    from cgbound.verify import _theta_sum

    rng = np.random.default_rng(SEED_VER)
    for _ in range(300):
        shape = tuple(int(s) for s in rng.integers(1, 5, size=3))
        coeffs = np.exp(rng.uniform(-30.0, 30.0, size=shape))
        dist = rng.random(shape)
        total = float(rng.random())
        want = total
        for k, j, d in np.ndindex(shape):
            want += coeffs[k, j, d] * dist[k, j, d]
        assert _theta_sum(coeffs, dist, total) == want


def test_datafit_kernel_equals_its_oracle_on_solve_pairs():
    # the datafit_grad target certifies kernels["datafit_grad"]: on its draws
    # the kernel gives the bits of the 2-D @ 1-D oracle, 1-D and 2-row
    dims = TrialDims()
    for i in range(1000):
        model, y, z, _, _, u = _solve_pair(_trial_rng(SEED_VER, i), dims)
        want = np.array([datafit_grad_oracle(model.A, u[r], z[r], y) for r in range(2)])
        assert kernels["datafit_grad"](model.A, u, z, y).tobytes() == want.tobytes(), i
        assert kernels["datafit_grad"](model.A, u, z, np.array([y, y])).tobytes() == want.tobytes(), i
        for r in range(2):
            assert kernels["datafit_grad"](model.A, u[r], z[r], y).tobytes() == want[r].tobytes(), i


def test_identity_covariance_trivial_direction():
    # with P = I the cap is 1 and the regularized inverse has norm
    # 1/(gamma_1 + 1) <= 1 for the smallest Gram eigenvalue gamma_1 >= 0
    from cgbound.model import MeasurementModel, SpdMatrix, spectral_norm

    rng = np.random.default_rng(SEED_VER)
    A = rng.standard_normal((3, 5))
    z = rng.uniform(-2, 2, size=5)
    P = SpdMatrix(np.eye(5))
    Az = A * z
    gram = Az.T @ Az
    lhs = spectral_norm(np.linalg.inv(gram + P.P_inv))
    gamma1 = np.linalg.eigvalsh(gram)[0]
    assert lhs == pytest.approx(1.0 / (gamma1 + 1.0), rel=1e-9)
    # boundary-tight: holds at the certification tolerance
    assert lhs <= P.p_max * (1 + 1e-9) + 1e-12
