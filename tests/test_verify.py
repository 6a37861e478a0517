"""Randomized certification harness: target coverage and reporting."""

import numpy as np
import pytest

import cgbound.verify as verify_mod
from cgbound.backend import kernels
from cgbound.verify import (
    TARGETS,
    TrialDims,
    _solve_pair,
    _trial_rng,
    verify_lipschitz,
    verify_targets,
)

from oracles import datafit_grad_oracle

SEED_VER = 0x5EED_0005

# (passes, median tightness, max tightness) of 50 trials per (verify seed,
# target), recorded before the targets that share a draw were run from one
# draw: the per-(seed, trial) streams and both sides of every inequality
RECORDED = {
    (SEED_VER, "datafit_grad"): (50, 3.404524789524622e-11, 2.809657696586438e-06),
    (SEED_VER, "gram_diff"): (50, 0.13880212856664179, 0.5005509621321513),
    (SEED_VER, "inverse_diff"): (50, 0.45921848896805195, 1.0000000000000029),
    (SEED_VER, "network_lipschitz"): (50, 9.207990148934659e-60, 7.008971663703698e-22),
    (SEED_VER, "reg_inverse_diff"): (50, 2.552073041221034e-05, 0.0002984919798706989),
    (SEED_VER, "reg_inverse_norm"): (50, 0.7907706874070703, 1.0000000000008709),
    (SEED_VER, "scale_chain"): (50, 1.3773014964668696e-52, 2.2154001161130493e-15),
    (SEED_VER, "scale_mapping"): (50, 2.5803651559255027e-42, 1.1780244699202154e-05),
    (SEED_VER, "subnet_lipschitz"): (50, 0.06405077516677868, 0.6817680781783423),
    (SEED_VER, "subnet_norm"): (50, 0.11229579320036961, 0.5867230981739451),
    (SEED_VER, "tikhonov_lipschitz"): (50, 3.7333360907472166e-08, 9.411608841193507e-06),
    (SEED_VER, "tikhonov_norm"): (50, 0.0005403882844975791, 0.0290448549792828),
    (11, "datafit_grad"): (50, 6.291422669092457e-11, 2.384818506985421e-07),
    (11, "gram_diff"): (50, 0.13194872245471395, 0.39249472261031515),
    (11, "inverse_diff"): (50, 0.4597539344472245, 1.0000000000000004),
    (11, "network_lipschitz"): (50, 1.5908203688349989e-52, 3.7715406962029815e-16),
    (11, "reg_inverse_diff"): (50, 2.4234817653601895e-05, 0.0017083056086051067),
    (11, "reg_inverse_norm"): (50, 0.7218622480707917, 1.0000000000002056),
    (11, "scale_chain"): (50, 4.710743953175433e-46, 1.312417070189954e-09),
    (11, "scale_mapping"): (50, 1.5471709867716088e-35, 1.178705549122058e-05),
    (11, "subnet_lipschitz"): (50, 0.049848049667727025, 0.5359247555686679),
    (11, "subnet_norm"): (50, 0.10567356976744324, 0.7936953635197741),
    (11, "tikhonov_lipschitz"): (50, 5.795192550911873e-08, 1.1990276437396916e-05),
    (11, "tikhonov_norm"): (50, 0.0007070573369570077, 0.016308559607097615),
}

RECORDED_DIMS = TrialDims(n_max=4, m_max=2, kj_max=4, lc_max=1, p_min=0.8, p_max=1.25)
# the same for RECORDED_DIMS at verify seed 3
RECORDED_WITH_DIMS = {
    "datafit_grad": (50, 6.925421925739496e-09, 5.9179956005592964e-05),
    "gram_diff": (50, 0.17918003969959165, 0.6210278062143438),
    "inverse_diff": (50, 0.7699558350104683, 1.0000000000000009),
    "network_lipschitz": (50, 1.4187056178677727e-24, 7.150840673738541e-07),
    "reg_inverse_diff": (50, 0.00014082354476861595, 0.005205462846493239),
    "reg_inverse_norm": (50, 0.9349391927689954, 1.0000000000001557),
    "scale_chain": (50, 6.632602326831561e-18, 0.0006202150450800546),
    "scale_mapping": (50, 1.3211792686792166e-09, 0.33219902467729845),
    "subnet_lipschitz": (50, 0.051264857312480684, 0.9610914510456101),
    "subnet_norm": (50, 0.09934860502480714, 0.8536737701468555),
    "tikhonov_lipschitz": (50, 1.0911342251624922e-06, 0.0008581665045173392),
    "tikhonov_norm": (50, 0.0029500129577728607, 0.15539552275948082),
}


def _assert_recorded(rep, want):
    passes, median, worst = want
    assert (rep.trials, rep.passes) == (50, passes), rep.target
    assert rep.median_tightness == pytest.approx(median, rel=1e-9, abs=0.0), rep.target
    assert rep.max_tightness == pytest.approx(worst, rel=1e-9, abs=0.0), rep.target


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


@pytest.mark.parametrize("seed, target", sorted(RECORDED))
def test_recorded_values(seed, target):
    _assert_recorded(verify_lipschitz(target, 50, seed=seed), RECORDED[seed, target])


@pytest.mark.parametrize("seed", sorted({seed for seed, _ in RECORDED}))
def test_verify_targets_gives_the_recorded_values(seed):
    reports = verify_targets(sorted(TARGETS), 50, seed=seed)
    assert [rep.target for rep in reports] == sorted(TARGETS)
    for rep in reports:
        _assert_recorded(rep, RECORDED[seed, rep.target])


def test_verify_targets_gives_the_recorded_values_with_custom_dims():
    reports = verify_targets(sorted(TARGETS), 50, dims=RECORDED_DIMS, seed=3)
    assert [rep.target for rep in reports] == sorted(TARGETS)
    for rep in reports:
        _assert_recorded(rep, RECORDED_WITH_DIMS[rep.target])


def test_shared_draws_run_once_per_trial(monkeypatch):
    # scale_chain and network_lipschitz share one forward pair per trial,
    # tikhonov_lipschitz and datafit_grad one solve pair: N of each, where a
    # call per target would make 2N
    calls = {"forward": 0, "tikhonov_solve": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(verify_mod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify_mod, name, counted)
    targets = ["scale_chain", "network_lipschitz", "tikhonov_lipschitz", "datafit_grad"]
    reports = verify_targets(targets, 30, seed=SEED_VER)
    assert calls == {"forward": 30, "tikhonov_solve": 30}
    assert reports == [verify_lipschitz(t, 30, seed=SEED_VER) for t in targets]


def test_verify_targets_repeats_orders_and_rejects():
    a, b = verify_targets(["gram_diff", "gram_diff"], 40, seed=7)
    assert a == b == verify_lipschitz("gram_diff", 40, seed=7)
    assert a.trials == a.passes == 40
    assert verify_targets([], 40, seed=7) == []
    order = ["subnet_norm", "datafit_grad", "network_lipschitz", "gram_diff", "scale_chain",
             "tikhonov_lipschitz"]
    assert [rep.target for rep in verify_targets(order, 5, seed=7)] == order
    with pytest.raises(ValueError, match="^unknown target 'triangle_inequality'; known targets: "):
        verify_targets(["gram_diff", "triangle_inequality"], 10)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        verify_targets(["gram_diff"], 0)


def test_lone_shared_target_runs_only_its_own_check(monkeypatch):
    # a target that shares its solve pair computes none of its partner's constants
    calls = {"tikhonov_constants": 0, "datafit_grad_constants": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(verify_mod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify_mod, name, counted)
    verify_lipschitz("datafit_grad", 10, seed=SEED_VER)
    assert calls == {"tikhonov_constants": 0, "datafit_grad_constants": 10}
    verify_lipschitz("tikhonov_lipschitz", 10, seed=SEED_VER)
    assert calls == {"tikhonov_constants": 10, "datafit_grad_constants": 10}
    verify_targets(["datafit_grad", "tikhonov_lipschitz"], 10, seed=SEED_VER)
    assert calls == {"tikhonov_constants": 20, "datafit_grad_constants": 20}
