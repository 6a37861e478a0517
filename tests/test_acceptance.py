"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the criterion:

 1. all twelve inequality targets pass 10^4 seeded randomized trials with
    zero violations at tolerance 1e-9 relative + 1e-12 absolute
 2. primal and Woodbury solver paths agree to 1e-8 relative on 10^4 draws
 3. the alternating least-squares iteration, computed independently from
    the model equations, matches the unrolled forward pass within 1e-12 on
    100 random configurations
 4. the closed-form entropy-integral bound dominates adaptive quadrature
    (tol 1e-8) on 10^3 random (beta, nu) pairs with gap >= -1e-10
 5. (term2 + term3) * sqrt(Ns) is constant to 1e-10 relative across
    Ns in {1e2, 1e3, 1e4, 1e5, 1e6}
 6. complexity-term scaling: slope 1.5 +- 0.1 vs network size over
    KJ in [4, 4096] (learned-regularizer variant, constant log correction
    divided out) and slope 1.0 +- 0.1 vs signal dimension over n in [4, 64]
    (quadratic-update variant, sqrt(ln n) divided out)
 7. the ratio of the paper's corollary expressions for the two variants'
    bounds at matched network size grows linearly in n, fitted slope
    1.0 +- 0.05 (a check of the stated expressions; no bound code runs)
 8. empirical generalization gap <= assembled bound on every configuration
    of the 20-entry desk-scale suite
 9. network output invariants (output inside the signal ball, scale
    iterates inside [0, z_inf]) hold on 10^3 random forward passes
10. a report run with a fixed seed reproduces byte-identical JSON payloads
"""

import json
import math
import os
import time

import numpy as np

from cgbound.bounds import dudley_closed_form, geb_bound, scaling_fit
from cgbound.backend import kernels
from cgbound.model import MeasurementModel, SignalBounds, SpdMatrix
from cgbound.networks import NetworkConfig, forward, sample_parameters
from cgbound.report import default_config, run_gap_suite, run_report, scaling_study_specs
from cgbound.serialize import load_run_config
from cgbound.verify import TARGETS, verify_targets

from oracles import (
    alternating_ls_oracle,
    cor1_comparator,
    cor2_comparator,
    dudley_integral_quad,
)

ACCEPT_SEED = 0xACCE_2025


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    return ok


def test_01_inequality_certification():
    t0 = time.time()
    failed = []
    details = []
    for rep in verify_targets(sorted(TARGETS), 10000, seed=ACCEPT_SEED):
        if not rep.all_hold:
            failed.append((rep.target, rep.trials - rep.passes))
        details.append(f"{rep.target}={rep.passes}/{rep.trials}")
    elapsed = time.time() - t0
    ok = not failed
    _line(1, "inequality-certification", ok,
          f"12 targets x 10^4 trials in {elapsed:.0f}s (seed {ACCEPT_SEED:#x})")
    assert ok, f"violations: {failed}"


def test_02_solver_path_equivalence():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))
        model = MeasurementModel(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, n))
        P = SpdMatrix(G @ G.T + 1e-2 * np.eye(n))
        z = rng.uniform(-2, 2, size=n)
        y = rng.standard_normal(m)
        t1 = kernels["tikhonov_primal"](model.A, z, y, P.P_inv)
        t2 = kernels["tikhonov_woodbury"](model.A, z, y, P.P)
        rel = np.linalg.norm(t1 - t2) / max(np.linalg.norm(t1), 1e-30)
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _line(2, "solver-path-equivalence", ok, f"worst relative difference {worst:.2e}")
    assert ok


def _random_config(rng, n):
    if rng.integers(2) == 0:
        return NetworkConfig(
            variant="cgnet", n=n, K=int(rng.integers(1, 4)), J=int(rng.integers(1, 4)),
            bounds=SignalBounds.default(), p_min=0.5, p_max=2.0, mu_bound=1.0,
        )
    return NetworkConfig(
        variant="drcgnet", n=n, K=int(rng.integers(1, 4)), J=int(rng.integers(1, 4)),
        bounds=SignalBounds.default(), p_min=0.5, p_max=2.0,
        Lc=1, filters=(1, 1), kernels=(3,), weight_bounds=(0.9,), delta=0.5,
    )


def _worst_iteration_gap(scale=1.0):
    """Worst |oracle - forward| over the 100 configurations of criterion 3.

    ``scale`` multiplies the first parameter block of each draw in the
    oracle's copy only, to show the comparison can fail.
    """
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        model = MeasurementModel(rng.standard_normal((m, n)))
        config = _random_config(rng, n)
        theta = sample_parameters(config, int(rng.integers(2**31)))
        y = rng.standard_normal(m)
        first = theta.blocks[0].copy()
        first[0, 0] *= scale
        blocks = (first, *theta.blocks[1:])
        ref = alternating_ls_oracle(y, model.A, theta.P.P, blocks, config)
        diff = np.max(np.abs(ref - forward(y, theta, config, model).output))
        worst = max(worst, float(diff))
    return worst


def test_03_iteration_matches_unrolling():
    worst = _worst_iteration_gap()
    ok = worst <= 1e-12
    _line(3, "iteration-matches-unrolling", ok, f"worst abs difference {worst:.2e} over 100 configs")
    assert ok


def test_03_detects_a_perturbed_block():
    assert _worst_iteration_gap(scale=1.0 + 1e-6) > 1e-12


def test_04_entropy_integral_dominance():
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    min_gap = math.inf
    for _ in range(1000):
        beta = float(10.0 ** rng.uniform(-3, 3))
        nu = float(10.0 ** rng.uniform(-3, 3))
        gap = dudley_closed_form(beta, nu) - dudley_integral_quad(beta, nu, tol=1e-8)
        min_gap = min(min_gap, gap)
    ok = min_gap >= -1e-10
    _line(4, "entropy-integral-dominance", ok, f"min gap {min_gap:.3e} over 10^3 pairs")
    assert ok


def test_05_sample_count_invariance():
    cfg = load_run_config(default_config())
    y_max = 2.0
    products = []
    for Ns in (100, 1000, 10000, 100000, 1000000):
        rep = geb_bound(cfg.network, cfg.model, cfg.loss, Ns, 0.05, y_max)
        products.append((rep.term2 + rep.term3) * math.sqrt(Ns))
    spread = (max(products) - min(products)) / products[0]
    ok = spread <= 1e-10
    _line(5, "sample-count-invariance", ok, f"relative spread {spread:.2e}")
    assert ok


def test_06_scaling_laws():
    studies = scaling_study_specs({})
    cfg, mdl, spec, loss = studies["kj"]
    kj_fit = scaling_fit(cfg, mdl, loss, spec)
    cfg, mdl, spec, loss = studies["n"]
    n_fit = scaling_fit(cfg, mdl, loss, spec)
    ok_kj = abs(kj_fit.exponent - 1.5) <= 0.1
    ok_n = abs(n_fit.exponent - 1.0) <= 0.1
    ok = ok_kj and ok_n
    _line(6, "scaling-laws", ok,
          f"network-size slope {kj_fit.exponent:.3f} (target 1.5+-0.1), "
          f"dimension slope {n_fit.exponent:.3f} (target 1.0+-0.1)")
    assert ok


def test_07_variant_tightness_ratio():
    """Checks the paper's corollary expressions (``tests/oracles.py``), not
    the assembled bound: the ratio is exactly n, so the slope is 1 by
    construction, and no code of the bound runs."""
    ns = np.array([4, 8, 16, 32, 64], dtype=float)
    net, m, Ns = 64, 8, 10000
    ratios = [cor1_comparator(n, m, net, Ns) / cor2_comparator(n, m, net, Ns) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
    ok = abs(slope - 1.0) <= 0.05
    _line(7, "variant-tightness-ratio", ok, f"fitted slope {slope:.4f} (target 1.0+-0.05)")
    assert ok


def test_08_empirical_gap_suite():
    reports = run_gap_suite(suite_size=20, Ns=48, test_draws=2000, seed=ACCEPT_SEED + 3)
    holds = [r.holds for r in reports]
    margin = min(r.bound_total - r.empirical_gap for r in reports)
    ok = all(holds)
    _line(8, "empirical-gap-suite", ok,
          f"{sum(holds)}/{len(holds)} configurations hold, min margin {margin:.3e}")
    assert ok


def test_09_forward_invariants():
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    violations = 0
    for _ in range(1000):
        n, m = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        model = MeasurementModel(rng.standard_normal((m, n)))
        config = _random_config(rng, n)
        theta = sample_parameters(config, int(rng.integers(2**31)))
        y = rng.standard_normal(m) * rng.uniform(0.1, 5.0)
        trace = forward(y, theta, config, model)
        if np.linalg.norm(trace.output) > config.bounds.c_max * (1 + 1e-12):
            violations += 1
            continue
        for zk in trace.z:
            for zj in zk:
                if np.any(zj < -1e-15) or np.any(zj > config.bounds.z_inf * (1 + 1e-12)):
                    violations += 1
                    break
    ok = violations == 0
    _line(9, "forward-invariants", ok, f"{violations} violations over 10^3 passes")
    assert ok


def test_10_report_determinism(tmp_path):
    cfg = default_config()
    cfg["verify"] = {"targets": ["gram_diff", "tikhonov_norm"], "trials": 300, "seed": 17}
    cfg["gap"] = {"suite_size": 3, "Ns": 16, "test_draws": 100, "seed": 23}
    cfg["sweep"] = {
        "ns_values": [100, 1000, 10000, 100000],
        "kj_values": [4, 16, 64, 256],
        "n_values": [4, 8, 16, 32, 64],
    }
    code1 = run_report(load_run_config(cfg), str(tmp_path / "a"))
    code2 = run_report(load_run_config(cfg), str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    mismatched = [
        name for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = code1 == 0 and code2 == 0 and not mismatched and sorted(os.listdir(tmp_path / "b")) == names
    _line(10, "report-determinism", ok,
          f"{len(names)} payloads byte-identical across runs" if ok else f"mismatch: {mismatched}")
    assert ok
    # payloads parse as JSON where expected
    for name in names:
        if name.endswith(".json"):
            json.loads((tmp_path / "a" / name).read_text())
