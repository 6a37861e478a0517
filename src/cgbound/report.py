"""End-to-end study orchestration.

``run_report`` executes, per the run configuration: the bound assembly on
the configured network, the randomized inequality certification suite,
the scaling-law sweeps, and the empirical-gap suite over a family
of desk-scale configurations. Results land in an output directory as
canonical JSON plus fixed-column CSV (axis, term2, term3, total); payloads
contain no timestamps, so identical (seed, config) pairs reproduce
byte-identical files.

Exit: 0 when all inequality suites pass, 2 when any trial or gap check
fails (validation problems raise before any compute and map to exit 1 in
the CLI).
"""

import csv
import io
import json
import os
from dataclasses import asdict

import numpy as np

from .bounds import (
    LossSpec,
    SweepSpec,
    _check_eps_conf,
    _check_ns,
    _fit_rows,
    geb_bound,
    sweep_bound,
    ymax_estimate,
)
from .datagen import CgDataSpec, empirical_gap, generate_cg_dataset
from .model import MeasurementModel, SignalBounds, SpdMatrix
from .networks import NetworkConfig, sample_parameters
from .serialize import ConfigError, _checked, _get, dumps_canonical
from .verify import verify_lipschitz

__all__ = [
    "default_config",
    "config_bound",
    "run_report",
    "gap_suite",
    "scaling_study_specs",
]


_DEFAULT_CONFIG_PATH = os.path.join(os.path.dirname(__file__), "configs", "default.json")


def default_config():
    """A fresh copy of the bundled run configuration (drcgnet desk-scale study)."""
    with open(_DEFAULT_CONFIG_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_bound(run_config):
    """Generalization bound of the configured network, y_max per ``geb.ymax_mode``."""
    if run_config.ymax_mode == "dataset":
        if run_config.dataset_spec is None:
            raise ConfigError("geb.ymax_mode=dataset requires a dataset section")
        data = generate_cg_dataset(run_config.dataset_spec)
        y_max = ymax_estimate(run_config.model, run_config.bounds.c_max, "dataset", dataset=data.Y)
    else:
        y_max = ymax_estimate(run_config.model, run_config.bounds.c_max, run_config.ymax_mode)
    return geb_bound(
        run_config.network, run_config.model, run_config.loss,
        run_config.geb_Ns, run_config.eps_conf, y_max,
    )


# ---------------------------------------------------------------------------
# canonical scaling-study configurations
# ---------------------------------------------------------------------------

def scaling_study_specs(sweep_section):
    """Sweep specs plus the canonical network/model/loss used on each axis.

    The signal-dimension study uses the quadratic-update variant whose
    matrix-parameter count grows with n, over a model family with
    polynomially growing operator norms (the regime the scaling laws
    describe); its loss carries a fixed externally supplied Lipschitz
    constant, so the per-n bound is not rescaled by the loss. The
    network-size study uses the learned-regularizer variant on a fixed
    small model; the sample-count study reuses it.
    """
    Ns = _get(sweep_section, "Ns", "sweep", int, required=False, default=10000)
    _checked("sweep.Ns", _check_ns, Ns)
    eps = _get(sweep_section, "eps_conf", "sweep", float, required=False, default=0.05)
    _checked("sweep.eps_conf", _check_eps_conf, eps)

    def spec(axis, key, default):
        values = _get(sweep_section, key, "sweep", list[float], required=False, default=default)
        return _checked(f"sweep.{key}", SweepSpec, axis=axis, values=values, Ns=Ns, eps_conf=eps)

    n_spec = spec("n", "n_values", (4, 8, 16, 32, 64))
    kj_spec = spec("kj", "kj_values", (4, 16, 64, 256, 1024, 4096))
    ns_spec = spec("ns", "ns_values", (100, 1000, 10000, 100000, 1000000))

    n_config = NetworkConfig(
        variant="cgnet",
        n=int(n_spec.values[0]),
        K=4,
        J=4,
        bounds=SignalBounds.default(),
        p_min=1.0,
        p_max=1.0,
        mu_bound=1.0,
    )
    n_model = MeasurementModel(np.ones((1, n_config.n)))  # rebuilt per point
    n_loss = LossSpec.ssim(tau=1.0)

    kj_model = MeasurementModel(2.0 * np.ones((2, 4)))
    kj_config = NetworkConfig(
        variant="drcgnet",
        n=4,
        K=2,
        J=2,
        bounds=SignalBounds.default(),
        p_min=0.5,
        p_max=2.0,
        Lc=2,
        filters=(1, 2, 1),
        kernels=(5, 5),
        weight_bounds=(1.1, 1.1),
        delta=0.9,
    )
    kj_loss = LossSpec.mae(kj_config.n, kj_config.bounds.c_max)

    return {
        "n": (n_config, n_model, n_spec, n_loss),
        "kj": (kj_config, kj_model, kj_spec, kj_loss),
        "ns": (kj_config, kj_model, ns_spec, kj_loss),
    }


def sweep_csv(config, model, loss, spec):
    """Fixed-column CSV (axis, term2, term3, total) for one sweep."""
    return _csv_rows(sweep_bound(config, model, loss, spec))


def _csv_rows(rows):
    """``sweep_csv`` of the rows ``sweep_bound`` returned."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "term2", "term3", "total"])
    for v, rep, _ in rows:
        writer.writerow([repr(v), repr(rep.term2), repr(rep.term3), repr(rep.total)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# empirical-gap suite
# ---------------------------------------------------------------------------

def gap_suite(suite_size, Ns, test_draws, seed):
    """Desk-scale (config, parameters, data) family for the gap study.

    Alternates both variants over a grid of sizes; every entry is
    deterministic in the master seed.
    """
    bounds = SignalBounds.default()
    entries = []
    for i in range(suite_size):
        rng = np.random.default_rng((seed, i))
        n = (6, 8)[i % 2]
        m = (3, 4)[(i // 2) % 2]
        K = 1 + (i % 2)
        J = 1 + ((i // 2) % 2)
        model = MeasurementModel(0.5 * rng.standard_normal((m, n)), sigma=0.0)
        if i % 2 == 0:
            config = NetworkConfig(
                variant="cgnet", n=n, K=K, J=J, bounds=bounds,
                p_min=0.5, p_max=2.0, mu_bound=1.0,
            )
        else:
            config = NetworkConfig(
                variant="drcgnet", n=n, K=K, J=J, bounds=bounds,
                p_min=0.5, p_max=2.0, Lc=1, filters=(1, 1), kernels=(3,),
                weight_bounds=(0.9,), delta=0.5,
            )
        theta = sample_parameters(config, int(rng.integers(2**31)))
        sigma_u = SpdMatrix(0.4 * np.eye(n))
        train = CgDataSpec(model=model, sigma_u=sigma_u, bounds=bounds, Ns=Ns,
                           seed=int(rng.integers(2**31)))
        entries.append((config, model, theta, train, int(rng.integers(2**31))))
    return entries


def run_gap_suite(suite_size, Ns, test_draws, seed):
    reports = []
    for config, model, theta, train, test_seed in gap_suite(suite_size, Ns, test_draws, seed):
        loss = LossSpec.mae(config.n, config.bounds.c_max)
        reports.append(empirical_gap(theta, config, loss, train, test_draws, test_seed))
    return reports


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_report(run_config, outdir):
    """Execute every configured suite; returns the process exit code."""
    os.makedirs(outdir, exist_ok=True)
    failures = []

    # the sweep specs and the bound come first, so a config error raises
    # before any suite runs or any payload is written
    studies = scaling_study_specs(run_config.sweep) if run_config.sweep else {}
    bound = config_bound(run_config)
    _write(outdir, "bound.json", dumps_canonical(bound.to_dict()))

    # inequality certification
    targets = run_config.verify_targets
    verify_payload = []
    for target in targets:
        rep = verify_lipschitz(target, run_config.verify_trials, seed=run_config.verify_seed)
        verify_payload.append(rep.to_dict())
        if not rep.all_hold:
            failures.append(f"verify:{target}")
    _write(outdir, "verify.json", dumps_canonical(verify_payload))

    # scaling studies: one sweep per axis feeds both its CSV and its fit
    if studies:
        fits = {}
        for axis, (cfg, mdl, spec, loss) in studies.items():
            rows = sweep_bound(cfg, mdl, loss, spec)
            _write(outdir, f"sweep_{axis}.csv", _csv_rows(rows))
            fit = asdict(_fit_rows(cfg, mdl, spec, rows))
            fits[axis] = {k: v for k, v in fit.items() if k != "axis"}
        _write(outdir, "scaling.json", dumps_canonical(fits))

    # empirical-gap suite
    gaps = run_gap_suite(
        run_config.gap_suite_size, run_config.gap_Ns,
        run_config.gap_test_draws, run_config.gap_seed,
    )
    gap_payload = [g.to_dict() for g in gaps]
    _write(outdir, "gaps.json", dumps_canonical(gap_payload))
    for i, g in enumerate(gaps):
        if not g.holds:
            failures.append(f"gap:{i}")

    summary = {
        "failures": failures,
        "sections": {
            "verify": {"targets": len(targets), "failed": sum(1 for f in failures if f.startswith("verify"))},
            "gaps": {"configs": len(gaps), "failed": sum(1 for f in failures if f.startswith("gap"))},
        },
        "exit_code": 0 if not failures else 2,
    }
    _write(outdir, "summary.json", dumps_canonical(summary))
    return 0 if not failures else 2
