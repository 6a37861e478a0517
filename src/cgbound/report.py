"""End-to-end study orchestration.

``run_report`` runs the named ``STAGES`` in order on a run configuration
that ``load_run_config`` has checked in full, so a config error raises
before the output directory exists: ``bound`` (bound.json), ``verify``
(verify.json), ``scaling`` (sweep_<axis>.csv and scaling.json, when the
config has a nonempty sweep section) and ``gaps`` (gaps.json). Each stage
returns its payload files and its failures; ``run_report`` writes the
files, prints each stage's wall time to stderr and ends with summary.json.
Payloads are canonical JSON plus fixed-column CSV (axis, term2, term3,
total) with no timestamps or timings, so identical (seed, config) pairs
reproduce byte-identical files.

Exit: 0 when all inequality suites pass, 2 when any trial or gap check
fails (config errors map to exit 1 in the CLI).
"""

import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .bounds import LossSpec, geb_bound, scaling_study, sweep_bound, sweep_fit, ymax_estimate
from .datagen import CgDataSpec, empirical_gap, generate_cg_dataset
from .model import MeasurementModel, SignalBounds, SpdMatrix
from .networks import NetworkConfig, sample_parameters
from .serialize import dumps_canonical, sweep_specs
from .verify import verify_targets

__all__ = [
    "STAGES",
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
    dataset = None
    if run_config.ymax_mode == "dataset":
        dataset = generate_cg_dataset(run_config.dataset_spec).Y
    y_max = ymax_estimate(run_config.model, run_config.bounds.c_max, run_config.ymax_mode,
                          dataset=dataset)
    return geb_bound(
        run_config.network, run_config.model, run_config.loss,
        run_config.geb_Ns, run_config.eps_conf, y_max,
    )


# ---------------------------------------------------------------------------
# scaling studies
# ---------------------------------------------------------------------------

def scaling_study_specs(sweep_section):
    """``{axis: (config, model, spec, loss)}``: :func:`bounds.scaling_study` of
    each spec that the sweep section describes."""
    return {axis: scaling_study(spec) for axis, spec in sweep_specs(sweep_section).items()}


def sweep_csv(rows):
    """Fixed-column CSV (axis, term2, term3, total) of the rows ``sweep_bound`` returned."""
    lines = [f"{v!r},{rep.term2!r},{rep.term3!r},{rep.total!r}\n" for v, rep, _ in rows]
    return "".join(["axis,term2,term3,total\n", *lines])


# ---------------------------------------------------------------------------
# empirical-gap suite
# ---------------------------------------------------------------------------

def gap_suite(suite_size, Ns, test_draws, seed):
    """Desk-scale (config, parameters, data) family for the gap study.

    Alternates both variants over a grid of sizes; every entry is
    deterministic in the master seed. ``test_draws`` is not used here; the
    parameter stays so that positional callers keep working.
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

def _bound_stage(run_config):
    return {"bound.json": dumps_canonical(config_bound(run_config).to_dict())}, []


def _verify_stage(run_config):
    reports = verify_targets(run_config.verify_targets, run_config.verify_trials,
                             seed=run_config.verify_seed)
    return ({"verify.json": dumps_canonical([rep.to_dict() for rep in reports])},
            [f"verify:{rep.target}" for rep in reports if not rep.all_hold])


def _scaling_stage(run_config):
    """One sweep per axis feeds both its CSV and its fit."""
    files, fits = {}, {}
    for axis, spec in run_config.sweeps.items():
        cfg, mdl, spec, loss = scaling_study(spec)
        rows = sweep_bound(cfg, mdl, loss, spec)
        files[f"sweep_{axis}.csv"] = sweep_csv(rows)
        fits[axis] = asdict(sweep_fit(cfg, mdl, spec, rows))
    if fits:
        files["scaling.json"] = dumps_canonical(fits)
    return files, []


def _gaps_stage(run_config):
    gaps = run_gap_suite(run_config.gap_suite_size, run_config.gap_Ns, run_config.gap_test_draws,
                         run_config.gap_seed)
    return ({"gaps.json": dumps_canonical([g.to_dict() for g in gaps])},
            [f"gap:{i}" for i, g in enumerate(gaps) if not g.holds])


# name -> stage(run_config) returning ({filename: text}, [failure, ...]), in run order
STAGES = {"bound": _bound_stage, "verify": _verify_stage, "scaling": _scaling_stage,
          "gaps": _gaps_stage}


def run_report(run_config, outdir):
    """Run every stage into ``outdir``, each one's wall time to stderr; returns the exit code."""
    os.makedirs(outdir, exist_ok=True)
    failed = {}
    for name, stage in STAGES.items():
        t0 = time.perf_counter()
        files, failed[name] = stage(run_config)
        for filename, text in files.items():
            with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"stage {name:<8} {time.perf_counter() - t0:9.3f} s", file=sys.stderr)
    failures = [f for stage_failures in failed.values() for f in stage_failures]
    code = 2 if failures else 0
    sections = {"verify": {"targets": len(run_config.verify_targets), "failed": len(failed["verify"])},
                "gaps": {"configs": run_config.gap_suite_size, "failed": len(failed["gaps"])}}
    summary = {"failures": failures, "sections": sections, "exit_code": code}
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(summary))
    return code
