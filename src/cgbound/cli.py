"""Command-line interface.

Subcommands:

    solve     estimate the signal from one measurement (the network output)
    forward   run the unrolled network and emit the full iterate trace
    bound     assemble the generalization bound for the configured network
    verify    run randomized inequality certification targets
    sweep     evaluate the bound along one axis and emit CSV
    report    execute every configured suite into an output directory

Exit codes: 0 success, 1 configuration/validation error or numerical
failure, 2 suite failure. Also runs as ``python -m cgbound``.
"""

import argparse
import json
import sys

from . import report as report_mod
from .bounds import scaling_study, sweep_bound
from .datagen import generate_cg_dataset
from .model import NumericalFailure
from .networks import forward, sample_parameters
from .serialize import (
    ConfigError,
    array_from_json,
    array_to_json,
    dumps_canonical,
    load_run_config,
    parameters_from_json,
    sweep_specs,
)
from .verify import TARGETS, verify_targets

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SUITE = 2


def _load_config(args):
    if args.config == "default":
        return load_run_config(report_mod.default_config())
    return load_run_config(args.config)


def _measurement(args, cfg):
    if args.y is not None:
        with open(args.y, "r", encoding="utf-8") as fh:
            return array_from_json(json.load(fh), "y")
    if cfg.dataset_spec is None:
        raise ConfigError("no --y given and the config has no dataset section to draw from")
    return generate_cg_dataset(cfg.dataset_spec).Y[0]


def _params(args, cfg):
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            return parameters_from_json(json.load(fh), cfg.network)
    seed = cfg.seed if args.param_seed is None else args.param_seed
    return sample_parameters(cfg.network, seed)


def _trace(args):
    cfg = _load_config(args)
    return forward(_measurement(args, cfg), _params(args, cfg), cfg.network, cfg.model)


def cmd_solve(args):
    print(dumps_canonical({"estimate": array_to_json(_trace(args).output)}), end="")
    return EXIT_OK


def cmd_forward(args):
    trace = _trace(args)
    payload = {
        "z0": array_to_json(trace.z0),
        "z": [[array_to_json(zj) for zj in zk] for zk in trace.z],
        "u": [array_to_json(u) for u in trace.u],
        "output": array_to_json(trace.output),
    }
    print(dumps_canonical(payload), end="")
    return EXIT_OK


def cmd_bound(args):
    cfg = _load_config(args)
    rep = report_mod.config_bound(cfg)
    print(dumps_canonical(rep.to_dict()), end="")
    rows = [
        ("empirical term", rep.term1),
        ("complexity term", rep.term2),
        ("  covariance block", rep.term2_cov),
        ("  weight blocks", rep.term2_weights),
        ("  scalar blocks", rep.term2_scalars),
        ("confidence term", rep.term3),
        ("total", rep.total),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:> .6e}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    targets = args.target
    if not targets or "all" in targets:
        targets = sorted(TARGETS)
    reports = verify_targets(targets, args.trials, seed=args.seed)
    for rep in reports:
        status = "pass" if rep.all_hold else "FAIL"
        print(
            f"{rep.target:<20} {status}  {rep.passes}/{rep.trials}"
            f"  median {rep.median_tightness:.3e}  max {rep.max_tightness:.3e}",
            file=sys.stderr,
        )
    print(dumps_canonical([r.to_dict() for r in reports]), end="")
    return EXIT_OK if all(r.all_hold for r in reports) else EXIT_SUITE


def cmd_sweep(args):
    cfg = _load_config(args)
    config, model, spec, loss = scaling_study((cfg.sweeps or sweep_specs({}))[args.axis])
    text = report_mod.sweep_csv(sweep_bound(config, model, loss, spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_report(args):
    cfg = _load_config(args)
    code = report_mod.run_report(cfg, args.out)
    print(f"report written to {args.out} (exit {code})", file=sys.stderr)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cgbound",
        description="Unrolled compound-Gaussian networks, sensitivity constants, "
        "and generalization bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument(
            "--config", default="default",
            help="path to a run-config JSON file, or 'default' for the bundled one",
        )

    def add_inputs(p):
        add_config(p)
        p.add_argument("--y", help="path to a measurement vector JSON file")
        p.add_argument("--param-seed", type=int, default=None, help="parameter sampling seed")
        p.add_argument("--params", help="path to a parameter-set JSON file (overrides sampling)")

    p = sub.add_parser("solve", help="signal estimate (network output) for one measurement")
    add_inputs(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("forward", help="unrolled forward pass with full trace")
    add_inputs(p)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("bound", help="assemble the generalization bound")
    add_config(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("verify", help="randomized inequality certification")
    p.add_argument(
        "--target", action="append",
        choices=sorted(TARGETS) + ["all"],
        help="target to certify (repeatable; default all)",
    )
    p.add_argument("--trials", type=int, default=10000, help="trials per target (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="bound sweep along one axis as CSV")
    add_config(p)
    p.add_argument("--axis", choices=("n", "kj", "ns"), required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="run every configured suite")
    p.add_argument("config", help="run-config JSON path, or 'default'")
    p.add_argument("--out", default="cgbound-report", help="output directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
