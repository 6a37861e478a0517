"""Collect perfbench results into one committed ``BENCH_<label>.json`` file.

Usage, from the repository root:

    python3 tools/collect_bench.py BENCH_<label>.json SIDE=PATH [SIDE=PATH ...]

Each PATH is a result record that ``perfbench/run.py`` wrote (a
``*-trace0.json`` file), or a directory whose ``*-trace0.json`` records are
all taken, in name order. The ``provenance`` and ``result`` objects of each
record are copied verbatim into a list under its SIDE, for example
``parent`` and ``change``. Only the standard library is used.

A BENCH file compares code versions, so the tool exits 1, naming the side,
when one side's records differ in ``provenance.src_sha256`` (the digest of
the measured ``src/cgbound``) or in ``provenance.workload``, or when two
sides measured the same ``src_sha256``. Records without these keys are
taken as they are.
"""

import argparse
import glob
import json
import os
import sys


def records(path):
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*-trace0.json")))
    return [path]


def collect(sides):
    runs = {}
    for side, path in sides:
        for name in records(path):
            with open(name, encoding="utf-8") as fh:
                record = json.load(fh)
            runs.setdefault(side, []).append(
                {"provenance": record["provenance"], "result": record["result"]})
    return {"runs": runs}


def mixed(bench):
    """The first problem that makes ``bench`` compare the wrong runs, or None."""
    seen = {}
    for side, runs in bench["runs"].items():
        for key in ("src_sha256", "workload"):
            values = {run["provenance"][key] for run in runs if key in run["provenance"]}
            if len(values) > 1:
                return f"side {side!r} mixes records with different {key}: {sorted(values)}"
        for digest in {run["provenance"].get("src_sha256") for run in runs} - {None}:
            if digest in seen:
                return f"sides {seen[digest]!r} and {side!r} share src_sha256 {digest}"
            seen[digest] = side
    return None


def side_path(text):
    side, sep, path = text.partition("=")
    if not (side and sep and path):
        raise argparse.ArgumentTypeError(f"expected SIDE=PATH, got {text!r}")
    return side, path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the BENCH_<label>.json file to write")
    parser.add_argument("sides", nargs="+", type=side_path, metavar="SIDE=PATH")
    args = parser.parse_args(argv)
    bench = collect(args.sides)
    if not bench["runs"]:
        print("no *-trace0.json records found", file=sys.stderr)
        return 1
    problem = mixed(bench)
    if problem:
        print(problem, file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for side, runs in bench["runs"].items():
        print(f"{side}: {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
