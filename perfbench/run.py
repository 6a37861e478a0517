"""Benchmark of cgbound: one workload per run, in one process, numpy backend.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify|gap|bound_sweep \\
        --seed N --seconds S --trace 0|1

The workload's inputs are built from ``--seed``. Passes over them are
repeated for ``--seconds`` seconds (at least three), and every pass's
outputs are checked. With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (fresh interpreters importing cgbound and building
the inputs, probed at intervals through the run), ``wall_s`` (time of one
pass), ``peak_rss_mb`` and ``bound_log10_median``. With ``--trace 1``
untraced and traced passes alternate, and the run reports the per-layer
metrics derived from the spans of the fastest traced pass, plus
``trace.overhead_s``.

Times are the fastest of their repeats: ``setup_s`` is the fastest probe,
and ``wall_s`` sums, over the operations of a pass (one public call: a
verify call of 10 trials, a gap test set, a grid point or a scaling study),
each operation's fastest time in the run. On the shared two-core host this
benchmark was written on, pass times drift between 1x and 2x of the
fastest for stretches of 10 to 35 seconds, in CPU time as much as in wall
time. A median follows whatever speed held for most of the run, and so
does the fastest whole pass when the slow stretches cover the run; an
operation takes 0.5 to 40 ms, and most find a fast moment somewhere in
the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the
result with its provenance (and, for traced runs, the spans of the
fastest traced pass) is written under ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# One BLAS thread: every matrix here is tiny, and a fixed thread count keeps
# the floating-point results, and so the fingerprints, reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOAD_NAMES = ("certify", "gap", "bound_sweep")
SETUP_PROBES = 24  # fresh-interpreter set-ups, spread over the measured seconds
MIN_PASSES = 3
MAX_MEASURE_S = 120.0  # stop early if passes become very slow, to end within 180 s
KJ_BINS = range(1, 13)  # K*J of the forward passes; certify draws up to 12


class OpClock:
    """Times each operation of an untraced pass."""

    def __init__(self):
        self.times = []

    @contextlib.contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times.append(time.perf_counter() - t0)


def fastest_pass(op_times):
    """Sum over operations of each one's fastest time across the passes."""
    return sum(min(times) for times in zip(*op_times))


def _setup_probe(args):
    """Import plus input building in a fresh interpreter, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cgbound")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _os_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def provenance(args):
    import numpy

    import cgbound

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": cgbound.active_backend(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "os_threads": _os_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(summary, untraced, traced, targets, trials, gap_suite_s):
    """Per-layer metrics from the summary of the fastest traced pass."""
    import tracing

    groups = summary["groups"]
    out = {}
    for group in list(tracing.GROUPS) + ["backend.kernel"]:
        if group == "report.gap_suite":
            continue
        out[f"{group}.calls"] = _metric(groups[group]["calls"], "count")
        out[f"{group}.self_s"] = _metric(groups[group]["self_s"], "s")
    for group in ("backend.kernel", "networks.forward", "bounds.geb_bound"):
        calls = groups[group]["calls"]
        out[f"{group}.us_per_call"] = _metric(
            groups[group]["incl_s"] / calls * 1e6 if calls else 0.0, "us")

    kernels = summary["kernel_calls"]
    woodbury = kernels.get("tikhonov_woodbury", 0)
    solves = woodbury + kernels.get("tikhonov_primal", 0)
    out["model.tikhonov_solve.woodbury_share"] = _metric(woodbury / solves if solves else 0.0, "1")
    out["model.tikhonov_solve.shapes"] = _metric(len(summary["notes"]["model.tikhonov_solve"]), "count")
    kj = summary["notes"]["networks.forward"]
    for v in KJ_BINS:
        out[f"networks.forward.kj_hist.{v}"] = _metric(kj.get(v, 0), "count")

    sc_calls = groups["bounds.sample_complexity"]["calls"]
    out["bounds.geb_per_sample_complexity"] = _metric(
        summary["geb_in_sample_complexity"] / sc_calls if sc_calls else 0.0, "count")
    out["verify.pass_share"] = _metric(groups["verify"]["self_s"] / summary["traced_s"], "1")
    for target in targets:
        incl = summary["bench_incl_s"].get("verify." + target, 0.0)
        out[f"verify.{target}.s_per_1k"] = _metric(incl / trials * 1000.0 if trials else 0.0, "s")
    gaps = groups["datagen.empirical_gap"]["calls"]
    out["datagen.forwards_per_gap"] = _metric(
        groups["networks.forward"]["calls"] / gaps if gaps else 0.0, "count")
    out["report.gap_suite.s"] = _metric(gap_suite_s, "s")
    out["trace.overhead_s"] = _metric(fastest_pass(traced) - fastest_pass(untraced), "s")
    return out


def _write_outputs(args, result, record, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if spans is not None:
        import numpy as np

        names, name_id, parent, t0, t1 = spans
        np.savez_compressed(stem + "-spans.npz", names=names, name_id=name_id,
                            parent=parent, t0=t0, t1=t1)


def measure(args, wl, inputs, fingerprints, check, tracer):
    """Passes for --seconds: untraced ones, alternating with traced ones under
    --trace 1, and without tracing SETUP_PROBES set-up probes spread over them."""
    import tracing

    untraced, traced, setup = [], [], []  # per pass: list of operation times
    first = None
    consistent = True
    start = time.perf_counter()
    next_probe = start
    while True:
        if tracer is None and time.perf_counter() >= next_probe:
            setup.append(_setup_probe(args))
            next_probe += args.seconds / SETUP_PROBES
        traced_pass = tracer is not None and len(untraced) > len(traced)
        if traced_pass:
            tracer.reset()
            undo = tracing.install(tracer)
        clock = None if traced_pass else OpClock()
        try:
            out = wl.run(inputs, tracer.span if traced_pass else clock.span)
        finally:
            if traced_pass:
                tracing.uninstall(undo)
        if traced_pass:
            spans = tracer.spans()
            _, _, parent, t0, t1 = spans
            ops = (t1 - t0)[parent < 0].tolist()
            if not traced or sum(ops) < min(map(sum, traced)):
                fastest = (tracing.summarize(tracer), spans)
            traced.append(ops)
        else:
            untraced.append(clock.times)
        wl.check(inputs, out, fingerprints, check)
        if first is None:
            first = out
        elif out != first:
            consistent = False
            check.problems.append("a pass gave other outputs than the first pass")
        elapsed = time.perf_counter() - start
        done = len(untraced) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if elapsed >= args.seconds and done:
            break
        if elapsed >= MAX_MEASURE_S and untraced and (tracer is None or traced):
            break
    return {
        "first": first,
        "consistent": consistent,
        "untraced": untraced,
        "traced": traced,
        "setup": setup,
        "fastest_traced": fastest if traced else None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cgbound benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed)
        print(repr(time.perf_counter() - _START))
        return 0

    try:
        import tracing
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        fingerprints = workloads.load_fingerprints()
        inputs = wl.build(args.seed)
        check = workloads.Check()
        tracer = tracing.Tracer() if args.trace else None
        gap_suite_s = 0.0
        if tracer is not None and args.workload == "gap":
            # report.gap_suite runs in set-up; time it from traced input builds
            times = []
            for _ in range(3):
                tracer.reset()
                undo = tracing.install(tracer)
                try:
                    wl.build(args.seed)
                finally:
                    tracing.uninstall(undo)
                times.append(tracing.summarize(tracer)["groups"]["report.gap_suite"]["incl_s"])
            gap_suite_s = min(times)
        run = measure(args, wl, inputs, fingerprints, check, tracer)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ImportError, OSError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"cannot set up the benchmark: {exc}\n{detail}", file=sys.stderr)
        return 2

    if tracer is None:
        logs = wl.bound_log10(inputs, run["first"])
        metrics = {
            "setup_s": _metric(min(run["setup"]), "s"),
            "wall_s": _metric(fastest_pass(run["untraced"]), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "bound_log10_median": _metric(statistics.median(logs) if logs else 0.0, "log10"),
        }
    else:
        trials = workloads.CERTIFY_TRIALS if args.workload == "certify" else 0
        metrics = layer_metrics(run["fastest_traced"][0], run["untraced"], run["traced"],
                                sorted(workloads.verify.TARGETS), trials, gap_suite_s)

    correct = run["consistent"] and check.failed == 0 and check.attempted > 0
    result = {"correct": correct, "attempted": check.attempted, "failed": check.failed,
              "metrics": metrics}
    record = {
        "provenance": provenance(args),
        "failed_frac": check.failed / check.attempted if check.attempted else 1.0,
        "problems": check.problems,
        "setup_s": run["setup"],
        "untraced_pass_s": [sum(ops) for ops in run["untraced"]],
        "traced_pass_s": [sum(ops) for ops in run["traced"]],
    }
    _write_outputs(args, result, record, run["fastest_traced"] and run["fastest_traced"][1])
    for problem in check.problems:
        print("check failed:", problem, file=sys.stderr)
    print("provenance", json.dumps(record["provenance"], sort_keys=True))
    print(f"passes {len(run['untraced'])} untraced, {len(run['traced'])} traced; "
          f"failed_frac {record['failed_frac']:.6g} ({check.failed}/{check.attempted})")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
