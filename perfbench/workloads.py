"""Inputs, passes and output checks of the three benchmark workloads.

Each workload builds its inputs from the workload seed, runs one pass over
them through cgbound's public functions, and checks the pass's outputs.
A pass is deterministic in its inputs, so every pass of a run must give
the same outputs; the first pass is also compared with the fingerprint
recorded in ``fingerprints.json`` where the workload has one.

certify      ``verify.verify_lipschitz`` over all twelve targets: tiny SVDs
             and ``eigvalsh``, instance-exact constants and long forward
             chains (K*J up to 12) over many (m, n) shapes.
gap          ``datagen.empirical_gap`` over the 20 frozen hypotheses of
             ``report.gap_suite``, each on three test sets: thousands of
             short forward passes (K, J <= 2) over 4 shapes, plus one
             ``geb_bound`` per call.
bound_sweep  ``bounds.geb_bound`` and ``bounds.sample_complexity`` over a
             (variant, n, m, K, J) design grid, plus the three canonical
             scaling studies: log-domain scalar code, no forward pass.
"""

import json
import math
import numbers
import os
import traceback

import numpy as np

import cgbound
from cgbound import bounds, datagen, report, verify
from cgbound.model import MeasurementModel, SignalBounds
from cgbound.networks import NetworkConfig

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.abspath(cgbound.__file__).startswith(SRC + os.sep):
    raise ImportError(f"cgbound was imported from {cgbound.__file__}, not from {SRC}")

FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
# certify and gap draw from this many recorded input sets (seed mod 32),
# so that every seed has a fingerprint to check against
FINGERPRINT_KEYS = 32
FINGERPRINT_RTOL = 1e-9

# An operation is one public call, timed on its own. wall_s takes each
# operation's fastest time in the run, and short operations find a fast
# moment of the host more often than long ones, so a certify target's trials
# are split over several verify calls and a gap hypothesis is scored on
# several test sets.
CERTIFY_TRIALS = 200  # per target
CERTIFY_CHUNK = 10  # trials per verify_lipschitz call
GAP_SUITE_SIZE = 20
GAP_NS = 48
GAP_TEST_DRAWS = 100  # per test set
GAP_TEST_SETS = 3  # per hypothesis
# full factorial design over (variant, n, m, K, J), with Ns cycling through
# 1e2 .. 1e6 along it; the seed draws the sensing matrix, the parameter-ball
# radii and the target gap of each point
SWEEP_GRID = [
    design + (10 ** (2 + i % 5),)
    for i, design in enumerate(
        (variant, n, m, K, J)
        for variant in ("cgnet", "drcgnet")
        for n in (2, 4, 8, 16, 32)
        for m in (1, n)
        for K in (1, 2, 4)
        for J in (1, 2, 4)
    )
]
EPS_CONF = 0.05


def _close(a, b):
    return math.isclose(a, b, rel_tol=FINGERPRINT_RTOL, abs_tol=0.0)


def _attempt(fn, *args):
    """Run one operation; an exception is its result, reported once."""
    try:
        return fn(*args)
    except Exception as exc:  # the check counts it as a failed operation
        traceback.print_exc()
        return exc


class Check:
    """Attempted/failed operation counts and the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 10:
            self.problems.append(problem)


class Certify:
    name = "certify"

    def build(self, seed):
        key = seed % FINGERPRINT_KEYS
        chunks = CERTIFY_TRIALS // CERTIFY_CHUNK
        return {
            "key": key,
            "calls": [(target, key * chunks + c)
                      for target in sorted(verify.TARGETS) for c in range(chunks)],
        }

    def run(self, inputs, span):
        out = []
        for target, verify_seed in inputs["calls"]:
            with span("verify." + target):
                out.append(_attempt(
                    verify.verify_lipschitz, target, CERTIFY_CHUNK, None, verify_seed
                ))
        return out

    def fingerprint(self, out):
        return [[rep.passes, rep.median_tightness, rep.max_tightness] for rep in out]

    def check(self, inputs, out, fingerprints, check):
        """A trial fails when its inequality does not hold; a verify call whose
        tightness is non-finite or differs from the fingerprint fails whole."""
        expected = fingerprints["certify"][str(inputs["key"])]
        for (target, verify_seed), rep, want in zip(inputs["calls"], out, expected):
            where = f"{target} (verify seed {verify_seed})"
            if isinstance(rep, Exception):
                check.count(CERTIFY_CHUNK, CERTIFY_CHUNK, f"{where}: {rep!r}")
                continue
            if not (math.isfinite(rep.median_tightness) and math.isfinite(rep.max_tightness)):
                check.count(CERTIFY_CHUNK, CERTIFY_CHUNK, f"{where}: non-finite tightness")
                continue
            got = self.fingerprint([rep])[0]
            if got[0] != want[0] or not all(_close(a, b) for a, b in zip(got[1:], want[1:])):
                check.count(CERTIFY_CHUNK, CERTIFY_CHUNK,
                            f"{where}: {got} differs from fingerprint {want}")
                continue
            failed = rep.trials - rep.passes
            check.count(CERTIFY_CHUNK, failed, f"{where}: {failed} trials violate" if failed else None)

    def bound_log10(self, inputs, out):
        # the report exposes each bound only relative to its lhs:
        # log10(rhs / lhs) per verify call, the certificate's slack
        return [-math.log10(rep.median_tightness) for rep in out
                if not isinstance(rep, Exception) and rep.median_tightness > 0]


class Gap:
    name = "gap"

    def build(self, seed):
        key = seed % FINGERPRINT_KEYS
        entries = []
        for config, model, theta, train, test_seed in report.gap_suite(
            GAP_SUITE_SIZE, GAP_NS, GAP_TEST_DRAWS, key
        ):
            loss = bounds.LossSpec.mae(config.n, config.bounds.c_max)
            entries += [(theta, config, loss, train, GAP_TEST_DRAWS, test_seed + t)
                        for t in range(GAP_TEST_SETS)]
        return {"key": key, "entries": entries}

    def run(self, inputs, span):
        out = []
        for entry in inputs["entries"]:
            with span("gap.entry"):
                out.append(_attempt(datagen.empirical_gap, *entry))
        return out

    def fingerprint(self, out):
        return [[g.train_loss, g.test_loss, g.bound_total] for g in out]

    def check(self, inputs, out, fingerprints, check):
        """A hypothesis fails when on any of its test sets the gap exceeds the
        bound, a value is non-finite, or the losses and bound differ from the
        fingerprint."""
        expected = fingerprints["gap"][str(inputs["key"])]
        for h in range(0, len(out), GAP_TEST_SETS):
            problem = None
            for i in range(h, h + GAP_TEST_SETS):
                g, want = out[i], expected[i]
                if isinstance(g, Exception):
                    problem = repr(g)
                elif not (math.isfinite(g.empirical_gap) and math.isfinite(g.bound_total)):
                    problem = "non-finite gap or bound"
                elif not g.empirical_gap <= g.bound_total:
                    problem = f"gap {g.empirical_gap} > bound {g.bound_total}"
                elif not all(_close(a, b) for a, b in zip(self.fingerprint([g])[0], want)):
                    problem = f"{self.fingerprint([g])[0]} differs from fingerprint {want}"
                if problem:
                    break
            hypothesis = h // GAP_TEST_SETS
            check.count(1, int(problem is not None),
                        problem and f"hypothesis {hypothesis}, test set {i - h}: {problem}")

    def bound_log10(self, inputs, out):
        return [math.log10(g.bound_total) for g in out
                if not isinstance(g, Exception) and g.bound_total > 0]


def _grid_point(rng, variant, n, m, K, J, Ns):
    sb = SignalBounds.default()
    if variant == "cgnet":
        config = NetworkConfig(
            variant="cgnet", n=n, K=K, J=J, bounds=sb, p_min=0.5, p_max=2.0,
            mu_bound=float(rng.uniform(0.5, 1.5)),
        )
    else:
        Lc = int(rng.integers(1, 3))
        config = NetworkConfig(
            variant="drcgnet", n=n, K=K, J=J, bounds=sb, p_min=0.5, p_max=2.0, Lc=Lc,
            filters=(1,) + tuple(int(rng.integers(1, 3)) for _ in range(Lc - 1)) + (1,),
            kernels=tuple(int(rng.integers(1, 6)) for _ in range(Lc)),
            weight_bounds=tuple(float(w) for w in rng.uniform(0.3, 1.2, size=Lc)),
            delta=float(rng.uniform(0.1, 0.9)),
        )
    model = MeasurementModel(rng.standard_normal((m, n)) / math.sqrt(m))
    loss = bounds.LossSpec.mae(n, sb.c_max)
    y_max = bounds.ymax_estimate(model, sb.c_max, "noiseless")
    # target gap as a share of the bound at Ns: the answer lands near Ns
    gap_share = float(rng.uniform(0.5, 2.0))
    return config, model, loss, y_max, Ns, gap_share


class BoundSweep:
    name = "bound_sweep"

    def build(self, seed):
        rng = np.random.default_rng(seed)
        points = [_grid_point(rng, *design) for design in SWEEP_GRID]
        studies = report.scaling_study_specs(report.default_config()["sweep"])
        return {"points": points, "studies": list(studies.values())}

    @staticmethod
    def _point(config, model, loss, y_max, Ns, gap_share):
        rep = bounds.geb_bound(config, model, loss, Ns, EPS_CONF, y_max)
        gap = rep.total * gap_share
        return rep.total, gap, bounds.sample_complexity(config, model, loss, gap, EPS_CONF, y_max)

    @staticmethod
    def _study(config, model, spec, loss):
        rows = bounds.sweep_bound(config, model, loss, spec)
        fit = bounds.scaling_fit(config, model, loss, spec)
        return [rep.total for _, rep, _ in rows], fit.exponent

    def run(self, inputs, span):
        out = []
        for point in inputs["points"]:
            with span("sweep.point"):
                out.append(_attempt(self._point, *point))
        for study in inputs["studies"]:
            with span("sweep.study"):
                out.append(_attempt(self._study, *study))
        return out

    def check(self, inputs, out, fingerprints, check):
        """A grid point fails when its total is non-finite or the returned
        Ns is not the smallest with block(Ns) <= gap < block(Ns - 1)."""
        points = inputs["points"]
        for i, (point, res) in enumerate(zip(points, out)):
            if isinstance(res, Exception):
                check.count(1, 1, f"point {i}: {res!r}")
                continue
            total, gap, ns = res
            config, model, loss, y_max, _, _ = point

            def block(k):
                rep = bounds.geb_bound(config, model, loss, k, EPS_CONF, y_max)
                return rep.term2 + rep.term3

            if not math.isfinite(total):
                check.count(1, 1, f"point {i}: non-finite total")
            elif not (isinstance(ns, numbers.Integral) and ns >= 1 and block(ns) <= gap
                      and (ns == 1 or gap < block(ns - 1))):
                check.count(1, 1, f"point {i}: sample_complexity {ns!r} is not the "
                                  f"smallest Ns with block <= {gap!r}")
            else:
                check.count(1, 0)
        for res in out[len(points):]:
            if isinstance(res, Exception):
                check.count(1, 1, f"scaling study: {res!r}")
                continue
            totals, exponent = res
            bad = sum(not math.isfinite(t) for t in totals) + (not math.isfinite(exponent))
            check.count(len(totals) + 1, bad, "scaling study: non-finite value" if bad else None)

    def bound_log10(self, inputs, out):
        n_points = len(inputs["points"])
        totals = [res[0] for res in out[:n_points] if not isinstance(res, Exception)]
        for res in out[n_points:]:
            if not isinstance(res, Exception):
                totals += res[0]
        return [math.log10(t) for t in totals if t > 0]


WORKLOADS = {w.name: w for w in (Certify(), Gap(), BoundSweep())}


def load_fingerprints():
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)
