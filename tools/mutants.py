"""Mutation-kill ledger: plant each known mutation and run the tests that must catch it.

Each entry of ``MUTANTS`` names a file under ``src/cgbound``, an exact text
that occurs once in it, the text that replaces it, and the test ids that
must fail with the edit in place. For each mutant the script copies ``src``
to a temporary directory, applies the edit there, and runs only those
tests against the copy. A mutant is ``killed`` when every named test id
(or, for a parametrized or class id, at least one test under it) fails;
``survived`` when none fails; ``partial`` otherwise. An old text that no
longer occurs exactly once is an error, not a skip.

    python tools/mutants.py            # run every mutant, write MUTANTS.json
    python tools/mutants.py NAME ...   # run the named mutants, print only

Exits 0 when every mutant run was killed, 1 otherwise. Standard library
only; the tests need numpy, pytest and hypothesis as the suite does.
"""

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(ROOT, "MUTANTS.json")

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = [
    # parameter blocks stacked per block index
    Mutant(
        "sample_blocks_reshape_jk", "networks.py",
        "np.reshape(b, (config.K, config.J) + np.shape(b)[1:])",
        "np.reshape(b, (config.J, config.K) + np.shape(b)[1:])",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_each_violation",
         "tests/test_networks.py::TestSampling::test_parameter_distance_matches_single_block_norms"],
    ),
    Mutant(
        "theta_sum_numpy_reduction", "verify.py",
        """    for c, x in zip(coeffs.ravel().tolist(), dist.ravel().tolist(), strict=True):
        total += c * x
    return total""",
        """    return total + float(np.add.reduce(coeffs.ravel() * dist.ravel()))""",
        ["tests/test_verify.py::test_theta_sum_adds_in_kjd_order"],
    ),
    Mutant(
        "block_norms_abs_on_matrices", "networks.py",
        "spectral_norm(b) if np.ndim(b) > 2 else np.abs(b)",
        "np.abs(b).max(axis=(-2, -1)) if np.ndim(b) > 2 else np.abs(b)",
        ["tests/test_networks.py::TestSampling::test_parameter_distance_matches_single_block_norms",
         "tests/test_networks.py::TestSampling::test_validation_rejects_each_violation"],
    ),
    Mutant(
        "distance_b1_minus_b1", "networks.py",
        "_block_norms([b1 - b2 for b1, b2",
        "_block_norms([b1 - b1 for b1, b2",
        ["tests/test_networks.py::TestSampling::test_parameter_distance_matches_single_block_norms"],
    ),
    Mutant(
        "validate_lets_nan_norms_pass", "networks.py",
        "~(_block_norms(theta.blocks) <= radii * (1 + tol))",
        "_block_norms(theta.blocks) > radii * (1 + tol)",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_each_violation"],
    ),
    Mutant(
        "from_json_shape_check_dropped", "serialize.py",
        "                if np.shape(x) != shape:\n",
        "                if False:\n",
        ["tests/test_serialize_cli.py::TestParameterSerialization::"
         "test_malformed_blocks_name_their_path[wrong_weight_shape]"],
    ),
    # float-path bound assembly
    Mutant(
        "logaddexp_branches_swapped", "lipschitz.py",
        """    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))""",
        """    if d <= 0:
        return x + math.log1p(math.exp(-d))
    if d > 0:
        return y + math.log1p(math.exp(d))""",
        ["tests/test_lipschitz.py::TestFloatLogaddexp::test_random_pairs_match_numpy",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "logaddexp_equal_case_dropped", "lipschitz.py",
        "    if x == y:\n        return x + _LN2\n",
        "",
        ["tests/test_lipschitz.py::TestFloatLogaddexp::test_special_values_match_numpy",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "logsumexp_python_sum", "lipschitz.py",
        "np.log(np.add.reduce(np.exp(values - hi)))",
        "np.log(sum(np.exp(values - hi)))",
        ["tests/test_bounds.py::TestReferenceAssembly::test_network_constants",
         "tests/test_bounds.py::TestReferenceAssembly::test_geb_bound_and_sample_complexity"],
    ),
    Mutant(
        "chain_finite_check_disabled", "lipschitz.py",
        "finite = all(map(math.isfinite, (c1, c2, rc.r1, rc.r2, *rc.r3, pref)))",
        "finite = True",
        ["tests/test_lipschitz.py::TestOverflowingConstants::test_raise_a_named_value_error",
         "tests/test_bounds.py::TestOverflowingInputs"],
    ),
    Mutant(
        "ns_rows_use_spec_ns", "bounds.py",
        "_report(config, loss, int(v), spec.eps_conf",
        "_report(config, loss, spec.Ns, spec.eps_conf",
        ["tests/test_bounds.py::TestScaling::test_ns_rows_equal_geb_bound"],
    ),
    Mutant(
        "array_data_asarray_read", "serialize.py",
        'data = np.array(_typed(obj["data"], list[float], f"{path}.data"), dtype=np.float64)',
        'data = np.asarray(obj["data"], dtype=np.float64)',
        ["tests/test_serialize_cli.py::TestArraySchema::test_malformed_array_names_its_field"],
    ),
    # huge measurement norms and dataset sizes
    Mutant(
        "exact_norm_not_rescaled", "lipschitz.py",
        "    if math.isinf(y_norm) and math.isfinite(y_inf):\n",
        "    if False:\n",
        ["tests/test_lipschitz.py::TestOverflowingConstants::"
         "test_exact_constants_take_the_true_norm_of_a_huge_y"],
    ),
    Mutant(
        "dataspec_ns_range_only", "datagen.py",
        "        _check_ns(self.Ns)\n",
        "        assert self.Ns >= 1\n",
        ["tests/test_datagen.py::TestGenerate::test_rejects_non_integer_sizes",
         "tests/test_datagen.py::TestGenerate::test_gap_rejects_fractional_test_draws"],
    ),
    # log-domain constants
    Mutant(
        "logsumexp_single_without_zero", "lipschitz.py",
        "return float(values[0] + 0.0)",
        "return float(values[0])",
        ["tests/test_lipschitz.py::TestLogDomainStorage"],
    ),
    Mutant(
        "linear_exp_outside_errstate", "lipschitz.py",
        """        with np.errstate(over="ignore"):
            value = np.exp(getattr(self, log_name))""",
        """        value = np.exp(getattr(self, log_name))""",
        ["tests/test_lipschitz.py::TestLogDomainStorage"],
    ),
    Mutant(
        "linear_property_not_cached", "lipschitz.py",
        "    return cached_property(read)",
        "    return property(read)",
        ["tests/test_lipschitz.py::TestLogDomainStorage"],
    ),
    Mutant(
        "fc_lipschitz_reversed_product", "lipschitz.py",
        "input_coeff = tau ** (T - 1) * math.prod(w, start=1.0)",
        "input_coeff = tau ** (T - 1) * math.prod(w[::-1], start=1.0)",
        ["tests/test_lipschitz.py::TestLogDomainStorage"],
    ),
    Mutant(
        "linear_returns_numpy_scalar", "lipschitz.py",
        "return value if isinstance(value, np.ndarray) else float(value)",
        "return value",
        ["tests/test_lipschitz.py::TestLogDomainStorage"],
    ),
    Mutant(
        "matrix_seed_bare_int", "serialize.py",
        '_get(mat, "seed", "model.matrix", int, required=False, default=0)',
        'int(mat.get("seed", 0))',
        ["tests/test_serialize_cli.py::TestRunConfig::test_matrix_generator_fields_are_checked"],
    ),
    # strict typed reads and single range checks
    Mutant(
        "typed_int_takes_any_float", "serialize.py",
        "ok = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())",
        "ok = isinstance(value, numbers.Real)",
        ["tests/test_serialize_cli.py::TestRunConfig::test_strict_reads_name_their_field"],
    ),
    Mutant(
        "typed_float_without_finite_bound", "serialize.py",
        "ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max",
        "ok = isinstance(value, numbers.Real)",
        ["tests/test_serialize_cli.py::TestRunConfig::test_strict_reads_name_their_field"],
    ),
    Mutant(
        "verify_cli_all_only_alone", "cli.py",
        'if not targets or "all" in targets:',
        'if not targets or targets == ["all"]:',
        ["tests/test_serialize_cli.py::TestCli::test_verify_all_mixed_with_a_target"],
    ),
    Mutant(
        "sweep_values_not_integral", "bounds.py",
        "        if not all(v.is_integer() for v in vals):\n",
        "        if False:\n",
        ["tests/test_bounds.py::TestScaling::test_degenerate_sweep_rejected"],
    ),
    Mutant(
        "network_config_p_max_unbounded", "networks.py",
        "if not (0 < self.p_min <= self.p_max < math.inf):",
        "if not (0 < self.p_min <= self.p_max):",
        ["tests/test_networks.py::TestNetworkConfig::test_rejects_non_finite_radii[p_max_inf]"],
    ),
    Mutant(
        "signal_bounds_unbounded", "model.py",
        "if not (-math.inf < self.a <= self.b < math.inf):",
        "if not (-math.inf < self.a <= self.b):",
        ["tests/test_model.py::TestSignalBounds::test_rejects_non_finite_radii"],
    ),
    Mutant(
        "tridiagonal_lam2_length_loosened", "serialize.py",
        "            if lam2.size != n - 1:\n",
        "            if lam2.size > n:\n",
        ["tests/test_model.py::TestBuildCovariance::test_wrong_param_lengths"],
    ),
    Mutant(
        "diagonal_clamp_as_abs", "serialize.py",
        "P = np.diag(np.maximum(lam, eps))",
        "P = np.diag(np.abs(lam))",
        ["tests/test_model.py::TestBuildCovariance"],
    ),
]


def table_problems(src=SRC):
    """Every way the table fails to describe a runnable mutant, as messages."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"duplicate name {n!r}" for n in sorted(set(names)) if names.count(n) > 1]
    for m in MUTANTS:
        path = os.path.join(src, "cgbound", m.file)
        if not os.path.isfile(path):
            problems.append(f"{m.name}: no file {m.file}")
            continue
        with open(path, encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.name}: new text equals old text")
        if not m.tests:
            problems.append(f"{m.name}: no tests named")
        for t in m.tests:
            if not os.path.isfile(os.path.join(ROOT, t.split("::")[0])):
                problems.append(f"{m.name}: no test file for {t}")
    return problems


def run_mutant(m, timeout=900):
    """Apply ``m`` to a copy of ``src``, run its tests there; returns its ledger row."""
    with tempfile.TemporaryDirectory(prefix="cgbound-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "cgbound", m.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # main checked that m.old occurs exactly once
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        seconds = time.perf_counter() - t0
    failed = sorted({line.split()[1] for line in proc.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    caught = [t for t in m.tests if any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    status = "killed" if len(caught) == len(m.tests) else "partial" if caught else "survived"
    return {"name": m.name, "file": m.file, "status": status, "seconds": round(seconds, 2),
            "tests": m.tests, "failed": failed}


def main(argv):
    problems = table_problems()
    if problems:
        raise SystemExit("mutant table:\n  " + "\n  ".join(problems))
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in argv] if argv else MUTANTS
    rows = []
    for m in chosen:
        row = run_mutant(m)
        rows.append(row)
        print(f"{row['status']:9s} {row['seconds']:7.2f} s  {m.name}", flush=True)
    if not argv:
        ledger = {"python": platform.python_version(), "mutants": rows}
        with open(LEDGER, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ledger, indent=2) + "\n")
    return 0 if all(r["status"] == "killed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
