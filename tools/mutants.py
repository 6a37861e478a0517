"""Mutation-kill ledger: plant each known mutation and run the tests that must catch it.

Each entry of ``MUTANTS`` names a file under ``src/cgbound``, an exact text
that occurs once in it, the text that replaces it, and the test ids that
must fail with the edit in place. For each mutant the script copies ``src``
to a temporary directory, applies the edit there, and runs only those
tests against the copy. A mutant is ``killed`` when every named test id
(or, for a parametrized or class id, at least one test under it) fails;
``survived`` when none fails; ``partial`` otherwise. An old text that no
longer occurs exactly once is an error, not a skip. Each mutant's run time
is printed and not written, so the ledger changes only when an outcome does.

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
    # core math of the constants and the bound
    Mutant(
        "tikhonov_c1_halved", "lipschitz.py",
        "c1 = p_max * y_norm2 * a2 * (1.0 + 2.0 * z_inf**2 * p_max_tilde * a2**2)",
        "c1 = 0.5 * p_max * y_norm2 * a2 * (1.0 + 2.0 * z_inf**2 * p_max_tilde * a2**2)",
        ["tests/test_bounds.py::TestGebBound::test_frozen_instance",
         "tests/test_lipschitz.py::TestTikhonovConstants::test_numeric_instance"],
    ),
    Mutant(
        "datafit_lu_halved", "lipschitz.py",
        "Lu = y_norm2 * a2 * (1.0 + z_inf**2 * p_max * a2 * (a2 + ainf))",
        "Lu = 0.5 * y_norm2 * a2 * (1.0 + z_inf**2 * p_max * a2 * (a2 + ainf))",
        ["tests/test_bounds.py::TestGebBound::test_frozen_instance",
         "tests/test_lipschitz.py::TestDatafitConstants::test_numeric_instance"],
    ),
    Mutant(
        "rhat2_geometric_sum_dropped", "lipschitz.py",
        "log_rhat2 = log_r2 + _logsumexp(log_r1_pows)",
        "log_rhat2 = log_r2",
        ["tests/test_lipschitz.py::TestLayerComposition",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "chat1_layer_sum_dropped", "lipschitz.py",
        "log_chat1 = log_c2 + log_rhat2 + _logsumexp(log_q_pows)",
        "log_chat1 = log_c2 + log_rhat2",
        ["tests/test_lipschitz.py::TestNetworkConstants::test_two_layer_hand_expansion",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "kappa_zinf_c2_dropped", "lipschitz.py",
        "log_kappa = _logaddexp(log_pref + log_chat1, _safe_log(config.bounds.z_inf * c2))",
        "log_kappa = log_pref + log_chat1",
        ["tests/test_bounds.py::TestGebBound::test_frozen_instance",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "term3_four_halved", "bounds.py",
        "term3 = 4.0 * loss.c * math.sqrt(",
        "term3 = 2.0 * loss.c * math.sqrt(",
        ["tests/test_bounds.py::TestGebBound::test_frozen_instance",
         "tests/test_bounds.py::TestReferenceAssembly::test_geb_bound_and_sample_complexity"],
    ),
    Mutant(
        "cov_factor_four_as_two", "bounds.py",
        "math.log(ratios[0])",
        "math.log(0.5 * ratios[0])",
        ["tests/test_bounds.py::TestGebBound::test_frozen_instance",
         "tests/test_bounds.py::TestReferenceAssembly::test_geb_bound_and_sample_complexity"],
    ),
    Mutant(
        "h_max_halved", "lipschitz.py",
        "H_MAX = math.exp(-1.0)",
        "H_MAX = 0.5 * math.exp(-1.0)",
        ["tests/test_lipschitz.py::TestRegularizerExtrema::test_log_over_z_peak"],
    ),
    # one copy per formula, huge inputs and the block split
    Mutant(
        "covering_term_without_one", "bounds.py",
        "np.sqrt(alpha * (1.0 + np.logaddexp(0.0, log_ratio)))",
        "np.sqrt(alpha * np.logaddexp(0.0, log_ratio))",
        ["tests/test_acceptance.py::test_04_entropy_integral_dominance",
         "tests/test_bounds.py::TestDudley::test_quadrature_below_closed_form",
         "tests/test_bounds.py::TestGebBound::test_frozen_instance"],
    ),
    Mutant(
        "row_norm_fallback_dropped", "backend.py",
        "    if big.any():\n",
        "    if False:\n",
        ["tests/test_bounds.py::TestYmax::test_dataset_mode_takes_the_norm_of_a_huge_row",
         "tests/test_model.py::TestBallProject::test_squared_norm_overflow",
         "tests/test_lipschitz.py::TestOverflowingConstants::"
         "test_exact_constants_take_the_true_norm_of_a_huge_y"],
    ),
    Mutant(
        "block_split_by_dimension", "bounds.py",
        """    term2_weights = float(np.add.reduce(block_sums[:-1]))  # matrix blocks, any dimension
    term2_scalars = float(block_sums[-1])""",
        """    term2_weights = float(np.add.reduce(block_sums[alphas > 1.5]))
    term2_scalars = float(np.add.reduce(block_sums[alphas < 1.5]))""",
        ["tests/test_bounds.py::TestBlockSplit"],
    ),
    Mutant(
        "bound_finite_check_dropped", "bounds.py",
        "    if not math.isfinite(total):\n",
        "    if False:\n",
        ["tests/test_bounds.py::TestNonFiniteBound::test_overflowing_total_raises_a_named_error"],
    ),
    Mutant(
        "huge_gradient_rows_not_recomputed", "backend.py",
        "    if huge.any():\n",
        "    if False:\n",
        ["tests/test_networks.py::TestForward::test_measurements_above_1e154_run"],
    ),
    # parameter blocks stacked per block index
    Mutant(
        "sample_blocks_reshape_jk", "networks.py",
        "np.reshape(b, (config.K, config.J) + np.shape(b)[1:])",
        "np.reshape(b, (config.J, config.K) + np.shape(b)[1:])",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_each_violation",
         "tests/test_networks.py::TestSampling::test_parameter_distance_matches_single_block_norms"],
    ),
    Mutant(
        "block_specs_drcgnet_shape_transposed", "networks.py",
        "((n * f[ell], n * f[ell - 1]), ",
        "((n * f[ell - 1], n * f[ell]), ",
        ["tests/test_networks.py::TestNetworkConfig::test_block_specs"],
    ),
    Mutant(
        "block_specs_cgnet_dimension_n_squared", "networks.py",
        "(((n, n), n * (n + 1) // 2, self.p_max),)",
        "(((n, n), n * n, self.p_max),)",
        ["tests/test_networks.py::TestNetworkConfig::test_block_specs"],
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
        "~(_block_norms(theta.blocks) <= radii * (1 + BALL_TOL))",
        "_block_norms(theta.blocks) > radii * (1 + BALL_TOL)",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_each_violation"],
    ),
    Mutant(
        "validate_covariance_structure_dropped", "networks.py",
        '    if np.max(np.abs(off)) > BALL_TOL * theta.P.p_max:\n'
        '        raise ValueError(f"covariance is not {config.cov_structure}")\n',
        "",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_an_unstructured_covariance",
         "tests/test_serialize_cli.py::TestParameterSerialization::test_rejects_an_unstructured_covariance"],
    ),
    Mutant(
        "validate_covariance_structure_without_slack", "networks.py",
        "if np.max(np.abs(off)) > BALL_TOL * theta.P.p_max:",
        "if np.max(np.abs(off)) > 0.0:",
        ["tests/test_networks.py::TestSampling::test_validation_rejects_an_unstructured_covariance"],
    ),
    Mutant(
        "load_run_config_opens_any_non_dict", "serialize.py",
        "if isinstance(source, (str, os.PathLike)):",
        "if not isinstance(source, dict):",
        ["tests/test_serialize_cli.py::TestRunConfig::test_non_object_source_and_file_raise_the_same_error"],
    ),
    Mutant(
        "from_json_shape_check_dropped", "serialize.py",
        "                if np.shape(x) != shape:\n",
        "                if False:\n",
        ["tests/test_serialize_cli.py::TestParameterSerialization::"
         "test_malformed_blocks_name_their_path[wrong_weight_dims]"],
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
        "finite = all(map(math.isfinite, (c1, c2, r1, r2, *r3, pref)))",
        "finite = True",
        ["tests/test_lipschitz.py::TestOverflowingConstants::test_raise_a_named_value_error",
         "tests/test_bounds.py::TestOverflowingInputs"],
    ),
    Mutant(
        "ns_rows_use_spec_ns", "bounds.py",
        "_report(cfg, lss, Ns, spec.eps_conf",
        "_report(cfg, lss, spec.Ns, spec.eps_conf",
        ["tests/test_bounds.py::TestScaling::test_ns_rows_equal_geb_bound"],
    ),
    Mutant(
        "sweep_entropy_reused_on_every_axis", "bounds.py",
        'if entropy is None or spec.axis != "ns":',
        "if entropy is None:",
        ["tests/test_bounds.py::TestScaling::test_n_rows_equal_geb_bound",
         "tests/test_bounds.py::TestScaling::test_kj_rows_equal_geb_bound"],
    ),
    Mutant(
        "sample_complexity_upward_step_dropped", "bounds.py",
        "while block(ns) > gap:\n        ns += 1",
        "while False:\n        ns += 1",
        ["tests/test_bounds.py::TestSampleComplexity::test_rounding_up_from_the_closed_form"],
    ),
    Mutant(
        "array_data_asarray_read", "serialize.py",
        'data = np.array(_typed(obj["data"], list[float], f"{path}.data"), dtype=np.float64)',
        'data = np.asarray(obj["data"], dtype=np.float64)',
        ["tests/test_serialize_cli.py::TestArraySchema::test_malformed_array_names_its_field"],
    ),
    # huge measurement norms and dataset sizes
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
        "return math.prod(w, start=1.0), weight_coeffs",
        "return math.prod(w[::-1], start=1.0), weight_coeffs",
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
        '_get(mat, "seed", "model.matrix", int, default=0)',
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
    # one verify suite, the named sample-count overflow, silent public steps
    Mutant(
        "network_lipschitz_gets_scale_chain_pair", "verify.py",
        'return {"scale_chain": chain, "network_lipschitz": network}',
        'return {"scale_chain": chain, "network_lipschitz": chain}',
        ["tests/test_verify.py::test_recorded_values"],
    ),
    Mutant(
        "verify_groups_keyed_by_target", "verify.py",
        "groups.setdefault(TARGETS[target], []).append(target)",
        "groups[lambda rng, dims, fn=TARGETS[target]: fn(rng, dims)] = [target]",
        ["tests/test_verify.py::test_shared_draws_run_once_per_trial"],
    ),
    Mutant(
        "verify_repeated_target_tallied_twice", "verify.py",
        "    for target in dict.fromkeys(targets):\n        if target not in TARGETS:",
        "    for target in targets:\n        if target not in TARGETS:",
        ["tests/test_verify.py::test_verify_targets_repeats_orders_and_rejects"],
    ),
    Mutant(
        "sample_complexity_finite_check_dropped", "bounds.py",
        "    if not math.isfinite(term2 + term3):\n",
        "    if False:\n",
        ["tests/test_bounds.py::TestNonFiniteBound::test_sample_complexity_names_the_overflow"],
    ),
    # report stages over a config checked at load; shared verify checks run on demand
    Mutant(
        "report_gap_failures_left_out_of_summary", "report.py",
        "failures = [f for stage_failures in failed.values() for f in stage_failures]",
        'failures = failed["verify"]',
        ["tests/test_serialize_cli.py::test_each_stage_failures_reach_the_summary"],
    ),
    Mutant(
        "run_config_dataset_check_dropped", "serialize.py",
        '        if self.ymax_mode == "dataset" and self.dataset_spec is None:\n',
        "        if False:\n",
        ["tests/test_serialize_cli.py::TestCli::test_dataset_ymax_needs_dataset"],
    ),
    Mutant(
        "verify_shared_checks_eager", "verify.py",
        "            got = trial_fn(_trial_rng(seed, i), dims)\n",
        "            got = trial_fn(_trial_rng(seed, i), dims)\n"
        "            got = {k: (lambda v=f(): v) for k, f in got.items()} if isinstance(got, dict) else got\n",
        ["tests/test_verify.py::test_lone_shared_target_runs_only_its_own_check"],
    ),
    # payloads from the dataclass fields; a row norm of inf; silent model overflow
    Mutant(
        "row_norm_inf_row_rescaled", "backend.py",
        "        big = big & np.isfinite(v).all(axis=-1)  # a row holding inf keeps norm inf\n",
        "",
        ["tests/test_backend.py::test_row_norm_of_a_row_holding_inf_is_inf"],
    ),
    Mutant(
        "model_parse_overflow_warns", "serialize.py",
        'with np.errstate(over="ignore"):  # MeasurementModel screens the overflow',
        'with np.errstate():  # MeasurementModel screens the overflow',
        ["tests/test_serialize_cli.py::TestCli::test_overflowing_matrix_is_one_error_line"],
    ),
    Mutant(
        "verify_payload_drops_all_hold", "verify.py",
        '"all_hold": self.all_hold, ',
        "",
        ["tests/test_serialize_cli.py::TestCli::test_payload_matches_the_recorded_output"],
    ),
    # one draw helper and forward's layer loop in verify; the screened noise
    Mutant(
        "verify_draw_covariances_before_scales", "verify.py",
        """    z = rng.uniform(-dims.bounds.z_inf, dims.bounds.z_inf, size=(rows, model.n))
    return model, y, z, [_sample_P(rng, model.n, dims) for _ in range(covariances)]""",
        """    Ps = [_sample_P(rng, model.n, dims) for _ in range(covariances)]
    z = rng.uniform(-dims.bounds.z_inf, dims.bounds.z_inf, size=(rows, model.n))
    return model, y, z, Ps""",
        ["tests/test_verify.py::test_recorded_values",
         "tests/test_verify.py::test_verify_targets_gives_the_recorded_values_with_custom_dims"],
    ),
    Mutant(
        "layer_last_iterate_dropped", "networks.py",
        """        z = _scale_update(z, u, y, model, [b[k, j] for b in blocks], config)
        zk.append(z)""",
        """        zk.append(z)
        z = _scale_update(z, u, y, model, [b[k, j] for b in blocks], config)""",
        ["tests/test_verify.py::test_recorded_values",
         "tests/test_serialize_cli.py::TestCli::test_payload_matches_the_recorded_output"],
    ),
    Mutant(
        "datagen_sigma_screen_dropped", "datagen.py",
        "        if not np.isfinite(Y).all():\n",
        "        if False:\n",
        ["tests/test_datagen.py::TestGenerate::test_overflowing_noise_names_sigma",
         "tests/test_serialize_cli.py::TestCli::test_overflowing_noise_is_one_error_line"],
    ),
    # scaling studies built from their sweep specs, strict JSON payloads
    Mutant(
        "scaling_stage_sweeps_default_specs", "report.py",
        "    for axis, spec in run_config.sweeps.items():\n",
        "    for axis, spec in (run_config.sweeps and sweep_specs({})).items():\n",
        ["tests/test_serialize_cli.py::TestReport::test_payloads_match_the_recorded_report"],
    ),
    Mutant(
        "kj_study_model_scale_changed", "bounds.py",
        "model = MeasurementModel(2.0 * np.ones((2, 4)))",
        "model = MeasurementModel(3.0 * np.ones((2, 4)))",
        ["tests/test_serialize_cli.py::TestCli::test_payload_matches_the_recorded_output",
         "tests/test_serialize_cli.py::TestReport::test_payloads_match_the_recorded_report"],
    ),
    Mutant(
        "bound_payload_keeps_non_finite_constants", "bounds.py",
        "{name: v if math.isfinite(v) else None for name, v in zip(names, constants)}",
        "dict(zip(names, constants))",
        ["tests/test_serialize_cli.py::TestCli::test_overflowing_constants_are_written_as_null",
         "tests/test_bounds.py::TestNonFiniteBound::test_log_of_a_zero_constant_is_written_as_null"],
    ),
    Mutant(
        "dumps_canonical_allows_nan", "serialize.py",
        "json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)",
        "json.dumps(obj, sort_keys=True, indent=2)",
        ["tests/test_bounds.py::TestNonFiniteBound::test_log_of_a_zero_constant_is_written_as_null"],
    ),
    Mutant(
        "verify_payload_keeps_infinite_tightness", "verify.py",
        "None if isinstance(v, float) and not math.isfinite(v) else v for k, v in out.items()}",
        "v for k, v in out.items()}",
        ["tests/test_serialize_cli.py::TestCli::test_infinite_tightness_is_written_as_null"],
    ),
    # step constants stated in the chain, covering-ratio and sweep-axis screens
    Mutant(
        "cgnet_r1_mu_term_dropped", "lipschitz.py",
        "r1 = 1.0 + config.p_max * (Lz + config.mu_bound * TAU_H)",
        "r1 = 1.0 + config.p_max * Lz",
        ["tests/test_lipschitz.py::TestStepConstants::test_cgnet_frozen_value",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "drcgnet_fc_input_norm_without_sqrt_n", "lipschitz.py",
        "fc_lipschitz(config.weight_bounds, math.sqrt(config.n) * z_inf)",
        "fc_lipschitz(config.weight_bounds, z_inf)",
        ["tests/test_lipschitz.py::TestStepConstants::test_block_coefficients",
         "tests/test_bounds.py::TestReferenceAssembly::test_network_constants"],
    ),
    Mutant(
        "cgnet_h_max_coefficient_halved", "lipschitz.py",
        "(b.xi, config.p_max * H_MAX)",
        "(b.xi, 0.5 * config.p_max * H_MAX)",
        ["tests/test_lipschitz.py::TestStepConstants::test_block_coefficients"],
    ),
    Mutant(
        "covering_ratio_screen_dropped", "bounds.py",
        "        if not sys.float_info.min <= ratio < math.inf:\n",
        "        if False:\n",
        ["tests/test_bounds.py::TestUnderflowingCoveringRatio",
         "tests/test_serialize_cli.py::TestCli::test_underflowing_covering_ratio_is_one_error_line"],
    ),
    Mutant(
        "sweep_n_axis_from_one_allowed", "bounds.py",
        'if self.axis == "n" and vals[0] < 2:',
        "if False:",
        ["tests/test_bounds.py::TestScaling::test_n_axis_starts_at_two",
         "tests/test_serialize_cli.py::TestRunConfig::"
         "test_report_rejects_before_any_suite[n_values_from_one]",
         "tests/test_serialize_cli.py::TestCli::test_sweep_n_axis_from_one_is_a_config_error"],
    ),
    Mutant(
        "measurement_row_sums_warn_on_overflow", "model.py",
        'with np.errstate(over="ignore"):  # an overflowing row sum is named below',
        'with np.errstate(over="warn"):  # an overflowing row sum is named below',
        ["tests/test_model.py::TestMeasurementModel::"
         "test_overflowing_row_sum_is_named_without_a_warning"],
    ),
    # one scale step; the clipped fallback gradient; the named spectral-norm overflow
    Mutant(
        "scale_update_positivity_check_dropped", "networks.py",
        "        if np.any((mu != 0.0)[..., None] & (z <= 0.0)):\n",
        "        if False:\n",
        ["tests/test_networks.py::TestGradZ::test_domain_error",
         "tests/test_networks.py::TestForward::test_cgnet_rejects_a_zero_scale"],
    ),
    Mutant(
        "scale_update_z_inf_clamp_dropped", "networks.py",
        "    return mrelu(out, 0.0, b.z_inf)\n",
        "    return out\n",
        ["tests/test_networks.py::TestDrcgnetStep::test_composition_oracle",
         "tests/test_networks.py::TestForward::test_trace_invariants"],
    ),
    Mutant(
        "fallback_gradient_left_unscaled", "backend.py",
        "        gh = np.ldexp(gh, -np.frexp(np.abs(gh).max(axis=-1, keepdims=True))[1])\n",
        "",
        ["tests/test_backend.py::test_fallback_gradient_whose_square_underflows_is_clipped_to_xi",
         "tests/test_networks.py::TestForward::"
         "test_underflowing_fallback_gradient_stays_on_the_xi_sphere"],
    ),
    Mutant(
        "measurement_norm2_check_dropped", "model.py",
        "        if not math.isfinite(norm2):\n",
        "        if False:\n",
        ["tests/test_model.py::TestMeasurementModel::test_overflowing_spectral_norm_is_named",
         "tests/test_serialize_cli.py::TestCli::test_overflowing_spectral_norm_is_one_error_line"],
    ),
    # the solve's dispatch: a tuple of P stacked per form; a singular system named
    Mutant(
        "tuple_of_P_stacks_P_inv_for_woodbury", "model.py",
        "np.array([getattr(p, read) for p in P])",
        "np.array([p.P_inv for p in P])",
        ["tests/test_model.py::TestTikhonovSolve::test_tuple_of_P_equals_row_solves",
         "tests/test_networks.py::TestParameterStack::test_rows_match_single_passes"],
    ),
    Mutant(
        "tuple_of_P_row_count_check_dropped", "model.py",
        "        if z.shape[:-1] != (len(P),):\n",
        "        if False:\n",
        ["tests/test_model.py::TestTikhonovSolve::test_tuple_of_P_validation"],
    ),
    Mutant(
        "singular_solve_left_as_linalg_error", "model.py",
        "    except np.linalg.LinAlgError as exc:\n",
        "    except NumericalFailure as exc:\n",
        ["tests/test_model.py::TestTikhonovSolve::test_singular_system_is_a_numerical_failure",
         "tests/test_model.py::TestTikhonovSolve::test_singular_system_with_tuple_of_P",
         "tests/test_model.py::TestTikhonovSolve::"
         "test_solve_returns_finite_rows_or_a_numerical_failure",
         "tests/test_networks.py::TestForward::test_singular_solve_is_a_numerical_failure",
         "tests/test_serialize_cli.py::TestCli::test_singular_solve_is_one_error_line"],
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
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    failed = sorted({line.split()[1] for line in proc.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    caught = [t for t in m.tests if any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    status = "killed" if len(caught) == len(m.tests) else "partial" if caught else "survived"
    return {"name": m.name, "file": m.file, "status": status, "tests": m.tests, "failed": failed}


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
        t0 = time.perf_counter()
        row = run_mutant(m)
        rows.append(row)
        print(f"{row['status']:9s} {time.perf_counter() - t0:7.2f} s  {m.name}", flush=True)
    if not argv:
        ledger = {"python": platform.python_version(), "mutants": rows}
        with open(LEDGER, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ledger, indent=2) + "\n")
    return 0 if all(r["status"] == "killed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
