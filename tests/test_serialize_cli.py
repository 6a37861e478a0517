"""JSON schema round-trips, config validation, and the CLI surface."""

import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgbound
from cgbound.cli import main
from cgbound.report import STAGES, config_bound, default_config, run_report
from cgbound.serialize import (
    ConfigError,
    array_from_json,
    array_to_json,
    dumps_canonical,
    load_run_config,
)
from cgbound.verify import TARGETS

from test_bounds import underflowing_ratio_config

SEED_SER = 0x5EED_0007
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _declared_script(name):
    """The ``module:function`` target that pyproject.toml declares for a console script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_from_source(args, cwd):
    """Run a fresh interpreter with the imported cgbound package's directory first on PYTHONPATH."""
    src_dir = str(Path(cgbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)


def _small_config(**overrides):
    cfg = default_config()
    cfg["verify"] = {"targets": ["gram_diff", "subnet_norm"], "trials": 150, "seed": 3}
    cfg["gap"] = {"suite_size": 2, "Ns": 12, "test_draws": 60, "seed": 23}
    cfg["sweep"] = {
        "ns_values": [100, 1000, 10000, 100000],
        "kj_values": [4, 16, 64, 256],
        "n_values": [4, 8, 16, 32, 64],
    }
    cfg.update(overrides)
    return cfg


def _pinned_config():
    """The small config whose report payloads ``report_recorded.json`` holds."""
    cfg = _small_config()
    cfg["verify"] = {"targets": ["datafit_grad", "scale_chain", "gram_diff", "network_lipschitz",
                                 "gram_diff"], "trials": 20, "seed": 3}
    return cfg


def _cgnet_config():
    """The default config with its network swapped for a cgnet."""
    cfg = default_config()
    cfg["network"] = {"variant": "cgnet", "K": 2, "J": 2, "p_min": 0.5, "p_max": 2.0, "mu": 1.0}
    return cfg


def _parsed_csv(text):
    """CSV text as its header and float rows."""
    header, *rows = csv.reader(io.StringIO(text))
    return [header] + [[float(v) for v in row] for row in rows]


def _parsed_payload(path):
    """A payload file as data: JSON parsed, CSV as its header and float rows."""
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else _parsed_csv(text)


def _strict_loads(text):
    """``json.loads`` that raises on NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in a payload")
    return json.loads(text, parse_constant=refuse)


def _assert_matches(got, want, where):
    """Exact keys, strings, ints and bools; floats within 1e-12 relative."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert got == want, where


class TestArraySchema:
    def test_round_trip(self):
        rng = np.random.default_rng(SEED_SER)
        for shape in ((3,), (2, 4)):
            a = rng.standard_normal(shape)
            np.testing.assert_array_equal(array_from_json(array_to_json(a)), a)

    def test_shape_mismatch_reports_path(self):
        with pytest.raises(ConfigError, match="model.matrix"):
            array_from_json({"shape": [2, 2], "data": [1.0]}, "model.matrix")

    @pytest.mark.parametrize("obj, field", [
        ({"shape": None, "data": [1, 2, 3, 4]}, "y.shape"),
        ({"shape": ["a"], "data": [1]}, "y.shape"),
        ({"shape": [2], "data": ["a", "b"]}, "y.data[0]"),
        ({"shape": [2], "data": [None, 1.0]}, "y.data[0]"),
        ({"shape": [2], "data": ["1.5", True]}, "y.data[0]"),
        ({"shape": [2], "data": [1.5, True]}, "y.data[1]"),
        ({"shape": [2], "data": "1.5"}, "y.data"),
    ], ids=["null_shape", "text_shape", "text_data", "null_data", "numeric_text_data",
            "bool_data", "text_for_list"])
    def test_malformed_array_names_its_field(self, tmp_path, capsys, obj, field):
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}:"):
            array_from_json(obj, "y")
        y_path = tmp_path / "bad.json"
        y_path.write_text(json.dumps(obj))
        assert main(["solve", "--config", "default", "--y", str(y_path)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err

    def test_canonical_dump_is_stable(self):
        payload = {"b": 1.5, "a": [1, 2]}
        assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))


class TestRunConfig:
    def test_default_parses(self):
        cfg = load_run_config(default_config())
        assert cfg.model.m == 4 and cfg.model.n == 8
        assert cfg.network.variant == "drcgnet"
        assert cfg.loss.name == "mae"
        assert cfg.dataset_spec is not None
        assert cfg.verify_targets == sorted(TARGETS)

    def test_load_builds_no_scaling_study(self, monkeypatch):
        # the config's own model is the one model a load builds; the studies
        # are built from their sweep specs when they run
        from cgbound.model import MeasurementModel

        built = []
        original = MeasurementModel.__post_init__

        def counted(self):
            built.append(self.A.shape)
            original(self)

        monkeypatch.setattr(MeasurementModel, "__post_init__", counted)
        cfg = load_run_config(default_config())
        assert built == [(4, 8)]
        assert [spec.axis for spec in cfg.sweeps.values()] == ["n", "kj", "ns"]

    def test_default_config_is_fresh(self):
        # callers mutate the returned dict; the next call must not see it
        first = default_config()
        first["verify"]["trials"] = 1
        first["network"]["filters"].append(7)
        del first["dataset"]
        second = default_config()
        assert second["verify"]["trials"] == 2000
        assert second["network"]["filters"] == [1, 1]
        assert "dataset" in second

    def test_explicit_matrix(self):
        cfg = _small_config()
        cfg["model"] = {
            "m": 2, "n": 3, "sigma": 0.0,
            "matrix": {"shape": [2, 3], "data": [1, 0, 0, 0, 1, 0]},
        }
        cfg["dataset"]["sigma_u"]["n"] = 3
        parsed = load_run_config(cfg)
        assert parsed.model.norm2 == pytest.approx(1.0)

    def test_validation_errors_carry_paths(self):
        bad = _small_config(geb={"Ns": 100, "eps_conf": 2.0})
        with pytest.raises(ConfigError, match="geb.eps_conf"):
            load_run_config(bad)

        bad = _small_config()
        del bad["model"]
        with pytest.raises(ConfigError, match="model"):
            load_run_config(bad)

        bad = _small_config()
        bad["network"]["filters"] = [1, 2]
        with pytest.raises(ConfigError, match="network"):
            load_run_config(bad)

        bad = _small_config(loss={"name": "ssim"})
        with pytest.raises(ConfigError, match="loss.tau"):
            load_run_config(bad)

        bad = _small_config()
        bad["dataset"]["Ns"] = 0
        with pytest.raises(ConfigError, match="dataset.Ns"):
            load_run_config(bad)

    @pytest.mark.parametrize("key", ["seed", "scale"])
    @pytest.mark.parametrize("value", [True, "x"], ids=["bool", "text"])
    def test_matrix_generator_fields_are_checked(self, key, value):
        cfg = _small_config()
        assert cfg["model"]["matrix"]["generator"] == "gaussian"
        cfg["model"]["matrix"][key] = value
        with pytest.raises(ConfigError, match=f"^model\\.matrix\\.{key}:"):
            load_run_config(cfg)

    @pytest.mark.parametrize("where, value, field", [
        ("network.K", 2.7, "network.K"),
        ("network.K", "3", "network.K"),
        ("geb.Ns", 1.5, "geb.Ns"),
        ("verify.trials", 2.5, "verify.trials"),
        ("seed", 3.9, "seed"),
        ("network.filters", [1.9, 1], "network.filters[0]"),
        ("network.p_max", "2", "network.p_max"),
        ("network.delta", math.nan, "network.delta"),
        ("network.weight_bounds", [math.inf], "network.weight_bounds[0]"),
        ("network.p_max", math.inf, "network.p_max"),
        ("bounds", {"c_max": 1.0, "z_inf": 20.0, "xi": math.nan, "a": 1.0, "b": 20.0},
         "bounds.xi"),
        ("dataset.sigma_u.lam", math.nan, "dataset.sigma_u.lam"),
        ("dataset.sigma_u", {"structure": "tridiagonal", "lam1": [1.0] * 8, "lam2": [0.0] * 8},
         "dataset.sigma_u.lam2"),
        ("dataset.sigma_u", {"structure": "full", "L": {"shape": [4], "data": [1, 0, 0, 1]}},
         "dataset.sigma_u.L"),
        ("model.m", -2, "model.m"),
        ("model.n", 0, "model.n"),
        ("dataset.sigma_u", {"structure": "tridiagonal", "lam1": [1e200] * 8, "lam2": [0.0] * 7},
         "dataset.sigma_u.lam1/lam2"),
        ("dataset.sigma_u", {"structure": "full",
                             "L": {"shape": [2, 2], "data": [1e200, 0.0, 1.0, 1.0]}},
         "dataset.sigma_u.L"),
        ("dataset.sigma_u", {"structure": "diagonal", "lam_vec": [1e308] * 8},
         "dataset.sigma_u.lam_vec"),
        ("network.variant", "gcnet", "network.variant"),
    ], ids=["K_fraction", "K_text", "geb_Ns_fraction", "trials_fraction", "seed_fraction",
            "filters_fraction", "p_max_text", "delta_nan", "weight_bounds_inf", "p_max_inf",
            "xi_nan", "sigma_u_lam_nan", "sigma_u_lam2_length", "sigma_u_L_shape",
            "model_m_negative", "model_n_zero", "sigma_u_tridiagonal_overflow",
            "sigma_u_full_overflow", "sigma_u_diagonal_overflow", "unknown_variant"])
    def test_strict_reads_name_their_field(self, tmp_path, capsys, where, value, field):
        cfg = _small_config()
        *sections, key = where.split(".")
        target = cfg
        for name in sections:
            target = target[name]
        target[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}:"):
            load_run_config(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, message", [
        ("model.matrix", [[1.0, 0.0], [0.0, 1.0]],
         "model.matrix: expected an object with 'shape' and 'data'"),
        ("geb", [], "geb: expected an object"),
        ("model.matrix.generator", "uniform", "model.matrix.generator: unknown generator 'uniform'"),
        ("model.matrix", {"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]},
         "model.matrix: shape (2, 2) does not match (m, n) = (4, 8)"),
        ("dataset.sigma_u", {"structure": "scaled_identity", "lam": 1.0, "n": 8, "epsilon": 0.0},
         "dataset.sigma_u.epsilon: must be positive, got 0.0"),
        ("dataset.sigma_u", {"structure": "scaled_identity", "lam": 1.0, "n": 0},
         "dataset.sigma_u.n: must be >= 1, got 0"),
        ("dataset.sigma_u", {"structure": "diagonal", "lam_vec": []},
         "dataset.sigma_u.lam_vec: expected a nonempty list"),
        ("dataset.sigma_u", {"structure": "tridiagonal", "lam1": [], "lam2": []},
         "dataset.sigma_u.lam1: expected a nonempty list"),
        ("dataset.sigma_u", {"structure": "banded"},
         "dataset.sigma_u.structure: unknown structure 'banded'"),
        ("loss.name", "mse", "loss.name: unknown loss 'mse'"),
        ("", [], "top level: expected a JSON object"),
        ("geb.ymax_mode", "max", "geb.ymax_mode: unknown mode 'max'"),
        ("verify.trials", 0, "verify.trials: must be >= 1"),
    ], ids=["matrix_not_an_object", "section_not_an_object", "unknown_generator",
            "matrix_shape", "sigma_u_epsilon", "sigma_u_n", "sigma_u_lam_vec", "sigma_u_lam1",
            "sigma_u_structure", "unknown_loss", "top_level_not_an_object", "unknown_ymax_mode",
            "verify_trials_zero"])
    def test_config_checks_name_their_path(self, tmp_path, capsys, where, value, message):
        cfg = _small_config()
        *sections, key = where.split(".")
        target = cfg
        for name in sections:
            target = target.setdefault(name, {})
        if key:
            target[key] = value
        else:
            cfg = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(str(path))
        assert main(["bound", "--config", str(path)]) == 1
        assert f"configuration error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("targets", ["gram_diff", ["gram_diff", "no_such_target"], [["gram_diff"]]])
    def test_verify_targets_validated(self, tmp_path, capsys, targets):
        cfg = _small_config()
        cfg["verify"]["targets"] = targets
        with pytest.raises(ConfigError, match="verify.targets"):
            load_run_config(cfg)
        path = tmp_path / "bad_targets.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == 1
        assert "verify.targets" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("gap.Ns", 0),
        ("gap.test_draws", 0),
        ("gap.suite_size", 0),
        ("sweep.ns_values", [100, 1000]),
        ("seed", None),
        ("sweep.Ns", 0),
        ("sweep.Ns", 2.5),
        ("sweep.Ns", "many"),
        ("sweep.eps_conf", 1.5),
        ("sweep.eps_conf", "five percent"),
        ("geb.Ns", True),
        ("verify.trials", True),
        ("sweep.Ns", True),
        ("sweep.n_values", [4, 8, 16, 32, 64.5]),
        ("sweep.kj_values", [4, 16, 64, 256, 1024, 4096.7]),
        ("sweep.n_values", [1, 2, 4, 8, 16]),
    ], ids=["gap_Ns", "gap_test_draws", "gap_suite_size", "two_ns_values", "null_seed",
            "sweep_Ns", "sweep_Ns_fraction", "sweep_Ns_text", "sweep_eps_conf",
            "sweep_eps_conf_text", "geb_Ns_bool", "verify_trials_bool", "sweep_Ns_bool",
            "n_values_fraction", "kj_values_fraction", "n_values_from_one"])
    def test_report_rejects_before_any_suite(self, tmp_path, capsys, field, value):
        cfg = _small_config()
        *section, key = field.split(".")
        (cfg[section[0]] if section else cfg)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["report", str(path), "--out", str(out)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_cgnet_network(self):
        net = load_run_config(_cgnet_config()).network
        assert (net.variant, net.K, net.J, net.mu_bound) == ("cgnet", 2, 2, 1.0)
        for value, match in ((None, "network.mu: missing required field"),
                             (True, "network.mu: expected a finite number, got True"),
                             (0.0, "network: cgnet requires a positive finite mu_bound")):
            cfg = _cgnet_config()
            if value is None:
                del cfg["network"]["mu"]
            else:
                cfg["network"]["mu"] = value
            with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
                load_run_config(cfg)

    def test_json_string_and_file_sources(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_small_config()))
        assert load_run_config(str(path)).model.n == 8
        assert load_run_config(path).model.n == 8

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="^config is not valid JSON: "):
            load_run_config(str(path))

    def test_non_object_source_and_file_raise_the_same_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for source in ([1, 2], str(path)):
            with pytest.raises(ConfigError, match="^top level: expected a JSON object$"):
                load_run_config(source)

    def test_missing_path_is_not_found(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        with pytest.raises(FileNotFoundError):
            load_run_config(path)
        assert main(["bound", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"


class TestCli:
    def test_solve_without_y_needs_a_dataset(self, tmp_path, capsys):
        cfg = _small_config()
        del cfg["dataset"]
        cfg["geb"]["ymax_mode"] = "noiseless"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: no --y given and the config has no dataset section to draw from\n")

    def test_verify_pass_exit_zero(self, capsys):
        rc = main(["verify", "--target", "gram_diff", "--trials", "100", "--seed", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["all_hold"] is True

    def test_verify_all_mixed_with_a_target(self, capsys):
        rc = main(["verify", "--target", "all", "--target", "gram_diff", "--trials", "2"])
        assert rc == 0
        assert [r["target"] for r in json.loads(capsys.readouterr().out)] == sorted(TARGETS)

    def test_bound_emits_json_and_table(self, capsys):
        rc = main(["bound", "--config", "default"])
        assert rc == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["total"] > 0
        assert "complexity term" in err

    def test_solve_and_forward(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config()))
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(array_to_json(np.array([0.4, -0.2, 0.1, 0.3]))))

        rc = main(["forward", "--config", str(cfg_path), "--y", str(y_path), "--param-seed", "5"])
        assert rc == 0
        trace = json.loads(capsys.readouterr().out)
        assert len(trace["u"]) == 3  # K + 1 estimates

        rc = main(["solve", "--config", str(cfg_path), "--y", str(y_path), "--param-seed", "5"])
        assert rc == 0
        est = json.loads(capsys.readouterr().out)["estimate"]
        np.testing.assert_allclose(
            array_from_json(est), array_from_json(trace["output"]), rtol=1e-12, atol=1e-15
        )

    def test_cgnet_bound_solve_and_forward(self, tmp_path, capsys):
        cfg_path = tmp_path / "cgnet.json"
        cfg_path.write_text(json.dumps(_cgnet_config()))
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(array_to_json(np.array([0.4, -0.2, 0.1, 0.3]))))
        assert main(["bound", "--config", str(cfg_path)]) == 0
        assert _strict_loads(capsys.readouterr().out)["total"] > 0
        inputs = ["--config", str(cfg_path), "--y", str(y_path), "--param-seed", "5"]
        assert main(["forward", *inputs]) == 0
        trace = _strict_loads(capsys.readouterr().out)
        assert len(trace["u"]) == 3  # K + 1 estimates
        assert main(["solve", *inputs]) == 0
        est = _strict_loads(capsys.readouterr().out)["estimate"]
        np.testing.assert_allclose(
            array_from_json(est), array_from_json(trace["output"]), rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("command", ["bound", "verify", "solve", "forward",
                                         "sweep_n", "sweep_kj", "sweep_ns"])
    def test_payload_matches_the_recorded_output(self, tmp_path, capsys, command):
        # cli_recorded.json was written by an earlier version of the code, so
        # this pins each command's stdout payload across versions
        want = json.loads((Path(__file__).parent / "cli_recorded.json").read_text())[command]
        cfg_path, y_path = tmp_path / "cfg.json", tmp_path / "y.json"
        cfg_path.write_text(json.dumps(_small_config()))
        y_path.write_text(json.dumps(array_to_json(np.array([0.4, -0.2, 0.1, 0.3]))))
        inputs = ["--config", str(cfg_path), "--y", str(y_path), "--param-seed", "5"]
        argv = {
            "bound": ["bound", "--config", "default"],
            "verify": ["verify", "--trials", "100", "--seed", "7",
                       "--target", "datafit_grad", "--target", "scale_chain"],
            "solve": ["solve", *inputs],
            "forward": ["forward", *inputs],
            "sweep_n": ["sweep", "--config", "default", "--axis", "n"],
            "sweep_kj": ["sweep", "--config", "default", "--axis", "kj"],
            "sweep_ns": ["sweep", "--config", "default", "--axis", "ns"],
        }[command]
        assert main(argv) == 0
        out = capsys.readouterr().out
        _assert_matches(_parsed_csv(out) if command.startswith("sweep") else json.loads(out),
                        want, command)

    @pytest.mark.parametrize("matrix", [
        {"generator": "gaussian", "scale": 1e308, "seed": 7},
        {"shape": [4, 8], "data": [1e308] * 32},
    ], ids=["generator_scale", "explicit"])
    def test_overflowing_matrix_is_one_error_line(self, tmp_path, matrix):
        # the load-time overflow is screened by name, with no numpy warning
        cfg = _small_config()
        cfg["model"]["matrix"] = matrix
        path = tmp_path / "huge_matrix.json"
        path.write_text(json.dumps(cfg))
        proc = _run_from_source(["-m", "cgbound", "bound", "--config", str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("configuration error: model: A must have finite entries "
                               "and row sums, got norm_inf=inf\n")

    def test_overflowing_spectral_norm_is_one_error_line(self, tmp_path):
        # finite row sums whose spectral norm overflows: named at load, not as y_max
        cfg = _small_config()
        cfg["model"] = {"m": 2, "n": 1, "matrix": {"generator": "ones", "scale": 1.5e308}}
        cfg["dataset"]["sigma_u"]["n"] = 1
        cfg["geb"]["ymax_mode"] = "noiseless"
        path = tmp_path / "huge_norm2.json"
        path.write_text(json.dumps(cfg))
        proc = _run_from_source(["-m", "cgbound", "bound", "--config", str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("configuration error: model: A's spectral norm overflows "
                               "float64, got norm2=inf\n")

    def test_singular_solve_is_one_error_line(self, tmp_path):
        # I + A_z P A_z^T is rank one at 1e304: a numerical failure, not numpy's error
        cfg = default_config()
        cfg["model"] = {"m": 2, "n": 3, "matrix": {"generator": "ones", "scale": 1e152}}
        cfg["dataset"]["sigma_u"]["n"] = 3
        cfg_path, y_path = tmp_path / "singular.json", tmp_path / "y.json"
        cfg_path.write_text(json.dumps(cfg))
        y_path.write_text(json.dumps(array_to_json(np.array([1.0, 1.0]))))
        proc = _run_from_source(["-m", "cgbound", "forward", "--config", str(cfg_path),
                                 "--y", str(y_path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("numerical failure: tikhonov solve: the system "
                               "I + A_z P A_z^T is singular in float64\n")

    def test_overflowing_noise_is_one_error_line(self, tmp_path):
        # the dataset that sets y_max screens its noise by name, with no numpy warning
        cfg = _small_config()
        cfg["model"]["sigma"] = 1e308
        path = tmp_path / "huge_sigma.json"
        path.write_text(json.dumps(cfg))
        proc = _run_from_source(["-m", "cgbound", "bound", "--config", str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: model.sigma = 1e+308 makes the noisy measurements overflow\n"

    def test_cgnet_scale_floor_below_one_is_one_error_line(self, tmp_path):
        # below z = 1 the step constants H_MAX and TAU_H do not hold: no certificate
        cfg = _cgnet_config()
        cfg["bounds"] = {"c_max": 1.0, "z_inf": 20.0, "xi": 1.0, "a": 0.5, "b": 20.0}
        path = tmp_path / "cgnet_a_half.json"
        path.write_text(json.dumps(cfg))
        proc = _run_from_source(["-m", "cgbound", "bound", "--config", str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("configuration error: network: cgnet requires 1 <= a <= z_inf, "
                               "got a=0.5, z_inf=20.0\n")

    @pytest.mark.parametrize("case", ["weight_radius", "covariance_radius"])
    def test_underflowing_covering_ratio_is_one_error_line(self, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(underflowing_ratio_config(case)))
        proc = _run_from_source(["-m", "cgbound", "bound", "--config", str(path)], tmp_path)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: the covering ratio .* and c_max = [^\n]*\n", proc.stderr)

    def test_sweep_n_axis_from_one_is_a_config_error(self, tmp_path, capsys):
        cfg = default_config()
        cfg["sweep"]["n_values"] = [1, 2, 4, 8, 16]
        path = tmp_path / "n_from_one.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--axis", "n"]) == 1
        assert "configuration error: sweep.n_values: the n axis starts at 2" in capsys.readouterr().err

    def test_overflowing_constants_are_written_as_null(self, tmp_path, capsys):
        # at K = J = 8 the linear constants overflow float64 and their logs do not
        cfg = default_config()
        cfg["network"].update(K=8, J=8)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 0
        constants = _strict_loads(capsys.readouterr().out)["constants"]
        assert constants["c_hat1"] is None and constants["kappa"] is None
        assert math.isfinite(constants["log_kappa"])

    def test_infinite_tightness_is_written_as_null(self, monkeypatch, capsys):
        import cgbound.cli as cli_mod
        from cgbound.verify import VerificationReport

        def verify_failing(targets, trials, dims=None, seed=0):
            return [VerificationReport(target=target, trials=trials, passes=trials - 1,
                                       median_tightness=0.5, max_tightness=math.inf, seed=seed)
                    for target in targets]

        monkeypatch.setattr(cli_mod, "verify_targets", verify_failing)
        assert main(["verify", "--trials", "3", "--target", "gram_diff"]) == 2
        (payload,) = _strict_loads(capsys.readouterr().out)
        assert payload["max_tightness"] is None and payload["median_tightness"] == 0.5
        assert payload["all_hold"] is False

    def test_sweep_csv_columns(self, capsys):
        rc = main(["sweep", "--config", "default", "--axis", "ns"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "axis,term2,term3,total"
        assert len(lines) == 6

    def test_sweep_out_writes_the_printed_csv(self, tmp_path, capsys):
        assert main(["sweep", "--config", "default", "--axis", "kj"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "sweep_kj.csv"
        assert main(["sweep", "--config", "default", "--axis", "kj", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_small_config(geb={"eps_conf": 2.0})))
        rc = main(["bound", "--config", str(bad)])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_dataset_ymax_needs_dataset(self, tmp_path, capsys):
        cfg = _small_config()
        del cfg["dataset"]
        with pytest.raises(ConfigError, match="geb.ymax_mode=dataset"):
            config_bound(load_run_config(cfg))
        # the config raises at load, before the report makes its output directory
        with pytest.raises(ConfigError, match="geb.ymax_mode=dataset"):
            run_report(load_run_config(cfg), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()
        path = tmp_path / "no_dataset.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_sample_count_beyond_float_range(self, tmp_path, capsys):
        cfg = default_config()
        cfg["geb"]["Ns"] = 10**400
        path = tmp_path / "huge_ns.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 1
        assert "Ns must be a finite integer" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e60, 1e152])
    def test_overflowing_constants_exit_one(self, tmp_path, capsys, scale):
        cfg = default_config()
        cfg["model"]["matrix"]["scale"] = scale
        path = tmp_path / "huge_matrix.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the network constants overflow float64 at y_max")
        assert "Traceback" not in err

    def test_overflowing_bound_exits_one(self, tmp_path, capsys):
        cfg = default_config()
        cfg["loss"] = {"name": "ssim", "tau": 1e308}
        path = tmp_path / "huge_tau.json"
        path.write_text(json.dumps(cfg))
        assert main(["bound", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the bound overflows float64 at tau = 1e+308")
        assert "Traceback" not in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the Tikhonov solve's result overflows (forward runs y of 1e200)
        y_path = tmp_path / "y_huge.json"
        y_path.write_text(json.dumps(array_to_json(np.full(4, 1e307))))
        with np.errstate(all="ignore"):
            rc = main(["solve", "--config", "default", "--y", str(y_path)])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        proc = _run_from_source(["-m", "cgbound", "--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout

    def test_entry_point_exists(self, tmp_path):
        # Load and call the declared target in a fresh interpreter, as the
        # console-script wrapper that pip generates does, without an install.
        target = _declared_script("cgbound")
        code = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"main = EntryPoint(name='cgbound', value={target!r}, group='console_scripts').load()\n"
            "sys.exit(main())\n"
        )
        proc = _run_from_source(["-c", code, "--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout

    def test_every_exported_name_resolves(self):
        # tools that wrap the package's functions look up each name in __all__
        for info in pkgutil.iter_modules(cgbound.__path__, prefix="cgbound."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"

    @pytest.mark.skipif(shutil.which("cgbound") is None,
                        reason="no installed cgbound script on PATH")
    def test_installed_script_runs(self):
        proc = subprocess.run(["cgbound", "--help"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout


class TestReport:
    def test_report_runs_and_reproduces_bytes(self, tmp_path):
        cfg = _small_config()
        code1 = run_report(load_run_config(cfg), str(tmp_path / "r1"))
        code2 = run_report(load_run_config(cfg), str(tmp_path / "r2"))
        assert code1 == 0 and code2 == 0
        names = sorted(os.listdir(tmp_path / "r1"))
        assert {"verify.json", "bound.json", "gaps.json", "summary.json"} <= set(names)
        for name in names:
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name

    def test_each_sweep_runs_once(self, tmp_path, monkeypatch):
        import cgbound.bounds as bounds_mod
        import cgbound.report as report_mod

        calls = []
        original = bounds_mod.sweep_bound

        def counted(*args):
            calls.append(args[3].axis)
            return original(*args)

        monkeypatch.setattr(bounds_mod, "sweep_bound", counted)
        monkeypatch.setattr(report_mod, "sweep_bound", counted)
        cfg = _small_config()
        cfg["verify"]["trials"] = 5
        cfg["gap"]["suite_size"] = 1
        assert run_report(load_run_config(cfg), str(tmp_path / "out")) == 0
        assert sorted(calls) == ["kj", "n", "ns"]
        # the CSV and the fit fed from one sweep equal the public functions
        fits = json.loads((tmp_path / "out" / "scaling.json").read_text())
        for axis, (c, mdl, spec, loss) in report_mod.scaling_study_specs(cfg["sweep"]).items():
            text = (tmp_path / "out" / f"sweep_{axis}.csv").read_text()
            assert text == report_mod.sweep_csv(bounds_mod.sweep_bound(c, mdl, loss, spec))
            fit = bounds_mod.scaling_fit(c, mdl, loss, spec)
            assert fits[axis]["exponent"] == fit.exponent
            assert fits[axis]["fitted"] == list(fit.fitted)

    def test_payloads_match_the_recorded_report(self, tmp_path, capsys):
        # report_recorded.json was written by an earlier version of the code, so
        # this pins the payloads across versions, not only between two runs
        want = json.loads((Path(__file__).parent / "report_recorded.json").read_text())
        out = tmp_path / "out"
        assert run_report(load_run_config(_pinned_config()), str(out)) == 0
        assert sorted(os.listdir(out)) == sorted(want)
        for name, payload in want.items():
            _assert_matches(_parsed_payload(out / name), payload, name)
        # one timing line per stage on stderr, in order, and none in the payloads
        lines = capsys.readouterr().err.splitlines()
        stages = [re.fullmatch(r"stage (\w+) +\d+\.\d{3} s", line) for line in lines]
        assert [m and m.group(1) for m in stages] == list(STAGES)
        assert list(STAGES) == ["bound", "verify", "scaling", "gaps"]

    @pytest.mark.parametrize("sweep", [None, {}], ids=["missing", "empty"])
    def test_no_sweep_section_means_no_studies(self, tmp_path, capsys, sweep):
        import cgbound.report as report_mod

        cfg = _small_config(sweep=sweep)
        if sweep is None:
            cfg.pop("sweep")
        assert load_run_config(cfg).sweeps == {}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # cgbound sweep falls back on the default studies
        assert main(["sweep", "--config", str(path), "--axis", "ns"]) == 0
        out = capsys.readouterr().out
        config, model, spec, loss = report_mod.scaling_study_specs({})["ns"]
        assert out == report_mod.sweep_csv(report_mod.sweep_bound(config, model, loss, spec))
        assert out.splitlines()[0] == "axis,term2,term3,total" and len(out.splitlines()) == 6
        # the report writes no sweep files
        assert run_report(load_run_config(cfg), str(tmp_path / "out")) == 0
        assert sorted(os.listdir(tmp_path / "out")) == [
            "bound.json", "gaps.json", "summary.json", "verify.json"]

    def test_report_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = _small_config()
        cfg.pop("sweep")
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["report", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_code"] == 0 and summary["failures"] == []


class TestParameterSerialization:
    def test_round_trip(self):
        from cgbound.networks import sample_parameters
        from cgbound.serialize import parameters_from_json, parameters_to_json

        cfg = load_run_config(_small_config()).network
        theta = sample_parameters(cfg, 77)
        back = parameters_from_json(parameters_to_json(theta), cfg)
        np.testing.assert_array_equal(back.P.P, theta.P.P)
        for b1, b2 in zip(back.blocks, theta.blocks, strict=True):
            assert b1.shape == b2.shape
            np.testing.assert_array_equal(b1, b2)

    def test_rejects_wrong_grid(self):
        from cgbound.networks import sample_parameters
        from cgbound.serialize import parameters_from_json, parameters_to_json

        cfg = load_run_config(_small_config()).network
        payload = parameters_to_json(sample_parameters(cfg, 77))
        payload["blocks"] = payload["blocks"][:1]
        with pytest.raises(ConfigError, match="blocks"):
            parameters_from_json(payload, cfg)

    @pytest.mark.parametrize("payload", [[], "theta", {"P": {"shape": [1], "data": [1.0]}}],
                             ids=["list", "text", "no_blocks"])
    def test_rejects_a_non_object(self, tmp_path, capsys, payload):
        from cgbound.serialize import parameters_from_json

        raw = _small_config()
        message = "params: expected an object with 'P' and 'blocks'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parameters_from_json(payload, load_run_config(raw).network)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        params_path = tmp_path / "theta.json"
        params_path.write_text(json.dumps(payload))
        assert main(["solve", "--config", str(cfg_path), "--params", str(params_path)]) == 1
        assert f"configuration error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, field", [
        ((0, 0, 1), [0.1], "params.blocks[1][1][2]"),
        ((0, 0, 1), None, "params.blocks[1][1][2]"),
        ((1,), 3, "params.blocks[2]"),
        ((0, 0, 1), "0.1", "params.blocks[1][1][2]"),
        ((0, 0, 1), math.nan, "params.blocks[1][1][2]"),
        ((0, 0, 0), {"shape": [2, 4], "data": [0.1] * 8}, "params.blocks[1][1][1]"),
        ((0, 0), [0.1], "params.blocks[1][1]"),
    ], ids=["list_for_scalar", "null_for_scalar", "int_for_row", "text_for_scalar",
            "nan_for_scalar", "wrong_weight_dims", "one_block_in_a_step"])
    def test_malformed_blocks_name_their_path(self, tmp_path, capsys, where, value, field):
        from cgbound.networks import sample_parameters
        from cgbound.serialize import parameters_from_json, parameters_to_json

        raw = _small_config()
        cfg = load_run_config(raw).network
        payload = parameters_to_json(sample_parameters(cfg, 77))
        target = payload["blocks"]
        for i in where[:-1]:
            target = target[i]
        target[where[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(field + ":")):
            parameters_from_json(payload, cfg)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        params_path = tmp_path / "theta.json"
        params_path.write_text(json.dumps(payload))
        assert main(["solve", "--config", str(cfg_path), "--params", str(params_path)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, structure", [("cgnet", "diagonal"), ("drcgnet", "full")])
    def test_rejects_an_unstructured_covariance(self, tmp_path, capsys, variant, structure):
        from cgbound.networks import sample_covariance, sample_parameters
        from cgbound.serialize import parameters_from_json, parameters_to_json

        raw = _cgnet_config() if variant == "cgnet" else _small_config()
        cfg = load_run_config(raw).network
        P = sample_covariance(structure, cfg.n, cfg.p_min, cfg.p_max, np.random.default_rng(2))
        payload = parameters_to_json(sample_parameters(cfg, 77))
        payload["P"] = array_to_json(P.P)
        message = f"params: covariance is not {cfg.cov_spec[3]}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parameters_from_json(payload, cfg)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        params_path = tmp_path / "theta.json"
        params_path.write_text(json.dumps(payload))
        assert main(["solve", "--config", str(cfg_path), "--params", str(params_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_rejects_an_asymmetric_b(self, tmp_path, capsys):
        from cgbound.model import spectral_norm
        from cgbound.networks import sample_parameters
        from cgbound.serialize import parameters_from_json, parameters_to_json

        raw = _cgnet_config()
        cfg = load_run_config(raw).network
        payload = parameters_to_json(sample_parameters(cfg, 77))
        G = np.random.default_rng(3).standard_normal((cfg.n, cfg.n))
        payload["blocks"][1][0][0] = array_to_json(G * (cfg.p_max / spectral_norm(G)))
        message = "params: block 1 at layer 2 step 1 is not symmetric"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parameters_from_json(payload, cfg)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        params_path = tmp_path / "theta.json"
        params_path.write_text(json.dumps(payload))
        assert main(["solve", "--config", str(cfg_path), "--params", str(params_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_cli_accepts_explicit_params(self, tmp_path, capsys):
        from cgbound.networks import sample_parameters
        from cgbound.serialize import parameters_to_json

        raw = _small_config()
        cfg = load_run_config(raw)
        theta = sample_parameters(cfg.network, 5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(array_to_json(np.array([0.4, -0.2, 0.1, 0.3]))))
        params_path = tmp_path / "theta.json"
        params_path.write_text(json.dumps(parameters_to_json(theta)))

        rc = main(["solve", "--config", str(cfg_path), "--y", str(y_path),
                   "--params", str(params_path)])
        assert rc == 0
        explicit = array_from_json(json.loads(capsys.readouterr().out)["estimate"])
        rc = main(["solve", "--config", str(cfg_path), "--y", str(y_path),
                   "--param-seed", "5"])
        assert rc == 0
        sampled = array_from_json(json.loads(capsys.readouterr().out)["estimate"])
        np.testing.assert_array_equal(explicit, sampled)


def test_report_exit_two_on_suite_failure(tmp_path, monkeypatch):
    import cgbound.report as report_mod
    from cgbound.verify import VerificationReport

    def failing(targets, trials, dims=None, seed=0):
        return [VerificationReport(target=target, trials=trials, passes=trials - 1,
                                   median_tightness=0.5, max_tightness=2.0, seed=seed)
                for target in targets]

    monkeypatch.setattr(report_mod, "verify_targets", failing)
    cfg = _small_config()
    cfg.pop("sweep")
    code = run_report(load_run_config(cfg), str(tmp_path / "out"))
    assert code == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 2
    assert any(f.startswith("verify:") for f in summary["failures"])


def test_each_stage_failures_reach_the_summary(tmp_path, monkeypatch):
    import dataclasses

    import cgbound.report as report_mod
    from cgbound.verify import VerificationReport

    def verify_failing_last(targets, trials, dims=None, seed=0):
        return [VerificationReport(target=target, trials=trials,
                                   passes=trials - (target == targets[-1]),
                                   median_tightness=0.5, max_tightness=2.0, seed=seed)
                for target in targets]

    def gaps_failing_second(*args, _run=report_mod.run_gap_suite):
        return [dataclasses.replace(g, holds=i != 1) for i, g in enumerate(_run(*args))]

    monkeypatch.setattr(report_mod, "verify_targets", verify_failing_last)
    monkeypatch.setattr(report_mod, "run_gap_suite", gaps_failing_second)
    cfg = _small_config()
    cfg.pop("sweep")
    assert run_report(load_run_config(cfg), str(tmp_path / "out")) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary == {
        "exit_code": 2,
        "failures": ["verify:subnet_norm", "gap:1"],
        "sections": {"gaps": {"configs": 2, "failed": 1}, "verify": {"failed": 1, "targets": 2}},
    }
