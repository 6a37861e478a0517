"""JSON schema for arrays, configurations, and result payloads.

Arrays serialize as ``{"shape": [...], "data": [row-major flat list]}``.
A run configuration is a single JSON object with sections

    seed      integer master seed
    model     {"m", "n", "sigma", "matrix"} where "matrix" is either an
              explicit array object or {"generator": "gaussian"|"ones",
              "seed", "scale"}
    network   {"variant", "K", "J", "p_min", "p_max", variant extras}
              (cgnet: "mu"; drcgnet: "Lc", "filters", "kernels",
              "weight_bounds", "delta")
    bounds    {"c_max", "z_inf", "xi", "a", "b"}        (optional)
    loss      {"name": "mae"} or {"name": "ssim", "tau": ...}
    dataset   {"Ns", "seed", "sigma_u": covariance spec}   (optional)
    verify    {"targets", "trials", "seed"}                (optional)
    sweep     {"ns_values", "kj_values", "n_values", "Ns",
               "eps_conf"}                                 (optional)
    geb       {"Ns", "eps_conf", "ymax_mode"}              (optional)
    gap       {"suite_size", "Ns", "test_draws", "seed"}   (optional)

Covariance specs are ``{"structure", "epsilon", params...}`` with params
"lam"/"n" (scaled_identity), "lam_vec" (diagonal), "lam1"/"lam2"
(tridiagonal), or "L" (full, as an array object).

Validation errors carry the JSON path of the offending field. All payload
writers use a canonical encoding (sorted keys, fixed float repr), so equal
inputs produce byte-identical files.
"""

import json

import numpy as np

from .bounds import LossSpec
from .datagen import CgDataSpec
from .model import CovarianceSpec, MeasurementModel, SignalBounds, build_covariance
from .networks import NetworkConfig
from .verify import TARGETS

__all__ = [
    "ConfigError",
    "array_to_json",
    "array_from_json",
    "dumps_canonical",
    "load_run_config",
    "parameters_to_json",
    "parameters_from_json",
    "RunConfig",
]


class ConfigError(ValueError):
    """Configuration validation failure, tagged with its JSON path."""


def array_to_json(a):
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}


def array_from_json(obj, path="array"):
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise ConfigError(f"{path}: expected an object with 'shape' and 'data'")
    shape = obj["shape"]
    if not (isinstance(shape, list)
            and all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape)):
        raise ConfigError(f"{path}.shape: expected a list of nonnegative integers, got {shape!r}")
    shape = tuple(shape)
    try:
        data = np.asarray(obj["data"], dtype=np.float64)
        if not np.isfinite(data).all():
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.data: expected a list of finite numbers") from None
    if data.size != int(np.prod(shape)):
        raise ConfigError(f"{path}: data length {data.size} does not match shape {shape}")
    return data.reshape(shape)


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parameters_to_json(theta):
    """Serialize a parameter set: covariance plus per-(layer, step) blocks.

    Matrix blocks become array objects, scalar blocks plain numbers.
    """
    blocks = []
    for row in theta.blocks:
        out_row = []
        for kj in row:
            out_row.append([
                float(b) if np.ndim(b) == 0 else array_to_json(b) for b in kj
            ])
        blocks.append(out_row)
    return {"P": array_to_json(theta.P.P), "blocks": blocks}


def _block_from_json(obj, path):
    if isinstance(obj, dict):
        return array_from_json(obj, path)
    try:
        return float(obj)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number or an array object, got {obj!r}") from None


def parameters_from_json(obj, config, path="params"):
    """Inverse of :func:`parameters_to_json`, validated against the config."""
    from .model import SpdMatrix
    from .networks import ParameterSet, validate_parameters

    if not isinstance(obj, dict) or "P" not in obj or "blocks" not in obj:
        raise ConfigError(f"{path}: expected an object with 'P' and 'blocks'")
    try:
        P = SpdMatrix(array_from_json(obj["P"], f"{path}.P"))
    except ValueError as exc:
        raise ConfigError(f"{path}.P: {exc}") from None
    raw = obj["blocks"]
    if not isinstance(raw, list) or len(raw) != config.K:
        raise ConfigError(f"{path}.blocks: expected a {config.K} x {config.J} grid")
    blocks = []
    for k, row in enumerate(raw, start=1):
        if not isinstance(row, list) or len(row) != config.J:
            raise ConfigError(f"{path}.blocks[{k}]: expected a list of {config.J} steps")
        out_row = []
        for j, kj in enumerate(row, start=1):
            if not isinstance(kj, list) or len(kj) != config.D:
                raise ConfigError(
                    f"{path}.blocks[{k}][{j}]: expected {config.D} parameter blocks"
                )
            out_row.append(tuple(
                _block_from_json(b, f"{path}.blocks[{k}][{j}][{d}]")
                for d, b in enumerate(kj, start=1)
            ))
        blocks.append(tuple(out_row))
    theta = ParameterSet(P=P, blocks=tuple(blocks))
    try:
        validate_parameters(theta, config)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return theta


def _section(cfg, name, required=True):
    if name not in cfg:
        if required:
            raise ConfigError(f"{name}: missing required section")
        return None
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"{name}: expected an object")
    return cfg[name]


def _get(sec, key, path, cast=None, required=True, default=None):
    name = f"{path}.{key}" if path else key
    if key not in sec:
        if required:
            raise ConfigError(f"{name}: missing required field")
        return default
    value = sec[key]
    if cast is not None:
        if cast in (int, float) and isinstance(value, bool):
            raise ConfigError(f"{name}: expected a number, got {json.dumps(value)}")
        try:
            return cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return value


def _parse_model(sec):
    m = _get(sec, "m", "model", int)
    n = _get(sec, "n", "model", int)
    sigma = _get(sec, "sigma", "model", float, required=False, default=0.0)
    mat = _get(sec, "matrix", "model")
    if isinstance(mat, dict) and "generator" in mat:
        gen = mat["generator"]
        scale = _get(mat, "scale", "model.matrix", float, required=False, default=1.0)
        if gen == "gaussian":
            rng = np.random.default_rng(
                _get(mat, "seed", "model.matrix", int, required=False, default=0))
            A = scale * rng.standard_normal((m, n))
        elif gen == "ones":
            A = scale * np.ones((m, n))
        else:
            raise ConfigError(f"model.matrix.generator: unknown generator {gen!r}")
    else:
        A = array_from_json(mat, "model.matrix")
    if A.shape != (m, n):
        raise ConfigError(f"model.matrix: shape {A.shape} does not match (m, n) = ({m}, {n})")
    try:
        return MeasurementModel(A, sigma=sigma)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _parse_bounds(sec):
    if sec is None:
        return SignalBounds.default()
    try:
        return SignalBounds(
            c_max=_get(sec, "c_max", "bounds", float),
            z_inf=_get(sec, "z_inf", "bounds", float),
            xi=_get(sec, "xi", "bounds", float),
            a=_get(sec, "a", "bounds", float),
            b=_get(sec, "b", "bounds", float),
        )
    except ValueError as exc:
        raise ConfigError(f"bounds: {exc}") from None


def _parse_network(sec, n, bounds):
    variant = _get(sec, "variant", "network", str)
    kwargs = dict(
        variant=variant,
        n=n,
        K=_get(sec, "K", "network", int),
        J=_get(sec, "J", "network", int),
        bounds=bounds,
        p_min=_get(sec, "p_min", "network", float),
        p_max=_get(sec, "p_max", "network", float),
    )
    if variant == "cgnet":
        kwargs["mu_bound"] = _get(sec, "mu", "network", float)
    elif variant == "drcgnet":
        kwargs.update(
            Lc=_get(sec, "Lc", "network", int),
            filters=tuple(_get(sec, "filters", "network", list)),
            kernels=tuple(_get(sec, "kernels", "network", list)),
            weight_bounds=tuple(_get(sec, "weight_bounds", "network", list)),
            delta=_get(sec, "delta", "network", float),
        )
    else:
        raise ConfigError(f"network.variant: unknown variant {variant!r}")
    try:
        return NetworkConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from None


def _parse_cov_spec(sec, path):
    structure = _get(sec, "structure", path, str)
    eps = _get(sec, "epsilon", path, float, required=False, default=1e-4)
    kwargs = {"structure": structure, "epsilon": eps}
    if structure == "scaled_identity":
        kwargs["lam"] = _get(sec, "lam", path, float)
        kwargs["n"] = _get(sec, "n", path, int)
    elif structure == "diagonal":
        kwargs["lam_vec"] = tuple(_get(sec, "lam_vec", path, list))
    elif structure == "tridiagonal":
        kwargs["lam1"] = tuple(_get(sec, "lam1", path, list))
        kwargs["lam2"] = tuple(_get(sec, "lam2", path, list))
    elif structure == "full":
        kwargs["L"] = tuple(map(tuple, array_from_json(_get(sec, "L", path), f"{path}.L")))
    else:
        raise ConfigError(f"{path}.structure: unknown structure {structure!r}")
    try:
        return CovarianceSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_loss(sec, n, c_max):
    name = _get(sec, "name", "loss", str)
    try:
        if name == "mae":
            return LossSpec.mae(n, c_max)
        if name == "ssim":
            if "tau" not in sec:
                raise ConfigError(
                    "loss.tau: the ssim loss requires an explicit Lipschitz constant"
                )
            return LossSpec.ssim(_get(sec, "tau", "loss", float))
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from None
    raise ConfigError(f"loss.name: unknown loss {name!r}")


class RunConfig:
    """Parsed run configuration; see the module docstring for the schema."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        self.raw = raw
        self.seed = _get(raw, "seed", "", int, required=False, default=0)
        self.model = _parse_model(_section(raw, "model"))
        self.bounds = _parse_bounds(_section(raw, "bounds", required=False))
        self.network = _parse_network(_section(raw, "network"), self.model.n, self.bounds)
        self.loss = _parse_loss(_section(raw, "loss"), self.model.n, self.bounds.c_max)

        geb = _section(raw, "geb", required=False) or {}
        self.geb_Ns = _get(geb, "Ns", "geb", int, required=False, default=1000)
        self.eps_conf = _get(geb, "eps_conf", "geb", float, required=False, default=0.05)
        self.ymax_mode = _get(geb, "ymax_mode", "geb", str, required=False, default="noiseless")
        if not (0.0 < self.eps_conf < 1.0):
            raise ConfigError(f"geb.eps_conf: must lie in (0, 1), got {self.eps_conf}")
        if self.geb_Ns < 1:
            raise ConfigError("geb.Ns: must be >= 1")
        if self.ymax_mode not in ("noiseless", "white_noise", "dataset"):
            raise ConfigError(f"geb.ymax_mode: unknown mode {self.ymax_mode!r}")

        ds = _section(raw, "dataset", required=False)
        self.dataset_spec = None
        if ds is not None:
            sigma_u = build_covariance(_parse_cov_spec(_get(ds, "sigma_u", "dataset"), "dataset.sigma_u"))
            Ns = _get(ds, "Ns", "dataset", int)
            if Ns < 1:
                raise ConfigError("dataset.Ns: must be >= 1")
            try:
                self.dataset_spec = CgDataSpec(
                    model=self.model,
                    sigma_u=sigma_u,
                    bounds=self.bounds,
                    Ns=Ns,
                    seed=_get(ds, "seed", "dataset", int, required=False, default=self.seed),
                )
            except ValueError as exc:
                raise ConfigError(f"dataset: {exc}") from None

        ver = _section(raw, "verify", required=False) or {}
        self.verify_targets = ver.get("targets", "all")
        if self.verify_targets != "all" and not (
            isinstance(self.verify_targets, list)
            and all(isinstance(t, str) and t in TARGETS for t in self.verify_targets)
        ):
            raise ConfigError(
                f"verify.targets: expected 'all' or a list of {sorted(TARGETS)}, "
                f"got {self.verify_targets!r}"
            )
        self.verify_trials = _get(ver, "trials", "verify", int, required=False, default=10000)
        self.verify_seed = _get(ver, "seed", "verify", int, required=False, default=self.seed)
        if self.verify_trials < 1:
            raise ConfigError("verify.trials: must be >= 1")

        sw = _section(raw, "sweep", required=False) or {}
        self.sweep = sw

        gap = _section(raw, "gap", required=False) or {}
        self.gap_suite_size = _get(gap, "suite_size", "gap", int, required=False, default=20)
        self.gap_Ns = _get(gap, "Ns", "gap", int, required=False, default=48)
        self.gap_test_draws = _get(gap, "test_draws", "gap", int, required=False, default=2000)
        self.gap_seed = _get(gap, "seed", "gap", int, required=False, default=self.seed)
        for key in ("suite_size", "Ns", "test_draws"):
            if getattr(self, f"gap_{key}") < 1:
                raise ConfigError(f"gap.{key}: must be >= 1")


def load_run_config(source):
    """Parse a run configuration from a path, JSON string, or dict."""
    if isinstance(source, dict):
        return RunConfig(source)
    text = source
    if not str(source).lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig(raw)
