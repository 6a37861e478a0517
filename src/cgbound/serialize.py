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
(tridiagonal), or "L" (full, as an array object); each is built directly
into the SPD matrix it describes.

Fields are read by type only: an integer is a number with an integral
value, a float is a finite number, and a JSON boolean is neither. Range
checks belong to the objects the fields build. ``load_run_config`` is the
one reader of this schema: it builds every section, the sweep section as
one ``SweepSpec`` per axis (``bounds.scaling_study`` builds a study when
it runs), and checks that ``geb.ymax_mode=dataset`` has a dataset section,
so every config error raises at load. Every validation error carries the
JSON path of the offending field. All payload writers use a canonical
encoding (sorted keys, fixed float repr), so equal inputs produce
byte-identical files. Payloads are strict JSON: a non-finite float (an
overflowing linear constant, the log of 0, an infinite tightness ratio)
is written as ``null``, and ``dumps_canonical`` refuses any other.
"""

import json
import numbers
import os
import sys
import types

import numpy as np

from .bounds import LossSpec, SweepSpec, _check_eps_conf, _check_ns
from .datagen import CgDataSpec
from .model import MeasurementModel, SignalBounds, SpdMatrix
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
    "sweep_specs",
]


class ConfigError(ValueError):
    """Configuration validation failure, tagged with its JSON path."""


_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
          dict: "an object"}


def _typed(value, kind, name):
    """``value`` read as ``kind``, or a ConfigError naming the field ``name``.

    ``int`` takes a number with an integral value (``1e4`` reads as 10000)
    and ``float`` a finite number; neither takes a boolean. ``list[int]``
    and ``list[float]`` read every entry so and return a tuple.
    """
    if isinstance(kind, types.GenericAlias):
        return tuple(_typed(v, kind.__args__[0], f"{name}[{i}]")
                     for i, v in enumerate(_typed(value, list, name)))
    if isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    elif kind is float:
        ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name}: expected {_KINDS[kind]}, got {value!r}")
    return kind(value)


def _checked(name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, a ValueError re-raised as a ConfigError naming ``name``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


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
    data = np.array(_typed(obj["data"], list[float], f"{path}.data"), dtype=np.float64)
    if data.size != int(np.prod(shape)):
        raise ConfigError(f"{path}: data length {data.size} does not match shape {shape}")
    return data.reshape(shape)


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parameters_to_json(theta):
    """Serialize a parameter set: covariance plus a K x J grid of per-step blocks.

    Matrix blocks become array objects, scalar blocks plain numbers.
    """
    K, J = np.shape(theta.blocks[0])[:2]
    blocks = [[[float(b[k, j]) if np.ndim(b) == 2 else array_to_json(b[k, j]) for b in theta.blocks]
               for j in range(J)] for k in range(K)]
    return {"P": array_to_json(theta.P.P), "blocks": blocks}


def _block_from_json(obj, path):
    if isinstance(obj, dict):
        return array_from_json(obj, path)
    return _typed(obj, float, path)


def parameters_from_json(obj, config, path="params"):
    """Inverse of :func:`parameters_to_json`, validated against the config."""
    from .networks import ParameterSet, validate_parameters

    if not isinstance(obj, dict) or "P" not in obj or "blocks" not in obj:
        raise ConfigError(f"{path}: expected an object with 'P' and 'blocks'")
    P = _checked(f"{path}.P", SpdMatrix, array_from_json(obj["P"], f"{path}.P"))
    raw = obj["blocks"]
    if not isinstance(raw, list) or len(raw) != config.K:
        raise ConfigError(f"{path}.blocks: expected a {config.K} x {config.J} grid")
    shapes = [shape for shape, *_ in config.block_specs]
    stacks = [[] for _ in shapes]
    for k, row in enumerate(raw, start=1):
        if not isinstance(row, list) or len(row) != config.J:
            raise ConfigError(f"{path}.blocks[{k}]: expected a list of {config.J} steps")
        for j, kj in enumerate(row, start=1):
            if not isinstance(kj, list) or len(kj) != len(shapes):
                raise ConfigError(f"{path}.blocks[{k}][{j}]: expected {len(shapes)} parameter blocks")
            for d, (b, shape) in enumerate(zip(kj, shapes), start=1):
                name = f"{path}.blocks[{k}][{j}][{d}]"
                x = _block_from_json(b, name)
                if np.shape(x) != shape:
                    raise ConfigError(f"{name}: expected shape {shape}, got {np.shape(x)}")
                stacks[d - 1].append(x)
    theta = ParameterSet(P=P, blocks=tuple(
        np.reshape(xs, (config.K, config.J) + shape) for xs, shape in zip(stacks, shapes)))
    _checked(path, validate_parameters, theta, config)
    return theta


def _section(cfg, name, required=True):
    if name not in cfg:
        if required:
            raise ConfigError(f"{name}: missing required section")
        return None
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"{name}: expected an object")
    return cfg[name]


def _get(sec, key, path, kind=None, default=None):
    """Field ``key`` of ``sec``, read as ``kind`` (see :func:`_typed`) when given;
    ``default`` when it is missing, a required field when ``default`` is None."""
    name = f"{path}.{key}" if path else key
    if key not in sec:
        if default is None:
            raise ConfigError(f"{name}: missing required field")
        return default
    return sec[key] if kind is None else _typed(sec[key], kind, name)


def _parse_model(sec):
    m = _get(sec, "m", "model", int)
    n = _get(sec, "n", "model", int)
    for key, size in (("m", m), ("n", n)):
        if size < 1:
            raise ConfigError(f"model.{key}: must be >= 1, got {size}")
    sigma = _get(sec, "sigma", "model", float, default=0.0)
    mat = _get(sec, "matrix", "model")
    with np.errstate(over="ignore"):  # MeasurementModel screens the overflow, naming it
        if isinstance(mat, dict) and "generator" in mat:
            gen = mat["generator"]
            scale = _get(mat, "scale", "model.matrix", float, default=1.0)
            if gen == "gaussian":
                rng = np.random.default_rng(_get(mat, "seed", "model.matrix", int, default=0))
                A = scale * rng.standard_normal((m, n))
            elif gen == "ones":
                A = scale * np.ones((m, n))
            else:
                raise ConfigError(f"model.matrix.generator: unknown generator {gen!r}")
        else:
            A = array_from_json(mat, "model.matrix")
        if A.shape != (m, n):
            raise ConfigError(f"model.matrix: shape {A.shape} does not match (m, n) = ({m}, {n})")
        return _checked("model", MeasurementModel, A, sigma=sigma)


def _parse_bounds(sec):
    if sec is None:
        return SignalBounds.default()
    radii = {key: _get(sec, key, "bounds", float) for key in ("c_max", "z_inf", "xi", "a", "b")}
    return _checked("bounds", SignalBounds, **radii)


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
            filters=_get(sec, "filters", "network", list[int]),
            kernels=_get(sec, "kernels", "network", list[int]),
            weight_bounds=_get(sec, "weight_bounds", "network", list[float]),
            delta=_get(sec, "delta", "network", float),
        )
    else:
        raise ConfigError(f"network.variant: unknown variant {variant!r}")
    return _checked("network", NetworkConfig, **kwargs)


def _parse_covariance(sec, path):
    """The SPD matrix that the covariance spec ``sec`` describes.

    The scaled-identity and diagonal constructions clamp their entries
    below by ``epsilon``; the Gram constructions add ``epsilon * I`` to a
    lower-triangular product, so the smallest eigenvalue is at least
    ``epsilon`` in every case. A matrix that overflows float64 is rejected
    with the field it was built from.
    """
    sec = _typed(sec, dict, path)
    structure = _get(sec, "structure", path, str)
    eps = _get(sec, "epsilon", path, float, default=1e-4)
    if eps <= 0:
        raise ConfigError(f"{path}.epsilon: must be positive, got {eps}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, naming the field
        if structure == "scaled_identity":
            field = "lam"
            lam = _get(sec, "lam", path, float)
            n = _get(sec, "n", path, int)
            if n < 1:
                raise ConfigError(f"{path}.n: must be >= 1, got {n}")
            P = max(lam, eps) * np.eye(n)
        elif structure == "diagonal":
            field = "lam_vec"
            lam = np.array(_get(sec, "lam_vec", path, list[float]))
            if lam.size < 1:
                raise ConfigError(f"{path}.lam_vec: expected a nonempty list")
            P = np.diag(np.maximum(lam, eps))
        elif structure == "tridiagonal":
            field = "lam1/lam2"
            lam1 = np.array(_get(sec, "lam1", path, list[float]))
            lam2 = np.array(_get(sec, "lam2", path, list[float]))
            n = lam1.size
            if n < 1:
                raise ConfigError(f"{path}.lam1: expected a nonempty list")
            if lam2.size != n - 1:
                raise ConfigError(f"{path}.lam2: expected len(lam1) - 1 = {n - 1} entries, got {lam2.size}")
            Ltri = np.diag(lam1)
            if n > 1:
                Ltri += np.diag(lam2, k=-1)
            P = Ltri @ Ltri.T + eps * np.eye(n)
        elif structure == "full":
            field = "L"
            L = array_from_json(_get(sec, "L", path), f"{path}.L")
            if L.ndim != 2 or L.shape[0] != L.shape[1] or L.size == 0:
                raise ConfigError(f"{path}.L: expected a nonempty square matrix, got shape {L.shape}")
            L = np.tril(L)
            P = L @ L.T + eps * np.eye(L.shape[0])
        else:
            raise ConfigError(f"{path}.structure: unknown structure {structure!r}")
        P = 0.5 * (P + P.T)
    if not np.isfinite(P).all():
        raise ConfigError(f"{path}.{field}: entries too large, the matrix overflows float64")
    return _checked(path, SpdMatrix, P)


def _parse_loss(sec, n, c_max):
    name = _get(sec, "name", "loss", str)
    if name == "mae":
        return _checked("loss", LossSpec.mae, n, c_max)
    if name == "ssim":
        return _checked("loss", LossSpec.ssim, _get(sec, "tau", "loss", float))
    raise ConfigError(f"loss.name: unknown loss {name!r}")


def sweep_specs(sweep_section):
    """``{axis: SweepSpec}`` of a sweep section, each field defaulted and checked."""
    Ns = _get(sweep_section, "Ns", "sweep", int, default=10000)
    _checked("sweep.Ns", _check_ns, Ns)
    eps = _get(sweep_section, "eps_conf", "sweep", float, default=0.05)
    _checked("sweep.eps_conf", _check_eps_conf, eps)
    defaults = {"n": (4, 8, 16, 32, 64), "kj": (4, 16, 64, 256, 1024, 4096),
                "ns": (100, 1000, 10000, 100000, 1000000)}
    specs = {}
    for axis, default in defaults.items():
        key = f"{axis}_values"
        values = _get(sweep_section, key, "sweep", list[float], default=default)
        specs[axis] = _checked(f"sweep.{key}", SweepSpec, axis=axis, values=values, Ns=Ns, eps_conf=eps)
    return specs


class RunConfig:
    """Parsed run configuration (schema above); ``sweeps`` is {} for a missing or empty sweep."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        self.seed = _get(raw, "seed", "", int, default=0)
        self.model = _parse_model(_section(raw, "model"))
        self.bounds = _parse_bounds(_section(raw, "bounds", required=False))
        self.network = _parse_network(_section(raw, "network"), self.model.n, self.bounds)
        self.loss = _parse_loss(_section(raw, "loss"), self.model.n, self.bounds.c_max)

        geb = _section(raw, "geb", required=False) or {}
        self.geb_Ns = _get(geb, "Ns", "geb", int, default=1000)
        self.eps_conf = _get(geb, "eps_conf", "geb", float, default=0.05)
        self.ymax_mode = _get(geb, "ymax_mode", "geb", str, default="noiseless")
        _checked("geb.eps_conf", _check_eps_conf, self.eps_conf)
        _checked("geb.Ns", _check_ns, self.geb_Ns)
        if self.ymax_mode not in ("noiseless", "white_noise", "dataset"):
            raise ConfigError(f"geb.ymax_mode: unknown mode {self.ymax_mode!r}")

        ds = _section(raw, "dataset", required=False)
        self.dataset_spec = None
        if ds is not None:
            sigma_u = _parse_covariance(_get(ds, "sigma_u", "dataset"), "dataset.sigma_u")
            Ns = _get(ds, "Ns", "dataset", int)
            _checked("dataset.Ns", _check_ns, Ns)
            self.dataset_spec = _checked(
                "dataset", CgDataSpec,
                model=self.model,
                sigma_u=sigma_u,
                bounds=self.bounds,
                Ns=Ns,
                seed=_get(ds, "seed", "dataset", int, default=self.seed),
            )
        if self.ymax_mode == "dataset" and self.dataset_spec is None:
            raise ConfigError("geb.ymax_mode=dataset requires a dataset section")

        ver = _section(raw, "verify", required=False) or {}
        targets = ver.get("targets", "all")
        if targets == "all":
            targets = sorted(TARGETS)
        elif not (isinstance(targets, list)
                  and all(isinstance(t, str) and t in TARGETS for t in targets)):
            raise ConfigError(
                f"verify.targets: expected 'all' or a list of {sorted(TARGETS)}, got {targets!r}"
            )
        self.verify_targets = targets
        self.verify_trials = _get(ver, "trials", "verify", int, default=10000)
        self.verify_seed = _get(ver, "seed", "verify", int, default=self.seed)
        if self.verify_trials < 1:
            raise ConfigError("verify.trials: must be >= 1")

        sw = _section(raw, "sweep", required=False)
        self.sweeps = sweep_specs(sw) if sw else {}

        gap = _section(raw, "gap", required=False) or {}
        self.gap_suite_size = _get(gap, "suite_size", "gap", int, default=20)
        self.gap_Ns = _get(gap, "Ns", "gap", int, default=48)
        self.gap_test_draws = _get(gap, "test_draws", "gap", int, default=2000)
        self.gap_seed = _get(gap, "seed", "gap", int, default=self.seed)
        for key in ("suite_size", "Ns", "test_draws"):
            if getattr(self, f"gap_{key}") < 1:
                raise ConfigError(f"gap.{key}: must be >= 1")


def load_run_config(source):
    """Parse a run configuration from a JSON file or from its parsed value.

    A ``str`` or ``os.PathLike`` source is the path of a JSON file; a missing
    file raises ``FileNotFoundError`` and text that is not JSON a
    ``ConfigError``. Any other source is the parsed config itself, and one
    that is not a dict raises ``ConfigError("top level: expected a JSON
    object")``, as a file holding a non-object does.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig(source)
