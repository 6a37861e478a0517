"""Outside-in tracing of cgbound's layers.

``install`` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent). The same wrapper
is written into every module that imported the function by name
(``verify`` and ``datagen`` import from ``model``, ``networks``,
``lipschitz`` and ``bounds``), into the entries of ``backend.kernels``, and
around the ``__post_init__`` of ``SpdMatrix`` and ``MeasurementModel``.
``uninstall`` puts the originals back, so an untraced pass runs the
program exactly as shipped. Nothing under ``src/`` is edited.

Spans are kept in flat in-memory arrays and reduced after the pass:
a span's self time is its duration minus the durations of its direct
children. Wrapped functions that no metric names (helpers such as
``model.mrelu`` or ``lipschitz.step_constants``) roll their self time up
into the nearest named ancestor, so the self times of all groups add up
to the traced wall time of the pass.
"""

import contextlib
import functools
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

from cgbound import backend, bounds, datagen, lipschitz, model, networks, report, verify

TRACED_MODULES = (model, networks, lipschitz, bounds, datagen, verify, report)

# private names that verify imports from networks; they carry the scale
# updates and parameter draws of the chained targets
EXTRA_FUNCTIONS = ((networks, "_sample_blocks"), (networks, "_scale_update"))

# metric group -> span names that belong to it
GROUPS = {
    "model.tikhonov_solve": ("model.tikhonov_solve",),
    "model.spectral_norm": ("model.spectral_norm",),
    "model.spd_build": ("model.SpdMatrix",),
    "model.measurement_build": ("model.MeasurementModel",),
    "networks.forward": ("networks.forward",),
    "networks.scale_step": (
        "networks._scale_update",
        "networks.cgnet_scale_step",
        "networks.drcgnet_scale_step",
    ),
    "networks.sample": (
        "networks.sample_parameters",
        "networks.sample_parameters_rng",
        "networks.sample_covariance",
        "networks._sample_blocks",
    ),
    "lipschitz.network_constants": ("lipschitz.network_constants",),
    "lipschitz.exact": ("lipschitz.network_constants_exact", "lipschitz.tikhonov_constants_exact"),
    "bounds.geb_bound": ("bounds.geb_bound",),
    "bounds.sample_complexity": ("bounds.sample_complexity",),
    "bounds.sweep": ("bounds.sweep_bound", "bounds.scaling_fit"),
    "verify": ("verify.verify_lipschitz",),
    "datagen.generate": ("datagen.generate_cg_dataset",),
    "datagen.empirical_gap": ("datagen.empirical_gap",),
    "report.gap_suite": ("report.gap_suite",),
}
KERNEL_PREFIX = "backend.kernel."
BENCH = "bench"  # spans opened by the benchmark itself, around each operation


def _tikhonov_shape(args, kwargs):
    mdl = args[0] if args else kwargs["model"]
    return mdl.m, mdl.n


def _forward_kj(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.K * config.J


# exact traffic properties recorded at the call boundary
NOTES = {"model.tikhonov_solve": _tikhonov_shape, "networks.forward": _forward_kj}


class Tracer:
    """Span store for one pass: flat arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.notes = {name: Counter() for name in NOTES}
        self.bench_ids = set()
        self._stack = [-1]

    def reset(self):
        for arr in (self.name_id, self.parent, self.t0, self.t1):
            del arr[:]
        for counter in self.notes.values():
            counter.clear()
        self._stack[:] = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        sid = self._id(name)
        name_id, parent, t0, t1, stack = self.name_id, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter
        note = NOTES.get(name)
        counter = self.notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            if note is not None:
                counter[note(args, kwargs)] += 1
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span opened by the benchmark around one operation."""
        i = len(self.name_id)
        sid = self._id(name)
        self.bench_ids.add(sid)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        try:
            yield
        finally:
            self.t1[i] = time.perf_counter()
            self._stack.pop()

    def spans(self):
        """(names, name_id, parent, t0, t1) as numpy arrays."""
        return (
            np.array(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.t0, dtype=np.float64).copy(),
            np.frombuffer(self.t1, dtype=np.float64).copy(),
        )


def _cgbound_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cgbound" or name.startswith("cgbound."))]


def install(tracer):
    """Wrap every traced function everywhere it is bound; returns an undo list."""
    wrappers = {}
    for mod in TRACED_MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{short}.{attr}", fn)
    for mod, attr in EXTRA_FUNCTIONS:
        fn = getattr(mod, attr)
        wrappers[fn] = tracer.wrap(f"networks.{attr}", fn)

    undo = []
    for mod in _cgbound_modules():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for cls in (model.SpdMatrix, model.MeasurementModel):
        original = cls.__dict__["__post_init__"]
        undo.append((cls, "__post_init__", original))
        cls.__post_init__ = tracer.wrap(f"model.{cls.__name__}", original)
    for key, fn in list(backend.kernels.items()):
        undo.append((backend.kernels, key, fn))
        backend.kernels[key] = tracer.wrap(KERNEL_PREFIX + key, fn)
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def summarize(tracer):
    """Per-group calls, self and inclusive time, plus exact traffic counts."""
    names, name_id, parent, t0, t1 = tracer.spans()
    dur = t1 - t0
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    group_names = list(GROUPS) + ["backend.kernel", BENCH]
    group_of_name = np.full(len(names), -1, dtype=np.int64)
    for gi, group in enumerate(GROUPS):
        for member in GROUPS[group]:
            if member in tracer._ids:
                group_of_name[tracer._ids[member]] = gi
    kernel_gi = group_names.index("backend.kernel")
    bench_gi = group_names.index(BENCH)
    for name, sid in tracer._ids.items():
        if name.startswith(KERNEL_PREFIX):
            group_of_name[sid] = kernel_gi

    own = group_of_name[name_id]
    # unnamed spans inherit the group of their nearest named ancestor;
    # spans with no named ancestor belong to the benchmark's own code
    eff = own.copy()
    anc = parent.copy()
    need = (eff < 0) & (anc >= 0)
    while need.any():
        idx = np.flatnonzero(need)
        eff[idx] = own[anc[idx]]
        anc[idx] = parent[anc[idx]]
        need = (eff < 0) & (anc >= 0)
    eff[eff < 0] = bench_gi
    parent_eff = np.full(n, -1, dtype=np.int64)
    parent_eff[has_parent] = eff[parent[has_parent]]
    entry = (own >= 0) & (parent_eff != own)  # outermost call into a group

    summary = {}
    for gi, group in enumerate(group_names):
        in_own = own == gi
        summary[group] = {
            "calls": int(np.count_nonzero(in_own & entry)),
            "self_s": float(self_time[eff == gi].sum()),
            "incl_s": float(dur[in_own & entry].sum()),
        }
    kernel_calls = {}
    bench_incl = {}
    for sid, name in enumerate(names):
        mine = name_id == sid
        if name.startswith(KERNEL_PREFIX):
            kernel_calls[name[len(KERNEL_PREFIX):]] = int(np.count_nonzero(mine))
        elif sid in tracer.bench_ids:
            bench_incl[name] = float(dur[mine].sum())
    sc_gi = group_names.index("bounds.sample_complexity")
    geb_in_sc = int(np.count_nonzero(
        (own == group_names.index("bounds.geb_bound")) & (parent_eff == sc_gi)
    ))
    return {
        "groups": summary,
        "kernel_calls": kernel_calls,
        "bench_incl_s": bench_incl,
        "geb_in_sample_complexity": geb_in_sc,
        "notes": {name: dict(counter) for name, counter in tracer.notes.items()},
        "traced_s": float(dur[~has_parent].sum()),
    }

