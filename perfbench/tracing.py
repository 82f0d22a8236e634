"""In-memory span tracer built from wrappers around the package's public
functions and methods: those behind the benchmark's per-layer metrics, and
no others, so every wrapped layer's self time is reported.

Modules of the package import names from each other directly (``rsh`` binds
``admissible_sequences`` from ``towers``), so patching the defining module
alone would miss calls made inside the package.  ``Tracer.install`` therefore
replaces a target in every loaded ``rokhlin`` module namespace that binds the
same function object, and replaces methods on their class.  ``uninstall``
puts every original back.

Each call records a span: layer index, start, end, parent span and the
operation it belongs to.  Spans are kept in flat arrays and written out with
``save``.  Aggregates (calls, inclusive time, self time) are accumulated as
spans close; inclusive time counts only the outermost span of a layer, so
recursion is not counted twice, and self time is the span's duration minus
the time its wrapped child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

import numpy as np

from rokhlin import cli, crossed, cuntz, matrixfn, rsh, subshift, towers

# (module, function name, layer name)
FUNCTIONS = [
    (towers, "build_towers", "towers.build_towers"),
    (towers, "verify_rokhlin_axioms", "towers.verify_rokhlin_axioms"),
    (towers, "partition_identities", "towers.partition_identities"),
    (towers, "boundary_path_cover", "towers.boundary_path_cover"),
    (towers, "admissible_sequences", "towers.admissible_sequences"),
    (crossed, "gamma_component", "crossed.gamma_component"),
    (crossed, "gamma_eval", "crossed.gamma_eval"),
    (crossed, "project_to_subalgebra", "crossed.project_to_subalgebra"),
    (crossed, "in_ob_subalgebra", "crossed.in_ob_subalgebra"),
    (crossed, "injectivity_witness", "crossed.injectivity_witness"),
    (rsh, "lift", "rsh.lift"),
    (rsh, "stage_violations", "rsh.stage_violations"),
    (rsh, "beta_boundary", "rsh.beta_boundary"),
    (rsh, "stage_from_gamma", "rsh.stage_from_gamma"),
    (rsh, "sample_stage_element", "rsh.sample_stage_element"),
    (cuntz, "eps_cut", "cuntz.eps_cut"),
    (cuntz, "cuntz_leq", "cuntz.cuntz_leq"),
    (cli, "load_config", "cli.load_config"),
    (cli, "_emit", "cli.report_emit"),
]

# (class, attribute, layer name); several attributes may share one layer.
METHODS = [
    (subshift.SubstitutionSystem, "__init__", "subshift.SubstitutionSystem.init"),
    (subshift.SubstitutionSystem, "language", "subshift.language"),
    (subshift.ClopenSet, "__init__", "subshift.ClopenSet.init"),
    (subshift.ClopenSet, "words_on", "subshift.ClopenSet.words_on"),
    (subshift.ClopenSet, "__and__", "subshift.ClopenSet.setops"),
    (subshift.ClopenSet, "__or__", "subshift.ClopenSet.setops"),
    (subshift.ClopenSet, "__sub__", "subshift.ClopenSet.setops"),
    (subshift.ClopenSet, "shift", "subshift.ClopenSet.setops"),
    (subshift.ClopenSet, "issubset", "subshift.ClopenSet.setops"),
    (subshift.ClopenSet, "__eq__", "subshift.ClopenSet.setops"),
    (subshift.PointWindow, "__init__", "subshift.PointWindow.init"),
    (towers.RokhlinSystem, "tower_union", "towers.RokhlinSystem.tower_union"),
    (crossed.FormalElement, "__mul__", "crossed.FormalElement.mul"),
    (crossed.CylinderFunction, "__init__", "crossed.CylinderFunction.init"),
    (matrixfn.MatrixCylinderFunction, "__init__",
     "matrixfn.MatrixCylinderFunction.init"),
    (matrixfn.MatrixCylinderFunction, "value_at",
     "matrixfn.MatrixCylinderFunction.value_at"),
    (matrixfn.MatrixCylinderFunction, "values_on",
     "matrixfn.MatrixCylinderFunction.values_on"),
    (matrixfn.MatrixCylinderFunction, "allclose",
     "matrixfn.MatrixCylinderFunction.allclose"),
    (cuntz.PositiveElement, "__init__", "cuntz.PositiveElement.init"),
]


class _RepeatCounter:
    """Counts calls whose key (an object and an argument) was seen before."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()
        self.calls = 0
        self.repeats = 0

    def observe(self, owner, arg):
        self.calls += 1
        keys = self.seen.setdefault(owner, set())
        if arg in keys:
            self.repeats += 1
        else:
            keys.add(arg)

    @property
    def ratio(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    SETUP, OPS = 0, 1  # phases: aggregates are kept per phase

    def __init__(self):
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.phase = self.SETUP
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: list[int] = []
        # [phase][layer]
        self.calls = [[], []]
        self.incl = [[], []]
        self.self_time = [[], []]
        self.language = _RepeatCounter()
        self.paths = _RepeatCounter()
        self.paths_built = 0
        self.paths_nonempty = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- layers and spans ---------------------------------------------------

    def layer(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self.layers)
            self.layers.append(name)
            self._depth.append(0)
            for table in (self.calls, self.incl, self.self_time):
                for row in table:
                    row.append(0)
        return k

    def _open(self, k: int) -> int:
        idx = len(self.span_layer)
        self.span_layer.append(k)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[k] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        return idx

    def _close(self, idx: int, k: int):
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        phase = self.phase
        self.calls[phase][k] += 1
        self.self_time[phase][k] += dur - child
        self._depth[k] -= 1
        if self._depth[k] == 0:
            self.incl[phase][k] += dur

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span of layer ``name`` per call; ``observe``
        sees each call's positional arguments and result."""
        k = self.layer(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, k)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _observers(self):
        def language(args, result):
            self.language.observe(args[0], args[1])

        def paths(args, result):
            self.paths.observe(args[0], args[1])
            self.paths_built += len(result)
            self.paths_nonempty += sum(1 for p in result
                                       if not p.path_set.is_empty())

        return {"subshift.language": language,
                "towers.admissible_sequences": paths}

    def install(self):
        """Patch every target in every loaded package module and class."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rokhlin"
                                         or name.startswith("rokhlin."))]
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            traced = self.wrap(name, original, observers.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, traced)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, observers.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def total(self, name: str, phase: int | None = None) -> dict:
        """Calls, inclusive and self seconds of one layer, over one phase or both."""
        k = self._index.get(name)
        phases = (self.SETUP, self.OPS) if phase is None else (phase,)
        if k is None:
            return {"calls": 0, "s": 0.0, "self_s": 0.0}
        return {"calls": sum(self.calls[p][k] for p in phases),
                "s": sum(self.incl[p][k] for p in phases),
                "self_s": sum(self.self_time[p][k] for p in phases)}

    def save(self, path):
        """Write every span to a ``.npz`` file: layer names, and per span its
        layer index, start, end, parent span index (-1 at a root) and
        operation index (-1 during set-up)."""
        np.savez(path, layers=np.array(self.layers),
                 layer=np.frombuffer(self.span_layer, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))

