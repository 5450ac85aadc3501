"""Spans and call counts recorded from outside the package.

The tracer replaces public functions and methods of the sadiclab modules
with thin wrappers while an op runs, and puts the originals back after it.
Each wrapped call of a *span* target records (name, start, end, parent
span, op id) in flat arrays; a *count* target only bumps a counter, for
constructors and operators that run far too often to time one by one.
Spans stay in memory and are written out once, when the run ends.

Self time of a span is its duration minus the time its direct children
cover; children of one span never overlap, because the program is single
threaded.
"""

import time
from array import array
from collections import Counter

import numpy as np

# (module, owner attribute or None, attribute, layer name)
SPANS = [
    ("cli", None, "run", "cli.run"),
    ("cli", None, "parse_config", "cli.parse_config"),
    ("cli", None, "emit_report", "cli.emit_report"),
    ("numberfield", "FieldElement", "__mul__", "numberfield.FieldElement.mul"),
    ("numberfield", "FieldElement", "__rmul__", "numberfield.FieldElement.mul"),
    ("numberfield", "FinitePlace", "valuation", "numberfield.FinitePlace.valuation"),
    ("numberfield", None, "finite_places", "numberfield.finite_places"),
    ("polyarith", None, "int_resultant", "polyarith.int_resultant"),
    ("polyarith", None, "hensel_lift_factors", "polyarith.hensel_lift_factors"),
    ("lattice", "PointCloud", "__init__", "lattice.PointCloud.build"),
    ("lattice", "PointCloud", "norms_under", "lattice.norms_under"),
    ("lattice", "PointCloud", "format_point", "lattice.format_point"),
    ("dynamics", None, "trajectory", "dynamics.trajectory"),
    ("dynamics", None, "divergence_survey", "dynamics.divergence_survey"),
    ("forms", None, "value_spectrum", "forms.value_spectrum"),
    ("forms", "DecomposableForm", "magnitudes", "forms.magnitudes"),
    ("forms", None, "rationality_reconstruct", "forms.rationality_reconstruct"),
    ("forms", None, "discreteness_report", "forms.discreteness_report"),
]

COUNTS = [
    ("numberfield", "FieldElement", "__init__", "numberfield.FieldElement.new"),
    ("numberfield", "FinitePlace", "refined", "numberfield.FinitePlace.refined"),
    ("surd", "QuadraticSurd", "__mul__", "surd.QuadraticSurd.mul"),
    ("surd", "QuadraticSurd", "__rmul__", "surd.QuadraticSurd.mul"),
    ("surd", "QuadraticSurd", "to_mpf", "surd.QuadraticSurd.to_mpf"),
]


def _cloud_built(counters, args, result):
    counters["lattice.PointCloud.points"] += args[0].count


def _norms_read(counters, args, result):
    cloud = args[0]
    counters["lattice.norms_under.point_evals"] += cloud.count
    counters["lattice.norms_under.bytes_computed"] += (
        sum(W.nbytes for _, W in cloud.arch)
        + sum(vals.nbytes for _, vals, _, _ in cloud.fin))


def _spectrum_kept(counters, args, result):
    counters["forms.refine.points_kept"] += sum(e.count for e in result.entries)


# Extra counters read off arguments or results at a layer boundary.
OBSERVERS = {
    "lattice.PointCloud.build": _cloud_built,
    "lattice.norms_under": _norms_read,
    "forms.value_spectrum": _spectrum_kept,
}


class Tracer:
    """Installs the wrappers on demand; records only while installed."""

    def __init__(self, package):
        self._targets = []
        for module, owner, attr, name in SPANS + COUNTS:
            obj = getattr(package, module)
            if owner is not None:
                obj = getattr(obj, owner)
            self._targets.append((obj, attr, getattr(obj, attr), name,
                                  (module, owner, attr, name) in COUNTS))
        self.names = sorted({t[3] for t in self._targets})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = Counter()
        self._stack = []
        self._op_id = -1

    # -- installation ---------------------------------------------------------

    def install(self, op_id):
        self._op_id = op_id
        for obj, attr, fn, name, count_only in self._targets:
            wrapper = self._counter(fn, name) if count_only else \
                self._span(fn, name, OBSERVERS.get(name))
            setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, fn, _, _ in self._targets:
            setattr(obj, attr, fn)
        self._stack.clear()
        self._op_id = -1

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name, observe):
        ident = self._ids[name]
        counts, stack = self.counts, self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(idx)
            counts[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    # -- results --------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def self_times(self):
        """Total self time per span name, in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = np.bincount(a["name"], weights=dur - child,
                          minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
