"""Call tracing of displacement_kit from outside the package.

`rebind` wraps every public function of every package module, and the
methods listed in METHODS, in a wrapper that records one span (name, start,
end, parent).  A function imported elsewhere with ``from ... import`` is bound
by value in the importing module, so each wrapper is rebound under every name
in every package module (and in module-level dicts such as
``verification.OPERATOR_BUILDERS``) that holds the original; otherwise calls
between modules would go unseen.  Class attributes that alias a method
(``__call__ = apply``, ``__matmul__ = compose``) are rebound with it.

Spans live in four flat arrays in memory and are turned into per-layer
metrics (`layer_metrics`) and a span file (`save`) only when a round ends.
The same rebinding serves the negative control (`patched`), which swaps in a
wrapper that perturbs results instead of timing them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

import numpy as np

#: (module, class, method) wrapped besides the public module-level functions
METHODS = (
    ("isometry_core", "FiniteOrderIsometry", "apply"),
    ("isometry_core", "FiniteOrderIsometry", "adjoint_apply"),
    ("isometry_core", "FiniteOrderIsometry", "apply_power"),
    ("displacement_calculus", "PolynomialOperator", "apply"),
    ("displacement_calculus", "PolynomialOperator", "compose"),
    ("displacement_calculus", "AffineSubspace", "__init__"),
    ("iteration_lab", "Trajectory", "to_dict"),
)

#: public helpers left unwrapped: `as_vector` runs inside every R.apply, and a
#: span around it would double the span count of the apply-heavy workloads and
#: carve input validation out of apply's self time.
SKIP = {("isometry_core", "as_vector")}

#: layer name used in metrics -> span names that make it up
LAYERS = {
    "isometry_core.apply": ("isometry_core.FiniteOrderIsometry.apply",),
    "isometry_core.apply_power": ("isometry_core.FiniteOrderIsometry.apply_power",),
    "isometry_core.make_dense": ("isometry_core.make_dense",),
    "displacement_calculus.poly_apply": ("displacement_calculus.PolynomialOperator.apply",),
    "displacement_calculus.compose": ("displacement_calculus.PolynomialOperator.compose",),
    "displacement_calculus.fixed_space_basis": (
        "displacement_calculus.fixed_space_basis",
        "displacement_calculus.orthonormal_columns",  # the Gram-Schmidt it calls
    ),
    "displacement_calculus.set_valued_inverse": ("displacement_calculus.set_valued_inverse",),
    "displacement_calculus.affine_subspace": ("displacement_calculus.AffineSubspace.__init__",),
    "resolvent_yosida.coefficients": ("resolvent_yosida.resolvent_coefficients",),
    "resolvent_yosida.series": ("resolvent_yosida.series_resolvent_apply",),
    "dense_oracle.materialize": ("dense_oracle.materialize",),
    "dense_oracle.oracle_resolvent": ("dense_oracle.oracle_resolvent",),
    "dense_oracle.oracle_svd": ("dense_oracle.oracle_pinv", "dense_oracle.oracle_projector_fix"),
    "dense_oracle.compare": ("dense_oracle.compare",),
    "iteration_lab.lipschitz_estimate": ("iteration_lab.lipschitz_estimate",),
    "iteration_lab.proximal_point": ("iteration_lab.proximal_point",),
    "iteration_lab.ergodic_mean": ("iteration_lab.ergodic_mean",),
    "iteration_lab.trajectory_to_dict": ("iteration_lab.Trajectory.to_dict",),
    "io_utils.load_vector": ("io_utils.load_vector",),
    "cli.main": ("cli.main",),
    "verification.run_verification": ("verification.run_verification",),
}

#: (metric, layer, statistic); statistic is "calls" or "self_s"
LAYER_METRICS = (
    ("isometry_core.apply.calls", "isometry_core.apply", "calls"),
    ("isometry_core.apply.self_s", "isometry_core.apply", "self_s"),
    ("isometry_core.apply_power.calls", "isometry_core.apply_power", "calls"),
    ("isometry_core.apply_power.self_s", "isometry_core.apply_power", "self_s"),
    ("isometry_core.make_dense.self_s", "isometry_core.make_dense", "self_s"),
    ("displacement_calculus.poly_apply.calls", "displacement_calculus.poly_apply", "calls"),
    ("displacement_calculus.poly_apply.self_s", "displacement_calculus.poly_apply", "self_s"),
    ("displacement_calculus.compose.calls", "displacement_calculus.compose", "calls"),
    ("displacement_calculus.fixed_space_basis.self_s", "displacement_calculus.fixed_space_basis", "self_s"),
    ("displacement_calculus.set_valued_inverse.self_s", "displacement_calculus.set_valued_inverse", "self_s"),
    ("displacement_calculus.affine_subspace.self_s", "displacement_calculus.affine_subspace", "self_s"),
    ("resolvent_yosida.coefficients.calls", "resolvent_yosida.coefficients", "calls"),
    ("resolvent_yosida.coefficients.self_s", "resolvent_yosida.coefficients", "self_s"),
    ("resolvent_yosida.series.self_s", "resolvent_yosida.series", "self_s"),
    ("dense_oracle.materialize.calls", "dense_oracle.materialize", "calls"),
    ("dense_oracle.materialize.self_s", "dense_oracle.materialize", "self_s"),
    ("dense_oracle.oracle_resolvent.self_s", "dense_oracle.oracle_resolvent", "self_s"),
    ("dense_oracle.oracle_svd.self_s", "dense_oracle.oracle_svd", "self_s"),
    ("dense_oracle.compare.self_s", "dense_oracle.compare", "self_s"),
    ("iteration_lab.lipschitz_estimate.self_s", "iteration_lab.lipschitz_estimate", "self_s"),
    ("iteration_lab.proximal_point.self_s", "iteration_lab.proximal_point", "self_s"),
    ("iteration_lab.ergodic_mean.self_s", "iteration_lab.ergodic_mean", "self_s"),
    ("iteration_lab.trajectory_to_dict.self_s", "iteration_lab.trajectory_to_dict", "self_s"),
    ("io_utils.load_vector.self_s", "io_utils.load_vector", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("verification.run_verification.self_s", "verification.run_verification", "self_s"),
)


def package_modules(package) -> list:
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _targets(package) -> list:
    """(span name, owner, attribute, original) for everything to wrap."""
    prefix = package.__name__ + "."
    found = []
    for mod in package_modules(package)[1:]:
        short = mod.__name__[len(prefix):]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
                and (short, name) not in SKIP
            ):
                found.append((f"{short}.{name}", mod, name, obj))
    for short, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(prefix + short), cls_name)
        found.append((f"{short}.{cls_name}.{meth}", cls, meth, cls.__dict__[meth]))
    return found


def rebind(package, make_wrapper) -> list:
    """Replace each target by ``make_wrapper(span_name, original)`` wherever it is bound.

    Returns the undo list of (owner, key, original) for `restore`.
    """
    targets = _targets(package)
    wrappers = {id(orig): make_wrapper(span, orig) for span, _, _, orig in targets}
    owners = package_modules(package)
    owners += list({id(obj): obj for _, obj, _, _ in targets if inspect.isclass(obj)}.values())
    undo = []
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if id(value) in wrappers:
                undo.append((owner, key, value))
                setattr(owner, key, wrappers[id(value)])
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if id(v) in wrappers:
                        undo.append((value, k, v))
                        value[k] = wrappers[id(v)]
    return undo


def restore(undo: list) -> None:
    for owner, key, value in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)


@contextlib.contextmanager
def patched(package, make_wrapper):
    undo = rebind(package, make_wrapper)
    try:
        yield
    finally:
        restore(undo)


class Tracer:
    """Flat in-memory span store; one instance per traced round."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: dict = {}

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrapper(self, span: str, fn):
        sid = self._id(span)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        tracer = self
        count_iterations = span == "iteration_lab.proximal_point"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(names)
            names.append(sid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = parent
                starts[idx] = t0
                ends[idx] = t1
            if count_iterations:
                key = "iteration_lab.proximal_point.iterations"
                tracer.counters[key] = tracer.counters.get(key, 0) + result.iterations_used
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _descendant_counts(name_id, parent, ancestor_ids, child_ids) -> tuple:
    """(number of ancestor spans, child spans with such an ancestor at any depth).

    Parents are opened before their children, so one forward sweep finds for
    every span whether an ancestor (or the span itself) is of ``ancestor_ids``.
    """
    n = name_id.shape[0]
    is_anc = np.isin(name_id, ancestor_ids)
    under = np.zeros(n, dtype=bool)
    par = parent.tolist()
    anc = is_anc.tolist()
    flags = under.tolist()
    for i in range(n):
        p = par[i]
        flags[i] = p >= 0 and (anc[p] or flags[p])
    under = np.array(flags, dtype=bool)
    return int(is_anc.sum()), int((under & np.isin(name_id, child_ids)).sum())


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer calls, self time and R.apply counts of one traced round."""
    names = list(spans["names"])
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0]
    )
    self_time = dur - child_time
    per_name_self = np.bincount(name_id, weights=self_time, minlength=len(names))
    per_name_calls = np.bincount(name_id, minlength=len(names))

    def ids(span_names) -> list:
        return [names.index(s) for s in span_names if s in names]

    out = {}
    for metric, layer, stat in LAYER_METRICS:
        sel = ids(LAYERS[layer])
        if stat == "calls":
            out[metric] = int(sum(int(per_name_calls[i]) for i in sel))
        else:
            out[metric] = float(sum(float(per_name_self[i]) for i in sel))
    apply_ids = ids(LAYERS["isometry_core.apply"])
    polys, poly_applies = _descendant_counts(
        name_id, parent, ids(LAYERS["displacement_calculus.poly_apply"]), apply_ids
    )
    out["displacement_calculus.poly_apply.r_applies_per_call"] = (
        poly_applies / polys if polys else 0.0
    )
    _, series_applies = _descendant_counts(
        name_id, parent, ids(LAYERS["resolvent_yosida.series"]), apply_ids
    )
    out["resolvent_yosida.series.r_applies"] = series_applies
    out["iteration_lab.proximal_point.iterations"] = int(
        counters.get("iteration_lab.proximal_point.iterations", 0)
    )
    return out


def save(path, rounds: list) -> None:
    """Write the spans of every traced round to one .npz file."""
    payload = {}
    for r, spans in enumerate(rounds):
        for key, value in spans.items():
            payload[f"round{r}_{key}"] = value
    np.savez(path, **payload)
