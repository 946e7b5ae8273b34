"""Span tracing of the library's layers, installed from outside.

``Tracer.install`` wraps every public function and method of each layer
module by reassigning module and class attributes; nothing under ``src/``
is edited.  A name that another module imported by value (``bergman``
binds ``solve`` and ``det``, ``cosheaf_homology`` binds ``rank`` and
``smith_invariants``) is rebound in that module too, so calls are seen
where they are made.  Spans live in flat arrays until the run ends;
``dump`` writes them out once and ``layer_metrics`` derives the per-layer
figures from them.
"""

from __future__ import annotations

import gzip
import inspect
import json
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "matroid",
    "bergman",
    "intlinalg",
    "fan_cycles",
    "fan_intersect",
    "cosheaf_homology",
    "surface_calculus",
    "cli",
)

# solve is reached through three routes; its spans are split by the
# nearest traced caller
SOLVE_PARENTS = {
    "bergman.Basis.decompose": "in_decompose",
    "bergman.FanPlane.contains_direction": "in_contains_direction",
    "fan_intersect.corner_multiplicities": "in_corner_multiplicities",
}

CLI_COMMANDS = (
    "matroid.info",
    "fan.build",
    "fan.reconstruct",
    "cycle.degree",
    "intersect.bezout",
    "surface.check",
    "homology.diamond",
    "homology.pairing",
)

# the functions named by the metrics above, plus the CLI entry point; the
# exceptions of every other wrapped function count into its layer's total
ERROR_SPANS = (
    "matroid.enumerate_simple_rank3",
    "matroid.from_lines",
    "matroid.is_isomorphic",
    "bergman.standard_basis",
    "bergman.build_fan",
    "bergman.reconstruct_matroid",
    "bergman.classify_missing_ray",
    "bergman.sigma",
    "bergman.Basis.decompose",
    "bergman.FanPlane.contains_direction",
    "intlinalg.solve",
    "intlinalg.det",
    "intlinalg.rank",
    "intlinalg.smith_invariants",
    "intlinalg.exterior_power",
    "fan_cycles.degree",
    "fan_cycles.lies_in",
    "fan_cycles.positive_decomposition",
    "fan_intersect.bezout",
    "fan_intersect.corner_multiplicities",
    "fan_intersect.k_squared_local",
    "fan_intersect.c2_point_multiplicity_local",
    "cosheaf_homology.parse_complex",
    "cosheaf_homology.CellComplex.boundary_matrix",
    "cosheaf_homology.homology",
    "cosheaf_homology.intersection_pairing",
    "surface_calculus.parse_surface",
    "surface_calculus.noether_check",
    "surface_calculus.adjunction_check",
    "cli.main",
)

# spans of the benchmark's set-up carry this operation id; only
# SETUP_METRICS are taken from them
SETUP_OP = -1
SETUP_METRICS = ("matroid.enumerate_simple_rank3.s",)


def _per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def add(span, *suffixes):
        for s in suffixes:
            out.append((f"{span}.{s}", "count" if s == "calls" else "s"))

    add("matroid.enumerate_simple_rank3", "s")
    add("matroid.from_lines", "calls", "s")
    add("matroid.is_isomorphic", "calls", "s")
    add("bergman.standard_basis", "calls", "s")
    out.append(("bergman.standard_basis.repeat_ratio", "ratio"))
    add("bergman.build_fan", "calls", "s", "self_s")
    add("bergman.reconstruct_matroid", "calls", "s", "self_s")
    add("bergman.classify_missing_ray", "s")
    add("bergman.sigma", "s")
    add("bergman.Basis.decompose", "calls", "s")
    add("bergman.FanPlane.contains_direction", "calls", "s")
    add("intlinalg.solve", "calls", "s")
    for route in SOLVE_PARENTS.values():
        add(f"intlinalg.solve.{route}", "calls", "s")
    add("intlinalg.det", "calls", "s")
    add("intlinalg.rank", "calls", "s")
    add("intlinalg.smith_invariants", "calls", "s")
    out.append(("intlinalg.smith_invariants.entries", "count"))
    add("intlinalg.exterior_power", "calls", "s")
    add("fan_cycles.degree", "calls", "s")
    add("fan_cycles.lies_in", "calls", "s")
    add("fan_cycles.positive_decomposition", "calls")
    add("fan_intersect.bezout", "s")
    add("fan_intersect.corner_multiplicities", "calls", "s", "self_s")
    out.append(("fan_intersect.corners_per_pair", "count/op"))
    add("fan_intersect.k_squared_local", "s")
    add("fan_intersect.c2_point_multiplicity_local", "s")
    add("cosheaf_homology.parse_complex", "s")
    add("cosheaf_homology.CellComplex.boundary_matrix", "calls", "s")
    out.append(("cosheaf_homology.boundary_matrix.repeat_ratio", "ratio"))
    add("cosheaf_homology.homology", "calls", "s")
    add("cosheaf_homology.intersection_pairing", "calls", "s")
    add("surface_calculus.parse_surface", "calls", "s")
    add("surface_calculus.noether_check", "s")
    add("surface_calculus.adjunction_check", "calls", "s")
    out.append(("cli.import_s", "s"))
    out += [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    out.append(("cli.process_overhead_s", "s"))
    out += [(f"{s}.errors", "count") for s in ERROR_SPANS]
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out.append(("trace.throughput_ratio", "ratio"))
    return out


PER_LAYER = _per_layer_metrics()


class Tracer:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()
        self.counters = Counter()
        self.sets = defaultdict(set)
        self.active = False
        self.op_id = SETUP_OP
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of every layer module of
        ``package`` (the imported ``tropsurf``)."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if _traceable(obj, attr) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mattr, fn in list(vars(obj).items()):
                        if _traceable(fn, mattr):
                            w = self._wrap(fn, f"{layer}.{obj.__name__}.{mattr}")
                            self._restore.append((obj, mattr, fn))
                            setattr(obj, mattr, w)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = _OBSERVERS.get(name)
        tracer = self
        stack = self._stack
        name_of, parent, op = self.name_of, self.parent, self.op
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if observe is not None and tracer.op_id != SETUP_OP:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- storage --------------------------------------------------------------

    def to_dict(self):
        return {
            "names": self.names,
            "name_of": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "sets": {k: sorted(map(list, v)) for k, v in self.sets.items()},
        }

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(self.to_dict(), fh)

    def merge(self, d):
        """Append the spans and counts of another tracer's ``to_dict``."""
        remap = []
        for name in d["names"]:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            remap.append(nid)
        base = len(self.start)
        self.name_of.extend(remap[i] for i in d["name_of"])
        self.parent.extend(p + base if p >= 0 else -1 for p in d["parent"])
        self.op.extend(d["op"])
        self.start.extend(d["start"])
        self.end.extend(d["end"])
        self.errors.update(d["errors"])
        self.counters.update(d["counters"])
        for k, v in d["sets"].items():
            self.sets[k].update(tuple(x) for x in v)

    # -- derived metrics ------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric of ``PER_LAYER`` except the overhead ratio,
        which needs the untraced run."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, excl = Counter(), defaultdict(float), defaultdict(float)
        setup_incl = defaultdict(float)
        for i in range(n):
            nid = self.name_of[i]
            name = self.names[nid]
            outermost = self._outermost(i, nid)
            if self.op[i] == SETUP_OP:
                if outermost:
                    setup_incl[name] += dur[i]
                continue
            calls[name] += 1
            excl[name] += dur[i] - child[i]
            if outermost:
                incl[name] += dur[i]
            if name == "intlinalg.solve":
                p = self.parent[i]
                route = SOLVE_PARENTS.get(self.names[self.name_of[p]]) if p >= 0 else None
                if route:
                    calls[f"intlinalg.solve.{route}"] += 1
                    incl[f"intlinalg.solve.{route}"] += dur[i]

        c = self.counters
        s = self.sets
        values = {}
        for metric, _ in PER_LAYER:
            span, suffix = metric.rsplit(".", 1)
            if metric in SETUP_METRICS:
                values[metric] = setup_incl[span]
            elif suffix == "errors" and span in LAYERS:
                values[metric] = sum(
                    v for k, v in self.errors.items() if k.startswith(span + ".")
                )
            elif suffix == "errors":
                values[metric] = self.errors[span]
            elif suffix == "calls":
                values[metric] = calls[span]
            elif suffix == "self_s":
                values[metric] = excl[span]
            elif suffix == "s":
                values[metric] = incl[span]
        values["bergman.standard_basis.repeat_ratio"] = _ratio(
            calls["bergman.standard_basis"], len(s["standard_basis_dims"])
        )
        values["cosheaf_homology.boundary_matrix.repeat_ratio"] = _ratio(
            calls["cosheaf_homology.CellComplex.boundary_matrix"], len(s["boundary_keys"])
        )
        values["intlinalg.smith_invariants.entries"] = c["smith_entries"]
        values["fan_intersect.corners_per_pair"] = _ratio(c["corners"], c["bezout_pairs"])
        values["cli.import_s"] = c["cli_import_s"]
        for command in CLI_COMMANDS:
            span = "cli.cmd_" + command.replace(".", "_")
            values[f"cli.{command}.s"] = incl[span]
        values["cli.process_overhead_s"] = c["cli_process_wall_s"] - incl["cli.main"]
        return values

    def _outermost(self, i, nid):
        """False when a span of the same name encloses span i (recursion),
        so that inclusive time is not taken twice."""
        p = self.parent[i]
        while p >= 0:
            if self.name_of[p] == nid:
                return False
            p = self.parent[p]
        return True


def _traceable(obj, attr):
    return (
        isinstance(obj, types.FunctionType)
        and not attr.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    )


def _ratio(num, den):
    return num / den if den else 0.0


# -- argument and result observers ---------------------------------------------


def _observe_standard_basis(tracer, args, result):
    tracer.sets["standard_basis_dims"].add((args[0],))


def _observe_boundary_matrix(tracer, args, result):
    self, p, q = args[:3]
    tracer.sets["boundary_keys"].add((tracer.op_id, id(self), p, q))


def _observe_smith(tracer, args, result):
    rows = args[0]
    tracer.counters["smith_entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _observe_bezout(tracer, args, result):
    tracer.counters["bezout_pairs"] += 1
    tracer.counters["corners"] += len(result["corners"])


_OBSERVERS = {
    "bergman.standard_basis": _observe_standard_basis,
    "cosheaf_homology.CellComplex.boundary_matrix": _observe_boundary_matrix,
    "intlinalg.smith_invariants": _observe_smith,
    "fan_intersect.bezout": _observe_bezout,
}
