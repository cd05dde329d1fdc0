"""Span tracer that wraps the delpezzo layers from outside the program.

``Tracer.install()`` rebinds every public function of the traced modules in
each ``delpezzo.*`` namespace that holds it, so calls between modules go
through the wrappers too.  Each call becomes a span (id, name, start, end,
parent id) kept in memory; the run writes them out when it ends.
Hot arithmetic (``FFElem.__mul__``, ``FFElem.inverse``) is timed but keeps no
span, and ``Perm.__mul__`` is only counted, so the trace stays small.

A span's self time is its duration minus the time of its child spans.  A
generator is timed inside its ``next()`` calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from corpus import CHECK_METRICS

LAYERS = ("perms", "curvegraphs", "picard", "classify", "fields", "construct",
          "selfcheck", "cli")

# layers and functions reported as <layer>.<function>.{calls,self_s}
_CALLS_SELF = (
    ("perms", ("generate", "class_label", "centralizer")),
    ("curvegraphs", ("graph_action", "invariant_vertices",
                     "has_invariant_independent_set", "blowdown_action")),
    ("picard", ("invariant_rank", "is_g_minimal", "induced_lattice_action")),
    ("classify", ("g_minimal_exists",)),
    ("fields", ("subfield_elements", "elements_of_degree", "make_field", "frobenius",
                "mul", "inverse", "parse_field_literal")),
    ("construct", ("realize", "verify", "general_position", "frobenius_permutation")),
)
# names that sum several wrapped functions
_ALIASES = {
    "construct.realize": ("construct.realize_dp5", "construct.realize_dp6"),
    "construct.verify": ("construct.verify_json",),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("perms.lattice5_build_s", "s", "lower"),
            ("perms.lattice6_build_s", "s", "lower"),
            ("perms.perm_mul.calls", "count", "lower")]
    for layer, funcs in _CALLS_SELF:
        for func in funcs:
            spec += [(f"{layer}.{func}.calls", "count", "lower"),
                     (f"{layer}.{func}.self_s", "s", "lower")]
            if func == "subfield_elements":
                spec.append(("fields.subfield_elements.items", "count", "lower"))
            if func == "elements_of_degree":
                spec.append(("fields.elements_of_degree.yielded", "count", "lower"))
    spec += [("classify.aut_table.self_s", "s", "lower"),
             ("construct.path.conic5", "count", "higher"),
             ("construct.path.fourpoints", "count", "lower"),
             ("construct.scalar_use_ratio", "ratio", "higher"),
             ("cli.interpreter_s", "s", "lower"),
             ("cli.import_s", "s", "lower"),
             ("cli.main.self_s", "s", "lower")]
    spec += [(f"selfcheck.{stem}_s", "s", "lower") for _, stem in CHECK_METRICS]
    spec.append(("trace_overhead_ratio", "ratio", "lower"))
    return spec


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 1

    # --- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, count: bool = True, keep: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats[frame[1]]
        stat[0] += count
        stat[1] += duration
        stat[2] += duration - frame[3]
        if keep:
            self.spans.append((frame[0], frame[1], frame[2], end,
                               parent[0] if parent is not None else 0))

    def _in_span(self, prefix: str) -> bool:
        return any(f[1].startswith(prefix) for f in self._stack)

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, func, keep: bool = True, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame, keep=keep)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, func):
        tracer = self

        def timed(gen):
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(frame, count=False)
                    return
                except BaseException:
                    tracer._exit(frame, count=False)
                    raise
                tracer._exit(frame, count=False)
                tracer.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.stats[name][0] += 1
            return timed(func(*args, **kwargs))

        return wrapper

    def _after_realize(self, model) -> None:
        if not self._in_span("construct.realize_dp"):
            self.counts["construct.path." + model.construction.split("_")[0]] += 1

    def _after_run_all(self, results) -> None:
        stems = dict(CHECK_METRICS)
        for result in results:
            self.counts[f"selfcheck.{stems[result.name]}_s"] += result.seconds

    def install(self) -> None:
        """Rebind the traced names in every loaded delpezzo module."""
        import importlib

        for layer in LAYERS:
            importlib.import_module(f"delpezzo.{layer}")
        from delpezzo import construct, fields, perms

        modules = [m for n, m in sys.modules.items()
                   if n == "delpezzo" or n.startswith("delpezzo.")]
        after = {
            "construct.realize_dp5": self._after_realize,
            "construct.realize_dp6": self._after_realize,
            "fields.subfield_elements":
                lambda r: self._add("fields.subfield_elements.items", len(r)),
            "selfcheck.run_all": self._after_run_all,
        }
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"delpezzo.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = (obj, self._wrap_generator(name, obj))
                else:
                    replace[id(obj)] = (obj, self._wrap(name, obj, after=after.get(name)))
        # private hooks: the lattice build, and the orbits the conic path places
        lattice_class = perms._Lattice
        replace[id(lattice_class)] = (lattice_class, lambda degree: self._wrap(
            f"perms.lattice{degree}_build", lattice_class)(degree))
        stats_fn = construct._points_with_action_stats
        replace[id(stats_fn)] = (stats_fn, self._wrap(
            "construct._points_with_action_stats", stats_fn,
            after=lambda r: self._add("construct.orbits_placed", len(r[3]))))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

        perm_mul = perms.Perm.__mul__

        def counted_mul(a, b):
            self.counts["perms.perm_mul.calls"] += 1
            return perm_mul(a, b)

        perms.Perm.__mul__ = counted_mul
        fields.FFElem.__mul__ = self._wrap("fields.mul", fields.FFElem.__mul__, keep=False)
        fields.FFElem.inverse = self._wrap("fields.inverse", fields.FFElem.inverse, keep=False)

    def _add(self, name: str, n: int) -> None:
        self.counts[name] += n

    # --- results ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Flat counters: <name>.calls / .self_s / .total_s plus plain counts."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, total, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        return out


def layer_metrics(totals: dict[str, float], units: int) -> dict[str, float]:
    """Per-unit per-layer metrics from tracer totals summed over ``units`` units.

    A layer the units never reached reports 0.
    """

    def get(name, field):
        names = _ALIASES.get(name, (name,))
        return sum(totals.get(f"{n}.{field}", 0) for n in names) / units

    def count(name):
        return totals.get(name, 0) / units

    out = {
        "perms.lattice5_build_s": get("perms.lattice5_build", "total_s"),
        "perms.lattice6_build_s": get("perms.lattice6_build", "total_s"),
        "perms.perm_mul.calls": count("perms.perm_mul.calls"),
        "classify.aut_table.self_s": get("classify.aut_table", "self_s"),
        "construct.path.conic5": count("construct.path.conic5"),
        "construct.path.fourpoints": count("construct.path.fourpoints"),
        "fields.subfield_elements.items": count("fields.subfield_elements.items"),
        "fields.elements_of_degree.yielded": count("fields.elements_of_degree.yielded"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
    for _, stem in CHECK_METRICS:
        out[f"selfcheck.{stem}_s"] = count(f"selfcheck.{stem}_s")
    items = out["fields.subfield_elements.items"]
    out["construct.scalar_use_ratio"] = count("construct.orbits_placed") / items if items else 0.0
    for layer, funcs in _CALLS_SELF:
        for func in funcs:
            out[f"{layer}.{func}.calls"] = get(f"{layer}.{func}", "calls")
            out[f"{layer}.{func}.self_s"] = get(f"{layer}.{func}", "self_s")
    return out
