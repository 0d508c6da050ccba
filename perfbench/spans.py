"""Span tracer that wraps `ilplab`'s public functions from outside the package.

Each wrapped call records one span (name, start, end, parent) in memory.  A
function imported elsewhere with ``from .x import f`` is bound under its name
in several modules, so the wrapper replaces every binding of the same object
in every loaded ``ilplab`` module; a missed binding would let calls slip past
the tracer.  The per-layer metrics are computed from the spans after the pass,
and the spans are written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "instances", "petersen", "exactla", "lp", "ilp", "hull", "measures")

#: Per-entry scalar helpers, called once per matrix entry or vector pair;
#: they are not layer boundaries and wrapping them would swamp the pass.
UNWRAPPED = {"exactla.rat", "exactla.rat_str", "exactla.vec_str", "exactla.dot"}

DIST_FUNCTIONS = ("measures.vec_dist", "measures.dist_point_set", "measures.dist_set_set")


#: span name -> (count key, what one call adds to it), read after each call
_OBSERVERS = {
    "exactla.det": ("det_nonzero", lambda args, res: res != 0),
    "lp.lp_solve": ("lp_entries_in", lambda args, res: args[0].d * args[0].n),
    "ilp.enumerate_integral_optima": ("enum_solutions", lambda args, res: len(res)),
    "measures.cook_bounds": ("cook_via_hadamard", lambda args, res: res.via_hadamard),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        #: counts taken from the arguments and results at span boundaries
        self.counts = {key: 0 for key, _ in _OBSERVERS.values()}

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        counts = self.counts
        key, observe = _OBSERVERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                counts[key] += observe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public function of each layer in every module that binds it."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "ilplab" or key.startswith("ilplab."))
        }
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = modules[f"ilplab.{layer}"]
            for attr, fn in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                    and qual not in UNWRAPPED
                ):
                    originals[id(fn)] = (qual, fn)
        wrappers = {key: self.wrap(qual, fn) for key, (qual, fn) in originals.items()}
        patched: list[tuple[object, str, object]] = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [
            [index[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


def _union_length(intervals) -> float:
    """Total length covered by (start, end) intervals given in start order."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_times(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per name: calls, busy time (union of its spans) and self time.

    A span's self time is its duration minus the part of it covered by its
    child spans.  Spans must be listed in start order, so a parent always
    precedes its children.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)
    out = {}
    for name, idxs in by_name.items():
        self_s = 0.0
        for i in idxs:
            kids = children.get(i, ())
            covered = _union_length((starts[k], ends[k]) for k in kids)
            self_s += ends[i] - starts[i] - covered
        out[name] = {
            "calls": len(idxs),
            "busy_s": _union_length((starts[i], ends[i]) for i in idxs),
            "self_s": self_s,
        }
    return out


#: name, unit, better; the order is the order of BENCHMARK.json's per_layer list.
#: A ``busy_share`` or ``self_share`` is that time as a share of the traced
#: ``cli.main`` call, so it stays put when the whole machine runs slower.
PER_LAYER = (
    ("exactla.det.calls", "count", "lower"),
    ("exactla.det.busy_share", "ratio", "lower"),
    ("exactla.det.nonzero_ratio", "ratio", "higher"),
    ("exactla.max_subdet_all.calls", "count", "lower"),
    ("exactla.max_subdet_all.self_share", "ratio", "lower"),
    ("exactla.vec.calls", "count", "lower"),
    ("exactla.vec.busy_share", "ratio", "lower"),
    ("lp.lp_solve.calls", "count", "lower"),
    ("lp.lp_solve.self_share", "ratio", "lower"),
    ("lp.lp_solve.entries_in", "entries", "lower"),
    ("lp.coord_range.calls", "count", "lower"),
    ("lp.coord_range.self_share", "ratio", "lower"),
    ("lp.is_feasible_point.busy_share", "ratio", "lower"),
    ("ilp.enumerate_integral_optima.calls", "count", "lower"),
    ("ilp.enumerate_integral_optima.self_share", "ratio", "lower"),
    ("ilp.lp_solves_per_enum", "count", "lower"),
    ("ilp.solutions", "count", "higher"),
    ("hull.integer_points_in_hull.self_share", "ratio", "lower"),
    ("hull.lp_calls", "count", "lower"),
    ("hull.points", "count", "higher"),
    ("measures.cook_bounds.self_share", "ratio", "lower"),
    ("measures.cook_bounds.via_hadamard", "count", "lower"),
    ("measures.dist.busy_share", "ratio", "lower"),
    ("measures.measure_sensitivity.self_share", "ratio", "lower"),
    ("measures.measure_proximity_lb.self_share", "ratio", "lower"),
    ("measures.fuzz_cook.self_share", "ratio", "lower"),
    ("measures.fuzz.skipped_ratio", "ratio", "lower"),
    ("measures.fuzz.checks", "count", "higher"),
    ("instances.instance_from_doc.busy_share", "ratio", "lower"),
    ("petersen.build_matching_system.calls", "count", "lower"),
    ("cli.main.self_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, output: dict | None) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the two trace timings.

    ``output`` is the command's canonical JSON output; the hull and fuzz
    figures that the program reports itself are read from it.
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    times = span_times(names, starts, ends, parents)

    def get(name: str, field: str) -> float:
        return times.get(name, {}).get(field, 0)

    main_s = get("cli.main", "busy_s")
    m: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        fn, _, field = metric.rpartition(".")
        if field == "calls":
            m[metric] = get(fn, field)
        elif field in ("busy_share", "self_share"):
            m[metric] = get(fn, field.replace("_share", "_s")) / main_s

    det_calls = get("exactla.det", "calls")
    m["exactla.det.nonzero_ratio"] = tracer.counts["det_nonzero"] / det_calls if det_calls else 0.0
    m["lp.lp_solve.entries_in"] = tracer.counts["lp_entries_in"]
    m["measures.cook_bounds.via_hadamard"] = tracer.counts["cook_via_hadamard"]
    m["ilp.solutions"] = tracer.counts["enum_solutions"]

    # LP solves made anywhere below an enumeration, per enumeration.
    under_enum = [False] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            under_enum[i] = under_enum[p] or names[p] == "ilp.enumerate_integral_optima"
    enums = get("ilp.enumerate_integral_optima", "calls")
    enum_solves = sum(
        1 for i, n in enumerate(names) if n == "lp.lp_solve" and under_enum[i]
    )
    m["ilp.lp_solves_per_enum"] = enum_solves / enums if enums else 0.0

    dist = [i for i, n in enumerate(names) if n in DIST_FUNCTIONS]
    m["measures.dist.busy_share"] = _union_length((starts[i], ends[i]) for i in dist) / main_s
    # One fuzz check is one distance computed directly by fuzz_cook.
    m["measures.fuzz.checks"] = sum(
        1
        for i in dist
        if parents[i] >= 0 and names[parents[i]] == "measures.fuzz_cook"
    )

    output = output or {}
    report = output.get("report") if isinstance(output.get("report"), dict) else {}
    m["hull.lp_calls"] = report.get("lp_calls", 0)
    m["hull.points"] = len(report.get("hull_integer_points", ()))
    trials, skipped = output.get("trials"), output.get("skipped")
    m["measures.fuzz.skipped_ratio"] = (
        skipped / (trials + skipped) if isinstance(trials, int) and trials + skipped else 0.0
    )
    return m


def cross_check(metrics: dict[str, float], output: dict | None) -> list[str]:
    """The tracer's counts against the program's own; a mismatch is a missed binding."""
    errors = []
    output = output or {}
    if "report" in output and "lp_calls" in output["report"]:
        lp_calls = output["report"]["lp_calls"]
        if metrics["lp.lp_solve.calls"] != lp_calls:
            errors.append(
                f"traced lp_solve calls {metrics['lp.lp_solve.calls']} != hull lp_calls {lp_calls}"
            )
        if 2 * metrics["lp.coord_range.calls"] != lp_calls:
            errors.append(
                f"traced coord_range calls {metrics['lp.coord_range.calls']} != hull lp_calls / 2"
            )
    if "checks" in output and metrics["measures.fuzz.checks"] != output["checks"]:
        errors.append(
            f"traced fuzz checks {metrics['measures.fuzz.checks']} != reported {output['checks']}"
        )
    return errors

