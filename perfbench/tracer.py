"""In-memory spans and counters around tdlek's public functions.

The tracer wraps functions by attribute replacement: a function is
replaced in every loaded ``tdlek`` module that holds it, so calls made
inside the package (``check`` is imported by models, dynamics, suites and
cli) go through the wrapper too.  Two constructors are counted by wrapping
the class attribute that every instance creation calls.

A span is (name, start, end, parent span, item id), kept in flat arrays
so a traced pass of a few hundred thousand calls stays small.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

PACKAGE = "tdlek"

# (metric prefix, module, attribute): spans give calls and self time.
SPANNED = (
    ("models.check", "models", "check"),
    ("models.extension", "models", "extension"),
    ("models.world_interval", "models", "world_interval"),
    ("formulas.time_of", "formulas", "time_of"),
    ("formulas.substitute", "formulas", "substitute"),
    ("formulas.parse", "formulas", "parse"),
    ("dynamics.apply", "dynamics", "apply"),
    ("dynamics.check_dynamic", "dynamics", "check_dynamic"),
    ("agent.infer_fixpoint", "agent", "infer_fixpoint"),
    ("agent.to_model", "agent", "to_model"),
    ("cli.main", "cli", "main"),
    ("cli.trace_json_lines", "agent", "trace_json_lines"),
)

# Hot, tiny functions: counted only, since a span would cost more than the call.
COUNTED = (
    ("formulas.free_vars", "formulas", "free_vars"),
    ("formulas.match_atom", "formulas", "match_atom"),
    ("intervals.subset", "intervals", "subset"),
)

# Constructors: (metric, module, class, method every instance creation calls).
CONSTRUCTED = (
    ("intervals.Interval.new", "intervals", "Interval", "__post_init__"),
    ("models.TLekModel.new", "models", "TLekModel", "__init__"),
)


def fit_exponent(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


class Tracer:
    """Owns the spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.item_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self.infer_points: list[tuple[int, int, float]] = []  # (item, final wm size, seconds)
        self.model_points: list[tuple[int, int]] = []  # (horizon, atoms)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _module(self, short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for metric, short, attr in SPANNED:
            original = getattr(self._module(short), attr)
            self._replace_everywhere(original, self._spanned(metric, original))
        for metric, short, attr in COUNTED:
            original = getattr(self._module(short), attr)
            self._replace_everywhere(original, self._counted(metric, original))
        for metric, short, cls_name, method in CONSTRUCTED:
            cls = getattr(self._module(short), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._counted(metric, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, metric: str, fn):
        nid = len(self.names)
        self.names.append(metric)
        post = {
            "dynamics.apply": self._after_apply,
            "agent.infer_fixpoint": self._after_infer,
            "agent.to_model": self._after_to_model,
        }.get(metric)
        clock = time.perf_counter
        stack, name_of, parent, item_of = self.stack, self.name_of, self.parent, self.item_of
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_of.append(self.item)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
            if post is not None:
                post(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _counted(self, metric: str, fn):
        counts = self.counts
        calls = metric if metric.endswith(".new") else metric + ".calls"
        if metric == "formulas.match_atom":
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                result = fn(*args, **kwargs)
                if result is not None:
                    counts["formulas.match_atom.hits"] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _after_apply(self, args, kwargs, outcome, seconds) -> None:
        self.counts["dynamics.apply.applied"] += int(outcome.applied)

    def _after_infer(self, args, kwargs, state, seconds) -> None:
        before = args[0] if args else kwargs["st"]
        fired_type = self._module("agent").Fired
        fired = sum(1 for ev in state.trace[len(before.trace):] if isinstance(ev, fired_type))
        self.counts["agent.firings"] += fired
        self.infer_points.append((self.item, len(state.wm), seconds))

    def _after_to_model(self, args, kwargs, model, seconds) -> None:
        horizon = args[1] if len(args) > 1 else kwargs["horizon"]
        atoms = sum(len(w.atoms) for w in model.worlds.values())
        self.counts["agent.to_model.atoms"] += atoms
        self.model_points.append((horizon, atoms))

    # -- results -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i]) - child[i]

        def ratio(part: str, whole: int) -> float:
            return self.counts[part] / whole if whole else 0.0

        out: dict[str, tuple[float, str]] = {}
        for metric, _, _ in SPANNED:
            out[f"{metric}.calls"] = (calls[metric], "count")
            out[f"{metric}.self_s"] = (self_s[metric], "s")
        for metric, _, _ in COUNTED:
            out[f"{metric}.calls"] = (self.counts[f"{metric}.calls"], "count")
        for metric, _, _, _ in CONSTRUCTED:
            out[metric] = (self.counts[metric], "count")
        out["dynamics.apply.applied_ratio"] = (
            ratio("dynamics.apply.applied", calls["dynamics.apply"]), "ratio")
        out["formulas.match_atom.hit_ratio"] = (
            ratio("formulas.match_atom.hits", self.counts["formulas.match_atom.calls"]), "ratio")
        out["agent.firings"] = (self.counts["agent.firings"], "count")
        out["agent.infer_fixpoint.exponent"] = (fit_exponent(self.infer_by_item()), "log/log")
        out["agent.to_model.atoms"] = (self.counts["agent.to_model.atoms"], "count")
        out["agent.to_model.atoms_exponent"] = (fit_exponent(self.model_points), "log/log")
        return out

    def infer_by_item(self) -> list[tuple[int, float]]:
        """The chaining size sweep: per item, final working-memory size and
        total seconds spent in infer_fixpoint."""
        sizes: dict[int, int] = {}
        seconds: dict[int, float] = {}
        for item, wm, secs in self.infer_points:
            sizes[item] = max(wm, sizes.get(item, 0))
            seconds[item] = seconds.get(item, 0.0) + secs
        return [(sizes[i], seconds[i]) for i in sorted(sizes)]

    def atoms_by_horizon(self) -> dict[int, list[int]]:
        """The to_model size sweep: atoms built at each horizon, in call order."""
        table: dict[int, list[int]] = {}
        for horizon, atoms in self.model_points:
            table.setdefault(horizon, []).append(atoms)
        return dict(sorted(table.items()))
