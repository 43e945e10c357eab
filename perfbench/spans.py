"""Layer spans for the traced run, installed from outside the program.

Each layer entry point is wrapped by module attribute.  A wrapped call
records a span (name, start, end, parent span, command id, exception name)
in memory; work counts are computed from the call's arguments and return
value after the span has closed, and the time they take is charged to no
layer.  A layer's self time is its spans' durations minus the part covered
by their child spans.

An attribute that no longer exists is reported as absent, so a refactor
that removes or renames an entry point does not break the benchmark.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

# Work counts, each computed from (args, kwargs, result) of one call.
def _build_counts(args, kwargs, plan):
    return {"directions": sum(len(ds) for ds in plan.streams.values())}


def _expand_counts(args, kwargs, prof):
    return {"arrivals": sum(prof.multiplicity.values()), "distinct": len(prof.interference)}


def _lattice_counts(args, kwargs, result):
    return {"points": len(result[0])}


def _nearest_counts(args, kwargs, result):
    return {"queries": len(args[0] if args else kwargs["y"])}


def _min_abs_counts(args, kwargs, result):
    radii = args[1] if len(args) > 1 else kwargs["radii"]
    return {"box_points": math.prod(2 * int(r) + 1 for r in radii)}


# (span name, module, attribute, count function)
LAYERS = (
    ("cli", "iadof.cli", "main", None),
    ("bounds.dof_report", "iadof.bounds", "dof_report", None),
    ("bounds.dof_upper_bound", "iadof.bounds", "dof_upper_bound", None),
    ("alignment.build", "iadof.alignment", "build_transmit_directions", _build_counts),
    ("alignment.truncate", "iadof.alignment", "truncate_plan", None),
    ("alignment.expand", "iadof.alignment", "expand_received", _expand_counts),
    ("alignment.verify", "iadof.alignment", "verify_alignment", None),
    ("channel.generate", "iadof.channel", "generate_channel", None),
    ("simulate.simulate_plan", "iadof.simulate", "simulate_plan", None),
    ("simulate.antenna_model", "iadof.simulate", "antenna_model", None),
    ("simulate.amplitude", "iadof.simulate", "amplitude_scale", None),
    ("simulate.lattice", "iadof.simulate", "_lattice_values", _lattice_counts),
    ("simulate.min_distance", "iadof.simulate", "min_distance", None),
    ("kernels.nearest", "iadof._kernels", "nearest_candidate_indices", _nearest_counts),
    ("kernels.min_abs", "iadof._kernels", "min_abs_combination", _min_abs_counts),
)

# (counter name, module, attribute): calls counted without a span, for entry
# points called too often for a span each.
COUNTERS = (("bounds.balance_solves", "iadof.bounds", "solve_partition_balance"),)

# Exceptions that mean "budget refused", counted wherever a span sees them.
BUDGET_ERRORS = ("DecodeBudgetError", "EnumerationBudgetError")

_NAME, _START, _END, _PARENT, _CMD, _ERROR, _COUNTS, _HIDDEN = range(8)


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer entry point in every loaded iadof module that
        holds it, so `from x import f` callers are traced too."""
        self.absent.clear()
        for name, module, attr, count in LAYERS:
            self._wrap(name, module, attr, self._span_wrapper(name, count))
        for name, module, attr in COUNTERS:
            self.counters[name] = 0
            self._wrap(name, module, attr, self._count_wrapper(name))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name, module, attr, make):
        try:
            original = getattr(importlib.import_module(module), attr, None)
        except ModuleNotFoundError:
            original = None
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "iadof" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                span = [name, 0, 0, parent, self.command, None, None, 0]
                stack.append(len(spans))
                spans.append(span)
                span[_START] = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as e:
                    span[_END] = clock()
                    span[_ERROR] = type(e).__name__
                    raise
                finally:
                    stack.pop()
                span[_END] = clock()
                if count is not None:
                    try:
                        span[_COUNTS] = count(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        span[_COUNTS] = None  # the call's shape changed
                    if parent >= 0:
                        spans[parent][_HIDDEN] += clock() - span[_END]
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def _count_wrapper(self, name):
        counters = self.counters

        def make(fn):
            def counted(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        return make

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "absent": list(self.absent)}


def layer_totals(exported: list[dict]) -> dict:
    """Per-layer calls, self time (s), work counts and budget refusals over
    the exported span sets of one pass."""
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    for data in exported:
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        for i, s in enumerate(spans):
            t = layers.setdefault(s[_NAME], {"calls": 0, "self_s": 0.0, "refusals": 0, "counts": {}})
            t["calls"] += 1
            t["self_s"] += (s[_END] - s[_START] - child_ns[i] - s[_HIDDEN]) / 1e9
            if s[_ERROR] in BUDGET_ERRORS:
                t["refusals"] += 1
            if s[_COUNTS] is None and s[_ERROR] is None and _has_counts(s[_NAME]):
                t["counts_missing"] = True
            for k, v in (s[_COUNTS] or {}).items():
                t["counts"][k] = t["counts"].get(k, 0) + v
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
        absent.update(data["absent"])
    return {"layers": layers, "counters": counters, "absent": sorted(absent)}


def _has_counts(name: str) -> bool:
    return any(n == name and c is not None for n, _, _, c in LAYERS)
