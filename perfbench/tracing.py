"""Spans around the functions of each sdfkit layer, recorded from outside it.

The tracer wraps, in each layer module, every public module-level function
and every private one that another sdfkit module imports, then rebinds the
wrapper under every name that held the function in any sdfkit module:
`from ... import` copies bindings, so patching only the defining module
would miss most calls.

A span is (function, start, end, parent span). Spans are kept in memory and
written out when the run ends. A direct recursive call is folded into the
open span of the same function. Generator functions are not wrapped: their
span would close before the caller consumes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = {
    "sdfkit.cli": "cli",
    "sdfkit.action_path": "action_path",
    "sdfkit.sdf": "sdf",
    "sdfkit.sigma_info": "sigma_info",
    "sdfkit.choice": "choice",
    "sdfkit.set_forest": "set_forest",
    "sdfkit.order_core": "order_core",
    "sdfkit._canon": "canon",
}

# canon_key is the sort key of every canonical sort and recurses into each
# element: a span per call would cost more than the work it measures. Its
# time stays with the function that called it (mostly canon_sorted).
UNWRAPPED = {"canon.canon_key"}


def _rcs_size(rcs) -> int:
    return sum(len(rcs.for_move(m)) for m in rcs.moves())


# Numbers read from a function's result and stored on its span.
RESULT_HOOKS = {"action_path.agent_rcs": _rcs_size, "sigma_info.enumerate_eis": len}


# Time spent inside the named functions, callees included.
TIMES = {
    "action_path.agent_rcs_s": ("action_path.agent_rcs",),
    "action_path.measurable_s": ("action_path.check_measurable_iff_adapted",),
    "action_path.check_apc3_s": ("action_path.check_apc3",),
    "action_path.check_apw_s": ("action_path.check_apw",),
    "action_path.build_s": ("action_path.build_action_path_sdf",),
    "choice.classify_s": ("choice.classify",),
    "choice.adapted_s": ("choice.is_adapted", "choice.adapted_at_move"),
    "choice.verify_rcs_s": ("choice.verify_rcs",),
    "sigma_info.enumerate_eis_s": ("sigma_info.enumerate_eis",),
    "sigma_info.verify_eis_s": ("sigma_info.verify_eis",),
    "sdf.verify_sdf_s": ("sdf.verify_sdf",),
    "sdf.ttree_s": ("sdf.check_evaluation_bijection", "sdf.check_ttree_theorem"),
    "set_forest.own_representation_s": ("set_forest.verify_own_representation",),
    "order_core.separation_s": ("order_core.separation_witness", "order_core.separates"),
    "cli.parse_s": ("cli.parse_instance",),
    "cli.report_s": ("cli.report_to_json",),
    "canon.sorted_s": ("canon.canon_sorted",),
}

# Calls of the named function.
CALLS = {
    "action_path.window_choice_calls": "action_path.window_choice",
    "action_path.measurable_calls": "action_path.check_measurable_iff_adapted",
    "choice.classify_calls": "choice.classify",
    "choice.predecessors_calls": "choice.predecessors",
    "sdf.verify_sdf_calls": "sdf.verify_sdf",
    "canon.sorted_calls": "canon.canon_sorted",
}


class Tracer:
    """Spans as parallel flat arrays: one span per index, no object per
    span for the garbage collector to traverse."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")  # wrapped function of each span
        self.parent = array("i")  # index of the enclosing span, -1 at the top
        self.start = array("d")
        self.end = array("d")
        self.value: dict[int, int] = {}  # span index -> number read from its result
        self.stack: list[int] = [-1]

    def install(self):
        """Wrap the layer functions of the imported sdfkit modules."""
        modules = [m for n, m in sys.modules.items() if n == "sdfkit" or n.startswith("sdfkit.")]
        wrappers = {}
        for mod in modules:
            layer = LAYERS.get(mod.__name__)
            if layer is None:
                continue
            for name, fn in vars(mod).items():
                qualified = f"{layer}.{name}"
                if (
                    getattr(fn, "__module__", None) != mod.__name__
                    or not (inspect.isfunction(fn) or hasattr(fn, "cache_info"))
                    or inspect.isgeneratorfunction(fn)
                    or qualified in UNWRAPPED
                ):
                    continue
                shared = any(
                    other is not mod and any(v is fn for v in vars(other).values())
                    for other in modules
                )
                if name.startswith("_") and not shared:
                    continue
                wrappers[id(fn)] = self._wrap(qualified, fn, RESULT_HOOKS.get(qualified))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])

    def _wrap(self, qualified: str, fn, hook):
        fid = len(self.names)
        self.names.append(qualified)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        values, stack, clock = self.value, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and fids[parent] == fid:
                return fn(*args, **kwargs)
            i = len(fids)
            fids.append(fid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                values[i] = hook(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _fids(self, *qualified) -> set[int]:
        return {i for i, n in enumerate(self.names) if n in qualified}

    def _nearest(self, i: int, fids: set[int]) -> int:
        """Index of the nearest enclosing span of one of `fids`, or -1."""
        p = self.parent[i]
        while p >= 0 and self.fid[p] not in fids:
            p = self.parent[p]
        return p

    def time_in(self, *qualified) -> float:
        """Seconds inside any of the functions, not counting nested calls twice."""
        fids = self._fids(*qualified)
        return sum(
            self.end[i] - self.start[i]
            for i, f in enumerate(self.fid)
            if f in fids and self._nearest(i, fids) < 0
        )

    def metrics(self, timed_from: float, wall_s: float) -> dict:
        """The per-layer metrics of one traced repetition."""
        n = len(self.fid)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += duration[i]
        layer_of = [name.partition(".")[0] for name in self.names]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS.values()}
        calls = Counter()
        root_s = 0.0
        for i, f in enumerate(self.fid):
            out[f"{layer_of[f]}.self_s"] += duration[i] - child[i]
            calls[self.names[f]] += 1
            if self.parent[i] < 0 and self.start[i] >= timed_from:
                root_s += duration[i]
        for metric, functions in TIMES.items():
            out[metric] = self.time_in(*functions)
        for metric, function in CALLS.items():
            out[metric] = calls[function]
        # Reference choices kept per window choice built inside agent_rcs;
        # a cached call builds none and is not counted.
        rcs_fids = self._fids("action_path.agent_rcs")
        window = self._fids("action_path.window_choice")
        built = Counter(self._nearest(i, rcs_fids) for i, f in enumerate(self.fid) if f in window)
        built.pop(-1, None)
        kept = sum(self.value.get(i, 0) for i in built)
        out["action_path.rcs_yield"] = kept / sum(built.values()) if built else 0.0
        eis = self._fids("sigma_info.enumerate_eis")
        out["sigma_info.eis_enumerated"] = sum(
            v for i, v in self.value.items() if self.fid[i] in eis
        )
        out["trace.span_share"] = root_s / wall_s
        return out

    def write(self, path: str, workload: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, f in enumerate(self.fid):
                span = {
                    "name": self.names[f],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "workload": workload,
                }
                fh.write(json.dumps(span) + "\n")
