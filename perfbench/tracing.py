"""In-memory span tracing around the public functions of quilopt's modules.

The tracer replaces module attributes with wrappers for the length of a
traced run.  Calls made through the module (``graphs.build_ddgs(...)``)
and calls inside the module by global name both resolve the attribute at
call time, so both are seen.  Each wrapped call records a span (name,
start, end, parent); the hottest helpers (``ir.conflicts``,
``ir.resources``, ``metrics.simulate``) are only counted, because a span
per call would dwarf the work they do.

A layer's self time is the sum of its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# The pass names the experiment draws from, in the harness's order.
PASSES = (
    "const-prop-fold",
    "liveness-dce",
    "hybrid-deps-reorder",
    "hybrid-deps-latest-quantum",
)

# (module, attribute) pairs that get a span per call.
SPANNED = (
    ("harness", "run_experiment"),
    ("graphs", "build_ddgs"),
    ("graphs", "transitive_reduction"),
    ("analyses", "constant_propagation"),
    ("analyses", "live_variables"),
    ("metrics", "report"),
    ("oracle", "run"),
    ("ir", "parse"),
    ("ir", "emit"),
)
# (module, attribute) pairs that are only counted.
COUNTED = (
    ("ir", "conflicts"),
    ("ir", "resources"),
    ("metrics", "simulate"),
)


class Tracer:
    """Owns the spans and counters of one traced run."""

    def __init__(self):
        # (name, start, end, parent index or -1), in start order.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._cells: dict[str, list[int]] = {}
        self.truncated_mass_max = 0.0
        self._pass_depth = 0
        self._transitions: set = set()
        self._states: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _spanned(self, name: str, func, after=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        # A plain list cell, not the Counter: these wrappers run millions of
        # times, and their cost shows in the caller's self time.
        calls = self._cells.setdefault(name + ".calls", [0])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- per-layer counters -------------------------------------------------

    def _after_build_ddgs(self, ddgs) -> None:
        self.counts["graphs.traces_built"] += len(ddgs)
        self.counts["graphs.ddg_nodes"] += sum(len(d) for d in ddgs)
        if self._pass_depth:
            self.counts["graphs.build_ddgs.in_pass"] += 1

    def _after_oracle_run(self, distribution) -> None:
        self.counts["oracle.outcomes"] += len(distribution.probabilities)
        self.truncated_mass_max = max(
            self.truncated_mass_max, distribution.truncated_mass
        )

    def _pass_wrapper(self, func):
        @functools.wraps(func)
        def apply_pass(program, name, readout=None):
            span = f"transforms.{name}"
            self.counts[span + ".calls"] += 1
            self._pass_depth += 1
            index = self._enter(span)
            try:
                result = func(program, name, readout)
            finally:
                self._exit(index)
                self._pass_depth -= 1
            if result != program:
                self.counts[span + ".changed"] += 1
            self._transitions.add((program, name))
            self._states.add(program)
            self._states.add(result)
            return result

        return apply_pass

    # -- installation -------------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Wrap the traced attributes of ``modules`` (name -> module)."""
        hooks = {
            ("graphs", "build_ddgs"): self._after_build_ddgs,
            ("oracle", "run"): self._after_oracle_run,
        }
        for mod, attr in SPANNED:
            module = modules[mod]
            name = f"{mod}.{attr}"
            wrapper = self._spanned(
                name, getattr(module, attr), hooks.get((mod, attr))
            )
            self._replace(module, attr, wrapper)
        for mod, attr in COUNTED:
            module = modules[mod]
            self._replace(
                module, attr, self._counted(f"{mod}.{attr}", getattr(module, attr))
            )
        transforms = modules["transforms"]
        self._replace(
            transforms, "apply_pass", self._pass_wrapper(transforms.apply_pass)
        )

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of direct children."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark declares, by name."""
        selfs = self.self_times()
        counts = self.counts
        out: dict[str, float] = {}
        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            out[name + ".calls"] = counts[name + ".calls"]
            out[name + ".self_s"] = selfs.get(name, 0.0)
        for mod, attr in COUNTED:
            name = f"{mod}.{attr}.calls"
            out[name] = self._cells.get(name, [0])[0]
        pass_calls = 0
        for name in PASSES:
            span = f"transforms.{name}"
            calls = counts[span + ".calls"]
            pass_calls += calls
            out[span + ".calls"] = calls
            out[span + ".self_s"] = selfs.get(span, 0.0)
            out[span + ".changed_ratio"] = (
                counts[span + ".changed"] / calls if calls else 0.0
            )
        out["graphs.traces_built"] = counts["graphs.traces_built"]
        out["graphs.ddg_nodes"] = counts["graphs.ddg_nodes"]
        out["graphs.build_ddgs.per_pass"] = (
            counts["graphs.build_ddgs.in_pass"] / pass_calls if pass_calls else 0.0
        )
        out["harness.pass_calls"] = pass_calls
        out["harness.distinct_states"] = len(self._states)
        out["harness.repeat_ratio"] = (
            1.0 - len(self._transitions) / pass_calls if pass_calls else 0.0
        )
        out["oracle.outcomes"] = counts["oracle.outcomes"]
        out["oracle.truncated_mass_max"] = self.truncated_mass_max
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
