"""Layer tracing for girycheck, installed from outside the package.

`Tracer.install()` replaces each boundary function with a timing wrapper in
every namespace that binds it: the `girycheck` package and each submodule,
because `from .spaces import combine2` copies the binding into the importer.
Methods are patched on their class.  `uninstall()` puts every original back.

Each wrapper adds to its boundary's call count, total time and self time
(duration minus the time covered by traced children).  Boundaries marked as
spans also keep one span (name, start, end, parent span, op id) in memory;
inner-loop boundaries, called hundreds of thousands of times per run, are
only aggregated, since a span per call would outweigh the run itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

MARK = "_perfbench_boundary"

# (module, attribute path, layer metric prefix, keep spans)
BOUNDARIES = (
    ("cli", "_report_all", "cli.report_all", True),
    ("cli", "_laws_section", "cli.laws_section", True),
    ("cli", "_compat_section", "cli.compat_section", True),
    ("cli", "_counterexample_section", "cli.counterexample_section", True),
    ("cli", "_transport_section", "cli.transport_section", True),
    ("cli", "_fields_section", "cli.fields_section", True),
    ("algebra", "build_algebra", "algebra.build_algebra", True),
    ("algebra", "full_report", "algebra.full_report", True),
    ("algebra", "verify_unit_law", "algebra.verify_unit_law", True),
    ("algebra", "verify_mult_law", "algebra.verify_mult_law", True),
    ("algebra", "verify_coseparator_property", "algebra.verify_coseparator_property", True),
    ("algebra", "support_condition_check", "algebra.support_condition_check", True),
    ("algebra", "coseparator_maps", "algebra.coseparator_maps", True),
    ("algebra", "AlgebraMap.__call__", "algebra.h", False),
    ("spaces", "combine", "spaces.combine", False),
    ("spaces", "enumerate_ideals", "spaces.enumerate_ideals", True),
    ("spaces", "is_ideal", "spaces.is_ideal", True),
    ("spaces", "discrete_poset", "spaces.discrete_poset", True),
    ("spaces", "coseparates", "spaces.coseparates", True),
    ("metric_ot", "compat_check_2pt", "metric_ot.compat_check_2pt", True),
    ("metric_ot", "compat_check_4pt", "metric_ot.compat_check_4pt", True),
    ("metric_ot", "equiv_check", "metric_ot.equiv_check", True),
    ("metric_ot", "wasserstein", "metric_ot.wasserstein", True),
    ("metric_ot", "_pivot", "metric_ot.pivots", False),
    ("metric_ot", "ExtMetric.__call__", "metric_ot.metric", False),
    ("measures", "FinMeasure.from_pairs", "measures.FinMeasure.from_pairs", False),
    ("measures", "mu", "measures.mu", False),
    ("measures", "pushforward", "measures.pushforward", False),
    ("measures", "expectation_functional", "measures.expectation_functional", False),
    ("sampling", "random_measure", "sampling.random_measure", False),
    ("sampling", "random_meta", "sampling.random_meta", False),
    ("extvalue", "ExtValue.__add__", "extvalue.ops", False),
    ("extvalue", "ExtValue.__radd__", "extvalue.ops", False),
    ("extvalue", "ExtValue.__mul__", "extvalue.ops", False),
    ("extvalue", "ExtValue.__rmul__", "extvalue.ops", False),
    ("extvalue", "ExtValue.__eq__", "extvalue.ops", False),
    ("extvalue", "ExtValue.__lt__", "extvalue.ops", False),
)

PIVOT = (("metric_ot", "_pivot", "metric_ot.pivots", False),)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "girycheck" or name.startswith("girycheck."))]


def _resolve(module, path):
    """(owner, attribute, raw original) for a module function or class method."""
    mod = importlib.import_module(f"girycheck.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, path, getattr(mod, path)


def installed_wrappers() -> int:
    """How many tracing wrappers are bound anywhere in the package right now."""
    count = 0
    for module in _package_modules():
        for value in vars(module).values():
            count += hasattr(value, MARK)
            if isinstance(value, type) and value.__module__.startswith("girycheck"):
                for raw in vars(value).values():
                    count += hasattr(getattr(raw, "__func__", raw), MARK)
    return count


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.stats = {}  # layer name -> [calls, total_s, self_s]
        self.spans = []  # (name, start, end, parent span index, op id)
        self.op = None
        self.wasserstein_self = {}  # space id -> self_s
        self.compat_scans = []  # (space id, arity) per scan run
        self.ideals_returned = 0
        self._stack = [[0.0, -1]]  # per open call: [child time, span index]
        self._patched = []  # (owner, attribute, original)

    def install(self):
        modules = _package_modules()
        for module, path, name, keep_span in self.boundaries:
            owner, attr, raw = _resolve(module, path)
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(fn, name, keep_span)
            new = classmethod(wrapped) if is_cm else wrapped
            if isinstance(owner, type):
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, key, value))
                        setattr(m, key, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, keep_span):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[0] -= 1
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                if not depth[0]:
                    stats[1] += dur  # nested calls of one boundary count once
                stats[2] += dur - frame[0]
                if keep_span:
                    spans[sid] = (name, t0, t1, parent[1], self.op)
            if after is not None:
                after(args, result, dur - frame[0])
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def _after_hook(self, name):
        if name == "metric_ot.wasserstein":
            def after(args, result, self_s):
                sid = args[0].space_id
                self.wasserstein_self[sid] = self.wasserstein_self.get(sid, 0.0) + self_s
            return after
        if name in ("metric_ot.compat_check_2pt", "metric_ot.compat_check_4pt"):
            arity = 2 if name.endswith("2pt") else 4

            def after(args, result, self_s):
                self.compat_scans.append((args[0].id, arity))
            return after
        if name == "spaces.enumerate_ideals":
            def after(args, result, self_s):
                self.ideals_returned += len(result)
            return after
        return None

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
