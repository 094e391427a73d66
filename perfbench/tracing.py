"""Layer spans recorded from the benchmark's side of each module boundary.

A `Tracer` replaces a function where the calling module binds it (for
example `bbm.norm`, the name `convergence_study` looks up) with a wrapper
that records a span: layer, parent span, start, end and a few counts.
Nothing inside `bbmlab` changes.  Spans stay in memory; `pass_metrics`
folds the spans of one pass into the per-layer metrics and `dump` writes
every span at the end of the run.

A layer's self time is its spans' durations minus the durations of their
direct children.  Calls are synchronous and single-threaded, so the
children of one span never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict

# kind label of each norm spec class, as in `bbmlab.checks.engine_catalog`
SPACE_KINDS = {
    "Lebesgue": "lebesgue",
    "WeightedLebesgue": "weighted",
    "Lorentz": "lorentz",
    "OrliczSpace": "orlicz",
    "Morrey": "morrey",
    "VariableLebesgue": "variable",
    "MixedLebesgue": "mixed",
    "HerzLocal": "herz_local",
    "HerzGlobal": "herz_global",
    "BesovBourgainMorrey": "bbmorrey",
    "OrliczSlice": "orlicz_slice",
}

CHECK_SUITES = ("lattice", "fatou", "triangle", "homogeneity", "reduction")


def _norm_attrs(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return {"kind": SPACE_KINDS[type(spec).__name__]}


def _energy_attrs(signature, kernels_of):
    """Counts of one energy pass: evaluated points and kernels."""

    def attrs(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        field = bound.arguments["field"]
        stride = bound.arguments["stride"]
        points = math.ceil(len(field.grid) / stride)
        return {"points": points, "kernels": kernels_of(bound.arguments)}

    return attrs


def boundaries():
    """(module, attribute, layer, attrs) for every wrapped binding.

    Each function is wrapped in the module that calls it, so a call made
    inside its own module (none today) would not be seen.  The benchmark
    calls `geometry.sample_quadrature`, `field.sample`,
    `bbm.convergence_study`, `oracle.dense_1d_functional`, `cli.main` and
    `checks.run_reduction_suite` through their module attributes, so those
    are wrapped in their own modules.  The loop of
    `checks.run_axiom_suites` has no span of its own: its four audits do.
    """
    from bbmlab import bbm, checks, cli, field, geometry, oracle
    from bbmlab import nonlocal_energy

    schedule_attrs = _energy_attrs(
        inspect.signature(nonlocal_energy.bbm_functional_schedule),
        lambda a: len(a["nus"]))
    gagliardo_attrs = _energy_attrs(
        inspect.signature(nonlocal_energy.gagliardo_functional),
        lambda a: 1)
    return [
        (geometry, "sample_quadrature", "geometry.grid", None),
        (cli, "sample_quadrature", "geometry.grid", None),
        (checks, "sample_quadrature", "geometry.grid", None),
        (field, "sample", "field.sample", None),
        (cli, "sample", "field.sample", None),
        (bbm, "convergence_study", "bbm", None),
        (cli, "convergence_study", "bbm", None),
        (bbm, "fit_limit", "bbm.fit", None),
        (bbm, "bbm_functional_schedule", "nonlocal_energy", schedule_attrs),
        (bbm, "gagliardo_functional", "nonlocal_energy", gagliardo_attrs),
        (bbm, "norm", "spaces.norm", _norm_attrs),
        (nonlocal_energy, "norm", "spaces.norm", _norm_attrs),
        (checks, "norm", "spaces.norm", _norm_attrs),
        (oracle, "dense_1d_functional", "oracle.dense_1d", None),
        (checks, "lattice_violation", "checks.lattice", None),
        (checks, "fatou_violation", "checks.fatou", None),
        (checks, "triangle_violation", "checks.triangle", None),
        (checks, "homogeneity_violation", "checks.homogeneity", None),
        (checks, "run_reduction_suite", "checks.reduction", None),
        (cli, "main", "cli", None),
    ]


class Tracer:
    """Records spans around wrapped module attributes."""

    def __init__(self):
        self.spans = []        # [layer, parent, start, end, attrs]
        self._stack = []
        self._originals = []
        self._pass_start = 0

    def install(self, bindings):
        """Wrap every binding; a missing name aborts the run."""
        missing = [f"{m.__name__}.{name}" for m, name, _, _ in bindings
                   if not hasattr(m, name)]
        if missing:
            raise LookupError(
                "traced names no longer exist: " + ", ".join(missing))
        for module, name, layer, attrs in bindings:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(original, layer, attrs))

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, original, layer, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [layer, stack[-1] if stack else None, 0.0, 0.0,
                      attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = original
        return wrapper

    def begin_pass(self):
        self._pass_start = len(self.spans)

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since `begin_pass`."""
        first = self._pass_start
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for layer, parent, start, end, _ in spans:
            if parent is not None and parent >= first:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        kind_s = defaultdict(float)
        kernel_points = 0
        for i, (layer, _, start, end, attrs) in enumerate(spans, first):
            own = end - start - child_time[i]
            self_s[layer] += own
            calls[layer] += 1
            if layer == "spaces.norm":
                kind_s[attrs["kind"]] += end - start
            elif layer == "nonlocal_energy":
                kernel_points += attrs["points"] * attrs["kernels"]
        energy_s = self_s["nonlocal_energy"]
        metrics = {
            "geometry.grid_s": self_s["geometry.grid"],
            "field.sample_s": self_s["field.sample"],
            "nonlocal_energy.self_s": energy_s,
            "nonlocal_energy.calls": calls["nonlocal_energy"],
            "nonlocal_energy.kernel_points_per_s":
                kernel_points / energy_s if energy_s > 0 else 0.0,
            "spaces.norm_s": self_s["spaces.norm"],
            "spaces.norm_calls": calls["spaces.norm"],
        }
        for kind in SPACE_KINDS.values():
            metrics[f"spaces.{kind}_s"] = kind_s[kind]
        metrics["bbm.self_s"] = self_s["bbm"]
        metrics["bbm.fit_s"] = self_s["bbm.fit"]
        metrics["oracle.dense_1d_s"] = self_s["oracle.dense_1d"]
        for suite in CHECK_SUITES:
            metrics[f"checks.{suite}_s"] = self_s[f"checks.{suite}"]
        metrics["cli.self_s"] = self_s["cli"]
        # time inside the pass that no wrapped layer owns: the benchmark's
        # own loop, plus any work a refactor moves out of the wrapped names
        metrics["trace.wall_s"] = wall_s
        metrics["trace.unattributed_s"] = wall_s - sum(self_s.values())
        return metrics

    def dump(self, path):
        """Write every span recorded in the run."""
        rows = [{"layer": layer, "parent": parent, "start": start,
                 "end": end, "attrs": attrs}
                for layer, parent, start, end, attrs in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
