"""Randomized property suites for the norm engines.

Shared by the check-spaces CLI subcommand and the acceptance tests: the
lattice, Fatou-via-truncation, triangle, and homogeneity audits run per
engine on seeded random fields, and the reduction suite compares each
engine against the Lebesgue norm it must collapse to.  Each audit draws
its cases one after another, as a loop of single cases would, stacks
them, and measures every field of a step in one `norm` call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Interval, sample_quadrature
from .spaces import (
    BesovBourgainMorrey,
    HerzGlobal,
    HerzLocal,
    Lebesgue,
    Lorentz,
    MixedLebesgue,
    Morrey,
    OrliczSlice,
    OrliczSpace,
    PowerOrlicz,
    PowerWeight,
    ConstantWeight,
    VariableLebesgue,
    WeightedLebesgue,
    norm,
)

__all__ = [
    "CheckResult",
    "engine_catalog",
    "lattice_violation",
    "fatou_violation",
    "triangle_violation",
    "homogeneity_violation",
    "reduction_pairs",
    "run_axiom_suites",
    "run_reduction_suite",
    "LATTICE_SLACK",
    "TRIANGLE_SLACK",
    "HOMOGENEITY_SLACK",
    "FATOU_SLACK",
    "REDUCTION_TOL",
]

LATTICE_SLACK = 1e-12
TRIANGLE_SLACK = 1e-10
HOMOGENEITY_SLACK = 1e-12
FATOU_SLACK = 1e-10
REDUCTION_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _interval_grid(points: int = 24):
    return sample_quadrature(Interval(0.0, 1.0), 1.0 / points)


def _square_grid(cells: int = 6):
    return sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 1.0 / cells)


def engine_catalog():
    """(name, spec, grid) triples covering every norm family."""
    g1 = _interval_grid()
    g2 = _square_grid()
    return [
        ("lebesgue", Lebesgue(2.0), g1),
        ("weighted", WeightedLebesgue(2.0, PowerWeight(0.5)), g1),
        ("lorentz", Lorentz(2.5, 1.5), g1),
        ("orlicz", OrliczSpace(PowerOrlicz(2.5)), g1),
        ("morrey", Morrey(3.0, 2.0), g1),
        ("variable", VariableLebesgue(lambda pts: 2.0 + 0.5 * pts[:, 0]), g1),
        ("mixed", MixedLebesgue((1.5, 2.5)), g2),
        ("herz_local", HerzLocal(2.0, 2.0, 0.3, (-0.1,)), g1),
        ("herz_global", HerzGlobal(2.0, 2.0, -0.1), g1),
        ("bbmorrey", BesovBourgainMorrey(1.5, 2.0, 2.5, 2.0), g1),
        ("orlicz_slice", OrliczSlice(PowerOrlicz(2.0), 2.0, 0.15), g1),
    ]


def _random_fields(grid, rng, count: int) -> np.ndarray:
    """`count` audit fields as a (count, N) stack; one draw of the stack
    gives the numbers of `count` successive single-field draws."""
    return rng.normal(scale=2.0, size=(count, len(grid)))


def lattice_violation(spec, grid, rng, cases: int = 1) -> np.ndarray:
    """norm(g) - norm(f) for |g| <= |f| pointwise (should be <= 0), per
    case."""
    f = np.empty((cases, len(grid)))
    damp = np.empty((cases, len(grid)))
    for k in range(cases):
        f[k] = _random_fields(grid, rng, 1)
        damp[k] = rng.uniform(0.0, 1.0, size=len(grid))
    norms = norm(spec, grid, np.concatenate([f * damp, f]))
    return norms[:cases] - norms[cases:]


def fatou_violation(spec, grid, rng, cases: int = 1) -> np.ndarray:
    """Truncations min(|f|, c) must have norms increasing to norm(|f|);
    per case, the worst decrease between 5 rising cuts or the gap
    between the top cut and |f|."""
    f = np.abs(_random_fields(grid, rng, cases))
    top = np.maximum(f.max(axis=1), 1e-9)[:, None]
    cuts = np.linspace(0.2, 1.0, 5) * top
    rows = np.concatenate([np.minimum(f[:, None, :], cuts[:, :, None]),
                           f[:, None, :]], axis=1)
    norms = norm(spec, grid, rows.reshape(-1, len(grid))).reshape(cases, 6)
    worst = np.max(norms[:, :4] - norms[:, 1:5], axis=1)
    return np.maximum(worst, np.abs(norms[:, 4] - norms[:, 5]))


def triangle_violation(spec, grid, rng, cases: int = 1) -> np.ndarray:
    """norm(f + g) - norm(f) - norm(g) (should be <= 0), per case."""
    f, g = _random_fields(grid, rng, 2 * cases).reshape(
        cases, 2, len(grid)).transpose(1, 0, 2)
    norms = norm(spec, grid, np.concatenate([f + g, f, g]))
    fg, f, g = norms.reshape(3, cases)
    return fg - f - g


def homogeneity_violation(spec, grid, rng, cases: int = 1) -> np.ndarray:
    """Relative |norm(cf) - |c| norm(f)|, per case."""
    f = np.empty((cases, len(grid)))
    c = np.empty((cases, 1))
    for k in range(cases):
        f[k] = _random_fields(grid, rng, 1)
        # the sign is the draw of rng.choice([-1.0, 1.0]), without the
        # cost of its list conversion
        c[k] = float(rng.uniform(0.1, 10.0)) * (2.0 * rng.integers(2) - 1.0)
    scaled, unit = norm(spec, grid, np.concatenate([c * f, f])).reshape(
        2, cases)
    ref = np.abs(c[:, 0]) * unit
    return np.abs(scaled - ref) / np.maximum(ref, 1.0)


def reduction_pairs():
    """Engines that must agree with a Lebesgue norm, with their grids."""
    g1 = _interval_grid()
    g2 = _square_grid()
    return [
        ("lorentz(r,r)", Lorentz(2.0, 2.0), Lebesgue(2.0), g1),
        ("orlicz(power q)", OrliczSpace(PowerOrlicz(2.5)), Lebesgue(2.5), g1),
        ("morrey(alpha=r)", Morrey(2.0, 2.0), Lebesgue(2.0), g1),
        ("mixed(equal)", MixedLebesgue((2.0, 2.0)), Lebesgue(2.0), g2),
        ("variable(const)", VariableLebesgue(2.0), Lebesgue(2.0), g1),
        ("weighted(1)", WeightedLebesgue(2.0, ConstantWeight(1.0)),
         Lebesgue(2.0), g1),
    ]


def _check_audit(cases, seed) -> None:
    """An audit of no cases checks nothing, so it may not report a pass;
    numpy seeds are integers >= 0."""
    for name, value, least in (("cases", cases, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, "
                             f"got {value!r}")


def run_axiom_suites(cases: int = 1000, seed: int = 0):
    """Run all four audits per engine; returns CheckResult rows."""
    _check_audit(cases, seed)
    results = []
    suites = [
        ("lattice", lattice_violation, LATTICE_SLACK),
        ("fatou", fatou_violation, FATOU_SLACK),
        ("triangle", triangle_violation, TRIANGLE_SLACK),
        ("homogeneity", homogeneity_violation, HOMOGENEITY_SLACK),
    ]
    for engine_name, spec, grid in engine_catalog():
        for suite_name, check, slack in suites:
            rng = np.random.default_rng(seed)
            worst = float(np.max(check(spec, grid, rng, cases)))
            results.append(CheckResult(
                f"{suite_name}:{engine_name}",
                worst <= slack,
                f"worst violation {worst:.3e} (slack {slack:.0e})",
            ))
    return results


def run_reduction_suite(cases: int = 100, seed: int = 0):
    _check_audit(cases, seed)
    results = []
    for name, spec, ref, grid in reduction_pairs():
        f = _random_fields(grid, np.random.default_rng(seed), cases)
        a = norm(spec, grid, f)
        b = norm(ref, grid, f)
        worst = float(np.max(np.abs(a - b) / np.maximum(b, 1e-30)))
        results.append(CheckResult(
            f"reduction:{name}",
            worst <= REDUCTION_TOL,
            f"worst relative deviation {worst:.3e}",
        ))
    return results
