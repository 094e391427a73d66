"""The benchmark's workloads: inputs from the seed, operations, checks.

Each workload is a list of operations.  An operation's `run` is the timed
call into `bbmlab`; `capture` turns its raw result into the output to
check, outside the timed region.  `check` returns the problems it finds
(none when the output is correct), and `controls` returns wrong versions
of a correct output, each of which `check` must reject: a check that lets
all of them through could not fail.

Every expected value is a closed form, a recomputation that shares no
code with `bbmlab`, or a property the method must have; none is a stored
copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from bbmlab import bbm, checks, cli, field, geometry, mollifiers, oracle
from bbmlab import spaces

BUMP_SCHEDULE = [0.2 * 0.5**k for k in range(7)]
GAGLIARDO_S = [0.8, 0.9, 0.95, 0.975]
KAPPA_2_2 = math.pi                   # kappa(2, 2), the target constant
STUDY_TOL = 0.01                      # disk-bump study tolerance
BALL_TOL = 0.05                       # ball-norms study tolerance
CLOSED_FORM_1D_BUMP_TOL = 1e-4        # measured deviation 5e-6
CLOSED_FORM_1D_GAGLIARDO_TOL = 3e-4   # measured 9.5e-5
ORACLE_BUMP_TOL = 6e-4                # measured 3.3e-4
ORACLE_GAGLIARDO_TOL = 2e-4           # measured 6.7e-5
RECOMPUTE_TOL = 1e-9                  # measured 0 and 1e-16
EXACT_TOL = 1e-12

# full and reduced sizes; the reduced ones only serve the self-test
SIZES = {
    "full": {"disk_h": 0.0225, "ball_h": 0.05, "oracle_res": 2.5e-4,
             "square_h": 0.02, "audit_cases": 90},
    "small": {"disk_h": 0.05, "ball_h": 0.1, "oracle_res": 2.5e-4,
              "square_h": 0.05, "audit_cases": 2},
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    controls: Callable[[Any], list]
    capture: Callable[[Any], Any] = lambda raw: raw
    # (domain, h, kernel reach) of the energy pass, for the pair share
    support: Optional[tuple] = None


def _rel(value, exact) -> float:
    return abs(value - exact) / abs(exact)


def _close(problems, label, value, exact, tol):
    """Record a problem unless value lies within tol of exact (relative)."""
    if not _rel(value, exact) <= tol:      # also rejects NaN
        problems.append(f"{label}: {value!r} against {exact!r}, relative "
                        f"deviation {_rel(value, exact):.2e} > {tol:.0e}")


def _equal(problems, label, value, expected):
    if value != expected:
        problems.append(f"{label}: {value!r}, expected {expected!r}")


def _flip(verdict: str) -> str:
    return "inconclusive" if verdict == "member" else "member"


def _unit_disk():
    return geometry.Disk((0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# disk-bump: one RDATI study, nearly all of it in the energy pass

def disk_bump(seed: int, size: str, run_dir: Path) -> list:
    h = SIZES[size]["disk_h"]
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    direction = (math.cos(theta), math.sin(theta))

    def run():
        grid = geometry.sample_quadrature(_unit_disk(), h)
        f = field.sample(field.linear(direction), grid)
        report = bbm.convergence_study(
            f, 2.0, spaces.Lebesgue(2.0), mollifiers.bump_family(2),
            BUMP_SCHEDULE, tolerance=STUDY_TOL)
        return report, len(grid)

    def check(out):
        report, n_points = out
        problems = []
        _equal(problems, "verdict", report.verdict, "member")
        # limit of a unit-gradient field: kappa^(1/2) |D|^(1/2) = pi
        _close(problems, "extrapolated limit", report.extrapolated_limit,
               math.pi, STUDY_TOL)
        # full h x h cells: target = kappa^(1/2) (N h^2)^(1/2)
        _close(problems, "target", report.target,
               math.sqrt(KAPPA_2_2 * n_points * h * h), EXACT_TOL)
        return problems

    def controls(out):
        report, n_points = out
        return [
            ("flipped verdict",
             (dataclasses.replace(report, verdict=_flip(report.verdict)),
              n_points)),
            ("limit off by 2x the tolerance",
             (dataclasses.replace(report, extrapolated_limit=(
                 report.extrapolated_limit * (1 + 2 * STUDY_TOL))), n_points)),
            ("target scaled by 1 + 1e-3",
             (dataclasses.replace(report, target=report.target * 1.001),
              n_points)),
        ]

    return [Op("study", run, check, controls,
               support=(_unit_disk(), h, max(BUMP_SCHEDULE)))]


# ---------------------------------------------------------------------------
# dense-kernels: full-support kernels through `bbmlab run`, and the oracle

def _bump_1d(nu):
    """Functional of f(x) = x on (0,1), bump kernel, p = q = 2: the kernel
    mass inside (0,1) integrates to 2 - nu."""
    return math.sqrt(2.0 - nu)


def _gagliardo_1d(s):
    """(1-s)^(1/2) Gagliardo seminorm of f(x) = x on (0,1), p = 2."""
    return (1.0 + 2.0 * (1.0 - s)) ** -0.5


def _square_config(direction, h) -> str:
    return "\n".join([
        "# 2-D Gagliardo study of a linear field on the unit square;",
        "# its limit is (kappa(2,2)/2)^(1/2) = (pi/2)^(1/2)",
        "domain.kind = box",
        "domain.lo = 0, 0",
        "domain.hi = 1, 1",
        "function.kind = linear",
        f"function.v = {direction[0]!r}, {direction[1]!r}",
        "space.kind = lebesgue",
        "space.q = 2",
        "schedule.values = " + ", ".join(repr(s) for s in GAGLIARDO_S),
        "p = 2",
        "mode = gagliardo",
        f"h = {h!r}",
        "tolerance = 0.05",
        "expectation = member",
    ]) + "\n"


def _cli_op(name, config, out_dir, check_report, control_reports, support):
    """One `bbmlab run`; the output is (exit code, report dict)."""
    argv = ["run", "--config", str(config), "--out", str(out_dir)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def capture(code):
        report_path = Path(out_dir) / "report.json"
        report = json.loads(report_path.read_text()) if code == 0 else None
        return code, report

    def check(out):
        code, report = out
        if code != 0:
            return [f"bbmlab run exited {code}"]
        return check_report(report)

    def controls(out):
        code, report = out
        wrong = [("non-zero exit", (1, report))]
        for label, edit in control_reports:
            bad = json.loads(json.dumps(report))
            edit(bad)
            wrong.append((label, (code, bad)))
        return wrong

    return Op(f"run:{name}", run, check, controls, capture, support)


def _scale_first_value(report):
    report["functional_values"][0] *= 1.001


def _flip_report_verdict(report):
    report["verdict"] = _flip(report["verdict"])


def dense_kernels(seed: int, size: str, run_dir: Path) -> list:
    sz = SIZES[size]
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    direction = (math.cos(theta), math.sin(theta))
    slope = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    configs = Path(__file__).resolve().parent.parent / "configs"
    square_cfg = run_dir / "gagliardo_2d_square.cfg"
    square_cfg.write_text(_square_config(direction, sz["square_h"]))
    unit = geometry.Interval(0.0, 1.0)

    def check_bump_1d(report):
        problems = []
        _equal(problems, "verdict", report["verdict"], "member")
        for nu, value in zip(report["schedule"],
                             report["functional_values"]):
            _close(problems, f"value at nu={nu:g}", value, _bump_1d(nu),
                   CLOSED_FORM_1D_BUMP_TOL)
        _close(problems, "target", report["target"], math.sqrt(2.0),
               EXACT_TOL)
        return problems

    def check_gagliardo_1d(report):
        problems = []
        _equal(problems, "verdict", report["verdict"], "member")
        for s, value in zip(report["schedule"], report["functional_values"]):
            _close(problems, f"value at s={s:g}", value, _gagliardo_1d(s),
                   CLOSED_FORM_1D_GAGLIARDO_TOL)
        return problems

    def check_divergence(report):
        problems = []
        _equal(problems, "verdict", report["verdict"], "non-member")
        values = report["functional_values"]
        if not values[-1] > 10.0 * values[0]:
            problems.append(f"values grow {values[-1] / values[0]:.2f}x, "
                            "not more than 10x")
        return problems

    def check_square(report):
        problems = []
        _equal(problems, "verdict", report["verdict"], "member")
        limit = math.sqrt(KAPPA_2_2 / 2.0)
        _close(problems, "extrapolated limit", report["extrapolated_limit"],
               limit, report["tolerance"])
        # the box weights sum to 1 exactly and |grad f| = 1
        _close(problems, "target", report["target"], limit, EXACT_TOL)
        return problems

    def shift_limit(report):
        report["extrapolated_limit"] *= 1.0 + 2.0 * report["tolerance"]

    def shrink_growth(report):
        report["functional_values"][-1] = 5.0 * report["functional_values"][0]

    def scale_target(report):
        report["target"] *= 1.001

    interval_2 = geometry.Interval(-1.0, 1.0)
    square = geometry.Box((0.0, 0.0), (1.0, 1.0))
    ops = [
        _cli_op("bbm_1d_linear", configs / "bbm_1d_linear.cfg",
                run_dir / "bbm_1d_linear", check_bump_1d,
                [("flipped verdict", _flip_report_verdict),
                 ("value scaled by 1 + 1e-3", _scale_first_value),
                 ("target scaled by 1 + 1e-3", scale_target)],
                (unit, 0.001, max(BUMP_SCHEDULE))),
        _cli_op("gagliardo_1d_linear", configs / "gagliardo_1d_linear.cfg",
                run_dir / "gagliardo_1d_linear", check_gagliardo_1d,
                [("flipped verdict", _flip_report_verdict),
                 ("value scaled by 1 + 1e-3", _scale_first_value)],
                (unit, 0.001, math.inf)),
        # fractional kernel cut at 2R = 2, the interval's diameter
        _cli_op("indicator_divergence", configs / "indicator_divergence.cfg",
                run_dir / "indicator_divergence", check_divergence,
                [("flipped verdict", _flip_report_verdict),
                 ("growth below 10x", shrink_growth)],
                (interval_2, 0.001, 2.0)),
        _cli_op("gagliardo_2d_square", square_cfg,
                run_dir / "gagliardo_2d_square", check_square,
                [("flipped verdict", _flip_report_verdict),
                 ("limit off by 2x the tolerance", shift_limit),
                 ("target scaled by 1 + 1e-3", scale_target)],
                (square, sz["square_h"], math.inf)),
    ]

    def oracle_op(mode, scale, exact, tol):
        fn = field.linear((slope,))
        expected = abs(slope) * exact

        def run():
            return oracle.dense_1d_functional(
                fn, unit, 2.0, 2.0, scale, sz["oracle_res"],
                family_kind="bump", mode=mode)

        def check(value):
            problems = []
            _close(problems, f"oracle {mode} {scale:g}", value, expected,
                   tol)
            return problems

        def controls(value):
            return [("value scaled by 1 + 1e-3", value * 1.001),
                    ("value scaled by 1 - 1e-3", value * 0.999)]

        return Op(f"oracle:{mode}:{scale:g}", run, check, controls)

    ops += [
        oracle_op("rdati", 0.1, _bump_1d(0.1), ORACLE_BUMP_TOL),
        oracle_op("rdati", 0.05, _bump_1d(0.05), ORACLE_BUMP_TOL),
        oracle_op("gagliardo", 0.9, _gagliardo_1d(0.9),
                  ORACLE_GAGLIARDO_TOL),
        oracle_op("gagliardo", 0.95, _gagliardo_1d(0.95),
                  ORACLE_GAGLIARDO_TOL),
    ]
    return ops


# ---------------------------------------------------------------------------
# ball-norms: Morrey and Orlicz-slice studies, most of it in the norm engines

def _distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def morrey_reference(pts, w, h, values, alpha, r, ladder_scale=1.0):
    """Morrey norm from its documented definition, with dense distances:
    max over balls centred at the grid points, radii on the 12-rung
    geometric ladder from 2h to the point-cloud diameter plus h."""
    dist = _distances(pts)
    diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) + h
    radii = np.geomspace(min(2.0 * h, diam), diam, 12) * ladder_scale
    power = np.abs(values) ** r * w
    n = pts.shape[1]
    best = 0.0
    for rho in radii:
        sums = (dist <= rho).astype(float) @ power
        vol = (math.pi ** (n / 2) / math.gamma(n / 2 + 1)) * rho**n
        best = max(best, float(np.max(vol ** (1 / alpha - 1 / r)
                                      * sums ** (1 / r))))
    return best


def orlicz_slice_t2_reference(pts, w, values, r, t):
    """Orlicz-slice norm for Phi(t) = t^2: the Luxemburg ball norm is
    (sum_B w a^2)^(1/2) and the denominator |B_t|^(1/2)."""
    dist = _distances(pts)
    n = pts.shape[1]
    ball = (math.pi ** (n / 2) / math.gamma(n / 2 + 1)) * t**n
    local = np.sqrt((dist <= t).astype(float) @ (w * values**2))
    ratios = local / math.sqrt(ball)
    return float(np.sum(w * ratios**r) ** (1 / r))


def ball_norms(seed: int, size: str, run_dir: Path) -> list:
    h = SIZES[size]["ball_h"]
    amplitude = float(np.random.default_rng(seed).uniform(0.5, 2.0))
    alpha, r_morrey = 3.0, 2.0
    r_slice, t_slice = 2.0, 0.15

    @functools.cache
    def gradient_inputs():
        # |grad f| of the scaled bump from the catalog's closed form, on a
        # grid the benchmark rebuilds outside the timed region
        grid = geometry.sample_quadrature(_unit_disk(), h)
        fn = field.radial_bump((0.0, 0.0), 1.0)
        mags = amplitude * np.linalg.norm(fn.gradient(grid.points), axis=1)
        return grid.points, grid.weights, mags

    @functools.cache
    def morrey_ref(ladder_scale):
        pts, w, mags = gradient_inputs()
        return morrey_reference(pts, w, h, mags, alpha, r_morrey,
                                ladder_scale)

    @functools.cache
    def slice_ref(t):
        pts, w, mags = gradient_inputs()
        return orlicz_slice_t2_reference(pts, w, mags, r_slice, t)

    def ball_op(name, spec, verdict, reference, wrong_label, wrong_reference):
        """A study whose output is (report, reference norm or None); None
        stands for the true recomputation, `reference()`."""

        def run():
            grid = geometry.sample_quadrature(_unit_disk(), h)
            f = field.sample(field.radial_bump((0.0, 0.0), 1.0), grid)
            scaled = field.SampledField(grid, amplitude * f.values,
                                        amplitude * f.gradient_values)
            return bbm.convergence_study(
                scaled, 2.0, spec, mollifiers.bump_family(2), BUMP_SCHEDULE,
                tolerance=BALL_TOL)

        def check(out):
            report, ref = out
            problems = []
            _equal(problems, "verdict", report.verdict, verdict)
            _close(problems, "extrapolated limit", report.extrapolated_limit,
                   report.target, BALL_TOL)
            _close(problems, "target / kappa^(1/2) against the "
                   "recomputation", report.target / math.sqrt(KAPPA_2_2),
                   reference() if ref is None else ref, RECOMPUTE_TOL)
            return problems

        def controls(out):
            report, _ = out
            return [
                ("flipped verdict", (dataclasses.replace(
                    report, verdict=_flip(report.verdict)), None)),
                ("limit off by 2x the tolerance", (dataclasses.replace(
                    report, extrapolated_limit=report.extrapolated_limit
                    * (1 + 2 * BALL_TOL)), None)),
                ("target scaled by 1 + 1e-3", (dataclasses.replace(
                    report, target=report.target * 1.001), None)),
                (wrong_label, (report, wrong_reference())),
            ]

        return Op(name, run, check, controls, lambda report: (report, None),
                  support=(_unit_disk(), h, max(BUMP_SCHEDULE)))

    return [
        # Morrey norms are not absolutely continuous: never `member`
        ball_op("study:morrey", spaces.Morrey(alpha, r_morrey),
                "inconclusive", lambda: morrey_ref(1.0),
                "ladder shifted up by 5%", lambda: morrey_ref(1.05)),
        ball_op("study:orlicz_slice",
                spaces.OrliczSlice(spaces.PowerOrlicz(2.0), r_slice, t_slice),
                "member", lambda: slice_ref(t_slice),
                "slice radius t scaled by 1.05",
                lambda: slice_ref(1.05 * t_slice)),
    ]


# ---------------------------------------------------------------------------
# axiom-audit: thousands of norm calls on 24- and 36-point grids

AXIOM_ROWS = 44       # 11 engines x 4 audits
REDUCTION_ROWS = 6


def axiom_audit(seed: int, size: str, run_dir: Path) -> list:
    cases = SIZES[size]["audit_cases"]

    def check_rows(expected_rows):
        def check(results):
            problems = [f"{res.name} failed: {res.detail}"
                        for res in results if not res.passed]
            if len(results) != expected_rows:
                problems.append(f"{len(results)} audit rows, expected "
                                f"{expected_rows}")
            return problems
        return check

    def controls(results):
        flipped = dataclasses.replace(results[0], passed=False)
        return [("first audit flipped to failed", [flipped] + results[1:]),
                ("one audit row missing", results[1:])]

    ops = [
        Op("checks:axiom_suites",
           lambda: checks.run_axiom_suites(cases=cases, seed=seed),
           check_rows(AXIOM_ROWS), controls),
        Op("checks:reduction_suite",
           lambda: checks.run_reduction_suite(cases=cases, seed=seed),
           check_rows(REDUCTION_ROWS), controls),
    ]
    return ops


WORKLOADS = {
    "disk-bump": disk_bump,
    "dense-kernels": dense_kernels,
    "ball-norms": ball_norms,
    "axiom-audit": axiom_audit,
}


def in_support_share(domain, h, reach):
    """(pairs within reach, evaluated pairs) over ordered pairs i != j of
    the grid, counted with a k-d tree; reach is the largest kernel cut plus
    half a cell."""
    pts = geometry.sample_quadrature(domain, h).points
    tree = cKDTree(pts)
    n = len(pts)
    span = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    within = tree.count_neighbors(tree, min(reach + h / 2.0, 2.0 * span)) - n
    return int(within), n * (n - 1)
