"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import math

import numpy as np

from bbmlab.bbm import convergence_study, kappa, upper_bound_diagnostics
from bbmlab.checks import (
    FATOU_SLACK,
    HOMOGENEITY_SLACK,
    LATTICE_SLACK,
    TRIANGLE_SLACK,
    run_axiom_suites,
    run_reduction_suite,
)
from bbmlab.field import (
    SampledField,
    indicator_halfspace,
    linear,
    product_sine,
    sample,
    zero_extension,
)
from bbmlab.geometry import (
    Box,
    Disk,
    Interval,
    sample_quadrature,
)
from bbmlab.mollifiers import (
    GagliardoFamily,
    bump_family,
    fractional_family,
    normalization_defect,
)
from bbmlab.nonlocal_energy import bbm_functional_schedule, \
    gagliardo_functional
from bbmlab.oracle import dense_1d_functional, mc_sphere_moment
from bbmlab.spaces import (
    ConstantWeight,
    Lebesgue,
    Lorentz,
    OrliczSpace,
    PowerOrlicz,
    PowerWeight,
    WeightedLebesgue,
    ap_constant,
    holder_defect,
    norm,
)

import conftest

BUMP_SCHEDULE = [0.2 * 0.5**k for k in range(7)]


def report_line(criterion: str, ok: bool, detail: str) -> None:
    line = f"{criterion} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_ac1_kappa_constant():
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for n in (1, 2, 3):
            mc = mc_sphere_moment(p, n, 1_000_000, seed=17 * n + int(10 * p))
            rel = abs(mc - kappa(p, n)) / kappa(p, n)
            worst = max(worst, rel)
    exact = max(
        abs(kappa(1.7, 1) - 2.0),
        abs(kappa(2.0, 2) - math.pi),
        abs(kappa(1.0, 2) - 4.0),
        abs(kappa(2.0, 3) - 4.0 * math.pi / 3.0),
    )
    ok = worst < 5e-3 and exact < 1e-12
    report_line("AC-1", ok,
                f"MC worst rel {worst:.2e} (tol 5e-3), "
                f"exact worst {exact:.2e} (tol 1e-12)")
    assert ok


def test_ac2_limit_identity_1d():
    domain = Interval(0.0, 1.0)
    grid = sample_quadrature(domain, 1e-3)
    f = sample(linear((1.0,)), grid)
    errs = {}
    verdicts = []
    for p in (1.0, 2.0):
        rep = convergence_study(f, p, Lebesgue(2.0), bump_family(1),
                                BUMP_SCHEDULE, tolerance=0.03)
        target = kappa(p, 1) ** (1.0 / p)
        errs[p] = abs(rep.extrapolated_limit - target) / target
        verdicts.append(rep.verdict)
    ok = all(e <= 0.03 for e in errs.values()) \
        and all(v == "member" for v in verdicts)
    report_line("AC-2", ok,
                f"rel errors p=1: {errs[1.0]:.2%}, p=2: {errs[2.0]:.2%} "
                f"(tol 3%), verdicts {verdicts}")
    assert ok


def test_ac3_limit_identity_2d_disk():
    domain = Disk((0.0, 0.0), 1.0)
    grid = sample_quadrature(domain, 0.01)
    f = sample(linear((1.0, 0.0)), grid)
    rep = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(2),
                            BUMP_SCHEDULE, tolerance=0.04)
    target = math.pi
    err = abs(rep.extrapolated_limit - target) / target
    ok = err <= 0.04 and rep.verdict == "member"
    report_line("AC-3", ok,
                f"limit {rep.extrapolated_limit:.5f} vs pi, rel err "
                f"{err:.2%} (tol 4%)")
    assert ok


def test_ac4_gagliardo_limit_and_route():
    domain = Interval(0.0, 1.0)
    grid = sample_quadrature(domain, 1e-3)
    f = sample(linear((1.0,)), grid)
    svals = [0.8, 0.9, 0.95, 0.975]
    rep = convergence_study(f, 2.0, Lebesgue(2.0), GagliardoFamily(1), svals,
                            tolerance=0.03)
    err = abs(rep.extrapolated_limit - 1.0)
    R = domain.enclosing_radius()
    family = fractional_family(2.0, R, 1)
    route_worst = 0.0
    for s in svals:
        nu = 1.0 - s
        direct = gagliardo_functional(f, 2.0, s, Lebesgue(2.0))
        converted = bbm_functional_schedule(
            f, 2.0, family, [nu], Lebesgue(2.0)
        )[0] * (2.0 * R) ** nu / 2.0**0.5
        route_worst = max(route_worst, abs(direct - converted) / direct)
    ok = err <= 0.03 and route_worst <= 1e-8
    report_line("AC-4", ok,
                f"limit rel err {err:.2%} (tol 3%), route mismatch "
                f"{route_worst:.2e} (tol 1e-8)")
    assert ok


def test_ac5_divergence_direction():
    domain = Interval(-1.0, 1.0)
    grid = sample_quadrature(domain, 1e-3)
    f = sample(indicator_halfspace((1.0,), 0.0), grid)
    family = fractional_family(2.0, domain.enclosing_radius(), 1)
    schedule = [0.4 * 0.5**k for k in range(6)]
    rep = convergence_study(f, 2.0, Lebesgue(2.0), family, schedule)
    growth = rep.functional_values[-1] / rep.functional_values[0]
    dense = dense_1d_functional(indicator_halfspace((1.0,), 0.0), domain,
                                2.0, 2.0, schedule, 1e-4,
                                family_kind="fractional")
    dense_monotone = all(a < b for a, b in zip(dense, dense[1:]))
    ok = (rep.verdict == "non-member" and growth > 10.0 and dense_monotone)
    report_line("AC-5", ok,
                f"verdict {rep.verdict}, growth {growth:.1f}x (need >10), "
                f"dense oracle monotone: {dense_monotone}")
    assert ok


def test_ac6_norm_engine_reductions():
    results = run_reduction_suite(cases=100, seed=2024)
    ok = all(r.passed for r in results)
    worst = max(r.detail for r in results)
    report_line("AC-6", ok, f"{len(results)} reduction pairs, {worst}")
    assert ok, [r.name for r in results if not r.passed]


def test_ac7_ball_bfs_axioms():
    results = run_axiom_suites(cases=1000, seed=7)
    ok = all(r.passed for r in results)
    report_line(
        "AC-7", ok,
        f"{len(results)} engine/suite audits at 1000 cases "
        f"(slacks: lattice {LATTICE_SLACK:g}, fatou {FATOU_SLACK:g}, "
        f"triangle {TRIANGLE_SLACK:g}, homogeneity {HOMOGENEITY_SLACK:g})",
    )
    assert ok, [r.name for r in results if not r.passed]


def test_ac8_zero_extension_norm_identity():
    domain = Interval(0.0, 1.0)
    inner = sample_quadrature(domain, 0.0625)
    outer = sample_quadrature(Box((-1.0,), (2.0,)), 0.0625)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        f = SampledField(inner, rng.normal(size=len(inner)))
        ext = zero_extension(f, outer, domain)
        for spec in (Lebesgue(2.0), Lebesgue(3.0),
                     WeightedLebesgue(2.0, PowerWeight(0.5)),
                     WeightedLebesgue(1.5, ConstantWeight(2.0))):
            worst = max(worst, abs(norm(spec, ext) - norm(spec, f)))
    ok = worst <= 1e-12
    report_line("AC-8", ok, f"worst norm mismatch {worst:.2e} (tol 1e-12)")
    assert ok


def test_ac9_holder_inequality():
    grid = sample_quadrature(Interval(0.0, 1.0), 1.0 / 48)
    rng = np.random.default_rng(9)
    worst = -math.inf
    for q in (1.5, 2.0, 3.0):
        for _ in range(1000):
            f = SampledField(grid, rng.normal(size=len(grid)))
            g = SampledField(grid, rng.normal(size=len(grid)))
            worst = max(worst, holder_defect(f, g, q))
    ok = worst <= 1e-12
    report_line("AC-9", ok, f"worst defect {worst:.2e} (tol 1e-12)")
    assert ok


def test_ac10_muckenhoupt_constants():
    box = (np.array([0.0]), np.array([1.0]))
    unit = ap_constant(ConstantWeight(1.0), 2.0, box, depth=4)
    single = ap_constant(PowerWeight(0.5), 2.0, box, depth=0)
    growth_ok = True
    values = {d: ap_constant(PowerWeight(1.5), 2.0, box, depth=d)
              for d in (4, 6, 8, 10)}
    for d in (4, 6, 8):
        growth_ok &= values[d + 2] > 2.0 * values[d]
    ok = (abs(unit - 1.0) == 0.0
          and abs(single - 4.0 / 3.0) <= 1e-10
          and growth_ok)
    report_line("AC-10", ok,
                f"constant weight {unit}, single cube {single:.12f} "
                f"(want 4/3), non-A2 growth {growth_ok}")
    assert ok


# AC-11 bounds ||E_nu f|| / || |grad f| || over the bump schedule and asks
# that the ratio show no growth as nu -> 0.  For smooth f the ratio tends to
# kappa(p,n)^(1/p) from below (the boundary-layer deficit shrinks with nu),
# so the order of the ratios alone cannot tell a converging ratio from a
# growing one.  The growth clause compares successive
# increments instead: a series L - C*nu^beta shrinks them by 2^(-beta) per
# halving, while a growing C*nu^(-beta) enlarges them.  Round-off below
# GROWTH_FLOOR * max(r) is not counted, since once nu < NEAR_FIELD_FACTOR*h
# the kernel lies in the analytic near field and the ratio is frozen.
GROWTH_FLOOR = 1e-12


def ratio_increments(ratios):
    """Increments |r_{k+1} - r_k| and whether they are non-increasing."""
    ratios = np.asarray(ratios, dtype=float)
    steps = np.abs(np.diff(ratios))
    slack = GROWTH_FLOOR * float(np.max(ratios))
    return steps, bool(np.all(np.diff(steps) <= slack))


def format_steps(steps):
    return f"[{', '.join(f'{d:.2e}' for d in steps)}]"


def ac11_grid():
    return sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.02)


def test_ac11_upper_bound_ratio():
    f = sample(product_sine(2), ac11_grid())
    bound = 5.0 * kappa(2.0, 2) ** 0.5
    stats = {}
    for label, spec in (("lebesgue(2)", Lebesgue(2.0)),
                        ("lorentz(2,3)", Lorentz(2.0, 3.0)),
                        ("orlicz(t^2)", OrliczSpace(PowerOrlicz(2.0)))):
        ratios = upper_bound_diagnostics(f, 2.0, spec, bump_family(2),
                                         BUMP_SCHEDULE)
        steps, contracting = ratio_increments(ratios)
        stats[label] = (float(np.max(ratios)), steps, contracting)
    bounded_ok = all(m < bound for m, _, _ in stats.values())
    growth_ok = all(c for _, _, c in stats.values())
    ok = bounded_ok and growth_ok
    report_line(
        "AC-11", ok,
        f"max ratios {[f'{m:.2f}' for m, _, _ in stats.values()]} vs "
        f"bound {bound:.2f} (bounded: {bounded_ok}); increments "
        + "; ".join(f"{label} {format_steps(steps)}"
                    for label, (_, steps, _) in stats.items())
        + f" (non-increasing: {growth_ok})",
    )
    assert ok


def test_ac11_growth_clause_rejects_step():
    # negative control: a jump across x = 0.5 makes the continuum ratio grow
    # like nu^(-1/2); its gradient is still taken from the smooth part, so
    # the bounded clause alone (max ratio 5.93 < 8.86) would not catch it
    grid = ac11_grid()
    smooth = sample(product_sine(2), grid)
    jump = (grid.points[:, 0] > 0.5).astype(float)
    f = SampledField(grid, smooth.values + jump, smooth.gradient_values)
    ratios = upper_bound_diagnostics(f, 2.0, Lebesgue(2.0),
                                     bump_family(2), BUMP_SCHEDULE)
    steps, contracting = ratio_increments(ratios)
    ok = not contracting
    report_line("AC-11 control", ok,
                f"sine + step increments {format_steps(steps)} rejected "
                f"by the growth clause: {ok}")
    assert ok


def test_ac12_rdati_axioms():
    families = {
        "fractional(p=2,R=1,n=1)": fractional_family(2.0, 1.0, 1),
        "bump(n=2)": bump_family(2),
    }
    worst_defect = 0.0
    rng = np.random.default_rng(12)
    monotone_ok = True
    for family in families.values():
        for nu in np.geomspace(1e-3, family.nu_max * 0.99, 20):
            worst_defect = max(worst_defect, normalization_defect(family, nu))
        for _ in range(1000):
            nu = rng.uniform(1e-3, family.nu_max * 0.99)
            r1, r2 = np.sort(rng.uniform(1e-4, 2.5, size=2))
            monotone_ok &= bool(family.rho(nu, r1) >= family.rho(nu, r2))
    ok = worst_defect < 1e-8 and monotone_ok
    report_line("AC-12", ok,
                f"worst normalization defect {worst_defect:.2e} (tol 1e-8), "
                f"monotone audit {monotone_ok}")
    assert ok
