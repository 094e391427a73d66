import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab.bbm import (
    ConvergenceReport,
    _bounded_minimum,
    _fit_misfit,
    convergence_study,
    fit_limit,
    kappa,
    sobolev_target,
)
from bbmlab.field import SampledField, indicator_halfspace, linear, sample
from bbmlab.geometry import Disk, Interval, sample_quadrature
from bbmlab.mollifiers import bump_family, fractional_family
from bbmlab.oracle import mc_sphere_moment
from bbmlab.spaces import Lebesgue, Morrey


class TestKappa:
    def test_exact_values(self):
        assert kappa(2.0, 2) == pytest.approx(math.pi, rel=1e-13)
        assert kappa(1.0, 2) == pytest.approx(4.0, rel=1e-13)
        assert kappa(2.0, 3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.0, max_value=10.0))
    def test_dimension_one_is_two(self, p):
        assert kappa(p, 1) == 2.0

    def test_monte_carlo_agreement_small(self):
        got = mc_sphere_moment(2.0, 2, 200_000, seed=1)
        assert got == pytest.approx(kappa(2.0, 2), rel=2e-2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kappa(0.5, 2)


class TestSobolevTarget:
    def test_linear_on_disk(self):
        grid = sample_quadrature(Disk((0.0, 0.0), 1.0), 0.02)
        f = sample(linear((1.0, 0.0)), grid)
        target = sobolev_target(f, 2.0, Lebesgue(2.0))
        assert target == pytest.approx(math.pi, rel=1e-2)

    def test_constant_zero(self, unit_interval_grid):
        f = sample(linear((0.0,)), unit_interval_grid)
        assert sobolev_target(f, 2.0, Lebesgue(2.0)) == 0.0

    def test_linear_on_interval(self, unit_interval_grid):
        f = sample(linear((1.0,)), unit_interval_grid)
        assert sobolev_target(f, 2.0, Lebesgue(2.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_missing_gradient(self, unit_interval_grid):
        f = SampledField(unit_interval_grid,
                         np.zeros(len(unit_interval_grid)))
        with pytest.raises(ValueError):
            sobolev_target(f, 2.0, Lebesgue(2.0))


class TestFitLimit:
    def test_recovers_planted_model(self):
        scales = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        values = 1.4 - 0.8 * scales**1.3
        limit, coef, beta, residual = fit_limit(scales, values)
        assert limit == pytest.approx(1.4, abs=1e-6)
        assert beta == pytest.approx(1.3, abs=1e-2)
        assert residual < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_brent_port_matches_scipy_bit_for_bit(self, seed):
        """The bounded minimiser returns scipy's x and f(x) exactly on the
        fit's own misfit: 250 seeded four-point fits per seed, with
        geometric or random scales and noise from 1e-12 to 1e-1."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        for k in range(250):
            if k % 2:
                scales = 0.2 * rng.uniform(0.3, 0.7) ** np.arange(4)
            else:
                scales = np.sort(rng.uniform(1e-3, 1.0, 4))[::-1]
            beta, noise = rng.uniform(0.3, 2.5), 10.0 ** rng.uniform(-12, -1)
            values = (rng.normal() + rng.normal() * scales**beta
                      + noise * rng.normal(size=4))
            self._assert_brent_matches(optimize, scales, values)

    def test_brent_port_matches_scipy_on_a_flat_misfit(self):
        # equal scales leave the rate undetermined: every beta fits alike
        optimize = pytest.importorskip("scipy.optimize")
        self._assert_brent_matches(optimize, np.full(4, 0.1),
                                   np.array([1.0, 1.1, 0.9, 1.05]))

    @staticmethod
    def _assert_brent_matches(optimize, scales, values):
        def misfit(beta):
            return _fit_misfit(scales, values, beta)[0]

        want = optimize.minimize_scalar(misfit, bounds=(0.5, 2.0),
                                        method="bounded",
                                        options={"xatol": 1e-6})
        x, fun = _bounded_minimum(misfit, 0.5, 2.0, 1e-6)
        assert (x, fun) == (want.x, want.fun)

    def test_flat_series(self):
        limit, _, _, residual = fit_limit(np.array([0.2, 0.1, 0.05, 0.02]),
                                          np.full(4, 2.5))
        assert limit == 2.5
        assert residual == 0.0


@pytest.fixture(scope="module")
def line_setup():
    domain = Interval(0.0, 1.0)
    grid = sample_quadrature(domain, 1e-3)
    return domain, grid, sample(linear((1.0,)), grid)


class TestConvergenceStudy:
    def test_member_linear(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(7)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                   schedule, tolerance=0.03)
        assert report.verdict == "member"
        assert report.relative_error <= 0.03
        assert report.extrapolated_limit == pytest.approx(math.sqrt(2.0),
                                                          rel=0.03)

    def test_constant_member_with_zero_target(self, line_setup):
        _, grid, _ = line_setup
        f = sample(linear((0.0,)), grid)
        schedule = [0.2 * 0.5**k for k in range(5)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                   schedule)
        assert report.verdict == "member"
        assert report.target == 0.0
        assert report.extrapolated_limit == 0.0

    def test_indicator_non_member(self):
        domain = Interval(-1.0, 1.0)
        grid = sample_quadrature(domain, 1e-3)
        f = sample(indicator_halfspace((1.0,), 0.0), grid)
        family = fractional_family(2.0, domain.enclosing_radius(), 1)
        schedule = [0.4 * 0.5**k for k in range(6)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), family, schedule)
        assert report.verdict == "non-member"
        assert report.extrapolated_limit == "diverging"
        assert report.target is None

    def test_morrey_never_claims_member(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(5)]
        report = convergence_study(f, 2.0, Morrey(3.0, 2.0), bump_family(1),
                                   schedule, tolerance=0.5)
        assert report.verdict == "inconclusive"

    def test_short_schedule_rejected(self, line_setup):
        _, _, f = line_setup
        with pytest.raises(ValueError):
            convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                              [0.2, 0.1, 0.05])

    def test_non_decreasing_schedule_rejected(self, line_setup):
        _, _, f = line_setup
        with pytest.raises(ValueError):
            convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                              [0.05, 0.1, 0.2, 0.4])

    @pytest.mark.parametrize("mode, family", [("gagliardo", None),
                                              ("rdati", bump_family(1))])
    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
    def test_bad_p_fails_before_any_pass(self, monkeypatch, line_setup, mode,
                                         family, p):
        import bbmlab.nonlocal_energy as nonlocal_energy

        def fail(*args):
            raise AssertionError("an energy pass ran")

        monkeypatch.setattr(nonlocal_energy, "_energy_values", fail)
        _, _, f = line_setup
        with pytest.raises(ValueError, match="p must be a finite number"):
            convergence_study(f, p, Lebesgue(2.0), family,
                              [0.8, 0.9, 0.95, 0.975] if family is None
                              else [0.2, 0.1, 0.05, 0.025], mode=mode)

    def test_gagliardo_mode(self, line_setup):
        _, _, f = line_setup
        report = convergence_study(f, 2.0, Lebesgue(2.0), None,
                                   [0.8, 0.9, 0.95, 0.975],
                                   mode="gagliardo", tolerance=0.03)
        assert report.verdict == "member"
        assert report.extrapolated_limit == pytest.approx(1.0, rel=0.03)
        assert report.schedule == (0.8, 0.9, 0.95, 0.975)
        assert report.scales == pytest.approx((0.2, 0.1, 0.05, 0.025))

    def test_fit_quality_for_smooth_function(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(7)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                   schedule)
        assert report.fitted_beta > 0
        last_increment = abs(report.functional_values[-1]
                             - report.functional_values[-2])
        assert report.fit_residual < 0.1 * max(last_increment, 1e-12)

    def test_report_deterministic(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(5)]
        a = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1), schedule)
        b = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1), schedule)
        assert a == b

    def test_report_roundtrip(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(5)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                   schedule)
        assert ConvergenceReport.from_dict(report.to_dict()) == report

    def test_csv_rows_follow_schedule(self, line_setup):
        _, _, f = line_setup
        schedule = [0.2 * 0.5**k for k in range(5)]
        report = convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                   schedule)
        rows = report.csv_rows()
        assert len(rows) == len(schedule)
        assert [r[0] for r in rows] == list(schedule)
