import math

import numpy as np
import pytest

from bbmlab.field import linear, sample, indicator_halfspace
from bbmlab.geometry import Interval, sample_quadrature
from bbmlab.mollifiers import bump_family
from bbmlab.nonlocal_energy import EnergyParams, bbm_functional
from bbmlab.oracle import (
    dense_1d_functional,
    mc_sphere_moment,
    rearrangement_oracle,
)
from bbmlab.spaces import Lebesgue, decreasing_rearrangement
from bbmlab.field import SampledField


class TestSphereMoment:
    def test_circle_second_moment(self):
        got = mc_sphere_moment(2.0, 2, 1_000_000, seed=0)
        assert got == pytest.approx(math.pi, rel=5e-3)

    def test_degenerate_exponent_gives_surface(self):
        got = mc_sphere_moment(0.0, 3, 10_000, seed=0)
        assert got == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_sphere_second_moment(self):
        got = mc_sphere_moment(2.0, 3, 1_000_000, seed=1)
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=5e-3)

    def test_deterministic_per_seed(self):
        a = mc_sphere_moment(1.5, 2, 50_000, seed=9)
        b = mc_sphere_moment(1.5, 2, 50_000, seed=9)
        assert a == b


class TestDense1d:
    def test_linear_agrees_with_engine(self):
        domain = Interval(0.0, 1.0)
        grid = sample_quadrature(domain, 1e-3)
        f = sample(linear((1.0,)), grid)
        engine = bbm_functional(
            f, EnergyParams(2.0, bump_family(1), 0.1), Lebesgue(2.0))
        dense = dense_1d_functional(linear((1.0,)), domain, 2.0, 2.0, 0.1,
                                    1e-4, family_kind="bump")
        assert engine == pytest.approx(dense, rel=0.01)

    def test_constant_zero(self):
        dense = dense_1d_functional(linear((0.0,)), Interval(0.0, 1.0), 2.0,
                                    2.0, 0.1, 1e-3, family_kind="bump")
        assert dense == 0.0

    def test_indicator_grows(self):
        domain = Interval(-1.0, 1.0)
        fn = indicator_halfspace((1.0,), 0.0)
        coarse_scale = dense_1d_functional(fn, domain, 2.0, 2.0, 0.1, 5e-4,
                                           family_kind="fractional")
        fine_scale = dense_1d_functional(fn, domain, 2.0, 2.0, 0.05, 5e-4,
                                         family_kind="fractional")
        assert fine_scale > coarse_scale

    def test_gagliardo_mode_prefactor(self):
        domain = Interval(0.0, 1.0)
        value = dense_1d_functional(linear((1.0,)), domain, 2.0, 2.0, 0.9,
                                    1e-3, mode="gagliardo")
        # analytic continuum value is (1 + 2 nu)^(-1/2) at nu = 1 - s
        assert value == pytest.approx((1.0 + 0.2) ** -0.5, rel=0.01)


class TestRearrangementOracle:
    def test_matches_sorted_small(self):
        step = rearrangement_oracle([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert step(0.5) == 3.0
        assert step(1.5) == 2.0
        assert step(2.5) == 1.0
        assert step(3.5) == 0.0

    def test_constant_field(self):
        step = rearrangement_oracle([2.0, 2.0], [0.5, 0.5])
        assert step(0.2) == 2.0
        assert step(0.99) == 2.0
        assert step(1.01) == 0.0

    def test_agrees_with_sorting_implementation(self, rng):
        from bbmlab.geometry import QuadratureGrid
        for _ in range(100):
            n = rng.integers(2, 12)
            values = rng.normal(size=n)
            weights = rng.uniform(0.05, 1.0, size=n)
            grid = QuadratureGrid(np.arange(n, dtype=float)[:, None], weights,
                                  1.0)
            sorted_step = decreasing_rearrangement(SampledField(grid, values))
            oracle_step = rearrangement_oracle(values, weights)
            # probe every breakpoint, the midpoints between them, and the
            # tail; avoid points an ulp away from the total measure where
            # the two summation orders may legitimately disagree
            breaks = sorted_step.breakpoints
            edges = np.concatenate([[0.0], breaks])
            mids = 0.5 * (edges[:-1] + edges[1:])
            probes = np.concatenate([breaks, mids, [breaks[-1] + 0.1]])
            got = np.array([oracle_step(t) for t in probes])
            want = sorted_step(probes)
            assert np.max(np.abs(got - want)) == 0.0
