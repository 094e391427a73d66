import math

import numpy as np
import pytest

from bbmlab.mollifiers import (
    bump_family,
    fractional_family,
    normalization_defect,
    tail_mass,
)


class TestFractionalFamily:
    def test_nu_max(self):
        assert fractional_family(2.0, 1.0, 1).nu_max == pytest.approx(0.5)
        assert fractional_family(1.0, 1.0, 2).nu_max == pytest.approx(1.0)
        assert fractional_family(4.0, 1.0, 3).nu_max == pytest.approx(0.75)

    def test_exact_radial_mass(self):
        fam = fractional_family(2.0, 1.0, 1)
        assert normalization_defect(fam, 0.25) < 1e-10

    def test_pointwise_formula(self):
        fam = fractional_family(1.0, 1.0, 2)
        # nu p (2R)^(-nu p) r^(nu p - n) at nu=0.5, r=1
        expected = 0.5 * 2.0**-0.5
        assert fam.rho(0.5, 1.0) == pytest.approx(expected, rel=1e-12)
        assert normalization_defect(fam, 0.5) < 1e-10

    def test_numeric_normalization_wide_radius(self):
        assert normalization_defect(fractional_family(1.0, 3.0, 2),
                                    0.4) < 1e-10

    def test_support_cutoff(self):
        fam = fractional_family(2.0, 1.0, 1)
        assert fam.rho(0.25, 2.1) == 0.0

    @pytest.mark.parametrize("p, R", [(0.5, 1.0), (math.nan, 1.0),
                                      (math.inf, 1.0), (2.0, 0.0),
                                      (2.0, math.inf)])
    def test_rejects_bad_p_and_radius(self, p, R):
        with pytest.raises(ValueError, match="p must be|R > 0"):
            fractional_family(p, R, 1)

    def test_nu_out_of_range(self):
        fam = fractional_family(2.0, 1.0, 1)
        with pytest.raises(ValueError):
            fam.rho(0.6, 0.5)
        with pytest.raises(ValueError):
            normalization_defect(fam, 0.5)


class TestBumpFamily:
    def test_mass_one_dim(self):
        fam = bump_family(1)
        assert normalization_defect(fam, 0.1) < 1e-12

    def test_formula(self):
        fam = bump_family(2)
        assert fam.rho(0.5, 0.3) == pytest.approx(8.0)

    def test_tail_vanishes_beyond_support(self):
        fam = bump_family(2)
        assert tail_mass(fam, 0.5, 0.6) == 0.0
        assert tail_mass(bump_family(1), 0.1, 0.2) == 0.0


class TestTailMass:
    def test_fractional_support_end(self):
        fam = fractional_family(2.0, 1.5, 2)
        assert tail_mass(fam, 0.3, 2.0 * 1.5) == 0.0

    def test_fractional_closed_form(self):
        fam = fractional_family(2.0, 1.0, 1)
        expected = 1.0 - 0.5**0.5
        assert tail_mass(fam, 0.25, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_numeric_matches_closed_form(self):
        fam = fractional_family(1.0, 3.0, 2)
        nu, delta = 0.4, 1.2
        closed = 1.0 - fam.radial_mass_below(nu, delta)
        assert tail_mass(fam, nu, delta) == pytest.approx(closed, abs=1e-10)

    def test_limit_to_zero_along_schedule(self):
        fam = fractional_family(2.0, 1.0, 1)
        delta = 0.1 * 2.0 * fam.R
        schedule = [0.25 * 0.5**k for k in range(12)]
        masses = [tail_mass(fam, nu, delta) for nu in schedule]
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 0.05


class TestRdatiAxioms:
    @pytest.mark.parametrize("family", [
        fractional_family(2.0, 1.0, 1),
        fractional_family(1.0, 2.0, 2),
        bump_family(1),
        bump_family(3),
    ], ids=["frac-p2-n1", "frac-p1-n2", "bump-n1", "bump-n3"])
    def test_normalization_over_log_grid(self, family):
        for nu in np.geomspace(1e-3, family.nu_max * 0.99, 20):
            assert normalization_defect(family, nu) < 1e-8

    @pytest.mark.parametrize("family", [
        fractional_family(2.0, 1.0, 1),
        bump_family(2),
    ], ids=["fractional", "bump"])
    def test_monotone_decreasing_profiles(self, family, rng):
        for _ in range(1000):
            nu = rng.uniform(0.01, family.nu_max * 0.99)
            r1, r2 = np.sort(rng.uniform(1e-4, 2.5, size=2))
            assert family.rho(nu, r1) >= family.rho(nu, r2)
