import math

import numpy as np
import pytest

from bbmlab import nonlocal_energy
from bbmlab.field import (
    SampledField,
    indicator_halfspace,
    linear,
    product_sine,
    sample,
)
from bbmlab.geometry import (
    Box,
    Disk,
    Interval,
    enclosing_radius,
    sample_quadrature,
)
from bbmlab.mollifiers import bump_family, fractional_family
from bbmlab.nonlocal_energy import (
    EnergyParams,
    bbm_functional,
    bbm_functional_schedule,
    energy_half_field,
    gagliardo_functional,
    pointwise_energy,
)
from bbmlab.spaces import Lebesgue, MixedLebesgue, norm


@pytest.fixture(scope="module")
def line_grid():
    return sample_quadrature(Interval(0.0, 1.0), 2e-3)


@pytest.fixture(scope="module")
def line_field(line_grid):
    return sample(linear((1.0,)), line_grid)


class TestPointwiseEnergy:
    def test_linear_interior_hits_kappa(self, line_field):
        # difference quotient is exactly |v| so the energy equals the
        # kernel mass times kappa(2,1) = 2
        params = EnergyParams(2.0, bump_family(1), 0.1)
        idx = len(line_field.grid) // 2
        value = pointwise_energy(line_field, idx, params)
        assert value == pytest.approx(2.0, rel=1e-2)

    def test_constant_zero(self, line_grid):
        f = SampledField(line_grid, np.full(len(line_grid), 3.7))
        params = EnergyParams(2.0, bump_family(1), 0.1)
        assert pointwise_energy(f, 10, params) == 0.0

    def test_2d_linear_interior(self):
        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.02)
        f = sample(linear((1.0, 0.0)), grid)
        params = EnergyParams(2.0, bump_family(2), 0.15)
        idx = int(np.argmin(
            np.linalg.norm(grid.points - np.array([0.5, 0.5]), axis=1)))
        value = pointwise_energy(f, idx, params)
        assert value == pytest.approx(math.pi, rel=2e-2)

    def test_shift_and_sign_invariance(self, line_grid, rng):
        vals = rng.normal(size=len(line_grid))
        params = EnergyParams(2.0, bump_family(1), 0.05)
        base = pointwise_energy(SampledField(line_grid, vals), 7, params)
        shifted = pointwise_energy(SampledField(line_grid, vals + 4.2), 7,
                                   params)
        negated = pointwise_energy(SampledField(line_grid, -vals), 7, params)
        assert shifted == pytest.approx(base, rel=1e-12)
        assert negated == pytest.approx(base, rel=1e-12)

    def test_p_homogeneous_scaling(self, line_grid, rng):
        vals = rng.normal(size=len(line_grid))
        for p in (1.0, 2.0, 3.0):
            params = EnergyParams(p, bump_family(1), 0.05)
            base = pointwise_energy(SampledField(line_grid, vals), 11, params)
            scaled = pointwise_energy(SampledField(line_grid, 3.0 * vals), 11,
                                      params)
            assert scaled == pytest.approx(3.0**p * base, rel=1e-12)

    def test_continuity_in_scale_for_lipschitz(self, line_field):
        # energy difference bounded by Lip^p times the moved kernel mass
        nus = np.linspace(0.05, 0.2, 12)
        idx = len(line_field.grid) // 2
        values = [
            pointwise_energy(line_field, idx,
                             EnergyParams(2.0, bump_family(1), nu))
            for nu in nus
        ]
        sigma = 2.0
        for (n1, v1), (n2, v2) in zip(zip(nus, values), zip(nus[1:], values[1:])):
            moved = 2.0 * (1.0 - (n1 / n2) ** 1)
            assert abs(v2 - v1) <= 1.0**2 * sigma * moved + 1e-9


class TestBbmFunctional:
    def test_constant_is_zero(self, line_grid):
        f = SampledField(line_grid, np.full(len(line_grid), 2.0))
        params = EnergyParams(2.0, bump_family(1), 0.1)
        assert bbm_functional(f, params, Lebesgue(2.0)) == 0.0

    def test_linear_near_sqrt_two(self, line_field):
        params = EnergyParams(2.0, bump_family(1), 0.05)
        value = bbm_functional(line_field, params, Lebesgue(2.0))
        assert value == pytest.approx(math.sqrt(2.0), rel=0.03)

    def test_indicator_grows_as_scale_shrinks(self):
        domain = Interval(-1.0, 1.0)
        grid = sample_quadrature(domain, 2e-3)
        f = sample(indicator_halfspace((1.0,), 0.0), grid)
        family = fractional_family(2.0, enclosing_radius(domain), 1)
        values = bbm_functional_schedule(f, 2.0, family, [0.1, 0.05],
                                         Lebesgue(2.0))
        assert values[1] > values[0]

    def test_schedule_matches_individual_calls(self, line_field):
        family = bump_family(1)
        nus = [0.2, 0.1, 0.05]
        batched = bbm_functional_schedule(line_field, 2.0, family, nus,
                                          Lebesgue(2.0))
        single = [
            bbm_functional(line_field,
                           EnergyParams(2.0, family, nu),
                           Lebesgue(2.0))
            for nu in nus
        ]
        assert np.allclose(batched, single, rtol=1e-14)

    def test_stride_reweights_measure(self, line_field):
        params = EnergyParams(2.0, bump_family(1), 0.1)
        full = bbm_functional(line_field, params, Lebesgue(2.0))
        thinned = bbm_functional(line_field, params, Lebesgue(2.0), stride=2)
        assert thinned == pytest.approx(full, rel=1e-2)

    def test_quasi_random_grid_supported(self):
        domain = Interval(0.0, 1.0)
        grid = sample_quadrature(domain, 2e-3, "quasi-random")
        f = sample(linear((1.0,)), grid)
        params = EnergyParams(2.0, bump_family(1), 0.2)
        reference = math.sqrt(2.0 - 0.2)
        value = bbm_functional(f, params, Lebesgue(2.0))
        assert value == pytest.approx(reference, rel=0.15)

    def test_energy_half_field_feeds_norm(self, line_field):
        params = EnergyParams(2.0, bump_family(1), 0.1)
        half = energy_half_field(line_field, params)
        assert norm(Lebesgue(2.0), half) == pytest.approx(
            bbm_functional(line_field, params, Lebesgue(2.0)), rel=1e-14)


class TestGagliardoRoute:
    def test_constant_zero(self, line_grid):
        f = SampledField(line_grid, np.zeros(len(line_grid)))
        assert gagliardo_functional(f, 2.0, 0.9, Lebesgue(2.0)) == 0.0

    @pytest.mark.parametrize("s", [0.8, 0.9, 0.95])
    def test_route_consistency(self, line_field, s):
        domain = Interval(0.0, 1.0)
        R = enclosing_radius(domain)
        nu = 1.0 - s
        p = 2.0
        family = fractional_family(p, R, 1)
        direct = gagliardo_functional(line_field, p, s, Lebesgue(2.0))
        via_family = bbm_functional(
            line_field, EnergyParams(p, family, nu), Lebesgue(2.0))
        converted = via_family * (2.0 * R) ** nu / p ** (1.0 / p)
        assert direct == pytest.approx(converted, rel=1e-8)

    def test_invalid_s(self, line_field):
        with pytest.raises(ValueError):
            gagliardo_functional(line_field, 2.0, 1.2, Lebesgue(2.0))

    def test_scale_warning_below_resolved_bound(self, line_field):
        params = EnergyParams(2.0, bump_family(1), 0.004)
        with pytest.warns(RuntimeWarning, match="below the resolved bound"):
            bbm_functional(line_field, params, Lebesgue(2.0))


BUMP_SCHEDULE = [0.2 * 0.5**k for k in range(7)]


def _spy_sources(monkeypatch):
    """Record which pair source each energy pass takes."""
    taken = []
    for name, label in (("_all_pair_blocks", "all"),
                        ("_neighbour_blocks", "neighbour")):
        original = getattr(nonlocal_energy, name)

        def spy(*args, _original=original, _label=label):
            taken.append(_label)
            return _original(*args)

        monkeypatch.setattr(nonlocal_energy, name, spy)
    return taken


def _energies(field, kernels, stride):
    eval_idx, _ = nonlocal_energy._strided_grid(field.grid, stride)
    return nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)


def _all_pairs_energies(field, kernels, stride):
    """Energies with the all-pairs source forced on every input."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlocal_energy, "_pair_blocks",
                   lambda pts, eval_idx, reach:
                   nonlocal_energy._all_pair_blocks(pts, eval_idx))
        return _energies(field, kernels, stride)


class TestPairSources:
    """The neighbour list must reproduce the all-pairs pass."""

    @pytest.mark.parametrize("domain, h, scheme, fn, family, nus, stride", [
        (Interval(0.0, 1.0), 2e-3, "tensor-midpoint", linear((1.0,)),
         bump_family(1), BUMP_SCHEDULE, 1),
        (Interval(0.0, 1.0), 2e-3, "quasi-random", product_sine(1),
         bump_family(1), BUMP_SCHEDULE, 2),
        (Interval(0.0, 1.0), 2e-3, "tensor-midpoint", product_sine(1),
         fractional_family(2.0, 0.2, 1), [0.1, 0.3, 0.45], 2),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.04, "tensor-midpoint",
         product_sine(2), bump_family(2), BUMP_SCHEDULE, 2),
        (Disk((0.0, 0.0), 1.0), 0.06, "quasi-random", linear((0.6, 0.8)),
         bump_family(2), BUMP_SCHEDULE, 1),
        (Disk((0.0, 0.0), 1.0), 0.06, "tensor-midpoint", product_sine(2),
         fractional_family(2.0, 0.3, 2), [0.2, 0.5], 1),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.05, "quasi-random", product_sine(2),
         fractional_family(2.0, 0.3, 2), [0.2, 0.5], 2),
    ])
    def test_neighbour_list_matches_all_pairs(self, monkeypatch, domain, h,
                                              scheme, fn, family, nus,
                                              stride):
        field = sample(fn, sample_quadrature(domain, h, scheme))
        kernels = [family.kernel(nu, 2.0) for nu in nus]
        dense = _all_pairs_energies(field, kernels, stride)
        taken = _spy_sources(monkeypatch)
        sparse = _energies(field, kernels, stride)
        assert taken == ["neighbour"]
        assert np.all(dense > 0)
        assert np.max(np.abs(sparse - dense) / dense) <= 1e-12

    def test_full_support_takes_all_pairs(self, monkeypatch):
        domain = Box((0.0, 0.0), (1.0, 1.0))
        field = sample(product_sine(2), sample_quadrature(domain, 0.1))
        taken = _spy_sources(monkeypatch)
        gagliardo_functional(field, 2.0, 0.9, Lebesgue(2.0))
        # the CLI's fractional family: cut 2R covers the domain's diameter
        family = fractional_family(2.0, enclosing_radius(domain), 2)
        bbm_functional_schedule(field, 2.0, family, [0.5, 0.2],
                                Lebesgue(2.0), stride=2)
        assert taken == ["all", "all"]
        bbm_functional_schedule(field, 2.0, bump_family(2), [0.3, 0.2],
                                Lebesgue(2.0))
        assert taken[-1] == "neighbour"

    def test_blocks_respect_the_pair_budget(self, monkeypatch):
        domain = Interval(0.0, 1.0)
        field = sample(product_sine(1), sample_quadrature(domain, 2e-3))
        kernels = [bump_family(1).kernel(nu, 2.0) for nu in BUMP_SCHEDULE]
        whole = _energies(field, kernels, 1)
        blocks = []
        original = nonlocal_energy._neighbour_blocks

        def recording(*args):
            for item in original(*args):
                blocks.append(len(item[1]))
                yield item

        monkeypatch.setattr(nonlocal_energy, "_PAIR_BUDGET", 5_000)
        monkeypatch.setattr(nonlocal_energy, "_neighbour_blocks", recording)
        split = _energies(field, kernels, 1)
        assert len(blocks) > 1
        assert max(blocks) <= 5_000
        assert np.array_equal(split, whole)


class TestStride:
    @pytest.fixture(scope="class")
    def square_field(self):
        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.05)
        return sample(product_sine(2), grid)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_mixed_norm_with_stride(self, square_field, stride):
        # on a tensor grid the (2, 2) mixed norm is the L^2 norm
        mixed = bbm_functional_schedule(
            square_field, 2.0, bump_family(2), BUMP_SCHEDULE[:3],
            MixedLebesgue((2.0, 2.0)), stride=stride)
        plain = bbm_functional_schedule(
            square_field, 2.0, bump_family(2), BUMP_SCHEDULE[:3],
            Lebesgue(2.0), stride=stride)
        assert np.allclose(mixed, plain, rtol=1e-12, atol=0.0)

    def test_stride_keeps_an_axis_sublattice(self, square_field):
        # 20 cells per axis at stride 3: coordinates 0, 3, ..., 18 carry
        # the cells of their group, the last group holding only 18 and 19
        grid = square_field.grid
        params = EnergyParams(2.0, bump_family(2), 0.2)
        half = energy_half_field(square_field, params, stride=3)
        assert half.grid.axes is not None
        for (kept, kept_w), (full, _) in zip(half.grid.axes, grid.axes):
            assert np.array_equal(kept, full[::3])
            assert np.allclose(kept_w, [0.15] * 6 + [0.1], rtol=1e-12)
            assert math.isclose(kept_w.sum(), 1.0, rel_tol=1e-14)
        keep = np.arange(0, 20, 3)
        full_half = energy_half_field(square_field, params).values
        expected = full_half.reshape(20, 20)[np.ix_(keep, keep)].ravel()
        assert np.allclose(half.values, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(
            half.grid.points,
            grid.points.reshape(20, 20, 2)[np.ix_(keep, keep)].reshape(-1, 2))

    def test_point_cloud_stride_rescales_raveled_points(self):
        grid = sample_quadrature(Disk((0.0, 0.0), 1.0), 0.1)
        field = sample(linear((1.0, 0.0)), grid)
        params = EnergyParams(2.0, bump_family(2), 0.3)
        half = energy_half_field(field, params, stride=2)
        assert half.grid.axes is None
        assert np.array_equal(half.grid.points, grid.points[::2])
        assert half.grid.weights.sum() == pytest.approx(grid.weights.sum(),
                                                        rel=1e-14)
