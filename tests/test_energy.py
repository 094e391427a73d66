import math
import types

import numpy as np
import pytest

from bbmlab import geometry, nonlocal_energy
from bbmlab.bbm import convergence_study
from bbmlab.field import (
    SampledField,
    indicator_halfspace,
    linear,
    load_field_csv,
    product_sine,
    radial_bump,
    sample,
)
from bbmlab.geometry import (
    Box,
    Disk,
    Interval,
    Polygon,
    sample_quadrature,
)
from bbmlab.mollifiers import (
    GagliardoFamily,
    bump_family,
    fractional_family,
    gagliardo_kernel,
)
from bbmlab.nonlocal_energy import (
    bbm_functional_schedule,
    energy_half_field,
    gagliardo_functional,
    pointwise_energy,
)
from bbmlab.spaces import Lebesgue, norm, unit_ball_volume


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
        idx = len(line_field.grid) // 2
        value = pointwise_energy(line_field, 2.0, bump_family(1), 0.1, idx)
        assert value == pytest.approx(2.0, rel=1e-2)

    def test_constant_zero(self, line_grid):
        f = SampledField(line_grid, np.full(len(line_grid), 3.7))
        assert pointwise_energy(f, 2.0, bump_family(1), 0.1, 10) == 0.0

    def test_2d_linear_interior(self):
        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.02)
        f = sample(linear((1.0, 0.0)), grid)
        idx = int(np.argmin(
            np.linalg.norm(grid.points - np.array([0.5, 0.5]), axis=1)))
        value = pointwise_energy(f, 2.0, bump_family(2), 0.15, idx)
        assert value == pytest.approx(math.pi, rel=2e-2)

    def test_shift_and_sign_invariance(self, line_grid, rng):
        vals = rng.normal(size=len(line_grid))
        params = (2.0, bump_family(1), 0.05, 7)
        base = pointwise_energy(SampledField(line_grid, vals), *params)
        shifted = pointwise_energy(SampledField(line_grid, vals + 4.2),
                                   *params)
        negated = pointwise_energy(SampledField(line_grid, -vals), *params)
        assert shifted == pytest.approx(base, rel=1e-12)
        assert negated == pytest.approx(base, rel=1e-12)

    def test_p_homogeneous_scaling(self, line_grid, rng):
        vals = rng.normal(size=len(line_grid))
        for p in (1.0, 2.0, 3.0):
            params = (p, bump_family(1), 0.05, 11)
            base = pointwise_energy(SampledField(line_grid, vals), *params)
            scaled = pointwise_energy(SampledField(line_grid, 3.0 * vals),
                                      *params)
            assert scaled == pytest.approx(3.0**p * base, rel=1e-12)

    def test_continuity_in_scale_for_lipschitz(self, line_field):
        # energy difference bounded by Lip^p times the moved kernel mass
        nus = np.linspace(0.05, 0.2, 12)
        idx = len(line_field.grid) // 2
        values = [
            pointwise_energy(line_field, 2.0, bump_family(1), nu, idx)
            for nu in nus
        ]
        sigma = 2.0
        for (n1, v1), (n2, v2) in zip(zip(nus, values), zip(nus[1:], values[1:])):
            moved = 2.0 * (1.0 - (n1 / n2) ** 1)
            assert abs(v2 - v1) <= 1.0**2 * sigma * moved + 1e-9


class TestBbmFunctional:
    def test_constant_is_zero(self, line_grid):
        f = SampledField(line_grid, np.full(len(line_grid), 2.0))
        assert bbm_functional_schedule(f, 2.0, bump_family(1), [0.1],
                                       Lebesgue(2.0))[0] == 0.0

    def test_one_cell_lattice_is_zero(self):
        """One cell pairs with nothing: the offset pass has no offsets."""
        grid = sample_quadrature(Interval(0.0, 1.0), 1.0)
        f = sample(linear((1.0,)), grid)
        assert len(grid) == 1
        assert bbm_functional_schedule(f, 2.0, bump_family(1), [0.5, 0.25],
                                       Lebesgue(2.0)).tolist() == [0.0, 0.0]

    def test_linear_near_sqrt_two(self, line_field):
        value = bbm_functional_schedule(line_field, 2.0, bump_family(1),
                                        [0.05], Lebesgue(2.0))[0]
        assert value == pytest.approx(math.sqrt(2.0), rel=0.03)

    def test_indicator_grows_as_scale_shrinks(self):
        domain = Interval(-1.0, 1.0)
        grid = sample_quadrature(domain, 2e-3)
        f = sample(indicator_halfspace((1.0,), 0.0), grid)
        family = fractional_family(2.0, domain.enclosing_radius(), 1)
        values = bbm_functional_schedule(f, 2.0, family, [0.1, 0.05],
                                         Lebesgue(2.0))
        assert values[1] > values[0]

    def test_schedule_matches_individual_calls(self, line_field):
        family = bump_family(1)
        nus = [0.2, 0.1, 0.05]
        batched = bbm_functional_schedule(line_field, 2.0, family, nus,
                                          Lebesgue(2.0))
        single = [
            bbm_functional_schedule(line_field, 2.0, family, [nu],
                                    Lebesgue(2.0))[0]
            for nu in nus
        ]
        assert np.allclose(batched, single, rtol=1e-14)

    def test_quasi_random_grid_supported(self):
        domain = Interval(0.0, 1.0)
        grid = sample_quadrature(domain, 2e-3, "quasi-random")
        f = sample(linear((1.0,)), grid)
        reference = math.sqrt(2.0 - 0.2)
        value = bbm_functional_schedule(f, 2.0, bump_family(1), [0.2],
                                        Lebesgue(2.0))[0]
        assert value == pytest.approx(reference, rel=0.15)

    def test_energy_half_field_feeds_norm(self, line_field):
        half = energy_half_field(line_field, 2.0, bump_family(1), 0.1)
        assert norm(Lebesgue(2.0), half) == pytest.approx(
            bbm_functional_schedule(line_field, 2.0, bump_family(1), [0.1],
                                    Lebesgue(2.0))[0], rel=1e-14)


class TestGagliardoRoute:
    def test_constant_zero(self, line_grid):
        f = SampledField(line_grid, np.zeros(len(line_grid)))
        assert gagliardo_functional(f, 2.0, 0.9, Lebesgue(2.0)) == 0.0

    @pytest.mark.parametrize("s", [0.8, 0.9, 0.95])
    def test_route_consistency(self, line_field, s):
        domain = Interval(0.0, 1.0)
        R = domain.enclosing_radius()
        nu = 1.0 - s
        p = 2.0
        family = fractional_family(p, R, 1)
        direct = gagliardo_functional(line_field, p, s, Lebesgue(2.0))
        via_family = bbm_functional_schedule(line_field, p, family, [nu],
                                             Lebesgue(2.0))[0]
        converted = via_family * (2.0 * R) ** nu / p ** (1.0 / p)
        assert direct == pytest.approx(converted, rel=1e-8)

    def test_invalid_s(self, line_field):
        with pytest.raises(ValueError):
            gagliardo_functional(line_field, 2.0, 1.2, Lebesgue(2.0))

    def test_scale_warning_below_resolved_bound(self, line_field):
        with pytest.warns(RuntimeWarning, match="below the resolved bound"):
            bbm_functional_schedule(line_field, 2.0, bump_family(1), [0.004],
                                    Lebesgue(2.0))

    @pytest.mark.parametrize("entry", [
        lambda f: convergence_study(f, 2.0, Lebesgue(2.0), bump_family(1),
                                    [0.04, 0.03, 0.02, 0.01]),
        lambda f: bbm_functional_schedule(f, 2.0, bump_family(1), [0.004],
                                          Lebesgue(2.0)),
        lambda f: gagliardo_functional(f, 2.0, 0.99, Lebesgue(2.0)),
        lambda f: energy_half_field(f, 2.0, bump_family(1), 0.004),
        lambda f: pointwise_energy(f, 2.0, bump_family(1), 0.004, 7),
    ], ids=["convergence_study", "bbm_functional_schedule",
            "gagliardo_functional", "energy_half_field", "pointwise_energy"])
    def test_scale_warning_names_the_callers_line(self, line_field, entry):
        """The warning points at the user's call, not at a frame inside
        the package, whichever entry point it went through."""
        with pytest.warns(RuntimeWarning,
                          match="below the resolved bound") as record:
            entry(line_field)
        assert [w.filename for w in record] == [__file__] * len(record)


BUMP_SCHEDULE = [0.2 * 0.5**k for k in range(7)]
# the reference's near rule: r < NEAR_FIELD_FACTOR * h in exact arithmetic
NEAR_MARGIN = 1e-9
TRIANGLE = Polygon([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)])


def _all_pairs_reference(field, kernels, p, eval_idx):
    """The all-pairs pass the offset pass replaced, as a reference: every
    (row, column) pair, distances and cell widths from the coordinates and
    the weights, near iff 0 < r < NEAR_FIELD_FACTOR h (1 - NEAR_MARGIN)."""
    grid = field.grid
    pts, w, vals = grid.points, grid.weights, field.values
    n = grid.dimension
    near_radius = nonlocal_energy.NEAR_FIELD_FACTOR * grid.h \
        * (1.0 - NEAR_MARGIN)
    sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cn = unit_ball_volume(n)
    cell_width = w ** (1.0 / n)
    out = np.zeros((len(kernels), len(eval_idx)))
    for start in range(0, len(eval_idx), 256):
        sel = eval_idx[start:start + 256]
        diff = pts[sel][:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("...i,...i->...", diff, diff))
        near = (dist > 0.0) & (dist < near_radius)
        far = dist >= near_radius
        with np.errstate(divide="ignore", invalid="ignore"):
            quot_w = np.abs(vals[sel][:, None] - vals[None, :]) ** p \
                / dist**p * w
        near_mass = np.where(near, w, 0.0).sum(axis=1)
        qbar = np.divide(np.where(near, quot_w, 0.0).sum(axis=1), near_mass,
                         out=np.zeros(len(sel)), where=near_mass > 0)
        r_eff = ((near_mass + w[sel]) / cn) ** (1.0 / n)
        for ki, kernel in enumerate(kernels):
            rho_bar = kernel.cell_average(np.where(far, dist, 1.0),
                                          cell_width)
            far_term = np.where(far, quot_w * rho_bar, 0.0).sum(axis=1)
            out[ki, start:start + len(sel)] = (
                far_term + qbar * sigma * kernel.mass_below(r_eff))
    return out


def _kernels(kind, nus, p, n):
    if kind == "bump":
        return [bump_family(n).kernel(nu, p) for nu in nus]
    if kind == "fractional":
        return [fractional_family(p, 0.4, n).kernel(nu, p) for nu in nus]
    return [gagliardo_kernel(s, p, n) for s in nus]


def _energies(field, kernels, p):
    return nonlocal_energy._energy_values(field, kernels, p,
                                          np.arange(len(field.grid)))


def _reference(field, kernels, p):
    return _all_pairs_reference(field, kernels, p, np.arange(len(field.grid)))


def _spy_sources(monkeypatch):
    """Record which source each energy pass takes."""
    taken = []
    for name, label in (("_offset_sums", "offset"), ("_tree_sums", "tree")):
        original = getattr(nonlocal_energy, name)

        def spy(*args, _original=original, _label=label):
            taken.append(_label)
            return _original(*args)

        monkeypatch.setattr(nonlocal_energy, name, spy)
    return taken


UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
UNIT_CUBE = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
UNIT_DISK = Disk((0.0, 0.0), 1.0)

# beside the lattice cases of test_neighbour_list_matches_all_pairs
LATTICE_CASES = [
    (Interval(0.0, 1.0), 2e-3, product_sine(1), "gagliardo", [0.9], 1.5),
    (UNIT_SQUARE, 0.05, product_sine(2), "gagliardo", [0.95], 2.0),
    (UNIT_DISK, 0.08, linear((0.6, 0.8)), "bump", BUMP_SCHEDULE, 3.0),
    (TRIANGLE, 0.03, linear((0.6, 0.8)), "bump", BUMP_SCHEDULE, 2.0),
    (TRIANGLE, 0.04, product_sine(2), "gagliardo", [0.8, 0.9], 2.0),
    (UNIT_CUBE, 0.1, product_sine(3), "bump", [0.4, 0.2], 2.0),
    (UNIT_CUBE, 0.1, product_sine(3), "fractional", [0.3], 2.0),
    (UNIT_CUBE, 0.125, product_sine(3), "gagliardo", [0.9], 2.0),
]


class TestPairSources:
    """Lattice grids take the offset pass, point clouds the k-d tree, and
    both reproduce the all-pairs reference."""

    @pytest.mark.parametrize(
        "domain, h, fn, kind, nus, p", LATTICE_CASES)
    def test_offset_pass_matches_all_pairs(self, monkeypatch, domain, h, fn,
                                           kind, nus, p):
        field = sample(fn, sample_quadrature(domain, h))
        kernels = _kernels(kind, nus, p, domain.dimension)
        dense = _reference(field, kernels, p)
        taken = _spy_sources(monkeypatch)
        got = _energies(field, kernels, p)
        assert taken == ["offset"]
        assert np.all(dense > 0)
        assert np.max(np.abs(got - dense) / dense) <= 1e-12

    @pytest.mark.parametrize("domain, h, scheme, fn, family, nus", [
        (Interval(0.0, 1.0), 2e-3, "tensor-midpoint", linear((1.0,)),
         bump_family(1), BUMP_SCHEDULE),
        (Interval(0.0, 1.0), 2e-3, "quasi-random", product_sine(1),
         bump_family(1), BUMP_SCHEDULE),
        (Interval(0.0, 1.0), 2e-3, "tensor-midpoint", product_sine(1),
         fractional_family(2.0, 0.2, 1), [0.1, 0.3, 0.45]),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.04, "tensor-midpoint",
         product_sine(2), bump_family(2), BUMP_SCHEDULE),
        (Disk((0.0, 0.0), 1.0), 0.06, "quasi-random", linear((0.6, 0.8)),
         bump_family(2), BUMP_SCHEDULE),
        (Disk((0.0, 0.0), 1.0), 0.06, "tensor-midpoint", product_sine(2),
         fractional_family(2.0, 0.3, 2), [0.2, 0.5]),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.05, "quasi-random", product_sine(2),
         fractional_family(2.0, 0.3, 2), [0.2, 0.5]),
        # 34 cells per side, the last one clipped to 0.01
        (UNIT_SQUARE, 0.03, "tensor-midpoint", product_sine(2),
         bump_family(2), BUMP_SCHEDULE),
    ])
    def test_neighbour_list_matches_all_pairs(self, monkeypatch, domain, h,
                                              scheme, fn, family, nus):
        """Through the source its grid takes: the neighbour list on point
        clouds, the offset pass on lattice grids."""
        grid = sample_quadrature(domain, h, scheme)
        field = sample(fn, grid)
        kernels = [family.kernel(nu, 2.0) for nu in nus]
        dense = _reference(field, kernels, 2.0)
        taken = _spy_sources(monkeypatch)
        got = _energies(field, kernels, 2.0)
        assert taken == ["tree" if grid.lattice is None else "offset"]
        assert np.all(dense > 0)
        assert np.max(np.abs(got - dense) / dense) <= 1e-12

    @pytest.mark.parametrize("domain, h, scheme", [
        (Interval(0.0, 1.0), 2e-3, "quasi-random"),
        (UNIT_DISK, 0.06, "quasi-random"),
        (UNIT_SQUARE, 0.03, "tensor-midpoint"),
        (Box((0.0, 0.0, 0.0), (1.0, 1.0, 0.5)), 0.15, "tensor-midpoint"),
    ])
    def test_point_clouds_take_the_tree(self, monkeypatch, domain, h,
                                        scheme):
        grid = sample_quadrature(domain, h, scheme)
        assert grid.lattice is None
        field = sample(product_sine(domain.dimension), grid)
        # a Gagliardo kernel reaches every pair of the cloud
        kernels = [gagliardo_kernel(0.9, 2.0, domain.dimension)]
        eval_idx = np.arange(0, len(grid), 7)
        dense = _all_pairs_reference(field, kernels, 2.0, eval_idx)
        taken = _spy_sources(monkeypatch)
        got = nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)
        assert taken == ["tree"]
        assert np.max(np.abs(got - dense) / dense) <= 1e-12

    def test_csv_import_takes_the_tree(self, monkeypatch, tmp_path):
        grid = sample_quadrature(UNIT_DISK, 0.08)
        path = tmp_path / "field.csv"
        np.savetxt(path, np.column_stack([grid.points, grid.weights,
                                          product_sine(2)(grid.points)]),
                   delimiter=",", fmt="%.17g")
        field = load_field_csv(path, 2)
        assert field.grid.lattice is None
        kernels = _kernels("bump", BUMP_SCHEDULE, 2.0, 2)
        dense = _reference(field, kernels, 2.0)
        taken = _spy_sources(monkeypatch)
        got = _energies(field, kernels, 2.0)
        assert taken == ["tree"]
        assert np.max(np.abs(got - dense) / dense) <= 1e-12
        # the same points on their lattice give the same energies
        on_lattice = _energies(sample(product_sine(2), grid), kernels, 2.0)
        assert np.max(np.abs(got - on_lattice) / on_lattice) <= 1e-12

    def test_public_entry_points_take_the_offset_pass(self, monkeypatch):
        field = sample(product_sine(2), sample_quadrature(UNIT_SQUARE, 0.1))
        taken = _spy_sources(monkeypatch)
        gagliardo_functional(field, 2.0, 0.9, Lebesgue(2.0))
        family = fractional_family(2.0, UNIT_SQUARE.enclosing_radius(), 2)
        bbm_functional_schedule(field, 2.0, family, [0.5, 0.2],
                                Lebesgue(2.0))
        pointwise_energy(field, 2.0, bump_family(2), 0.3, 3)
        assert taken == ["offset"] * 3

    def _record_blocks(self, monkeypatch, budget, widths=None):
        """Record each block's entries, and each pass's offsets in
        `widths`."""
        blocks = []
        original = nonlocal_energy._offset_blocks

        def recording(n_tiles, n_offsets, n_near):
            if widths is not None:
                widths.append(n_offsets)
            for tiles, offsets in original(n_tiles, n_offsets, n_near):
                blocks.append((len(range(n_tiles)[tiles])
                               * len(range(n_offsets)[offsets])
                               * nonlocal_energy._ROW_TILE))
                yield tiles, offsets

        monkeypatch.setattr(geometry, "_PAIR_BUDGET", budget)
        monkeypatch.setattr(nonlocal_energy, "_offset_blocks", recording)
        return blocks

    @pytest.mark.parametrize("domain, h, fn, kind, nus", [
        (Interval(0.0, 1.0), 2e-3, product_sine(1), "bump", BUMP_SCHEDULE),
        (UNIT_DISK, 0.1, product_sine(2), "fractional", [0.2, 0.5]),
    ])
    def test_offset_blocks_respect_the_pair_budget(self, monkeypatch, domain,
                                                   h, fn, kind, nus):
        field = sample(fn, sample_quadrature(domain, h))
        kernels = _kernels(kind, nus, 2.0, domain.dimension)
        # every offset on the offset pass, in one pass over the rows
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", math.inf)
        with pytest.MonkeyPatch.context() as mp:
            whole_blocks = self._record_blocks(mp, 10**9)
            whole = _energies(field, kernels, 2.0)
        assert len(whole_blocks) == 1
        # a budget of a few tiles of every offset: blocks of whole tiles
        per_tile = whole_blocks[0] // -(-len(field.grid)
                                         // nonlocal_energy._ROW_TILE)
        budget = 3 * per_tile + 1
        blocks = self._record_blocks(monkeypatch, budget)
        split = _energies(field, kernels, 2.0)
        assert len(blocks) > 1
        assert max(blocks) <= budget
        assert np.array_equal(split, whole)

    @pytest.mark.parametrize("domain, h, fn, kind, nus", [
        (Interval(0.0, 1.0), 2e-3, product_sine(1), "bump", BUMP_SCHEDULE),
        (UNIT_DISK, 0.1, product_sine(2), "fractional", [0.2, 0.5]),
    ])
    def test_fft_pass_blocks_respect_the_pair_budget(self, monkeypatch,
                                                     domain, h, fn, kind,
                                                     nus):
        """The twin with the FFT far field on: its offset passes, the
        short offsets and the rows that fall back, keep to the budget, and
        no sum depends on it."""
        field = sample(fn, sample_quadrature(domain, h))
        kernels = _kernels(kind, nus, 2.0, domain.dimension)
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        ran = _spy_fft(monkeypatch)
        widths = []
        with pytest.MonkeyPatch.context() as mp:
            whole_blocks = self._record_blocks(mp, 10**9, widths)
            whole = _energies(field, kernels, 2.0)
        # a few tiles of the widest pass's offsets: blocks of whole tiles
        # and offsets
        budget = 3 * nonlocal_energy._ROW_TILE * max(widths) + 1
        blocks = self._record_blocks(monkeypatch, budget)
        split = _energies(field, kernels, 2.0)
        assert len(ran) == 2
        assert len(blocks) > len(whole_blocks)
        assert max(blocks) <= budget
        assert np.array_equal(split, whole)

    def test_offsets_split_past_one_tile_of_all(self, monkeypatch):
        field = sample(product_sine(1),
                       sample_quadrature(Interval(0.0, 1.0), 2e-3))
        kernels = _kernels("bump", BUMP_SCHEDULE, 2.0, 1)
        whole = _energies(field, kernels, 2.0)
        blocks = self._record_blocks(monkeypatch, 800)
        split = _energies(field, kernels, 2.0)
        assert max(blocks) <= 800
        assert np.max(np.abs(split - whole) / whole) <= 1e-14

    def test_blocks_respect_the_pair_budget(self, monkeypatch):
        """The neighbour list's blocks."""
        domain = Interval(0.0, 1.0)
        field = sample(product_sine(1),
                       sample_quadrature(domain, 2e-3, "quasi-random"))
        kernels = _kernels("bump", BUMP_SCHEDULE, 2.0, 1)
        whole = _energies(field, kernels, 2.0)
        blocks = []
        original = geometry._ball_pairs

        def recording(*args):
            for item in original(*args):
                blocks.append(len(item[1]))
                yield item

        monkeypatch.setattr(geometry, "_PAIR_BUDGET", 5_000)
        monkeypatch.setattr(geometry, "_ball_pairs", recording)
        split = _energies(field, kernels, 2.0)
        assert len(blocks) > 1
        assert max(blocks) <= 5_000
        assert np.array_equal(split, whole)


# (domain, the domain moved by (0.3, 0.17), h) on lattice grids
MOVES = [
    pytest.param(Interval(0.0, 1.0), Interval(0.3, 1.3), 2e-3, id="interval"),
    pytest.param(UNIT_SQUARE, Box((0.3, 0.17), (1.3, 1.17)), 0.02,
                 id="square"),
    pytest.param(UNIT_DISK, Disk((0.3, 0.17), 1.0), 0.05, id="disk"),
]


def _moved_values(grid):
    """A field that moves with the domain: the same value at each cell."""
    return product_sine(grid.dimension)(grid.points) + 0.5 \
        * grid.points[:, 0]


class TestTranslation:
    """Moving the domain and the field together moves no energy: whether
    a pair at exactly two spacings is near must not depend on round-off
    in the coordinates."""

    @pytest.mark.parametrize("domain, moved, h", MOVES)
    @pytest.mark.parametrize("kind, nus", [
        ("bump", BUMP_SCHEDULE), ("fractional", [0.2, 0.45]),
        ("gagliardo", [0.9]),
    ], ids=["bump", "fractional", "gagliardo"])
    def test_energies_move_with_the_domain(self, domain, moved, h, kind,
                                           nus):
        grid = sample_quadrature(domain, h)
        moved_grid = sample_quadrature(moved, h)
        assert len(moved_grid) == len(grid)
        values = _moved_values(grid)
        kernels = _kernels(kind, nus, 2.0, domain.dimension)
        eval_idx = np.arange(len(grid))
        here = nonlocal_energy._energy_values(
            SampledField(grid, values), kernels, 2.0, eval_idx)
        there = nonlocal_energy._energy_values(
            SampledField(moved_grid, values), kernels, 2.0, eval_idx)
        assert np.all(here > 0)
        assert np.max(np.abs(there - here) / here) <= 1e-12


class TestMorreyTranslation:
    """Moving the domain and the field together moves no Morrey norm: a
    lattice ball holds its pairs at exactly rho by an integer test, in
    both sources."""

    @pytest.mark.parametrize("domain, moved, h", MOVES)
    @pytest.mark.parametrize("source", ["fft", "block"])
    @pytest.mark.parametrize("alpha, r", [(3.0, 2.0), (4.0, 1.5)])
    def test_norm_moves_with_the_domain(self, monkeypatch, domain, moved, h,
                                        source, alpha, r):
        from bbmlab import spaces

        grid = sample_quadrature(domain, h)
        moved_grid = sample_quadrature(moved, h)
        assert grid.lattice is not None and moved_grid.lattice is not None
        values = _moved_values(grid)
        ran = []
        original = spaces._ladder_ball_sums

        def spy(*args):
            ran.append(args)
            return original(*args)

        # the cost rule is set aside so that each source serves every grid
        monkeypatch.setattr(spaces, "_ladder_ball_sums", spy)
        monkeypatch.setattr(spaces, "_BALL_FFT_COST",
                            0.0 if source == "fft" else math.inf)
        spec = spaces.Morrey(alpha, r)
        here = norm(spec, SampledField(grid, values))
        there = norm(spec, SampledField(moved_grid, values))
        assert bool(ran) == (source == "block")
        assert here > 0
        assert abs(there - here) <= 1e-12 * here


def _spy_fft(monkeypatch):
    """Record each pass's FFT far field as the list of the rings it
    transforms, each ring as its offsets."""
    ran = []
    original = nonlocal_energy._fft_far_field

    def spy(*args):
        rings = []
        ran.append(rings)
        ring_bound, ring_sums = original(*args)

        def recording(offsets, coef):
            rings.append(offsets)
            return ring_sums(offsets, coef)

        return ring_bound, recording

    monkeypatch.setattr(nonlocal_energy, "_fft_far_field", spy)
    return ran


def _spy_transforms(monkeypatch):
    """Count the forward and inverse FFTs of the energy pass, one per
    array along the axes that a batched call does not transform."""
    counts = {"forward": 0, "inverse": 0}
    real = geometry.sp_fft

    def counted(name, transform):
        def call(x, *args, axes=None, **kwargs):
            batch = x.shape[:x.ndim - len(axes)] if axes else ()
            counts[name] += math.prod(batch)
            return transform(x, *args, axes=axes, **kwargs)

        return call

    monkeypatch.setattr(geometry, "sp_fft", types.SimpleNamespace(
        rfftn=counted("forward", real.rfftn),
        irfftn=counted("inverse", real.irfftn),
        next_fast_len=real.next_fast_len))
    return counts


def _lattice_offsets(grid, kernels):
    """The p = 2 pass's offsets, n_near and weights on the lattice of
    `grid`."""
    _, extent = geometry._lattice_cells(grid.lattice)
    return nonlocal_energy._lattice_offsets(grid, kernels, 2.0, extent)


def _offset_pass(field, kernels, eval_idx):
    """The p = 2 energies with every offset on the offset pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlocal_energy, "_FFT_COST", math.inf)
        return nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)


# (domain, h, a bump scale reaching past the split)
FFT_GRIDS = [
    (Interval(0.0, 1.0), 0.01, 0.2),
    (UNIT_SQUARE, 0.04, 0.4),
    (UNIT_DISK, 0.06, 0.6),
    (UNIT_CUBE, 0.1, 0.9),
]


def _fft_kernels(kind, domain, h, nu_far):
    n = domain.dimension
    if kind == "bump":
        # the second reaches 4 cells: no weight beyond the split
        return [bump_family(n).kernel(nu, 2.0) for nu in (nu_far, 4 * h)]
    if kind == "fractional":
        family = fractional_family(2.0, domain.enclosing_radius(), n)
        return [family.kernel(nu, 2.0) for nu in (0.3, 0.1)]
    return [gagliardo_kernel(0.9, 2.0, n)]


def _fft_field(kind, n):
    if kind == "linear":
        return linear((0.6, 0.8, 0.5)[:n] if n > 1 else (1.0,))
    if kind == "sine":
        return product_sine(n)
    if kind == "radial":
        return radial_bump((0.5,) * n, 0.5)
    return indicator_halfspace((1.0,) * n, 0.3)


def _spy_passes(monkeypatch, rows=False):
    """Record each offset pass as (rows, offsets): counts, or with `rows`
    the padded positions of its rows."""
    passes = []
    original = nonlocal_energy._tile_sums

    def spy(vals_pad, w_pad, at, shifts, *args):
        passes.append((at.copy() if rows else len(at), len(shifts)))
        return original(vals_pad, w_pad, at, shifts, *args)

    monkeypatch.setattr(nonlocal_energy, "_tile_sums", spy)
    return passes


def _ring_edges(rings):
    """The squared inner edge |o|^2 of each FFT ring."""
    return [int(np.einsum("ij,ij->i", r, r).min()) for r in rings]


def _assert_nested(rings, offsets):
    """The rings are the offsets |o| >= r for some of r = r0, 2 r0, 4 r0,
    ..., in that order, the first at r0 = 2 or _FFT_SPLIT; the others may
    be skipped."""
    sq = np.einsum("ij,ij->i", offsets, offsets)
    r = math.isqrt(_ring_edges(rings)[0])
    assert r in (2, nonlocal_energy._FFT_SPLIT)
    for ring in rings:
        while r * r <= sq.max() and not np.array_equal(ring,
                                                       offsets[sq >= r * r]):
            r *= 2
        assert np.array_equal(ring, offsets[sq >= r * r])
        r *= 2


def _assert_one_pass_per_row(passes, n_rows):
    """Each row appears in exactly one offset pass."""
    rows = np.concatenate([at for at, _ in passes])
    assert len(rows) == n_rows == len(np.unique(rows))


class TestFftFarField:
    """At p = 2 on lattice grids the offsets of two or more cells may be
    summed by FFT, in nested rings |o| >= r.  Forced on small grids, so
    that every ring is taken while rows are open, every row must agree
    with the offset pass and take exactly one offset pass; the largest
    deviation measured over this matrix is 2.2e-14 relative (interval,
    bump, radial bump)."""

    @pytest.mark.parametrize("field_kind",
                             ["linear", "sine", "indicator", "radial"])
    @pytest.mark.parametrize("kind", ["bump", "fractional", "gagliardo"])
    @pytest.mark.parametrize("domain, h, nu_far", FFT_GRIDS,
                             ids=["interval", "square", "disk", "cube"])
    def test_matches_the_offset_pass(self, monkeypatch, domain, h, nu_far,
                                     kind, field_kind):
        grid = sample_quadrature(domain, h)
        field = sample(_fft_field(field_kind, domain.dimension), grid)
        kernels = _fft_kernels(kind, domain, h, nu_far)
        eval_idx = np.arange(len(grid))
        reference = _offset_pass(field, kernels, eval_idx)
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        ran = _spy_fft(monkeypatch)
        passes = _spy_passes(monkeypatch, rows=True)
        got = nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)
        offsets, n_near, _ = _lattice_offsets(grid, kernels)
        assert len(ran) == 1
        _assert_nested(ran[0], offsets[n_near:])
        _assert_one_pass_per_row(passes, len(grid))
        assert np.all(np.abs(got - reference) <= 1e-12 * reference)

    def test_indicator_divergence_rows_all_take_a_ring(self, monkeypatch):
        """The `indicator_divergence` pass at the calibrated cost: rows
        keep rings |o| >= 8, 16, ..., 256 with the offsets inside on the
        offset pass, and every row takes one of them.  Each row takes
        exactly one offset pass."""
        grid = sample_quadrature(Interval(-1.0, 1.0), 1e-3)
        field = sample(indicator_halfspace((1.0,), 0.0), grid)
        family = fractional_family(2.0, 1.0, 1)
        kernels = [family.kernel(0.4 * 0.5**k, 2.0) for k in range(6)]
        eval_idx = np.arange(len(grid))
        reference = _offset_pass(field, kernels, eval_idx)
        ran = _spy_fft(monkeypatch)
        passes = _spy_passes(monkeypatch, rows=True)
        got = nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)
        offsets, n_near, _ = _lattice_offsets(grid, kernels)
        assert len(ran) == 1
        _assert_nested(ran[0], offsets[n_near:])
        assert _ring_edges(ran[0]) == [64, 256, 1024, 4096, 16384, 65536]
        _assert_one_pass_per_row(passes, len(grid))
        # one pass per ring, inner offsets growing, and none over every
        # offset
        widths = [n for _, n in passes]
        assert widths == sorted(widths) and widths[-1] < len(offsets)
        assert np.all(np.abs(got - reference) <= 1e-12 * reference)

    def test_fallback_rows_keep_the_offset_pass_bits(self, monkeypatch):
        """Disk h = 0.02, radial bump, the 7 bump kernels at the
        calibrated cost: the first ring, |o| >= 2, keeps no row, rows keep
        rings |o| >= 4 and 8 with the offsets inside on the offset pass,
        and the rows no ring serves take the offset pass over every offset
        and hold its values bit for bit.  Each row takes exactly one
        offset pass."""
        grid = sample_quadrature(UNIT_DISK, 0.02)
        field = sample(radial_bump((0.0, 0.0), 1.0), grid)
        kernels = _kernels("bump", BUMP_SCHEDULE, 2.0, 2)
        eval_idx = np.arange(len(grid))
        reference = _offset_pass(field, kernels, eval_idx)
        ran = _spy_fft(monkeypatch)
        passes = _spy_passes(monkeypatch, rows=True)
        got = nonlocal_energy._energy_values(field, kernels, 2.0, eval_idx)
        offsets, n_near, _ = _lattice_offsets(grid, kernels)
        assert len(ran) == 1
        _assert_nested(ran[0], offsets[n_near:])
        assert _ring_edges(ran[0]) == [4, 16, 64]
        _assert_one_pass_per_row(passes, len(grid))
        # one pass per ring, inner offsets growing, then every offset
        widths = [n for _, n in passes]
        assert widths == sorted(widths) and widths[-1] == len(offsets)
        # the lattice runs in C order, so the padded positions increase
        # with the row
        cells = grid.lattice - grid.lattice.min(axis=0)
        assert np.all(np.diff(np.ravel_multi_index(
            tuple(cells.T), tuple(cells.max(axis=0) + 1))) > 0)
        positions = np.sort(np.concatenate([at for at, _ in passes]))
        fell_back = np.searchsorted(positions, passes[-1][0])
        assert 0 < len(fell_back) < len(grid)
        assert np.array_equal(got[:, fell_back], reference[:, fell_back])
        assert np.all(np.abs(got - reference) <= 1e-12 * reference)

    @pytest.mark.parametrize("field_kind", ["sine", "indicator", "radial"])
    @pytest.mark.parametrize("kind", ["bump", "fractional"])
    @pytest.mark.parametrize("domain, h, nu_far", FFT_GRIDS,
                             ids=["interval", "square", "disk", "cube"])
    def test_three_transforms_each_way_per_kernel(self, monkeypatch, domain,
                                                  h, nu_far, kind,
                                                  field_kind):
        """The pass makes three forward transforms of the field, and each
        transformed ring three forward and three inverse ones per kernel
        with weight there.  A ring after the first is transformed only
        where some row takes it: each one has its offset pass."""
        grid = sample_quadrature(domain, h)
        field = sample(_fft_field(field_kind, domain.dimension), grid)
        kernels = _fft_kernels(kind, domain, h, nu_far)
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        ran = _spy_fft(monkeypatch)
        passes = _spy_passes(monkeypatch)
        counts = _spy_transforms(monkeypatch)
        nonlocal_energy._energy_values(field, kernels, 2.0,
                                       np.arange(len(grid)))
        offsets, _, coef = _lattice_offsets(grid, kernels)
        sq = np.einsum("ij,ij->i", offsets, offsets)
        with_weight = [
            np.count_nonzero(coef[1:, sq >= edge].any(axis=1))
            for edge in _ring_edges(ran[0])]
        assert counts == {"forward": 3 + 3 * sum(with_weight),
                          "inverse": 3 * sum(with_weight)}
        widths = {n for _, n in passes}
        for edge in _ring_edges(ran[0])[1:]:
            assert np.count_nonzero(sq < edge) in widths

    @pytest.mark.parametrize("field_kind",
                             ["linear", "sine", "indicator", "radial"])
    @pytest.mark.parametrize("domain, h, nu_far", FFT_GRIDS,
                             ids=["interval", "square", "disk", "cube"])
    def test_bound_covers_each_term(self, domain, h, nu_far, field_kind):
        """The guard's bound, made before any transform, is at least eps
        log2(B) times the largest of each of the six correlation terms of
        the far offsets, summed here directly over the offsets."""
        grid = sample_quadrature(domain, h)
        field = sample(_fft_field(field_kind, domain.dimension), grid)
        kernels = _fft_kernels("bump", domain, h, nu_far) \
            + _fft_kernels("fractional", domain, h, nu_far)
        offsets, n_near, coef = _lattice_offsets(grid, kernels)
        offsets, coef = offsets[n_near:], coef[1:, n_near:]
        box = geometry._LatticeBox(*geometry._lattice_cells(grid.lattice),
                                   np.abs(offsets).max(axis=0))
        ring_bound, _ = nonlocal_energy._fft_far_field(box, field.values,
                                                       grid.weights)
        bound = ring_bound(offsets, coef)
        g, beta = nonlocal_energy._affine_residual(box.cells, field.values,
                                                   grid.weights)
        d = offsets @ beta
        # g^2 w, g w and w in the lattice box, read at x + o for each row x
        # and offset o
        padded = box.place(np.stack([g * g * grid.weights, g * grid.weights,
                                     grid.weights]))
        shifts = box.shifts(offsets)
        largest = np.zeros((len(coef), 6))
        for first in range(0, len(grid), 64):
            rows = slice(first, first + 64)
            g2w, gw, w = padded[:, box.at[rows, None] + shifts]
            gx = g[rows]
            for k, c in enumerate(coef):
                terms = (g2w @ c, 2.0 * gw @ (c * d), w @ (c * d * d),
                         2.0 * gx * (gw @ c), 2.0 * gx * (w @ (c * d)),
                         gx * gx * (w @ c))
                largest[k] = np.maximum(largest[k], [np.abs(t).max()
                                                     for t in terms])
        # a linear field on an interval meets the bound: (c d^2)*w is
        # max(w) sum c d^2 on the rows whose offsets all land on the
        # grid, up to the round-off of a different summation order
        assert np.all(bound[:, None]
                      >= box.eps_log * largest * (1.0 - 1e-12))

    @pytest.mark.parametrize("domain, h, nu_far", FFT_GRIDS,
                             ids=["interval", "square", "disk", "cube"])
    def test_constant_field_is_exactly_zero(self, monkeypatch, domain, h,
                                            nu_far):
        grid = sample_quadrature(domain, h)
        field = SampledField(grid, np.full(len(grid), 3.7))
        kernels = _fft_kernels("fractional", domain, h, nu_far) \
            + _fft_kernels("gagliardo", domain, h, nu_far)
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        ran = _spy_fft(monkeypatch)
        got = nonlocal_energy._energy_values(field, kernels, 2.0,
                                             np.arange(len(grid)))
        assert len(ran) == 1
        assert np.all(got == 0.0)

    def test_other_p_and_point_clouds_keep_the_offsets(self, monkeypatch):
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        ran = _spy_fft(monkeypatch)
        square = sample(product_sine(2), sample_quadrature(UNIT_SQUARE, 0.04))
        cloud = sample(product_sine(2),
                       sample_quadrature(UNIT_SQUARE, 0.04, "quasi-random"))
        for field, p in ((square, 1.5), (square, 3.0), (cloud, 2.0)):
            nonlocal_energy._energy_values(
                field, [gagliardo_kernel(0.9, p, 2)], p,
                np.arange(len(field.grid)))
        assert ran == []

    def test_cost_rule_keeps_a_single_row_on_the_offsets(self, monkeypatch):
        """At the calibrated constant a one-row pass is never worth three
        transforms of the whole lattice, and a full 2-D Gagliardo pass is."""
        field = sample(product_sine(2), sample_quadrature(UNIT_SQUARE, 0.02))
        kernels = [gagliardo_kernel(0.9, 2.0, 2)]
        ran = _spy_fft(monkeypatch)
        nonlocal_energy._energy_values(field, kernels, 2.0, np.asarray([7]))
        assert ran == []
        nonlocal_energy._energy_values(field, kernels, 2.0,
                                       np.arange(len(field.grid)))
        assert len(ran) == 1


class TestFftRings:
    """The FFT far field in nested rings |o| >= r of an affine-centred
    field: a linear field keeps the first ring on every row, a curved one
    takes later rings, with more offsets on the offset pass."""

    def _pass(self, monkeypatch, domain, h, fn, kernels):
        field = sample(fn, sample_quadrature(domain, h))
        eval_idx = np.arange(len(field.grid))
        offsets, n_near, _ = _lattice_offsets(field.grid, kernels)
        inner = np.count_nonzero(np.einsum("ij,ij->i", offsets, offsets)
                                 < nonlocal_energy._FFT_SPLIT ** 2)
        with pytest.MonkeyPatch.context() as mp:
            passes = _spy_passes(mp)
            got = nonlocal_energy._energy_values(field, kernels, 2.0,
                                                 eval_idx)
        reference = _offset_pass(field, kernels, eval_idx)
        assert np.all(np.abs(got - reference) <= 1e-12 * reference)
        return passes, len(eval_idx), n_near, inner

    def test_linear_disk_rows_keep_both_rings(self, monkeypatch):
        """Disk h = 0.01 with the 7 bump kernels: the first ring starts at
        2 cells, so the ring and the outer offsets are one FFT ring.  One
        pass of the near offsets over all 31,428 rows, and no other
        offset pass."""
        passes, rows, n_near, _ = self._pass(
            monkeypatch, UNIT_DISK, 0.01, linear((0.6, 0.8)),
            _kernels("bump", BUMP_SCHEDULE, 2.0, 2))
        assert passes == [(rows, n_near)]

    def test_linear_interval_rows_keep_both_rings(self, monkeypatch):
        """The `bbm_1d_linear` pass: at the calibrated cost its 12 offsets
        2 <= |o| < 8 stay on the offset pass and the first ring, |o| >= 8,
        keeps every row; with the cost rule set aside the first ring
        starts at 2 and keeps every row."""
        domain, fn = Interval(0.0, 1.0), linear((1.0,))
        kernels = _kernels("bump", BUMP_SCHEDULE, 2.0, 1)
        passes, rows, _, inner = self._pass(monkeypatch, domain, 1e-3, fn,
                                            kernels)
        assert passes == [(rows, inner)]
        monkeypatch.setattr(nonlocal_energy, "_FFT_COST", 0.0)
        passes, rows, n_near, _ = self._pass(monkeypatch, domain, 1e-3, fn,
                                             kernels)
        assert passes == [(rows, n_near)]

    def test_curved_rows_take_the_ring_on_the_offset_pass(self,
                                                          monkeypatch):
        """Disk h = 0.01, radial bump: the first ring, |o| >= 2, keeps no
        row, and |o| >= 4 would keep none, so it is not transformed; |o| >=
        8 keeps half of them and |o| >= 16 most of the rest, each with the
        offsets inside on the offset pass; the other rows take every
        offset."""
        ran = _spy_fft(monkeypatch)
        passes, rows, _, inner = self._pass(
            monkeypatch, UNIT_DISK, 0.01, radial_bump((0.0, 0.0), 1.0),
            _kernels("bump", BUMP_SCHEDULE, 2.0, 2))
        assert len(ran) == 1 and _ring_edges(ran[0]) == [4, 64, 256]
        (ring_rows, ring), (next_rows, _), (back_rows, every) = passes
        assert ring == inner
        assert ring_rows + next_rows + back_rows == rows
        assert 0 < back_rows < next_rows < ring_rows
        assert every > ring

    def test_ball_norms_grid_takes_no_fft(self, monkeypatch):
        """Disk h = 0.05 with the 7 bump kernels: no offset reaches the
        split, so the ring alone is never worth its transforms."""
        field = sample(radial_bump((0.0, 0.0), 1.0),
                       sample_quadrature(UNIT_DISK, 0.05))
        ran = _spy_fft(monkeypatch)
        nonlocal_energy._energy_values(
            field, _kernels("bump", BUMP_SCHEDULE, 2.0, 2), 2.0,
            np.arange(len(field.grid)))
        assert ran == []

    @pytest.mark.parametrize("domain, h, nu_far", FFT_GRIDS,
                             ids=["interval", "square", "disk", "cube"])
    def test_affine_fit(self, domain, h, nu_far):
        """The fit gives a constant field beta = 0 and g = 0 exactly, and
        leaves a linear one a residual at round-off."""
        grid = sample_quadrature(domain, h)
        cells = grid.lattice - grid.lattice.min(axis=0)
        g, beta = nonlocal_energy._affine_residual(
            cells, np.full(len(grid), 3.7), grid.weights)
        assert np.all(beta == 0.0) and np.all(g == 0.0)
        v = np.array((0.6, -0.8, 0.5)[:domain.dimension])
        g, beta = nonlocal_energy._affine_residual(
            cells, sample(linear(v), grid).values, grid.weights)
        assert np.allclose(beta, v * h, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(g)) <= 1e-14


class TestInputChecks:
    """Inputs no energy pass can honour fail before any pass runs."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an energy pass ran")

        monkeypatch.setattr(nonlocal_energy, "_energy_values", fail)

    @pytest.mark.parametrize("p", [0.5, -2.0, math.nan, math.inf])
    def test_functionals_reject_p(self, line_field, no_pass, p):
        with pytest.raises(ValueError, match="p must be a finite number"):
            gagliardo_functional(line_field, p, 0.9, Lebesgue(2.0))
        with pytest.raises(ValueError, match="p must be a finite number"):
            bbm_functional_schedule(line_field, p, bump_family(1),
                                    BUMP_SCHEDULE, Lebesgue(2.0))
        with pytest.raises(ValueError, match="p must be a finite number"):
            pointwise_energy(line_field, p, bump_family(1), 0.1, 0)
        with pytest.raises(ValueError, match="p must be a finite number"):
            energy_half_field(line_field, p, bump_family(1), 0.1)

    @pytest.mark.parametrize("schedule", [[], (), np.zeros(0)])
    def test_empty_schedule_fails_by_name(self, line_field, no_pass,
                                          monkeypatch, schedule):
        from bbmlab import bbm

        def no_norm(*args):
            raise AssertionError("a norm was taken")

        monkeypatch.setattr(bbm, "norm", no_norm)
        with pytest.raises(ValueError, match="schedule must hold"):
            bbm_functional_schedule(line_field, 2.0, bump_family(1),
                                    schedule, Lebesgue(2.0))
        with pytest.raises(ValueError, match="schedule must hold"):
            bbm.upper_bound_diagnostics(line_field, 2.0, Lebesgue(2.0),
                                        bump_family(1), schedule)

    @pytest.mark.parametrize("index", [-1, 500, 2.5, True])
    def test_pointwise_energy_rejects_index(self, line_field, no_pass, index):
        with pytest.raises(ValueError, match="x_index must be an integer"):
            pointwise_energy(line_field, 2.0, bump_family(1), 0.1, index)

    @pytest.mark.parametrize("stride", [0, 2.5, 2.0, 2])
    def test_half_field_rejects_stride(self, line_field, no_pass, stride):
        with pytest.raises(ValueError, match="stride must be an integer"):
            bbm_functional_schedule(line_field, 2.0, bump_family(1), [0.1],
                                    Lebesgue(2.0), stride=stride)
        with pytest.raises(ValueError, match="stride must be an integer"):
            gagliardo_functional(line_field, 2.0, 0.9, Lebesgue(2.0),
                                 stride=stride)

    @pytest.mark.parametrize("family, schedule", [
        (GagliardoFamily(2), [0.8, 0.9, 0.95, 0.975]),
        (bump_family(2), [0.2, 0.1, 0.05, 0.025]),
    ], ids=["gagliardo", "bump"])
    def test_family_must_match_the_field(self, line_field, no_pass, family,
                                         schedule):
        from bbmlab.bbm import convergence_study

        message = "family of dimension 2 .* field of dimension 1"
        with pytest.raises(ValueError, match=message):
            convergence_study(line_field, 2.0, Lebesgue(2.0), family,
                              schedule)
        with pytest.raises(ValueError, match=message):
            pointwise_energy(line_field, 2.0, family, 0.1, 0)
        with pytest.raises(ValueError, match=message):
            energy_half_field(line_field, 2.0, family, 0.1)

    def test_gagliardo_scale_outside_the_unit_interval(self, line_field,
                                                       no_pass):
        with pytest.raises(ValueError, match="nu=1.5 outside the admissible"):
            bbm_functional_schedule(line_field, 2.0, GagliardoFamily(1),
                                    [1.5, -0.5], Lebesgue(2.0))
