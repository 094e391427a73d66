import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bbmlab.cli import ConfigError, build_space
from bbmlab.field import SampledField
from bbmlab.geometry import (
    Box,
    Disk,
    Interval,
    Polygon,
    QuadratureGrid,
    sample_quadrature,
)
from bbmlab.spaces import (
    SPACES,
    BesovBourgainMorrey,
    PowerLogOrlicz,
    ConstantWeight,
    GridWeight,
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
    TableOrlicz,
    VariableLebesgue,
    WeightedLebesgue,
    ap_constant,
    convexify,
    decreasing_rearrangement,
    holder_defect,
    norm,
    orlicz_from_csv,
    unit_ball_volume,
    weight_from_csv,
)


def field_on(grid, values):
    return SampledField(grid, np.asarray(values, dtype=float))


def constant_field(measure_total, value=1.0, cells=8):
    grid = sample_quadrature(Interval(0.0, measure_total), measure_total / cells)
    return field_on(grid, np.full(cells, value))


class TestLebesgue:
    def test_unit_constant(self):
        f = constant_field(1.0)
        assert norm(Lebesgue(2.0), f) == pytest.approx(1.0)

    def test_scaling_with_measure(self):
        f = constant_field(4.0)
        assert norm(Lebesgue(2.0), f) == pytest.approx(2.0)


class TestLorentz:
    def test_indicator_closed_form(self):
        # f* = 1 on [0, 1): integral of t^(1/2 - 1) is 2
        f = constant_field(1.0)
        assert norm(Lorentz(2.0, 1.0), f) == pytest.approx(2.0, abs=1e-12)

    def test_reduces_to_lebesgue(self, unit_interval_grid, rng):
        f = field_on(unit_interval_grid, rng.normal(size=len(unit_interval_grid)))
        assert norm(Lorentz(2.0, 2.0), f) == pytest.approx(
            norm(Lebesgue(2.0), f), rel=1e-12)


class TestOrlicz:
    def test_luxemburg_bisection_value(self):
        # modular 4/lambda^2 = 1 at lambda = 2
        f = constant_field(4.0)
        assert norm(OrliczSpace(PowerOrlicz(2.0)), f) == pytest.approx(
            2.0, abs=1e-8)

    def test_zero_field(self, unit_interval_grid):
        f = field_on(unit_interval_grid, np.zeros(len(unit_interval_grid)))
        assert norm(OrliczSpace(PowerOrlicz(2.0)), f) == 0.0

    def test_plog_monotone_in_field(self, unit_interval_grid, rng):
        from bbmlab.spaces import PowerLogOrlicz
        vals = np.abs(rng.normal(size=len(unit_interval_grid)))
        spec = OrliczSpace(PowerLogOrlicz(2.0))
        small = norm(spec, field_on(unit_interval_grid, 0.5 * vals))
        big = norm(spec, field_on(unit_interval_grid, vals))
        assert small <= big + 1e-12

    def test_table_matches_power(self, unit_interval_grid, rng):
        ts = np.geomspace(1e-3, 1e3, 41)
        table = TableOrlicz(tuple(ts), tuple(ts**2.0), 2.0, 2.0)
        vals = rng.normal(size=len(unit_interval_grid))
        f = field_on(unit_interval_grid, vals)
        assert norm(OrliczSpace(table), f) == pytest.approx(
            norm(Lebesgue(2.0), f), rel=1e-6)

    def test_narrow_table_extrapolates_by_edge_slopes(self,
                                                      unit_interval_grid,
                                                      rng):
        # samples far outside the tabulated range must still bracket
        ts = np.geomspace(0.5, 2.0, 9)
        table = TableOrlicz(tuple(ts), tuple(ts**2.0), 2.0, 2.0)
        vals = 50.0 * rng.normal(size=len(unit_interval_grid))
        f = field_on(unit_interval_grid, vals)
        assert norm(OrliczSpace(table), f) == pytest.approx(
            norm(Lebesgue(2.0), f), rel=1e-6)

    def test_flat_ended_table_rejected(self):
        with pytest.raises(ValueError):
            TableOrlicz((1.0, 2.0, 3.0), (1.0, 4.0, 4.0))

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
    def test_power_log_needs_positive_q(self, q):
        with pytest.raises(ValueError, match="q > 0"):
            PowerLogOrlicz(q)

    @pytest.mark.parametrize("lower, upper", [
        (0.0, 2.0), (-1.0, 2.0), (0.0, -1.0), (3.0, 2.0), (math.nan, 2.0),
    ])
    def test_table_types_need_positive_ordered_types(self, tmp_path,
                                                     lower, upper):
        with pytest.raises(ValueError, match="types"):
            TableOrlicz((1.0, 2.0), (1.0, 4.0), lower, upper)
        path = tmp_path / "phi.csv"
        path.write_text("1,1\n2,4\n")
        with pytest.raises(ValueError, match="types"):
            orlicz_from_csv(path, lower, upper)

    @pytest.mark.parametrize("ts, values", [
        ((1.0, math.nan, 3.0), (1.0, 4.0, 9.0)),
        ((1.0, 2.0, 3.0), (1.0, math.nan, 9.0)),
    ])
    def test_table_rejects_nan(self, ts, values):
        with pytest.raises(ValueError, match="positive"):
            TableOrlicz(ts, values)

    @pytest.mark.parametrize("phi, phi_q", [("plog", 0), ("plog", -1),
                                            ("power", 0), ("plog", "two")])
    def test_bad_phi_from_config_names_space(self, phi, phi_q):
        record = {"kind": "orlicz", "phi": phi, "phi_q": phi_q}
        with pytest.raises(ConfigError) as info:
            build_space(record, 1)
        assert info.value.field == "space"


def _bisection_luxemburg(modular, lam0, lower_type=1.0,
                         upper_type=math.inf):
    """The Luxemburg solve the bracketed one replaced, as a reference: it
    ignores the types and doubles, halves, then bisects to 1e-15,
    evaluating every component's modular at every step."""
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    out = np.zeros_like(lam0)
    active = lam0 > 0
    if not np.any(active):
        return out
    every = np.arange(len(lam0))
    hi = lam0.copy()
    hi[~active] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            bad = active & (modular(hi, every) > 1.0)
            if not np.any(bad):
                break
            hi[bad] *= 2.0
        lo = hi / 2.0
        for _ in range(200):
            move = active & (modular(lo, every) <= 1.0)
            if not np.any(move):
                break
            hi[move] = lo[move]
            lo[move] /= 2.0
        for _ in range(200):
            if np.all(hi[active] - lo[active] <= 1e-15 * hi[active]):
                break
            mid = 0.5 * (lo + hi)
            le = modular(mid, every) <= 1.0
            hi = np.where(active & le, mid, hi)
            lo = np.where(active & ~le, mid, lo)
    out[active] = 0.5 * (lo[active] + hi[active])
    return out


_T2_TABLE = (tuple(np.geomspace(1e-3, 1e3, 41)),
             tuple(np.geomspace(1e-3, 1e3, 41) ** 2))


class TestLuxemburgSolve:
    LUXEMBURG_SPECS = {
        "power-1.2": OrliczSpace(PowerOrlicz(1.2)),
        "power-2.5": OrliczSpace(PowerOrlicz(2.5)),
        "power-log": OrliczSpace(PowerLogOrlicz(1.5)),
        "table": OrliczSpace(TableOrlicz(*_T2_TABLE)),
        "table-types-3-3": OrliczSpace(TableOrlicz(*_T2_TABLE, 3.0, 3.0)),
        "table-types-5-8": OrliczSpace(TableOrlicz(*_T2_TABLE, 5.0, 8.0)),
        "variable": VariableLebesgue(lambda pts: 2.0 + 0.5 * pts[:, 0]),
        "slice": OrliczSlice(PowerLogOrlicz(1.0), 2.0, 0.15),
    }

    @pytest.mark.parametrize("domain, h", [
        (Interval(0.0, 1.0), 1.0 / 64),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.1),
        (Disk((0.0, 0.0), 1.0), 0.15),
    ], ids=["interval", "box", "disk"])
    @pytest.mark.parametrize("name", list(LUXEMBURG_SPECS))
    def test_matches_bisection(self, monkeypatch, rng, name, domain, h):
        import bbmlab.spaces as spaces

        spec = self.LUXEMBURG_SPECS[name]
        grid = sample_quadrature(domain, h)
        bracketed = spaces._luxemburg
        for scale in (1e-6, 1e-2, 1.0, 1e3, 1e6):
            for zeros in (0.0, 0.3, 0.9):
                values = scale * rng.normal(size=len(grid))
                values[rng.random(len(grid)) < zeros] = 0.0
                f = field_on(grid, values)
                monkeypatch.setattr(spaces, "_luxemburg", bracketed)
                got = norm(spec, f)
                monkeypatch.setattr(spaces, "_luxemburg",
                                    _bisection_luxemburg)
                want = norm(spec, f)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lower, upper", [
        (3.0, 3.0), (0.5, 0.5), (5.0, 8.0), (1.0, 1.5)])
    def test_wrong_declared_types_still_solve(self, unit_interval_grid, rng,
                                              lower, upper):
        spec = OrliczSpace(TableOrlicz(*_T2_TABLE, lower, upper))
        for scale in (1e-6, 1.0, 1e6):
            f = field_on(unit_interval_grid,
                         scale * rng.normal(size=len(unit_interval_grid)))
            assert norm(spec, f) == pytest.approx(norm(Lebesgue(2.0), f),
                                                  rel=1e-13)

    @pytest.mark.parametrize("c", [1e-310, 1e-320])
    def test_subnormal_fields_return(self, unit_interval_grid, c):
        """Phi = t^2 on (0, 1): the norm of the constant c is c.  Among
        subnormals the bracket's tolerance underflows; the solve still
        ends once no float lies inside the bracket."""
        f = field_on(unit_interval_grid, np.full(len(unit_interval_grid), c))
        got = norm(OrliczSpace(PowerOrlicz(2.0)), f)
        assert math.isfinite(got) and got >= 0.0
        if c == 1e-310:
            assert abs(got - c) <= 1e-6 * c

    def test_median_evaluations_per_solve(self, monkeypatch):
        import bbmlab.spaces as spaces
        from bbmlab.checks import engine_catalog

        solve = spaces._luxemburg
        evaluations = []

        def counting(modular, *args):
            calls = 0

            def counted(lam, which):
                nonlocal calls
                calls += 1
                return modular(lam, which)

            out = solve(counted, *args)
            evaluations.append(calls)
            return out

        monkeypatch.setattr(spaces, "_luxemburg", counting)
        rng = np.random.default_rng(7)
        for name, spec, grid in engine_catalog():
            if name in ("orlicz", "variable", "orlicz_slice"):
                for _ in range(10):
                    norm(spec, field_on(grid, rng.normal(scale=2.0,
                                                         size=len(grid))))
        assert len(evaluations) >= 30
        assert np.median(evaluations) <= 12


class TestMorrey:
    def test_alpha_equals_r_collapse(self, unit_interval_grid, rng):
        f = field_on(unit_interval_grid, rng.normal(size=len(unit_interval_grid)))
        assert norm(Morrey(2.0, 2.0), f) == pytest.approx(
            norm(Lebesgue(2.0), f), abs=1e-10)

    def test_detects_concentration(self, unit_interval_grid):
        spread = field_on(unit_interval_grid,
                          np.ones(len(unit_interval_grid)))
        spike_vals = np.zeros(len(unit_interval_grid))
        spike_vals[:4] = 4.0
        spike = field_on(unit_interval_grid, spike_vals)
        # same L^2 mass would not be required; just check the spike's
        # Morrey norm exceeds its Lebesgue norm relatively more
        ratio_spike = norm(Morrey(4.0, 2.0), spike) / norm(Lebesgue(2.0), spike)
        ratio_flat = norm(Morrey(4.0, 2.0), spread) / norm(Lebesgue(2.0), spread)
        assert ratio_spike > ratio_flat


class TestMixed:
    def test_ones_on_square(self, unit_square_grid):
        f = field_on(unit_square_grid, np.ones(len(unit_square_grid)))
        assert norm(MixedLebesgue((1.0, 2.0)), f) == pytest.approx(1.0)
        assert norm(MixedLebesgue((1.5, 2.0)), f) == pytest.approx(1.0)

    def test_requires_tensor_grid(self):
        pts = np.array([[0.2, 0.2], [0.5, 0.6]])
        grid = QuadratureGrid(pts, np.array([0.5, 0.5]), 0.5)
        with pytest.raises(ValueError, match="tensor-product"):
            norm(MixedLebesgue((2.0, 2.0)), field_on(grid, [1.0, 1.0]))

    def test_exponent_count_must_match(self, unit_square_grid):
        with pytest.raises(ValueError, match="exponent count"):
            MixedLebesgue((2.0,)).check_grid(unit_square_grid)

    def test_reduces_to_lebesgue(self, unit_square_grid, rng):
        f = field_on(unit_square_grid, rng.normal(size=len(unit_square_grid)))
        assert norm(MixedLebesgue((2.0, 2.0)), f) == pytest.approx(
            norm(Lebesgue(2.0), f), rel=1e-12)


class TestHerz:
    def test_single_annulus_indicator(self):
        grid = sample_quadrature(Interval(-1.0, 1.0), 1e-3)
        x = grid.points[:, 0]
        vals = ((np.abs(x) >= 0.5) & (np.abs(x) < 1.0)).astype(float)
        f = field_on(grid, vals)
        spec = HerzLocal(2.0, 2.0, 0.0, (0.0,))
        assert norm(spec, f) == pytest.approx(1.0, abs=2e-3)

    def test_weight_exponent_scales_annuli(self):
        grid = sample_quadrature(Interval(-1.0, 1.0), 1e-3)
        x = grid.points[:, 0]
        vals = ((np.abs(x) >= 0.5) & (np.abs(x) < 1.0)).astype(float)
        f = field_on(grid, vals)
        # single k=0 annulus: weight omega(2^0) = 1 for any exponent
        for a in (-0.3, 0.0, 0.4):
            assert norm(HerzLocal(2.0, 2.0, a, (0.0,)), f) == pytest.approx(
                1.0, abs=2e-3)

    def test_two_annulus_hand_computation(self):
        # points at distances 0.75 (annulus k=0) and 1.5 (annulus k=1)
        # from the center; with p=q=2, a=1/2 the norm is
        # [w0 f0^2 + 2 w1 f1^2]^(1/2)
        grid = QuadratureGrid(np.array([[0.75], [1.5]]),
                              np.array([0.5, 1.0]), 0.75)
        f = field_on(grid, [1.0, 1.0])
        got = norm(HerzLocal(2.0, 2.0, 0.5, (0.0,)), f)
        assert got == pytest.approx(math.sqrt(0.5 + 2.0), rel=1e-12)

    def test_center_dimension_must_match(self, unit_interval_grid):
        f = field_on(unit_interval_grid, np.ones(len(unit_interval_grid)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            norm(HerzLocal(2.0, 2.0, 0.0, (0.0, 0.0)), f)


class TestBesovBourgainMorrey:
    def test_single_scale_unit(self):
        f = constant_field(1.0)
        spec = BesovBourgainMorrey(2.0, 2.0, 2.0, 2.0, j_min=0, j_max=0)
        assert norm(spec, f) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hand_computation(self):
        # q=p=r=tau=2 on points {0.25, 0.75} with weights 1/2 and values
        # (1,2): each scale contributes the squared L^2 mass 2.5, and the
        # j in {0,1} window gives sqrt(2 * 2.5)
        grid = QuadratureGrid(np.array([[0.25], [0.75]]),
                              np.array([0.5, 0.5]), 0.5)
        f = field_on(grid, [1.0, 2.0])
        spec = BesovBourgainMorrey(2.0, 2.0, 2.0, 2.0, j_min=0, j_max=1)
        assert norm(spec, f) == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_tail_truncation_monotone_and_small(self, unit_interval_grid, rng):
        f = field_on(unit_interval_grid, rng.normal(size=len(unit_interval_grid)))
        wide = BesovBourgainMorrey(1.5, 2.0, 3.0, 2.0, j_min=-8, j_max=8)
        wider = BesovBourgainMorrey(1.5, 2.0, 3.0, 2.0, j_min=-12, j_max=8)
        a, b = norm(wide, f), norm(wider, f)
        # widening the window only adds nonnegative coarse-scale terms,
        # each shrinking geometrically like 2^(j n (1/q - 1/p))
        assert b >= a
        assert (b - a) / a < 0.05

    @pytest.mark.parametrize("j_min, j_max, message", [
        (1.5, 8, "j_min must be an integer"),
        (0, 2.0, "j_max must be an integer"),
        (True, 8, "j_min must be an integer"),
        (5, -5, "j_min must be <= j_max"),
    ])
    def test_scale_range_checked(self, j_min, j_max, message):
        with pytest.raises(ValueError, match=message):
            BesovBourgainMorrey(2.0, 2.0, 2.0, 2.0, j_min=j_min, j_max=j_max)


def _lattice_bounds(grid, radii):
    """k_rho = floor((rho/h)^2) read in exact arithmetic: the lattice
    balls' squared-offset bounds."""
    return np.floor((radii / grid.h) ** 2 * (1.0 + 1e-9))


class TestMorreyBallSums:
    @staticmethod
    def _list_sum_norm(spec, field):
        """The Morrey norm with each ball summed as its own index list:
        `cKDTree` balls of radius rho on point clouds, and on lattices
        balls of radius sqrt(k_rho + 1/2) around the integer indices,
        which hold exactly the offsets with |o|^2 <= k_rho."""
        from bbmlab.spaces import _morrey_ladder, unit_ball_volume

        grid = field.grid
        pts, n = grid.points, grid.dimension
        power = np.abs(field.values) ** spec.r * grid.weights
        radii = _morrey_ladder(grid)[0]
        if grid.lattice is None:
            tree, reach = cKDTree(pts), radii
        else:
            tree = cKDTree(grid.lattice)
            reach = np.sqrt(_lattice_bounds(grid, radii) + 0.5)
        best = 0.0
        for rho, ball in zip(radii, reach):
            vol_factor = (unit_ball_volume(n) * rho**n) ** (
                1.0 / spec.alpha - 1.0 / spec.r)
            for idx in tree.query_ball_point(tree.data, ball):
                best = max(best,
                           vol_factor * power[idx].sum() ** (1.0 / spec.r))
        return best

    # explicit ids keep the tensor-grid cases' names from before the
    # point-cloud cases were added
    @pytest.mark.parametrize("domain, h, scheme", [
        (Interval(0.0, 1.0), 1.0 / 64, "tensor-midpoint"),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.05, "tensor-midpoint"),
        (Disk((0.0, 0.0), 1.0), 0.1, "tensor-midpoint"),
        (Disk((0.0, 0.0), 1.0), 0.1, "quasi-random"),
        (Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.8))), 0.05,
         "tensor-midpoint"),
    ], ids=["domain0-0.015625", "domain1-0.05", "domain2-0.1",
            "quasi_random_disk-0.1", "polygon-0.05"])
    @pytest.mark.parametrize("alpha, r", [(3.0, 2.0), (4.0, 1.5), (2.0, 2.0)])
    def test_bincount_matches_list_sums(self, rng, domain, h, scheme,
                                        alpha, r):
        """The engine's ball sums against one index-list sum per ball."""
        grid = sample_quadrature(domain, h, scheme)
        values = rng.normal(size=len(grid))
        values[rng.random(len(grid)) < 0.3] = 0.0
        spec = Morrey(alpha, r)
        f = field_on(grid, values)
        assert norm(spec, f) == pytest.approx(self._list_sum_norm(spec, f),
                                              rel=1e-12)

    def test_ties_decided_as_the_tree_balls(self, rng):
        """On the h = 0.1 lattice many pairs lie at distance exactly rho.
        Lattice balls keep all of them by the integer test |o|^2 <= k_rho
        (at rho = 0.2: 1,104 pairs, where the float test on the
        coordinates keeps 1,064 and a strict rule 904), in both sources.
        The float test, which point clouds keep, still decides them as
        the k-d tree neighbour list of Orlicz-slice does."""
        from bbmlab.geometry import _ball_pairs
        from bbmlab.spaces import _fft_ball_sums, _morrey_ladder

        ladder = _ladder_array

        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.1)
        pts, lattice = grid.points, grid.lattice
        radii = np.array([0.2, 0.3, 0.5])
        bounds = _lattice_bounds(grid, radii)
        assert bounds.tolist() == [4.0, 9.0, 25.0]
        power = rng.random(len(pts))
        power[rng.random(len(pts)) < 0.3] = 0.0
        ones = np.ones(len(pts))
        # every lattice pair at exactly rho is in the ball
        d2 = ((lattice[:, None, :] - lattice[None, :, :]) ** 2).sum(axis=2)
        exact = np.stack([(d2 <= k).sum(axis=1) for k in bounds])
        pair_counts = ladder(lattice, ones, bounds)
        assert pair_counts[0].sum() == 1104
        assert np.array_equal(pair_counts, exact)
        box = _morrey_ladder(grid)[3]
        assert box == (20, 20)  # 2 E - 1 = 19 cells per axis, rounded up
        fft_counts, _ = next(_fft_ball_sums(lattice, ones[None], bounds,
                                            box))
        assert np.array_equal(np.rint(fft_counts), exact)
        fft_sums, _ = next(_fft_ball_sums(lattice, power[None], bounds,
                                          box))
        assert fft_sums == pytest.approx(ladder(lattice, power, bounds),
                                         rel=1e-12, abs=1e-14)
        # the float test on coordinates, as point clouds use it
        pair_counts, sums = (ladder(pts, weights, radii**2)
                             for weights in (ones, power))
        assert pair_counts[0].sum() == 1064
        for rung, rho in enumerate(radii):
            tree_counts, tree_sums = np.zeros(len(pts)), np.zeros(len(pts))
            for block, rows, cols, _ in _ball_pairs(pts, np.arange(len(pts)),
                                                    rho):
                centers = block.stop - block.start
                tree_counts[block] = np.bincount(rows, minlength=centers)
                tree_sums[block] = np.bincount(rows, weights=power[cols],
                                               minlength=centers)
            assert np.array_equal(pair_counts[rung], tree_counts)
            assert sums[rung] == pytest.approx(tree_sums, rel=1e-12, abs=0.0)


def _ladder_array(pts, power, bounds):
    """The (len(bounds), N) ball sums of `_ladder_ball_sums`, block by
    block."""
    from bbmlab.spaces import _ladder_ball_sums

    rungs = [[] for _ in bounds]
    for rung, sums in _ladder_ball_sums(pts, power, bounds):
        rungs[rung].append(sums)
    return np.array([np.concatenate(blocks) for blocks in rungs])


def _morrey_from_sums(spec, grid, sums):
    """max over rungs and centers of |B|^(1/alpha - 1/r) (ball sum)^(1/r),
    and the ball sum at the maximum."""
    from bbmlab.spaces import _morrey_ladder, unit_ball_volume

    radii = _morrey_ladder(grid)[0]
    n = grid.dimension
    vol = (unit_ball_volume(n) * radii**n) ** (1.0 / spec.alpha - 1.0 / spec.r)
    cand = vol[:, None] * sums ** (1.0 / spec.r)
    at = np.unravel_index(np.argmax(cand), cand.shape)
    return float(cand[at]), float(sums[at])


# lattice grids for the two Morrey sources: 1-d, 2-d and 3-d
MORREY_LATTICES = [
    pytest.param(Interval(0.0, 1.0), 1.0 / 64, id="interval"),
    pytest.param(Box((0.0, 0.0), (1.0, 1.0)), 0.05, id="box"),
    pytest.param(Disk((0.0, 0.0), 1.0), 0.1, id="disk"),
    pytest.param(Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.8))),
                 0.05, id="polygon"),
    pytest.param(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.125, id="box-3d"),
]


def _morrey_test_field(grid, kind, rng):
    """Normal values with 30% zeros, or a spike over small values."""
    values = rng.normal(size=len(grid))
    if kind == "zeros":
        values[rng.random(len(grid)) < 0.3] = 0.0
    else:
        values *= 1e-3
        values[rng.integers(len(grid))] = 10.0
    return field_on(grid, values)


class TestMorreyLatticeSources:
    """On lattice grids the FFT correlations and the distance block on
    integer indices give the same ball sums as a dense exact-integer
    reference; point clouds keep the float rule bit for bit."""

    @pytest.mark.parametrize("domain, h", MORREY_LATTICES)
    @pytest.mark.parametrize("alpha, r", [(3.0, 2.0), (4.0, 1.5), (2.0, 2.0)])
    @pytest.mark.parametrize("kind", ["zeros", "spike"])
    def test_sources_match_dense_integer_balls(self, rng, domain, h, alpha,
                                               r, kind):
        from bbmlab.spaces import (
            _BALL_FFT_GUARD,
            _fft_ball_sums,
            _morrey_ladder,
        )

        grid = sample_quadrature(domain, h)
        assert grid.lattice is not None
        spec = Morrey(alpha, r)
        f = _morrey_test_field(grid, kind, rng)
        power = np.abs(f.values) ** r * grid.weights
        bounds = _lattice_bounds(grid, _morrey_ladder(grid)[0])
        lattice = grid.lattice
        d2 = ((lattice[:, None, :] - lattice[None, :, :]) ** 2).sum(axis=2)
        dense = np.stack([(d2 <= k) @ power for k in bounds])
        block = _ladder_array(lattice, power, bounds)
        extent = lattice.max(axis=0) - lattice.min(axis=0) + 1
        shape = tuple(int(2 * e - 1) for e in extent)
        fft, error = next(_fft_ball_sums(lattice, power[None], bounds,
                                         shape))
        assert np.all(fft >= 0.0)
        assert np.abs(fft - dense).max() <= 1e-12 * dense.max()
        expected, _ = _morrey_from_sums(spec, grid, dense)
        got_block, _ = _morrey_from_sums(spec, grid, block)
        got_fft, at_max = _morrey_from_sums(spec, grid, fft)
        assert error <= _BALL_FFT_GUARD * at_max
        assert got_block == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert got_fft == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert norm(spec, f) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("domain, h", MORREY_LATTICES)
    def test_zero_field_is_exactly_zero(self, domain, h, monkeypatch):
        grid = sample_quadrature(domain, h)
        monkeypatch.setattr("bbmlab.spaces._BALL_FFT_COST", 0.0)
        assert norm(Morrey(3.0, 2.0), field_on(grid, np.zeros(len(grid)))) \
            == 0.0

    def test_guard_sends_a_call_to_the_block(self, monkeypatch):
        """A maximising ball sum too close to the FFT's round-off reruns
        the call on the distance block: here a spike over ones, whose
        smallest ball holds 2.6% of the total, under Morrey(50, 1.01)."""
        from bbmlab import spaces

        grid = sample_quadrature(Disk((0.0, 0.0), 1.0), 0.05)
        values = np.ones(len(grid))
        values[len(grid) // 2] = 20.0
        f = field_on(grid, values)
        ran = []
        for name in ("_fft_ball_sums", "_ladder_ball_sums"):
            def spy(*args, _original=getattr(spaces, name), _name=name):
                ran.append(_name)
                return _original(*args)

            monkeypatch.setattr(spaces, name, spy)
        got = norm(Morrey(50.0, 1.01), f)
        assert ran == ["_fft_ball_sums", "_ladder_ball_sums"]
        monkeypatch.setattr(spaces, "_BALL_FFT_COST", math.inf)
        assert got == norm(Morrey(50.0, 1.01), f)

    def test_cost_rule_keeps_the_audit_grids_on_the_block(self, rng,
                                                          monkeypatch):
        """The 24- and 36-point audit grids stay on the distance block;
        the h = 0.05 disk of the ball-norm studies takes the FFT."""
        from bbmlab import spaces
        from bbmlab.checks import engine_catalog

        ran = []
        original = spaces._fft_ball_sums

        def spy(*args):
            ran.append(args)
            return original(*args)

        monkeypatch.setattr(spaces, "_fft_ball_sums", spy)
        grids = {len(grid): grid for _, _, grid in engine_catalog()}
        assert sorted(grids) == [24, 36]
        for grid in grids.values():
            norm(Morrey(3.0, 2.0), field_on(grid, rng.normal(size=len(grid))))
        assert not ran
        disk = sample_quadrature(Disk((0.0, 0.0), 1.0), 0.05)
        norm(Morrey(3.0, 2.0), field_on(disk, rng.normal(size=len(disk))))
        assert len(ran) == 1

    @pytest.mark.parametrize("domain, h, scheme", [
        (Disk((0.0, 0.0), 1.0), 0.1, "quasi-random"),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.07, "tensor-midpoint"),
    ], ids=["quasi-random-disk", "clipped-box"])
    @pytest.mark.parametrize("alpha, r", [(3.0, 2.0), (4.0, 1.5), (2.0, 2.0)])
    def test_point_clouds_bit_for_bit(self, rng, domain, h, scheme, alpha,
                                      r):
        """Point clouds keep the float rule |x - y|^2 <= rho^2, summed as
        before the lattice sources came."""
        from bbmlab.spaces import _BALL_BLOCK

        grid = sample_quadrature(domain, h, scheme)
        assert grid.lattice is None
        f = _morrey_test_field(grid, "zeros", rng)
        pts, n = grid.points, grid.dimension
        power = np.abs(f.values) ** r * grid.weights
        diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) + h
        radii = np.geomspace(min(2.0 * h, diam), diam, 12)
        vol_factors = (unit_ball_volume(n) * radii**n) ** (
            1.0 / alpha - 1.0 / r)
        best = 0.0
        for start in range(0, len(pts), _BALL_BLOCK):
            centers = pts[start:start + _BALL_BLOCK]
            d2 = np.zeros((len(centers), len(pts)))
            for j in range(n):
                d2 += (centers[:, j, None] - pts[None, :, j]) ** 2
            sums = np.stack([(d2 <= rho * rho) @ power for rho in radii])
            cand = vol_factors[:, None] * sums ** (1.0 / r)
            best = max(best, float(cand.max(initial=0.0)))
        assert norm(Morrey(alpha, r), f) == best


class TestOrliczSlice:
    def test_power_phi_interior_constant(self):
        grid = sample_quadrature(Interval(0.0, 1.0), 1.0 / 128)
        f = field_on(grid, np.ones(len(grid)))
        t = 0.05
        got = norm(OrliczSlice(PowerOrlicz(2.0), 2.0, t), f)
        # for Phi = t^2 both Luxemburg norms have closed forms: the ratio
        # at each center is the covered ball mass over the full 2t
        x = grid.points[:, 0]
        covered = np.array([
            grid.weights[np.abs(x - xi) <= t].sum() / (2 * t) for xi in x
        ])
        expected = math.sqrt(np.sum(grid.weights * covered))
        assert got == pytest.approx(expected, rel=1e-6)


    @staticmethod
    def _dense_mask_norm(spec, field):
        """The slice norm with every ball as a dense row of cell weights."""
        from bbmlab.spaces import _luxemburg, unit_ball_volume

        grid = field.grid
        pts, w = grid.points, grid.weights
        a = np.abs(field.values)
        n = grid.dimension
        ball = unit_ball_volume(n) * spec.t**n
        denom = _luxemburg(lambda lam, which: ball * spec.phi(1.0 / lam),
                           np.array([1.0]))[0]
        # balls from the tree, so ties at distance t fall as in the engine
        mask = np.zeros((len(pts), len(pts)))
        for row, idx in enumerate(cKDTree(pts).query_ball_point(pts,
                                                                spec.t)):
            mask[row, idx] = w[idx]
        lam0 = np.where(mask @ (a > 0), a.max(), 0.0)

        def modular(lam, which):
            with np.errstate(divide="ignore"):
                return np.sum(mask[which]
                              * spec.phi(a[None, :] / lam[:, None]), axis=1)

        ratios = _luxemburg(modular, lam0) / denom
        return float(np.sum(w * ratios**spec.r) ** (1.0 / spec.r))

    @pytest.mark.parametrize("domain, h", [
        (Interval(0.0, 1.0), 1.0 / 64),
        (Box((0.0, 0.0), (1.0, 1.0)), 0.1),
        (Disk((0.0, 0.0), 1.0), 0.15),
    ])
    @pytest.mark.parametrize("phi", [PowerOrlicz(2.0), PowerOrlicz(1.5),
                                     PowerLogOrlicz(1.0)])
    @pytest.mark.parametrize("t", [0.05, 0.15, 0.5])
    def test_ball_lists_match_dense_masks(self, rng, domain, h, phi, t):
        grid = sample_quadrature(domain, h)
        values = rng.normal(size=len(grid))
        values[rng.random(len(grid)) < 0.3] = 0.0
        spec = OrliczSlice(phi, 2.0, t)
        f = field_on(grid, values)
        assert norm(spec, f) == pytest.approx(self._dense_mask_norm(spec, f),
                                              rel=1e-12)


class TestSliceDenominator:
    @pytest.mark.parametrize("phi", [
        PowerOrlicz(2.0), PowerOrlicz(1.5), PowerLogOrlicz(1.0),
        TableOrlicz((0.5, 1.0, 2.0, 4.0), (0.1, 1.0, 5.0, 30.0), 1.0, 4.0),
    ], ids=["power2", "power1.5", "powerlog1", "table"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.05, 0.15, 0.5])
    def test_cached_equals_a_fresh_solve(self, phi, n, t):
        """The |B_t| Luxemburg norm, solved through the shared modular,
        equals bit for bit a solve of its own one-term modular."""
        from bbmlab.spaces import _luxemburg, _slice_denominator

        ball = unit_ball_volume(n) * t**n
        fresh = float(_luxemburg(lambda lam, which: ball * phi(1.0 / lam),
                                 np.array([1.0]), phi.lower_type,
                                 phi.upper_type)[0])
        assert _slice_denominator(phi, t, n) == fresh


# The engines that `BesovBourgainMorrey.norm` and `_herz_norms` replaced,
# kept as references: one `np.unique` partition per level, and one Herz
# center at a time.

def _unique_partition_bbmorrey(spec, field):
    grid = field.grid
    n = grid.dimension
    j_hi = max(min(spec.j_max, int(math.floor(-math.log2(grid.h)))),
               spec.j_min)
    aq = np.abs(field.values) ** spec.q * grid.weights
    total = 0.0
    for j in range(spec.j_min, j_hi + 1):
        cube_idx = np.floor(grid.points * 2.0**j).astype(np.int64)
        _, inverse = np.unique(cube_idx, axis=0, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=aq)
        vol = 2.0 ** (-j * n)
        terms = vol ** (1.0 / spec.p - 1.0 / spec.q) * sums ** (1.0 / spec.q)
        total += np.sum(terms**spec.r) ** (spec.tau / spec.r)
    return float(total ** (1.0 / spec.tau))


def _herz_one_center(spec, field, xi):
    grid = field.grid
    d = np.linalg.norm(grid.points - xi, axis=1)
    keep = d > 0
    if not np.any(keep):
        return 0.0
    k = np.floor(np.log2(d[keep])).astype(int) + 1
    s = np.abs(field.values[keep]) ** spec.p * grid.weights[keep]
    sums = np.bincount(k - k.min(), weights=s)
    ks = np.arange(k.min(), k.min() + len(sums))
    nonzero = sums > 0
    terms = (2.0 ** (ks[nonzero] * spec.a)) ** spec.q \
        * sums[nonzero] ** (spec.q / spec.p)
    return float(np.sum(terms) ** (1.0 / spec.q))


def _herz_lattice(grid):
    """The centers `HerzGlobal` searches: a bounding-box lattice."""
    lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
    step = max(grid.h, float(np.max(hi - lo)) / 12.0)
    axes = [np.arange(lo[j], hi[j] + step / 2, step)
            for j in range(grid.dimension)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)


def _herz_global_by_center(spec, field):
    return max(_herz_one_center(spec, field, c)
               for c in _herz_lattice(field.grid))


# the array engines sum a level's (or a center's) terms in another order
# than the references; nothing else differs
ENGINE_RTOL = 1e-15

ENGINE_GRIDS = pytest.mark.parametrize("domain, h, scheme", [
    (Interval(0.0, 1.0), 1.0 / 24, "tensor-midpoint"),
    (Box((0.0, 0.0), (1.0, 1.0)), 1.0 / 6, "tensor-midpoint"),
    (Disk((0.0, 0.0), 1.0), 0.1, "tensor-midpoint"),
    (Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.125, "tensor-midpoint"),
    (Disk((0.2, -0.3), 1.0), 0.1, "quasi-random"),
], ids=["interval-24", "box-6x6", "disk", "box-3d", "quasi-random-disk"])

BBMORREY_SPECS = [
    BesovBourgainMorrey(1.5, 2.0, 2.5, 2.0),
    BesovBourgainMorrey(1.0, 2.0, 3.0, 1.5, j_min=-3, j_max=2),
    BesovBourgainMorrey(2.0, 2.0, 2.0, 2.0, j_min=-12, j_max=-1),
    # levels below 2^j max|x| < 1 share one sign-only partition
    BesovBourgainMorrey(1.5, 2.0, 2.5, 2.0, j_min=-60, j_max=3),
    # a level finer than the grid spacing has about one point per cube
    BesovBourgainMorrey(1.5, 2.0, 2.5, 2.0, j_min=14, j_max=14),
]
HERZ_SPECS = [HerzGlobal(2.0, 2.0, -0.1), HerzGlobal(1.5, 3.0, 0.4)]


def _fields_with_zeros(grid, rng, count=4):
    for _ in range(count):
        values = rng.normal(scale=2.0, size=len(grid))
        values[rng.random(len(grid)) < 0.3] = 0.0
        yield field_on(grid, values)


class TestArrayEngines:
    @ENGINE_GRIDS
    @pytest.mark.parametrize("spec", BBMORREY_SPECS,
                             ids=["audit", "window-3..2", "negative-levels",
                                  "long-window", "above-grid-spacing"])
    def test_bbmorrey_matches_unique_partitions(self, rng, domain, h, scheme,
                                                spec):
        grid = sample_quadrature(domain, h, scheme)
        for f in _fields_with_zeros(grid, rng):
            assert norm(spec, f) == pytest.approx(
                _unique_partition_bbmorrey(spec, f), rel=ENGINE_RTOL, abs=0.0)

    @ENGINE_GRIDS
    @pytest.mark.parametrize("spec", HERZ_SPECS, ids=["audit", "p1.5q3"])
    def test_herz_global_matches_center_loop(self, rng, domain, h, scheme,
                                             spec):
        grid = sample_quadrature(domain, h, scheme)
        for f in _fields_with_zeros(grid, rng):
            assert norm(spec, f) == pytest.approx(
                _herz_global_by_center(spec, f), rel=ENGINE_RTOL, abs=0.0)

    @ENGINE_GRIDS
    def test_herz_local_matches_one_center(self, rng, domain, h, scheme):
        """Around a grid point, whose own cell lies in no annulus, and
        around a point off the grid."""
        grid = sample_quadrature(domain, h, scheme)
        for xi in (grid.points[3], grid.points[0] - 0.1):
            spec = HerzLocal(2.5, 1.5, 0.3, tuple(xi))
            for f in _fields_with_zeros(grid, rng, count=2):
                assert norm(spec, f) == pytest.approx(
                    _herz_one_center(spec, f, xi), rel=ENGINE_RTOL, abs=0.0)

    @ENGINE_GRIDS
    def test_zero_field_is_exactly_zero(self, domain, h, scheme):
        grid = sample_quadrature(domain, h, scheme)
        zero = field_on(grid, np.zeros(len(grid)))
        xi = tuple(grid.points[0])
        # at |a| = 200 some annulus weights overflow to inf; empty annuli
        # still add 0, not inf * 0
        herz = [*HERZ_SPECS, HerzGlobal(2.0, 2.0, 200.0),
                HerzGlobal(2.0, 2.0, -200.0), HerzLocal(2.0, 2.0, 0.3, xi)]
        for spec in [*BBMORREY_SPECS, *herz]:
            assert norm(spec, zero) == 0.0


class TestHerzGlobal:
    @pytest.mark.parametrize("a, expected", [
        (0.5, 2.0), (-0.5, math.sqrt(2.5)),
    ])
    def test_two_point_hand_computation(self, a, expected):
        """Points 0 and 1 (weights 1/2, values 1 and 2), p = q = 2: the
        lattice step is max(h, 1/12) = 1/2, so the centers are 0, 1/2, 1.
        Around 0 only the value 2 lies in an annulus (k = 1, distance 1),
        norm (2^(2a) * 2)^(1/2); around 1/2 both lie in k = 0, norm
        sqrt(2.5); around 1 only the value 1, norm (2^(2a) / 2)^(1/2)."""
        grid = QuadratureGrid(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]),
                              0.5)
        f = field_on(grid, [1.0, 2.0])
        assert norm(HerzGlobal(2.0, 2.0, a), f) == pytest.approx(expected,
                                                                  rel=1e-15)

    def test_lattice_larger_than_a_block(self, rng):
        """2,197 centers on a 14^3 grid: the blocks of _BALL_BLOCK centers
        together must give the per-center maximum."""
        from bbmlab.spaces import _BALL_BLOCK

        grid = sample_quadrature(Box((0.0,) * 3, (1.0,) * 3), 1.0 / 14)
        assert len(_herz_lattice(grid)) == 13**3 > _BALL_BLOCK
        spec = HerzGlobal(2.0, 2.0, -0.1)
        f = next(_fields_with_zeros(grid, rng, count=1))
        assert norm(spec, f) == pytest.approx(
            _herz_global_by_center(spec, f), rel=ENGINE_RTOL, abs=0.0)


class TestRearrangement:
    def test_sorting_example(self):
        grid = QuadratureGrid(np.array([[0.0], [1.0], [2.0]]),
                              np.array([1.0, 1.0, 1.0]), 1.0)
        step = decreasing_rearrangement(field_on(grid, [3.0, 1.0, 2.0]))
        assert np.allclose(step.levels, [3.0, 2.0, 1.0])
        assert np.allclose(step.breakpoints, [1.0, 2.0, 3.0])
        assert step(0.5) == 3.0
        assert step(1.0) == 2.0  # right continuity
        assert step(3.5) == 0.0

    def test_constant_field(self):
        f = constant_field(2.0, value=-1.5)
        step = decreasing_rearrangement(f)
        assert step(0.0) == pytest.approx(1.5)
        assert step(1.999) == pytest.approx(1.5)
        assert step(2.001) == 0.0

    def test_equimeasurability(self, unit_interval_grid, rng):
        vals = rng.normal(size=len(unit_interval_grid))
        f = field_on(unit_interval_grid, vals)
        step = decreasing_rearrangement(f)
        widths = np.diff(np.concatenate([[0.0], step.breakpoints]))
        for p in (1, 2, 3):
            lhs = np.sum(step.levels**p * widths)
            rhs = np.sum(unit_interval_grid.weights * np.abs(vals) ** p)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConvexify:
    def test_lebesgue_exponent_map(self):
        assert convexify(Lebesgue(4.0), 2.0) == Lebesgue(2.0)

    def test_identity_general(self, unit_interval_grid, rng):
        vals = rng.normal(size=len(unit_interval_grid))
        f = field_on(unit_interval_grid, vals)
        fp = field_on(unit_interval_grid, np.abs(vals) ** 1.5)
        lhs = norm(Lebesgue(3.0), f)
        rhs = norm(convexify(Lebesgue(3.0), 1.5), fp) ** (1.0 / 1.5)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_modular_relation_p_equals_q(self, unit_interval_grid, rng):
        vals = rng.normal(size=len(unit_interval_grid))
        f = field_on(unit_interval_grid, vals)
        fq = field_on(unit_interval_grid, np.abs(vals) ** 2.0)
        assert norm(Lebesgue(2.0), f) ** 2.0 == pytest.approx(
            norm(convexify(Lebesgue(2.0), 2.0), fq), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            convexify(Lebesgue(2.0), 4.0)


class TestApConstant:
    def test_constant_weight_is_one(self):
        for p in (1.0, 2.0, 3.0):
            got = ap_constant(ConstantWeight(1.0), p,
                              (np.array([0.0]), np.array([1.0])), depth=3)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_single_cube_closed_form(self):
        # |x|^(1/2) on [0,1], p=2: (2/3) * 2 = 4/3
        got = ap_constant(PowerWeight(0.5), 2.0,
                          (np.array([0.0]), np.array([1.0])), depth=0)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_outside_a2_diverges_with_depth(self):
        box = (np.array([0.0]), np.array([1.0]))
        values = {d: ap_constant(PowerWeight(1.5), 2.0, box, depth=d)
                  for d in (4, 6, 8)}
        assert values[6] > 2.0 * values[4]
        assert values[8] > 2.0 * values[6]

    def test_monotone_in_depth(self):
        box = (np.array([0.0]), np.array([1.0]))
        vals = [ap_constant(PowerWeight(0.5), 2.0, box, depth=d)
                for d in range(5)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_inside_a2_stays_bounded(self):
        box = (np.array([0.0]), np.array([1.0]))
        shallow = ap_constant(PowerWeight(0.5), 2.0, box, depth=2)
        deep = ap_constant(PowerWeight(0.5), 2.0, box, depth=8)
        assert deep < 3.0 * shallow

    def test_a1_constant_weight(self):
        got = ap_constant(ConstantWeight(2.0), 1.0,
                          (np.array([0.0]), np.array([1.0])), depth=2)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_2d_constant(self):
        got = ap_constant(ConstantWeight(1.0), 2.0,
                          (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
                          depth=2)
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_constant_grid_weight_matches_constant_weight(self, p):
        # 16 x 16 cell midpoints: every cube down to depth 3 holds samples
        box = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        points = sample_quadrature(Box(*box), 1.0 / 16).points
        grid_weight = GridWeight(points, np.full(len(points), 2.5))
        got = ap_constant(grid_weight, p, box, depth=3)
        want = ap_constant(ConstantWeight(2.5), p, box, depth=3)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_2d_power_cube_integral_polynomial(self):
        from bbmlab.spaces import _power_cube_integral
        got = _power_cube_integral(2.0, np.array([0.0, 0.0]),
                                   np.array([1.0, 1.0]), eps=1e-6)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_2d_power_cube_integral_singular(self):
        from bbmlab.spaces import _power_cube_integral
        # int over [0,1]^2 of |x|^(-1) dx = 2 ln(1 + sqrt(2))
        got = _power_cube_integral(-1.0, np.array([0.0, 0.0]),
                                   np.array([1.0, 1.0]), eps=1e-6)
        assert got == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)),
                                    rel=1e-2)


class TestHolder:
    def test_equality_case(self):
        f = constant_field(1.0)
        assert holder_defect(f, f, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_supports(self, unit_interval_grid):
        n = len(unit_interval_grid)
        left = np.zeros(n)
        left[: n // 2] = 1.0
        right = np.zeros(n)
        right[n // 2:] = 1.0
        f = field_on(unit_interval_grid, left)
        g = field_on(unit_interval_grid, right)
        defect = holder_defect(f, g, 2.0)
        assert defect == pytest.approx(
            -norm(Lebesgue(2.0), f) * norm(Lebesgue(2.0), g))

    def test_random_pairs_never_positive(self, unit_interval_grid, rng):
        for q in (1.5, 2.0, 3.0):
            for _ in range(200):
                f = field_on(unit_interval_grid,
                             rng.normal(size=len(unit_interval_grid)))
                g = field_on(unit_interval_grid,
                             rng.normal(size=len(unit_interval_grid)))
                assert holder_defect(f, g, q) <= 1e-12


class TestCsvInterfaces:
    def test_orlicz_table_roundtrip(self, tmp_path):
        path = tmp_path / "phi.csv"
        ts = np.geomspace(0.01, 100, 9)
        path.write_text("\n".join(f"{t},{t**2}" for t in ts))
        table = orlicz_from_csv(path)
        assert table(2.0) == pytest.approx(4.0, rel=1e-9)

    def test_grid_weight(self, tmp_path, unit_interval_grid):
        path = tmp_path / "w.csv"
        rows = [f"{x},{1.0 + x}" for x in unit_interval_grid.points[:, 0]]
        path.write_text("\n".join(rows))
        weight = weight_from_csv(path, 1)
        got = weight(unit_interval_grid.points)
        assert np.allclose(got, 1.0 + unit_interval_grid.points[:, 0])

    def test_grid_weight_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            GridWeight(np.array([[0.25], [0.75]]), np.array([1.0, math.nan]))

    @pytest.mark.parametrize("load", [orlicz_from_csv,
                                      lambda path: weight_from_csv(path, 1)],
                             ids=["orlicz", "weight"])
    @pytest.mark.parametrize("row, message", [
        ("3", "expected 2 finite numbers"),
        ("3,9,27", "expected 2 finite numbers"),
        ("3,nine", "expected 2 finite numbers"),
        ("3,inf", "expected 2 finite numbers"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, load, row, message):
        path = tmp_path / "table.csv"
        path.write_text(f"1,1\n\n2,4\n{row}\n")
        with pytest.raises(ValueError, match=message) as info:
            load(path)
        assert str(info.value).startswith(f"{path}, line 4: ")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=24))
def test_rearrangement_preserves_l2_mass(values):
    values = np.asarray(values)
    grid = QuadratureGrid(np.linspace(0, 1, len(values))[:, None],
                          np.full(len(values), 1.0 / len(values)),
                          1.0 / len(values))
    step = decreasing_rearrangement(SampledField(grid, values))
    widths = np.diff(np.concatenate([[0.0], step.breakpoints]))
    lhs = float(np.sum(step.levels**2 * widths))
    rhs = float(np.sum(grid.weights * values**2))
    assert lhs == pytest.approx(rhs, abs=1e-10)


# one config record per kind, the spec it must build (None where the spec
# holds a callable and has no equality) and the report label it carries
SPEC_RECORDS = [
    ({"kind": "lebesgue", "q": 2}, Lebesgue(2), "lebesgue(q=2)"),
    ({"kind": "weighted", "q": 3, "weight": "power", "weight_a": 0.5},
     WeightedLebesgue(3, PowerWeight(0.5)), "weighted(q=3, PowerWeight)"),
    ({"kind": "lorentz", "r": 2, "tau": 3}, Lorentz(2, 3),
     "lorentz(r=2, tau=3)"),
    ({"kind": "orlicz", "phi": "plog", "phi_q": 1.5},
     OrliczSpace(PowerLogOrlicz(1.5)), "orlicz(PowerLogOrlicz)"),
    ({"kind": "morrey", "alpha": 3, "r": 2}, Morrey(3, 2),
     "morrey(alpha=3, r=2)"),
    ({"kind": "variable", "base": 2.5, "slope": 0.5}, None, "variable"),
    ({"kind": "mixed", "rvec": [1.5, 2]}, MixedLebesgue((1.5, 2.0)),
     "mixed(1.5, 2.0)"),
    ({"kind": "herz_local", "p": 2, "q": 3},
     HerzLocal(2, 3, 0.0, (0.0, 0.0)), "herz_local(p=2, q=3, a=0)"),
    ({"kind": "herz_global", "p": 2, "q": 3, "a": -0.5},
     HerzGlobal(2, 3, -0.5), "herz_global(p=2, q=3, a=-0.5)"),
    ({"kind": "bbmorrey", "q": 1, "p": 2, "r": 3, "tau": 1.5, "j_max": 4},
     BesovBourgainMorrey(1, 2, 3, 1.5, j_max=4),
     "bbmorrey(q=1, p=2, r=3, tau=1.5)"),
    ({"kind": "orlicz_slice", "r": 2, "t": 0.25},
     OrliczSlice(PowerOrlicz(2.0), 2, 0.25), "orlicz_slice(r=2, t=0.25)"),
]

REQUIRED_KEYS = [
    ("lebesgue", "q"), ("weighted", "q"), ("weighted", "weight_a"),
    ("lorentz", "r"), ("lorentz", "tau"), ("morrey", "alpha"),
    ("morrey", "r"), ("mixed", "rvec"), ("herz_local", "p"),
    ("herz_local", "q"), ("herz_global", "p"), ("herz_global", "q"),
    ("bbmorrey", "q"), ("bbmorrey", "p"), ("bbmorrey", "r"),
    ("bbmorrey", "tau"), ("orlicz_slice", "r"), ("orlicz_slice", "t"),
]

# the keys whose NaN or infinite value no spec accepts
NON_FINITE_KEYS = REQUIRED_KEYS + [
    ("herz_local", "a"), ("herz_local", "xi"), ("herz_global", "a"),
    ("orlicz", "phi_q")]



class TestSpecContract:
    def test_registry_covers_every_kind(self):
        kinds = [record["kind"] for record, _, _ in SPEC_RECORDS]
        assert sorted(SPACES) == sorted(kinds)
        assert all(cls.kind == kind for kind, cls in SPACES.items())

    @pytest.mark.parametrize("record, expected, label", SPEC_RECORDS,
                             ids=[r["kind"] for r, _, _ in SPEC_RECORDS])
    def test_built_from_record_with_label(self, record, expected, label):
        spec = build_space(dict(record), 2)
        assert type(spec) is SPACES[record["kind"]]
        assert spec.label == label
        if expected is not None:
            assert spec == expected
            assert expected.label == label

    def test_variable_exponent_from_base_and_slope(self):
        spec = build_space(
            {"kind": "variable", "base": 2.5, "slope": 0.5}, 2)
        pts = np.array([[0.0, 0.0], [1.0, 3.0]])
        assert np.array_equal(spec.exponents(pts), [2.5, 3.0])
        constant = build_space({"kind": "variable"}, 2)
        assert constant.exponent == 2.0
        assert isinstance(constant, VariableLebesgue)

    def test_variable_exponent_must_stay_above_one(self, unit_interval_grid):
        f = field_on(unit_interval_grid, np.ones(len(unit_interval_grid)))
        with pytest.raises(ValueError, match="above 1"):
            norm(VariableLebesgue(lambda pts: 0.5 + pts[:, 0]), f)

    def test_only_morrey_and_global_herz_are_not_absolutely_continuous(self):
        for record, _, _ in SPEC_RECORDS:
            spec = build_space(dict(record), 2)
            assert spec.absolutely_continuous == (
                record["kind"] not in ("morrey", "herz_global"))

    @pytest.mark.parametrize("kind, key", REQUIRED_KEYS)
    def test_missing_key_names_the_field(self, kind, key):
        record = next(dict(r) for r, _, _ in SPEC_RECORDS if r["kind"] == kind)
        record.pop(key)
        with pytest.raises(ConfigError) as info:
            build_space(record, 2)
        assert info.value.field == f"space.{key}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, key", NON_FINITE_KEYS)
    def test_non_finite_value_names_the_space(self, kind, key, value):
        record = next(dict(r) for r, _, _ in SPEC_RECORDS if r["kind"] == kind)
        record[key] = value
        with pytest.raises(ConfigError) as info:
            build_space(record, 2)
        assert info.value.field == "space"

    @pytest.mark.parametrize("base", [math.nan, math.inf])
    def test_variable_exponent_must_stay_finite(self, unit_interval_grid,
                                                base):
        f = field_on(unit_interval_grid, np.ones(len(unit_interval_grid)))
        with pytest.raises(ValueError, match="finite and above 1"):
            norm(VariableLebesgue(base), f)
