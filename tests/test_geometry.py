import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bbmlab import geometry
from bbmlab.cli import ConfigError, run_experiment
from bbmlab.geometry import (
    Box,
    Disk,
    Interval,
    Polygon,
    QuadratureGrid,
    _ball_offsets,
    _ball_pairs,
    _column_extents,
    _LatticeBox,
    _lattice_cells,
    sample_quadrature,
)

UNIT_DISK = Disk((0.0, 0.0), 1.0)
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))


class TestContains:
    def test_disk_center(self):
        assert UNIT_DISK.contains((0.0, 0.0))

    def test_disk_exterior(self):
        assert not UNIT_DISK.contains((2.0, 0.0))

    def test_disk_boundary_excluded(self):
        assert not UNIT_DISK.contains((1.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UNIT_DISK.contains((0.0, 0.0, 0.0))

    def test_polygon_membership(self):
        assert L_SHAPE.contains((0.5, 0.5))
        assert L_SHAPE.contains((1.5, 0.5))
        assert not L_SHAPE.contains((1.5, 1.5))
        # points on an edge count as outside
        assert not L_SHAPE.contains((1.0, 1.5))


class TestBoundaryDistance:
    def test_interval(self):
        assert Interval(0, 1).boundary_distance((0.3,)) == pytest.approx(0.3)

    def test_disk(self):
        assert UNIT_DISK.boundary_distance((0.5, 0.0)) == pytest.approx(0.5)

    def test_square(self):
        assert UNIT_SQUARE.boundary_distance((0.2, 0.7)) == pytest.approx(0.2)

    def test_polygon_edge_distance(self):
        assert L_SHAPE.boundary_distance((0.5, 0.5)) == pytest.approx(0.5)
        assert L_SHAPE.boundary_distance((0.9, 1.8)) == pytest.approx(0.1)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            UNIT_DISK.boundary_distance((3.0, 0.0))


class TestEnclosingRadius:
    def test_unit_disk(self):
        assert UNIT_DISK.enclosing_radius() == pytest.approx(2.0)

    def test_unit_interval(self):
        assert Interval(0, 1).enclosing_radius() == pytest.approx(2.0)

    def test_symmetric_box(self):
        box = Box((-1.0, -1.0), (1.0, 1.0))
        assert box.enclosing_radius() == pytest.approx(2.0 * math.sqrt(2.0))


class TestQuadrature:
    def test_interval_midpoints(self):
        grid = sample_quadrature(Interval(0, 1), 0.25)
        assert np.allclose(grid.points.ravel(), [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(grid.weights, 0.25)

    def test_square_four_cells(self):
        grid = sample_quadrature(UNIT_SQUARE, 0.5)
        assert len(grid) == 4
        assert grid.weights.sum() == pytest.approx(1.0)

    def test_box_weight_sum_exact_with_clipping(self):
        # 0.3 does not divide 1, so the final cells are clipped
        grid = sample_quadrature(Box((0.0,), (1.0,)), 0.3)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_disk_weight_sum_near_pi(self):
        grid = sample_quadrature(UNIT_DISK, 0.01)
        assert grid.weights.sum() == pytest.approx(math.pi, rel=0.01)

    def test_all_points_inside(self):
        for domain in (UNIT_DISK, L_SHAPE, UNIT_SQUARE):
            grid = sample_quadrature(domain, 0.11)
            assert domain.contains_many(grid.points).all()

    def test_3d_box_weight_sum_exact(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 0.7, 0.4))
        grid = sample_quadrature(box, 0.15)
        assert grid.weights.sum() == pytest.approx(0.28, abs=1e-14)
        assert box.contains_many(grid.points).all()

    @pytest.mark.parametrize("domain, h", [
        (Interval(0.0, 1.0), 1e-3), (UNIT_SQUARE, 0.02), (UNIT_DISK, 0.07),
        (L_SHAPE, 0.1), (Box((0.0, 0.0, 0.0), (1.0, 0.5, 0.25)), 0.125)])
    def test_lattice_indices_of_full_cells(self, domain, h):
        grid = sample_quadrature(domain, h)
        lo, _ = domain.bounding_box()
        assert grid.lattice.dtype == np.int64
        assert grid.lattice.min() >= 0
        assert np.allclose(grid.points, lo + h * (grid.lattice + 0.5),
                           rtol=0.0, atol=1e-12)
        assert len(np.unique(grid.lattice, axis=0)) == len(grid)

    @pytest.mark.parametrize("domain, h, scheme", [
        (UNIT_SQUARE, 0.03, "tensor-midpoint"),
        (Box((0.0,), (1.0,)), 0.3, "tensor-midpoint"),
        (UNIT_DISK, 0.07, "quasi-random")])
    def test_no_lattice_for_point_clouds(self, domain, h, scheme):
        # a clipped last cell leaves the lattice; Halton points never sit on it
        assert sample_quadrature(domain, h, scheme).lattice is None

    def test_lattice_must_match_the_points(self):
        with pytest.raises(ValueError, match="lattice indices"):
            QuadratureGrid(np.zeros((3, 2)), np.ones(3), 1.0,
                           lattice=np.zeros((3, 1), dtype=int))

    def test_quasi_random_converges_to_measure(self):
        grid = sample_quadrature(UNIT_DISK, 0.02, "quasi-random")
        assert grid.weights.sum() == pytest.approx(math.pi, rel=0.02)

    def test_h_too_large(self):
        with pytest.raises(ValueError):
            sample_quadrature(UNIT_DISK, 3.0)

    @pytest.mark.parametrize("h", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("scheme", ["tensor-midpoint", "quasi-random"])
    def test_h_must_be_finite_and_positive(self, h, scheme):
        with pytest.raises(ValueError, match="h must be a finite number > 0"):
            sample_quadrature(UNIT_DISK, h, scheme)

    @pytest.mark.parametrize("domain", [Interval(0.0, 1.0), UNIT_DISK],
                             ids=["interval", "disk"])
    @pytest.mark.parametrize("scheme", ["tensor-midpoint", "quasi-random"])
    def test_h_too_small_for_a_point_count(self, domain, scheme):
        # 1e-200 ** 2 underflows to zero, and 1 / 1e-200 points overflow
        # np.intp: both are reported before any array is made
        with pytest.raises(ValueError, match="h = 1e-200 is too small"):
            sample_quadrature(domain, 1e-200, scheme)

    def test_empty_acceptance_rejected(self):
        sliver = Polygon(((0.0, 0.0), (1.9, 0.0), (1.9, 0.001)))
        with pytest.raises(ValueError, match="decrease h"):
            sample_quadrature(sliver, 1.5)

    def test_boundary_distance_below_enclosing_radius(self):
        grid = sample_quadrature(UNIT_DISK, 0.07)
        radius = UNIT_DISK.enclosing_radius()
        for point in grid.points[::17]:
            assert UNIT_DISK.boundary_distance(point) <= radius


class TestHalton:
    @pytest.mark.parametrize("count", [1, 8, 5_000, 160_000])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_matches_scipy_bit_for_bit(self, dimension, count):
        qmc = pytest.importorskip("scipy.stats.qmc")
        want = qmc.Halton(d=dimension, scramble=False).random(count)
        got = geometry._halton(dimension, count)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_radical_inverse(self):
        # index 6 is 110 in base 2 and 20 in base 3
        assert geometry._halton(2, 7)[6].tolist() == [3 / 8, 2 / 9]


class TestMeasure:
    def test_polygon_area(self):
        assert L_SHAPE.measure() == pytest.approx(3.0)

    def test_diameter(self):
        assert UNIT_DISK.diameter() == pytest.approx(2.0)
        assert L_SHAPE.diameter() == pytest.approx(math.hypot(2, 2))


def _assert_same_grid(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)
    assert got.h == want.h
    for a, b in ((got.lattice, want.lattice), (got.axes, want.axes)):
        assert (a is None) == (b is None)
    if want.lattice is not None:
        assert np.array_equal(got.lattice, want.lattice)
    for (coords, widths), (want_coords, want_widths) in zip(
            got.axes or (), want.axes or ()):
        assert np.array_equal(coords, want_coords)
        assert np.array_equal(widths, want_widths)


class TestIntervalIsTheUnitBox:
    @pytest.mark.parametrize("a, b", [(0, 1), (-1, 1), (-0.7, 2.3)])
    def test_interval_matches_the_1d_box(self, a, b):
        interval, box = Interval(a, b), Box((a,), (b,))
        assert (interval.a, interval.b) == (a, b)
        assert interval.dimension == box.dimension == 1
        x = np.concatenate([np.linspace(a - 0.5, b + 0.5, 41), [a, b]])
        pts = x[:, None]
        assert np.array_equal(interval.contains_many(pts),
                              box.contains_many(pts))
        # the closed forms of the former interval branches
        assert np.array_equal(interval.contains_many(pts), (x > a) & (x < b))
        inner = pts[(x > a) & (x < b)]
        assert np.array_equal(interval.boundary_distance_many(inner),
                              box.boundary_distance_many(inner))
        assert np.array_equal(interval.boundary_distance_many(inner),
                              np.minimum(inner[:, 0] - a, b - inner[:, 0]))
        for point in inner[::7]:
            assert interval.contains(point) and box.contains(point)
            assert interval.boundary_distance(point) == \
                box.boundary_distance(point)
        assert interval.enclosing_radius() == box.enclosing_radius() == \
            2.0 * max(abs(a), abs(b))
        assert interval.diameter() == box.diameter() == b - a
        assert interval.measure() == box.measure() == b - a
        for got, want in zip(interval.bounding_box(), box.bounding_box()):
            assert np.array_equal(got, want)
        assert np.array_equal(interval.bounding_box()[0], [a])
        assert np.array_equal(interval.bounding_box()[1], [b])
        for scheme in ("tensor-midpoint", "quasi-random"):
            _assert_same_grid(sample_quadrature(interval, 0.05, scheme),
                              sample_quadrature(box, 0.05, scheme))

    def test_reversed_interval_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="interval requires a < b"):
            Interval(1, 0)
        config = {
            "domain": {"kind": "interval", "a": 1, "b": 0},
            "function": {"kind": "linear", "v": 1},
            "space": {"kind": "lebesgue", "q": 2},
            "family": {"kind": "bump"},
            "schedule": {"nu_start": 0.2, "ratio": 0.5, "count": 4},
            "p": 2, "h": 0.01,
        }
        with pytest.raises(ConfigError, match="interval requires a < b") \
                as info:
            run_experiment(config, tmp_path)
        assert info.value.field == "domain"


class TestDomainArguments:
    @pytest.mark.parametrize("build, name", [
        (lambda: Interval("two", 1), "a"),
        (lambda: Interval(0, math.inf), "b"),
        (lambda: Interval(math.nan, 1), "a"),
        (lambda: Box((0.0, -math.inf), (1.0, 1.0)), "lo"),
        (lambda: Box((0.0, 0.0), (1.0, None)), "hi"),
        (lambda: Disk((0.0, 0.0), "two"), "radius"),
        (lambda: Disk((0.0, 0.0), math.inf), "radius"),
        (lambda: Disk((0.0, 0.0), math.nan), "radius"),
        (lambda: Disk((0.0, 0.0), 0.0), "radius"),
        (lambda: Disk((0.0, 0.0), -1.0), "radius"),
        (lambda: Disk((math.nan, 0.0), 1.0), "center"),
        (lambda: Polygon(((0, 0), (1, 0), (math.inf, 1))), "vertices"),
        (lambda: Polygon(((0, 0), (1, 0), (math.nan, 1))), "vertices"),
        (lambda: Polygon(((0, 0), (1, 0), (2, 0))), "vertices"),
        (lambda: Polygon(((0, 0, 0), (1, 0), (0, 1))), "vertices"),
        (lambda: Polygon(((0, 0), 1, (0, 1))), "vertices"),
        (lambda: Polygon(((0, 0), (1, 0))), "vertices"),
        (lambda: Polygon(((0, 0), (2, 2), (2, 0), (0, 1))), "vertices"),
        (lambda: Polygon(((0, 0), (1, 0), (0, 0))), "vertices"),
    ])
    def test_bad_argument_is_named(self, build, name):
        """Arguments are converted and checked before any comparison, so
        the error names the argument, never an operator."""
        with pytest.raises(ValueError, match=f"^{name} must be "):
            build()

    def test_arguments_become_floats(self):
        disk = Disk((0, 1), 2)
        assert disk.radius == 2.0 and isinstance(disk.radius, float)
        assert all(isinstance(c, float) for c in disk.center)
        assert Interval("0", "1.5").b == 1.5
        clockwise = Polygon(((0, 0), ("0", 1), (1, 0)))
        assert clockwise.vertices == ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize("vertices", [
        ((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)),     # a vertex on an edge
        ((0, 0), (2, 0), (1, 0), (1, 1)),             # an edge doubles back
        # a slot cut through the base crosses it twice
        ((0, 0), (3, 0), (3, 3), (2, 3), (2, -1), (1, -1), (1, 3), (0, 3)),
    ])
    def test_polygon_must_be_simple(self, vertices):
        """A self-intersecting outline has a shoelace area that is not the
        area its grid covers, so it is refused by name."""
        with pytest.raises(ValueError, match="simple polygon"):
            Polygon(vertices)

    @pytest.mark.parametrize("vertices", [
        L_SHAPE.vertices,
        ((0, 0), (1, 0), (2, 0), (2, 1), (0, 1)),     # collinear vertices
        ((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)),   # a notch, not a touch
        ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)),     # a closed ring
        ((0, 0), (1, 0), (1, 0), (1, 1), (0, 1)),     # a repeated vertex
    ])
    def test_simple_polygons_accepted(self, vertices):
        assert Polygon(vertices).measure() > 0

    def test_repeated_vertices_are_dropped(self):
        """A closing copy of the first vertex makes no zero-length edge, so
        the ring is the unit square and its boundary distances are finite."""
        ring = Polygon(((0, 0), (1, 0), (1, 1), (1, 1), (0, 1), (0, 0)))
        assert ring.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert ring.boundary_distance_many(np.array([[0.5, 0.5], [0.1, 0.5]])) \
            == pytest.approx([0.5, 0.1])


def _brute_force_balls(pts, sel, radius):
    """(rows, cols, dist) of every closed-ball pair |x - y| <= radius around
    pts[sel], row by row, from squared distances summed axis by axis."""
    sq = np.zeros((len(sel), len(pts)))
    for j in range(pts.shape[1]):
        sq += (pts[sel, j, None] - pts[None, :, j]) ** 2
    rows, cols = np.nonzero(sq <= radius * radius)
    return rows, cols, np.sqrt(sq[rows, cols])


def _joined(blocks):
    """The blocks of `_ball_pairs` as one (rows, cols, dist) list, rows
    counted from the first point of `sel`."""
    parts = [(rows + block.start, cols, dist)
             for block, rows, cols, dist in blocks]
    return tuple(np.concatenate(a) for a in zip(*parts))


class TestBallPairs:
    """The package's one neighbour list against a brute-force closed-ball
    search: the same pairs in the same order, and the same distances bit
    for bit."""

    CASES = [
        pytest.param(UNIT_DISK, 0.06, "quasi-random", 0.15, id="cloud-disk"),
        # 34 cells per side, the last one clipped to 0.01
        pytest.param(UNIT_SQUARE, 0.03, "tensor-midpoint", 0.1,
                     id="clipped-square"),
        # many lattice pairs lie at exactly rho
        pytest.param(UNIT_SQUARE, 0.1, "tensor-midpoint", 0.2,
                     id="square-ties"),
        pytest.param(UNIT_SQUARE, 0.1, "tensor-midpoint", math.inf,
                     id="infinite-radius"),
    ]

    @pytest.mark.parametrize("domain, h, scheme, radius", CASES)
    @pytest.mark.parametrize("step", [1, 3])
    def test_matches_brute_force(self, domain, h, scheme, radius, step):
        pts = sample_quadrature(domain, h, scheme).points
        sel = np.arange(0, len(pts), step)
        got = _joined(_ball_pairs(pts, sel, radius))
        want = _brute_force_balls(pts, sel, radius)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_float_rule_at_the_ties(self):
        """On the h = 0.1 square, 784 pairs (self pairs included) lie
        strictly inside rho = 0.2 and 320 at exactly two cells; the float
        rule keeps 280 of those."""
        grid = sample_quadrature(UNIT_SQUARE, 0.1)
        rows, cols, _ = _joined(_ball_pairs(grid.points,
                                            np.arange(len(grid)), 0.2))
        offsets = grid.lattice[cols] - grid.lattice[rows]
        sq = np.einsum("ij,ij->i", offsets, offsets)
        assert len(rows) == 1064
        assert np.count_nonzero(sq < 4) == 784
        assert np.count_nonzero(sq == 4) == 280

    @pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    def test_radius_at_the_diagonal(self, scale):
        """A radius just below the bounding box's diagonal takes the tree,
        at or above it every ball holds every point: the same pairs."""
        pts = sample_quadrature(UNIT_DISK, 0.2, "quasi-random").points
        span = pts.max(axis=0) - pts.min(axis=0)
        radius = math.sqrt(np.sum(span * span)) * scale
        sel = np.arange(len(pts))
        got = _joined(_ball_pairs(pts, sel, radius))
        want = _brute_force_balls(pts, sel, radius)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if scale >= 1.0:
            assert len(got[0]) == len(pts) ** 2

    @pytest.mark.parametrize("radius", [0.3, math.inf])
    def test_small_budget_splits_blocks_not_rows(self, monkeypatch, radius):
        pts = sample_quadrature(UNIT_DISK, 0.1, "quasi-random").points
        sel = np.arange(len(pts))
        whole = list(_ball_pairs(pts, sel, radius))
        assert len(whole) == 1
        counts = np.bincount(whole[0][1])
        budget = 2 * int(counts.max()) + 1
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", budget)
        blocks = list(_ball_pairs(pts, sel, radius))
        assert len(blocks) > 1
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == len(sel)
        for (block, rows, _, _), (after, _, _, _) in zip(blocks, blocks[1:]):
            assert block.stop == after.start
        for block, rows, _, _ in blocks:
            assert len(rows) <= budget
            # every row of the block holds all of its pairs
            assert np.array_equal(np.bincount(rows), counts[block])
        for a, b in zip(_joined(blocks), _joined(whole)):
            assert np.array_equal(a, b)


def _lattice_pairs(grid, radius):
    """(rows, cols) of the balls of `_lattice_balls`, row by row and, in a
    row, in the order of its moves."""
    box, moves = geometry._lattice_balls(grid, radius)
    index = np.full(box.size, -1)
    index[box.at] = np.arange(len(grid))
    parts = []
    for start, stop, shift, keep in moves:
        cells = np.arange(start, stop)
        rows, cols = index[cells], index[cells + shift]
        pair = (rows >= 0) & (cols >= 0)
        if keep is not None:
            pair &= keep
        parts.append(np.stack([rows[pair], cols[pair]]))
    rows, cols = np.concatenate(parts, axis=1)
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


UNIT_CUBE = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestLatticeBalls:
    """The offset pass's closed balls against the neighbour list: the same
    pairs, in the same order, on lattices where many pairs lie at exactly
    the radius.  Those ties are decided pair by pair on the coordinates,
    which round-off splits: the integer test alone would keep all of a
    ring or none of it."""

    CASES = [
        pytest.param(Interval(0.0, 1.0), 0.05, 3, id="interval-3h"),
        pytest.param(UNIT_SQUARE, 0.05, 3, id="square-3h"),
        # |(3, 4)| = |(0, 5)| = 5 cells
        pytest.param(UNIT_SQUARE, 0.05, 0.25, id="square-0.25"),
        pytest.param(UNIT_DISK, 0.05, 3, id="disk-3h"),
        pytest.param(UNIT_DISK, 0.05, 0.15, id="disk-0.15"),
        pytest.param(UNIT_DISK, 0.05, 0.25, id="disk-0.25"),
        pytest.param(UNIT_DISK, 0.05, 0.17, id="disk-no-tie"),
        pytest.param(L_SHAPE, 0.1, 3, id="L-shape-3h"),
        pytest.param(L_SHAPE, 0.1, 0.5, id="L-shape-0.5"),
        pytest.param(UNIT_CUBE, 0.1, 3, id="box-3d-3h"),
        pytest.param(UNIT_CUBE, 0.1, 0.5, id="box-3d-0.5"),
    ]

    @pytest.mark.parametrize("domain, h, radius", CASES)
    def test_pairs_are_the_neighbour_lists(self, domain, h, radius):
        """A radius given as an integer is that many cells, t = 3h."""
        grid = sample_quadrature(domain, h)
        if isinstance(radius, int):
            radius = radius * h
        want = _joined(_ball_pairs(grid.points, np.arange(len(grid)),
                                   radius))[:2]
        got = _lattice_pairs(grid, radius)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_round_off_splits_a_tie_ring(self):
        """On the h = 0.05 disk at t = 0.15 the 4,576 pairs three cells
        apart lie at exactly t, and the neighbour list keeps 1,832: every
        offset of that ring keeps some of its pairs and drops others."""
        grid = sample_quadrature(UNIT_DISK, 0.05)
        rows, cols = _lattice_pairs(grid, 0.15)
        offsets = grid.lattice[cols] - grid.lattice[rows]
        sq = np.einsum("ij,ij->i", offsets, offsets)
        assert np.count_nonzero(sq == 9) == 1832
        _, moves = geometry._lattice_balls(grid, 0.15)
        ties = [keep for *_, keep in moves if keep is not None]
        assert len(ties) == 4
        lattice = grid.lattice
        ring = (lattice[:, None, :] - lattice[None, :, :]) ** 2
        assert np.count_nonzero(ring.sum(axis=2) == 9) == 4576
        for keep in ties:
            assert keep.any() and not keep.all()

    @pytest.mark.parametrize("domain, h, whole", [
        (UNIT_DISK, 0.1, 5.0),
        (UNIT_CUBE, 0.1, 2.0),
    ], ids=["disk", "box-3d"])
    def test_only_whole_grid_balls_leave_the_offset_pass(self, domain, h,
                                                         whole):
        """From radius^2 at the squared diagonal of the points' bounding
        box up, every ball holds every point and `_ball_pairs` makes the
        balls without a tree; just below it the offset pass keeps the
        neighbour list's pairs, though the offsets outnumber the points."""
        grid = sample_quadrature(domain, h)
        span = np.ptp(grid.points, axis=0)
        diagonal = math.sqrt(np.sum(span * span))
        while diagonal * diagonal < np.sum(span * span):
            diagonal = math.nextafter(diagonal, math.inf)
        for radius in (diagonal, math.nextafter(diagonal, math.inf), whole):
            assert geometry._lattice_balls(grid, radius) is None
        below = math.nextafter(diagonal, 0.0)
        _, moves = geometry._lattice_balls(grid, below)
        assert len(moves) > len(grid)
        want = _joined(_ball_pairs(grid.points, np.arange(len(grid)),
                                   below))[:2]
        for a, b in zip(_lattice_pairs(grid, below), want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("domain, h, radius", [
        (Interval(0.0, 1.0), 0.05, 0.5),
        (UNIT_DISK, 0.1, 1.0),
    ], ids=["interval", "disk"])
    def test_more_offsets_than_points_take_the_offset_pass(self, domain, h,
                                                           radius):
        """A ball with more integer offsets than the grid has points, short
        of the whole grid, is summed by the pass like any other; the
        disk's ties at |o| = 10 cells are decided pair by pair."""
        grid = sample_quadrature(domain, h)
        offsets = _offset_cube(np.ptp(grid.lattice, axis=0))
        sq = np.einsum("ij,ij->i", offsets, offsets)
        assert np.count_nonzero(sq <= (radius / h) ** 2) > len(grid)
        assert geometry._lattice_balls(grid, radius) is not None
        want = _joined(_ball_pairs(grid.points, np.arange(len(grid)),
                                   radius))[:2]
        for a, b in zip(_lattice_pairs(grid, radius), want):
            assert np.array_equal(a, b)


# lattice grids for the box: 1-d, 2-d, a disk, an L and a 3-d box
BOX_GRIDS = [
    pytest.param(Interval(0.0, 1.0), 1.0 / 8, id="interval"),
    pytest.param(UNIT_SQUARE, 1.0 / 8, id="square"),
    pytest.param(UNIT_DISK, 0.25, id="disk"),
    pytest.param(L_SHAPE, 0.25, id="L-shape"),
    pytest.param(Box((0.0, 0.0, 0.0), (1.0, 1.0, 0.75)), 0.25, id="box-3d"),
]


def _offset_cube(reach):
    """Every integer offset o with |o_j| <= reach_j."""
    return np.stack([m.ravel() for m in np.meshgrid(
        *[np.arange(-r, r + 1) for r in reach], indexing="ij")], axis=-1)


def _neighbours(cells, offsets):
    """(N, O) index of the cell at x + o for each cell x and offset o, or
    -1 where x + o is no cell."""
    low, high = cells.min(axis=0) - offsets.max(axis=0), cells.max(axis=0)
    shape = tuple(high + offsets.max(axis=0) - low + 1)
    lookup = np.full(math.prod(shape), -1)
    lookup[np.ravel_multi_index(tuple((cells - low).T), shape)] = \
        np.arange(len(cells))
    moved = cells[:, None, :] + offsets[None, :, :] - low
    inside = np.all((moved >= 0) & (moved < shape), axis=2)
    found = np.full(inside.shape, -1)
    found[inside] = lookup[np.ravel_multi_index(tuple(moved[inside].T),
                                                shape)]
    return found


class TestLatticeBox:
    @pytest.mark.parametrize("domain, h", BOX_GRIDS)
    def test_stencil_spectra_sum_the_neighbours(self, rng, domain, h):
        """Random asymmetric weights on every offset within E - 1 cells:
        a row's spectrum times the conjugate stencil spectrum sums the row
        at x + o over the cells, and times the plain one at x - o.  On
        the interval and the square the box is 2 E - 1 = 15 cells per axis,
        with no slack."""
        grid = sample_quadrature(domain, h)
        cells, extent = _lattice_cells(grid.lattice)
        box = _LatticeBox(cells, extent, extent - 1)
        if domain.dimension <= 2 and h == 1.0 / 8:
            assert box.shape == (15,) * domain.dimension
        offsets = _offset_cube(box.extent - 1)
        weights = rng.random(len(offsets))
        row = rng.normal(size=len(grid))
        stencil = box.stencils(offsets, weights)
        spectrum = box.spectra(row)
        for sign, product in ((1, np.conjugate(stencil)), (-1, stencil)):
            found = _neighbours(box.cells, sign * offsets)
            direct = np.where(found >= 0, row[found], 0.0) @ weights
            got = box.at_cells(spectrum * product)
            assert got.shape == (len(grid),)
            assert np.abs(got - direct).max() \
                <= 1e-12 * np.abs(row).sum() * weights.max()

    @pytest.mark.parametrize("domain, h", BOX_GRIDS)
    @pytest.mark.parametrize("reach", [1, 2, 3])
    def test_flat_shifts_land_on_the_neighbour_or_padding(self, domain, h,
                                                          reach):
        """With padding on one side only, every flat shift within the
        reach lands on the neighbour x + o where it is a cell, and on a
        cell of weight 0 otherwise."""
        grid = sample_quadrature(domain, h)
        reach = np.minimum(reach, np.ptp(grid.lattice, axis=0))
        box = _LatticeBox(*_lattice_cells(grid.lattice), reach)
        offsets = _offset_cube(reach)
        landed = box.at[:, None] + box.shifts(offsets)[None, :]
        assert np.all((landed >= -box.size) & (landed < box.size))
        landed %= box.size
        found = _neighbours(box.cells, offsets)
        assert np.array_equal(landed[found >= 0], box.at[found[found >= 0]])
        assert not box.place(np.ones(len(grid)))[landed[found < 0]].any()
        assert (found < 0).any()

    @pytest.mark.parametrize("domain, h", BOX_GRIDS)
    @pytest.mark.parametrize("share", [1, 2], ids=["whole", "half"])
    def test_ball_spectra_count_the_integer_balls(self, domain, h, share):
        """Integer balls, cut at |o_j| <= reach_j where the reach falls
        short of the lattice."""
        grid = sample_quadrature(domain, h)
        cells, extent = _lattice_cells(grid.lattice)
        box = _LatticeBox(cells, extent, (extent - 1) // share)
        bounds = np.array([0.0, 1.0, 2.0, 5.0, 9.0, 50.0])
        o = grid.lattice[:, None, :] - grid.lattice[None, :, :]
        d2 = np.where(np.all(np.abs(o) <= box.reach, axis=2),
                      (o ** 2).sum(axis=2), np.inf)
        exact = np.stack([(d2 <= k).sum(axis=1) for k in bounds])
        ones = box.spectra(np.ones(len(grid)))
        counts = box.at_cells(box.ball_spectra(bounds) * ones)
        assert np.array_equal(np.rint(counts), exact)
        assert np.abs(counts - exact).max() <= 1e-12 * len(grid)

    def test_worth_prices_each_transform_at_b_log2_b(self):
        box = _LatticeBox(*_lattice_cells(np.arange(8)[:, None]),
                          np.array([8]))
        assert box.shape == (16,) and box.eps_log == np.finfo(float).eps * 4
        # 10 x 2 transforms x 16 log2 16 = 1,280 entries
        assert box.worth(1281, 2, 10.0) and not box.worth(1280, 2, 10.0)


EXTENT_GRIDS = [
    pytest.param(Interval(-1.0, 1.0), 0.01, id="interval"),
    pytest.param(UNIT_DISK, 0.0225, id="disk"),
    pytest.param(Box((0.0, 0.0, 0.0), (1.0, 0.5, 2.0)), 0.1, id="cube"),
]


@pytest.mark.parametrize("domain, h", EXTENT_GRIDS)
@pytest.mark.parametrize("scheme", geometry.SCHEMES)
def test_column_extents_match_the_axis_0_reductions(domain, h, scheme):
    """Column by column, the same bits and dtype as a.min(axis=0) and
    a.max(axis=0): on points, lattice indices and ball offsets, and on
    their Fortran-ordered copies."""
    grid = sample_quadrature(domain, h, scheme=scheme)
    arrays = [grid.points, -grid.points[::-1]]
    if grid.lattice is not None:
        extent = _lattice_cells(grid.lattice)[1]
        whole, _ = _ball_offsets(extent, np.inf)
        ball, _ = _ball_offsets(extent, 30.0)
        arrays += [grid.lattice, whole, ball]
    for a in arrays + [np.asfortranarray(a) for a in arrays]:
        lo, hi = _column_extents(a)
        for got, want in ((lo, a.min(axis=0)), (hi, a.max(axis=0))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_only_geometry_imports_scipy_fft():
    """The lattice box is the package's one user of `scipy.fft`."""
    package = Path(geometry.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.fft") for name in names):
                users.add(path.name)
    assert users == {"geometry.py"}
