import math

import numpy as np
import pytest

from bbmlab.field import (
    fd_gradient,
    indicator_halfspace,
    linear,
    load_field_csv,
    product_sine,
    quadratic,
    radial_bump,
    sample,
    zero_extension,
)
from bbmlab.geometry import Box, Disk, Interval, sample_quadrature
from bbmlab.spaces import Lebesgue, PowerWeight, WeightedLebesgue, norm


def test_linear_sampling(unit_square_grid):
    field = sample(linear((1.0, 0.0)), unit_square_grid)
    assert np.allclose(field.values, unit_square_grid.points[:, 0])
    assert np.allclose(field.gradient_values, [1.0, 0.0])


def test_indicator_values_in_01():
    grid = sample_quadrature(Interval(-1, 1), 0.05)
    field = sample(indicator_halfspace((1.0,), 0.0), grid)
    assert set(np.unique(field.values)) <= {0.0, 1.0}
    assert field.gradient_values is None


def test_quadratic_point_values():
    fn = quadratic(2)
    pt = np.array([[0.3, 0.4]])
    assert fn(pt)[0] == pytest.approx(0.25)
    assert np.allclose(fn.gradient(pt), [[0.6, 0.8]])


def test_radial_bump_support():
    fn = radial_bump((0.0, 0.0), 1.0)
    inside = fn(np.array([[0.0, 0.0]]))[0]
    outside = fn(np.array([[2.0, 0.0]]))[0]
    assert inside == pytest.approx(np.exp(-1.0))
    assert outside == 0.0
    assert np.allclose(fn.gradient(np.array([[0.0, 0.0]])), 0.0)


class TestFdGradient:
    def test_affine_exact(self, unit_square_grid):
        field = sample(linear((2.0, -1.0)), unit_square_grid)
        approx = fd_gradient(field, 1e-3)
        assert np.allclose(approx.gradient_values, [2.0, -1.0], atol=1e-12)

    def test_quadratic_second_order(self):
        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 0.1)
        field = sample(quadratic(2), grid)
        approx = fd_gradient(field, 1e-4)
        idx = np.argmin(
            np.linalg.norm(grid.points - np.array([0.35, 0.45]), axis=1)
        )
        exact = 2.0 * grid.points[idx]
        assert np.allclose(approx.gradient_values[idx], exact, atol=1e-7)

    def test_product_sine_critical_point(self):
        grid = sample_quadrature(Box((0.0, 0.0), (1.0, 1.0)), 1.0 / 3.0)
        field = sample(product_sine(2), grid)
        approx = fd_gradient(field, 1e-4)
        idx = np.argmin(
            np.linalg.norm(grid.points - np.array([0.5, 0.5]), axis=1)
        )
        assert np.allclose(approx.gradient_values[idx], 0.0, atol=1e-7)

    def test_invalid_step(self, unit_square_grid):
        field = sample(quadratic(2), unit_square_grid)
        with pytest.raises(ValueError):
            fd_gradient(field, 0.0)


class TestZeroExtension:
    def test_disk_indicator(self):
        disk = Disk((0.0, 0.0), 1.0)
        h = 0.25
        inner = sample_quadrature(disk, h)
        ones = sample(linear((0.0, 0.0)), inner)
        ones = type(ones)(inner, np.ones(len(inner)), None, None)
        outer = sample_quadrature(Box((-2.0, -2.0), (2.0, 2.0)), h)
        ext = zero_extension(ones, outer, disk)
        inside = disk.contains_many(outer.points)
        assert np.array_equal(ext.values[inside], np.ones(inside.sum()))
        assert np.all(ext.values[~inside] == 0.0)

    def test_zero_field(self):
        domain = Interval(0.0, 1.0)
        inner = sample_quadrature(domain, 0.125)
        zero = sample(linear((0.0,)), inner)
        outer = sample_quadrature(Box((-1.0,), (2.0,)), 0.125)
        ext = zero_extension(zero, outer, domain)
        assert np.all(ext.values == 0.0)

    def test_norm_identity_on_matching_grids(self, rng):
        domain = Interval(0.0, 1.0)
        inner = sample_quadrature(domain, 0.125)
        values = rng.normal(size=len(inner))
        field = sample(linear((0.0,)), inner)
        field = type(field)(inner, values, None, None)
        outer = sample_quadrature(Box((-1.0,), (2.0,)), 0.125)
        ext = zero_extension(field, outer, domain)
        for spec in (Lebesgue(2.0), WeightedLebesgue(2.0, PowerWeight(0.5))):
            assert norm(spec, ext) == pytest.approx(norm(spec, field),
                                                    abs=1e-10)


class TestDomainDimension:
    # a domain of another dimension than the grid would broadcast against
    # its points and handle the boundary of the wrong shape
    @pytest.mark.parametrize("grid_domain, domain", [
        (Interval(0.2, 0.8), Disk((0.0, 0.0), 0.3)),
        (Disk((0.0, 0.0), 0.5), Interval(-1.0, 1.0)),
    ])
    def test_fd_gradient(self, grid_domain, domain):
        grid = sample_quadrature(grid_domain, 0.05)
        field = sample(linear((1.0,) * grid.dimension), grid)
        with pytest.raises(ValueError, match=f"a {domain.dimension}-d domain "
                           f"does not match a {grid.dimension}-d grid"):
            fd_gradient(field, 0.01, domain)

    @pytest.mark.parametrize("grid_domain, domain, outer_box, bad", [
        (Interval(0.2, 0.8), Disk((0.0, 0.0), 0.3),
         Box((-1.0,), (1.0,)), 1),
        (Disk((0.0, 0.0), 0.5), Interval(-1.0, 1.0),
         Box((-1.0, -1.0), (1.0, 1.0)), 2),
        (Interval(0.2, 0.8), Interval(0.2, 0.8),
         Box((-1.0, -1.0), (1.0, 1.0)), 2),
    ])
    def test_zero_extension(self, grid_domain, domain, outer_box, bad):
        grid = sample_quadrature(grid_domain, 0.05)
        field = sample(linear((1.0,) * grid.dimension), grid)
        outer = sample_quadrature(outer_box, 0.05)
        with pytest.raises(ValueError, match=f"a {domain.dimension}-d domain "
                           f"does not match a {bad}-d grid"):
            zero_extension(field, outer, domain)


def test_sample_rejects_dimension_mismatch(unit_square_grid):
    with pytest.raises(ValueError):
        sample(linear((1.0,)), unit_square_grid)


def test_field_rejects_non_finite(unit_interval_grid):
    from bbmlab.field import SampledField
    bad = np.full(len(unit_interval_grid), np.nan)
    with pytest.raises(ValueError):
        SampledField(unit_interval_grid, bad)


def test_load_field_csv(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("0.25,0.5,1.0\n0.75,0.5,2.0\n")
    field = load_field_csv(path, dimension=1)
    assert np.allclose(field.grid.points.ravel(), [0.25, 0.75])
    assert np.allclose(field.grid.weights, [0.5, 0.5])
    assert np.allclose(field.values, [1.0, 2.0])


def test_load_field_csv_skips_blank_and_comment_rows(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("# x, weight, value\n0.25,0.5,1.0\n\n  # note\n"
                    "0.75,0.5,2.0\n")
    field = load_field_csv(path, dimension=1)
    assert np.array_equal(field.values, [1.0, 2.0])


@pytest.mark.parametrize("row, message", [
    ("0.75,0.5", "expected 3 finite numbers"),
    ("0.75,0.5,2.0,4.0", "expected 3 finite numbers"),
    ("0.75,half,2.0", "expected 3 finite numbers"),
    ("0.75,nan,2.0", "expected 3 finite numbers"),
])
def test_load_field_csv_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "field.csv"
    path.write_text(f"# x, weight, value\n0.25,0.5,1.0\n{row}\n")
    with pytest.raises(ValueError, match=message) as info:
        load_field_csv(path, dimension=1)
    assert str(info.value).startswith(f"{path}, line 3: ")


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_radial_bump_needs_positive_finite_radius(radius):
    with pytest.raises(ValueError, match="radius must be"):
        radial_bump((0.0,), radius)


@pytest.mark.parametrize("normal", [(0.0,), (0.0, 0.0)])
def test_indicator_halfspace_needs_nonzero_normal(normal):
    with pytest.raises(ValueError, match="nonzero normal"):
        indicator_halfspace(normal, 0.5)
