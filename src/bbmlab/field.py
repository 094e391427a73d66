"""Sampled scalar fields, the analytic test-function catalog, and zero extension."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Domain, QuadratureGrid, _column_extents

__all__ = [
    "TestFunction",
    "SampledField",
    "linear",
    "quadratic",
    "product_sine",
    "indicator_halfspace",
    "radial_bump",
    "sample",
    "fd_gradient",
    "zero_extension",
    "gradient_magnitude_field",
    "load_field_csv",
    "read_csv_table",
]


@dataclass(frozen=True)
class TestFunction:
    """Closed-form catalog function with an optional analytic gradient.

    All catalog members except the halfspace indicator restrict smooth
    functions on the whole space, so they are legitimate smooth test
    functions on any of the domain shapes.
    """

    kind: str
    dimension: int
    params: tuple = ()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "linear":
            v = np.asarray(self.params, dtype=float)
            return pts @ v
        if self.kind == "quadratic":
            return np.einsum("ij,ij->i", pts, pts)
        if self.kind == "product-sine":
            return np.prod(np.sin(math.pi * pts), axis=1)
        if self.kind == "indicator-halfspace":
            normal = np.asarray(self.params[0], dtype=float)
            offset = float(self.params[1])
            return (pts @ normal - offset > 0).astype(float)
        if self.kind == "radial-bump":
            center = np.asarray(self.params[0], dtype=float)
            radius = float(self.params[1])
            t = np.einsum("ij,ij->i", pts - center, pts - center) / radius**2
            out = np.zeros(pts.shape[0])
            inside = t < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
            return out
        raise ValueError(f"unknown test function {self.kind!r}")

    @property
    def has_gradient(self) -> bool:
        return self.kind != "indicator-halfspace"

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "linear":
            v = np.asarray(self.params, dtype=float)
            return np.broadcast_to(v, pts.shape).copy()
        if self.kind == "quadratic":
            return 2.0 * pts
        if self.kind == "product-sine":
            sin = np.sin(math.pi * pts)
            cos = np.cos(math.pi * pts)
            grad = np.empty_like(pts)
            for j in range(pts.shape[1]):
                others = np.prod(np.delete(sin, j, axis=1), axis=1)
                grad[:, j] = math.pi * cos[:, j] * others
            return grad
        if self.kind == "radial-bump":
            center = np.asarray(self.params[0], dtype=float)
            radius = float(self.params[1])
            d = pts - center
            t = np.einsum("ij,ij->i", d, d) / radius**2
            grad = np.zeros_like(pts)
            inside = t < 1.0
            f = np.exp(-1.0 / (1.0 - t[inside]))
            grad[inside] = (
                -f[:, None] * 2.0 * d[inside] / radius**2
                / (1.0 - t[inside])[:, None] ** 2
            )
            return grad
        raise ValueError(f"{self.kind} has no analytic gradient")


def linear(v) -> TestFunction:
    v = tuple(float(c) for c in np.atleast_1d(v))
    return TestFunction("linear", len(v), v)


def quadratic(dimension: int) -> TestFunction:
    return TestFunction("quadratic", dimension)


def product_sine(dimension: int) -> TestFunction:
    return TestFunction("product-sine", dimension)


def indicator_halfspace(normal, offset: float = 0.0) -> TestFunction:
    normal = tuple(float(c) for c in np.atleast_1d(normal))
    if not any(normal):
        raise ValueError("indicator-halfspace needs a nonzero normal")
    return TestFunction("indicator-halfspace", len(normal), (normal, float(offset)))


def radial_bump(center, radius: float = 1.0) -> TestFunction:
    center = tuple(float(c) for c in np.atleast_1d(center))
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radial-bump radius must be a finite number > 0, "
                         f"got {radius!r}")
    return TestFunction("radial-bump", len(center), (center, radius))


@dataclass(frozen=True, eq=False)
class SampledField:
    """Function values (and optionally gradients) on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray
    gradient_values: Optional[np.ndarray] = None
    fn: Optional[TestFunction] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.grid),):
            raise ValueError("values length must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.gradient_values is not None:
            g = np.asarray(self.gradient_values, dtype=float)
            if g.shape != (len(self.grid), self.grid.dimension):
                raise ValueError("gradient_values shape must match the grid")
            if not np.all(np.isfinite(g)):
                raise ValueError("gradient values must be finite")
            g.setflags(write=False)
            object.__setattr__(self, "gradient_values", g)


def sample(fn: TestFunction, grid: QuadratureGrid) -> SampledField:
    """Evaluate a catalog function (and its gradient, when defined) on a grid."""
    if fn.dimension != grid.dimension:
        raise ValueError("function dimension does not match the grid")
    values = fn(grid.points)
    grads = fn.gradient(grid.points) if fn.has_gradient else None
    return SampledField(grid, values, grads, fn)


def _field_domain(field: SampledField, domain: Optional[Domain], use: str,
                  *grids: QuadratureGrid) -> Domain:
    """`domain`, else the field grid's own; its dimension must match the
    field's grid and each of `grids`."""
    domain = field.grid.domain if domain is None else domain
    if domain is None:
        raise ValueError(f"no domain available for {use}")
    for grid in (field.grid, *grids):
        if grid.dimension != domain.dimension:
            raise ValueError(f"a {domain.dimension}-d domain does not match "
                             f"a {grid.dimension}-d grid")
    return domain


def fd_gradient(field: SampledField, step: float,
                domain: Optional[Domain] = None) -> SampledField:
    """Finite-difference gradients for a field sampled from a catalog function.

    Central differences where the boundary is further than `step`; one-sided
    differences toward the interior otherwise, keeping the field shape intact.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if field.fn is None:
        raise ValueError("fd_gradient needs a field sampled from a catalog function")
    domain = _field_domain(field, domain, "boundary handling")
    fn = field.fn
    pts = field.grid.points
    n = pts.shape[1]
    bdist = domain.boundary_distance_many(pts)
    central = bdist > step
    grads = np.empty_like(pts)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        fwd_ok = domain.contains_many(pts + e)
        grads[:, j] = np.where(
            fwd_ok,
            (fn(pts + e) - fn(pts)) / step,
            (fn(pts) - fn(pts - e)) / step,
        )
        if np.any(central):
            grads[central, j] = (
                fn(pts[central] + e) - fn(pts[central] - e)
            ) / (2.0 * step)
    return SampledField(field.grid, field.values, grads, fn)


def zero_extension(field: SampledField, outer_grid: QuadratureGrid,
                   domain: Optional[Domain] = None) -> SampledField:
    """Extend a field by zero onto a grid over a box containing the domain.

    Outer points inside the domain copy the nearest inner sample (within
    half a cell); everything else is zero, mirroring the zero-extension
    that realises the restrictive norm.
    """
    domain = _field_domain(field, domain, "the membership test", outer_grid)
    lo_o, hi_o = _column_extents(outer_grid.points)
    lo_d, hi_d = _column_extents(field.grid.points)
    if np.any(lo_o > lo_d) or np.any(hi_o < hi_d):
        raise ValueError("outer grid does not cover the field's bounding box")
    values = np.zeros(len(outer_grid))
    inside = domain.contains_many(outer_grid.points)
    if np.any(inside):
        tree = cKDTree(field.grid.points)
        dist, idx = tree.query(outer_grid.points[inside])
        hit = dist <= field.grid.h / 2.0
        sel = np.where(inside)[0][hit]
        values[sel] = field.values[idx[hit]]
    return SampledField(outer_grid, values)


def gradient_magnitude_field(field: SampledField) -> SampledField:
    """Field of |grad f| values on the same grid."""
    if field.gradient_values is None:
        raise ValueError("field has no gradient values")
    mags = np.linalg.norm(field.gradient_values, axis=1)
    return SampledField(field.grid, mags)


def read_csv_table(path, columns: int, layout: str) -> np.ndarray:
    """The numeric rows of a CSV file as a (rows, columns) float array.

    Blank rows and rows starting with '#' are skipped.  A row that is not
    `columns` finite numbers raises a ValueError naming the file and line;
    `layout` names the columns.
    """
    rows = []
    # fspath refuses an integer, which open() would take as a descriptor
    with open(os.fspath(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                nums = [float(cell) for cell in row]
            except ValueError:
                nums = [math.nan]
            if len(nums) != columns or not all(map(math.isfinite, nums)):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{columns} finite numbers ({layout}), "
                                 f"got {row!r}")
            rows.append(nums)
    return np.array(rows, dtype=float).reshape(-1, columns)


def load_field_csv(path, dimension: int) -> SampledField:
    """Read a user field from CSV columns x1..xn, weight, value."""
    table = read_csv_table(path, dimension + 2, "x1..xn, weight, value")
    pts = table[:, :dimension]
    if len(pts) < 2:
        h = 1.0
    else:
        tree = cKDTree(pts)
        dist, _ = tree.query(pts, k=2)
        h = float(np.median(dist[:, 1]))
    grid = QuadratureGrid(pts, table[:, dimension], h)
    return SampledField(grid, table[:, dimension + 1])
