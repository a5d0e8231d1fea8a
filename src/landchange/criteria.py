"""Criterion derivation: distances, fuzzy standardization, constraints.

Factors for multi-criteria evaluation are byte-scaled suitability grids
(integer values 0..255, stored as uint8); constraints are binary masks.
Standardization maps raw criterion values onto 0..255 through linear,
sigmoidal or j-shaped memberships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import BinaryMask, Grid, Raster, mask_like, whole_range

_SHAPES = ("linear", "sigmoidal", "j_shaped")
_DIRECTIONS = ("increasing", "decreasing", "symmetric")
_BYTE_RULE = "suitability values must be integers in 0..255"


@dataclass(frozen=True, eq=False, init=False)
class SuitabilityGrid(Grid):
    """Grid whose valid cells are whole numbers from 0 to 255, kept as
    bytes: `stored`, a read-only uint8 array holding 0 at nodata cells, and
    a mask of the valid cells, 2 bytes a cell in all. `values` builds a
    float64 copy on each read, nodata_value at nodata cells. Kernels read
    `stored` and `valid` and cast the bytes to a wider type before any
    arithmetic, since uint8 arithmetic wraps silently. `integer_range` is
    the dtype's (0, 255), found with no scan.

    `SuitabilityGrid(values, cell_size, ...)` takes float values, as a Grid
    does, and checks them once; a nodata value inside 0..255 keeps its
    cells nodata. `from_cells` takes a kernel's values at its valid cells."""

    def __init__(self, *args, **kwargs):
        g = Grid(*args, **kwargs)
        if not g.holds_integers(0, 255):
            raise DataError(_BYTE_RULE)
        valid = g.valid
        data = np.zeros(g.shape, dtype=np.uint8)
        np.copyto(data, g.values, casting="unsafe", where=valid)  # whole numbers in 0..255: exact
        self._keep(g, data, valid, g.nodata_value)

    @classmethod
    def from_cells(cls, geometry: Raster, sel: np.ndarray, values: np.ndarray) -> SuitabilityGrid:
        """values, one per cell that the boolean array sel selects, as a
        suitability on geometry's cell size and corner and on a Grid's
        default nodata, as `Raster.computed` makes a grid, nodata where sel
        is False. Keeps sel, read-only. Values that are not all whole
        numbers in 0..255 raise the constructor's DataError."""
        r = whole_range(values)
        if r is None or not (r[0] > r[1] or 0 <= r[0] and r[1] <= 255):
            raise DataError(_BYTE_RULE)
        data = np.zeros(geometry.shape, dtype=np.uint8)
        data[sel] = values
        out = object.__new__(cls)
        out._keep(geometry, data, sel, Grid.nodata_value)
        return out

    def _keep(self, geometry: Raster, data: np.ndarray, valid: np.ndarray, nodata_value: float) -> None:
        data.setflags(write=False)
        valid.setflags(write=False)
        for name, value in (
            ("_bytes", data),
            ("_valid", valid),
            ("cell_size", float(geometry.cell_size)),
            ("x_origin", float(geometry.x_origin)),
            ("y_origin", float(geometry.y_origin)),
            ("nodata_value", float(nodata_value)),
        ):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self._bytes.shape

    @property
    def stored(self) -> np.ndarray:
        """The read-only uint8 values, 0 at nodata cells."""
        return self._bytes

    @property
    def valid(self) -> np.ndarray:
        return self._valid.copy()

    @property
    def values(self) -> np.ndarray:
        """A new read-only float64 array of the values, nodata_value at
        nodata cells."""
        out = self.blank(self.nodata_value)
        np.copyto(out, self._bytes, where=self._valid)
        out.setflags(write=False)
        return out


def suitability_like(grid: Grid, values) -> SuitabilityGrid:
    """values, nodata cells included, as a suitability on grid's geometry
    and `Grid.scatter`'s nodata."""
    return grid.scatter(..., values, kind=SuitabilityGrid)


# ---------------------------------------------------------------------------
# exact Euclidean distance transform
#
# Two passes, the first down the columns and the second along the rows.
#
# Column pass: the squared distance from a cell to the nearest target in its
# column is the square of the smaller gap to the last target row at or above
# it and the first at or below it. Running extremes of the target row
# numbers give both gaps for every column at once (the first phase of
# Meijster, Roerdink & Hesselink, "A general algorithm for computing distance
# transforms in linear time", 2000).
#
# Row pass: the squared distance is the lower envelope of the parabolas
# (x - p)^2 + f[p] over the columns p (Felzenszwalb & Huttenlocher, "Distance
# Transforms of Sampled Functions", Theory of Computing 8, 2012). Only a
# column that holds a target has a finite f, and it has one on every row, so
# the envelope is built over those columns alone: one numpy step per target
# column for all rows at once, and only the rows whose envelope still has to
# pop take the inner masked loop. The index of the envelope's parabola at an
# integer q is the count of its breakpoints below q, and z < q exactly when
# floor(z) + 1 <= q, so one integer searchsorted answers every query.
#
# Every f is a small integer and every breakpoint a quotient of two small
# integers, so the result is exact.


def _column_pass(sel: np.ndarray) -> np.ndarray:
    """Squared distance down each column from every cell to the nearest
    selected cell in the same column; inf in a column with none."""
    row = np.arange(sel.shape[0], dtype=np.float64)[:, None]
    above = np.maximum.accumulate(np.where(sel, row, -math.inf), axis=0)
    below = np.minimum.accumulate(np.where(sel, row, math.inf)[::-1], axis=0)[::-1]
    return np.minimum(row - above, below - row) ** 2


def _row_envelope(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower envelope of the parabolas (x - p[j])^2 + f[i, j] on every line
    i of a 2-D array, for strictly increasing site positions p. Parabola
    v[i, j] (an index into p) is lowest on [z[i, j], z[i, j + 1]] for j up
    to k[i], with z[i, 0] = -inf and z[i, k[i] + 1] = inf. A parabola that
    ties at a breakpoint is dropped, so the breakpoints strictly increase."""
    n_lines, m = f.shape
    flat_f = f.ravel()
    line = np.arange(n_lines, dtype=np.int64)
    f_base = line * m  # flat offset of each line in f and v
    z_base = line * (m + 1)  # flat offset of each line in z
    v = np.zeros(n_lines * m, dtype=np.int64)  # parabola site indices
    z = np.empty(n_lines * (m + 1))  # envelope breakpoints
    z[z_base] = -math.inf
    z[z_base + 1] = math.inf
    k = np.zeros(n_lines, dtype=np.int64)  # index of each line's last parabola
    for j in range(1, m):
        q = p[j]
        fq = f[:, j] + q * q
        vk = v[f_base + k]
        pv = p[vk]
        s = (fq - (flat_f[f_base + vk] + pv * pv)) / (2 * q - 2 * pv)
        pop = np.flatnonzero(s <= z[z_base + k])
        while pop.size:  # only the lines whose last parabola is now hidden
            k[pop] -= 1
            vk = v[f_base[pop] + k[pop]]
            pv = p[vk]
            s[pop] = (fq[pop] - (flat_f[f_base[pop] + vk] + pv * pv)) / (2 * q - 2 * pv)
            pop = pop[s[pop] <= z[z_base[pop] + k[pop]]]
        k += 1
        v[f_base + k] = j
        z[z_base + k] = s
        z[z_base + k + 1] = math.inf
    return v.reshape(n_lines, m), z.reshape(n_lines, m + 1), k


def _lower_envelope(f: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """Exact 1-D squared distance transform along lines of n cells, all
    lines at once. f[i, j] is the squared seed distance at position p[j] of
    line i; p strictly increases and every f is finite."""
    n_lines, m = f.shape
    v, z, k = _row_envelope(f, p)
    # integer form of the breakpoints z[i, 1..k[i]]: at an integer q the
    # sequential query has passed exactly those with floor(z) + 1 <= q.
    # Unused slots read n, which no q reaches.
    zb = np.where(np.arange(m) < k[:, None], z[:, 1:], math.inf)
    first = np.clip(np.floor(zb) + 1, 0, n).astype(np.int64)
    # offsetting line i by i * (n + 1) keeps every line's values apart, so
    # one flat search answers every line
    line = np.arange(n_lines, dtype=np.int64)[:, None]
    q = np.arange(n, dtype=np.int64)
    at = np.searchsorted((first + line * (n + 1)).ravel(), (line * (n + 1) + q).ravel(), side="right")
    at = at.reshape(n_lines, n) - line * m
    site = np.take_along_axis(v, at, axis=1)
    return (q - p[site]) ** 2 + np.take_along_axis(f, site, axis=1)


def squared_distance_transform(targets: BinaryMask) -> np.ndarray:
    """Squared distance in cell units from every cell center to the nearest
    target cell center.

    The column pass squares the smaller gap to the running last target row
    from above and from below. The row pass builds the lower envelope of
    parabolas over the target columns only, since every other column is
    infinitely far on every row, and queries it for all cells in one integer
    searchsorted. Exact: every intermediate value is a small integer or a
    quotient of two small integers."""
    sel = targets.selected
    sites = np.flatnonzero(sel.any(axis=0))
    if not sites.size:
        raise DataError("distance transform needs at least one target cell")
    return _lower_envelope(_column_pass(sel[:, sites]), sites, sel.shape[1])


def distance_transform(targets: BinaryMask) -> Grid:
    """Euclidean distance to the nearest target cell, in the mask's map units."""
    return targets.scatter(..., np.sqrt(squared_distance_transform(targets)) * targets.cell_size)


# ---------------------------------------------------------------------------
# fuzzy standardization


@dataclass(frozen=True)
class FuzzySpec:
    """Membership shape with control points.

    increasing: 0 at/below a, 1 at/above b. decreasing mirrors it.
    symmetric uses four ordered points (rise a..b, flat b..c, fall c..d).
    The j-shaped curve reaches membership 0.5 at its near control point
    and approaches 0 asymptotically beyond it.
    """

    shape: str
    direction: str
    a: float
    b: float
    c: float | None = None
    d: float | None = None

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise DataError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if self.direction not in _DIRECTIONS:
            raise DataError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"control points must be finite, got a={a}, b={b}")
        if a >= b:
            raise DataError(f"control points must satisfy a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.direction == "symmetric":
            if self.c is None or self.d is None:
                raise DataError("symmetric direction needs all four control points a, b, c, d")
            c, d = float(self.c), float(self.d)
            if not (math.isfinite(c) and math.isfinite(d)):
                raise DataError(f"control points must be finite, got c={c}, d={d}")
            if not (b <= c < d):
                raise DataError(f"control points must satisfy b <= c < d, got b={b}, c={c}, d={d}")
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "d", d)


def _rise(v: np.ndarray, a: float, b: float, shape: str) -> np.ndarray:
    """Membership rising from 0 at a to 1 at b."""
    if shape == "linear":
        return np.clip((v - a) / (b - a), 0.0, 1.0)
    if shape == "sigmoidal":
        t = np.clip((v - a) / (b - a), 0.0, 1.0)
        return np.cos(0.5 * math.pi * (1.0 - t)) ** 2
    # j_shaped: 1 at/above b, rational falloff below; 0.5 exactly at a
    m = 1.0 / (1.0 + ((v - b) / (b - a)) ** 2)
    return np.where(v >= b, 1.0, m)


def _fall(v: np.ndarray, a: float, b: float, shape: str) -> np.ndarray:
    """Membership falling from 1 at a to 0 at b."""
    if shape == "linear":
        return np.clip((b - v) / (b - a), 0.0, 1.0)
    if shape == "sigmoidal":
        t = np.clip((v - a) / (b - a), 0.0, 1.0)
        return np.cos(0.5 * math.pi * t) ** 2
    m = 1.0 / (1.0 + ((v - a) / (b - a)) ** 2)
    return np.where(v <= a, 1.0, m)


def fuzzy_standardize(grid: Grid, spec: FuzzySpec) -> SuitabilityGrid:
    """Scale a raw criterion onto 0..255 through the given membership, as
    bytes.

    Output = round-half-away-from-zero(membership * 255). Nodata passes
    through on the standard sentinel.
    """
    valid = grid.valid
    v = grid.values[valid]
    if spec.direction == "increasing":
        m = _rise(v, spec.a, spec.b, spec.shape)
    elif spec.direction == "decreasing":
        m = _fall(v, spec.a, spec.b, spec.shape)
    else:
        rise = _rise(v, spec.a, spec.b, spec.shape)
        fall = _fall(v, spec.c, spec.d, spec.shape)
        m = np.where(v <= spec.b, rise, np.where(v >= spec.c, fall, 1.0))
        del rise, fall
    del v
    # m is a new array: round it in place, memberships are non-negative
    m *= 255.0
    m += 0.5
    np.floor(m, out=m)
    return SuitabilityGrid.from_cells(grid, valid, m)


# ---------------------------------------------------------------------------
# constraints


def make_constraint(
    grid: Grid,
    categories: set | list | None = None,
    threshold: float | None = None,
) -> BinaryMask:
    """Boolean constraint: 1 where the cell holds one of the categories, or
    where it is at least the threshold.

    Exactly one of categories/threshold must be given. Nodata cells fail
    the constraint (come out 0).
    """
    if (categories is None) == (threshold is None):
        raise DataError("give exactly one of categories or threshold")
    ok = grid.valid
    sel = np.zeros(grid.shape, dtype=bool)
    if categories is not None:
        cats = set(float(c) for c in categories)
        if not cats:
            raise DataError("empty category set")
        for c in cats:
            sel |= grid.values == c
    else:
        if not math.isfinite(threshold):
            raise DataError(f"constraint threshold must be finite, got {threshold}")
        sel = grid.values >= float(threshold)
    return mask_like(grid, (sel & ok).astype(np.float64))
