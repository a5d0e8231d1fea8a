"""Criterion derivation: distances, fuzzy standardization, constraints.

Factors for multi-criteria evaluation are byte-scaled suitability grids
(integer values 0..255); constraints are binary masks. Standardization
maps raw criterion values onto 0..255 through linear, sigmoidal or
j-shaped memberships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import DEFAULT_NODATA, BinaryMask, Grid, mask_like

_SHAPES = ("linear", "sigmoidal", "j_shaped")
_DIRECTIONS = ("increasing", "decreasing", "symmetric")


@dataclass(frozen=True, eq=False)
class SuitabilityGrid(Grid):
    """Grid whose valid cells are integers in 0..255."""

    def __post_init__(self):
        super().__post_init__()
        vals = self.values[self.valid]
        if vals.size:
            if not np.all(vals == np.floor(vals)) or vals.min() < 0 or vals.max() > 255:
                raise DataError("suitability values must be integers in 0..255")


def suitability_like(grid: Grid, values) -> SuitabilityGrid:
    return SuitabilityGrid(values, grid.cell_size, grid.x_origin, grid.y_origin, DEFAULT_NODATA)


# ---------------------------------------------------------------------------
# exact Euclidean distance transform


_FAR = 1e18  # finite stand-in for "no site on this scan line"; resolved by the second pass


def _edt_1d(f: np.ndarray) -> np.ndarray:
    """Exact 1-D squared distance transform by the lower-envelope-of-parabolas
    method. f holds squared seed distances, _FAR where no seed."""
    n = f.size
    d = np.empty(n)
    v = np.zeros(n, dtype=np.int64)  # parabola sites
    z = np.empty(n + 1)  # envelope breakpoints
    k = 0
    z[0] = -math.inf
    z[1] = math.inf
    for q in range(1, n):
        s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        while s <= z[k]:
            k -= 1
            s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = math.inf
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        d[q] = (q - v[k]) ** 2 + f[v[k]]
    return d


def squared_distance_transform(targets: BinaryMask) -> np.ndarray:
    """Squared distance in cell units from every cell center to the nearest
    target cell center. Exact: all intermediate values are small integers."""
    if not targets.selected.any():
        raise DataError("distance transform needs at least one target cell")
    n_rows, n_cols = targets.shape
    f = np.where(targets.selected, 0.0, _FAR)
    for c in range(n_cols):
        f[:, c] = _edt_1d(f[:, c])
    for r in range(n_rows):
        f[r, :] = _edt_1d(f[r, :])
    return f


def distance_transform(targets: BinaryMask, cell_size: float | None = None) -> Grid:
    """Euclidean distance to the nearest target cell, in map units."""
    cs = targets.cell_size if cell_size is None else float(cell_size)
    if cs <= 0:
        raise DataError(f"cell_size must be positive, got {cs}")
    d = np.sqrt(squared_distance_transform(targets)) * cs
    return Grid(d, targets.cell_size, targets.x_origin, targets.y_origin, DEFAULT_NODATA)


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
        if a >= b:
            raise DataError(f"control points must satisfy a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.direction == "symmetric":
            if self.c is None or self.d is None:
                raise DataError("symmetric direction needs all four control points a, b, c, d")
            c, d = float(self.c), float(self.d)
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
    """Scale a raw criterion onto 0..255 through the given membership.

    Output = round-half-away-from-zero(membership * 255). Nodata passes
    through on the standard sentinel.
    """
    v = grid.values
    if spec.direction == "increasing":
        m = _rise(v, spec.a, spec.b, spec.shape)
    elif spec.direction == "decreasing":
        m = _fall(v, spec.a, spec.b, spec.shape)
    else:
        rise = _rise(v, spec.a, spec.b, spec.shape)
        fall = _fall(v, spec.c, spec.d, spec.shape)
        m = np.where(v <= spec.b, rise, np.where(v >= spec.c, fall, 1.0))
    out = np.floor(m * 255.0 + 0.5)  # memberships are non-negative
    out[~grid.valid] = DEFAULT_NODATA
    return suitability_like(grid, out)


# ---------------------------------------------------------------------------
# constraints


_OPS = {
    ">=": np.greater_equal,
    ">": np.greater,
    "<=": np.less_equal,
    "<": np.less,
    "==": np.equal,
}


def make_constraint(
    grid: Grid,
    categories: set | list | None = None,
    threshold: float | None = None,
    op: str = ">=",
) -> BinaryMask:
    """Boolean constraint from a category set or a threshold predicate.

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
        if op not in _OPS:
            raise DataError(f"op must be one of {sorted(_OPS)}, got {op!r}")
        sel = _OPS[op](grid.values, float(threshold))
    return mask_like(grid, (sel & ok).astype(np.float64))
