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
#
# Felzenszwalb & Huttenlocher, "Distance Transforms of Sampled Functions"
# (Theory of Computing 8, 2012): the 1-D squared transform is the lower
# envelope of the parabolas (x - p)^2 + f[p]. The envelope is built and
# queried on every scan line of a 2-D array at once: each step in q is one
# numpy operation over all lines, and only the lines whose envelope still
# has to pop (or, when querying, advance) take the inner masked loop. The
# arithmetic per line is the sequential algorithm's, so results are exact.


_FAR = 1e18  # finite stand-in for "no site on this scan line"; resolved by the second pass


def _envelope(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower envelope of the parabolas (x - p)^2 + f[i, p] on every line i
    of a 2-D array. Parabola v[i, j] is lowest on [z[i, j], z[i, j + 1]]
    for j up to k[i], with z[i, 0] = -inf and z[i, k[i] + 1] = inf. A
    parabola that ties at a breakpoint is dropped, so the breakpoints
    strictly increase."""
    n_lines, n = f.shape
    flat_f = f.ravel()
    line = np.arange(n_lines, dtype=np.int64)
    f_base = line * n  # flat offset of each line in f and v
    z_base = line * (n + 1)  # flat offset of each line in z
    v = np.zeros(n_lines * n, dtype=np.int64)  # parabola sites
    z = np.empty(n_lines * (n + 1))  # envelope breakpoints
    z[z_base] = -math.inf
    z[z_base + 1] = math.inf
    k = np.zeros(n_lines, dtype=np.int64)  # index of each line's last parabola
    for q in range(1, n):
        fq = f[:, q] + q * q
        vk = v[f_base + k]
        s = (fq - (flat_f[f_base + vk] + vk * vk)) / (2 * q - 2 * vk)
        pop = np.flatnonzero(s <= z[z_base + k])
        while pop.size:  # only the lines whose last parabola is now hidden
            k[pop] -= 1
            vk = v[f_base[pop] + k[pop]]
            s[pop] = (fq[pop] - (flat_f[f_base[pop] + vk] + vk * vk)) / (2 * q - 2 * vk)
            pop = pop[s[pop] <= z[z_base[pop] + k[pop]]]
        k += 1
        v[f_base + k] = q
        z[z_base + k] = s
        z[z_base + k + 1] = math.inf
    return v.reshape(n_lines, n), z.reshape(n_lines, n + 1), k


def _lower_envelope(f: np.ndarray) -> np.ndarray:
    """Exact 1-D squared distance transform along the last axis of a 2-D
    array, all lines at once. f holds squared seed distances, _FAR where
    no seed."""
    f = np.ascontiguousarray(f, dtype=np.float64)
    n_lines, n = f.shape
    v, z, _ = _envelope(f)
    v, z, flat_f = v.ravel(), z.ravel(), f.ravel()
    line = np.arange(n_lines, dtype=np.int64)
    f_base = line * n
    z_base = line * (n + 1)
    k = np.zeros(n_lines, dtype=np.int64)
    d = np.empty_like(f)
    for q in range(n):
        ahead = np.flatnonzero(z[z_base + k + 1] < q)
        while ahead.size:  # only the lines whose parabola ends before q
            k[ahead] += 1
            ahead = ahead[z[z_base[ahead] + k[ahead] + 1] < q]
        vk = v[f_base + k]
        d[:, q] = (q - vk) ** 2 + flat_f[f_base + vk]
    return d


def squared_distance_transform(targets: BinaryMask) -> np.ndarray:
    """Squared distance in cell units from every cell center to the nearest
    target cell center: one envelope pass down all columns, then one along
    all rows. Exact: all intermediate values are small integers."""
    if not targets.selected.any():
        raise DataError("distance transform needs at least one target cell")
    f = np.where(targets.selected, 0.0, _FAR)
    return _lower_envelope(_lower_envelope(f.T).T)


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
