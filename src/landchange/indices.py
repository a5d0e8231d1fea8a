"""Spectral indices, vigour levels and multi-date change composites."""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .grid import Grid, LandCoverMap, joint_valid, write_csv


def normalized_difference(a: Grid, b: Grid) -> Grid:
    """(a - b) / (a + b) per cell. Zero denominator or missing input -> nodata."""
    ok = joint_valid(a, b, context="normalized_difference")
    num = a.values - b.values
    den = a.values + b.values
    ok &= den != 0.0
    return a.scatter(ok, num[ok] / den[ok])


def ndvi(nir: Grid, red: Grid) -> Grid:
    return normalized_difference(nir, red)


def ndii(nir: Grid, mir: Grid) -> Grid:
    return normalized_difference(nir, mir)


def ndim(ndvi_grid: Grid, ndii_grid: Grid, weight: float = 0.5) -> Grid:
    """Moisture-adjusted vegetation signal: weighted mean of the two indices.

    weight is the NDVI share; the default 0.5 is the plain average.
    """
    ok = joint_valid(ndvi_grid, ndii_grid, context="ndim")
    if not 0.0 <= weight <= 1.0:
        raise DataError(f"weight must be in [0, 1], got {weight}")
    blend = weight * ndvi_grid.values[ok] + (1.0 - weight) * ndii_grid.values[ok]
    return ndvi_grid.scatter(ok, blend)


def ternary_thresholds(grid: Grid) -> tuple[float, float]:
    """Per-date default cut points: the terciles of the valid cells."""
    vals = grid.values[grid.valid]
    if vals.size == 0:
        raise DataError("cannot take thresholds of an all-nodata grid")
    return float(np.quantile(vals, 1.0 / 3.0)), float(np.quantile(vals, 2.0 / 3.0))


def ternarize(grid: Grid, t_low: float, t_high: float) -> Grid:
    """Cut a continuous grid into vigour levels 0 (low), 1 (medium), 2 (high).

    v < t_low -> 0; t_low <= v < t_high -> 1; v >= t_high -> 2.
    """
    if not (math.isfinite(t_low) and math.isfinite(t_high)):
        raise DataError(f"thresholds must be finite, got {t_low} and {t_high}")
    if not t_low <= t_high:
        raise DataError(f"thresholds out of order: {t_low} > {t_high}")
    v = grid.values
    levels = np.where(v < t_low, 0.0, np.where(v < t_high, 1.0, 2.0))
    return grid.scatter(grid.valid, levels[grid.valid])


def change_composite(l1: Grid, l2: Grid, l3: Grid) -> Grid:
    """Combine three dated level grids into trajectory codes 0..26.

    code = 9*l1 + 3*l2 + l3, nodata wherever any date is missing.
    """
    ok = joint_valid(l1, l2, l3, context="change_composite")
    for g, name in ((l1, "date 1"), (l2, "date 2"), (l3, "date 3")):
        if not g.holds_integers(0, 2):
            raise DataError(f"{name} holds non-ternary values")
    codes = 9.0 * l1.values[ok] + 3.0 * l2.values[ok] + l3.values[ok]
    return l1.scatter(ok, codes)


# the ten dynamics categories the 27 trajectory codes collapse into
CATEGORY_NAMES = {
    0: "stable cleared/stressed",
    1: "stable medium vigour",
    2: "stable high vigour",
    3: "steady loss",
    4: "loss after t1",
    5: "loss after t2",
    6: "regrowth after t1",
    7: "regrowth after t2",
    8: "loss then regrowth",
    9: "regrowth then loss",
}


def _category(code: int) -> int:
    """The dynamics category of a trajectory code, levels a, b, c."""
    a, rest = divmod(code, 9)
    b, c = divmod(rest, 3)
    if a == b == c:
        return a  # 0 cleared, 1 medium, 2 high
    if a > b > c:
        return 3
    if a > b and b == c:
        return 4
    if a == b and b > c:
        return 5
    if a < b and b <= c:
        return 6  # strictly rising trajectories land here too
    if a == b and b < c:
        return 7
    if a > b and b < c:
        return 8
    return 9  # a < b > c


# CATEGORY_OF[code]: the category of each of the 27 trajectory codes
CATEGORY_OF = tuple(_category(code) for code in range(27))


def group_dynamics(codes: Grid) -> LandCoverMap:
    """Collapse trajectory codes into the dynamics categories of CATEGORY_OF."""
    if not codes.holds_integers(0, 26):
        raise DataError("codes grid holds values outside 0..26")
    ok = codes.valid
    lut = np.asarray(CATEGORY_OF, dtype=np.float64)
    return LandCoverMap(codes.scatter(ok, lut[codes.values[ok].astype(np.int64)]), dict(CATEGORY_NAMES))


def write_grouping_csv(path) -> None:
    """The code -> category table, one row per trajectory code."""
    rows = [[code, cat, CATEGORY_NAMES[cat]] for code, cat in enumerate(CATEGORY_OF)]
    write_csv(path, [["code", "category_id", "category_name"], *rows])
