"""Normalized-difference indices, vigour levels, change trajectory coding."""

import csv

import numpy as np
import pytest

from landchange.errors import DataError, GeometryError
from landchange.grid import Grid, export_ppm
from landchange.indices import (
    CATEGORY_NAMES,
    CATEGORY_OF,
    change_composite,
    group_dynamics,
    ndim,
    ndii,
    ndvi,
    normalized_difference,
    ternarize,
    ternary_thresholds,
    write_grouping_csv,
)


def g(vals, nodata=-9999.0):
    return Grid(np.asarray(vals, dtype=np.float64), 1.0, nodata_value=nodata)


def test_normalized_difference_values():
    a = g([[3.0, 1.0, 5.0, -9999.0]])
    b = g([[1.0, 1.0, -5.0, 2.0]])
    out = normalized_difference(a, b)
    # (3-1)/(3+1) = 0.5; equal inputs give 0; zero denominator and missing
    # input both drop out
    assert out.values[0, 0] == 0.5
    assert out.values[0, 1] == 0.0
    assert out.values[0, 2] == -9999.0
    assert out.values[0, 3] == -9999.0
    with pytest.raises(GeometryError):
        normalized_difference(a, g([[1.0]]))


def test_ndvi_ndii_are_band_orderings():
    nir, red, mir = g([[4.0]]), g([[1.0]]), g([[2.0]])
    assert ndvi(nir, red).values[0, 0] == pytest.approx(3.0 / 5.0)
    assert ndii(nir, mir).values[0, 0] == pytest.approx(2.0 / 6.0)


def test_ndim_blends():
    v = g([[0.8, -9999.0]])
    i = g([[0.2, 0.5]])
    assert ndim(v, i).values[0, 0] == pytest.approx(0.5)
    assert ndim(v, i, weight=1.0).values[0, 0] == 0.8
    assert ndim(v, i, weight=0.0).values[0, 0] == pytest.approx(0.2)
    assert ndim(v, i).values[0, 1] == -9999.0
    with pytest.raises(DataError):
        ndim(v, i, weight=1.5)


def test_ternary_thresholds_are_quantiles():
    vals = np.arange(10, dtype=np.float64).reshape(2, 5)
    grid = g(vals)
    lo, hi = ternary_thresholds(grid)
    assert lo == float(np.quantile(vals, 1.0 / 3.0))
    assert hi == float(np.quantile(vals, 2.0 / 3.0))
    with pytest.raises(DataError):
        ternary_thresholds(g([[-9999.0]]))


def test_ternarize_boundaries():
    grid = g([[0.0, 1.0, 1.5, 2.0, 3.0, -9999.0]])
    out = ternarize(grid, 1.0, 2.0)
    # strictly below the low cut -> 0, at it -> 1, at the high cut -> 2
    assert out.values.tolist() == [[0.0, 1.0, 1.0, 2.0, 2.0, -9999.0]]
    with pytest.raises(DataError, match="out of order"):
        ternarize(grid, 2.0, 1.0)
    for lo, hi in ((0.1, float("nan")), (float("nan"), float("nan")), (float("-inf"), 1.0)):
        with pytest.raises(DataError, match="thresholds must be finite"):
            ternarize(grid, lo, hi)


def test_levels_and_categories_take_the_standard_nodata():
    # on the input's own nodata value, level 0 and category 2 would read as nodata
    levels = ternarize(g([[-0.5, 0.05, 0.5, 0.0]], nodata=0.0), -0.1, 0.1)
    assert levels.nodata_value == -9999.0
    assert levels.values.tolist() == [[0.0, 1.0, 2.0, -9999.0]]
    lc = group_dynamics(g([[0.0, 26.0, 2.0]], nodata=2.0))
    assert lc.grid.nodata_value == -9999.0
    assert lc.labels.tolist() == [[0, 2, -1]]


def test_change_composite_codes():
    l1 = g([[0.0, 1.0, 2.0]])
    l2 = g([[0.0, 2.0, 2.0]])
    l3 = g([[0.0, 1.0, 2.0]])
    out = change_composite(l1, l2, l3)
    assert out.values.tolist() == [[0.0, 16.0, 26.0]]  # 9a + 3b + c


def test_change_composite_nodata_and_level_check():
    l = g([[1.0, -9999.0]])
    out = change_composite(l, l, l)
    assert out.values.tolist() == [[13.0, -9999.0]]
    with pytest.raises(DataError, match="non-ternary"):
        change_composite(g([[3.0]]), g([[0.0]]), g([[0.0]]))


def test_export_ppm_draws_change_levels(tmp_path):
    l = g([[0.0, 2.0]])
    p = tmp_path / "c.ppm"
    export_ppm(l, l, l, ((0, 2),) * 3, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n2 1\n255\n")
    # levels 0/2 stretch over (0, 2) to intensities 0/255 in every channel
    assert list(raw[len(b"P6\n2 1\n255\n") :]) == [0, 0, 0, 255, 255, 255]


def test_default_grouping_pins_and_coverage():
    assert len(CATEGORY_OF) == 27
    assert CATEGORY_OF[0] == 0  # flat at level 0
    assert CATEGORY_OF[26] == 2  # flat at level 2
    assert CATEGORY_OF[13] == 1  # flat at level 1 (code 9+3+1)
    assert CATEGORY_OF[21] == 3  # 2,1,0 strictly down
    assert CATEGORY_OF[9 * 2 + 3 * 0 + 0] == 4  # 2,0,0 drop then flat
    assert CATEGORY_OF[9 * 2 + 3 * 2 + 0] == 5  # 2,2,0 flat then drop
    assert CATEGORY_OF[9 * 0 + 3 * 2 + 2] == 6  # 0,2,2 rise then flat
    assert CATEGORY_OF[9 * 0 + 3 * 0 + 2] == 7  # 0,0,2 flat then rise
    assert CATEGORY_OF[9 * 2 + 3 * 0 + 2] == 8  # 2,0,2 down then up
    assert CATEGORY_OF[9 * 0 + 3 * 2 + 0] == 9  # 0,2,0 up then down
    assert sorted(set(CATEGORY_OF)) == sorted(CATEGORY_NAMES) == list(range(10))


def test_group_dynamics():
    codes = g([[0.0, 26.0, -9999.0]])
    lc = group_dynamics(codes)
    assert lc.grid.values.tolist() == [[0.0, 2.0, -9999.0]]
    with pytest.raises(DataError, match="0..26"):
        group_dynamics(g([[27.0]]))
    with pytest.raises(DataError, match="0..26"):
        group_dynamics(g([[1.5]]))


def test_grouping_csv_roundtrip(tmp_path):
    p = tmp_path / "grp.csv"
    write_grouping_csv(p)
    with open(p, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["code", "category_id", "category_name"]
    assert len(rows) == 28
    for code, row in enumerate(rows[1:]):
        cat = CATEGORY_OF[code]
        assert row == [str(code), str(cat), CATEGORY_NAMES[cat]]
