"""The whole-number rule of grids: `Grid.integer_range` against a per-cell
reference, and each check that reads it against the predicate it replaced.

The old predicates are kept below as the references: each site must accept
and refuse exactly the grids its own scan did."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landchange import allocate, grid as grid_module
from landchange.allocate import CaParams, ca_markov
from landchange.criteria import SuitabilityGrid
from landchange.errors import DataError
from landchange.grid import Grid, LandCoverMap, write_ascii_grid
from landchange.indices import change_composite, group_dynamics
from landchange.markov import TransitionMatrix

NODATA = -9999.0
# -0.0, the non-finite values, one huge whole number, one fraction, and the
# edges of every range a site asks for: 2/3, 26/27, 255/256, 65535/65536
CELLS = [0.0, -0.0, 1.0, 2.0, 3.0, 26.0, 27.0, 255.0, 256.0, 65535.0, 65536.0, -1.0, 2.5, 1e19,
         math.nan, math.inf, -math.inf]
RANGES = [(0, 2), (0, 26), (0, 255), (0, 65535), (1, 3)]


@st.composite
def _grids(draw):
    """Grids of CELLS on NODATA_VALUE -9999 or 0 with nodata holes, some
    with one value only and some with no valid cell."""
    nodata = draw(st.sampled_from([NODATA, 0.0]))
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    pool = draw(st.sampled_from([CELLS + [nodata], [nodata], [draw(st.sampled_from(CELLS)), nodata]]))
    vals = draw(arrays(np.float64, shape, elements=st.sampled_from(pool)))
    return Grid(vals, 1.0, nodata_value=nodata)


def _reference_range(g: Grid):
    cells = [v for v in g.values.ravel().tolist() if v != g.nodata_value]
    if not cells:
        return 0, -1
    if all(math.isfinite(v) and v == math.trunc(v) for v in cells):
        return int(min(cells)), int(max(cells))
    return None


@settings(max_examples=400, deadline=None)
@given(_grids())
@example(Grid([[NODATA, NODATA]], 1.0))  # all nodata
@example(Grid([[0.0, -0.0, 3.0]], 1.0, nodata_value=0.0))  # -0.0 is nodata 0 too
@example(Grid([[-0.0, 65535.0]], 1.0))
@example(Grid([[1e19, 2.0]], 1.0))
def test_integer_range_matches_per_cell_reference(g):
    want = _reference_range(g)
    assert g.integer_range == want
    assert want is None or all(type(v) is int for v in want)
    for lo, hi in RANGES:
        cells = [v for v in g.values.ravel().tolist() if v != g.nodata_value]
        ok = all(math.isfinite(v) and v == math.trunc(v) and lo <= v <= hi for v in cells)
        assert g.holds_integers(lo, hi) == ok, (lo, hi)
    # found once: a second read neither scans the values nor finds the valid cells
    with mock.patch.object(Grid, "valid", new_callable=mock.PropertyMock, side_effect=AssertionError):
        assert g.integer_range == want


# ---------------------------------------------------------------------------
# the predicates each site used before the rule, on (values, valid)


def _old_land_cover_map(values, valid, top):
    data = values[valid]  # LandCoverMap, on a legend of 0..top
    return not data.size or bool(np.all(data == np.floor(data)) and data.min() >= 0 and data.max() <= top)


def _old_suitability(values, valid):
    vals = values[valid]  # SuitabilityGrid
    return not (vals.size and (not np.all(vals == np.floor(vals)) or vals.min() < 0 or vals.max() > 255))


def _old_as_bytes(values, valid):
    values = values[valid]  # allocate._as_bytes on the map's valid cells
    return not (values.size and not (values.min() >= 0 and values.max() <= 255 and np.array_equal(np.floor(values), values)))


def _old_writer_table(values, valid):
    top = values.max(where=valid, initial=0)  # write_ascii_grid's table path
    return bool(values.min(where=valid, initial=0) >= 0 and top <= 65535 and np.all(np.trunc(values) == values, where=valid))


def _old_check_levels(values, valid):
    vals = values[valid]  # indices._check_levels
    return not (vals.size and not np.all((vals == 0.0) | (vals == 1.0) | (vals == 2.0)))


def _old_group_dynamics(values, valid):
    data = values[valid]  # indices.group_dynamics
    return not (data.size and (not np.all(data == np.floor(data)) or data.min() < 0 or data.max() > 26))


def _accepts(build) -> bool:
    try:
        build()
    except DataError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(_grids(), st.sampled_from([0, 2, 26, 255]))
def test_land_cover_map_accepts_what_it_did(g, top):
    legend = {c: f"c{c}" for c in range(top + 1)}
    assert _accepts(lambda: LandCoverMap(g, legend)) == _old_land_cover_map(g.values, g.valid, top)


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_suitability_grid_accepts_what_it_did(g):
    build = lambda: SuitabilityGrid(g.values, 1.0, nodata_value=g.nodata_value)  # noqa: E731
    assert _accepts(build) == _old_suitability(g.values, g.valid)


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_ca_markov_takes_the_byte_key_when_it_did(g):
    # the map holds data exactly where the suitability does, so the old check
    # on the map's cells and the rule on the suitability's see the same values
    valid = g.valid
    if not valid.any():
        return  # nothing to allocate, so no key is made
    current = LandCoverMap(g.scatter(valid, 0.0), {0: "a", 1: "b"})
    tm = TransitionMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0, (0, 1))  # every cell moves to class 1
    suits = {0: g, 1: g.scatter(valid, 7.0)}
    with mock.patch.object(allocate, "_weighted_key", wraps=allocate._weighted_key) as key:
        ca_markov(current, tm, suits, CaParams(iterations=1, kernel_size=3))
    tables = {call.args[3] is not None for call in key.call_args_list}
    assert tables == {_old_as_bytes(g.values, valid)}


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_writer_takes_the_table_path_when_it_did(g):
    with tempfile.TemporaryDirectory() as d, mock.patch.object(
        grid_module, "_format_values", wraps=grid_module._format_values
    ) as fmt:
        write_ascii_grid(g, Path(d) / "g.asc")
    # the header is always formatted; the body only off the table path
    assert (fmt.call_count == 1) == _old_writer_table(g.values, g.valid)


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_change_composite_accepts_the_levels_it_did(g):
    zeros = g.scatter(..., 0.0)
    assert _accepts(lambda: change_composite(g, zeros, zeros)) == _old_check_levels(g.values, g.valid)


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_group_dynamics_accepts_the_codes_it_did(g):
    assert _accepts(lambda: group_dynamics(g)) == _old_group_dynamics(g.values, g.valid)
