"""Grid types, text-grid I/O, PPM export, legends."""

import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landchange.classify import confusion
from landchange.errors import DataError, GeometryError, GridFormatError, LandchangeError
from landchange.grid import (
    BinaryMask,
    Grid,
    LandCoverMap,
    MultiBandImage,
    class_index,
    export_ppm,
    grids_equal,
    joint_valid,
    load_legend,
    neighbor_counts,
    parse_number,
    read_ascii_grid,
    read_csv_rows,
    read_legend,
    read_text,
    require_classes_cover,
    require_same_classes,
    require_same_geometry,
    write_ascii_grid,
    write_legend,
)
from landchange.markov import crosstab


def test_grid_rejects_bad_shapes_and_cell_size():
    with pytest.raises(DataError):
        Grid(np.zeros(4), 1.0)  # 1-D
    with pytest.raises(DataError):
        Grid(np.zeros((0, 3)), 1.0)
    with pytest.raises(DataError):
        Grid(np.zeros((2, 2)), 0.0)
    with pytest.raises(DataError):
        Grid(np.zeros((2, 2)), -5.0)


def test_grid_values_are_read_only():
    g = Grid(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_valid_mask_and_with_values():
    g = Grid(np.array([[1.0, -9999.0], [3.0, 4.0]]), 30.0)
    assert g.valid.tolist() == [[True, False], [True, True]]
    h = g.with_values(np.ones((2, 2)))
    assert h.cell_size == 30.0 and h.nodata_value == g.nodata_value
    # the values change, the nodata value stays the grid's own
    h2 = Grid(g.values, 30.0, nodata_value=-1.0).with_values(np.ones((2, 2)))
    assert h2.nodata_value == -1.0


def test_geometry_comparisons():
    a = Grid(np.zeros((2, 3)), 1.0)
    b = Grid(np.zeros((2, 3)), 1.0)
    c = Grid(np.zeros((2, 3)), 2.0)
    assert a.same_geometry(b)
    assert not a.same_geometry(c)
    require_same_geometry(("a", a), ("b", b))
    with pytest.raises(GeometryError) as exc:
        require_same_geometry(("a", a), ("b", b), ("c", c))
    assert str(exc.value) == (
        "c geometry (2, 3)/2.0 at lower-left corner (0.0, 0.0) does not match "
        "a geometry (2, 3)/1.0 at lower-left corner (0.0, 0.0)"
    )


def test_the_two_class_set_rules_share_one_wording():
    # equal sets in any order pass both; a set may cover more only under the second
    require_same_classes(("a", [0, 1]), ("b", (1, 0)), ("c", {0, 1}))
    require_classes_cover(("a", [0, 1]), ("b", [2, 1, 0]))
    require_classes_cover(("a", {1, 0}), ("b", (0, 1)))
    for rule, named, message in [
        (require_same_classes, [("a", [0, 1]), ("b", [1, 0]), ("c", [0, 1, 2])], "c classes [0, 1, 2] do not match a classes [0, 1]"),
        (require_same_classes, [("a", [0, 1]), ("b", [0])], "b classes [0] do not match a classes [0, 1]"),
        (require_classes_cover, [("a", {1, 0}), ("c", [2, 0])], "c classes [0, 2] do not match a classes [0, 1]"),
    ]:
        with pytest.raises(DataError) as exc:
            rule(*named)
        assert type(exc.value) is DataError and str(exc.value) == message


def test_joint_valid_checks_geometry_then_ands_the_valid_masks():
    a = Grid(np.array([[1.0, -9999.0], [3.0, 4.0]]), 30.0, 100.0, 200.0)
    b = Grid(np.array([[1.0, 2.0], [-1.0, 4.0]]), 30.0, 100.0, 200.0, nodata_value=-1.0)
    assert joint_valid(a, b, context="t").tolist() == [[True, False], [False, True]]
    assert joint_valid(a, context="t").tolist() == a.valid.tolist()
    shifted = Grid(a.values, 30.0, 5100.0, 200.0)
    # shape and cell size agree, so only the corner tells the two apart
    message = (
        "t: grid 2 geometry (2, 2)/30.0 at lower-left corner (5100.0, 200.0) does not match "
        "grid 0 geometry (2, 2)/30.0 at lower-left corner (100.0, 200.0)"
    )
    with pytest.raises(GeometryError) as exc:
        joint_valid(a, b, shifted, context="t")
    assert str(exc.value) == message
    with pytest.raises(GeometryError, match="t: grid 1 geometry"):
        joint_valid(a, Grid(np.zeros((1, 2)), 30.0, 100.0, 200.0), context="t")


def test_scatter_fills_the_rest_with_nodata():
    # DEFAULT_NODATA, not the grid's own -5: a scattered -5 stays data
    g = Grid(np.zeros((2, 2)), 30.0, 100.0, 200.0, nodata_value=-5.0)
    sel = np.array([[True, False], [False, True]])
    out = g.scatter(sel, [-5.0, 8.0])
    assert out.values.tolist() == [[-5.0, -9999.0], [-9999.0, 8.0]]
    assert out.nodata_value == -9999.0 and out.same_geometry(g)
    assert out.valid.tolist() == sel.tolist()


def test_blank_and_computed_put_a_kernel_grid_on_default_nodata():
    g = Grid(np.zeros((2, 3)), 30.0, 100.0, 200.0, nodata_value=0.0)
    out = g.blank()
    assert out.shape == (2, 3) and out.dtype == np.float64 and np.all(out == -9999.0)
    out[0, 1] = 0.0  # an input's nodata value, data in a computed grid
    made = g.computed(out)
    assert type(made) is Grid and made.nodata_value == -9999.0 and made.same_geometry(g)
    assert made.valid.tolist() == [[False, True, False], [False, False, False]]
    mask = g.computed(np.zeros((2, 3)), BinaryMask)
    assert type(mask) is BinaryMask and mask.nodata_value == -9999.0 and mask.valid.all()
    scores = g.computed(g.blank(-1e300), nodata_value=-1e300)
    assert type(scores) is Grid and scores.nodata_value == -1e300 and not scores.valid.any()


def test_grids_equal_checks_values_and_metadata():
    a = Grid(np.array([[1.0, 2.0]]), 1.0)
    assert grids_equal(a, Grid(np.array([[1.0, 2.0]]), 1.0))
    assert not grids_equal(a, Grid(np.array([[1.0, 3.0]]), 1.0))
    assert not grids_equal(a, Grid(np.array([[1.0, 2.0]]), 1.0, nodata_value=-1.0))


def test_binary_mask_accepts_only_zero_one():
    BinaryMask(np.array([[0.0, 1.0]]), 1.0)
    with pytest.raises(DataError):
        BinaryMask(np.array([[0.5, 1.0]]), 1.0)


def test_multiband_image_validation():
    g = Grid(np.zeros((2, 2)), 1.0)
    img = MultiBandImage((g, g), ("a", "b"))
    assert img.n_bands == 2
    assert img.geometry is g
    with pytest.raises(DataError):
        MultiBandImage((g, g), ("a", "a"))
    with pytest.raises(DataError):
        MultiBandImage((), ())
    with pytest.raises(GeometryError, match=r"^band 'b' geometry \(3, 3\)/1\.0 .* does not match band 'a' geometry \(2, 2\)/1\.0 "):
        MultiBandImage((g, Grid(np.zeros((3, 3)), 1.0)), ("a", "b"))


def test_land_cover_map_validation_and_labels():
    g = Grid(np.array([[0.0, 1.0], [-9999.0, 1.0]]), 1.0)
    lc = LandCoverMap(g, {0: "zero", 1: "one"})
    assert lc.class_ids == [0, 1]
    assert lc.labels.tolist() == [[0, 1], [-1, 1]]
    assert lc.class_counts() == {0: 1, 1: 2}
    with pytest.raises(DataError):
        LandCoverMap(g, {0: "zero"})  # value 1 missing from legend
    with pytest.raises(DataError):
        LandCoverMap(Grid(np.array([[0.5]]), 1.0), {0: "zero"})
    with pytest.raises(DataError):
        LandCoverMap(g, {-1: "neg", 0: "zero", 1: "one"})
    gapped = LandCoverMap(Grid(np.array([[7.0, 3.0], [-9999.0, 7.0]]), 1.0), {0: "a", 3: "b", 7: "c"})
    assert gapped.class_counts() == {0: 0, 3: 1, 7: 2}
    assert LandCoverMap(Grid(np.array([[-9999.0]]), 1.0), {}).class_counts() == {}


def test_land_cover_map_names_stray_values_and_ids_exactly():
    cases = [
        ([[0.0, 1e19]], "map values [10000000000000000000] missing from legend [0, 1]"),
        ([[0.0, 2.5, math.nan, -math.inf, -3.0, 1.0]], "map values [-inf, -3, 2.5, nan] missing from legend [0, 1]"),
    ]
    for vals, message in cases:
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            LandCoverMap(Grid(vals, 1.0), {0: "a", 1: "b"})
    for bad in (65536, 2**40, 2**63, 10**19, -1, 0.5, math.nan, math.inf):
        with pytest.raises(DataError, match=re.escape(f"class ids must be integers from 0 to 65535, got {bad!r}")):
            LandCoverMap(Grid([[0.0]], 1.0), {0: "a", bad: "b"})
    widest = LandCoverMap(Grid([[0.0, -9999.0]], 1.0), {0: "a", 65535: "b"})
    assert widest.labels.dtype == np.int32 and widest.class_counts() == {0: 1, 65535: 0}


def test_class_index_gives_each_id_its_place_in_the_order_given():
    assert class_index([7, 0, 3]).tolist() == [1, -1, -1, 2, -1, -1, -1, 0]
    assert class_index((65535,))[-1] == 0 and class_index((65535,)).size == 65536
    assert class_index([]).size == 0
    for bad in (65536, 2**40, -1, 0.5, math.nan, -math.inf):
        with pytest.raises(DataError, match="^" + re.escape(f"class ids must be integers from 0 to 65535, got {bad!r}") + "$"):
            class_index([0, bad])
    with pytest.raises(DataError, match="^duplicate class ids: 3 is listed twice$"):
        class_index([3, 1, 3])


def test_id_tables_stay_small_at_the_largest_id():
    # a class map, its crosstab and its confusion matrix hold tables as long
    # as the largest id; 65535 bounds them at 65,536 entries
    tracemalloc.start()
    try:
        lc = LandCoverMap(Grid([[0.0, 65535.0]], 1.0), {0: "a", 65535: "b"})
        counts, ids = crosstab(lc, lc)
        cm = confusion(lc, lc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids == [0, 65535] and counts.tolist() == cm.counts.tolist() == [[1, 0], [0, 1]]
    assert peak < 2 * 2**20, peak


@st.composite
def _class_maps(draw):
    """Class grids with nodata over a gapped legend that may hold classes
    absent from the map, one-cell grids included, and now and then a value
    the legend lacks (negative, gapped or above every id)."""
    shape = draw(st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 9), st.integers(1, 9))))
    legend_ids = draw(st.lists(st.integers(0, 300), min_size=1, max_size=5, unique=True))
    nodata = draw(st.sampled_from([-9999.0, -1.0, 0.0, 255.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [c for c in legend_ids if c != nodata] or [max(legend_ids) + 1]
    present = rng.choice(pool, size=rng.integers(1, len(pool) + 1), replace=False)
    vals = rng.choice(present, size=shape).astype(np.float64)
    vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = nodata
    stray = draw(st.sampled_from([None, None, None, -3.0, 301.0, 1000.0]))
    if stray is not None and stray != nodata:
        vals.flat[rng.integers(vals.size)] = stray
    return Grid(vals, 1.0, nodata_value=nodata), {c: f"c{c}" for c in legend_ids}


@settings(max_examples=300, deadline=None)
@given(_class_maps())
def test_land_cover_labels_and_counts_match_the_float_values(case):
    grid, legend = case
    valid = grid.values != grid.nodata_value
    data = grid.values[valid]
    unknown = set(np.unique(data).astype(np.int64).tolist()) - set(legend)
    if unknown:
        with pytest.raises(DataError, match="^" + re.escape(f"map values {sorted(unknown)} missing from legend")):
            LandCoverMap(grid, legend)
        return
    lc = LandCoverMap(grid, legend)
    want = np.where(valid, grid.values, -1.0)
    assert lc.labels.dtype == (np.int8 if max(legend) <= 127 else np.int16)  # the narrowest that holds every id
    assert np.array_equal(lc.labels, want) and lc.labels.shape == grid.shape
    assert np.array_equal(lc.labels >= 0, grid.valid)
    assert lc.class_counts() == {c: int(np.count_nonzero(data == float(c))) for c in sorted(legend)}


def test_land_cover_labels_are_read_only_and_counts_are_copies():
    lc = LandCoverMap(Grid(np.array([[0.0, 2.0], [-9999.0, 2.0]]), 1.0), {0: "a", 1: "b", 2: "c"})
    with pytest.raises(ValueError, match="read-only"):
        lc.labels[0, 0] = 1
    counts = lc.class_counts()
    counts[0] = 99
    counts.pop(2)
    assert lc.class_counts() == {0: 1, 1: 0, 2: 2}
    assert lc.labels.tolist() == [[0, 2], [-1, 2]]
    for top, dtype in ((127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32), (65535, np.int32)):
        wide = LandCoverMap(Grid(np.array([[0.0, -9999.0]]), 1.0), {0: "a", top: "b"})
        assert wide.labels.dtype == dtype and wide.labels.tolist() == [[0, -1]]
        assert wide.class_counts() == {0: 1, top: 0}


_masks = st.one_of(
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
).flatmap(lambda shape: arrays(np.bool_, shape))


@settings(max_examples=300, deadline=None)
@given(_masks, st.one_of(st.sampled_from([1, 2]), st.integers(3, 12)))
@example(np.ones((3, 4), dtype=bool), 3)  # the window spans the whole grid
@example(np.ones((3, 4), dtype=bool), 4)  # radius equal to the longer side
@example(np.ones((1, 1), dtype=bool), 1)
def test_neighbor_counts_matches_brute_force(mask, radius):
    n_rows, n_cols = mask.shape
    want = np.zeros(mask.shape)
    for r in range(n_rows):
        for c in range(n_cols):
            for rr in range(max(0, r - radius), min(n_rows, r + radius + 1)):
                for cc in range(max(0, c - radius), min(n_cols, c + radius + 1)):
                    if (rr, cc) != (r, c):
                        want[r, c] += mask[rr, cc]
    assert np.array_equal(neighbor_counts(mask, radius), want)
    assert neighbor_counts(mask, radius).dtype == np.int32  # a mask is counted in integers
    assert np.array_equal(neighbor_counts(mask.astype(np.float64), radius), want)


# ---------------------------------------------------------------------------
# text grid I/O


def _write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


GOOD = """NCOLS 3
NROWS 2
XLLCORNER 10.5
YLLCORNER -4
CELLSIZE 30
NODATA_VALUE -9999
1 2 3
4 -9999 6
"""


def test_read_basic_grid(tmp_path):
    g = read_ascii_grid(_write(tmp_path / "a.asc", GOOD))
    assert g.shape == (2, 3)
    assert g.values[0].tolist() == [1.0, 2.0, 3.0]  # first data line is row 0 (north)
    assert g.x_origin == 10.5 and g.y_origin == -4.0
    assert g.cell_size == 30.0 and g.nodata_value == -9999.0
    assert not g.valid[1, 1]


def test_header_case_and_order_do_not_matter(tmp_path):
    text = "nodata_value -1\nCellSize 2\nnRows 1\nNCOLS 2\nxllcorner 0\nYLLCORNER 0\n7 8\n"
    g = read_ascii_grid(_write(tmp_path / "b.asc", text))
    assert g.nodata_value == -1.0 and g.cell_size == 2.0
    assert g.values.tolist() == [[7.0, 8.0]]


def test_read_errors_carry_line_numbers(tmp_path):
    bad_count = GOOD.replace("4 -9999 6", "4 -9999")
    with pytest.raises(GridFormatError, match=r":8:.*value count"):
        read_ascii_grid(_write(tmp_path / "c.asc", bad_count))

    bad_token = GOOD.replace("4 -9999 6", "4 x 6")
    with pytest.raises(GridFormatError, match=r":8:.*'x'"):
        read_ascii_grid(_write(tmp_path / "d.asc", bad_token))

    with pytest.raises(GridFormatError, match="missing header"):
        read_ascii_grid(_write(tmp_path / "e.asc", "NCOLS 1\nNROWS 1\n5\n"))

    dup = "NCOLS 1\nNCOLS 1\n" + GOOD.split("\n", 1)[1]
    with pytest.raises(GridFormatError, match="duplicate header"):
        read_ascii_grid(_write(tmp_path / "f.asc", dup))

    extra = GOOD + "9 9 9\n"
    with pytest.raises(GridFormatError, match="extra data"):
        read_ascii_grid(_write(tmp_path / "g.asc", extra))

    short = GOOD.rsplit("4 -9999 6\n", 1)[0]
    with pytest.raises(GridFormatError, match="expected 2 data rows, found 1"):
        read_ascii_grid(_write(tmp_path / "h.asc", short))

    frac = GOOD.replace("NROWS 2", "NROWS 2.5")
    with pytest.raises(GridFormatError, match="NROWS"):
        read_ascii_grid(_write(tmp_path / "i.asc", frac))


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((5, 4)) * 1e6
    vals[0, 0] = -9999.0
    vals[2, 1] = 0.1 + 0.2  # not exactly 0.3
    g = Grid(vals, 0.125, x_origin=1 / 3, y_origin=-7.25)
    p = tmp_path / "r.asc"
    write_ascii_grid(g, p)
    back = read_ascii_grid(p)
    assert grids_equal(g, back)
    # writing the reread grid reproduces the file byte for byte
    p2 = tmp_path / "r2.asc"
    write_ascii_grid(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_integers_are_written_compactly(tmp_path):
    g = Grid(np.array([[5.0, -3.0]]), 1.0)
    p = tmp_path / "int.asc"
    write_ascii_grid(g, p)
    assert p.read_text().splitlines()[-1] == "5 -3"
    assert grids_equal(g, read_ascii_grid(p))


def test_one_by_one_and_all_nodata_roundtrip(tmp_path):
    tiny = Grid(np.array([[42.0]]), 1.0)
    p = tmp_path / "tiny.asc"
    write_ascii_grid(tiny, p)
    assert grids_equal(tiny, read_ascii_grid(p))

    nd = Grid(np.full((3, 3), -9999.0), 1.0)
    q = tmp_path / "nd.asc"
    write_ascii_grid(nd, q)
    back = read_ascii_grid(q)
    assert grids_equal(nd, back)
    assert not back.valid.any()


NODATA = -9999.0
# either side of the integer cut-off, signed zero, non-finite, nodata, the
# smallest subnormal, and integers past 2**53 that int64 holds exactly
SPECIALS = [
    -0.0, 0.0, np.nan, np.inf, -np.inf, 9999999999999998.0, 1e16, -1e16, NODATA, 0.1 + 0.2,
    5e-324, 2.0**60, -9007199254740992.0,
]


def _format_value(v: float) -> str:
    """The writer's text for one value, one value at a time: the compact
    digit form for moderate integers, exact repr otherwise."""
    v = float(v)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _cells(allow_nonfinite):
    specials = [v for v in SPECIALS if allow_nonfinite or np.isfinite(v)]
    return st.one_of(
        st.sampled_from(specials),
        st.integers(-(10**6), 10**6).map(float),
        st.floats(allow_nan=allow_nonfinite, allow_infinity=allow_nonfinite),
    )


def _grids(allow_nonfinite):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return shapes.flatmap(lambda sh: arrays(np.float64, sh, elements=_cells(allow_nonfinite)))


def _integer_grids():
    # the writer's table path: integers from 0 up to 65535 with nodata
    # holes and -0.0; and the values just outside it: 65536, -1 and 2.5
    cells = st.one_of(
        st.integers(0, 9).map(float), st.sampled_from([-0.0, NODATA, 65535.0, 65536.0, -1.0, 2.5])
    )
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return shapes.flatmap(lambda sh: arrays(np.float64, sh, elements=cells))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_grids(allow_nonfinite=True), _integer_grids()), st.sampled_from([NODATA, 0.0]))
@example(np.resize(np.array(SPECIALS), (64, 3)), NODATA)  # one whole block of rows
@example(np.resize(np.array(SPECIALS), (130, 2)), NODATA)  # two whole blocks and a part
@example(np.resize(np.array([0.0, 2.0, NODATA, -0.0, 1.0]), (70, 3)), NODATA)  # a class map
@example(np.array([[65535.0, 0.0], [NODATA, -0.0]]), NODATA)  # the table's last entry
@example(np.array([[65536.0, 1.0], [NODATA, -0.0]]), NODATA)  # one past it
@example(np.array([[0.0, 3.0], [-0.0, 1.0]]), 0.0)  # 0 is nodata
@example(np.full((2, 3), NODATA), NODATA)  # all nodata
@example(np.full((2, 3), 0.0), 0.0)
def test_writer_matches_per_cell_reference(vals, nodata):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "g.asc"
        write_ascii_grid(Grid(vals, 1.0, nodata_value=nodata), p)
        lines = p.read_text(encoding="ascii").split("\n")
    assert lines[5] == {NODATA: "NODATA_VALUE -9999", 0.0: "NODATA_VALUE 0"}[nodata]
    assert lines[-1] == ""
    assert lines[6:-1] == [" ".join(_format_value(v) for v in row) for row in vals]


@settings(max_examples=200, deadline=None)
@given(_grids(allow_nonfinite=False))
def test_finite_roundtrip_is_bit_exact(vals):
    g = Grid(vals, 0.5, x_origin=1 / 3, y_origin=-2.0, nodata_value=NODATA)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "g.asc"
        write_ascii_grid(g, p)
        back = read_ascii_grid(p)
    assert grids_equal(g, back)
    assert np.array_equal(back.valid, vals != NODATA)
    # -0.0 is written as "0"; every other value keeps its exact bits
    assert np.array_equal(back.values.view(np.int64), (vals + 0.0).view(np.int64))


def test_read_rejects_non_finite_values(tmp_path):
    nan_nodata = GOOD.replace("NODATA_VALUE -9999", "NODATA_VALUE nan")
    with pytest.raises(GridFormatError, match=r"a\.asc:6:.*non-finite header value 'nan'"):
        read_ascii_grid(_write(tmp_path / "a.asc", nan_nodata))
    for token in ("inf", "-inf", "nan", "Infinity"):
        bad = GOOD.replace("4 -9999 6", f"4 {token} 6")
        with pytest.raises(GridFormatError, match=rf"b\.asc:8: non-finite value '{token}'"):
            read_ascii_grid(_write(tmp_path / "b.asc", bad))


def test_read_rejects_digit_group_underscores(tmp_path):
    # float() reads "1_0" as 10
    bad = GOOD.replace("4 -9999 6", "4 1_0 6")
    with pytest.raises(GridFormatError, match=r"a\.asc:8: '_' in value '1_0'"):
        read_ascii_grid(_write(tmp_path / "a.asc", bad))
    bad = GOOD.replace("CELLSIZE 30", "CELLSIZE 3_0")
    with pytest.raises(GridFormatError, match=r"b\.asc:5: '_' in header value '3_0' for CELLSIZE"):
        read_ascii_grid(_write(tmp_path / "b.asc", bad))
    bad = GOOD.replace("NODATA_VALUE -9999", "NODATA_VALUE -9_999")
    with pytest.raises(GridFormatError, match=r"c\.asc:6: '_' in header value '-9_999'"):
        read_ascii_grid(_write(tmp_path / "c.asc", bad))


@pytest.mark.parametrize(
    "token, kind, expected",
    [
        ("0", int, 0),
        ("-3", int, -3),
        (" +7\n", int, 7),
        ("1_0", int, "'_' in value '1_0'"),
        ("_1", int, "'_' in value '_1'"),
        ("1.5", int, "non-integer value '1.5'"),
        ("0x10", int, "non-integer value '0x10'"),
        ("", int, "non-integer value ''"),
        ("1.5", float, 1.5),
        ("-0.0", float, -0.0),
        ("1e3", float, 1000.0),
        (" 2 ", float, 2.0),
        ("1e400", float, float("inf")),
        ("-Infinity", float, float("-inf")),
        ("nan", float, float("nan")),
        ("0_0.9", float, "'_' in value '0_0.9'"),
        ("1e1_0", float, "'_' in value '1e1_0'"),
        ("1/3", float, "non-numeric value '1/3'"),
        ("x", float, "non-numeric value 'x'"),
        ("", float, "non-numeric value ''"),
    ],
)
def test_parse_number_table(token, kind, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            parse_number(token, kind)
        assert str(exc.value) == expected
    else:
        got = parse_number(token, kind)
        assert type(got) is kind
        assert np.array(got).tobytes() == np.array(expected).tobytes()  # sign of zero and nan too


def test_parse_number_names_what_it_read():
    with pytest.raises(ValueError, match=r"^'_' in header value '3_0'$"):
        parse_number("3_0", float, "header value")
    with pytest.raises(ValueError, match=r"^non-numeric token 'x'$"):
        parse_number("x", float, "token")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789_+-.eExabnfiINF \t", max_size=8), st.sampled_from([int, float]))
def test_parse_number_is_int_or_float_without_digit_groups(token, kind):
    try:
        want = kind(token)
    except ValueError:
        want = None
    try:
        got = parse_number(token, kind)
    except ValueError:
        assert want is None or "_" in token
        return
    assert "_" not in token
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_read_errors_name_unreadable_files(tmp_path):
    missing = tmp_path / "nope.asc"
    with pytest.raises(GridFormatError, match=r"nope\.asc: cannot read grid"):
        read_ascii_grid(missing)
    latin = tmp_path / "latin.asc"
    latin.write_bytes(GOOD.encode("ascii").replace(b"-4", b"-4\xe9"))
    with pytest.raises(GridFormatError, match=r"latin\.asc: byte 0xe9 at offset \d+ is not ASCII"):
        read_ascii_grid(latin)


def test_reader_lets_no_warning_out_on_a_body_with_no_data_row(tmp_path):
    # np.loadtxt warns "input contained no data" on such a body
    header = GOOD.split("1 2 3")[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, text in (("head.asc", header), ("blank.asc", header + "\n  \n\t\r\n\x1f\n")):
            with pytest.raises(GridFormatError, match=rf"{name[:-4]}\.asc: expected 2 data rows, found 0$"):
                read_ascii_grid(_write(tmp_path / name, text))


_REFERENCE_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _reference_read_ascii_grid(path) -> Grid:
    """The grid reader as it was before its body went to np.loadtxt: one
    np.array call per line. The differential oracle's reference."""
    path = str(path)
    lines = read_text(path, "grid", encoding="ascii", error=GridFormatError).splitlines()

    header: dict[str, float] = {}
    lineno = 0
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0].lower() not in _REFERENCE_HEADER_KEYS:
            break
        lineno += 1
        key = parts[0].lower()
        if key in header:
            raise GridFormatError(f"{path}:{lineno}: duplicate header key {parts[0]}")
        if len(parts) != 2:
            raise GridFormatError(f"{path}:{lineno}: header line needs exactly one value, got {raw!r}")
        try:
            header[key] = parse_number(parts[1], float, "header value")
        except ValueError as e:
            raise GridFormatError(f"{path}:{lineno}: {e} for {parts[0]}") from None
        if not math.isfinite(header[key]):
            raise GridFormatError(
                f"{path}:{lineno}: non-finite header value {parts[1]!r} for {parts[0]}"
            )

    missing = [k.upper() for k in _REFERENCE_HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"{path}: missing header key(s): {', '.join(missing)}")

    for key in ("ncols", "nrows"):
        if header[key] != int(header[key]) or header[key] < 1:
            raise GridFormatError(f"{path}: {key.upper()} must be a positive integer, got {header[key]}")
    if header["cellsize"] <= 0:
        raise GridFormatError(f"{path}: CELLSIZE must be positive, got {header['cellsize']}")
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])

    rows = []
    data_lines = 0
    for i, raw in enumerate(lines[lineno:], start=lineno + 1):
        tokens = raw.split()
        if not tokens:
            continue  # tolerate blank lines after the data block
        if "_" in raw:  # parse_number's rule, one search per line, not per token
            bad = next(t for t in tokens if "_" in t)
            raise GridFormatError(f"{path}:{i}: '_' in value {bad!r}")
        data_lines += 1
        if data_lines > n_rows:
            raise GridFormatError(f"{path}:{i}: expected {n_rows} data rows, found extra data")
        if len(tokens) != n_cols:
            raise GridFormatError(
                f"{path}:{i}: value count mismatch, expected {n_cols} values, got {len(tokens)}"
            )
        try:
            row = np.array(tokens, dtype=np.float64)
        except ValueError:
            for t in tokens:
                try:
                    parse_number(t, float, "token")
                except ValueError as e:
                    raise GridFormatError(f"{path}:{i}: {e}") from None
            raise
        finite = np.isfinite(row)
        if not finite.all():
            bad = tokens[int(np.argmin(finite))]
            raise GridFormatError(f"{path}:{i}: non-finite value {bad!r}")
        rows.append(row)
    if data_lines < n_rows:
        raise GridFormatError(f"{path}: expected {n_rows} data rows, found {data_lines}")

    return Grid(
        np.vstack(rows),
        cell_size=header["cellsize"],
        x_origin=header["xllcorner"],
        y_origin=header["yllcorner"],
        nodata_value=header["nodata_value"],
    )


# values that parse to the same float64 whichever way they are read, some
# of them only when correctly rounded, and tokens each reader must refuse
_CLEAN_TOKENS = st.one_of(
    st.sampled_from(
        ["0", "1", "-9999", "+.5", "-0", "-0.0", "+7", "1E5", "1e-400", "5e-324", "2.4703282292062328e-324",
         "0.30000000000000004", "1.7976931348623157e308", "9007199254740993", "123456789012345678901234567890"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
_ODD_TOKENS = st.sampled_from(
    ["1e", ".", "nan", "inf", "-Infinity", "1e400", "-1e400", "1_0", "_1", "1e1_0", "0x1", "0x10", "1,5", "x", "\x00",
     "\x1f", "1d5", "++1", "1.5.", "\x1f1"]
)
_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", " \t ", "\x1f", "\x0c"])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
_BLANK_LINES = st.sampled_from([None, None, None, "", "  ", "\t", "\x1f "])


@st.composite
def _grid_texts(draw):
    """A header for a drawn shape (1 x n, n x 1 or rectangular) and a body
    with that many rows or one fewer or more, of that many values or one
    fewer or more, with odd tokens, separators, line ends and blank lines."""
    n_rows, n_cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 6)),
        st.tuples(st.integers(1, 6), st.just(1)),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ))
    tokens = _CLEAN_TOKENS if draw(st.booleans()) else st.one_of(_CLEAN_TOKENS, _ODD_TOKENS)
    end = draw(_LINE_ENDS)
    header = [f"NCOLS {n_cols}", f"NROWS {n_rows}", "XLLCORNER 0.5", "YLLCORNER -3", "CELLSIZE 30", "NODATA_VALUE -9999"]
    lines = []
    for _ in range(draw(st.sampled_from([n_rows, n_rows, n_rows, n_rows - 1, n_rows + 1]))):
        blank = draw(_BLANK_LINES)
        if blank is not None:
            lines.append(blank)
        width = draw(st.sampled_from([n_cols, n_cols, n_cols, n_cols - 1, n_cols + 1]))
        row = draw(st.lists(tokens, min_size=width, max_size=width))
        gaps = [""] + draw(st.lists(_SEPARATORS, min_size=width - 1, max_size=width - 1)) if width else []
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + "".join(g + t for g, t in zip(gaps, row)) + trail)
    lines.extend(draw(st.lists(_BLANK_LINES.filter(lambda b: b is not None), max_size=2)))
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines), max_size=len(lines))) if draw(st.booleans()) else None
    body = "".join(line + (ends[i] if ends else end) for i, line in enumerate(lines))
    return end.join(header) + end + body


def _read_or_error(read, path):
    try:
        return read(path)
    except Exception as exc:  # every exception, a warning turned into one too
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_grid_texts())
@example(GOOD.split("1 2 3")[0])  # header only
@example(GOOD + "9 9 9\n")  # one extra row
@example(GOOD.replace("\n4 ", "\n\n+4 ").replace(" ", "\t").replace("\n", "\r\n"))  # by hand
def test_grid_reader_matches_the_line_by_line_reference(tmp_path_factory, text):
    p = _any_text_file(tmp_path_factory, "g.asc", text)
    got, want = _read_or_error(read_ascii_grid, p), _read_or_error(_reference_read_ascii_grid, p)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Grid) and got.shape == want.shape
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))  # the sign of zero too
    assert (got.cell_size, got.x_origin, got.y_origin, got.nodata_value) == (
        want.cell_size, want.x_origin, want.y_origin, want.nodata_value
    )


# ---------------------------------------------------------------------------
# PPM


def test_export_ppm_bytes(tmp_path):
    r = Grid(np.array([[0.0, 1.0], [0.5, -9999.0]]), 1.0)
    g = Grid(np.zeros((2, 2)), 1.0)
    b = Grid(np.ones((2, 2)), 1.0)
    p = tmp_path / "img.ppm"
    export_ppm(r, g, b, ((0, 1), (0, 1), (0, 1)), p)
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    body = raw[len(b"P6\n2 2\n255\n") :]
    # row-major RGB triples; 0.5 stretches to floor(127.5 + 0.5) = 128;
    # the cell missing in the red band comes out black in all channels
    assert list(body) == [0, 0, 255, 255, 0, 255, 128, 0, 255, 0, 0, 0]


def test_export_ppm_degenerate_stretch(tmp_path):
    g = Grid(np.zeros((1, 1)), 1.0)
    with pytest.raises(DataError):
        export_ppm(g, g, g, ((0, 0), (0, 1), (0, 1)), tmp_path / "x.ppm")


# ---------------------------------------------------------------------------
# legends


@settings(max_examples=200, deadline=None)
@given(_integer_grids(), st.sampled_from([NODATA, 0.0]))
@example(np.array([[65535.0, 0.0], [NODATA, -0.0]]), NODATA)  # a bincount as long as the table
@example(np.array([[1e19, 2.5], [-1.0, 3.0]]), NODATA)  # whole numbers named as ints, others as floats
def test_derived_legend_names_every_value_present(vals, nodata):
    g = Grid(vals, 1.0, nodata_value=nodata)
    present = {int(v) if v.is_integer() else v for v in vals[vals != nodata].tolist()}
    legend = load_legend(None, g, Grid(np.full(vals.shape, nodata), 1.0, nodata_value=nodata))
    assert list(legend) == sorted(present)
    assert all(type(c) is (int if c == int(c) else float) for c in legend)
    assert legend == {c: f"class {c}" for c in present}


def test_legend_roundtrip(tmp_path):
    legend = {0: "forest", 2: "water, deep", 5: "cleared"}
    p = tmp_path / "legend.csv"
    write_legend(legend, p)
    assert read_legend(p) == legend


def test_legend_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("identifier,name\n1,x\n")
    with pytest.raises(DataError, match="id,name"):
        read_legend(p)
    p.write_text("id,name\n1,x\n1,y\n")
    with pytest.raises(DataError, match="duplicate"):
        read_legend(p)
    p.write_text("id,name\nten,x\n")
    with pytest.raises(DataError, match="bad class id"):
        read_legend(p)
    p.write_text("id,name\n0,x\n65535,y\n65536,z\n")  # 65535 is the largest id
    with pytest.raises(DataError, match=re.escape("bad.csv:4: class ids must be integers from 0 to 65535, got 65536")):
        read_legend(p)
    p.write_text("id,name\n0,x\n1_0,y\n")  # int() reads "1_0" as 10
    with pytest.raises(DataError, match=r"bad\.csv:3: bad class id '1_0'"):
        read_legend(p)
    with pytest.raises(DataError, match=r"nope\.csv: cannot read legend"):
        read_legend(tmp_path / "nope.csv")
    p.write_bytes(b"id,name\n1,caf\xe9\n")
    with pytest.raises(DataError, match=r"bad\.csv: byte 0xe9 at offset 13 is not UTF-8"):
        read_legend(p)


# ---------------------------------------------------------------------------
# any text: a reader gives a valid object or a LandchangeError naming the file


def _any_text_file(tmp_path_factory, name, text):
    p = tmp_path_factory.mktemp("any") / name
    p.write_bytes(text.encode("utf-8", "surrogatepass"))
    return p


_GRID_KEYS = st.sampled_from(
    ["NCOLS", "nrows", "NROWS", "ncols", "XLLCORNER", "yllcorner", "CellSize", "NODATA_VALUE", "x"]
)
_GRID_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "-0.0", "1.5", "-9999", "1e300", "1e400", "nan", "inf", "x", "1_0", "0x10", "\x00", "",
     "2_0", "-9_999", "1_5.0", "_1"]
)
_GRID_LINE = st.one_of(
    st.tuples(_GRID_KEYS, _GRID_TOKENS).map(" ".join),
    st.lists(_GRID_TOKENS, max_size=4).map(" ".join),
)
_GOOD_GRID = "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9999\n1 2\n-9999 4\n"


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.permutations(_GOOD_GRID.splitlines()[:6]), st.lists(_GRID_LINE, max_size=4)).map(
        lambda t: "\n".join([*t[0], *t[1]])
    ),
    st.lists(_GRID_LINE, max_size=10).map("\n".join),
    st.lists(st.sampled_from(_GOOD_GRID.splitlines() + ["CELLSIZE 0", "CELLSIZE -2", "NROWS 1e300"]), max_size=9).map(
        "\n".join
    ),
    st.text(max_size=200),
))
@example(_GOOD_GRID.replace("CELLSIZE 1", "CELLSIZE 0"))
@example(_GOOD_GRID.replace("CELLSIZE 1", "CELLSIZE -2"))
@example(_GOOD_GRID.replace("1 2", "1_0 2"))
def test_grid_reader_gives_a_grid_or_a_landchange_error(tmp_path_factory, text):
    p = _any_text_file(tmp_path_factory, "g.asc", text)
    try:
        g = read_ascii_grid(p)
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert isinstance(g, Grid)
    assert text.count("_") == 1  # the NODATA_VALUE key's; float() reads "1_0" as 10
    assert np.isfinite(g.values).all()
    assert np.isfinite([g.cell_size, g.x_origin, g.y_origin, g.nodata_value]).all() and g.cell_size > 0


_LEGEND_HEADER = st.sampled_from(["id,name", "ID, Name", "id", "id,name,extra", "0,forest"])
_LEGEND_ROWS = st.sampled_from(
    ["0,forest", "2,\"water, deep\"", "-1,void", "65535,top", "65536,over", "1_0,x", "1_1,y", "_9,z", " 3,x", "x,y", "0,again", "4", "5,", ",6", "\"7", "8,\x00",
     "\r", ""]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(_LEGEND_HEADER, st.lists(_LEGEND_ROWS, max_size=5)).map(lambda t: "\n".join([t[0], *t[1]])),
    st.text(max_size=200),
))
@example("id,name\n1_0,x")
def test_legend_reader_gives_a_legend_or_a_landchange_error(tmp_path_factory, text):
    p = _any_text_file(tmp_path_factory, "legend.csv", text)
    try:
        legend = read_legend(p)
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert all(type(k) is int and k >= 0 and type(v) is str for k, v in legend.items())
    assert all("_" not in row[0] for row in read_csv_rows(p, "legend")[1:])  # int() reads "1_0" as 10
    LandCoverMap(Grid(np.full((1, 1), -9999.0), 1.0), legend)  # a map takes it as it is


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.integers(0, 65535), st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12), max_size=6
))
def test_legend_roundtrip_is_exact(tmp_path_factory, legend):
    p = tmp_path_factory.mktemp("legend") / "legend.csv"
    write_legend(legend, p)
    back = read_legend(p)
    assert back == legend and list(back) == sorted(legend)
