"""Distance transform, fuzzy standardization, constraints."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landchange.criteria import (
    _column_pass,
    _lower_envelope,
    _row_envelope,
    FuzzySpec,
    SuitabilityGrid,
    distance_transform,
    fuzzy_standardize,
    make_constraint,
    squared_distance_transform,
    suitability_like,
)
from landchange.errors import DataError
from landchange.grid import BinaryMask, Grid, label_type


def _mask(vals):
    return BinaryMask(np.asarray(vals, dtype=np.float64), 1.0)


def _brute_sq(sel: np.ndarray) -> np.ndarray:
    rows, cols = np.nonzero(sel)
    rr, cc = np.mgrid[0 : sel.shape[0], 0 : sel.shape[1]]
    d2 = (rr[..., None] - rows) ** 2 + (cc[..., None] - cols) ** 2
    return d2.min(axis=-1).astype(np.float64)


def test_squared_distance_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(6):
        sel = rng.random((12, 12)) < 0.07
        if not sel.any():
            sel[0, 0] = True
        d = squared_distance_transform(_mask(sel.astype(float)))
        assert np.array_equal(d, _brute_sq(sel))  # exact, all integers


def _edt_1d_reference(f):
    """The sequential lower envelope of parabolas on one scan line."""
    n = f.size
    d = np.empty(n)
    v = np.zeros(n, dtype=np.int64)
    z = np.empty(n + 1)
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


_FAR = 1e18  # the sequential reference's finite stand-in for "no target on this scan line"


def _sq_reference(sel):
    """One sequential pass per column, then one per row."""
    f = np.where(sel, 0.0, _FAR)
    for c in range(sel.shape[1]):
        f[:, c] = _edt_1d_reference(f[:, c])
    for r in range(sel.shape[0]):
        f[r, :] = _edt_1d_reference(f[r, :])
    return f


_shapes = st.one_of(
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.tuples(st.just(1), st.integers(1, 60)),
    st.tuples(st.integers(1, 60), st.just(1)),
)


@st.composite
def _target_masks(draw):
    shape = draw(_shapes)
    kind = draw(st.sampled_from(["single", "all", "drawn", "dense"]))
    if kind == "single":
        sel = np.zeros(shape, dtype=bool)
        sel[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = True
    elif kind == "all":
        sel = np.ones(shape, dtype=bool)
    elif kind == "drawn":
        sel = draw(arrays(np.bool_, shape))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        sel = rng.random(shape) < draw(st.sampled_from([0.01, 0.1, 0.3, 0.6, 0.9]))
    if not sel.any():
        sel[0, 0] = True
    return sel


@settings(max_examples=300, deadline=None)
@given(_target_masks())
def test_squared_distance_matches_sequential_envelope_bytes(sel):
    d = squared_distance_transform(_mask(sel.astype(float)))
    want = _sq_reference(sel)
    assert d.shape == want.shape
    assert d.tobytes() == want.tobytes()


@st.composite
def _sampled_functions(draw):
    """(f, p, n): (lines, sites) seed costs, small integers, at strictly
    increasing positions p on lines n cells long; some draws have one site."""
    n_lines = draw(st.integers(1, 12))
    n = draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.just(1), st.integers(1, n)))
    p = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    f = rng.integers(0, draw(st.sampled_from([1, 5, 400])), size=(n_lines, p.size)).astype(np.float64)
    return f, p, n


@settings(max_examples=300, deadline=None)
@given(_sampled_functions())
def test_lower_envelope_matches_sequential_envelope_per_line(fpn):
    f, p, n = fpn
    d = _lower_envelope(f, p, n)
    full = np.full((f.shape[0], n), _FAR)
    full[:, p] = f
    want = np.stack([_edt_1d_reference(line) for line in full])
    assert d.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_sampled_functions())
def test_envelope_breakpoints_strictly_increase(fpn):
    # a parabola kept at a tie would own an empty interval; the query never
    # lands on it, so only the envelope itself shows it
    f, p, _ = fpn
    v, z, k = _row_envelope(f, p)
    for i in range(f.shape[0]):
        zi = z[i, : k[i] + 2]
        assert zi[0] == -math.inf and zi[-1] == math.inf
        assert np.all(np.diff(zi) > 0)
        assert np.all(np.diff(v[i, : k[i] + 1]) > 0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _shapes.flatmap(lambda shape: arrays(np.bool_, shape)),
    _target_masks(),
))
def test_column_pass_matches_per_column_brute_force(sel):
    got = _column_pass(sel)
    want = np.full(sel.shape, math.inf)
    for c in range(sel.shape[1]):
        rows = np.flatnonzero(sel[:, c])
        if rows.size:  # a column with no target stays inf
            want[:, c] = ((np.arange(sel.shape[0])[:, None] - rows) ** 2).min(axis=1)
    assert got.tobytes() == want.tobytes()


def test_squared_distance_three_targets_at_512():
    # the synth case: one class's few patch seeds on a full-size grid
    sel = np.zeros((512, 512), dtype=bool)
    sel[[17, 300, 511], [480, 0, 255]] = True
    d = squared_distance_transform(_mask(sel.astype(float)))
    assert np.array_equal(d, _brute_sq(sel))


def test_squared_distance_matches_scipy_oracle():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(8)
    shapes = [(1, 50), (50, 1), (37, 61), (64, 64), (128, 96)]
    for shape in shapes:
        for density in (0.0005, 0.01, 0.2, 0.7):
            sel = rng.random(shape) < density
            if not sel.any():
                sel[shape[0] // 2, shape[1] // 2] = True
            d = squared_distance_transform(_mask(sel.astype(float)))
            edt = ndimage.distance_transform_edt(~sel)
            # sqrt is correctly rounded, so the exact squared distances give
            # scipy's distances bit for bit; squaring scipy's back needs rounding
            assert np.array_equal(np.sqrt(d), edt)
            assert np.array_equal(d, np.rint(edt ** 2))


def test_distance_transform_edge_shapes():
    # single row and single column exercise the 1-D pass directly
    row = _mask([[0.0, 0.0, 1.0, 0.0]])
    assert squared_distance_transform(row).tolist() == [[4.0, 1.0, 0.0, 1.0]]
    col = _mask([[1.0], [0.0], [0.0]])
    assert squared_distance_transform(col).tolist() == [[0.0], [1.0], [4.0]]


def test_distance_transform_scales_by_cell_size():
    m = BinaryMask(np.array([[1.0, 0.0]]), 30.0)
    g = distance_transform(m)
    assert g.values.tolist() == [[0.0, 30.0]]
    assert g.cell_size == 30.0
    g2 = distance_transform(BinaryMask(m.values, 2.0))
    assert g2.values[0, 1] == 2.0
    with pytest.raises(DataError, match="at least one target"):
        distance_transform(_mask([[0.0, 0.0]]))


def test_suitability_grid_validation():
    SuitabilityGrid(np.array([[0.0, 255.0, -9999.0]]), 1.0)
    for bad in ([[256.0]], [[-1.0]], [[12.5]]):
        with pytest.raises(DataError):
            suitability_like(Grid(np.ones((1, 1)), 1.0), np.array(bad))
        with pytest.raises(DataError, match="^suitability values must be integers in 0..255$"):
            SuitabilityGrid.from_cells(Grid(np.ones((1, 1)), 1.0), np.ones((1, 1), dtype=bool), np.array(bad[0]))


def test_suitability_grid_keeps_bytes_and_a_nodata_value_inside_them():
    # a file's nodata value may be a byte: its cells stay nodata
    s = SuitabilityGrid(np.array([[95.0, 0.0, 255.0]]), 30.0, 5.0, 6.0, nodata_value=95.0)
    assert s.stored.dtype == label_type(255) and s.stored.tolist() == [[-1, 0, 255]]
    assert s.valid.tolist() == [[False, True, True]] and s.values.tolist() == [[95.0, 0.0, 255.0]]
    assert (s.shape, s.cell_size, s.x_origin, s.y_origin, s.nodata_value) == ((1, 3), 30.0, 5.0, 6.0, 95.0)
    for array in (s.stored, s.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    mask = s.valid
    mask[0, 0] = True  # a fresh array each read
    assert s.valid.tolist() == [[False, True, True]]
    cells = SuitabilityGrid.from_cells(s, s.valid, np.array([7.0, 255.0]))
    assert cells.values.tolist() == [[-9999.0, 7.0, 255.0]] and cells.same_geometry(s)


def test_fuzzy_spec_validation():
    with pytest.raises(DataError):
        FuzzySpec("step", "increasing", 0, 1)
    with pytest.raises(DataError):
        FuzzySpec("linear", "up", 0, 1)
    with pytest.raises(DataError):
        FuzzySpec("linear", "increasing", 5, 5)
    with pytest.raises(DataError):
        FuzzySpec("linear", "symmetric", 0, 1)  # needs c and d
    with pytest.raises(DataError):
        FuzzySpec("linear", "symmetric", 0, 1, 0.5, 2)  # c < b
    nan, inf = float("nan"), float("inf")
    for points in ((nan, 1), (0, nan), (-inf, 1), (0, inf), (0, 1, nan, 3), (0, 1, 2, nan), (0, 1, 2, inf)):
        with pytest.raises(DataError, match="must be finite"):
            FuzzySpec("linear", "symmetric" if len(points) == 4 else "increasing", *points)
    # finite points whose span is not: a membership over it would be nan
    for points in ((-1e308, 1e308), (-1.7e308, -1.6e308, -1e308, 1e308)):
        with pytest.raises(DataError, match="and their span must be finite"):
            FuzzySpec("linear", "symmetric" if len(points) == 4 else "increasing", *points)


@pytest.mark.parametrize(
    "shape, span", [("linear", 1e-310), ("sigmoidal", 1e-310), ("j_shaped", 1e-310), ("j_shaped", 1e-300)]
)
def test_a_span_far_below_the_value_gaps_gives_the_limits_with_no_warning(shape, span):
    # 1 / span, or its square, overflows to inf: the membership's limit
    g = Grid(np.array([[-1.0, 0.0, 1.0]]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up = fuzzy_standardize(g, FuzzySpec(shape, "increasing", 0.0, span))
        down = fuzzy_standardize(g, FuzzySpec(shape, "decreasing", 0.0, span))
    assert up.values.tolist() == [[0.0, 128.0 if shape == "j_shaped" else 0.0, 255.0]]
    assert down.values.tolist() == [[255.0, 255.0, 0.0]]


def test_linear_memberships():
    g = Grid(np.array([[-5.0, 0.0, 2.5, 5.0, 10.0, 15.0, -9999.0]]), 1.0)
    up = fuzzy_standardize(g, FuzzySpec("linear", "increasing", 0.0, 10.0))
    # bytes: floor(m*255 + 0.5); 0.25 -> 64, 0.5 -> 128
    assert up.values.tolist() == [[0.0, 0.0, 64.0, 128.0, 255.0, 255.0, -9999.0]]
    down = fuzzy_standardize(g, FuzzySpec("linear", "decreasing", 0.0, 10.0))
    assert down.values.tolist() == [[255.0, 255.0, 191.0, 128.0, 0.0, 0.0, -9999.0]]


def test_sigmoidal_membership():
    g = Grid(np.array([[0.0, 5.0, 10.0]]), 1.0)
    out = fuzzy_standardize(g, FuzzySpec("sigmoidal", "increasing", 0.0, 10.0))
    # cos^2(pi/4) = 0.5 at the midpoint
    assert out.values.tolist() == [[0.0, 128.0, 255.0]]
    xs = np.linspace(-2, 12, 40)
    vals = fuzzy_standardize(Grid(xs[None, :], 1.0), FuzzySpec("sigmoidal", "increasing", 0.0, 10.0)).values[0]
    assert np.all(np.diff(vals) >= 0)


def test_j_shaped_membership():
    g = Grid(np.array([[0.0, 10.0, 20.0, -30.0]]), 1.0)
    out = fuzzy_standardize(g, FuzzySpec("j_shaped", "increasing", 0.0, 10.0))
    # membership is exactly 0.5 at the near control point, 1 at and past b
    assert out.values[0, 0] == 128.0
    assert out.values[0, 1] == 255.0
    assert out.values[0, 2] == 255.0
    assert 0.0 < out.values[0, 3] < 64.0  # long tail, never exactly zero

    down = fuzzy_standardize(g, FuzzySpec("j_shaped", "decreasing", 0.0, 10.0))
    assert down.values[0, 0] == 255.0
    assert down.values[0, 1] == 128.0


def test_symmetric_membership():
    g = Grid(np.array([[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]]), 1.0)
    out = fuzzy_standardize(g, FuzzySpec("linear", "symmetric", 0.0, 10.0, 20.0, 30.0))
    assert out.values.tolist() == [[0.0, 128.0, 255.0, 255.0, 255.0, 128.0, 0.0]]


def test_make_constraint():
    g = Grid(np.array([[1.0, 3.0, 7.0, -9999.0]]), 1.0)
    ge = make_constraint(g, threshold=3.0)
    assert ge.values.tolist() == [[0.0, 1.0, 1.0, 0.0]]  # nodata fails
    cats = make_constraint(g, categories={1, 7})
    assert cats.values.tolist() == [[1.0, 0.0, 1.0, 0.0]]
    with pytest.raises(DataError, match="exactly one"):
        make_constraint(g)
    with pytest.raises(DataError, match="exactly one"):
        make_constraint(g, categories={1}, threshold=2.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError, match=f"constraint threshold must be finite, got {bad}"):
            make_constraint(g, threshold=bad)
    with pytest.raises(DataError):
        make_constraint(g, categories=set())
