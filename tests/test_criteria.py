"""Distance transform, fuzzy standardization, constraints."""

import numpy as np
import pytest

from landchange.criteria import (
    FuzzySpec,
    SuitabilityGrid,
    distance_transform,
    fuzzy_standardize,
    make_constraint,
    squared_distance_transform,
    suitability_like,
)
from landchange.errors import DataError
from landchange.grid import BinaryMask, Grid


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
    g2 = distance_transform(m, cell_size=2.0)
    assert g2.values[0, 1] == 2.0
    with pytest.raises(DataError):
        distance_transform(m, cell_size=0.0)
    with pytest.raises(DataError, match="at least one target"):
        distance_transform(_mask([[0.0, 0.0]]))


def test_suitability_grid_validation():
    SuitabilityGrid(np.array([[0.0, 255.0, -9999.0]]), 1.0)
    for bad in ([[256.0]], [[-1.0]], [[12.5]]):
        with pytest.raises(DataError):
            suitability_like(Grid(np.ones((1, 1)), 1.0), np.array(bad))


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
    lt = make_constraint(g, threshold=3.0, op="<")
    assert lt.values.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    cats = make_constraint(g, categories={1, 7})
    assert cats.values.tolist() == [[1.0, 0.0, 1.0, 0.0]]
    with pytest.raises(DataError, match="exactly one"):
        make_constraint(g)
    with pytest.raises(DataError, match="exactly one"):
        make_constraint(g, categories={1}, threshold=2.0)
    with pytest.raises(DataError):
        make_constraint(g, threshold=1.0, op="!=")
    with pytest.raises(DataError):
        make_constraint(g, categories=set())
