"""Suitabilities are stored as bytes, and no arithmetic on them wraps.

A `SuitabilityGrid` keeps uint8 values, and uint8 arithmetic wraps
silently: 255 + 1 is 0. So every operation on suitabilities casts its bytes
to a wider type first. Each case here draws byte factors that reach 0 and
255, runs one suitability operation and compares every cell with a float64
reference worked out cell by cell in Python floats: `fuzzy_standardize`,
`wlc`, `owa` with uniform and skewed order weights, constraint gating, and
the perceptron's probability standardized as `mlp-predict` standardizes it.
Each result must also come back from its file with the same values, so the
writer's table of byte texts is covered too.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange.criteria import FuzzySpec, SuitabilityGrid, fuzzy_standardize
from landchange.grid import BinaryMask, Grid, read_ascii_grid, write_ascii_grid
from landchange.mce import owa, wlc

NODATA = -9999.0
# bytes at and next to both ends, where a wrapped sum or index shows
_BYTE = st.one_of(st.sampled_from([0, 1, 254, 255]), st.integers(0, 255))


@st.composite
def _factors(draw):
    """2-4 byte factors on one small shape, some cells nodata, plus weights
    summing to 1, order weights uniform or skewed and 0-2 constraint masks."""
    n = draw(st.integers(2, 4))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = rows * cols
    factors = []
    for _ in range(n):
        vals = draw(st.lists(st.one_of(_BYTE, st.just(None)), min_size=cells, max_size=cells))
        grid = np.array([NODATA if v is None else float(v) for v in vals]).reshape(rows, cols)
        factors.append(SuitabilityGrid(grid, 30.0))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=np.float64)
    weights /= weights.sum()
    if draw(st.booleans()):
        order_weights = np.full(n, 1.0 / n)
    else:  # skewed: the largest share on one rank
        order_weights = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=np.float64)
        order_weights[draw(st.integers(0, n - 1))] += 20.0
        order_weights /= order_weights.sum()
    gates = st.lists(st.sampled_from([0.0, 1.0]), min_size=cells, max_size=cells)
    constraints = [
        BinaryMask(np.array(draw(gates)).reshape(rows, cols), 30.0) for _ in range(draw(st.integers(0, 2)))
    ]
    return factors, weights, order_weights, constraints


def _cells(factors, constraints):
    """Per cell, in row-major order: None where a factor is nodata, else
    the factors' values as Python floats and the product of the masks."""
    values = [f.values.ravel().tolist() for f in factors]
    gates = [m.values.ravel().tolist() for m in constraints]
    out = []
    for k in range(len(values[0])):
        vals = [v[k] for v in values]
        out.append(None if NODATA in vals else (vals, math.prod(g[k] for g in gates)))
    return out


def _ref_wlc(vals, w, gate):
    total = vals[0] * w[0]
    for v, wi in zip(vals[1:], w[1:]):
        total = total + v * wi
    return math.floor(total + 0.5) * gate


def _ref_owa(vals, w, ow, gate):
    n = len(vals)
    terms = [v * wi for v, wi in zip(vals, w)]
    ranked = sorted(range(n), key=lambda i: terms[i] * float(n))  # stable: ties by factor
    multiplier = [0.0] * n
    for rank, i in enumerate(ranked):
        multiplier[i] = ow[rank] * float(n)
    total = multiplier[0] * terms[0]
    for m, t in zip(multiplier[1:], terms[1:]):
        total = total + m * t
    return math.floor(min(max(total, 0.0), 255.0) + 0.5) * gate


def _check(got, want, tmp_path):
    """got is a byte suitability holding the float64 reference `want` (a
    list, None at nodata) in every cell, and reads back from its file so."""
    assert type(got) is SuitabilityGrid and got.stored.dtype == np.uint8
    expected = np.array([NODATA if v is None else v for v in want]).reshape(got.shape)
    assert got.values.tolist() == expected.tolist()
    path = tmp_path / "suit.asc"
    write_ascii_grid(got, path)
    assert read_ascii_grid(path).values.tolist() == expected.tolist()


_EXTREMES = (
    [SuitabilityGrid(np.array([[255.0, 0.0, 255.0]]), 30.0), SuitabilityGrid(np.array([[255.0, 255.0, 1.0]]), 30.0)],
    np.array([0.5, 0.5]),
    np.array([0.9, 0.1]),
    [],
)


@settings(deadline=None)
@given(_factors())
@example(_EXTREMES)
def test_wlc_and_owa_bytes_match_a_float64_reference(tmp_path_factory, case):
    factors, w, ow, constraints = case
    tmp_path = tmp_path_factory.mktemp("bytes")
    cells = _cells(factors, constraints)
    _check(wlc(factors, w, constraints), [c and _ref_wlc(c[0], w, c[1]) for c in cells], tmp_path)
    _check(owa(factors, w, ow, constraints), [c and _ref_owa(c[0], w, ow, c[1]) for c in cells], tmp_path)


_FUZZY = st.sampled_from(
    [
        FuzzySpec("linear", "increasing", 0.0, 255.0),
        FuzzySpec("linear", "decreasing", 10.0, 200.0),
        FuzzySpec("j_shaped", "increasing", 0.0, 100.0),
        FuzzySpec("sigmoidal", "symmetric", 0.0, 50.0, 150.0, 255.0),
    ]
)


def _membership(v, spec):
    """The float64 membership of value v, as `criteria` defines it."""
    def rise(a, b):
        t = min(max((v - a) / (b - a), 0.0), 1.0)
        if spec.shape == "linear":
            return t
        if spec.shape == "sigmoidal":
            return float(np.cos(0.5 * math.pi * (1.0 - t)) ** 2)
        return 1.0 if v >= b else 1.0 / (1.0 + ((v - b) / (b - a)) ** 2)

    def fall(a, b):
        t = min(max((v - a) / (b - a), 0.0), 1.0)
        if spec.shape == "linear":
            return min(max((b - v) / (b - a), 0.0), 1.0)
        if spec.shape == "sigmoidal":
            return float(np.cos(0.5 * math.pi * t) ** 2)
        return 1.0 if v <= a else 1.0 / (1.0 + ((v - a) / (b - a)) ** 2)

    if spec.direction == "increasing":
        return rise(spec.a, spec.b)
    if spec.direction == "decreasing":
        return fall(spec.a, spec.b)
    return rise(spec.a, spec.b) if v <= spec.b else fall(spec.c, spec.d) if v >= spec.c else 1.0


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 255.0, 300.0, -5.0]), st.floats(-10.0, 300.0), st.just(None)),
        min_size=1,
        max_size=12,
    ),
    _FUZZY,
)
def test_fuzzy_standardize_bytes_match_a_float64_reference(tmp_path_factory, vals, spec):
    grid = Grid(np.array([[NODATA if v is None else v for v in vals]]), 30.0)
    want = [None if v is None else math.floor(_membership(v, spec) * 255.0 + 0.5) for v in vals]
    _check(fuzzy_standardize(grid, spec), want, tmp_path_factory.mktemp("bytes"))


@settings(deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0), st.just(None)), min_size=1))
def test_the_perceptron_probability_standardizes_to_bytes_both_ways(tmp_path_factory, probs):
    # mlp-predict's suitabilities: linear 0..1, increasing for the focal
    # class and decreasing for the other
    prob = Grid(np.array([[NODATA if p is None else p for p in probs]]), 30.0)
    for direction, byte in (("increasing", lambda p: p), ("decreasing", lambda p: 1.0 - p)):
        want = [None if p is None else math.floor(byte(p) * 255.0 + 0.5) for p in probs]
        got = fuzzy_standardize(prob, FuzzySpec("linear", direction, 0.0, 1.0))
        _check(got, want, tmp_path_factory.mktemp("bytes"))
