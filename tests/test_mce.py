"""Pairwise comparison weights and factor combination."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange.criteria import SuitabilityGrid
from landchange.errors import DataError, LandchangeError, NumericalError
from landchange.grid import BinaryMask, grids_equal
from landchange.mce import (
    SaatyMatrix,
    owa,
    read_saaty_csv,
    saaty_weights,
    wlc,
    write_saaty_csv,
    write_weights_csv,
)


def _suit(vals):
    return SuitabilityGrid(np.asarray(vals, dtype=np.float64), 1.0)


def test_saaty_matrix_validation():
    with pytest.raises(DataError, match="square"):
        SaatyMatrix(np.ones((2, 3)))
    with pytest.raises(DataError, match="positive"):
        SaatyMatrix(np.array([[1.0, -2.0], [-0.5, 1.0]]))
    with pytest.raises(DataError, match="diagonal"):
        SaatyMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DataError, match=r"\[1/9, 9\]"):
        SaatyMatrix(np.array([[1.0, 10.0], [0.1, 1.0]]))
    with pytest.raises(DataError, match="reciprocal"):
        SaatyMatrix(np.array([[1.0, 3.0], [0.5, 1.0]]))
    with pytest.raises(DataError, match="exceeds supported"):
        SaatyMatrix(np.eye(11) * 0 + np.eye(11))  # order 11


def test_two_by_two_weights():
    ws = saaty_weights(SaatyMatrix(np.array([[1.0, 3.0], [1 / 3, 1.0]])))
    assert np.allclose(ws.weights, [0.75, 0.25], atol=1e-9)
    assert ws.consistency_ratio == 0.0  # order 2 is always consistent


def test_consistent_three_by_three():
    m = SaatyMatrix(np.array([[1.0, 2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]]))
    ws = saaty_weights(m)
    assert np.allclose(ws.weights, [4 / 7, 2 / 7, 1 / 7], atol=1e-9)
    assert abs(ws.lambda_max - 3.0) <= 1e-9
    assert ws.consistency_index == 0.0
    assert ws.consistency_ratio == 0.0


def test_inconsistent_matrix_matches_eigensolver():
    a = np.array([[1.0, 2.0, 9.0], [0.5, 1.0, 2.0], [1 / 9, 0.5, 1.0]])
    ws = saaty_weights(SaatyMatrix(a))
    evals, evecs = np.linalg.eig(a)
    k = int(np.argmax(evals.real))
    lam = float(evals[k].real)
    v = np.abs(evecs[:, k].real)
    v = v / v.sum()
    assert np.allclose(ws.weights, v, atol=1e-9)
    assert abs(ws.lambda_max - lam) <= 1e-9
    assert ws.consistency_ratio == pytest.approx((lam - 3) / 2 / 0.58, abs=1e-9)
    assert ws.consistency_ratio > 0


def test_high_cr_logs_a_warning(caplog):
    a = np.array([[1.0, 9.0, 1 / 9], [1 / 9, 1.0, 9.0], [9.0, 1 / 9, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a log record, not a Python warning
        with caplog.at_level(logging.WARNING, logger="landchange"):
            ws = saaty_weights(SaatyMatrix(a))
    assert ws.consistency_ratio > 0.10
    [record] = caplog.records
    assert record.name == "landchange" and record.levelno == logging.WARNING
    assert record.getMessage().startswith(f"consistency ratio {ws.consistency_ratio:.4f} exceeds 0.1")


def test_iteration_cap():
    a = np.array([[1.0, 2.0, 9.0], [0.5, 1.0, 2.0], [1 / 9, 0.5, 1.0]])
    with pytest.raises(NumericalError, match="converge"):
        saaty_weights(SaatyMatrix(a), max_iterations=1)


def test_wlc_basic():
    f0 = _suit([[100.0, 200.0]])
    f1 = _suit([[200.0, 100.0]])
    out = wlc([f0, f1], [0.5, 0.5])
    assert out.values.tolist() == [[150.0, 150.0]]
    # single factor with weight 1 passes through
    assert grids_equal(wlc([f0], [1.0]), f0)


def test_wlc_constraints_and_nodata():
    f0 = _suit([[100.0, 200.0, -9999.0]])
    mask = BinaryMask(np.array([[1.0, 0.0, 1.0]]), 1.0)
    out = wlc([f0], [1.0], [mask])
    assert out.values.tolist() == [[100.0, 0.0, -9999.0]]  # nodata beats masking


def test_wlc_errors():
    f0 = _suit([[10.0]])
    with pytest.raises(DataError, match="no factor"):
        wlc([], [])
    with pytest.raises(DataError, match="weights"):
        wlc([f0], [0.5, 0.5])
    with pytest.raises(DataError, match="geometry"):
        wlc([f0, _suit([[1.0, 2.0]])], [0.5, 0.5])


def test_owa_extremes():
    f0 = _suit([[100.0, 240.0, -9999.0]])
    f1 = _suit([[200.0, 60.0, 7.0]])
    # equal factor weights: ranked values are (w*f*n) = the raw factor values
    lo = owa([f0, f1], [0.5, 0.5], [1.0, 0.0])
    assert lo.values.tolist() == [[100.0, 60.0, -9999.0]]  # all weight on the minimum
    hi = owa([f0, f1], [0.5, 0.5], [0.0, 1.0])
    assert hi.values.tolist() == [[200.0, 240.0, -9999.0]]


def test_owa_uniform_equals_wlc():
    rng = np.random.default_rng(12)
    factors = [_suit(rng.integers(0, 256, size=(9, 7)).astype(float)) for _ in range(4)]
    w = rng.random(4)
    w /= w.sum()
    assert grids_equal(owa(factors, w, [0.25] * 4), wlc(factors, w))


# The combination before it ran in place, kept as the reference for wlc and
# owa bit for bit: a (factors, cells) stack of the jointly valid cells,
# weighted as a whole, its rows added in factor order, then gated by value.


def _ref_stack(factors):
    valid = factors[0].valid
    for f in factors[1:]:
        valid = valid & f.valid
    return valid, np.stack([f.values[valid] for f in factors])


def _factor_order_sum(rows):
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


def _ref_gate(out, constraints, valid, geometry):
    for m in constraints:
        out = out * m.values[valid]
    return geometry.scatter(valid, out, kind=SuitabilityGrid)


def _ref_wlc(factors, w, constraints):
    valid, stack = _ref_stack(factors)
    out = np.floor(_factor_order_sum(w[:, None] * stack) + 0.5)
    return _ref_gate(out, constraints, valid, factors[0])


def _ref_owa(factors, w, ow, constraints):
    valid, stack = _ref_stack(factors)
    n = len(factors)
    terms = w[:, None] * stack
    order = np.argsort(terms * float(n), axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n, dtype=order.dtype)[:, None], axis=0)
    combined = _factor_order_sum((ow * float(n))[ranks] * terms)
    out = np.floor(np.clip(combined, 0.0, 255.0) + 0.5)
    return _ref_gate(out, constraints, valid, factors[0])


_SAATY_SCALE = [1 / 9, 1 / 7, 1 / 5, 1 / 3, 1.0, 3.0, 5.0, 7.0, 9.0]


@st.composite
def _combination_cases(draw):
    """1-9 byte factors with nodata on one of several nodata values (0 and
    255 among them), weights from a random comparison matrix, in tenths or
    drawn and normalised, 0-2 constraint masks, and order weights uniform,
    one-hot or drawn."""
    n = draw(st.integers(1, 9))
    shape = draw(st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)), st.just((64, 80))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodata_p = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    factors = []
    for _ in range(n):
        nodata = draw(st.sampled_from([-9999.0, 0.0, 255.0]))
        vals = rng.integers(0, 256, size=shape).astype(np.float64)
        vals[rng.random(shape) < nodata_p] = nodata
        factors.append(SuitabilityGrid(vals, 30.0, nodata_value=nodata))
    how = draw(st.sampled_from(["saaty", "tenths", "drawn"]))
    if how == "saaty":
        a = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = rng.choice(_SAATY_SCALE)
                a[j, i] = 1.0 / a[i, j]
        weights = saaty_weights(SaatyMatrix(a)).weights
    elif how == "tenths":
        # about a tenth of the exact sums end in .5, where the rounding of
        # each addition decides the byte
        weights = (1 + rng.multinomial(10 - n, np.full(n, 1.0 / n))) / 10.0
    else:
        weights = rng.random(n) + 0.01
        weights /= weights.sum()
    constraints = [
        BinaryMask((rng.random(shape) < 0.7).astype(np.float64), 30.0, nodata_value=nodata)
        for nodata in draw(st.lists(st.sampled_from([-9999.0, 0.0]), max_size=2))
    ]
    order = draw(st.sampled_from(["uniform", "one-hot", "drawn"]))
    if order == "uniform":
        order_weights = np.full(n, 1.0 / n)
    elif order == "one-hot":
        order_weights = np.eye(n)[rng.integers(n)]
    else:
        order_weights = rng.random(n)
        order_weights /= order_weights.sum()
    return factors, weights, order_weights, constraints


def _same_suitability(fn, ref):
    try:
        want = ref()
    except DataError as e:
        with pytest.raises(DataError) as exc:
            fn()
        assert str(exc.value) == str(e)
        return
    got = fn()
    assert type(got) is SuitabilityGrid
    assert got.values.tobytes() == want.values.tobytes()
    assert got.same_geometry(want) and got.nodata_value == want.nodata_value


def _one_valid_cell(values, weights):
    """Factors on a 2x2 grid whose only jointly valid cell holds `values`."""
    factors = []
    for v in values:
        vals = np.full((2, 2), -9999.0)
        vals[1, 0] = v
        factors.append(SuitabilityGrid(vals, 30.0))
    return factors, np.asarray(weights), np.full(len(values), 1.0 / len(values)), []


@settings(max_examples=300, deadline=None)
@given(_combination_cases())
# one valid cell, 8 and 9 factors, tenths weights: these exact sums end in
# .5 (96.5 and 116.5), where the order of the additions decides the byte
@example(_one_valid_cell([71, 184, 105, 49, 243, 51, 46, 142, 25], [0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]))
@example(_one_valid_cell([31, 27, 150, 235, 144, 151, 235, 24], [0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.2]))
def test_wlc_and_owa_match_the_stacked_reference(case):
    factors, w, ow, constraints = case
    _same_suitability(lambda: wlc(factors, w, constraints), lambda: _ref_wlc(factors, w, constraints))
    _same_suitability(lambda: owa(factors, w, ow, constraints), lambda: _ref_owa(factors, w, ow, constraints))


@st.composite
def _kept_cells(draw):
    """A combination case and the cells kept valid when the others are
    masked to nodata."""
    case = draw(_combination_cases())
    shape = case[0][0].shape
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    return case, keep < draw(st.sampled_from([0.1, 0.5, 0.9]))


def _one_of_two_cells(values, weights):
    """The 9-factor cell above kept alone, and beside it a second valid cell."""
    factors, w, ow, constraints = _one_valid_cell(values, weights)
    beside = []
    for f in factors:
        vals = f.values.copy()
        vals[0, 1] = 128.0
        beside.append(SuitabilityGrid(vals, f.cell_size))
    keep = np.zeros((2, 2), dtype=bool)
    keep[1, 0] = True
    return (beside, w, ow, constraints), keep


@settings(max_examples=200, deadline=None)
@given(_kept_cells())
# 9 factors, tenths weights, an exact sum of 96.5: an order of additions that
# depends on the other cells scores this cell 97 alone and 96 beside another
@example(_one_of_two_cells([71, 184, 105, 49, 243, 51, 46, 142, 25], [0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]))
def test_wlc_and_owa_score_a_cell_alike_alone_or_among_others(kept):
    """The cells kept valid get the same bits whether the other cells are
    valid or masked to nodata."""
    (factors, w, ow, constraints), keep = kept
    alone = []
    for f in factors:
        values = f.values.copy()
        values[~keep] = f.nodata_value
        alone.append(SuitabilityGrid(values, f.cell_size, nodata_value=f.nodata_value))
    for combine in (lambda fs: wlc(fs, w, constraints), lambda fs: owa(fs, w, ow, constraints)):
        assert combine(alone).values[keep].tobytes() == combine(factors).values[keep].tobytes()


def test_owa_validation():
    f0 = _suit([[10.0]])
    with pytest.raises(DataError, match="order weights"):
        owa([f0], [1.0], [0.5, 0.5])
    with pytest.raises(DataError, match="sum to 1"):
        owa([f0], [1.0], [0.5])
    with pytest.raises(DataError, match="sum to 1"):
        owa([f0, f0], [0.5, 0.5], [1.5, -0.5])
    with pytest.raises(DataError, match="sum to 1"):
        owa([f0, f0], [0.5, 0.5], [float("nan"), 1.0])


def test_saaty_csv_roundtrip(tmp_path):
    p = tmp_path / "cmp.csv"
    p.write_text("1,3,5\n1/3,1,3\n1/5,1/3,1\n", encoding="utf-8")
    m = read_saaty_csv(p)
    assert m.values[1, 0] == pytest.approx(1 / 3, abs=1e-15)
    out = tmp_path / "back.csv"
    write_saaty_csv(m, out)
    again = read_saaty_csv(out)
    assert np.array_equal(again.values, m.values)


def test_saaty_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="square"):
        read_saaty_csv(p)
    p.write_text("1,x\n0.5,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        read_saaty_csv(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        read_saaty_csv(p)
    p.write_bytes(b"1,3\n1/3,1\xff\n")
    with pytest.raises(DataError, match=r"bad\.csv: byte 0xff at offset 9 is not UTF-8"):
        read_saaty_csv(p)
    with pytest.raises(DataError, match=r"nope\.csv: cannot read comparison matrix"):
        read_saaty_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("entry", ["0_3", "1/0_3", "0_1/3", "3e0_0"])
def test_saaty_reader_refuses_digit_groups(tmp_path, entry):
    # float() reads "0_3" as 3.0, which would make a valid matrix here
    p = tmp_path / "cmp.csv"
    p.write_text(f"1,{entry}\n1/3,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"cmp\.csv: non-numeric matrix entry"):
        read_saaty_csv(p)


_SAATY_TOKENS = st.sampled_from(
    ["1", "3", "1/3", "9", "1/9", "5", "0.2", "10", "1/0", "0", "-1", "nan", "inf", "1e400", "1/inf", "x", "", " 1 ",
     "1/3/3", '"1"', "\x00"]
)
_SAATY_ROW = st.lists(_SAATY_TOKENS, min_size=1, max_size=4).map(",".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_SAATY_ROW, max_size=4).map("\n".join),
    st.lists(
        st.sampled_from(["1,3,5", "1/3,1,3", "1/5,1/3,1", "1,3", "1/3,1", "1", "", '"' + "1" * 200_000]), max_size=4
    ).map("\n".join),
    st.text(max_size=200),
))
def test_saaty_reader_gives_a_matrix_or_a_landchange_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("saaty") / "cmp.csv"
    p.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        m = read_saaty_csv(p)
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert isinstance(m, SaatyMatrix)
    a = m.values
    assert np.all(np.diag(a) == 1.0) and np.all((a >= 1 / 9 - 1e-12) & (a <= 9 + 1e-12))
    assert np.abs(a * a.T - 1.0).max() <= 1e-9


_SCALE = [float(v) for v in range(1, 10)] + [1 / v for v in range(2, 10)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_saaty_csv_roundtrip_is_bit_exact(tmp_path_factory, n, data):
    upper = data.draw(st.lists(st.sampled_from(_SCALE), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    a = np.eye(n)
    a[np.triu_indices(n, 1)] = upper
    a.T[np.triu_indices(n, 1)] = [1 / v for v in upper]
    m = SaatyMatrix(a)
    p = tmp_path_factory.mktemp("saaty") / "cmp.csv"
    write_saaty_csv(m, p)
    assert read_saaty_csv(p).values.tobytes() == m.values.tobytes()


def test_weights_csv(tmp_path):
    ws = saaty_weights(SaatyMatrix(np.array([[1.0, 3.0], [1 / 3, 1.0]])))
    p = tmp_path / "w.csv"
    write_weights_csv(["slope", "roads"], ws, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "factor,weight"
    assert lines[1].startswith("slope,0.75")
    assert lines[-1].startswith("consistency_ratio,0.0")
