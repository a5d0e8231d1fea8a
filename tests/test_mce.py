"""Pairwise comparison weights and factor combination."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
