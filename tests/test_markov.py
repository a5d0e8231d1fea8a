"""Transition counting, scaling, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landchange.errors import DataError, LandchangeError, NumericalError
from landchange.grid import BinaryMask, Grid, LandCoverMap
from landchange.markov import (
    SecondOrderTable,
    _joint_counts,
    TransitionMatrix,
    conditional_probability_maps,
    crosstab,
    expected_areas,
    largest_remainder,
    read_transition_csv,
    scale_transition,
    scale_transition_in_steps,
    second_order_transitions,
    transition_probabilities,
    write_expected_areas_csv,
    write_second_order_csv,
    write_transition_csv,
)

LEGEND = {0: "forest", 1: "crop"}
LEGEND3 = {0: "forest", 1: "crop", 2: "urban"}


def _lcm(vals, legend=LEGEND):
    return LandCoverMap(Grid(np.asarray(vals, dtype=np.float64), 1.0), legend)


def test_largest_remainder():
    assert largest_remainder(np.array([1.5, 2.5]), 4).tolist() == [2, 2]
    # ties on fractional part go to the lowest index
    assert largest_remainder(np.array([0.5, 0.5, 1.0]), 2).tolist() == [1, 0, 1]
    assert largest_remainder(np.array([2.0, 3.0]), 5).tolist() == [2, 3]
    with pytest.raises(DataError, match="non-negative"):
        largest_remainder(np.array([-1.0]), 0)
    with pytest.raises(DataError, match="exceed the total"):
        largest_remainder(np.array([3.0]), 2)
    with pytest.raises(DataError, match="shortfall"):
        largest_remainder(np.array([0.1, 0.1]), 5)


def test_crosstab_counts():
    a = _lcm([[0.0, 0.0], [1.0, 1.0]])
    b = _lcm([[0.0, 1.0], [1.0, 1.0]])
    counts, ids = crosstab(a, b)
    assert ids == [0, 1]
    assert counts.tolist() == [[1, 1], [0, 2]]


def test_crosstab_mask_and_nodata():
    a = _lcm([[0.0, 0.0, -9999.0]])
    b = _lcm([[0.0, 1.0, 1.0]])
    counts, _ = crosstab(a, b)
    assert counts.sum() == 2  # nodata column dropped
    m = BinaryMask(np.array([[1.0, 0.0, 1.0]]), 1.0)
    counts, _ = crosstab(a, b, mask=m)
    assert counts.tolist() == [[1, 0], [0, 0]]


def test_crosstab_errors():
    a = _lcm([[0.0]])
    with pytest.raises(DataError, match="legend"):
        crosstab(a, _lcm([[0.0]], LEGEND3))
    with pytest.raises(DataError, match="geometry"):
        crosstab(a, _lcm([[0.0, 1.0]]))
    na = _lcm([[-9999.0]])
    with pytest.raises(DataError, match="jointly valid"):
        crosstab(na, na)


def test_transition_matrix_validation():
    with pytest.raises(DataError, match="shape"):
        TransitionMatrix(np.eye(3), 1.0, (0, 1))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        TransitionMatrix(np.array([[1.5, -0.5], [0.0, 1.0]]), 1.0, (0, 1))
    with pytest.raises(DataError, match="sum to 1"):
        TransitionMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]), 1.0, (0, 1))
    with pytest.raises(DataError, match="time_span"):
        TransitionMatrix(np.eye(2), 0.0, (0, 1))
    with pytest.raises(DataError, match=r"probability 0 -> 1 must lie in \[0, 1\], got nan"):
        TransitionMatrix(np.array([[0.5, np.nan], [0.0, 1.0]]), 1.0, (0, 1))
    with pytest.raises(DataError, match=r"probability 1 -> 1 must lie in \[0, 1\], got inf"):
        TransitionMatrix(np.array([[1.0, 0.0], [0.0, np.inf]]), 1.0, (0, 1))
    for span in (np.inf, np.nan, -np.inf):
        with pytest.raises(DataError, match=f"time_span must be positive and finite, got {span!r}"):
            TransitionMatrix(np.eye(2), span, (0, 1))
    with pytest.raises(DataError, match="distinct and non-negative"):
        TransitionMatrix(np.eye(2), 1.0, (1, 1))
    with pytest.raises(DataError, match="distinct and non-negative"):
        TransitionMatrix(np.eye(2), 1.0, (-1, 0))
    tm = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]), 2.0, (0, 1))
    assert tm.row(1).tolist() == [0.2, 0.8]
    with pytest.raises(DataError, match="absent"):
        tm.row(7)


def test_empty_class_keeps_itself():
    counts = np.array([[4, 1], [0, 0]])
    tm = transition_probabilities(counts, (0, 1), 5.0)
    assert tm.probs.tolist() == [[0.8, 0.2], [0.0, 1.0]]
    assert tm.time_span == 5.0


def test_scale_transition_half_span():
    tm = TransitionMatrix(np.array([[0.8, 0.2], [0.1, 0.9]]), 10.0, (0, 1))
    out = scale_transition(tm, 5.0)
    assert out.probs.tolist() == [[0.9, 0.1], [0.05, 0.95]]
    assert out.time_span == 5.0
    assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)


def test_scale_transition_overflow():
    tm = TransitionMatrix(np.array([[0.4, 0.6], [0.0, 1.0]]), 1.0, (0, 1))
    with pytest.raises(NumericalError, match="shorter steps"):
        scale_transition(tm, 2.0)


def test_scale_transition_rejects_heavy_rows():
    tm = TransitionMatrix(np.array([[0.3, 0.2, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1.0, (0, 1, 2))
    # row 0 off-diagonals double to 0.4 + 1.0 = 1.4: no single entry passes 1, the row does
    with pytest.raises(NumericalError, match=r"out of class 0 to 1\.4000 > 1; split into shorter steps"):
        scale_transition(tm, 2.0)


def test_scale_transition_in_steps_composes_equal_steps():
    tm = TransitionMatrix(np.array([[0.5, 0.5], [0.2, 0.8]]), 6.0, (0, 1))
    with pytest.raises(NumericalError, match="shorter steps"):
        scale_transition(tm, 14.0)
    out, n = scale_transition_in_steps(tm, 14.0)
    assert n == 2
    step = scale_transition(tm, 7.0)
    assert out.probs.tobytes() == (step.probs @ step.probs).tobytes()
    assert out.time_span == 14.0


def test_scale_transition_in_steps_splits_heavy_rows():
    tm = TransitionMatrix(np.array([[0.2, 0.4, 0.4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1.0, (0, 1, 2))
    rows = []
    for span in (2.0, 2.5):
        out, n = scale_transition_in_steps(tm, span)
        assert n == 2  # one step would move 1.6 and 2.0 of row 0 away
        step = scale_transition(tm, span / 2)
        assert out.probs.tobytes() == (step.probs @ step.probs).tobytes()
        rows.append(out.probs[0])
    assert rows[0] == pytest.approx([0.04, 0.48, 0.48], abs=1e-15)
    assert rows[1] == pytest.approx([0.0, 0.5, 0.5], abs=1e-15)


def test_scale_transition_in_steps_single_step_is_unchanged():
    tm = TransitionMatrix(np.array([[0.8, 0.2], [0.1, 0.9]]), 10.0, (0, 1))
    for span in (5.0, 10.0, 30.0, 50.0):
        out, n = scale_transition_in_steps(tm, span)
        ref = scale_transition(tm, span)
        assert n == 1
        assert out.probs.tobytes() == ref.probs.tobytes()
        assert out.time_span == ref.time_span
    with pytest.raises(DataError, match="positive"):
        scale_transition_in_steps(tm, 0.0)


def test_scale_transition_in_steps_takes_the_fewest_steps():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        p = rng.dirichlet(np.full(k, 0.5), size=k)
        tm = TransitionMatrix(p, float(rng.integers(1, 10)), tuple(range(k)))
        span = float(rng.integers(1, 200))
        out, n = scale_transition_in_steps(tm, span)
        scale_transition(tm, span / n)  # the chosen step is valid
        if n > 1:
            with pytest.raises(NumericalError):
                scale_transition(tm, span / (n - 1))
        assert out.time_span == span


def test_second_order_transitions():
    m1 = _lcm([[0.0, 0.0, 1.0, 1.0]])
    m2 = _lcm([[0.0, 0.0, 1.0, 1.0]])
    m3 = _lcm([[0.0, 1.0, 1.0, 1.0]])
    tbl = second_order_transitions(m1, m2, m3)
    assert tbl.probs[0, 0].tolist() == [0.5, 0.5]  # prev 0, curr 0: one stays, one moves
    assert tbl.probs[1, 1].tolist() == [0.0, 1.0]
    # pair (0, 1) never observed; answered by the first-order m2->m3 row for class 1
    assert tbl.fallback[0, 1]
    assert tbl.probs[0, 1].tolist() == tbl.first_order.row(1).tolist()

    # the joint-count kernel under the table, against np.add.at
    rng = np.random.default_rng(3)
    ids = [0, 3, 7]  # gapped ids
    for n in (1, 5, 200):
        a, b, c = (rng.choice(ids, size=n) for _ in range(3))
        want = np.zeros((3, 3, 3), dtype=np.int64)
        np.add.at(want, (np.searchsorted(ids, a), np.searchsorted(ids, b), np.searchsorted(ids, c)), 1)
        got = _joint_counts(ids, a, b, c)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(_joint_counts(ids, a, b), want.sum(axis=2))


def test_conditional_maps_first_order():
    cur = _lcm([[0.0, 1.0, -9999.0]])
    tm = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]), 1.0, (0, 1))
    maps = conditional_probability_maps(cur, tm)
    assert set(maps) == {0, 1}
    assert maps[0].values.tolist() == [[0.9, 0.3, -9999.0]]
    assert maps[1].values.tolist() == [[0.1, 0.7, -9999.0]]


def test_conditional_maps_second_order():
    m1 = _lcm([[0.0, 0.0, 1.0, 1.0]])
    m2 = _lcm([[0.0, 0.0, 1.0, 1.0]])
    m3 = _lcm([[0.0, 1.0, 1.0, 1.0]])
    tbl = second_order_transitions(m1, m2, m3)
    maps = conditional_probability_maps(m2, tbl, previous=m1)
    assert maps[1].values.tolist() == [[0.5, 0.5, 1.0, 1.0]]
    with pytest.raises(DataError, match="previous map"):
        conditional_probability_maps(m2, tbl)


def test_conditional_maps_unknown_class():
    cur = _lcm([[2.0]], LEGEND3)
    tm = TransitionMatrix(np.eye(2), 1.0, (0, 1))
    with pytest.raises(DataError, match="absent"):
        conditional_probability_maps(cur, tm)


def test_expected_areas():
    cur = _lcm([[0.0] * 6 + [1.0] * 4])
    tm = TransitionMatrix(np.array([[0.75, 0.25], [0.0, 1.0]]), 1.0, (0, 1))
    reals, ints = expected_areas(cur, tm)
    assert reals == {0: 4.5, 1: 5.5}
    # floors 4 + 5 leave one pixel; the 0.5/0.5 frac tie resolves to class 0
    assert ints == {0: 5, 1: 5}
    assert sum(ints.values()) == 10


def test_transition_csv_roundtrip(tmp_path):
    tm = TransitionMatrix(np.array([[0.9, 0.1], [1 / 3, 2 / 3]]), 7.0, (0, 2))
    p = tmp_path / "tm.csv"
    write_transition_csv(tm, p)
    text = p.read_text(encoding="utf-8")
    assert text.startswith("# time_span: 7.0\n")
    back = read_transition_csv(p)
    assert back.class_ids == (0, 2)
    assert back.time_span == 7.0
    assert np.array_equal(back.probs, tm.probs)  # repr round-trips exactly


def test_transition_csv_read_errors(tmp_path):
    with pytest.raises(DataError, match=r"nope\.csv: cannot read transition matrix"):
        read_transition_csv(tmp_path / "nope.csv")
    p = tmp_path / "bad.csv"
    p.write_text("class,0,1\n0,1.0,0.0\n1,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="time_span"):
        read_transition_csv(p)
    p.write_text("# time_span: 1.0\n0,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="'class' header"):
        read_transition_csv(p)
    p.write_text("# time_span: 1.0\nclass,0,1\n1,1.0,0.0\n0,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="row order"):
        read_transition_csv(p)
    p.write_text("# time_span: 1.0\nclass,0,1\n0,1.0,0.0\n1,0.0,1.0\n2,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected 2 rows, got 3"):
        read_transition_csv(p)
    p.write_text("# time_span: 1.0\nclass,0,1\n0,1.0\n1,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 0 needs 2 entries, got 1"):
        read_transition_csv(p)
    p.write_text('# time_span: 1.0\nclass,0\n0,"' + "1" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.csv: malformed CSV: field larger than field limit"):
        read_transition_csv(p)
    # the matrix's own checks name the file too
    p.write_text("# time_span: inf\nclass,0,1\n0,1.0,0.0\n1,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.csv: time_span must be positive and finite, got inf"):
        read_transition_csv(p)
    p.write_text("# time_span: 1.0\nclass,0,1\n0,nan,0.5\n1,0.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.csv: transition probability 0 -> 0 must lie in \[0, 1\], got nan"):
        read_transition_csv(p)


_TM_TOKENS = st.sampled_from(
    ["0", "1", "2", "-1", "0.0", "-0.0", "0.5", "1.0", "0.25", "0.75", "1e-300", "nan", "inf", "-inf", "1e400",
     "x", "", " 1", '"1"', "1,5", "\r", "\x00"]
)
_TM_ROW = st.lists(_TM_TOKENS, min_size=1, max_size=4).map(",".join)
_TM_SPAN = st.sampled_from(
    ["# time_span: 6.0", "# time_span: nan", "# time_span: inf", "# time_span: -1", "# time_span: 0",
     "# time_span:", "# time_span: 5e-324", "time_span: 1", ""]
)
_TM_HEADER = st.sampled_from(["class,0,1", "class,0,1,2", "class", "class,1,0", "class,0,0", "class,-1,0", "class,x"])
_GOOD_TM = "# time_span: 6.0\nclass,0,1\n0,0.75,0.25\n1,0.0,1.0\n"


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(_TM_SPAN, _TM_HEADER, st.lists(_TM_ROW, max_size=4)).map(lambda t: "\n".join([t[0], t[1], *t[2]])),
    st.lists(st.sampled_from(_GOOD_TM.splitlines()), max_size=6).map("\n".join),
    st.text(max_size=200),
))
def test_transition_reader_gives_a_matrix_or_a_landchange_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("tm") / "tm.csv"
    p.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        tm = read_transition_csv(p)
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert isinstance(tm, TransitionMatrix)
    assert np.isfinite(tm.time_span) and tm.time_span > 0
    assert len(set(tm.class_ids)) == len(tm.class_ids) and min(tm.class_ids) >= 0
    assert np.all((tm.probs >= 0) & (tm.probs <= 1))
    assert np.all(np.abs(tm.probs.sum(axis=1) - 1.0) <= 1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_transition_csv_roundtrip_is_bit_exact(tmp_path_factory, k, data):
    ids = data.draw(st.lists(st.integers(0, 300), min_size=k, max_size=k, unique=True))
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))).reshape(k, k)
    sums = raw.sum(axis=1, keepdims=True)
    probs = np.where(sums > 0, raw / np.where(sums > 0, sums, 1.0), np.eye(k))
    span = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    tm = TransitionMatrix(probs, span, tuple(ids))
    p = tmp_path_factory.mktemp("tm") / "tm.csv"
    write_transition_csv(tm, p)
    back = read_transition_csv(p)
    assert back.class_ids == tm.class_ids
    assert np.float64(back.time_span).tobytes() == np.float64(tm.time_span).tobytes()
    assert back.probs.tobytes() == tm.probs.tobytes()


def test_second_order_and_areas_csv(tmp_path):
    m1 = _lcm([[0.0, 1.0]])
    tbl = SecondOrderTable(
        probs=np.tile(np.eye(2), (2, 1, 1)).reshape(2, 2, 2),
        fallback=np.zeros((2, 2), dtype=bool),
        class_ids=(0, 1),
        first_order=TransitionMatrix(np.eye(2), 1.0, (0, 1)),
    )
    p = tmp_path / "so.csv"
    write_second_order_csv(tbl, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "previous,current,next,probability,fallback"
    assert len(lines) == 1 + 8

    q = tmp_path / "areas.csv"
    write_expected_areas_csv({0: 4.5, 1: 5.5}, {0: 4, 1: 6}, q)
    lines = q.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class_id,expected_pixels,target_pixels"
    assert lines[1] == "0,4.5,4"
