"""Ranked allocation, cellular pass, clumping metrics."""

import numpy as np
import pytest

from landchange.allocate import (
    AllocationLogRow,
    AllocationTargets,
    CaParams,
    ca_markov,
    contiguity_filter,
    contiguity_weights,
    converted_adjacency_fraction,
    mean_same_class_neighbor_fraction,
    mola,
    random_allocation,
    write_allocation_log_csv,
)
from landchange.errors import DataError
from landchange.grid import BinaryMask, Grid, LandCoverMap, grids_equal, neighbor_counts
from landchange.markov import TransitionMatrix, expected_areas, largest_remainder


def _grid(vals):
    return Grid(np.asarray(vals, dtype=np.float64), 1.0)


def _lcm(vals, legend):
    return LandCoverMap(_grid(vals), legend)


def _shifted(labels, fill):
    """The eight neighbor views of labels, padded with fill outside the map."""
    n_rows, n_cols = labels.shape
    pad = np.full((n_rows + 2, n_cols + 2), fill, dtype=np.int64)
    pad[1:-1, 1:-1] = labels
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                yield pad[1 + dr : 1 + dr + n_rows, 1 + dc : 1 + dc + n_cols]


def _ref_same_class_neighbor_fraction(lc):
    labels = lc.labels
    same = np.zeros(labels.shape)
    avail = np.zeros(labels.shape)
    for nb in _shifted(labels, -1):
        avail += nb >= 0
        same += (nb == labels) & (nb >= 0)
    ok = (labels >= 0) & (avail > 0)
    if not ok.any():
        raise DataError("map has no valid pixels with neighbors")
    return float(np.mean(same[ok] / avail[ok]))


def _ref_converted_adjacency_fraction(before, after):
    b, a = before.labels, after.labels
    changed = (b >= 0) & (a >= 0) & (b != a)
    if not changed.any():
        raise DataError("no converted pixels to measure")
    touches = np.zeros(b.shape, dtype=bool)
    for nb in _shifted(b, -2):
        touches |= nb == a
    return float(np.count_nonzero(touches & changed)) / float(np.count_nonzero(changed))


def _random_maps(seed, n_maps, ids=(0, 3, 7)):
    """Pairs of maps with gapped class ids and nodata, 1 x n and n x 1 shapes included."""
    rng = np.random.default_rng(seed)
    legend = {c: f"c{c}" for c in ids}
    for _ in range(n_maps):
        shape = tuple(rng.integers(1, 9, size=2))
        pair = []
        for _ in range(2):
            vals = rng.choice(ids, size=shape).astype(np.float64)
            vals[rng.random(shape) < rng.choice([0.0, 0.2, 0.6])] = -9999.0
            pair.append(_lcm(vals, legend))
        yield pair


def _same_outcome(fn, ref, *args):
    try:
        want = ref(*args)
    except DataError as e:
        with pytest.raises(DataError) as exc:
            fn(*args)
        assert str(exc.value) == str(e)
        return
    assert fn(*args) == want


def test_allocation_targets():
    t = AllocationTargets({0: 3, 1: 2})
    assert t.total == 5
    with pytest.raises(DataError, match="non-negative"):
        AllocationTargets({0: -1})
    with pytest.raises(DataError, match="no allocation"):
        AllocationTargets({})


def test_mola_contested_pixel_goes_to_better_rank():
    suits = {
        0: _grid([[200.0, 255.0, 100.0, 50.0]]),
        1: _grid([[255.0, 100.0, 240.0, 10.0]]),
    }
    out = mola(suits, AllocationTargets({0: 2, 1: 2}))
    # both want pixel 0; class 1 ranks it 0 vs class 0's rank 1
    assert out.grid.values.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_mola_rank_tie_goes_to_lowest_class_id():
    same = _grid([[255.0, 200.0, 100.0, 50.0]])
    out = mola({0: same, 1: same}, AllocationTargets({0: 2, 1: 2}))
    assert out.grid.values.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_mola_exact_and_deterministic():
    rng = np.random.default_rng(31)
    suits = {c: _grid(rng.integers(0, 256, size=(20, 20)).astype(float)) for c in range(3)}
    t = largest_remainder(np.array([0.5, 0.3, 0.2]) * 400, 400)
    targets = AllocationTargets({c: int(t[c]) for c in range(3)})
    a = mola(suits, targets)
    assert a.class_counts() == targets.targets
    b = mola(suits, targets)
    assert np.array_equal(a.grid.values, b.grid.values)


def test_mola_errors():
    g = _grid([[1.0, 2.0]])
    with pytest.raises(DataError, match="do not match"):
        mola({0: g}, AllocationTargets({0: 1, 1: 1}))
    with pytest.raises(DataError, match="eligible"):
        mola({0: g, 1: g}, AllocationTargets({0: 1, 1: 2}))


def test_contiguity_filter_hand_case():
    lc = _lcm([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], {0: "a", 1: "b"})
    out = contiguity_filter(lc, 1, kernel_size=3)
    assert out.values[1, 1] == pytest.approx(3 / 8)
    assert out.values[0, 0] == pytest.approx(2 / 3)  # corner: 3 neighbors, 2 same
    assert out.values[0, 1] == pytest.approx(2 / 5)
    assert out.values[2, 2] == 0.0


def test_contiguity_filter_nodata_and_validation():
    lc = _lcm([[1.0, -9999.0], [0.0, 1.0]], {0: "a", 1: "b"})
    out = contiguity_filter(lc, 1, kernel_size=3)
    assert out.values[0, 1] == -9999.0
    assert out.values[0, 0] == pytest.approx(1 / 2)  # nodata neighbor not counted
    for k in (2, 1, -3):
        with pytest.raises(DataError, match="odd"):
            contiguity_filter(lc, 1, kernel_size=k)


def _contiguity_reference(current, class_id, kernel_size):
    """One class at a time, each with its own labels and valid-neighbor sum."""
    labels = current.labels
    radius = kernel_size // 2
    n_valid = neighbor_counts(labels >= 0, radius)
    n_same = neighbor_counts(labels == int(class_id), radius)
    out = np.zeros(labels.shape)
    nz = n_valid > 0
    out[nz] = n_same[nz] / n_valid[nz]
    out[labels < 0] = current.grid.nodata_value
    return out


def test_contiguity_weights_match_per_class_reference():
    rng = np.random.default_rng(21)
    ids = (0, 3, 7)
    for _ in range(60):
        shape = tuple(int(n) for n in rng.integers(1, 15, size=2))
        vals = rng.choice(np.array(ids, dtype=np.float64), size=shape)
        vals[rng.random(shape) < 0.15] = -9999.0
        lc = _lcm(vals, {c: str(c) for c in ids})
        kernel = int(rng.choice([3, 5, 7]))
        weights = contiguity_weights(lc, (*ids, 9), kernel)
        assert sorted(weights) == [0, 3, 7, 9]
        for c in (*ids, 9):  # 9 is absent from the map: all zeros
            want = _contiguity_reference(lc, c, kernel)
            assert weights[c].tobytes() == want.tobytes()
            assert contiguity_filter(lc, c, kernel).values.tobytes() == want.tobytes()
    with pytest.raises(DataError, match="odd"):
        contiguity_weights(lc, ids, 4)


def test_ca_params():
    p = CaParams(iterations=4)
    assert p.fractions == (0.25, 0.5, 0.75, 1.0)
    CaParams(iterations=2, fractions=(0.3, 1.0))
    with pytest.raises(DataError, match="iterations"):
        CaParams(iterations=0)
    with pytest.raises(DataError, match="odd"):
        CaParams(kernel_size=4)
    with pytest.raises(DataError, match="fractions"):
        CaParams(iterations=2, fractions=(1.0,))
    with pytest.raises(DataError, match="increase strictly"):
        CaParams(iterations=2, fractions=(0.6, 0.5))
    with pytest.raises(DataError, match="exactly 1"):
        CaParams(iterations=2, fractions=(0.3, 0.9))


def test_ca_markov_identity_transition_changes_nothing():
    rng = np.random.default_rng(7)
    lc = _lcm(rng.integers(0, 2, size=(12, 12)).astype(float), {0: "a", 1: "b"})
    suits = {c: _grid(rng.integers(0, 256, size=(12, 12)).astype(float)) for c in (0, 1)}
    tm = TransitionMatrix(np.eye(2), 1.0, (0, 1))
    out, log = ca_markov(lc, tm, suits, CaParams(iterations=3, kernel_size=3))
    assert grids_equal(out.grid, lc.grid)
    assert all(row.allocated == row.target for row in log)


def test_ca_markov_hits_projected_counts():
    rng = np.random.default_rng(9)
    lc = _lcm(rng.integers(0, 2, size=(16, 16)).astype(float), {0: "a", 1: "b"})
    suits = {c: _grid(rng.random((16, 16)) * 255) for c in (0, 1)}
    tm = TransitionMatrix(np.array([[0.7, 0.3], [0.0, 1.0]]), 1.0, (0, 1))
    _, finals = expected_areas(lc, tm)
    out, log = ca_markov(lc, tm, suits, CaParams(iterations=4, kernel_size=3))
    assert out.class_counts() == finals
    assert log[-1].allocated == log[-1].target


def test_ca_markov_errors():
    lc = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    g = _grid([[1.0, 2.0]])
    tm = TransitionMatrix(np.eye(2), 1.0, (0, 1))
    with pytest.raises(DataError, match="suitability classes"):
        ca_markov(lc, tm, {0: g})
    with pytest.raises(DataError, match="transition classes"):
        ca_markov(lc, TransitionMatrix(np.eye(2), 1.0, (0, 2)), {0: g, 1: g})


def test_random_allocation():
    lc = _lcm([[0.0] * 10], {0: "a", 1: "b"})
    t = AllocationTargets({0: 6, 1: 4})
    a = random_allocation(lc, t, seed=3)
    assert a.class_counts() == {0: 6, 1: 4}
    b = random_allocation(lc, t, seed=3)
    assert np.array_equal(a.grid.values, b.grid.values)
    c = random_allocation(lc, t, seed=4)
    assert not np.array_equal(a.grid.values, c.grid.values)
    with pytest.raises(DataError, match="eligible"):
        random_allocation(lc, AllocationTargets({0: 1}), seed=0)


def test_same_class_neighbor_fraction():
    assert mean_same_class_neighbor_fraction(_lcm([[1.0, 1.0], [1.0, 1.0]], {1: "x"})) == 1.0
    # checkerboard: every pixel has 3 neighbors, exactly 1 matching
    chk = _lcm([[0.0, 1.0], [1.0, 0.0]], {0: "a", 1: "b"})
    assert mean_same_class_neighbor_fraction(chk) == pytest.approx(1 / 3)
    for lc, _ in _random_maps(seed=11, n_maps=150):
        _same_outcome(mean_same_class_neighbor_fraction, _ref_same_class_neighbor_fraction, lc)


def test_converted_adjacency():
    before = _lcm([[1.0, 0.0, 0.0]], {0: "a", 1: "b"})
    grown = _lcm([[1.0, 1.0, 0.0]], {0: "a", 1: "b"})
    assert converted_adjacency_fraction(before, grown) == 1.0
    jumped = _lcm([[1.0, 0.0, 1.0]], {0: "a", 1: "b"})
    assert converted_adjacency_fraction(before, jumped) == 0.0
    with pytest.raises(DataError, match="no converted"):
        converted_adjacency_fraction(before, before)
    for b, a in _random_maps(seed=12, n_maps=150):
        _same_outcome(converted_adjacency_fraction, _ref_converted_adjacency_fraction, b, a)


def test_allocation_log_csv(tmp_path):
    rows = [AllocationLogRow(1, 0, 10, 10), AllocationLogRow(1, 1, 5, 5)]
    p = tmp_path / "log.csv"
    write_allocation_log_csv(rows, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines == ["iteration,class_id,target,allocated", "1,0,10,10", "1,1,5,5"]
