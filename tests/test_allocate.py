"""Ranked allocation, cellular pass, clumping metrics."""

import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange import allocate
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
from landchange.cli import main
from landchange.errors import DataError, GeometryError
from landchange.grid import BinaryMask, Grid, LandCoverMap, grids_equal, neighbor_counts, read_ascii_grid, read_legend
from landchange.markov import TransitionMatrix, expected_areas, largest_remainder, read_transition_csv


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


def _ref_mola(suitabilities, targets, legend=None, date_tag=""):
    """The arbitration `mola` used before rank scatter: every round, all
    claims concatenated and sorted by (pixel, rank, class id), the first
    claim on each pixel winning."""
    if set(targets.targets) != set(suitabilities):
        raise DataError(
            f"target classes {sorted(targets.targets)} do not match suitability classes {sorted(suitabilities)}"
        )
    class_ids = sorted(suitabilities)
    geometry = suitabilities[class_ids[0]]
    flat_eligible = np.flatnonzero(np.logical_and.reduce([g.valid.ravel() for g in suitabilities.values()]))
    if targets.total != flat_eligible.size:
        raise DataError(f"targets sum to {targets.total} but {flat_eligible.size} pixels are eligible")
    n_cells = geometry.shape[0] * geometry.shape[1]
    keys = {c: -suitabilities[c].values.ravel()[flat_eligible] for c in class_ids}
    orders, ranks = allocate._class_orders(keys, flat_eligible, n_cells)
    assigned = np.full(n_cells, -1, dtype=np.int64)
    remaining = {c: targets.targets[c] for c in class_ids}
    cursor = {c: 0 for c in class_ids}
    rounds = 0
    while any(v > 0 for v in remaining.values()):
        rounds += 1
        claim_pixels, claim_ranks, claim_class = [], [], []
        for c in class_ids:
            need = remaining[c]
            if need == 0:
                continue
            seg = orders[c][cursor[c] :]
            take = np.flatnonzero(assigned[seg] < 0)[:need]
            if take.size == 0:
                raise DataError(f"class {c} ran out of pixels with {need} still to allocate")
            picked = seg[take]
            cursor[c] += int(take[-1]) + 1
            claim_pixels.append(picked)
            claim_ranks.append(ranks[c][picked])
            claim_class.append(np.full(picked.size, c, dtype=np.int64))
        pixels = np.concatenate(claim_pixels)
        rnk = np.concatenate(claim_ranks)
        cls = np.concatenate(claim_class)
        order = np.lexsort((cls, rnk, pixels))
        pixels, cls = pixels[order], cls[order]
        uniq, first_idx = np.unique(pixels, return_index=True)
        winners = cls[first_idx]
        assigned[uniq] = winners
        for c, n in zip(*np.unique(winners, return_counts=True)):
            remaining[int(c)] -= int(n)
    out = np.full(n_cells, geometry.nodata_value)
    out[flat_eligible] = assigned[flat_eligible].astype(np.float64)
    if legend is None:
        legend = {c: f"class {c}" for c in class_ids}
    return LandCoverMap(geometry.with_values(out.reshape(geometry.shape)), legend, date_tag), rounds


_shapes = st.one_of(
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
)


@st.composite
def _mola_cases(draw):
    """Suitabilities with heavy rank ties and per-class nodata over 1-5
    gapped class ids, targets that fit the eligible count (or miss it by
    one), and optionally one class whose ranked order is cut short so it
    runs out of pixels."""
    shape = draw(_shapes)
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    n_levels = draw(st.sampled_from([1, 2, 3, 256]))
    nodata_p = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    suits = {}
    for c in ids:
        vals = rng.integers(0, n_levels, size=shape).astype(np.float64)
        vals[rng.random(shape) < nodata_p] = -9999.0
        suits[c] = _grid(vals)
    eligible = int(np.all([g.valid for g in suits.values()], axis=0).sum())
    # a skewed split makes the favoured classes contest the same pixels
    # and forces later rounds
    split = rng.multinomial(eligible, rng.dirichlet(np.full(len(ids), 0.3)))
    targets = {c: int(n) for c, n in zip(ids, split)}
    off = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    if off and targets[ids[0]] + off >= 0:
        targets[ids[0]] += off
    cut = draw(st.sampled_from([0, 0, 0, 1, 3]))
    return suits, AllocationTargets(targets), cut


def _cut_last_class(cut):
    """_class_orders with the last class's ranked order `cut` pixels short."""
    real = allocate._class_orders

    def class_orders(keys, flat_eligible, n_cells):
        orders, ranks = real(keys, flat_eligible, n_cells)
        last = max(orders)
        orders[last] = orders[last][: max(orders[last].size - cut, 0)]
        return orders, ranks

    return class_orders


@settings(max_examples=400, deadline=None)
@given(_mola_cases())
@example(  # three rounds; round 2 is a rank tie, which class 0 wins
    ({0: _grid([[3.0, 1.0, 4.0, 2.0]]), 1: _grid([[4.0, 1.0, 3.0, 2.0]])}, AllocationTargets({0: 2, 1: 2}), 0)
)
@example(({3: _grid([[5.0], [5.0], [1.0]]), 9: _grid([[5.0], [1.0], [5.0]])}, AllocationTargets({3: 2, 9: 1}), 0))
@example(({0: _grid([[2.0, 1.0, 3.0]]), 1: _grid([[2.0, 1.0, 3.0]])}, AllocationTargets({0: 1, 1: 2}), 2))
def test_mola_matches_lexsort_arbitration(case):
    suits, targets, cut = case
    with mock.patch.object(allocate, "_class_orders", _cut_last_class(cut)):
        try:
            want, _ = _ref_mola(suits, targets, {c: "x" for c in suits}, "2000")
        except DataError as e:
            with pytest.raises(DataError) as exc:
                mola(suits, targets, {c: "x" for c in suits}, "2000")
            assert str(exc.value) == str(e)
            return
        got = mola(suits, targets, {c: "x" for c in suits}, "2000")
    assert got.grid.values.tobytes() == want.grid.values.tobytes()
    assert got.grid.nodata_value == want.grid.nodata_value
    assert (got.legend, got.date_tag) == (want.legend, want.date_tag)


def test_mola_reference_cases_cover_several_rounds_and_running_out():
    # the oracle's inputs reach what the rule has to get right
    rounds = _ref_mola(
        {0: _grid([[3.0, 1.0, 4.0, 2.0]]), 1: _grid([[4.0, 1.0, 3.0, 2.0]])}, AllocationTargets({0: 2, 1: 2})
    )[1]
    assert rounds == 3
    with mock.patch.object(allocate, "_class_orders", _cut_last_class(2)):
        with pytest.raises(DataError, match="class 1 ran out of pixels with 2 still to allocate"):
            mola({0: _grid([[2.0, 1.0, 3.0]]), 1: _grid([[2.0, 1.0, 3.0]])}, AllocationTargets({0: 1, 1: 2}))


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
    CaParams(iterations=4)
    with pytest.raises(DataError, match="iterations"):
        CaParams(iterations=0)
    with pytest.raises(DataError, match="odd"):
        CaParams(kernel_size=4)


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


@pytest.mark.parametrize(
    "misregister",
    [
        lambda g: Grid(g.values[1:], g.cell_size),  # cropped by one row
        lambda g: Grid(g.values, g.cell_size, x_origin=5000.0),  # shifted 5 km east
    ],
    ids=["cropped", "shifted"],
)
@pytest.mark.parametrize("tm", [np.eye(2), np.array([[0.7, 0.3], [0.0, 1.0]])], ids=["stable", "changing"])
def test_ca_markov_refuses_misregistered_suitabilities(misregister, tm):
    # the suitabilities must share the map's geometry even where nothing
    # is allocated
    rng = np.random.default_rng(3)
    lc = _lcm(rng.integers(0, 2, size=(8, 8)).astype(float), {0: "a", 1: "b"})
    suits = {c: _grid(rng.random((8, 8)) * 255) for c in (0, 1)}
    suits[1] = misregister(suits[1])
    with pytest.raises(GeometryError, match="^ca_markov: grid 2 geometry"):
        ca_markov(lc, TransitionMatrix(tm, 1.0, (0, 1)), suits, CaParams(iterations=2, kernel_size=3))


def _ref_ca_markov(current, tm, suitabilities, params):
    """The cellular pass as it was before the integer key: every iteration
    builds float grids of suitability * (floor + contiguity) and `mola`
    ranks them by their negated values."""
    ids = sorted(suitabilities)
    eligible = current.grid.valid
    for c in ids:
        eligible = eligible & suitabilities[c].valid
    _, finals = expected_areas(current, tm)
    initial = current.class_counts()
    init_vec = np.array([initial[c] for c in ids], dtype=np.float64)
    final_vec = np.array([finals[c] for c in ids], dtype=np.float64)
    total = int(init_vec.sum())
    state, now, log = current, initial, []
    for it in range(1, params.iterations + 1):
        reals = init_vec + it / params.iterations * (final_vec - init_vec)
        wanted = {c: int(t) for c, t in zip(ids, largest_remainder(reals, total))}
        if any(wanted[c] != now.get(c, 0) for c in ids):
            effective = {}
            for c in ids:
                contiguity = _contiguity_reference(state, c, params.kernel_size)
                vals = suitabilities[c].values * (allocate.CONTIGUITY_FLOOR + contiguity)
                vals[~eligible] = -9999.0
                effective[c] = state.grid.with_values(vals, nodata_value=-9999.0)
            state = mola(effective, AllocationTargets(wanted), dict(current.legend), current.date_tag)
            now = state.class_counts()
        log.extend(AllocationLogRow(it, c, wanted[c], now.get(c, 0)) for c in ids)
    return state, log


def _same_allocation(got, want):
    (got_map, got_log), (want_map, want_log) = got, want
    assert got_map.grid.values.tobytes() == want_map.grid.values.tobytes()
    assert got_map.grid.nodata_value == want_map.grid.nodata_value
    assert (got_map.legend, got_map.date_tag, got_log) == (want_map.legend, want_map.date_tag, want_log)


@st.composite
def _cellular_cases(draw):
    """A map with nodata and isolated cells over gapped class ids, byte
    suitabilities with heavy ties (some holding data where the map has
    none), now and then one that is not bytes, a random transition matrix
    and kernel 3 or 5 (key table) or 7 (float key)."""
    shape = draw(_shapes)
    ids = sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.choice(ids, size=shape).astype(np.float64)
    vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = -9999.0
    current = LandCoverMap(_grid(vals), {c: f"c{c}" for c in ids}, "1994")
    n_levels = draw(st.sampled_from([1, 2, 5, 256]))
    suits = {}
    for c in ids:
        s = rng.integers(0, n_levels, size=shape).astype(np.float64)
        s[(vals == -9999.0) & (rng.random(shape) < 0.5)] = -9999.0
        suits[c] = _grid(s)
    if draw(st.booleans()) and draw(st.booleans()):
        suits[ids[-1]] = _grid(np.where(suits[ids[-1]].valid, suits[ids[-1]].values + 0.5, -9999.0))
    probs = rng.dirichlet(np.full(len(ids), 0.5), size=len(ids))
    tm = TransitionMatrix(probs, 1.0, tuple(ids))
    params = CaParams(iterations=draw(st.integers(1, 4)), kernel_size=draw(st.sampled_from([3, 5, 7])))
    return current, tm, suits, params


@settings(max_examples=300, deadline=None)
@given(_cellular_cases())
def test_ca_markov_matches_the_float_path(case):
    current, tm, suits, params = case
    _same_allocation(ca_markov(current, tm, suits, params), _ref_ca_markov(current, tm, suits, params))


@settings(max_examples=300, deadline=None)
@given(_cellular_cases())
@example(  # an isolated cell: no valid neighbor in the window, weight = floor
    (_lcm([[0.0, -9999.0, -9999.0], [-9999.0, -9999.0, 1.0]], {0: "a", 1: "b"}), None,
     {0: _grid([[7.0, 0.0, 3.0], [1.0, 2.0, 7.0]]), 1: _grid([[7.0, 5.0, 3.0], [1.0, 2.0, 0.0]])},
     CaParams(kernel_size=3))
)
def test_key_order_is_the_stable_order_of_the_float_product(case):
    current, _, suits, params = case
    ids = sorted(suits)
    k = params.kernel_size
    labels = current.labels
    cells = np.flatnonzero(current.grid.valid.ravel())
    n_valid = neighbor_counts(labels >= 0, k // 2).ravel()[cells]
    table = allocate._key_table(k)
    assert (table is None) == (k == 7)  # kernels 3 and 5 have a table, 7 has too many products
    for c in ids:
        values = suits[c].values.ravel()[cells]
        product = values * (allocate.CONTIGUITY_FLOOR + _contiguity_reference(current, c, k).ravel()[cells])
        n_same = neighbor_counts(labels == c, k // 2).ravel()[cells]
        as_bytes = allocate._as_bytes(values)
        if table is None or as_bytes is None:
            key = allocate._weighted_key(values, n_same, n_valid, None, k)
            assert key.tobytes() == (-product).tobytes()
            continue
        key = allocate._weighted_key(as_bytes, n_same, n_valid, table, k)
        assert key.dtype == np.uint16
        assert np.array_equal(np.argsort(key, kind="stable"), np.argsort(-product, kind="stable"))
        # equal products, and only those, share a rank
        assert np.array_equal(np.unique(key, return_inverse=True)[1], np.unique(-product, return_inverse=True)[1])


def test_key_table_ranks_every_product_and_is_never_built_large():
    for k, n_distinct in ((3, None), (5, 43_716)):
        table = allocate._key_table(k)
        m = k * k - 1
        n_valid, n_same, byte = np.meshgrid(np.arange(m + 1), np.arange(m + 1), np.arange(256), indexing="ij")
        pairs = (n_same <= n_valid).ravel()
        frac = np.divide(n_same, n_valid, out=np.zeros(n_same.shape), where=n_valid > 0)
        product = (byte * (allocate.CONTIGUITY_FLOOR + frac)).ravel()[pairs]
        assert np.array_equal(table[pairs], np.unique(-product, return_inverse=True)[1])
        assert n_distinct is None or int(table.max()) + 1 == n_distinct
        assert not table.flags.writeable
    for k in (7, 9, 131, 10_001):
        assert allocate._key_table(k) is None


@pytest.mark.parametrize("kernel", [7, 131])
def test_large_kernels_run_the_shipped_scenario_as_the_float_path(tmp_path, kernel):
    # kernel 131 spans the whole 128 x 128 map; a key table sized by
    # kernel**4 would not fit in memory
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    text = ini.read_text(encoding="ascii")
    assert "kernel = 5\n" in text
    ini.write_text(text.replace("kernel = 5\n", f"kernel = {kernel}\n"), encoding="ascii")
    out = tmp_path / "o"
    assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == 0
    current = LandCoverMap(read_ascii_grid(sc / "map_1994.asc"), read_legend(sc / "legend.csv"), "1994")
    suits = {c: read_ascii_grid(out / f"suit_{c}.asc") for c in current.class_ids}
    tm = read_transition_csv(out / "transition_scaled.csv")
    want, _ = _ref_ca_markov(current, tm, suits, CaParams(iterations=4, kernel_size=kernel))
    assert read_ascii_grid(out / "predicted_ca.asc").values.tobytes() == want.grid.values.tobytes()


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
