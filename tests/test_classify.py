"""Gaussian signatures, maximum likelihood, ICM smoothing, accuracy scores."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange import classify
from landchange.classify import (
    SCORE_NODATA,
    ClassSignature,
    ConfusionMatrix,
    confusion,
    estimate_signatures,
    icm,
    kappa,
    maxlike,
    overall_accuracy,
    potts_objective,
    producer_accuracy,
    residual_map,
    write_confusion_csv,
    write_signatures_csv,
)
from landchange.errors import DataError, NumericalError
from landchange.grid import Grid, LandCoverMap, MultiBandImage


def _image(*band_values):
    grids = [Grid(np.asarray(v, dtype=np.float64), 1.0) for v in band_values]
    return MultiBandImage(tuple(grids), tuple(f"b{i}" for i in range(len(grids))))


def _map(vals, legend):
    return LandCoverMap(Grid(np.asarray(vals, dtype=np.float64), 1.0), legend)


def test_signatures_match_numpy_moments():
    rng = np.random.default_rng(0)
    a = rng.normal(10, 2, size=(8, 8))
    b = rng.normal(30, 5, size=(8, 8))
    labels = np.zeros((8, 8))
    labels[4:, :] = 1.0
    img = _image(a, b)
    sigs = estimate_signatures(img, _map(labels, {0: "lo", 1: "hi"}))
    assert [s.class_id for s in sigs] == [0, 1]
    s0 = sigs[0]
    x = np.column_stack([a[:4].ravel(), b[:4].ravel()])
    assert s0.sample_count == 32
    assert s0.prior == 0.5
    np.testing.assert_allclose(s0.mean, x.mean(axis=0), rtol=0, atol=0)
    cov = np.cov(x, rowvar=False, ddof=1)
    delta = 1e-6 * np.trace(cov) / 2
    np.testing.assert_allclose(s0.covariance, cov + delta * np.eye(2), rtol=0, atol=0)


def test_signatures_constant_class_gets_absolute_floor():
    img = _image(np.full((4, 4), 7.0))
    labels = np.zeros((4, 4))
    labels[2:, :] = 1.0
    sigs = estimate_signatures(img, _map(labels, {0: "a", 1: "b"}))
    # zero covariance trace would leave the matrix singular
    assert sigs[0].covariance[0, 0] == 1e-6


def test_signatures_errors():
    img = _image(np.zeros((2, 2)), np.zeros((2, 2)))
    labels = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DataError, match="needs at least 3"):
        estimate_signatures(img, _map(labels, {0: "a", 1: "b"}))
    masked = _map(np.full((2, 2), -9999.0), {0: "a"})
    with pytest.raises(DataError, match="no class"):
        estimate_signatures(_image(np.zeros((2, 2))), masked)


def _two_sigs(prior0=0.5):
    s0 = ClassSignature(0, np.array([0.0]), np.array([[1.0]]), prior0, 10)
    s1 = ClassSignature(1, np.array([4.0]), np.array([[1.0]]), 1.0 - prior0, 10)
    return [s0, s1]


def test_maxlike_matches_hand_scores():
    img = _image([[0.0, 4.0, 2.0, -9999.0]])
    lc, scores = maxlike(img, _two_sigs())
    # midpoint 2.0 is an exact tie, which goes to the lower id
    assert lc.grid.values.tolist() == [[0.0, 1.0, 0.0, -9999.0]]
    # score = ln(prior) - 0.5*ln(det) - 0.5*(x-mean)^2 / var
    expect = np.log(0.5) - 0.5 * 0.0 - 0.5 * (np.array([0.0, 4.0, 2.0]) - 0.0) ** 2
    np.testing.assert_allclose(scores[0].values[0, :3], expect, rtol=0, atol=1e-15)
    assert scores[0].values[0, 3] == SCORE_NODATA
    assert scores[0].nodata_value == SCORE_NODATA


def test_maxlike_priors_shift_the_boundary():
    img = _image([[2.0]])
    lc_emp, _ = maxlike(img, _two_sigs(prior0=0.9))
    assert lc_emp.grid.values[0, 0] == 0.0  # heavy prior pulls the tie
    lc_eq, _ = maxlike(img, _two_sigs(prior0=0.9), priors_mode="equal")
    assert lc_eq.grid.values[0, 0] == 0.0  # equal priors keep the exact tie, lower id
    lc_her, _ = maxlike(img, _two_sigs(prior0=0.1))
    assert lc_her.grid.values[0, 0] == 1.0


def test_maxlike_errors():
    img = _image([[0.0]])
    with pytest.raises(DataError):
        maxlike(img, [])
    with pytest.raises(DataError, match="priors_mode"):
        maxlike(img, _two_sigs(), priors_mode="flat")
    dup = _two_sigs() + [_two_sigs()[0]]
    with pytest.raises(DataError, match="duplicate"):
        maxlike(img, dup)
    with pytest.raises(NumericalError, match="non-positive prior"):
        maxlike(img, [ClassSignature(0, np.array([0.0]), np.array([[1.0]]), 0.0, 1)])
    bad_cov = [ClassSignature(0, np.array([0.0]), np.array([[-1.0]]), 1.0, 1)]
    with pytest.raises(NumericalError, match="positive definite"):
        maxlike(img, bad_cov)


def _ref_maxlike(image, signatures, priors_mode="empirical"):
    """maxlike cell by cell in plain Python floats, each score's terms added
    in the order maxlike writes out: t_i = d_0*inv[i,0] + d_1*inv[i,1] + ...,
    then d_0*t_0 + d_1*t_1 + ..., each sum from its first product. The
    label is the first best score, a nan counting as best, as np.argmax
    takes it. Returns the label grid's and the score grids' values."""
    sigs = sorted(signatures, key=lambda s: s.class_id)
    k = len(sigs)
    classes = []
    for sig in sigs:
        prior = 1.0 / k if priors_mode == "equal" else sig.prior
        _, logdet = np.linalg.slogdet(sig.covariance)
        head = float(np.log(prior) - 0.5 * logdet)
        classes.append((head, np.linalg.inv(sig.covariance).tolist(), sig.mean.tolist()))
    geometry = image.geometry
    valid = geometry.valid
    for band in image.bands[1:]:
        valid &= band.valid
    labels = np.full(geometry.shape, -9999.0)
    score_values = [np.full(geometry.shape, SCORE_NODATA) for _ in sigs]
    bands = [band.values.tolist() for band in image.bands]
    for r, c in zip(*np.nonzero(valid)):
        x = [band[r][c] for band in bands]
        scores = []
        for head, inv, mean in classes:
            d = [xj - mj for xj, mj in zip(x, mean)]
            quad = None
            for i, di in enumerate(d):
                t = d[0] * inv[i][0]
                for j in range(1, len(d)):
                    t = t + d[j] * inv[i][j]
                quad = di * t if quad is None else quad + di * t
            scores.append(head - 0.5 * quad)
        best = 0
        for idx in range(1, k):
            if math.isnan(scores[best]):
                break
            if math.isnan(scores[idx]) or scores[idx] > scores[best]:
                best = idx
        labels[r, c] = sigs[best].class_id
        for values, score in zip(score_values, scores):
            values[r, c] = score
    return labels, score_values


@st.composite
def _maxlike_cases(draw):
    """An image, its signatures, a priors mode and a `_BLOCK_CELLS`, which
    gives blocks of any height from one row to more than the grid. The
    shapes run from one cell to 12 x 12; cells, whole rows or every cell
    may be nodata, and a band may hold nan. Two classes may share one
    signature, so every cell is an exact tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    b = draw(st.integers(1, 4))
    shape = (n_rows, n_cols)
    integer = draw(st.booleans())  # small whole band values make ties common
    bands = []
    for _ in range(b):
        v = rng.integers(-3, 4, size=shape).astype(np.float64) if integer else rng.normal(50.0, 20.0, size=shape)
        v[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = -9999.0
        v[rng.random(shape) < draw(st.sampled_from([0.0, 0.0, 0.05]))] = np.nan
        bands.append(v)
    empty_rows = rng.random(n_rows) < draw(st.sampled_from([0.0, 0.3]))
    bands[0][empty_rows] = -9999.0
    k = draw(st.integers(1, 4))
    ids = sorted(draw(st.sets(st.integers(0, 20), min_size=k, max_size=k)))
    sigs = []
    for cid in ids:
        a = rng.normal(size=(b, b))
        cov = a @ a.T + rng.uniform(0.1, 2.0) * np.eye(b)
        mean = rng.normal(0.0, 30.0, size=b)
        sigs.append(ClassSignature(cid, mean, cov * rng.uniform(1.0, 100.0), rng.uniform(0.05, 1.0), 10))
    if k > 1 and draw(st.booleans()):
        sigs[1] = ClassSignature(ids[1], sigs[0].mean, sigs[0].covariance, sigs[0].prior, 10)
    priors = draw(st.sampled_from(["empirical", "equal"]))
    block_cells = draw(st.integers(1, n_rows + 2)) * n_cols + draw(st.integers(0, n_cols - 1))
    return _image(*bands), sigs, priors, block_cells


def _real_blocks_case():
    """A 300 x 300 two-band image, a third of its cells, some whole rows
    and a few nan cells masked, scored in blocks of the real size: six
    blocks of 54 rows, the last one shorter."""
    rng = np.random.default_rng(35)
    bands = [rng.normal(50.0, 20.0, size=(300, 300)) for _ in range(2)]
    bands[0][rng.random((300, 300)) < 0.33] = -9999.0
    bands[1][rng.random((300, 300)) < 0.01] = np.nan
    bands[0][rng.random(300) < 0.1] = -9999.0
    a = rng.normal(size=(2, 2))
    cov = a @ a.T
    sigs = [
        ClassSignature(c, rng.normal(50.0, 10.0, size=2), cov + np.eye(2) * (c + 1), 0.3 + 0.2 * c, 10)
        for c in (0, 1, 2)
    ]
    return _image(*bands), sigs, "empirical", classify._BLOCK_CELLS


_REAL_BLOCKS = _real_blocks_case()


def _maxlike_in_blocks(image, sigs, priors, block_cells):
    with mock.patch.object(classify, "_BLOCK_CELLS", block_cells):
        return maxlike(image, sigs, priors_mode=priors)


@settings(max_examples=300, deadline=None)
@given(_maxlike_cases())
@example(_REAL_BLOCKS)
@example((_image(np.full((2, 3), -9999.0)), _two_sigs(), "empirical", 3))  # no valid cell
@example((_image(np.array([[0.0, 4.0, 2.0, np.nan, 2.0]] * 3)), _two_sigs(), "equal", 4))  # ties and nan
def test_maxlike_in_any_block_height_matches_the_cell_by_cell_bits(case):
    image, sigs, priors, block_cells = case
    lc, scores = _maxlike_in_blocks(image, sigs, priors, block_cells)
    ref_labels, ref_scores = _ref_maxlike(image, sigs, priors)
    assert lc.grid.values.tobytes() == ref_labels.tobytes()
    assert lc.grid.nodata_value == -9999.0
    assert list(scores) == sorted(s.class_id for s in sigs)
    for g, ref in zip(scores.values(), ref_scores):
        assert g.nodata_value == SCORE_NODATA
        assert g.values.tobytes() == ref.tobytes()


def _one_cell_kept_case():
    """A 3 x 5 two-band grid, every cell valid, its middle cell kept: alone,
    that cell is a stack of one, which einsum summed in another order than
    the whole grid."""
    rng = np.random.default_rng(0)
    bands = [rng.normal(50.0, 20.0, size=(3, 5)) for _ in range(2)]
    a = rng.normal(size=(2, 2))
    sigs = [ClassSignature(c, rng.normal(0.0, 30.0, size=2), a @ a.T + np.eye(2) * (c + 1), 0.5, 10) for c in (0, 1)]
    keep = np.zeros((3, 5), dtype=bool)
    keep[1, 2] = True
    return (_image(*bands), sigs, "empirical", 15), keep


@st.composite
def _kept_cells(draw):
    """A maxlike case and the cells kept valid when the others are masked."""
    case = draw(_maxlike_cases())
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(case[0].geometry.shape)
    return case, keep < draw(st.sampled_from([0.1, 0.5, 0.9]))


@settings(max_examples=200, deadline=None)
@given(_kept_cells())
@example(_one_cell_kept_case())
def test_maxlike_scores_a_cell_alike_alone_or_among_others(kept):
    """The cells kept score the same bits, and get the same label, whether
    the other cells are valid or masked to nodata."""
    (image, sigs, priors, block_cells), keep = kept
    alone_band = image.bands[0].values.copy()
    alone_band[~keep] = image.bands[0].nodata_value
    alone = MultiBandImage((Grid(alone_band, 1.0), *image.bands[1:]), image.labels)
    lc, scores = _maxlike_in_blocks(image, sigs, priors, block_cells)
    lc_alone, scores_alone = _maxlike_in_blocks(alone, sigs, priors, block_cells)
    assert lc_alone.grid.values[keep].tobytes() == lc.grid.values[keep].tobytes()
    for cid, g in scores.items():
        assert scores_alone[cid].values[keep].tobytes() == g.values[keep].tobytes()


def test_quadratic_form_agrees_with_the_einsum_it_replaced():
    """`_quadratic_form` against the np.einsum("nb,bc,nc->n") form maxlike
    used before, on signed differences and matrices that are not symmetric,
    so that a swapped index shows. The two add the same b * b products in
    different orders, so they differ by rounding alone: at most (b + 1)**2
    units of 2**-53 of the sum of the products' magnitudes. Where no terms
    cancel, that sum is the value itself, and the bound is at most
    (b + 1)**2 ulp of it. On these draws the differences reach 5.3 units."""
    rng = np.random.default_rng(20)
    for b in range(1, 7):
        for _ in range(20):
            m = rng.normal(size=(b, b)) * 10.0 ** rng.uniform(-3, 3)
            d = rng.normal(0.0, 30.0, size=(200, b))
            old = np.einsum("nb,bc,nc->n", d, m, d)
            new = classify._quadratic_form(list(d.T), m)
            magnitude = np.einsum("nb,bc,nc->n", np.abs(d), np.abs(m), np.abs(d))
            assert np.all(np.abs(new - old) <= (b + 1) ** 2 * 2.0**-53 * magnitude)


def test_potts_objective_counts_pairs_once():
    lc = _map(np.zeros((2, 2)), {0: "a"})
    zero = {0: Grid(np.zeros((2, 2)), 1.0, nodata_value=SCORE_NODATA)}
    # 2 horizontal + 2 vertical + 2 diagonal same-label pairs
    assert potts_objective(lc, zero, beta=1.5) == 1.5 * 6
    mixed = _map(np.array([[0.0, 1.0], [1.0, 0.0]]), {0: "a", 1: "b"})
    scores = {
        0: Grid(np.full((2, 2), 2.0), 1.0, nodata_value=SCORE_NODATA),
        1: Grid(np.full((2, 2), 3.0), 1.0, nodata_value=SCORE_NODATA),
    }
    # checkerboard: only the two diagonals agree; scores 2+3+3+2
    assert potts_objective(mixed, scores, beta=0.5) == 10.0 + 0.5 * 2

    def reference(lc, scores, beta):
        # each unordered 8-adjacent pair once, through the E, S, SE and SW shifts
        labels = lc.labels
        total = sum(float(g.values[(labels == c) & g.valid].sum()) for c, g in scores.items())
        n_rows, n_cols = labels.shape
        pad = np.full((n_rows + 2, n_cols + 2), -1, dtype=np.int64)
        pad[1:-1, 1:-1] = labels
        pairs = 0
        for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
            nb = pad[1 + dr : 1 + dr + n_rows, 1 + dc : 1 + dc + n_cols]
            pairs += int(np.count_nonzero((labels == nb) & (labels >= 0)))
        return total + beta * pairs

    rng = np.random.default_rng(5)
    ids = (0, 3, 7)  # gapped ids
    for _ in range(150):
        shape = tuple(rng.integers(1, 9, size=2))
        vals = rng.choice(ids, size=shape).astype(np.float64)
        vals[rng.random(shape) < 0.2] = -9999.0
        lc = _map(vals, {c: f"c{c}" for c in ids})
        scores = {}
        for c in ids:
            sv = rng.standard_normal(shape)
            sv[rng.random(shape) < 0.1] = SCORE_NODATA
            scores[c] = Grid(sv, 1.0, nodata_value=SCORE_NODATA)
        assert potts_objective(lc, scores, 1.5) == reference(lc, scores, 1.5)


def test_icm_beta_zero_is_plain_argmax():
    rng = np.random.default_rng(3)
    img = _image(rng.normal(0, 3, size=(6, 6)))
    lc, scores = maxlike(img, _two_sigs())
    out = icm(lc, scores, beta=0.0, max_sweeps=5)
    assert np.array_equal(out.grid.values, lc.grid.values)


def test_icm_flips_isolated_pixel():
    labels = np.zeros((3, 3))
    labels[1, 1] = 1.0
    lc = _map(labels, {0: "a", 1: "b"})
    # the center weakly prefers its own label, neighbors outweigh it
    s0 = np.zeros((3, 3))
    s1 = np.full((3, 3), -10.0)
    s1[1, 1] = 1.0
    scores = {
        0: Grid(s0, 1.0, nodata_value=SCORE_NODATA),
        1: Grid(s1, 1.0, nodata_value=SCORE_NODATA),
    }
    out = icm(lc, scores, beta=1.0, max_sweeps=5)
    assert out.grid.values[1, 1] == 0.0


def test_icm_keeps_class_0_when_the_map_uses_nodata_0():
    # class 1 cells on NODATA_VALUE 0 that all flip to class 0 stay data
    lc = LandCoverMap(Grid(np.array([[1.0, 1.0, 0.0, 1.0]]), 1.0, nodata_value=0.0), {0: "a", 1: "b"})
    scores = {
        0: Grid(np.zeros((1, 4)), 1.0, nodata_value=SCORE_NODATA),
        1: Grid(np.full((1, 4), -10.0), 1.0, nodata_value=SCORE_NODATA),
    }
    out = icm(lc, scores, beta=1.0, max_sweeps=5)
    assert out.grid.nodata_value == -9999.0
    assert out.grid.values.tolist() == [[0.0, 0.0, -9999.0, 0.0]]


def test_icm_objective_never_decreases():
    rng = np.random.default_rng(9)
    for _ in range(3):
        k = 3
        scores = {
            c: Grid(rng.normal(size=(10, 10)), 1.0, nodata_value=SCORE_NODATA) for c in range(k)
        }
        init = _map(rng.integers(0, k, size=(10, 10)).astype(float), {c: str(c) for c in range(k)})
        prev = potts_objective(init, scores, beta=1.5)
        state = init
        for _sweep in range(4):
            state = icm(state, scores, beta=1.5, max_sweeps=1)
            cur = potts_objective(state, scores, beta=1.5)
            assert cur >= prev
            prev = cur


def test_icm_validation():
    lc = _map(np.zeros((2, 2)), {0: "a"})
    scores = {0: Grid(np.zeros((2, 2)), 1.0, nodata_value=SCORE_NODATA)}
    for beta in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError, match=f"beta must be finite and non-negative, got {beta}"):
            icm(lc, scores, beta=beta)
    with pytest.raises(DataError):
        icm(lc, scores, max_sweeps=0)
    with pytest.raises(DataError):
        icm(lc, {})
    lc2 = _map(np.array([[0.0, 1.0]]), {0: "a", 1: "b"})
    with pytest.raises(DataError, match=r"^icm: score classes \[0\] do not match initial map classes \[0, 1\]$"):
        icm(lc2, {0: Grid(np.zeros((1, 2)), 1.0, nodata_value=SCORE_NODATA)})


def _ref_icm(initial, scores, beta, max_sweeps):
    """The raster-order ICM loop over Python lists that icm must match bit for bit."""
    class_ids = sorted(scores)
    labels = initial.labels
    n_rows, n_cols = initial.grid.shape
    w = n_cols + 2
    k = len(class_ids)
    ids_arr = np.asarray(class_ids, dtype=np.int64)
    active = labels >= 0
    for cid in class_ids:
        active &= scores[cid].valid
    lab = np.full((n_rows + 2, n_cols + 2), -1, dtype=np.int64)
    labeled = labels >= 0
    lab[1:-1, 1:-1][labeled] = np.searchsorted(ids_arr, labels[labeled])
    flat = lab.ravel().tolist()
    score_flat = []
    for cid in class_ids:
        buf = np.zeros((n_rows + 2, n_cols + 2))
        buf[1:-1, 1:-1] = scores[cid].values
        score_flat.append(buf.ravel().tolist())
    order = [(r + 1) * w + (c + 1) for r in range(n_rows) for c in range(n_cols) if active[r, c]]
    offsets = (-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1)
    for _ in range(max_sweeps):
        changed = 0
        for p in order:
            counts = [0] * k
            for off in offsets:
                q = flat[p + off]
                if q >= 0:
                    counts[q] += 1
            best_k = 0
            best_v = score_flat[0][p] + beta * counts[0]
            for j in range(1, k):
                v = score_flat[j][p] + beta * counts[j]
                if v > best_v:
                    best_v = v
                    best_k = j
            if best_k != flat[p]:
                flat[p] = best_k
                changed += 1
        if changed == 0:
            break
    out_lab = np.asarray(flat, dtype=np.int64).reshape(n_rows + 2, n_cols + 2)[1:-1, 1:-1]
    out = np.full(initial.grid.shape, initial.grid.nodata_value)
    out[active] = ids_arr.astype(np.float64)[out_lab[active]]
    keep = initial.grid.valid & ~active
    out[keep] = initial.grid.values[keep]
    return out


@st.composite
def _icm_cases(draw):
    k = draw(st.integers(1, 5))
    ids = sorted(draw(st.sets(st.integers(0, 20), min_size=k, max_size=k)))
    n_rows, n_cols = draw(st.sampled_from([(1, None), (None, 1), (None, None)]))
    n_rows = n_rows or draw(st.integers(1, 14))
    n_cols = n_cols or draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_rows, n_cols)
    vals = rng.choice(ids, size=shape).astype(np.float64)
    vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = -9999.0
    integer = draw(st.booleans())  # small integer scores make ties common
    inf_frac = draw(st.sampled_from([0.0, 0.02, 0.2]))
    nan_frac = draw(st.sampled_from([0.0, 0.02, 0.2]))
    frozen_frac = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))  # a frozen cell has a nodata score
    scores = {}
    for c in ids:
        sv = rng.integers(-3, 4, size=shape).astype(np.float64) if integer else rng.standard_normal(shape)
        inf = rng.random(shape) < inf_frac
        sv[inf] = rng.choice([np.inf, -np.inf], size=int(inf.sum()))
        sv[rng.random(shape) < nan_frac] = np.nan
        sv[rng.random(shape) < frozen_frac] = SCORE_NODATA
        scores[c] = Grid(sv, 1.0, nodata_value=SCORE_NODATA)
    beta = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]), st.floats(0.0, 10.0)))
    return _map(vals, {c: f"c{c}" for c in ids}), scores, beta, draw(st.integers(1, 4))


_ALL_FROZEN = (
    _map(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, -9999.0]]), {0: "a", 1: "b"}),
    {
        0: Grid(np.full((2, 3), 1.0), 1.0, nodata_value=SCORE_NODATA),
        1: Grid(np.full((2, 3), SCORE_NODATA), 1.0, nodata_value=SCORE_NODATA),
    },
    1.5,
    3,
)

# sweep 1 flips only the right end; that flip turns the middle pixel in sweep 2
_ONE_FLIP_THEN_ANOTHER = (
    _map(np.array([[1.0, 0.0, 0.0]]), {0: "a", 1: "b"}),
    {
        0: Grid(np.array([[0.0, 1.0, 0.0]]), 1.0, nodata_value=SCORE_NODATA),
        1: Grid(np.array([[5.0, 0.0, 5.0]]), 1.0, nodata_value=SCORE_NODATA),
    },
    1.0,
    3,
)


def _score_grids(per_class):
    return {cid: Grid(np.array(v, dtype=np.float64), 1.0, nodata_value=SCORE_NODATA) for cid, v in per_class.items()}


# a 1x1 grid: nan in class 0 keeps class 0, even against +inf in class 1
_NAN_IN_CLASS_0 = (
    _map(np.array([[1.0]]), {0: "a", 1: "b"}),
    _score_grids({0: [[np.nan]], 1: [[np.inf]]}),
    1.5,
    2,
)

# nan in a later class never wins: not against -inf in class 0 and
# class 2 (left), nor against finite scores (middle, right)
_NAN_IN_A_LATER_CLASS = (
    _map(np.array([[1.0, 1.0, 2.0]]), {0: "a", 1: "b", 2: "c"}),
    _score_grids({0: [[-np.inf, -1.0, 0.0]], 1: [[np.nan, np.nan, 0.0]], 2: [[-np.inf, -5.0, np.nan]]}),
    1.0,
    3,
)

# +inf and -inf ties go to the lower id (top row); +inf beats any finite
# total (bottom left) and any finite total beats -inf (bottom right)
_INF_TIES = (
    _map(np.array([[1.0, 1.0], [0.0, 0.0]]), {0: "a", 1: "b"}),
    _score_grids({0: [[np.inf, -np.inf], [5.0, -np.inf]], 1: [[np.inf, -np.inf], [np.inf, 0.0]]}),
    1.5,
    3,
)

# a single class: no move is possible, whatever the scores
_ONE_CLASS = (
    _map(np.array([[3.0, -9999.0], [3.0, 3.0]]), {3: "c"}),
    _score_grids({3: [[np.nan, 0.0], [np.inf, -np.inf]]}),
    1.5,
    2,
)


@settings(max_examples=300, deadline=None)
@given(_icm_cases())
@example(_ALL_FROZEN)
@example(_ONE_FLIP_THEN_ANOTHER)
@example(_NAN_IN_CLASS_0)
@example(_NAN_IN_A_LATER_CLASS)
@example(_INF_TIES)
@example(_ONE_CLASS)
def test_icm_matches_raster_reference_bits(case):
    initial, scores, beta, max_sweeps = case
    out = icm(initial, scores, beta=beta, max_sweeps=max_sweeps)
    assert out.grid.nodata_value == initial.grid.nodata_value
    assert out.grid.values.tobytes() == _ref_icm(initial, scores, beta, max_sweeps).tobytes()


def test_kappa_reference_values():
    assert kappa(ConfusionMatrix(np.array([[2, 0], [0, 2]]), (0, 1))) == pytest.approx(1.0, abs=1e-12)
    assert kappa(ConfusionMatrix(np.array([[1, 1], [1, 1]]), (0, 1))) == pytest.approx(0.0, abs=1e-12)
    assert kappa(ConfusionMatrix(np.array([[0, 2], [2, 0]]), (0, 1))) == pytest.approx(-1.0, abs=1e-12)


def test_kappa_degenerate():
    with pytest.raises(NumericalError):
        kappa(ConfusionMatrix(np.array([[4]]), (0,)))
    with pytest.raises(DataError):
        kappa(ConfusionMatrix(np.zeros((1, 1), dtype=int), (0,)))


def test_confusion_and_accuracy():
    pred = _map(np.array([[0.0, 1.0], [1.0, -9999.0]]), {0: "a", 1: "b"})
    ref = _map(np.array([[0.0, 0.0], [1.0, 1.0]]), {0: "a", 1: "b"})
    cm = confusion(pred, ref)
    assert cm.counts.tolist() == [[1, 1], [0, 1]]  # rows reference, columns predicted
    assert cm.total == 3
    assert overall_accuracy(cm) == pytest.approx(2.0 / 3.0)


def test_confusion_union_legend_and_errors():
    pred = _map(np.array([[2.0]]), {2: "c"})
    ref = _map(np.array([[0.0]]), {0: "a"})
    cm = confusion(pred, ref)
    assert cm.class_ids == (0, 2)
    nd = _map(np.array([[-9999.0]]), {0: "a"})
    with pytest.raises(DataError, match="no jointly valid"):
        confusion(nd, nd)


def test_residual_map():
    pred = _map(np.array([[0.0, 1.0, 1.0]]), {0: "a", 1: "b"})
    ref = _map(np.array([[0.0, 0.0, 1.0]]), {0: "a", 1: "b"})
    mask = residual_map(pred, ref)
    assert mask.values.tolist() == [[0.0, 1.0, 0.0]]
    assert producer_accuracy(confusion(pred, ref)) == {0: 0.5, 1: 1.0}


def _producer_accuracy_loop(predicted, reference):
    """Per-class producer accuracy counted pixel set by pixel set, as the
    validation stage once did; the reference for producer_accuracy."""
    sel = predicted.grid.valid & reference.grid.valid
    p = predicted.labels
    r = reference.labels
    rates = {}
    for cid in reference.class_ids:
        pick = sel & (r == cid)
        n = int(np.count_nonzero(pick))
        if n:
            rates[cid] = float(np.count_nonzero(p[pick] == cid)) / n
    return rates


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([-9999.0, 0.0, 1.0, 2.0, 5.0]), min_size=n * 3, max_size=n * 3),
            st.lists(st.sampled_from([-9999.0, 0.0, 1.0, 3.0, 5.0]), min_size=n * 3, max_size=n * 3),
            st.just(n),
        )
    ),
    st.sets(st.sampled_from([4, 6, 7]), max_size=2),
)
def test_producer_accuracy_matches_per_class_loop(case, absent):
    # nodata in either map, classes only one map's legend holds, and legend
    # classes absent from the reference map's pixels
    pred_vals, ref_vals, n = case
    pred = _map(np.reshape(pred_vals, (n, 3)), {c: str(c) for c in (0, 1, 2, 5)})
    ref = _map(np.reshape(ref_vals, (n, 3)), {c: str(c) for c in {0, 1, 3, 5} | absent})
    sel = pred.grid.valid & ref.grid.valid
    if not sel.any():
        with pytest.raises(DataError, match="no jointly valid"):
            confusion(pred, ref)
        return
    got = producer_accuracy(confusion(pred, ref))
    want = _producer_accuracy_loop(pred, ref)
    assert list(got) == list(want)
    assert all(np.float64(got[c]).tobytes() == np.float64(want[c]).tobytes() for c in want)


def test_csv_outputs(tmp_path):
    cm = ConfusionMatrix(np.array([[2, 0], [1, 3]]), (0, 1))
    write_confusion_csv(cm, tmp_path / "cm.csv")
    text = (tmp_path / "cm.csv").read_text()
    assert "reference\\predicted,0,1" in text and "1,1,3" in text
    sigs = _two_sigs()
    write_signatures_csv(sigs, tmp_path / "sig.csv")
    lines = (tmp_path / "sig.csv").read_text().splitlines()
    assert lines[0] == "class_id,sample_count,prior,field,values"
    assert len(lines) == 5  # header + (mean + 1 cov row) per class
