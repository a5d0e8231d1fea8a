"""Single-hidden-layer network: forward, gradients, training, rasters."""

import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from landchange.config import load_config
from landchange.errors import DataError, LandchangeError
from landchange.grid import Grid, LandCoverMap
from landchange.mlp import (
    _ROW_BLOCK,
    _block_rows,
    Dataset,
    FeatureSpec,
    MLPModel,
    build_samples,
    forward,
    forward_batch,
    gradient,
    init_model,
    load_model,
    predict_map,
    save_model,
    sigmoid,
    train,
    write_history_csv,
)
from landchange.pipeline import run_stage
from landchange.synth import SynthSpec, generate_synthetic_landscape, write_scenario


def _grid(vals):
    return Grid(np.asarray(vals, dtype=np.float64), 1.0)


def _lcm(vals, legend):
    return LandCoverMap(_grid(vals), legend)


# Reference numeric core: one expression per step and a masked sigmoid, as
# the perceptron was first written. The in-place kernel must match its bits.


def _ref_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _ref_forward_batch(model, x):
    h = _ref_sigmoid(x @ model.input_weights.T + model.hidden_biases)
    raw = h @ model.output_weights + model.output_bias
    return _ref_sigmoid(raw) if model.probability_output else raw


def _ref_batch_gradients(model, x, t):
    h = _ref_sigmoid(x @ model.input_weights.T + model.hidden_biases)
    raw = h @ model.output_weights + model.output_bias
    if model.probability_output:
        out = _ref_sigmoid(raw)
        ds = (out - t) * out * (1.0 - out)
    else:
        out = raw
        ds = out - t
    n = x.shape[0]
    g_w2 = ds @ h / n
    g_b = float(ds.mean())
    dh = ds[:, None] * model.output_weights[None, :] * h * (1.0 - h)
    g_w1 = dh.T @ x / n
    g_w0 = dh.mean(axis=0)
    return (g_w1, g_w0, g_w2, g_b), out


def _ref_train(model, x, t, learning_rate, epochs):
    w1, w0, w2, b = model.input_weights, model.hidden_biases, model.output_weights, model.output_bias
    history = []
    cur = model
    for _ in range(epochs):
        (g_w1, g_w0, g_w2, g_b), out = _ref_batch_gradients(cur, x, t)
        history.append(float(np.mean((out - t) ** 2)))
        w1 = w1 - learning_rate * g_w1
        w0 = w0 - learning_rate * g_w0
        w2 = w2 - learning_rate * g_w2
        b = b - learning_rate * g_b
        cur = MLPModel(w1, w0, w2, b, model.probability_output, model.features)
    return cur, history


def _bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def _model_bits(m):
    return _bits(m.input_weights, m.hidden_biases, m.output_weights, m.output_bias)


_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0,
          1000.0, -1000.0, np.inf, -np.inf, np.nan, -np.nan]


def test_sigmoid_bits_match_reference():
    for v in _EDGES:
        assert _bits(sigmoid(v)) == _bits(_ref_sigmoid(v)), v
    assert isinstance(sigmoid(-0.0), float)
    edges = np.array(_EDGES)
    assert _bits(sigmoid(edges)) == _bits(_ref_sigmoid(edges))
    assert _bits(sigmoid(edges.reshape(4, 4))) == _bits(_ref_sigmoid(edges.reshape(4, 4)))
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1.0, 40.0, 800.0):
        z = rng.standard_normal((257, 9)) * scale
        before = z.tobytes()
        assert _bits(sigmoid(z)) == _bits(_ref_sigmoid(z))
        assert z.tobytes() == before  # the public form never writes its input


def _check_train_bits(model, x, t, lr, epochs):
    """train, forward_batch and gradient against the reference, bit for bit."""
    with np.errstate(all="ignore"):  # raw mode on saturating inputs may overflow alike
        got, hist = train(model, Dataset(x, t), lr, epochs)
        want, want_hist = _ref_train(model, x, t, lr, epochs)
        assert _bits(forward_batch(got, x)) == _bits(_ref_forward_batch(want, x))
        g = gradient(model, x[0], float(t[0]))
        (rw1, rw0, rw2, rb), _ = _ref_batch_gradients(model, x[:1], t[:1])
    assert _model_bits(got) == _model_bits(want)
    assert _bits(hist) == _bits(want_hist)
    assert _bits(g.input_weights, g.hidden_biases, g.output_weights, g.output_bias) == _bits(rw1, rw0, rw2, rb)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(1, 6),
    st.integers(1, 9),
    st.booleans(),
    st.sampled_from([0.0, 0.05, 0.5, 2.0, 7.5]),
    st.integers(1, 5),
    st.sampled_from([1.0, 4.0, 60.0, 1e3]),  # large scales saturate the sigmoids
    st.integers(0, 2**32 - 1),
)
def test_train_matches_reference_bits(n, n_in, q, prob, lr, epochs, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n_in)) * scale
    x[rng.random((n, n_in)) < 0.2] = 0.0
    t = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.random(n)).astype(np.float64)
    model = init_model(n_in, q, seed=seed % 1000, probability_output=prob)
    kept = [x.tobytes(), t.tobytes()] + _model_bits(model)
    _check_train_bits(model, x, t, lr, epochs)
    # the kernel writes in place, but never into the caller's arrays
    assert [x.tobytes(), t.tobytes()] + _model_bits(model) == kept


def _past_two_cache_blocks(q):
    # two whole cache blocks, then three row blocks and a remainder
    return 2 * _block_rows(q) + 3 * _ROW_BLOCK + 37


@pytest.mark.parametrize("n", [2 * _ROW_BLOCK, 3 * _ROW_BLOCK + 37, None])
@pytest.mark.parametrize("q", [1, 2, 8])
@pytest.mark.parametrize("prob", [True, False])
def test_train_matches_reference_bits_over_row_blocks(n, q, prob):
    # whole row blocks, whole blocks followed by remainder rows, and (None)
    # two cache blocks at this q followed by row blocks and remainder rows
    n = n or _past_two_cache_blocks(q)
    rng = np.random.default_rng(n + 10 * q + prob)
    x = rng.standard_normal((n, 5)) * 4.0
    x[rng.random((n, 5)) < 0.2] = 0.0
    t = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.random(n))
    _check_train_bits(init_model(5, q, seed=q, probability_output=prob), x, t, 0.5, 4)


def test_block_rows_hold_the_byte_budget_in_whole_row_blocks():
    assert _block_rows(8) == 8192 and _block_rows(1) == 65536
    for q in (1, 3, 7, 8, 100, 256, 257, 10_000):
        rows = _block_rows(q)
        assert rows % _ROW_BLOCK == 0 and rows >= _ROW_BLOCK
        assert rows == _ROW_BLOCK or rows * q * 8 <= 512 * 1024 < (rows + _ROW_BLOCK) * q * 8


@pytest.mark.parametrize("q", [1, 8])
def test_predict_map_matches_reference_bits_over_cache_blocks(q):
    n = _past_two_cache_blocks(q)
    rng = np.random.default_rng(q)
    shape = (-(-n // 256), 256)
    prior = rng.integers(0, 2, size=shape).astype(float)
    prior.flat[n:] = -9999.0  # exactly n valid pixels
    prior = _lcm(prior, {0: "a", 1: "b"})
    nxt = _lcm(rng.integers(0, 2, size=shape).astype(float), {0: "a", 1: "b"})
    crit = [_grid(rng.random(shape) * 40), _grid(rng.random(shape))]
    ds = build_samples(prior, nxt, crit)
    assert ds.inputs.shape[0] == n
    model, _ = train(init_model(ds.features.n_inputs, q, seed=3), ds, 0.5, 3)
    prob = predict_map(model, prior, crit)
    assert _bits(prob.values.flat[:n]) == _bits(_ref_forward_batch(model, ds.inputs))


@pytest.mark.parametrize("block", [_ROW_BLOCK, 3 * _ROW_BLOCK, 4096, _block_rows(8), 16384])
@pytest.mark.parametrize("q", [1, 3, 8])
def test_row_blocked_products_keep_the_whole_products_bits(block, q):
    # the premise of the cache blocks: a BLAS product over row blocks that
    # start at multiples of _ROW_BLOCK gives the whole product's bits. n stays
    # below the size at which OpenBLAS splits one whole gemv over its threads,
    # at a row that need not be such a multiple.
    n = 2 * 16384 + 37
    rng = np.random.default_rng(block + q)
    x = rng.standard_normal((n, 5))
    w1 = rng.standard_normal((q, 5))
    h = rng.random((n, q))
    w2 = rng.standard_normal(q)
    hx, out = np.empty((n, q)), np.empty(n)
    for i in range(0, n, block):
        np.matmul(x[i:i + block], w1.T, out=hx[i:i + block])
        np.matmul(h[i:i + block], w2, out=out[i:i + block])
    assert _bits(hx) == _bits(x @ w1.T)
    assert _bits(out) == _bits(h @ w2)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_forward_batch_allocates_no_array_of_n_rows_by_q():
    q = 8
    n, rows = 4 * _block_rows(q) + 37, _block_rows(q)
    x = np.random.default_rng(1).random((n, 5))
    model = init_model(5, q, seed=1)
    out, peak = _traced_peak(forward_batch, model, x)
    assert out.shape == (n,)
    # the outputs, plus h and the sigmoid's work for one block and a work row;
    # the rest is a broadcast ufunc's 64 KiB buffer and small temporaries
    assert peak <= 8 * (n + 2 * rows * q + rows) + 2**17, peak
    assert peak < 8 * n * q, peak


def test_train_peak_stays_within_its_buffers_and_one_block():
    q = 8
    n, rows = 4 * _block_rows(q) + 37, _block_rows(q)
    rng = np.random.default_rng(2)
    data = Dataset(rng.random((n, 5)), rng.integers(0, 2, n).astype(np.float64))
    model = init_model(5, q, seed=2)
    _, peak = _traced_peak(train, model, data, 0.5, 3)
    # h and dh, the (4, n) rows, and one block of scratch
    assert peak <= 8 * (2 * n * q + 4 * n + rows * q) + 2**17, peak


_BLAS_THREADS_SCRIPT = """
import hashlib, numpy as np
from landchange.mlp import Dataset, forward_batch, init_model, train
rng = np.random.default_rng(5)
n = 65536 + 37  # one whole gemv over these rows is split over two threads
x = rng.standard_normal((n, 4)) * 3
t = rng.integers(0, 2, n).astype(np.float64)
model = init_model(4, 8, seed=3, probability_output=False)
trained, history = train(model, Dataset(x, t), 0.05, 2)
parts = [forward_batch(model, x), trained.input_weights, trained.output_weights, np.array(history)]
print(hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest())
"""


def test_outputs_keep_their_bits_for_any_blas_thread_count():
    # each BLAS product over rows covers one cache block, never split over threads
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        digests.add(res.stdout)
    assert len(digests) == 1


def _one_hot_rows(rng, n, k):
    x = np.zeros((n, k))
    x[np.arange(n), rng.integers(0, k, n)] = 1.0
    return x


def test_train_matches_reference_bits_with_signed_zero_deltas():
    # The output sigmoid saturates to exactly 0.0, so out == t where t is 0
    # and the deltas are +0.0 there and -0.0 where t is 1; w2 has both signs.
    rng = np.random.default_rng(21)
    n = 2 * _ROW_BLOCK + 37
    x = _one_hot_rows(rng, n, 3)
    t = rng.integers(0, 2, n).astype(np.float64)
    model = replace(init_model(3, 8, seed=4), output_bias=-800.0)
    assert (model.output_weights < 0).any() and (model.output_weights > 0).any()
    out = _ref_forward_batch(model, x)
    ds = (out - t) * out * (1.0 - out)
    assert (ds == 0.0).all() and np.signbit(ds).any() and not np.signbit(ds).all()
    _check_train_bits(model, x, t, 0.5, 2)


@pytest.mark.parametrize("prob", [True, False])
def test_train_matches_reference_bits_with_nan_weights(prob):
    # nan weights of both signs give nan deltas of both signs in a column,
    # where the order of the operands of each addition decides the sign
    rng = np.random.default_rng(4)
    n = 2 * _ROW_BLOCK + 37
    x = _one_hot_rows(rng, n, 3)
    t = rng.integers(0, 2, n).astype(np.float64)
    w1 = init_model(3, 8, seed=2).input_weights.copy()
    w1[:, :2] = np.where(rng.random((8, 2)) < 0.5, np.nan, -np.nan)
    model = replace(init_model(3, 8, seed=2, probability_output=prob), input_weights=w1)
    _check_train_bits(model, x, t, 0.5, 2)


def test_sigmoid_stability():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0  # underflows cleanly, no overflow warning
    arr = sigmoid(np.array([-2.0, 0.0, 2.0]))
    assert np.allclose(arr, 1.0 - arr[::-1], atol=1e-15)


def test_feature_spec_validation():
    spec = FeatureSpec((0, 1), 1, ((0.0, 3.0),))
    assert spec.n_inputs == 3
    with pytest.raises(DataError, match="duplicate"):
        FeatureSpec((0, 0), 0, ())
    with pytest.raises(DataError, match="focal"):
        FeatureSpec((0, 1), 5, ())


def test_model_validation():
    with pytest.raises(DataError, match="matrix"):
        MLPModel(np.ones(3), np.ones(3), np.ones(3), 0.0)
    with pytest.raises(DataError, match="hidden unit"):
        MLPModel(np.ones((2, 3)), np.ones(3), np.ones(2), 0.0)


def test_init_model_deterministic_and_bounded():
    a = init_model(3, 4, seed=5)
    b = init_model(3, 4, seed=5)
    assert np.array_equal(a.input_weights, b.input_weights)
    assert np.array_equal(a.output_weights, b.output_weights)
    assert a.output_bias == b.output_bias
    assert np.max(np.abs(a.input_weights)) <= 1 / np.sqrt(3)
    assert np.max(np.abs(a.output_weights)) <= 1 / np.sqrt(4)
    c = init_model(3, 4, seed=6)
    assert not np.array_equal(a.input_weights, c.input_weights)
    with pytest.raises(DataError):
        init_model(0, 4)


def test_forward_hand_case():
    m = MLPModel(np.array([[2.0]]), np.array([0.5]), np.array([3.0]), -1.0)
    h = 1.0 / (1.0 + np.exp(-2.5))
    assert forward(m, [1.0]) == pytest.approx(1.0 / (1.0 + np.exp(-(3 * h - 1))), abs=1e-15)
    raw = replace(m, probability_output=False)
    assert forward(raw, [1.0]) == pytest.approx(3 * h - 1, abs=1e-15)
    with pytest.raises(DataError, match="inputs must be"):
        forward_batch(m, np.ones((2, 3)))


@pytest.mark.parametrize("prob", [True, False])
def test_gradient_matches_finite_differences(prob):
    rng = np.random.default_rng(17)
    m = init_model(4, 3, seed=2, probability_output=prob)
    x = rng.standard_normal(4)
    t = 0.7
    g = gradient(m, x, t)

    def loss(model):
        return 0.5 * (forward(model, x) - t) ** 2

    def bump(base, idx, d):
        # the model freezes arrays it is handed, so perturb on a fresh copy
        out = base.copy()
        out[idx] += d
        return out

    eps = 1e-6
    for (i, j), want in np.ndenumerate(g.input_weights):
        hi = loss(replace(m, input_weights=bump(m.input_weights, (i, j), eps)))
        lo = loss(replace(m, input_weights=bump(m.input_weights, (i, j), -eps)))
        assert (hi - lo) / (2 * eps) == pytest.approx(want, abs=1e-8)
    for i, want in enumerate(g.hidden_biases):
        hi = loss(replace(m, hidden_biases=bump(m.hidden_biases, i, eps)))
        lo = loss(replace(m, hidden_biases=bump(m.hidden_biases, i, -eps)))
        assert (hi - lo) / (2 * eps) == pytest.approx(want, abs=1e-8)
    for i, want in enumerate(g.output_weights):
        hi = loss(replace(m, output_weights=bump(m.output_weights, i, eps)))
        lo = loss(replace(m, output_weights=bump(m.output_weights, i, -eps)))
        assert (hi - lo) / (2 * eps) == pytest.approx(want, abs=1e-8)
    hi = loss(replace(m, output_bias=m.output_bias + eps))
    lo = loss(replace(m, output_bias=m.output_bias - eps))
    assert (hi - lo) / (2 * eps) == pytest.approx(g.output_bias, abs=1e-8)


def test_train_zero_rate_is_identity():
    data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    m = init_model(2, 3, seed=1)
    out, history = train(m, data, learning_rate=0.0, epochs=4)
    assert np.array_equal(out.input_weights, m.input_weights)
    assert out.output_bias == m.output_bias
    assert len(history) == 4
    assert len(set(history)) == 1  # loss frozen in place


def test_train_validation():
    data = Dataset(np.array([[0.0, 1.0]]), np.array([1.0]))
    m = init_model(3, 2, seed=0)
    with pytest.raises(DataError, match="expects 3 inputs"):
        train(m, data, 0.1, 1)
    m2 = init_model(2, 2, seed=0)
    for lr in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DataError, match=f"learning_rate must be finite and non-negative, got {lr}"):
            train(m2, data, lr, 1)
    with pytest.raises(DataError, match="epochs"):
        train(m2, data, 0.1, 0)


def test_dataset_validation():
    with pytest.raises(DataError, match="shapes"):
        Dataset(np.ones((2, 3)), np.ones(3))
    with pytest.raises(DataError, match="empty"):
        Dataset(np.ones((0, 2)), np.ones(0))
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0.5]))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        Dataset(np.ones((1, 2)), np.array([1.5]))


def test_build_samples_hand_case():
    prior = _lcm([[0.0, 0.0], [1.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[0.0, 1.0], [1.0, 1.0]], {0: "a", 1: "b"})
    crit = _grid([[0.0, 1.0], [2.0, 3.0]])
    ds = build_samples(prior, nxt, [crit])
    want = [
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 1 / 3],
        [0.0, 1.0, 2 / 3],
        [0.0, 1.0, 1.0],
    ]
    assert np.allclose(ds.inputs, want, atol=1e-15)
    assert ds.targets.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert ds.features.focal_class == 1  # defaults to the highest id
    assert ds.features.criteria_bounds == ((0.0, 3.0),)


def test_build_samples_constant_criterion_logs_a_warning(caplog):
    prior = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[1.0, 1.0]], {0: "a", 1: "b"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a log record, not a Python warning
        with caplog.at_level(logging.WARNING, logger="landchange"):
            ds = build_samples(prior, nxt, [_grid([[1.0, 2.0]]), _grid([[4.0, 4.0]])])
    assert np.all(ds.inputs[:, 3] == 0.5)
    [record] = caplog.records
    assert record.name == "landchange" and record.levelno == logging.WARNING
    assert record.getMessage() == "criterion 1 is constant over the sample; encoded as 0.5"


def test_build_samples_errors():
    prior = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[1.0, 1.0]], {0: "a", 1: "b"})
    with pytest.raises(DataError, match="focal"):
        build_samples(prior, nxt, [], focal_class=9)
    nd = _lcm([[-9999.0, -9999.0]], {0: "a"})
    with pytest.raises(DataError, match="jointly valid"):
        build_samples(nd, nd, [])


def test_predict_map_reproduces_training_outputs():
    rng = np.random.default_rng(5)
    prior = _lcm(rng.integers(0, 2, size=(6, 6)).astype(float), {0: "a", 1: "b"})
    nxt = _lcm(rng.integers(0, 2, size=(6, 6)).astype(float), {0: "a", 1: "b"})
    crit = _grid(rng.random((6, 6)) * 40)
    ds = build_samples(prior, nxt, [crit])
    model, _ = train(init_model(ds.features.n_inputs, 4, seed=3), ds, 0.5, 50)
    prob = predict_map(model, prior, [crit])
    batch = forward_batch(model, ds.inputs)
    rows, cols = np.nonzero(prior.grid.valid & nxt.grid.valid & crit.valid)  # build_samples' row order
    assert np.array_equal(prob.values[rows, cols], batch)  # bit-exact rebuild


def test_predict_map_reproduces_training_outputs_over_row_blocks():
    rng = np.random.default_rng(6)
    shape = (41, 37)
    prior = _lcm(rng.integers(0, 3, size=shape).astype(float), {0: "a", 1: "b", 2: "c"})
    nxt = _lcm(rng.integers(0, 3, size=shape).astype(float), {0: "a", 1: "b", 2: "c"})
    gappy = np.where(rng.random(shape) < 0.1, -9999.0, rng.random(shape) * 40)
    crit = [_grid(gappy), _grid(rng.random(shape))]
    ds = build_samples(prior, nxt, crit)
    n = ds.inputs.shape[0]
    assert n > 3 * _ROW_BLOCK and n % _ROW_BLOCK
    model, _ = train(init_model(ds.features.n_inputs, 8, seed=3), ds, 0.5, 20)
    prob = predict_map(model, prior, crit)
    rows, cols = np.nonzero(prior.grid.valid & nxt.grid.valid & crit[0].valid)
    assert _bits(prob.values[rows, cols]) == _bits(forward_batch(model, ds.inputs))
    assert _bits(prob.values[rows, cols]) == _bits(_ref_forward_batch(model, ds.inputs))


def test_predict_map_keeps_probability_0_when_the_prior_map_uses_nodata_0():
    prior = LandCoverMap(Grid(np.array([[1.0, 2.0, 0.0, 2.0]]), 1.0, nodata_value=0.0), {1: "a", 2: "b"})
    ds = build_samples(prior, prior, [])
    model, _ = train(init_model(2, 2, seed=0), ds, 0.3, 5)
    # an output bias of -1000 makes the logistic output exactly 0
    model = replace(model, output_weights=np.zeros(2), output_bias=-1000.0)
    prob = predict_map(model, prior, [])
    assert prob.nodata_value == -9999.0
    assert prob.values.tolist() == [[0.0, 0.0, -9999.0, 0.0]]


def test_predict_map_errors():
    prior = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[1.0, 1.0]], {0: "a", 1: "b"})
    ds = build_samples(prior, nxt, [])
    model, _ = train(init_model(2, 2, seed=0), ds, 0.3, 5)
    with pytest.raises(DataError, match="feature spec"):
        predict_map(init_model(2, 2, seed=0), prior, [])
    with pytest.raises(DataError, match="probability-mode"):
        predict_map(replace(model, probability_output=False), prior, [])
    with pytest.raises(DataError, match="criteria"):
        predict_map(model, prior, [_grid([[1.0, 2.0]])])
    prior3 = _lcm([[0.0, 2.0]], {0: "a", 2: "c"})
    with pytest.raises(DataError, match=r"^predict_map: model classes \[0, 1\] do not match prior map classes \[0, 2\]$"):
        predict_map(model, prior3, [])


def test_model_file_roundtrip(tmp_path):
    spec = FeatureSpec((0, 1), 1, ((0.25, 7.5),))
    m = replace(init_model(3, 4, seed=11), features=spec)
    p = tmp_path / "net.txt"
    save_model(m, p)
    back = load_model(p)
    assert np.array_equal(back.input_weights, m.input_weights)
    assert np.array_equal(back.hidden_biases, m.hidden_biases)
    assert np.array_equal(back.output_weights, m.output_weights)
    assert back.output_bias == m.output_bias
    assert back.features == spec
    assert back.probability_output == m.probability_output

    bare = init_model(2, 2, seed=0, probability_output=False)
    save_model(bare, p)
    back = load_model(p)
    assert back.features is None
    assert back.probability_output is False


def test_a_model_file_may_list_its_classes_in_any_order(tmp_path):
    # a class's one-hot input is its place on the classes line, so a trained
    # model with two classes swapped there and in w1's columns is the same model
    landscape = generate_synthetic_landscape(SynthSpec(n_rows=20, n_cols=20, n_classes=2, seed=6))
    cfg = load_config(write_scenario(landscape, tmp_path / "scenario", model="mlp"), out_dir=tmp_path / "out")
    for stage in ("markov", "mlp-train", "mlp-predict"):
        run_stage(stage, cfg)
    products = [cfg.out_dir / name for name in ("mlp_prob.asc", "predicted_mlp.asc")]
    before = [p.read_bytes() for p in products]
    model = cfg.out_dir / "mlp_model.txt"
    lines = model.read_text(encoding="ascii").splitlines()
    assert "classes 0 1" in lines
    swapped = ["classes 1 0" if line == "classes 0 1" else line for line in lines]
    for i, line in enumerate(swapped):
        if line.startswith("w1 "):
            _, a, b, *rest = line.split(" ")
            swapped[i] = " ".join(["w1", b, a, *rest])
    model.write_text("\n".join(swapped) + "\n", encoding="ascii")
    assert load_model(model).features.class_ids == (1, 0)
    for p in products:
        p.unlink()
    run_stage("mlp-predict", cfg)
    assert [p.read_bytes() for p in products] == before


def test_model_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("NOT-A-MODEL\n", encoding="ascii")
    with pytest.raises(DataError, match="signature"):
        load_model(p)
    p.write_text("LANDCHANGE-MLP 1\nn_inputs 2\n", encoding="ascii")
    with pytest.raises(DataError, match="malformed"):
        load_model(p)
    p.write_bytes(b"LANDCHANGE-MLP 1\n\xc3\xa9\n")
    with pytest.raises(DataError, match=r"bad\.txt: byte 0xc3 at offset 17 is not ASCII"):
        load_model(p)
    with pytest.raises(DataError, match=r"nope\.txt: cannot read model file"):
        load_model(tmp_path / "nope.txt")


_GOOD_MODEL = """LANDCHANGE-MLP 1
n_inputs 3
hidden 2
probability_output 1
w1 0.5 -0.25 1.0
w1 0.125 2.0 -1.5
w0 0.1 -0.1
w2 0.75 -0.5
b 0.0625
classes 0 1
focal 1
bounds 0.25 7.5
"""


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("w1 0.5 -0.25 1.0", "w1 0.5 nan 1.0", "non-finite w1"),
        ("w0 0.1 -0.1", "w0 inf -0.1", "non-finite w0"),
        ("w2 0.75 -0.5", "w2 0.75 -Infinity", "non-finite w2"),
        ("b 0.0625", "b 1e999", "non-finite b"),
        ("bounds 0.25 7.5", "bounds nan 7.5", "non-finite bounds"),
        ("bounds 0.25 7.5", "bounds 7.5 0.25", r"bounds 7\.5 > 0\.25"),
        ("n_inputs 3", "n_inputs 0", r"n_inputs >= 1 and hidden >= 1, got 0 and 2"),
        ("hidden 2", "hidden -1", r"got 3 and -1"),
        ("probability_output 1", "probability_output 7", "probability_output must be 0 or 1, got 7"),
        ("w0 0.1 -0.1", "w0 0.1", "w0 and w2 need 2 entries each, got 1 and 2"),
        ("classes 0 1", "classes 0 0", "duplicate class ids"),
        ("focal 1", "focal 4", "focal class 4"),
    ],
)
def test_model_file_rejects_bad_values(tmp_path, old, new, match):
    p = tmp_path / "net.txt"
    p.write_text(_GOOD_MODEL, encoding="ascii")
    assert load_model(p).q == 2
    assert old in _GOOD_MODEL
    p.write_text(_GOOD_MODEL.replace(old, new), encoding="ascii")
    with pytest.raises(DataError, match=r"net\.txt: .*" + match):
        load_model(p)


def test_model_file_rejects_empty_weight_header(tmp_path):
    p = tmp_path / "net.txt"
    p.write_text("LANDCHANGE-MLP 1\nn_inputs 0\nhidden 1\nprobability_output 1\nw1\nw0 0\nw2 0\nb 0\n")
    with pytest.raises(DataError, match=r"net\.txt: need n_inputs >= 1"):
        load_model(p)


@pytest.mark.parametrize(
    "old, new",
    [
        ("hidden 2", "hidden 0_2"),  # int() reads it as 2
        ("n_inputs 3", "n_inputs 0_3"),
        ("w1 0.5 -0.25 1.0", "w1 0_0.5 -0.25 1.0"),
        ("b 0.0625", "b 0.06_25"),
        ("classes 0 1", "classes 0 0_1"),
        ("bounds 0.25 7.5", "bounds 0.25 7_5"),
    ],
)
def test_model_reader_refuses_digit_groups(tmp_path, old, new):
    p = tmp_path / "net.txt"
    p.write_text(_GOOD_MODEL.replace(old, new), encoding="ascii")
    with pytest.raises(DataError, match=r"net\.txt: malformed (model file|feature spec)"):
        load_model(p)


_model_lines = st.one_of(
    st.sampled_from(_GOOD_MODEL.splitlines()),
    st.builds(
        " ".join,
        st.lists(
            st.one_of(
                st.sampled_from(["n_inputs", "hidden", "probability_output", "w1", "w0", "w2", "b",
                                 "classes", "focal", "bounds", "LANDCHANGE-MLP", "nan", "-inf", "1e999",
                                 "0", "1", "2", "-1", "7", "0.5", "-0.0", "1_0", "x"]),
                st.text(max_size=6),
            ),
            max_size=6,
        ),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_model_lines, max_size=14).map(lambda ls: "\n".join(["LANDCHANGE-MLP 1"] + ls)),
    st.lists(st.sampled_from(_GOOD_MODEL.splitlines()), max_size=14).map("\n".join),
    st.text(max_size=200),
))
def test_model_reader_gives_a_model_or_a_landchange_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("model") / "m.txt"
    p.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        m = load_model(p)
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert isinstance(m, MLPModel)
    assert m.q >= 1 and m.n_inputs >= 1
    assert all(np.isfinite(a).all() for a in (m.input_weights, m.hidden_biases, m.output_weights, m.output_bias))


_weights = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 9),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_model_file_roundtrip_is_bit_exact(tmp_path_factory, n_classes, q, prob, with_spec, data):
    n_crit = data.draw(st.integers(0, 3))
    n_in = n_classes + n_crit if with_spec else n_classes
    w1 = np.array(data.draw(st.lists(_weights, min_size=q * n_in, max_size=q * n_in))).reshape(q, n_in)
    w0 = np.array(data.draw(st.lists(_weights, min_size=q, max_size=q)))
    w2 = np.array(data.draw(st.lists(_weights, min_size=q, max_size=q)))
    b = data.draw(_weights)
    spec = None
    if with_spec:
        ids = data.draw(st.lists(st.integers(0, 300), min_size=n_classes, max_size=n_classes, unique=True))
        bounds = [tuple(sorted(data.draw(st.tuples(_weights, _weights)))) for _ in range(n_crit)]
        spec = FeatureSpec(tuple(ids), data.draw(st.sampled_from(ids)), tuple(bounds))
    m = MLPModel(w1, w0, w2, b, prob, spec)
    p = tmp_path_factory.mktemp("model") / "m.txt"
    save_model(m, p)
    back = load_model(p)
    assert _model_bits(back) == _model_bits(m)
    assert back.probability_output is prob
    assert back.features == spec
    if spec is not None:
        assert _bits(back.features.criteria_bounds) == _bits(spec.criteria_bounds)


def test_history_csv(tmp_path):
    p = tmp_path / "h.csv"
    write_history_csv([0.25, 0.125], p)
    assert p.read_text(encoding="ascii") == "epoch,mse\n0,0.25\n1,0.125\n"
