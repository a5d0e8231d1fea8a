"""Single-hidden-layer network: forward, gradients, training, rasters."""

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from landchange.errors import DataError, LandchangeError
from landchange.grid import Grid, LandCoverMap
from landchange.mlp import (
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
    data = Dataset(x, t)
    model = init_model(n_in, q, seed=seed % 1000, probability_output=prob)
    kept = [data.inputs.tobytes(), data.targets.tobytes()] + _model_bits(model)
    with np.errstate(all="ignore"):  # raw mode on saturating inputs may overflow alike
        got, hist = train(model, data, lr, epochs)
        want, want_hist = _ref_train(model, data.inputs, data.targets, lr, epochs)
        assert _bits(forward_batch(got, x)) == _bits(_ref_forward_batch(want, x))
        g = gradient(model, x[0], float(t[0]))
        (rw1, rw0, rw2, rb), _ = _ref_batch_gradients(model, x[:1], t[:1])
    assert _model_bits(got) == _model_bits(want)
    assert _bits(hist) == _bits(want_hist)
    assert _bits(g.input_weights, g.hidden_biases, g.output_weights, g.output_bias) == _bits(rw1, rw0, rw2, rb)
    # the kernel writes in place, but never into the caller's arrays
    assert [data.inputs.tobytes(), data.targets.tobytes()] + _model_bits(model) == kept


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


def test_train_seed_reinitializes():
    data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    a, ha = train(init_model(2, 3, seed=99), data, 0.5, 10, seed=7)
    b, hb = train(init_model(2, 3, seed=7), data, 0.5, 10)
    assert np.array_equal(a.input_weights, b.input_weights)
    assert ha == hb


def test_train_validation():
    data = Dataset(np.array([[0.0, 1.0]]), np.array([1.0]))
    m = init_model(3, 2, seed=0)
    with pytest.raises(DataError, match="expects 3 inputs"):
        train(m, data, 0.1, 1)
    m2 = init_model(2, 2, seed=0)
    with pytest.raises(DataError, match="learning_rate"):
        train(m2, data, -0.1, 1)
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
    assert ds.rows.tolist() == [0, 0, 1, 1]
    assert ds.cols.tolist() == [0, 1, 0, 1]


def test_build_samples_constant_criterion_warns():
    prior = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[1.0, 1.0]], {0: "a", 1: "b"})
    with pytest.warns(UserWarning, match="constant"):
        ds = build_samples(prior, nxt, [_grid([[4.0, 4.0]])])
    assert np.all(ds.inputs[:, 2] == 0.5)


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
    prob, themap = predict_map(model, prior, [crit])
    batch = forward_batch(model, ds.inputs)
    assert np.array_equal(prob.values[ds.rows, ds.cols], batch)  # bit-exact rebuild
    lab = themap.labels[ds.rows, ds.cols]
    assert np.array_equal(lab == 1, batch >= 0.5)


def test_predict_map_threshold_and_errors():
    prior = _lcm([[0.0, 1.0]], {0: "a", 1: "b"})
    nxt = _lcm([[1.0, 1.0]], {0: "a", 1: "b"})
    ds = build_samples(prior, nxt, [])
    model, _ = train(init_model(2, 2, seed=0), ds, 0.3, 5)
    _, m_all = predict_map(model, prior, [], threshold=0.0)
    assert set(np.unique(m_all.labels)) == {1}  # everything at or above 0

    with pytest.raises(DataError, match="feature spec"):
        predict_map(init_model(2, 2, seed=0), prior, [])
    with pytest.raises(DataError, match="probability-mode"):
        predict_map(replace(model, probability_output=False), prior, [])
    spec3 = FeatureSpec((0, 1, 2), 2, ())
    with pytest.raises(DataError, match="2-class"):
        predict_map(init_model(3, 2, seed=0, features=spec3), prior, [])
    with pytest.raises(DataError, match="criteria"):
        predict_map(model, prior, [_grid([[1.0, 2.0]])])
    prior3 = _lcm([[0.0, 2.0]], {0: "a", 2: "c"})
    with pytest.raises(DataError, match="unknown to the model"):
        predict_map(model, prior3, [])


def test_model_file_roundtrip(tmp_path):
    spec = FeatureSpec((0, 1), 1, ((0.25, 7.5),))
    m = init_model(3, 4, seed=11, features=spec)
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
        ids = data.draw(st.lists(st.integers(-5, 300), min_size=n_classes, max_size=n_classes, unique=True))
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
