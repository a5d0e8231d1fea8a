"""Single-hidden-layer network: forward, gradients, training, rasters."""

import numpy as np
import pytest
from dataclasses import replace

from landchange.errors import DataError
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


def test_history_csv(tmp_path):
    p = tmp_path / "h.csv"
    write_history_csv([0.25, 0.125], p)
    assert p.read_text(encoding="ascii") == "epoch,mse\n0,0.25\n1,0.125\n"
