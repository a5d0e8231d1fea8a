"""One-hidden-layer perceptron change model.

The network is a sum of q weighted sigmoid units over the input vector,
plus an output bias; in probability mode the sum goes through a final
sigmoid so the output reads as the chance that a pixel converts to the
focal class. Training is full-batch gradient descent on squared error.
Inputs per pixel are the one-hot previous class plus min-max normalized
criterion values; the normalization bounds freeze into the model so
prediction reproduces training arithmetic bit for bit.

The sigmoid is stable for every z, infinities and signed zeros included.
Training and prediction share one numeric core. Each training epoch runs
one gradient kernel that reuses two (n, q) buffers in place; its
floating-point operations, and their order, are those of the
one-expression-per-step form kept as the reference in tests/test_mlp.py,
so weights, loss history and predictions match it bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .grid import Grid, LandCoverMap, read_text, require_same_geometry


def _sigmoid_(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Logistic function of z, written into z; work has z's shape.

    With e = exp(-|z|) the result is 1 / (1 + e) where z >= 0 and
    e / (1 + e) elsewhere, so no exp ever overflows. The numerator is
    max(e, [z >= 0]): e never exceeds 1, and a nan z keeps its nan.
    """
    np.negative(z, out=work)
    np.minimum(z, work, out=work)  # -|z|, nan kept as it came
    np.exp(work, out=work)
    np.greater_equal(z, 0.0, out=z)
    np.maximum(work, z, out=z)
    work += 1.0
    z /= work
    return z


def sigmoid(z):
    """Logistic function of a scalar or an array, stable for every z."""
    z = np.array(z, dtype=np.float64)
    out = _sigmoid_(z, np.empty_like(z))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FeatureSpec:
    """How pixel features were built: one-hot class order, criterion
    normalization bounds, and which class the output probability targets."""

    class_ids: tuple[int, ...]
    focal_class: int
    criteria_bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ids = tuple(int(c) for c in self.class_ids)
        if len(ids) != len(set(ids)):
            raise DataError("duplicate class ids in feature spec")
        if int(self.focal_class) not in ids:
            raise DataError(f"focal class {self.focal_class} not among {ids}")
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "focal_class", int(self.focal_class))
        object.__setattr__(
            self, "criteria_bounds", tuple((float(a), float(b)) for a, b in self.criteria_bounds)
        )

    @property
    def n_inputs(self) -> int:
        return len(self.class_ids) + len(self.criteria_bounds)


@dataclass(frozen=True)
class MLPModel:
    input_weights: np.ndarray  # (q, n_inputs)
    hidden_biases: np.ndarray  # (q,)
    output_weights: np.ndarray  # (q,)
    output_bias: float
    probability_output: bool = True
    features: FeatureSpec | None = None

    def __post_init__(self):
        w1 = np.asarray(self.input_weights, dtype=np.float64)
        w0 = np.asarray(self.hidden_biases, dtype=np.float64)
        w2 = np.asarray(self.output_weights, dtype=np.float64)
        if w1.ndim != 2:
            raise DataError("input_weights must be a (q, n_inputs) matrix")
        q = w1.shape[0]
        if w0.shape != (q,) or w2.shape != (q,):
            raise DataError("hidden_biases and output_weights must have one entry per hidden unit")
        for a in (w1, w0, w2):
            a.setflags(write=False)
        object.__setattr__(self, "input_weights", w1)
        object.__setattr__(self, "hidden_biases", w0)
        object.__setattr__(self, "output_weights", w2)
        object.__setattr__(self, "output_bias", float(self.output_bias))

    @property
    def n_inputs(self) -> int:
        return self.input_weights.shape[1]

    @property
    def q(self) -> int:
        return self.input_weights.shape[0]


def init_model(
    n_inputs: int, q: int = 8, seed: int = 0, probability_output: bool = True,
    features: FeatureSpec | None = None,
) -> MLPModel:
    """Uniform initialization in +-1/sqrt(fan_in) per layer, fixed draw order."""
    if n_inputs < 1 or q < 1:
        raise DataError(f"need n_inputs >= 1 and q >= 1, got {n_inputs}, {q}")
    rng = np.random.default_rng(seed)
    lim_in = 1.0 / np.sqrt(n_inputs)
    lim_out = 1.0 / np.sqrt(q)
    w1 = rng.uniform(-lim_in, lim_in, size=(q, n_inputs))
    w0 = rng.uniform(-lim_in, lim_in, size=q)
    w2 = rng.uniform(-lim_out, lim_out, size=q)
    b = float(rng.uniform(-lim_out, lim_out))
    return MLPModel(w1, w0, w2, b, probability_output, features)


def _hidden(w1: np.ndarray, w0: np.ndarray, x: np.ndarray, h: np.ndarray, work: np.ndarray):
    """Hidden activations sigmoid(x @ w1.T + w0), written into the (n, q)
    buffer h; work is a second (n, q) buffer."""
    np.matmul(x, w1.T, out=h)
    h += w0
    return _sigmoid_(h, work)


def _output(h: np.ndarray, w2: np.ndarray, b: float, probability_output: bool) -> np.ndarray:
    raw = h @ w2
    raw += b
    return _sigmoid_(raw, np.empty_like(raw)) if probability_output else raw


def forward_batch(model: MLPModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise DataError(f"inputs must be (n, {model.n_inputs}), got {x.shape}")
    n, q = x.shape[0], model.q
    h = _hidden(model.input_weights, model.hidden_biases, x, np.empty((n, q)), np.empty((n, q)))
    return _output(h, model.output_weights, model.output_bias, model.probability_output)


def forward(model: MLPModel, x) -> float:
    """Network output for one input vector. Raw mode returns the literal
    weighted sum of hidden activations plus bias."""
    return float(forward_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


@dataclass(frozen=True)
class MLPGradients:
    input_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float


def _batch_gradients(w1, w0, w2, b, probability_output, x, t, h, dh):
    """Mean gradients of 0.5*(out - target)^2 over the batch, plus the batch
    outputs.

    h and dh are (n, q) work buffers that serve the whole pass: h holds the
    hidden activations and then 1 - h; dh is the sigmoid's work buffer and then
    the hidden delta. Their contents on entry do not matter.
    """
    n = x.shape[0]
    h = _hidden(w1, w0, x, h, dh)
    out = _output(h, w2, b, probability_output)
    ds = out - t
    if probability_output:
        ds *= out
        ds *= np.subtract(1.0, out)
    g_w2 = ds @ h / n
    g_b = float(ds.mean())
    np.multiply(ds[:, None], w2[None, :], out=dh)
    dh *= h
    dh *= np.subtract(1.0, h, out=h)
    g_w1 = dh.T @ x / n
    g_w0 = dh.mean(axis=0)
    return MLPGradients(g_w1, g_w0, g_w2, g_b), out


def gradient(model: MLPModel, x, target: float) -> MLPGradients:
    """Gradient of the single-sample loss 0.5*(output - target)^2."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    g, _ = _batch_gradients(
        model.input_weights, model.hidden_biases, model.output_weights, model.output_bias,
        model.probability_output, x, np.asarray([float(target)]),
        np.empty((1, model.q)), np.empty((1, model.q)),
    )
    return g


def train(
    model: MLPModel,
    data: Dataset,
    learning_rate: float,
    epochs: int,
    seed: int | None = None,
) -> tuple[MLPModel, list[float]]:
    """Full-batch gradient descent.

    With a seed the weights are re-initialized from it first (architecture
    and modes kept); with seed None descent continues from the given
    weights, so learning_rate 0 returns them unchanged. The history holds
    one mean-squared-error value per epoch, measured before that epoch's
    update.
    """
    x = data.inputs
    t = data.targets
    if x.shape[1] != model.n_inputs:
        raise DataError(f"model expects {model.n_inputs} inputs, data has {x.shape[1]}")
    if learning_rate < 0:
        raise DataError(f"learning_rate must be non-negative, got {learning_rate}")
    if epochs < 1:
        raise DataError(f"epochs must be >= 1, got {epochs}")
    if seed is not None:
        model = init_model(model.n_inputs, model.q, seed, model.probability_output, model.features)
    if data.features is not None:
        if model.features is not None and model.features != data.features:
            raise DataError("model feature spec does not match the dataset's")
        model = replace(model, features=data.features)

    w1 = model.input_weights.copy()
    w0 = model.hidden_biases.copy()
    w2 = model.output_weights.copy()
    b = model.output_bias
    prob = model.probability_output
    h = np.empty((x.shape[0], model.q))
    dh = np.empty_like(h)
    history = []
    for _ in range(epochs):
        g, out = _batch_gradients(w1, w0, w2, b, prob, x, t, h, dh)
        history.append(float(np.mean((out - t) ** 2)))
        w1 -= learning_rate * g.input_weights
        w0 -= learning_rate * g.hidden_biases
        w2 -= learning_rate * g.output_weights
        b = b - learning_rate * g.output_bias
    return MLPModel(w1, w0, w2, b, prob, model.features), history


# ---------------------------------------------------------------------------
# feature construction


@dataclass(frozen=True)
class Dataset:
    """Training samples plus, when built from rasters, the pixel each row
    came from and the feature recipe."""

    inputs: np.ndarray
    targets: np.ndarray
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    features: FeatureSpec | None = None

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        t = np.asarray(self.targets, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[0] != t.size:
            raise DataError(f"bad dataset shapes: inputs {x.shape}, targets ({t.size},)")
        if x.shape[0] == 0:
            raise DataError("empty dataset")
        if not (np.isfinite(x).all() and np.isfinite(t).all()):
            raise DataError("dataset contains non-finite values")
        if t.min() < 0.0 or t.max() > 1.0:
            raise DataError("targets must lie in [0, 1]")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", t)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def _encode(spec: FeatureSpec, labels: np.ndarray, crit_values: list[np.ndarray]) -> np.ndarray:
    n = labels.size
    k = len(spec.class_ids)
    x = np.zeros((n, k + len(crit_values)))
    ids = np.asarray(spec.class_ids, dtype=np.int64)
    col = np.searchsorted(ids, labels)
    x[np.arange(n), col] = 1.0
    for i, (vals, (lo, hi)) in enumerate(zip(crit_values, spec.criteria_bounds)):
        if hi > lo:
            x[:, k + i] = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
        else:
            x[:, k + i] = 0.5  # constant criterion carries no signal
    return x


def build_samples(
    prior: LandCoverMap,
    nxt: LandCoverMap,
    criteria: list[Grid],
    focal_class: int | None = None,
) -> Dataset:
    """Training set from an observed transition.

    Inputs: one-hot prior class plus criteria min-max normalized over the
    jointly valid pixels. Target: 1 where the next class is the focal class
    (default: the highest class id). Bounds and encoding order freeze into
    the returned FeatureSpec.
    """
    require_same_geometry(prior.grid, nxt.grid, *criteria, context="build_samples")
    sel = prior.grid.valid & nxt.grid.valid
    for c in criteria:
        sel &= c.valid
    if not sel.any():
        raise DataError("no jointly valid pixels to sample")
    ids = sorted(set(prior.class_ids) | set(nxt.class_ids))
    if focal_class is None:
        focal_class = max(ids)
    if focal_class not in ids:
        raise DataError(f"focal class {focal_class} not among map classes {ids}")

    bounds = []
    crit_values = []
    for i, c in enumerate(criteria):
        vals = c.values[sel]
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            warnings.warn(f"criterion {i} is constant over the sample; encoded as 0.5", stacklevel=2)
        bounds.append((lo, hi))
        crit_values.append(vals)

    spec = FeatureSpec(tuple(ids), int(focal_class), tuple(bounds))
    rows, cols = np.nonzero(sel)
    x = _encode(spec, prior.labels[sel], crit_values)
    t = (nxt.labels[sel] == int(focal_class)).astype(np.float64)
    return Dataset(x, t, rows.astype(np.int64), cols.astype(np.int64), spec)


def predict_map(
    model: MLPModel,
    prior: LandCoverMap,
    criteria: list[Grid],
    threshold: float = 0.5,
) -> tuple[Grid, LandCoverMap]:
    """Focal-class probability grid and its thresholded 2-class map.

    Features are rebuilt with the bounds frozen in the model, so feeding the
    training rasters back reproduces the training outputs exactly. A pixel
    at or above the threshold takes the focal class.
    """
    spec = model.features
    if spec is None:
        raise DataError("model carries no feature spec; train it through build_samples data")
    if not model.probability_output:
        raise DataError("predict_map needs a probability-mode model")
    if len(spec.class_ids) != 2:
        raise DataError(f"thresholded map needs a 2-class legend, got {spec.class_ids}")
    if len(criteria) != len(spec.criteria_bounds):
        raise DataError(
            f"model was trained with {len(spec.criteria_bounds)} criteria, got {len(criteria)}"
        )
    require_same_geometry(prior.grid, *criteria, context="predict_map")
    extra = set(prior.class_ids) - set(spec.class_ids)
    if extra:
        raise DataError(f"prior map classes {sorted(extra)} unknown to the model")

    sel = prior.grid.valid
    for c in criteria:
        sel &= c.valid
    prob_vals = np.full(prior.grid.shape, prior.grid.nodata_value)
    map_vals = np.full(prior.grid.shape, prior.grid.nodata_value)
    if sel.any():
        x = _encode(spec, prior.labels[sel], [c.values[sel] for c in criteria])
        p = forward_batch(model, x)
        prob_vals[sel] = p
        other = next(c for c in spec.class_ids if c != spec.focal_class)
        map_vals[sel] = np.where(p >= threshold, float(spec.focal_class), float(other))
    legend = {cid: prior.legend.get(cid, f"class {cid}") for cid in spec.class_ids}
    prob = prior.grid.with_values(prob_vals)
    return prob, LandCoverMap(prior.grid.with_values(map_vals), legend, prior.date_tag)


def write_history_csv(history, path) -> None:
    with open(str(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write("epoch,mse\n")
        for i, v in enumerate(history):
            fh.write(f"{i},{repr(float(v))}\n")


# ---------------------------------------------------------------------------
# model file format


def save_model(model: MLPModel, path) -> None:
    lines = ["LANDCHANGE-MLP 1"]
    lines.append(f"n_inputs {model.n_inputs}")
    lines.append(f"hidden {model.q}")
    lines.append(f"probability_output {int(model.probability_output)}")
    for row in model.input_weights:
        lines.append("w1 " + " ".join(repr(float(v)) for v in row))
    lines.append("w0 " + " ".join(repr(float(v)) for v in model.hidden_biases))
    lines.append("w2 " + " ".join(repr(float(v)) for v in model.output_weights))
    lines.append("b " + repr(float(model.output_bias)))
    if model.features is not None:
        f = model.features
        lines.append("classes " + " ".join(str(c) for c in f.class_ids))
        lines.append(f"focal {f.focal_class}")
        for lo, hi in f.criteria_bounds:
            lines.append(f"bounds {repr(lo)} {repr(hi)}")
    with open(str(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MLPModel:
    path = str(path)
    text = read_text(path, "model file", encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "LANDCHANGE-MLP 1":
        raise DataError(f"{path}: not a model file (missing signature)")
    fields: dict[str, list[list[str]]] = {}
    for ln in lines[1:]:
        key, *rest = ln.split()
        fields.setdefault(key, []).append(rest)
    try:
        n_inputs = int(fields["n_inputs"][0][0])
        q = int(fields["hidden"][0][0])
        prob = int(fields["probability_output"][0][0])
        w1 = np.array([[float(v) for v in row] for row in fields["w1"]])
        w0 = np.array([float(v) for v in fields["w0"][0]])
        w2 = np.array([float(v) for v in fields["w2"][0]])
        b = float(fields["b"][0][0])
    except (KeyError, ValueError, IndexError):
        raise DataError(f"{path}: malformed model file") from None
    if n_inputs < 1 or q < 1:
        raise DataError(f"{path}: need n_inputs >= 1 and hidden >= 1, got {n_inputs} and {q}")
    if prob not in (0, 1):
        raise DataError(f"{path}: probability_output must be 0 or 1, got {prob}")
    if w1.shape != (q, n_inputs):
        raise DataError(f"{path}: weight matrix shape {w1.shape} does not match header ({q}, {n_inputs})")
    if w0.shape != (q,) or w2.shape != (q,):
        raise DataError(f"{path}: w0 and w2 need {q} entries each, got {w0.size} and {w2.size}")
    for name, a in (("w1", w1), ("w0", w0), ("w2", w2), ("b", b)):
        if not np.isfinite(a).all():
            raise DataError(f"{path}: non-finite {name} value")
    features = None
    if "classes" in fields:
        try:
            ids = tuple(int(c) for c in fields["classes"][0])
            focal = int(fields["focal"][0][0])
            bounds = tuple((float(a), float(bb)) for a, bb in fields.get("bounds", []))
        except (KeyError, ValueError, IndexError):
            raise DataError(f"{path}: malformed feature spec") from None
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DataError(f"{path}: non-finite bounds value")
            if lo > hi:
                raise DataError(f"{path}: bounds {lo!r} > {hi!r}")
        try:
            features = FeatureSpec(ids, focal, bounds)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        if features.n_inputs != n_inputs:
            raise DataError(f"{path}: feature spec implies {features.n_inputs} inputs, header says {n_inputs}")
    return MLPModel(w1, w0, w2, b, bool(prob), features)
