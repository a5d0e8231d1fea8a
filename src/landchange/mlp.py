"""One-hidden-layer perceptron change model.

The network is a sum of q weighted sigmoid units over the input vector,
plus an output bias; in probability mode the sum goes through a final
sigmoid so the output reads as the chance that a pixel converts to the
focal class. Training is full-batch gradient descent on squared error.
Inputs per pixel are the one-hot previous class plus min-max normalized
criterion values; the normalization bounds freeze into the model so
prediction reproduces training arithmetic bit for bit. `predict_map` gives
that probability only; the pipeline allocates change on it with `ca_markov`.

The sigmoid is stable for every z, infinities and signed zeros included.
Training and prediction share one numeric core, `_forward_rows`, run over
the rows one cache block at a time (`_block_rows`: 512 KiB of a (rows, q)
buffer, 8192 rows at q = 8). A training epoch takes every row-local step
of a block, from x @ w1.T to the hidden delta, before the next block, so
the block stays in L2; only the reductions over all rows (ds @ h, dh.T @ x,
the column sums and the means) run once over whole buffers, which training
allocates once and reuses in place. Prediction holds one block of hidden
activations, never an (n, q) array.

The floating-point operations, and their order, are those of the
one-expression-per-step form kept as the reference in tests/test_mlp.py,
so weights, loss history and predictions match it bit for bit. Kept
exactly as that form calls them: the BLAS products with their operand
layouts, the sigmoid's passes, and add.reduce for the column mean when
q = 1. Elementwise steps give the same bits over any rows. The two row
products (x @ w1.T, h @ w2) do too when each call starts at a multiple of
_ROW_BLOCK rows, since the BLAS kernels take rows in aligned groups, so
every block starts at such a multiple; a block is also too small for
OpenBLAS to split over threads, so the bits do not depend on the thread
count. The row-vector broadcasts (adding w0, scaling by w2) run over rows
of _ROW_BLOCK * q elements instead of q, and the column sums for q > 1 go
through einsum, which adds the rows in add.reduce's order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .grid import (
    Grid, LandCoverMap, class_index, joint_valid, naming, parse_number, read_text, require_classes_cover, write_csv
)

log = logging.getLogger("landchange")


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
        class_index(self.class_ids)  # refuses an id out of range or listed twice
        ids = tuple(int(c) for c in self.class_ids)
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


def init_model(n_inputs: int, q: int = 8, seed: int = 0, probability_output: bool = True) -> MLPModel:
    """Uniform initialization in +-1/sqrt(fan_in) per layer, fixed draw
    order, with no feature spec: `train` attaches its dataset's."""
    if n_inputs < 1 or q < 1:
        raise DataError(f"need n_inputs >= 1 and q >= 1, got {n_inputs}, {q}")
    rng = np.random.default_rng(seed)
    lim_in = 1.0 / np.sqrt(n_inputs)
    lim_out = 1.0 / np.sqrt(q)
    w1 = rng.uniform(-lim_in, lim_in, size=(q, n_inputs))
    w0 = rng.uniform(-lim_in, lim_in, size=q)
    w2 = rng.uniform(-lim_out, lim_out, size=q)
    b = float(rng.uniform(-lim_out, lim_out))
    return MLPModel(w1, w0, w2, b, probability_output)


# Rows per long row in `_rows_`: a row vector tiled this many times is
# applied over (n // _ROW_BLOCK, _ROW_BLOCK * q) views of an (n, q) buffer.
# Every cache block starts at a multiple of it.
_ROW_BLOCK = 256

# Bytes of one (rows, q) cache block: a block of h, of dh and the scratch
# together take 1.5 MiB, so they stay in a 2 MiB L2 through the row steps.
_BLOCK_BYTES = 512 * 1024


def _block_rows(q: int) -> int:
    """Rows per cache block at q hidden units: _BLOCK_BYTES of float64 rows
    rounded down to a multiple of _ROW_BLOCK, never fewer (8192 at q = 8).

    The BLAS kernels take rows in groups, so a row-blocked product keeps
    the bits of the whole call only where every block starts at a multiple
    of the group; a gemv over 37-row blocks does not.
    """
    return max(_ROW_BLOCK, _BLOCK_BYTES // (8 * q) // _ROW_BLOCK * _ROW_BLOCK)


def _blocks(n: int, q: int) -> list[slice]:
    """n rows as consecutive cache blocks of _block_rows(q) rows, the last
    one shorter."""
    step = _block_rows(q)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _rows_(ufunc, a: np.ndarray, v: np.ndarray) -> None:
    """a[i] = ufunc(a[i], v) for every row i of the C-ordered (n, q) array a.

    The same elementwise operation, operands in the same order, as the
    broadcast ufunc(a, v, out=a), but its inner loops run over rows of
    _ROW_BLOCK * q elements instead of q; the rows after the last whole
    block take the plain broadcast.
    """
    n, q = a.shape
    m = n - n % _ROW_BLOCK
    if m:
        long_rows = a[:m].reshape(-1, _ROW_BLOCK * q)
        ufunc(long_rows, np.tile(v, _ROW_BLOCK), out=long_rows)
    ufunc(a[m:], v, out=a[m:])


def _column_sums(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=0) of the C-ordered (n, q) array a, bit for bit.

    For q > 1 add.reduce adds the rows one after another, and einsum adds
    them in the same order without a call per row. Its additions take their
    operands the other way round, which changes nothing unless two nans
    meet, so a nan sum is taken again by add.reduce. A single column is a
    contiguous run, which add.reduce sums pairwise, so q = 1 keeps it.
    """
    if a.shape[1] > 1:
        s = np.einsum("ij->j", a)
        if not np.isnan(s).any():
            return s
    return np.add.reduce(a, axis=0)


def _forward_rows(w1, w0, w2, b, probability_output, x, h, out, work, scratch) -> None:
    """Network outputs for the rows of x, written into out, with their hidden
    activations sigmoid(x @ w1.T + w0) in h. h and scratch have x's rows
    and q columns; out and work have x's rows."""
    np.matmul(x, w1.T, out=h)
    _rows_(np.add, h, w0)
    _sigmoid_(h, scratch)
    np.matmul(h, w2, out=out)
    out += b
    if probability_output:
        _sigmoid_(out, work)


def forward_batch(model: MLPModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise DataError(f"inputs must be (n, {model.n_inputs}), got {x.shape}")
    n, q = x.shape[0], model.q
    rows = min(n, _block_rows(q))
    h, scratch, work = np.empty((rows, q)), np.empty((rows, q)), np.empty(rows)
    out = np.empty(n)
    for s in _blocks(n, q):
        k = s.stop - s.start
        _forward_rows(
            model.input_weights, model.hidden_biases, model.output_weights, model.output_bias,
            model.probability_output, x[s], h[:k], out[s], work[:k], scratch[:k],
        )
    return out


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


def _gradient_buffers(n: int, q: int) -> tuple[np.ndarray, ...]:
    """The work buffers `_batch_gradients` takes for n rows and q hidden units."""
    return np.empty((n, q)), np.empty((n, q)), np.empty((4, n)), np.empty((min(n, _block_rows(q)), q))


def _batch_gradients(w1, w0, w2, b, probability_output, x, t, h, dh, v, scratch):
    """Mean gradients of 0.5*(out - target)^2 over the batch, plus the batch
    mean of (out - target)^2.

    The pass allocates no array of n rows; it works in buffers from
    `_gradient_buffers`, whose contents on entry do not matter. h and dh are
    (n, q): the hidden activations and the hidden deltas. v is (4, n): the
    outputs, a work row, the errors out - target and the output deltas.
    scratch is one cache block of (rows, q): the hidden sigmoid's work and
    then 1 - h.

    Every step up to the hidden delta touches only its own row, so all of
    them run on one cache block before the next block starts: x @ w1.T + w0,
    the hidden sigmoid, h @ w2 + b, the output sigmoid, the error, the output
    delta, ds * w2 * h * (1 - h) and the squared error. The reductions over
    the rows then run once over the whole arrays: ds @ h, the mean of ds,
    dh.T @ x, the column sums of dh and the mean squared error. Each step is
    the same operation, on the same operands in the same order, as over the
    whole arrays; only the rows one call covers change, and for the BLAS
    products those blocks start at multiples of _ROW_BLOCK, so no bit moves.
    """
    n = x.shape[0]
    out, work, err, ds = v
    if not probability_output:
        ds = err
    for s in _blocks(n, h.shape[1]):
        hs, dhs, ws, k = h[s], dh[s], work[s], s.stop - s.start
        _forward_rows(w1, w0, w2, b, probability_output, x[s], hs, out[s], ws, scratch[:k])
        np.subtract(out[s], t[s], out=err[s])
        if probability_output:
            np.multiply(err[s], out[s], out=ds[s])
            ds[s] *= np.subtract(1.0, out[s], out=ws)
        dhs[...] = ds[s, None]
        _rows_(np.multiply, dhs, w2)
        dhs *= hs
        dhs *= np.subtract(1.0, hs, out=scratch[:k])
        np.square(err[s], out=ws)
    g_w2 = ds @ h / n
    g_b = float(ds.mean())
    g_w1 = dh.T @ x / n
    g_w0 = _column_sums(dh) / n
    mse = float(np.mean(work))
    return MLPGradients(g_w1, g_w0, g_w2, g_b), mse


def gradient(model: MLPModel, x, target: float) -> MLPGradients:
    """Gradient of the single-sample loss 0.5*(output - target)^2."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    g, _ = _batch_gradients(
        model.input_weights, model.hidden_biases, model.output_weights, model.output_bias,
        model.probability_output, x, np.asarray([float(target)]), *_gradient_buffers(1, model.q),
    )
    return g


def train(
    model: MLPModel,
    data: Dataset,
    learning_rate: float,
    epochs: int,
) -> tuple[MLPModel, list[float]]:
    """Full-batch gradient descent from the given weights, so learning_rate
    0 returns them unchanged. The history holds one mean-squared-error value
    per epoch, measured before that epoch's update.
    """
    x = data.inputs
    t = data.targets
    if x.shape[1] != model.n_inputs:
        raise DataError(f"model expects {model.n_inputs} inputs, data has {x.shape[1]}")
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise DataError(f"learning_rate must be finite and non-negative, got {learning_rate}")
    if epochs < 1:
        raise DataError(f"epochs must be >= 1, got {epochs}")
    if data.features is not None:
        if model.features is not None and model.features != data.features:
            raise DataError("model feature spec does not match the dataset's")
        model = replace(model, features=data.features)

    w1 = model.input_weights.copy()
    w0 = model.hidden_biases.copy()
    w2 = model.output_weights.copy()
    b = model.output_bias
    prob = model.probability_output
    buffers = _gradient_buffers(x.shape[0], model.q)
    history = []
    for _ in range(epochs):
        g, mse = _batch_gradients(w1, w0, w2, b, prob, x, t, *buffers)
        history.append(mse)
        w1 -= learning_rate * g.input_weights
        w0 -= learning_rate * g.hidden_biases
        w2 -= learning_rate * g.output_weights
        b = b - learning_rate * g.output_bias
    return MLPModel(w1, w0, w2, b, prob, model.features), history


# ---------------------------------------------------------------------------
# feature construction


@dataclass(frozen=True)
class Dataset:
    """Training samples plus, when built from rasters, the feature recipe."""

    inputs: np.ndarray
    targets: np.ndarray
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


def _encode(spec: FeatureSpec, labels: np.ndarray, crit_values: list[np.ndarray]) -> np.ndarray:
    n = labels.size
    k = len(spec.class_ids)
    x = np.zeros((n, k + len(crit_values)))
    x[np.arange(n), class_index(spec.class_ids)[labels]] = 1.0
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
    sel = joint_valid(prior.grid, nxt.grid, *criteria, context="build_samples")
    if not sel.any():
        raise DataError("no jointly valid pixels to sample")
    ids = sorted(set(prior.class_ids) | set(nxt.class_ids))
    if focal_class is None:
        focal_class = max(ids)

    bounds = []
    crit_values = []
    for i, c in enumerate(criteria):
        vals = c.values[sel]
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            log.warning("criterion %d is constant over the sample; encoded as 0.5", i)
        bounds.append((lo, hi))
        crit_values.append(vals)

    spec = FeatureSpec(tuple(ids), int(focal_class), tuple(bounds))
    x = _encode(spec, prior.labels[sel], crit_values)
    t = (nxt.labels[sel] == int(focal_class)).astype(np.float64)
    return Dataset(x, t, spec)


def predict_map(model: MLPModel, prior: LandCoverMap, criteria: list[Grid]) -> Grid:
    """Focal-class probability grid: the chance that each pixel of the prior
    map holds the focal class at the next date, nodata where the prior map
    or a criterion is.

    Features are rebuilt with the bounds frozen in the model, so feeding the
    training rasters back reproduces the training outputs exactly.
    """
    spec = model.features
    if spec is None:
        raise DataError("model carries no feature spec; train it through build_samples data")
    if not model.probability_output:
        raise DataError("predict_map needs a probability-mode model")
    if len(criteria) != len(spec.criteria_bounds):
        raise DataError(
            f"model was trained with {len(spec.criteria_bounds)} criteria, got {len(criteria)}"
        )
    sel = joint_valid(prior.grid, *criteria, context="predict_map")
    require_classes_cover(("prior map", prior.class_ids), ("predict_map: model", spec.class_ids))
    x = _encode(spec, prior.labels[sel], [c.values[sel] for c in criteria])
    return prior.grid.scatter(sel, forward_batch(model, x))


def write_history_csv(history, path) -> None:
    write_csv(path, [["epoch", "mse"], *([i, repr(float(v))] for i, v in enumerate(history))])


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
        n_inputs = parse_number(fields["n_inputs"][0][0], int)
        q = parse_number(fields["hidden"][0][0], int)
        prob = parse_number(fields["probability_output"][0][0], int)
        w1 = np.array([[parse_number(v) for v in row] for row in fields["w1"]])
        w0 = np.array([parse_number(v) for v in fields["w0"][0]])
        w2 = np.array([parse_number(v) for v in fields["w2"][0]])
        b = parse_number(fields["b"][0][0])
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
            ids = tuple(parse_number(c, int) for c in fields["classes"][0])
            focal = parse_number(fields["focal"][0][0], int)
            bounds = tuple((parse_number(a), parse_number(bb)) for a, bb in fields.get("bounds", []))
        except (KeyError, ValueError, IndexError):
            raise DataError(f"{path}: malformed feature spec") from None
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DataError(f"{path}: non-finite bounds value")
            if lo > hi:
                raise DataError(f"{path}: bounds {lo!r} > {hi!r}")
        with naming(path):
            features = FeatureSpec(ids, focal, bounds)
        if features.n_inputs != n_inputs:
            raise DataError(f"{path}: feature spec implies {features.n_inputs} inputs, header says {n_inputs}")
    return MLPModel(w1, w0, w2, b, bool(prob), features)
