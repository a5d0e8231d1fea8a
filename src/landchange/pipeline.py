"""Config-driven pipeline stages and the calibrate-predict-validate run.

Every stage writes its outputs to files under the configured output
directory, and a later stage takes such an output by its file name
(`transition_scaled.csv`, `suit_<id>.asc`, `mlp_model.txt`,
`predicted_*.asc`) through one rule, `_take`. In a full run the writing
stage hands the object forward under that name: a suitability as bytes, a
predicted map as its labels. A raster's one taker pops it, so no raster
outlives its last consumer, and no file on disk ever stands in for it. A
single-stage command reads the file. Either way a missing output raises
the same "<file> not found; run the <stage> first" error.
Both change models end in one predict step, `_allocate`: `ca_markov`
places the Markov-projected areas on the model's per-class suitabilities
(the MCE grids, or the perceptron's probability), and the step writes the
model's predicted map, its allocation log and its allocation section.
A full run also reads each config input once: the dated maps, and the
criterion grids that mce and the perceptron share in a `both` run. Each
criterion and constraint grid is checked against the maps' geometry where
it is read, and a mismatch names its config key; an earlier stage's grid
taken by a later one (`suit_<id>.asc`, `predicted_*.asc`) is checked the
same way, and a suitability must hold data wherever the current map does,
each named by its path, as are the classes of a
`transition_scaled.csv` or `mlp_model.txt` read. Every rule that holds the
config against the legend is checked, by `_check_legend`, before any stage
writes. The compute code is the same either way, so chaining the stage
subcommands produces byte-identical artifacts to the full run. The last
dated map is held out: transitions are estimated from the two maps before
it, the prediction targets its year, and validation compares against it.

Each stage returns its own section of the text report, formatted where
its values are computed, so a full run's report is the settings followed by
the stages' sections in run order. It is fully determined by config +
inputs + seed except for lines prefixed ``wall_clock``, which carry
per-stage timings and are the only place timing appears.
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .allocate import (
    AllocationTargets,
    CaParams,
    ca_markov,
    mean_same_class_neighbor_fraction,
    random_allocation,
    write_allocation_log_csv,
)
from .classify import (
    confusion,
    kappa,
    overall_accuracy,
    producer_accuracy,
    residual_map,
    write_confusion_csv,
)
from .config import PipelineConfig
from .criteria import FuzzySpec, SuitabilityGrid, fuzzy_standardize
from .errors import ConfigError, DataError, LandchangeError
from .grid import (
    Grid,
    LandCoverMap,
    Raster,
    class_index,
    load_legend,
    naming,
    read_ascii_grid,
    read_mask,
    require_classes_cover,
    require_data_under,
    require_same_classes,
    require_same_geometry,
    write_ascii_grid,
    write_csv,
)
from .markov import (
    conditional_probability_maps,
    crosstab,
    expected_areas,
    read_transition_csv,
    scale_transition_in_steps,
    second_order_transitions,
    transition_probabilities,
    write_expected_areas_csv,
    write_second_order_csv,
    write_transition_csv,
)
from .mce import owa, read_saaty_csv, saaty_weights, wlc, write_weights_csv
from .mlp import (
    build_samples,
    init_model,
    load_model,
    predict_map,
    save_model,
    train,
    write_history_csv,
)

TRANSITION_CSV = "transition.csv"
TRANSITION_SCALED_CSV = "transition_scaled.csv"
EXPECTED_AREAS_CSV = "expected_areas.csv"
SECOND_ORDER_CSV = "second_order.csv"
WEIGHTS_CSV = "weights.csv"
ALLOCATION_LOG_CSV = "allocation_log.csv"
ALLOCATION_LOG_MLP_CSV = "allocation_log_mlp.csv"
PREDICTED_CA = "predicted_ca.asc"
PREDICTED_MLP = "predicted_mlp.asc"
MLP_MODEL = "mlp_model.txt"
MLP_HISTORY_CSV = "mlp_history.csv"
MLP_PROB = "mlp_prob.asc"
VALIDATION_CSV = "validation.csv"
REPORT_TXT = "report.txt"


def load_maps(cfg: PipelineConfig) -> list[LandCoverMap]:
    """Dated maps in year order, sharing one legend (the configured legend
    file, or the union of classes present in the maps). Every map must share
    the first map's geometry; a mismatch names both config keys. A value
    that is not a class of the legend, or no valid cell, names the map's path."""
    grids = [read_ascii_grid(path) for _, path in cfg.maps]
    require_same_geometry(*((f"maps.{year}", g) for (year, _), g in zip(cfg.maps, grids)))
    if cfg.legend_path:
        legend = load_legend(cfg.legend_path)
    else:  # the classes present in the maps, each map's checked as class ids in it
        legend = {}
        for (_, path), g in zip(cfg.maps, grids):
            own = load_legend(None, g)
            with naming(path):
                class_index(list(own))
            legend.update(own)
        legend = dict(sorted(legend.items()))
    maps = []
    for (year, path), g in zip(cfg.maps, grids):
        with naming(path):
            if not g.valid.any():
                raise DataError("no valid pixels")
            maps.append(LandCoverMap(g, legend, str(year)))
    return maps


_Window = namedtuple("_Window", "maps prev cur held span_cal span_pred")


def _window(cfg: PipelineConfig, handed: dict | None) -> _Window:
    """The dated maps, the calibration pair, the held-out map (None with
    only two maps), and the calibration / prediction time spans."""
    maps, years = _maps(cfg, handed), cfg.years
    if len(maps) >= 3:
        return _Window(maps, *maps[-3:], float(years[-2] - years[-3]), float(years[-1] - years[-2]))
    span = float(years[1] - years[0])
    return _Window(maps, maps[0], maps[1], None, span, span)


def _check_held_out(cfg: PipelineConfig) -> None:
    if len(cfg.maps) < 3:
        raise ConfigError(f"validation needs at least three dated maps (the last one held out), got {len(cfg.maps)}")


def _require_maps_geometry(name: str, g: Grid, m: LandCoverMap) -> None:
    """A grid that does not share the dated maps' geometry is a GeometryError
    naming it and the map's config key."""
    require_same_geometry((f"maps.{m.date_tag}", m), (name, g))


def _read_suitability(path, cur: LandCoverMap) -> SuitabilityGrid:
    """The suitability at path, as bytes. It must share the geometry of the
    dated maps and hold data wherever `cur` does; a failure names the path."""
    g = read_ascii_grid(path)
    _require_maps_geometry(str(path), g, cur)
    with naming(path):
        suit = SuitabilityGrid(g.values, g.cell_size, g.x_origin, g.y_origin, g.nodata_value)
    require_data_under(cur, suit, str(path), f"maps.{cur.date_tag}")
    return suit


def _read_prediction(path, held: LandCoverMap) -> LandCoverMap:
    """The predicted map at path, on the held-out map's legend. It must share
    the dated maps' geometry and hold only legend classes; a failure names
    the path."""
    g = read_ascii_grid(path)
    _require_maps_geometry(str(path), g, held)
    with naming(path):
        return LandCoverMap(g, held.legend, held.date_tag)


def _read_transition(path, cur: LandCoverMap):
    tm = read_transition_csv(path)
    require_same_classes((f"maps.{cur.date_tag}", cur.class_ids), (str(path), tm.class_ids))
    return tm


def _read_model(path, cur: LandCoverMap):
    """The model at path. It must carry a feature spec whose classes
    include `cur`'s; a failure names the path."""
    model = load_model(path)
    if model.features is None:
        with naming(path):
            raise DataError("model carries no feature spec (classes and focal lines)")
    require_classes_cover((f"maps.{cur.date_tag}", cur.class_ids), (str(path), model.features.class_ids))
    return model


def _read_layer(cfg: PipelineConfig, section: str, name: str, cur: LandCoverMap) -> Grid:
    """The [criteria] grid or [constraints] mask `name`. It must share the
    geometry of the dated maps, and a criterion must hold data wherever
    `cur` does, since every criterion reaches the allocation on `cur`; a
    failure names its config key."""
    path = getattr(cfg, section)[name]
    g = read_mask(path) if section == "constraints" else read_ascii_grid(path)
    _require_maps_geometry(f"{section}.{name}", g, cur)
    if section == "criteria":
        require_data_under(cur, g, f"criteria.{name}", f"maps.{cur.date_tag}")
    return g


# each change model: the stages that make its prediction, its prediction
# file, its allocation log and the heading of its allocation section
_Model = namedtuple("_Model", "stages predicted log heading")
_MODEL_STAGES = {
    "ca_markov": _Model(("mce", "predict"), PREDICTED_CA, ALLOCATION_LOG_CSV, "allocation (final iteration)"),
    "mlp": _Model(
        ("mlp-train", "mlp-predict"), PREDICTED_MLP, ALLOCATION_LOG_MLP_CSV, "perceptron allocation (final iteration)"
    ),
}


def _models(cfg: PipelineConfig) -> list[str]:
    """The change models the config runs, ca_markov first."""
    return [m for m in _MODEL_STAGES if cfg.model in (m, "both")]


def _check_legend(cfg: PipelineConfig, cur: LandCoverMap, stage: str) -> None:
    """The rules of `stage` that hold the config against the legend: for
    mce, a [suitability] list for every legend class and for no other (after
    the two settings it needs at all); for mlp-train, the perceptron's
    exactly two classes, one sigmoid output for the focal class against the
    other, and a configured focal class among them. A full run checks every
    stage's rules once the maps are read, before any stage writes; each
    stage checks its own again, so a single-stage command keeps them."""
    if stage == "mce":
        if not cfg.suitability:
            raise ConfigError("no [suitability] classes configured")
        if cfg.saaty_path is None:
            raise ConfigError("missing mce.saaty comparison matrix")
        for cid in cfg.suitability:
            if cid not in cur.legend:
                raise ConfigError(f"suitability.{cid}: class {cid} is not in the legend {sorted(cur.legend)}")
        for cid in cur.class_ids:
            if cid not in cfg.suitability:
                raise ConfigError(f"suitability.{cid} is missing, but the legend holds class {cid}: every class needs one")
    elif stage == "mlp-train":
        if len(cur.class_ids) != 2:
            raise DataError(
                f"run.model = {cfg.model} models one focal class against one other "
                f"class, but the legend holds classes {tuple(cur.class_ids)}"
            )
        if cfg.mlp_focal is not None and cfg.mlp_focal not in cur.legend:
            raise ConfigError(f"mlp.focal_class: class {cfg.mlp_focal} is not in the legend {sorted(cur.legend)}")


# ---------------------------------------------------------------------------
# hand-forward. A full run gives every stage one dict, `handed`: the earlier
# stages' outputs by file name, plus the config inputs it reads once (the
# dated maps and the shared criterion grids). A single-stage command gives
# None, and the stage reads everything from files.


def _put(cfg: PipelineConfig, handed: dict | None, fname: str, obj, write) -> None:
    """Write an output that a later stage takes and, in a full run, hand it
    forward under its file name."""
    write(obj, cfg.out_dir / fname)
    if handed is not None:
        handed[fname] = obj


def _take(cfg: PipelineConfig, handed: dict | None, fname: str, writer: str, read):
    """An earlier stage's output by its file name: in a full run, from what
    that stage handed forward (a file on disk may be stale and is never
    read); in a single-stage command, read from the output directory with
    `read`. A raster (a grid or a map) has one taker and is popped, so it
    does not outlive it; a small object (the scaled matrix, the model)
    stays for the next."""
    if handed is None:
        path = cfg.out_dir / fname
        if path.is_file():
            return read(path)
    elif fname in handed:
        return handed.pop(fname) if isinstance(handed[fname], Raster) else handed[fname]
    raise DataError(f"{fname} not found; run the {writer} first")


def _maps(cfg: PipelineConfig, handed: dict | None) -> list[LandCoverMap]:
    """The dated maps, read once per full run and kept in `handed`."""
    if handed is None:
        return load_maps(cfg)
    if "maps" not in handed:
        handed["maps"] = load_maps(cfg)
    return handed["maps"]


def _criteria(cfg: PipelineConfig, handed: dict | None, cur: LandCoverMap) -> dict[str, Grid]:
    """Every criterion grid by name, in config order: those an earlier
    stage of a full run handed forward under "criteria" (popped), the rest
    read."""
    have = {} if handed is None else handed.pop("criteria", {})
    return {name: have[name] if name in have else _read_layer(cfg, "criteria", name, cur) for name in cfg.criteria}


# ---------------------------------------------------------------------------
# stages: take inputs, compute, then write. Each returns its section of the
# report.


def _section(heading: str, *lines: str) -> list[str]:
    return [heading, *lines, ""]


def _fmt_matrix(tm) -> list[str]:
    lines = [f"  time span: {repr(float(tm.time_span))}"]
    header = "  class " + " ".join(f"{c:>10d}" for c in tm.class_ids)
    lines.append(header)
    for cid, row in zip(tm.class_ids, tm.probs):
        lines.append(f"  {cid:>5d} " + " ".join(f"{v:>10.6f}" for v in row))
    return lines


def stage_markov(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Estimate transitions from the calibration pair, scale them to the
    prediction span (composing equal sub-steps when one linear step would
    push a probability past 1), and project expected areas. Hands forward
    the scaled matrix."""
    w = _window(cfg, handed)
    counts, ids = crosstab(w.prev, w.cur)
    tm = transition_probabilities(counts, ids, w.span_cal)
    tm_s, steps = scale_transition_in_steps(tm, w.span_pred)
    reals, ints = expected_areas(w.cur, tm_s)
    probs = conditional_probability_maps(w.cur, tm_s)
    table = None
    if len(w.maps) >= 4:  # a second-order table without touching the held-out map
        table = second_order_transitions(w.maps[-4], w.maps[-3], w.maps[-2])

    out = cfg.out_dir
    write_transition_csv(tm, out / TRANSITION_CSV)
    _put(cfg, handed, TRANSITION_SCALED_CSV, tm_s, write_transition_csv)
    write_expected_areas_csv(reals, ints, out / EXPECTED_AREAS_CSV)
    for cid, g in sorted(probs.items()):
        write_ascii_grid(g, out / f"prob_to_{cid}.asc")
    if table is not None:
        write_second_order_csv(table, out / SECOND_ORDER_CSV)
    note = [f"  time span note: {steps} equal steps of {repr(tm_s.time_span / steps)}, composed"] if steps > 1 else []
    return [
        *_section("estimated transition probabilities", *_fmt_matrix(tm)),
        *_section("scaled to the prediction span", *_fmt_matrix(tm_s), *note),
        *_section(
            "projected areas (pixels)",
            "  class     expected    target",
            *(f"  {cid:>5d} {reals[cid]:>12.2f} {ints[cid]:>9d}" for cid in sorted(reals)),
        ),
    ]


def stage_mce(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Fuzzy-standardize criteria and combine them into one suitability
    grid per class using the comparison-matrix weights. Hands forward the
    suitability grids and, in a `both` run, the criterion grids it read."""
    cur = _window(cfg, handed).cur
    _check_legend(cfg, cur, "mce")
    ws = saaty_weights(read_saaty_csv(cfg.saaty_path))
    n = ws.weights.size
    needed = {name for names in cfg.suitability.values() for name in names}
    factors = {}
    criteria = {}  # kept only for the perceptron of a `both` run to fit on
    for name in sorted(needed):
        g = _read_layer(cfg, "criteria", name, cur)
        factors[name] = fuzzy_standardize(g, cfg.fuzzy[name])
        if cfg.model == "both":
            criteria[name] = g
    constraints = [_read_layer(cfg, "constraints", name, cur) for name in cfg.constraints]
    suits = {}
    for cid, names in cfg.suitability.items():
        fs = [factors[name] for name in names]
        if cfg.mce_method == "owa":
            suits[cid] = owa(fs, ws, cfg.order_weights, constraints)
        else:
            suits[cid] = wlc(fs, ws, constraints)

    write_weights_csv([f"rank{i + 1}" for i in range(n)], ws, cfg.out_dir / WEIGHTS_CSV)
    for cid, suit in suits.items():
        _put(cfg, handed, f"suit_{cid}.asc", suit, write_ascii_grid)
    if handed is not None:
        handed["criteria"] = criteria
    return _section(
        "comparison-matrix weights",
        *(f"  rank{i + 1}: {repr(float(v))}" for i, v in enumerate(ws.weights)),
        f"  lambda_max = {repr(float(ws.lambda_max))}",
        f"  consistency_ratio = {repr(float(ws.consistency_ratio))}",
    )


def _allocate(cfg: PipelineConfig, handed: dict | None, model: str, w: _Window, tm_s, suits) -> list[str]:
    """The predict step of both change models: allocate the projected areas
    over the current map on the per-class suitabilities `suits`, write the
    model's predicted map (handed forward, dated as the held-out map) and
    allocation log, and return its allocation section."""
    m = _MODEL_STAGES[model]
    predicted, log = ca_markov(w.cur, tm_s, suits, CaParams(cfg.iterations, cfg.kernel))
    if w.held is not None:
        predicted = LandCoverMap.from_labels(predicted, predicted.labels, predicted.legend, w.held.date_tag)
    last_it = max((r.iteration for r in log), default=0)
    try:
        clumping = repr(float(mean_same_class_neighbor_fraction(predicted)))
    except DataError:  # every valid cell stands alone
        clumping = "undefined (no valid cell has a valid neighbour)"

    _put(cfg, handed, m.predicted, predicted, write_ascii_grid)
    write_allocation_log_csv(log, cfg.out_dir / m.log)
    return _section(
        m.heading,
        "  class    target allocated",
        *(f"  {r.class_id:>5d} {r.target:>9d} {r.allocated:>9d}" for r in log if r.iteration == last_it),
        f"  clumping = {clumping}",
    )


def stage_predict(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Allocate the projected areas on the MCE suitabilities."""
    w = _window(cfg, handed)
    cur = w.cur
    tm_s = _take(cfg, handed, TRANSITION_SCALED_CSV, "markov stage", lambda path: _read_transition(path, cur))
    suits = {
        cid: _take(cfg, handed, f"suit_{cid}.asc", "mce stage", lambda path: _read_suitability(path, cur))
        for cid in cur.class_ids
    }
    return _allocate(cfg, handed, "ca_markov", w, tm_s, suits)


def stage_mlp_train(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Fit the perceptron to the calibration transition. Hands forward the
    model and the criterion grids it was fitted on."""
    w = _window(cfg, handed)
    _check_legend(cfg, w.cur, "mlp-train")
    criteria = _criteria(cfg, handed, w.cur)
    if not criteria:
        raise ConfigError("mlp training needs at least one [criteria] grid")
    ds = build_samples(w.prev, w.cur, list(criteria.values()), focal_class=cfg.mlp_focal)
    model = init_model(ds.inputs.shape[1], cfg.mlp_hidden, seed=cfg.seed)
    model, history = train(model, ds, cfg.mlp_learning_rate, cfg.mlp_epochs)  # attaches ds.features

    _put(cfg, handed, MLP_MODEL, model, save_model)
    write_history_csv(history, cfg.out_dir / MLP_HISTORY_CSV)
    if handed is not None:
        handed["criteria"] = criteria
    return _section(
        "perceptron training",
        f"  epochs = {len(history)}",
        f"  first epoch mse = {repr(float(history[0]))}",
        f"  last epoch mse = {repr(float(history[-1]))}",
    )


def stage_mlp_predict(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Allocate the projected areas on the perceptron's focal-class
    probability, standardized increasing for the focal class and decreasing
    for the other, and write that probability."""
    w = _window(cfg, handed)
    cur = w.cur
    model = _take(cfg, handed, MLP_MODEL, "mlp-train stage", lambda path: _read_model(path, cur))
    tm_s = _take(cfg, handed, TRANSITION_SCALED_CSV, "markov stage", lambda path: _read_transition(path, cur))
    prob = predict_map(model, cur, list(_criteria(cfg, handed, cur).values()))
    rise = {cid: "increasing" if cid == model.features.focal_class else "decreasing" for cid in cur.class_ids}
    suits = {cid: fuzzy_standardize(prob, FuzzySpec("linear", d, 0.0, 1.0)) for cid, d in rise.items()}
    section = _allocate(cfg, handed, "mlp", w, tm_s, suits)

    write_ascii_grid(prob, cfg.out_dir / MLP_PROB)
    return section


def stage_validate(cfg: PipelineConfig, handed: dict | None) -> list[str]:
    """Compare each prediction against the held-out map, next to a
    random-allocation baseline with the same class totals. In a full run,
    leaves the kappas by model, then "random_baseline", in `handed`."""
    _check_held_out(cfg)
    w = _window(cfg, handed)
    scored = []  # (model, confusion matrix, residual mask)
    for name in _models(cfg):
        fname = _MODEL_STAGES[name].predicted
        pred = _take(cfg, handed, fname, "predict stages", lambda path: _read_prediction(path, w.held))
        if not scored:
            targets = AllocationTargets(pred.class_counts())
        scored.append((name, confusion(pred, w.held), residual_map(pred, w.held)))
    rand = random_allocation(w.cur, targets, cfg.seed)
    cms = {name: cm for name, cm, _ in scored} | {"random_baseline": confusion(rand, w.held)}
    scores = {name: (float(kappa(cm)), float(overall_accuracy(cm))) for name, cm in cms.items()}

    out = cfg.out_dir
    for name, cm, mask in scored:
        write_confusion_csv(cm, out / f"confusion_{name}.csv")
        write_ascii_grid(mask, out / f"residual_{name}.asc")
    rows = [[name, repr(k), repr(acc)] for name, (k, acc) in scores.items()]
    write_csv(out / VALIDATION_CSV, [["model", "kappa", "overall_accuracy"], *rows])
    if handed is not None:
        handed["kappas"] = {name: k for name, (k, _) in scores.items()}
    lines = []
    for name, (k, acc) in scores.items():
        lines.append(f"  {name}: kappa = {repr(k)}, overall accuracy = {repr(acc)}")
        if name != "random_baseline":
            for cid, pa in sorted(producer_accuracy(cms[name]).items()):
                lines.append(f"    class {cid} producer accuracy = {repr(float(pa))}")
    return _section("validation against the held-out map", *lines)


# ---------------------------------------------------------------------------
# full run


@dataclass(frozen=True)
class RunReport:
    """Validation scores plus where the full write-up landed."""

    kappas: dict[str, float]
    baseline_kappa: float
    report_path: Path


_STAGES = {
    "markov": stage_markov,
    "mce": stage_mce,
    "predict": stage_predict,
    "mlp-train": stage_mlp_train,
    "mlp-predict": stage_mlp_predict,
    "validate": stage_validate,
}


def run_stage(name: str, cfg: PipelineConfig, handed: dict | None = None) -> list[str]:
    """One pipeline stage into the output directory (created first), with
    stage-attributed errors; returns its report section. `handed` is what
    the earlier stages of a full run handed forward; a single-stage command
    leaves it None and the stage reads those outputs from their files."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with _attributed(name):
        return _STAGES[name](cfg, handed)


@contextmanager
def _attributed(stage: str):
    """Prefix a landchange error raised inside with "stage <stage>: "."""
    try:
        yield
    except LandchangeError as e:
        raise type(e)(f"stage {stage}: {e}") from e


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """calibrate -> predict -> validate, with a text report at the end: the
    settings, each stage's section in run order, then one wall_clock line
    per stage."""
    _check_held_out(cfg)
    order = ["markov", *(stage for m in _models(cfg) for stage in _MODEL_STAGES[m].stages), "validate"]

    handed: dict = {}
    with _attributed("markov"):  # the first stage to read the maps
        cur = _window(cfg, handed).cur
    for name in order:  # every legend rule before any stage writes, under its stage's name
        with _attributed(name):
            _check_legend(cfg, cur, name)
    lines = ["land-cover change pipeline report", "", *_section("settings", *(f"  {k} = {v}" for k, v in cfg.echo()))]
    clock = []
    for name in order:
        t0 = time.perf_counter()
        lines += run_stage(name, cfg, handed)  # by its global name, which a profiler may rebind
        clock.append(f"wall_clock {name} {time.perf_counter() - t0:.3f}s")

    report_path = cfg.out_dir / REPORT_TXT
    with open(report_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([*lines, *clock, ""]))

    kappas = handed["kappas"]
    baseline = kappas.pop("random_baseline")
    return RunReport(kappas, baseline, report_path)
