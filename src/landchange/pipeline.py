"""Config-driven pipeline stages and the calibrate-predict-validate run.

Every stage writes its outputs to files under the configured output
directory. Each stage runs in three steps: read, compute and write. A
single-stage command reads its inputs from files, including what earlier
stages wrote. The monolithic run reads each input once and hands each
stage's in-memory results to the next stage, so the compute step is the
same code either way, and chaining the stage subcommands produces
byte-identical artifacts to the monolithic run. The last dated map is held
out: transitions are estimated from the two maps before it, the prediction
targets its year, and validation compares against it.

The text report is fully determined by config + inputs + seed except for
lines prefixed ``wall_clock``, which carry per-stage timings and are the
only place timing appears.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    residual_map,
    write_confusion_csv,
)
from .config import PipelineConfig
from .criteria import SuitabilityGrid, fuzzy_standardize
from .errors import ConfigError, DataError, LandchangeError
from .grid import Grid, LandCoverMap, mask_like, read_ascii_grid, read_legend, write_ascii_grid
from .markov import (
    TransitionMatrix,
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
    MLPModel,
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
PREDICTED_CA = "predicted_ca.asc"
PREDICTED_MLP = "predicted_mlp.asc"
MLP_MODEL = "mlp_model.txt"
MLP_HISTORY_CSV = "mlp_history.csv"
MLP_PROB = "mlp_prob.asc"
VALIDATION_CSV = "validation.csv"
REPORT_TXT = "report.txt"


def _out(cfg: PipelineConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def load_maps(cfg: PipelineConfig) -> list[LandCoverMap]:
    """Dated maps in year order, sharing one legend (the configured legend
    file, or the union of classes present in the maps)."""
    grids = [(year, read_ascii_grid(path)) for year, path in cfg.maps]
    if cfg.legend_path is not None:
        legend = read_legend(cfg.legend_path)
    else:
        present: set[int] = set()
        for _, g in grids:
            vals = g.values[g.valid]
            present |= set(np.unique(vals).astype(np.int64).tolist())
        legend = {c: f"class {c}" for c in sorted(present)}
    return [LandCoverMap(g, legend, str(year)) for year, g in grids]


def _window(maps: list[LandCoverMap], years) -> tuple[LandCoverMap, LandCoverMap, LandCoverMap | None, float, float]:
    """Calibration pair, held-out map (None with only two maps), and the
    calibration / prediction time spans."""
    if len(maps) >= 3:
        prev, cur, held = maps[-3], maps[-2], maps[-1]
        span_cal = float(years[-2] - years[-3])
        span_pred = float(years[-1] - years[-2])
    else:
        prev, cur, held = maps[0], maps[1], None
        span_cal = float(years[1] - years[0])
        span_pred = span_cal
    return prev, cur, held, span_cal, span_pred


def _read_suitability(path) -> SuitabilityGrid:
    g = read_ascii_grid(path)
    return SuitabilityGrid(g.values, g.cell_size, g.x_origin, g.y_origin, g.nodata_value)


def _read_constraints(cfg: PipelineConfig):
    cons = []
    for name, path in cfg.constraints.items():
        g = read_ascii_grid(path)
        try:
            cons.append(mask_like(g, g.values))
        except DataError:
            raise DataError(f"constraint {name!r} must hold only 0/1 values") from None
    return cons


def _read_criteria(cfg: PipelineConfig) -> list[Grid]:
    return [read_ascii_grid(p) for p in cfg.criteria.values()]


def _held_out_window(maps: list[LandCoverMap], years):
    if len(maps) < 3:
        raise DataError("validation needs at least three dated maps (last one held out)")
    return _window(maps, years)


def _predictions(cfg: PipelineConfig) -> list[tuple[str, str, str]]:
    """(model name, prediction file, stage that writes it) for each model
    the config runs."""
    selected = []
    if cfg.model in ("ca_markov", "both"):
        selected.append(("ca_markov", PREDICTED_CA, "predict"))
    if cfg.model in ("mlp", "both"):
        selected.append(("mlp", PREDICTED_MLP, "mlp-predict"))
    return selected


# ---------------------------------------------------------------------------
# read steps: what a single-stage command loads from files in place of the
# results `run_pipeline` hands forward in memory. A stage reads the inputs
# that come only from the config (criteria, comparison matrix, constraints)
# itself, in either case.


def _read_maps(cfg: PipelineConfig) -> dict:
    return {"maps": load_maps(cfg)}


def _read_predict(cfg: PipelineConfig) -> dict:
    maps = load_maps(cfg)
    _, cur, _, _, _ = _window(maps, cfg.years)
    tm_path = cfg.out_dir / TRANSITION_SCALED_CSV
    if not tm_path.is_file():
        raise DataError(f"{tm_path.name} not found; run the markov stage first")
    tm_s = read_transition_csv(tm_path)
    suits = {}
    for cid in cur.class_ids:
        p = cfg.out_dir / f"suit_{cid}.asc"
        if not p.is_file():
            raise DataError(f"{p.name} not found; run the mce stage first")
        suits[cid] = _read_suitability(p)
    return {"maps": maps, "tm_s": tm_s, "suits": suits}


def _read_mlp_predict(cfg: PipelineConfig) -> dict:
    model_path = cfg.out_dir / MLP_MODEL
    if not model_path.is_file():
        raise DataError(f"{model_path.name} not found; run the mlp-train stage first")
    model = load_model(model_path)
    maps = load_maps(cfg)
    _window(maps, cfg.years)
    return {"maps": maps, "model": model, "criteria": _read_criteria(cfg)}


def _read_validate(cfg: PipelineConfig) -> dict:
    maps = load_maps(cfg)
    _held_out_window(maps, cfg.years)
    predictions = {}
    for name, fname, _ in _predictions(cfg):
        p = cfg.out_dir / fname
        if not p.is_file():
            raise DataError(f"{fname} not found; run the predict stages first")
        predictions[name] = read_ascii_grid(p)
    return {"maps": maps, "predictions": predictions}


# ---------------------------------------------------------------------------
# stages: compute, then write. Each returns what the report needs and what
# later stages take as inputs.


def stage_markov(cfg: PipelineConfig, maps: list[LandCoverMap]) -> dict:
    """Estimate transitions from the calibration pair, scale them to the
    prediction span (composing equal sub-steps when one linear step would
    push a probability past 1), and project expected areas. Hands forward
    the dated maps and the scaled matrix."""
    prev, cur, held, span_cal, span_pred = _window(maps, cfg.years)
    counts, ids = crosstab(prev, cur)
    tm = transition_probabilities(counts, ids, span_cal)
    tm_s, steps = scale_transition_in_steps(tm, span_pred)
    reals, ints = expected_areas(cur, tm_s)
    probs = conditional_probability_maps(cur, tm_s)
    table = None
    if len(maps) >= 4:  # a second-order table without touching the held-out map
        table = second_order_transitions(maps[-4], maps[-3], maps[-2], time_span=span_cal)

    out = cfg.out_dir
    write_transition_csv(tm, out / TRANSITION_CSV)
    write_transition_csv(tm_s, out / TRANSITION_SCALED_CSV)
    write_expected_areas_csv(reals, ints, out / EXPECTED_AREAS_CSV)
    for cid, g in sorted(probs.items()):
        write_ascii_grid(g, out / f"prob_to_{cid}.asc")
    if table is not None:
        write_second_order_csv(table, out / SECOND_ORDER_CSV)
    return {
        "maps": maps,
        "transition": tm,
        "transition_scaled": tm_s,
        "steps": steps,
        "expected": (reals, ints),
    }


def stage_mce(cfg: PipelineConfig) -> dict:
    """Fuzzy-standardize criteria and combine them into one suitability
    grid per class using the comparison-matrix weights. Hands forward the
    suitability grids."""
    if not cfg.suitability:
        raise ConfigError("no [suitability] classes configured")
    if cfg.saaty_path is None:
        raise ConfigError("missing mce.saaty comparison matrix")
    ws = saaty_weights(read_saaty_csv(cfg.saaty_path))
    n = ws.weights.size
    needed = {name for names in cfg.suitability.values() for name in names}
    factors = {
        name: fuzzy_standardize(read_ascii_grid(cfg.criteria[name]), cfg.fuzzy[name])
        for name in sorted(needed)
    }
    constraints = _read_constraints(cfg)
    suits = {}
    for cid, names in cfg.suitability.items():
        if len(names) != n:
            raise DataError(
                f"suitability class {cid} lists {len(names)} factors, "
                f"but the comparison matrix ranks {n}"
            )
        fs = [factors[name] for name in names]
        if cfg.mce_method == "owa":
            suits[cid] = owa(fs, ws, cfg.order_weights, constraints)
        else:
            suits[cid] = wlc(fs, ws, constraints)

    out = cfg.out_dir
    write_weights_csv([f"rank{i + 1}" for i in range(n)], ws, out / WEIGHTS_CSV)
    for cid, suit in suits.items():
        write_ascii_grid(suit, out / f"suit_{cid}.asc")
    return {"weights": ws, "suits": suits}


def stage_predict(
    cfg: PipelineConfig,
    maps: list[LandCoverMap],
    tm_s: TransitionMatrix,
    suits: dict[int, SuitabilityGrid],
) -> dict:
    """Allocate the projected areas over the most recent calibration map.
    Hands forward the predicted grid."""
    _, cur, _, _, _ = _window(maps, cfg.years)
    for cid in cur.class_ids:  # a run whose mce stage made no grid for cid
        if cid not in suits:
            raise DataError(f"suit_{cid}.asc not found; run the mce stage first")
    suits = {cid: suits[cid] for cid in cur.class_ids}
    predicted, log = ca_markov(cur, tm_s, suits, CaParams(cfg.iterations, cfg.kernel))

    out = cfg.out_dir
    write_ascii_grid(predicted.grid, out / PREDICTED_CA)
    write_allocation_log_csv(log, out / ALLOCATION_LOG_CSV)
    return {
        "log": log,
        "clumping": mean_same_class_neighbor_fraction(predicted),
        "predicted": predicted.grid,
    }


def stage_mlp_train(cfg: PipelineConfig, maps: list[LandCoverMap]) -> dict:
    """Fit the perceptron to the calibration transition. Hands forward the
    model and the criterion grids it was fitted on."""
    prev, cur, _, _, _ = _window(maps, cfg.years)
    if len(cur.class_ids) != 2:  # predict_map thresholds to a 2-class map
        raise DataError(
            f"run.model = {cfg.model} thresholds the perceptron output into a "
            f"2-class map, but the legend holds classes {tuple(cur.class_ids)}"
        )
    criteria = _read_criteria(cfg)
    if not criteria:
        raise ConfigError("mlp training needs at least one [criteria] grid")
    ds = build_samples(prev, cur, criteria, focal_class=cfg.mlp_focal)
    model = init_model(
        ds.inputs.shape[1], cfg.mlp_hidden, seed=cfg.seed, features=ds.features
    )
    model, history = train(model, ds, cfg.mlp_learning_rate, cfg.mlp_epochs)

    out = cfg.out_dir
    save_model(model, out / MLP_MODEL)
    write_history_csv(history, out / MLP_HISTORY_CSV)
    return {"history": history, "model": model, "criteria": criteria}


def stage_mlp_predict(
    cfg: PipelineConfig, maps: list[LandCoverMap], model: MLPModel, criteria: list[Grid]
) -> dict:
    """Apply the trained perceptron to the most recent calibration map.
    Hands forward the predicted grid."""
    _, cur, _, _, _ = _window(maps, cfg.years)
    prob, predicted = predict_map(model, cur, criteria, cfg.mlp_threshold)

    out = cfg.out_dir
    write_ascii_grid(prob, out / MLP_PROB)
    write_ascii_grid(predicted.grid, out / PREDICTED_MLP)
    return {"predicted": predicted.grid}


def stage_validate(cfg: PipelineConfig, maps: list[LandCoverMap], predictions: dict[str, Grid]) -> dict:
    """Compare each prediction against the held-out map, next to a
    random-allocation baseline with the same class totals."""
    _, cur, held, _, _ = _held_out_window(maps, cfg.years)
    rows = []
    results = {}
    scored = []
    baseline_targets = None
    for name, grid in predictions.items():
        pred = LandCoverMap(grid, held.legend, held.date_tag)
        cm = confusion(pred, held)
        k = kappa(cm)
        oa = overall_accuracy(cm)
        mask, producer = residual_map(pred, held)
        scored.append((name, cm, mask))
        rows.append((name, k, oa))
        results[name] = {"kappa": k, "accuracy": oa, "producer": producer}
        if baseline_targets is None:
            baseline_targets = pred.class_counts()

    rand = random_allocation(cur, AllocationTargets(baseline_targets), cfg.seed)
    cm_r = confusion(rand, held)
    k_r = kappa(cm_r)
    rows.append(("random_baseline", k_r, overall_accuracy(cm_r)))
    results["random_baseline"] = {"kappa": k_r, "accuracy": overall_accuracy(cm_r)}

    out = cfg.out_dir
    for name, cm, mask in scored:
        write_confusion_csv(cm, out / f"confusion_{name}.csv")
        write_ascii_grid(mask, out / f"residual_{name}.asc")
    with open(out / VALIDATION_CSV, "w", encoding="ascii", newline="\n") as fh:
        fh.write("model,kappa,overall_accuracy\n")
        for name, k, oa in rows:
            fh.write(f"{name},{repr(float(k))},{repr(float(oa))}\n")
    return results


# ---------------------------------------------------------------------------
# full run


@dataclass(frozen=True)
class RunReport:
    """Validation scores plus where the full write-up landed."""

    kappas: dict[str, float]
    baseline_kappa: float
    report_path: Path
    timings: dict[str, float]


# stage name -> (read step of the single-stage command, stage)
_STAGES = {
    "markov": (_read_maps, stage_markov),
    "mce": (lambda cfg: {}, stage_mce),
    "predict": (_read_predict, stage_predict),
    "mlp-train": (_read_maps, stage_mlp_train),
    "mlp-predict": (_read_mlp_predict, stage_mlp_predict),
    "validate": (_read_validate, stage_validate),
}


def run_stage(name: str, cfg: PipelineConfig, inputs: dict | None = None) -> dict:
    """One pipeline stage into the output directory (created first), with
    stage-attributed errors. `inputs` are the earlier stages' results that
    `run_pipeline` hands forward; without them the stage reads those from
    files."""
    read, stage = _STAGES[name]
    _out(cfg)
    try:
        return stage(cfg, **(read(cfg) if inputs is None else inputs))
    except LandchangeError as e:
        raise type(e)(f"stage {name}: {e}") from e


def _handoff(name: str, cfg: PipelineConfig, info: dict[str, dict]) -> dict | None:
    """What `run_pipeline` gives a stage from the results of the stages
    before it. Markov reads the dated maps itself. A result is popped when
    the last stage that needs it takes it, so no grid outlives its use."""
    if name == "markov":
        return None
    if name == "mce":
        return {}
    maps = info["markov"]["maps"]
    if name == "predict":
        return {"maps": maps, "tm_s": info["markov"]["transition_scaled"], "suits": info["mce"].pop("suits")}
    if name == "mlp-train":
        return {"maps": maps}
    if name == "mlp-predict":
        trained = info["mlp-train"]
        return {"maps": maps, "model": trained["model"], "criteria": trained.pop("criteria")}
    predictions = {m: info[stage].pop("predicted") for m, _, stage in _predictions(cfg)}
    return {"maps": info["markov"].pop("maps"), "predictions": predictions}


def _fmt_matrix(tm) -> list[str]:
    lines = [f"  time span: {repr(float(tm.time_span))}"]
    header = "  class " + " ".join(f"{c:>10d}" for c in tm.class_ids)
    lines.append(header)
    for cid, row in zip(tm.class_ids, tm.probs):
        lines.append(f"  {cid:>5d} " + " ".join(f"{v:>10.6f}" for v in row))
    return lines


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """calibrate -> predict -> validate, with a text report at the end."""
    out = _out(cfg)
    order = ["markov"]
    if cfg.model in ("ca_markov", "both"):
        order += ["mce", "predict"]
    if cfg.model in ("mlp", "both"):
        order += ["mlp-train", "mlp-predict"]
    order.append("validate")

    info: dict[str, dict] = {}
    timings: dict[str, float] = {}
    for name in order:
        t0 = time.perf_counter()
        info[name] = run_stage(name, cfg, _handoff(name, cfg, info))
        timings[name] = time.perf_counter() - t0

    lines = ["land-cover change pipeline report", ""]
    lines.append("settings")
    for key, value in cfg.echo():
        lines.append(f"  {key} = {value}")
    lines.append("")

    tm = info["markov"]["transition"]
    lines.append("estimated transition probabilities")
    lines.extend(_fmt_matrix(tm))
    lines.append("")
    lines.append("scaled to the prediction span")
    tm_s = info["markov"]["transition_scaled"]
    lines.extend(_fmt_matrix(tm_s))
    steps = info["markov"]["steps"]
    if steps > 1:
        lines.append(f"  time span note: {steps} equal steps of {repr(tm_s.time_span / steps)}, composed")
    lines.append("")

    reals, ints = info["markov"]["expected"]
    lines.append("projected areas (pixels)")
    lines.append("  class     expected    target")
    for cid in sorted(reals):
        lines.append(f"  {cid:>5d} {reals[cid]:>12.2f} {ints[cid]:>9d}")
    lines.append("")

    if "mce" in info:
        ws = info["mce"]["weights"]
        lines.append("comparison-matrix weights")
        for i, w in enumerate(ws.weights):
            lines.append(f"  rank{i + 1}: {repr(float(w))}")
        lines.append(f"  lambda_max = {repr(float(ws.lambda_max))}")
        lines.append(f"  consistency_ratio = {repr(float(ws.consistency_ratio))}")
        lines.append("")

    if "predict" in info:
        lines.append("allocation (final iteration)")
        last_it = max(r.iteration for r in info["predict"]["log"]) if info["predict"]["log"] else 0
        lines.append("  class    target allocated")
        for r in info["predict"]["log"]:
            if r.iteration == last_it:
                lines.append(f"  {r.class_id:>5d} {r.target:>9d} {r.allocated:>9d}")
        lines.append(f"  clumping = {repr(float(info['predict']['clumping']))}")
        lines.append("")

    if "mlp-train" in info:
        hist = info["mlp-train"]["history"]
        lines.append("perceptron training")
        lines.append(f"  epochs = {len(hist)}")
        lines.append(f"  first epoch mse = {repr(float(hist[0]))}")
        lines.append(f"  last epoch mse = {repr(float(hist[-1]))}")
        lines.append("")

    val = info["validate"]
    lines.append("validation against the held-out map")
    kappas = {}
    for name, res in val.items():
        lines.append(
            f"  {name}: kappa = {repr(float(res['kappa']))}, "
            f"overall accuracy = {repr(float(res['accuracy']))}"
        )
        kappas[name] = float(res["kappa"])
        for cid, acc in sorted(res.get("producer", {}).items()):
            lines.append(f"    class {cid} producer accuracy = {repr(float(acc))}")
    lines.append("")

    for name in order:
        lines.append(f"wall_clock {name} {timings[name]:.3f}s")
    lines.append("")

    report_path = out / REPORT_TXT
    with open(report_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))

    baseline = kappas.pop("random_baseline")
    return RunReport(kappas, baseline, report_path, timings)
