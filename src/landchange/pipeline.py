"""Config-driven pipeline stages and the calibrate-predict-validate run.

Every stage reads its inputs from files and writes its outputs to files
under the configured output directory, so chaining the stage subcommands
produces byte-identical artifacts to the monolithic run. The last dated
map is held out: transitions are estimated from the two maps before it,
the prediction targets its year, and validation compares against it.

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
from .grid import LandCoverMap, mask_like, read_ascii_grid, read_legend, write_ascii_grid
from .markov import (
    conditional_probability_maps,
    crosstab,
    expected_areas,
    read_transition_csv,
    scale_transition,
    second_order_transitions,
    transition_probabilities,
    write_expected_areas_csv,
    write_second_order_csv,
    write_transition_csv,
)
from .mce import owa, read_saaty_csv, saaty_weights, wlc, write_weights_csv
from .mlp import build_samples, init_model, load_model, predict_map, save_model, train, write_history_csv

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


def _read_map(path, legend, date_tag: str) -> LandCoverMap:
    return LandCoverMap(read_ascii_grid(path), legend, date_tag)


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


# ---------------------------------------------------------------------------
# stages


def stage_markov(cfg: PipelineConfig) -> dict:
    """Estimate transitions from the calibration pair, scale them to the
    prediction span, and project expected areas."""
    out = _out(cfg)
    maps = load_maps(cfg)
    prev, cur, held, span_cal, span_pred = _window(maps, cfg.years)
    counts, ids = crosstab(prev, cur)
    tm = transition_probabilities(counts, ids, span_cal)
    write_transition_csv(tm, out / TRANSITION_CSV)
    tm_s = scale_transition(tm, span_pred)
    write_transition_csv(tm_s, out / TRANSITION_SCALED_CSV)
    reals, ints = expected_areas(cur, tm_s)
    write_expected_areas_csv(reals, ints, out / EXPECTED_AREAS_CSV)
    for cid, g in sorted(conditional_probability_maps(cur, tm_s).items()):
        write_ascii_grid(g, out / f"prob_to_{cid}.asc")
    if len(maps) >= 4:  # a second-order table without touching the held-out map
        table = second_order_transitions(maps[-4], maps[-3], maps[-2], time_span=span_cal)
        write_second_order_csv(table, out / SECOND_ORDER_CSV)
    return {"transition": tm, "transition_scaled": tm_s, "expected": (reals, ints)}


def stage_mce(cfg: PipelineConfig) -> dict:
    """Fuzzy-standardize criteria and combine them into one suitability
    grid per class using the comparison-matrix weights."""
    out = _out(cfg)
    if not cfg.suitability:
        raise ConfigError("no [suitability] classes configured")
    if cfg.saaty_path is None:
        raise ConfigError("missing mce.saaty comparison matrix")
    ws = saaty_weights(read_saaty_csv(cfg.saaty_path))
    n = ws.weights.size
    write_weights_csv([f"rank{i + 1}" for i in range(n)], ws, out / WEIGHTS_CSV)

    needed = {name for names in cfg.suitability.values() for name in names}
    factors = {
        name: fuzzy_standardize(read_ascii_grid(cfg.criteria[name]), cfg.fuzzy[name])
        for name in sorted(needed)
    }
    constraints = _read_constraints(cfg)
    for cid, names in cfg.suitability.items():
        if len(names) != n:
            raise DataError(
                f"suitability class {cid} lists {len(names)} factors, "
                f"but the comparison matrix ranks {n}"
            )
        fs = [factors[name] for name in names]
        if cfg.mce_method == "owa":
            suit = owa(fs, ws, cfg.order_weights, constraints)
        else:
            suit = wlc(fs, ws, constraints)
        write_ascii_grid(suit, out / f"suit_{cid}.asc")
    return {"weights": ws}


def stage_predict(cfg: PipelineConfig) -> dict:
    """Allocate the projected areas over the most recent calibration map."""
    out = _out(cfg)
    maps = load_maps(cfg)
    _, cur, _, _, _ = _window(maps, cfg.years)
    tm_path = out / TRANSITION_SCALED_CSV
    if not tm_path.is_file():
        raise DataError(f"{tm_path.name} not found; run the markov stage first")
    tm_s = read_transition_csv(tm_path)
    suits = {}
    for cid in cur.class_ids:
        p = out / f"suit_{cid}.asc"
        if not p.is_file():
            raise DataError(f"{p.name} not found; run the mce stage first")
        suits[cid] = _read_suitability(p)
    predicted, log = ca_markov(cur, tm_s, suits, CaParams(cfg.iterations, cfg.kernel))
    write_ascii_grid(predicted.grid, out / PREDICTED_CA)
    write_allocation_log_csv(log, out / ALLOCATION_LOG_CSV)
    return {"log": log, "clumping": mean_same_class_neighbor_fraction(predicted)}


def stage_mlp_train(cfg: PipelineConfig) -> dict:
    """Fit the perceptron to the calibration transition."""
    out = _out(cfg)
    maps = load_maps(cfg)
    prev, cur, _, _, _ = _window(maps, cfg.years)
    criteria = [read_ascii_grid(p) for p in cfg.criteria.values()]
    if not criteria:
        raise ConfigError("mlp training needs at least one [criteria] grid")
    ds = build_samples(prev, cur, criteria, focal_class=cfg.mlp_focal)
    model = init_model(
        ds.inputs.shape[1], cfg.mlp_hidden, seed=cfg.seed, features=ds.features
    )
    model, history = train(model, ds, cfg.mlp_learning_rate, cfg.mlp_epochs)
    save_model(model, out / MLP_MODEL)
    write_history_csv(history, out / MLP_HISTORY_CSV)
    return {"history": history}


def stage_mlp_predict(cfg: PipelineConfig) -> dict:
    """Apply the trained perceptron to the most recent calibration map."""
    out = _out(cfg)
    model_path = out / MLP_MODEL
    if not model_path.is_file():
        raise DataError(f"{model_path.name} not found; run the mlp-train stage first")
    model = load_model(model_path)
    maps = load_maps(cfg)
    _, cur, _, _, _ = _window(maps, cfg.years)
    criteria = [read_ascii_grid(p) for p in cfg.criteria.values()]
    prob, predicted = predict_map(model, cur, criteria, cfg.mlp_threshold)
    write_ascii_grid(prob, out / MLP_PROB)
    write_ascii_grid(predicted.grid, out / PREDICTED_MLP)
    return {}


def stage_validate(cfg: PipelineConfig) -> dict:
    """Compare each prediction against the held-out map, next to a
    random-allocation baseline with the same class totals."""
    out = _out(cfg)
    maps = load_maps(cfg)
    if len(maps) < 3:
        raise DataError("validation needs at least three dated maps (last one held out)")
    _, cur, held, _, _ = _window(maps, cfg.years)
    legend = held.legend

    selected = []
    if cfg.model in ("ca_markov", "both"):
        selected.append(("ca_markov", PREDICTED_CA))
    if cfg.model in ("mlp", "both"):
        selected.append(("mlp", PREDICTED_MLP))

    rows = []
    results = {}
    baseline_targets = None
    for name, fname in selected:
        p = out / fname
        if not p.is_file():
            raise DataError(f"{fname} not found; run the predict stages first")
        pred = _read_map(p, legend, held.date_tag)
        cm = confusion(pred, held)
        k = kappa(cm)
        oa = overall_accuracy(cm)
        write_confusion_csv(cm, out / f"confusion_{name}.csv")
        mask, producer = residual_map(pred, held)
        write_ascii_grid(mask, out / f"residual_{name}.asc")
        rows.append((name, k, oa))
        results[name] = {"kappa": k, "accuracy": oa, "producer": producer}
        if baseline_targets is None:
            baseline_targets = pred.class_counts()

    rand = random_allocation(cur, AllocationTargets(baseline_targets), cfg.seed)
    cm_r = confusion(rand, held)
    k_r = kappa(cm_r)
    rows.append(("random_baseline", k_r, overall_accuracy(cm_r)))
    results["random_baseline"] = {"kappa": k_r, "accuracy": overall_accuracy(cm_r)}

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


_STAGES = {
    "markov": stage_markov,
    "mce": stage_mce,
    "predict": stage_predict,
    "mlp-train": stage_mlp_train,
    "mlp-predict": stage_mlp_predict,
    "validate": stage_validate,
}


def run_stage(name: str, cfg: PipelineConfig) -> dict:
    """One pipeline stage with stage-attributed errors."""
    fn = _STAGES[name]
    try:
        return fn(cfg)
    except LandchangeError as e:
        raise type(e)(f"stage {name}: {e}") from e


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
        info[name] = run_stage(name, cfg)
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
    lines.extend(_fmt_matrix(info["markov"]["transition_scaled"]))
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
