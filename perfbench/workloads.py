"""The benchmark's workloads: input generation, the timed command, and the
output checks.

Each workload's inputs come from its seed alone. Checks read outputs with
the small grid reader below, not with landchange's own, so a broken reader
in the program cannot hide a wrong output.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NODATA = -9999.0


# ---------------------------------------------------------------------------
# independent file readers and scores


def read_grid(path) -> tuple[np.ndarray, dict[str, float]]:
    """Plain-text grid with a six-line header; raises ValueError when the
    body does not hold NROWS x NCOLS numbers."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    header = {}
    for line in lines[:6]:
        key, value = line.split()
        header[key.lower()] = float(value)
    n_rows, n_cols = int(header["nrows"]), int(header["ncols"])
    body = " ".join(lines[6:]).split()
    if len(body) != n_rows * n_cols:
        raise ValueError(f"{path}: expected {n_rows * n_cols} values, found {len(body)}")
    return np.array(body, dtype=np.float64).reshape(n_rows, n_cols), header


def write_grid(path, values: np.ndarray, fmt: str, cell_size: float = 30.0) -> None:
    n_rows, n_cols = values.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(
            f"NCOLS {n_cols}\nNROWS {n_rows}\nXLLCORNER 0\nYLLCORNER 0\n"
            f"CELLSIZE {cell_size:g}\nNODATA_VALUE {NODATA:g}\n"
        )
        np.savetxt(fh, values, fmt=fmt)


def read_transition(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def read_csv_column(path, key: str, value: str) -> dict[str, str]:
    with open(path, newline="") as fh:
        return {row[key]: row[value] for row in csv.DictReader(fh)}


def pair_counts(a: np.ndarray, b: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """k x k counts of (a, b) label pairs over cells valid in both."""
    sel = (a != NODATA) & (b != NODATA)
    ia = np.searchsorted(ids, a[sel])
    ib = np.searchsorted(ids, b[sel])
    return np.bincount(ia * ids.size + ib, minlength=ids.size**2).reshape(ids.size, ids.size)


def kappa(pred: np.ndarray, ref: np.ndarray) -> float:
    sel = (pred != NODATA) & (ref != NODATA)
    ids = np.union1d(np.unique(pred[sel]), np.unique(ref[sel]))
    cm = pair_counts(ref, pred, ids).astype(np.float64)
    n = cm.sum()
    p_o = np.trace(cm) / n
    p_e = float(cm.sum(axis=1) @ cm.sum(axis=0)) / (n * n)
    return (p_o - p_e) / (1.0 - p_e)


def scenario_maps(scenario: Path) -> list[Path]:
    """Dated map paths of a synth scenario, in year order."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(scenario / "pipeline.ini")
    return [scenario / name for _, name in sorted(ini["maps"].items())]


def tree_digest(root: Path) -> str:
    """SHA-256 over every file name and content under `root`."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# workloads
#
# A workload's `setup(cli, inputs, seed, rows)` builds its inputs under
# `inputs` (running landchange through `cli(argv)` where the inputs are a
# synth scenario). `command(inputs, out, seed, rows)` is the timed
# landchange argv; `check(inputs, out)` raises CheckFailed on a wrong
# output and returns the kappa the benchmark reports.


def synth_argv(rows: int, classes: int, seed: int, out: Path, *extra: str) -> list[str]:
    return ["synth", "--rows", str(rows), "--cols", str(rows), "--classes", str(classes),
            "--seed", str(seed), "--out", str(out), "--quiet", *extra]


def check_held_out(inputs: Path, out: Path, model: str, pred_name: str) -> float:
    """Kappa of the prediction against the held-out map, which must equal
    the one in validation.csv."""
    pred, _ = read_grid(out / pred_name)
    held, _ = read_grid(scenario_maps(inputs)[-1])
    k = kappa(pred, held)
    reported = float(read_csv_column(out / "validation.csv", "model", "kappa")[model])
    require(abs(reported - k) <= 1e-9, f"validation.csv kappa {reported} != recomputed {k}")
    return k


def setup_scenario(classes: int, *extra: str):
    def setup(cli, inputs: Path, seed: int, rows: int) -> None:
        cli(synth_argv(rows, classes, seed, inputs, *extra))

    return setup


def command_run(inputs: Path, out: Path, seed: int, rows: int) -> list[str]:
    return ["run", "--config", str(inputs / "pipeline.ini"), "--out", str(out), "--quiet"]


def check_run(inputs: Path, out: Path) -> float:
    pred, _ = read_grid(out / "predicted_ca.asc")
    targets = read_csv_column(out / "expected_areas.csv", "class_id", "target_pixels")
    ids, counts = np.unique(pred[pred != NODATA], return_counts=True)
    got = {str(int(c)): int(n) for c, n in zip(ids, counts)}
    want = {c: int(n) for c, n in targets.items() if int(n) > 0}
    require(got == want, f"predicted class counts {got} != expected_areas.csv {want}")
    est = read_transition(out / "transition.csv")
    truth = read_transition(inputs / "truth_transition.csv")
    err = float(np.max(np.abs(est - truth)))
    require(err <= 0.02, f"transition.csv is {err:.4f} from truth_transition.csv")
    k = check_held_out(inputs, out, "ca_markov", "predicted_ca.asc")
    base = float(read_csv_column(out / "validation.csv", "model", "kappa")["random_baseline"])
    require(k - base >= 0.2, f"ca_markov kappa {k:.4f} beats random {base:.4f} by < 0.2")
    return k


def command_synth(inputs: Path, out: Path, seed: int, rows: int) -> list[str]:
    return synth_argv(rows, 3, seed, out)


SYNTH_SEEDS_PER_CLASS = 3  # the synth default; each prox grid has this many zeros


def check_synth(inputs: Path, out: Path) -> float:
    maps = [read_grid(p)[0] for p in scenario_maps(out)]
    truth = read_transition(out / "truth_transition.csv")
    ids = np.arange(truth.shape[0], dtype=np.float64)
    for a, b in zip(maps, maps[1:]):
        counts = pair_counts(a, b, ids)
        dev = np.abs(counts - counts.sum(axis=1, keepdims=True) * truth)
        require(dev.max() <= 1.0 + 1e-9, f"transition counts {dev.max():.3f} pixels from truth")
    for path in sorted(out.glob("prox*.asc")):
        dist, header = read_grid(path)
        targets = np.argwhere(dist == 0.0)
        require(len(targets) == SYNTH_SEEDS_PER_CLASS, f"{path.name}: {len(targets)} zero cells")
        rr, cc = np.indices(dist.shape)
        d2 = np.min((rr[..., None] - targets[:, 0]) ** 2 + (cc[..., None] - targets[:, 1]) ** 2, axis=-1)
        brute = np.sqrt(d2.astype(np.float64)) * header["cellsize"]
        require(np.allclose(dist, brute, rtol=1e-12, atol=1e-9), f"{path.name} != brute-force distance")
    return kappa(maps[-1], maps[-2])


# classify-512 inputs: four float bands drawn around per-class means.
BAND_MEANS = np.array([[40.0, 60.0, 80.0, 50.0], [55.0, 45.0, 70.0, 65.0], [70.0, 75.0, 55.0, 40.0]])
BAND_NOISE = 8.0
TRAINING_STRIDE = 8  # every 8th cell, in row-major order, is a training sample


def setup_classify(cli, inputs: Path, seed: int, rows: int) -> None:
    scenario = inputs / "scenario"
    cli(synth_argv(rows, BAND_MEANS.shape[0], seed, scenario, "--maps", "2"))
    truth, _ = read_grid(scenario_maps(scenario)[0])
    rng = np.random.default_rng(seed)
    labels = truth.astype(np.int64)
    for b in range(BAND_MEANS.shape[1]):
        band = BAND_MEANS[labels, b] + BAND_NOISE * rng.standard_normal(truth.shape)
        write_grid(inputs / f"band{b + 1}.asc", band, "%.3f")
    training = np.full(truth.size, NODATA)
    training[::TRAINING_STRIDE] = truth.ravel()[::TRAINING_STRIDE]
    write_grid(inputs / "training.asc", training.reshape(truth.shape), "%d")
    write_grid(inputs / "truth.asc", truth, "%d")


def command_classify(inputs: Path, out: Path, seed: int, rows: int) -> list[str]:
    bands = [str(inputs / f"band{b + 1}.asc") for b in range(BAND_MEANS.shape[1])]
    return ["classify", *bands, "--training", str(inputs / "training.asc"), "--out", str(out), "--quiet"]


def check_classify(inputs: Path, out: Path) -> float:
    truth, _ = read_grid(inputs / "truth.asc")
    scores = {}
    for name in ("classified_ml.asc", "classified_icm.asc"):
        scores[name] = kappa(read_grid(out / name)[0], truth)
        require(scores[name] >= 0.9, f"{name} kappa {scores[name]:.4f} < 0.9")
    return scores["classified_icm.asc"]


def check_mlp(inputs: Path, out: Path) -> float:
    mse = [float(v) for v in read_csv_column(out / "mlp_history.csv", "epoch", "mse").values()]
    require(mse[-1] < mse[0], f"last-epoch mse {mse[-1]} is not below first-epoch mse {mse[0]}")
    return check_held_out(inputs, out, "mlp", "predicted_mlp.asc")


def no_setup(cli, inputs: Path, seed: int, rows: int) -> None:
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    setup: Callable
    command: Callable
    check: Callable
    # Set-up repetitions per run, whose median is reported. Scenario
    # set-ups take 2-10 s and are built once to keep a run near 25 s;
    # synth-512's set-up is only the interpreter warm-up and repeats.
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-512", 512, setup_scenario(3), command_run, check_run, 1),
        Workload("synth-512", 512, no_setup, command_synth, check_synth, 3),
        Workload("classify-512", 512, setup_classify, command_classify, check_classify, 1),
        Workload("mlp-256", 256, setup_scenario(2, "--model", "mlp"), command_run, check_mlp, 1),
    )
}
