"""Deterministic synthetic landscape series for tests and demos.

Criteria grids are the per-class seed distance transforms (`prox<c>`),
making suitability genuinely predictive of where the series changes. The
initial map is the Voronoi mosaic they imply: each cell takes the class
whose `prox<c>` grid is smallest there, the lowest class on a tie. Each
later map converts pixel counts chosen by largest-remainder rounding of the
class populations under the supplied transition matrix, so re-estimating
the matrix from consecutive maps recovers every entry to within one pixel
per class row. Converted pixels are picked by proximity to the target
class's patch seeds plus current adjacency plus seeded noise, which keeps
change clumped along patch edges.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocate import contiguity_weights
from .config import MODELS
from .criteria import distance_transform
from .errors import ConfigError
from .grid import BinaryMask, Grid, LandCoverMap, write_ascii_grid, write_legend
from .markov import TransitionMatrix, largest_remainder, write_transition_csv
from .mce import SaatyMatrix, write_saaty_csv


def drift_matrix(n_classes: int, stay: float = 0.9) -> np.ndarray:
    """Uniform drift: stay probability on the diagonal, the rest split
    evenly over the other classes."""
    if not 0.0 <= stay <= 1.0:
        raise ConfigError(f"stay probability must be in [0, 1], got {stay}")
    k = n_classes
    if k < 2:
        raise ConfigError("drift needs at least 2 classes")
    off = (1.0 - stay) / (k - 1)
    return np.eye(k) * (stay - off) + off


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one landscape series."""

    n_rows: int = 100
    n_cols: int = 100
    n_classes: int = 3
    transition: np.ndarray | None = None
    n_maps: int = 3
    seeds_per_class: int = 3
    noise: float = 0.15
    cell_size: float = 30.0
    seed: int = 0
    start_year: int = 1988
    year_step: int = 6

    def __post_init__(self):
        if self.n_rows < 2 or self.n_cols < 2:
            raise ConfigError(f"grid must be at least 2x2, got {self.n_rows}x{self.n_cols}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if self.n_maps < 2:
            raise ConfigError(f"a series needs at least 2 maps, got {self.n_maps}")
        if self.seeds_per_class < 1:
            raise ConfigError("seeds_per_class must be at least 1")
        if self.n_classes * self.seeds_per_class > self.n_rows * self.n_cols:
            raise ConfigError("more patch seeds than pixels")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ConfigError(f"cell_size must be positive and finite, got {self.cell_size}")
        # A normal cell size keeps distinct cell distances distinct once scaled,
        # so the nearest seed class can be read off the distance grids; a
        # finite diagonal keeps every distance finite.
        diagonal = math.sqrt((self.n_rows - 1) ** 2 + (self.n_cols - 1) ** 2)
        if not (self.cell_size >= sys.float_info.min and math.isfinite(diagonal * self.cell_size)):
            raise ConfigError(
                f"cell_size must be at least {sys.float_info.min!r} and keep the "
                f"{self.n_rows}x{self.n_cols} grid's diagonal finite, got {self.cell_size!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.year_step < 1:
            raise ConfigError(f"year_step must be at least 1, got {self.year_step}")
        tr = self.transition
        if tr is None:
            tr = drift_matrix(self.n_classes)
        tr = np.asarray(tr, dtype=np.float64)
        k = self.n_classes
        if tr.shape != (k, k):
            raise ConfigError(f"transition must be {k}x{k}, got {tr.shape}")
        if np.any(tr < 0) or np.any(tr > 1):
            raise ConfigError("transition entries must lie in [0, 1]")
        if np.max(np.abs(tr.sum(axis=1) - 1.0)) > 1e-9:
            raise ConfigError("transition rows must sum to 1")
        tr.setflags(write=False)
        object.__setattr__(self, "transition", tr)

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_classes))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.start_year + i * self.year_step for i in range(self.n_maps))


@dataclass(frozen=True)
class SynthResult:
    spec: SynthSpec
    maps: tuple[LandCoverMap, ...]
    criteria: dict[str, Grid]
    truth: TransitionMatrix
    seeds: dict[int, np.ndarray]  # class id -> (n, 2) row/col seed cells


def criterion_name(class_id: int) -> str:
    return f"prox{class_id}"


def _lowest(key: np.ndarray, q: int) -> np.ndarray:
    """Positions, ascending, of the q lowest entries of key (0 < q <=
    key.size), ties taken in position order: the set that the first q of
    a stable argsort of key would give. Every entry below the qth lowest
    value is taken, then the entries equal to it in position order until
    there are q. key must hold no NaN."""
    cut = np.partition(key, q - 1)[q - 1]
    taken = key < cut
    taken[np.flatnonzero(key == cut)[: q - np.count_nonzero(taken)]] = True
    return np.flatnonzero(taken)


def _evolve(
    current: LandCoverMap,
    spec: SynthSpec,
    prox: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """One interval from the current map: convert exact largest-remainder
    pixel counts per class pair, picking the most attracted pixels first,
    ties to the lower cell index (`_lowest`). Returns the next map's
    labels. A noise draw that overflows is a ConfigError naming noise."""
    adj = contiguity_weights(current, spec.class_ids, kernel_size=3)
    flat = current.labels.ravel()
    out = flat.copy()
    for ipos, i in enumerate(spec.class_ids):
        cand = np.flatnonzero(flat == i)  # class i's cells not converted yet, ascending
        n_i = cand.size
        if n_i == 0:
            continue
        quotas = largest_remainder(n_i * spec.transition[ipos], n_i)
        for jpos, j in enumerate(spec.class_ids):
            q = int(quotas[jpos])
            if j == i or q == 0:
                continue
            with np.errstate(over="ignore"):
                noise = spec.noise * rng.standard_normal(cand.size)
            if not np.isfinite(noise).all():
                raise ConfigError(f"noise {spec.noise!r} is too large: a noise draw overflows")
            score = prox[j].ravel()[cand] + adj[j].ravel()[cand] + noise
            pick = _lowest(-score, q)
            out[cand[pick]] = j
            cand = np.delete(cand, pick)
    return out.reshape(current.labels.shape)


def generate_synthetic_landscape(spec: SynthSpec) -> SynthResult:
    """Build the dated map series, criteria grids, and ground-truth matrix."""
    rng = np.random.default_rng(spec.seed)
    k = spec.n_classes
    pos = rng.choice(spec.n_rows * spec.n_cols, size=k * spec.seeds_per_class, replace=False)
    # row/col seed cells, seeds_per_class of them per class in class order
    seed_rc = np.column_stack(np.divmod(pos, spec.n_cols)).astype(np.int64).reshape(k, -1, 2)

    legend = {c: f"class {c}" for c in spec.class_ids}

    seeds: dict[int, np.ndarray] = {}
    criteria: dict[str, Grid] = {}
    prox: dict[int, np.ndarray] = {}
    for c in spec.class_ids:
        seeds[c] = rc = seed_rc[c]
        mask_vals = np.zeros((spec.n_rows, spec.n_cols))
        mask_vals[rc[:, 0], rc[:, 1]] = 1.0
        mask = BinaryMask(mask_vals, spec.cell_size)
        dist = distance_transform(mask)
        criteria[criterion_name(c)] = dist
        # another class's seed is at least one cell away, so the max is > 0
        prox[c] = 1.0 - dist.values / dist.values.max()

    # argmin takes the first, so the lowest, class on a tie
    labels = np.argmin([criteria[criterion_name(c)].values for c in spec.class_ids], axis=0)
    geometry = criteria[criterion_name(0)]
    maps = []
    for year in spec.years:
        if maps:
            labels = _evolve(maps[-1], spec, prox, rng)
        maps.append(LandCoverMap.from_labels(geometry, labels, legend, str(year)))

    truth = TransitionMatrix(spec.transition, float(spec.year_step), spec.class_ids)
    return SynthResult(spec, tuple(maps), criteria, truth, seeds)


def consistent_saaty(n: int) -> SaatyMatrix:
    """Perfectly consistent comparison matrix with weights proportional to
    descending powers of two. Entries stay on the 1..9 scale only up to
    n=4."""
    if not 2 <= n <= 4:
        raise ConfigError(f"consistent scale matrix supports 2..4 factors, got {n}")
    w = 2.0 ** np.arange(n - 1, -1, -1)
    return SaatyMatrix(w[:, None] / w[None, :])


def write_scenario(result: SynthResult, out_dir, model: str = "ca_markov") -> Path:
    """Write the whole scenario as files plus the pipeline config that
    consumes them. Returns the config path."""
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    spec = result.spec
    saaty = consistent_saaty(spec.n_classes)  # refuses before anything is written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = configparser.ConfigParser(interpolation=None)
    cfg["run"] = {"seed": str(spec.seed), "model": model}

    cfg["maps"] = {}
    for lc in result.maps:
        name = f"map_{lc.date_tag}.asc"
        write_ascii_grid(lc, out / name)
        cfg["maps"][lc.date_tag] = name
    write_legend(result.maps[0].legend, out / "legend.csv")
    cfg["legend"] = {"file": "legend.csv"}

    cfg["criteria"] = {}
    for name, grid in result.criteria.items():
        write_ascii_grid(grid, out / f"{name}.asc")
        cfg["criteria"][name] = f"{name}.asc"
        cfg[f"fuzzy.{name}"] = {
            "shape": "linear",
            "direction": "decreasing",
            "a": "0.0",
            "b": repr(float(grid.values.max())),
        }

    write_saaty_csv(saaty, out / "saaty.csv")
    cfg["mce"] = {"saaty": "saaty.csv", "method": "wlc"}

    # each class leans hardest on proximity to its own patches
    names = [criterion_name(c) for c in spec.class_ids]
    cfg["suitability"] = {
        str(c): ",".join(names[c:] + names[:c]) for c in spec.class_ids
    }

    cfg["predict"] = {"iterations": "4", "kernel": "5"}
    if model in ("mlp", "both"):
        cfg["mlp"] = {
            "hidden": "8",
            "learning_rate": "0.5",
            "epochs": "300",
        }

    write_transition_csv(result.truth, out / "truth_transition.csv")

    ini = out / "pipeline.ini"
    with open(ini, "w", encoding="ascii", newline="\n") as fh:
        cfg.write(fh)
    return ini
