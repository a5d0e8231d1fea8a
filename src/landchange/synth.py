"""Deterministic synthetic landscape series for tests and demos.

The initial map is a Voronoi mosaic over seeded patch centers. Each later
map converts pixel counts chosen by largest-remainder rounding of the
class populations under the supplied transition matrix, so re-estimating
the matrix from consecutive maps recovers every entry to within one pixel
per class row. Converted pixels are picked by proximity to the target
class's patch seeds plus current adjacency plus seeded noise, which keeps
change clumped along patch edges. Criteria grids are the per-class seed
distance transforms, making suitability genuinely predictive of where the
series changes.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocate import contiguity_weights
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
        if self.noise < 0:
            raise ConfigError(f"noise must be non-negative, got {self.noise}")
        if self.cell_size <= 0:
            raise ConfigError(f"cell_size must be positive, got {self.cell_size}")
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


def _voronoi_labels(spec: SynthSpec, seed_rc: np.ndarray, seed_cls: np.ndarray) -> np.ndarray:
    rr, cc = np.mgrid[0 : spec.n_rows, 0 : spec.n_cols]
    d2 = (rr[None] - seed_rc[:, 0, None, None]) ** 2 + (cc[None] - seed_rc[:, 1, None, None]) ** 2
    nearest = np.argmin(d2, axis=0)  # argmin takes the first seed on ties
    return seed_cls[nearest]


def _evolve(
    labels: np.ndarray,
    spec: SynthSpec,
    prox: dict[int, np.ndarray],
    base: Grid,
    legend: dict[int, str],
    rng: np.random.Generator,
) -> np.ndarray:
    """One interval: convert exact largest-remainder pixel counts per class
    pair, picking the most attracted pixels first."""
    current = LandCoverMap(base.with_values(labels.astype(np.float64)), legend)
    adj = contiguity_weights(current, spec.class_ids, kernel_size=3)
    flat = labels.ravel()
    target = np.full(flat.size, -1, dtype=np.int64)
    for ipos, i in enumerate(spec.class_ids):
        n_i = int(np.count_nonzero(flat == i))
        if n_i == 0:
            continue
        quotas = largest_remainder(n_i * spec.transition[ipos], n_i)
        for jpos, j in enumerate(spec.class_ids):
            q = int(quotas[jpos])
            if j == i or q == 0:
                continue
            cand = np.flatnonzero((flat == i) & (target == -1))
            score = (
                prox[j].ravel()[cand]
                + adj[j].ravel()[cand]
                + spec.noise * rng.standard_normal(cand.size)
            )
            order = np.lexsort((cand, -score))
            target[cand[order[:q]]] = j
    out = flat.copy()
    conv = target >= 0
    out[conv] = target[conv]
    return out.reshape(labels.shape)


def generate_synthetic_landscape(spec: SynthSpec) -> SynthResult:
    """Build the dated map series, criteria grids, and ground-truth matrix."""
    rng = np.random.default_rng(spec.seed)
    n_pix = spec.n_rows * spec.n_cols
    k = spec.n_classes
    total_seeds = k * spec.seeds_per_class
    pos = rng.choice(n_pix, size=total_seeds, replace=False)
    seed_rc = np.column_stack(np.divmod(pos, spec.n_cols)).astype(np.int64)
    seed_cls = np.repeat(np.arange(k, dtype=np.int64), spec.seeds_per_class)

    base = Grid(np.zeros((spec.n_rows, spec.n_cols)), spec.cell_size)
    legend = {c: f"class {c}" for c in spec.class_ids}

    seeds: dict[int, np.ndarray] = {}
    criteria: dict[str, Grid] = {}
    prox: dict[int, np.ndarray] = {}
    for c in spec.class_ids:
        rc = seed_rc[seed_cls == c]
        seeds[c] = rc
        mask_vals = np.zeros((spec.n_rows, spec.n_cols))
        mask_vals[rc[:, 0], rc[:, 1]] = 1.0
        mask = BinaryMask(mask_vals, spec.cell_size)
        dist = distance_transform(mask, cell_size=spec.cell_size)
        criteria[criterion_name(c)] = dist
        dmax = float(dist.values.max())
        prox[c] = 1.0 - dist.values / dmax if dmax > 0 else np.ones_like(dist.values)

    labels = _voronoi_labels(spec, seed_rc, seed_cls)
    maps = []
    years = spec.years
    maps.append(
        LandCoverMap(base.with_values(labels.astype(np.float64)), legend, str(years[0]))
    )
    for step in range(1, spec.n_maps):
        labels = _evolve(labels, spec, prox, base, legend, rng)
        maps.append(
            LandCoverMap(base.with_values(labels.astype(np.float64)), legend, str(years[step]))
        )

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
    if model not in ("ca_markov", "mlp", "both"):
        raise ConfigError(f"model must be ca_markov, mlp or both, got {model!r}")
    spec = result.spec
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = configparser.ConfigParser(interpolation=None)
    cfg["run"] = {"seed": str(spec.seed), "model": model}

    cfg["maps"] = {}
    for lc in result.maps:
        name = f"map_{lc.date_tag}.asc"
        write_ascii_grid(lc.grid, out / name)
        cfg["maps"][lc.date_tag] = name
    write_legend(result.maps[0].legend, out / "legend.csv")
    cfg["legend"] = {"file": "legend.csv"}

    cfg["criteria"] = {}
    for name, grid in result.criteria.items():
        write_ascii_grid(grid, out / f"{name}.asc")
        cfg["criteria"][name] = f"{name}.asc"
        dmax = float(grid.values[grid.valid].max()) if grid.valid.any() else 1.0
        cfg[f"fuzzy.{name}"] = {
            "shape": "linear",
            "direction": "decreasing",
            "a": "0.0",
            "b": repr(dmax if dmax > 0 else 1.0),
        }

    saaty = consistent_saaty(spec.n_classes)
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
            "threshold": "0.5",
        }

    write_transition_csv(result.truth, out / "truth_transition.csv")

    ini = out / "pipeline.ini"
    with open(ini, "w", encoding="ascii", newline="\n") as fh:
        cfg.write(fh)
    return ini
