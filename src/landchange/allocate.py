"""Spatial allocation of projected class areas.

MOLA-style arbitration assigns every eligible pixel to a class so that
class counts hit their targets exactly: classes repeatedly claim their
best-ranked free pixels and conflicts go to the class that ranks the
pixel better. The cellular pass re-runs the allocation over several
iterations with suitability weighted by a neighborhood contiguity
filter, which grows change along existing class edges.

MOLA runs in one kernel, `_claim`, on the eligible cells alone. Each
class orders them by a stable argsort of its key, lowest first, so tied
cells keep row-major order. `mola` keys them by the negated
suitabilities. In the cellular pass the weighted suitability is byte *
(CONTIGUITY_FLOOR + n_same / n_valid), with the neighbour counts small
integers, so `ca_markov` looks each cell's key up in `_key_table`: the
dense uint16 rank of every (byte, n_valid, n_same) product, computed with
the float64 operations of the float key so that equal products share a
rank. Suitabilities that are not all bytes, and kernels of 7 or more
(169,582 distinct products at 7, growing as kernel**4), take the negated
float product as the key instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import (
    Grid,
    LandCoverMap,
    by_position,
    joint_valid,
    neighbor_counts,
    require_data_under,
    require_same_classes,
    require_same_geometry,
    write_csv,
)
from .markov import TransitionMatrix, expected_areas, largest_remainder

CONTIGUITY_FLOOR = 0.01  # keeps isolated-but-suitable cells allocatable


@dataclass(frozen=True)
class AllocationTargets:
    """Exact per-class pixel counts to allocate. Must cover every eligible pixel."""

    targets: dict[int, int]

    def __post_init__(self):
        t = {int(k): int(v) for k, v in dict(self.targets).items()}
        if any(v < 0 for v in t.values()):
            raise DataError("targets must be non-negative")
        if not t:
            raise DataError("no allocation targets")
        object.__setattr__(self, "targets", t)

    @property
    def total(self) -> int:
        return sum(self.targets.values())


def _class_orders(keys: dict[int, np.ndarray], index: type) -> dict[int, np.ndarray]:
    """Per class: the cell positions in ascending key order, ties in
    position order, of dtype `index`. A cell's rank is its place here.
    Empties `keys`, so each key array can go once it is sorted."""
    return {c: np.argsort(keys.pop(c), kind="stable").astype(index, copy=False) for c in list(keys)}


def _claim(class_ids: list[int], keys: dict[int, np.ndarray], targets: dict[int, int]) -> np.ndarray:
    """MOLA's ranked claims on cells 0..n-1, where keys[c] holds class c's
    key for each cell and targets[c] its cell count, for every c in
    class_ids. Returns each cell's class as a position in class_ids.
    Empties `keys`: each key array goes once its class order is built.

    Every round each class claims its remaining quota from its best-ranked
    unassigned cells; a contested cell goes to the class ranking it best
    (ties to the lowest class id). Contests are settled by rank scatter:
    classes in ascending id write their claim ranks into one per-cell
    best-rank array, and a claim takes a cell only with a strictly lower
    rank than the one already there. Targets must sum exactly to n; every
    target is hit exactly."""
    n = keys[class_ids[0]].size
    total = sum(targets.values())
    if total != n:
        raise DataError(f"targets sum to {total} but {n} pixels are eligible")
    index = np.int32 if n < 2**31 else np.int64  # int32 halves the rank arrays
    orders = _class_orders(keys, index)

    # per cell, the position in class_ids of the class it is assigned to,
    # and the best rank claimed this round and the class that holds it.
    # Every claimed cell is assigned when its round ends and never
    # claimed again, so neither array needs resetting between rounds.
    # Positions take the narrowest signed type that holds them and -1.
    position = np.min_scalar_type(-len(class_ids))
    assigned = np.full(n, -1, dtype=position)
    best = np.full(n, np.iinfo(index).max, dtype=index)
    holder = np.empty(n, dtype=position)
    remaining = dict(targets)
    cursor = {c: 0 for c in class_ids}

    while any(v > 0 for v in remaining.values()):
        claims = {}
        for i, c in enumerate(class_ids):
            need = remaining[c]
            if need == 0:
                continue
            start = cursor[c]
            seg = orders[c][start:]
            rnk = np.flatnonzero(assigned[seg] < 0)[:need].astype(index)
            if rnk.size == 0:
                raise DataError(f"class {c} ran out of pixels with {need} still to allocate")
            picked = seg[rnk]
            # a rank is a place in the order. Classes come in ascending id,
            # so only a strictly lower rank takes a cell from an earlier
            # class: ties stay with the lowest id
            rnk += start
            cursor[c] = int(rnk[-1]) + 1
            wins = rnk < best[picked]
            won = picked[wins]
            best[won] = rnk[wins]
            holder[won] = i
            claims[i] = picked
        for i, picked in claims.items():
            won = picked[holder[picked] == i]
            assigned[won] = i
            remaining[class_ids[i]] -= won.size
    return assigned


def mola(
    suitabilities: dict[int, Grid],
    targets: AllocationTargets,
    legend: dict[int, str] | None = None,
    date_tag: str = "",
) -> LandCoverMap:
    """Multi-objective allocation by iterative ranked claims (`_claim`).

    The eligible pixels are those where every suitability holds data. A
    class ranks them by suitability, highest first, ties to the earlier
    pixel in row-major order. Targets must sum exactly to the eligible
    pixel count; the result hits every target exactly and is
    deterministic.
    """
    require_same_classes(("suitability", suitabilities), ("mola: target", targets.targets))
    class_ids = sorted(suitabilities)
    geometry = suitabilities[class_ids[0]]
    eligible = joint_valid(*(suitabilities[c] for c in class_ids), context="mola")
    keys = {c: -suitabilities[c].values[eligible] for c in class_ids}
    assigned = _claim(class_ids, keys, targets.targets)
    if legend is None:
        legend = {c: f"class {c}" for c in class_ids}
    out = geometry.scatter(eligible, np.asarray(class_ids, dtype=np.float64)[assigned])
    return LandCoverMap(out, legend, date_tag)


def _contiguity(n_same, n_valid) -> np.ndarray:
    """n_same / n_valid in float64, 0 where n_valid is 0: the share of a
    cell's valid neighbours that hold a class."""
    out = np.zeros(np.broadcast(n_same, n_valid).shape)
    np.divide(n_same, n_valid, out=out, where=n_valid > 0)
    return out


def contiguity_weights(current: LandCoverMap, class_ids, kernel_size: int = 5) -> dict[int, np.ndarray]:
    """Per class id: the fraction of valid neighbors inside the kernel window
    (center excluded) holding that class. Edges normalize by the neighbors
    actually available; the values at nodata cells mean nothing. The labels
    and the valid-neighbor counts are computed once for all classes."""
    if kernel_size < 3 or kernel_size % 2 == 0:
        raise DataError(f"kernel_size must be an odd number >= 3, got {kernel_size}")
    labels = current.labels
    radius = kernel_size // 2
    n_valid = neighbor_counts(labels >= 0, radius)
    return {int(c): _contiguity(neighbor_counts(labels == int(c), radius), n_valid) for c in class_ids}


def contiguity_filter(current: LandCoverMap, class_id: int, kernel_size: int = 5) -> Grid:
    """contiguity_weights for one class, as a grid on the map's geometry."""
    weights = contiguity_weights(current, (class_id,), kernel_size)[int(class_id)]
    valid = current.grid.valid
    return current.grid.scatter(valid, weights[valid])


@dataclass(frozen=True)
class CaParams:
    """Iteration count and neighborhood for the cellular allocation pass.
    Iteration it of n allocates the share it / n of the total projected
    change."""

    iterations: int = 5
    kernel_size: int = 5

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError(f"iterations must be >= 1, got {self.iterations}")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise DataError(f"kernel_size must be an odd number >= 3, got {self.kernel_size}")


@dataclass(frozen=True)
class AllocationLogRow:
    iteration: int
    class_id: int
    target: int
    allocated: int


# A kernel-5 key table has 160,000 entries. Kernel 7 would need 614,656 and
# holds 169,582 distinct products, more than a uint16 rank tells apart, and
# the table grows as kernel**4, so larger tables are never built.
_KEY_TABLE_MAX_ENTRIES = 1 << 18


@functools.lru_cache(maxsize=None)
def _key_table(kernel_size: int) -> np.ndarray | None:
    """Dense uint16 rank, best first, of byte * (CONTIGUITY_FLOOR +
    _contiguity(n_same, n_valid)) at index (n_valid * (m + 1) + n_same) *
    256 + byte, where m = kernel_size**2 - 1 bounds the neighbour counts and
    n_same <= n_valid. Entries are the float64 operations of the float key,
    so equal products share a rank. None when the table would be too large
    or its ranks overflow."""
    m = kernel_size**2 - 1
    if 256 * (m + 1) ** 2 > _KEY_TABLE_MAX_ENTRIES:
        return None
    n_valid = np.arange(m + 1, dtype=np.float64)[:, None]
    n_same = np.arange(m + 1, dtype=np.float64)[None, :]
    pairs = n_same <= n_valid
    weight = CONTIGUITY_FLOOR + _contiguity(n_same, n_valid)[pairs]
    products = np.arange(256, dtype=np.float64) * weight[:, None]
    distinct, rank = np.unique(-products, return_inverse=True)
    if distinct.size > np.iinfo(np.uint16).max:
        return None
    table = np.zeros((m + 1, m + 1, 256), dtype=np.uint16)
    table[pairs] = rank.reshape(products.shape)
    table = table.ravel()
    table.setflags(write=False)
    return table


def _weighted_key(values, n_same, n_valid, table, kernel_size: int) -> np.ndarray:
    """mola's sort key for values weighted by CONTIGUITY_FLOOR + their
    `_contiguity`: the `_key_table` rank of byte values, or with no table
    the negated float product."""
    if table is None:
        return -(values * (CONTIGUITY_FLOOR + _contiguity(n_same, n_valid)))
    index = n_valid * kernel_size**2  # (n_valid * (m + 1) + n_same) * 256 + byte
    index += n_same
    index *= 256
    index += values
    return table[index]


def ca_markov(
    current: LandCoverMap,
    tm: TransitionMatrix,
    suitabilities: dict[int, Grid],
    params: CaParams | None = None,
) -> tuple[LandCoverMap, list[AllocationLogRow]]:
    """Cellular allocation of Markov-projected areas.

    Each iteration interpolates targets between the current map's counts
    and the projected final counts, weights every suitability by
    (floor + contiguity of its class on the evolving map) and re-runs the
    ranked allocation. An iteration whose targets already match the map
    allocates nothing. Final counts equal the projected targets exactly.

    Every suitability must hold data wherever the map does. The weighted
    suitabilities reach `_claim` as sort keys: the `_key_table` rank when
    every suitability holds only bytes (`Grid.holds_integers(0, 255)`) and
    the kernel has a table, else the negated float product.
    """
    params = params or CaParams()
    ids = sorted(suitabilities)
    require_same_classes(
        ("map", current.class_ids), ("ca_markov: suitability", ids), ("ca_markov: transition", tm.class_ids)
    )
    require_same_geometry(*by_position("ca_markov", current.grid, *(suitabilities[c] for c in ids)))
    where = f"map {current.date_tag or '(undated)'}"
    for c in ids:
        require_data_under(current.grid, suitabilities[c], f"ca_markov: the class {c} suitability", where)
    # every per-cell array below holds the valid cells alone, in row-major order
    valid = current.grid.valid
    kernel = params.kernel_size
    radius = kernel // 2
    table = _key_table(kernel)
    if table is not None and not all(suitabilities[c].holds_integers(0, 255) for c in ids):
        table = None
    kind = np.float64 if table is None else np.uint8
    values = {c: suitabilities[c].values[valid].astype(kind, copy=False) for c in ids}
    # the evolving map always holds exactly the valid cells of `current`
    n_valid = neighbor_counts(valid, radius)[valid]

    _, finals = expected_areas(current, tm)
    initial = current.class_counts()
    init_vec = np.array([initial[c] for c in ids], dtype=np.float64)
    final_vec = np.array([finals[c] for c in ids], dtype=np.float64)
    total = int(init_vec.sum())

    labels = current.labels.copy()  # the evolving map, -1 at nodata
    codes = np.asarray(ids, dtype=labels.dtype)
    now = [initial[c] for c in ids]  # the class counts of `labels`
    log: list[AllocationLogRow] = []
    for it in range(1, params.iterations + 1):
        reals = init_vec + it / params.iterations * (final_vec - init_vec)
        wanted = largest_remainder(reals, total).tolist()
        if wanted != now:
            keys = {
                c: _weighted_key(values[c], neighbor_counts(labels == c, radius)[valid], n_valid, table, kernel)
                for c in ids
            }
            assigned = _claim(ids, keys, dict(zip(ids, wanted)))
            labels[valid] = codes[assigned]
            now = np.bincount(assigned, minlength=len(ids)).tolist()
        log.extend(AllocationLogRow(it, c, w, n) for c, w, n in zip(ids, wanted, now))
    predicted = current.grid.scatter(valid, labels[valid])
    return LandCoverMap(predicted, dict(current.legend), current.date_tag), log


def random_allocation(template: LandCoverMap, targets: AllocationTargets, seed: int) -> LandCoverMap:
    """Assign target counts to uniformly random eligible pixels. Baseline for
    judging how much structure an allocation actually captured."""
    eligible = template.labels >= 0
    n = int(np.count_nonzero(eligible))
    if targets.total != n:
        raise DataError(f"targets sum to {targets.total} but {n} pixels are eligible")
    ids = sorted(targets.targets)
    # a seeded shuffle of the eligible cells' row-major positions takes each
    # class's count in turn, lowest id first
    classes = np.empty(n)
    classes[np.random.default_rng(seed).permutation(n)] = np.repeat(
        np.asarray(ids, dtype=np.float64), [targets.targets[c] for c in ids]
    )
    return LandCoverMap(template.grid.scatter(eligible, classes), dict(template.legend), template.date_tag)


def mean_same_class_neighbor_fraction(lc: LandCoverMap) -> float:
    """Average over valid pixels of the share of valid 8-neighbors holding
    the pixel's own class. Higher means clumpier."""
    labels = lc.labels
    valid = labels >= 0
    avail = neighbor_counts(valid)
    same = np.zeros(labels.shape)
    for c in lc.class_ids:
        pick = labels == c
        same[pick] = neighbor_counts(pick)[pick]
    ok = valid & (avail > 0)
    if not ok.any():
        raise DataError("map has no valid pixels with neighbors")
    return float(np.mean(same[ok] / avail[ok]))


def converted_adjacency_fraction(before: LandCoverMap, after: LandCoverMap) -> float:
    """Of the pixels whose class changed, the share that already touched
    (8-neighborhood) their new class in the before map. High values mean
    change grew out of existing patches instead of appearing at random."""
    require_same_geometry(*by_position("converted_adjacency_fraction", before.grid, after.grid))
    b = before.labels
    a = after.labels
    changed = (b >= 0) & (a >= 0) & (b != a)
    if not changed.any():
        raise DataError("no converted pixels to measure")
    touches = np.zeros(b.shape, dtype=bool)
    for c in after.class_ids:
        pick = changed & (a == c)
        touches[pick] = neighbor_counts(b == c)[pick] > 0
    return float(np.count_nonzero(touches)) / float(np.count_nonzero(changed))


def write_allocation_log_csv(log: list[AllocationLogRow], path) -> None:
    rows = [[row.iteration, row.class_id, row.target, row.allocated] for row in log]
    write_csv(path, [["iteration", "class_id", "target", "allocated"], *rows])
