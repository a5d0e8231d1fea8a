"""Spatial allocation of projected class areas.

MOLA-style arbitration assigns every eligible pixel to a class so that
class counts hit their targets exactly: classes repeatedly claim their
best-ranked free pixels and conflicts go to the class that ranks the
pixel better. The cellular pass re-runs the allocation over several
iterations with suitability weighted by a neighborhood contiguity
filter, which grows change along existing class edges.

Each class orders its pixels by a stable argsort of a key, lowest first,
so tied pixels keep row-major order. Called on its own, `mola` takes the
negated suitabilities as the key. In the cellular pass the weighted
suitability is byte * (CONTIGUITY_FLOOR + n_same / n_valid), with the
neighbour counts small integers, so `ca_markov` looks each pixel's key up
in `_key_table`: the dense uint16 rank of every (byte, n_valid, n_same)
product, computed with the float64 operations of the float key so that
equal products share a rank. Suitabilities that are not all bytes, and
kernels of 7 or more (169,582 distinct products at 7, growing as
kernel**4), take the negated float product as the key instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import (
    DEFAULT_NODATA,
    Grid,
    LandCoverMap,
    joint_valid,
    neighbor_counts,
    require_data_under,
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


def _class_orders(keys: dict[int, np.ndarray], flat_eligible: np.ndarray, n_cells: int):
    """Per class: the eligible pixel indices in ascending key order, ties in
    cell order, and the inverse rank lookup. keys[c] holds one value per
    entry of flat_eligible."""
    orders = {}
    ranks = {}
    for c, key in keys.items():
        order = flat_eligible[np.argsort(key, kind="stable")]
        rank = np.full(n_cells, np.iinfo(order.dtype).max, dtype=order.dtype)
        rank[order] = np.arange(order.size, dtype=order.dtype)
        orders[c] = order
        ranks[c] = rank
    return orders, ranks


def mola(
    suitabilities: dict[int, Grid],
    targets: AllocationTargets,
    legend: dict[int, str] | None = None,
    date_tag: str = "",
    key: dict[int, np.ndarray] | None = None,
) -> LandCoverMap:
    """Multi-objective allocation by iterative ranked claims.

    Every round each class claims its remaining quota from its best-ranked
    unassigned pixels; a contested pixel goes to the class ranking it best
    (ties to the lowest class id). Contests are settled by rank scatter:
    classes in ascending id write their claim ranks into one per-pixel
    best-rank array, and a claim takes a pixel only with a strictly lower
    rank than the one already there. Targets must sum exactly to the
    eligible pixel count; the result hits every target exactly and is
    deterministic.

    The eligible pixels are those where every suitability holds data. A
    class ranks them by its key, lowest first, ties to the earlier pixel
    in row-major order. Without `key` that is the negated suitability;
    `key[c]`, if given, holds one value per eligible pixel in row-major
    order, and the suitabilities then only mark the eligible pixels.
    """
    if set(targets.targets) != set(suitabilities):
        raise DataError(
            f"target classes {sorted(targets.targets)} do not match suitability classes {sorted(suitabilities)}"
        )
    class_ids = sorted(suitabilities)
    geometry = suitabilities[class_ids[0]]
    eligible = joint_valid(*(suitabilities[c] for c in class_ids), context="mola")
    n_cells = geometry.shape[0] * geometry.shape[1]
    index = np.int32 if n_cells < 2**31 else np.int64  # int32 halves the state arrays
    flat_eligible = np.flatnonzero(eligible.ravel()).astype(index)
    if targets.total != flat_eligible.size:
        raise DataError(
            f"targets sum to {targets.total} but {flat_eligible.size} pixels are eligible"
        )
    if key is None:
        key = {c: -suitabilities[c].values.ravel()[flat_eligible] for c in class_ids}
    orders, ranks = _class_orders({c: key[c] for c in class_ids}, flat_eligible, n_cells)

    # per pixel, the position in class_ids of the class it is assigned to,
    # and the best rank claimed this round and the class that holds it.
    # Every claimed pixel is assigned when its round ends and never
    # claimed again, so neither array needs resetting between rounds.
    assigned = np.full(n_cells, -1, dtype=index)
    best = np.full(n_cells, np.iinfo(index).max, dtype=index)
    holder = np.empty(n_cells, dtype=index)
    remaining = {c: targets.targets[c] for c in class_ids}
    cursor = {c: 0 for c in class_ids}

    while any(v > 0 for v in remaining.values()):
        claims = {}
        for i, c in enumerate(class_ids):
            need = remaining[c]
            if need == 0:
                continue
            seg = orders[c][cursor[c] :]
            free = np.flatnonzero(assigned[seg] < 0)
            take = free[:need]
            if take.size == 0:
                raise DataError(f"class {c} ran out of pixels with {need} still to allocate")
            picked = seg[take]
            cursor[c] += int(take[-1]) + 1
            # classes come in ascending id, so only a strictly lower rank
            # takes a pixel from an earlier class: ties stay with the lowest id
            rnk = ranks[c][picked]
            wins = rnk < best[picked]
            won = picked[wins]
            best[won] = rnk[wins]
            holder[won] = i
            claims[i] = picked
        for i, picked in claims.items():
            won = picked[holder[picked] == i]
            assigned[won] = i
            remaining[class_ids[i]] -= won.size

    out = np.full(n_cells, geometry.nodata_value)
    out[flat_eligible] = np.asarray(class_ids, dtype=np.float64)[assigned[flat_eligible]]
    if legend is None:
        legend = {c: f"class {c}" for c in class_ids}
    return LandCoverMap(geometry.with_values(out.reshape(geometry.shape)), legend, date_tag)


def _contiguity(n_same, n_valid) -> np.ndarray:
    """n_same / n_valid in float64, 0 where n_valid is 0: the share of a
    cell's valid neighbours that hold a class."""
    out = np.zeros(np.broadcast(n_same, n_valid).shape)
    np.divide(n_same, n_valid, out=out, where=n_valid > 0)
    return out


def contiguity_weights(current: LandCoverMap, class_ids, kernel_size: int = 5) -> dict[int, np.ndarray]:
    """Per class id: the fraction of valid neighbors inside the kernel window
    (center excluded) holding that class. Edges normalize by the neighbors
    actually available; nodata cells hold the map's nodata value. The labels
    and the valid-neighbor counts are computed once for all classes."""
    if kernel_size < 3 or kernel_size % 2 == 0:
        raise DataError(f"kernel_size must be an odd number >= 3, got {kernel_size}")
    labels = current.labels
    radius = kernel_size // 2
    n_valid = neighbor_counts(labels >= 0, radius)
    nodata = labels < 0
    weights = {}
    for c in class_ids:
        out = _contiguity(neighbor_counts(labels == int(c), radius), n_valid)
        out[nodata] = current.grid.nodata_value
        weights[int(c)] = out
    return weights


def contiguity_filter(current: LandCoverMap, class_id: int, kernel_size: int = 5) -> Grid:
    """contiguity_weights for one class, as a grid on the map's geometry."""
    weights = contiguity_weights(current, (class_id,), kernel_size)
    return current.grid.with_values(weights[int(class_id)])


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


def _as_bytes(values: np.ndarray) -> np.ndarray | None:
    """values as uint8 when every one is an integer in 0..255, else None."""
    if values.size and not (values.min() >= 0 and values.max() <= 255 and np.array_equal(np.floor(values), values)):
        return None
    return values.astype(np.uint8)


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
    suitabilities reach `mola` as sort keys: the `_key_table` rank when
    every suitability is a byte and the kernel has a table, else the
    negated float product.
    """
    params = params or CaParams()
    ids = sorted(suitabilities)
    if set(ids) != set(current.class_ids):
        raise DataError(
            f"suitability classes {ids} do not match map classes {current.class_ids}"
        )
    if set(tm.class_ids) != set(ids):
        raise DataError(
            f"transition classes {sorted(tm.class_ids)} do not match map classes {ids}"
        )
    require_same_geometry(current.grid, *(suitabilities[c] for c in ids), context="ca_markov")
    where = f"map {current.date_tag or '(undated)'}"
    for c in ids:
        require_data_under(current.grid, suitabilities[c], f"ca_markov: the class {c} suitability", where)
    valid = current.grid.valid
    # mola allocates every valid cell of the map, so the evolving map keeps
    # them, and its nodata is the standard sentinel
    cells = np.flatnonzero(valid.ravel())
    eligible = current.grid.scatter(valid, 0.0, DEFAULT_NODATA)
    values = {c: suitabilities[c].values.ravel()[cells] for c in ids}
    table = _key_table(params.kernel_size)
    as_bytes = {c: _as_bytes(v) for c, v in values.items()} if table is not None else {}
    if table is not None and all(b is not None for b in as_bytes.values()):
        values = as_bytes
    else:
        table = None
    radius = params.kernel_size // 2
    # the evolving map always holds exactly the valid cells of `current`
    n_valid = neighbor_counts(valid, radius).ravel()[cells]

    _, finals = expected_areas(current, tm)
    initial = current.class_counts()
    init_vec = np.array([initial[c] for c in ids], dtype=np.float64)
    final_vec = np.array([finals[c] for c in ids], dtype=np.float64)
    total = int(init_vec.sum())

    state = current
    now = initial  # the counts of `state`, carried from one iteration to the next
    log: list[AllocationLogRow] = []
    for it in range(1, params.iterations + 1):
        reals = init_vec + it / params.iterations * (final_vec - init_vec)
        step_targets = largest_remainder(reals, total)
        wanted = {c: int(t) for c, t in zip(ids, step_targets)}
        if all(wanted[c] == now.get(c, 0) for c in ids):
            for c in ids:
                log.append(AllocationLogRow(it, c, wanted[c], now.get(c, 0)))
            continue
        labels = state.labels
        keys = {}
        for c in ids:
            n_same = neighbor_counts(labels == c, radius).ravel()[cells]
            keys[c] = _weighted_key(values[c], n_same, n_valid, table, params.kernel_size)
        state = mola(
            dict.fromkeys(ids, eligible), AllocationTargets(wanted), dict(current.legend), current.date_tag, key=keys
        )
        now = state.class_counts()
        for c in ids:
            log.append(AllocationLogRow(it, c, wanted[c], now.get(c, 0)))
    return state, log


def random_allocation(template: LandCoverMap, targets: AllocationTargets, seed: int) -> LandCoverMap:
    """Assign target counts to uniformly random eligible pixels. Baseline for
    judging how much structure an allocation actually captured."""
    lab = template.labels
    flat_eligible = np.flatnonzero((lab >= 0).ravel())
    if targets.total != flat_eligible.size:
        raise DataError(
            f"targets sum to {targets.total} but {flat_eligible.size} pixels are eligible"
        )
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(flat_eligible)
    out = np.full(lab.size, template.grid.nodata_value)
    start = 0
    for c in sorted(targets.targets):
        n = targets.targets[c]
        out[shuffled[start : start + n]] = float(c)
        start += n
    return LandCoverMap(
        template.grid.with_values(out.reshape(template.grid.shape)),
        dict(template.legend),
        template.date_tag,
    )


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
    require_same_geometry(before.grid, after.grid, context="converted_adjacency_fraction")
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
