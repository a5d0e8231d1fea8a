"""Spatial allocation of projected class areas.

MOLA-style arbitration assigns every eligible pixel to a class so that
class counts hit their targets exactly: classes repeatedly claim their
best-ranked free pixels and conflicts go to the class that ranks the
pixel better. The cellular pass re-runs the allocation over several
iterations with suitability weighted by a neighborhood contiguity
filter, which grows change along existing class edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import DEFAULT_NODATA, Grid, LandCoverMap, joint_valid, neighbor_counts, require_same_geometry, write_csv
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


def _class_orders(suitabilities: dict[int, Grid]):
    """Per class: pixel indices best-to-worst and the inverse rank lookup."""
    class_ids = sorted(suitabilities)
    first = suitabilities[class_ids[0]]
    eligible = joint_valid(*(suitabilities[c] for c in class_ids), context="mola")
    flat_eligible = np.flatnonzero(eligible.ravel())
    n_cells = first.shape[0] * first.shape[1]
    orders = {}
    ranks = {}
    for c in class_ids:
        vals = suitabilities[c].values.ravel()[flat_eligible]
        order = flat_eligible[np.argsort(-vals, kind="stable")]
        rank = np.full(n_cells, np.iinfo(np.int64).max, dtype=np.int64)
        rank[order] = np.arange(order.size)
        orders[c] = order
        ranks[c] = rank
    return class_ids, flat_eligible, orders, ranks, first


def mola(
    suitabilities: dict[int, Grid],
    targets: AllocationTargets,
    legend: dict[int, str] | None = None,
    date_tag: str = "",
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
    """
    if set(targets.targets) != set(suitabilities):
        raise DataError(
            f"target classes {sorted(targets.targets)} do not match suitability classes {sorted(suitabilities)}"
        )
    class_ids, flat_eligible, orders, ranks, geometry = _class_orders(suitabilities)
    if targets.total != flat_eligible.size:
        raise DataError(
            f"targets sum to {targets.total} but {flat_eligible.size} pixels are eligible"
        )

    n_cells = geometry.shape[0] * geometry.shape[1]
    assigned = np.full(n_cells, -1, dtype=np.int64)
    # per pixel, the best rank claimed this round and the class that holds
    # it. Every claimed pixel is assigned when its round ends and never
    # claimed again, so neither array needs resetting between rounds.
    best = np.full(n_cells, np.iinfo(np.int64).max, dtype=np.int64)
    holder = np.empty(n_cells, dtype=np.int64)
    remaining = {c: targets.targets[c] for c in class_ids}
    cursor = {c: 0 for c in class_ids}

    while any(v > 0 for v in remaining.values()):
        claims = {}
        for c in class_ids:
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
            holder[won] = c
            claims[c] = picked
        for c, picked in claims.items():
            won = picked[holder[picked] == c]
            assigned[won] = c
            remaining[c] -= won.size

    out = np.full(n_cells, geometry.nodata_value)
    out[flat_eligible] = assigned[flat_eligible].astype(np.float64)
    if legend is None:
        legend = {c: f"class {c}" for c in class_ids}
    return LandCoverMap(geometry.with_values(out.reshape(geometry.shape)), legend, date_tag)


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
    nz = n_valid > 0
    nodata = labels < 0
    weights = {}
    for c in class_ids:
        n_same = neighbor_counts(labels == int(c), radius)
        out = np.zeros(labels.shape)
        out[nz] = n_same[nz] / n_valid[nz]
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
    # the evolving map keeps the geometry and valid cells of `current`, as mola allocates them all
    eligible = joint_valid(current.grid, *(suitabilities[c] for c in ids), context="ca_markov")
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
        contiguity = contiguity_weights(state, ids, params.kernel_size)
        effective = {}
        for c in ids:
            # popped so no weight grid stays alive through the allocation
            weight = CONTIGUITY_FLOOR + contiguity.pop(c)
            vals = suitabilities[c].values * weight
            vals[~eligible] = DEFAULT_NODATA
            effective[c] = state.grid.with_values(vals, nodata_value=DEFAULT_NODATA)
        state = mola(effective, AllocationTargets(wanted), dict(current.legend), current.date_tag)
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
