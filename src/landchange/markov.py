"""Transition analysis between dated land cover maps.

Cross-tabulation of two maps gives transition counts; row normalization
gives first-order probabilities tied to the observation span. Transitions
can be rescaled linearly to a different span, extended to second order
from three dates, expanded into per-pixel conditional probability maps,
and turned into expected class areas for allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .grid import (
    Grid,
    LandCoverMap,
    by_position,
    class_index,
    joint_counts,
    joint_valid,
    naming,
    parse_number,
    read_csv_rows,
    require_classes_cover,
    require_same_classes,
    write_csv,
)


def largest_remainder(reals: np.ndarray, total: int) -> np.ndarray:
    """Integerize non-negative reals to the given total: floor everything,
    then hand out the shortfall by largest fractional part, ties to the
    lowest index."""
    reals = np.asarray(reals, dtype=np.float64)
    bad = reals[~np.isfinite(reals)]
    if bad.size:
        raise DataError(f"largest_remainder needs finite values, got {float(bad[0])!r}")
    if np.any(reals < 0):
        raise DataError("largest_remainder needs non-negative values")
    floors = np.floor(reals).astype(np.int64)
    short = int(total) - int(floors.sum())
    if short < 0:
        raise DataError(f"floors already exceed the total by {-short}")
    if short > reals.size:
        raise DataError(f"shortfall {short} exceeds entry count {reals.size}")
    fracs = reals - floors
    order = np.lexsort((np.arange(reals.size), -fracs))  # by frac desc, then index asc
    out = floors.copy()
    out[order[:short]] += 1
    return out


def crosstab(map_a: LandCoverMap, map_b: LandCoverMap) -> tuple[np.ndarray, list[int]]:
    """Counts[i, j] = pixels going from class ids[i] in map_a to ids[j] in map_b."""
    sel = joint_valid(map_a, map_b, context="crosstab")
    require_same_classes(*by_position("crosstab", map_a.class_ids, map_b.class_ids))
    if not sel.any():
        raise DataError("crosstab: no jointly valid pixels")
    return joint_counts(map_a.class_ids, map_a.labels[sel], map_b.labels[sel]), map_a.class_ids


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities over time_span."""

    probs: np.ndarray
    time_span: float
    class_ids: tuple[int, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        class_index(self.class_ids)  # refuses an id out of range or listed twice
        ids = tuple(int(c) for c in self.class_ids)
        k = len(ids)
        if p.shape != (k, k):
            raise DataError(f"probability matrix shape {p.shape} does not match {k} classes")
        bad = np.argwhere(~((p >= 0) & (p <= 1)))  # also catches nan
        if bad.size:
            i, j = bad[0]
            raise DataError(
                f"transition probability {ids[i]} -> {ids[j]} must lie in [0, 1], got {float(p[i, j])!r}"
            )
        rs = p.sum(axis=1)
        if np.max(np.abs(rs - 1.0)) > 1e-9:
            raise DataError(f"transition rows must sum to 1 within 1e-9, got {rs}")
        if not (math.isfinite(float(self.time_span)) and float(self.time_span) > 0):
            raise DataError(f"time_span must be positive and finite, got {float(self.time_span)!r}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "time_span", float(self.time_span))


def transition_probabilities(counts: np.ndarray, class_ids, time_span: float) -> TransitionMatrix:
    """Row-normalize transition counts. A class with no observations keeps
    itself (self-transition 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise DataError("negative transition counts")
    k = counts.shape[0]
    probs = np.eye(k)
    totals = counts.sum(axis=1)
    nz = totals > 0
    probs[nz] = counts[nz] / totals[nz, None]
    return TransitionMatrix(probs, time_span, tuple(class_ids))


def scale_transition(tm: TransitionMatrix, target_span: float) -> TransitionMatrix:
    """Linear annualization: off-diagonals scale by target_span/time_span,
    diagonals absorb the remainder.

    If any row's scaled off-diagonals would sum past 1 the projection must be
    split into shorter steps (see scale_transition_in_steps).
    """
    if not float(target_span) > 0:
        raise DataError(f"target_span must be positive, got {target_span}")
    r = float(target_span) / tm.time_span
    out = tm.probs * r
    np.fill_diagonal(out, 0.0)
    leave = out.sum(axis=1)
    if leave.max() > 1.0 + 1e-12:
        i = int(np.argmax(leave))
        raise NumericalError(
            f"scaling {tm.time_span} -> {target_span} pushes the transitions out of "
            f"class {tm.class_ids[i]} to {leave[i]:.4f} > 1; split into shorter steps"
        )
    # the diagonal absorbs whatever the off-diagonals leave
    np.fill_diagonal(out, np.maximum(0.0, 1.0 - leave))
    return TransitionMatrix(out, float(target_span), tm.class_ids)


def scale_transition_in_steps(tm: TransitionMatrix, target_span: float) -> tuple[TransitionMatrix, int]:
    """Scale tm to target_span through the fewest equal sub-steps n that
    scale_transition accepts, composed n times. Returns the composed matrix
    and n; with n == 1 it is exactly scale_transition(tm, target_span)."""
    if not float(target_span) > 0:
        raise DataError(f"target_span must be positive, got {target_span}")
    off = tm.probs.copy()
    np.fill_diagonal(off, 0.0)
    # no n below this lower bound can keep every row's off-diagonal sum at or under 1
    n = max(1, math.floor(float(off.sum(axis=1).max()) * float(target_span) / tm.time_span) - 1)
    while True:
        try:
            step = scale_transition(tm, float(target_span) / n)
            break
        except NumericalError:
            n += 1
    if n == 1:
        return step, 1
    probs = np.minimum(np.linalg.matrix_power(step.probs, n), 1.0)
    return TransitionMatrix(probs, float(target_span), tm.class_ids), n


@dataclass(frozen=True)
class SecondOrderTable:
    """P(next | previous, current) plus a fallback flag per (prev, curr)
    pair; an unsupported pair holds the first-order row of curr."""

    probs: np.ndarray  # (k, k, k): [prev, curr, next]
    fallback: np.ndarray  # (k, k) bool, True where the pair had no support
    class_ids: tuple[int, ...]


def second_order_transitions(m1: LandCoverMap, m2: LandCoverMap, m3: LandCoverMap) -> SecondOrderTable:
    sel = joint_valid(m1, m2, m3, context="second_order_transitions")
    require_same_classes(*by_position("second_order_transitions", m1.class_ids, m2.class_ids, m3.class_ids))
    if not sel.any():
        raise DataError("second_order_transitions: no jointly valid pixels")
    counts = joint_counts(m1.class_ids, m1.labels[sel], m2.labels[sel], m3.labels[sel]).astype(np.float64)

    fo_counts, ids = crosstab(m2, m3)
    first = transition_probabilities(fo_counts, ids, 1.0)  # only its rows are used

    support = counts.sum(axis=2)
    fallback = support == 0
    # unsupported (prev, curr) pairs take the first-order row of curr
    probs = np.where(
        fallback[:, :, None], first.probs[None, :, :], counts / np.maximum(support, 1)[:, :, None]
    )
    return SecondOrderTable(probs, fallback, tuple(ids))


def conditional_probability_maps(current: LandCoverMap, tm: TransitionMatrix) -> dict[int, Grid]:
    """Per-class grids of the probability that each pixel becomes that
    class: each pixel takes its current class's row of the matrix."""
    require_classes_cover(("map", current.class_ids), ("conditional_probability_maps: transition", tm.class_ids))
    sel = current.valid
    rows = class_index(tm.class_ids)[current.labels[sel]]  # each valid cell's row of the matrix
    return {cid: current.scatter(sel, tm.probs[:, i][rows]) for i, cid in enumerate(tm.class_ids)}


def expected_areas(
    current: LandCoverMap, tm: TransitionMatrix
) -> tuple[dict[int, float], dict[int, int]]:
    """Projected class pixel counts after one application of the matrix.

    Returns (real-valued expectations, integer targets). Integer targets
    use largest-remainder rounding and sum exactly to the valid pixel count.
    """
    require_classes_cover(("map", current.class_ids), ("expected_areas: transition", tm.class_ids))
    counts = current.class_counts()
    n = np.array([counts.get(cid, 0) for cid in tm.class_ids], dtype=np.float64)
    expect = n @ tm.probs
    ints = largest_remainder(expect, int(n.sum()))
    return (
        {cid: float(e) for cid, e in zip(tm.class_ids, expect)},
        {cid: int(t) for cid, t in zip(tm.class_ids, ints)},
    )


# ---------------------------------------------------------------------------
# CSV I/O


def write_transition_csv(tm: TransitionMatrix, path) -> None:
    rows = [[cid] + [repr(float(v)) for v in row] for cid, row in zip(tm.class_ids, tm.probs)]
    write_csv(path, [["class", *tm.class_ids], *rows], comment=f"time_span: {repr(float(tm.time_span))}")


def read_transition_csv(path) -> TransitionMatrix:
    path = str(path)
    rows = read_csv_rows(path, "transition matrix")
    if not rows or not rows[0] or not rows[0][0].startswith("# time_span:"):
        raise DataError(f"{path}: missing '# time_span:' comment line")
    try:
        span = parse_number(",".join(rows[0]).split(":", 1)[1], float)  # the whole line, commas too
    except ValueError:
        raise DataError(f"{path}: bad time_span value") from None
    rows = [row for row in rows[1:] if row]
    if not rows or rows[0][0] != "class":
        raise DataError(f"{path}: missing 'class' header row")
    try:
        ids = [parse_number(c, int) for c in rows[0][1:]]
        if len(rows) - 1 != len(ids):
            raise DataError(f"{path}: expected {len(ids)} rows, got {len(rows) - 1}")
        probs = []
        for row in rows[1:]:
            if parse_number(row[0], int) != ids[len(probs)]:
                raise DataError(f"{path}: row order does not match header order")
            if len(row) != len(ids) + 1:
                raise DataError(f"{path}: row {row[0]} needs {len(ids)} entries, got {len(row) - 1}")
            probs.append([parse_number(v, float) for v in row[1:]])
    except ValueError:
        raise DataError(f"{path}: non-numeric matrix entry") from None
    with naming(path):
        return TransitionMatrix(np.asarray(probs), span, tuple(ids))


def write_second_order_csv(table: SecondOrderTable, path) -> None:
    ids = table.class_ids
    rows = [["previous", "current", "next", "probability", "fallback"]]
    for i, p in enumerate(ids):
        for j, c in enumerate(ids):
            for m, nx in enumerate(ids):
                rows.append([p, c, nx, repr(float(table.probs[i, j, m])), int(table.fallback[i, j])])
    write_csv(path, rows)


def write_expected_areas_csv(reals: dict[int, float], ints: dict[int, int], path) -> None:
    rows = [[cid, repr(float(reals[cid])), int(ints[cid])] for cid in sorted(reals)]
    write_csv(path, [["class_id", "expected_pixels", "target_pixels"], *rows])
