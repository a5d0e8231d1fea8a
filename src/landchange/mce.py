"""Multi-criteria evaluation: pairwise-comparison weights and map combination.

Factor weights come from the principal eigenvector of a reciprocal
pairwise comparison matrix (power iteration). Factors are combined by
weighted linear combination or ordered weighted averaging, gated by
Boolean constraints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .grid import (
    BinaryMask,
    by_position,
    joint_valid,
    naming,
    parse_number,
    read_csv_rows,
    require_same_geometry,
    write_csv,
)
from .criteria import SuitabilityGrid

# Saaty's random consistency index by matrix order
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

CR_WARN_LIMIT = 0.10

log = logging.getLogger("landchange")


@dataclass(frozen=True)
class SaatyMatrix:
    """Square reciprocal comparison matrix, entries on the 1/9..9 scale."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DataError("comparison matrix must be square and non-empty")
        n = a.shape[0]
        if n > max(RANDOM_INDEX):
            raise DataError(f"comparison matrix order {n} exceeds supported maximum {max(RANDOM_INDEX)}")
        if not np.all(a > 0):
            raise DataError("comparison matrix entries must be positive")
        if not np.all(np.diag(a) == 1.0):
            raise DataError("comparison matrix diagonal must be exactly 1")
        lo, hi = 1.0 / 9.0, 9.0
        if a.min() < lo - 1e-12 or a.max() > hi + 1e-12:
            raise DataError("comparison matrix entries must lie in [1/9, 9]")
        recip_err = np.abs(a * a.T - 1.0)
        if recip_err.max() > 1e-9:
            i, j = np.unravel_index(int(np.argmax(recip_err)), a.shape)
            raise DataError(
                f"matrix is not reciprocal at ({i},{j}): {a[i, j]} vs {a[j, i]} (tolerance 1e-9 relative)"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def order(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightSet:
    weights: np.ndarray
    lambda_max: float
    consistency_index: float
    consistency_ratio: float


def saaty_weights(matrix: SaatyMatrix, max_iterations: int = 10000) -> WeightSet:
    """Principal eigenvector weights plus consistency diagnostics.

    Power iteration from the uniform vector, sum-normalized each step,
    until max|Aw - lambda*w| <= 1e-12 * max(1, lambda). CR above 0.10
    logs a warning to the "landchange" logger (does not fail); CR is 0 for
    orders 1 and 2.
    """
    a = matrix.values
    n = matrix.order
    w = np.full(n, 1.0 / n)
    lam = float(n)
    for _ in range(max_iterations):
        aw = a @ w
        lam = float(aw.sum())  # w is sum-normalized, so sum(Aw) estimates lambda
        resid = float(np.max(np.abs(aw - lam * w)))
        w = aw / lam
        if resid <= 1e-12 * max(1.0, lam):
            break
    else:
        raise NumericalError(f"power iteration did not converge in {max_iterations} iterations")

    ci = 0.0 if n == 1 else (lam - n) / (n - 1)
    if abs(ci) <= 1e-12:
        # lambda_max >= n holds in exact arithmetic, so sub-tolerance residue
        # is rounding noise; a consistent matrix reports exactly 0
        ci = 0.0
    cr = 0.0 if n <= 2 else ci / RANDOM_INDEX[n]
    if cr > CR_WARN_LIMIT:
        log.warning("consistency ratio %.4f exceeds %s; judgments look inconsistent", cr, CR_WARN_LIMIT)
    return WeightSet(w, lam, ci, cr)


def _combine_prep(factors, weights, constraints):
    w = np.asarray(weights.weights if isinstance(weights, WeightSet) else weights, dtype=np.float64)
    if len(factors) == 0:
        raise DataError("no factor grids given")
    if w.ndim != 1 or w.size != len(factors):
        raise DataError(f"{len(factors)} factors but {w.size} weights")
    valid = joint_valid(*factors, context="factor combination")
    # constraints gate by value and stay out of the valid mask, where a mask
    # file with NODATA_VALUE 0 would lose its 0 cells
    require_same_geometry(*by_position("factor combination", factors[0], *constraints))
    return w, valid


def wlc(factors: list[SuitabilityGrid], weights, constraints: list[BinaryMask] = ()) -> SuitabilityGrid:
    """Weighted linear combination: round(sum w_i * f_i), then constraint
    gating, as bytes.

    Weights are expected to sum to 1 so the result stays on the byte scale.
    The terms w_i * f_i are added into the output grid in factor order, so
    a cell's value depends on its own factors alone, and every step runs in
    place on the valid cells alone (`where=valid`), so the only other
    grid-sized float array is one term. Each term multiplies the factor's
    stored codes in float64.
    """
    w, valid = _combine_prep(factors, weights, constraints)
    geometry = factors[0]
    out = geometry.blank()
    term = np.empty(geometry.shape)
    np.multiply(factors[0].stored, w[0], out=out, where=valid, dtype=np.float64)
    for f, wi in zip(factors[1:], w[1:]):
        np.multiply(f.stored, wi, out=term, where=valid, dtype=np.float64)
        np.add(out, term, out=out, where=valid)
    del term
    np.add(out, 0.5, out=out, where=valid)
    np.floor(out, out=out, where=valid)
    for m in constraints:
        np.multiply(out, m.values, out=out, where=valid)
    return geometry.computed(out, SuitabilityGrid)


def owa(
    factors: list[SuitabilityGrid],
    factor_weights,
    order_weights,
    constraints: list[BinaryMask] = (),
) -> SuitabilityGrid:
    """Ordered weighted averaging, as bytes.

    Per cell the factor-weighted values w_i*f_i*n are ranked ascending and
    the k-th order weight multiplies the value of rank k. Order weights are
    applied through the rank permutation while the terms are added in factor
    order, as wlc adds them: with uniform order weights every effective
    multiplier is exactly 1, so the result equals wlc bit for bit.
    """
    ow = np.asarray(order_weights, dtype=np.float64)
    w, valid = _combine_prep(factors, factor_weights, constraints)
    n = len(factors)
    if ow.ndim != 1 or ow.size != n:
        raise DataError(f"{n} factors but {ow.size} order weights")
    if not (np.all(ow >= 0) and abs(float(ow.sum()) - 1.0) <= 1e-9):
        raise DataError("order weights must be non-negative and sum to 1")

    terms = np.empty((n, int(np.count_nonzero(valid))))  # the valid cells alone
    for row, f in zip(terms, factors):
        row[:] = f.stored[valid]  # codes to float64, exactly
    terms *= w[:, None]  # same term layout and reduction order as wlc
    order = np.argsort(terms * float(n), axis=0, kind="stable")  # ascending, ties by factor index
    # the term of rank r is multiplied by effective[r]; uniform order
    # weights make every multiplier exactly 1.0
    effective = ow * float(n)
    multiplier = np.empty_like(terms)
    np.put_along_axis(multiplier, order, effective[:, None], axis=0)
    del order
    multiplier *= terms
    combined = multiplier[0].copy()  # the rows added in factor order, as wlc adds them
    for row in multiplier[1:]:
        combined += row
    del multiplier, terms
    np.clip(combined, 0.0, 255.0, out=combined)
    combined += 0.5
    np.floor(combined, out=combined)
    for m in constraints:
        combined *= m.values[valid]
    return SuitabilityGrid.from_cells(factors[0], valid, combined)


# ---------------------------------------------------------------------------
# CSV I/O


def _parse_entry(tok: str) -> float:
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/", 1)
        return parse_number(num) / parse_number(den)
    return parse_number(tok)


def read_saaty_csv(path) -> SaatyMatrix:
    """n x n comparison matrix. Entries may be decimals or fractions like 1/3
    (plain decimals usually cannot hit the reciprocity tolerance)."""
    path = str(path)
    rows = [row for row in read_csv_rows(path, "comparison matrix") if row and any(c.strip() for c in row)]
    if not rows:
        raise DataError(f"{path}: empty comparison matrix")
    try:
        values = [[_parse_entry(c) for c in row] for row in rows]
    except (ValueError, ZeroDivisionError):
        raise DataError(f"{path}: non-numeric matrix entry") from None
    widths = {len(r) for r in values}
    if len(widths) != 1 or widths.pop() != len(values):
        raise DataError(f"{path}: matrix must be square")
    with naming(path):
        return SaatyMatrix(np.asarray(values))


def write_saaty_csv(matrix: SaatyMatrix, path) -> None:
    write_csv(path, [[repr(float(v)) for v in row] for row in matrix.values])


def write_weights_csv(names, ws: WeightSet, path) -> None:
    rows = [["factor", "weight"]] + [[name, repr(float(weight))] for name, weight in zip(names, ws.weights)]
    rows += [
        ["lambda_max", repr(float(ws.lambda_max))],
        ["consistency_index", repr(float(ws.consistency_index))],
        ["consistency_ratio", repr(float(ws.consistency_ratio))],
    ]
    write_csv(path, rows)
