"""Multi-criteria evaluation: pairwise-comparison weights and map combination.

Factor weights come from the principal eigenvector of a reciprocal
pairwise comparison matrix (power iteration). Factors are combined by
weighted linear combination (`wlc`) or ordered weighted averaging (`owa`)
in one kernel, `_combine`, on the jointly valid cells: each factor's codes
times its weight, in float64, added in factor order, rounded and gated by
Boolean constraints. owa also multiplies each term by n times the order
weight of its rank, found by pairwise comparison into one small integer a
factor and cell, so besides the sum and the term being added it holds only
their multipliers: no (factors, cells) float stack and no argsort.
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
    label_type,
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


def _ranks(term, n: int, cells: int) -> list[np.ndarray]:
    """Each term's place in the stable ascending order of the keys
    term(i) * n: the count of keys below it and of equal keys of a lower
    factor index, one `label_type(n - 1)` array per factor."""
    rank = [np.zeros(cells, dtype=label_type(n - 1)) for _ in range(n)]
    for i in range(n - 1):
        key_i = term(i) * float(n)
        for j in range(i + 1, n):
            after = key_i <= term(j) * float(n)  # j comes after i; a tie goes to the lower index
            rank[j] += after
            rank[i] += ~after
    return rank


def _combine(factors, weights, constraints, order_weights=None) -> SuitabilityGrid:
    """wlc, or given order weights owa, as the module docstring sets out."""
    w = np.asarray(weights, dtype=np.float64)
    n = len(factors)
    if n == 0:
        raise DataError("no factor grids given")
    if w.ndim != 1 or w.size != n:
        raise DataError(f"{n} factors but {w.size} weights")
    valid = joint_valid(*factors, context="factor combination")
    # constraints gate by value and stay out of the valid mask, where a mask
    # file with NODATA_VALUE 0 would lose its 0 cells
    require_same_geometry(*by_position("factor combination", factors[0], *constraints))
    cells = int(np.count_nonzero(valid))

    def term(i: int) -> np.ndarray:  # the codes to float64, exactly, times the weight
        return np.multiply(factors[i].stored[valid], w[i], dtype=np.float64)

    scale = rank = None
    if order_weights is not None:
        if order_weights.ndim != 1 or order_weights.size != n:
            raise DataError(f"{n} factors but {order_weights.size} order weights")
        if not (np.all(order_weights >= 0) and abs(float(order_weights.sum()) - 1.0) <= 1e-9):
            raise DataError("order weights must be non-negative and sum to 1")
        scale = order_weights * float(n)
        if np.any(scale != scale[0]):  # with equal multipliers the rank cannot matter
            rank = _ranks(term, n, cells)
    total = np.zeros(cells)  # 0 + the first term is that term, once 0.5 is added
    for i in range(n):
        t = term(i)
        if scale is not None:
            t *= scale[0] if rank is None else scale[rank[i]]
        total += t
        del t  # before the next term is made
    if scale is not None:
        np.clip(total, 0.0, 255.0, out=total)
    total += 0.5
    np.floor(total, out=total)
    for m in constraints:
        total *= m.values[valid]
    return SuitabilityGrid.from_cells(factors[0], valid, total)


def wlc(factors: list[SuitabilityGrid], weights, constraints: list[BinaryMask] = ()) -> SuitabilityGrid:
    """Weighted linear combination: round(sum w_i * f_i), then constraint
    gating, as bytes. weights is an array, one per factor, that should sum
    to 1: a sum outside 0..255 is refused, not clipped."""
    return _combine(factors, weights, constraints)


def owa(
    factors: list[SuitabilityGrid],
    factor_weights,
    order_weights,
    constraints: list[BinaryMask] = (),
) -> SuitabilityGrid:
    """Ordered weighted averaging, as bytes: per cell the k-th order weight
    times n multiplies the term w_i*f_i whose key w_i*f_i*n is k-th in
    ascending order, ties to the lower factor index; the sum is clipped to
    0..255, rounded and gated. Order weights of 1/n each give multipliers
    of exactly 1 for every n up to 48, so no rank is found and the result
    is wlc's bit for bit."""
    return _combine(factors, factor_weights, constraints, np.asarray(order_weights, dtype=np.float64))


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
