"""Supervised classification and accuracy assessment.

Gaussian signatures are estimated per class from a training map, pixels
get the class with the highest log-posterior score, and an optional
iterated conditional modes pass trades spectral evidence against
8-neighbor label agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError
from .grid import (
    BinaryMask,
    Grid,
    LandCoverMap,
    MultiBandImage,
    class_index,
    joint_counts,
    joint_valid,
    label_type,
    mask_like,
    neighbor_counts,
    require_classes_cover,
    write_csv,
)

SCORE_NODATA = -1e300  # -9999 is a reachable log-score, so score grids use their own sentinel
# about how many cells maxlike scores at a time, in whole grid rows: with 4
# bands and 3 classes a block's band values and scores take 1.5 MB
_BLOCK_CELLS = 16384


@dataclass(frozen=True)
class ClassSignature:
    class_id: int
    mean: np.ndarray
    covariance: np.ndarray
    prior: float
    sample_count: int


def estimate_signatures(image: MultiBandImage, training: LandCoverMap) -> list[ClassSignature]:
    """Per-class sample mean and covariance (divisor N-1) from training pixels.

    The covariance diagonal gets a floor of 1e-6 * trace/dim (absolute 1e-6
    when the trace is zero, e.g. constant samples) so scores stay defined.
    Each class needs at least band_count + 1 training pixels.
    """
    sel = joint_valid(*image.bands, training, context="estimate_signatures")
    labels = training.labels
    b = image.n_bands

    sigs = []
    total = 0
    for cid in training.class_ids:
        pick = sel & (labels == cid)
        n = int(np.count_nonzero(pick))
        if n == 0:
            continue
        if n < b + 1:
            raise DataError(
                f"class {cid} ({training.legend[cid]!r}) has {n} training pixels, needs at least {b + 1}"
            )
        x = np.stack([band.values[pick] for band in image.bands], axis=-1)
        mean = x.mean(axis=0)
        cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        trace = float(np.trace(cov))
        delta = 1e-6 * trace / b if trace > 0.0 else 1e-6
        cov = cov + delta * np.eye(b)
        sign, _ = np.linalg.slogdet(cov)
        if sign <= 0:
            raise NumericalError(f"class {cid}: covariance singular after regularization")
        sigs.append(ClassSignature(cid, mean, cov, 0.0, n))
        total += n
    if not sigs:
        raise DataError("no class has any valid training pixels")
    return [replace(s, prior=s.sample_count / total) for s in sigs]


def maxlike(
    image: MultiBandImage,
    signatures: list[ClassSignature],
    priors_mode: str = "empirical",
    legend: dict[int, str] | None = None,
) -> tuple[LandCoverMap, dict[int, Grid]]:
    """Gaussian maximum likelihood labeling.

    Per class: score = ln(prior) - 0.5*ln(det(cov)) - 0.5*mahalanobis^2.
    The label is the best score; exact ties go to the lowest class id.
    Returns the map and the per-class score grids, which are on
    SCORE_NODATA.

    A cell's terms are added in the order `_quadratic_form` writes out, so
    its score has the same bits whichever other cells are scored with it.
    The grid is scored in blocks of max(1, _BLOCK_CELLS // n_cols) rows,
    each written straight into the label grid and the score grids, so no
    other float array as large as a grid is made.
    """
    if priors_mode not in ("empirical", "equal"):
        raise DataError(f"priors_mode must be 'empirical' or 'equal', got {priors_mode!r}")
    if not signatures:
        raise DataError("no signatures given")
    sigs = sorted(signatures, key=lambda s: s.class_id)
    class_ids = [s.class_id for s in sigs]
    class_index(class_ids)  # refuses an id out of range or listed twice
    b = image.n_bands
    if any(s.mean.shape != (b,) for s in sigs):
        raise DataError("signature dimensionality does not match band count")

    terms = []  # per class: ln(prior) - 0.5*ln(det(cov)), the inverse covariance, the mean
    for sig in sigs:
        prior = 1.0 / len(sigs) if priors_mode == "equal" else sig.prior
        if prior <= 0.0:
            raise NumericalError(f"class {sig.class_id} has non-positive prior {prior}")
        sign, logdet = np.linalg.slogdet(sig.covariance)
        if sign <= 0:
            raise NumericalError(f"class {sig.class_id}: covariance not positive definite")
        terms.append((np.log(prior) - 0.5 * logdet, np.linalg.inv(sig.covariance), sig.mean))

    if legend is None:
        legend = {cid: f"class {cid}" for cid in class_ids}
    geometry = image.geometry
    valid = joint_valid(*image.bands, context="maxlike")
    labels = np.full(geometry.shape, -1, dtype=label_type(max([*class_ids, *legend])))
    ids = np.asarray(class_ids, dtype=labels.dtype)
    score_values = [geometry.blank(SCORE_NODATA) for _ in sigs]
    rows = max(1, _BLOCK_CELLS // geometry.n_cols)
    for top in range(0, geometry.n_rows, rows):
        end = top + rows
        sel = valid[top:end]
        if not sel.any():
            continue
        x = [band.values[top:end][sel] for band in image.bands]
        block = np.empty((len(sigs), x[0].size))
        for row, (head, inv, mean), values in zip(block, terms, score_values):
            row[:] = head - 0.5 * _quadratic_form([xj - mj for xj, mj in zip(x, mean)], inv)
            values[top:end][sel] = row
        # first max wins, ids ascend, so ties pick the lowest id
        labels[top:end][sel] = ids[block.argmax(axis=0)]
        del x, block  # so they do not add to the map's peak

    lc = LandCoverMap.from_labels(geometry, labels, legend)
    score_grids = {
        cid: geometry.computed(values, nodata_value=SCORE_NODATA) for cid, values in zip(class_ids, score_values)
    }
    return lc, score_grids


def _quadratic_form(d: list[np.ndarray], inv: np.ndarray) -> np.ndarray:
    """d' inv d per cell, d one array per band, added in a written order of
    elementwise products: t_i = d_0*inv[i,0] + d_1*inv[i,1] + ... in j
    order, then d_0*t_0 + d_1*t_1 + ... in i order, each sum from its first
    product. A cell's value so depends on its own bands alone."""
    quad = None
    for i, di in enumerate(d):
        t = d[0] * inv[i, 0]
        for j in range(1, len(d)):
            t += d[j] * inv[i, j]
        t *= di
        quad = t if quad is None else np.add(quad, t, out=quad)
    return quad


def potts_objective(lc: LandCoverMap, scores: dict[int, Grid], beta: float) -> float:
    """Labeling quality used by icm: sum of per-pixel scores plus beta times
    the number of 8-adjacent same-label pairs.

    Pairs are counted from both ends, as each labeled pixel's number of
    same-class 8-neighbors, and the sum is halved, so each agreeing pair
    counts once. Summing the per-pixel counts without halving would count
    every pair twice and is not monotone under sequential updates; the
    halved form rises by exactly the local gain at every single-site move
    (score change plus beta times the change in same-class neighbors),
    which makes per-sweep monotonicity exact.
    """
    labels = lc.labels
    total = 0.0
    for cid, g in scores.items():
        pick = (labels == cid) & joint_valid(lc, g, context="potts_objective")
        total += float(g.values[pick].sum())
    ends = 0
    for cid in lc.class_ids:
        pick = labels == cid
        ends += int(neighbor_counts(pick)[pick].sum())
    return total + beta * (ends // 2)


def icm(
    initial: LandCoverMap,
    scores: dict[int, Grid],
    beta: float = 1.5,
    max_sweeps: int = 10,
) -> LandCoverMap:
    """Iterated conditional modes smoothing of a labeling.

    Raster-order sequential sweeps; each pixel takes the class maximizing
    score + beta * (8-neighbors currently holding that class). Stops when a
    sweep changes nothing or after max_sweeps. beta 0 reduces to the plain
    score argmax. Deterministic; ties go to the lowest class id, and a nan
    total never wins over the running best.

    A sweep visits the anti-diagonal fronts t = col + 2*row in increasing t
    and updates each front in one array step. Pixel (r, c) reads the
    labels of (r-1, c-1..c+1) and (r, c-1), on fronts t-3..t-1, which a
    raster sweep has already updated, and those of (r, c+1) and
    (r+1, c-1..c+1), on fronts t+1..t+3, which it has not. No two pixels
    of one front are 8-adjacent. So the front order gives exactly the
    raster-order labels, flip counts and early stop, sweep by sweep. From
    the second sweep on, a front none of whose neighbors flipped since its
    last update would repeat that update, and is skipped.

    The active pixels are sorted by front once, with their scores as one
    row each, and a front is the slice between two front bounds; its
    neighbor indices are made as it is updated. One bincount counts every
    class among the 8 neighbors of each of its pixels, and the argmax of
    score + beta * count, which takes the first maximum, picks the class.
    The nan rule is folded into the scores before the first sweep: a nan
    in class 0 becomes +inf and a nan in any other class -inf, which gives
    the running best's choices, since beta * count is finite.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise DataError(f"beta must be finite and non-negative, got {beta}")
    if max_sweeps < 1:
        raise DataError(f"max_sweeps must be at least 1, got {max_sweeps}")
    class_ids = sorted(scores)
    if not class_ids:
        raise DataError("icm needs at least one score grid")
    # pixels get updated only where every class has a score; other labeled
    # cells stay frozen but still count as neighbors
    active = joint_valid(initial, *(scores[cid] for cid in class_ids), context="icm")
    labels = initial.labels
    present = {c for c, n in initial.class_counts().items() if n}
    require_classes_cover(("initial map", present), ("icm: score", class_ids))

    n_rows, n_cols = initial.shape
    w = n_cols + 2  # padded width
    k = len(class_ids)

    # padded, raveled class indices, -1 unlabeled, in the narrowest signed
    # type that holds them. Cell indices stay intp: numpy casts an index
    # array of any other type to intp each time it indexes with it
    lab = np.full((n_rows + 2) * w, -1, dtype=np.min_scalar_type(-k))
    labeled = labels >= 0
    lab.reshape(n_rows + 2, w)[1:-1, 1:-1][labeled] = class_index(class_ids)[labels[labeled]]

    cell = np.flatnonzero(active)
    t = cell % n_cols + 2 * (cell // n_cols)  # front col + 2 * row
    sizes = np.bincount(t)
    sizes = sizes[sizes > 0]
    cell = cell[np.argsort(t, kind="stable")]
    del t  # each array goes once it is used, so none adds to the score table's peak
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()  # front f is pos[bounds[f]:bounds[f + 1]]
    score = np.empty((cell.size, k))  # one row per pixel, in front order
    for j, cid in enumerate(class_ids):
        score[:, j] = scores[cid].values.ravel()[cell]
    pos = cell // n_cols  # padded index (row + 1) * w + col + 1, built in place
    pos *= 2
    pos += cell
    pos += w + 1
    del cell
    nan = np.isnan(score)
    score[nan] = -np.inf
    score[nan[:, 0], 0] = np.inf
    del nan
    offsets = np.array([-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1])
    # row i of a front counts its neighbors' classes in bincount slots
    # i * (k + 1) + 1 + class; an unlabeled neighbor's -1 lands in slot
    # i * (k + 1), which is dropped
    slots = np.arange(1, sizes.max(initial=0) * (k + 1) + 1, k + 1)[:, None]
    n_fronts = sizes.size
    # step (sweep * n_fronts + front) of each cell's last flip
    flipped_at = np.full(lab.size, -1, dtype=np.int32 if max_sweeps * n_fronts < 2**31 else np.int64)

    for sweep in range(max_sweeps):
        changed = 0
        for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            p = pos[lo:hi]
            nb = p[:, None] + offsets
            step = sweep * n_fronts + f
            if sweep and flipped_at[nb].max() <= step - n_fronts:
                continue
            m = hi - lo
            cnt = np.bincount((lab[nb] + slots[:m]).ravel(), minlength=m * (k + 1)).reshape(m, k + 1)[:, 1:]
            # argmax takes the first maximum: ties keep the lower id
            best_k = (score[lo:hi] + beta * cnt).argmax(axis=1)
            flip = best_k != lab[p]
            n_flips = np.count_nonzero(flip)
            if n_flips:
                changed += n_flips
                lab[p] = best_k
                flipped_at[p[flip]] = step
        if changed == 0:
            break

    del score, pos, flipped_at  # so they do not add to the final map's peak
    # labeled cells without full score coverage keep their initial index
    ids = np.asarray(class_ids)[lab.reshape(n_rows + 2, w)[1:-1, 1:-1][labeled]]
    return LandCoverMap.from_cells(initial, labeled, ids, dict(initial.legend), initial.date_tag)


# ---------------------------------------------------------------------------
# accuracy assessment


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = pixels with reference class_ids[i] predicted as class_ids[j]."""

    counts: np.ndarray
    class_ids: tuple[int, ...]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(predicted: LandCoverMap, reference: LandCoverMap) -> ConfusionMatrix:
    sel = joint_valid(predicted, reference, context="confusion")
    if not sel.any():
        raise DataError("no jointly valid pixels to compare")
    ids = sorted(set(predicted.class_ids) | set(reference.class_ids))
    counts = joint_counts(ids, reference.labels[sel], predicted.labels[sel])
    return ConfusionMatrix(counts, tuple(ids))


def kappa(cm: ConfusionMatrix) -> float:
    """Cohen's kappa: (p_o - p_e) / (1 - p_e) with p_e from the marginals."""
    n = cm.total
    if n == 0:
        raise DataError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    p_o = float(np.trace(counts)) / n
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    p_e = float(np.dot(rows, cols)) / (n * n)
    if p_e == 1.0:
        raise NumericalError("kappa undefined: expected agreement is exactly 1")
    return (p_o - p_e) / (1.0 - p_e)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    return float(np.trace(cm.counts)) / cm.total


def producer_accuracy(cm: ConfusionMatrix) -> dict[int, float]:
    """Per reference class with any pixels: the share of them predicted as
    that class (diagonal over row sum)."""
    rows = cm.counts.sum(axis=1)
    return {
        cid: int(cm.counts[i, i]) / int(n) for i, (cid, n) in enumerate(zip(cm.class_ids, rows)) if n
    }


def residual_map(predicted: LandCoverMap, reference: LandCoverMap) -> BinaryMask:
    """Disagreement mask: 1 where jointly valid labels differ."""
    sel = joint_valid(predicted, reference, context="residual_map")
    diff = np.zeros(predicted.shape)
    diff[sel & (predicted.labels != reference.labels)] = 1.0
    return mask_like(predicted, diff)


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    rows = [[cid] + [int(v) for v in row] for cid, row in zip(cm.class_ids, cm.counts)]
    write_csv(path, [["reference\\predicted", *cm.class_ids], *rows])


def write_signatures_csv(signatures: list[ClassSignature], path) -> None:
    rows = [["class_id", "sample_count", "prior", "field", "values"]]
    for s in sorted(signatures, key=lambda s: s.class_id):
        head = [s.class_id, s.sample_count, repr(float(s.prior))]
        rows.append(head + ["mean", " ".join(repr(float(v)) for v in s.mean)])
        for i, row in enumerate(s.covariance):
            rows.append(head + [f"cov_{i}", " ".join(repr(float(v)) for v in row)])
    write_csv(path, rows)
