"""Supervised classification and accuracy assessment.

Gaussian signatures are estimated per class from a training map, pixels
get the class with the highest log-posterior score, and an optional
iterated conditional modes pass trades spectral evidence against
8-neighbor label agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .grid import (
    BinaryMask,
    Grid,
    LandCoverMap,
    MultiBandImage,
    joint_valid,
    mask_like,
    neighbor_counts,
    write_csv,
)
from .markov import _joint_counts

SCORE_NODATA = -1e300  # -9999 is a reachable log-score, so score grids use their own sentinel


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
    sel = joint_valid(*image.bands, training.grid, context="estimate_signatures")
    labels = training.labels
    b = image.n_bands
    cube = np.stack([band.values for band in image.bands], axis=-1)

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
        x = cube[pick]
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
    return [
        ClassSignature(s.class_id, s.mean, s.covariance, s.sample_count / total, s.sample_count)
        for s in sigs
    ]


def maxlike(
    image: MultiBandImage,
    signatures: list[ClassSignature],
    priors_mode: str = "empirical",
    legend: dict[int, str] | None = None,
) -> tuple[LandCoverMap, dict[int, Grid]]:
    """Gaussian maximum likelihood labeling.

    Per class: score = ln(prior) - 0.5*ln(det(cov)) - 0.5*mahalanobis^2.
    The label is the best score; exact ties go to the lowest class id.
    Returns the map and the per-class score grids.
    """
    if priors_mode not in ("empirical", "equal"):
        raise DataError(f"priors_mode must be 'empirical' or 'equal', got {priors_mode!r}")
    if not signatures:
        raise DataError("no signatures given")
    sigs = sorted(signatures, key=lambda s: s.class_id)
    if len({s.class_id for s in sigs}) != len(sigs):
        raise DataError("duplicate class ids in signatures")
    b = image.n_bands
    if any(s.mean.shape != (b,) for s in sigs):
        raise DataError("signature dimensionality does not match band count")

    geometry = image.geometry
    valid = joint_valid(*image.bands, context="maxlike")
    cube = np.stack([band.values for band in image.bands], axis=-1)
    x = cube[valid]

    k = len(sigs)
    scores = np.empty((k, x.shape[0]))
    for idx, sig in enumerate(sigs):
        prior = 1.0 / k if priors_mode == "equal" else sig.prior
        if prior <= 0.0:
            raise NumericalError(f"class {sig.class_id} has non-positive prior {prior}")
        sign, logdet = np.linalg.slogdet(sig.covariance)
        if sign <= 0:
            raise NumericalError(f"class {sig.class_id}: covariance not positive definite")
        inv = np.linalg.inv(sig.covariance)
        d = x - sig.mean
        maha = np.einsum("nb,bc,nc->n", d, inv, d)
        scores[idx] = np.log(prior) - 0.5 * logdet - 0.5 * maha

    best = np.argmax(scores, axis=0)  # first max wins, ids ascend, so ties pick the lowest id
    class_ids = [s.class_id for s in sigs]
    if legend is None:
        legend = {cid: f"class {cid}" for cid in class_ids}
    lc = LandCoverMap(geometry.scatter(valid, np.asarray(class_ids, dtype=np.float64)[best]), legend)
    score_grids = {cid: geometry.scatter(valid, scores[idx], SCORE_NODATA) for idx, cid in enumerate(class_ids)}
    return lc, score_grids


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
        pick = (labels == cid) & joint_valid(lc.grid, g, context="potts_objective")
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
    active = joint_valid(initial.grid, *(scores[cid] for cid in class_ids), context="icm")
    labels = initial.labels
    present = {c for c, n in initial.class_counts().items() if n}
    if not present <= set(class_ids):
        raise DataError(f"initial map holds classes {sorted(present - set(class_ids))} without scores")

    n_rows, n_cols = initial.grid.shape
    w = n_cols + 2  # padded width
    k = len(class_ids)
    ids_arr = np.asarray(class_ids, dtype=np.int64)

    lab = np.full((n_rows + 2) * w, -1, dtype=np.int64)  # padded, raveled class indices; -1 unlabeled
    labeled = labels >= 0
    lab.reshape(n_rows + 2, w)[1:-1, 1:-1][labeled] = np.searchsorted(ids_arr, labels[labeled])

    r, c = np.nonzero(active)
    t = c + 2 * r
    order = np.argsort(t, kind="stable")
    pos = ((r + 1) * w + (c + 1))[order]
    nbrs = pos[:, None] + np.array([-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1])
    score = np.stack([scores[cid].values[active] for cid in class_ids])[:, order]
    cuts = np.flatnonzero(np.diff(t[order])) + 1
    fronts = list(zip(np.split(pos, cuts), np.split(nbrs, cuts), np.split(score, cuts, axis=1)))
    n_fronts = len(fronts)
    flipped_at = np.full(lab.size, -1, dtype=np.int64)  # step (sweep * n_fronts + front) of the last flip

    for sweep in range(max_sweeps):
        changed = 0
        for f, (p, nb, s) in enumerate(fronts):
            step = sweep * n_fronts + f
            if sweep and flipped_at[nb].max() <= step - n_fronts:
                continue
            q = lab[nb]
            best_v = s[0] + beta * np.count_nonzero(q == 0, axis=1)
            best_k = np.zeros(p.size, dtype=np.int64)
            for j in range(1, k):
                v = s[j] + beta * np.count_nonzero(q == j, axis=1)
                up = v > best_v  # strict, like the raster loop: ties keep the lower id
                best_v = np.where(up, v, best_v)
                best_k[up] = j
            flip = best_k != lab[p]
            if flip.any():
                changed += int(np.count_nonzero(flip))
                lab[p] = best_k
                flipped_at[p[flip]] = step
        if changed == 0:
            break

    out_lab = lab.reshape(n_rows + 2, w)[1:-1, 1:-1]
    out = initial.grid.values.copy()  # labeled cells without full score coverage pass through
    out[active] = ids_arr.astype(np.float64)[out_lab[active]]
    return LandCoverMap(initial.grid.with_values(out), dict(initial.legend), initial.date_tag)


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
    sel = joint_valid(predicted.grid, reference.grid, context="confusion")
    if not sel.any():
        raise DataError("no jointly valid pixels to compare")
    ids = sorted(set(predicted.class_ids) | set(reference.class_ids))
    counts = _joint_counts(ids, reference.labels[sel], predicted.labels[sel])
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
    sel = joint_valid(predicted.grid, reference.grid, context="residual_map")
    diff = np.zeros(predicted.grid.shape)
    diff[sel & (predicted.labels != reference.labels)] = 1.0
    return mask_like(predicted.grid, diff)


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
