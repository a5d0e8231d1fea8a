"""Radiometric correction, band statistics and band selection.

Dark-object correction estimates a per-band haze value from reference
pixels (typically deep water) and subtracts it, clamping at zero. Band
statistics feed the optimum index factor used to pick the most
informative three-band composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError
from .grid import BinaryMask, MultiBandImage, by_position, require_same_geometry, write_csv


def _nearest_rank(sorted_vals: np.ndarray, percentile: float) -> float:
    n = sorted_vals.size
    if percentile <= 0.0:
        return float(sorted_vals[0])
    rank = math.ceil(percentile / 100.0 * n)
    rank = min(max(rank, 1), n)
    return float(sorted_vals[rank - 1])


def dark_object_values(image: MultiBandImage, reference: BinaryMask, percentile: float = 0.0) -> list[float]:
    """Per-band dark value: nearest-rank percentile over reference pixels.

    percentile 0 takes the minimum. Reference cells where a band is nodata
    are ignored for that band.
    """
    require_same_geometry(*by_position("dark_object_values", image.geometry, reference))
    if not 0.0 <= percentile <= 100.0:
        raise DataError(f"percentile must be in [0, 100], got {percentile}")
    sel = reference.selected
    out = []
    for band, label in zip(image.bands, image.labels):
        vals = band.values[sel & band.valid]
        if vals.size == 0:
            raise DataError(f"band {label!r} has no valid reference pixels")
        out.append(_nearest_rank(np.sort(vals), percentile))
    return out


def dos_correct(image: MultiBandImage, dark: list[float]) -> MultiBandImage:
    """Subtract per-band dark values, clamping at zero. Nodata cells stay
    nodata."""
    if len(dark) != image.n_bands:
        raise DataError(f"{len(dark)} dark values for {image.n_bands} bands")
    bands = []
    for band, d in zip(image.bands, dark):
        valid = band.valid
        bands.append(band.scatter(valid, np.maximum(band.values[valid] - float(d), 0.0)))
    return MultiBandImage(tuple(bands), image.labels)


class SharedPixelsError(DataError):
    """Two bands share fewer than 2 valid pixels, too few for their
    correlation; `pair` holds their places in the image."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class BandStats:
    """Per-band mean and population standard deviation plus the pairwise
    Pearson correlation matrix. Correlations are computed over pixels valid
    in both bands; an undefined entry (zero variance on the pair) is NaN.
    """

    labels: tuple[str, ...]
    means: np.ndarray
    std_devs: np.ndarray
    correlation: np.ndarray


def band_statistics(image: MultiBandImage, mask: BinaryMask | None = None) -> BandStats:
    sel = np.ones(image.geometry.shape, dtype=bool)
    if mask is not None:
        require_same_geometry(*by_position("band_statistics", image.geometry, mask))
        sel = mask.selected
    n = image.n_bands
    means = np.empty(n)
    stds = np.empty(n)
    for i, band in enumerate(image.bands):
        vals = band.values[sel & band.valid]
        if vals.size == 0:
            raise DataError(f"band {image.labels[i]!r} has no valid pixels under the mask")
        means[i] = vals.mean()
        stds[i] = vals.std()  # population form, divisor N

    corr = np.eye(n)
    for i, j in combinations(range(n), 2):
        both = sel & image.bands[i].valid & image.bands[j].valid
        if np.count_nonzero(both) < 2:
            raise SharedPixelsError(
                f"bands {image.labels[i]!r} and {image.labels[j]!r} share fewer than 2 valid pixels", (i, j)
            )
        a = image.bands[i].values[both]
        b = image.bands[j].values[both]
        da = a - a.mean()
        db = b - b.mean()
        denom = math.sqrt(float(np.sum(da * da)) * float(np.sum(db * db)))
        if denom == 0.0:
            corr[i, j] = corr[j, i] = np.nan
        else:
            corr[i, j] = corr[j, i] = float(np.sum(da * db)) / denom
    return BandStats(image.labels, means, stds, corr)


@dataclass(frozen=True)
class OifRanking:
    """3-band combinations ranked by optimum index factor, best first."""

    triples: tuple[tuple[int, int, int], ...]
    scores: tuple[float, ...]
    labels: tuple[str, ...]


def oif_rank(stats: BandStats) -> OifRanking:
    """Score every 3-combination of the bands.

    OIF = (s_i + s_j + s_k) / max(|r_ij| + |r_ik| + |r_jk|, 1e-9); undefined
    correlations count as 0. Descending score, ties in ascending index order.
    """
    n = len(stats.labels)
    if n < 3:
        raise DataError(f"OIF needs at least 3 bands, got {n}")

    corr = np.where(np.isnan(stats.correlation), 0.0, stats.correlation)
    entries = []
    for i, j, k in combinations(range(n), 3):
        num = stats.std_devs[i] + stats.std_devs[j] + stats.std_devs[k]
        den = abs(corr[i, j]) + abs(corr[i, k]) + abs(corr[j, k])
        entries.append(((i, j, k), float(num / max(den, 1e-9))))
    entries.sort(key=lambda e: (-e[1], e[0]))
    return OifRanking(
        tuple(e[0] for e in entries),
        tuple(e[1] for e in entries),
        stats.labels,
    )


# ---------------------------------------------------------------------------
# CSV exports


def write_band_stats_csv(stats: BandStats, path) -> None:
    rows = [
        [label, repr(float(m)), repr(float(s))] for label, m, s in zip(stats.labels, stats.means, stats.std_devs)
    ]
    write_csv(path, [["band_label", "mean", "std_dev"], *rows])


def write_correlation_csv(stats: BandStats, path) -> None:
    rows = [[label] + [repr(float(v)) for v in row] for label, row in zip(stats.labels, stats.correlation)]
    write_csv(path, [["band", *stats.labels], *rows])


def write_dark_values_csv(labels, dark, path) -> None:
    rows = [[label, repr(float(d))] for label, d in zip(labels, dark)]
    write_csv(path, [["band_label", "dark_value"], *rows])


def write_oif_csv(ranking: OifRanking, path) -> None:
    rows = [["b1", "b2", "b3", "oif"]]
    for (i, j, k), score in zip(ranking.triples, ranking.scores):
        rows.append([ranking.labels[i], ranking.labels[j], ranking.labels[k], repr(float(score))])
    write_csv(path, rows)
