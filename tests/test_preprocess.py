"""Dark-object correction, band statistics, optimum index factor."""

from itertools import combinations

import numpy as np
import pytest

from landchange.errors import DataError
from landchange.grid import Grid, MultiBandImage, mask_like
from landchange.preprocess import (
    SharedPixelsError,
    band_statistics,
    dark_object_values,
    dos_correct,
    oif_rank,
    write_band_stats_csv,
    write_correlation_csv,
    write_dark_values_csv,
    write_oif_csv,
)


def _image(*band_values):
    grids = [Grid(np.asarray(v, dtype=np.float64), 1.0) for v in band_values]
    return MultiBandImage(tuple(grids), tuple(f"b{i}" for i in range(len(grids))))


def test_dark_values_nearest_rank():
    img = _image([[5.0, 1.0, 3.0, 2.0, 4.0]])
    ref = mask_like(img.geometry, np.ones((1, 5)))
    assert dark_object_values(img, ref, 0.0) == [1.0]
    # nearest rank: ceil(40/100 * 5) = 2nd smallest
    assert dark_object_values(img, ref, 40.0) == [2.0]
    assert dark_object_values(img, ref, 100.0) == [5.0]


def test_dark_values_respect_reference_and_nodata():
    img = _image([[9.0, 1.0, -9999.0, 2.0]])
    ref = mask_like(img.geometry, np.array([[1.0, 0.0, 1.0, 1.0]]))
    # the 1.0 is outside the reference, the nodata cell is skipped
    assert dark_object_values(img, ref, 0.0) == [2.0]


def test_dark_values_errors():
    img = _image([[1.0, 2.0]])
    ref = mask_like(img.geometry, np.zeros((1, 2)))
    with pytest.raises(DataError, match="no valid reference"):
        dark_object_values(img, ref)
    ref2 = mask_like(img.geometry, np.ones((1, 2)))
    with pytest.raises(DataError, match="percentile"):
        dark_object_values(img, ref2, 101.0)


def test_dos_correct_subtracts_and_clamps():
    img = _image([[10.0, 3.0, -9999.0]])
    out = dos_correct(img, [5.0])
    assert out.bands[0].values.tolist() == [[5.0, 0.0, -9999.0]]
    with pytest.raises(DataError):
        dos_correct(img, [1.0, 2.0])


def test_band_statistics_match_numpy():
    rng = np.random.default_rng(7)
    a = rng.normal(50, 10, size=(9, 9))
    b = 0.5 * a + rng.normal(0, 3, size=(9, 9))
    img = _image(a, b)
    stats = band_statistics(img)
    assert stats.means[0] == pytest.approx(a.mean(), abs=0)
    assert stats.std_devs[0] == pytest.approx(a.std(), abs=0)  # population form
    assert stats.correlation[0, 1] == pytest.approx(np.corrcoef(a.ravel(), b.ravel())[0, 1], abs=1e-12)
    assert stats.correlation[0, 0] == 1.0


def test_band_statistics_covalid_pairs_only():
    a = np.array([[1.0, 2.0, 3.0, 4.0]])
    b = np.array([[2.0, -9999.0, 6.0, 8.0]])
    img = _image(a, b)
    stats = band_statistics(img)
    # the pair skips the cell where b is missing
    expect = np.corrcoef([1.0, 3.0, 4.0], [2.0, 6.0, 8.0])[0, 1]
    assert stats.correlation[0, 1] == pytest.approx(expect, abs=1e-12)
    # per-band stats still use each band's own full coverage
    assert stats.means[0] == pytest.approx(2.5)


def test_band_statistics_constant_band_gives_nan_correlation():
    img = _image([[1.0, 2.0, 3.0]], [[5.0, 5.0, 5.0]])
    stats = band_statistics(img)
    assert np.isnan(stats.correlation[0, 1])


def test_band_statistics_mask_and_errors():
    img = _image([[1.0, 3.0, 100.0]], [[2.0, 4.0, 200.0]])
    m = mask_like(img.geometry, np.array([[1.0, 1.0, 0.0]]))
    stats = band_statistics(img, m)
    assert stats.means.tolist() == [2.0, 3.0]
    empty = mask_like(img.geometry, np.zeros((1, 3)))
    with pytest.raises(DataError, match="no valid pixels"):
        band_statistics(img, empty)


def test_band_statistics_needs_two_shared_pixels():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, -9999.0]])
    with pytest.raises(SharedPixelsError, match="fewer than 2") as exc:
        band_statistics(_image(a, b))
    assert exc.value.pair == (0, 1)  # the places of the two bands, for a caller to name them


def test_oif_matches_inline_enumeration():
    rng = np.random.default_rng(11)
    bands = [rng.normal(0, s, size=(6, 6)) for s in (1.0, 4.0, 2.0, 3.0)]
    stats = band_statistics(_image(*bands))
    ranking = oif_rank(stats)
    assert len(ranking.triples) == 4  # C(4,3)

    expect = []
    for i, j, k in combinations(range(4), 3):
        num = stats.std_devs[i] + stats.std_devs[j] + stats.std_devs[k]
        den = abs(stats.correlation[i, j]) + abs(stats.correlation[i, k]) + abs(stats.correlation[j, k])
        expect.append(((i, j, k), float(num / max(den, 1e-9))))
    expect.sort(key=lambda e: (-e[1], e[0]))
    assert ranking.triples == tuple(e[0] for e in expect)
    assert ranking.scores == tuple(e[1] for e in expect)


def test_oif_nan_correlation_counts_as_zero():
    # one constant band: its pairs correlate NaN, scored as if independent
    img = _image([[1.0, 2.0, 3.0]], [[4.0, 4.0, 4.0]], [[2.0, 1.0, 5.0]])
    stats = band_statistics(img)
    ranking = oif_rank(stats)
    den = abs(stats.correlation[0, 2])  # the two NaN pairs contribute 0
    expect = float(stats.std_devs.sum() / max(den, 1e-9))
    assert ranking.scores[0] == expect


def test_oif_needs_three_bands():
    rng = np.random.default_rng(2)
    stats = band_statistics(_image(*[rng.normal(size=(4, 4)) for _ in range(2)]))
    with pytest.raises(DataError, match="at least 3 bands, got 2"):
        oif_rank(stats)


def test_csv_writers(tmp_path):
    rng = np.random.default_rng(5)
    img = _image(*[rng.normal(size=(3, 3)) for _ in range(3)])
    stats = band_statistics(img)
    write_band_stats_csv(stats, tmp_path / "s.csv")
    write_correlation_csv(stats, tmp_path / "c.csv")
    write_dark_values_csv(stats.labels, [1.0, 2.0, 3.0], tmp_path / "d.csv")
    write_oif_csv(oif_rank(stats), tmp_path / "o.csv")
    assert (tmp_path / "s.csv").read_text().startswith("band_label,mean,std_dev")
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert lines[0] == "b1,b2,b3,oif" and len(lines) == 2  # one triple from 3 bands
