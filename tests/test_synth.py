"""Synthetic landscape generator."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange.cli import main
from landchange.config import load_config
from landchange.errors import ConfigError
from landchange.grid import BinaryMask
from landchange.criteria import distance_transform
from landchange.markov import crosstab, transition_probabilities
from landchange.mce import saaty_weights
from landchange.synth import (
    SynthSpec,
    consistent_saaty,
    criterion_name,
    drift_matrix,
    generate_synthetic_landscape,
    write_scenario,
)


def test_drift_matrix():
    m = drift_matrix(3, stay=0.9)
    assert np.allclose(m, [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]], atol=1e-15)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-15)
    with pytest.raises(ConfigError):
        drift_matrix(3, stay=1.5)
    with pytest.raises(ConfigError):
        drift_matrix(1)


def test_spec_validation():
    with pytest.raises(ConfigError, match="2x2"):
        SynthSpec(n_rows=1)
    with pytest.raises(ConfigError, match="classes"):
        SynthSpec(n_classes=1)
    with pytest.raises(ConfigError, match="maps"):
        SynthSpec(n_maps=1)
    with pytest.raises(ConfigError, match="seeds_per_class"):
        SynthSpec(seeds_per_class=0)
    with pytest.raises(ConfigError, match="more patch seeds"):
        SynthSpec(n_rows=2, n_cols=2, n_classes=3, seeds_per_class=2)
    with pytest.raises(ConfigError, match="noise"):
        SynthSpec(noise=-0.1)
    with pytest.raises(ConfigError, match="transition"):
        SynthSpec(n_classes=3, transition=np.eye(2))
    with pytest.raises(ConfigError, match="sum to 1"):
        SynthSpec(n_classes=2, transition=np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="year_step"):
        SynthSpec(year_step=0)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        SynthSpec(seed=-1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"noise must be finite and non-negative, got {bad}"):
            SynthSpec(noise=bad)
    for bad in (float("nan"), float("inf"), float("-inf"), 0.0):
        with pytest.raises(ConfigError, match=f"cell_size must be positive and finite, got {bad}"):
            SynthSpec(cell_size=bad)
    spec = SynthSpec(n_maps=4, start_year=2000, year_step=5)
    assert spec.years == (2000, 2005, 2010, 2015)


def test_generation_deterministic():
    spec = SynthSpec(n_rows=24, n_cols=24, seed=3)
    a = generate_synthetic_landscape(spec)
    b = generate_synthetic_landscape(spec)
    for ma, mb in zip(a.maps, b.maps):
        assert np.array_equal(ma.grid.values, mb.grid.values)
    for name in a.criteria:
        assert np.array_equal(a.criteria[name].values, b.criteria[name].values)
    assert len(a.maps) == spec.n_maps
    assert a.maps[0].date_tag == "1988"


def test_identity_transition_freezes_the_series():
    spec = SynthSpec(n_rows=20, n_cols=20, n_classes=2, transition=np.eye(2), seed=5)
    res = generate_synthetic_landscape(spec)
    first = res.maps[0].grid.values
    for lc in res.maps[1:]:
        assert np.array_equal(lc.grid.values, first)


def test_transition_recovery():
    tr = np.array([[0.85, 0.1, 0.05], [0.05, 0.9, 0.05], [0.0, 0.15, 0.85]])
    spec = SynthSpec(n_rows=60, n_cols=60, n_classes=3, transition=tr, n_maps=3, seed=11)
    res = generate_synthetic_landscape(spec)
    for before, after in zip(res.maps, res.maps[1:]):
        counts, ids = crosstab(before, after)
        est = transition_probabilities(counts, ids, 1.0)
        rows = counts.sum(axis=1)
        assert rows.min() > 0
        # per-class quotas are largest-remainder rounded, so each probability
        # lands within one pixel of exact
        bound = 1.0 / rows.min() + 1e-12
        assert np.max(np.abs(est.probs - tr)) < bound


def test_criteria_are_seed_distance_transforms():
    spec = SynthSpec(n_rows=16, n_cols=16, seed=2)
    res = generate_synthetic_landscape(spec)
    for c in spec.class_ids:
        mask_vals = np.zeros((16, 16))
        rc = res.seeds[c]
        mask_vals[rc[:, 0], rc[:, 1]] = 1.0
        want = distance_transform(BinaryMask(mask_vals, spec.cell_size))
        assert np.array_equal(res.criteria[criterion_name(c)].values, want.values)


def test_consistent_saaty():
    for n in (2, 3, 4):
        m = consistent_saaty(n)
        ws = saaty_weights(m)
        assert ws.consistency_ratio == 0.0
        top = 2 ** (n - 1) / (2**n - 1)
        assert ws.weights[0] == pytest.approx(top, abs=1e-9)
    with pytest.raises(ConfigError, match="2..4"):
        consistent_saaty(5)


def test_write_scenario_is_loadable(tmp_path):
    res = generate_synthetic_landscape(SynthSpec(n_rows=12, n_cols=12, seed=4))
    ini = write_scenario(res, tmp_path / "sc")
    cfg = load_config(ini)
    assert cfg.model == "ca_markov"
    assert cfg.years == res.spec.years
    assert set(cfg.criteria) == set(res.criteria)
    assert (tmp_path / "sc" / "truth_transition.csv").exists()
    assert (tmp_path / "sc" / "legend.csv").exists()
    text = ini.read_text(encoding="ascii")
    assert "[mlp]" not in text

    ini2 = write_scenario(res, tmp_path / "sc2", model="mlp")
    assert "[mlp]" in ini2.read_text(encoding="ascii")
    load_config(ini2)

    with pytest.raises(ConfigError, match="model"):
        write_scenario(res, tmp_path / "sc3", model="cellular")


def _voronoi_labels(spec, seed_rc, seed_cls):
    """Reference first map: brute-force nearest seed over every cell, the
    first seed in class order on a tie."""
    rr, cc = np.mgrid[0 : spec.n_rows, 0 : spec.n_cols]
    d2 = (rr[None] - seed_rc[:, 0, None, None]) ** 2 + (cc[None] - seed_rc[:, 1, None, None]) ** 2
    return seed_cls[np.argmin(d2, axis=0)]


def _reference_first_map(res):
    seed_rc = np.concatenate([res.seeds[c] for c in res.spec.class_ids])
    seed_cls = np.repeat(res.spec.class_ids, res.spec.seeds_per_class)
    return _voronoi_labels(res.spec, seed_rc, seed_cls)


def _class_ties(res):
    """Cells where two classes' nearest seeds are equally far."""
    dist = np.sort([res.criteria[criterion_name(c)].values for c in res.spec.class_ids], axis=0)
    return int(np.count_nonzero(dist[0] == dist[1]))


def _largest_cell_size(n_rows, n_cols):
    """The largest cell size that keeps the grid's diagonal finite."""
    diagonal = math.sqrt((n_rows - 1) ** 2 + (n_cols - 1) ** 2)
    size = sys.float_info.max / diagonal
    while not math.isfinite(diagonal * size):
        size = math.nextafter(size, 0.0)
    while math.isfinite(diagonal * math.nextafter(size, math.inf)):
        size = math.nextafter(size, math.inf)
    return size


@st.composite
def _first_map_specs(draw):
    side = st.integers(2, 40)
    n_rows, n_cols = draw(st.one_of(st.tuples(side, side), st.tuples(st.just(2), side), st.tuples(side, st.just(2))))
    k = draw(st.integers(2, min(5, n_rows * n_cols)))
    per_class = draw(st.integers(1, min(12, n_rows * n_cols // k)))  # many seeds force class ties
    lo, hi = sys.float_info.min, _largest_cell_size(n_rows, n_cols)
    cell = draw(st.one_of(st.sampled_from([lo, hi, 1.0, 30.0]), st.floats(lo, hi)))
    return SynthSpec(
        n_rows=n_rows, n_cols=n_cols, n_classes=k, n_maps=2, seeds_per_class=per_class,
        cell_size=cell, seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_first_map_specs())
@example(SynthSpec(n_rows=2, n_cols=9, n_classes=2, n_maps=2, seeds_per_class=4, cell_size=sys.float_info.min))
@example(SynthSpec(n_rows=40, n_cols=2, n_classes=5, n_maps=2, seeds_per_class=12, cell_size=_largest_cell_size(40, 2)))
def test_first_map_is_the_nearest_seed_class(spec):
    res = generate_synthetic_landscape(spec)
    assert np.array_equal(res.maps[0].labels, _reference_first_map(res))


def test_first_map_ties_go_to_the_lowest_class():
    spec = SynthSpec(n_rows=30, n_cols=30, n_classes=4, seeds_per_class=6, n_maps=2, seed=8)
    res = generate_synthetic_landscape(spec)
    assert _class_ties(res) > 0
    assert np.array_equal(res.maps[0].labels, _reference_first_map(res))


@pytest.mark.parametrize("rows, cols, cell", [
    (64, 64, 5e-324),
    (64, 64, 1e-310),
    (64, 64, 1e307),
    (40, 2, math.nextafter(_largest_cell_size(40, 2), math.inf)),
])
def test_cell_sizes_outside_the_exact_range_are_refused(tmp_path, rows, cols, cell):
    with pytest.raises(ConfigError, match="cell_size must be at least .* got " + re.escape(repr(cell))):
        SynthSpec(n_rows=rows, n_cols=cols, cell_size=cell)
    out = tmp_path / "sc"
    argv = ["synth", "--rows", str(rows), "--cols", str(cols), "--cell-size", repr(cell), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert not out.exists()


def test_synth_with_five_classes_writes_nothing(tmp_path):
    out = tmp_path / "sc"
    assert main(["synth", "--rows", "16", "--cols", "16", "--classes", "5", "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_noise_whose_draws_overflow_exits_2_and_writes_nothing(tmp_path, caplog):
    argv = ["synth", "--rows", "16", "--cols", "16", "--quiet", "--noise"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "1e308", "--out", str(tmp_path / "refused")]) == 2
        assert main([*argv, "1e300", "--out", str(tmp_path / "written")]) == 0
    assert "noise 1e+308 is too large" in caplog.text
    assert not (tmp_path / "refused").exists()
    assert (tmp_path / "written" / "pipeline.ini").exists()
