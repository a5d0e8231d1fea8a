"""Each stage of a `run`, each of `classify`'s two kernels, and two grid
primitives keep to a stated memory budget.

A budget is a tracemalloc peak above the memory live when the stage or
kernel starts, counted in grid-sized arrays: float64 arrays of the
scenario's shape. The scenario is a fixed 256x256, 3-class synth run,
sized for run time only. Each bound was measured and then lowered to what
the code needs, so a change that adds a grid-sized temporary fails here.

Every figure here was measured with numpy 2.4.6 on Python 3.11 only; no
other numpy was at hand. The peaks count numpy's own temporaries, so
another numpy may read a little differently, which is what the slack
between a figure and its bound is for. A bound that fails on another numpy
should be re-measured there, not loosened unseen.

The stages measure markov 8.53, mce 6.07, predict 5.37 and validate 4.64
grids, against bounds of 9.5, 7.0, 6.0 and 5.5. With the class maps kept
as float grids beside their labels, and the suitabilities and factors as
float grids, they measured 11.53, 8.81, 5.37 and 5.77, so markov, mce and
validate fail their bounds there. Before the lean `wlc` and `ca_markov`, mce
measured 16.4 and predict 9.8. Suitabilities kept as int16 codes with -1 at
nodata measure the same as the uint8 bytes and valid mask they replaced,
and so do the `LandCoverMap` figures below.

The mce stage is measured a second time with the same scenario's factors
combined by owa, with order weights 0.5, 0.3 and 0.2, and held to mce's
bound. It measures 6.07 grids, as wlc does, since wlc and owa share one
kernel on the valid cells and owa finds its ranks by pairwise comparison.
When owa stacked its terms, their keys, an int64 argsort and its
multipliers, each (factors, cells), it measured 12.39.

`classify`'s kernels run on 4 bands drawn as the benchmark's classify
workload draws them. `maxlike` measures 6.76 grids: its int8 labels, 3
score grids and its blocks of 64 rows, a quarter of this grid; with a float
label grid it measured 7.63. `icm` measures 5.45. Before the row-blocked
`maxlike` and the lean `icm` they measured 17.26 and 11.34, so both fail
their bounds of 9.5 and 6.5. `maxlike` keeps its slack until the numpy of
CI's Python 3.10 leg has been measured.

Two primitives run in every command. A `LandCoverMap` built from a float
grid of a 3-class map measures 0.41 grids: its valid mask, its int8 labels
and a whole-number scan of 16,384 cells at a time. Writing that float grid,
whose values are integers, measures 0.89: its valid mask and one 64-row
block of indices and texts at a time. When the map's check copied the
valid cells and took `np.trunc` over the whole grid, and the writer built
one index for the whole grid, they measured 2.38 and 1.77, over their
bounds of 0.75 and 1.25.
"""

import tracemalloc

import numpy as np
import pytest

from landchange import allocate
from landchange.classify import estimate_signatures, icm, maxlike
from landchange.cli import main
from landchange.config import load_config
from landchange.grid import Grid, LandCoverMap, MultiBandImage, read_ascii_grid, write_ascii_grid
from landchange.pipeline import run_stage

ROWS = 256
GRID_BYTES = ROWS * ROWS * 8

# stage -> peak above its live set, in grids
BUDGET = {"markov": 9.5, "mce": 7.0, "predict": 6.0, "validate": 5.5}
# skewed order weights, so owa ranks every term
ORDER_WEIGHTS = "0.5,0.3,0.2"


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Each stage's peak above its live set, in grids, in one full run,
    and the mce stage's again with its factors combined by owa."""
    sc = tmp_path_factory.mktemp("budget") / "sc"
    argv = ["synth", "--rows", str(ROWS), "--cols", str(ROWS), "--classes", "3", "--seed", "5"]
    assert main([*argv, "--out", str(sc), "--quiet"]) == 0
    cfg = load_config(sc / "pipeline.ini", out_dir=sc / "out")
    # the kernel's key table is a process-wide cache: build it first, so no
    # stage's peak depends on which test ran before
    allocate._key_table(cfg.kernel)
    handed: dict = {}
    found = {}
    tracemalloc.start()
    try:
        for stage in BUDGET:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_stage(stage, cfg, handed)
            found[stage] = (tracemalloc.get_traced_memory()[1] - live) / GRID_BYTES
        # the same scenario's mce stage again, its factors combined by owa
        owa_ini = sc / "owa.ini"
        owa = f"\nmethod = owa\norder_weights = {ORDER_WEIGHTS}\n"
        owa_ini.write_text((sc / "pipeline.ini").read_text().replace("\nmethod = wlc\n", owa))
        owa_cfg = load_config(owa_ini, out_dir=sc / "out_owa")
        assert owa_cfg.mce_method == "owa"
        _, found["mce owa"] = _peak_above_live(lambda: run_stage("mce", owa_cfg, handed))
    finally:
        tracemalloc.stop()
    assert set(handed["kappas"]) == {"ca_markov", "random_baseline"}
    return found


@pytest.mark.parametrize("stage", list(BUDGET))
def test_a_run_stage_stays_in_its_memory_budget(peaks, stage):
    assert peaks[stage] <= BUDGET[stage], f"{stage} peaks {peaks[stage]:.2f} grids above its live set"


def test_an_owa_mce_stage_stays_in_the_mce_budget(peaks):
    assert peaks["mce owa"] <= BUDGET["mce"], f"mce by owa peaks {peaks['mce owa']:.2f} grids above its live set"


# classify's two kernels, on 4 bands drawn from a 3-class synth map as the
# benchmark's classify workload draws them: per-class band means plus
# Gaussian noise, with every 8th cell a training sample
BAND_MEANS = np.array([[40.0, 60.0, 80.0, 50.0], [55.0, 45.0, 70.0, 65.0], [70.0, 75.0, 55.0, 40.0]])
CLASSIFY_BUDGET = {"maxlike": 9.5, "icm": 6.5}


def _peak_above_live(call):
    """call's result and its tracemalloc peak above the memory live before it, in grids."""
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    return result, (tracemalloc.get_traced_memory()[1] - live) / GRID_BYTES


@pytest.fixture(scope="module")
def classify_peaks(tmp_path_factory):
    """maxlike's and icm's peaks above their live sets, in grids."""
    sc = tmp_path_factory.mktemp("classify_budget") / "sc"
    argv = ["synth", "--rows", str(ROWS), "--cols", str(ROWS), "--classes", "3", "--seed", "5", "--maps", "2"]
    assert main([*argv, "--out", str(sc), "--quiet"]) == 0
    truth = read_ascii_grid(sc / "map_1988.asc")
    rng = np.random.default_rng(5)
    labels = truth.values.astype(np.int64)
    bands = tuple(
        Grid(BAND_MEANS[labels, b] + 8.0 * rng.standard_normal(truth.shape), truth.cell_size) for b in range(4)
    )
    image = MultiBandImage(bands, tuple(f"band{b + 1}" for b in range(4)))
    sample = np.full(truth.values.size, -9999.0)
    sample[::8] = truth.values.ravel()[::8]
    training = LandCoverMap(Grid(sample.reshape(truth.shape), truth.cell_size), {0: "a", 1: "b", 2: "c"})
    signatures = estimate_signatures(image, training)
    found = {}
    tracemalloc.start()
    try:
        (labeled, scores), found["maxlike"] = _peak_above_live(lambda: maxlike(image, signatures))
        smoothed, found["icm"] = _peak_above_live(lambda: icm(labeled, scores))
    finally:
        tracemalloc.stop()
    assert smoothed.class_ids == [0, 1, 2]
    return found


@pytest.mark.parametrize("kernel", list(CLASSIFY_BUDGET))
def test_a_classify_kernel_stays_in_its_memory_budget(classify_peaks, kernel):
    peak = classify_peaks[kernel]
    assert peak <= CLASSIFY_BUDGET[kernel], f"{kernel} peaks {peak:.2f} grids above its live set"


# the map check and the writer, on a 3-class map read as a float grid
PRIMITIVE_BUDGET = {"LandCoverMap": 0.75, "write_ascii_grid": 1.25}


@pytest.fixture(scope="module")
def primitive_peaks(tmp_path_factory):
    """A LandCoverMap's build from a float grid, and the writing of that
    grid, as peaks above their live sets, in grids."""
    sc = tmp_path_factory.mktemp("primitive_budget") / "sc"
    argv = ["synth", "--rows", str(ROWS), "--cols", str(ROWS), "--classes", "3", "--seed", "5", "--maps", "2"]
    assert main([*argv, "--out", str(sc), "--quiet"]) == 0
    grid = read_ascii_grid(sc / "map_1988.asc")
    found = {}
    tracemalloc.start()
    try:
        lc, found["LandCoverMap"] = _peak_above_live(lambda: LandCoverMap(grid, {0: "a", 1: "b", 2: "c"}))
        _, found["write_ascii_grid"] = _peak_above_live(lambda: write_ascii_grid(grid, sc / "written.asc"))
    finally:
        tracemalloc.stop()
    assert lc.class_ids == [0, 1, 2]
    assert (sc / "written.asc").read_bytes() == (sc / "map_1988.asc").read_bytes()
    return found


@pytest.mark.parametrize("primitive", list(PRIMITIVE_BUDGET))
def test_a_grid_primitive_stays_in_its_memory_budget(primitive_peaks, primitive):
    peak = primitive_peaks[primitive]
    assert peak <= PRIMITIVE_BUDGET[primitive], f"{primitive} peaks {peak:.2f} grids above its live set"
