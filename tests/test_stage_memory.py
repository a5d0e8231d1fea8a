"""Each stage of a `run`, and each of `classify`'s two kernels, keeps to a
stated memory budget.

A budget is a tracemalloc peak above the memory live when the stage or
kernel starts, counted in grid-sized arrays: float64 arrays of the
scenario's shape. The scenario is a fixed 256x256, 3-class synth run,
sized for run time only. Each bound was measured and then lowered to what
the code needs, so a change that adds a grid-sized temporary fails here.
Measured with numpy 2.4.6 on Python 3.11: markov 11.53, mce 9.17, predict
5.37 and validate 5.77 grids. Before the lean `wlc` and `ca_markov`, mce
measured 16.4 and predict 9.8. The peaks count numpy's own temporaries, so
another numpy may read a little differently: mce and predict keep 0.8
and 0.6 of a grid to spare, and markov and validate, which that change
did not touch, at least one grid.

`classify`'s kernels run on 4 bands drawn as the benchmark's classify
workload draws them. `maxlike` measures 7.63 grids: its label and 3 score
grids, and its blocks of 64 rows, a quarter of this grid.
`icm` measures 5.45. Before the row-blocked `maxlike` and the lean `icm`
they measured 17.26 and 11.34, so both fail their bounds of 9.5 and 6.5.
"""

import tracemalloc

import numpy as np
import pytest

from landchange import allocate
from landchange.classify import estimate_signatures, icm, maxlike
from landchange.cli import main
from landchange.config import load_config
from landchange.grid import Grid, LandCoverMap, MultiBandImage, read_ascii_grid
from landchange.pipeline import run_stage

ROWS = 256
GRID_BYTES = ROWS * ROWS * 8

# stage -> peak above its live set, in grids
BUDGET = {"markov": 13.0, "mce": 10.0, "predict": 6.0, "validate": 7.0}


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Each stage's peak above its live set, in grids, in one full run."""
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
    finally:
        tracemalloc.stop()
    assert set(handed["kappas"]) == {"ca_markov", "random_baseline"}
    return found


@pytest.mark.parametrize("stage", list(BUDGET))
def test_a_run_stage_stays_in_its_memory_budget(peaks, stage):
    assert peaks[stage] <= BUDGET[stage], f"{stage} peaks {peaks[stage]:.2f} grids above its live set"


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
