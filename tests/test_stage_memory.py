"""Each stage of a `run` keeps to a stated memory budget.

A stage's budget is its tracemalloc peak above the memory live when it
starts, counted in grid-sized arrays: float64 arrays of the scenario's
shape. The scenario is a fixed 256x256, 3-class synth run, sized for run
time only. Each bound was measured and then lowered to what the code
needs, so a change that adds a grid-sized temporary to a stage fails here.
Measured with numpy 2.4.6 on Python 3.11: markov 11.53, mce 9.17, predict
5.37 and validate 5.77 grids. Before the lean `wlc` and `ca_markov`, mce
measured 16.4 and predict 9.8. The peaks count numpy's own temporaries, so
another numpy may read a little differently: mce and predict keep 0.8
and 0.6 of a grid to spare, and markov and validate, which that change
did not touch, at least one grid.
"""

import tracemalloc

import pytest

from landchange import allocate
from landchange.cli import main
from landchange.config import load_config
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
