"""Tests of the benchmark itself, on small grids.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, read_grid, tree_digest, write_grid  # noqa: E402

ROWS = 64
SEED = 7


# ---------------------------------------------------------------------------
# tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["d", 2.0, 3.0, 1],
        ["c", 5.0, 7.0, 0],
        ["b", 8.0, 9.0, 0],
    ]
    s = tracer.summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert s["c"]["self_s"] == 2.0 and s["d"]["self_s"] == 1.0


def test_wrapped_calls_record_their_parent():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [(name, parent) for name, _, _, parent in t.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    s = tracer.summarize(t.spans)
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])


@pytest.fixture
def restore_landchange():
    import landchange.cli  # noqa: F401  (loads every module the tracer rebinds)

    mods = {n: m for n, m in sys.modules.items() if n.startswith("landchange")}
    saved = {n: dict(vars(m)) for n, m in mods.items()}
    yield
    for n, m in mods.items():
        vars(m).clear()
        vars(m).update(saved[n])


def test_install_reports_a_missing_name_and_wraps_the_rest(restore_landchange, monkeypatch):
    import landchange.allocate
    import landchange.pipeline

    monkeypatch.delattr(landchange.allocate, "random_allocation")
    monkeypatch.delattr(landchange.pipeline, "random_allocation")
    t = tracer.Tracer()
    assert tracer.install(t) == ["allocate.random_allocation"]
    # rebinding reaches the callers' names and the defining module's own
    assert landchange.pipeline.ca_markov is landchange.allocate.ca_markov
    assert landchange.pipeline.ca_markov.__wrapped__ is not None


def test_traced_main_reproduces_stage_spans(tmp_path):
    scen = tmp_path / "scen"
    rc = bench.landchange(["synth", "--rows", "32", "--cols", "32", "--out", str(scen), "--quiet"], tmp_path / "log")
    assert rc.rc == 0
    spans_path = tmp_path / "spans.json"
    argv = ["run", "--config", str(scen / "pipeline.ini"), "--out", str(tmp_path / "out"), "--quiet"]
    child = bench.spawn([sys.executable, str(HERE / "traced_main.py"), str(spans_path), "--", *argv], tmp_path / "log")
    assert child.rc == 0, child.log
    trace = json.loads(spans_path.read_text())
    assert trace["missing"] == []
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    clock = {f"pipeline.{w[1]}": float(w[2].rstrip("s")) for w in map(str.split, report) if w[:1] == ["wall_clock"]}
    assert sorted(clock) == ["pipeline.markov", "pipeline.mce", "pipeline.predict", "pipeline.validate"]
    for name, seconds in clock.items():
        assert trace["spans"][name]["calls"] == 1
        assert trace["spans"][name]["total_s"] == pytest.approx(seconds, abs=0.002)
    assert trace["io"]["grid.write_ascii_grid"]["calls"] == trace["spans"]["grid.write_ascii_grid"]["calls"]
    metrics = bench.layer_metrics(trace, wall_s=1.0, startup_s=0.3, artifact_mb=0.5)
    assert set(metrics) == {name for name, _ in bench.per_layer_names()}
    assert metrics["grid.read_ascii_grid.repeat_ratio"] > 0


# ---------------------------------------------------------------------------
# workloads: inputs and output checks


def small(name: str):
    return replace(WORKLOADS[name], rows=ROWS, setup_reps=1)


def produce(name: str, work: Path) -> tuple:
    """Set up a small version of the workload and run its command once;
    return (workload, inputs, out)."""
    w = small(name)
    run = bench.Run(w, SEED, work)
    work.mkdir(parents=True, exist_ok=True)
    run.setup()
    out = work / "out"
    child = bench.landchange(w.command(run.inputs, out, SEED, ROWS), work / "op.log")
    assert child.rc == 0, child.log
    return w, run.inputs, out


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def produced(request, tmp_path_factory):
    return produce(request.param, tmp_path_factory.mktemp(request.param))


def test_check_accepts_the_real_output(produced):
    w, inputs, out = produced
    k = w.check(inputs, out)
    assert 0.0 < k <= 1.0


def flip_cell(path: Path) -> None:
    values, header = read_grid(path)
    values = values.copy()
    ids = np.unique(values[values != -9999.0])
    values[0, 0] = ids[(np.searchsorted(ids, values[0, 0]) + 1) % ids.size]
    write_grid(path, values, "%.17g", header["cellsize"])


def truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def relabel_all(path: Path) -> None:
    values, header = read_grid(path)
    write_grid(path, np.where(values == -9999.0, values, 0.0), "%d", header["cellsize"])


def bump_cell(path: Path) -> None:
    values, header = read_grid(path)
    values = values.copy()
    values[1, 1] += 1.0
    write_grid(path, values, "%.17g", header["cellsize"])


def raise_last_mse(path: Path) -> None:
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",1.0"
    path.write_text("\n".join(lines) + "\n")


def swap_transition_entries(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1], cells[2] = cells[2], cells[1]
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "run-512": [(flip_cell, "predicted_ca.asc"), (truncate, "predicted_ca.asc"), (truncate, "transition.csv")],
    "synth-512": [(bump_cell, "prox1.asc"), (truncate, "map_2000.asc"), (swap_transition_entries, "truth_transition.csv")],
    "classify-512": [(relabel_all, "classified_ml.asc"), (relabel_all, "classified_icm.asc"), (truncate, "classified_icm.asc")],
    "mlp-256": [(raise_last_mse, "mlp_history.csv"), (flip_cell, "predicted_mlp.asc"), (truncate, "predicted_mlp.asc")],
}


def test_check_rejects_each_corrupted_output(produced, tmp_path):
    w, inputs, out = produced
    for corrupt, name in CORRUPTIONS[w.name]:
        bad = tmp_path / f"{corrupt.__name__}-{name}"
        shutil.copytree(out, bad)
        corrupt(bad / name)
        with pytest.raises((CheckFailed, ValueError)):
            w.check(inputs, bad)


def test_same_seed_gives_identical_input_digests(tmp_path):
    for name in ("run-512", "classify-512"):
        w = small(name)
        digests = []
        for rep, seed in enumerate((SEED, SEED, SEED + 1)):
            inputs = tmp_path / f"{name}-{rep}"
            inputs.mkdir()
            w.setup(bench.Run(w, seed, tmp_path).cli, inputs, seed, ROWS)
            digests.append(tree_digest(inputs))
        assert digests[0] == digests[1] != digests[2]


# ---------------------------------------------------------------------------
# contract


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, bench.UNITS[n]) for n in bench.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-512", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench.tail_percentile(list(range(10))) is None
    tail = bench.tail_percentile([float(i) for i in range(20)])
    assert tail == {"pct": 50.0, "value": 9.0}
