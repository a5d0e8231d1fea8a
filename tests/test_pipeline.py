"""End-to-end pipeline: stages, artifacts, determinism."""

import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from landchange import pipeline
from landchange.cli import main
from landchange.config import load_config
from landchange.errors import ConfigError, DataError, NumericalError
from landchange.grid import Grid, read_ascii_grid, read_csv_rows, read_legend, write_ascii_grid, write_legend
from landchange.markov import read_transition_csv, scale_transition, write_transition_csv
from landchange.pipeline import load_maps, run_pipeline, run_stage
from landchange.synth import SynthSpec, generate_synthetic_landscape, write_scenario

CA_FILES = [
    "transition.csv",
    "transition_scaled.csv",
    "expected_areas.csv",
    "weights.csv",
    "suit_0.asc",
    "suit_1.asc",
    "suit_2.asc",
    "predicted_ca.asc",
    "allocation_log.csv",
    "validation.csv",
    "confusion_ca_markov.csv",
    "residual_ca_markov.asc",
    "report.txt",
]


def _scenario(tmp_path, model="ca_markov", **kw):
    kw.setdefault("seed", 4)
    spec = SynthSpec(n_rows=20, n_cols=20, **kw)
    res = generate_synthetic_landscape(spec)
    ini = write_scenario(res, tmp_path / "scenario", model=model)
    return ini


def _strip_timing(path: Path) -> str:
    lines = path.read_text(encoding="ascii").splitlines()
    return "\n".join(ln for ln in lines if not ln.startswith("wall_clock"))


def test_full_run_artifacts_and_quality(tmp_path):
    cfg = load_config(_scenario(tmp_path), out_dir=tmp_path / "out")
    rep = run_pipeline(cfg)
    for fn in CA_FILES:
        assert (tmp_path / "out" / fn).is_file(), fn
    for cid in (0, 1, 2):
        assert (tmp_path / "out" / f"prob_to_{cid}.asc").is_file()
    # suitability-guided allocation must beat random placement comfortably
    assert rep.kappas["ca_markov"] > rep.baseline_kappa + 0.3
    assert rep.report_path == tmp_path / "out" / "report.txt"
    report = rep.report_path.read_text(encoding="ascii")
    assert "settings" in report
    assert "wall_clock markov" in report
    val = (tmp_path / "out" / "validation.csv").read_text(encoding="ascii").splitlines()
    assert val[0] == "model,kappa,overall_accuracy"
    assert val[1].startswith("ca_markov,")
    assert val[-1].startswith("random_baseline,")


def test_shifted_class_ids_on_nodata_0_give_the_same_run(tmp_path):
    # the byte-identity matrix's stay-1 scenario, run as written and with
    # every class id +1 and the maps on NODATA_VALUE 0
    sc, shifted = tmp_path / "sc", tmp_path / "shifted"
    synth = ["synth", "--rows", "64", "--cols", "70", "--classes", "3", "--stay", "1", "--seed", "5"]
    assert main([*synth, "--out", str(sc), "--quiet"]) == 0
    shutil.copytree(sc, shifted)
    for path in shifted.glob("map_*.asc"):
        g = read_ascii_grid(path)
        assert g.valid.all()
        write_ascii_grid(Grid(g.values + 1.0, g.cell_size, g.x_origin, g.y_origin, 0.0), path)
    legend = read_legend(sc / "legend.csv")
    write_legend({c + 1: name for c, name in legend.items()}, shifted / "legend.csv")
    ini = (sc / "pipeline.ini").read_text(encoding="utf-8")
    section, n = re.subn(r"^(\d+) = ", lambda m: f"{int(m[1]) + 1} = ", ini.split("[suitability]")[1], flags=re.M)
    assert n == 3
    (shifted / "pipeline.ini").write_text(ini.split("[suitability]")[0] + "[suitability]" + section, encoding="utf-8")
    for d in (sc, shifted):
        assert main(["run", "--config", str(d / "pipeline.ini"), "--out", str(d / "out"), "--quiet"]) == 0
    for c in legend:
        assert (shifted / "out" / f"prob_to_{c + 1}.asc").read_bytes() == (sc / "out" / f"prob_to_{c}.asc").read_bytes()
    want, got = (read_ascii_grid(d / "out" / "predicted_ca.asc") for d in (sc, shifted))
    assert want.valid.all() and got.valid.all()
    assert np.array_equal(got.values, want.values + 1.0)
    assert (shifted / "out" / "validation.csv").read_bytes() == (sc / "out" / "validation.csv").read_bytes()


def test_two_runs_bit_identical(tmp_path):
    ini = _scenario(tmp_path)
    run_pipeline(load_config(ini, out_dir=tmp_path / "a"))
    run_pipeline(load_config(ini, out_dir=tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        if name == "report.txt":
            assert _strip_timing(tmp_path / "a" / name) == _strip_timing(tmp_path / "b" / name)
        else:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


SCENARIOS = {
    "ca_markov": (dict(), ("markov", "mce", "predict", "validate")),
    "both": (
        dict(model="both", n_classes=2, seed=6),
        ("markov", "mce", "predict", "mlp-train", "mlp-predict", "validate"),
    ),
}


# the repository's own 128x128 three-class scenario, a ca_markov run
SHIPPED_INI = Path(__file__).resolve().parents[1] / "scenario" / "pipeline.ini"


@pytest.mark.parametrize("model", [*sorted(SCENARIOS), "shipped"])
def test_chained_stages_match_monolithic(tmp_path, model):
    if model == "shipped":
        ini, stages = SHIPPED_INI, SCENARIOS["ca_markov"][1]
    else:
        kw, stages = SCENARIOS[model]
        ini = _scenario(tmp_path, **kw)
    run_pipeline(load_config(ini, out_dir=tmp_path / "mono"))
    chained = load_config(ini, out_dir=tmp_path / "chain")
    for name in stages:
        run_stage(name, chained)
    names = sorted(p.name for p in (tmp_path / "mono").iterdir())
    assert sorted(p.name for p in (tmp_path / "chain").iterdir()) == [n for n in names if n != "report.txt"]
    for name in names:
        if name == "report.txt":
            continue  # only the full run writes the report
        assert (tmp_path / "chain" / name).read_bytes() == (tmp_path / "mono" / name).read_bytes(), name


def _assert_same_bits(handed, read, where: str) -> None:
    """Equal types and values, with arrays and floats compared bit for bit."""
    assert type(handed) is type(read), where
    if isinstance(handed, dict):
        assert list(handed) == list(read), where
        for k in handed:
            _assert_same_bits(handed[k], read[k], f"{where}[{k!r}]")
    elif isinstance(handed, (list, tuple)):
        assert len(handed) == len(read), where
        for i, (a, b) in enumerate(zip(handed, read)):
            _assert_same_bits(a, b, f"{where}[{i}]")
    elif isinstance(handed, np.ndarray):
        assert (handed.dtype, handed.shape) == (read.dtype, read.shape), where
        assert handed.tobytes() == read.tobytes(), where
    elif isinstance(handed, float):
        assert np.float64(handed).tobytes() == np.float64(read).tobytes(), where
    elif dataclasses.is_dataclass(handed):
        for f in dataclasses.fields(handed):
            _assert_same_bits(getattr(handed, f.name), getattr(read, f.name), f"{where}.{f.name}")
    else:
        assert handed == read, where


@pytest.mark.parametrize("model", sorted(SCENARIOS))
def test_handed_forward_results_equal_their_files(tmp_path, monkeypatch, model):
    # every object the full run hands forward under a file name equals, bit
    # for bit, what a single-stage command reads back from that file
    kw, stages = SCENARIOS[model]
    ini = _scenario(tmp_path, **kw)
    # a criterion no [suitability] class names: mce never reads it, so
    # mlp-train must read it itself
    (ini.parent / "extra.asc").write_bytes((ini.parent / "prox0.asc").read_bytes())
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("[criteria]\n", "[criteria]\nextra = extra.asc\n", 1), encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    real_run_stage = pipeline.run_stage
    real_put = pipeline._put
    real_take = pipeline._take
    real_read = pipeline.read_ascii_grid
    ran, put, taken, reads = [], [], [], []

    def recording_run_stage(name, cfg, handed=None):
        ran.append((name, handed))
        return real_run_stage(name, cfg, handed)

    def recording_put(cfg, handed, fname, obj, write):
        put.append(fname)
        real_put(cfg, handed, fname, obj, write)

    def recording_take(cfg, handed, fname, writer, read):
        obj = real_take(cfg, handed, fname, writer, read)
        taken.append((fname, obj, writer, read))
        return obj

    def recording_read(path):
        reads.append(Path(path).name)
        return real_read(path)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
    monkeypatch.setattr(pipeline, "_put", recording_put)
    monkeypatch.setattr(pipeline, "_take", recording_take)
    monkeypatch.setattr(pipeline, "read_ascii_grid", recording_read)
    run_pipeline(cfg)
    named = sorted({n for names in cfg.suitability.values() for n in names})
    maps = [Path(p).name for _, p in cfg.maps]
    # each input is read once: the dated maps by markov, the named criteria
    # by mce, and the unnamed one by mlp-train
    assert reads == maps + [f"{n}.asc" for n in named] + (["extra.asc"] if model == "both" else [])
    assert tuple(name for name, _ in ran) == stages
    handed = ran[0][1]
    assert all(h is handed for _, h in ran)  # one dict for the whole run
    expected = ["transition_scaled.csv", "predicted_ca.asc"] + [f"suit_{cid}.asc" for cid in cfg.suitability]
    if model == "both":  # predict and mlp-predict both allocate the scaled matrix
        expected += ["transition_scaled.csv", "mlp_model.txt", "predicted_mlp.asc"]
    assert sorted(fname for fname, *_ in taken) == sorted(expected)
    assert sorted(put) == sorted(set(expected))  # every output handed forward was taken
    assert not any(isinstance(obj, Grid) for obj in handed.values())  # each grid went with its taker
    for fname, obj, writer, read in taken:
        _assert_same_bits(obj, real_take(cfg, None, fname, writer, read), fname)


# each stage's report sections, by heading, in the order the stage writes them
REPORT_HEADINGS = {
    "markov": ["estimated transition probabilities", "scaled to the prediction span", "projected areas (pixels)"],
    "mce": ["comparison-matrix weights"],
    "predict": ["allocation (final iteration)"],
    "mlp-train": ["perceptron training"],
    "mlp-predict": ["perceptron allocation (final iteration)"],
    "validate": ["validation against the held-out map"],
}


REPORT_SCENARIOS = {
    **SCENARIOS,
    "mlp": (dict(model="mlp", n_classes=2, seed=6), ("markov", "mlp-train", "mlp-predict", "validate")),
}


@pytest.mark.parametrize("model", sorted(REPORT_SCENARIOS))
def test_report_sections_follow_the_stages_and_repeat_the_artifacts(tmp_path, model):
    kw, stages = REPORT_SCENARIOS[model]
    out = tmp_path / "out"
    rep = run_pipeline(load_config(_scenario(tmp_path, **kw), out_dir=out))
    *blocks, clock = [b.splitlines() for b in (out / "report.txt").read_text(encoding="ascii").split("\n\n")]
    headings = [h for stage in stages for h in REPORT_HEADINGS[stage]]
    assert [b[0] for b in blocks] == ["land-cover change pipeline report", "settings", *headings]
    assert [ln.split()[:2] for ln in clock] == [["wall_clock", stage] for stage in stages]
    body = {b[0]: b[1:] for b in blocks}

    areas = read_csv_rows(out / "expected_areas.csv", "areas")[1:]
    assert body["projected areas (pixels)"][0].split() == ["class", "expected", "target"]
    assert [ln.split() for ln in body["projected areas (pixels)"][1:]] == [
        [cid, f"{float(exp):.2f}", target] for cid, exp, target in areas
    ]
    for stage, log_csv in (("predict", "allocation_log.csv"), ("mlp-predict", "allocation_log_mlp.csv")):
        if stage not in stages:
            assert not (out / log_csv).exists()
            continue
        log = read_csv_rows(out / log_csv, "log")[1:]
        last = max(int(r[0]) for r in log)
        alloc = body[REPORT_HEADINGS[stage][0]]
        assert alloc[0].split() == ["class", "target", "allocated"]
        assert [ln.split() for ln in alloc[1:-1]] == [r[1:] for r in log if int(r[0]) == last]
        assert alloc[-1].startswith("  clumping = ")
    val = read_csv_rows(out / "validation.csv", "validation")[1:]
    scores = [ln for ln in body["validation against the held-out map"] if not ln.startswith("    class ")]
    assert scores == [f"  {name}: kappa = {k}, overall accuracy = {acc}" for name, k, acc in val]
    assert rep.kappas == {name: float(k) for name, k, _ in val[:-1]}
    assert (val[-1][0], rep.baseline_kappa) == ("random_baseline", float(val[-1][1]))


def test_stage_order_errors(tmp_path):
    cfg = load_config(_scenario(tmp_path), out_dir=tmp_path / "out")
    with pytest.raises(DataError, match="stage predict: transition_scaled.csv not found; run the markov stage first"):
        run_stage("predict", cfg)
    run_stage("markov", cfg)
    with pytest.raises(DataError, match="stage predict: suit_0.asc not found; run the mce stage first"):
        run_stage("predict", cfg)
    (tmp_path / "out" / "suit_1.asc").write_text("not a grid\n", encoding="ascii")
    with pytest.raises(DataError, match="stage predict: suit_0.asc not found; run the mce stage first"):
        run_stage("predict", cfg)
    (tmp_path / "out" / "suit_1.asc").unlink()
    with pytest.raises(DataError, match="stage validate: predicted_ca.asc not found; run the predict stages first"):
        run_stage("validate", cfg)
    with pytest.raises(DataError, match="stage mlp-predict: .*mlp-train"):
        run_stage("mlp-predict", cfg)


def test_full_run_never_reads_a_stale_output(tmp_path):
    # a full run takes an output only from what the earlier stages handed
    # forward: with suit_2.asc missing there, the one left in the output
    # directory by an earlier run must not stand in
    cfg = load_config(_scenario(tmp_path), out_dir=tmp_path / "out")
    handed = {}
    for name in ("markov", "mce"):
        run_stage(name, cfg, handed)
    del handed["suit_2.asc"]
    write_ascii_grid(Grid(np.full((20, 20), 0.5), 30.0), cfg.out_dir / "suit_2.asc")
    with pytest.raises(DataError, match="^stage predict: suit_2.asc not found; run the mce stage first$"):
        run_stage("predict", cfg, handed)


def test_validate_needs_three_maps(tmp_path):
    cfg = load_config(_scenario(tmp_path, n_maps=2), out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match="three dated maps"):
        run_stage("validate", cfg)


def test_second_order_only_with_four_maps(tmp_path):
    cfg3 = load_config(_scenario(tmp_path), out_dir=tmp_path / "o3")
    run_stage("markov", cfg3)
    assert not (tmp_path / "o3" / "second_order.csv").exists()
    cfg4 = load_config(_scenario(tmp_path / "four", n_maps=4), out_dir=tmp_path / "o4")
    run_stage("markov", cfg4)
    assert (tmp_path / "o4" / "second_order.csv").is_file()


def test_legend_derived_when_absent(tmp_path):
    ini = _scenario(tmp_path)
    text = ini.read_text(encoding="ascii")
    text = text.replace("[legend]\nfile = legend.csv\n", "")
    ini.write_text(text, encoding="ascii")
    maps = load_maps(load_config(ini))
    assert maps[0].legend == {0: "class 0", 1: "class 1", 2: "class 2"}


def test_mlp_model_artifacts(tmp_path):
    ini = _scenario(tmp_path, model="both", n_classes=2, seed=6)
    rep = run_pipeline(load_config(ini, out_dir=tmp_path / "out"))
    for fn in (
        "mlp_model.txt",
        "mlp_history.csv",
        "mlp_prob.asc",
        "predicted_mlp.asc",
        "allocation_log_mlp.csv",
        "confusion_mlp.csv",
    ):
        assert (tmp_path / "out" / fn).is_file(), fn
    assert set(rep.kappas) == {"ca_markov", "mlp"}
    assert "perceptron training" in rep.report_path.read_text(encoding="ascii")
    # both maps hold the Markov-projected class counts
    targets = {int(r[0]): int(r[2]) for r in read_csv_rows(tmp_path / "out" / "expected_areas.csv", "areas")[1:]}
    for fn in ("predicted_ca.asc", "predicted_mlp.asc"):
        g = read_ascii_grid(tmp_path / "out" / fn)
        ids, counts = np.unique(g.values[g.valid], return_counts=True)
        assert dict(zip(ids.astype(int).tolist(), counts.tolist())) == targets, fn


def test_focal_class_outside_the_legend_is_a_config_error(tmp_path):
    ini = _scenario(tmp_path, model="mlp", n_classes=2, seed=6)
    ini.write_text(ini.read_text(encoding="ascii") + "focal_class = 7\n", encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match=r"^stage mlp-train: mlp\.focal_class: class 7 is not in the legend \[0, 1\]$"):
        run_stage("mlp-train", cfg)
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "run"), "--quiet"]) == 2
    assert not (tmp_path / "run").exists()  # refused before any stage writes


def test_a_map_whose_valid_cells_all_stand_alone_has_undefined_clumping(tmp_path):
    # every cell nodata but those at (even row, even col): no valid cell has
    # a valid neighbour, so the clumping of a prediction is undefined
    sc = tmp_path / "sc"
    argv = ["synth", "--rows", "16", "--cols", "16", "--classes", "2", "--seed", "5", "--model", "both"]
    assert main([*argv, "--out", str(sc), "--quiet"]) == 0
    alone = np.ones((16, 16), dtype=bool)
    alone[::2, ::2] = False
    for path in sc.glob("map_*.asc"):
        g = read_ascii_grid(path)
        values = np.where(alone, g.nodata_value, g.values)
        write_ascii_grid(Grid(values, g.cell_size, g.x_origin, g.y_origin, g.nodata_value), path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(sc / "pipeline.ini"), "--out", str(out), "--quiet"]) == 0
    report = out.joinpath("report.txt").read_text(encoding="ascii")
    for heading in ("allocation (final iteration)", "perceptron allocation (final iteration)"):
        section = report.split(f"\n{heading}\n", 1)[1].split("\n\n", 1)[0]
        assert section.endswith("\n  clumping = undefined (no valid cell has a valid neighbour)"), heading


def test_constraints_must_be_binary(tmp_path):
    ini = _scenario(tmp_path)
    bad = Grid(np.full((20, 20), 2.0), 30.0)
    write_ascii_grid(bad, ini.parent / "blocked.asc")
    text = ini.read_text(encoding="ascii")
    text += "\n[constraints]\nblocked = blocked.asc\n"
    ini.write_text(text, encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    with pytest.raises(DataError, match=f"^stage mce: {re.escape(str(ini.parent / 'blocked.asc'))}: mask values must all be 0 or 1$"):
        run_stage("mce", cfg)


def test_constraint_gates_suitability(tmp_path):
    ini = _scenario(tmp_path)
    vals = np.ones((20, 20))
    vals[:, :10] = 0.0
    write_ascii_grid(Grid(vals, 30.0), ini.parent / "west.asc")
    text = ini.read_text(encoding="ascii")
    text += "\n[constraints]\nwest = west.asc\n"
    ini.write_text(text, encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    run_stage("mce", cfg)
    from landchange.grid import read_ascii_grid

    suit = read_ascii_grid(tmp_path / "out" / "suit_0.asc")
    assert np.all(suit.values[:, :10] == 0.0)
    assert np.any(suit.values[:, 10:] > 0.0)


def test_mce_requires_configuration(tmp_path):
    ini = _scenario(tmp_path)
    text = ini.read_text(encoding="ascii")
    stripped = text.replace("[mce]\nsaaty = saaty.csv\nmethod = wlc\n", "[mce]\nmethod = wlc\n")
    ini.write_text(stripped, encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match="saaty"):
        run_stage("mce", cfg)


def _redate_held_out(ini, held_year):
    """Re-date the held-out map of a synthetic scenario."""
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("2000 = map_2000.asc", f"{held_year} = map_2000.asc"), encoding="ascii")


def test_long_prediction_span_composes_equal_steps(tmp_path):
    heavy = np.array([[0.5, 0.5], [0.2, 0.8]])
    ini = _scenario(tmp_path, n_classes=2, transition=heavy)
    _redate_held_out(ini, 2008)  # calibrate over 6 years, predict over 14
    rep = run_pipeline(load_config(ini, out_dir=tmp_path / "out"))
    out = tmp_path / "out"
    tm = read_transition_csv(out / "transition.csv")
    with pytest.raises(NumericalError, match="shorter steps"):
        scale_transition(tm, 14.0)
    step = scale_transition(tm, 7.0)
    scaled = read_transition_csv(out / "transition_scaled.csv")
    assert scaled.time_span == 14.0
    assert scaled.probs.tolist() == (step.probs @ step.probs).tolist()
    report = rep.report_path.read_text(encoding="ascii")
    assert "  time span note: 2 equal steps of 7.0, composed\n" in report
    assert (out / "predicted_ca.asc").is_file()


def test_span_that_scales_in_one_step_is_unchanged(tmp_path):
    ini = _scenario(tmp_path)
    _redate_held_out(ini, 2003)  # 6 -> 9 years scales linearly in one step
    rep = run_pipeline(load_config(ini, out_dir=tmp_path / "out"))
    out = tmp_path / "out"
    ref = scale_transition(read_transition_csv(out / "transition.csv"), 9.0)
    write_transition_csv(ref, tmp_path / "ref.csv")
    assert (out / "transition_scaled.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert "time span note" not in rep.report_path.read_text(encoding="ascii")
