"""End-to-end pipeline: stages, artifacts, determinism."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from landchange import pipeline
from landchange.config import load_config
from landchange.errors import ConfigError, DataError, NumericalError
from landchange.grid import Grid, write_ascii_grid
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


@pytest.mark.parametrize("model", sorted(SCENARIOS))
def test_chained_stages_match_monolithic(tmp_path, model):
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
    real_take = pipeline._take
    real_read = pipeline.read_ascii_grid
    ran, taken, reads = [], [], []

    def recording_run_stage(name, cfg, handed=None):
        ran.append((name, handed))
        return real_run_stage(name, cfg, handed)

    def recording_take(cfg, handed, fname, writer, read):
        obj = real_take(cfg, handed, fname, writer, read)
        taken.append((fname, obj, writer, read))
        return obj

    def recording_read(path):
        reads.append(Path(path).name)
        return real_read(path)

    monkeypatch.setattr(pipeline, "run_stage", recording_run_stage)
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
    expected = {"transition_scaled.csv", "predicted_ca.asc"} | {f"suit_{cid}.asc" for cid in cfg.suitability}
    if model == "both":
        expected |= {"mlp_model.txt", "predicted_mlp.asc"}
    assert sorted(fname for fname, *_ in taken) == sorted(expected)
    assert set(handed) <= {"maps", "criteria"}  # every output handed forward was taken
    for fname, obj, writer, read in taken:
        _assert_same_bits(obj, real_take(cfg, None, fname, writer, read), fname)


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
    # [suitability] names no class 2, so mce makes no suit_2.asc; the one
    # left in the output directory by an earlier run must not stand in
    ini = _scenario(tmp_path)
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("2 = prox2,prox0,prox1\n", ""), encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    cfg.out_dir.mkdir()
    write_ascii_grid(Grid(np.full((20, 20), 0.5), 30.0), cfg.out_dir / "suit_2.asc")
    with pytest.raises(DataError, match="^stage predict: suit_2.asc not found; run the mce stage first$"):
        run_pipeline(cfg)


def test_validate_needs_three_maps(tmp_path):
    cfg = load_config(_scenario(tmp_path, n_maps=2), out_dir=tmp_path / "out")
    with pytest.raises(DataError, match="three dated maps"):
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
    for fn in ("mlp_model.txt", "mlp_history.csv", "mlp_prob.asc", "predicted_mlp.asc", "confusion_mlp.csv"):
        assert (tmp_path / "out" / fn).is_file(), fn
    assert set(rep.kappas) == {"ca_markov", "mlp"}
    assert "perceptron training" in rep.report_path.read_text(encoding="ascii")


def test_constraints_must_be_binary(tmp_path):
    ini = _scenario(tmp_path)
    bad = Grid(np.full((20, 20), 2.0), 30.0)
    write_ascii_grid(bad, ini.parent / "blocked.asc")
    text = ini.read_text(encoding="ascii")
    text += "\n[constraints]\nblocked = blocked.asc\n"
    ini.write_text(text, encoding="ascii")
    cfg = load_config(ini, out_dir=tmp_path / "out")
    with pytest.raises(DataError, match="0/1"):
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
