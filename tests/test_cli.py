"""Command-line interface: exit codes and artifact wiring."""

import argparse
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from landchange import __version__
from landchange.cli import build_parser, main
from landchange.grid import Grid, read_ascii_grid, write_ascii_grid
from landchange.markov import read_transition_csv


def _w(path, vals, cell=30.0, nodata=-9999.0):
    write_ascii_grid(Grid(np.asarray(vals, dtype=np.float64), cell, nodata_value=nodata), path)
    return str(path)


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"landchange {__version__}" in capsys.readouterr().out


def test_synth_then_run(tmp_path):
    sc = tmp_path / "sc"
    assert main(["synth", "--rows", "16", "--cols", "16", "--out", str(sc), "--quiet"]) == 0
    ini = sc / "pipeline.ini"
    assert ini.is_file()
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.txt").is_file()
    assert (out / "validation.csv").is_file()


def test_config_errors(tmp_path):
    assert main(["run", "--quiet"]) == 2  # no --config
    assert main(["run", "--config", str(tmp_path / "missing.ini"), "--quiet"]) == 2


def test_stage_out_of_order(tmp_path):
    sc = tmp_path / "sc"
    main(["synth", "--rows", "12", "--cols", "12", "--out", str(sc), "--quiet"])
    code = main(
        ["predict", "--config", str(sc / "pipeline.ini"), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 3  # markov artifacts missing


def test_numerical_failure_exit_code(tmp_path):
    # every map and the prediction hold one class, so kappa is undefined
    one_class = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    for year in (2000, 2001, 2002):
        _w(tmp_path / f"m{year}.asc", one_class)
    ini = tmp_path / "pipe.ini"
    ini.write_text(
        "[maps]\n2000 = m2000.asc\n2001 = m2001.asc\n2002 = m2002.asc\n",
        encoding="ascii",
    )
    (tmp_path / "o").mkdir()
    _w(tmp_path / "o" / "predicted_ca.asc", one_class)
    code = main(["validate", "--config", str(ini), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 4


def test_long_prediction_span_is_split(tmp_path):
    # a one-year calibration with heavy change stretched over 49 years is
    # composed from equal sub-steps instead of failing
    m2000 = [[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]]
    m2001 = [[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1.0]]
    _w(tmp_path / "m2000.asc", m2000)
    _w(tmp_path / "m2001.asc", m2001)
    _w(tmp_path / "m2050.asc", m2001)
    ini = tmp_path / "pipe.ini"
    ini.write_text(
        "[maps]\n2000 = m2000.asc\n2001 = m2001.asc\n2050 = m2050.asc\n",
        encoding="ascii",
    )
    code = main(["markov", "--config", str(ini), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    scaled = read_transition_csv(tmp_path / "o" / "transition_scaled.csv")
    assert scaled.time_span == 49.0
    assert scaled.probs[1].tolist() == [0.0, 1.0]  # class 1 never left


@pytest.mark.parametrize("model", ["mlp", "both"])
def test_mlp_on_three_class_legend_fails_before_training(tmp_path, model):
    # refused once the dated maps are read, before the markov stage writes
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("model = ca_markov", f"model = {model}"), encoding="ascii")
    res = _cli(["run", "--config", str(ini), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert f"stage mlp-train: run.model = {model}" in res.stderr
    assert "one focal class against one other class, but the legend holds classes (0, 1, 2)" in res.stderr
    assert "Traceback" not in res.stderr
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_mlp_run_keeps_the_markov_wording_for_a_map_read_error(tmp_path):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("model = ca_markov", "model = mlp"), encoding="ascii")
    (sc / "map_2000.asc").write_text("NCOLS 4\n", encoding="ascii")
    res = _cli(["run", "--config", str(ini), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "stage markov: " in res.stderr and "map_2000.asc" in res.stderr
    assert "Traceback" not in res.stderr
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_suitability_class_outside_the_legend_exits_2_before_mce_writes(tmp_path, caplog):
    # the legend holds classes 0, 1 and 2, so no pixel can take class 7
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("[suitability]\n", "[suitability]\n7 = prox0,prox1,prox2\n"), encoding="ascii")
    for command in ("run", "mce"):
        out = tmp_path / command
        caplog.clear()
        assert main([command, "--config", str(ini), "--out", str(out), "--quiet"]) == 2
        assert "stage mce: suitability.7: class 7 is not in the legend [0, 1, 2]" in caplog.text
        if command == "run":  # refused once the maps are read, before markov writes
            assert not out.exists() or not any(out.iterdir())
        else:
            assert not any(p.name.startswith("suit_") or p.name == "weights.csv" for p in out.iterdir())


@pytest.mark.parametrize(
    "old, new, message",
    [
        # every class the allocation places needs a suitability grid
        ("2 = prox2,prox0,prox1\n", "",
         "stage mce: suitability.2 is missing, but the legend holds class 2: every class needs one"),
        # the comparison matrix ranks three factors; refused at load
        ("0 = prox0,prox1,prox2", "0 = prox0,prox1", "suitability.0 lists 2 factors, but mce.saaty ranks 3"),
    ],
    ids=["missing-class", "factor-count"],
)
def test_suitability_lists_that_miss_a_class_or_rank_exit_2_before_mce_writes(tmp_path, caplog, old, new, message):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    ini.write_text(ini.read_text(encoding="ascii").replace(old, new), encoding="ascii")
    for command in ("run", "mce"):
        out = tmp_path / command
        caplog.clear()
        assert main([command, "--config", str(ini), "--out", str(out), "--quiet"]) == 2
        assert message in caplog.text
        assert not any(p.name.startswith("suit_") or p.name == "weights.csv" for p in out.glob("*"))


@pytest.mark.parametrize(
    "old, new, rows",
    [("XLLCORNER 0", "XLLCORNER 5000", slice(None)), ("NROWS 128", "NROWS 127", slice(1, None))],
    ids=["shifted", "cropped"],
)
def test_misregistered_criterion_exits_3_naming_its_key(tmp_path, old, new, rows):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    lines = (sc / "prox0.asc").read_text(encoding="ascii").splitlines()
    assert old in lines[:6]
    head = [new if ln == old else ln for ln in lines[:6]]
    (sc / "prox0.asc").write_text("\n".join(head + lines[6:][rows]) + "\n", encoding="ascii")
    res = _cli(["run", "--config", str(sc / "pipeline.ini"), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert "stage mce: criteria.prox0 geometry (" in res.stderr
    assert "does not match maps.1994 geometry (128, 128)/30.0 at lower-left corner (0.0, 0.0)" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list((tmp_path / "o").glob("suit_*.asc"))


def test_misregistered_dated_map_exits_3_naming_its_key_before_writing(tmp_path):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    text = (sc / "map_2000.asc").read_text(encoding="ascii")
    assert "XLLCORNER 0\n" in text
    (sc / "map_2000.asc").write_text(text.replace("XLLCORNER 0\n", "XLLCORNER 5000\n", 1), encoding="ascii")
    res = _cli(["run", "--config", str(sc / "pipeline.ini"), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert (
        "stage markov: maps.2000 geometry (128, 128)/30.0 at lower-left corner (5000.0, 0.0) "
        "does not match maps.1988 geometry (128, 128)/30.0 at lower-left corner (0.0, 0.0)"
    ) in res.stderr
    assert "Traceback" not in res.stderr
    assert not list((tmp_path / "o").glob("*"))


def _put_nodata(path, row, col):
    g = read_ascii_grid(path)
    vals = g.values.copy()
    vals[row, col] = g.nodata_value
    write_ascii_grid(g.with_values(vals), path)


@pytest.mark.parametrize("command", ["run", "predict", "mlp-train", "mlp-predict"])
def test_nodata_suitability_under_map_data_exits_3_naming_the_cell(tmp_path, command):
    # a suitability without data where the map holds data leaves a cell that
    # no class can take. A criterion is refused where it is read, naming its
    # config key, before its stage writes; an edited suitability file is
    # refused where predict reads it, naming its path. Either way the cell
    # is named.
    sc = tmp_path / "sc"
    out = tmp_path / "o"
    ini = str(sc / "pipeline.ini")
    stage = command
    if command.startswith("mlp"):
        assert main(["synth", "--rows", "20", "--cols", "24", "--classes", "2", "--model", "mlp",
                     "--seed", "7", "--out", str(sc), "--quiet"]) == 0
        for earlier in ("markov", "mlp-train")[: 1 if command == "mlp-train" else 2]:
            assert main([earlier, "--config", ini, "--out", str(out), "--quiet"]) == 0
        _put_nodata(sc / "prox1.asc", 0, 23)
        message = "criteria.prox1 is nodata at cell (row 0, col 23), where maps.1994 holds data"
        product = "mlp_model.txt" if command == "mlp-train" else "predicted_mlp.asc"
    else:
        shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
        if command == "run":
            _put_nodata(sc / "prox0.asc", 5, 7)
            stage, product = "mce", "suit_*.asc"
            message = "criteria.prox0 is nodata at cell (row 5, col 7), where maps.1994 holds data"
        else:
            for earlier in ("markov", "mce"):
                assert main([earlier, "--config", ini, "--out", str(out), "--quiet"]) == 0
            _put_nodata(out / "suit_2.asc", 3, 9)
            message = f"{out / 'suit_2.asc'} is nodata at cell (row 3, col 9), where maps.1994 holds data"
            product = "predicted_ca.asc"
    res = _cli([command, "--config", ini, "--out", str(out), "--quiet"], tmp_path)
    assert res.returncode == 3
    assert f"stage {stage}: {message}" in res.stderr
    assert "Traceback" not in res.stderr
    assert not list(out.glob(product))


def test_two_dated_maps_cannot_be_validated(tmp_path, caplog):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = sc / "pipeline.ini"
    ini.write_text(ini.read_text(encoding="ascii").replace("2000 = map_2000.asc\n", ""), encoding="ascii")
    message = "validation needs at least three dated maps (the last one held out), got 2"
    out = tmp_path / "o"
    assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert message in caplog.text
    assert not out.exists()  # refused before the first stage
    for stage in ("markov", "mce", "predict"):  # they still project beyond the last map
        assert main([stage, "--config", str(ini), "--out", str(out), "--quiet"]) == 0
    caplog.clear()
    assert main(["validate", "--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert f"stage validate: {message}" in caplog.text


@pytest.mark.parametrize("seed", range(4))
def test_untrained_perceptron_map_holds_the_projected_areas(tmp_path, seed):
    # learning_rate 0 keeps the initial weights, whose probabilities can all
    # fall on one side of 0.5; the allocated map still holds the
    # Markov-projected class counts exactly
    sc = tmp_path / "sc"
    synth = ["synth", "--rows", "48", "--cols", "48", "--classes", "2", "--model", "mlp", "--seed", str(seed)]
    assert main([*synth, "--out", str(sc), "--quiet"]) == 0
    ini = sc / "pipeline.ini"
    text = ini.read_text(encoding="ascii")
    ini.write_text(text.replace("learning_rate = 0.5", "learning_rate = 0").replace("epochs = 300", "epochs = 1"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(ini), "--out", str(out), "--quiet"]) == 0
    rows = (out / "expected_areas.csv").read_text(encoding="ascii").splitlines()
    header = rows[0].split(",")
    expected = {int(r.split(",")[0]): int(r.split(",")[header.index("target_pixels")]) for r in rows[1:]}
    predicted = read_ascii_grid(out / "predicted_mlp.asc")
    values, counts = np.unique(predicted.values[predicted.valid], return_counts=True)
    assert dict(zip(values.astype(int).tolist(), counts.tolist())) == expected


def test_nan_in_scaled_transition_names_file_and_value(tmp_path):
    sc = tmp_path / "sc"
    shutil.copytree(Path(__file__).resolve().parents[1] / "scenario", sc)
    ini = str(sc / "pipeline.ini")
    for stage in ("markov", "mce"):
        assert _cli([stage, "--config", ini, "--out", "o", "--quiet"], tmp_path).returncode == 0
    path = tmp_path / "o" / "transition_scaled.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith("0,")
    lines[2] = "0,nan," + ",".join(lines[2].split(",")[2:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res = _cli(["predict", "--config", ini, "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert "transition_scaled.csv: transition probability 0 -> 0 must lie in [0, 1], got nan" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert "Traceback" not in res.stderr


def test_preprocess_and_oif(tmp_path):
    b1 = _w(tmp_path / "b1.asc", [[5.0, 6.0, 9.0], [7.0, 8.0, 12.0]])
    b2 = _w(tmp_path / "b2.asc", [[3.0, 4.0, 8.0], [5.0, 9.0, 2.0]])
    b3 = _w(tmp_path / "b3.asc", [[1.0, 7.0, 2.0], [6.0, 3.0, 4.0]])
    ref = _w(tmp_path / "ref.asc", [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    out = tmp_path / "pre"
    code = main(["preprocess", b1, b2, b3, "--reference", ref, "--out", str(out), "--quiet"])
    assert code == 0
    for fn in ("corrected_band1.asc", "dark_values.csv", "band_stats.csv", "correlation.csv"):
        assert (out / fn).is_file(), fn

    out2 = tmp_path / "oif"
    assert main(["oif", b1, b2, b3, "--out", str(out2), "--quiet"]) == 0
    text = (out2 / "oif.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "b1,b2,b3,oif"

    # label count must match band count
    assert main(["oif", b1, b2, b3, "--labels", "a,b", "--out", str(out2), "--quiet"]) == 2


def test_preprocess_keeps_the_darkest_pixel_when_the_band_uses_nodata_0(tmp_path):
    # the reference minimum is corrected to exactly 0, the band's nodata value
    band = _w(tmp_path / "b.asc", [[5.0, 6.0, 9.0], [7.0, 8.0, 12.0]], nodata=0.0)
    ref = _w(tmp_path / "ref.asc", [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    out = tmp_path / "pre"
    assert main(["preprocess", band, "--reference", ref, "--out", str(out), "--quiet"]) == 0
    corrected = read_ascii_grid(out / "corrected_band1.asc")
    assert corrected.nodata_value == -9999.0
    assert corrected.values.tolist() == [[0.0, 1.0, 4.0], [2.0, 3.0, 7.0]]


def test_oif_with_two_bands_exits_2_before_reading(tmp_path, caplog):
    out = tmp_path / "oif"
    assert main(["oif", str(tmp_path / "nope1.asc"), str(tmp_path / "nope2.asc"), "--out", str(out), "--quiet"]) == 2
    assert "the band count must be at least 3 (OIF ranks band triples), got 2" in caplog.text
    assert not out.exists()


def _cli(args, cwd):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "landchange.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _main_in_process(args, capsys, caplog):
    """cli.main's exit code and error text for args, run in this process:
    argparse's errors raise SystemExit and print to stderr, the program's
    own are a return code and a logged message. An uncaught exception fails
    the calling test."""
    caplog.clear()
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err + caplog.text


def test_unreadable_grids_exit_3_without_traceback(tmp_path):
    res = _cli(["oif", "nope1.asc", "nope2.asc", "nope3.asc", "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert "nope1.asc: cannot read grid" in res.stderr
    assert "Traceback" not in res.stderr

    good = _w(tmp_path / "b1.asc", [[5.0, 6.0], [7.0, 8.0]])
    latin = tmp_path / "latin.asc"
    latin.write_bytes(Path(good).read_bytes().replace(b"5 6", b"5 \xe9"))
    res = _cli(["oif", good, good, str(latin), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 3
    assert "latin.asc: byte 0xe9" in res.stderr
    assert "Traceback" not in res.stderr

    args = ["classify", good, "--training", good, "--legend", "nope.csv", "--out", "o", "--quiet"]
    res = _cli(args, tmp_path)
    assert res.returncode == 3
    assert "nope.csv: cannot read legend" in res.stderr
    assert "Traceback" not in res.stderr

    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"\xff[maps]\n")
    res = _cli(["run", "--config", str(ini), "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 2
    assert "bad.ini: byte 0xff at offset 0 is not UTF-8" in res.stderr
    assert "Traceback" not in res.stderr


def test_negative_seed_exits_2_before_writing(tmp_path):
    # numpy's generators take no negative seed: without the check, run wrote
    # the markov, mce and predict files before failing with a traceback
    sc = tmp_path / "sc"
    assert main(["synth", "--rows", "16", "--cols", "16", "--out", str(sc), "--quiet"]) == 0
    ini = sc / "pipeline.ini"
    negative = tmp_path / "negative.ini"
    negative.write_text(ini.read_text().replace("seed = 0", "seed = -1"))
    cases = [
        (["run", "--config", str(ini), "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["markov", "--config", str(ini), "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["run", "--config", str(negative)], "run.seed must be >= 0, got -1"),
        (["synth", "--rows", "16", "--cols", "16", "--seed", "-1"], "seed must be non-negative, got -1"),
    ]
    for n, (args, message) in enumerate(cases):
        out = tmp_path / f"out{n}"
        out.mkdir()
        res = _cli([*args, "--out", str(out), "--quiet"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert message in res.stderr
        assert "Traceback" not in res.stderr
        assert not any(out.iterdir())


def test_bad_reference_mask(tmp_path):
    b1 = _w(tmp_path / "b1.asc", [[5.0, 6.0], [7.0, 8.0]])
    b2 = _w(tmp_path / "b2.asc", [[3.0, 4.0], [5.0, 9.0]])
    ref = _w(tmp_path / "ref.asc", [[2.0, 0.0], [0.0, 0.0]])
    # a bad value in a file is a data error
    assert main(["preprocess", b1, b2, "--reference", ref, "--out", str(tmp_path / "o"), "--quiet"]) == 3


def test_indices_and_change(tmp_path):
    red = _w(tmp_path / "red.asc", [[10.0, 20.0], [30.0, 40.0]])
    nir = _w(tmp_path / "nir.asc", [[50.0, 40.0], [30.0, 80.0]])
    swir = _w(tmp_path / "swir.asc", [[20.0, 10.0], [15.0, 25.0]])
    out = tmp_path / "idx"
    assert main(["indices", "--red", red, "--nir", nir, "--swir", swir, "--out", str(out), "--quiet"]) == 0
    for fn in ("ndvi.asc", "ndii.asc", "ndim.asc"):
        assert (out / fn).is_file(), fn

    d1 = _w(tmp_path / "d1.asc", [[0.1, 0.5, 0.9], [0.2, 0.6, 0.8]])
    d2 = _w(tmp_path / "d2.asc", [[0.9, 0.5, 0.1], [0.3, 0.7, 0.4]])
    d3 = _w(tmp_path / "d3.asc", [[0.5, 0.1, 0.9], [0.8, 0.2, 0.6]])
    out2 = tmp_path / "chg"
    assert main(["change", d1, d2, d3, "--ppm", "--out", str(out2), "--quiet"]) == 0
    for fn in ("levels_1.asc", "levels_2.asc", "levels_3.asc", "change_code.asc", "dynamics.asc", "dynamics_legend.csv", "grouping.csv", "change.ppm"):
        assert (out2 / fn).is_file(), fn

    # a date that does not line up with the others: nothing is written
    shifted = tmp_path / "d3_shifted.asc"
    write_ascii_grid(Grid(read_ascii_grid(d3).values, 30.0, x_origin=5000.0), shifted)
    out3 = tmp_path / "chg_shifted"
    assert main(["change", d1, d2, str(shifted), "--ppm", "--out", str(out3), "--quiet"]) == 3
    assert not out3.exists()


def test_change_keeps_low_vigour_cells_when_the_dates_use_nodata_0(tmp_path):
    rng = np.random.default_rng(5)
    dates = [_w(tmp_path / f"d{i}.asc", rng.uniform(0.01, 1.0, (4, 5)) * rng.choice([-1, 1], (4, 5)), nodata=0.0)
             for i in range(3)]
    out = tmp_path / "chg"
    assert main(["change", *dates, "--low", "-0.1", "--high", "0.1", "--out", str(out), "--quiet"]) == 0
    for name in ("levels_1.asc", "levels_2.asc", "levels_3.asc", "change_code.asc", "dynamics.asc"):
        got = read_ascii_grid(out / name)
        assert got.nodata_value == -9999.0, name
        assert got.valid.all(), name
    assert 0.0 in read_ascii_grid(out / "levels_1.asc").values


def _classify_inputs(tmp_path):
    left_right = lambda lo, hi, jitter: [
        [lo, lo + jitter, hi, hi + jitter],
        [lo + jitter, lo, hi + jitter, hi],
        [lo, lo + jitter, hi, hi + jitter],
    ]
    b1 = _w(tmp_path / "b1.asc", left_right(1.0, 10.0, 1.0))
    b2 = _w(tmp_path / "b2.asc", left_right(3.0, 20.0, 2.0))
    training = _w(
        tmp_path / "train.asc",
        [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]],
    )
    return [b1, b2, "--training", training]


def test_classify(tmp_path):
    out = tmp_path / "cls"
    code = main(["classify", *_classify_inputs(tmp_path), "--out", str(out), "--quiet"])
    assert code == 0
    for fn in ("signatures.csv", "classified_ml.asc", "classified_icm.asc", "classified_legend.csv"):
        assert (out / fn).is_file(), fn


def test_class_ids_that_do_not_fit_int64_are_refused_and_named_exactly(tmp_path, capsys, caplog):
    big = 10**19
    legend = tmp_path / "big.csv"
    legend.write_text(f"id,name\n0,a\n{big},b\n")
    *bands, _, training = _classify_inputs(tmp_path)
    huge = _w(tmp_path / "huge.asc", [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, float(big)]])
    sc = tmp_path / "sc"
    assert main(["synth", "--rows", "12", "--cols", "12", "--out", str(sc), "--quiet"]) == 0
    (sc / "legend.csv").write_text(f"id,name\n0,a\n1,b\n{big},c\n")
    refused = f"class ids must be integers from 0 to 65535, got {big}"
    cases = [
        (["classify", *bands, "--training", training, "--legend", str(legend)], f"{legend}:3: {refused}"),
        (["run", "--config", str(sc / "pipeline.ini")], f"{sc / 'legend.csv'}:4: {refused}"),
        # a derived legend names the stray value as it is, after the training map's path
        (["classify", *bands, "--training", huge], f"{huge}: {refused}"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, message in cases:
            code, err = _main_in_process([*args, "--out", str(tmp_path / "o"), "--quiet"], capsys, caplog)
            assert code == 3 and message in err, (args, err)


@pytest.mark.parametrize("case", ["classify 2**40", "legend", "transition", "model"])
def test_class_ids_above_65535_exit_3_naming_where_they_are_read(tmp_path, capsys, caplog, case):
    # 65535 is the largest class id; every reader refuses one above it
    out = tmp_path / "o"
    sc = tmp_path / "sc"
    ini = str(sc / "pipeline.ini")
    refused = "class ids must be integers from 0 to 65535, got "
    if case == "classify 2**40":
        legend = tmp_path / "legend.csv"
        legend.write_text(f"id,name\n0,a\n{2**40},b\n")
        halves = np.repeat([[0.0, 0.0, 1.0, 1.0]], 4, axis=0)
        bands = [_w(tmp_path / f"b{i}.asc", (i + 1) * (1.0 + 9.0 * halves) + 0.1 * np.arange(16).reshape(4, 4))
                 for i in range(2)]
        training = _w(tmp_path / "train.asc", np.where(halves == 1.0, float(2**40), 0.0))
        args = ["classify", *bands, "--training", training, "--legend", str(legend)]
        message = f"{legend}:3: {refused}{2**40}"
    else:
        model = "mlp" if case == "model" else "ca_markov"
        assert main(["synth", "--rows", "16", "--cols", "16", "--classes", "2", "--model", model,
                     "--seed", "7", "--out", str(sc), "--quiet"]) == 0
        if case == "legend":
            (sc / "legend.csv").write_text("id,name\n0,a\n1,b\n65536,c\n")
            args, message = ["run", "--config", ini], f"{sc / 'legend.csv'}:4: {refused}65536"
        elif case == "transition":
            for earlier in ("markov", "mce"):
                assert main([earlier, "--config", ini, "--out", str(out), "--quiet"]) == 0
            path = out / "transition_scaled.csv"
            text = path.read_text().replace("class,0,1\n", "class,0,65536\n").replace("\n1,", "\n65536,")
            assert text.count("65536") == 2
            path.write_text(text)
            args, message = ["predict", "--config", ini], f"{path}: {refused}65536"
        else:
            for earlier in ("markov", "mlp-train"):
                assert main([earlier, "--config", ini, "--out", str(out), "--quiet"]) == 0
            path = out / "mlp_model.txt"
            text = path.read_text()
            assert "\nclasses 0 1\n" in text
            path.write_text(text.replace("\nclasses 0 1\n", "\nclasses 0 65536\n"))
            args, message = ["mlp-predict", "--config", ini], f"{path}: {refused}65536"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main_in_process([*args, "--out", str(out), "--quiet"], capsys, caplog)
    assert code == 3 and message in err, err
    assert not list(out.glob("predicted_*.asc")) and not list(out.glob("classified_*.asc"))


def test_classify_keeps_class_0_when_the_bands_use_nodata_0(tmp_path):
    rng = np.random.default_rng(4)
    right = np.repeat([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]], 6, axis=0)
    b1 = _w(tmp_path / "b1.asc", 1.0 + 8.0 * right + rng.random((6, 6)), nodata=0.0)
    b2 = _w(tmp_path / "b2.asc", 2.0 + 16.0 * right + rng.random((6, 6)), nodata=0.0)
    training = _w(tmp_path / "train.asc", right)
    out = tmp_path / "cls"
    assert main(["classify", b1, b2, "--training", training, "--out", str(out), "--quiet"]) == 0
    for name in ("classified_ml.asc", "classified_icm.asc"):
        got = read_ascii_grid(out / name)
        assert got.nodata_value == -9999.0, name
        assert got.values.tolist() == right.tolist(), name


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_classify_rejects_non_finite_beta(tmp_path, beta):
    res = _cli(["classify", *_classify_inputs(tmp_path), "--beta", beta, "--out", "o", "--quiet"], tmp_path)
    assert res.returncode == 2
    assert f"--beta must be finite and non-negative, got {beta}" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_criteria_subcommand(tmp_path):
    mask = _w(tmp_path / "roads.asc", [[0.0, 1.0], [0.0, 0.0]])
    out = tmp_path / "crit"
    code = main(
        [
            "criteria",
            "--distance-to",
            mask,
            "--name",
            "roads",
            "--fuzzy",
            "linear,decreasing,0,60",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    assert (out / "roads.asc").is_file()
    assert (out / "roads_fuzzy.asc").is_file()

    dem = _w(tmp_path / "dem.asc", [[100.0, 200.0], [300.0, 400.0]])
    code = main(
        ["criteria", "--input", dem, "--name", "dem", "--constraint-min", "250",
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    assert (out / "dem_constraint.asc").is_file()

    assert main(["criteria", "--input", dem, "--fuzzy", "linear,up,0", "--out", str(out), "--quiet"]) == 2


def test_constraint_keeps_its_0_cells_when_the_input_uses_nodata_0(tmp_path):
    grid = _w(tmp_path / "g.asc", [[5.0, 3.0], [0.0, 4.0]], nodata=0.0)
    out = tmp_path / "crit"
    assert main(["criteria", "--input", grid, "--constraint-min", "4", "--out", str(out), "--quiet"]) == 0
    got = read_ascii_grid(out / "criterion_constraint.asc")
    assert got.nodata_value == -9999.0
    assert got.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_digit_groups_in_number_flags_exit_2_before_writing(tmp_path, monkeypatch, capsys, caplog):
    # int() and float() read "1_0" as 10; every number flag refuses it
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    cases = [
        ([name, action.option_strings[0], "1_0"], f"argument {action.option_strings[0]}: '_' in value '1_0'")
        for name, sub in commands.items()
        for action in sub._actions
        if action.type is not None
    ]
    assert len(cases) >= 25  # the enumeration found the flags
    grid = _w(tmp_path / "g.asc", [[1.0, 2.0], [3.0, 4.0]])
    cases += [
        (["criteria", "--input", grid, "--fuzzy", "linear,increasing,1_0,20"], "--fuzzy control points must be numbers"),
        (["criteria", "--input", grid, "--constraint-categories", "1,1_0"], "--constraint-categories: '_' in value '1_0'"),
    ]
    monkeypatch.chdir(tmp_path)
    for n, (args, message) in enumerate(cases):
        out = tmp_path / f"out{n}"
        code, err = _main_in_process([*args, "--out", str(out), "--quiet"], capsys, caplog)
        assert code == 2, (args, err)
        assert message in err, args
        assert not out.exists(), args


def test_change_thresholds_come_in_pairs_and_finite(tmp_path, monkeypatch, capsys, caplog):
    # the date grids do not exist: exit 2, not 3, shows no grid was read
    dates = ["d1.asc", "d2.asc", "d3.asc"]
    cases = [
        (["--low", "0.5"], "--low needs --high too"),
        (["--high", "0.5"], "--high needs --low too"),
        (["--low", "0.1", "--high", "nan"], "--high must be finite, got nan"),
        (["--low", "nan", "--high", "nan"], "--low must be finite, got nan"),
        (["--low=-inf", "--high", "1"], "--low must be finite, got -inf"),
        (["--low", "0.5", "--high", "0.1"], "--low must be at most --high (0.1), got 0.5"),
    ]
    monkeypatch.chdir(tmp_path)
    for n, (flags, message) in enumerate(cases):
        out = tmp_path / f"out{n}"
        code, err = _main_in_process(["change", *dates, *flags, "--out", str(out), "--quiet"], capsys, caplog)
        assert code == 2, (flags, err)
        assert message in err, flags
        assert not out.exists(), flags


def test_non_finite_number_flags_fail_before_writing(tmp_path, monkeypatch, capsys, caplog):
    grid = _w(tmp_path / "g.asc", [[1.0, 2.0], [3.0, 4.0]])
    cases = [
        (["synth", "--noise", "nan"], 2, "noise must be finite and non-negative, got nan"),
        (["synth", "--cell-size", "inf"], 2, "cell_size must be positive and finite, got inf"),
        (["criteria", "--input", grid, "--constraint-min", "nan"], 3, "constraint threshold must be finite, got nan"),
        (["criteria", "--distance-to", grid.replace("g.asc", "m.asc"), "--constraint-min=-inf"], 3,
         "constraint threshold must be finite, got -inf"),
    ]
    # range errors name the flag before any grid is read: the grids do not exist
    bands = ["b1.asc", "b2.asc"]
    cases += [
        (["indices", "--red", "r.asc", "--nir", "n.asc", "--swir", "s.asc", "--weight", w], 2,
         f"--weight must be in [0, 1], got {w}") for w in ("1.5", "-0.1", "nan")
    ]
    cases += [
        (["classify", *bands, "--training", "t.asc", "--sweeps", "0"], 2, "--sweeps must be at least 1, got 0"),
        (["classify", *bands, "--training", "t.asc", "--beta=-1"], 2, "--beta must be finite and non-negative, got -1.0"),
        (["preprocess", *bands, "--reference", "m.asc", "--percentile", "101"], 2,
         "--percentile must be in [0, 100], got 101.0"),
        (["preprocess", *bands, "--reference", "m.asc", "--percentile=-1"], 2,
         "--percentile must be in [0, 100], got -1.0"),
    ]
    # a missing input grid is a data error, met before --out is made
    cases += [
        (["preprocess", grid, "--reference", "nope.asc"], 3, "nope.asc: cannot read grid"),
        (["indices", "--red", grid, "--nir", grid, "--swir", "nope.asc"], 3, "nope.asc: cannot read grid"),
        (["change", grid, grid, "nope.asc"], 3, "nope.asc: cannot read grid"),
        (["classify", grid, "--training", "nope.asc"], 3, "nope.asc: cannot read grid"),
    ]
    _w(tmp_path / "m.asc", [[0.0, 1.0], [0.0, 0.0]])
    monkeypatch.chdir(tmp_path)
    for n, (args, want, message) in enumerate(cases):
        out = tmp_path / f"out{n}"
        code, err = _main_in_process([*args, "--out", str(out), "--quiet"], capsys, caplog)
        assert code == want, (args, err)
        assert message in err
        assert not out.exists(), args
