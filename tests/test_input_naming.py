"""A bad value in an input file is a data error that names the file.

`grid.naming` is the one rule that puts an input's path on an error in its
content. Each case here puts one bad value into one input of one command:
the command must exit 3, name that file exactly once, and end in no
traceback, with warnings turned into errors.

`grid.require_same_geometry` is the one rule for geometry: a grid that does
not match the others is named by its path on the command line, or by its
config key in the pipeline. `grid.require_same_classes` and
`grid.require_classes_cover` are the one rule for class sets: a class-keyed
file that a single stage reads is named by its path. The mutation harness
at the end rewrites every file argument of every single command, and every
[maps] and [criteria] file of `run`, in ten ways and checks that a data
error names the rewritten file.
"""

import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from landchange.cli import main
from landchange.errors import ConfigError, DataError, GeometryError
from landchange.grid import naming, read_ascii_grid, write_ascii_grid


def _main(args, capsys, caplog):
    """cli.main's exit code and error text for args, in this process and
    with warnings as errors. An uncaught exception fails the test."""
    caplog.clear()
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*args, "--quiet"])
    return code, capsys.readouterr().err + caplog.text


def _assert_named(code, err, path, message):
    assert code == 3, err
    assert err.count(str(path)) == 1, err
    assert f"{path}: {message}" in err, err
    assert "Traceback" not in err


def _put(path, value, cell=(0, 0)):
    """Write value into one cell of the grid file at path."""
    g = read_ascii_grid(path)
    values = g.values.copy()
    values[cell] = value
    write_ascii_grid(g.with_values(values), path)


def _nodata_95(path, value):
    """Put value into the first cell of the grid file at path, then set its
    NODATA_VALUE to 95, a byte."""
    _put(path, value)
    _edit(path, ("NODATA_VALUE -9999", "NODATA_VALUE 95"))


def _edit(path, *pairs):
    """Replace each (old, new) pair's text once in the text file at path."""
    text = path.read_text()
    for old, new in pairs:
        assert old in text, text
        text = text.replace(old, new, 1)
    path.write_text(text)


def _synth(out, *flags):
    """A 16x16 scenario of seed 3 at out: maps 1988, 1994 and 2000."""
    assert main(["synth", "--rows", "16", "--cols", "16", "--seed", "3", *flags, "--out", str(out), "--quiet"]) == 0
    return out


@pytest.fixture
def sc(tmp_path):
    """The 3-class scenario: legend 0, 1, 2."""
    return _synth(tmp_path / "sc")


def test_naming_puts_the_path_in_front_and_keeps_the_type():
    for err in (DataError("bad value"), GeometryError("bad value")):
        with pytest.raises(DataError) as exc:
            with naming("in/put.asc"):
                raise err
        assert type(exc.value) is type(err)
        assert str(exc.value) == "in/put.asc: bad value"
        assert exc.value.__suppress_context__
    with pytest.raises(ConfigError, match="^not a data error$"):
        with naming("in/put.asc"):
            raise ConfigError("not a data error")


def test_run_names_the_map_holding_a_class_missing_from_the_legend(sc, capsys, caplog):
    _put(sc / "map_1994.asc", 7.0)
    code, err = _main(["run", "--config", str(sc / "pipeline.ini"), "--out", str(sc / "o")], capsys, caplog)
    _assert_named(code, err, sc / "map_1994.asc", "map values [7] missing from legend [0, 1, 2]")


def test_run_without_a_legend_file_names_the_map_holding_a_value_that_is_no_class_id(sc, capsys, caplog):
    # the derived legend is the union of the maps' values; the error names
    # the map that holds the bad one, not the first map
    ini = sc / "pipeline.ini"
    ini.write_text(ini.read_text().replace("[legend]\nfile = legend.csv\n", ""))
    _put(sc / "map_2000.asc", 7.5)
    code, err = _main(["run", "--config", str(ini), "--out", str(sc / "o")], capsys, caplog)
    _assert_named(code, err, sc / "map_2000.asc", "class ids must be integers from 0 to 65535, got 7.5")


@pytest.mark.parametrize(
    "flags, stage, earlier, fname, edit, message",
    [
        ((), "predict", ("markov", "mce"), "suit_1.asc", lambda p: _put(p, 300.0),
         "{path}: suitability values must be integers in 0..255"),
        ((), "predict", ("markov", "mce"), "suit_1.asc", lambda p: _put(p, 2.5),
         "{path}: suitability values must be integers in 0..255"),
        # a NODATA_VALUE inside 0..255 keeps its cells nodata: one where the
        # map holds data is named by the file's path, and a value out of
        # range is still refused
        ((), "predict", ("markov", "mce"), "suit_0.asc", lambda p: _nodata_95(p, 95.0),
         "{path} is nodata at cell (row 0, col 0), where maps.1994 holds data"),
        ((), "predict", ("markov", "mce"), "suit_0.asc", lambda p: _nodata_95(p, 256.0),
         "{path}: suitability values must be integers in 0..255"),
        ((), "validate", ("markov", "mce", "predict"), "predicted_ca.asc", lambda p: _put(p, 7.0),
         "{path}: map values [7] missing from legend [0, 1, 2]"),
        # a class-keyed file is named by its path, the map it is held against by its config key
        ((), "predict", ("markov",), "transition_scaled.csv", lambda p: _edit(p, ("class,0,1,2", "class,0,1,3"), ("\n2,", "\n3,")),
         "{path} classes [0, 1, 3] do not match maps.1994 classes [0, 1, 2]"),
        (("--classes", "2", "--model", "mlp"), "mlp-predict", ("markov", "mlp-train"), "mlp_model.txt",
         lambda p: _edit(p, ("classes 0 1", "classes 0 2"), ("focal 1", "focal 2")),
         "{path} classes [0, 2] do not match maps.1994 classes [0, 1]"),
        (("--classes", "2", "--model", "mlp"), "mlp-predict", ("markov", "mlp-train"), "mlp_model.txt",
         lambda p: _edit(p, ("\nclasses 0 1\n", "\n"), ("\nfocal 1\n", "\n")),
         "{path}: model carries no feature spec (classes and focal lines)"),
    ],
    ids=["suit_1.asc", "suit_1.asc-half", "suit_0.asc-nodata-95", "suit_0.asc-256-on-nodata-95", "predicted_ca.asc", "transition_scaled.csv", "mlp_model.txt", "mlp_model.txt-no-spec"],
)
def test_single_stage_names_the_earlier_output_it_reads(tmp_path, capsys, caplog, flags, stage, earlier, fname, edit, message):
    sc = _synth(tmp_path / "sc", *flags)
    ini, out = str(sc / "pipeline.ini"), sc / "o"
    for name in earlier:
        assert main([name, "--config", ini, "--out", str(out), "--quiet"]) == 0
    edit(out / fname)
    code, err = _main([stage, "--config", ini, "--out", str(out)], capsys, caplog)
    assert code == 3, err
    assert err.count(str(out / fname)) == 1, err
    assert f"stage {stage}: {message.format(path=out / fname)}" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stage, earlier, fname, rewrite, geometry, held",
    [
        ("predict", ("markov", "mce"), "suit_1.asc", lambda g: replace(g, x_origin=1000.0),
         "(16, 16)/30.0 at lower-left corner (1000.0, 0.0)", "maps.1994"),
        ("validate", ("markov", "mce", "predict"), "predicted_ca.asc", lambda g: replace(g, values=g.values[[0, *range(16)]]),
         "(17, 16)/30.0 at lower-left corner (0.0, 0.0)", "maps.2000"),
    ],
    ids=["predict", "validate"],
)
def test_single_stage_names_an_earlier_output_off_the_maps_geometry(sc, capsys, caplog, stage, earlier, fname, rewrite, geometry, held):
    # the file is the one at fault, so it comes first; the map it is held
    # against is named by its config key
    ini, out = str(sc / "pipeline.ini"), sc / "o"
    for name in earlier:
        assert main([name, "--config", ini, "--out", str(out), "--quiet"]) == 0
    write_ascii_grid(rewrite(read_ascii_grid(out / fname)), out / fname)
    code, err = _main([stage, "--config", ini, "--out", str(out)], capsys, caplog)
    assert code == 3, err
    assert err.count(str(out / fname)) == 1, err
    assert (
        f"stage {stage}: {out / fname} geometry {geometry} does not match "
        f"{held} geometry (16, 16)/30.0 at lower-left corner (0.0, 0.0)"
    ) in err, err
    assert "Traceback" not in err


def test_change_names_the_all_nodata_date(sc, capsys, caplog):
    a = sc / "prox0.asc"
    b = sc / "blank.asc"
    g = read_ascii_grid(a)
    write_ascii_grid(g.with_values(np.full(g.shape, g.nodata_value)), b)
    out = sc / "o"
    code, err = _main(["change", str(a), str(b), str(a), "--out", str(out)], capsys, caplog)
    _assert_named(code, err, b, "cannot take thresholds of an all-nodata grid")
    assert not out.exists()


def test_distance_to_a_mask_without_targets_names_it(sc, capsys, caplog):
    empty = sc / "empty.asc"
    g = read_ascii_grid(sc / "prox0.asc")
    write_ascii_grid(g.with_values(np.zeros(g.shape)), empty)
    out = sc / "o"
    code, err = _main(["criteria", "--distance-to", str(empty), "--out", str(out)], capsys, caplog)
    _assert_named(code, err, empty, "distance transform needs at least one target cell")
    assert not out.exists()


def test_classify_names_the_training_map_of_a_class_with_too_few_pixels(sc, capsys, caplog):
    # three bands: a class needs at least 4 training pixels, class 1 has 2
    g = read_ascii_grid(sc / "map_1988.asc")
    training, out = sc / "training.asc", sc / "o"
    values = np.zeros(g.shape)
    values[0, :2] = 1.0
    write_ascii_grid(g.with_values(values), training)
    bands = [str(sc / f"prox{c}.asc") for c in range(3)]
    code, err = _main(["classify", *bands, "--training", str(training), "--out", str(out)], capsys, caplog)
    _assert_named(code, err, training, "class 1 ('class 1') has 2 training pixels, needs at least 4")
    assert not out.exists()


@pytest.mark.parametrize("command", ["oif", "oif --mask", "preprocess"])
def test_bands_sharing_fewer_than_two_valid_pixels_are_named_by_their_files(sc, capsys, caplog, command):
    # the bands' correlation needs 2 pixels where both hold data: here the
    # first band holds data in the top half alone and the second in the
    # bottom half alone, or a mask selects one cell
    g = read_ascii_grid(sc / "prox0.asc")
    first, second, mask, out = sc / "first.asc", sc / "second.asc", sc / "mask.asc", sc / "o"
    top, bottom = g.values.copy(), g.values.copy()
    if command == "oif --mask":
        selected = np.zeros(g.shape)
        selected[0, 0] = 1.0
    else:
        top[8:] = bottom[:8] = g.nodata_value
        selected = np.ones(g.shape)
    write_ascii_grid(g.with_values(top), first)
    write_ascii_grid(g.with_values(bottom), second)
    write_ascii_grid(g.with_values(selected), mask)
    bands = [str(first), str(second), str(sc / "prox2.asc")]
    args = {
        "oif": ["oif", *bands],
        "oif --mask": ["oif", *bands, "--mask", str(mask)],
        "preprocess": ["preprocess", *bands, "--reference", str(mask)],
    }[command]
    code, err = _main([*args, "--out", str(out)], capsys, caplog)
    under = f" under --mask {mask}" if command == "oif --mask" else ""
    assert code == 3, err
    assert err.count(str(first)) == err.count(str(second)) == 1, err
    assert f"{first} and {second} share fewer than 2 valid pixels{under}" in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["preprocess --reference", "oif --mask", "criteria --distance-to", "[constraints]"])
def test_a_class_map_given_as_a_mask_is_a_data_error_naming_it(sc, capsys, caplog, where):
    # map_1988.asc holds classes 0, 1 and 2: not a 0/1 mask
    bad, out = sc / "map_1988.asc", sc / "o"
    bands = [str(sc / f"prox{c}.asc") for c in range(3)]
    args = {
        "preprocess --reference": ["preprocess", *bands, "--reference", str(bad)],
        "oif --mask": ["oif", *bands, "--mask", str(bad)],
        "criteria --distance-to": ["criteria", "--distance-to", str(bad)],
    }.get(where)
    if args is None:
        ini = sc / "pipeline.ini"
        ini.write_text(ini.read_text() + "\n[constraints]\nbad = map_1988.asc\n")
        args = ["run", "--config", str(ini)]
    code, err = _main([*args, "--out", str(out)], capsys, caplog)
    _assert_named(code, err, bad, "mask values must all be 0 or 1")
    assert not list(out.glob("suit_*.asc")) if where == "[constraints]" else not out.exists()


# ---------------------------------------------------------------------------
# the mutation harness: every file argument of every single command, each
# rewritten in ten ways. A run may succeed or be refused, but never with a
# traceback, and a data error must name the rewritten file.


# role -> how its file is made from the 16x16 scenario
_ROLES = {
    **{role: "prox0" for role in ("b1", "red", "d1", "layer")},
    **{role: "prox1" for role in ("b2", "nir", "d2")},
    **{role: "prox2" for role in ("b3", "swir", "d3")},
    "training": "map_1988",
    "ref": "class 0 of map_1988",
    "mask": "class 0 of map_1988",
    "targets": "class 1 of map_1988",
}

# each command with its file arguments written as roles
_FUZZY = ["--fuzzy", "linear,decreasing,0,300"]
_COMMANDS = {
    "preprocess": ["preprocess", "b1", "b2", "b3", "--reference", "ref"],
    "oif": ["oif", "b1", "b2", "b3", "--mask", "mask"],
    "indices": ["indices", "--red", "red", "--nir", "nir", "--swir", "swir"],
    "change": ["change", "d1", "d2", "d3"],
    "classify": ["classify", "b1", "b2", "b3", "--training", "training"],
    "criteria-distance": ["criteria", "--distance-to", "targets", *_FUZZY],
    "criteria-input": ["criteria", "--input", "layer", *_FUZZY, "--constraint-min", "100"],
}


def _first(g):
    return g.values[g.valid][0]


def _cell_set(g, value):
    values = g.values.copy()
    values[0, 0] = value
    return g.with_values(values)


# the ten rewrites of one input
_MUTATIONS = {
    "row-short": lambda g: replace(g, values=g.values[:-1]),
    "column-narrow": lambda g: replace(g, values=g.values[:, :-1]),
    "xllcorner": lambda g: replace(g, x_origin=g.x_origin + 1000.0),
    "cellsize": lambda g: replace(g, cell_size=2 * g.cell_size),
    "all-nodata": lambda g: g.with_values(np.full(g.shape, g.nodata_value)),
    "one-nodata": lambda g: _cell_set(g, g.nodata_value),
    "constant": lambda g: g.with_values(np.full(g.shape, _first(g))),
    "one-cell": lambda g: replace(g, values=g.values[:1, :1]),
    "nodata-in-data": lambda g: replace(g, nodata_value=_first(g)),
    "half": lambda g: _cell_set(g, np.floor(g.values[0, 0]) + 0.5),
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    sc = tmp_path_factory.mktemp("harness") / "sc"
    assert main(["synth", "--rows", "16", "--cols", "16", "--seed", "3", "--out", str(sc), "--quiet"]) == 0
    grids = {name: read_ascii_grid(sc / f"{name}.asc") for name in ("prox0", "prox1", "prox2", "map_1988")}
    classes = grids["map_1988"]
    for c in (0, 1):
        grids[f"class {c} of map_1988"] = classes.with_values(np.where(classes.values == c, 1.0, 0.0))
    return {role: grids[name] for role, name in _ROLES.items()}


@pytest.mark.parametrize("how", list(_MUTATIONS))
@pytest.mark.parametrize(
    "command, role",
    [(command, arg) for command, argv in _COMMANDS.items() for arg in argv if arg in _ROLES],
)
def test_a_rewritten_input_is_run_or_refused_naming_it(tmp_path, sources, capsys, caplog, command, role, how):
    argv = _COMMANDS[command]
    for arg in argv:
        if arg in _ROLES:
            g = _MUTATIONS[how](sources[arg]) if arg == role else sources[arg]
            write_ascii_grid(g, tmp_path / f"{arg}.asc")
    path, out = tmp_path / f"{role}.asc", tmp_path / "o"
    code, err = _main([str(tmp_path / f"{a}.asc") if a in _ROLES else a for a in argv] + ["--out", str(out)], capsys, caplog)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 3:
        assert err.count(str(path)) == 1, err
    if code:
        assert not out.exists()


# the same ten rewrites of each [maps] and [criteria] file of a full run:
# a refused run names the rewritten file by its config key or its path

_RUN_INPUTS = {f"maps.{year}": f"map_{year}.asc" for year in (1988, 1994, 2000)} | {
    f"criteria.prox{c}": f"prox{c}.asc" for c in range(3)
}


@pytest.fixture(scope="module")
def run_scenario(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("run_harness") / "sc")


@pytest.mark.parametrize("how", list(_MUTATIONS))
@pytest.mark.parametrize("key", list(_RUN_INPUTS))
def test_a_rewritten_run_input_is_run_or_refused_naming_it(tmp_path, run_scenario, capsys, caplog, key, how):
    sc = shutil.copytree(run_scenario, tmp_path / "sc")
    path = sc / _RUN_INPUTS[key]
    write_ascii_grid(_MUTATIONS[how](read_ascii_grid(path)), path)
    code, err = _main(["run", "--config", str(sc / "pipeline.ini"), "--out", str(tmp_path / "o")], capsys, caplog)
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code:
        assert key in err or str(path) in err, err
