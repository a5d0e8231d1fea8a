"""INI config loading and validation."""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landchange.config import PipelineConfig, load_config, validate_config
from landchange.errors import ConfigError, LandchangeError
from landchange.grid import Grid, write_ascii_grid, write_legend

BASE = """\
[run]
seed = 3

[maps]
2000 = a.asc
2010 = b.asc
"""

CRIT = """\
[criteria]
slope = c.asc

[fuzzy.slope]
shape = linear
direction = decreasing
a = 0
b = 10
"""


def _write(tmp_path, text, name="pipe.ini", grids=("a.asc", "b.asc", "c.asc")):
    g = Grid(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    for fn in grids:
        write_ascii_grid(g, tmp_path / fn)
    p = tmp_path / name
    p.write_text(text, encoding="ascii")
    return p


def test_minimal_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    assert cfg.seed == 3
    assert cfg.model == "ca_markov"
    assert cfg.years == (2000, 2010)
    assert cfg.out_dir == tmp_path / "out"
    assert cfg.legend_path is None
    assert cfg.criteria == {}
    assert cfg.mce_method == "wlc"
    assert cfg.order_weights is None
    assert cfg.iterations == 5 and cfg.kernel == 5
    assert cfg.mlp_hidden == 8 and cfg.mlp_epochs == 300
    assert cfg.mlp_focal is None


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(_write(tmp_path, BASE + "\n[frobnicate]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, "[run]\nseed = 1\nbogus = 2\n\n[maps]\n2000 = a.asc\n2010 = b.asc\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, BASE + CRIT + "frills = 1\n"))


def test_maps_validation(tmp_path):
    with pytest.raises(ConfigError, match="at least two"):
        load_config(_write(tmp_path, "[maps]\n2000 = a.asc\n"))
    with pytest.raises(ConfigError, match="missing \\[maps\\]"):
        load_config(_write(tmp_path, "[run]\nseed = 1\n"))
    with pytest.raises(ConfigError, match="years"):
        load_config(_write(tmp_path, "[maps]\nfirst = a.asc\nsecond = b.asc\n"))
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(_write(tmp_path, "[maps]\n2010 = a.asc\n2000 = b.asc\n"))
    with pytest.raises(ConfigError, match="file not found"):
        load_config(_write(tmp_path, "[maps]\n2000 = a.asc\n2010 = gone.asc\n"))


def test_out_dir_resolution(tmp_path):
    ini = _write(tmp_path, BASE + "\n")
    assert load_config(ini).out_dir == tmp_path / "out"
    ini2 = _write(tmp_path, "[run]\nout_dir = results\n\n[maps]\n2000 = a.asc\n2010 = b.asc\n", name="p2.ini")
    assert load_config(ini2).out_dir == tmp_path / "results"
    # an explicit out_dir argument is caller-relative, not config-relative
    from pathlib import Path

    assert load_config(ini, out_dir="elsewhere").out_dir == Path("elsewhere")


def test_seed_override(tmp_path):
    ini = _write(tmp_path, BASE)
    assert load_config(ini, seed=42).seed == 42
    assert load_config(ini, seed=0).seed == 0


def test_negative_seed_is_a_config_error(tmp_path):
    # numpy's generators take no negative seed; the allocation stage would
    # fail only after the earlier stages had written their files
    with pytest.raises(ConfigError, match=r"run\.seed must be >= 0, got -1"):
        load_config(_write(tmp_path, BASE.replace("seed = 3", "seed = -1")))
    with pytest.raises(ConfigError, match="--seed must be >= 0, got -2"):
        load_config(_write(tmp_path, BASE), seed=-2)


def test_integer_keys_read_integers_too_large_for_a_float(tmp_path):
    # only float keys are checked for finiteness; a float check on this int overflows
    big = "1" + "0" * 400
    assert load_config(_write(tmp_path, BASE.replace("seed = 3", f"seed = {big}"))).seed == int(big)


def test_digit_group_underscores_are_not_numbers(tmp_path):
    # int() and float() read "1_0" as 10
    cases = [
        (BASE.replace("seed = 3", "seed = 1_0"), r"run\.seed must be an integer, got '1_0'"),
        (BASE + "\n[predict]\niterations = 1_0\n", r"predict\.iterations must be an integer, got '1_0'"),
        (BASE + CRIT.replace("b = 10", "b = 1_0"), r"fuzzy\.slope\.b must be a number, got '1_0'"),
        (BASE.replace("2010 = b.asc", "2_010 = b.asc"), "maps keys must be years, got '2_010'"),
        (BASE + "\n[mce]\nmethod = owa\norder_weights = 0_5,0.5\n", "mce.order_weights must be comma-separated"),
        (BASE + CRIT + "\n[suitability]\n1_0 = slope\n", "suitability keys must be class ids, got '1_0'"),
    ]
    for text, message in cases:
        with pytest.raises(ConfigError, match=message):
            load_config(_write(tmp_path, text))


def test_run_validation(tmp_path):
    with pytest.raises(ConfigError, match="run.model"):
        load_config(_write(tmp_path, "[run]\nmodel = cellular\n\n[maps]\n2000 = a.asc\n2010 = b.asc\n"))
    with pytest.raises(ConfigError, match="integer"):
        load_config(_write(tmp_path, "[run]\nseed = many\n\n[maps]\n2000 = a.asc\n2010 = b.asc\n"))


def test_fuzzy_validation(tmp_path):
    with pytest.raises(ConfigError, match="unknown criterion"):
        load_config(_write(tmp_path, BASE + "[fuzzy.slope]\na = 0\nb = 1\n"))
    bad = BASE + CRIT.replace("b = 10", "b = 0")  # a == b
    with pytest.raises(ConfigError, match=r"\[fuzzy.slope\]"):
        load_config(_write(tmp_path, bad))
    cfg = load_config(_write(tmp_path, BASE + CRIT))
    assert cfg.fuzzy["slope"].direction == "decreasing"


def test_mce_validation(tmp_path):
    with pytest.raises(ConfigError, match="mce.method"):
        load_config(_write(tmp_path, BASE + "[mce]\nmethod = borda\n"))
    with pytest.raises(ConfigError, match="order_weights"):
        load_config(_write(tmp_path, BASE + "[mce]\nmethod = owa\n"))
    with pytest.raises(ConfigError, match="comma-separated"):
        load_config(_write(tmp_path, BASE + "[mce]\nmethod = owa\norder_weights = a,b\n"))
    cfg = load_config(_write(tmp_path, BASE + "[mce]\nmethod = owa\norder_weights = 0.5,0.5\n"))
    assert cfg.order_weights == (0.5, 0.5)


def test_suitability_validation(tmp_path):
    with pytest.raises(ConfigError, match="class ids"):
        load_config(_write(tmp_path, BASE + CRIT + "\n[suitability]\nurban = slope\n"))
    with pytest.raises(ConfigError, match="unknown criterion"):
        load_config(_write(tmp_path, BASE + CRIT + "\n[suitability]\n0 = roads\n"))
    two_crit = BASE + CRIT.replace("slope = c.asc", "slope = c.asc\naspect = c.asc")
    with pytest.raises(ConfigError, match="no \\[fuzzy"):
        load_config(_write(tmp_path, two_crit + "\n[suitability]\n0 = aspect\n"))
    with pytest.raises(ConfigError, match="lists no criteria"):
        load_config(_write(tmp_path, BASE + CRIT + "\n[suitability]\n0 = ,\n"))
    cfg = load_config(_write(tmp_path, BASE + CRIT + "\n[suitability]\n0 = slope\n"))
    assert cfg.suitability == {0: ("slope",)}
    # one factor per rank of the comparison matrix, for every class
    (tmp_path / "s.csv").write_text("1,3\n1/3,1\n", encoding="ascii")
    two = BASE + CRIT + "\n[mce]\nsaaty = s.csv\n\n[suitability]\n0 = slope,slope\n1 = {}\n"
    with pytest.raises(ConfigError, match=r"suitability\.1 lists 1 factors, but mce\.saaty ranks 2$"):
        load_config(_write(tmp_path, two.format("slope")))
    assert load_config(_write(tmp_path, two.format("slope,slope"))).suitability[1] == ("slope", "slope")


def test_predict_validation(tmp_path):
    with pytest.raises(ConfigError, match="odd"):
        load_config(_write(tmp_path, BASE + "[predict]\nkernel = 4\n"))
    with pytest.raises(ConfigError, match=">= 1"):
        load_config(_write(tmp_path, BASE + "[predict]\niterations = 0\n"))
    cfg = load_config(_write(tmp_path, BASE + "[predict]\niterations = 2\nkernel = 3\n"))
    assert (cfg.iterations, cfg.kernel) == (2, 3)


def test_mlp_section(tmp_path):
    text = BASE.replace("seed = 3", "seed = 3\nmodel = mlp")
    text += "[mlp]\nhidden = 4\nlearning_rate = 0.1\nepochs = 50\nfocal_class = 1\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.mlp_hidden == 4
    assert cfg.mlp_learning_rate == 0.1
    assert cfg.mlp_epochs == 50
    assert cfg.mlp_focal == 1
    zero = load_config(_write(tmp_path, text.replace("focal_class = 1", "focal_class = 0"), name="zero.ini"))
    assert zero.mlp_focal == 0


MLP = BASE.replace("seed = 3", "seed = 3\nmodel = mlp") + "[mlp]\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize(
    "text, key",
    [
        (BASE + CRIT.replace("a = 0", "a = {}"), "fuzzy.slope.a"),
        (BASE + CRIT.replace("b = 10", "b = {}"), "fuzzy.slope.b"),
        (BASE + CRIT.replace("decreasing", "symmetric") + "c = {}\nd = 20\n", "fuzzy.slope.c"),
        (BASE + CRIT.replace("decreasing", "symmetric") + "c = 15\nd = {}\n", "fuzzy.slope.d"),
        (MLP + "learning_rate = {}\n", "mlp.learning_rate"),
        (BASE + "[mce]\nmethod = owa\norder_weights = 0.5,{}\n", "mce.order_weights"),
    ],
)
def test_float_keys_reject_non_finite(tmp_path, text, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite, got '[^']*{value}'"):
        load_config(_write(tmp_path, text.format(value)))


OWA = BASE + CRIT + "\n[mce]\nmethod = owa\norder_weights = {}\n\n[suitability]\n0 = slope,slope,slope\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (OWA.format("0.5,0.5"), r"mce\.order_weights: suitability\.0 has 3 factors but 2 order weights"),
        (OWA.format("0.5,0.3,0.3"), r"mce\.order_weights must be non-negative and sum to 1, got '0\.5,0\.3,0\.3'"),
        (OWA.format("1.5,-0.25,-0.25"), r"mce\.order_weights must be non-negative and sum to 1"),
        (MLP + "learning_rate = -0.1\n", r"mlp\.learning_rate must be >= 0\.0, got -0\.1"),
        (MLP + "focal_class = -1\n", r"mlp\.focal_class must be >= 0, got -1"),
        (BASE + "[mce]\norder_weights = 0.5,0.5\n", r"mce\.order_weights applies to mce\.method owa only, but the method is wlc"),
    ],
)
def test_settings_out_of_range_name_the_key(tmp_path, text, message):
    # caught at load, before any stage writes a file
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, text))
    good = OWA.format("0.5,0.25,0.25") if "owa" in text else MLP + "learning_rate = 0\n"
    load_config(_write(tmp_path, good))


def test_echo_uses_basenames(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    g = Grid(np.array([[0.0, 1.0]]), 1.0)
    for fn in ("a.asc", "b.asc", "c.asc", "k.asc"):
        write_ascii_grid(g, sub / fn)
    write_legend({0: "a", 1: "b"}, sub / "legend.csv")
    text = (
        "[run]\nseed = 1\n\n[maps]\n2000 = data/a.asc\n2010 = data/b.asc\n\n"
        "[legend]\nfile = data/legend.csv\n\n"
        "[criteria]\nslope = data/c.asc\n\n[constraints]\nmask = data/k.asc\n\n"
        "[fuzzy.slope]\na = 0\nb = 9\n"
    )
    cfg = load_config(_write(tmp_path, text, grids=()))
    rows = dict(cfg.echo())
    assert rows["maps.2000"] == "a.asc"
    assert rows["legend.file"] == "legend.csv"
    assert rows["criteria.slope"] == "c.asc"
    assert rows["constraints.mask"] == "k.asc"
    assert rows["fuzzy.slope"] == "linear increasing 0.0 9.0"
    assert not any(k.startswith("mlp.") for k in rows)  # ca_markov run

    mlp_cfg = load_config(_write(tmp_path, BASE.replace("seed = 3", "seed = 3\nmodel = both"), name="m.ini"))
    mrows = dict(mlp_cfg.echo())
    assert mrows["mlp.focal_class"] == "(highest id)"
    assert mrows["legend.file"] == "(derived)"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")
    p = tmp_path / "broken.ini"
    p.write_text("seed = 1\n", encoding="ascii")  # key before any section header
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_bytes(b"\xff[maps]\n")
    with pytest.raises(ConfigError, match=r"broken\.ini: byte 0xff at offset 0 is not UTF-8"):
        load_config(p)


SCENARIO = Path(__file__).resolve().parent.parent / "scenario"
_SCENARIO_LINES = (SCENARIO / "pipeline.ini").read_text(encoding="utf-8").splitlines()
_RISKY_LINES = st.sampled_from(
    ["[run]", "[maps]", "[predict]", "[mlp]", "[fuzzy.prox0]", "[fuzzy.nope]", "[DEFAULT]", "[frobnicate]", "[run",
     "model = both", "model = x", "seed = -1", "seed = 1e3", "2010 = map_2000.asc", "1990 = gone.asc", "year = a.asc",
     "prox0 = prox0.asc", "a = nan", "b = inf", "shape = cubic", "iterations = 0", "kernel = 4", "epochs = 1_0",
     "seed = 1_0", "iterations = 1_0", "a = 0_5", "2_010 = map_2000.asc", "3_0 = prox0",
     "learning_rate = 1e400", "order_weights = 1,x", "method = owa", "0 = prox0", "x = prox0", "file = legend.csv",
     "out_dir = \x00", "  indented = 1", "novalue", "= 1", "%(x)s = 1", ""]
)


@pytest.fixture(scope="module")
def scenario_copy(tmp_path_factory):
    """The shipped scenario's inputs in a directory the test may write configs to."""
    d = tmp_path_factory.mktemp("scenario")
    for f in SCENARIO.iterdir():
        if f.is_file():
            shutil.copy(f, d / f.name)
    return d


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just(_SCENARIO_LINES), st.lists(_RISKY_LINES, max_size=4), st.integers(0, 60)).map(
        lambda t: "\n".join(t[0][: t[2]] + t[1] + t[0][t[2] :])
    ),
    st.lists(st.sampled_from(_SCENARIO_LINES), max_size=30).map("\n".join),
    st.text(max_size=200),
))
@example("\n".join(_SCENARIO_LINES).replace("iterations = 4", "iterations = 1_0"))
@example("\n".join(_SCENARIO_LINES).replace("[suitability]", "[suitability]\n3_0 = prox0"))
def test_config_loader_gives_a_config_or_a_landchange_error(scenario_copy, text):
    p = scenario_copy / "any.ini"
    p.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        cfg = load_config(p, out_dir=scenario_copy / "out")
    except LandchangeError as exc:
        assert str(p) in str(exc)
        return
    assert isinstance(cfg, PipelineConfig)
    years = [y for y, _ in cfg.maps]
    assert len(years) >= 2 and years == sorted(set(years))
    assert all(Path(path).is_file() for _, path in cfg.maps)
    assert cfg.iterations >= 1 and cfg.kernel >= 3 and cfg.kernel % 2 == 1
    assert cfg.seed >= 0
    # every number was written in plain digits: int() and float() read "1_0" as 10
    assert all(re.search(rf"^\s*{k}\s*=", text, re.M) for k in [*years, *cfg.suitability])
    assert not re.search(r"=\s*[-+]?[\d.]*\d_\d", text)
