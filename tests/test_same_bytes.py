"""The byte-identity check's comparison of two output trees and their exit codes,
and its hand-formatted copy of the shipped grids."""

import configparser
import importlib.util
import shutil
from pathlib import Path

import numpy as np

from landchange.grid import grids_equal, read_ascii_grid, read_legend

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", REPO / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

SYNTH = "synth --rows 16 --cols 16 --out sc"
RUN = "run --config sc/pipeline.ini --out run"
FILES = {
    "sc/map_1988.asc": b"ncols 2\nnrows 1\n0 1\n",
    "run/predicted_ca.asc": b"ncols 2\nnrows 1\n1 1\n",
    "run/report.txt": b"landchange run\r\nkappa 0.9\r\nwall_clock markov 0.120s\r\nwall_clock predict 0.300s\r\n",
}


def _compare(tmp_path, edits=None, codes_b=None):
    """Compare the tree FILES with a copy changed by `edits` (path -> bytes,
    None to delete); both ran SYNTH and RUN with exit 0 unless `codes_b`."""
    sides = []
    for name, files in (("a", FILES), ("b", {**FILES, **(edits or {})})):
        for rel, data in files.items():
            if data is not None:
                path = tmp_path / name / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
        sides.append(tmp_path / name)
    codes = {SYNTH: 0, RUN: 0}
    return same_bytes.compare(*sides, codes, codes_b or codes)


def test_identical_trees_give_no_difference(tmp_path):
    assert _compare(tmp_path) == []


def test_one_differing_byte_names_the_file(tmp_path):
    edits = {"run/predicted_ca.asc": b"ncols 2\nnrows 1\n1 0\n"}
    assert _compare(tmp_path, edits) == ["bytes differ: run/predicted_ca.asc"]


def test_report_wall_clock_lines_are_not_compared(tmp_path):
    report = FILES["run/report.txt"]
    assert _compare(tmp_path, {"run/report.txt": report.replace(b"0.120s", b"0.950s")}) == []
    no_clock = b"landchange run\r\nkappa 0.9\r\n"
    assert _compare(tmp_path / "dropped", {"run/report.txt": no_clock}) == []
    other = report.replace(b"kappa 0.9", b"kappa 0.8")
    assert _compare(tmp_path / "kappa", {"run/report.txt": other}) == ["bytes differ: run/report.txt"]


def test_a_file_on_one_side_only_is_named(tmp_path):
    assert _compare(tmp_path, {"run/extra.csv": b"x\r\n"}) == ["only in b: run/extra.csv"]
    assert _compare(tmp_path / "deleted", {"sc/map_1988.asc": None}) == ["only in a: sc/map_1988.asc"]


def test_a_differing_or_failing_exit_code_names_the_command(tmp_path):
    assert _compare(tmp_path, codes_b={SYNTH: 0, RUN: 3}) == [f"exit codes 0 (a) and 3 (b): {RUN}"]
    # every matrix command succeeds on working code, so failing alike is reported too
    both_fail = same_bytes.compare(tmp_path / "a", tmp_path / "b", {SYNTH: 1, RUN: 0}, {SYNTH: 1, RUN: 0})
    assert both_fail == [f"exit codes 1 (a) and 1 (b): {SYNTH}"]


def test_hand_formatted_grids_read_as_the_shipped_ones(tmp_path):
    for shipped in sorted((REPO / "scenario").glob("*.asc")):
        text = same_bytes.hand_formatted(shipped.read_text(encoding="ascii"))
        rows = text.split("\r\n")[6:]
        assert rows[1] == "" and rows[-1] == "" and "\n" not in text.replace("\r\n", "")
        assert all(row.startswith(("+", "-")) and "\t" in row and " " not in row for row in rows[:1] + rows[2:-1])
        hand = tmp_path / shipped.name
        hand.write_bytes(text.encode("ascii"))
        assert grids_equal(read_ascii_grid(hand), read_ascii_grid(shipped))


def _ini(scenario):
    cfg = configparser.ConfigParser()
    cfg.read(scenario / "pipeline.ini")
    return cfg


def _check_copy(shipped, copy, ids):
    """The legend, the [suitability] keys and the other sections of a
    `shift_classes` copy: ids renumbered by the map, nothing else changed."""
    new = lambda c: ids.get(c, c)
    assert read_legend(copy / "legend.csv") == {new(c): name for c, name in read_legend(shipped / "legend.csv").items()}
    old_ini, new_ini = _ini(shipped), _ini(copy)
    assert {new(int(k)): v for k, v in old_ini["suitability"].items()} == {
        int(k): v for k, v in new_ini["suitability"].items()
    }
    assert all(old_ini[s] == new_ini[s] for s in old_ini.sections() if s != "suitability")


def test_shifted_copy_has_every_class_id_one_higher_on_nodata_0(tmp_path):
    shipped = REPO / "scenario"
    copy = shutil.copytree(shipped, tmp_path / "sc")
    ids = {0: 1, 1: 2, 2: 3}
    same_bytes.shift_classes(copy, ids, nodata=0)
    _check_copy(shipped, copy, ids)
    hole = np.zeros((128, 128), dtype=bool)
    hole[:4, :4] = True
    for path in sorted(shipped.glob("map_*.asc")):
        old, new = read_ascii_grid(path), read_ascii_grid(copy / path.name)
        assert old.valid.all() and new.nodata_value == 0.0 and new.same_geometry(old)
        assert np.array_equal(new.valid, ~hole)
        assert np.array_equal(new.values[~hole], old.values[~hole] + 1)


def test_top_id_copy_has_class_2_as_65535_and_the_rest_unchanged(tmp_path):
    shipped = REPO / "scenario"
    copy = shutil.copytree(shipped, tmp_path / "sc")
    same_bytes.shift_classes(copy, {2: 65535})
    _check_copy(shipped, copy, {2: 65535})
    for path in sorted(shipped.glob("map_*.asc")):
        old, new = read_ascii_grid(path), read_ascii_grid(copy / path.name)
        assert old.valid.all() and new.valid.all() and new.nodata_value == old.nodata_value and new.same_geometry(old)
        assert np.array_equal(new.values, np.where(old.values == 2, 65535, old.values))
        assert (old.values == 2).any()
    for path in sorted(shipped.glob("*")):
        if not (path.name.startswith("map_") or path.name in ("legend.csv", "pipeline.ini")):
            assert (copy / path.name).read_bytes() == path.read_bytes(), path.name
