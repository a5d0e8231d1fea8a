"""The byte-identity check's comparison of two output trees and their exit codes."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
)
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
