"""Check that a git revision's `src/` and the checkout's `src/` write the same bytes.

Usage: python tools/same_bytes.py REV

Runs one fixed matrix of landchange commands twice: once with REV's `src/`,
taken with `git archive`, and once with the checkout's `src/`. Every command
runs in a fresh process with PYTHONWARNINGS=error, and both trees read the
checkout's `scenario/` and copies of it. Every exit code and every output
file is compared byte for byte, `report.txt` without its `wall_clock` lines.
Every matrix command succeeds on working code, so a command that fails in
both trees is reported too. Prints each difference and exits 1 if there is
any.

`python tools/same_bytes.py HEAD` runs the checkout's code in two sets of
fresh processes: the determinism check. Against an older revision it is the
byte-identity check for a change that claims the same artifacts.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SYNTH_96x80 = "synth --rows 96 --cols 80 --classes 3 --seed 11"
BANDS = "{scenario}/prox0.asc {scenario}/prox1.asc {scenario}/prox2.asc"
DATES = "indices/ndvi.asc indices/ndii.asc indices/ndim.asc"
WATER = "criteria_categories/water_constraint.asc"


def classify(scenario: str) -> str:
    """`classify` of a 3-class scenario's prox grids, trained on its first map."""
    bands = " ".join(f"{scenario}/prox{c}.asc" for c in range(3))
    return f"classify {bands} --training {scenario}/map_1988.asc --legend {scenario}/legend.csv"


# Run in this order, each from its tree's output directory, so a command may
# read what an earlier one wrote. {scenario} is the checkout's scenario/,
# {kernel_k} a copy of it with `kernel = k`, {hand_formatted} a copy whose
# grids `hand_formatted` rewrote, {shifted_nodata_0} a copy that
# `shift_classes` gave class ids one higher and maps on NODATA_VALUE 0,
# {top_id} a copy whose class 2 `shift_classes` made 65535, the largest id,
# and {constrained_owa} a copy that `constrain_owa` made combine its factors
# by owa under a [constraints] mask.
MATRIX = (
    f"{SYNTH_96x80} --out synth_96x80",
    f"{SYNTH_96x80} --cell-size 2.2250738585072014e-308 --out synth_96x80_min_cell",
    f"{SYNTH_96x80} --cell-size 1e305 --out synth_96x80_1e305_cell",
    "synth --rows 512 --cols 512 --classes 3 --seed 97 --out synth_512",
    "run --config synth_512/pipeline.ini --out run_512",
    # an identity transition: no CA iteration allocates
    "synth --rows 64 --cols 70 --classes 3 --stay 1 --seed 5 --out synth_stay_1",
    "run --config synth_stay_1/pipeline.ini --out run_stay_1",
    # no noise: synth's picks tie at the quota's cut
    "synth --rows 64 --cols 70 --classes 3 --noise 0 --seed 5 --out synth_noise_0",
    "run --config synth_noise_0/pipeline.ini --out run_noise_0",
    # stay 0: each class's last pair takes every candidate left
    "synth --rows 64 --cols 70 --classes 3 --noise 0 --stay 0 --seed 5 --out synth_noise_0_stay_0",
    "run --config synth_noise_0_stay_0/pipeline.ini --out run_noise_0_stay_0",
    "synth --rows 256 --cols 256 --classes 2 --model mlp --seed 3 --out synth_mlp_256",
    "run --config synth_mlp_256/pipeline.ini --out run_mlp_256",
    "synth --rows 64 --cols 70 --classes 2 --model mlp --seed 7 --out synth_mlp",
    "run --config synth_mlp/pipeline.ini --out run_mlp",
    "synth --rows 64 --cols 70 --classes 2 --model both --seed 7 --out synth_both",
    "run --config synth_both/pipeline.ini --out run_both",
    *(
        f"{stage} --config synth_both/pipeline.ini --out stages_both"
        for stage in ("markov", "mce", "predict", "mlp-train", "mlp-predict", "validate")
    ),
    "synth --rows 64 --cols 70 --classes 2 --model both --maps 4 --seed 9 --out synth_both_4maps",
    "run --config synth_both_4maps/pipeline.ini --out run_both_4maps",
    "run --config {kernel_3}/pipeline.ini --out run_scenario_kernel_3",
    "run --config {scenario}/pipeline.ini --out run_scenario",
    "run --config {kernel_7}/pipeline.ini --out run_scenario_kernel_7",
    "run --config {hand_formatted}/pipeline.ini --out run_scenario_hand_formatted",
    "run --config {shifted_nodata_0}/pipeline.ini --out run_shifted_nodata_0",
    f"{classify('{scenario}')} --out classify",
    f"{classify('{shifted_nodata_0}')} --out classify_shifted_nodata_0",
    # the legend found in the training map's values
    f"{classify('{shifted_nodata_0}').split(' --legend ')[0]} --out classify_shifted_nodata_0_no_legend",
    "run --config {top_id}/pipeline.ini --out run_top_id",
    # owa with non-uniform order weights, every suitability gated by a mask
    "run --config {constrained_owa}/pipeline.ini --out run_constrained_owa",
    f"{classify('{top_id}')} --out classify_top_id",
    f"{classify('{top_id}').split(' --legend ')[0]} --out classify_top_id_no_legend",
    f"{classify('{scenario}')} --beta 0 --out classify_beta_0",
    # ICM flips pixels in its second sweep here; --sweeps 1 stops before it
    f"{classify('synth_96x80')} --beta 0.3 --out classify_96x80_beta_0.3",
    f"{classify('synth_96x80')} --sweeps 1 --out classify_96x80_sweeps_1",
    # 1,534 ICM fronts, flips in the second sweep, and fronts skipped from then on
    f"{classify('synth_512')} --out classify_512",
    "indices --red {scenario}/prox0.asc --nir {scenario}/prox1.asc --swir {scenario}/prox2.asc --out indices",
    f"change {DATES} --ppm --out change_ppm",
    f"change {DATES} --low -0.1 --high 0.1 --out change_fixed",
    "criteria --input {scenario}/map_1988.asc --name water --constraint-categories 2 --out criteria_categories",
    f"criteria --distance-to {WATER} --name near --fuzzy sigmoidal,decreasing,0,1500 --constraint-min 300 "
    "--out criteria_distance",
    "criteria --input {scenario}/prox0.asc --name prox0 --fuzzy j_shaped,symmetric,0,300,900,1500 --out criteria_fuzzy",
    f"oif {BANDS} {{scenario}}/map_1988.asc --out oif",
    f"oif {BANDS} {{scenario}}/map_1988.asc --mask {WATER} --out oif_mask",
    f"preprocess {BANDS} --reference {WATER} --percentile 5 --out preprocess",
)

# the console script's entry point, refusing any landchange but the tree's own
RUNNER = (
    "import os, sys; from landchange import cli; "
    "cli.__file__.startswith(os.environ['PYTHONPATH']) or sys.exit('imported ' + cli.__file__); "
    "sys.exit(cli.main())"
)


def hand_formatted(text: str) -> str:
    """A text grid, as the writer makes it, in the valid but odd form a
    person might type: CRLF line ends, tabs between values, a '+' on each
    row's unsigned first value and a blank line after the first data row."""
    lines = text.splitlines()
    body = []
    for line in lines[6:]:
        first, *rest = line.split(" ")
        body.append("\t".join([first if first.startswith("-") else "+" + first, *rest]))
    return "\r\n".join(lines[:6] + body[:1] + [""] + body[1:]) + "\r\n"


def shifted_map(text: str, ids: dict[int, int], nodata: int | None = None) -> str:
    """A class map with no nodata cells, as the writer makes it, with each
    class id c written as ids[c] (c itself if ids has no key c). With
    `nodata`, on that NODATA_VALUE and with its top-left 4 x 4 cells nodata."""
    lines = text.splitlines()
    header = lines[:6]
    rows = [[str(ids.get(int(t), int(t))) for t in line.split()] for line in lines[6:]]
    if nodata is not None:
        header = [f"NODATA_VALUE {nodata}" if line.upper().startswith("NODATA_VALUE") else line for line in header]
        for row in rows[:4]:
            row[:4] = [str(nodata)] * 4
    return "\n".join(header + [" ".join(row) for row in rows]) + "\n"


def shift_classes(scenario: Path, ids: dict[int, int], nodata: int | None = None) -> None:
    """Rewrite a copy of scenario/ in place: class id c becomes ids[c] (c
    itself if ids has no key c) in its maps (by `shifted_map`, with
    `nodata`), its legend and its [suitability] keys."""
    for grid in scenario.glob("map_*.asc"):
        grid.write_text(shifted_map(grid.read_text(encoding="ascii"), ids, nodata), encoding="ascii")
    new = lambda c: ids.get(int(c), int(c))
    legend = scenario / "legend.csv"
    head, *rows = legend.read_text().splitlines()
    legend.write_text("\n".join([head, *(f"{new(i)},{name}" for i, name in (r.split(",", 1) for r in rows))]) + "\n")
    ini = scenario / "pipeline.ini"
    section, lines = None, []
    for line in ini.read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[suitability]" and "=" in line:
            key, rest = line.split("=", 1)
            line = f"{new(key)} ={rest}"
        lines.append(line)
    ini.write_text("\n".join(lines) + "\n")


# order weights for the scenario's three factors a class, largest on the
# lowest-ranked factor
ORDER_WEIGHTS = "0.5,0.3,0.2"


def constrain_owa(scenario: Path) -> None:
    """Rewrite a copy of scenario/ in place: its [mce] combines by owa with
    ORDER_WEIGHTS, and a [constraints] mask, `not_class_2.asc`, 0 where
    map_1988.asc holds class 2 and 1 elsewhere, gates every suitability."""
    lines = (scenario / "map_1988.asc").read_text(encoding="ascii").splitlines()
    body = [" ".join("0" if t == "2" else "1" for t in line.split()) for line in lines[6:]]
    (scenario / "not_class_2.asc").write_text("\n".join(lines[:6] + body) + "\n", encoding="ascii")
    ini = scenario / "pipeline.ini"
    text = ini.read_text().replace("\nmethod = wlc\n", f"\nmethod = owa\norder_weights = {ORDER_WEIGHTS}\n")
    ini.write_text(text + "\n[constraints]\nnot_class_2 = not_class_2.asc\n")


def run_matrix(tree: Path, out: Path, inputs: dict[str, str]) -> dict[str, int]:
    """Run every matrix command with `tree` on the import path; its exit code by command."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree), "PYTHONWARNINGS": "error"}
    codes = {}
    for command in MATRIX:
        args = [token.format(**inputs) for token in command.split()]
        res = subprocess.run(
            [sys.executable, "-c", RUNNER, *args, "--quiet"],
            cwd=out, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        codes[command] = res.returncode
        if res.returncode:
            print(f"{out.name}: exit {res.returncode}: {command}\n  {res.stderr.strip()[-500:]}", file=sys.stderr)
    return codes


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "report.txt":
        data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"wall_clock"))
    return data


def compare(a: Path, b: Path, codes_a: dict[str, int], codes_b: dict[str, int]) -> list[str]:
    """Every difference between two runs of the matrix, as lines to print:
    exit codes that differ or are not 0, files on one side only, and files
    whose bytes differ (`report.txt` without its `wall_clock` lines)."""
    found = []
    for command in codes_a.keys() | codes_b.keys():
        code_a, code_b = codes_a.get(command), codes_b.get(command)
        if code_a != code_b or code_a != 0:
            found.append(f"exit codes {code_a} ({a.name}) and {code_b} ({b.name}): {command}")
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()} for side in (a, b)}
    for side, other in ((a, b), (b, a)):
        found += [f"only in {side.name}: {rel}" for rel in sorted(files[side] - files[other])]
    found += [f"bytes differ: {rel}" for rel in sorted(files[a] & files[b]) if _content(a / rel) != _content(b / rel)]
    return sorted(found)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/same_bytes.py REV", file=sys.stderr)
        return 2
    rev = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", "--verify", argv[0] + "^{commit}"],
        capture_output=True, text=True,
    ).stdout.strip()
    if not rev:
        print(f"same_bytes: {argv[0]!r} is not a revision", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        tar = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=tar, check=True)
        inputs = {"scenario": str(REPO / "scenario")}
        for k in (3, 7):
            copy = inputs[f"kernel_{k}"] = str(shutil.copytree(REPO / "scenario", tmp / f"kernel_{k}"))
            ini = Path(copy, "pipeline.ini")
            text = ini.read_text()
            if "\nkernel = 5\n" not in text:
                print(f"same_bytes: {ini} does not set kernel = 5", file=sys.stderr)
                return 2
            ini.write_text(text.replace("\nkernel = 5\n", f"\nkernel = {k}\n"))
        hand = inputs["hand_formatted"] = str(shutil.copytree(REPO / "scenario", tmp / "hand_formatted"))
        for grid in Path(hand).glob("*.asc"):
            grid.write_bytes(hand_formatted(grid.read_text(encoding="ascii")).encode("ascii"))
        shift_classes(shutil.copytree(REPO / "scenario", tmp / "shifted_nodata_0"), {0: 1, 1: 2, 2: 3}, nodata=0)
        inputs["shifted_nodata_0"] = str(tmp / "shifted_nodata_0")
        shift_classes(shutil.copytree(REPO / "scenario", tmp / "top_id"), {2: 65535})
        inputs["top_id"] = str(tmp / "top_id")
        if "\nmethod = wlc\n" not in (REPO / "scenario" / "pipeline.ini").read_text():
            print(f"same_bytes: {REPO / 'scenario' / 'pipeline.ini'} does not set method = wlc", file=sys.stderr)
            return 2
        constrain_owa(shutil.copytree(REPO / "scenario", tmp / "constrained_owa"))
        inputs["constrained_owa"] = str(tmp / "constrained_owa")
        codes_a = run_matrix(tmp / "src", tmp / rev, inputs)
        codes_b = run_matrix(REPO / "src", tmp / "checkout", inputs)
        found = compare(tmp / rev, tmp / "checkout", codes_a, codes_b)
        n_files = sum(1 for p in (tmp / "checkout").rglob("*") if p.is_file())
    for line in found:
        print(line)
    if found:
        print(f"same_bytes: {len(found)} differences between {rev} and the checkout")
        return 1
    print(f"same_bytes: {n_files} files and {len(MATRIX)} exit codes identical between {rev} and the checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
