"""Command-line entry point.

One subcommand per pipeline stage plus the synthetic-scenario generator.
Stage subcommands share a config file and an output directory. A stage
takes an earlier stage's output by its file name: a stage subcommand reads
it from the output directory, while `run` hands it forward in memory and
never reads it back. `run` writes the same files, so it equals the chained
stages byte for byte.

Exit codes: 0 success, 2 configuration error, 3 input data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import estimate_signatures, icm, maxlike, write_signatures_csv
from .config import MODELS, load_config
from .criteria import FuzzySpec, distance_transform, fuzzy_standardize, make_constraint
from .errors import ConfigError, DataError, LandchangeError, NumericalError
from .grid import (
    BinaryMask,
    LandCoverMap,
    MultiBandImage,
    export_ppm,
    joint_valid,
    load_legend,
    naming,
    parse_number,
    read_ascii_grid,
    read_mask,
    require_same_geometry,
    write_ascii_grid,
    write_legend,
)
from .indices import (
    change_composite,
    group_dynamics,
    ndim,
    ndvi,
    ndii,
    ternarize,
    ternary_thresholds,
    write_grouping_csv,
)
from .pipeline import run_pipeline, run_stage
from .preprocess import (
    BandStats,
    SharedPixelsError,
    band_statistics,
    dark_object_values,
    dos_correct,
    oif_rank,
    write_band_stats_csv,
    write_correlation_csv,
    write_dark_values_csv,
    write_oif_csv,
)
from .synth import SynthSpec, drift_matrix, generate_synthetic_landscape, write_scenario

log = logging.getLogger("landchange")


def _outdir(args) -> Path:
    """Make --out. Commands call it once every output is computed, so a
    command that fails makes no --out."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_image(paths, labels: str | None = None) -> MultiBandImage:
    """The band grids as one image, labelled by the comma-separated names
    of --labels or band1, band2, ...; the names are checked first, and the
    bands' geometry by their paths."""
    names = [t.strip() for t in labels.split(",")] if labels else [f"band{i + 1}" for i in range(len(paths))]
    if len(names) != len(paths):
        raise ConfigError(f"--labels names {len(names)} bands but {len(paths)} were given")
    bands = [read_ascii_grid(p) for p in paths]
    require_same_geometry(*zip(paths, bands))
    return MultiBandImage(tuple(bands), tuple(names))


def _require_valid_bands(paths, image: MultiBandImage, sel=True, under: str = "") -> None:
    """A band with no valid pixel where `sel` holds is a data error naming
    its file, and with `under` the mask file that selects."""
    for path, band in zip(paths, image.bands):
        if not np.any(band.valid & sel):
            raise DataError(f"{path}: no valid pixels{under}")


def _band_statistics(paths, image: MultiBandImage, mask: BinaryMask | None = None, under: str = "") -> BandStats:
    """band_statistics, where two bands that share fewer than 2 valid
    pixels are a data error naming both files, and with `under` the mask
    file that selects."""
    try:
        return band_statistics(image, mask)
    except SharedPixelsError as e:
        i, j = e.pair
        raise DataError(f"{paths[i]} and {paths[j]} share fewer than 2 valid pixels{under}") from None


def _check_flag(ok: bool, flag: str, rule: str, value) -> None:
    """A numeric flag out of its range is a configuration error that names
    it; commands check their flags before reading a grid or making --out."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value}")


# ---------------------------------------------------------------------------
# classification-side subcommands


def cmd_preprocess(args) -> int:
    _check_flag(0 <= args.percentile <= 100, "--percentile", "in [0, 100]", args.percentile)
    image = _read_image(args.bands, args.labels)
    reference = read_mask(args.reference)
    require_same_geometry((args.bands[0], image.geometry), (args.reference, reference))
    _require_valid_bands(args.bands, image, reference.selected, f" under --reference {args.reference}")
    dark = dark_object_values(image, reference, args.percentile)
    corrected = dos_correct(image, dark)
    stats = _band_statistics(args.bands, corrected)
    out = _outdir(args)
    for band, label in zip(corrected.bands, corrected.labels):
        write_ascii_grid(band, out / f"corrected_{label}.asc")
    write_dark_values_csv(image.labels, dark, out / "dark_values.csv")
    write_band_stats_csv(stats, out / "band_stats.csv")
    write_correlation_csv(stats, out / "correlation.csv")
    log.info("preprocess: %d bands corrected (dark values %s)", image.n_bands, dark)
    return 0


def cmd_oif(args) -> int:
    _check_flag(len(args.bands) >= 3, "the band count", "at least 3 (OIF ranks band triples)", len(args.bands))
    image = _read_image(args.bands, args.labels)
    mask, under = None, ""
    if args.mask:
        mask, under = read_mask(args.mask), f" under --mask {args.mask}"
        require_same_geometry((args.bands[0], image.geometry), (args.mask, mask))
        _require_valid_bands(args.bands, image, mask.selected, under)
    else:
        _require_valid_bands(args.bands, image)
    stats = _band_statistics(args.bands, image, mask, under)
    ranking = oif_rank(stats)
    out = _outdir(args)
    write_band_stats_csv(stats, out / "band_stats.csv")
    write_correlation_csv(stats, out / "correlation.csv")
    write_oif_csv(ranking, out / "oif.csv")
    best = ranking.triples[0]
    log.info(
        "oif: best triple %s (score %s)",
        "/".join(image.labels[i] for i in best),
        repr(ranking.scores[0]),
    )
    return 0


def cmd_indices(args) -> int:
    _check_flag(0 <= args.weight <= 1, "--weight", "in [0, 1]", args.weight)
    red = read_ascii_grid(args.red)
    nir = read_ascii_grid(args.nir)
    swir = read_ascii_grid(args.swir)
    require_same_geometry((args.red, red), (args.nir, nir), (args.swir, swir))
    v = ndvi(nir, red)
    i = ndii(nir, swir)
    m = ndim(v, i, args.weight)
    out = _outdir(args)
    write_ascii_grid(v, out / "ndvi.asc")
    write_ascii_grid(i, out / "ndii.asc")
    write_ascii_grid(m, out / "ndim.asc")
    log.info("indices: wrote ndvi.asc, ndii.asc, ndim.asc")
    return 0


def cmd_change(args) -> int:
    if (args.low is None) != (args.high is None):
        raise ConfigError("--low needs --high too" if args.high is None else "--high needs --low too")
    for flag, value in (("--low", args.low), ("--high", args.high)):
        _check_flag(value is None or math.isfinite(value), flag, "finite", value)
    if args.low is not None:
        _check_flag(args.low <= args.high, "--low", f"at most --high ({args.high})", args.low)
    grids = [read_ascii_grid(p) for p in args.ndim]
    require_same_geometry(*zip(args.ndim, grids))
    levels = []
    for path, g in zip(args.ndim, grids):
        with naming(path):
            lo, hi = ternary_thresholds(g) if args.low is None else (args.low, args.high)
            levels.append(ternarize(g, lo, hi))
    codes = change_composite(*levels)
    dynamics = group_dynamics(codes)
    out = _outdir(args)
    for i, lv in enumerate(levels, start=1):
        write_ascii_grid(lv, out / f"levels_{i}.asc")
    write_ascii_grid(codes, out / "change_code.asc")
    write_ascii_grid(dynamics, out / "dynamics.asc")
    write_legend(dynamics.legend, out / "dynamics_legend.csv")
    write_grouping_csv(out / "grouping.csv")
    if args.ppm:  # one channel per date, levels 0/1/2 drawn at 0/128/255
        export_ppm(*levels, ((0, 2),) * 3, out / "change.ppm")
    log.info("change: %d coded pixels", int(np.count_nonzero(codes.valid)))
    return 0


def cmd_classify(args) -> int:
    _check_flag(math.isfinite(args.beta) and args.beta >= 0, "--beta", "finite and non-negative", args.beta)
    _check_flag(args.sweeps >= 1, "--sweeps", "at least 1", args.sweeps)
    image = _read_image(args.bands)
    training_grid = read_ascii_grid(args.training)
    require_same_geometry((args.bands[0], image.geometry), (args.training, training_grid))
    legend = load_legend(args.legend, training_grid)
    with naming(args.training):
        training = LandCoverMap(training_grid, legend)
    if not joint_valid(*image.bands, training_grid, context="classify").any():
        raise DataError(
            f"no class has any valid training pixels: no pixel holds data in every band "
            f"({', '.join(dict.fromkeys(args.bands))}) and in --training {args.training}"
        )
    with naming(args.training):  # a class with too few training pixels
        signatures = estimate_signatures(image, training)
    priors = "equal" if args.equal_priors else "empirical"
    labeled, scores = maxlike(image, signatures, priors_mode=priors, legend=legend)
    del image, training_grid, training  # nothing reads them after maxlike, so icm's peak does not hold them
    smoothed = icm(labeled, scores, beta=args.beta, max_sweeps=args.sweeps)
    out = _outdir(args)
    write_signatures_csv(signatures, out / "signatures.csv")
    write_ascii_grid(labeled, out / "classified_ml.asc")
    write_ascii_grid(smoothed, out / "classified_icm.asc")
    write_legend(legend, out / "classified_legend.csv")
    log.info("classify: %d classes, beta=%s", len(signatures), args.beta)
    return 0


def _parse_fuzzy(text: str) -> FuzzySpec:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) not in (4, 6):
        raise ConfigError(
            "--fuzzy takes shape,direction,a,b or shape,direction,a,b,c,d"
        )
    try:
        nums = [parse_number(t) for t in parts[2:]]
    except ValueError:
        raise ConfigError(f"--fuzzy control points must be numbers, got {parts[2:]}") from None
    c, d = (nums[2], nums[3]) if len(nums) == 4 else (None, None)
    try:
        return FuzzySpec(parts[0], parts[1], nums[0], nums[1], c, d)
    except LandchangeError as e:
        raise ConfigError(f"--fuzzy: {e}") from None


def _parse_categories(text: str) -> list[int]:
    try:
        return [parse_number(t, int) for t in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"--constraint-categories: {e}") from None


def cmd_criteria(args) -> int:
    spec = _parse_fuzzy(args.fuzzy) if args.fuzzy else None
    cats = _parse_categories(args.constraint_categories) if args.constraint_categories else None
    name = args.name
    outputs = {}  # basename -> grid
    if args.distance_to:
        targets = read_mask(args.distance_to)
        with naming(args.distance_to):
            grid = outputs[name] = distance_transform(targets)
    else:
        grid = read_ascii_grid(args.input)
    if spec is not None:
        outputs[f"{name}_fuzzy"] = fuzzy_standardize(grid, spec)
    if args.constraint_min is not None:
        outputs[f"{name}_constraint"] = make_constraint(grid, threshold=args.constraint_min)
    elif cats is not None:
        outputs[f"{name}_constraint"] = make_constraint(grid, categories=cats)
    out = _outdir(args)
    for basename, g in outputs.items():
        write_ascii_grid(g, out / f"{basename}.asc")
    log.info("criteria: wrote %s outputs", name)
    return 0


# ---------------------------------------------------------------------------
# config-driven pipeline subcommands


def _cfg(args):
    if not args.config:
        raise ConfigError("this subcommand needs --config")
    return load_config(args.config, out_dir=args.out, seed=args.seed)


def _stage_command(name: str):
    def handler(args) -> int:
        cfg = _cfg(args)
        run_stage(name, cfg)
        log.info("%s: outputs in %s", name, cfg.out_dir)
        return 0

    return handler


def cmd_run(args) -> int:
    cfg = _cfg(args)
    report = run_pipeline(cfg)
    for name, k in report.kappas.items():
        log.info("run: %s kappa %.4f (random baseline %.4f)", name, k, report.baseline_kappa)
    log.info("run: report at %s", report.report_path)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_rows=args.rows,
        n_cols=args.cols,
        n_classes=args.classes,
        transition=drift_matrix(args.classes, args.stay),
        n_maps=args.maps,
        seeds_per_class=args.seeds_per_class,
        noise=args.noise,
        cell_size=args.cell_size,
        seed=args.seed,
        start_year=args.start_year,
        year_step=args.year_step,
    )
    result = generate_synthetic_landscape(spec)
    ini = write_scenario(result, args.out, model=args.model)
    log.info("synth: scenario at %s", ini)
    print(ini)
    return 0


# ---------------------------------------------------------------------------
# parser


def _number_flag(kind: type):
    """argparse type for int or float flags: parse_number's rule, its
    message reported against the flag (exit 2)."""

    def parse(text: str):
        try:
            return parse_number(text, kind)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


_INT = _number_flag(int)
_FLOAT = _number_flag(float)


def _add_common(p: argparse.ArgumentParser, config: bool = False) -> None:
    if config:
        p.add_argument("--config", help="pipeline config file (INI)")
        p.add_argument("--seed", type=_INT, default=None, help="override the config seed")
    p.add_argument("--out", default=None if config else "out", help="output directory")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="landchange",
        description="Land-cover change analysis and prediction on plain-text grids.",
    )
    ap.add_argument("--version", action="version", version=f"landchange {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="dark-object subtraction and band statistics")
    p.add_argument("bands", nargs="+", help="band grids, darkest-reference order")
    p.add_argument("--reference", required=True, help="0/1 mask of dark reference pixels")
    p.add_argument("--percentile", type=_FLOAT, default=0.0, help="dark-object percentile")
    p.add_argument("--labels", help="comma-separated band names")
    _add_common(p)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("oif", help="rank band triples by the optimum index factor")
    p.add_argument("bands", nargs="+", help="band grids")
    p.add_argument("--mask", help="restrict statistics to this 0/1 mask")
    p.add_argument("--labels", help="comma-separated band names")
    _add_common(p)
    p.set_defaults(fn=cmd_oif)

    p = sub.add_parser("indices", help="vegetation/moisture indices and their blend")
    p.add_argument("--red", required=True)
    p.add_argument("--nir", required=True)
    p.add_argument("--swir", required=True)
    p.add_argument("--weight", type=_FLOAT, default=0.5, help="blend weight for the first index")
    _add_common(p)
    p.set_defaults(fn=cmd_indices)

    p = sub.add_parser("change", help="three-date change coding and dynamics classes")
    p.add_argument("ndim", nargs=3, help="blended index grids for the three dates")
    p.add_argument("--low", type=_FLOAT, help="fixed low ternary threshold (with --high)")
    p.add_argument("--high", type=_FLOAT, help="fixed high ternary threshold (with --low)")
    p.add_argument("--ppm", action="store_true", help="also write an RGB composite")
    _add_common(p)
    p.set_defaults(fn=cmd_change)

    p = sub.add_parser("classify", help="gaussian maximum likelihood plus smoothing")
    p.add_argument("bands", nargs="+", help="image band grids")
    p.add_argument("--training", required=True, help="training class grid")
    p.add_argument("--legend", help="training legend CSV (id,name)")
    p.add_argument("--beta", type=_FLOAT, default=1.5, help="neighbor agreement weight")
    p.add_argument("--sweeps", type=_INT, default=10, help="max smoothing sweeps")
    p.add_argument("--equal-priors", action="store_true", help="ignore training class sizes")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("criteria", help="distance, fuzzy and constraint layers")
    p.add_argument("--name", default="criterion", help="basename for outputs")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--distance-to", help="0/1 target mask; output is distance to nearest 1")
    src.add_argument("--input", help="use this grid directly")
    p.add_argument("--fuzzy", help="shape,direction,a,b[,c,d] membership spec")
    constraint = p.add_mutually_exclusive_group()
    constraint.add_argument("--constraint-min", type=_FLOAT, help="1 where value >= this")
    constraint.add_argument("--constraint-categories", help="1 where value in this id list")
    _add_common(p)
    p.set_defaults(fn=cmd_criteria)

    for name, help_text in (
        ("mce", "weights and per-class suitability grids"),
        ("markov", "transition estimation and area projection"),
        ("predict", "cellular allocation of projected areas"),
        ("mlp-train", "fit the perceptron to the calibration pair"),
        ("mlp-predict", "apply the trained perceptron"),
        ("validate", "compare predictions against the held-out map"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, config=True)
        p.set_defaults(fn=_stage_command(name))

    p = sub.add_parser("run", help="full calibrate-predict-validate pipeline")
    _add_common(p, config=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic test scenario")
    p.add_argument("--rows", type=_INT, default=100)
    p.add_argument("--cols", type=_INT, default=100)
    p.add_argument("--classes", type=_INT, default=3)
    p.add_argument("--maps", type=_INT, default=3)
    p.add_argument("--stay", type=_FLOAT, default=0.9, help="diagonal transition probability")
    p.add_argument("--seeds-per-class", type=_INT, default=3)
    p.add_argument("--noise", type=_FLOAT, default=0.15)
    p.add_argument("--cell-size", type=_FLOAT, default=30.0)
    p.add_argument("--start-year", type=_INT, default=1988)
    p.add_argument("--year-step", type=_INT, default=6)
    p.add_argument("--model", default="ca_markov", choices=MODELS)
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True, help="scenario directory")
    p.set_defaults(fn=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except ConfigError as e:
        log.error("configuration error: %s", e)
        return 2
    except NumericalError as e:
        log.error("numerical failure: %s", e)
        return 4
    except LandchangeError as e:
        log.error("data error: %s", e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
