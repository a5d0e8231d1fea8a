"""Pipeline configuration: an INI file of sections and key=value pairs.

Paths resolve relative to the config file. Every knob has a default, and a
loaded config echoes all effective values so a run is self-documenting.

Layout::

    [run]          seed, model (ca_markov | mlp | both), out_dir
    [maps]         <year> = path  (two to calibrate, third held out)
    [legend]       file = legend.csv  (optional; derived from maps if absent)
    [criteria]     <name> = path
    [constraints]  <name> = path  (optional 0/1 grids)
    [fuzzy.<criterion>]  shape, direction, a, b [, c, d]
    [mce]          saaty = path, method (wlc | owa) [, order_weights]
    [suitability]  <class id> = comma-separated criterion names
    [predict]      iterations, kernel  (the allocation of both models)
    [mlp]          hidden, learning_rate, epochs [, focal_class]
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .criteria import FuzzySpec
from .errors import ConfigError, DataError
from .grid import parse_number, read_text
from .mce import read_saaty_csv

MODELS = ("ca_markov", "mlp", "both")
MCE_METHODS = ("wlc", "owa")

_KNOWN_KEYS = {
    "run": {"seed", "model", "out_dir"},
    "legend": {"file"},
    "mce": {"saaty", "method", "order_weights"},
    "predict": {"iterations", "kernel"},
    "mlp": {"hidden", "learning_rate", "epochs", "focal_class"},
    "fuzzy.<criterion>": {"shape", "direction", "a", "b", "c", "d"},
}
_FREE_SECTIONS = ("maps", "criteria", "constraints", "suitability")


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, path-resolved pipeline settings."""

    out_dir: Path
    seed: int
    model: str
    maps: tuple[tuple[int, Path], ...]  # (year, path), years strictly increasing
    legend_path: Path | None
    criteria: dict[str, Path]
    constraints: dict[str, Path]
    fuzzy: dict[str, FuzzySpec]
    saaty_path: Path | None
    mce_method: str
    order_weights: tuple[float, ...] | None
    suitability: dict[int, tuple[str, ...]]
    iterations: int = 5
    kernel: int = 5
    mlp_hidden: int = 8
    mlp_learning_rate: float = 0.5
    mlp_epochs: int = 300
    mlp_focal: int | None = None

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.maps)

    def echo(self) -> list[tuple[str, str]]:
        """Every effective setting as (key, value) text pairs. File paths
        appear as basenames so the echo is location-independent."""
        rows = [
            ("run.seed", str(self.seed)),
            ("run.model", self.model),
        ]
        for y, p in self.maps:
            rows.append((f"maps.{y}", p.name))
        rows.append(("legend.file", self.legend_path.name if self.legend_path else "(derived)"))
        for name, p in self.criteria.items():
            rows.append((f"criteria.{name}", p.name))
        for name, p in self.constraints.items():
            rows.append((f"constraints.{name}", p.name))
        for name, fz in self.fuzzy.items():
            parts = [fz.shape, fz.direction, repr(fz.a), repr(fz.b)]
            if fz.c is not None:
                parts += [repr(fz.c), repr(fz.d)]
            rows.append((f"fuzzy.{name}", " ".join(parts)))
        rows.append(("mce.saaty", self.saaty_path.name if self.saaty_path else "(none)"))
        rows.append(("mce.method", self.mce_method))
        if self.order_weights is not None:
            rows.append(("mce.order_weights", ",".join(repr(w) for w in self.order_weights)))
        for cid, names in self.suitability.items():
            rows.append((f"suitability.{cid}", ",".join(names)))
        rows.append(("predict.iterations", str(self.iterations)))
        rows.append(("predict.kernel", str(self.kernel)))
        if self.model in ("mlp", "both"):
            rows.append(("mlp.hidden", str(self.mlp_hidden)))
            rows.append(("mlp.learning_rate", repr(self.mlp_learning_rate)))
            rows.append(("mlp.epochs", str(self.mlp_epochs)))
            rows.append(("mlp.focal_class", str(self.mlp_focal) if self.mlp_focal is not None else "(highest id)"))
        return rows


def _get_number(section, key, kind: type, default=None, minimum=None):
    """section[key] read by parse_number as kind (int or float). A missing or
    blank key gives the default, or is an error when there is none."""
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        if default is None:
            raise ConfigError(f"missing key {section.name}.{key}")
        return default
    try:
        v = parse_number(raw, kind)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section.name}.{key} must be {what}, got {raw!r}") from None
    if kind is float and not math.isfinite(v):
        raise ConfigError(f"{section.name}.{key} must be finite, got {raw!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{section.name}.{key} must be >= {minimum}, got {v}")
    return v


def _resolve(base: Path, raw: str, what: str) -> Path:
    p = base / raw  # an absolute raw path stands on its own
    if not p.is_file():
        raise ConfigError(f"{what}: file not found: {p}")
    return p


def _check_known_keys(cfg: configparser.ConfigParser) -> None:
    for sec in cfg.sections():
        if sec in _FREE_SECTIONS:
            continue
        allowed = _KNOWN_KEYS.get("fuzzy.<criterion>" if sec.startswith("fuzzy.") else sec)
        if allowed is None:
            raise ConfigError(f"unknown config section [{sec}]")
        stray = set(cfg[sec]) - allowed
        if stray:
            raise ConfigError(f"unknown key(s) {sorted(stray)} in section [{sec}]")


def validate_config(
    cfg: configparser.ConfigParser,
    base_dir,
    out_dir=None,
    seed: int | None = None,
) -> PipelineConfig:
    """Resolve paths, fill defaults, and cross-check a parsed config.

    out_dir and seed, when given, override the [run] section (command-line
    flags win over the file).
    """
    base = Path(base_dir)
    _check_known_keys(cfg)
    run = cfg["run"] if cfg.has_section("run") else {}
    model = (run.get("model") or "ca_markov").strip()
    if model not in MODELS:
        raise ConfigError(f"run.model must be one of {MODELS}, got {model!r}")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    eff_seed = seed if seed is not None else _get_number(run, "seed", int, 0, minimum=0)
    if out_dir is not None:
        eff_out = Path(out_dir)  # command-line value: relative to the caller's cwd
    else:
        eff_out = base / (run.get("out_dir") or "out")  # an absolute out_dir stands on its own

    if not cfg.has_section("maps") or not cfg["maps"]:
        raise ConfigError("missing [maps] section with at least two dated maps")
    maps = []
    for key, raw in cfg["maps"].items():
        try:
            year = parse_number(key, int)
        except ValueError:
            raise ConfigError(f"maps keys must be years, got {key!r}") from None
        maps.append((year, _resolve(base, raw, f"maps.{key}")))
    years = [y for y, _ in maps]
    if sorted(years) != years or len(set(years)) != len(years):
        raise ConfigError(f"map years must be strictly increasing, got {years}")
    if len(maps) < 2:
        raise ConfigError(f"need at least two dated maps, got {len(maps)}")

    legend_path = None
    if cfg.has_section("legend") and cfg["legend"].get("file"):
        legend_path = _resolve(base, cfg["legend"]["file"], "legend.file")

    criteria, constraints = (
        {name: _resolve(base, raw, f"{sec}.{name}") for name, raw in (cfg[sec].items() if cfg.has_section(sec) else ())}
        for sec in ("criteria", "constraints")
    )

    fuzzy = {}
    for sec in cfg.sections():
        if not sec.startswith("fuzzy."):
            continue
        name = sec[len("fuzzy.") :]
        if name not in criteria:
            raise ConfigError(f"[{sec}] refers to unknown criterion {name!r}")
        s = cfg[sec]
        try:
            fuzzy[name] = FuzzySpec(
                (s.get("shape") or "linear").strip(),
                (s.get("direction") or "increasing").strip(),
                _get_number(s, "a", float),
                _get_number(s, "b", float),
                _get_number(s, "c", float) if s.get("c") else None,
                _get_number(s, "d", float) if s.get("d") else None,
            )
        except DataError as e:
            raise ConfigError(f"[{sec}]: {e}") from None

    saaty_path = None
    saaty_order = None
    method = "wlc"
    order_weights = None
    if cfg.has_section("mce"):
        s = cfg["mce"]
        if s.get("saaty"):
            saaty_path = _resolve(base, s["saaty"], "mce.saaty")
            saaty_order = read_saaty_csv(saaty_path).order
        method = (s.get("method") or "wlc").strip()
        if method not in MCE_METHODS:
            raise ConfigError(f"mce.method must be one of {MCE_METHODS}, got {method!r}")
        if s.get("order_weights") and method != "owa":
            raise ConfigError(f"mce.order_weights applies to mce.method owa only, but the method is {method}")
        if s.get("order_weights"):
            try:
                order_weights = tuple(parse_number(t, float) for t in s["order_weights"].split(","))
            except ValueError:
                raise ConfigError("mce.order_weights must be comma-separated numbers") from None
            if not all(math.isfinite(v) for v in order_weights):
                raise ConfigError(f"mce.order_weights must be finite, got {s['order_weights']!r}")
        if method == "owa" and order_weights is None:
            raise ConfigError("mce.method owa needs mce.order_weights")
        if method == "owa" and not (min(order_weights) >= 0 and abs(sum(order_weights) - 1.0) <= 1e-9):
            raise ConfigError(f"mce.order_weights must be non-negative and sum to 1, got {s['order_weights']!r}")

    suitability = {}
    if cfg.has_section("suitability"):
        for key, raw in cfg["suitability"].items():
            try:
                cid = parse_number(key, int)
            except ValueError:
                raise ConfigError(f"suitability keys must be class ids, got {key!r}") from None
            names = tuple(t.strip() for t in raw.split(",") if t.strip())
            if not names:
                raise ConfigError(f"suitability.{key} lists no criteria")
            for n in names:
                if n not in criteria:
                    raise ConfigError(f"suitability.{key} refers to unknown criterion {n!r}")
                if n not in fuzzy:
                    raise ConfigError(
                        f"suitability.{key}: criterion {n!r} has no [fuzzy.{n}] standardization"
                    )
            if saaty_order is not None and len(names) != saaty_order:
                raise ConfigError(f"suitability.{key} lists {len(names)} factors, but mce.saaty ranks {saaty_order}")
            if method == "owa" and len(names) != len(order_weights):
                raise ConfigError(
                    f"mce.order_weights: suitability.{key} has {len(names)} factors "
                    f"but {len(order_weights)} order weights"
                )
            suitability[cid] = names

    default = PipelineConfig  # the field defaults, read off the class
    pred = cfg["predict"] if cfg.has_section("predict") else {}
    iterations = _get_number(pred, "iterations", int, default.iterations, minimum=1)
    kernel = _get_number(pred, "kernel", int, default.kernel, minimum=3)
    if kernel % 2 == 0:
        raise ConfigError(f"predict.kernel must be odd, got {kernel}")

    mlp = cfg["mlp"] if cfg.has_section("mlp") else {}
    hidden = _get_number(mlp, "hidden", int, default.mlp_hidden, minimum=1)
    lr = _get_number(mlp, "learning_rate", float, default.mlp_learning_rate, minimum=0.0)
    epochs = _get_number(mlp, "epochs", int, default.mlp_epochs, minimum=1)
    focal = _get_number(mlp, "focal_class", int, minimum=0) if mlp.get("focal_class") else None

    return PipelineConfig(
        out_dir=eff_out,
        seed=int(eff_seed),
        model=model,
        maps=tuple(maps),
        legend_path=legend_path,
        criteria=criteria,
        constraints=constraints,
        fuzzy=fuzzy,
        saaty_path=saaty_path,
        mce_method=method,
        order_weights=order_weights,
        suitability=suitability,
        iterations=iterations,
        kernel=kernel,
        mlp_hidden=hidden,
        mlp_learning_rate=lr,
        mlp_epochs=epochs,
        mlp_focal=focal,
    )


def load_config(path, out_dir=None, seed: int | None = None) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # no default section: [DEFAULT] is refused, not read into every section
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    text = read_text(p, "config", error=ConfigError)
    try:
        cfg.read_file(io.StringIO(text, newline=None), source=str(p))
    except configparser.Error as e:
        raise ConfigError(f"{p}: {e}") from None
    try:
        return validate_config(cfg, p.parent, out_dir=out_dir, seed=seed)
    except ConfigError as e:
        raise ConfigError(f"{p}: {e}") from None
