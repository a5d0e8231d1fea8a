"""Spans around landchange's layer functions, recorded from outside `src/`.

`install` rebinds each named function in every loaded landchange module
that holds it (`cli`, `pipeline`, `allocate`, `synth` and the defining
module itself), so calls made through those names run inside a span.
Nothing in the package is edited. A name that no longer exists is
reported as missing instead of raising.

Only the traced child imports this module; untraced runs never do.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, function) pairs whose self time and call count the benchmark
# reports. `pipeline.run_stage` is special: its spans are named after the
# stage it runs, giving inclusive time per stage.
LAYERS = (
    ("grid", "read_ascii_grid"),
    ("grid", "write_ascii_grid"),
    ("criteria", "distance_transform"),
    ("criteria", "fuzzy_standardize"),
    ("mce", "wlc"),
    ("mce", "saaty_weights"),
    ("markov", "crosstab"),
    ("markov", "conditional_probability_maps"),
    ("allocate", "ca_markov"),
    ("allocate", "mola"),
    ("allocate", "contiguity_filter"),
    ("allocate", "random_allocation"),
    ("classify", "icm"),
    ("classify", "maxlike"),
    ("classify", "estimate_signatures"),
    ("classify", "confusion"),
    ("mlp", "build_samples"),
    ("mlp", "train"),
    ("mlp", "predict_map"),
    ("synth", "generate_synthetic_landscape"),
    ("synth", "write_scenario"),
    ("config", "load_config"),
    ("pipeline", "run_stage"),
)


class Tracer:
    """In-memory span list. Each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.io: dict[str, dict] = {}  # per-function byte and path tallies

    def wrap(self, name: str, fn, name_of=None, path_arg=None):
        """`name_of(args, kwargs)` names each span; `path_arg` is the index
        of a file-path argument whose size is tallied after the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name_of(args, kwargs) if name_of else name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                if path_arg is not None:
                    self._tally(name, args[path_arg] if len(args) > path_arg else kwargs.get("path"))

        return wrapper

    def _tally(self, name: str, path) -> None:
        t = self.io.setdefault(name, {"bytes": 0, "calls": 0, "repeats": 0, "paths": set()})
        key = os.path.realpath(str(path))
        t["calls"] += 1
        t["repeats"] += key in t["paths"]
        t["paths"].add(key)
        if os.path.isfile(key):
            t["bytes"] += os.path.getsize(key)


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS; return the names that were missing."""
    missing = []
    for mod_name, fn_name in LAYERS:
        qual = f"{mod_name}.{fn_name}"
        try:
            mod = importlib.import_module(f"landchange.{mod_name}")
        except ImportError:
            missing.append(qual)
            continue
        orig = getattr(mod, fn_name, None)
        if not callable(orig):
            missing.append(qual)
            continue
        if qual == "pipeline.run_stage":
            wrapped = tracer.wrap(qual, orig, name_of=lambda a, k: f"pipeline.{a[0] if a else k['name']}")
        elif mod_name == "grid" and fn_name.endswith("_ascii_grid"):
            wrapped = tracer.wrap(qual, orig, path_arg=0 if fn_name.startswith("read") else 1)
        else:
            wrapped = tracer.wrap(qual, orig)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "landchange" or name.startswith("landchange.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is orig:
                    setattr(loaded, attr, wrapped)
    return missing


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, and self seconds (duration
    minus the durations of its direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += (end - start) - child_time[i]
    return out
