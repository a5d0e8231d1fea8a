"""landchange benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every timed operation is the real
`landchange` command line in a child process (PYTHONPATH=src), one at a
time in a closed loop from a single client, until S seconds have passed
and at least MIN_OPS operations ran.
Every output is checked. With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from
in-process traced runs (see traced_main.py). Earlier stdout lines carry
details: environment, input digest and per-operation records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# The measured children, and this process, use one BLAS thread: on two
# cores, two threads made mlp training slower and less steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, CheckFailed, tree_bytes, tree_digest  # noqa: E402

# A child still running this long after the run started is killed and its
# operation counted as failed, so the run ends within 180 s.
RUN_LIMIT_S = 170.0
STARTUP_REPS = 5
# Timed operations per untraced run, at least, so that one stray
# operation is averaged with another.
MIN_OPS = 2

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "kappa")
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "kappa": "kappa"}

# Traced layer functions and the extra counts reported for each.
TRACED = (
    ("grid.write_ascii_grid", ("calls", "mb")),
    ("grid.read_ascii_grid", ("calls", "mb", "repeat_ratio")),
    ("criteria.distance_transform", ("calls",)),
    ("criteria.fuzzy_standardize", ()),
    ("mce.wlc", ()),
    ("mce.saaty_weights", ()),
    ("markov.crosstab", ()),
    ("markov.conditional_probability_maps", ()),
    ("allocate.ca_markov", ()),
    ("allocate.mola", ("calls",)),
    ("allocate.contiguity_filter", ("calls",)),
    ("allocate.random_allocation", ()),
    ("classify.icm", ()),
    ("classify.maxlike", ()),
    ("classify.estimate_signatures", ()),
    ("classify.confusion", ("calls",)),
    ("mlp.build_samples", ()),
    ("mlp.train", ()),
    ("mlp.predict_map", ()),
    ("synth.generate_synthetic_landscape", ()),
    ("synth.write_scenario", ()),
    ("config.load_config", ()),
)
STAGES = ("markov", "mce", "predict", "mlp-train", "mlp-predict", "validate")
LAYER_UNITS = {"self_s": "s", "calls": "count", "mb": "MB", "repeat_ratio": "ratio", "s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for fn, extra in TRACED:
        names += [(f"{fn}.{m}", LAYER_UNITS[m]) for m in ("self_s", *extra)]
    names += [(f"pipeline.{st}.s", "s") for st in STAGES]
    names += [("cli.startup_s", "s"), ("trace.overhead_s", "s"), ("artifact_mb", "MB")]
    return names


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    """One finished child process with its own resource usage."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log_path: Path, timeout: float = RUN_LIMIT_S) -> Child:
    """Run argv to completion and read its rusage with os.wait4, which
    reports this child alone (RUSAGE_CHILDREN would give the maximum RSS
    over every child reaped so far)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log_path.read_text(errors="replace")[-2000:]
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, text)


def landchange(argv: list[str], log_path: Path, timeout: float = RUN_LIMIT_S) -> Child:
    return spawn([sys.executable, "-m", "landchange.cli", *argv], log_path, timeout)


# ---------------------------------------------------------------------------
# records


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": tree_digest(ROOT / "src" / "landchange"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def tail_percentile(values: list[float]) -> dict | None:
    """Highest percentile that has at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def detail(kind: str, payload) -> None:
    print(f"perfbench {kind} {json.dumps(payload, sort_keys=True)}", flush=True)


# ---------------------------------------------------------------------------
# measurement


class Run:
    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.n = 0
        self.end = time.perf_counter() + RUN_LIMIT_S

    def remaining(self) -> float:
        return max(1.0, self.end - time.perf_counter())

    def cli(self, argv: list[str]) -> None:
        child = landchange(argv, self.work / "setup.log", self.remaining())
        if child.rc != 0:
            raise RuntimeError(f"set-up command {argv} exited {child.rc}:\n{child.log}")

    def setup(self) -> list[float]:
        """Warm the interpreter (byte-compiles src on a fresh checkout) and
        build the inputs, setup_reps times; return each time."""
        times = []
        for _ in range(self.w.setup_reps):
            shutil.rmtree(self.inputs, ignore_errors=True)
            t0 = time.perf_counter()
            warm = spawn([sys.executable, "-c", "import landchange.cli"], self.work / "setup.log", self.remaining())
            if warm.rc != 0:
                raise RuntimeError(f"cannot import landchange.cli:\n{warm.log}")
            self.inputs.mkdir(parents=True)
            self.w.setup(self.cli, self.inputs, self.seed, self.w.rows)
            times.append(time.perf_counter() - t0)
        command = self.w.command(Path("INPUTS"), Path("OUT"), self.seed, self.w.rows)
        digest = hashlib.sha256((tree_digest(self.inputs) + json.dumps(command)).encode()).hexdigest()
        detail("inputs", {"workload": self.w.name, "seed": self.seed, "sha256": digest})
        return times

    def op(self, traced: bool) -> dict:
        """One operation, checked; returns its record."""
        self.n += 1
        out = self.work / f"out{self.n}"
        argv = self.w.command(self.inputs, out, self.seed, self.w.rows)
        spans_path = self.work / f"spans{self.n}.json"
        if traced:
            child = spawn(
                [sys.executable, str(HERE / "traced_main.py"), str(spans_path), "--", *argv],
                self.work / "op.log",
                self.remaining(),
            )
        else:
            child = landchange(argv, self.work / "op.log", self.remaining())
        rec = {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.rss_mb, "rc": child.rc}
        self.attempted += 1
        try:
            if child.rc != 0:
                raise CheckFailed(f"exit code {child.rc}: {child.log}")
            rec["kappa"] = self.w.check(self.inputs, out)
            rec["artifact_mb"] = tree_bytes(out) / 1e6
            if traced:
                rec["trace"] = json.loads(spans_path.read_text())
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
            self.failed += 1
            rec["error"] = f"{type(e).__name__}: {e}"
        shutil.rmtree(out, ignore_errors=True)
        detail("op", {k: v for k, v in rec.items() if k != "trace"})
        return rec


def layer_metrics(trace: dict, wall_s: float, startup_s: float, artifact_mb: float) -> dict[str, float]:
    spans, io = trace["spans"], trace["io"]
    m: dict[str, float] = {}
    for fn, extra in TRACED:
        s = spans.get(fn, {"calls": 0, "self_s": 0.0})
        m[f"{fn}.self_s"] = s["self_s"]
        if "calls" in extra:
            m[f"{fn}.calls"] = s["calls"]
        if "mb" in extra:
            m[f"{fn}.mb"] = io.get(fn, {}).get("bytes", 0) / 1e6
        if "repeat_ratio" in extra:
            t = io.get(fn, {})
            m[f"{fn}.repeat_ratio"] = t["repeats"] / t["calls"] if t.get("calls") else 0.0
    for st in STAGES:
        m[f"pipeline.{st}.s"] = spans.get(f"pipeline.{st}", {}).get("total_s", 0.0)
    m["cli.startup_s"] = startup_s
    m["trace.overhead_s"] = trace["elapsed_s"] - (wall_s - startup_s)
    m["artifact_mb"] = artifact_mb
    return m


def measure(workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    run = Run(workload, seed, work)
    setup_times = run.setup()
    metrics: dict[str, float] = {}
    if not traced:
        recs = []
        deadline = time.perf_counter() + seconds
        while len(recs) < MIN_OPS or time.perf_counter() < deadline:
            recs.append(run.op(traced=False))
        good = [r for r in recs if "error" not in r] or recs
        walls = [r["wall_s"] for r in recs]
        detail("wall_s", {"samples": len(walls), "median": statistics.median(walls), "tail": tail_percentile(walls)})
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in recs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
            "setup_s": statistics.median(setup_times),
            "kappa": statistics.median(r.get("kappa", 0.0) for r in good),
        }
        units = UNITS
    else:
        startup = statistics.median(
            spawn([sys.executable, "-c", "import landchange.cli"], work / "startup.log", run.remaining()).wall_s
            for _ in range(STARTUP_REPS)
        )
        plain = run.op(traced=False)
        per_op = []
        deadline = time.perf_counter() + seconds
        while not per_op or time.perf_counter() < deadline:
            rec = run.op(traced=True)
            if "trace" in rec:
                per_op.append(layer_metrics(rec["trace"], plain["wall_s"], startup, rec["artifact_mb"]))
                if rec["trace"]["missing"]:
                    detail("missing_layers", rec["trace"]["missing"])
            elif not per_op:
                break
        units = dict(per_layer_names())
        for name in units:
            values = [m[name] for m in per_op]
            metrics[name] = statistics.median(values) if values else 0.0
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="landchange benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "landchange" / "cli.py").is_file():
        print(f"perfbench: no landchange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        detail("environment", environment())
        # Workload inputs depend on the workload seed only; the program sees
        # the generated inputs, with the seed folded into 31 bits.
        seed = int.from_bytes(hashlib.sha256(f"{args.workload}:{args.seed}".encode()).digest()[:4], "big") >> 1
        result = measure(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
