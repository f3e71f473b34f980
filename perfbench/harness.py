"""Shared pieces of the benchmark: the checkout layout, input pools, the
result record, latency statistics, reference comparison and machine facts."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Program seeds with recorded references.  A benchmark seed maps onto this
# pool, so every run is checked against numbers recorded from the seed commit.
PROGRAM_SEEDS = tuple(range(16))
# Level-10 grids for large_grids; one run walks the pool from a seeded start
# and never repeats a grid, so a cross-call cache has nothing to reuse.
GRID_POOL = tuple(10_000 + k for k in range(128))
WARMUP_GRID_SEED = 9_999

# end_to_end metric units, in BENCHMARK.json order
E2E_UNITS = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "peak_rss_mb": "MB",
}

# A fixed job outside the program, timed between ops.  It does in roughly
# equal parts what the workloads spend their time on: a fresh interpreter
# importing numpy, a pure-Python loop with JSON, and a numpy kernel on an
# array above L2 (about 0.45 s in all on the machine of baseline.json).
YARDSTICK = """\
import json
import numpy as np
s = 0
for i in range(400_000):
    s += i * i
json.loads(json.dumps([0.5 * k for k in range(40_000)]))
np.sort(np.random.default_rng(1).random(1 << 22))
"""
YARDSTICK_EVERY_S = 2.5

REL_TOL = 1e-9
ABS_TOL = 1e-12


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


def pin_environment(env: dict) -> None:
    """One BLAS/OpenMP thread; the program's own thread knob left unset."""
    for var in PINNED_THREADS:
        env[var] = "1"
    env.pop("LORENTZ_FORGE_THREADS", None)


def checkout_src(root: Path) -> Path | None:
    src = root / "src"
    return src if (src / "lorentz_forge" / "__init__.py").is_file() else None


class WorkDir:
    """Scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: Path, name: str):
        self.path = root / ".perfbench_work" / name

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


@dataclass
class Result:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> value
    detail: dict = field(default_factory=dict)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(msg)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def line(self, units: dict) -> str:
        """The result line, metrics in the order and with the units of ``units``."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": self.metrics[k], "unit": u} for k, u in units.items()},
        })


class Yardstick:
    """Times of the yardstick job, run between ops at most once every
    ``YARDSTICK_EVERY_S`` seconds.  A shared machine's speed drifts by up to
    1.5x for seconds to minutes; the yardstick slows with it, so a pass's
    time in yardsticks is steadier from run to run than its time in
    seconds.  ``spent`` lets a caller that times across ops take the
    yardstick back out."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def between_ops(self) -> None:
        if time.perf_counter() - self._last < YARDSTICK_EVERY_S:
            return
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", YARDSTICK], check=True, timeout=60)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._last = time.perf_counter()


class Passes:
    """Per-pass timings of one run: ``add`` takes the pass's wall, read and
    write seconds, its op seconds by kind and any named per-pass seconds."""

    def __init__(self):
        self.wall: list[float] = []
        self.read: list[float] = []
        self.write: list[float] = []
        self.ops: dict[str, list[float]] = {}
        self.named: dict[str, list[float]] = {}

    def add(self, wall: float, read: float, write: float, ops: dict,
            named: dict | None = None) -> None:
        self.wall.append(wall)
        self.read.append(read)
        self.write.append(write)
        for kind, xs in ops.items():
            self.ops.setdefault(kind, []).extend(xs)
        for k, v in (named or {}).items():
            self.named.setdefault(k, []).append(v)

    def report(self, res: "Result", yard: Yardstick) -> None:
        """The median pass time over the mean yardstick time as
        ``wall_rel``; the pass time in seconds, the yardstick, the
        read/write split and op latency go to the detail line.

        Only ``wall_rel`` is a result metric.  In seconds, the median pass
        of ten runs has spread up to 0.27 of its median on this machine,
        as wide as the largest bound a metric may have; in yardsticks,
        0.04-0.08.  Op latency is not: the ops of a
        workload differ in kind (check calls of nine suites, eleven different
        calls, files of two sizes), so the median and the tail each land on
        one op near a boundary between kinds, and their spread between runs
        (up to 0.30 of the median) is as wide as the largest bound a metric may
        have.  Neither is ``write_s``: on verify_all, ``write_reports`` flips
        between about 130 and 250 ms from one call to the next (file writes
        on a shared disk), a spread of 0.3 over ten runs."""
        stats = ms_stats([x for xs in self.ops.values() for x in xs])
        wall_s, yard_s = statistics.median(self.wall), statistics.fmean(yard.samples)
        res.metrics["wall_rel"] = wall_s / yard_s
        res.detail["wall_s"] = wall_s
        res.detail["yardstick"] = {"mean_s": yard_s, "samples_s": yard.samples}
        res.detail["read_s"] = statistics.median(self.read)
        res.detail["write_s"] = statistics.median(self.write)
        res.detail["op_latency"] = {"p50_ms": stats["p50_ms"], "tail_ms": stats["tail_ms"],
                                    "tail_percentile": round(stats["tail_percentile"], 2),
                                    "samples": stats["samples"]}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample.  Returns (value, percentile, sample count); with
    fewer than eleven samples it falls back to the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def close(actual: float, expected: float) -> bool:
    if math.isinf(expected) or math.isnan(expected):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    return math.isfinite(actual) and \
        abs(actual - expected) <= max(REL_TOL * abs(expected), ABS_TOL)


def close_all(actual, expected) -> bool:
    return len(actual) == len(expected) and \
        all(close(float(a), float(e)) for a, e in zip(actual, expected))


def load_ref(name: str) -> dict:
    with open(REF_DIR / f"{name}.json") as fh:
        return json.load(fh)


def ms_stats(xs: list[float]) -> dict:
    """Median and tail of op seconds, in ms, with the tail's percentile and count."""
    ms = [x * 1e3 for x in xs]
    value, pct, n = tail(ms)
    return {"p50_ms": statistics.median(ms), "tail_ms": value, "tail_percentile": pct,
            "samples": n}


def timed_import_children(root: Path, module: str, repeats: int) -> list[float]:
    """Import time of ``module`` in fresh interpreters, measured inside each
    child so interpreter start-up is not counted."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "import", module],
            cwd=root, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_passes(seconds: float, one_pass, max_passes: int | None = None) -> int:
    """Whole passes until the next one would end past ``seconds``; at least
    one, at most ``max_passes``.  Returns the number of passes run."""
    done, spent = 0, 0.0
    while max_passes is None or done < max_passes:
        t0 = time.perf_counter()
        one_pass(done)
        spent += time.perf_counter() - t0
        done += 1
        if spent + spent / done > seconds:
            break
    return done


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Per-level data/unified cache size of cpu0, as the kernel reports it."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            out[f"L{(idx / 'level').read_text().strip()}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
        "LORENTZ_FORGE_THREADS": os.environ.get("LORENTZ_FORGE_THREADS"),
    }
