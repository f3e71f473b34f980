"""The three workloads.  Each is a closed loop with one client in one process
(cli_files drives one child process at a time).

verify_all   one pass is ``verify --suite all`` in process: the nine suites in
             ``run_suite("all")`` order, then ``write_reports``.  About 10^5
             tiny calls on 32x32 grids and 6x6 block tables, so per-call
             overhead and recomputation across (theta, q) sweeps dominate.
large_grids  one op is one call of a fixed mix on a fresh level-10 grid
             (1M cells, 8 MiB: above L2, inside L3); a pass is 4 grids.
             numpy kernels dominate and no input repeats.
cli_files    one op is one ``lorentz-forge`` subprocess on a grid file at
             level 5 or 9: ``norm`` reads, ``coeffs`` writes JSON.
             Start-up, import and JSON I/O dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
from harness import Result, WorkDir, close_all, load_ref
from tracer import (CHECKS, SUITES, Tracer, layer_table, per_layer_metrics, rebind,
                    restore, subtree_self)

clock = time.perf_counter


class Run:
    """One benchmark invocation: where it runs and what it was asked for."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool, small: bool):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.trace, self.small = trace, small
        self.pseed = harness.program_seed(seed)
        self.res = Result()
        # traced runs report per-layer figures only, so they take no yardstick
        self.yard = None if trace else harness.Yardstick()

    def measure(self, module: str, generate, passes) -> None:
        """Set-up, then ``passes()``.  setup_s is the fastest import of
        ``module`` in nine fresh interpreters, five before the passes and
        four after them so the samples span the run, plus the fastest of
        three input generations (the last one's output is kept).  Best of
        n, as ``timeit`` takes it: the import flips between two speeds
        within a run on a shared machine, and the minimum does not."""
        imports = harness.timed_import_children(self.root, module, 5)
        gens = []
        for _ in range(3):
            t0 = clock()
            generate()
            gens.append(clock() - t0)
        passes()
        imports += harness.timed_import_children(self.root, module, 4)
        self.res.metrics["setup_s"] = min(imports) + min(gens)
        self.res.detail["setup"] = {"import_s": imports, "generate_s": gens}

    def traced(self, one_pass, setup, untraced_wall: float, extra=None) -> None:
        """One traced set-up and one traced pass; per-layer metrics are their
        totals.  ``one_pass`` returns its summed op time, without the
        benchmark's own checks, so the overhead is traced minus untraced op
        time."""
        tracer = Tracer()
        tracer.install()
        try:
            setup()
            wall = one_pass(tracer)
        finally:
            tracer.uninstall()
        values = {"trace.wall_s": wall, "trace.overhead_s": wall - untraced_wall}
        if extra is not None:
            values.update(extra(tracer))
        else:
            values["cli.import_s"] = harness.timed_import_children(
                self.root, "lorentz_forge.cli", 1)[0]
        table = layer_table(tracer)
        self.res.metrics = per_layer_metrics(table, values)
        self.res.detail["layers"] = {k: {f: (round(v, 6) if isinstance(v, float) else v)
                                         for f, v in row.items()}
                                     for k, row in sorted(table.items())}
        self.tracer = tracer


# ---------------------------------------------------------------------------
# verify_all

SMALL_SUITES = ("karamata", "mink", "le3")  # each writes reports under its own checkId
SUITE_METRIC = {"te4": "suite_te4_s", "thm5": "suite_thm5_s", "interp": "suite_interp_s",
                "hardy": "suite_hardy_s", "embeddings": "suite_embeddings_s",
                "te3": "suite_te3_s", "karamata": "suite_rest_s", "mink": "suite_rest_s",
                "le3": "suite_rest_s"}


def verify_entries(jsonl: Path) -> list[list]:
    """(checkId, paramPoint, pass, maxRatio) per report line."""
    out = []
    with open(jsonl) as fh:
        for line in fh:
            r = json.loads(line)
            out.append([r["checkId"], json.dumps(r["paramPoint"], sort_keys=True),
                        r["pass"], r["maxRatio"]])
    return out


def verify_pass(pseed: int, suites, out_dir: Path):
    """``verify --suite all`` in process (or the given suites), then
    ``write_reports``; returns (suite seconds, write seconds, reports.jsonl
    path, summary.csv path)."""
    from lorentz_forge.verify import checks, report

    t0 = clock()
    if suites is None:
        reports = checks.run_suite("all", seed=pseed, level=(5, 5))
    else:
        reports = [r for s in suites for r in checks.run_suite(s, seed=pseed, level=(5, 5))]
    t1 = clock()
    jl, cs = report.write_reports(reports, out_dir)
    return t1 - t0, clock() - t1, Path(jl), Path(cs)


def verify_inputs(pseed: int):
    from lorentz_forge.verify import checks, corpus

    sweep = checks.sweep_corpus(pseed, (5, 5))
    corpus.generate(corpus.CorpusSpec("random_step", (5, 5), 100, pseed))
    corpus.generate_lacunary_pairs((9, 9), 20, pseed)
    corpus.generate_karamata_pairs(500, pseed)
    return sweep


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _CallTimer:
    """Wall time of every call of the named ``verify.checks`` functions.
    With a yardstick, it runs before a call when due, and a call's time
    leaves out the yardstick runs nested in it."""

    def __init__(self, names, yard=None):
        self.names, self.calls, self._undo, self.yard = names, [], [], yard

    def __enter__(self):
        from lorentz_forge.verify import checks

        for name in self.names:
            fn = getattr(checks, name)
            rebind(fn, self._timed(name, fn), self._undo)
        return self

    def __exit__(self, *exc):
        restore(self._undo)

    def _timed(self, name, fn):
        calls, yard = self.calls, self.yard

        def timed(*args, **kwargs):
            if yard is None:
                y0 = 0.0
            else:
                yard.between_ops()
                y0 = yard.spent
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((name, clock() - t0 - (yard.spent - y0 if yard else 0.0)))

        return timed


def run_verify_all(run: Run) -> Result:
    from lorentz_forge.verify import corpus

    res = run.res
    suites = SMALL_SUITES if run.small else None
    ref = load_ref("verify_all")[str(run.pseed)]
    expected = ref["reports"]
    if run.small:
        expected = [e for e in expected if e[0] in SMALL_SUITES]
    held = {}
    passes = harness.Passes()
    shas = []

    def setup():
        held["sweep"] = verify_inputs(run.pseed)

    def one_pass(i, tracer=None):
        names = CHECKS + tuple(f"suite_{s}" for s in SUITES)
        y0 = run.yard.spent if run.yard else 0.0
        with _CallTimer(names, run.yard) as timer:
            read, write, jl, cs = verify_pass(run.pseed, suites, work / f"pass{i}")
        read -= run.yard.spent - y0 if run.yard else 0.0
        got = verify_entries(jl)
        res.attempted += len(expected)
        for j, exp in enumerate(expected):
            if j >= len(got):
                res.fail(f"report {j} missing ({exp[0]} {exp[1]})")
            elif got[j][:3] != exp[:3] or not close_all([got[j][3]], [exp[3]]):
                res.fail(f"report {j}: got {got[j]}, expected {exp}")
        if len(got) > len(expected):
            res.fail(f"{len(got) - len(expected)} unexpected extra reports")
        shas.append((_sha(jl), _sha(cs)))
        if shas[-1] != shas[0]:
            res.fail(f"pass {i}: reports.jsonl/summary.csv differ from pass 0")
        if tracer is None:
            named: dict[str, float] = {}
            for name, dt in timer.calls:
                if name.startswith("suite_"):
                    key = SUITE_METRIC[name[len("suite_"):]]
                    named[key] = named.get(key, 0.0) + dt
            checks_s = [dt for name, dt in timer.calls if name.startswith("check_")]
            passes.add(read + write, read, write, {"check": checks_s}, named)
        return read + write

    with WorkDir(run.root, "verify_all") as work:
        if run.trace:
            setup()
            untraced = one_pass(0)
            run.traced(lambda tr: one_pass(1, tr), setup, untraced)
            # where each suite's traced time went: the three largest self times
            top = {}
            for s in (SMALL_SUITES if run.small else SUITES):
                selfs = subtree_self(run.tracer, f"verify.checks.suite_{s}")
                total = sum(selfs.values())
                top[s] = {"total_s": total, "top_self": [
                    {"span": n, "self_s": v, "share": v / total}
                    for n, v in sorted(selfs.items(), key=lambda kv: -kv[1])[:3]]}
            res.detail["suite_self_top"] = top
        else:
            run.measure("lorentz_forge.verify.checks", setup,
                        lambda: harness.run_passes(run.seconds, one_pass))
            passes.report(res, run.yard)
            res.metrics["peak_rss_mb"] = harness.peak_rss_mb()
            res.detail["workload_metrics"] = {
                k: {"value": statistics.median(v), "unit": "s"} for k, v in passes.named.items()}
    res.detail["corpus_hash"] = corpus.corpus_hash(held["sweep"])
    res.detail["reports_sha256"] = shas[0][0]
    res.detail["reports_sha256_matches_seed_commit"] = \
        None if run.small else shas[0][0] == ref["reports_sha256"]
    return res


# ---------------------------------------------------------------------------
# large_grids

GRID_LEVEL, SMALL_GRID_LEVEL = 10, 6
OPS_PER_PASS, SMALL_OPS_PER_PASS = 4, 2
COEFF_CALLS = ("walsh", "trig")


def make_grid(level: int, grid_seed: int):
    """A seeded random_step grid with its last row and column zeroed, so the
    log-weighted sup norm is finite (it is +inf whenever the rearrangement is
    positive on a cell touching t = 1)."""
    from lorentz_forge.stepfun import DyadicStep2D
    from lorentz_forge.verify.corpus import CorpusSpec, generate

    vals = np.array(generate(CorpusSpec("random_step", (level, level), 1, grid_seed))[0].values)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    return DyadicStep2D((level, level), vals)


def _coeff_summary(entries: np.ndarray) -> list[float]:
    """Checked values of a coefficient matrix.  The weighted sums (fixed
    weights in [1, 2), one per position) and the off-diagonal entries
    change when rows or columns are permuted or the matrix is transposed,
    which the plain sums do not."""
    mag = np.abs(entries)
    w = np.random.default_rng(20_251_215).uniform(1.0, 2.0, entries.shape)
    k1 = entries.shape[0] // 2
    return [float(np.sum(mag**2)), float(np.sum(mag)), float(np.sum(w * mag)),
            float(np.sum(w * entries.real)), float(np.sum(w * entries.imag)),
            *(float(part) for ij in ((0, 0), (1, 0), (0, 1), (k1, 1), (-1, -1))
              for part in (entries[ij].real, entries[ij].imag))]


def _norm_values(doc: dict) -> list[float]:
    return [float(doc["value"])] + [float(x) for x in (doc.get("argmax_eps") or [])]


def large_mix(f):
    """The fixed call mix on one grid: yields (call name, seconds, values)."""
    from lorentz_forge.fourier import (TRIG, WALSH, block_sup_lhs, bochkarev_lhs,
                                       coeffs_2d, te4_lhs)
    from lorentz_forge.interpolation import interp_norm
    from lorentz_forge.norms import Exponents, GrandParams, evaluate_norm_request

    requests = (
        ("lorentz", {"norm": "lorentz", "p": [2, 2], "q": [2, 2]}),
        ("grand_sup", {"norm": "grand", "p": [2, 2], "q": [2, 2], "theta": [0.5, 0.5]}),
        ("grand_inf", {"norm": "grand", "p": [2, 2], "q": ["inf", "inf"],
                       "theta": [-0.5, -0.5]}),
        ("logweight", {"norm": "logweight", "p": [2, 2], "theta": [0.5, 0.5]}),
        ("mixed", {"norm": "mixed", "p": [2, 2]}),
    )
    for name, req in requests:
        t0 = clock()
        doc = evaluate_norm_request(req, f)
        yield name, clock() - t0, _norm_values(doc)
    k = 2 ** f.levels[0]
    t0 = clock()
    a = coeffs_2d(f, WALSH, WALSH, k, k)
    yield "walsh", clock() - t0, _coeff_summary(a.entries)
    t0 = clock()
    b = coeffs_2d(f, TRIG, TRIG, 64, 64)
    yield "trig", clock() - t0, _coeff_summary(b.entries)
    t0 = clock()
    g = te4_lhs(a, Exponents((2, 2), (2, 2)), GrandParams((0.25, 0.25)))
    yield "te4_lhs", clock() - t0, [g.value, *g.eps]
    for name, fn in (("bochkarev_lhs", bochkarev_lhs), ("block_sup_lhs", block_sup_lhs)):
        t0 = clock()
        v = fn(a, (4.0, 4.0))
        yield name, clock() - t0, [v]
    t0 = clock()
    v = interp_norm(f, (0.5, 0.5), (2.0, 2.0))
    yield "interp_norm", clock() - t0, [v]


def large_config(small: bool):
    if small:
        return SMALL_GRID_LEVEL, harness.GRID_POOL[:8], SMALL_OPS_PER_PASS, "large_grids_small"
    return GRID_LEVEL, harness.GRID_POOL, OPS_PER_PASS, "large_grids"


def run_large_grids(run: Run) -> Result:
    res = run.res
    level, pool, per_pass, ref_name = large_config(run.small)
    ref = load_ref(ref_name)["grids"]
    start = (run.seed * 37) % len(pool)
    order = [pool[(start + i) % len(pool)] for i in range(len(pool))]
    passes = harness.Passes()

    for name, _dt, vals in large_mix(make_grid(level, harness.WARMUP_GRID_SEED)):
        if not all(np.isfinite(vals)):
            res.fail(f"warm-up {name}: non-finite {vals}")

    def one_pass(i, tracer=None):
        wall = read = write = 0.0
        ops: dict[str, list[float]] = {}
        for _ in range(per_pass):
            if not order:
                break
            grid_seed = order.pop(0)
            if run.yard:
                run.yard.between_ops()
            t0 = clock()
            f = make_grid(level, grid_seed)
            wall += clock() - t0
            exp = ref[str(grid_seed)]
            for name, dt, vals in large_mix(f):
                wall += dt
                if name in COEFF_CALLS:
                    write += dt
                else:
                    read += dt
                ops.setdefault(name, []).append(dt)
                res.attempted += 1
                if not (all(np.isfinite(vals)) and close_all(vals, exp[name])):
                    res.fail(f"grid {grid_seed} {name}: got {vals}, expected {exp[name]}")
                if run.yard:
                    run.yard.between_ops()
        if tracer is None:
            passes.add(wall, read, write, ops)
        return wall

    def setup():
        make_grid(level, order[0])

    if run.trace:
        untraced = one_pass(0)
        run.traced(lambda tr: one_pass(1, tr), setup, untraced)
    else:
        run.measure("lorentz_forge.fourier", setup, lambda: harness.run_passes(
            run.seconds, one_pass, max_passes=len(pool) // per_pass))
        passes.report(res, run.yard)
        res.metrics["peak_rss_mb"] = harness.peak_rss_mb()
        stats = harness.ms_stats([x for xs in passes.ops.values() for x in xs])
        res.detail["workload_metrics"] = {
            "func_p50_ms": {"value": stats["p50_ms"], "unit": "ms"},
            "func_tail_ms": {"value": stats["tail_ms"], "unit": "ms",
                             "percentile": stats["tail_percentile"],
                             "samples": stats["samples"]},
            "per_call_p50_ms": {k: harness.ms_stats(v)["p50_ms"]
                                for k, v in passes.ops.items()},
        }
    res.detail["grids"] = {"level": level, "ops_per_pass": per_pass,
                           "used": len(pool) - len(order)}
    return res


# ---------------------------------------------------------------------------
# cli_files

CLI_LEVELS, SMALL_CLI_LEVELS = (5, 9), (5,)
NORM_OPS = (
    ("lorentz", ["--kind", "lorentz", "--p", "2", "2", "--q", "2", "2"]),
    ("grand_sup", ["--kind", "grand", "--theta", "0.5", "0.5"]),
    ("grand_inf", ["--kind", "grand", "--q", "inf", "inf", "--theta", "-0.5", "-0.5"]),
    ("mixed", ["--kind", "mixed"]),
    ("logweight", ["--kind", "logweight", "--theta", "0.5", "0.5"]),
    ("p6", ["--kind", "p6", "--theta", "0.5", "0.5"]),
)


def cli_ops(levels):
    """(key, is_write, argv after the program name, output file name or None)."""
    ops = []
    for lv in levels:
        grid = f"grid{lv}.json"
        for name, args in NORM_OPS:
            ops.append((f"{lv}/{name}", False, ["norm", *args, "--in", grid], None))
        k = str(2**lv)
        for name, args in (("walsh", ["--system", "walsh", "walsh", "--K", k, k]),
                           ("trig", ["--system", "trig", "trig", "--K", "64", "64"])):
            out = f"coeffs{lv}_{name}.json"
            ops.append((f"{lv}/{name}", True, ["coeffs", *args, "--in", grid, "--out", out], out))
    return ops


def write_cli_grids(work: Path, pseed: int, levels) -> None:
    from lorentz_forge.stepfun import save_grid

    for lv in levels:
        save_grid(make_grid(lv, pseed), work / f"grid{lv}.json")


def cli_outcome(work: Path, is_write: bool, out_name, stdout_path: Path) -> dict:
    """content_hash and checked values of one op's JSON document."""
    path = work / out_name if is_write else stdout_path
    with open(path) as fh:
        doc = json.load(fh)
    if is_write:
        vals = _coeff_summary(np.array(doc["re"]) + 1j * np.array(doc["im"]))
    else:
        vals = _norm_values(doc)
    return {"content_hash": doc["content_hash"], "values": vals}


def spawn_cli(root: Path, work: Path, argv: list[str], stdout_path: Path,
              trace_path: Path | None):
    """Run one op to completion; returns (exit code, seconds, child peak RSS MiB)."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "lorentz_forge.cli", *argv]
    else:
        cmd = [sys.executable, str(harness.BENCH_DIR / "child.py"), "cli",
               str(trace_path), *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    with open(stdout_path, "w") as out:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(proc.pid, 0)
        dt = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, dt, usage.ru_maxrss / 1024.0


def run_cli_files(run: Run) -> Result:
    res = run.res
    levels = SMALL_CLI_LEVELS if run.small else CLI_LEVELS
    ref = load_ref("cli_files")[str(run.pseed)]
    ops = cli_ops(levels)
    passes = harness.Passes()
    rss: list[float] = []
    imports: list[float] = []

    def one_pass(i, tracer=None):
        wall = read = write = 0.0
        op_s: dict[str, list[float]] = {"read": [], "write": []}
        for n, (key, is_write, argv, out_name) in enumerate(ops):
            stdout_path = work / "stdout.json"
            if run.yard:
                run.yard.between_ops()
            trace_path = work / f"trace{n}.json" if tracer is not None else None
            code, dt, child_rss = spawn_cli(run.root, work, argv, stdout_path, trace_path)
            wall += dt
            if is_write:
                write += dt
            else:
                read += dt
            op_s["write" if is_write else "read"].append(dt)
            if tracer is None:
                res.detail.setdefault("op_ms", {}).setdefault(key, []).append(dt * 1e3)
            res.attempted += 1
            if tracer is None:
                rss.append(child_rss)
            else:
                with open(trace_path) as fh:
                    child = json.load(fh)
                tracer.absorb(child["spans"], child["counts"])
                imports.append(child["import_s"])
            if code != 0:
                res.fail(f"{key}: exit code {code}")
                continue
            got = cli_outcome(work, is_write, out_name, stdout_path)
            exp = ref[key]
            if got["content_hash"] != exp["content_hash"] or \
                    not close_all(got["values"], exp["values"]):
                res.fail(f"{key}: got {got}, expected {exp}")
            if out_name:
                (work / out_name).unlink()
        if tracer is None:
            passes.add(wall, read, write, op_s)
        return wall

    def setup():
        write_cli_grids(work, run.pseed, levels)

    with WorkDir(run.root, "cli_files") as work:
        if run.trace:
            setup()
            untraced = one_pass(0)
            run.traced(lambda tr: one_pass(1, tr), setup, untraced,
                       extra=lambda tr: {"cli.import_s": statistics.median(imports)})
        else:
            run.measure("lorentz_forge.cli", setup,
                        lambda: harness.run_passes(run.seconds, one_pass))
            passes.report(res, run.yard)
            res.metrics["peak_rss_mb"] = max(rss)
            read_ms = harness.ms_stats(passes.ops["read"])
            write_ms = harness.ms_stats(passes.ops["write"])
            stats = harness.ms_stats(passes.ops["read"] + passes.ops["write"])
            res.detail["workload_metrics"] = {
                "cli_read_p50_ms": {"value": read_ms["p50_ms"], "unit": "ms"},
                "cli_write_p50_ms": {"value": write_ms["p50_ms"], "unit": "ms"},
                "cli_tail_ms": {"value": stats["tail_ms"], "unit": "ms",
                                "percentile": stats["tail_percentile"],
                                "samples": stats["samples"]},
            }
    return res


WORKLOADS = {"verify_all": run_verify_all, "large_grids": run_large_grids,
             "cli_files": run_cli_files}

