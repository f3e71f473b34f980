"""Record the reference outputs the benchmark checks against.

Run once, from the root of a checkout of the commit whose outputs are the
reference, and commit the files it writes under perfbench/ref/:

    python3 perfbench/record.py --workload verify_all --jobs 2

Each workload's reference covers every input the benchmark can draw: all
program seeds (verify_all, cli_files) and every pooled grid (large_grids).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from pathlib import Path

import harness

harness.pin_environment(os.environ)


def _init(root: str) -> None:
    sys.path.insert(0, str(Path(root) / "src"))


def _verify(args):
    root, pseed = args
    import workloads

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        _read, _write, jl, _cs = workloads.verify_pass(pseed, None, Path(tmp))
        return str(pseed), {"reports": workloads.verify_entries(jl),
                            "reports_sha256": workloads._sha(jl)}


def _large(args):
    _root, level, grid_seed = args
    import workloads

    f = workloads.make_grid(level, grid_seed)
    return str(grid_seed), {name: vals for name, _dt, vals in workloads.large_mix(f)}


def _cli(args):
    root, pseed = args
    import workloads

    root = Path(root)
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        workloads.write_cli_grids(work, pseed, workloads.CLI_LEVELS)
        out = {}
        for key, is_write, argv, out_name in workloads.cli_ops(workloads.CLI_LEVELS):
            stdout_path = work / "stdout.json"
            code, _dt, _rss = workloads.spawn_cli(root, work, argv, stdout_path, None)
            if code != 0:
                raise RuntimeError(f"seed {pseed} {key}: exit code {code}")
            out[key] = workloads.cli_outcome(work, is_write, out_name, stdout_path)
        return str(pseed), out
    finally:
        shutil.rmtree(work)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("verify_all", "large_grids", "large_grids_small", "cli_files"))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    root = str(Path.cwd())
    _init(root)
    if args.workload == "verify_all":
        fn, items = _verify, [(root, s) for s in harness.PROGRAM_SEEDS]
    elif args.workload == "cli_files":
        fn, items = _cli, [(root, s) for s in harness.PROGRAM_SEEDS]
    else:
        import workloads

        level, pool, _per_pass, _name = workloads.large_config(
            args.workload == "large_grids_small")
        fn, items = _large, [(root, level, k) for k in pool]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs, initializer=_init, initargs=(root,)) as pool:
        entries = dict(pool.map(fn, items))
    doc = {"grids": entries} if args.workload.startswith("large_grids") else entries
    with open(harness.REF_DIR / f"{args.workload}.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
