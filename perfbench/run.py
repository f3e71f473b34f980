"""Benchmark of lorentz-forge.  Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 7 --seconds 24 --trace 0

Workloads: verify_all, large_grids, cli_files (see workloads.py).  The last
line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics when ``--trace 0`` and the
per-layer metrics of a traced run when ``--trace 1``.  The line before it
is ``detail: {...}``: machine facts, the workload's own figures and any
mismatches.  Exit code 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import harness

# Before numpy loads anywhere: BLAS/OpenMP pinned to one thread.
harness.pin_environment(os.environ)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("verify_all", "large_grids", "cli_files"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrunk configuration for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = harness.checkout_src(root)
    if src is None:
        sys.stderr.write(f"error: no lorentz_forge sources under {root / 'src'}; "
                         "run from the root of a lorentz-forge checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import lorentz_forge

    if Path(lorentz_forge.__file__).resolve().parent != (src / "lorentz_forge").resolve():
        sys.stderr.write(f"error: lorentz_forge imported from {lorentz_forge.__file__}, "
                         f"not from {src}\n")
        return 2

    import workloads
    from tracer import PER_LAYER

    run = workloads.Run(root, args.seed, args.seconds, bool(args.trace), args.small)
    res = workloads.WORKLOADS[args.workload](run)
    res.detail.update({"workload": args.workload, "seed": args.seed,
                       "program_seed": run.pseed, "trace": args.trace,
                       "small": args.small, "machine": harness.machine_facts(),
                       "fail_frac": res.failed / max(res.attempted, 1),
                       "mismatches": res.mismatches})
    if args.trace:
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(run.tracer.spans, fh)
    print("detail: " + json.dumps(res.detail, sort_keys=True))
    print(res.line(PER_LAYER if args.trace else harness.E2E_UNITS))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
