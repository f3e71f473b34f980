"""Command-line surface: compute norms and coefficients for grid files and
run the verification suites.

Outputs are a pure function of (input files, flags, seed); every document
embeds the resolved configuration and a content hash of its inputs.  Exit
codes: 0 success (and all checks passed for ``verify``), 1 failed checks,
2 bad arguments/files, 3 requested Walsh truncation beyond the grid
resolution.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .fourier import TRIG, WALSH, ResolutionError, coeffs_2d
from .norms import GRID_KINDS, evaluate_norm_request, mixed_lebesgue_norm
from .stepfun import DyadicStep2D, corpus_hash, load_grid


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` spells it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _matrix_json(m: np.ndarray, depth: int) -> Iterator[str]:
    """``json.dumps(m.tolist(), indent=2)`` for a nonempty 2-D float array
    nested ``depth`` levels deep, one piece per row, without the
    pure-Python encoder that ``indent`` forces: one number per line."""
    fmt = float.__repr__ if np.isfinite(m).all() else _json_float
    outer = "\n" + "  " * (depth + 1)
    inner = outer + "  "
    sep = "[" + outer
    for row in m:
        yield sep + "[" + inner + ("," + inner).join(map(fmt, row.tolist())) + outer + "]"
        sep = "," + outer
    yield "\n" + "  " * depth + "]"


def _json_chunks(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` in pieces, for a
    nonempty document in which 2-D float arrays stand for nested lists
    (see :func:`_matrix_json`)."""
    sep = "{\n  "
    for key in sorted(doc):
        val = doc[key]
        yield f"{sep}{json.dumps(key)}: "
        if isinstance(val, np.ndarray):
            yield from _matrix_json(val, 1)
        else:
            yield json.dumps(val, sort_keys=True, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}\n"


def _emit(doc: dict, out_path, fmt: str) -> None:
    if fmt == "csv":
        vals = (v.tolist() if isinstance(v, np.ndarray) else v for v in doc.values())
        lines = [",".join(map(str, doc.keys())), ",".join(map(repr, vals))]
        chunks = ["\n".join(lines) + "\n"]
    else:
        chunks = _json_chunks(doc)
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _add_common(sp):
    sp.add_argument("--in", dest="inp", metavar="PATH", help="input grid file (JSON)")
    sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
    sp.add_argument("--format", default="json", choices=("json", "csv"),
                    help="output format")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lorentz-forge",
        description="norms, coefficients and inequality verification for "
                    "dyadic step functions on [0,1)^2")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="compute a norm of a grid file",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    norm.add_argument("--kind", required=True, choices=GRID_KINDS)
    norm.add_argument("--p", nargs=2, default=["2", "2"], metavar="F",
                      help="integrability exponents (use 'inf' for infinity)")
    norm.add_argument("--q", nargs=2, default=["2", "2"], metavar="F",
                      help="fineness exponents (use 'inf' for infinity)")
    norm.add_argument("--theta", nargs=2, type=float, default=[0.0, 0.0],
                      metavar="F", help="grand smoothness weights")
    norm.add_argument("--J", type=int, default=24,
                      help="epsilon grid depth for grand norms")
    _add_common(norm)

    co = sub.add_parser("coeffs", help="compute a coefficient dump",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    co.add_argument("--system", nargs=2, default=["walsh", "walsh"],
                    choices=("trig", "walsh"), metavar="NAME",
                    help="per-axis system: trig or walsh")
    co.add_argument("--K", nargs=2, type=int, default=[8, 8], metavar="N",
                    help="truncation per axis")
    _add_common(co)

    ver = sub.add_parser("verify", help="run a verification suite",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ver.add_argument("--suite", required=True, help="suite name, or 'all'")
    ver.add_argument("--seed", type=int, default=7, help="corpus seed")
    ver.add_argument("--level", nargs=2, type=int, default=[5, 5],
                     metavar="N", help="dyadic level of the random corpora")
    ver.add_argument("--out", default="reports", help="report directory")
    return ap


def _load(path) -> DyadicStep2D:
    if not path:
        raise FileNotFoundError("missing --in grid file")
    return load_grid(path)


def cmd_norm(args) -> int:
    f = _load(args.inp)
    req = {"norm": args.kind, "p": args.p, "q": args.q,
           "theta": args.theta, "epsJ": args.J}
    res = evaluate_norm_request(req, f)
    doc = {"config": req, "content_hash": corpus_hash([f]), **res}
    _emit(doc, args.out, args.format)
    return 0


def cmd_coeffs(args) -> int:
    f = _load(args.inp)
    systems = [TRIG if name == "trig" else WALSH for name in args.system]
    K1, K2 = args.K
    a = coeffs_2d(f, systems[0], systems[1], K1, K2)
    doc = {
        "config": {"system": args.system, "K": [K1, K2]},
        "content_hash": corpus_hash([f]),
        "system": args.system,
        "K": [K1, K2],
        "re": a.entries.real,
        "im": a.entries.imag,
    }
    if all(s.kind == "walsh" for s in systems):
        doc["parseval_residual"] = _parseval_residual(f, a.entries)
    _emit(doc, args.out, args.format)
    return 0


def _parseval_residual(f: DyadicStep2D, entries: np.ndarray) -> float:
    """``|sum |a|^2 - ||f||_2^2|`` taken on ``f`` and ``a`` scaled by ``2^-k``,
    ``2^k`` just above the largest value (``k = 0`` below 1), so no square
    overflows; the power-of-two scaling is exact, and the residual is
    scaled back."""
    k = max(math.frexp(f.values.max())[1], 0)
    r = abs(np.sum((np.abs(entries) * 2.0**-k) ** 2)
            - math.ldexp(mixed_lebesgue_norm(f, (2, 2)), -k) ** 2)
    try:
        return math.ldexp(r, 2 * k)
    except OverflowError:  # the residual itself exceeds the float range
        return math.inf


def cmd_verify(args) -> int:
    from .verify.checks import run_suite
    from .verify.report import write_reports

    # an unusable report directory fails here, before any suite runs
    Path(args.out).mkdir(parents=True, exist_ok=True)
    reports = run_suite(args.suite, seed=args.seed, level=args.level)
    jl, cs = write_reports(reports, args.out)
    npass = sum(r.passed for r in reports)
    sys.stdout.write(f"{npass}/{len(reports)} checks passed; "
                     f"reports: {jl}, summary: {cs}\n")
    return 0 if npass == len(reports) else 1


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "norm":
            return cmd_norm(args)
        if args.command == "coeffs":
            return cmd_coeffs(args)
        return cmd_verify(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:  # json.JSONDecodeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
