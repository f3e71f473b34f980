"""Spans and counters recorded around the public functions of each layer.

The program carries no tracing of its own.  :class:`Tracer` rebinds each
traced function at every name a ``lorentz_forge`` module binds it under (for
example ``verify.checks.grand_lorentz_norm`` and ``fourier.grand_seq_norm``),
so calls made between layers pass through a wrapper.  A span records its
name, start, end and parent; spans stay in memory until the run ends.  A
function called more than 10^5 times per pass gets a counter only.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time

import numpy as np


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid_attrs(*args, **kwargs):
    f = _arg(args, kwargs, 0, "f")
    return {"cells": int(f.values.size), "digest": _digest(f.levels, f.values)}


def _seq_attrs(*args, **kwargs):
    a = _arg(args, kwargs, 0, "a")
    return {"cells": int(a.entries.size), "digest": _digest(a.entries)}


def _coeffs_attrs(*args, **kwargs):
    f = _arg(args, kwargs, 0, "f")
    key = [_arg(args, kwargs, i, n).kind if i < 3 else _arg(args, kwargs, i, n)
           for i, n in ((1, "sys1"), (2, "sys2"), (3, "K1"), (4, "K2"))]
    return {"cells": int(f.values.size), "digest": _digest(f.levels, f.values, key)}


def _khat_attrs(*args, **kwargs):
    f = _arg(args, kwargs, 0, "f")
    t1s = np.asarray(_arg(args, kwargs, 1, "t1s"), dtype=float)
    t2s = np.asarray(_arg(args, kwargs, 2, "t2s"), dtype=float)
    return {"digest": _digest(f.levels, f.values, t1s, t2s)}


def _corpus_bytes(*args, **kwargs):
    total = 0
    for f in _arg(args, kwargs, 0, "funcs"):
        if isinstance(f, tuple):
            total += f[0].entries.nbytes
            f = f[1]
        total += f.values.nbytes
    return {"bytes": total}


def _file_bytes(*args, **kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _written_bytes(out):
    return {"bytes": sum(os.path.getsize(p) for p in out)}


def _hash_digest(out):
    return {"digest": out}


# (span name, module, attribute, attributes before the call, attributes of the result)
SPANS = [
    ("norms.grand_seq_norm", "lorentz_forge.norms", "grand_seq_norm", None, None),
    ("norms.grand_lorentz_norm", "lorentz_forge.norms", "grand_lorentz_norm", None, None),
    ("norms.lorentz_norm", "lorentz_forge.norms", "lorentz_norm", None, None),
    ("norms.seq_block_lorentz_norm", "lorentz_forge.norms", "seq_block_lorentz_norm", None, None),
    ("norms.logweight_sup_norm", "lorentz_forge.norms", "logweight_sup_norm", None, None),
    ("norms.mixed_lebesgue_norm", "lorentz_forge.norms", "mixed_lebesgue_norm", None, None),
    ("fourier.coeffs_2d", "lorentz_forge.fourier", "coeffs_2d", _coeffs_attrs, None),
    ("fourier.walsh_synthesize", "lorentz_forge.fourier", "walsh_synthesize", None, None),
    ("fourier.bochkarev_lhs", "lorentz_forge.fourier", "bochkarev_lhs", None, None),
    ("fourier.block_sup_lhs", "lorentz_forge.fourier", "block_sup_lhs", None, None),
    ("fourier.block_l2", "lorentz_forge.fourier", "block_l2", None, None),
    ("rearrange.iterated_rearrange_2d", "lorentz_forge.rearrange", "iterated_rearrange_2d",
     _grid_attrs, None),
    ("rearrange.iterated_rearrange_seq", "lorentz_forge.rearrange", "iterated_rearrange_seq",
     _seq_attrs, None),
    ("interpolation.khat_grid", "lorentz_forge.interpolation", "khat_grid", _khat_attrs, None),
    ("interpolation.interp_norm", "lorentz_forge.interpolation", "interp_norm", None, None),
    ("stepfun.load_grid", "lorentz_forge.stepfun", "load_grid", _file_bytes, None),
    ("stepfun.save_grid", "lorentz_forge.stepfun", "save_grid", None, None),
    ("verify.corpus.corpus_hash", "lorentz_forge.verify.corpus", "corpus_hash",
     _corpus_bytes, _hash_digest),
    ("verify.corpus.generate", "lorentz_forge.verify.corpus", "generate", None, None),
    ("verify.corpus.generate_lacunary_pairs", "lorentz_forge.verify.corpus",
     "generate_lacunary_pairs", None, None),
    ("verify.report.write_reports", "lorentz_forge.verify.report", "write_reports",
     None, _written_bytes),
    ("cli.cmd_norm", "lorentz_forge.cli", "cmd_norm", None, None),
    ("cli.cmd_coeffs", "lorentz_forge.cli", "cmd_coeffs", None, None),
]
HARDY = ("hardy_descent_lhs", "hardy_descent_rhs", "hardy_ascent_lhs", "hardy_ascent_rhs")
SPANS += [(f"verify.hardy.{n}", "lorentz_forge.verify.hardy", n, None, None) for n in HARDY]
CHECKS = ("check_karamata", "check_mink", "check_hardy", "check_le3", "check_te3",
          "check_te4", "check_thm5", "check_embeddings_chain", "check_p1_monotone",
          "check_collapse", "check_logweight_equiv", "check_interp_chain")
SPANS += [(f"verify.checks.{n}", "lorentz_forge.verify.checks", n, None, None) for n in CHECKS]
SUITES = ("karamata", "mink", "hardy", "le3", "te3", "te4", "thm5", "embeddings", "interp")
SPANS += [(f"verify.checks.suite_{n}", "lorentz_forge.verify.checks", f"suite_{n}", None, None)
          for n in SUITES]



def _batch_points(*args, **kwargs) -> int:
    return len(_arg(args, kwargs, 3, "a1s")) * len(_arg(args, kwargs, 4, "a2s"))


# (counter name, module, attribute, points per call or None for one).
# power_weight_integral: about 1.2M calls per verify_all pass.  The norm
# cores count the epsilon points a grand norm evaluates: one per
# _seq_block_core or _lorentz_core call, a whole grid per _lorentz_core_batch.
COUNTERS = [
    ("stepfun.power_weight_integral", "lorentz_forge.stepfun", "power_weight_integral", None),
    ("norms.seq_block_points", "lorentz_forge.norms", "_seq_block_core", None),
    ("norms.lorentz_core_points", "lorentz_forge.norms", "_lorentz_core", None),
    ("norms.lorentz_core_points", "lorentz_forge.norms", "_lorentz_core_batch", _batch_points),
]
# span name -> (attribute, counter): the attribute is how far the counter
# moved during the span
SPAN_COUNTS = {
    "norms.grand_seq_norm": ("eps_points", "norms.seq_block_points"),
    "norms.grand_lorentz_norm": ("eps_points", "norms.lorentz_core_points"),
}


def rebind(old, new, undo: list) -> None:
    """Point every ``lorentz_forge`` binding of ``old`` (module globals and the
    suite table) at ``new``; ``undo`` collects what to restore."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name != "lorentz_forge" and not name.startswith("lorentz_forge."):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
                undo.append((vars(mod), key, old))
    checks = sys.modules.get("lorentz_forge.verify.checks")
    if checks is not None:
        for key, val in list(checks._SUITES.items()):
            if val is old:
                checks._SUITES[key] = new
                undo.append((checks._SUITES, key, old))


def restore(undo: list) -> None:
    for ns, key, old in reversed(undo):
        ns[key] = old
    undo.clear()


class Tracer:
    """In-memory spans ``[name, start, end, parent, attrs, excluded_s]`` and
    call counters.  Time spent computing span attributes (digests, byte
    counts) is charged to ``excluded_s`` of the enclosing span, so it does
    not count as that span's self time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for name, modname, attr, pre, post in SPANS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            rebind(fn, self._span(name, fn, pre, post), self._undo)
        for name, modname, attr, points in COUNTERS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            rebind(fn, self._counter(name, fn, points), self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    def _span(self, name, fn, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        attr, counter = SPAN_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            attrs = None
            if pre is not None:
                o0 = clock()
                attrs = pre(*args, **kwargs)
                if parent >= 0:
                    spans[parent][5] += clock() - o0
            rec = [name, 0.0, 0.0, parent, attrs, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            before = counts.get(counter, 0)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = {**(rec[4] or {}), attr: counts[counter] - before}
            if post is not None:
                o0 = clock()
                rec[4] = {**(rec[4] or {}), **post(out)}
                if parent >= 0:
                    spans[parent][5] += clock() - o0
            return out

        return traced

    def _counter(self, name, fn, points):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1 if points is None else points(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def absorb(self, spans: list[list], counts: dict) -> None:
        """Append spans recorded in another process (parents re-indexed)."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            if rec[3] >= 0:
                rec[3] += base
            self.spans.append(rec)
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


def _child_seconds(spans: list[list]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_s[rec[3]] += rec[2] - rec[1]
    return child_s


def layer_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, self and total seconds, summed attributes and
    the number of distinct input digests."""
    spans = tracer.spans
    child_s = _child_seconds(spans)
    table: dict[str, dict] = {}
    digests: dict[str, set] = {}
    for i, (name, t0, t1, _parent, attrs, excluded) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_s[i] - excluded
        for key, val in (attrs or {}).items():
            if key == "digest":
                digests.setdefault(name, set()).add(val)
            else:
                row[key] = row.get(key, 0) + val
    for name, ds in digests.items():
        table[name]["distinct"] = len(ds)
    for name, n in tracer.counts.items():
        table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})["calls"] += n
    return table


def subtree_self(tracer: Tracer, root_name: str) -> dict[str, float]:
    """Self seconds by span name inside every span called ``root_name``."""
    spans = tracer.spans
    inside = [False] * len(spans)
    out: dict[str, float] = {}
    child_s = _child_seconds(spans)
    for i, (name, t0, t1, parent, _attrs, excluded) in enumerate(spans):
        inside[i] = name == root_name or (parent >= 0 and inside[parent])
        if inside[i]:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child_s[i] - excluded
    return out


# per_layer metrics in BENCHMARK.json order: name -> unit.  A name is
# "<span prefix>.<field>"; the prefix selects every span named by it or
# nested under it with a dot (verify.hardy covers the four displays).
PER_LAYER = {}
for _p in ("norms.grand_seq_norm", "norms.grand_lorentz_norm"):
    PER_LAYER.update({f"{_p}.calls": "count", f"{_p}.self_s": "s", f"{_p}.eps_points": "count"})
for _p in ("lorentz_norm", "seq_block_lorentz_norm", "logweight_sup_norm",
           "mixed_lebesgue_norm"):
    PER_LAYER.update({f"norms.{_p}.calls": "count", f"norms.{_p}.self_s": "s"})
PER_LAYER.update({"fourier.coeffs_2d.calls": "count", "fourier.coeffs_2d.self_s": "s",
                  "fourier.coeffs_2d.cells": "count",
                  "fourier.coeffs_2d.distinct_ratio": "ratio"})
for _p in ("walsh_synthesize", "bochkarev_lhs", "block_sup_lhs", "block_l2"):
    PER_LAYER[f"fourier.{_p}.self_s"] = "s"
for _p in ("iterated_rearrange_2d", "iterated_rearrange_seq"):
    PER_LAYER.update({f"rearrange.{_p}.calls": "count", f"rearrange.{_p}.self_s": "s",
                      f"rearrange.{_p}.cells": "count",
                      f"rearrange.{_p}.distinct_ratio": "ratio"})
PER_LAYER.update({
    "interpolation.khat_grid.calls": "count",
    "interpolation.khat_grid.self_s": "s",
    "interpolation.khat_grid.distinct_ratio": "ratio",
    "interpolation.interp_norm.self_s": "s",
    "verify.hardy.self_s": "s",
    "stepfun.power_weight_integral.calls": "count",
    "verify.corpus.corpus_hash.calls": "count",
    "verify.corpus.corpus_hash.bytes": "B",
    "verify.corpus.corpus_hash.distinct_ratio": "ratio",
    "verify.corpus.corpus_hash.self_s": "s",
    "verify.corpus.generate.self_s": "s",
    "verify.corpus.generate_lacunary_pairs.self_s": "s",
})
for _p in CHECKS:
    PER_LAYER[f"verify.checks.{_p}.self_s"] = "s"
PER_LAYER.update({
    "verify.report.write_reports.self_s": "s",
    "verify.report.write_reports.bytes": "B",
    "stepfun.load_grid.self_s": "s",
    "stepfun.load_grid.bytes": "B",
    "stepfun.save_grid.self_s": "s",
    "cli.import_s": "s",
    "cli.cmd_norm.self_s": "s",
    "cli.cmd_coeffs.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


def per_layer_metrics(table: dict[str, dict], extra: dict[str, float]) -> dict:
    """name -> value for every PER_LAYER metric; ``extra`` supplies the ones
    not derived from spans (cli.import_s, trace.*)."""
    out = {}
    for metric in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        prefix, fld = metric.rsplit(".", 1)
        rows = [r for n, r in table.items() if n == prefix or n.startswith(prefix + ".")]
        if fld == "distinct_ratio":
            calls = sum(r["calls"] for r in rows)
            val = sum(r.get("distinct", 0) for r in rows) / calls if calls else 0.0
        else:
            val = sum(r.get(fld, 0) for r in rows)
        out[metric] = val
    return out
