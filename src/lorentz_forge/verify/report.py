"""Per-inequality verification records and report writers.

One :class:`CheckReport` per (check, parameter point); serialization is
deterministic (sorted keys, repr floats) so reruns produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INF = float("inf")


@dataclass(frozen=True)
class CheckCase:
    case_id: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else INF


@dataclass
class CheckReport:
    check_id: str
    params: dict
    corpus_hash: str
    pass_threshold: float
    cases: list[CheckCase] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    worst_witness: dict | None = None

    @property
    def max_ratio(self) -> float:
        return max((c.ratio for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.pass_threshold

    def finalize_witness(self, witness_of) -> None:
        """Attach the serialized worst case via ``witness_of(case_id)``."""
        if not self.cases:
            return
        worst = max(self.cases, key=lambda c: c.ratio)
        self.worst_witness = witness_of(worst.case_id)

    def to_json_dict(self) -> dict:
        return {
            "checkId": self.check_id,
            "paramPoint": self.params,
            "corpusHash": self.corpus_hash,
            "cases": [{"id": c.case_id, "lhs": c.lhs, "rhs": c.rhs,
                       "ratio": c.ratio} for c in self.cases],
            "maxRatio": self.max_ratio,
            "passThreshold": self.pass_threshold,
            "pass": self.passed,
            "notes": self.notes,
            "worstWitness": self.worst_witness,
        }


def serialize_grid(f) -> dict:
    """Witness form of a grid; large grids ship levels plus a digest only."""
    import hashlib

    vals = np.asarray(f.values)
    if vals.size <= 4096:
        return {"levels": list(f.levels), "values": [list(map(float, r)) for r in vals]}
    return {"levels": list(f.levels),
            "sha256": hashlib.sha256(np.ascontiguousarray(vals)).hexdigest(),
            "note": "values omitted (large); regenerate from the corpus spec"}


class _JsonEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def write_reports(reports: list[CheckReport], out_dir) -> tuple[Path, Path]:
    """Write JSON-lines reports and the CSV summary; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jl = out / "reports.jsonl"
    with open(jl, "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True,
                                cls=_JsonEncoder))
            fh.write("\n")
    cs = out / "summary.csv"
    with open(cs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["checkId", "paramPoint", "maxRatio", "threshold", "pass"])
        for r in reports:
            w.writerow([r.check_id,
                        json.dumps(r.params, sort_keys=True, cls=_JsonEncoder),
                        repr(float(r.max_ratio)), repr(float(r.pass_threshold)),
                        int(r.passed)])
    return jl, cs
