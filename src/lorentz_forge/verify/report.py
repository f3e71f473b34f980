"""Per-inequality verification records and report writers.

One :class:`CheckReport` per (check, parameter point); serialization is
deterministic (sorted keys, repr floats) so reruns produce byte-identical
files.  The writer encodes each distinct witness object once per call and
splices its text into every line that names it: ``worstWitness`` is the
last of a line's sorted keys, so a line is the report without it, dumped,
followed by the witness text, and equals the dump of the whole report.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

INF = float("inf")


class CheckCase(tuple):
    """One case of a check, ``CheckCase(case_id, lhs, rhs)``: a read-only
    record whose ``ratio``, ``lhs / rhs`` (0 for ``0/0``, ``inf`` for
    ``x/0``), is computed once when the case is made.  A tuple subclass with
    no instance dict: a verify pass makes ~11k cases, and a frozen
    dataclass's per-field ``object.__setattr__`` took twice the time."""

    __slots__ = ()

    def __new__(cls, case_id: str, lhs: float, rhs: float):
        if rhs > 0:
            ratio = lhs / rhs
        else:
            ratio = 0.0 if lhs == 0 else INF
        return tuple.__new__(cls, (case_id, lhs, rhs, ratio))

    case_id = property(itemgetter(0))
    lhs = property(itemgetter(1))
    rhs = property(itemgetter(2))
    ratio = property(itemgetter(3))

    def __getnewargs__(self):
        return self[:3]

    def __repr__(self) -> str:
        return f"CheckCase(case_id={self[0]!r}, lhs={self[1]!r}, rhs={self[2]!r})"


def _worst_index(cases) -> int | None:
    """The index of the worst of ``cases``: the first whose ratio is
    ``nan`` if any is, else the first of the largest ratio; ``None``
    without cases."""
    ratios = [c.ratio for c in cases]
    if not ratios:
        return None
    nans = [i for i, r in enumerate(ratios) if math.isnan(r)]
    return nans[0] if nans else ratios.index(max(ratios))


@dataclass
class CheckReport:
    check_id: str
    params: dict
    corpus_hash: str
    pass_threshold: float
    cases: list[CheckCase] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    worst_witness: dict | None = None

    def worst_case(self) -> CheckCase | None:
        """The case of the largest ratio, the first of them, or the first
        case whose ratio is ``nan`` if any is; ``None`` without cases."""
        i = _worst_index(self.cases)
        return None if i is None else self.cases[i]

    @property
    def max_ratio(self) -> float:
        """The worst case's ratio (``nan`` if any case's is), 0.0 without
        cases."""
        worst = self.worst_case()
        return 0.0 if worst is None else worst.ratio

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.pass_threshold

    def finalize_witness(self) -> None:
        """Name the worst case, ``{"case": id}``, as the witness."""
        worst = self.worst_case()
        if worst is not None:
            self.worst_witness = {"case": worst.case_id}

    def to_json_dict(self) -> dict:
        max_ratio = self.max_ratio
        return {
            "checkId": self.check_id,
            "paramPoint": self.params,
            "corpusHash": self.corpus_hash,
            "cases": [{"id": c.case_id, "lhs": c.lhs, "rhs": c.rhs,
                       "ratio": c.ratio} for c in self.cases],
            "maxRatio": max_ratio,
            "passThreshold": self.pass_threshold,
            "pass": max_ratio <= self.pass_threshold,
            "notes": self.notes,
            "worstWitness": self.worst_witness,
        }


def serialize_grid(f) -> dict:
    """Witness form of a grid; large grids ship levels plus a digest only."""
    import hashlib

    vals = np.asarray(f.values)
    if vals.size <= 4096:
        return {"levels": list(f.levels), "values": vals.tolist()}
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


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, cls=_JsonEncoder)


def write_reports(reports: list[CheckReport], out_dir) -> tuple[Path, Path]:
    """Write JSON-lines reports and the CSV summary; returns both paths.

    Each line is ``json.dumps(r.to_json_dict(), sort_keys=True,
    cls=_JsonEncoder)``, written as the dump of the report without its
    witness with the witness's text spliced in before the closing brace;
    the text of a witness object is encoded once per call, however many
    reports name it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts: dict[int, tuple[object, str]] = {}  # id -> (witness, its text)
    rows = []
    jl = out / "reports.jsonl"
    with open(jl, "w") as fh:
        for r in reports:
            d = r.to_json_dict()
            witness = d.pop("worstWitness")
            # the splice needs the witness to be the last sorted key
            assert all(k < "worstWitness" for k in d)
            if id(witness) not in texts:
                # the witness is kept with its text, so its id stays its own
                texts[id(witness)] = witness, _dumps(witness)
            fh.write(_dumps(d)[:-1])
            fh.write(', "worstWitness": ')
            fh.write(texts[id(witness)][1])
            fh.write("}\n")
            rows.append([r.check_id, _dumps(r.params), repr(float(d["maxRatio"])),
                         repr(float(r.pass_threshold)), int(d["pass"])])
    cs = out / "summary.csv"
    with open(cs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["checkId", "paramPoint", "maxRatio", "threshold", "pass"])
        w.writerows(rows)
    return jl, cs
