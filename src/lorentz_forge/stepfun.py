"""Exact algebra and integration for dyadic piecewise-constant functions.

Functions live on ``[0,1)`` (or ``[0,1)^2``) subdivided into ``2^n`` equal
dyadic cells per axis and are extended by zero outside.  Values are
nonnegative magnitudes; callers feed ``|f|``.  Every weighted integral the
norm machinery needs reduces to closed-form sums of the power primitive
``int t^{c-1} dt`` over cells, so downstream inequality checks carry only
binary64 rounding error, never quadrature error.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np


class DivergentIntegralError(ValueError):
    """Raised when a requested weighted integral diverges at the origin."""


def _integer(n, least: int = 0, name: str = "a level", most=math.inf) -> int:
    """``n`` as an integer (not a bool) in ``[least, most]``, by default a
    grid level; the error names it ``name``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not least <= n <= most:
        bound = "" if most == math.inf else f" and <= {most}"
        raise ValueError(f"{name} must be an integer >= {least}{bound}, got {n!r}")
    return int(n)


def _as_readonly(arr, name: str = "values") -> np.ndarray:
    """``arr`` as a read-only float array; the error names it ``name``."""
    try:
        out = np.array(arr, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    out.setflags(write=False)
    return out


class _Memoised:
    """Base of the frozen dataclasses that keep per-object preparation in
    cached properties.  Their arrays are read-only owned copies, so a memo
    stays valid as long as the object.  Pickling and copying keep the
    fields only: a copy prepares its own."""

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DyadicStep1D:
    """Step function on [0,1): cell ``j`` covers ``[j/2^level, (j+1)/2^level)``.

    ``level`` is an integer >= 0 and ``values`` must have length
    ``2**level`` and hold finite nonnegative magnitudes.
    """

    level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "level", _integer(self.level))
        vals = _as_readonly(self.values)
        object.__setattr__(self, "values", vals)
        if vals.shape != (2**self.level,):
            raise ValueError(
                f"values shape {vals.shape} does not match 2^{self.level} cells"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("values must be finite and nonnegative")

    @property
    def width(self) -> float:
        return 2.0 ** -self.level


@dataclass(frozen=True)
class DyadicStep2D(_Memoised):
    """Step function on [0,1)^2 over a ``2^{n1} x 2^{n2}`` dyadic grid.

    ``values[j2, j1]`` is the value on the rectangle
    ``[j1/2^{n1}, (j1+1)/2^{n1}) x [j2/2^{n2}, (j2+1)/2^{n2})``; rows index
    the second variable (x2-slices), columns the first.  Queries outside
    ``[0,1)^2`` return 0 (implicit zero extension).  The levels are
    integers >= 0.  ``values`` is a read-only copy of the input, and
    :attr:`rearranged` is computed on first use and kept with the grid.
    """

    levels: tuple[int, int]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            n1, n2 = self.levels
        except (TypeError, ValueError):
            raise ValueError(f"levels must be two integers, got {self.levels!r}") from None
        n1, n2 = _integer(n1), _integer(n2)
        vals = _as_readonly(self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "levels", (n1, n2))
        if vals.shape != (2**n2, 2**n1):
            raise ValueError(
                f"values shape {vals.shape} does not match (2^{n2}, 2^{n1})"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("values must be finite and nonnegative")

    @property
    def widths(self) -> tuple[float, float]:
        n1, n2 = self.levels
        return 2.0**-n1, 2.0**-n2

    @cached_property
    def rearranged(self) -> np.ndarray:
        """The values of the iterated rearrangement (see
        :func:`~lorentz_forge.rearrange.iterated_rearrange_2d`), C ordered
        and read-only: every norm that reads the rearranged function reads
        this array."""
        from .rearrange import _rearranged_values  # rearrange imports this module

        out = _rearranged_values(self.values)
        out.setflags(write=False)
        return out


def constant_grid(c: float, levels: tuple[int, int] = (0, 0)) -> DyadicStep2D:
    """Constant function ``f = c`` at the requested resolution."""
    n1, n2 = map(_integer, levels)
    return DyadicStep2D((n1, n2), np.full((2**n2, 2**n1), float(c)))


def indicator_grid(a1: float, a2: float, levels: tuple[int, int]) -> DyadicStep2D:
    """Indicator of the dyadic rectangle ``[0,a1) x [0,a2)``.

    The corners are finite and >= 0, and ``a1 * 2^{n1}`` and ``a2 * 2^{n2}``
    must be integers; a corner past 1 clips, as the zero extension says.
    """
    n1, n2 = map(_integer, levels)
    for name, a, n in (("a1", a1, n1), ("a2", a2, n2)):
        if not 0 <= a < math.inf:
            raise ValueError(f"corner {name} must be finite and >= 0, got {a!r}")
        if a % 2.0**-n:  # exact: a multiple of 2^-n leaves 0
            raise ValueError("corner must be dyadic at the requested level")
    vals = np.zeros((2**n2, 2**n1))
    vals[: int(min(a2, 1) * 2**n2), : int(min(a1, 1) * 2**n1)] = 1.0
    return DyadicStep2D((n1, n2), vals)


def power_weight_integral(c: float, a: float, b: float) -> float:
    """``int_a^b t^{c-1} dt`` in closed form.

    Equals ``(b^c - a^c)/c`` for ``c != 0`` and ``ln(b/a)`` for ``c == 0``;
    ``a > 0`` is required when ``c <= 0`` (the integral diverges otherwise).
    """
    if not (0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
    if c == 0:
        if a == 0:
            raise DivergentIntegralError("int t^{-1} dt diverges at 0")
        return math.log(b / a)
    if c < 0 and a == 0:
        raise DivergentIntegralError(f"int t^({c}-1) dt diverges at 0")
    return (b**c - a**c) / c


def evaluate(f: DyadicStep2D, t1: float, t2: float) -> float:
    """Value of the cell containing ``(t1, t2)``; 0 once either coordinate >= 1.

    Arguments must be strictly positive.
    """
    if not (t1 > 0 and t2 > 0):
        raise ValueError(f"t1, t2 must be positive, got ({t1}, {t2})")
    if t1 >= 1 or t2 >= 1:
        return 0.0
    n1, n2 = f.levels
    j1 = min(int(t1 * 2**n1), 2**n1 - 1)
    j2 = min(int(t2 * 2**n2), 2**n2 - 1)
    return float(f.values[j2, j1])


def weighted_integral_1d(g: DyadicStep1D, c: float, a: float, b: float) -> float:
    """``int_a^b t^{c-1} g(t) dt`` computed cell-exactly.

    Requires ``0 <= a < b <= 1``; for ``c <= 0`` the lower limit must be
    positive unless ``g`` vanishes on the cells touching 0.
    """
    if not (0 <= a < b <= 1):
        raise ValueError(f"need 0 <= a < b <= 1, got ({a}, {b})")
    if c <= 0 and a == 0 and g.values[0] > 0:
        raise DivergentIntegralError(
            "weight t^{c-1} with c <= 0 is not integrable down to 0"
        )
    h = g.width
    edges = np.arange(len(g.values) + 1) * h
    lo = np.maximum(edges[:-1], a)
    hi = np.minimum(edges[1:], b)
    total = 0.0
    for v, lo_j, hi_j in zip(g.values, lo, hi):
        if hi_j <= lo_j or v == 0.0:
            continue
        total += v * power_weight_integral(c, lo_j, hi_j)
    return total


def refine(f: DyadicStep2D, new_levels: tuple[int, int]) -> DyadicStep2D:
    """Value-preserving subdivision to a finer dyadic grid."""
    n1, n2 = f.levels
    m1, m2 = new_levels
    if m1 < n1 or m2 < n2:
        raise ValueError(f"cannot coarsen {f.levels} to {new_levels}")
    vals = np.repeat(f.values, 2 ** (m2 - n2), axis=0)
    vals = np.repeat(vals, 2 ** (m1 - n1), axis=1)
    return DyadicStep2D((m1, m2), vals)


def save_grid(f: DyadicStep2D, path) -> None:
    """Write the grid file format: levels plus rows in x2-major order.
    ``json.dumps`` takes the C encoder (``json.dump`` never does); the bytes
    are the same."""
    doc = {"levels": list(f.levels), "values": f.values.tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_grid(path) -> DyadicStep2D:
    """Read a grid file written by :func:`save_grid`; a document without
    integer ``levels`` and a matching ``values`` array raises ``ValueError``."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return DyadicStep2D(doc["levels"], doc["values"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a grid document: {exc!r}") from exc


def _hash_into(h, f) -> None:
    """Feed one grid, or one ``(coeffs, grid)`` pair, to the hash ``h`` as
    :func:`corpus_hash` does, or let an item with a ``hash_into`` method
    feed its own record.  ``hashlib`` reads a C ordered array's buffer
    directly, the bytes ``tobytes`` would copy out."""
    if hasattr(f, "hash_into"):
        f.hash_into(h)
        return
    if isinstance(f, tuple):  # (coeffs, function) pairs
        h.update(np.ascontiguousarray(f[0].entries))
        f = f[1]
    h.update(bytes(str(f.levels), "ascii"))
    h.update(np.ascontiguousarray(f.values))


def corpus_hash(funcs) -> str:
    """SHA-256 over the concatenated levels and cell values of a corpus of
    grids, or of ``(coeffs, grid)`` pairs; a sequence of lacunary pairs is
    one record (:meth:`~lorentz_forge.verify.corpus.LacunaryPairs.hash_into`)."""
    import hashlib

    h = hashlib.sha256()
    for f in funcs:
        _hash_into(h, f)
    return h.hexdigest()
