"""Nonincreasing rearrangements for step functions and double sequences.

For functions the two passes run first in the x1 variable (each x2-slice
sorted), then in x2; for double-indexed coefficient sequences the passes
run in the reverse order, second index first.  For equal-measure dyadic
cells the decreasing rearrangement is exactly a descending sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stepfun import DyadicStep1D, DyadicStep2D, _as_readonly


@dataclass(frozen=True)
class Sequence2D:
    """Nonnegative double sequence ``a[m1, m2]``, indices starting at 1.

    ``entries[i1, i2]`` holds ``a_{m1 m2}`` with ``m1 = i1 + 1`` and
    ``m2 = i2 + 1`` (magnitudes of coefficients).
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = _as_readonly(self.entries)
        object.__setattr__(self, "entries", ent)
        if ent.ndim != 2:
            raise ValueError(f"entries must be 2D, got shape {ent.shape}")
        if not np.all(np.isfinite(ent)) or np.any(ent < 0):
            raise ValueError("entries must be finite and nonnegative")

    @property
    def dims(self) -> tuple[int, int]:
        return self.entries.shape


def _sort_desc(arr: np.ndarray, axis: int) -> np.ndarray:
    """``arr`` sorted nonincreasing along ``axis``, in one new array: the
    negation is sorted in place and negated back in place."""
    out = np.negative(arr)
    out.sort(axis=axis)
    return np.negative(out, out=out)


def _rearranged_values(v: np.ndarray) -> np.ndarray:
    """Each row of ``v[..., i, j]`` sorted nonincreasing, then each column,
    over any leading item axes: the values of :func:`iterated_rearrange_2d`
    (rows are x2-slices) and the entries of :func:`iterated_rearrange_seq`
    (rows fix ``m1``).  One new array, in the memory layout of ``v``: both
    passes sort the negation in place (the negation of the row-sorted rows
    is the sorted negation), and it is negated back once."""
    out = np.negative(v)
    out.sort(axis=-1)
    out.sort(axis=-2)
    return np.negative(out, out=out)


def rearrange_1d(g: DyadicStep1D) -> DyadicStep1D:
    """Decreasing rearrangement: cell values sorted nonincreasing (exact)."""
    return DyadicStep1D(g.level, _sort_desc(np.asarray(g.values), axis=0))


def distribution_function(g: DyadicStep1D, sigma: float) -> float:
    """Measure of ``{t : g(t) > sigma}`` for ``sigma >= 0``."""
    if sigma < 0:
        raise ValueError(f"threshold must be >= 0, got {sigma}")
    return float(np.count_nonzero(g.values > sigma)) * g.width


def iterated_rearrange_2d(f: DyadicStep2D) -> DyadicStep2D:
    """Iterated rearrangement of a function: x1 pass first, then x2.

    Each row (fixed x2-cell) is sorted nonincreasing along x1, then each
    column (fixed t1-cell) is sorted nonincreasing along x2.  The second
    pass preserves the row-sortedness, so the output is nonincreasing in
    each variable with the other held fixed.
    """
    return DyadicStep2D(f.levels, f.rearranged)


def iterated_rearrange_seq(a: Sequence2D) -> Sequence2D:
    """Iterated rearrangement of a sequence, second index first.

    Each row (fixed ``m1``) is sorted nonincreasing in ``m2``, then each
    column (fixed ``m2``-slot) is sorted nonincreasing in ``m1``.
    """
    return Sequence2D(_rearranged_values(np.asarray(a.entries)))


def iterated_rearrange_seq_first_index(a: Sequence2D) -> Sequence2D:
    """Variant rearranging in ``m1`` first, then ``m2``.

    Kept alongside :func:`iterated_rearrange_seq` so block statistics can be
    reported in both pass orders.
    """
    e = _sort_desc(np.asarray(a.entries), axis=0)
    e = _sort_desc(e, axis=1)
    return Sequence2D(e)
