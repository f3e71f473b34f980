"""Nonincreasing rearrangements for step functions and double sequences.

For functions the two passes run first in the x1 variable (each x2-slice
sorted), then in x2; for double-indexed coefficient sequences the passes
run in the reverse order, second index first.  For equal-measure dyadic
cells the decreasing rearrangement is exactly a descending sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .stepfun import DyadicStep1D, DyadicStep2D, _magnitudes, _Memoised


class _BlockTables:
    """The block tables of an owner's magnitudes ``m[..., i1, i2]``
    (``_block_magnitudes()``, any leading item axes) of size ``(K1, K2)``
    (``_block_dims``), each computed on first use and kept, read-only: every
    block statistic of one object reads them.  ``S[..., i1, i2]``, the square
    sum of the rearranged ``m`` over its top ``(i1 + 1) x (i2 + 1)`` block,
    is built only on the block that holds the rearranged support; past it
    the table repeats its last row and column exactly (adding 0.0), so a
    read at clamped indices gives the full table's bits.
    """

    @cached_property
    def _support(self) -> np.ndarray:
        """The magnitudes' :func:`_rearranged_support`, C ordered; magnitudes
        that are not all finite raise ``ValueError``."""
        m = self._block_magnitudes()
        if not np.isfinite(m.max()):  # magnitudes >= 0: a nan or inf is the max
            raise ValueError("block statistics need finite magnitudes")
        r = _rearranged_support(m)
        if r.base is not None:  # a cut of a larger sort: keep the block only
            r = r.copy()
        r.setflags(write=False)
        return r

    @cached_property
    def _table(self) -> np.ndarray:
        """The block table on :attr:`_support` (see :func:`_support_table`)."""
        S = _support_table(self._support)
        S.setflags(write=False)
        return S

    @cached_property
    def _sqrt_table(self) -> np.ndarray:
        """The dyadic sqrt table of the magnitudes (see :func:`_dyadic_sqrt`)."""
        T = _dyadic_sqrt(self._table, self._block_dims)
        T.setflags(write=False)
        return T


@dataclass(frozen=True)
class Sequence2D(_BlockTables, _Memoised):
    """Nonnegative double sequence ``a[m1, m2]``, indices starting at 1.

    ``entries[i1, i2]`` holds ``a_{m1 m2}`` with ``m1 = i1 + 1`` and
    ``m2 = i2 + 1`` (magnitudes of coefficients).  Its block tables are
    kept with it (see :class:`_BlockTables`).
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = _magnitudes(self.entries, name="entries")
        if ent.ndim != 2 or 0 in ent.shape:
            raise ValueError(f"entries must be 2D and nonempty, got shape {ent.shape}")
        object.__setattr__(self, "entries", ent)

    @property
    def dims(self) -> tuple[int, int]:
        return self.entries.shape

    _block_dims = dims

    def _block_magnitudes(self) -> np.ndarray:
        return self.entries


# the rows of the sort buffer are padded by this many values: a pass down
# the columns of a 2^k-wide array steps a power of two and keeps landing in
# the same few cache sets, which costs 2-4x the pass on a padded pitch
_PAD = 8

# the input is copied into the sort buffer in strips of this many lines of
# its outer axis in memory, so a transposing copy reads contiguous strips
# and steps the padded pitch, not the input's
_STRIP = 32


def _rearranged_values(v: np.ndarray) -> np.ndarray:
    """Each row of ``v[..., i, j]`` sorted nonincreasing, then each column,
    over any leading item axes: the values of :func:`iterated_rearrange_2d`
    (rows are x2-slices) and the entries of :func:`iterated_rearrange_seq`
    (rows fix ``m1``).  Returns a new C ordered array, whatever the layout
    of ``v``, which is not written.

    Both passes sort the negation in a buffer on a padded row pitch (see
    ``_PAD``): the rows along the contiguous axis, then the columns across
    it (the negation of the row-sorted rows is the sorted negation), and
    the result is negated back once, in the same buffer.  Sorts are exact,
    so the values do not depend on the layout.
    """
    n = v.shape[-1]
    rows = v.size // n
    buf = np.empty(rows * (n + _PAD))
    out = buf.reshape(v.shape[:-1] + (n + _PAD,))[..., :n]
    src, dst = (v, out) if v.strides[-2] >= v.strides[-1] else \
        (v.swapaxes(-1, -2), out.swapaxes(-1, -2))
    for i in range(0, src.shape[-2], _STRIP):
        np.negative(src[..., i:i + _STRIP, :], out=dst[..., i:i + _STRIP, :])
    out.sort(axis=-1)
    out.sort(axis=-2)
    # negated back into the front of the buffer at pitch n, so the result
    # takes no second array: each row moves to a lower address, and numpy
    # buffers a strip whose source and destination overlap
    padded, dense = out.reshape(rows, n), buf[:rows * n].reshape(rows, n)
    for i in range(0, rows, _STRIP):
        np.negative(padded[i:i + _STRIP], out=dense[i:i + _STRIP])
    # then the buffer shrinks in place to the result, once no view of it is
    # left: results of the padded size leave blocks of an odd size that the
    # allocator keeps, ~15 MB more peak memory over a run of level-10 grids.
    # The del drops every view of buf, so the resize skips numpy's
    # reference count check, which a profiler or tracer holding one more
    # reference to buf (a bound method, a frame's locals) would fail
    del out, dst, padded, dense
    buf.resize(v.shape, refcheck=False)
    return buf


def _rearranged_support(m: np.ndarray) -> np.ndarray:
    """The iterated rearrangement of magnitudes ``m[..., i1, i2]`` on the
    top-left block that holds its support in every item (at least 1 x 1).

    A row of ``m`` that is zero in every item sinks below the nonzero ones
    in the column pass, and no column reaches past the longest nonzero row,
    so the rearrangement is zero outside that block: the zero rows are
    dropped before the sort, and the columns past the support after it.
    """
    live = np.any(m > 0, axis=-1).reshape(-1, m.shape[-2]).any(axis=0)
    if not live.all():  # the zero rows go; an all-zero table keeps one
        m = m[..., live, :] if live.any() else m[..., :1, :]
    r = _rearranged_values(m)
    cols = max(1, int(np.count_nonzero(r[..., 0, :], axis=-1).max()))
    return r if cols == r.shape[-1] else r[..., :cols]


def _support_table(r: np.ndarray) -> np.ndarray:
    """The block tables of rearranged magnitudes ``r[..., i1, i2]``: the
    squares summed down each column, then along each row, in one new C
    ordered array (the readers' weight tables are C ordered, and a mixed
    layout makes their broadcasts several times slower).

    The column sums run one row at a time, each row of squares added in
    place to the running sums above it: a pass down the columns of a
    ``2^k``-wide table steps a power of two and keeps landing in the same
    few cache sets (see :data:`_PAD`), and it takes no second table.  Each
    running sum adds in order, as ``cumsum`` does, so the bits do not
    depend on the pass order or the layout.
    """
    S = np.square(r, order="C")
    for i in range(1, S.shape[-2]):
        np.add(S[..., i - 1, :], S[..., i, :], out=S[..., i, :])
    return np.cumsum(S, axis=-1, out=S)


def _dyadic_sqrt(S: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """``sqrt(S)`` over the top ``2^{k1} x 2^{k2}`` blocks, ``k_i =
    0..kappa_i`` with ``kappa_i = ceil(log2 K_i)``, of ``dims = (K1, K2)``
    block tables, from their top-left blocks ``S[..., i1, i2]`` (see
    :class:`_BlockTables`).  Dimensions are implicitly zero-padded to
    powers of two, so the table saturates at the true totals."""
    idx1, idx2 = (np.minimum(2 ** np.arange((K - 1).bit_length() + 1), n) - 1
                  for K, n in zip(dims, S.shape[-2:]))
    return np.sqrt(S[..., idx1[:, None], idx2])


def rearrange_1d(g: DyadicStep1D) -> DyadicStep1D:
    """Decreasing rearrangement: cell values sorted nonincreasing (exact)."""
    return DyadicStep1D(g.level, _rearranged_values(g.values[None])[0])


def distribution_function(g: DyadicStep1D, sigma: float) -> float:
    """Measure of ``{t : g(t) > sigma}`` for ``sigma >= 0``."""
    if not sigma >= 0:
        raise ValueError(f"threshold sigma must be >= 0, got {sigma}")
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
    return Sequence2D(_rearranged_values(a.entries.T).T)
