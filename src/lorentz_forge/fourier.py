"""Fourier coefficients of step functions for bounded orthonormal tensor
systems (complex exponentials and Paley-ordered Walsh functions), block
statistics of the rearranged coefficients, and the log-weighted coefficient
suprema.

Coefficients are exact, and one per-axis operator over stacked items,
:func:`_coeffs_axis`, computes them all: Walsh coefficients are a fast
Walsh-Hadamard transform of the cell values (step functions at level n lie
in the span of the first 2^n Walsh functions), and trigonometric ones
integrate the complex exponentials cell by cell in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .interpolation import beta_from_q
from .norms import (Exponents, GrandNormResult, GrandParams, grand_seq_norm,
                    seq_block_lorentz_norm)
from .rearrange import Sequence2D, _BlockTables, iterated_rearrange_seq_first_index
from .stepfun import DyadicStep2D, _integer, _Memoised, _pair


class ResolutionError(ValueError):
    """Walsh coefficients requested beyond the grid's dyadic resolution."""


@dataclass(frozen=True)
class OrthonormalSystem:
    """A uniformly bounded orthonormal system on [0,1].

    ``kind`` is ``"trig"`` (complex exponentials enumerated by frequency
    0, 1, -1, 2, -2, ...) or ``"walsh"`` (Paley order); both have sup bound 1.
    """

    kind: str
    bound: float = 1.0

    def __post_init__(self):
        if self.kind not in ("trig", "walsh"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if isinstance(self.bound, bool) or not 0 < self.bound < np.inf:
            raise ValueError(f"bound must be a finite number > 0, got {self.bound!r}")


TRIG = OrthonormalSystem("trig")
WALSH = OrthonormalSystem("walsh")
_Q_BLOCK = (lambda qi: qi >= 2, "in [2, inf]")  # the block suprema's q: below 2, +inf


def _systems(pair) -> tuple[OrthonormalSystem, OrthonormalSystem]:
    """``pair`` as two :class:`OrthonormalSystem` objects."""
    if np.shape(pair) != (2,) or not all(isinstance(s, OrthonormalSystem) for s in pair):
        raise ValueError(f"systems must be two OrthonormalSystem objects, got {pair!r}")
    return tuple(pair)


def trig_frequency(i):
    """Frequency of enumeration slot ``i`` (0-based): 0, 1, -1, 2, -2, ...;
    ``i`` may be an integer array."""
    return (i + 1) // 2 * (-1) ** (i + 1)


def _bitrev_perm(n_levels: int) -> np.ndarray:
    """Bit-reversal permutation of ``0 .. 2^n - 1`` over ``n`` bits: the
    ``n``-bit reversal of ``j`` and of ``j + 2^{n-1}`` are twice the
    ``(n-1)``-bit reversal of ``j``, plus 0 and 1."""
    perm = np.zeros(1, dtype=int)
    for _ in range(n_levels):
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    return perm


def fwht(arr: np.ndarray, axis: int) -> np.ndarray:
    """In-order fast Walsh-Hadamard transform (natural/Hadamard order)."""
    a = np.array(np.moveaxis(np.asarray(arr), axis, 0), dtype=float, order="C")
    return np.moveaxis(_fwht_front(a), 0, axis)


def _fwht_front(a: np.ndarray) -> np.ndarray:
    """:func:`fwht` along the first axis of a C ordered float array, which
    it overwrites; returns the transform, ``a`` or a second buffer.

    Each butterfly stage reads one buffer and writes the sums and
    differences into the other.  With the transform axis in front, the two
    halves of a stage's blocks are contiguous ``(h, rest)`` slabs, so a
    stage is one add and one subtract over whole slabs.
    """
    n = len(a)
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    b = np.empty_like(a)
    h = 1
    while h < n:
        shp = (n // (2 * h), 2, -1)
        src, dst = a.reshape(shp), b.reshape(shp)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        a, b = b, a
        h *= 2
    return a


def walsh_on_cells(k, level: int) -> np.ndarray:
    """Values (+-1) of the Paley-ordered Walsh function ``w_k`` on the
    ``2^level`` dyadic cells, the bit-reversed Hadamard transform of the
    unit vector ``e_k``; requires ``0 <= k < 2^level``.  An integer array
    ``k`` gives one row per index."""
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError(f"Walsh index {k} is negative")
    if np.any(k >= 2**level):
        raise ValueError(f"w_{k} is not constant on level-{level} cells")
    unit = (np.arange(2**level) == k[..., None]).astype(float)
    return fwht(unit, axis=-1)[..., _bitrev_perm(level)]


def walsh_synthesize(coeffs: np.ndarray, levels: tuple[int, int]) -> np.ndarray:
    """Cell values of ``sum c[k1,k2] w_{k1}(x1) w_{k2}(x2)`` (Paley order).

    ``coeffs[k1, k2]`` may be signed; the returned array is laid out like
    :class:`~lorentz_forge.stepfun.DyadicStep2D` values (rows = x2-cells).
    """
    n1, n2 = levels
    c = np.zeros((2**n1, 2**n2))
    k1, k2 = coeffs.shape
    if k1 > 2**n1 or k2 > 2**n2:
        raise ResolutionError("coefficients exceed the requested resolution")
    c[:k1, :k2] = coeffs
    vals = fwht(c, axis=0)[_bitrev_perm(n1), :]
    vals = fwht(vals, axis=1)[:, _bitrev_perm(n2)]
    return vals.T  # [j2, j1]


def _exp_cell_integrals(c: np.ndarray, level: int) -> np.ndarray:
    """``int_cell_j exp(c x) dx = (exp(c x_{j+1}) - exp(c x_j)) / c`` (the
    width ``h`` where ``c = 0``) for every ``c`` (any shape) and every
    level-``level`` cell ``j``, on a new last axis."""
    h = 2.0**-level
    edges = np.arange(2**level + 1) * h
    c = c[..., None]
    ph = np.exp(c * edges)
    out = (ph[..., 1:] - ph[..., :-1]) / np.where(c == 0, 1, c)
    np.copyto(out, h, where=c == 0)
    return out


def _trig_cell_matrix(K: int, level: int) -> np.ndarray:
    """``E[k, j] = int_cell_j exp(-2 pi i freq(k) x) dx`` in closed form."""
    return _exp_cell_integrals(-2j * np.pi * trig_frequency(np.arange(K)), level)


def _coeffs_axis(vals: np.ndarray, axis: int, system: OrthonormalSystem,
                 level: int, K: int) -> np.ndarray:
    """The first ``K`` coefficients of ``system`` along the x1 (``axis=-1``)
    or x2 (``axis=-2``) axis of cell values ``vals[..., j2, j1]`` over any
    leading item axes; each item's bits are those of its own call.

    Trig coefficients are products with :func:`_trig_cell_matrix`, on a C
    ordered complex copy on x2, one item at a time: BLAS bits follow a
    call's shape and layout.  Walsh coefficients of complex values are
    ``real + 1j * imag``, and of real ones exact for K <= 2^level.  The
    bit-reversal gather is the copy that puts the axis in front for
    :func:`_fwht_front`, and the scaling is in place.  A butterfly sum of
    ``2^h`` values is at most ``2^h max|v|``, so an item's values that
    could sum past the float range are first divided by the least ``2^k``
    that keeps ``2^level max|v|`` finite, and ``2^k`` joins the final
    ``2^-level``: the power-of-two scalings are exact, and ``k = 0``
    whenever no sum overflows.  The butterflies are elementwise.
    """
    if system.kind == "trig":
        E = _trig_cell_matrix(K, level)
        a = [v @ E.T if axis == -1 else E @ v.astype(complex, order="C")
             for v in vals.reshape((-1,) + vals.shape[-2:])]
        a = np.stack(a) if len(a) > 1 else a[0][None]  # one item: no copy
        return a.reshape(vals.shape[:-2] + a.shape[-2:])
    if np.iscomplexobj(vals):
        return _coeffs_axis(vals.real, axis, system, level, K) + \
            1j * _coeffs_axis(vals.imag, axis, system, level, K)
    if K > 2**level:
        raise ResolutionError(
            f"walsh truncation {K} exceeds resolution 2^{level}; refine first")
    v = np.take(np.moveaxis(vals, axis, 0), _bitrev_perm(level), axis=0)
    # v is (2^level, *items, other); frexp's exponent e gives max|v| < 2^e,
    # and non-finite values keep k = 0
    big = np.maximum(v.max(axis=(0, -1)), -v.min(axis=(0, -1)))
    k = np.maximum(np.frexp(big)[1] + (level - 1024), 0)[..., None]
    if k.any():
        v *= np.ldexp(1.0, -k)
    a = _fwht_front(v)
    a *= np.ldexp(1.0, k - level)
    return np.moveaxis(a[:K], 0, axis)


def _tensor_coeffs(vals: np.ndarray, levels: tuple[int, int],
                   sys1: OrthonormalSystem, sys2: OrthonormalSystem,
                   K1: int, K2: int) -> np.ndarray:
    """The ``sys1 x sys2`` coefficients ``a[..., k2, k1]`` of cell values
    ``vals[..., j2, j1]``, :func:`_coeffs_axis` on x1 and then on x2.  A
    real (Walsh x Walsh) result gets 0.0 added, which turns -0.0 into 0.0
    as adding 0j to a complex one does."""
    a = _coeffs_axis(vals, -1, sys1, levels[0], K1)  # (..., r2, K1)
    a = _coeffs_axis(a, -2, sys2, levels[1], K2)  # (..., K2, K1)
    if not np.iscomplexobj(a):
        a += 0.0
    return a


@dataclass(frozen=True)
class CoeffMatrix(_BlockTables, _Memoised):
    """Truncated double-indexed coefficient array with system metadata.

    ``entries[i1, i2]`` is the coefficient at enumeration slots
    ``(i1 + 1, i2 + 1)``; for Walsh those slots are the Paley indices
    ``(i1, i2)`` directly.  ``entries`` is a read-only 2-D copy of the
    input, at least 1 x 1, and the block tables of the magnitudes (see
    :class:`~lorentz_forge.rearrange._BlockTables`) and the magnitudes
    rearranged first index first are computed on first use and kept with
    the matrix: every block statistic of one matrix reads them.
    """

    system1: OrthonormalSystem
    system2: OrthonormalSystem
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = np.array(self.entries, dtype=complex)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)
        if ent.ndim != 2 or 0 in ent.shape:
            raise ValueError(f"entries must be 2D and nonempty, got shape {ent.shape}")

    @property
    def truncation(self) -> tuple[int, int]:
        return self.entries.shape

    _block_dims = truncation

    @property
    def magnitudes(self) -> Sequence2D:
        return Sequence2D(np.abs(self.entries))

    def _block_magnitudes(self) -> np.ndarray:
        return np.abs(self.entries)

    @cached_property
    def _fun_order(self) -> np.ndarray:
        """The iterated rearrangement of the magnitudes, first index first
        (see :func:`~lorentz_forge.rearrange.iterated_rearrange_seq_first_index`)."""
        return iterated_rearrange_seq_first_index(self.magnitudes).entries


def coeffs_from_values(values: np.ndarray, levels: tuple[int, int],
                       sys1: OrthonormalSystem, sys2: OrthonormalSystem,
                       K1: int, K2: int) -> CoeffMatrix:
    """Coefficients of a (possibly signed) cell-value array.

    The norm side of every check works with magnitudes, but the coefficient
    side may legitimately come from signed synthesis; this entry point keeps
    the two consistent.  The truncations must be integers >= 1 and the
    values a finite ``levels`` grid; Walsh truncations past the grid's
    resolution raise :class:`ResolutionError`.
    """
    sys1, sys2 = _systems((sys1, sys2))
    K1, K2 = (_integer(K, 1, "a truncation") for K in (K1, K2))
    v = np.asarray(values, dtype=float)  # [j2, j1]
    if v.shape != (2 ** levels[1], 2 ** levels[0]):
        raise ValueError(f"values of shape {v.shape} are not a level {levels} grid")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    a = _tensor_coeffs(v, levels, sys1, sys2, K1, K2)
    return CoeffMatrix(sys1, sys2, a.T)  # entries [k1, k2], column-major


def coeffs_2d(f: DyadicStep2D, sys1: OrthonormalSystem, sys2: OrthonormalSystem,
              K1: int, K2: int) -> CoeffMatrix:
    """Exact coefficients of ``f`` for the tensor system ``sys1 x sys2``."""
    return coeffs_from_values(np.asarray(f.values), f.levels, sys1, sys2, K1, K2)


def gram_matrix(system: OrthonormalSystem, count: int, level: int) -> np.ndarray:
    """Gram matrix of the first ``count`` system functions, integrated in
    closed form on a level-``level`` grid (used for orthonormality checks)."""
    _systems((system, system))
    if system.kind == "walsh":
        W = walsh_on_cells(np.arange(count), level)
        return (W @ W.T) * 2.0**-level
    # int phi_m conj(phi_n) = sum over cells of the closed-form integrals of
    # exp(2 pi i (freq(m) - freq(n)) x); on the diagonal the cell widths
    # sum to exactly 1
    freqs = trig_frequency(np.arange(count))
    return _exp_cell_integrals(2j * np.pi * (freqs[:, None] - freqs), level).sum(axis=-1)


def block_l2(a: CoeffMatrix, N1: int, N2: int, order: str = "seq") -> float:
    """l2 norm of the top ``N1 x N2`` block of the rearranged magnitudes.

    ``order="seq"`` rearranges second index first (m2 then m1);
    ``order="fun"`` uses the function-style order (m1 then m2).  Truncated
    matrices under-approximate the full-system block sums, which is the safe
    direction for every upper-bound check.  The block sizes are integers
    ``1 <= N_i <= K_i`` of the truncation ``(K1, K2)``.
    """
    K1, K2 = a.truncation
    N1, N2 = _integer(N1, 1, "N1", K1), _integer(N2, 1, "N2", K2)
    if order not in ("seq", "fun"):
        raise ValueError(f"order must be 'seq' or 'fun', got {order!r}")
    return float(_block_l2_of(a._support if order == "seq" else a._fun_order,
                              N1, N2, a.entries.flags.f_contiguous))


def _block_l2_of(r: np.ndarray, N1: int, N2: int, fortran: bool) -> np.ndarray:
    """:func:`block_l2` from rearranged magnitudes ``r[..., i1, i2]`` (the
    support's or the function order's), shape ``(...)``: the top ``N1 x
    N2`` block, padded with zeros, is summed in the memory order of the
    entries (column-major if ``fortran``), pairwise, so each item's bits
    follow that order as a whole-array sum of its block does."""
    r = r[..., :N1, :N2]
    lead = r.shape[:-2]
    block = np.zeros(lead + ((N2, N1) if fortran else (N1, N2)))
    (block.swapaxes(-1, -2) if fortran else block)[..., :r.shape[-2], :r.shape[-1]] = r
    return np.sqrt(np.square(block).reshape(lead + (N1 * N2,)).sum(axis=-1))


def bochkarev_lhs(a: CoeffMatrix, q: tuple[float, float]) -> float:
    """Log-weighted supremum of cumulative block l2 sums.

    ``sup_{k1,k2} (ln max(k1,2))^{1/q1 - 1/2} (ln max(k2,2))^{1/q2 - 1/2}``
    times the top ``k1 x k2`` block l2 norm of the rearranged magnitudes;
    ``q`` lies in ``[2, inf]^2``."""
    return float(_bochkarev_of(a._table, q, a.truncation))


def _bochkarev_of(S: np.ndarray, q: tuple[float, float],
                  dims: tuple[int, int]) -> np.ndarray:
    """:func:`bochkarev_lhs` from the top-left blocks ``S[..., i1, i2]`` of
    ``dims = (K1, K2)`` block tables of the magnitudes (see
    :class:`~lorentz_forge.rearrange._BlockTables`), shape ``(...)``.

    The weights are taken over all of ``dims`` and cut to the block: for
    ``q >= 2`` they are nondecreasing, so the table's saturated part past
    the block never beats the block's last row or column.
    """
    (K1, K2), (r1, r2) = dims, S.shape[-2:]
    e1, e2 = (0.5 - 1.0 / qi for qi in _pair("q", q, *_Q_BLOCK))
    w1 = np.log(np.maximum(np.arange(1, K1 + 1), 2)) ** e1
    w2 = np.log(np.maximum(np.arange(1, K2 + 1), 2)) ** e2
    vals = np.sqrt(S) / np.outer(w1[:r1], w2[:r2])
    return np.max(vals, axis=(-2, -1))


def block_sup_lhs(a: CoeffMatrix, q: tuple[float, float]) -> float:
    """``sup_n n1^{1/q1-1/2} n2^{1/q2-1/2} [sum over the 2^{n1} x 2^{n2}
    block of (a^{*2,*1})^2]^{1/2}`` over ``n_i >= 1``, ``q`` in ``[2, inf]^2``.

    The bracket saturates once a block covers the stored matrix and the
    weights are nonincreasing for ``q >= 2``, so a finite scan is exact.
    Past ``kappa_i`` the block is the dyadic table's last one, so ``n_i``
    reads the table at ``min(n_i, kappa_i)``.
    """
    return float(_block_sup_of(a._sqrt_table, q))


def _block_sup_of(T: np.ndarray, q: tuple[float, float]) -> np.ndarray:
    """:func:`block_sup_lhs` from dyadic sqrt tables ``T[..., k1, k2]`` of
    the magnitudes (see :func:`~lorentz_forge.rearrange._dyadic_sqrt`),
    shape ``(...)``.

    For ``q < 2`` the weights grow while the bracket saturates, so the
    supremum over a nonzero matrix is ``+inf``, which no finite scan
    reaches: such a ``q`` raises, as in :func:`_bochkarev_of`.
    """
    kap1, kap2 = T.shape[-2] - 1, T.shape[-1] - 1
    e1, e2 = (1.0 / qi - 0.5 for qi in _pair("q", q, *_Q_BLOCK))
    n1 = range(1, max(kap1, 1) + 2)
    n2 = range(1, max(kap2, 1) + 2)
    # Python float powers: numpy's array power can differ in the last bit
    w = np.outer([n**e1 for n in n1], [n**e2 for n in n2])
    vals = w * T[..., np.minimum(n1, kap1)[:, None], np.minimum(n2, kap2)]
    return np.max(vals, axis=(-2, -1))


def te3_lhs(a: CoeffMatrix, p: tuple[float, float], q: tuple[float, float]) -> float:
    """Discrete block-norm left side with weights ``2^{k/p'}`` on the
    normalized brackets of the rearranged coefficient magnitudes."""
    return seq_block_lorentz_norm(a, p, q)


def te4_lhs(a: CoeffMatrix, e: Exponents, gp: GrandParams) -> GrandNormResult:
    """Grand sequence norm of the magnitudes at smoothness ``lambda = theta + beta``,
    ``beta_i = max(1/2, 1/q_i)``, with the damped exponent sign."""
    return grand_seq_norm(a, e, _te4_params(e, gp), sign="minus")


def _te4_params(e: Exponents, gp: GrandParams) -> GrandParams:
    """The smoothness ``lambda = theta + beta`` at which :func:`te4_lhs`
    reads the grand sequence norm."""
    if e.p != (2.0, 2.0):
        raise ValueError(f"defined for p = (2, 2), got {e.p}")
    betas = beta_from_q(e.q)
    return GrandParams((gp.theta[0] + betas[0], gp.theta[1] + betas[1]),
                       eps_levels=gp.eps_levels)
