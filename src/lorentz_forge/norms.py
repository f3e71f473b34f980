"""Scalar norms: mixed Lebesgue, anisotropic Lorentz, grand Lorentz (both
signs), the discrete grand sequence norm, the log-weighted sup form, and the
dyadic sup characterization used as a cross-check oracle.

Conventions
-----------
* Exponent components live in ``(0, inf]``; an infinite component turns the
  corresponding integral (or sum) into a supremum.
* All integrals reduce to closed-form power-weight sums over dyadic cells;
  a divergent integral yields ``+inf``, never an exception.
* Every nested (q1, q2) norm, here and in the interpolation norm, is weight
  rows plus one :func:`_nested` call: a norm only builds its rows
  (:func:`_power_cells` for the Lorentz cells, :func:`_block_cells` for the
  dyadic blocks, the sample weights for interp), and :func:`_nested` runs
  the two stages.  A stage at finite q is separable (:func:`_sep_stage`):
  the values and the weights are each divided by their row's largest entry
  and raised to the q-th power once, and the sums are one contraction of
  the two (:func:`_sum_products`), so all the epsilon rows of a grand norm
  share one power of the data.  Every other stage is the direct
  :func:`_stage`: blocks of value rows, flattened over the item axes, times
  one weight row at a time in one reused cache-sized buffer, q-summed
  there by :func:`_qsum` (at ``q = inf``, a maximum of products, reduced
  with ``fmax`` from 0 in place).  It runs a ``q = inf`` stage, the entries
  the separable form does not take (a weight or value row that is not
  finite, a sum lost to underflow) and a right side of the Hardy displays.
  Both stages sum C ordered copies of the value rows, so the bits do not
  depend on the input's memory layout.  The stages factor out the largest
  values, so the norms stay finite and 1-homogeneous at every exponent
  they accept; :func:`_qsum` and the ``fmax`` of :func:`_stage` are the
  only places where ``0 * inf = 0``.  The mixed Lebesgue norm, whose
  weights are constants, calls :func:`_qsum` directly.  The Hardy left
  sides take their per-cell power integrals from :func:`_power_cells` and
  scale the profile by its largest value instead.
* Grand norms search a geometric epsilon grid ``2^-j, j = 0..J``.  The
  sup-form grid maximum under-approximates the true supremum and the
  inf-form grid minimum over-approximates the true infimum; the direction
  is reported with the value.  A zero smoothness component adds the grid
  point ``eps = 0`` so the collapse to the plain Lorentz norm is exact.
* A grand norm is an epsilon surface and a pick.  The surface
  (:func:`_lorentz_surface`, :func:`_seq_surface`) is the epsilon axes and
  the value matrix over them, one call of the core, which takes one exponent
  axis per coordinate; the plain norms are its one-point case.  It does not
  depend on theta, only on the key :func:`_surface_key` (form, grid depth,
  which theta_i are zero).  :func:`_grand_pick` applies the ``eps^theta``
  weights, so one surface serves every theta with its key.
* Each public norm reads what is prepared of its input and passes it to a
  ``_*_of`` or ``_*_surface`` function: the rearranged values of a grid
  are kept on the grid (:attr:`DyadicStep2D.rearranged`), so the norms of
  one grid share one rearrangement, and the block tables of a sequence, a
  coefficient matrix or a sweep's stack are kept on it (see
  :class:`~lorentz_forge.rearrange._BlockTables`): the sequence norms read
  ``a._sqrt_table`` of whichever they are given.  No pass walks down the
  columns of a ``2^k``-wide array, whose power-of-two steps collide in the
  cache: the rearrangement sorts on a padded row pitch, the block table
  sums down its columns one row at a time, and both return new C ordered
  arrays (see :func:`~lorentz_forge.rearrange._rearranged_values` and
  :func:`~lorentz_forge.rearrange._support_table`).  A parameter sweep
  prepares a stack of inputs once and calls the same functions.  The
  cores, those functions and :func:`_grand_pick` take leading item axes:
  ``(..., r2, r1)`` values give ``(...)`` norms and ``(..., m1, m2)``
  surfaces, each item's entries bitwise equal to its own call, so one call
  serves a stack of same-shape functions.  The public norms take one function and return a float.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .rearrange import Sequence2D
from .stepfun import DyadicStep2D, _integer

INF = float("inf")
_LN2 = math.log(2.0)


def _exponent_pair(name: str, pair) -> tuple[float, float]:
    """``pair`` as two floats, after checking that both lie in ``(0, inf]``."""
    if len(pair) != 2 or any(not (x > 0) for x in pair):
        raise ValueError(f"{name} components must be positive, got {pair}")
    return float(pair[0]), float(pair[1])


@dataclass(frozen=True)
class Exponents:
    """Integrability/fineness parameter bundle ``(p, q)``, components in (0, inf]."""

    p: tuple[float, float]
    q: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "p", _exponent_pair("p", self.p))
        object.__setattr__(self, "q", _exponent_pair("q", self.q))

    def conjugate(self, i: int) -> float:
        """Conjugate exponent ``p_i'`` with ``1/p_i + 1/p_i' = 1`` (needs p_i >= 1)."""
        pi = self.p[i]
        if pi < 1:
            raise ValueError(f"conjugate undefined for p={pi} < 1")
        if pi == 1:
            return INF
        if pi == INF:
            return 1.0
        return pi / (pi - 1.0)


_DEPTH_MAX = 1074  # past it 2^-j is 0.0: a deeper grid only repeats 0


@dataclass(frozen=True)
class GrandParams:
    """Smoothness weights and epsilon-search configuration for grand norms.

    ``theta`` components must share one sign: both >= 0 selects the sup form,
    both < 0 the inf form.  ``eps_levels`` is the geometric grid depth J
    (grid ``2^-j, j=0..J``), an integer in ``[0, 1074]``.
    """

    theta: tuple[float, float]
    eps_levels: int = 24

    def __post_init__(self):
        t1, t2 = self.theta
        if t1 != t1 or t2 != t2:
            raise ValueError(f"theta components must be numbers, got {self.theta}")
        if (t1 < 0) != (t2 < 0):
            raise ValueError(f"mixed-sign theta {self.theta} is not defined")
        object.__setattr__(self, "eps_levels", _integer(self.eps_levels, 0, "eps_levels",
                                                         _DEPTH_MAX))
        object.__setattr__(self, "theta", (float(t1), float(t2)))

    @property
    def sup_form(self) -> bool:
        return self.theta[0] >= 0


@dataclass(frozen=True)
class GrandNormResult:
    """Grand norm value with the witnessing epsilon pair and approximation side."""

    value: float
    eps: tuple[float, float]
    direction: str  # "under" | "over" | "exact"

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# the weighted stage


def _qsum(base: np.ndarray, omega, q: float, itemwise: bool = False) -> np.ndarray:
    """``(sum base^q omega)^{1/q}`` along the last axis; ``max(base)`` at
    ``q = inf``.  With ``itemwise``, the roots ``^{1/q}`` are taken one sum
    at a time on numpy scalars (libm ``pow``), as the sum of a single row
    takes them: numpy's array power runs a SIMD loop whose last bit can
    differ.

    The sum is taken as ``M (sum (base/M)^q omega)^{1/q}`` with ``M`` the
    largest base, so a finite value never overflows or underflows; callers
    put every factor raised to ``q`` into ``base`` and pass the bounded rest
    as ``omega``.  A zero base contributes 0 whatever its weight, and so
    does a ``nan`` base, which is a zero value times an infinite weight
    (``0 * inf = 0``, here and in the ``fmax`` of :func:`_stage` only); an
    infinite base, or an infinite weight on a positive base, gives
    ``+inf``.
    """
    M = np.fmax.reduce(base, axis=-1, keepdims=True, initial=0.0)
    if q == INF:
        return M[..., 0]
    with np.errstate(invalid="ignore", over="ignore"):
        t = base / M
        t **= q
        t *= omega
        t[~(base > 0)] = 0.0
        s = t.sum(axis=-1)
        if itemwise:
            root = np.array([x ** (1.0 / q) for x in s.flat]).reshape(np.shape(s))
        else:
            root = s ** (1.0 / q)
        out = M[..., 0] * root
    # a nan is inf/inf or an underflowed positive term times an infinite
    # weight: both mean a positive base meets a divergence
    return np.where(np.isnan(out), INF, out)


# the direct stage multiplies blocks of value rows by one weight row at a
# time into one reused buffer of about this many cells (256 KiB), which
# stays in cache
_STAGE_CELLS = 2**15

# a separable sum below this may have lost terms to underflow (the largest
# value and the largest weight sit in different cells and both q-th powers
# are tiny), so its entry is summed directly instead
_TINY = 2.0**-900


def _stage(vals: np.ndarray, sup: np.ndarray, omega: np.ndarray,
           q: float) -> np.ndarray:
    """The q-sums of the rows of ``(..., R, n)`` values against ``(m, n)``
    weight rows ``(sup, omega)``, as :func:`_qsum` takes them (the values
    times ``sup`` as the base): an ``(..., m, R)`` array.

    This is the direct form: the value rows, flattened over the item axes,
    go in blocks of about ``_STAGE_CELLS`` cells, and each weight row's
    products with a block are written into one reused C ordered buffer and
    q-summed there (at ``q = inf`` reduced with ``fmax`` from 0 in place,
    as :func:`_qsum` does).  An entry depends on its own value row and
    weight row only, and each row of the buffer is summed pairwise whatever
    the layout of ``vals``, so its bits do not depend on the block, the
    other rows or items, or that layout.  :func:`_nested` calls it at
    ``q = inf``, :func:`_sep_stage` for the entries the separable form does
    not take, and the Hardy right sides directly.
    """
    n = vals.shape[-1]
    v = vals.reshape(-1, n)
    out = np.empty((len(sup), len(v)))
    buf = np.empty((min(len(v), max(1, _STAGE_CELLS // n)), n))
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan base counts as 0
        for i in range(0, len(v), len(buf)):
            blk = v[i:i + len(buf)]
            b = buf[:len(blk)]
            for k, s in enumerate(sup):
                np.multiply(blk, s, out=b)
                if q == INF:
                    np.fmax.reduce(b, axis=-1, initial=0.0, out=out[k, i:i + len(blk)])
                else:
                    out[k, i:i + len(blk)] = _qsum(b, omega[k], q)
    return out.reshape(len(sup), *vals.shape[:-1]).transpose(_rows_axes(vals.ndim))


@functools.cache
def _rows_axes(ndim: int) -> tuple[int, ...]:
    """The axes of ``np.moveaxis(a, 0, -2)`` for an ``ndim``-axis ``a``, as
    ``a.transpose`` takes them (a fraction of ``moveaxis``' cost)."""
    return (*range(1, ndim - 1), 0, ndim - 1)


def _sep_stage(vals: np.ndarray, sup: np.ndarray, omega: np.ndarray,
               q: float) -> np.ndarray:
    """:func:`_stage` of values ``>= 0`` at finite ``q`` in the separable
    form: with ``D`` a value row's largest entry and ``W`` a weight row's
    largest ``sup``,

        ``sum_j (d_j s_j)^q omega_j = (D W)^q sum_j (d_j/D)^q (s_j/W)^q omega_j``,

    so the data's q-th power is taken once for all the weight rows, and the
    sums are one contraction of ``(d/D)^q`` with ``(s/W)^q omega``.  Three
    kinds of entry go to the direct :func:`_stage` instead, so that no
    ``inf`` or ``nan`` enters the contraction and the ``_qsum`` rules
    (``0 * inf = 0``, divergence) apply as they are: those of weight rows
    with a non-finite ``sup`` or ``omega``, those of value rows whose
    largest entry is not finite, and those whose separable sum falls below
    ``_TINY`` or whose value overflows.

    Each entry's bits depend on its value row and weight row only, not on
    how many rows or items the call holds, nor on the layout of ``vals``:
    the scaled values are a C ordered copy.
    """
    wok = np.isfinite(sup).all(axis=-1) & np.isfinite(omega).all(axis=-1)
    if not wok.all():
        out = np.empty(vals.shape[:-2] + (len(sup), vals.shape[-2]))
        out[..., ~wok, :] = _stage(vals, sup[~wok], omega[~wok], q)
        if wok.any():
            out[..., wok, :] = _sep_stage(vals, sup[wok], omega[wok], q)
        return out
    R, n = vals.shape[-2:]
    D = vals.max(axis=-1)
    vok = np.isfinite(D)
    Dn = np.where(vok & (D > 0), D, 1.0)  # a zero row sums to zero
    A = np.divide(vals, Dn[..., None], order="C")
    if not vok.all():
        A[~vok] = 0.0
    A **= q
    W = sup.max(axis=-1)
    Wn = np.where(W > 0, W, 1.0)
    with np.errstate(over="ignore"):  # an overflow is redone below
        S = _sum_products(A, (sup / Wn[:, None]) ** q * omega)  # (..., m, R)
        val = S ** (1.0 / q) * Wn[:, None] * Dn[..., None, :]
    redo = ~vok[..., None, :] | ~np.isfinite(val) | \
        ((S < _TINY) & (D > 0)[..., None, :] & (W > 0)[:, None])
    if redo.any():
        # the value rows with an entry to redo, summed directly: an entry of
        # _stage depends on its own value row and weight row only
        vf, redo = val.reshape(-1, *val.shape[-2:]), redo.reshape(-1, *val.shape[-2:])
        i, r = np.nonzero(redo.any(axis=-2))
        direct = _stage(vals.reshape(-1, R, n)[i, r], sup, omega, q)
        vf[i, :, r] = np.where(redo[i, :, r], direct.T, vf[i, :, r])
    return val


# the contraction of the separable stage sums chunks of this many products
# in order, then the chunk sums pairwise
_CHUNK = 64


def _sum_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``sum_j A[..., r, j] B[i, j]`` as an ``(..., i, r)`` array, for a C
    ordered ``A``.

    Each sum is its own dot products, one per chunk of ``_CHUNK`` values of
    ``j`` (the last chunk padded with zeros), added pairwise, so its bits do
    not depend on how many rows or items the call holds, and its error
    stays near that of numpy's pairwise sum.  A BLAS product is faster, but
    the bits of its entries change with the shape of the call, and one dot
    product per entry sums in order: on a 512-cell row with equal terms,
    4x (BLAS) to 20x (``einsum``) the error of a pairwise sum.
    """
    n = A.shape[-1]
    b = min(n, _CHUNK)
    c = -(-n // b)
    if c * b > n:
        A = np.concatenate([A, np.zeros(A.shape[:-1] + (c * b - n,))], axis=-1)
        B = np.concatenate([B, np.zeros((len(B), c * b - n))], axis=-1)
    P = np.einsum("...rcj,icj->...irc", A.reshape(A.shape[:-1] + (c, b)),
                  B.reshape(len(B), c, b))
    return P.sum(axis=-1)


def _nested(vals: np.ndarray, w1, w2) -> np.ndarray:
    """The nested norms of ``(..., r2, r1)`` values ``>= 0``: one stage
    over the last axis with the weights ``w1 = (sup, omega, q)``, ``m1``
    rows of ``r1`` entries, then one over ``r2`` with ``w2``.  Returns an
    ``(..., m1, m2)`` array.

    A stage at finite ``q`` is :func:`_sep_stage`; at ``q = inf``, a
    maximum of products, it is the direct :func:`_stage`.
    """
    for sup, omega, q in (w1, w2):
        vals = (_stage if q == INF else _sep_stage)(vals, sup, omega, q)
    return vals.swapaxes(-1, -2)


def _power_cells(a: np.ndarray, n: int, h: float, q: float):
    """The weight ``t^a`` on the cells ``(jh, (j+1)h]``, ``j < n``, one row
    per exponent in ``a``, as :func:`_qsum` takes it: ``(sup, omega)`` with
    ``sup = x^a`` the supremum of ``t^a`` on the cell (``x`` its right end
    for ``a >= 0``, its left end for ``a < 0``) and
    ``omega = int_cell t^{aq-1} dt / x^{aq} = (1 - (j/(j+1))^{|a|q}) / (|a|q)``.

    ``omega`` is 1 at ``q = inf``.  Where the integral diverges at 0, the
    first cell's ``omega`` (``a = 0``) or ``sup`` (``a < 0``) is ``+inf``;
    so is its ``omega = 1/(|a|q)`` when that overflows.
    """
    a = np.asarray(a, dtype=float)[:, None]
    right = np.arange(1, n + 1) * h
    left = right - h
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # row by row with a float exponent: numpy's elementwise pow over an
        # exponent array can be 1 ulp off the scalar-exponent path that a
        # one-exponent call takes, and every row keeps that call's bits
        sup = np.array([(left if ai < 0 else right) ** ai
                        for ai in a[:, 0].tolist()]).reshape(len(a), n)
        if q == INF:
            return sup, np.ones_like(sup)
        c = np.abs(a) * q
        lr = np.log(left / right)  # -inf on the first cell
        x = c * lr
        # the c -> 0 limit -lr where c |lr| is zero or subnormal, as there
        # expm1(x) / c keeps too few digits
        omega = np.where((c == 0) | (np.abs(x) < np.finfo(float).tiny),
                         -lr, -np.expm1(x) / c)
    return sup, omega


# kept although it is one call of the batch core: perfbench's tracer binds
# _lorentz_core, _lorentz_core_batch and _seq_block_core by name
def _lorentz_core(g: np.ndarray, h1: float, h2: float,
                  a1: float, a2: float, q1: float, q2: float) -> np.ndarray:
    """The 1x1 case of :func:`_lorentz_core_batch`, shape ``(...)``."""
    return _lorentz_core_batch(g, h1, h2, np.array([a1]), np.array([a2]),
                               q1, q2)[..., 0, 0]


def _lorentz_core_batch(g: np.ndarray, h1: float, h2: float,
                        a1s: np.ndarray, a2s: np.ndarray,
                        q1: float, q2: float) -> np.ndarray:
    """Nested weighted integrals of rearranged value matrices ``g[..., j2, j1]``
    over exponent grids, ``out[..., i, j]`` at ``(a1, a2) = (a1s[i], a2s[j])``.

    Computes ``( int ( int (t1^a1 t2^a2 g)^{q1} dt1/t1 )^{q2/q1} dt2/t2 )^{1/q2}``
    with sup forms replacing infinite ``q`` components: :func:`_nested` over
    the :func:`_power_cells` weights.  Returns ``+inf`` on divergence.
    """
    r2, r1 = g.shape[-2:]
    return _nested(g, (*_power_cells(a1s, r1, h1, q1), q1),
                   (*_power_cells(a2s, r2, h2, q2), q2))


# ---------------------------------------------------------------------------
# public norms


def mixed_lebesgue_norm(f: DyadicStep2D, p: tuple[float, float]) -> float:
    """Mixed-norm Lebesgue value: inner L^{p1} in x1, outer L^{p2} in x2,
    ``p`` components in ``(0, inf]``."""
    return float(_mixed_of(np.asarray(f.values), f.widths, _exponent_pair("p", p)))


def _mixed_of(vals: np.ndarray, widths: tuple[float, float],
              p: tuple[float, float]) -> np.ndarray:
    """:func:`mixed_lebesgue_norm` from values ``vals[..., j2, j1]`` and
    cell widths, shape ``(...)``; each item's bits are those of its own
    call on values in the same layout.  The inner sums run in the layout of
    ``vals``: pairwise along a contiguous axis, in order down one that is
    not (as on a transposed grid's column-major copy).  The outer roots are
    taken item by item (see :func:`_qsum`)."""
    h1, h2 = widths
    return _qsum(_qsum(vals, h1, p[0]), h2, p[1], itemwise=True)


def lorentz_norm(f: DyadicStep2D, e: Exponents) -> float:
    """Anisotropic Lorentz norm built from the iterated rearrangement.

    Weights ``t1^{1/p1} t2^{1/p2}`` against ``dt/t`` measures, inner integral
    in t1 with exponent q1, outer in t2 with q2; infinite ``q`` components
    become per-cell-exact suprema.  Divergence reports ``+inf``.
    """
    return float(_lorentz_of(f.rearranged, f.widths, e))


def _lorentz_of(g: np.ndarray, widths: tuple[float, float],
                e: Exponents) -> np.ndarray:
    """:func:`lorentz_norm` from rearranged values ``g[..., j2, j1]`` and
    cell widths, shape ``(...)``."""
    return _lorentz_core(g, *widths, 1.0 / e.p[0], 1.0 / e.p[1], e.q[0], e.q[1])


def _eps_grid(levels: int, cap: float) -> np.ndarray:
    """The points ``2^-j <= cap``, ``j = 0..levels``, led by ``cap`` itself."""
    grid = 2.0 ** -np.arange(levels + 1)
    grid = grid[grid <= cap]
    if cap not in grid:
        grid = np.concatenate([[cap], grid])
    return grid


def _surface_key(gp: GrandParams) -> tuple:
    """What the epsilon surface of a grand norm reads of ``gp``: the form,
    the grid depth and which ``theta_i`` are zero.  The surface is the same
    for every ``gp`` with the same key; only :func:`_grand_pick` reads
    ``theta`` itself."""
    return gp.sup_form, gp.eps_levels, (gp.theta[0] == 0, gp.theta[1] == 0)


def _eps_axes(levels: int, zeros, caps) -> list[np.ndarray]:
    """Per axis, the epsilon grid ``2^-j <= cap_i`` (see :func:`_eps_grid`);
    a zero ``theta_i`` (``zeros[i]``) adds the point ``eps = 0``."""
    return [np.concatenate([_eps_grid(levels, cap), [0.0]]) if z
            else _eps_grid(levels, cap) for z, cap in zip(zeros, caps)]


def _grand_pick(axes: list[np.ndarray], vals: np.ndarray,
                gp: GrandParams) -> tuple[np.ndarray, np.ndarray]:
    """The grid optimum of ``eps1^t1 eps2^t2 vals[..., i, j]`` over the
    epsilon ``axes`` (``0^0 = 1``): the maximum in the sup form, an
    under-approximation, and the minimum in the inf form, an
    over-approximation.  Returns the optima, shape ``(...)``, and the
    witnessing ``(eps1, eps2)``, shape ``(..., 2)``.  A weight past the
    float range (the inf form's ``eps^theta``) reads ``inf``, and times a
    zero value gives 0."""
    e1, e2 = axes
    with np.errstate(over="ignore", invalid="ignore"):
        obj = vals * np.outer(e1 ** gp.theta[0], e2 ** gp.theta[1])
    np.copyto(obj, vals, where=vals == 0)  # 0 * inf is 0 here
    obj = obj.reshape(obj.shape[:-2] + (-1,))
    k = (np.argmax if gp.sup_form else np.argmin)(obj, axis=-1)
    i, j = np.unravel_index(k, vals.shape[-2:])
    return (np.take_along_axis(obj, k[..., None], axis=-1)[..., 0],
            np.stack([e1[i], e2[j]], axis=-1))


def _grand_of(surface, gp: GrandParams) -> GrandNormResult:
    """One function's grand norm from its epsilon ``surface``, the axes and
    the value matrix (see :func:`_grand_pick`)."""
    value, eps = _grand_pick(*surface, gp)
    return GrandNormResult(float(value), tuple(eps.tolist()),
                           "under" if gp.sup_form else "over")


def grand_lorentz_norm(f: DyadicStep2D, e: Exponents, gp: GrandParams) -> GrandNormResult:
    """Grand Lorentz norm over the epsilon grid.

    Sup form (theta >= 0): maximum of ``eps1^t1 eps2^t2`` times the Lorentz
    norm with exponents ``1/p_i + eps_i`` (an under-approximation of the true
    supremum except at theta = 0, where the added ``eps = 0`` grid point makes
    the collapse to the plain Lorentz norm exact).  Inf form (theta < 0):
    grid minimum with exponents ``1/p_i - eps_i``, ``eps_i <= 1/p_i`` (an
    over-approximation of the true infimum).
    """
    g = f.rearranged
    if gp.theta == (0.0, 0.0):
        # the objective is nonincreasing in eps, so the supremum is the
        # monotone limit at eps -> 0: exactly the plain norm
        return GrandNormResult(float(_lorentz_of(g, f.widths, e)), (0.0, 0.0), "exact")
    return _grand_of(_lorentz_surface(g, f.widths, e, *_surface_key(gp)), gp)


def _lorentz_surface(g: np.ndarray, widths: tuple[float, float], e: Exponents,
                     sup_form: bool, levels: int, zeros: tuple[bool, bool]):
    """The epsilon surface of :func:`grand_lorentz_norm` from rearranged
    values ``g[..., j2, j1]`` and cell widths: the epsilon axes (see :func:`_eps_axes`;
    ``eps_i <= 1`` in the sup form, ``<= 1/p_i`` in the inf form) and the
    Lorentz norms at exponents ``1/p_i +/- eps_i`` over them, one core call.
    """
    base = [1.0 / pi for pi in e.p]
    if sup_form:
        axes, s = _eps_axes(levels, zeros, (1.0, 1.0)), 1.0
    elif INF in e.p:
        raise ValueError("inf-form grand norm requires finite p")
    else:
        axes, s = _eps_axes(levels, zeros, base), -1.0
    return axes, _lorentz_core_batch(g, *widths, base[0] + s * axes[0],
                                     base[1] + s * axes[1], e.q[0], e.q[1])


# ---------------------------------------------------------------------------
# discrete sequence norms


def _block_cells(nus: np.ndarray, n: int, q: float):
    """The weights ``2^{nu k}``, ``k >= 0``, one row per ``nu`` in ``nus``,
    as :func:`_stage` takes them for ``n`` stored values padded with the
    last one, ``sat``: ``(sup, omega)``, each ``(m, n + 1)``.  Beyond the
    stored values ``sat`` repeats (the bracket saturates), and that
    geometric tail is the last column: ``sup = 2^{nu n}`` with
    ``omega = sum_{k >= 0} 2^{nu q k}`` (``+inf`` for ``nu >= 0``), or at
    ``q = inf`` the tail's supremum (``+inf`` for ``nu > 0``) with
    ``omega = 1``.
    """
    sup = 2.0 ** (nus[:, None] * np.arange(n + 1))
    omega = np.ones_like(sup)
    if q == INF:
        sup[nus > 0, n] = INF
    else:
        with np.errstate(divide="ignore", over="ignore"):
            omega[:, n] = np.where(nus < 0, -1.0 / np.expm1(nus * q * _LN2), INF)
    return sup, omega


def _seq_block_core(sqrtS: np.ndarray, nu1s: np.ndarray, nu2s: np.ndarray,
                    q1: float, q2: float) -> np.ndarray:
    """Nested (q1, q2) block sums ``2^{nu1 k1 + nu2 k2} sqrtS[..., k1^, k2^]``
    over all ``k_i >= 0``, ``out[..., i, j]`` at
    ``(nu1, nu2) = (nu1s[i], nu2s[j])``: :func:`_nested` over k1 in each
    column, then over k2, with the :func:`_block_cells` weights on the
    table padded with its last row and column.
    """
    K1, K2 = sqrtS.shape[-2:]
    pad = np.concatenate([sqrtS, sqrtS[..., -1:, :]], axis=-2)
    pad = np.concatenate([pad, pad[..., -1:]], axis=-1)
    return _nested(pad.swapaxes(-1, -2), (*_block_cells(nu1s, K1, q1), q1),
                   (*_block_cells(nu2s, K2, q2), q2))


def seq_block_lorentz_norm(a: Sequence2D, p: tuple[float, float],
                           q: tuple[float, float]) -> float:
    """Discrete block norm with fixed weights ``2^{k1/p1' + k2/p2'}`` applied
    to the normalized brackets ``[2^{-k1-k2} sum (a^{*2,*1})^2]^{1/2}``.
    """
    return float(_seq_block_lorentz_of(a._sqrt_table, p, q))


def _seq_block_lorentz_of(sqrtS: np.ndarray, p: tuple[float, float],
                          q: tuple[float, float]) -> np.ndarray:
    """:func:`seq_block_lorentz_norm` from dyadic sqrt tables
    ``sqrtS[..., k1, k2]`` (:func:`~lorentz_forge.rearrange._dyadic_sqrt`), shape ``(...)``."""
    e = Exponents(p, q)
    nu1 = 1.0 / e.conjugate(0) - 0.5
    nu2 = 1.0 / e.conjugate(1) - 0.5
    return _seq_block_core(sqrtS, np.array([nu1]), np.array([nu2]),
                           q[0], q[1])[..., 0, 0]


def grand_seq_norm(a: Sequence2D, e: Exponents, gp: GrandParams,
                   sign: str = "plus") -> GrandNormResult:
    """Grand sequence norm: sup over the epsilon grid of ``eps^theta`` times
    the nested block sums with weights ``2^{k(1/p +/- eps)}``.

    ``sign="plus"`` follows the defining display (which diverges for any
    nontrivial sequence whenever ``p <= 2``); ``sign="minus"`` uses the
    damped exponent ``2^{k(1/p - eps)}`` consistent with the way the norm is
    consumed downstream.  The grid supremum under-approximates.
    """
    return _grand_of(_seq_surface(a._sqrt_table, e, sign, *_surface_key(gp)), gp)


def _seq_surface(sqrtS: np.ndarray, e: Exponents, sign: str, sup_form: bool,
                 levels: int, zeros: tuple[bool, bool]):
    """The epsilon surface of :func:`grand_seq_norm` from dyadic sqrt
    tables ``sqrtS[..., k1, k2]`` (see
    :func:`~lorentz_forge.rearrange._dyadic_sqrt`): the epsilon axes and the
    nested block sums over them, one core call."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not sup_form:
        raise ValueError("grand sequence norm is defined for theta >= 0")
    base = [1.0 / pi for pi in e.p]
    s = 1.0 if sign == "plus" else -1.0
    e1, e2 = axes = _eps_axes(levels, zeros, (1.0, 1.0))
    return axes, _seq_block_core(sqrtS, base[0] + s * e1 - 0.5,
                                 base[1] + s * e2 - 0.5, e.q[0], e.q[1])


# ---------------------------------------------------------------------------
# log-weighted sup form and the dyadic sup characterization


def _log_weight_right_endpoints(ncells: int, h: float, inv_p: float,
                                theta: float) -> np.ndarray:
    """Per-cell suprema of ``t^{1/p} |ln t|^{-theta}`` over ``(jh, (j+1)h]``.

    On (0,1) the weight is strictly increasing, so the supremum sits at the
    right endpoint; the last cell's endpoint ``t = 1`` gives ``+inf``.
    """
    b = np.arange(1, ncells + 1) * h
    out = np.empty(ncells)
    interior = b < 1.0
    out[interior] = b[interior] ** inv_p * (-np.log(b[interior])) ** -theta
    out[~interior] = INF
    return out


def logweight_sup_norm(f: DyadicStep2D, p: tuple[float, float],
                       theta: tuple[float, float]) -> float:
    """``sup_{t in (0,1)^2} t1^{1/p1} t2^{1/p2} / (|ln t1|^th1 |ln t2|^th2)``
    applied to the iterated rearrangement.

    The supremum is one-sided on (0,1): it is ``+inf`` exactly when the
    rearranged function is positive on a cell touching ``t = 1``.
    """
    return float(_logweight_of(f.rearranged, f.widths, p, theta))


def _logweight_of(g: np.ndarray, widths: tuple[float, float],
                  p: tuple[float, float], theta: tuple[float, float]) -> np.ndarray:
    """:func:`logweight_sup_norm` from rearranged values ``g[..., j2, j1]``
    and cell widths, shape ``(...)``."""
    p = _exponent_pair("p", p)
    if any(pi == INF for pi in p):
        raise ValueError("log-weighted sup form requires finite p")
    if not all(0 < ti < INF for ti in theta):
        raise ValueError(f"log-weighted sup form requires finite theta > 0, got {theta}")
    h1, h2 = widths
    r2, r1 = g.shape[-2:]
    w1 = _log_weight_right_endpoints(r1, h1, 1.0 / p[0], theta[0])
    w2 = _log_weight_right_endpoints(r2, h2, 1.0 / p[1], theta[1])
    weights = np.outer(w2, w1)
    # an infinite weight on a zero value is left out, not 0 * inf = nan
    with np.errstate(invalid="ignore"):
        return np.max(weights * g, axis=(-2, -1), where=g > 0, initial=0.0)


def _dyadic_samples(axis_len: int, level: int) -> np.ndarray:
    """Indices of the cells containing ``t = 2^m`` for ``m = -1 .. -(level+1)``."""
    ms = np.arange(1, level + 2)
    return np.minimum((2.0**-ms * axis_len).astype(int), axis_len - 1)


def discrete_grand_norm_P6(f: DyadicStep2D, e: Exponents,
                           theta: tuple[float, float],
                           k_max: int = 2**12) -> float:
    """Dyadic sup characterization of the sup-form grand norm.

    Scans integer ``k_i in {2..k_max}`` of ``k1^-th1 k2^-th2`` times the
    nested dyadic sums of ``2^{m(1/p + 1/k)} g(2^{m1}, 2^{m2})`` over
    ``m <= 0``; equals the grand Lorentz norm up to absolute constants and
    serves as a cross-check oracle.  A monotone bound on the tail of the
    ``k`` scan allows early exit.
    """
    if not all(0 < ti < INF for ti in theta):
        raise ValueError(f"requires finite theta > 0, got {theta}")
    if any(pi == INF for pi in e.p):
        raise ValueError("requires finite p")
    _integer(k_max, 2, "k_max")  # below 2 the scan would be empty and read 0
    tau1, tau2 = e.q
    g = f.rearranged
    n1, n2 = f.levels
    r2, r1 = g.shape
    # samples v[i2, i1] = g(2^{-m1}, 2^{-m2}) for m = 1 .. level+1; the last
    # sample repeats for all deeper m (first cell): the block stages' tail
    vT = g[np.ix_(_dyadic_samples(r2, n2), _dyadic_samples(r1, n1))].T
    # the nested (tau1, tau2) dyadic sums with per-axis weights 2^{-m c} are
    # the block sums over k = m - 1 at nu = -c, times 2^{-c1-c2}
    inv_p1, inv_p2 = 1.0 / e.p[0], 1.0 / e.p[1]
    core = _seq_block_core(vT, np.array([-inv_p1]), np.array([-inv_p2]), tau1, tau2)
    limit = 2.0 ** -(inv_p1 + inv_p2) * float(core[0, 0])  # k -> inf, finite
    best = 0.0
    for k2 in range(2, k_max + 1):
        w2 = k2**-theta[1]
        if w2 * 2.0 ** -theta[0] * limit <= best:
            break
        c2 = inv_p2 + 1.0 / k2
        # k1 in blocks of 1, 2, 4, ... points, one core call each; within a
        # block the scan stops where it would stop one point at a time
        k1, size = 2, 1
        while k1 <= k_max and k1**-theta[0] * w2 * limit > best:
            ks = range(k1, min(k1 + size, k_max + 1))
            c1s = [inv_p1 + 1.0 / k for k in ks]
            core = _seq_block_core(vT, -np.array(c1s), np.array([-c2]), tau1, tau2)
            for k, c1, v in zip(ks, c1s, core[:, 0].tolist()):
                if k**-theta[0] * w2 * limit <= best:
                    break
                val = k**-theta[0] * w2 * (2.0 ** -(c1 + c2) * v)
                if val > best:
                    best = val
            k1, size = ks.stop, 2 * size
    return best


# ---------------------------------------------------------------------------
# JSON request surface


def _parse_pair(name: str, raw) -> tuple[float, float]:
    """A request's ``name`` pair: a list or tuple of two ``float`` inputs."""
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        try:
            return float(raw[0]), float(raw[1])
        except TypeError:
            pass
    raise ValueError(f"{name} must be a pair of numbers, got {raw!r}")


def _parse_depth(raw) -> int:
    """A request's ``epsJ``: a number with an integral value (not a bool)
    in ``[0, _DEPTH_MAX]``."""
    if isinstance(raw, numbers.Real) and not isinstance(raw, (bool, numbers.Integral)) \
            and float(raw).is_integer():
        raw = int(raw)
    return _integer(raw, 0, "epsJ", _DEPTH_MAX)


# the request kinds evaluated on a grid (``seq_grand`` takes a sequence)
GRID_KINDS = ("lorentz", "grand", "mixed", "logweight", "p6")


def evaluate_norm_request(req: dict, obj) -> dict:
    """Evaluate a norm request against a grid or sequence.

    ``req`` follows ``{"norm": ..., "p": [...], "q": [...], "theta": [...],
    "sign": ..., "epsJ": ...}``; the response reports ``value``,
    ``approx_direction`` and, for grand norms, ``argmax_eps``.
    """
    if not isinstance(req, dict):
        raise ValueError(f"a norm request must be an object, got {req!r}")
    kind = req.get("norm")  # a missing kind is an unknown one
    p, q, theta = (_parse_pair(k, req.get(k, d)) for k, d in
                   (("p", (2, 2)), ("q", (2, 2)), ("theta", (0.0, 0.0))))
    eps_j = _parse_depth(req.get("epsJ", 24))
    if kind == "seq_grand":
        if not isinstance(obj, Sequence2D):
            raise TypeError("seq_grand norm needs a sequence")
        res = grand_seq_norm(obj, Exponents(p, q),
                             GrandParams(theta, eps_levels=eps_j),
                             sign=req.get("sign", "plus"))
        return {"value": res.value, "approx_direction": res.direction,
                "argmax_eps": list(res.eps)}
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    if not isinstance(obj, DyadicStep2D):
        raise TypeError(f"{kind} norm needs a grid")
    if kind == "mixed":
        return {"value": mixed_lebesgue_norm(obj, p),
                "approx_direction": "exact", "argmax_eps": None}
    if kind == "lorentz":
        return {"value": lorentz_norm(obj, Exponents(p, q)),
                "approx_direction": "exact", "argmax_eps": None}
    if kind == "grand":
        res = grand_lorentz_norm(obj, Exponents(p, q),
                                 GrandParams(theta, eps_levels=eps_j))
        return {"value": res.value, "approx_direction": res.direction,
                "argmax_eps": list(res.eps)}
    if kind == "logweight":
        return {"value": logweight_sup_norm(obj, p, theta),
                "approx_direction": "exact", "argmax_eps": None}
    return {"value": discrete_grand_norm_P6(obj, Exponents(p, q), theta),
            "approx_direction": "under", "argmax_eps": None}
