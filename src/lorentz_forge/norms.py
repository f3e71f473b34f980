"""Scalar norms: mixed Lebesgue, anisotropic Lorentz, grand Lorentz (both
signs), the discrete grand sequence norm, the log-weighted sup form, and the
dyadic sup characterization used as a cross-check oracle.

Conventions
-----------
* Exponent components live in ``(0, inf]``; an infinite component turns the
  corresponding integral (or sum) into a supremum.
* All integrals reduce to closed-form power-weight sums over dyadic cells;
  a divergent integral yields ``+inf``, never an exception.
* Every nested (q1, q2) stage (and the (p1, p2) stages of the mixed
  Lebesgue norm), here and in the interpolation norm and the Hardy
  displays, is one :func:`_qsum`, which factors out the largest term: the
  norms stay finite and 1-homogeneous at every exponent they accept.
* Grand norms search a geometric epsilon grid ``2^-j, j = 0..J``.  The
  sup-form grid maximum under-approximates the true supremum and the
  inf-form grid minimum over-approximates the true infimum; the direction
  is reported with the value.  A zero smoothness component adds the grid
  point ``eps = 0`` so the collapse to the plain Lorentz norm is exact.
* Both grand norms evaluate the whole grid in one call of their core, which
  takes one exponent axis per coordinate and returns the value matrix; the
  plain norms are its one-point case.
* Each public norm prepares what it reads of its input (the rearranged
  values of a grid, the block table of a sequence) and passes it to a
  ``_*_of`` function; a parameter sweep prepares each input once and calls
  the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rearrange import Sequence2D, iterated_rearrange_2d, iterated_rearrange_seq
from .stepfun import DyadicStep2D

INF = float("inf")
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Exponents:
    """Integrability/fineness parameter bundle ``(p, q)``, components in (0, inf]."""

    p: tuple[float, float]
    q: tuple[float, float]

    def __post_init__(self):
        for name, pair in (("p", self.p), ("q", self.q)):
            if len(pair) != 2 or any(not (x > 0) for x in pair):
                raise ValueError(f"{name} components must be positive, got {pair}")
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))
        object.__setattr__(self, "q", (float(self.q[0]), float(self.q[1])))

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


@dataclass(frozen=True)
class GrandParams:
    """Smoothness weights and epsilon-search configuration for grand norms.

    ``theta`` components must share one sign: both >= 0 selects the sup form,
    both < 0 the inf form.  ``eps_levels`` is the geometric grid depth J
    (grid ``2^-j, j=0..J``).
    """

    theta: tuple[float, float]
    eps_levels: int = 24

    def __post_init__(self):
        t1, t2 = self.theta
        if (t1 < 0) != (t2 < 0):
            raise ValueError(f"mixed-sign theta {self.theta} is not defined")
        if self.eps_levels < 0:
            raise ValueError("eps_levels must be >= 0")
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
# the nested q-stage


def _qsum(base: np.ndarray, omega, q: float) -> np.ndarray:
    """``(sum base^q omega)^{1/q}`` along the last axis; ``max(base)`` at
    ``q = inf``.

    Every nested (q1, q2) norm is two of these stages.  The sum is taken as
    ``M (sum (base/M)^q omega)^{1/q}`` with ``M`` the largest base, so a
    finite value never overflows or underflows; callers put every factor
    raised to ``q`` into ``base`` and pass the bounded rest as ``omega``.  A
    zero base contributes 0 whatever its weight (``0 * inf = 0``); an
    infinite base, or an infinite weight on a positive base, gives ``+inf``.
    """
    M = base.max(axis=-1, keepdims=True)
    if q == INF:
        return M[..., 0]
    with np.errstate(invalid="ignore", over="ignore"):
        t = base / M
        t **= q
        t *= omega
        t[base == 0] = 0.0
        out = M[..., 0] * t.sum(axis=-1) ** (1.0 / q)
    # a nan is inf/inf or an underflowed positive term times an infinite
    # weight: both mean a positive base meets a divergence
    return np.where(np.isnan(out), INF, out)


def _power_cells(a: np.ndarray, n: int, h: float, q: float):
    """The weight ``t^a`` on the cells ``(jh, (j+1)h]``, ``j < n``, one row
    per exponent in ``a``, as :func:`_qsum` takes it: ``(sup, omega)`` with
    ``sup = x^a`` the supremum of ``t^a`` on the cell (``x`` its right end
    for ``a >= 0``, its left end for ``a < 0``) and
    ``omega = int_cell t^{aq-1} dt / x^{aq} = (1 - (j/(j+1))^{|a|q}) / (|a|q)``.

    ``omega`` is 1 at ``q = inf``.  Where the integral diverges at 0, the
    first cell's ``omega`` (``a = 0``) or ``sup`` (``a < 0``) is ``+inf``.
    """
    a = np.asarray(a, dtype=float)[:, None]
    right = np.arange(1, n + 1) * h
    left = right - h
    with np.errstate(divide="ignore", invalid="ignore"):
        sup = np.where(a < 0, left, right) ** a
        if q == INF:
            return sup, np.ones_like(sup)
        c = np.abs(a) * q
        lr = np.log(left / right)  # -inf on the first cell
        omega = np.where(c > 0, -np.expm1(c * lr) / c, -lr)
    return sup, omega


# epsilon rows of the inner Lorentz stage are evaluated in blocks of about
# this many cells, which bounds the temporaries on large grids
_BLOCK_CELLS = 2**18


def _lorentz_core(g: np.ndarray, h1: float, h2: float,
                  a1: float, a2: float, q1: float, q2: float) -> float:
    """The 1x1 case of :func:`_lorentz_core_batch`."""
    return float(_lorentz_core_batch(g, h1, h2, np.array([a1]), np.array([a2]),
                                     q1, q2)[0, 0])


def _lorentz_core_batch(g: np.ndarray, h1: float, h2: float,
                        a1s: np.ndarray, a2s: np.ndarray,
                        q1: float, q2: float) -> np.ndarray:
    """Nested weighted integrals of a rearranged value matrix ``g[j2, j1]``
    over exponent grids, ``out[i, j]`` at ``(a1, a2) = (a1s[i], a2s[j])``.

    Computes ``( int ( int (t1^a1 t2^a2 g)^{q1} dt1/t1 )^{q2/q1} dt2/t2 )^{1/q2}``
    with sup forms replacing infinite ``q`` components, one :func:`_qsum`
    stage per axis.  Returns ``+inf`` on divergence.
    """
    r2, r1 = g.shape
    sup1, w1 = _power_cells(a1s, r1, h1, q1)  # (m1, r1)
    sup2, w2 = _power_cells(a2s, r2, h2, q2)  # (m2, r2)
    rows = max(1, _BLOCK_CELLS // g.size)
    inner = np.empty((len(sup1), r2))
    for i in range(0, len(sup1), rows):
        blk = slice(i, i + rows)
        inner[blk] = _qsum(g * sup1[blk, None, :], w1[blk, None, :], q1)
    return _qsum(inner[:, None, :] * sup2, w2, q2)


# ---------------------------------------------------------------------------
# public norms


def mixed_lebesgue_norm(f: DyadicStep2D, p: tuple[float, float]) -> float:
    """Mixed-norm Lebesgue value: inner L^{p1} in x1, outer L^{p2} in x2."""
    h1, h2 = f.widths
    inner = _qsum(np.asarray(f.values), h1, p[0])
    return float(_qsum(inner, h2, p[1]))


def lorentz_norm(f: DyadicStep2D, e: Exponents) -> float:
    """Anisotropic Lorentz norm built from the iterated rearrangement.

    Weights ``t1^{1/p1} t2^{1/p2}`` against ``dt/t`` measures, inner integral
    in t1 with exponent q1, outer in t2 with q2; infinite ``q`` components
    become per-cell-exact suprema.  Divergence reports ``+inf``.
    """
    return _lorentz_of(_rearranged_values(f), f.widths, e)


def _rearranged_values(f: DyadicStep2D) -> np.ndarray:
    """The values ``g[j2, j1]`` of the iterated rearrangement of ``f``: what
    the rearrangement-based norms read of ``f`` besides its cell widths."""
    return np.asarray(iterated_rearrange_2d(f).values)


def _lorentz_of(g: np.ndarray, widths: tuple[float, float], e: Exponents) -> float:
    """:func:`lorentz_norm` from rearranged values ``g`` and cell widths."""
    h1, h2 = widths
    a1 = 0.0 if e.p[0] == INF else 1.0 / e.p[0]
    a2 = 0.0 if e.p[1] == INF else 1.0 / e.p[1]
    return _lorentz_core(g, h1, h2, a1, a2, e.q[0], e.q[1])


def _eps_grid(levels: int, cap: float) -> np.ndarray:
    """The points ``2^-j <= cap``, ``j = 0..levels``, led by ``cap`` itself."""
    grid = 2.0 ** -np.arange(levels + 1)
    grid = grid[grid <= cap]
    if cap not in grid:
        grid = np.concatenate([[cap], grid])
    return grid


def _sup_eps_axes(gp: GrandParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the sup-form epsilon grid and its weights ``eps^theta``.

    A zero ``theta_i`` adds the point ``eps = 0``, weighted ``0^0 = 1``.
    """
    eps = _eps_grid(gp.eps_levels, 1.0)
    axes = []
    for t in gp.theta:
        if t == 0:
            axes.append((np.concatenate([eps, [0.0]]), np.ones(len(eps) + 1)))
        else:
            axes.append((eps, eps**t))
    return axes


def grand_lorentz_norm(f: DyadicStep2D, e: Exponents, gp: GrandParams) -> GrandNormResult:
    """Grand Lorentz norm over the epsilon grid.

    Sup form (theta >= 0): maximum of ``eps1^t1 eps2^t2`` times the Lorentz
    norm with exponents ``1/p_i + eps_i`` (an under-approximation of the true
    supremum except at theta = 0, where the added ``eps = 0`` grid point makes
    the collapse to the plain Lorentz norm exact).  Inf form (theta < 0):
    grid minimum with exponents ``1/p_i - eps_i``, ``eps_i <= 1/p_i`` (an
    over-approximation of the true infimum).
    """
    return _grand_lorentz_of(_rearranged_values(f), f.widths, e, gp)


def _grand_lorentz_of(g: np.ndarray, widths: tuple[float, float], e: Exponents,
                      gp: GrandParams) -> GrandNormResult:
    """:func:`grand_lorentz_norm` from rearranged values ``g`` and cell widths."""
    h1, h2 = widths
    t1, t2 = gp.theta
    base = [0.0 if pi == INF else 1.0 / pi for pi in e.p]
    if gp.theta == (0.0, 0.0):
        # the objective is nonincreasing in eps, so the supremum is the
        # monotone limit at eps -> 0: exactly the plain norm
        return GrandNormResult(
            _lorentz_core(g, h1, h2, base[0], base[1], e.q[0], e.q[1]),
            (0.0, 0.0), "exact")
    if gp.sup_form:
        (e1, w1), (e2, w2) = _sup_eps_axes(gp)
        vals = _lorentz_core_batch(g, h1, h2, base[0] + e1, base[1] + e2,
                                   e.q[0], e.q[1])
        obj = vals * np.outer(w1, w2)
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        return GrandNormResult(float(obj[i, j]), (float(e1[i]), float(e2[j])), "under")
    if e.p[0] == INF or e.p[1] == INF:
        raise ValueError("inf-form grand norm requires finite p")
    e1 = _eps_grid(gp.eps_levels, base[0])
    e2 = _eps_grid(gp.eps_levels, base[1])
    vals = _lorentz_core_batch(g, h1, h2, base[0] - e1, base[1] - e2,
                               e.q[0], e.q[1])
    obj = vals * np.outer(e1**t1, e2**t2)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    return GrandNormResult(float(obj[i, j]), (float(e1[i]), float(e2[j])), "over")


# ---------------------------------------------------------------------------
# discrete sequence norms


def _block_cumsum(a: Sequence2D) -> np.ndarray:
    """``S[i1, i2]``: the square sum of the iterated rearrangement of ``a``
    over its top ``(i1 + 1) x (i2 + 1)`` block."""
    r = np.asarray(iterated_rearrange_seq(a).entries)
    return np.cumsum(np.cumsum(r**2, axis=0), axis=1)


def _block_sqrt_table(a: Sequence2D) -> np.ndarray:
    """``sqrt(S)[k1, k2]`` over the top ``2^{k1} x 2^{k2}`` blocks,
    ``k_i = 0..kappa_i`` with ``kappa_i = ceil(log2 K_i)`` (see
    :func:`_block_cumsum`).

    Dimensions are implicitly zero-padded to powers of two, so the table
    saturates at the true totals.
    """
    return _dyadic_sqrt(_block_cumsum(a))


def _dyadic_sqrt(S: np.ndarray) -> np.ndarray:
    """The dyadic sqrt sub-table of a block table ``S`` (see
    :func:`_block_sqrt_table`)."""
    K1, K2 = S.shape
    idx1 = np.minimum(2 ** np.arange((K1 - 1).bit_length() + 1), K1) - 1
    idx2 = np.minimum(2 ** np.arange((K2 - 1).bit_length() + 1), K2) - 1
    return np.sqrt(S[np.ix_(idx1, idx2)])


def _block_stage(vals: np.ndarray, nus: np.ndarray, q: float) -> np.ndarray:
    """``out[i, r]``: the q-sum over ``k >= 0`` of ``2^{nus[i] k} vals[r, k]``
    for each row ``r`` of the ``(R, n)`` array ``vals``; beyond the stored
    values the last one, ``sat``, repeats (the bracket saturates).  That
    geometric tail is one more :func:`_qsum` term, with base
    ``sat 2^{nu n}`` and weight ``sum_{k >= 0} 2^{nu q k}`` (``+inf`` for
    ``nu >= 0``).  Returns an ``(m, R)`` array.
    """
    n = vals.shape[1]
    sat = vals[:, -1]
    u = 2.0 ** (nus[:, None] * np.arange(n + 1))  # (m, n + 1)
    base = u[:, None, :] * np.concatenate([vals, sat[:, None]], axis=1)
    if q == INF:
        # for nu > 0 the tail diverges in the sup form too
        base[:, :, n][(nus[:, None] > 0) & (sat > 0)] = INF
        return _qsum(base, 1.0, q)
    omega = np.ones((len(nus), 1, n + 1))
    with np.errstate(divide="ignore", over="ignore"):
        omega[:, 0, n] = np.where(nus < 0, -1.0 / np.expm1(nus * q * _LN2), INF)
    return _qsum(base, omega, q)


def _seq_block_core(sqrtS: np.ndarray, nu1s: np.ndarray, nu2s: np.ndarray,
                    q1: float, q2: float) -> np.ndarray:
    """Nested (q1, q2) block sums ``2^{nu1 k1 + nu2 k2} sqrtS[k1^, k2^]``
    over all ``k_i >= 0``, ``out[i, j]`` at ``(nu1, nu2) = (nu1s[i], nu2s[j])``:
    :func:`_block_stage` over k1 in each column, then over k2 in each row of
    the result.
    """
    inner = _block_stage(sqrtS.T, nu1s, q1)  # (m1, K2)
    return _block_stage(inner, nu2s, q2).T


def seq_block_lorentz_norm(a: Sequence2D, p: tuple[float, float],
                           q: tuple[float, float]) -> float:
    """Discrete block norm with fixed weights ``2^{k1/p1' + k2/p2'}`` applied
    to the normalized brackets ``[2^{-k1-k2} sum (a^{*2,*1})^2]^{1/2}``.
    """
    return _seq_block_lorentz_of(_block_sqrt_table(a), p, q)


def _seq_block_lorentz_of(sqrtS: np.ndarray, p: tuple[float, float],
                          q: tuple[float, float]) -> float:
    """:func:`seq_block_lorentz_norm` from the dyadic sqrt table ``sqrtS``
    (see :func:`_block_sqrt_table`)."""
    e = Exponents(p, q)
    nu1 = 1.0 / e.conjugate(0) - 0.5
    nu2 = 1.0 / e.conjugate(1) - 0.5
    return float(_seq_block_core(sqrtS, np.array([nu1]), np.array([nu2]),
                                 q[0], q[1])[0, 0])


def grand_seq_norm(a: Sequence2D, e: Exponents, gp: GrandParams,
                   sign: str = "plus") -> GrandNormResult:
    """Grand sequence norm: sup over the epsilon grid of ``eps^theta`` times
    the nested block sums with weights ``2^{k(1/p +/- eps)}``.

    ``sign="plus"`` follows the defining display (which diverges for any
    nontrivial sequence whenever ``p <= 2``); ``sign="minus"`` uses the
    damped exponent ``2^{k(1/p - eps)}`` consistent with the way the norm is
    consumed downstream.  The grid supremum under-approximates.
    """
    return _grand_seq_of(_block_sqrt_table(a), e, gp, sign)


def _grand_seq_of(sqrtS: np.ndarray, e: Exponents, gp: GrandParams,
                  sign: str) -> GrandNormResult:
    """:func:`grand_seq_norm` from the dyadic sqrt table ``sqrtS`` (see
    :func:`_block_sqrt_table`)."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    t1, t2 = gp.theta
    if t1 < 0 or t2 < 0:
        raise ValueError("grand sequence norm is defined for theta >= 0")
    base = [0.0 if pi == INF else 1.0 / pi for pi in e.p]
    s = 1.0 if sign == "plus" else -1.0
    (e1, w1), (e2, w2) = _sup_eps_axes(gp)
    vals = _seq_block_core(sqrtS, base[0] + s * e1 - 0.5, base[1] + s * e2 - 0.5,
                           e.q[0], e.q[1])
    obj = vals * np.outer(w1, w2)
    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    return GrandNormResult(float(obj[i, j]), (float(e1[i]), float(e2[j])), "under")


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
    if any(pi == INF for pi in p):
        raise ValueError("log-weighted sup form requires finite p")
    if any(ti <= 0 for ti in theta):
        raise ValueError("log-weighted sup form requires theta > 0")
    g = _rearranged_values(f)
    h1, h2 = f.widths
    r2, r1 = g.shape
    w1 = _log_weight_right_endpoints(r1, h1, 1.0 / p[0], theta[0])
    w2 = _log_weight_right_endpoints(r2, h2, 1.0 / p[1], theta[1])
    weights = np.outer(w2, w1)
    masked = np.where(g > 0, weights * np.where(g > 0, g, 1.0), 0.0)
    return float(np.max(masked)) if masked.size else 0.0


def _dyadic_samples(g: np.ndarray, axis_len: int, level: int) -> np.ndarray:
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
    if any(ti <= 0 for ti in theta):
        raise ValueError("requires theta > 0")
    if any(pi == INF for pi in e.p):
        raise ValueError("requires finite p")
    tau1, tau2 = e.q
    g = _rearranged_values(f)
    n1, n2 = f.levels
    r2, r1 = g.shape
    # samples v[i2, i1] = g(2^{-m1}, 2^{-m2}) for m = 1 .. level+1; the last
    # sample repeats for all deeper m (first cell): the block stages' tail
    i1 = _dyadic_samples(g, r1, n1)
    i2 = _dyadic_samples(g, r2, n2)
    v = g[np.ix_(i2, i1)]  # (len m2, len m1)

    def nested(c1: float, c2: float) -> float:
        """Nested (tau1, tau2) dyadic sums with per-axis weights 2^{-m c}:
        block stages over ``k = m - 1`` with ``nu = -c``."""
        inner = _block_stage(v, np.array([-c1]), tau1)
        outer = _block_stage(inner, np.array([-c2]), tau2)
        return 2.0 ** -(c1 + c2) * float(outer[0, 0])

    inv_p1 = 1.0 / e.p[0]
    inv_p2 = 1.0 / e.p[1]
    limit = nested(inv_p1, inv_p2)  # k -> inf bound, finite for finite p
    best = 0.0
    for k2 in range(2, k_max + 1):
        if k2**-theta[1] * 2.0 ** -theta[0] * limit <= best:
            break
        for k1 in range(2, k_max + 1):
            if k1**-theta[0] * k2**-theta[1] * limit <= best:
                break
            val = k1**-theta[0] * k2**-theta[1] * nested(
                inv_p1 + 1.0 / k1, inv_p2 + 1.0 / k2)
            if val > best:
                best = val
    return best


# ---------------------------------------------------------------------------
# JSON request surface


def _parse_pair(raw) -> tuple[float, float]:
    def one(x):
        if isinstance(x, str) and x.lower() in ("inf", "infinity"):
            return INF
        return float(x)

    return one(raw[0]), one(raw[1])


# the request kinds evaluated on a grid (``seq_grand`` takes a sequence)
GRID_KINDS = ("lorentz", "grand", "mixed", "logweight", "p6")


def evaluate_norm_request(req: dict, obj) -> dict:
    """Evaluate a norm request against a grid or sequence.

    ``req`` follows ``{"norm": ..., "p": [...], "q": [...], "theta": [...],
    "sign": ..., "epsJ": ...}``; the response reports ``value``,
    ``approx_direction`` and, for grand norms, ``argmax_eps``.
    """
    kind = req["norm"]
    p = _parse_pair(req.get("p", (2, 2)))
    q = _parse_pair(req.get("q", (2, 2)))
    theta = tuple(float(x) for x in req.get("theta", (0.0, 0.0)))
    eps_j = int(req.get("epsJ", 24))
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
