"""Closed-form evaluation of the two weighted Hardy displays for
nonincreasing step profiles on (0,1] (zero beyond 1).

For a profile ``f`` with cells ``(a_j, b_j]`` the running integrals
``int_0^t f^r`` and ``int_t^1 f^r`` are piecewise linear ``A + B t``, so the
outer integrals have elementary antiderivatives whenever ``q/r`` is 1 or 2,
and exact per-cell suprema when ``q = inf``.  For other ``q/r`` the first
cell (where the running integral is a pure power) is exact and later cells
use the monotone endpoint bound, which over-approximates the left-hand side:
the safe direction for every asserted upper bound.  Divergent cases return
``+inf`` so the caller can skip and record them.
"""

from __future__ import annotations


import numpy as np

from ..norms import _power_cells, _qsum
from ..stepfun import DivergentIntegralError, DyadicStep1D, power_weight_integral

INF = float("inf")


def _pw(c: float, a: float, b: float) -> float:
    try:
        return power_weight_integral(c, a, b)
    except DivergentIntegralError:
        return INF


def _sup_power_linear(u: float, w: float, A: float, B: float,
                      a: float, b: float) -> float:
    """``sup_{t in (a,b]} t^u (A + B t)^w`` with ``A + B t >= 0`` on the cell."""
    def val(t):
        base = A + B * t
        if base < 0:
            base = 0.0
        return t**u * base**w

    cands = [val(b)]
    if a > 0:
        cands.append(val(a))
    else:
        # one-sided limit at t -> 0+
        if A > 0:
            cands.append(0.0 if u > 0 else (A**w if u == 0 else INF))
        elif B != 0:
            e = u + w
            cands.append(0.0 if e > 0 else (abs(B)**w if e == 0 else INF))
    if B != 0 and u + w != 0:
        tstar = -u * A / (B * (u + w))
        if a < tstar < b:
            cands.append(val(tstar))
    return max(cands)


def _weighted_step_q(vals: np.ndarray, h: float, e: float, q: float) -> float:
    """``(int_0^1 (t^e v(t))^q dt/t)^{1/q}`` for a step profile; sup at q=inf."""
    sup, omega = _power_cells(np.array([e]), len(vals), h, q)
    with np.errstate(invalid="ignore"):
        base = np.where(vals > 0, vals * sup, 0.0)  # 0 * inf = 0
    return float(_qsum(base, omega, q)[0])


def _outer_integral(cells, c: float, k: float, tail_const: float,
                    tail_exact_power: bool, q: float) -> float:
    """``(int (t^{c/q})^q X(t)^k dt/t ...)`` assembled from per-cell pieces.

    ``cells`` is a list of ``(a, b, A, B)`` with the running integral
    ``X(t) = A + B t`` on ``(a, b]``; ``c`` is the weight exponent so each
    piece contributes ``int_a^b t^{c-1} X^k dt``.  ``tail_const`` is ``X(1)``
    for the constant continuation on ``(1, inf)`` (0 disables the tail).
    """
    total = 0.0
    for a, b, A, B in cells:
        if A == 0.0 and B == 0.0:
            continue
        if A == 0.0:
            # pure power X = B t (first cell of the running integral from 0):
            # exact for any k
            wgt = _pw(c + k, a, b)
            if wgt == INF:
                return INF
            total += B**k * wgt
            continue
        if k == 1.0:
            w0, w1 = _pw(c, a, b), _pw(c + 1, a, b)
            if INF in (w0, w1):
                return INF
            total += A * w0 + B * w1
        elif k == 2.0:
            w0, w1, w2 = _pw(c, a, b), _pw(c + 1, a, b), _pw(c + 2, a, b)
            if INF in (w0, w1, w2):
                return INF
            total += A * A * w0 + 2 * A * B * w1 + B * B * w2
        else:
            # monotone endpoint bound (over-approximates the LHS)
            xmax = max(A + B * a, A + B * b)
            wgt = _pw(c, a, b)
            if wgt == INF:
                return INF
            total += xmax**k * wgt
    if tail_const > 0.0:
        if tail_exact_power and c < 0:
            total += tail_const**k * (-1.0 / c)  # int_1^inf t^{c-1} dt
        elif tail_exact_power:
            return INF
    return total ** (1.0 / q) if q != INF else total


def hardy_descent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{-alpha} (int_0^t f^r)^{1/r} )^q dt/t )^{1/q}``."""
    v = np.asarray(prof.values, dtype=float)
    h = prof.width
    if r == INF:
        # running sup is f(0+) > 0: the t^{-alpha} weight diverges at 0
        return INF if v[0] > 0 else 0.0
    pref = np.concatenate([[0.0], np.cumsum(v**r * h)])
    edges = np.arange(len(v) + 1) * h
    cells = [(edges[j], edges[j + 1], pref[j] - v[j]**r * edges[j], v[j]**r)
             for j in range(len(v))]
    G1 = pref[-1]
    if q == INF:
        best = G1 ** (1.0 / r) if alpha > 0 else INF  # sup over t >= 1 at t = 1
        for a, b, A, B in cells:
            best = max(best, _sup_power_linear(-alpha, 1.0 / r, A, B, a, b))
        return best
    return _outer_integral(cells, -alpha * q, q / r, G1, True, q)


def hardy_descent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{1/r - alpha} f(t) )^q dt/t )^{1/q}``."""
    rinv = 0.0 if r == INF else 1.0 / r
    return _weighted_step_q(np.asarray(prof.values), prof.width, rinv - alpha, q)


def hardy_ascent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha} (int_t^inf f^r)^{1/r} )^q dt/t )^{1/q}``."""
    v = np.asarray(prof.values, dtype=float)
    h = prof.width
    if r == INF:
        # running sup from the right equals f itself (right-continuous steps)
        return _weighted_step_q(v, h, alpha, q)
    suf = np.concatenate([np.cumsum((v**r * h)[::-1])[::-1], [0.0]])
    edges = np.arange(len(v) + 1) * h
    cells = [(edges[j], edges[j + 1], suf[j] + v[j]**r * edges[j], -(v[j]**r))
             for j in range(len(v))]
    if q == INF:
        best = 0.0
        for a, b, A, B in cells:
            if A == 0.0 and B == 0.0:
                continue
            best = max(best, _sup_power_linear(alpha, 1.0 / r, A, B, a, b))
        return best
    return _outer_integral(cells, alpha * q, q / r, 0.0, False, q)


def hardy_ascent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha + 1/r} f(t) )^q dt/t )^{1/q}``."""
    rinv = 0.0 if r == INF else 1.0 / r
    return _weighted_step_q(np.asarray(prof.values), prof.width, alpha + rinv, q)
