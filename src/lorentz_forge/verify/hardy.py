"""Closed-form evaluation of the two weighted Hardy displays for
nonincreasing step profiles on (0,1] (zero beyond 1).

For a profile ``f`` with cells ``(a_j, b_j]`` the running integrals
``int_0^t f^r`` and ``int_t^1 f^r`` are piecewise linear ``A + B t``, so the
outer integrals have elementary antiderivatives whenever ``q/r`` is 1 or 2,
and exact per-cell suprema when ``q = inf``.  For other ``q/r`` a cell where
the running integral is a pure power (``A = 0``) is exact and the others
use the monotone endpoint bound, which over-approximates the left-hand side:
the safe direction for every asserted upper bound.  Divergent cases return
``+inf`` so the caller can skip and record them.

The right sides of one profile and display over a whole alpha grid are
one :func:`~lorentz_forge.norms._stage` call with one weight row per alpha
(:func:`hardy_grid`), and so is the ascent left side at ``r = inf``, which
has the same form.  Each row is its own one-exponent
:func:`~lorentz_forge.norms._power_cells` call, so every entry has the bits
of its one-alpha display.  The other left sides take one alpha at a time
and evaluate every cell at once, from the same per-cell power integrals, on
the profile divided by its largest value; the result is multiplied back,
so all four displays are 1-homogeneous at any magnitude.
"""

from __future__ import annotations

import numpy as np

from ..norms import _power_cells, _stage
from ..stepfun import DyadicStep1D

INF = float("inf")


def _weighted_step_q(prof: DyadicStep1D, es, q: float) -> np.ndarray:
    """``(int_0^1 (t^e v(t))^q dt/t)^{1/q}`` for a step profile ``v`` at
    each exponent ``e`` of ``es``; sup at q=inf.  One :func:`_stage` over
    one weight row per exponent, each row from its own :func:`_power_cells`
    call: a one-element exponent array takes numpy's scalar fast paths
    (``sqrt`` at 1/2), which a shared call would not."""
    vals = np.asarray(prof.values, dtype=float)
    rows = [_power_cells(np.array([e]), len(vals), prof.width, q) for e in es]
    sup = np.concatenate([s for s, _ in rows])
    omega = np.concatenate([w for _, w in rows])
    return _stage(vals[None], sup, omega, q)[:, 0]


def _lim0(s: float, x: float, w: float) -> float:
    """``lim_{t -> 0+} t^s x^w`` for ``x > 0``."""
    return 0.0 if s > 0 else (x**w if s == 0 else INF)


def _hardy_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float,
               descent: bool) -> float:
    """``( int_0^inf ( t^u X(t)^{1/r} )^q dt/t )^{1/q}`` (sup at
    ``q = inf``) for finite ``r``: the descent display has ``u = -alpha`` and
    ``X(t) = int_0^t f^r`` (constant beyond 1), the ascent display
    ``u = alpha`` and ``X(t) = int_t^1 f^r``.  ``X`` is built from
    ``f / max f``: it scales by ``(max f)^r``, so the display scales by
    ``max f``.
    """
    v = np.asarray(prof.values, dtype=float)
    h, n = prof.width, len(v)
    scale = float(v.max()) or 1.0
    B = (v / scale) ** r
    a = np.arange(n) * h
    if descent:
        run = np.cumsum(B * h)
        A = np.concatenate([[0.0], run[:-1]]) - B * a
        tail, u = run[-1], -alpha  # X(1), continued constant on (1, inf)
    else:
        run = np.cumsum((B * h)[::-1])[::-1]
        A, B = run + B * a, -B
        tail, u = 0.0, alpha
    live = (A != 0) | (B != 0)
    if q == INF:
        w = 1.0 / r

        def val(t):
            return t**u * np.maximum(A + B * t, 0.0) ** w

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tstar = -u * A / (B * (u + w))  # the interior critical point
            inside = (a < tstar) & (tstar < a + h)
            cands = np.stack([val(a + h), val(a), np.where(inside, val(tstar), 0.0)])
        # the first cell's left end is the one-sided limit at t -> 0+
        cands[1, 0] = (_lim0(u, A[0], w) if A[0] > 0 else
                       _lim0(u + w, abs(B[0]), w) if B[0] != 0 else 0.0)
        # descent: the sup over t >= 1 is at t = 1
        head = (tail**w if alpha > 0 else INF) if descent else 0.0
        return scale * max(head, float(cands[:, live].max(initial=0.0)))
    c, k = u * q, q / r
    sup, omega = _power_cells(c + np.array([0.0, 1.0, 2.0, k]), n, h, 1.0)
    I = sup * omega  # int_cell t^{c+m-1} dt, +inf where it diverges
    with np.errstate(invalid="ignore", over="ignore"):
        # where A != 0: the binomial expansion of X^k, reading I[:used]
        if k == 1.0:
            used, mixed = 2, A * I[0] + B * I[1]
        elif k == 2.0:
            used, mixed = 3, A * A * I[0] + 2 * A * B * I[1] + B * B * I[2]
        else:
            # monotone endpoint bound (over-approximates the LHS)
            used, mixed = 1, np.maximum(A + B * a, A + B * (a + h)) ** k * I[0]
        pure = A == 0  # X = B t: exact for any k
        term = np.where(pure, B**k * I[3], mixed)
    diverges = np.where(pure, np.isinf(I[3]), np.isinf(I[:used]).any(axis=0))
    if (live & diverges).any():
        return INF
    total = float(term[live].sum())
    if tail > 0.0:
        if c >= 0:
            return INF
        total += tail**k * (-1.0 / c)  # int_1^inf t^{c-1} dt
    return scale * total ** (1.0 / q)


def hardy_descent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{-alpha} (int_0^t f^r)^{1/r} )^q dt/t )^{1/q}``."""
    if r == INF:
        # running sup is f(0+) > 0: the t^{-alpha} weight diverges at 0
        return INF if prof.values[0] > 0 else 0.0
    return _hardy_lhs(prof, q, r, alpha, descent=True)


def hardy_descent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{1/r - alpha} f(t) )^q dt/t )^{1/q}``."""
    return float(_weighted_step_q(prof, [1.0 / r - alpha], q)[0])


def hardy_ascent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha} (int_t^inf f^r)^{1/r} )^q dt/t )^{1/q}``."""
    if r == INF:
        # running sup from the right equals f itself (right-continuous steps)
        return float(_weighted_step_q(prof, [alpha], q)[0])
    return _hardy_lhs(prof, q, r, alpha, descent=False)


def hardy_ascent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha + 1/r} f(t) )^q dt/t )^{1/q}``."""
    return float(_weighted_step_q(prof, [alpha + 1.0 / r], q)[0])


def hardy_grid(prof: DyadicStep1D, q: float, r: float, alphas,
               descent: bool) -> tuple[list[float], list[float]]:
    """The left and right sides of the descent (or ascent) display at each
    alpha of ``alphas``, each entry bitwise its one-alpha display's.  The
    right sides are one :func:`_weighted_step_q` call over the grid, and so
    is the ascent left side at ``r = inf``; the other left sides are the
    one-alpha displays."""
    if descent:
        lhs = [hardy_descent_lhs(prof, q, r, alpha) for alpha in alphas]
        rhs = _weighted_step_q(prof, [1.0 / r - alpha for alpha in alphas], q)
    else:
        lhs = (_weighted_step_q(prof, alphas, q).tolist() if r == INF else
               [hardy_ascent_lhs(prof, q, r, alpha) for alpha in alphas])
        rhs = _weighted_step_q(prof, [alpha + 1.0 / r for alpha in alphas], q)
    return lhs, rhs.tolist()
