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

Every display is evaluated over a whole alpha grid at once
(:func:`hardy_grid`); a one-alpha display is the grid of that alpha.  The
right sides, and the ascent left side at ``r = inf``, which has the same
form, are one :func:`~lorentz_forge.norms._power_cells` call over the grid
and one :func:`~lorentz_forge.norms._qsum` over the ``(alpha, cell)``
products.  The other left sides build the running integral of the profile
once for the grid, from the profile divided by its largest value, and take
every alpha's per-cell power integrals from one ``_power_cells`` call; the
result is multiplied back, so all four displays are 1-homogeneous at any
magnitude.  Every row of a ``_power_cells`` call has the bits of a
one-exponent call, and every sum runs along one C ordered row, so no
entry's bits depend on the other alphas of the grid.
"""

from __future__ import annotations

import numpy as np

from ..norms import _power_cells, _qsum
from ..stepfun import _POSITIVE, DyadicStep1D, _pair

INF = float("inf")


def _weighted_step_q(prof: DyadicStep1D, es, q: float) -> np.ndarray:
    """``(int_0^1 (t^e v(t))^q dt/t)^{1/q}`` for a step profile ``v`` at
    each exponent ``e`` of ``es``; sup at q=inf.  One :func:`_power_cells`
    call gives one weight row per exponent, and one :func:`_qsum` sums
    the rows of their products with the profile."""
    vals = np.asarray(prof.values, dtype=float)
    sup, omega = _power_cells(np.asarray(es, dtype=float), len(vals), prof.width, q)
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan base counts as 0
        return _qsum(vals * sup, omega, q)


def _lim0(s: float, x: float, w: float) -> float:
    """``lim_{t -> 0+} t^s x^w`` for ``x > 0``."""
    return 0.0 if s > 0 else (x**w if s == 0 else INF)


def _hardy_lhs(prof: DyadicStep1D, q: float, r: float, alphas,
               descent: bool) -> list[float]:
    """``( int_0^inf ( t^u X(t)^{1/r} )^q dt/t )^{1/q}`` (sup at
    ``q = inf``) at each alpha of ``alphas``, for finite ``r``: the descent
    display has ``u = -alpha`` and ``X(t) = int_0^t f^r`` (constant beyond
    1), the ascent display ``u = alpha`` and ``X(t) = int_t^1 f^r``.  ``X``
    does not depend on alpha and is built once, from ``f / max f``: it
    scales by ``(max f)^r``, so the display scales by ``max f``.
    """
    v = np.asarray(prof.values, dtype=float)
    h, n = prof.width, len(v)
    scale = float(v.max()) or 1.0
    B = (v / scale) ** r
    a = np.arange(n) * h
    if descent:
        run = np.cumsum(B * h)
        A = np.concatenate([[0.0], run[:-1]]) - B * a
        tail = run[-1]  # X(1), continued constant on (1, inf)
        us = [-alpha for alpha in alphas]
    else:
        run = np.cumsum((B * h)[::-1])[::-1]
        A, B = run + B * a, -B
        tail, us = 0.0, list(alphas)
    live = (A != 0) | (B != 0)
    if q == INF:
        w = 1.0 / r
        u = np.array(us, dtype=float)[:, None]

        def val(t):
            # t^u row by row with a float exponent, as one alpha takes it
            tu = np.array([ti ** ui for ti, ui in
                           zip(np.broadcast_to(t, (len(us), n)), us)])
            return tu * np.maximum(A + B * t, 0.0) ** w

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tstar = -u * A / (B * (u + w))  # the interior critical point
            inside = (a < tstar) & (tstar < a + h)
            cands = np.stack([val(a + h), val(a), np.where(inside, val(tstar), 0.0)])
        # the first cell's left end is the one-sided limit at t -> 0+
        cands[1, :, 0] = [_lim0(ui, A[0], w) if A[0] > 0 else
                          _lim0(ui + w, abs(B[0]), w) if B[0] != 0 else 0.0
                          for ui in us]
        best = cands.compress(live, axis=-1).max(axis=(0, -1), initial=0.0).tolist()
        # descent: the sup over t >= 1 is at t = 1
        return [scale * max((tail**w if alpha > 0 else INF) if descent else 0.0, b)
                for alpha, b in zip(alphas, best)]
    cs, k = [ui * q for ui in us], q / r
    # the exponents c + m of the integrals int_cell t^{c+m-1} dt that k
    # reads: m = 0, 1 (k = 1), 0, 1, 2 (k = 2), or 0 and k
    offsets = [0.0, 1.0] if k == 1.0 else [0.0, 1.0, 2.0] if k == 2.0 else [0.0, k]
    sup, omega = _power_cells(np.add.outer(cs, offsets).ravel(), n, h, 1.0)
    I = (sup * omega).reshape(len(cs), len(offsets), n)  # +inf where it diverges
    Ik = I[:, -1]  # c + k: a pure power X = B t is exact for any k
    with np.errstate(invalid="ignore", over="ignore"):
        # where A != 0: the binomial expansion of X^k, reading I[:, :used]
        if k == 1.0:
            used, mixed = 2, A * I[:, 0] + B * I[:, 1]
        elif k == 2.0:
            used, mixed = 3, A * A * I[:, 0] + 2 * A * B * I[:, 1] + B * B * I[:, 2]
        else:
            # monotone endpoint bound (over-approximates the LHS)
            used, mixed = 1, np.maximum(A + B * a, A + B * (a + h)) ** k * I[:, 0]
        pure = A == 0
        term = np.where(pure, B**k * Ik, mixed)
    diverges = np.where(pure, np.isinf(Ik), np.isinf(I[:, :used]).any(axis=1))
    # each alpha's live terms summed along one C ordered row
    totals = term.compress(live, axis=-1).sum(axis=-1).tolist()
    out = []
    for c, total, div in zip(cs, totals, (live & diverges).any(axis=-1).tolist()):
        if div or (tail > 0.0 and c >= 0):
            out.append(INF)
            continue
        if tail > 0.0:
            total += tail**k * (-1.0 / c)  # int_1^inf t^{c-1} dt
        out.append(scale * total ** (1.0 / q))
    return out


def _lhs(prof: DyadicStep1D, q: float, r: float, alphas,
         descent: bool) -> list[float]:
    """The left side of the descent (or ascent) display at each alpha."""
    q, r = _pair("(q, r)", (q, r), *_POSITIVE)
    if r != INF:
        return _hardy_lhs(prof, q, r, alphas, descent)
    if descent:
        # running sup is f(0+) > 0: the t^{-alpha} weight diverges at 0
        return [INF if prof.values[0] > 0 else 0.0] * len(alphas)
    # running sup from the right equals f itself (right-continuous steps)
    return _weighted_step_q(prof, alphas, q).tolist()


def _rhs(prof: DyadicStep1D, q: float, r: float, alphas,
         descent: bool) -> list[float]:
    """The right side of the descent (or ascent) display at each alpha."""
    q, r = _pair("(q, r)", (q, r), *_POSITIVE)
    es = ([1.0 / r - alpha for alpha in alphas] if descent else
          [alpha + 1.0 / r for alpha in alphas])
    return _weighted_step_q(prof, es, q).tolist()


def hardy_grid(prof: DyadicStep1D, q: float, r: float, alphas,
               descent: bool) -> tuple[list[float], list[float]]:
    """The left and right sides of the descent (or ascent) display at each
    alpha of ``alphas``, each side evaluated for the whole grid at once.
    A one-alpha display is this grid at one alpha, and each entry has the
    bits of that display.  ``q`` and ``r`` lie in ``(0, inf]``, in every
    display."""
    return _lhs(prof, q, r, alphas, descent), _rhs(prof, q, r, alphas, descent)


def hardy_descent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{-alpha} (int_0^t f^r)^{1/r} )^q dt/t )^{1/q}``."""
    return _lhs(prof, q, r, [alpha], descent=True)[0]


def hardy_descent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{1/r - alpha} f(t) )^q dt/t )^{1/q}``."""
    return _rhs(prof, q, r, [alpha], descent=True)[0]


def hardy_ascent_lhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha} (int_t^inf f^r)^{1/r} )^q dt/t )^{1/q}``."""
    return _lhs(prof, q, r, [alpha], descent=False)[0]


def hardy_ascent_rhs(prof: DyadicStep1D, q: float, r: float, alpha: float) -> float:
    """``( int_0^inf ( t^{alpha + 1/r} f(t) )^q dt/t )^{1/q}``."""
    return _rhs(prof, q, r, [alpha], descent=False)[0]
