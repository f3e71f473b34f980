"""Constructive K-functional upper bound for the (L_(1,1), L_(2,2)) couple
and the discretized two-parameter interpolation norm built from it.

The bound evaluates, at parameters ``w_i = t_i^2`` and with every range
intersected with (0,1] (the zero extension kills all tails),

* ``T00``: the running-average integral over ``(0,w1] x (0,w2]``,
* ``T10``: the inner-l2 tail in s1 over ``(w1,1]`` integrated over ``(0,w2]``,
* ``T01``: the squared running-average integral over ``(0,w1] x (w2,1]``,
* ``T11``: the plain l2 mass of the tail rectangle ``(w1,1] x (w2,1]``,

and combines them as ``Khat = T00 + t1 T10 + t2 T01 + t1 t2 T11``.  The
integrands are piecewise ``alpha + beta/s`` (antiderivatives use ``ln``) or
squares of step functions, so everything is closed form.  ``Khat`` is
constant for ``t >= (1,1)``, which makes the upper tails of the
interpolation integral exact.

For a fixed ``w1`` the s2-direction profiles are step functions (the
inner-l2 tail and the squared row masses) or piecewise ``alpha + beta/s``
(the running average), one value of ``alpha`` and ``beta`` per s2-cell.
Their antiderivatives are cumulated once over the cells, so each ``w2`` is a
lookup of its cell's prefix or suffix plus a partial-cell term.  One call
of ``_khat_of`` does this for every grid of a stack and every ``w1`` at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import _DEPTH_MAX, _LN2, _nested
from .stepfun import _FINITE_POSITIVE, _POSITIVE, DyadicStep2D, _integer, _pair

_UNIT = (lambda th: 0 < th < 1, "in (0,1)")  # the domain of theta


@dataclass(frozen=True)
class KTerms:
    """The four decomposition norm bounds at one ``(t1, t2)`` point."""

    t1: float
    t2: float
    t00: float
    t10: float
    t01: float
    t11: float

    @property
    def khat(self) -> float:
        t1, t2 = min(self.t1, 1.0), min(self.t2, 1.0)  # as _khat_of reads t
        return self.t00 + t1 * self.t10 + t2 * self.t01 + t1 * t2 * self.t11


@dataclass(frozen=True)
class ThetaPoint:
    """Interpolation parameter with its induced integrability exponents
    ``1/p_i = 1 - theta_i / 2`` (so ``p`` lies in (1,2) componentwise)."""

    theta: tuple[float, float]
    p: tuple[float, float]


def theta_from_p(p: tuple[float, float]) -> ThetaPoint:
    """Invert ``1/p_i = 1 - theta_i/2`` for ``p`` in (1,2) componentwise."""
    p = _pair("p", p, lambda pi: 1.0 < pi < 2.0, "in (1,2)")
    return ThetaPoint(tuple(2.0 * (1.0 - 1.0 / pi) for pi in p), p)


def _theta_p(t: float) -> float:
    """The exponent ``p_i = 1/(1 - theta_i/2)`` that ``theta_i`` induces:
    the inverse of :func:`theta_from_p`, one component at a time."""
    return 1.0 / (1.0 - t / 2.0)


def beta_from_q(q: tuple[float, float]) -> tuple[float, float]:
    """``beta_i = max(1/2, 1/q_i)`` with ``1/inf = 0``."""
    return tuple(max(0.5, 1.0 / qi) for qi in q)


def constant_D(theta: tuple[float, float], q: tuple[float, float]) -> float:
    """Explicit interpolation constant: the four-term maximum

    ``max{1/(th1 th2), 1/((1-th1)^b1 th2), 1/((1-th2)^b2 th1),
    1/((1-th1)^b1 (1-th2)^b2)}`` with ``b_i = max(1/2, 1/q_i)``, for
    ``theta`` in ``(0,1)^2`` and ``q`` in ``(0, inf]^2``.
    """
    th1, th2 = _pair("theta", theta, *_UNIT)
    b1, b2 = beta_from_q(_pair("q", q, *_POSITIVE))
    return max(
        1.0 / (th1 * th2),
        1.0 / ((1.0 - th1) ** b1 * th2),
        1.0 / ((1.0 - th2) ** b2 * th1),
        1.0 / ((1.0 - th1) ** b1 * (1.0 - th2) ** b2),
    )


def k_upper(f: DyadicStep2D, t1: float, t2: float) -> KTerms:
    """The four norm bounds of the constructive decomposition at ``(t1, t2)``,
    both in ``(0, inf)``."""
    _pair("(t1, t2)", (t1, t2), *_FINITE_POSITIVE)
    _, *terms = _khat_of(f.rearranged, f.widths, [t1], [t2])
    return KTerms(t1, t2, *(float(T[0, 0]) for T in terms))


def khat_grid(f: DyadicStep2D, t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """Matrix ``Khat[i, j]`` over the grids ``t1s x t2s``, every point in
    ``(0, inf)``."""
    if not all(((t > 0) & (t < np.inf)).all() for t in map(np.asarray, (t1s, t2s))):
        raise ValueError(f"t1, t2 must be positive and finite, got {t1s}, {t2s}")
    return _khat_of(f.rearranged, f.widths, t1s, t2s)[0]


def _khat_of(G: np.ndarray, widths: tuple[float, float], t1s, t2s):
    """``(Khat, T00, T10, T01, T11)`` over ``(..., t1s, t2s)`` from the
    rearranged values ``G[..., j2, j1]`` and the cell widths: a stack of
    grids gives each grid's own values, bit for bit.

    The r1 contractions are stacked matrix-vector products, one gemv per
    grid and t1, so no entry's bits depend on how many grids or points
    share the call.  Each grid is divided by the power of two ``2^k`` that
    brings its largest value into [1/2, 1) before ``G`` is squared, and
    ``2^k`` multiplies the five outputs back: every term is 1-homogeneous
    in ``G``, so this is exact, and no magnitude overflows or underflows.
    """
    h1, h2 = widths
    r2, r1 = G.shape[-2:]
    k = np.frexp(G.max(axis=(-2, -1)))[1][..., None, None]
    G = np.ldexp(G, -k)
    # Khat is constant for t >= 1: every t past 1 is read as 1
    t1s = np.minimum(np.asarray(t1s, dtype=float), 1.0)[:, None]
    t2s = np.minimum(np.asarray(t2s, dtype=float), 1.0)
    c1 = np.clip(t1s**2 - np.arange(r1) * h1, 0.0, h1)
    # int_0^{w1} g ds1 and int_{w1}^1 g^2 ds1 per s2-cell: [..., t1, j2]
    R = (G[..., None, :, :] @ c1[:, :, None])[..., 0]
    Q2tail = ((G**2)[..., None, :, :] @ (h1 - c1)[:, :, None])[..., 0]
    V = np.sqrt(Q2tail)
    edges2 = np.arange(r2 + 1) * h2
    a, b = edges2[:-1], edges2[1:]
    beta = _cumsum(R * h2)[..., :-1] - R * a  # A(s2)/s2 = R + beta/s2 per cell

    w2 = t2s**2
    j = np.minimum((w2 / h2).astype(int), r2 - 1)
    aj, bj = a[j], np.minimum(w2, b[j])
    Rj, betaj = R[..., j], beta[..., j]

    T10 = _cumsum(V * h2)[..., j] + V[..., j] * (bj - aj)
    T11 = np.sqrt(np.maximum(_cumsum(Q2tail * h2, tail=True)[..., j]
                             - Q2tail[..., j] * (bj - aj), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_b_a = np.where(beta != 0.0, np.log(b / np.where(a > 0, a, 1.0)), 0.0)
        part_ln = np.where(betaj != 0.0, np.log(bj / np.where(aj > 0, aj, 1.0)), 0.0)
    T00 = _cumsum(R * h2 + beta * ln_b_a)[..., j] + Rj * (bj - aj) + betaj * part_ln
    full01 = _sq_anti(b, R, beta) - _sq_anti(a, R, beta)
    part01 = _sq_anti(bj, Rj, betaj) - _sq_anti(aj, Rj, betaj)
    T01 = np.sqrt(np.maximum(_cumsum(full01, tail=True)[..., j] - part01, 0.0))
    return tuple(np.ldexp(T, k) for T in
                 (T00 + t1s * T10 + t2s * T01 + t1s * t2s * T11, T00, T10, T01, T11))


def _cumsum(x: np.ndarray, tail: bool = False) -> np.ndarray:
    """Running sums along the last axis with a zero at the open end: the
    prefix sums ``[0, x0, x0 + x1, ...]`` or, with ``tail``, the suffix sums
    ``[..., x_{n-2} + x_{n-1}, x_{n-1}, 0]``."""
    pad = np.zeros(x.shape[:-1] + (1,))
    if tail:
        return np.concatenate([np.cumsum(x[..., ::-1], axis=-1)[..., ::-1], pad], axis=-1)
    return np.concatenate([pad, np.cumsum(x, axis=-1)], axis=-1)


def _sq_anti(s, alpha, bet):
    """Antiderivative of ``(alpha + bet/s)^2``, with the ``1/s`` and ``ln``
    terms dropped exactly when ``bet == 0`` (the first s2-cell)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(bet != 0.0, -bet**2 / np.where(s > 0, s, 1.0), 0.0)
        lg = np.where(bet != 0.0, 2 * alpha * bet * np.log(np.where(s > 0, s, 1.0)), 0.0)
    return alpha**2 * s + lg + inv


def interp_norm(f: DyadicStep2D, theta: tuple[float, float],
                q: tuple[float, float], J: int = 10) -> float:
    """Discretized two-parameter interpolation norm of ``Khat``.

    Dyadic sampling at ``t_i = 2^m, m = -J..0`` with left-endpoint values and
    exact power-weight cell integrals; the ``t >= 1`` tails use the exact
    constancy of ``Khat`` there, and the ``t -> 0`` tails use the linear
    vanishing model matched at the boundary sample.  The result
    under-approximates the continuous integral of ``Khat``.  ``theta`` lies
    in ``(0,1)^2`` and ``q`` in ``(0, inf]^2``.
    """
    ts = _interp_samples(theta, J)
    q = _pair("q", q, *_POSITIVE)
    return float(_interp_of(khat_grid(f, ts, ts), [[th] for th in theta], q, J)[0, 0])


def _interp_samples(theta: tuple[float, float], J: int) -> np.ndarray:
    """The sample points ``t = 2^m, m = -J..0`` of :func:`interp_norm` on
    each axis, after checking ``theta`` and ``J``."""
    _pair("theta", theta, *_UNIT)
    return 2.0 ** np.arange(-_integer(J, 4, "J", _DEPTH_MAX), 1)


def _interp_of(K: np.ndarray, thetas, q: tuple[float, float], J: int) -> np.ndarray:
    """:func:`interp_norm` of the Khat grids ``K[..., i, j]``, each a
    ``khat_grid(f, ts, ts)`` over the samples ``ts`` of
    :func:`_interp_samples`, at every theta of the grid ``thetas``, the
    theta_1 values and the theta_2 values: ``out[..., i, j]`` at
    ``(thetas[0][i], thetas[1][j])``.  One
    :func:`~lorentz_forge.norms._nested` call with one weight row per
    theta_i, each summed on its own, so an entry has the bits of its
    one-point call and a stack of grids gives each grid's own values.
    """
    ts = 2.0 ** np.arange(-J, 1)
    weights = []
    for ax, qq in zip(thetas, q):
        rows = []
        for th in ax:
            # the cells [2^m, 2^{m+1}), m = -J..-1, weigh K(2^m) 2^{-m th};
            # the t >= 1 tail is exact (Khat is constant there), and the
            # linear model below 2^-J adds to the first sample's weight
            omega = np.full(len(ts), -np.expm1(-th * qq * _LN2) / (th * qq))
            omega[-1] = 1.0 / (th * qq)
            omega[0] += 1.0 / ((1.0 - th) * qq)
            rows.append((ts**-th, omega))
        weights.append((*map(np.array, zip(*rows)), qq))
    # [..., t2, t1]: the t1 stage runs along the last axis, then t2
    return _nested(K.swapaxes(-1, -2), *weights)
