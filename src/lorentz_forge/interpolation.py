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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import _LN2, _nested
from .stepfun import DyadicStep2D


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
        return self.t00 + self.t1 * self.t10 + self.t2 * self.t01 \
            + self.t1 * self.t2 * self.t11


@dataclass(frozen=True)
class ThetaPoint:
    """Interpolation parameter with its induced integrability exponents
    ``1/p_i = 1 - theta_i / 2`` (so ``p`` lies in (1,2) componentwise)."""

    theta: tuple[float, float]
    p: tuple[float, float]


def theta_from_p(p: tuple[float, float]) -> ThetaPoint:
    """Invert ``1/p_i = 1 - theta_i/2`` for ``p`` in (1,2) componentwise."""
    for pi in p:
        if not (1.0 < pi < 2.0):
            raise ValueError(f"p components must lie in (1,2), got {p}")
    theta = tuple(2.0 * (1.0 - 1.0 / pi) for pi in p)
    return ThetaPoint(theta, (float(p[0]), float(p[1])))


def beta_from_q(q: tuple[float, float]) -> tuple[float, float]:
    """``beta_i = max(1/2, 1/q_i)`` with ``1/inf = 0``."""
    return tuple(max(0.5, 1.0 / qi) for qi in q)


def constant_D(theta: tuple[float, float], q: tuple[float, float]) -> float:
    """Explicit interpolation constant: the four-term maximum

    ``max{1/(th1 th2), 1/((1-th1)^b1 th2), 1/((1-th2)^b2 th1),
    1/((1-th1)^b1 (1-th2)^b2)}`` with ``b_i = max(1/2, 1/q_i)``.
    """
    th1, th2 = theta
    if not (0 < th1 < 1 and 0 < th2 < 1):
        raise ValueError(f"theta must lie in (0,1)^2, got {theta}")
    b1, b2 = beta_from_q(q)
    return max(
        1.0 / (th1 * th2),
        1.0 / ((1.0 - th1) ** b1 * th2),
        1.0 / ((1.0 - th2) ** b2 * th1),
        1.0 / ((1.0 - th1) ** b1 * (1.0 - th2) ** b2),
    )


class _KhatEvaluator:
    """Closed-form evaluation of the four terms on a rearranged grid.

    For a fixed ``w1`` the s2-direction profiles are step or piecewise-linear
    functions whose cumulative antiderivatives are precomputed once, so a
    whole array of ``w2`` values is evaluated vectorized.
    """

    def __init__(self, G: np.ndarray, widths: tuple[float, float]):
        self.G = G  # [j2, j1]
        self.h1, self.h2 = widths
        self.r2, self.r1 = self.G.shape
        self.edges1 = np.arange(self.r1 + 1) * self.h1
        self.edges2 = np.arange(self.r2 + 1) * self.h2
        self.G2 = self.G**2

    def terms(self, w1: float, w2s: np.ndarray):
        """Arrays ``(T00, T10, T01, T11)`` over the ``w2s`` grid at fixed ``w1``."""
        w1 = min(w1, 1.0)
        c1 = np.clip(w1 - self.edges1[:-1], 0.0, self.h1)
        ctail = self.h1 - c1
        R = self.G @ c1                      # int_0^{w1} g ds1 per s2-cell
        Q2tail = self.G2 @ ctail             # int_{w1}^1 g^2 ds1
        V = np.sqrt(Q2tail)
        a = self.edges2[:-1]
        b = self.edges2[1:]
        Acum = np.concatenate([[0.0], np.cumsum(R * self.h2)])
        beta = Acum[:-1] - R * a             # A(s2)/s2 = R + beta/s2 on each cell

        w2c = np.clip(np.asarray(w2s, dtype=float), 0.0, 1.0)
        j = np.minimum((w2c / self.h2).astype(int), self.r2 - 1)
        aj = a[j]
        bj = np.minimum(w2c, b[j])

        # T10: prefix integral of the step V
        p10 = np.concatenate([[0.0], np.cumsum(V * self.h2)])
        T10 = p10[j] + V[j] * (bj - aj)

        # T11^2: suffix integral of the step g^2 row masses over (w2, 1]
        s11 = np.concatenate([np.cumsum((Q2tail * self.h2)[::-1])[::-1], [0.0]])
        T11 = np.sqrt(np.maximum(s11[j] - Q2tail[j] * (bj - aj), 0.0))

        # T00: integral of R + beta/s over (0, w2]
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_b_a = np.where(beta != 0.0, np.log(b / np.where(a > 0, a, 1.0)), 0.0)
        full00 = R * self.h2 + beta * ln_b_a
        cum00 = np.concatenate([[0.0], np.cumsum(full00)])
        with np.errstate(divide="ignore", invalid="ignore"):
            part_ln = np.where(beta[j] != 0.0,
                               np.log(bj / np.where(aj > 0, aj, 1.0)), 0.0)
        T00 = cum00[j] + R[j] * (bj - aj) + beta[j] * part_ln

        # T01^2: integral of (R + beta/s)^2 over (w2, 1]
        def sq_anti(s, alpha, bet):
            # antiderivative of (alpha + bet/s)^2, with the 1/s and ln terms
            # dropped exactly when bet == 0 (first cell has bet == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(bet != 0.0, -bet**2 / np.where(s > 0, s, 1.0), 0.0)
                lg = np.where(bet != 0.0, 2 * alpha * bet * np.log(np.where(s > 0, s, 1.0)), 0.0)
            return alpha**2 * s + lg + inv

        full01 = sq_anti(b, R, beta) - sq_anti(a, R, beta)
        suf01 = np.concatenate([np.cumsum(full01[::-1])[::-1], [0.0]])
        part01 = sq_anti(bj, R[j], beta[j]) - sq_anti(aj, R[j], beta[j])
        T01 = np.sqrt(np.maximum(suf01[j] - part01, 0.0))
        return T00, T10, T01, T11


def k_upper(f: DyadicStep2D, t1: float, t2: float) -> KTerms:
    """The four norm bounds of the constructive decomposition at ``(t1, t2)``."""
    if t1 <= 0 or t2 <= 0:
        raise ValueError("t1, t2 must be positive")
    ev = _KhatEvaluator(f.rearranged, f.widths)
    T00, T10, T01, T11 = ev.terms(min(t1 * t1, 1.0), np.array([t2 * t2]))
    return KTerms(t1, t2, float(T00[0]), float(T10[0]), float(T01[0]), float(T11[0]))


def khat_grid(f: DyadicStep2D, t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """Matrix ``Khat[i, j]`` over the grids ``t1s x t2s``."""
    return _khat_of(f.rearranged, f.widths, t1s, t2s)


def _khat_of(G: np.ndarray, widths: tuple[float, float], t1s: np.ndarray,
             t2s: np.ndarray) -> np.ndarray:
    """:func:`khat_grid` from the rearranged values ``G[j2, j1]`` and the
    cell widths."""
    ev = _KhatEvaluator(G, widths)
    t1s = np.asarray(t1s, dtype=float)
    t2s = np.asarray(t2s, dtype=float)
    w2s = np.minimum(t2s**2, 1.0)
    out = np.empty((len(t1s), len(t2s)))
    for i, t1 in enumerate(t1s):
        T00, T10, T01, T11 = ev.terms(min(t1 * t1, 1.0), w2s)
        out[i] = T00 + t1 * T10 + t2s * T01 + t1 * t2s * T11
    return out


def interp_norm(f: DyadicStep2D, theta: tuple[float, float],
                q: tuple[float, float], J: int = 10) -> float:
    """Discretized two-parameter interpolation norm of ``Khat``.

    Dyadic sampling at ``t_i = 2^m, m = -J..0`` with left-endpoint values and
    exact power-weight cell integrals; the ``t >= 1`` tails use the exact
    constancy of ``Khat`` there, and the ``t -> 0`` tails use the linear
    vanishing model matched at the boundary sample.  The result
    under-approximates the continuous integral of ``Khat``.
    """
    ts = _interp_samples(theta, J)
    return float(_interp_of(khat_grid(f, ts, ts), theta, q, J))


def _interp_samples(theta: tuple[float, float], J: int) -> np.ndarray:
    """The sample points ``t = 2^m, m = -J..0`` of :func:`interp_norm` on
    each axis, after checking ``theta`` and ``J``."""
    th1, th2 = theta
    if not (0 < th1 < 1 and 0 < th2 < 1):
        raise ValueError(f"theta must lie in (0,1)^2, got {theta}")
    if J < 4:
        raise ValueError("J must be >= 4")
    return 2.0 ** np.arange(-J, 1)


def _interp_of(K: np.ndarray, theta: tuple[float, float],
               q: tuple[float, float], J: int) -> np.ndarray:
    """:func:`interp_norm` from Khat grids ``K[..., i, j]``, each a
    ``khat_grid(f, ts, ts)`` over the samples ``ts`` of
    :func:`_interp_samples`, shape ``(...)``: one
    :func:`~lorentz_forge.norms._nested` call over the sample weights, so a
    stack of grids gives each grid's own value, bit for bit.
    """
    ts = 2.0 ** np.arange(-J, 1)
    weights = []
    for th, qq in zip(theta, q):
        # the cells [2^m, 2^{m+1}), m = -J..-1, weigh K(2^m) 2^{-m th}; the
        # t >= 1 tail is exact (Khat is constant there), and the linear
        # model below 2^-J adds to the first sample's weight
        omega = np.full(len(ts), -np.expm1(-th * qq * _LN2) / (th * qq))
        omega[-1] = 1.0 / (th * qq)
        omega[0] += 1.0 / ((1.0 - th) * qq)
        weights.append(((ts**-th)[None], omega[None], qq))
    # [..., t2, t1]: the t1 stage runs along the last axis, then t2
    return _nested(np.ascontiguousarray(K).swapaxes(-1, -2), *weights)[..., 0, 0]
