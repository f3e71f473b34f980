import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, settings

from lorentz_forge.fourier import coeffs_2d
from lorentz_forge.norms import _power_cells, _qsum, _stage
from lorentz_forge.stepfun import DyadicStep2D

INF = float("inf")

# the same examples on every run, and nothing written into the checkout:
# no example database, and the constants hypothesis caches from the source
# (at collection, before any fixture runs) go to the system temp directory
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir(), "lorentz-forge-hypothesis"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_grids(count, levels=(4, 4), seed=12345):
    """Deterministic batch of random step functions for property tests."""
    r = np.random.default_rng(seed)
    n1, n2 = levels
    return [DyadicStep2D(levels, r.random((2**n2, 2**n1)))
            for _ in range(count)]


# the rearrangement, the block table and the direct stage as plain
# whole-array sorts, cumsums and products, kept as references: the
# package's passes must give their bits


def ref_rearranged_values(v):
    """Each row of ``v[..., i, j]`` sorted nonincreasing, then each column,
    in the layout of ``v``: the negation sorted in place along the rows,
    then the columns, and negated back."""
    out = np.negative(v)
    out.sort(axis=-1)
    out.sort(axis=-2)
    return np.negative(out, out=out)


def ref_sort_desc(arr, axis):
    """``arr`` sorted nonincreasing along ``axis``, in the layout of ``arr``."""
    out = np.negative(arr)
    out.sort(axis=axis)
    return np.negative(out, out=out)


def ref_support_table(r):
    """The block tables of rearranged magnitudes ``r[..., i1, i2]``: the
    squares in a C ordered array, summed in place down each column, then
    along each row."""
    S = np.square(r, order="C")
    np.cumsum(S, axis=-2, out=S)
    return np.cumsum(S, axis=-1, out=S)


def ref_direct_stage(vals, sup, omega, q):
    """The direct weighted stage as a broadcast product: the q-sums of the
    rows of ``(..., R, n)`` values against ``(m, n)`` weight rows ``(sup,
    omega)``, an ``(..., m, R)`` array.  Each weight row's product with all
    the values is one temporary in the layout of ``vals``, q-summed by
    ``_qsum``; one row at a time, so a level-10 grid needs one 8 MiB
    product at a time."""
    def row(s, w):
        with np.errstate(invalid="ignore"):  # 0 * inf: _qsum counts it as 0
            base = vals * s
        return _qsum(base, w, q)

    return np.stack([row(s, w) for s, w in zip(sup, omega)], axis=-2)


def same_bits(got, want):
    """Equal shapes and equal bits, signs of zero and nan payloads included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and \
        np.array_equal(got.view(np.int64), want.view(np.int64))


# the per-item loops of the lemma checks, kept as references: the stacked
# checks must give their cases' bits


def ref_mixed_norm(f, p):
    """The mixed norm of one grid as two ``_qsum`` calls on its values in
    their own layout; the outer sum is a numpy scalar, so its root is
    libm's ``pow``."""
    h1, h2 = f.widths
    return float(_qsum(_qsum(np.asarray(f.values), h1, p[0]), h2, p[1]))


def ref_mink_cases(corpus, p, q):
    """``check_mink``'s cases ``(id, lhs, rhs)``, one function at a time:
    the x2-inner norms are those of the transposed grid, whose values are
    a column-major copy."""
    def x2_inner(f, vals, inner, outer):
        fT = DyadicStep2D((f.levels[1], f.levels[0]), np.asarray(vals).T)
        return ref_mixed_norm(fT, (inner, outer))

    out = []
    for i, f in enumerate(corpus):
        sorted_rows = -np.sort(-np.asarray(f.values), axis=1)
        lhs_a, rhs_a = x2_inner(f, f.values, q, p), x2_inner(f, sorted_rows, q, p)
        lhs_b, rhs_b = x2_inner(f, f.values, p, q), x2_inner(f, sorted_rows, p, q)
        out += [(f"f{i}:a", rhs_a, lhs_a), (f"f{i}:b", lhs_b, rhs_b)]
    return out


def ref_weighted_step_q(prof, e, q):
    """A Hardy right side (or the ascent left side at ``r = inf``) at one
    exponent ``e``: one ``_stage`` call on one weight row."""
    vals = np.asarray(prof.values, dtype=float)
    return float(_stage(vals[None], *_power_cells(np.array([e]), len(vals),
                                                   prof.width, q), q)[0, 0])


def _ref_lim0(s, x, w):
    """``lim_{t->0+} t^s x^w``."""
    return 0.0 if s > 0 else (x**w if s == 0 else INF)


def ref_hardy_lhs(prof, q, r, alpha, descent):
    """A Hardy left side at one alpha and finite ``r``, one alpha at a time
    as the package took it before it took a whole alpha grid: the running
    integral ``X = A + B t`` of ``f / max f`` per cell, the per-cell power
    integrals of ``c + (0, 1, 2, k)`` from one ``_power_cells`` call, and
    the live terms summed in one pass."""
    v = np.asarray(prof.values, dtype=float)
    h, n = prof.width, len(v)
    scale = float(v.max()) or 1.0
    B = (v / scale) ** r
    a = np.arange(n) * h
    if descent:
        run = np.cumsum(B * h)
        A = np.concatenate([[0.0], run[:-1]]) - B * a
        tail, u = run[-1], -alpha
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
            tstar = -u * A / (B * (u + w))
            inside = (a < tstar) & (tstar < a + h)
            cands = np.stack([val(a + h), val(a), np.where(inside, val(tstar), 0.0)])
        cands[1, 0] = (_ref_lim0(u, A[0], w) if A[0] > 0 else
                       _ref_lim0(u + w, abs(B[0]), w) if B[0] != 0 else 0.0)
        head = (tail**w if alpha > 0 else INF) if descent else 0.0
        return scale * max(head, float(cands[:, live].max(initial=0.0)))
    c, k = u * q, q / r
    sup, omega = _power_cells(c + np.array([0.0, 1.0, 2.0, k]), n, h, 1.0)
    I = sup * omega
    with np.errstate(invalid="ignore", over="ignore"):
        if k == 1.0:
            used, mixed = 2, A * I[0] + B * I[1]
        elif k == 2.0:
            used, mixed = 3, A * A * I[0] + 2 * A * B * I[1] + B * B * I[2]
        else:
            used, mixed = 1, np.maximum(A + B * a, A + B * (a + h)) ** k * I[0]
        pure = A == 0
        term = np.where(pure, B**k * I[3], mixed)
    diverges = np.where(pure, np.isinf(I[3]), np.isinf(I[:used]).any(axis=0))
    if (live & diverges).any():
        return INF
    total = float(term[live].sum())
    if tail > 0.0:
        if c >= 0:
            return INF
        total += tail**k * (-1.0 / c)
    return scale * total ** (1.0 / q)


def ref_hardy_sides(prof, q, r, alpha, descent):
    """Both sides of a Hardy display at one alpha: the left side at finite
    ``r`` by :func:`ref_hardy_lhs`, the right side (and the ascent left
    side at ``r = inf``) by :func:`ref_weighted_step_q`."""
    if descent:
        if r == INF:  # the running sup f(0+) meets the diverging t^{-alpha}
            lhs = INF if prof.values[0] > 0 else 0.0
        else:
            lhs = ref_hardy_lhs(prof, q, r, alpha, True)
        return lhs, ref_weighted_step_q(prof, 1.0 / r - alpha, q)
    lhs = (ref_weighted_step_q(prof, alpha, q) if r == INF
           else ref_hardy_lhs(prof, q, r, alpha, False))
    return lhs, ref_weighted_step_q(prof, alpha + 1.0 / r, q)


def ref_block_l2(a, N1, N2, order):
    """``block_l2`` of one matrix: the block of its rearrangement padded
    with zeros in the layout of its entries, summed whole."""
    r = (a._support if order == "seq" else a._fun_order)[:N1, :N2]
    block = np.zeros((N1, N2), order="F" if a.entries.flags.f_contiguous else "C")
    block[:r.shape[0], :r.shape[1]] = r
    return float(np.sqrt(np.sum(block**2)))


def ref_le3(corpus, systems, Ns):
    """``check_le3``'s cases ``(id, lhs, rhs)`` and its function-order
    maximum, one function at a time."""
    sys1, sys2 = systems
    cases, fun_max = [], 0.0
    for i, f in enumerate(corpus):
        n1, n2 = f.levels
        K1 = 2**n1 if sys1.kind == "walsh" else 2 ** (n1 + 2)
        K2 = 2**n2 if sys2.kind == "walsh" else 2 ** (n2 + 2)
        a = coeffs_2d(f, sys1, sys2, K1, K2)
        m21, m12, m11, m22 = (ref_mixed_norm(f, p)
                              for p in ((2, 1), (1, 2), (1, 1), (2, 2)))
        M1, M2 = sys1.bound, sys2.bound
        for (N1, N2) in Ns:
            N1c, N2c = min(N1, K1), min(N2, K2)
            lhs = ref_block_l2(a, N1c, N2c, "seq")
            tag = f"f{i}:N{N1}x{N2}"
            cases += [(tag + ":m21", lhs, M2 * N2c**0.5 * m21),
                      (tag + ":m12", lhs, M1 * N1c**0.5 * m12),
                      (tag + ":m11", lhs, M1 * M2 * (N1c * N2c) ** 0.5 * m11),
                      (tag + ":parseval", lhs, m22)]
            lhs_fun = ref_block_l2(a, N1c, N2c, "fun")
            fun_max = max(fun_max, lhs_fun / m22 if m22 > 0 else 0.0)
    return cases, fun_max
