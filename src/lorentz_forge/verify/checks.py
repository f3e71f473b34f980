"""The inequality checks and the named verification suites.

Each check turns one inequality into a :class:`CheckReport` over a
deterministic corpus.  Exact-constant checks assert at constant 1 with a
rounding tolerance; calibrated checks compare against thresholds pinned in
``data/calibration.json``.  Approximation directions are always favorable
for the asserted side (supremum-type left sides are under-approximated,
right sides are exact or under-approximated) and are recorded in the report
notes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..fourier import (WALSH, TRIG, _block_sup_of, _bochkarev_of, _te4_lhs_of,
                       block_l2, coeffs_2d)
from ..interpolation import _interp_of, _interp_samples, constant_D, khat_grid
from ..norms import (Exponents, GrandParams, _block_cumsum, _dyadic_sqrt,
                     _grand_lorentz_of, _lorentz_of, _rearranged_values,
                     _seq_block_lorentz_of, grand_lorentz_norm,
                     logweight_sup_norm, lorentz_norm, mixed_lebesgue_norm)
from ..stepfun import DyadicStep1D, DyadicStep2D
from .calibration import calibration
from .corpus import (CorpusSpec, corpus_hash, generate,
                     generate_karamata_pairs, generate_lacunary_pairs)
from .hardy import (hardy_ascent_lhs, hardy_ascent_rhs, hardy_descent_lhs,
                    hardy_descent_rhs)
from .report import CheckCase, CheckReport, serialize_grid

INF = float("inf")

def _attach_witness(rep: CheckReport, items) -> None:
    """Serialize the worst case's function when the id carries its index."""

    def witness(cid: str):
        tok = cid.split(":")[0]
        if tok.startswith("f") and tok[1:].isdigit():
            item = items[int(tok[1:])]
            f = item[1] if isinstance(item, tuple) else item
            return serialize_grid(f)
        return {"case": cid}

    rep.finalize_witness(witness)


# ---------------------------------------------------------------------------
# section-3 lemmas


def check_karamata(pairs, p: float, tol: float = 1e-12) -> CheckReport:
    """Prefix-majorized nonincreasing pairs: the p-th power sums order one
    way for p >= 1 and the other for p <= 1."""
    rep = CheckReport("karamata", {"p": p}, "", 1.0 + tol)
    for i, (f, g) in enumerate(pairs):
        sf, sg = float(np.sum(f**p)), float(np.sum(g**p))
        lhs, rhs = (sg, sf) if p >= 1 else (sf, sg)
        rep.cases.append(CheckCase(f"pair{i}", lhs, rhs))
    rep.notes["direction"] = "exact closed-form sums"
    _attach_witness(rep, [])
    return rep


def check_mink(corpus, p: float, q: float, tol: float = 1e-10) -> CheckReport:
    """Row rearrangement decreases the (inner q over x2, outer p over x1)
    mixed norm and increases the (inner p, outer q) one, for p <= q."""
    if not (0 < p <= q):
        raise ValueError(f"requires 0 < p <= q, got ({p}, {q})")
    rep = CheckReport("mink", {"p": p, "q": q}, corpus_hash(corpus), 1.0 + tol)

    def norm_x2_inner(vals, levels, inner, outer):
        fT = DyadicStep2D((levels[1], levels[0]), np.asarray(vals).T)
        return mixed_lebesgue_norm(fT, (inner, outer))

    for i, f in enumerate(corpus):
        sorted_rows = -np.sort(-np.asarray(f.values), axis=1)
        lhs_a = norm_x2_inner(f.values, f.levels, q, p)
        rhs_a = norm_x2_inner(sorted_rows, f.levels, q, p)
        lhs_b = norm_x2_inner(f.values, f.levels, p, q)
        rhs_b = norm_x2_inner(sorted_rows, f.levels, p, q)
        rep.cases.append(CheckCase(f"f{i}:a", rhs_a, lhs_a))
        rep.cases.append(CheckCase(f"f{i}:b", lhs_b, rhs_b))
    rep.notes["direction"] = "both sides exact"
    _attach_witness(rep, corpus)
    return rep


def _hardy_profiles(r: float, seed: int) -> list[tuple[str, DyadicStep1D]]:
    profs = [("indicator", DyadicStep1D(0, np.array([1.0])))]
    rr = 1.0 if r == INF else r
    level = 12
    t = (np.arange(2**level) + 0.5) * 2.0**-level
    profs.append(("power", DyadicStep1D(level, t ** (-1.0 / (2.0 * rr)))))
    rng = np.random.default_rng(seed)
    profs.append(("step", DyadicStep1D(8, np.sort(rng.random(2**8))[::-1])))
    return profs


def check_hardy(q: float, r: float, alpha_grid, seed: int = 7) -> CheckReport:
    """Both weighted Hardy displays, alpha-normalized.

    Asserts ``LHS * alpha^beta / RHS <= C`` with ``beta = max(1/q, 1/r)``;
    divergent cases are skipped and recorded.  The alpha-uniformity
    statistic (max within twice the median across the alpha grid) is
    measured at the rate a compactly supported profile can attain:
    ``alpha^{-1/q}`` (driven by the weight tail over t > 1), and rate 0 for
    the ascent display with r = inf, where the two sides coincide.  The
    worst-case ``beta`` exceeds that rate when r < q, so the raw
    beta-normalized ratio necessarily drifts downward there and is not a
    meaningful uniformity probe.
    """
    cal = calibration()
    beta = max(0.0 if q == INF else 1.0 / q, 0.0 if r == INF else 1.0 / r)
    gamma_descent = 0.0 if q == INF else 1.0 / q
    rep = CheckReport("hardy", {"q": q, "r": r}, "", cal["hardy_C_pass"])
    skipped = []
    ratios: dict[str, list[float]] = {}
    for name, prof in _hardy_profiles(r, seed):
        for disp, flhs, frhs in (("descent", hardy_descent_lhs, hardy_descent_rhs),
                                 ("ascent", hardy_ascent_lhs, hardy_ascent_rhs)):
            key = f"{name}:{disp}"
            gamma = gamma_descent if (disp == "descent" or r != INF) else 0.0
            ratios[key] = []
            for alpha in alpha_grid:
                lhs = flhs(prof, q, r, alpha)
                rhs = frhs(prof, q, r, alpha)
                if not np.isfinite(lhs) or not np.isfinite(rhs) or rhs == 0:
                    skipped.append(f"{key}:a={alpha}")
                    continue
                rep.cases.append(CheckCase(f"{key}:a={alpha}",
                                           lhs * alpha**beta, rhs))
                ratios[key].append(lhs * alpha**gamma / rhs)
    uni = {}
    for key, rs in ratios.items():
        if len(rs) >= 3:
            uni[key] = max(rs) / float(np.median(rs))
    rep.notes["skipped_divergent"] = skipped
    rep.notes["alpha_uniformity_max_over_median"] = uni
    rep.notes["uniformity_threshold"] = cal["hardy_alpha_uniformity"]
    rep.notes["uniformity_pass"] = bool(
        all(u <= cal["hardy_alpha_uniformity"] for u in uni.values()))
    _attach_witness(rep, [])
    return rep


# ---------------------------------------------------------------------------
# coefficient block bounds


def check_le3(corpus, systems=(WALSH, WALSH), Ns=((2, 2), (8, 8), (32, 32)),
              tol: float = 1e-9) -> CheckReport:
    """Four block bounds for rearranged coefficients of M=1 systems.

    Gated in the sequence rearrangement order (second index first); the
    function-order block sums are recorded but not gated, since the two
    orders genuinely differ on non-tensor matrices.
    """
    sys1, sys2 = systems
    rep = CheckReport("le3", {"systems": [sys1.kind, sys2.kind],
                              "N": [list(n) for n in Ns]},
                      corpus_hash(corpus), 1.0 + tol)
    fun_order_max = 0.0
    for i, f in enumerate(corpus):
        n1, n2 = f.levels
        K1 = 2**n1 if sys1.kind == "walsh" else 2 ** (n1 + 2)
        K2 = 2**n2 if sys2.kind == "walsh" else 2 ** (n2 + 2)
        a = coeffs_2d(f, sys1, sys2, K1, K2)
        m21 = mixed_lebesgue_norm(f, (2, 1))
        m12 = mixed_lebesgue_norm(f, (1, 2))
        m11 = mixed_lebesgue_norm(f, (1, 1))
        m22 = mixed_lebesgue_norm(f, (2, 2))
        M1, M2 = sys1.bound, sys2.bound
        for (N1, N2) in Ns:
            N1c, N2c = min(N1, K1), min(N2, K2)
            lhs = block_l2(a, N1c, N2c, order="seq")
            rep.cases.append(CheckCase(f"f{i}:N{N1}x{N2}:m21",
                                       lhs, M2 * N2c**0.5 * m21))
            rep.cases.append(CheckCase(f"f{i}:N{N1}x{N2}:m12",
                                       lhs, M1 * N1c**0.5 * m12))
            rep.cases.append(CheckCase(f"f{i}:N{N1}x{N2}:m11",
                                       lhs, M1 * M2 * (N1c * N2c) ** 0.5 * m11))
            rep.cases.append(CheckCase(f"f{i}:N{N1}x{N2}:parseval", lhs, m22))
            lhs_fun = block_l2(a, N1c, N2c, order="fun")
            fun_order_max = max(fun_order_max,
                                lhs_fun / m22 if m22 > 0 else 0.0)
    rep.notes["fun_order_max_ratio_vs_parseval"] = fun_order_max
    rep.notes["direction"] = ("trig truncation under-approximates the left side"
                              if "trig" in (sys1.kind, sys2.kind)
                              else "walsh blocks exact")
    _attach_witness(rep, corpus)
    return rep


# ---------------------------------------------------------------------------
# the main theorems


class _Prepared:
    """The per-function pieces of one corpus item, each computed on first
    use and read at every parameter point of a sweep.

    An item is a function, whose Walsh coefficients are taken at full
    resolution, or a ``(coefficients, function)`` pair with planted
    coefficients.  ``khat_ts`` are the sample points of the Khat grid.
    """

    def __init__(self, item, khat_ts=None):
        self.a, self.f = item if isinstance(item, tuple) else (None, item)
        self.khat_ts = khat_ts

    @cached_property
    def g(self) -> np.ndarray:
        """The rearranged values of the function."""
        return _rearranged_values(self.f)

    @cached_property
    def S(self) -> np.ndarray:
        """The block table of the coefficient magnitudes."""
        a = self.a
        if a is None:
            n1, n2 = self.f.levels
            a = coeffs_2d(self.f, WALSH, WALSH, 2**n1, 2**n2)
        return _block_cumsum(a.magnitudes)

    @cached_property
    def sqrtS(self) -> np.ndarray:
        """The dyadic sqrt sub-table of :attr:`S`."""
        return _dyadic_sqrt(self.S)

    @cached_property
    def K(self) -> np.ndarray:
        """The Khat grid over ``khat_ts x khat_ts``."""
        return khat_grid(self.f, self.khat_ts, self.khat_ts)


# Each check below is the one-point case of its sweep.  A sweep takes a list
# of parameter points and returns one report per point; it prepares each
# corpus item once, appends that item's case to every point's report, and
# drops the item's pieces before the next one.


def te3_sweep(corpus, points, c0: float | None = None) -> list[CheckReport]:
    """:func:`check_te3` at each ``(theta, q)`` of ``points``."""
    c0 = calibration()["te3_c0"] if c0 is None else c0
    h = corpus_hash(corpus)
    pts = []
    for theta, q in points:
        p = tuple(1.0 / (1.0 - t / 2.0) for t in theta)
        rep = CheckReport("te3", {"theta": list(theta), "q": _jq(q)}, h, c0)
        pts.append((rep, p, q, constant_D(theta, q)))
    for i, f in enumerate(corpus):
        prep = _Prepared(f)
        for rep, p, q, D in pts:
            lhs = _seq_block_lorentz_of(prep.sqrtS, p, q)
            rhs = 6.0 * D * _lorentz_of(prep.g, prep.f.widths, Exponents(p, q))
            rep.cases.append(CheckCase(f"f{i}", lhs, rhs))
    for rep, _p, _q, D in pts:
        rep.notes["D"] = D
        # the raw lhs / Lorentz ratio normalized by D: the growth statistic
        rep.notes["max_ratio_over_D"] = rep.max_ratio * 6.0
        rep.notes["direction"] = "lhs exact (walsh), rhs exact"
        _attach_witness(rep, list(corpus))
    return [rep for rep, *_ in pts]


def check_te3(corpus, theta, q, c0: float | None = None) -> CheckReport:
    """Discrete block norm of the coefficients against ``6 D(theta) |f|``."""
    return te3_sweep(corpus, [(theta, q)], c0)[0]


def te4_sweep(corpus, points, C_pass: float | None = None,
              pairs=None) -> list[CheckReport]:
    """:func:`check_te4` at each ``(theta, q, with_pairs)`` of ``points``;
    the lacunary ``pairs`` enter the reports of the points with
    ``with_pairs`` only."""
    C_pass = calibration()["te4_C_pass"] if C_pass is None else C_pass
    pairs = list(pairs or [])
    hashes = {w: corpus_hash(list(corpus) + (pairs if w else []))
              for w in {w for *_, w in points}}
    pts = []
    for theta, q, with_pairs in points:
        rep = CheckReport("te4", {"theta": list(theta), "q": _jq(q)},
                          hashes[with_pairs], C_pass)
        pts.append((rep, Exponents((2, 2), q), GrandParams(theta), with_pairs))
    items = [(f"f{i}", f, False) for i, f in enumerate(corpus)] + \
        [(f"flac{j}", pair, True) for j, pair in enumerate(pairs)]
    for cid, item, is_pair in items:
        prep = _Prepared(item)
        for rep, e, gp, with_pairs in pts:
            if is_pair and not with_pairs:
                continue
            lhs = _te4_lhs_of(prep.sqrtS, e, gp).value
            rhs = _grand_lorentz_of(prep.g, prep.f.widths, e, gp).value
            rep.cases.append(CheckCase(cid, lhs, rhs))
    for rep, *_ in pts:
        rep.notes["direction"] = ("lhs grid-sup under, rhs grid-sup under "
                                  "(conservative for the asserted bound)")
        rep.notes["seq_exponent_sign"] = "minus"
        _attach_witness(rep, list(corpus))
    return [rep for rep, *_ in pts]


def check_te4(corpus, theta, q, C_pass: float | None = None,
              pairs=None) -> CheckReport:
    """Grand sequence norm of the coefficients at ``lambda = theta + beta``
    against the grand Lorentz norm at smoothness ``theta`` (p = (2,2))."""
    return te4_sweep(corpus, [(theta, q, True)], C_pass, pairs)[0]


def thm5_sweep(items, points, C_pass: float | None = None) -> list[CheckReport]:
    """:func:`check_thm5` at each ``(q, blocksup)`` of ``points``."""
    cal = calibration()
    h = corpus_hash(items)
    pts = []
    for q, blocksup in points:
        key = "thm5_blocksup_C_pass" if blocksup else "thm5_C_pass"
        rep = CheckReport("thm5_blocksup" if blocksup else "thm5", {"q": _jq(q)},
                          h, cal[key] if C_pass is None else C_pass)
        pts.append((rep, q, blocksup))
    for i, item in enumerate(items):
        prep = _Prepared(item)
        # both forms share the right side at each q
        rhs = {tuple(q): _lorentz_of(prep.g, prep.f.widths, Exponents((2, 2), q))
               for _, q, _ in pts}
        for rep, q, blocksup in pts:
            lhs = _block_sup_of(prep.sqrtS, q) if blocksup else _bochkarev_of(prep.S, q)
            rep.cases.append(CheckCase(f"f{i}", lhs, rhs[tuple(q)]))
    for rep, *_ in pts:
        rep.notes["rhs_norm"] = "anisotropic Lorentz at p=(2,2), same q as the weights"
        _attach_witness(rep, items)
    return [rep for rep, *_ in pts]


def check_thm5(items, q, C_pass: float | None = None,
               blocksup: bool = False) -> CheckReport:
    """Log-weighted coefficient block suprema against the p=(2,2) Lorentz
    norm, in the ``ln max(k,2)`` form or the dyadic block-sup form."""
    return thm5_sweep(items, [(q, blocksup)], C_pass)[0]


# ---------------------------------------------------------------------------
# embeddings and collapse


def _zero_last_slabs(f: DyadicStep2D) -> DyadicStep2D:
    """Zero the last row and column so the rearrangement vanishes on the
    cells touching t = 1 (keeps the log-weighted sup finite)."""
    v = np.array(f.values)
    v[-1, :] = 0.0
    v[:, -1] = 0.0
    return DyadicStep2D(f.levels, v)


def check_embeddings_chain(corpus, theta, p=(2, 2), q=(1, 1),
                           tol: float = 1e-12) -> CheckReport:
    """Constant-1 chain: grand(+theta) <= Lorentz <= grand(-theta)."""
    e = Exponents(p, q)
    rep = CheckReport("embeddings_chain",
                      {"theta": list(theta), "p": list(p), "q": _jq(q)},
                      corpus_hash(corpus), 1.0 + tol)
    gp_plus = GrandParams(theta)
    gp_minus = GrandParams((-theta[0], -theta[1]))
    for i, f in enumerate(corpus):
        L = lorentz_norm(f, e)
        gplus = grand_lorentz_norm(f, e, gp_plus).value
        gminus = grand_lorentz_norm(f, e, gp_minus).value
        rep.cases.append(CheckCase(f"f{i}:upper", gplus, L))
        rep.cases.append(CheckCase(f"f{i}:lower", L, gminus))
    rep.notes["direction"] = ("grid under-approximates the sup and "
                              "over-approximates the inf: both favor the chain")
    _attach_witness(rep, corpus)
    return rep


def check_p1_monotone(corpus, theta, s, p=(2, 2), q=(1, 1),
                      tol: float = 1e-12) -> CheckReport:
    """Smoothness monotonicity at constant 1: theta <= s pointwise implies
    the s-grand norm is dominated by the theta-grand norm."""
    if not (theta[0] <= s[0] and theta[1] <= s[1]):
        raise ValueError("requires theta <= s componentwise")
    e = Exponents(p, q)
    rep = CheckReport("embeddings_P1",
                      {"theta": list(theta), "s": list(s), "p": list(p),
                       "q": _jq(q)},
                      corpus_hash(corpus), 1.0 + tol)
    for i, f in enumerate(corpus):
        hi = grand_lorentz_norm(f, e, GrandParams(s)).value
        lo = grand_lorentz_norm(f, e, GrandParams(theta)).value
        rep.cases.append(CheckCase(f"f{i}", hi, lo))
    _attach_witness(rep, corpus)
    return rep


def check_collapse(corpus, p=(2, 2), q=(1, 1)) -> CheckReport:
    """theta = 0 grand norm equals the Lorentz norm exactly."""
    e = Exponents(p, q)
    rep = CheckReport("embeddings_collapse",
                      {"p": list(p), "q": _jq(q)}, corpus_hash(corpus), 1.0)
    for i, f in enumerate(corpus):
        g0 = grand_lorentz_norm(f, e, GrandParams((0.0, 0.0)))
        L = lorentz_norm(f, e)
        rep.cases.append(CheckCase(f"f{i}", g0.value, L))
        if g0.value != L:
            rep.notes.setdefault("inexact", []).append(f"f{i}")
    rep.notes["exactness"] = "bitwise (eps = 0 grid point)"
    _attach_witness(rep, corpus)
    return rep


def check_logweight_equiv(corpus, theta, p=(2, 2)) -> CheckReport:
    """Two-sided equivalence of the q = inf grand norm with the log-weighted
    sup, on a corpus vanishing on the last dyadic slabs.

    The empirical constants depend on the grid level through the cells near
    t = 1 and are recorded; the gate uses the calibrated bracket.
    """
    cal = calibration()
    lo, hi = cal["l1_equiv_lo"], cal["l1_equiv_hi"]
    e = Exponents(p, (INF, INF))
    gp = GrandParams(theta)
    rep = CheckReport("embeddings_L1",
                      {"theta": list(theta), "p": list(p)}, "", 1.0)
    funcs = [_zero_last_slabs(f) for f in corpus]
    rep.corpus_hash = corpus_hash(funcs)
    raw = []
    for i, f in enumerate(funcs):
        if not np.any(np.asarray(f.values) > 0):
            continue
        g = grand_lorentz_norm(f, e, gp).value
        w = logweight_sup_norm(f, p, theta)
        raw.append(g / w)
        rep.cases.append(CheckCase(f"f{i}:hi", g, hi * w))
        rep.cases.append(CheckCase(f"f{i}:lo", lo * w, g))
    rep.notes["ratio_min"] = min(raw) if raw else None
    rep.notes["ratio_max"] = max(raw) if raw else None
    rep.notes["corpus"] = "last row/column zeroed"
    _attach_witness(rep, funcs)
    return rep


def interp_sweep(corpus, points, J: int = 10,
                 slack: float = 1.05) -> list[CheckReport]:
    """:func:`check_interp_chain` at each ``(theta, q)`` of ``points``."""
    h = corpus_hash(corpus)
    ts = None
    pts = []
    for theta, q in points:
        ts = _interp_samples(theta, J)  # the same for every theta
        p = tuple(1.0 / (1.0 - t / 2.0) for t in theta)
        rep = CheckReport("interp_chain", {"theta": list(theta), "q": _jq(q),
                                           "J": J}, h, slack)
        pts.append((rep, theta, p, q, constant_D(theta, q)))
    for i, f in enumerate(corpus):
        prep = _Prepared(f, khat_ts=ts)
        for rep, theta, p, q, D in pts:
            lhs = _interp_of(prep.K, theta, q, J)
            rhs = 6.0 * D * _lorentz_of(prep.g, prep.f.widths, Exponents(p, q))
            rep.cases.append(CheckCase(f"f{i}", lhs, rhs))
    for rep, *_ in pts:
        rep.notes["direction"] = "lhs under-approximates the continuous integral"
        _attach_witness(rep, list(corpus))
    return [rep for rep, *_ in pts]


def check_interp_chain(corpus, theta, q, J: int = 10,
                       slack: float = 1.05) -> CheckReport:
    """Discretized interpolation norm against ``6 D(theta)`` times the
    Lorentz norm at the induced integrability exponents."""
    return interp_sweep(corpus, [(theta, q)], J, slack)[0]


# ---------------------------------------------------------------------------
# suites


def _jq(q):
    return ["inf" if x == INF else x for x in q]


THETA_SWEEP = ((0.2, 0.2), (0.2, 0.5), (0.2, 0.8), (0.5, 0.2), (0.5, 0.5),
               (0.5, 0.8), (0.8, 0.2), (0.8, 0.5), (0.8, 0.8))
Q_SWEEP = ((1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (INF, INF))


def suite_karamata(seed: int, level=(5, 5)) -> list[CheckReport]:
    pairs = generate_karamata_pairs(500, seed)
    return [check_karamata(pairs, p) for p in (0.5, 1.0, 2.0, 3.0)]


def suite_mink(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = generate(CorpusSpec("random_step", level, 100, seed))
    return [check_mink(corpus, p, q) for p, q in ((1, 2), (1, INF), (2, 4))]


def suite_hardy(seed: int, level=(5, 5)) -> list[CheckReport]:
    alphas = 2.0 ** -np.arange(1, 11)
    return [check_hardy(q, r, alphas, seed)
            for q in (1.0, 2.0, INF) for r in (1.0, 2.0, INF)]


def suite_le3(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = generate(CorpusSpec("random_step", level, 100, seed))
    n = min(2 ** level[0], 2 ** level[1], 32)
    ns = ((2, 2), (8, 8), (n, n))
    return [check_le3(corpus, (WALSH, WALSH), Ns=ns),
            check_le3(corpus[:20], (TRIG, TRIG), Ns=ns)]


def sweep_corpus(seed: int, level=(5, 5)) -> list[DyadicStep2D]:
    """The 50-function corpus shared by the theorem sweeps: flat random
    grids plus the power-log and tensor families that stress the chain."""
    return (generate(CorpusSpec("random_step", level, 30, seed))
            + generate(CorpusSpec("power_log", level, 10, seed + 1))
            + generate(CorpusSpec("tensor", level, 10, seed + 2)))


def suite_te3(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = sweep_corpus(seed, level)
    return te3_sweep(corpus, [(th, q) for th in THETA_SWEEP for q in Q_SWEEP])


def suite_te4(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = sweep_corpus(seed, level)
    pairs = generate_lacunary_pairs((9, 9), 20, seed)
    points = [(th, q, th == (0.0, 0.0))
              for th in ((0.0, 0.0), (0.25, 0.25), (0.5, 0.5)) for q in Q_SWEEP]
    return te4_sweep(corpus, points, pairs=pairs)


def suite_thm5(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = sweep_corpus(seed, level)
    pairs = generate_lacunary_pairs((9, 9), 20, seed)
    points = [(q, blocksup) for q in ((2.0, 2.0), (4.0, 4.0), (INF, INF), (2.0, INF))
              for blocksup in (False, True)]
    return thm5_sweep(list(corpus) + list(pairs), points)


def suite_embeddings(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = generate(CorpusSpec("random_step", level, 100, seed))
    thetas = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)]
    out = [check_embeddings_chain(corpus, th) for th in thetas]
    out.append(check_p1_monotone(corpus[:50], (0.25, 0.25), (0.5, 1.0)))
    out.append(check_p1_monotone(corpus[:50], (0.5, 0.5), (1.0, 1.0)))
    out.append(check_collapse(corpus))
    out.append(check_logweight_equiv(corpus[:50], (0.5, 0.5)))
    return out


def suite_interp(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = sweep_corpus(seed, level)
    return interp_sweep(corpus, [(th, q) for th in THETA_SWEEP for q in Q_SWEEP])


_SUITES = {
    "karamata": suite_karamata,
    "mink": suite_mink,
    "hardy": suite_hardy,
    "le3": suite_le3,
    "te3": suite_te3,
    "te4": suite_te4,
    "thm5": suite_thm5,
    "embeddings": suite_embeddings,
    "interp": suite_interp,
}


SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, seed: int = 7, level=(5, 5)) -> list[CheckReport]:
    """Run one named suite (or ``all``, every suite in ``_SUITES`` order)
    and return its reports."""
    if name == "all":
        return [r for suite in _SUITES.values() for r in suite(seed, level)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](seed, level)
