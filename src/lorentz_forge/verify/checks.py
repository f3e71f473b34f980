"""The inequality checks and the named verification suites.

Each check turns one inequality into a :class:`CheckReport` over a
deterministic corpus.  Exact-constant checks assert at constant 1 with a
rounding tolerance; calibrated checks compare against thresholds pinned in
``data/calibration.json``.  Approximation directions are always favorable
for the asserted side (supremum-type left sides are under-approximated,
right sides are exact or under-approximated) and are recorded in the report
notes.

Every check over a corpus of grids (mink, le3, the theorems, the
embeddings) is a :class:`_Group` of parameter points run by :func:`_sweep`,
the one driver that stacks, hashes and prepares the items and picks each
report's witness.  The suites te3, te4, thm5 and interp, alone or together,
run through :func:`_theorem_suites`.

No item outlives its stack, and a sequence of lacunary pairs that
translates (see :attr:`~lorentz_forge.verify.corpus.LacunaryPairs.translates`)
is one run prepared from its first pair alone and hashed as one record.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from ..fourier import (WALSH, TRIG, _block_l2_of, _block_sup_of, _bochkarev_of,
                       _systems, _te4_params, _tensor_coeffs)
from ..interpolation import (_interp_of, _interp_samples, _khat_of, _theta_p,
                             constant_D)
from ..norms import (Exponents, GrandParams, _grand_pick, _logweight_of,
                     _lorentz_core_batch, _lorentz_of, _lorentz_surface,
                     _mixed_of, _seq_block_lorentz_of, _seq_surface,
                     _surface_key)
from ..rearrange import _BlockTables, _rearranged_support, _rearranged_values
from ..stepfun import (_POSITIVE, DyadicStep1D, DyadicStep2D, _hash_into, _integer,
                       _levels, _pair)
from .calibration import calibration
from .corpus import (CorpusSpec, LacunaryPairs, corpus_hash, generate,
                     generate_karamata_pairs, generate_lacunary_pairs)
from .hardy import hardy_grid
from .report import CheckCase, CheckReport, _worst_index, serialize_grid

INF = float("inf")


# ---------------------------------------------------------------------------
# the corpus driver


# a verify sweep stacks at most this many cells of same-shape items for
# one core call
_BLOCK_CELLS = 2**18


def _stacks(items):
    """Split ``items``, in one ordered pass, into runs of one shape, each a
    stack for :class:`_Prepared`: yields each run's index range with its
    items.  A run holds functions only or pairs only, and at most
    :data:`_BLOCK_CELLS` cells unless a single item is larger, so a large
    item is prepared alone.  A run is yielded as soon as one more item of
    its shape would not fit, before the next item is drawn, or else once
    the item after it, of another shape, is drawn; the pass keeps no other
    item.  So a stream of large items holds one at a time.

    An item that is a :class:`LacunaryPairs` is read as its pairs.  If it
    translates, it is a run of its own over all of them, which it yields
    as its stack; if not, each pair is a run of its own, built when the
    run is yielded."""
    run, last, start = [], None, 0
    for item in items:
        if isinstance(item, LacunaryPairs):
            if run:
                yield range(start, start + len(run)), run
            start, run = start + len(run), []
            if item.translates:
                if len(item):  # the pairs as a run of their own
                    yield range(start, start + len(item)), item
            else:
                for i in range(len(item)):
                    yield range(start + i, start + i + 1), [item[i]]
            start += len(item)
            continue
        a, f = item if isinstance(item, tuple) else (None, item)
        key = (np.shape(f.values), None if a is None else a.truncation)
        if run and key != last:
            yield range(start, start + len(run)), run
            start, run = start + len(run), []
        run.append(item)
        last, size = key, f.values.size
        del item, a, f  # only the run holds it, so the next draw comes after it goes
        if (len(run) + 1) * size > _BLOCK_CELLS:
            yield range(start, start + len(run)), run
            start, run = start + len(run), []
    if run:
        yield range(start, start + len(run)), run


def _stacked(arrays) -> np.ndarray:
    """``arrays`` stacked on a new leading axis: a view of a single array,
    not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _Prepared(_BlockTables):
    """The per-function pieces of a stack of same-shape corpus items, each
    computed on first use for the whole stack and read at every parameter
    point of a sweep.  Values are arrays with one entry per item, block
    tables too (see :class:`~lorentz_forge.rearrange._BlockTables`).

    An item is a function or a ``(coefficients, function)`` pair with
    planted coefficients.  A function stack's Walsh coefficients are taken
    at full resolution in one stacked call of
    :func:`~lorentz_forge.fourier._tensor_coeffs`.  Lorentz norms, epsilon
    surfaces and Khat grids are kept per exponent (surface key, sample
    points), so every theta of a sweep picks from one surface.

    A one-item stack's values and planted magnitudes are views of its
    item's arrays.
    """

    def __init__(self, items):
        self.a, self.fs = zip(*(it if isinstance(it, tuple) else (None, it)
                                for it in items))
        self._memo = {}

    @property
    def pairs(self) -> bool:
        """Whether the items are pairs: stacks never mix them with functions."""
        return self.a[0] is not None

    @cached_property
    def values(self) -> np.ndarray:
        """The values ``[k, j2, j1]`` of the functions, stacked."""
        return _stacked([f.values for f in self.fs])

    @cached_property
    def g(self) -> np.ndarray:
        """The rearranged values of the functions."""
        return _rearranged_values(self.values)

    @property
    def dims(self) -> tuple[int, int]:
        """The size ``(K1, K2)`` of the coefficient matrices."""
        return self.a[0].truncation if self.pairs else \
            tuple(2**n for n in self.fs[0].levels)

    _block_dims = dims

    def _block_magnitudes(self) -> np.ndarray:
        """The magnitudes ``[k, i1, i2]`` of the planted or full Walsh coefficients."""
        if self.pairs:
            return _stacked([np.abs(a.entries) for a in self.a])
        return np.abs(_tensor_coeffs(self.values, self.fs[0].levels, WALSH, WALSH,
                                     *self.dims)).swapaxes(-1, -2)

    def memo(self, key, make: Callable):
        """``make()``, computed once per stack and kept under ``key``."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def khat(self, ts: np.ndarray) -> np.ndarray:
        """The Khat grids over ``ts x ts``."""
        return self.memo(("khat", ts.tobytes()),
                         lambda: _khat_of(self.g, self.fs[0].widths, ts, ts)[0])

    def lorentz(self, e: Exponents) -> np.ndarray:
        """The Lorentz norms of the functions."""
        return self.memo(e, lambda: _lorentz_of(self.g, self.fs[0].widths, e))

    def grand(self, e: Exponents, gp: GrandParams,
              sign=None) -> tuple[np.ndarray, np.ndarray]:
        """The grand Lorentz norms of the functions or, given a ``sign``, the
        grand sequence norms of the coefficients: the values and the
        witnessing epsilon pairs, as :func:`~lorentz_forge.norms._grand_pick`
        gives them."""
        if sign is None and gp.theta == (0.0, 0.0):
            # as in grand_lorentz_norm: exactly the plain norm
            L = self.lorentz(e)
            return L, np.zeros(L.shape + (2,))
        return _grand_pick(*self.surface(e, gp, sign), gp)

    def surface(self, e: Exponents, gp: GrandParams, sign=None):
        """The epsilon surface that :meth:`grand` picks from at ``gp``: the
        axes and the value matrices, one per item."""
        key = _surface_key(gp)
        return self.memo((e, sign, key), lambda: (
            _lorentz_surface(self.g, self.fs[0].widths, e, *key) if sign is None
            else _seq_surface(self._sqrt_table, e, sign, *key)))


class _Group(NamedTuple):
    """One check's parameter points in a :func:`_sweep`: ``report(*point)``
    makes a point's report and ``cases(prep, *point)`` gives its cases on
    the stack ``prep`` as ``(suffix, lhs, rhs)`` with one array entry per
    item, or ``None`` to leave the stack out of that point.  A case's id is
    its item's id (``ids``, by default ``f0, f1, ...``) followed by the
    suffix.  ``finish(rep)`` runs on each report at the end."""

    points: list
    report: Callable
    cases: Callable
    ids: list | None = None
    finish: Callable | None = None


def _sweep(items, groups) -> list[list[CheckReport]]:
    """The reports of each :class:`_Group` of ``groups`` over the iterable
    ``items``, one per parameter point.

    The items are read once, in one pass, hashed as they are drawn and
    prepared one stack at a time (see :func:`_stacks`); every group's
    points read the stack, and its items go before the next item is read.
    A sequence of lacunary pairs is hashed as one record (see
    :meth:`~lorentz_forge.verify.corpus.LacunaryPairs.hash_into`).  If it
    translates, it is one run prepared from its first pair, whose lhs and
    rhs are every pair's, and no other pair is built; if not, its pairs go
    on one at a time.  Each side of a point's cases becomes Python floats
    in one ``tolist``.

    A report made without a corpus hash (``None``) gets the
    :func:`corpus_hash` of every item if it holds a case of a pair, and
    that of the function items alone otherwise.  Until the first pair item
    is drawn the two digests read the same bytes, so each item is hashed
    once: the digest of every item starts as a copy of the function
    digest when that pair arrives.
    When a stack's cases give a report a new worst case (the one
    :meth:`CheckReport.worst_case` picks), the witness is taken from the
    stack in hand: the serialized function of the case's item, made once
    per item and shared by every report that names it, or ``{"case":
    id}`` for an item whose id is not ``f<digits>``.
    """
    groups = list(groups)
    reps = [[gr.report(*pt) for pt in gr.points] for gr in groups]
    worst = {}  # id(report) -> [its worst case so far]
    paired = set()  # the ids of the reports that hold a case of a pair
    funcs, every = hashlib.sha256(), None  # every: from the first pair item on

    def drawn():  # each item hashed as it is drawn
        nonlocal every
        for item in items:
            if isinstance(item, (tuple, LacunaryPairs)):
                if every is None:
                    every = funcs.copy()
                _hash_into(every, item)
            else:
                _hash_into(funcs, item)
                if every is not None:
                    _hash_into(every, item)
            yield item
            del item  # so the next draw comes after the stack's items go

    for run, stack in _stacks(drawn()):
        lead = stack[:1] if isinstance(stack, LacunaryPairs) else stack
        # the row of each item's cases: a translated run's are its first pair's
        at = range(len(run)) if lead is stack else [0] * len(run)
        prep = _Prepared(lead)
        grids = {}  # the serialized functions of the stack, by position
        for gr, greps in zip(groups, reps):
            ids = [gr.ids[i] if gr.ids else f"f{i}" for i in run]
            for rep, pt in zip(greps, gr.points):
                sides = gr.cases(prep, *pt)
                if sides is None:
                    continue
                if prep.pairs:
                    paired.add(id(rep))
                sides = [(sfx, lhs.tolist(), rhs.tolist()) for sfx, lhs, rhs in sides]
                new = [CheckCase(cid + sfx, lhs[i], rhs[i])
                       for cid, i in zip(ids, at) for sfx, lhs, rhs in sides]
                rep.cases.extend(new)
                # the worst case so far comes before the new ones, so the
                # worst of it and them is the report's
                head = worst.get(id(rep), [])
                j = _worst_index(head + new)
                if j is None or j < len(head):
                    continue
                j -= len(head)
                worst[id(rep)] = [new[j]]
                # the item of case j; in a translated run the cases tie
                # and the first pair's win
                k = j // len(sides)
                if ids[k].startswith("f") and ids[k][1:].isdigit():
                    if k not in grids:
                        grids[k] = serialize_grid(prep.fs[at[k]])
                    rep.worst_witness = grids[k]
                else:
                    rep.worst_witness = {"case": new[j].case_id}
        del prep, lead, stack  # the stack goes before the next item is read
    funcs = funcs.hexdigest()
    every = funcs if every is None else every.hexdigest()
    for gr, greps in zip(groups, reps):
        for rep in greps:
            if rep.corpus_hash is None:
                rep.corpus_hash = every if id(rep) in paired else funcs
            if gr.finish is not None:
                gr.finish(rep)
    return reps


# ---------------------------------------------------------------------------
# section-3 lemmas


def check_karamata(pairs, p: float) -> CheckReport:
    """Prefix-majorized nonincreasing pairs: the p-th power sums order one
    way for p >= 1 and the other for p <= 1.

    ``pairs`` is a sequence of ``(f, g)`` of one length.  They are stacked,
    and each side's sums are one power and one row sum over its stack.  A
    sum has the bits of ``np.sum(f**p)`` on the pairs as
    :func:`~lorentz_forge.verify.corpus.generate_karamata_pairs` makes
    them: numpy takes a reversed view's powers (its ``f``) with libm's
    ``pow`` and a contiguous row's (its ``g``) in a SIMD loop, which can
    differ in the last bit (at p = 3).  So the powers of ``F`` are taken
    through a reversed flat view and those of ``G`` on the contiguous
    stack."""
    rep = CheckReport("karamata", {"p": p}, "", 1.0 + 1e-12)
    # (len(pairs), length) stacks, also for no pairs
    F, G = (np.array([pair[i] for pair in pairs], ndmin=2)[:len(pairs)]
            for i in (0, 1))
    Fp = np.ascontiguousarray((F.ravel()[::-1] ** p)[::-1].reshape(F.shape))
    sf, sg = Fp.sum(axis=-1).tolist(), (G**p).sum(axis=-1).tolist()
    lhs, rhs = (sg, sf) if p >= 1 else (sf, sg)
    rep.cases = [CheckCase(f"pair{i}", *sides) for i, sides in enumerate(zip(lhs, rhs))]
    rep.notes["direction"] = "exact closed-form sums"
    rep.finalize_witness()
    return rep


def check_mink(corpus, p: float, q: float) -> CheckReport:
    """Row rearrangement decreases the (inner q over x2, outer p over x1)
    mixed norm and increases the (inner p, outer q) one, for p <= q.

    Each stack of same-shape functions is sorted once and its four mixed
    norms are four stacked calls; the x2-inner norms read the stack
    transposed, so their inner sums run in order down the rows, as on a
    transposed grid's column-major copy."""
    if not (0 < p <= q):
        raise ValueError(f"requires 0 < p <= q, got ({p}, {q})")

    def cases(prep):
        n1, n2 = prep.fs[0].levels
        vals = prep.values
        sorted_rows = -np.sort(-vals, axis=-1)

        def x2_inner(v, inner, outer):
            return _mixed_of(v.swapaxes(-1, -2), (2.0**-n2, 2.0**-n1), (inner, outer))

        return [(":a", x2_inner(sorted_rows, q, p), x2_inner(vals, q, p)),
                (":b", x2_inner(vals, p, q), x2_inner(sorted_rows, p, q))]

    return _sweep(corpus, [_Group([()], lambda: CheckReport(
        "mink", {"p": p, "q": q}, None, 1.0 + 1e-10,
        notes={"direction": "both sides exact"}), cases)])[0][0]


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
    _pair("(q, r)", (q, r), *_POSITIVE)
    cal = calibration()
    beta = max(1.0 / q, 1.0 / r)
    gamma_descent = 1.0 / q
    rep = CheckReport("hardy", {"q": q, "r": r}, "", cal["hardy_C_pass"])
    skipped = []
    ratios: dict[str, list[float]] = {}
    for name, prof in _hardy_profiles(r, seed):
        for disp in ("descent", "ascent"):
            key = f"{name}:{disp}"
            gamma = gamma_descent if (disp == "descent" or r != INF) else 0.0
            ratios[key] = []
            for alpha, lhs, rhs in zip(alpha_grid, *hardy_grid(
                    prof, q, r, alpha_grid, descent=disp == "descent")):
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
    rep.finalize_witness()
    return rep


# ---------------------------------------------------------------------------
# coefficient block bounds


def check_le3(corpus, systems=(WALSH, WALSH),
              Ns=((2, 2), (8, 8), (32, 32))) -> CheckReport:
    """Four block bounds for rearranged coefficients of M=1 systems.

    Gated in the sequence rearrangement order (second index first); the
    function-order block sums are recorded but not gated, since the two
    orders genuinely differ on non-tensor matrices.
    """
    sys1, sys2 = _systems(systems)
    if any(N < 1 for n in Ns for N in n):
        raise ValueError(f"block sizes must be >= 1, got {Ns}")
    M1, M2 = sys1.bound, sys2.bound
    fun_order = [0.0]  # the running maximum starts at 0
    trig = "trig" in (sys1.kind, sys2.kind)

    def cases(prep):
        n1, n2 = prep.fs[0].levels
        K1 = 2**n1 if sys1.kind == "walsh" else 2 ** (n1 + 2)
        K2 = 2**n2 if sys2.kind == "walsh" else 2 ** (n2 + 2)
        vals = prep.values
        mags = np.abs(_tensor_coeffs(vals, (n1, n2), *systems, K1, K2)).swapaxes(-1, -2)
        m21, m12, m11, m22 = (_mixed_of(vals, prep.fs[0].widths, p)
                              for p in ((2, 1), (1, 2), (1, 1), (2, 2)))
        seq = _rearranged_support(mags)
        fun = _rearranged_values(mags.swapaxes(-1, -2)).swapaxes(-1, -2)
        sides, fun_ratios = [], []
        for (N1, N2) in Ns:
            N1c, N2c = min(N1, K1), min(N2, K2)
            lhs = _block_l2_of(seq, N1c, N2c, fortran=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                fun_ratios.append(np.where(
                    m22 > 0, _block_l2_of(fun, N1c, N2c, True) / m22, 0.0))
            tag = f":N{N1}x{N2}"
            sides += [(tag + ":m21", lhs, M2 * N2c**0.5 * m21),
                      (tag + ":m12", lhs, M1 * N1c**0.5 * m12),
                      (tag + ":m11", lhs, M1 * M2 * (N1c * N2c) ** 0.5 * m11),
                      (tag + ":parseval", lhs, m22)]
        # item by item, each item's block sizes in order
        fun_order.extend(np.ravel(fun_ratios, order="F").tolist())
        return sides

    def finish(rep):
        rep.notes["fun_order_max_ratio_vs_parseval"] = max(fun_order)
        rep.notes["direction"] = ("trig truncation under-approximates the left side"
                                  if trig else "walsh blocks exact")

    return _sweep(corpus, [_Group([()], lambda: CheckReport(
        "le3", {"systems": [sys1.kind, sys2.kind], "N": [list(n) for n in Ns]},
        None, 1.0 + 1e-9), cases, finish=finish)])[0][0]


# ---------------------------------------------------------------------------
# the main theorems


def _theta_axes(points) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The theta_1 and theta_2 values of the ``(theta, q)`` points, each
    sorted."""
    return tuple(tuple(sorted({pt[0][i] for pt in points})) for i in (0, 1))


def _theta_case(prep: _Prepared, axes, theta, q, kind: str, lhs_grid: Callable):
    """The te3 or interp case at ``(theta, q)``: its entry of the left
    side's theta grid, ``lhs_grid()`` kept under ``kind``, against
    ``6 D(theta, q)`` times the stack's Lorentz norms at ``(p(theta), q)``,
    one :func:`_lorentz_core_batch` call over the grid, which te3 and
    interp share.  A grid is the product of the theta_1 and theta_2 values
    of a group's points, and each entry has the bits of its one-point call,
    since every weight row of a stage is summed on its own."""
    i, j = (ax.index(t) for ax, t in zip(axes, theta))
    L = prep.memo(("lorentz", axes, q), lambda: _lorentz_core_batch(
        prep.g, *prep.fs[0].widths,
        *(np.array([1.0 / _theta_p(t) for t in ax]) for ax in axes), *q))
    return [("", prep.memo((kind, axes, q), lhs_grid)[:, i, j],
             6.0 * constant_D(theta, q) * L[:, i, j])]


def _te3_group(points) -> _Group:
    """:func:`check_te3` at each ``(theta, q)`` of ``points``; pairs are
    left out.  The left sides of a q are one
    :func:`~lorentz_forge.norms._seq_block_lorentz_of` call over the grid
    of the exponents ``p(theta)``."""
    c0 = calibration()["te3_c0"]
    points = list(points)
    axes = _theta_axes(points)
    p_axes = [[_theta_p(t) for t in ax] for ax in axes]

    def report(theta, q):
        return CheckReport("te3", {"theta": list(theta), "q": _jq(q)}, None, c0,
                           notes={"D": constant_D(theta, q), "direction":
                                  "lhs exact (walsh), rhs exact"})

    def cases(prep, theta, q):
        if prep.pairs:
            return None
        return _theta_case(prep, axes, theta, q, "te3",
                           lambda: _seq_block_lorentz_of(prep._sqrt_table, p_axes, q))

    def finish(rep):
        # the raw lhs / Lorentz ratio normalized by D: the growth statistic
        rep.notes["max_ratio_over_D"] = rep.max_ratio * 6.0

    return _Group(points, report, cases, finish=finish)


def check_te3(corpus, theta, q) -> CheckReport:
    """Discrete block norm of the coefficients against ``6 D(theta) |f|``."""
    return _sweep(corpus, [_te3_group([(theta, q)])])[0][0]


def _te4_group(points, n_funcs: int, n_pairs: int) -> _Group:
    """:func:`check_te4` at each ``(theta, q, with_pairs)`` of ``points`` on
    ``n_funcs`` functions followed by ``n_pairs`` pairs, which enter the
    reports of the points ``with_pairs`` only."""
    C_pass = calibration()["te4_C_pass"]

    def report(theta, q, with_pairs):
        return CheckReport("te4", {"theta": list(theta), "q": _jq(q)},
                           None, C_pass, notes={
                               "direction": "lhs grid-sup under, rhs grid-sup "
                                            "under (conservative for the "
                                            "asserted bound)",
                               "seq_exponent_sign": "minus"})

    def cases(prep, theta, q, with_pairs):
        if prep.pairs and not with_pairs:
            return None
        e, gp = Exponents((2, 2), q), GrandParams(theta)
        return [("", prep.grand(e, _te4_params(e, gp), "minus")[0],
                 prep.grand(e, gp)[0])]

    ids = [f"f{i}" for i in range(n_funcs)] + [f"flac{j}" for j in range(n_pairs)]
    return _Group(list(points), report, cases, ids=ids)


def check_te4(corpus, theta, q, pairs=None) -> CheckReport:
    """Grand sequence norm of the coefficients at ``lambda = theta + beta``
    against the grand Lorentz norm at smoothness ``theta`` (p = (2,2)),
    on the corpus followed by the lacunary ``pairs``: a
    :class:`~lorentz_forge.verify.corpus.LacunaryPairs` is one item, as in
    the te4 suite."""
    corpus, pairs = list(corpus), pairs or ()
    items = (corpus + [pairs] if isinstance(pairs, LacunaryPairs)
             else itertools.chain(corpus, pairs))
    return _sweep(items, [_te4_group(
        [(theta, q, True)], len(corpus), len(pairs))])[0][0]


def _thm5_group(points) -> _Group:
    """:func:`check_thm5` at each ``(q, blocksup)`` of ``points``; a report
    covers all the sweep's items."""
    cal = calibration()

    def report(q, blocksup):
        key = "thm5_blocksup_C_pass" if blocksup else "thm5_C_pass"
        return CheckReport("thm5_blocksup" if blocksup else "thm5", {"q": _jq(q)},
                           None, cal[key], notes={
                               "rhs_norm": "anisotropic Lorentz at p=(2,2), "
                                           "same q as the weights"})

    def cases(prep, q, blocksup):
        lhs = (_block_sup_of(prep._sqrt_table, q) if blocksup
               else _bochkarev_of(prep._table, q, prep.dims))
        # both forms read the memoised right side at each q
        return [("", lhs, prep.lorentz(Exponents((2, 2), q)))]

    return _Group(list(points), report, cases)


def check_thm5(items, q, blocksup: bool = False) -> CheckReport:
    """Log-weighted coefficient block suprema against the p=(2,2) Lorentz
    norm, in the ``ln max(k,2)`` form or the dyadic block-sup form."""
    return _sweep(items, [_thm5_group([(q, blocksup)])])[0][0]


# ---------------------------------------------------------------------------
# embeddings and collapse


def _zero_last_slabs(f: DyadicStep2D) -> DyadicStep2D:
    """Zero the last row and column so the rearrangement vanishes on the
    cells touching t = 1 (keeps the log-weighted sup finite)."""
    v = np.array(f.values)
    v[-1, :] = 0.0
    v[:, -1] = 0.0
    return DyadicStep2D(f.levels, v)


def _chain_group(thetas, p=(2, 2), q=(1, 1)) -> _Group:
    """:func:`check_embeddings_chain` at each ``theta`` of ``thetas``."""
    e = Exponents(p, q)

    def report(theta):
        return CheckReport("embeddings_chain",
                           {"theta": list(theta), "p": list(p), "q": _jq(q)},
                           None, 1.0 + 1e-12, notes={
                               "direction": "grid under-approximates the sup and "
                                            "over-approximates the inf: both "
                                            "favor the chain"})

    def cases(prep, theta):
        L = prep.lorentz(e)
        return [(":upper", prep.grand(e, GrandParams(theta))[0], L),
                (":lower", L, prep.grand(e, GrandParams((-theta[0], -theta[1])))[0])]

    return _Group([(th,) for th in thetas], report, cases)


def check_embeddings_chain(corpus, theta, p=(2, 2), q=(1, 1)) -> CheckReport:
    """Constant-1 chain: grand(+theta) <= Lorentz <= grand(-theta)."""
    return _sweep(corpus, [_chain_group([theta], p, q)])[0][0]


def check_p1_monotone(corpus, theta, s, p=(2, 2), q=(1, 1)) -> CheckReport:
    """Smoothness monotonicity at constant 1: theta <= s pointwise implies
    the s-grand norm is dominated by the theta-grand norm."""
    if not (theta[0] <= s[0] and theta[1] <= s[1]):
        raise ValueError("requires theta <= s componentwise")
    e = Exponents(p, q)
    params = {"theta": list(theta), "s": list(s), "p": list(p), "q": _jq(q)}
    return _sweep(corpus, [_Group([()], lambda: CheckReport(
        "embeddings_P1", params, None, 1.0 + 1e-12),
        lambda prep: [("", prep.grand(e, GrandParams(s))[0],
                       prep.grand(e, GrandParams(theta))[0])])])[0][0]


def check_collapse(corpus, p=(2, 2), q=(1, 1)) -> CheckReport:
    """theta = 0 grand norm equals the Lorentz norm exactly: the eps = (0, 0)
    entry of the theta = 0 epsilon surface (its last row and column, see
    :func:`~lorentz_forge.norms._eps_axes`) against the plain norm."""
    e = Exponents(p, q)
    rep = _sweep(corpus, [_Group([()], lambda: CheckReport(
        "embeddings_collapse", {"p": list(p), "q": _jq(q)}, None,
        1.0, notes={"exactness": "bitwise (eps = 0 grid point)"}),
        lambda prep: [("", prep.surface(e, GrandParams((0.0, 0.0)))[1][..., -1, -1],
                       prep.lorentz(e))])])[0][0]
    inexact = [c.case_id for c in rep.cases if c.lhs != c.rhs]
    if inexact:
        rep.notes["inexact"] = inexact
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
    funcs = [_zero_last_slabs(f) for f in corpus]
    live = [i for i, f in enumerate(funcs) if np.any(np.asarray(f.values) > 0)]
    raw = []

    def cases(prep):
        g = prep.grand(e, gp)[0]
        w = _logweight_of(prep.g, prep.fs[0].widths, p, theta)
        raw.extend((g / w).tolist())
        return [(":hi", g, hi * w), (":lo", lo * w, g)]

    rep = _sweep([funcs[i] for i in live], [_Group([()], lambda: CheckReport(
        "embeddings_L1", {"theta": list(theta), "p": list(p)}, corpus_hash(funcs),
        1.0, notes={"corpus": "last row/column zeroed"}), cases,
        ids=[f"f{i}" for i in live])])[0][0]
    rep.notes["ratio_min"] = min(raw) if raw else None
    rep.notes["ratio_max"] = max(raw) if raw else None
    return rep


def _interp_group(points, J: int) -> _Group:
    """:func:`check_interp_chain` at each ``(theta, q)`` of ``points``;
    pairs are left out.  The left sides of a q are one
    :func:`~lorentz_forge.interpolation._interp_of` call."""
    points = list(points)
    axes = _theta_axes(points)
    # the samples are the same for every theta
    ts = _interp_samples(points[0][0], J) if points else None

    def report(theta, q):
        return CheckReport("interp_chain", {"theta": list(theta), "q": _jq(q),
                                            "J": J}, None, 1.05, notes={
            "direction": "lhs under-approximates the continuous integral"})

    def cases(prep, theta, q):
        if prep.pairs:
            return None
        return _theta_case(prep, axes, theta, q, ("interp", J),
                           lambda: _interp_of(prep.khat(ts), axes, q, J))

    return _Group(points, report, cases)


def check_interp_chain(corpus, theta, q, J: int = 10) -> CheckReport:
    """Discretized interpolation norm against ``6 D(theta)`` times the
    Lorentz norm at the induced integrability exponents, at threshold 1.05."""
    return _sweep(corpus, [_interp_group([(theta, q)], J)])[0][0]


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


def _theorem_suites(seed: int, level=(5, 5),
                    names=("te3", "te4", "thm5", "interp")) -> dict[str, list[CheckReport]]:
    """The reports of the named suites among te3, te4, thm5 and interp,
    from one :func:`_sweep` over the sweep corpus, followed by the lacunary
    pairs, as one item, when te4 or thm5 is named.  Each input is generated
    once, and of the pairs only the first is built: for the stack of all
    of them and its witness; the pairs are hashed by what fixes them.
    Each suite's reports equal its own run's.  te3 and interp leave the
    pairs out."""
    corpus = sweep_corpus(seed, level)
    pairs = generate_lacunary_pairs((9, 9), 20, seed) if {"te4", "thm5"} & set(names) else ()
    theta_q = [(th, q) for th in THETA_SWEEP for q in Q_SWEEP]
    groups = {
        "te3": _te3_group(theta_q),
        "te4": _te4_group([(th, q, th == (0.0, 0.0)) for th in
                           ((0.0, 0.0), (0.25, 0.25), (0.5, 0.5)) for q in Q_SWEEP],
                          len(corpus), len(pairs)),
        "thm5": _thm5_group([(q, blocksup) for q in
                             ((2.0, 2.0), (4.0, 4.0), (INF, INF), (2.0, INF))
                             for blocksup in (False, True)]),
        "interp": _interp_group(theta_q, 10)}
    return dict(zip(names, _sweep(corpus + [pairs] if pairs else corpus,
                                    [groups[n] for n in names])))


def suite_te3(seed: int, level=(5, 5)) -> list[CheckReport]:
    return _theorem_suites(seed, level, ("te3",))["te3"]


def suite_te4(seed: int, level=(5, 5)) -> list[CheckReport]:
    return _theorem_suites(seed, level, ("te4",))["te4"]


def suite_thm5(seed: int, level=(5, 5)) -> list[CheckReport]:
    return _theorem_suites(seed, level, ("thm5",))["thm5"]


def suite_embeddings(seed: int, level=(5, 5)) -> list[CheckReport]:
    corpus = generate(CorpusSpec("random_step", level, 100, seed))
    thetas = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)]
    out = _sweep(corpus, [_chain_group(thetas)])[0]
    out.append(check_p1_monotone(corpus[:50], (0.25, 0.25), (0.5, 1.0)))
    out.append(check_p1_monotone(corpus[:50], (0.5, 0.5), (1.0, 1.0)))
    out.append(check_collapse(corpus))
    out.append(check_logweight_equiv(corpus[:50], (0.5, 0.5)))
    return out


def suite_interp(seed: int, level=(5, 5)) -> list[CheckReport]:
    return _theorem_suites(seed, level, ("interp",))["interp"]


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
    and return its reports.  ``all`` runs the theorem suites as one pass
    (see :func:`_theorem_suites`); ``seed`` and ``level`` are checked first,
    as a :class:`~lorentz_forge.verify.corpus.CorpusSpec` checks them."""
    seed, level = _integer(seed, 0, "seed"), _levels(level, "level")
    if name == "all":
        shared = _theorem_suites(seed, level)
        return [r for n, suite in _SUITES.items()
                for r in (shared[n] if n in shared else suite(seed, level))]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](seed, level)
