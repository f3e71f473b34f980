import collections
import csv
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_hardy_sides, ref_le3, ref_mink_cases, same_bits
from lorentz_forge import fourier, norms
from lorentz_forge.fourier import (TRIG, WALSH, CoeffMatrix, block_sup_lhs,
                                   bochkarev_lhs, coeffs_2d, te3_lhs, te4_lhs,
                                   walsh_synthesize)
from lorentz_forge.interpolation import constant_D, interp_norm
from lorentz_forge.norms import (Exponents, GrandParams, grand_lorentz_norm,
                                 grand_seq_norm, logweight_sup_norm,
                                 lorentz_norm)
from lorentz_forge.stepfun import (DivergentIntegralError, DyadicStep1D,
                                   DyadicStep2D, constant_grid,
                                   power_weight_integral)
from lorentz_forge.verify import checks, hardy
from lorentz_forge.verify.calibration import calibration
from lorentz_forge.verify.corpus import (CorpusSpec, LacunaryPairs, corpus_hash,
                                         generate, generate_karamata_pairs,
                                         generate_lacunary_pairs)
from lorentz_forge.verify.hardy import (hardy_ascent_lhs, hardy_ascent_rhs,
                                        hardy_descent_lhs, hardy_descent_rhs,
                                        hardy_grid)
from lorentz_forge.verify.report import (CheckCase, CheckReport, _JsonEncoder,
                                         serialize_grid, write_reports)

INF = float("inf")


class TestCorpus:
    def test_same_seed_identical(self):
        spec = CorpusSpec("random_step", (5, 5), 10, 7)
        assert corpus_hash(generate(spec)) == corpus_hash(generate(spec))

    def test_random_grids_distinct_nonnegative(self):
        corpus = generate(CorpusSpec("random_step", (5, 5), 100, 3))
        assert len(corpus) == 100
        hashes = {corpus_hash([f]) for f in corpus}
        assert len(hashes) == 100
        assert all(np.all(f.values >= 0) for f in corpus)

    def test_indicator_kind(self):
        corpus = generate(CorpusSpec("indicator", (2, 2), 3, 0))
        assert np.all(np.isin(corpus[0].values, (0.0, 1.0)))

    def test_power_log_finite(self):
        corpus = generate(CorpusSpec("power_log", (6, 6), 9, 1))
        for f in corpus:
            assert np.all(np.isfinite(f.values))
            # profiles are nonincreasing in both variables
            assert np.all(np.diff(f.values, axis=0) <= 1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec("gaussian", (2, 2), 1, 0)

    def test_lacunary_pairs_are_consistent(self):
        # the planted coefficients must be the true coefficients of the
        # synthesized polynomial (signs live in the function, not the norms)
        pairs = generate_lacunary_pairs((5, 5), 3, 11)
        for planted, f in pairs:
            diag = np.abs(np.diag(planted.entries.real))
            assert diag.max() == 1.0
            assert np.all(np.isin(np.abs(planted.entries.real), (0.0, 1.0)))
            assert np.all(f.values >= 0)

    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.0, -2.0, INF, float("nan")])
    def test_lacunary_ratio_must_exceed_one(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            generate_lacunary_pairs((3, 3), 1, 7, ratio=ratio)
        with pytest.raises(ValueError, match="ratio"):
            generate(CorpusSpec("lacunary", (3, 3), 1, 7, params={"ratio": ratio}))

    @pytest.mark.parametrize("ratio", [2, 1.5, 3, 1.1, 1.01])
    @pytest.mark.parametrize("level", [(9, 9), (5, 7)])
    def test_lacunary_positions_match_one_step_scan(self, ratio, level):
        # the reference steps j one at a time: the positions are the
        # distinct round(ratio**j) below min(K1, K2), in order
        want, j = [], 0
        while (pos := int(round(ratio**j))) < min(2**level[0], 2**level[1]):
            if pos not in want:
                want.append(pos)
            j += 1
        planted = generate_lacunary_pairs(level, 1, 7, ratio)[0][0]
        rows, cols = np.nonzero(planted.entries)
        assert rows.tolist() == want and cols.tolist() == want

    def test_lacunary_ratio_near_one_returns_quickly(self):
        t0 = time.perf_counter()
        planted = generate_lacunary_pairs((3, 3), 1, 7, ratio=1 + 1e-7)[0][0]
        assert time.perf_counter() - t0 < 1.0
        assert np.nonzero(planted.entries)[0].tolist() == list(range(1, 8))

    @pytest.mark.parametrize("level", [(-1, 2), (2, -1), (5.0, 5), (5,), (5, 5, 5),
                                       "55", 5, None])
    def test_level_must_be_two_nonnegative_integers(self, level):
        with pytest.raises(ValueError, match="level"):
            CorpusSpec("random_step", level, 3, 7)

    @pytest.mark.parametrize("level", [(9, 9), (5, 7), (3, 9), (1, 1)])
    @pytest.mark.parametrize("seed", [7, 3])
    def test_lacunary_pairs_match_synthesis(self, level, seed):
        pairs = generate_lacunary_pairs(level, 20, seed)
        want = _lacunary_pairs_by_synthesis(level, 20, seed)
        assert len(pairs) == len(want)

        def assert_same_pair(pair, ref):
            (a, f), (a_ref, f_ref) = pair, ref
            assert a.entries.dtype == a_ref.entries.dtype
            for part in (np.real, np.imag):
                assert np.array_equal(part(a.entries), part(a_ref.entries))
                assert np.array_equal(np.signbit(part(a.entries)),
                                      np.signbit(part(a_ref.entries)))
            assert f.levels == f_ref.levels
            assert np.array_equal(f.values, f_ref.values)
            assert np.array_equal(np.signbit(f.values), np.signbit(f_ref.values))

        for pair, ref in zip(pairs, want):
            assert_same_pair(pair, ref)
        assert corpus_hash(pairs) == corpus_hash(want)
        # each read builds its pair anew, the same bits each time
        for i in (0, 1, len(want) - 1, -1, -len(want), 3, 3):
            assert_same_pair(pairs[i], want[i])
        for sl in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -4),
                   slice(5, 2), slice(18, 40)):
            got = pairs[sl]
            assert isinstance(got, list) and len(got) == len(want[sl])
            for pair, ref in zip(got, want[sl]):
                assert_same_pair(pair, ref)
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                pairs[i]

    def test_karamata_generator_hypotheses(self):
        for f, g in generate_karamata_pairs(50, 5):
            assert np.all(np.diff(f) <= 0)
            assert np.all(np.diff(g) <= 1e-12)
            assert np.all(np.cumsum(f) >= np.cumsum(g) - 1e-12)
            assert np.sum(f) == pytest.approx(np.sum(g))


def _tobytes_hash(items):
    """Reference for ``corpus_hash``: every array's bytes copied out by
    ``tobytes`` before they are hashed."""
    h = hashlib.sha256()
    for f in items:
        if isinstance(f, tuple):
            h.update(np.ascontiguousarray(f[0].entries).tobytes())
            f = f[1]
        h.update(bytes(str(f.levels), "ascii"))
        h.update(np.ascontiguousarray(f.values).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_hashes_equal_the_tobytes_digests(layout):
    # hashlib reads a C ordered array's buffer in place: the digests are
    # those of the bytes tobytes copies out, whatever the input's layout
    rng = np.random.default_rng(5)

    def laid_out(a):
        v = a[:, ::2]
        return v if layout == "strided" else np.asarray(v, order=layout)

    vals = laid_out(rng.random((64, 256)))
    ent = laid_out(rng.random((32, 64)) + 1j * rng.random((32, 64)))
    grid = SimpleNamespace(levels=(7, 6), values=vals)
    items = [grid, (SimpleNamespace(entries=ent), grid), constant_grid(2.0, (2, 3))]
    assert corpus_hash(items) == _tobytes_hash(items)
    assert serialize_grid(grid)["sha256"] == \
        hashlib.sha256(np.ascontiguousarray(vals).tobytes()).hexdigest()


def _lacunary_pairs_by_synthesis(level, count, seed, ratio=2.0):
    """Reference for ``generate_lacunary_pairs``: each polynomial built from
    its planted coefficients by two fast Walsh transforms."""
    n1, n2 = level
    K1, K2 = 2**n1, 2**n2
    positions = []
    j = 0
    while True:
        pos = int(round(ratio**j))
        if pos >= min(K1, K2):
            break
        if pos not in positions:
            positions.append(pos)
        j += 1
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        signs = np.ones(len(positions)) if i == 0 else \
            rng.choice([-1.0, 1.0], size=len(positions))
        c = np.zeros((K1, K2))
        for pos, s in zip(positions, signs):
            c[pos, pos] = s
        vals = walsh_synthesize(c, level)
        out.append((CoeffMatrix(WALSH, WALSH, c.astype(complex)),
                    DyadicStep2D(level, np.abs(vals))))
    return out


class TestKaramataCheck:
    def test_hand_pair_p2(self):
        rep = checks.check_karamata([(np.array([3.0, 1.0]),
                                      np.array([2.0, 2.0]))], 2.0)
        case = rep.cases[0]
        assert (case.lhs, case.rhs) == (8.0, 10.0)
        assert rep.passed

    def test_hand_pair_p_half(self):
        rep = checks.check_karamata([(np.array([3.0, 1.0]),
                                      np.array([2.0, 2.0]))], 0.5)
        case = rep.cases[0]
        assert case.lhs == pytest.approx(np.sqrt(3) + 1)
        assert case.rhs == pytest.approx(2 * np.sqrt(2))
        assert rep.passed

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_equal_pair_is_equality(self, p):
        f = np.array([2.0, 1.0])
        rep = checks.check_karamata([(f, f.copy())], p)
        assert rep.max_ratio == pytest.approx(1.0)


class TestMinkCheck:
    def test_tensor_equality(self, rng):
        u, w = rng.random(8), rng.random(8)
        f = DyadicStep2D((3, 3), np.outer(w, u))
        rep = checks.check_mink([f], 1.0, 2.0)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_p_equals_q_equality(self, rng):
        f = DyadicStep2D((3, 3), rng.random((8, 8)))
        rep = checks.check_mink([f], 2.0, 2.0)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_invalid_exponent_order(self):
        with pytest.raises(ValueError):
            checks.check_mink([], 2.0, 1.0)


class TestHardyCheck:
    def test_worked_indicator_case(self):
        prof = DyadicStep1D(0, np.array([1.0]))
        q = r = 1.0
        alpha = 0.5
        assert hardy_descent_lhs(prof, q, r, alpha) == pytest.approx(4.0)
        assert hardy_descent_rhs(prof, q, r, alpha) == pytest.approx(2.0)

    def test_zero_profile(self):
        prof = DyadicStep1D(0, np.array([0.0]))
        assert hardy_descent_lhs(prof, 2.0, 1.0, 0.25) == 0.0
        assert hardy_ascent_lhs(prof, 2.0, 1.0, 0.25) == 0.0

    def test_ascent_r_inf_sides_coincide(self):
        prof = DyadicStep1D(2, np.array([4.0, 3.0, 2.0, 1.0]))
        assert hardy_ascent_lhs(prof, 2.0, INF, 0.25) == pytest.approx(
            hardy_ascent_rhs(prof, 2.0, INF, 0.25))

    def test_report_passes_with_uniformity(self):
        rep = checks.check_hardy(2.0, 1.0, 2.0 ** -np.arange(1, 11))
        assert rep.passed
        assert rep.notes["uniformity_pass"]


# ---------------------------------------------------------------------------
# scalar per-cell reference for the Hardy left sides (the loop form the array
# evaluation replaced)


def _ref_pw(c, a, b):
    try:
        return power_weight_integral(c, a, b)
    except DivergentIntegralError:
        return INF


def _ref_sup_power_linear(u, w, A, B, a, b):
    """``sup_{t in (a,b]} t^u (A + B t)^w`` with ``A + B t >= 0`` on the cell."""
    def val(t):
        return t**u * max(A + B * t, 0.0)**w

    cands = [val(b)]
    if a > 0:
        cands.append(val(a))
    elif A > 0:
        cands.append(0.0 if u > 0 else (A**w if u == 0 else INF))
    elif B != 0:
        e = u + w
        cands.append(0.0 if e > 0 else (abs(B)**w if e == 0 else INF))
    if B != 0 and u + w != 0:
        tstar = -u * A / (B * (u + w))
        if a < tstar < b:
            cands.append(val(tstar))
    return max(cands)


def _ref_outer_integral(cells, c, k, tail_const, tail_exact_power, q):
    total = 0.0
    for a, b, A, B in cells:
        if A == 0.0 and B == 0.0:
            continue
        if A == 0.0:
            wgt = _ref_pw(c + k, a, b)
            if wgt == INF:
                return INF
            total += B**k * wgt
        elif k == 1.0:
            w0, w1 = _ref_pw(c, a, b), _ref_pw(c + 1, a, b)
            if INF in (w0, w1):
                return INF
            total += A * w0 + B * w1
        elif k == 2.0:
            w0, w1, w2 = _ref_pw(c, a, b), _ref_pw(c + 1, a, b), _ref_pw(c + 2, a, b)
            if INF in (w0, w1, w2):
                return INF
            total += A * A * w0 + 2 * A * B * w1 + B * B * w2
        else:
            wgt = _ref_pw(c, a, b)
            if wgt == INF:
                return INF
            total += max(A + B * a, A + B * b)**k * wgt
    if tail_const > 0.0:
        if tail_exact_power and c < 0:
            total += tail_const**k * (-1.0 / c)
        elif tail_exact_power:
            return INF
    return total ** (1.0 / q) if q != INF else total


def _ref_descent_lhs(prof, q, r, alpha):
    v = np.asarray(prof.values, dtype=float)
    h = prof.width
    pref = np.concatenate([[0.0], np.cumsum(v**r * h)])
    edges = np.arange(len(v) + 1) * h
    cells = [(edges[j], edges[j + 1], pref[j] - v[j]**r * edges[j], v[j]**r)
             for j in range(len(v))]
    G1 = pref[-1]
    if q == INF:
        best = G1 ** (1.0 / r) if alpha > 0 else INF
        for a, b, A, B in cells:
            best = max(best, _ref_sup_power_linear(-alpha, 1.0 / r, A, B, a, b))
        return best
    return _ref_outer_integral(cells, -alpha * q, q / r, G1, True, q)


def _ref_ascent_lhs(prof, q, r, alpha):
    v = np.asarray(prof.values, dtype=float)
    h = prof.width
    suf = np.concatenate([np.cumsum((v**r * h)[::-1])[::-1], [0.0]])
    edges = np.arange(len(v) + 1) * h
    cells = [(edges[j], edges[j + 1], suf[j] + v[j]**r * edges[j], -(v[j]**r))
             for j in range(len(v))]
    if q == INF:
        best = 0.0
        for a, b, A, B in cells:
            if A != 0.0 or B != 0.0:
                best = max(best, _ref_sup_power_linear(alpha, 1.0 / r, A, B, a, b))
        return best
    return _ref_outer_integral(cells, alpha * q, q / r, 0.0, False, q)


def _ref_profiles():
    profs = [p for _, p in checks._hardy_profiles(2.0, 7)]
    profs.append(checks._hardy_profiles(2.0, 3)[-1][1])  # the seeded step
    profs.append(checks._hardy_profiles(1.0, 7)[1][1])  # power at r = 1
    profs += [DyadicStep1D(0, np.array([0.0])), DyadicStep1D(0, np.array([3.0]))]
    # a constant prefix at a power of two, so A = 0 exactly beyond the first
    # cell in both forms, then a decreasing run
    profs.append(DyadicStep1D(4, np.concatenate([np.full(5, 2.0),
                                                 np.linspace(1.5, 0.1, 11)])))
    # trailing zero cells
    profs.append(DyadicStep1D(5, np.concatenate([np.linspace(2.0, 0.5, 20),
                                                 np.zeros(12)])))
    return profs


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, INF])
def test_hardy_lhs_matches_scalar_reference(q):
    for prof in _ref_profiles():
        for r in (1.0, 2.0, 3.0):
            for alpha in (0.001, 0.25, 0.5, 0.9):
                for new, ref in ((hardy_descent_lhs, _ref_descent_lhs),
                                 (hardy_ascent_lhs, _ref_ascent_lhs)):
                    got, want = new(prof, q, r, alpha), ref(prof, q, r, alpha)
                    where = (new.__name__, len(prof.values), q, r, alpha)
                    if got in (0.0, INF) or want in (0.0, INF):
                        assert got == want, where
                    else:
                        assert got == pytest.approx(want, rel=1e-13, abs=0), where


def test_hardy_descent_lhs_finite_at_large_magnitude():
    prof = np.linspace(1, 0.1, 16)
    small = hardy_descent_lhs(DyadicStep1D(4, prof), 2.0, 1.0, 0.5)
    big = hardy_descent_lhs(DyadicStep1D(4, 1e200 * prof), 2.0, 1.0, 0.5)
    assert big == pytest.approx(1e200 * small, rel=1e-12, abs=0)


_HARDY_DISPLAYS = (hardy_descent_lhs, hardy_descent_rhs,
                   hardy_ascent_lhs, hardy_ascent_rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.integers(0, 64),
       st.integers(-330, 330), st.integers(-330, 330),
       st.sampled_from([(1.0, 1.0), (1.0, 2.0), (1.0, INF), (2.0, 1.0),
                        (2.0, 2.0), (2.0, INF), (INF, 1.0), (INF, 2.0),
                        (INF, INF), (3.0, 2.0)]),
       st.floats(1e-3, 0.999))
def test_hardy_displays_homogeneous_at_any_scale(n, seed, zeros, m, k, qr, alpha):
    # a nonincreasing profile of magnitude 2^m, possibly with trailing zero
    # cells; c = 2^k scales every value exactly, so H(c f) = c H(f)
    v = np.sort(np.random.default_rng(seed).random(2**n))[::-1] * 2.0**m
    v[len(v) - min(zeros, len(v)):] = 0.0
    c = 2.0**k
    q, r = qr
    for disp in _HARDY_DISPLAYS:
        base = disp(DyadicStep1D(n, v), q, r, alpha)
        scaled = disp(DyadicStep1D(n, c * v), q, r, alpha)
        if base in (0.0, INF):
            assert scaled == base, disp.__name__
        else:
            assert scaled == pytest.approx(c * base, rel=1e-12, abs=0), disp.__name__


class TestLe3Check:
    def test_single_walsh_mode_parseval_equality(self):
        c = np.zeros((8, 8))
        c[3, 2] = 1.0
        f = DyadicStep2D((3, 3), np.abs(walsh_synthesize(c, (3, 3))))
        rep = checks.check_le3([f], Ns=((2, 2),))
        parseval = [c for c in rep.cases if c.case_id.endswith("parseval")]
        assert parseval[0].ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_constant_function(self):
        rep = checks.check_le3([constant_grid(1.0, (3, 3))], Ns=((2, 2), (8, 8)))
        assert rep.passed
        for Ns in (((0, 2),), ((2, 2), (2, -1))):
            with pytest.raises(ValueError, match="block sizes must be >= 1"):
                checks.check_le3([constant_grid(1.0, (3, 3))], Ns=Ns)


class TestTheoremChecks:
    def test_te3_zero_function_trivial(self):
        rep = checks.check_te3([constant_grid(0.0, (3, 3))], (0.5, 0.5), (2, 2))
        assert rep.max_ratio == 0.0

    def test_te3_small_corpus_passes(self):
        corpus = generate(CorpusSpec("random_step", (4, 4), 10, 13))
        rep = checks.check_te3(corpus, (0.5, 0.5), (2, 2))
        assert rep.passed
        assert rep.notes["D"] == pytest.approx(4.0)

    def test_te4_special_case_theta_zero(self):
        corpus = generate(CorpusSpec("random_step", (4, 4), 5, 17))
        rep = checks.check_te4(corpus, (0.0, 0.0), (4, 4))
        assert rep.passed

    def test_thm5_single_mode(self):
        f = constant_grid(1.0, (3, 3))
        rep = checks.check_thm5([f], (INF, INF))
        # lhs = 1/ln 2 at k = (1,1); rhs = 1
        assert rep.cases[0].lhs == pytest.approx(1 / np.log(2))
        assert rep.cases[0].rhs == pytest.approx(1.0)
        assert rep.passed

    def test_thm5_lacunary_pairs(self):
        pairs = generate_lacunary_pairs((6, 6), 3, 19)
        rep = checks.check_thm5(pairs, (2, 2))
        assert rep.passed
        rep2 = checks.check_thm5(pairs, (2, 2), blocksup=True)
        assert rep2.passed


class TestEmbeddingChecks:
    def test_chain_on_small_corpus(self):
        corpus = generate(CorpusSpec("random_step", (4, 4), 10, 23))
        rep = checks.check_embeddings_chain(corpus, (0.5, 0.5))
        assert rep.passed

    def test_collapse_exact(self):
        corpus = generate(CorpusSpec("random_step", (4, 4), 10, 29))
        rep = checks.check_collapse(corpus)
        assert rep.passed
        assert "inexact" not in rep.notes

    def test_collapse_reads_the_surface(self, monkeypatch):
        """The left side is the eps = (0, 0) entry of the theta = 0 surface,
        so one ulp moved there shows as an inexact case."""
        corpus = generate(CorpusSpec("random_step", (4, 4), 10, 29))
        surface = checks._lorentz_surface

        def nudged(*args):
            axes, vals = surface(*args)
            assert axes[0][-1] == axes[1][-1] == 0.0
            vals = vals.copy()
            vals[3, -1, -1] = np.nextafter(vals[3, -1, -1], INF)
            return axes, vals

        monkeypatch.setattr(checks, "_lorentz_surface", nudged)
        rep = checks.check_collapse(corpus)
        assert rep.notes["inexact"] == ["f3"]
        assert not rep.passed

    def test_p1_requires_ordering(self):
        with pytest.raises(ValueError):
            checks.check_p1_monotone([], (0.5, 0.5), (0.25, 1.0))

    def test_logweight_equiv_records_bracket(self):
        corpus = generate(CorpusSpec("random_step", (5, 5), 10, 31))
        rep = checks.check_logweight_equiv(corpus, (0.5, 0.5))
        assert rep.passed
        assert 0 < rep.notes["ratio_min"] <= rep.notes["ratio_max"]


class TestReports:
    def test_ratio_conventions(self):
        assert CheckCase("a", 0.0, 0.0).ratio == 0.0
        assert CheckCase("b", 1.0, 0.0).ratio == INF
        assert CheckCase("c", 1.0, 2.0).ratio == 0.5

    def test_report_pass_semantics(self):
        rep = CheckReport("x", {}, "", 1.0, [CheckCase("a", 2.0, 1.0)])
        assert not rep.passed
        rep2 = CheckReport("x", {}, "", 2.5, [CheckCase("a", 2.0, 1.0)])
        assert rep2.passed

    def test_write_reports_deterministic(self, tmp_path):
        reps = checks.suite_karamata(7)
        j1, c1 = write_reports(reps, tmp_path / "a")
        j2, c2 = write_reports(checks.suite_karamata(7), tmp_path / "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()
        lines = j1.read_text().splitlines()
        assert all(json.loads(ln)["pass"] for ln in lines)

    def test_summary_csv_columns(self, tmp_path):
        reps = checks.suite_karamata(7)
        _, cs = write_reports(reps, tmp_path)
        head = cs.read_text().splitlines()[0]
        assert head == "checkId,paramPoint,maxRatio,threshold,pass"

    def test_summary_csv_plain_floats(self, tmp_path):
        # numpy scalar sides must not leak "np.float64(...)" into the CSV
        reps = [CheckReport("x", {}, "", np.float64(4.0),
                            [CheckCase("a", np.float64(0.3), np.float64(0.7))]),
                CheckReport("y", {}, "", 2.0, [CheckCase("b", np.float64(1.0), 0.0)])]
        _, cs = write_reports(reps, tmp_path)
        rows = list(csv.DictReader(cs.read_text().splitlines()))
        assert [float(r["maxRatio"]) for r in rows] == [0.3 / 0.7, INF]
        assert [float(r["threshold"]) for r in rows] == [4.0, 2.0]

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite 'nosuch'") as exc:
            checks.run_suite("nosuch")
        assert "interp" in str(exc.value) and "all" in str(exc.value)


def test_reports_carry_worst_witness():
    corpus = generate(CorpusSpec("random_step", (3, 3), 5, 41))
    rep = checks.check_te3(corpus, (0.5, 0.5), (2, 2))
    assert rep.worst_witness is not None
    assert rep.worst_witness["levels"] == [3, 3]
    assert len(rep.worst_witness["values"]) == 8
    big = generate(CorpusSpec("random_step", (7, 7), 2, 43))
    rep2 = checks.check_mink(big, 1.0, 2.0)
    assert "sha256" in rep2.worst_witness  # large grids ship a digest


class TestSweepsMatchOnePointChecks:
    """Each suite-level sweep prepares a function once for all its
    parameter points; its reports must equal, witness included, those of
    the one-point check called at each point."""

    @pytest.fixture(scope="class")
    def small(self):
        corpus = checks.sweep_corpus(7, (3, 3))
        pairs = generate_lacunary_pairs((5, 5), 2, 7)
        return corpus, pairs

    @staticmethod
    def assert_same(swept, single):
        assert [r.to_json_dict() for r in swept] == \
            [r.to_json_dict() for r in single]

    def test_te3(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        points = [(th, q) for th in checks.THETA_SWEEP for q in checks.Q_SWEEP]
        self.assert_same(checks._sweep(funcs, [checks._te3_group(points, None)])[0],
                         [checks.check_te3(funcs, th, q) for th, q in points])

    def test_te4(self, small):
        corpus, pairs = small
        points = [(th, q, th == (0.0, 0.0))
                  for th in ((0.0, 0.0), (0.25, 0.25), (0.5, 0.5))
                  for q in checks.Q_SWEEP]
        self.assert_same(
            checks._sweep(checks._Chain(corpus, pairs), [checks._te4_group(
                points, corpus_hash(corpus), len(corpus), len(pairs))])[0],
            [checks.check_te4(corpus, th, q, pairs=pairs if w else None)
             for th, q, w in points])

    def test_thm5(self, small):
        corpus, pairs = small
        items = list(corpus) + list(pairs)
        points = [(q, b) for q in ((2.0, 2.0), (4.0, 4.0), (INF, INF), (2.0, INF))
                  for b in (False, True)]
        self.assert_same(checks._sweep(items, [checks._thm5_group(points)])[0],
                         [checks.check_thm5(items, q, blocksup=b) for q, b in points])

    def test_interp(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        points = [(th, q) for th in checks.THETA_SWEEP for q in checks.Q_SWEEP]
        self.assert_same(checks._sweep(funcs, [checks._interp_group(points, None, 10)])[0],
                         [checks.check_interp_chain(funcs, th, q) for th, q in points])

    def test_chain(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        thetas = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)]
        swept = checks._sweep(funcs, [checks._chain_group(thetas)])[0]
        self.assert_same(swept,
                         [checks.check_embeddings_chain(funcs, th) for th in thetas])
        # and the cases are the public norms, function by function
        e = Exponents((2, 2), (1, 1))
        for rep, th in zip(swept, thetas):
            for i, f in enumerate(funcs):
                upper, lower = rep.cases[2 * i], rep.cases[2 * i + 1]
                L = lorentz_norm(f, e)
                assert (upper.lhs, upper.rhs) == (
                    grand_lorentz_norm(f, e, GrandParams(th)).value, L)
                assert (lower.lhs, lower.rhs) == (
                    L, grand_lorentz_norm(f, e, GrandParams((-th[0], -th[1]))).value)


def _full_coeffs(item):
    """The coefficients a sweep reads of an item: planted for a pair, the
    full-resolution Walsh coefficients for a function."""
    if isinstance(item, tuple):
        return item
    return coeffs_2d(item, WALSH, WALSH, *(2**n for n in item.levels)), item


def _bits(cases):
    return [(c.case_id, float(c.lhs).hex(), float(c.rhs).hex()) for c in cases]


def _want_bits(cases):
    return [(cid, float(lhs).hex(), float(rhs).hex()) for cid, lhs, rhs in cases]


class TestSweepCasesArePublicNorms:
    """Every case of a stacked sweep carries, bit for bit, the values of the
    public one-function norms of its item."""

    @pytest.fixture(scope="class")
    def small(self):
        corpus = checks.sweep_corpus(7, (3, 3)) + [constant_grid(0.0, (3, 3))]
        pairs = generate_lacunary_pairs((5, 5), 2, 7)
        return corpus, pairs

    def test_te3(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        points = [(th, q) for th in checks.THETA_SWEEP[::4] for q in checks.Q_SWEEP]
        for rep, (th, q) in zip(
                checks._sweep(funcs, [checks._te3_group(points, None)])[0], points):
            p = tuple(1.0 / (1.0 - t / 2.0) for t in th)
            assert _bits(rep.cases) == _want_bits(
                (f"f{i}", te3_lhs(_full_coeffs(f)[0], p, q),
                 6.0 * constant_D(th, q) * lorentz_norm(f, Exponents(p, q)))
                for i, f in enumerate(funcs))

    def test_te4(self, small):
        corpus, pairs = small
        points = [(th, q, th == (0.0, 0.0))
                  for th in ((0.0, 0.0), (0.25, 0.25)) for q in checks.Q_SWEEP]
        items = [(f"f{i}", f) for i, f in enumerate(corpus)] + \
            [(f"flac{j}", pair) for j, pair in enumerate(pairs)]
        swept = checks._sweep(checks._Chain(corpus, pairs), [checks._te4_group(
            points, corpus_hash(corpus), len(corpus), len(pairs))])[0]
        for rep, (th, q, w) in zip(swept, points):
            e, gp = Exponents((2, 2), q), GrandParams(th)
            assert _bits(rep.cases) == _want_bits(
                (cid, te4_lhs(_full_coeffs(it)[0], e, gp).value,
                 grand_lorentz_norm(_full_coeffs(it)[1], e, gp).value)
                for cid, it in items if w or not cid.startswith("flac"))

    def test_thm5(self, small):
        corpus, pairs = small
        items = list(corpus) + list(pairs)
        points = [(q, b) for q in ((2.0, 2.0), (4.0, 4.0), (INF, INF), (2.0, INF))
                  for b in (False, True)]
        for rep, (q, b) in zip(checks._sweep(items, [checks._thm5_group(points)])[0],
                               points):
            lhs = block_sup_lhs if b else bochkarev_lhs
            assert _bits(rep.cases) == _want_bits(
                (f"f{i}", lhs(_full_coeffs(it)[0], q),
                 lorentz_norm(_full_coeffs(it)[1], Exponents((2, 2), q)))
                for i, it in enumerate(items))

    @pytest.mark.parametrize("q", [(1, 1), (4, 2)])
    def test_p1_and_collapse(self, small, q):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        e = Exponents((2, 2), q)
        for theta, s_ in (((0.25, 0.25), (0.5, 1.0)), ((0.0, 0.5), (1.0, 1.0))):
            rep = checks.check_p1_monotone(funcs, theta, s_, q=q)
            assert _bits(rep.cases) == _want_bits(
                (f"f{i}", grand_lorentz_norm(f, e, GrandParams(s_)).value,
                 grand_lorentz_norm(f, e, GrandParams(theta)).value)
                for i, f in enumerate(funcs))
        rep = checks.check_collapse(funcs, q=q)
        assert _bits(rep.cases) == _want_bits(
            (f"f{i}", grand_lorentz_norm(f, e, GrandParams((0.0, 0.0))).value,
             lorentz_norm(f, e)) for i, f in enumerate(funcs))
        assert "inexact" not in rep.notes

    def test_logweight_equiv(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        cal = calibration()
        e, gp = Exponents((2, 2), (INF, INF)), GrandParams((0.5, 0.5))
        rep = checks.check_logweight_equiv(funcs, (0.5, 0.5))
        want = []
        for i, f in enumerate(funcs):
            z = checks._zero_last_slabs(f)
            if not np.any(z.values > 0):
                continue  # the all-zero function has no case
            g, w = grand_lorentz_norm(z, e, gp).value, logweight_sup_norm(z, (2, 2), (0.5, 0.5))
            want += [(f"f{i}:hi", g, cal["l1_equiv_hi"] * w),
                     (f"f{i}:lo", cal["l1_equiv_lo"] * w, g)]
        assert len(want) == 2 * (len(funcs) - 1)
        assert _bits(rep.cases) == _want_bits(want)

    def test_interp(self, small):
        # at q = (4, 4) the last stage's power differs in the last bit for a
        # numpy scalar and an array on some CPUs, so a stacked last stage
        # fails here
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        q = (4.0, 4.0)
        points = [(th, q) for th in checks.THETA_SWEEP]
        for rep, (th, _) in zip(
                checks._sweep(funcs, [checks._interp_group(points, None, 10)])[0],
                points):
            p = tuple(1.0 / (1.0 - t / 2.0) for t in th)
            assert _bits(rep.cases) == _want_bits(
                (f"f{i}", interp_norm(f, th, q),
                 6.0 * constant_D(th, q) * lorentz_norm(f, Exponents(p, q)))
                for i, f in enumerate(funcs))


def test_stacks_keep_one_shape_and_bound_the_cells():
    small = checks.sweep_corpus(7, (3, 3))[:4]
    big = generate_lacunary_pairs((9, 9), 2, 7)
    items = (small + [big[0][1]] + [f for _, f in big] + small
             + list(generate_lacunary_pairs((3, 3), 2, 7)) + small[:1]
             + generate(CorpusSpec("random_step", (3, 4), 2, 7))
             + generate(CorpusSpec("random_step", (5, 5), 300, 7)))
    drawn = []

    def stream():
        for item in items:
            drawn.append(item)
            yield item

    runs = []
    for run, stack in checks._stacks(stream()):
        # one pass: a run comes with its own items, once the pass has read
        # them and at most the next one
        assert len(drawn) <= run.stop + 1
        assert len(stack) == len(run)
        assert all(a is b for a, b in zip(stack, items[run.start:run.stop]))
        runs.append(run)
    assert [i for run in runs for i in run] == list(range(len(items)))

    def kind(item):
        return (np.shape(item[1].values), "pair") if isinstance(item, tuple) \
            else (np.shape(item.values), "function")

    for run in runs:
        assert len({kind(items[i]) for i in run}) == 1
        cells = sum(int(np.prod(kind(items[i])[0])) for i in run)
        assert len(run) == 1 or cells <= checks._BLOCK_CELLS
    sizes = [len(run) for run in runs]
    # 512 x 512 items one at a time; 256 items of 32 x 32 fill a stack
    assert sizes == [4, 1, 1, 1, 4, 2, 1, 2, 256, 44]


@pytest.mark.parametrize("seed", [0, 7])
def test_prepared_magnitudes_are_each_function_s(seed):
    # a function stack's Walsh magnitudes are one stacked transform, each
    # item's bits those of its own coeffs_2d call
    for _, stack in checks._stacks(checks.sweep_corpus(seed)):
        prep = checks._Prepared(stack)
        want = np.stack([np.abs(coeffs_2d(f, WALSH, WALSH, *prep.dims).entries)
                         for f in stack])
        got = prep._block_magnitudes()
        assert got.shape == want.shape and same_bits(got, want)


def test_prepared_grand_at_shuffled_theta_equals_fresh_calls():
    # one _Prepared keeps each epsilon surface of its stack and picks from
    # it at every theta; read in any order, it must give what a fresh stack
    # gives and, item by item, the value and witnessing epsilon of the
    # public norms
    funcs = checks.sweep_corpus(7, (3, 3))[33:37] + [constant_grid(0.0, (3, 3))]
    pairs = generate_lacunary_pairs((4, 4), 2, 7)
    thetas = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.25, 0.25), (0.5, 0.5),
              (1.0, 0.25), (-0.5, -0.5), (-0.25, -1.0)]
    calls = [(Exponents((2, 2), q), GrandParams(th, eps_levels=J), sign)
             for q in ((1, 1), (4, 4), (INF, 2)) for th in thetas
             for J in (3, 24) for sign in (None, "minus", "plus")
             if sign is None or th[0] >= 0]
    random.Random(5).shuffle(calls)
    for items in (funcs, pairs):
        assert len(list(checks._stacks(items))) == 1
        prep = checks._Prepared(items)
        full = [_full_coeffs(it) for it in items]
        for e, gp, sign in calls:
            value, eps = prep.grand(e, gp, sign)
            fresh = checks._Prepared(items).grand(e, gp, sign)
            assert value.tobytes() == fresh[0].tobytes()
            assert eps.tobytes() == fresh[1].tobytes()
            for k, (coeffs, fn) in enumerate(full):
                want = grand_lorentz_norm(fn, e, gp) if sign is None else \
                    grand_seq_norm(coeffs.magnitudes, e, gp, sign)
                assert (float(value[k]).hex(), tuple(eps[k])) == \
                    (want.value.hex(), want.eps)


def test_suites_compute_each_surface_once(monkeypatch):
    # one core call per stack of same-shape items, parameter point and
    # surface key: the 32 x 32 corpora are one stack each and every 512 x 512
    # lacunary pair is a stack of its own.  With one call per item (the
    # parent of this design) te3 made 1800 calls of each core, interp 1800,
    # embeddings 550, te4 480 and 280, thm5 280
    counts = collections.Counter()
    for name in ("_lorentz_core_batch", "_seq_block_core"):
        def counted(*args, _fn=getattr(norms, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(norms, name, counted)
    got = {}
    for suite in ("te3", "interp", "embeddings", "te4", "thm5"):
        counts.clear()
        checks.run_suite(suite, 7)
        got[suite] = dict(counts)
    assert got["te3"]["_lorentz_core_batch"] <= 36
    assert got["te3"]["_seq_block_core"] <= 36
    assert got["interp"]["_lorentz_core_batch"] <= 36
    # embeddings: the collapse check reads the theta = 0 surface besides
    # the plain norm
    assert got["embeddings"]["_lorentz_core_batch"] <= 8
    assert got["te4"]["_lorentz_core_batch"] <= 88
    assert got["te4"]["_seq_block_core"] <= 84
    assert got["thm5"]["_lorentz_core_batch"] <= 84
    # the four theorem suites as one pass share each stack: 244 and 120
    # calls when run apart
    counts.clear()
    checks._theorem_suites(7)
    assert counts["_lorentz_core_batch"] <= 145
    assert counts["_seq_block_core"] <= 120


def test_interp_evaluates_khat_once_per_stack(monkeypatch):
    # one Khat call for the 50-function stack, for all its items and t values
    calls = []

    def counted(G, *args, _fn=checks._khat_of):
        calls.append(G.shape)
        return _fn(G, *args)
    monkeypatch.setattr(checks, "_khat_of", counted)
    checks.run_suite("interp", 7)
    assert calls == [(50, 32, 32)]


def test_le3_rearranges_each_matrix_once_in_function_order(monkeypatch):
    # the function-order blocks read one rearrangement per stack of
    # coefficient matrices (100 Walsh, and 20 trig in stacks of at most 8),
    # not one per block size: each matrix is rearranged once
    calls = []

    def counted(m, _fn=checks._rearranged_values):
        calls.append(m.shape)
        return _fn(m)
    monkeypatch.setattr(checks, "_rearranged_values", counted)
    checks.run_suite("le3", 7)
    assert calls == [(100, 32, 32), (8, 128, 128), (8, 128, 128), (4, 128, 128)]


@pytest.mark.parametrize("seed", [7, 3])
def test_all_runs_the_theorem_suites_as_one_pass(monkeypatch, seed):
    # run_suite("all") gives each suite's own reports in suite order, while
    # te3, te4, thm5 and interp share one generation and one hash of each
    # item list: the corpus by corpus_hash, the corpus and the pairs by the
    # pass that reads them
    apart = [r.to_json_dict() for name in checks._SUITES
             for r in checks.run_suite(name, seed)]
    digests, made = collections.Counter(), []

    def hashed(items, _fn=checks.corpus_hash):
        digests[_fn(items)] += 1
        return _fn(items)

    def generated(*args, _fn=checks.generate_lacunary_pairs):
        made.append(args)
        return _fn(*args)

    monkeypatch.setattr(checks, "corpus_hash", hashed)
    monkeypatch.setattr(checks, "generate_lacunary_pairs", generated)
    got = [r.to_json_dict() for r in checks.run_suite("all", seed)]
    assert got == apart
    assert made == [((9, 9), 20, seed)]
    corpus = checks.sweep_corpus(seed)
    full = corpus_hash(itertools.chain(corpus,
                                       generate_lacunary_pairs((9, 9), 20, seed)))
    assert digests[corpus_hash(corpus)] == 1
    assert digests[full] == 0
    assert {r["corpusHash"] for r in got if r["checkId"].startswith("thm5")} == {full}
    assert {r["corpusHash"] for r in got if r["checkId"] == "te4"} == \
        {corpus_hash(corpus), full}


@pytest.mark.parametrize("suite", ["all", "te4", "thm5"])
def test_each_pair_is_built_at_most_twice_per_pass(monkeypatch, suite):
    # a pass builds each lacunary pair once, for its hash and its stack
    # together, and once more only if its function is a report's witness
    built = collections.Counter()

    def counted(self, i, _fn=LacunaryPairs._pair):
        built[i] += 1
        return _fn(self, i)

    monkeypatch.setattr(LacunaryPairs, "_pair", counted)
    checks.run_suite(suite, 7)
    assert sorted(built) == list(range(20))
    assert max(built.values()) <= 2


def test_lacunary_pairs_stream_in_bounded_memory():
    # the pairs are built as the pass reads them: at level (9, 9) a pair
    # takes 6 MiB, and all twenty of them took 125 MiB up front
    for run, bound in ((lambda: generate_lacunary_pairs((9, 9), 20, 7), 4),
                       (lambda: checks._theorem_suites(7), 48)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (bound, peak / 2**20)


# ---------------------------------------------------------------------------
# the stacked lemma checks against their per-item loops


def _mixed_corpus():
    """Functions of three shapes in runs, an all-zero one among them."""
    r = np.random.default_rng(5)
    return ([DyadicStep2D((3, 4), r.random((16, 8))) for _ in range(3)]
            + [DyadicStep2D((4, 3), np.zeros((8, 16)))]
            + [DyadicStep2D((4, 3), r.random((8, 16))) for _ in range(2)]
            + [DyadicStep2D((2, 2), r.random((4, 4)))]
            + [DyadicStep2D((3, 4), r.random((16, 8)))])


def _lemma_corpora():
    yield "mixed", _mixed_corpus()
    yield "empty", []
    for seed in (0, 7, 13):
        yield f"seed{seed}", generate(CorpusSpec("random_step", (5, 5), 100, seed))


_LEMMA_CORPORA = dict(_lemma_corpora())


def _assert_cases(rep, want):
    got = [(c.case_id, c.lhs, c.rhs) for c in rep.cases]
    assert [c[0] for c in got] == [c[0] for c in want]
    assert same_bits([c[1:] for c in got], [c[1:] for c in want])


def _assert_corpus_and_witness(rep, corpus, want):
    """The report's corpus hash is the corpus's, and its witness is the
    serialized function of the first worst case of the cases ``want``."""
    assert rep.corpus_hash == corpus_hash(corpus)
    worst = CheckReport("ref", {}, "", 1.0,
                        [CheckCase(*c) for c in want]).worst_case()
    assert rep.worst_witness == (None if worst is None else serialize_grid(
        corpus[int(worst.case_id.split(":")[0][1:])]))


class TestStackedLemmaChecksMatchTheLoops:
    @pytest.mark.parametrize("name", _LEMMA_CORPORA)
    @pytest.mark.parametrize("p,q", [(1, 2), (1, INF), (2, 4), (0.5, 3.0)])
    def test_mink(self, name, p, q):
        corpus = _LEMMA_CORPORA[name]
        rep, want = checks.check_mink(corpus, p, q), ref_mink_cases(corpus, p, q)
        _assert_cases(rep, want)
        _assert_corpus_and_witness(rep, corpus, want)

    @pytest.mark.parametrize("name", _LEMMA_CORPORA)
    @pytest.mark.parametrize("systems", [(WALSH, WALSH), (TRIG, TRIG), (WALSH, TRIG)])
    def test_le3(self, name, systems):
        corpus = _LEMMA_CORPORA[name]
        if systems != (WALSH, WALSH):
            corpus = corpus[:12]  # a trig matrix is 4x the grid per axis
        rep = checks.check_le3(corpus, systems, Ns=((2, 2), (8, 8), (32, 32)))
        cases, fun_max = ref_le3(corpus, systems, ((2, 2), (8, 8), (32, 32)))
        _assert_cases(rep, cases)
        _assert_corpus_and_witness(rep, corpus, cases)
        assert same_bits(rep.notes["fun_order_max_ratio_vs_parseval"], fun_max)

    @pytest.mark.parametrize("seed", [0, 7, 13])
    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    @pytest.mark.parametrize("r", [1.0, 2.0, INF])
    def test_hardy(self, seed, q, r):
        alphas = 2.0 ** -np.arange(1, 11)
        rep = checks.check_hardy(q, r, alphas, seed)
        beta = max(1.0 / q, 1.0 / r)
        want, skipped = [], []
        for name, prof in checks._hardy_profiles(r, seed):
            for disp in ("descent", "ascent"):
                for alpha in alphas:
                    lhs, rhs = ref_hardy_sides(prof, q, r, alpha, disp == "descent")
                    cid = f"{name}:{disp}:a={alpha}"
                    if np.isfinite(lhs) and np.isfinite(rhs) and rhs != 0:
                        want.append((cid, lhs * alpha**beta, rhs))
                    else:
                        skipped.append(cid)
        _assert_cases(rep, want)
        assert rep.notes["skipped_divergent"] == skipped

    @pytest.mark.parametrize("r", [1.0, 2.0, INF])
    def test_hardy_one_alpha_displays_are_the_grid(self, r):
        prof = checks._hardy_profiles(r, 7)[1][1]
        alphas = [0.5, 0.25, 2.0**-10]
        for descent, flhs, frhs in ((True, hardy_descent_lhs, hardy_descent_rhs),
                                    (False, hardy_ascent_lhs, hardy_ascent_rhs)):
            lhs, rhs = hardy_grid(prof, 2.0, r, alphas, descent)
            assert same_bits(lhs, [flhs(prof, 2.0, r, a) for a in alphas])
            assert same_bits(rhs, [frhs(prof, 2.0, r, a) for a in alphas])


@pytest.fixture(scope="module")
def spied_all_pass():
    """One ``run_suite("all")`` with counters on the Hardy suite's
    ``_stage`` and on the lemma and embedding checks that perfbench times
    by rebinding their names."""
    names = ("check_karamata", "check_mink", "check_hardy", "check_le3",
             "check_p1_monotone", "check_collapse", "check_logweight_equiv")
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(checks, name, counted(name, getattr(checks, name)))
        mp.setattr(hardy, "_stage", counted("hardy._stage", hardy._stage))
        checks.run_suite("all", 7)
    return names, calls


def test_hardy_suite_takes_one_stage_per_profile_display_and_grid(spied_all_pass):
    # 9 (q, r) points x 3 profiles x 2 displays right sides, and the ascent
    # left side at r = inf for 3 q's x 3 profiles; 630 with one per alpha
    assert spied_all_pass[1]["hardy._stage"] <= 63


def test_the_timed_checks_are_still_called(spied_all_pass):
    # perfbench times the checks by rebinding these module globals
    names, calls = spied_all_pass
    assert all(calls[name] > 0 for name in names), calls


class TestNanCases:
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_a_nan_ratio_fails_the_report(self, order):
        cases = [CheckCase("a", 1.0, 2.0), CheckCase("b", float("nan"), 1.0)]
        rep = CheckReport("x", {}, "", 1.0, [cases[i] for i in order])
        rep.finalize_witness(lambda cid: {"case": cid})
        assert np.isnan(rep.max_ratio)
        assert not rep.passed
        assert rep.worst_witness == {"case": "b"}
        d = rep.to_json_dict()
        assert np.isnan(d["maxRatio"]) and d["pass"] is False

    def test_the_first_nan_case_is_the_witness(self):
        nan = float("nan")
        rep = CheckReport("x", {}, "", 1.0, [CheckCase("a", 3.0, 1.0),
                                             CheckCase("b", nan, 1.0),
                                             CheckCase("c", 1.0, nan)])
        rep.finalize_witness(lambda cid: {"case": cid})
        assert rep.worst_witness == {"case": "b"}

    def test_the_first_largest_ratio_is_the_witness(self):
        rep = CheckReport("x", {}, "", 1.0, [CheckCase("a", 1.0, 2.0),
                                             CheckCase("b", 3.0, 1.0),
                                             CheckCase("c", 6.0, 2.0)])
        rep.finalize_witness(lambda cid: {"case": cid})
        assert rep.max_ratio == 3.0 and rep.worst_witness == {"case": "b"}


def test_spliced_lines_equal_whole_report_dumps(tmp_path):
    # a witness is None, a case-id string, or a grid dict shared by reports
    grid = serialize_grid(generate(CorpusSpec("random_step", (2, 2), 1, 3))[0])
    notes = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
             "inf": INF, "nan": float("nan"), "arr": np.array([1.5, -INF]),
             "nested": {"z": [np.float32(0.25), None]}}
    reps = []
    for k, w in enumerate([None, "f3:a", {"case": "f1"}, grid, grid, None, grid]):
        rep = CheckReport(f"c{k % 3}", {"q": [2.0, "inf"], "k": k}, "h", 1.0 + k,
                          [CheckCase("f0", np.float64(k), 3.0),
                           CheckCase("f1", 1.0, np.float64(0.0))][:k % 3],
                          notes=dict(notes), worst_witness=w)
        reps.append(rep)
    jl, cs = write_reports(reps, tmp_path)
    lines = jl.read_text().splitlines()
    want = [json.dumps(r.to_json_dict(), sort_keys=True, cls=_JsonEncoder)
            for r in reps]
    assert lines == want
    rows = list(csv.reader(cs.read_text().splitlines()))[1:]
    assert [row[2] for row in rows] == [repr(float(r.max_ratio)) for r in reps]
    assert [row[4] for row in rows] == [str(int(r.passed)) for r in reps]
