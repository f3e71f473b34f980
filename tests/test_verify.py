import csv
import json

import numpy as np
import pytest

from lorentz_forge.fourier import WALSH, CoeffMatrix, coeffs_2d
from lorentz_forge.norms import Exponents, lorentz_norm
from lorentz_forge.stepfun import DyadicStep1D, DyadicStep2D, constant_grid
from lorentz_forge.verify import checks
from lorentz_forge.verify.corpus import (CorpusSpec, corpus_hash, generate,
                                         generate_karamata_pairs,
                                         generate_lacunary_pairs)
from lorentz_forge.verify.hardy import (hardy_ascent_lhs, hardy_ascent_rhs,
                                        hardy_descent_lhs, hardy_descent_rhs)
from lorentz_forge.verify.report import CheckCase, CheckReport, write_reports

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

    def test_karamata_generator_hypotheses(self):
        for f, g in generate_karamata_pairs(50, 5):
            assert np.all(np.diff(f) <= 0)
            assert np.all(np.diff(g) <= 1e-12)
            assert np.all(np.cumsum(f) >= np.cumsum(g) - 1e-12)
            assert np.sum(f) == pytest.approx(np.sum(g))


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


class TestLe3Check:
    def test_single_walsh_mode_parseval_equality(self):
        from lorentz_forge.fourier import walsh_synthesize

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
        self.assert_same(checks.te3_sweep(funcs, points),
                         [checks.check_te3(funcs, th, q) for th, q in points])

    def test_te4(self, small):
        corpus, pairs = small
        points = [(th, q, th == (0.0, 0.0))
                  for th in ((0.0, 0.0), (0.25, 0.25), (0.5, 0.5))
                  for q in checks.Q_SWEEP]
        self.assert_same(
            checks.te4_sweep(corpus, points, pairs=pairs),
            [checks.check_te4(corpus, th, q, pairs=pairs if w else None)
             for th, q, w in points])

    def test_thm5(self, small):
        corpus, pairs = small
        items = list(corpus) + list(pairs)
        points = [(q, b) for q in ((2.0, 2.0), (4.0, 4.0), (INF, INF), (2.0, INF))
                  for b in (False, True)]
        self.assert_same(checks.thm5_sweep(items, points),
                         [checks.check_thm5(items, q, blocksup=b) for q, b in points])

    def test_interp(self, small):
        corpus, pairs = small
        funcs = corpus + [f for _, f in pairs]
        points = [(th, q) for th in checks.THETA_SWEEP for q in checks.Q_SWEEP]
        self.assert_same(checks.interp_sweep(funcs, points),
                         [checks.check_interp_chain(funcs, th, q) for th, q in points])
