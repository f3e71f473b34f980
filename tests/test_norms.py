import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_grids, ref_direct_stage, ref_rearranged_values,
                      ref_sort_desc, ref_support_table, same_bits)
from lorentz_forge import rearrange
from lorentz_forge.fourier import (TRIG, WALSH, CoeffMatrix, _block_sup_of,
                                   _bochkarev_of, block_l2, block_sup_lhs,
                                   bochkarev_lhs, coeffs_2d, te3_lhs, te4_lhs)
from lorentz_forge.interpolation import (_interp_of, beta_from_q, interp_norm,
                                         k_upper, khat_grid)
import lorentz_forge.norms as norms
from lorentz_forge.norms import (Exponents, GrandNormResult, GrandParams,
                                 _dyadic_samples, _eps_grid,
                                 _grand_pick, _logweight_of,
                                 _lorentz_core_batch, _lorentz_of,
                                 _lorentz_surface,
                                 _power_cells, _qsum, _seq_block_core,
                                 _seq_block_lorentz_of, _stage,
                                 discrete_grand_norm_P6,
                                 evaluate_norm_request, grand_lorentz_norm,
                                 grand_seq_norm, logweight_sup_norm,
                                 lorentz_norm, mixed_lebesgue_norm,
                                 seq_block_lorentz_norm)
from lorentz_forge.rearrange import (Sequence2D, _dyadic_sqrt,
                                     _rearranged_support, _support_table,
                                     iterated_rearrange_2d, iterated_rearrange_seq)
from lorentz_forge.stepfun import (DyadicStep1D, DyadicStep2D, constant_grid,
                                   indicator_grid)
from lorentz_forge.verify.calibration import calibration
from lorentz_forge.verify.corpus import (CorpusSpec, generate,
                                        generate_lacunary_pairs)
from lorentz_forge.verify.hardy import hardy_ascent_rhs, hardy_descent_rhs

INF = float("inf")
NAN = float("nan")


class TestMixedLebesgue:
    @pytest.mark.parametrize("p", [(1, 1), (2, 2), (3, 0.5), (INF, 2), (2, INF)])
    def test_constant_is_its_value(self, p):
        assert mixed_lebesgue_norm(constant_grid(2.5, (2, 2)), p) == \
            pytest.approx(2.5)

    def test_half_strip_l1(self):
        f = DyadicStep2D((1, 0), [[2.0, 0.0]])
        assert mixed_lebesgue_norm(f, (1, 1)) == pytest.approx(1.0)

    def test_half_strip_l2(self):
        f = DyadicStep2D((1, 0), [[2.0, 0.0]])
        assert mixed_lebesgue_norm(f, (2, 2)) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("p", [(0, 2), (-1, 2), (2, float("nan")), (2, -INF), (2,)])
    def test_exponents_outside_the_range_rejected(self, p):
        # as Exponents: components in (0, inf]
        with pytest.raises(ValueError, match="p components"):
            mixed_lebesgue_norm(constant_grid(1.0, (2, 2)), p)


class TestLorentzNorm:
    def test_constant_p22_q11(self):
        assert lorentz_norm(constant_grid(1.0, (3, 3)),
                            Exponents((2, 2), (1, 1))) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("p", [(2, 2), (1.5, 4)])
    def test_constant_sup_form(self, p):
        assert lorentz_norm(constant_grid(1.0, (2, 2)),
                            Exponents(p, (INF, INF))) == pytest.approx(1.0)

    def test_quarter_square_indicator(self):
        f = indicator_grid(0.5, 0.5, (1, 1))
        assert lorentz_norm(f, Exponents((1, 1), (1, 1))) == \
            pytest.approx(0.25, abs=1e-12)

    def test_half_strip_indicator(self):
        f = indicator_grid(0.5, 1.0, (1, 0))
        assert lorentz_norm(f, Exponents((1, 1), (1, 1))) == \
            pytest.approx(0.5, abs=1e-12)

    def test_p_infinite_with_finite_q_diverges(self):
        f = constant_grid(1.0, (2, 2))
        assert lorentz_norm(f, Exponents((INF, 2), (1, 1))) == INF

    def test_p_equals_q_matches_mixed_norm_of_rearrangement(self):
        for i, f in enumerate(random_grids(50, (4, 4), seed=501)):
            p = [(1, 1), (2, 2), (3, 1.5), (0.7, 2)][i % 4]
            want = mixed_lebesgue_norm(iterated_rearrange_2d(f), p)
            got = lorentz_norm(f, Exponents(p, p))
            assert got == pytest.approx(want, rel=1e-10)

    def test_monotone_in_magnitudes(self, rng):
        v = rng.random((8, 8))
        f, g = DyadicStep2D((3, 3), v), DyadicStep2D((3, 3), 1.5 * v + 0.1)
        e = Exponents((2, 3), (1.5, 2))
        assert lorentz_norm(f, e) <= lorentz_norm(g, e)

    def test_q_monotonicity_recorded_constant(self):
        C = calibration()["q_monotone_C"]
        for f in random_grids(25, (4, 4), seed=77):
            prev = INF
            for q in [(1, 1), (2, 2), (4, 4), (INF, INF)]:
                cur = lorentz_norm(f, Exponents((2, 2), q))
                assert cur <= C * prev or prev == INF
                prev = cur


@settings(max_examples=20)
@given(st.floats(min_value=0.01, max_value=100))
def test_lorentz_positive_homogeneity(lam):
    f = DyadicStep2D((2, 2), np.arange(16, dtype=float).reshape(4, 4))
    g = DyadicStep2D((2, 2), lam * np.asarray(f.values))
    e = Exponents((2, 1.5), (1, 3))
    assert lorentz_norm(g, e) == pytest.approx(lam * lorentz_norm(f, e), rel=1e-12)


class TestGrandParams:
    @pytest.mark.parametrize("J", [2.5, 3.0, np.float64(3), True, False, -1,
                                   "3", None, 1075, 10**9])
    def test_depth_must_be_an_integer(self, J):
        # 2.5 searched depth 3 (np.arange(3.5)) and True depth 1; past 1074
        # 2^-j is 0.0, and a depth of 10**9 built np.arange(10**9 + 1)
        with pytest.raises(ValueError, match="eps_levels"):
            GrandParams((0.5, 0.5), eps_levels=J)

    @pytest.mark.parametrize("J", [0, 3, np.int64(3), np.uint8(24), 1074])
    def test_integer_depths_accepted(self, J):
        gp = GrandParams((0.5, 0.5), eps_levels=J)
        assert gp.eps_levels == J and type(gp.eps_levels) is int


class TestGrandLorentz:
    def test_constant_sup_form_attained_at_one(self):
        res = grand_lorentz_norm(constant_grid(1.0, (2, 2)),
                                 Exponents((2, 2), (INF, INF)), GrandParams((1, 1)))
        assert res.value == pytest.approx(1.0)
        assert res.eps == (1.0, 1.0)
        assert res.direction == "under"

    def test_theta_zero_collapse_is_bitwise(self):
        for f in random_grids(10, (3, 3), seed=3):
            e = Exponents((2, 2), (1.5, 3))
            res = grand_lorentz_norm(f, e, GrandParams((0.0, 0.0)))
            assert res.value == lorentz_norm(f, e)
            assert res.direction == "exact"

    def test_dominated_by_lorentz_for_positive_theta(self):
        for f in random_grids(10, (3, 3), seed=4):
            e = Exponents((2, 2), (1, 1))
            g = grand_lorentz_norm(f, e, GrandParams((1.0, 1.0))).value
            assert g <= lorentz_norm(f, e) * (1 + 1e-12)

    def test_embedding_chain_constant_one(self):
        e = Exponents((2, 2), (2, 2))
        for f in random_grids(20, (4, 4), seed=5):
            L = lorentz_norm(f, e)
            up = grand_lorentz_norm(f, e, GrandParams((0.5, 0.5))).value
            lo = grand_lorentz_norm(f, e, GrandParams((-0.5, -0.5))).value
            assert up <= L * (1 + 1e-12)
            assert L <= lo * (1 + 1e-12)

    def test_smoothness_monotonicity_constant_one(self):
        e = Exponents((2, 2), (1, 1))
        for f in random_grids(10, (3, 3), seed=6):
            small = grand_lorentz_norm(f, e, GrandParams((0.25, 0.25))).value
            large = grand_lorentz_norm(f, e, GrandParams((0.75, 1.0))).value
            assert large <= small * (1 + 1e-12)

    def test_inf_form_direction_and_cap(self):
        f = constant_grid(1.0, (2, 2))
        res = grand_lorentz_norm(f, Exponents((2, 2), (1, 1)),
                                 GrandParams((-0.5, -0.5)))
        assert res.direction == "over"
        assert all(eps <= 0.5 for eps in res.eps)

    def test_mixed_sign_theta_rejected(self):
        with pytest.raises(ValueError):
            GrandParams((0.5, -0.5))

    @pytest.mark.parametrize("theta", [(float("nan"),) * 2, (float("nan"), 0.5),
                                       (-0.5, float("nan"))])
    def test_nan_theta_rejected(self, theta):
        # nan passes the sign check, and nan >= 0 is False
        with pytest.raises(ValueError, match="theta"):
            GrandParams(theta)

    def test_inf_form_requires_finite_p(self):
        with pytest.raises(ValueError):
            grand_lorentz_norm(constant_grid(1.0), Exponents((INF, 2), (1, 1)),
                               GrandParams((-1, -1)))

    def test_grand_saves_p_infinity(self):
        # with positive smoothness the sup form stays finite even at p = inf
        f = constant_grid(1.0, (2, 2))
        res = grand_lorentz_norm(f, Exponents((INF, INF), (1, 1)),
                                 GrandParams((2.0, 2.0)))
        assert np.isfinite(res.value) and res.value > 0


class TestGrandSeqNorm:
    def test_single_entry_value_one(self):
        a = Sequence2D(np.array([[1.0]]))
        res = grand_seq_norm(a, Exponents((2, 2), (INF, INF)),
                             GrandParams((1, 1)), sign="minus")
        assert res.value == pytest.approx(1.0)

    def test_zero_sequence(self):
        a = Sequence2D(np.zeros((4, 4)))
        assert grand_seq_norm(a, Exponents((2, 2), (2, 2)),
                              GrandParams((1, 1)), sign="minus").value == 0.0

    def test_positive_homogeneity(self, rng):
        m = rng.random((8, 8))
        e = Exponents((2, 2), (2, 2))
        gp = GrandParams((0.5, 0.5))
        v1 = grand_seq_norm(Sequence2D(m), e, gp, sign="minus").value
        v2 = grand_seq_norm(Sequence2D(4 * m), e, gp, sign="minus").value
        assert v2 == pytest.approx(4 * v1, rel=1e-12)

    def test_plus_sign_diverges_for_nontrivial_input(self, rng):
        a = Sequence2D(rng.random((4, 4)) + 0.1)
        res = grand_seq_norm(a, Exponents((2, 2), (2, 2)),
                             GrandParams((0.5, 0.5)), sign="plus")
        assert res.value == INF

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            grand_seq_norm(Sequence2D(np.ones((2, 2))),
                           Exponents((2, 2), (2, 2)), GrandParams((1, 1)),
                           sign="up")

    def test_block_norm_single_entry_geometric_tail(self):
        # fixed-weight variant: single entry, p = (4/3, 4/3), q = (1,1):
        # sum over k of 2^{k(1/p' - 1/2)} per axis = (1/(1-2^{-1/4}))^2
        a = Sequence2D(np.array([[1.0]]))
        val = seq_block_lorentz_norm(a, (4 / 3, 4 / 3), (1, 1))
        per_axis = 1.0 / (1.0 - 2 ** (1 / 4 - 1 / 2))
        assert val == pytest.approx(per_axis**2, rel=1e-12)


def _scalar_block_stage(vals, u, nu, q):
    """Reference for ``_block_stage``: one nu, one row of values, the
    saturated tail ``sum_{k >= n} (2^{nu k} sat)^q`` in closed form."""
    sat = vals[-1]
    if q == INF:
        head = float(np.max(u * vals))
        if nu > 0 and sat > 0:
            return INF
        return head
    head = float(np.sum((u * vals) ** q))
    if sat > 0:
        if nu >= 0:
            return INF
        n = len(vals)
        head += (sat * 2.0 ** (nu * n)) ** q / -math.expm1(nu * q * math.log(2.0))
    return head ** (1.0 / q)


def _scalar_seq_block_core(sqrtS, nu1, nu2, q1, q2):
    """Reference for ``_seq_block_core`` at one (nu1, nu2) point."""
    u1 = 2.0 ** (nu1 * np.arange(sqrtS.shape[0]))
    inner = np.array([_scalar_block_stage(col, u1, nu1, q1) for col in sqrtS.T])
    return _scalar_block_stage(inner, 2.0 ** (nu2 * np.arange(len(inner))), nu2, q2)


BLOCK_QS = [(1, 1), (2, 2), (4, 4), (INF, INF), (2, INF), (3, 5)]


class TestSeqBlockCoreMatchesScalar:
    """The epsilon-axis batch core against the one-point scalar stages."""

    @staticmethod
    def _tables():
        r = np.random.default_rng(23)
        for rows in range(1, 13):
            cols = int(r.integers(1, 13))
            m = r.random((rows, cols)) * 10.0 ** r.integers(-3, 4)
            yield np.sqrt(np.cumsum(np.cumsum(m, axis=0), axis=1))
            m[:, : cols // 2] = 0.0  # zero columns: zero saturation values
            yield np.sqrt(np.cumsum(np.cumsum(m, axis=0), axis=1))
            yield r.random((rows, 12))
        yield np.zeros((10, 4))

    @pytest.mark.parametrize("q", BLOCK_QS)
    def test_core_bitwise(self, q):
        nu1s = np.array([-1.5, -0.5, -0.25 + 1e-3, -1e-9, 0.0, 0.3])
        nu2s = np.array([-2.0, -0.75, -0.1, 0.0, 1e-9, 0.5])
        for t in self._tables():
            got = _seq_block_core(t, nu1s, nu2s, *q)
            assert got.shape == (len(nu1s), len(nu2s))
            want = np.array([[_scalar_seq_block_core(t, x1, x2, *q) for x2 in nu2s]
                             for x1 in nu1s])
            exact = (got == 0) | (want == 0) | (got == INF) | (want == INF)
            assert np.array_equal(got[exact], want[exact]), t.shape
            assert np.allclose(got[~exact], want[~exact], rtol=1e-14, atol=0), t.shape

    @pytest.mark.parametrize("q", BLOCK_QS)
    def test_grand_seq_norm_value_and_witness(self, q):
        r = np.random.default_rng(5)
        e = Exponents((1.5, 3.0), q)
        for shape, theta in (((4, 6), (0.5, 0.5)), ((300, 9), (0.0, 1.0)),
                             ((512, 512), (0.25, 0.0))):
            m = r.random(shape)
            m[r.random(shape) < 0.3] = 0.0
            a = Sequence2D(m)
            gp = GrandParams(theta, eps_levels=8)
            for sign, s in (("plus", 1.0), ("minus", -1.0)):
                res = grand_seq_norm(a, e, gp, sign=sign)
                sqrtS = a._sqrt_table
                eps = 2.0 ** -np.arange(gp.eps_levels + 1)
                (e1, w1), (e2, w2) = [(np.append(eps, 0.0), np.ones(len(eps) + 1))
                                      if t == 0 else (eps, eps**t) for t in theta]
                vals = np.array([[_scalar_seq_block_core(
                    sqrtS, 1 / e.p[0] + s * x1 - 0.5, 1 / e.p[1] + s * x2 - 0.5, *q)
                    for x2 in e2] for x1 in e1])
                obj = vals * np.outer(w1, w2)
                i, j = np.unravel_index(np.argmax(obj), obj.shape)
                assert res.value == obj[i, j]
                assert res.eps == (e1[i], e2[j])

    @pytest.mark.parametrize("q", BLOCK_QS)
    def test_seq_block_lorentz_norm_is_float(self, q):
        a = Sequence2D(np.random.default_rng(3).random((12, 5)))
        val = seq_block_lorentz_norm(a, (4 / 3, 4), q)
        assert type(val) is float
        e = Exponents((4 / 3, 4), q)
        assert val == _scalar_seq_block_core(
            a._sqrt_table, 1 / e.conjugate(0) - 0.5,
            1 / e.conjugate(1) - 0.5, *q)


class TestLogWeightSup:
    def test_zero_function(self):
        assert logweight_sup_norm(constant_grid(0.0, (2, 2)), (2, 2), (1, 1)) == 0.0

    def test_constant_blows_up_at_one(self):
        assert logweight_sup_norm(constant_grid(1.0, (2, 2)), (2, 2), (1, 1)) == INF

    def test_positive_homogeneity(self, rng):
        v = rng.random((8, 8))
        v[-1, :] = 0
        v[:, -1] = 0
        f1 = DyadicStep2D((3, 3), v)
        f2 = DyadicStep2D((3, 3), 3 * v)
        n1 = logweight_sup_norm(f1, (2, 2), (0.5, 0.5))
        n2 = logweight_sup_norm(f2, (2, 2), (0.5, 0.5))
        assert n2 == pytest.approx(3 * n1, rel=1e-12)

    def test_requires_positive_theta(self):
        with pytest.raises(ValueError):
            logweight_sup_norm(constant_grid(1.0), (2, 2), (0.0, 1.0))

    @pytest.mark.parametrize("p, theta", [
        ((2, 2), (NAN, 0.5)), ((2, 2), (0.5, INF)),
        ((0, 2), (0.5, 0.5)), ((-2, 2), (0.5, 0.5)), ((NAN, 2), (0.5, 0.5)),
        ((2, INF), (0.5, 0.5))])
    def test_rejects_bad_exponents_and_theta(self, p, theta):
        with pytest.raises(ValueError):
            logweight_sup_norm(constant_grid(1.0), p, theta)


class TestDiscreteP6:
    def test_zero_function(self):
        assert discrete_grand_norm_P6(constant_grid(0.0, (2, 2)),
                                      Exponents((2, 2), (2, 2)), (1, 1)) == 0.0

    @pytest.mark.parametrize("theta", [(0.5, NAN), (INF, 0.5), (0.0, 0.5)])
    def test_requires_finite_positive_theta(self, theta):
        with pytest.raises(ValueError):
            discrete_grand_norm_P6(constant_grid(1.0), Exponents((2, 2), (2, 2)), theta)

    @pytest.mark.parametrize("k_max", [1, 0, -3])
    def test_requires_k_max_at_least_two(self, k_max):
        # the scan over k_i in {2..k_max} would be empty and read 0.0
        f = DyadicStep2D((2, 2), np.arange(1, 17.0).reshape(4, 4))
        assert discrete_grand_norm_P6(f, Exponents((2, 2), (2, 2)), (0.5, 0.5),
                                      k_max=2) > 0
        with pytest.raises(ValueError):
            discrete_grand_norm_P6(f, Exponents((2, 2), (2, 2)), (0.5, 0.5),
                                   k_max=k_max)

    @pytest.mark.parametrize("k_max", [2.5, 4.0, True, "4", None])
    def test_k_max_must_be_an_integer(self, k_max):
        # 2.5 raised a TypeError from range()
        with pytest.raises(ValueError, match="k_max"):
            discrete_grand_norm_P6(constant_grid(1.0, (2, 2)),
                                   Exponents((2, 2), (2, 2)), (0.5, 0.5), k_max=k_max)
        f = constant_grid(1.0, (2, 2))
        assert discrete_grand_norm_P6(f, Exponents((2, 2), (2, 2)), (0.5, 0.5),
                                      k_max=np.int64(4)) == \
            discrete_grand_norm_P6(f, Exponents((2, 2), (2, 2)), (0.5, 0.5), k_max=4)

    def test_monotone_in_smoothness(self, rng):
        f = DyadicStep2D((4, 4), rng.random((16, 16)))
        e = Exponents((2, 2), (2, 2))
        lo = discrete_grand_norm_P6(f, e, (0.25, 0.25))
        hi = discrete_grand_norm_P6(f, e, (0.75, 0.75))
        assert hi <= lo * (1 + 1e-12)

    def test_equivalence_bracket_with_grand_norm(self):
        C = calibration()["p6_equiv_C"]
        e = Exponents((2, 2), (2, 2))
        theta = (0.5, 0.5)
        for f in random_grids(15, (5, 5), seed=88):
            p6 = discrete_grand_norm_P6(f, e, theta)
            g = grand_lorentz_norm(f, e, GrandParams(theta)).value
            assert g / C <= p6 <= C * g


class TestNormRequestSurface:
    def test_lorentz_request(self):
        res = evaluate_norm_request(
            {"norm": "lorentz", "p": [2, 2], "q": [1, 1]},
            constant_grid(1.0, (3, 3)))
        assert res["value"] == pytest.approx(4.0)
        assert res["approx_direction"] == "exact"

    def test_grand_request_metadata(self):
        res = evaluate_norm_request(
            {"norm": "grand", "p": ["inf", "inf"], "q": [1, 1],
             "theta": [2.0, 2.0], "epsJ": 12},
            constant_grid(1.0, (2, 2)))
        assert res["approx_direction"] == "under"
        assert len(res["argmax_eps"]) == 2

    def test_seq_grand_request(self, rng):
        res = evaluate_norm_request(
            {"norm": "seq_grand", "p": [2, 2], "q": [2, 2],
             "theta": [1, 1], "sign": "minus"},
            Sequence2D(rng.random((4, 4))))
        assert res["value"] > 0

    @pytest.mark.parametrize("kind", ["lorentz", "grand", "mixed", "logweight", "p6"])
    def test_grid_kinds_reject_sequence(self, kind):
        with pytest.raises(TypeError):
            evaluate_norm_request(
                {"norm": kind, "theta": [0.5, 0.5]}, Sequence2D(np.ones((2, 2))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            evaluate_norm_request({"norm": "sobolev"}, constant_grid(1.0))

    @pytest.mark.parametrize("req", [
        {"norm": "lorentz", "p": [2]}, {"norm": "lorentz", "p": [2, 2, 2]},
        {"norm": "lorentz", "p": "22"}, {"norm": "lorentz", "q": 2},
        {"norm": "lorentz", "q": [2, None]}, {"norm": "grand", "theta": [0.5]},
        {"norm": "grand", "theta": "55"}, {"p": [2, 2]}])
    def test_malformed_requests_rejected(self, req):
        with pytest.raises(ValueError):
            evaluate_norm_request(req, constant_grid(1.0, (2, 2)))

    def test_pairs_are_lists_or_tuples_of_two(self):
        f = constant_grid(1.0, (2, 2))
        got = evaluate_norm_request({"norm": "lorentz", "p": ("Infinity", 2),
                                     "q": ["inf", "2"]}, f)
        assert got == evaluate_norm_request({"norm": "lorentz", "p": [INF, 2.0],
                                             "q": (INF, 2.0)}, f)

    @pytest.mark.parametrize("depth", [2.7, None, "3", True, INF, float("nan"),
                                       1075, 1075.0, -1, 10**9])
    def test_depth_must_be_an_integer(self, depth):
        # 2.7 was read as a depth of 2, None raised TypeError; the bound was
        # checked by GrandParams only, whose error named eps_levels
        with pytest.raises(ValueError, match=r"^epsJ must be an integer >= 0 "
                                             r"and <= 1074, got"):
            evaluate_norm_request({"norm": "grand", "theta": [0.5, 0.5],
                                   "epsJ": depth}, constant_grid(1.0, (2, 2)))

    @pytest.mark.parametrize("theta, depth", [((-43, -43), 24), ((-0.5, -0.5), 1030),
                                              ((-0.5, -0.5), 1074)])
    def test_inf_form_weights_past_the_float_range(self, theta, depth):
        # eps^theta past the float range read inf, and 0 * inf gave nan with
        # overflow and invalid-value warnings (errors here): a zero grid
        # reads 0, and a weight that overflows never wins the minimum
        req = {"norm": "grand", "theta": list(theta), "epsJ": depth}
        assert evaluate_norm_request(req, constant_grid(0.0, (2, 2)))["value"] == 0.0
        got = evaluate_norm_request(req, constant_grid(1.0, (2, 2)))
        want = 1.197262141301476e+52 if theta == (-43, -43) else 8.000000000000002
        assert (got["value"], got["argmax_eps"]) == (want, [0.25, 0.25])

    def test_integral_depths_are_read(self):
        f = constant_grid(1.0, (2, 2))
        req = {"norm": "grand", "theta": [0.5, 0.5]}
        assert evaluate_norm_request({**req, "epsJ": 3.0}, f) == \
            evaluate_norm_request({**req, "epsJ": np.int64(3)}, f) == \
            evaluate_norm_request({**req, "epsJ": 3}, f)

    @pytest.mark.parametrize("req", [["norm", "lorentz"], "lorentz", None, 3])
    def test_request_must_be_an_object(self, req):
        # a list raised AttributeError
        with pytest.raises(ValueError, match="object"):
            evaluate_norm_request(req, constant_grid(1.0, (2, 2)))

    @pytest.mark.parametrize("kind", ["p6", "logweight", "mixed"])
    def test_other_kinds_dispatch(self, kind):
        f = indicator_grid(0.5, 0.5, (2, 2))
        res = evaluate_norm_request(
            {"norm": kind, "p": [2, 2], "q": [2, 2], "theta": [0.5, 0.5]}, f)
        assert np.isfinite(res["value"])


def test_exponents_validation_and_conjugates():
    e = Exponents((2, 4), (1, INF))
    assert e.conjugate(0) == 2.0
    assert e.conjugate(1) == pytest.approx(4 / 3)
    assert Exponents((1, 1), (1, 1)).conjugate(0) == INF
    with pytest.raises(ValueError):
        Exponents((0, 2), (1, 1))
    with pytest.raises(ValueError):
        Exponents((0.5, 2), (1, 1)).conjugate(0)


class TestMonotoneInMagnitudes:
    """Every norm operation grows pointwise with |f|."""

    def _pair(self, seed=911):
        r = np.random.default_rng(seed)
        v = r.random((8, 8))
        v[-1, :] = 0.0
        v[:, -1] = 0.0
        lo = DyadicStep2D((3, 3), v)
        hi = DyadicStep2D((3, 3), v + 0.5 * r.random((8, 8)) * (v > 0))
        return lo, hi

    def test_mixed_and_lorentz(self):
        lo, hi = self._pair()
        assert mixed_lebesgue_norm(lo, (2, 1)) <= mixed_lebesgue_norm(hi, (2, 1))
        e = Exponents((2, 2), (1.5, 3))
        assert lorentz_norm(lo, e) <= lorentz_norm(hi, e)

    def test_grand_both_signs(self):
        lo, hi = self._pair()
        e = Exponents((2, 2), (2, 2))
        for th in ((0.5, 0.5), (-0.5, -0.5)):
            a = grand_lorentz_norm(lo, e, GrandParams(th)).value
            b = grand_lorentz_norm(hi, e, GrandParams(th)).value
            assert a <= b * (1 + 1e-12)

    def test_logweight_and_p6(self):
        lo, hi = self._pair()
        assert logweight_sup_norm(lo, (2, 2), (0.5, 0.5)) <= \
            logweight_sup_norm(hi, (2, 2), (0.5, 0.5))
        e = Exponents((2, 2), (2, 2))
        assert discrete_grand_norm_P6(lo, e, (0.5, 0.5)) <= \
            discrete_grand_norm_P6(hi, e, (0.5, 0.5)) * (1 + 1e-12)

    def test_grand_seq(self):
        r = np.random.default_rng(912)
        m = r.random((6, 6))
        e = Exponents((2, 2), (2, 2))
        gp = GrandParams((0.5, 0.5))
        a = grand_seq_norm(Sequence2D(m), e, gp, sign="minus").value
        b = grand_seq_norm(Sequence2D(m + 0.2), e, gp, sign="minus").value
        assert a <= b


# The nested stages at large q and at extreme magnitudes: ``v**q * w`` alone
# would leave the double range although the norm is finite.


def test_lorentz_large_q_no_overflow():
    e = Exponents((2, 2), (600, 600))
    got = lorentz_norm(constant_grid(4.0, (3, 3)), e)
    assert got == pytest.approx(4.0 * lorentz_norm(constant_grid(1.0, (3, 3)), e),
                                rel=1e-12)
    assert got == pytest.approx(3.9247, abs=1e-4)


def test_lorentz_small_values_large_q_no_underflow():
    e = Exponents((2, 2), (200, 200))
    assert lorentz_norm(constant_grid(1e-3, (3, 3)), e) == pytest.approx(
        1e-3 * lorentz_norm(constant_grid(1.0, (3, 3)), e), rel=1e-12)


def test_seq_block_large_q_no_overflow():
    # at p = (4/3, 4/3) the weights decay (nu = -1/4), so the norm is finite;
    # it decreases in q to the sup form, which is already reached at q = 200
    a = Sequence2D(np.ones((4, 4)))
    p = (4 / 3, 4 / 3)
    assert seq_block_lorentz_norm(a, p, (INF, INF)) == pytest.approx(2.0, rel=1e-15)
    assert seq_block_lorentz_norm(a, p, (2000, 2000)) == pytest.approx(2.0, rel=1e-12)


def test_qsum_zero_and_divergent_terms():
    assert _qsum(np.array([3.0, 4.0]), 1.0, 2.0) == 5.0
    assert _qsum(np.array([3.0, 4.0]), 1.0, INF) == 4.0
    # a zero base meets an infinite weight: the term is 0
    assert _qsum(np.array([0.0, 3.0]), np.array([INF, 1.0]), 2.0) == 3.0
    zeros = _qsum(np.zeros((2, 3)), np.array([INF, 1.0, 1.0]), 2.0)
    assert zeros.tolist() == [0.0, 0.0]
    # a positive base whose scaled power underflows still diverges
    assert _qsum(np.array([1e-200, 1.0]), np.array([INF, 1.0]), 2.0) == INF
    assert _qsum(np.array([[1.0, INF], [0.0, 2.0]]), 1.0, 2.0).tolist() == [INF, 2.0]


def test_seq_block_geometric_tail_near_one():
    # single entry: per axis sum_k 2^{nu k} = 1 / (1 - 2^nu), summed in closed
    # form; 1 - 2^nu by subtraction loses digits as nu -> 0
    a = Sequence2D(np.array([[1.0]]))
    for nu_target in (-1e-8, -1e-3):
        p = 1.0 / (0.5 - nu_target)
        nu = 1.0 / Exponents((p, p), (1, 1)).conjugate(0) - 0.5
        want = (-math.expm1(nu * math.log(2.0))) ** -2
        assert seq_block_lorentz_norm(a, (p, p), (1, 1)) == pytest.approx(
            want, rel=1e-14, abs=0)


def _homogeneous_norms(q, J):
    """Every nested norm at outer exponents ``q``, as a function of a grid
    (the sequence norms read its values as a sequence)."""
    e = Exponents((2, 1.5), q)

    def seq(f):
        return Sequence2D(np.asarray(f.values))

    return {
        "mixed": lambda f: mixed_lebesgue_norm(f, q),
        "lorentz": lambda f: lorentz_norm(f, e),
        "grand_sup": lambda f: grand_lorentz_norm(
            f, e, GrandParams((0.5, 0.25), eps_levels=6)).value,
        "grand_inf": lambda f: grand_lorentz_norm(
            f, e, GrandParams((-0.5, -1.0), eps_levels=6)).value,
        "seq_block": lambda f: seq_block_lorentz_norm(seq(f), (4 / 3, 4 / 3), q),
        "grand_seq": lambda f: grand_seq_norm(
            seq(f), Exponents((2, 4), q), GrandParams((0.5, 0.5), eps_levels=6),
            sign="minus").value,
        "interp": lambda f: interp_norm(f, (0.4, 0.7), q, J=J),
        "p6": lambda f: discrete_grand_norm_P6(f, e, (0.5, 0.5), k_max=8),
    }


_grids = st.builds(
    lambda n1, n2, seed: DyadicStep2D(
        (n1, n2), np.random.default_rng(seed).random((2**n2, 2**n1))),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
_qs = st.floats(min_value=0.5, max_value=1e4)


@settings(max_examples=25, deadline=None)
@given(_grids, st.integers(-330, 330), _qs, _qs, st.integers(4, 6))
def test_norms_homogeneous_at_any_q_and_scale(f, k, q1, q2, J):
    # c = 2^k scales every value exactly, so N(c f) = c N(f) up to rounding
    c = 2.0**k
    cf = DyadicStep2D(f.levels, c * np.asarray(f.values))
    for name, norm in _homogeneous_norms((q1, q2), J).items():
        want = c * norm(f)
        assert np.isfinite(want), name
        assert norm(cf) == pytest.approx(want, rel=1e-12, abs=0), name


@settings(max_examples=15, deadline=None)
@given(_grids)
def test_large_q_approaches_sup_form(f):
    big, sup = (1e4, 1e4), (INF, INF)
    a = Sequence2D(np.asarray(f.values))
    for norm in (lambda q: lorentz_norm(f, Exponents((2, 1.5), q)),
                 lambda q: seq_block_lorentz_norm(a, (4 / 3, 4 / 3), q),
                 lambda q: interp_norm(f, (0.4, 0.7), q, J=5)):
        assert norm(big) == pytest.approx(norm(sup), rel=1e-2)


@pytest.mark.parametrize("q", [1.0, 2.0, INF])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_power_cells_rows_are_one_exponent_calls(n, q):
    # each weight row of an exponent axis has the bits of a one-exponent
    # call: elementwise pow over an exponent array was 1 ulp off on some
    # cells, so an epsilon surface's eps = 0 point missed the plain norm
    a = np.concatenate([0.5 - np.geomspace(0.5, 1e-6, 24), [0.5], [-0.25, 0.0]])
    sup, omega = _power_cells(a, n, 1.0 / n, q)
    for i, ai in enumerate(a):
        one = _power_cells(np.array([ai]), n, 1.0 / n, q)
        assert same_bits(sup[i], one[0][0]) and same_bits(omega[i], one[1][0])


@pytest.mark.parametrize("c", [1e-300, 1e-310, 1e-320])
def test_power_cells_at_tiny_exponents(c):
    # omega = (1 - (j/(j+1))^c) / c tends to -log(j/(j+1)) as c -> 0; the
    # first cell's 1/c may overflow, and must do so without a warning
    sup, omega = _power_cells(np.array([c]), 4, 0.25, 1.0)
    j = np.arange(1, 4)
    assert np.all(sup == 1.0)
    assert omega[0, 0] == (INF if c < 1e-308 else pytest.approx(1.0 / c))
    assert omega[0, 1:] == pytest.approx(-np.log(j / (j + 1)), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# grand norms as an epsilon surface plus a theta pick, against the per-theta
# forms they replace (kept here as the reference)


def _ref_eps_axes(gp, caps):
    return [np.concatenate([_eps_grid(gp.eps_levels, cap), [0.0]]) if t == 0
            else _eps_grid(gp.eps_levels, cap) for t, cap in zip(gp.theta, caps)]


def _ref_pick(axes, vals, gp):
    e1, e2 = axes
    obj = vals * np.outer(e1 ** gp.theta[0], e2 ** gp.theta[1])
    pick = np.argmax if gp.sup_form else np.argmin
    i, j = np.unravel_index(pick(obj), obj.shape)
    return GrandNormResult(float(obj[i, j]), (float(e1[i]), float(e2[j])),
                           "under" if gp.sup_form else "over")


def _ref_grand_lorentz_of(g, widths, e, gp):
    if gp.theta == (0.0, 0.0):
        return GrandNormResult(_lorentz_of(g, widths, e), (0.0, 0.0), "exact")
    base = [1.0 / pi for pi in e.p]
    if gp.sup_form:
        axes, s = _ref_eps_axes(gp, (1.0, 1.0)), 1.0
    else:
        axes, s = _ref_eps_axes(gp, base), -1.0
    vals = _lorentz_core_batch(g, *widths, base[0] + s * axes[0],
                               base[1] + s * axes[1], e.q[0], e.q[1])
    return _ref_pick(axes, vals, gp)


def _ref_grand_seq_of(sqrtS, e, gp, sign):
    base = [1.0 / pi for pi in e.p]
    s = 1.0 if sign == "plus" else -1.0
    e1, e2 = axes = _ref_eps_axes(gp, (1.0, 1.0))
    vals = _seq_block_core(sqrtS, base[0] + s * e1 - 0.5, base[1] + s * e2 - 0.5,
                           e.q[0], e.q[1])
    return _ref_pick(axes, vals, gp)


def _ref_te4_lhs_of(sqrtS, e, gp):
    betas = beta_from_q(e.q)
    lam = (gp.theta[0] + betas[0], gp.theta[1] + betas[1])
    return _ref_grand_seq_of(sqrtS, e, GrandParams(lam, eps_levels=gp.eps_levels),
                             "minus")


def _same(got, want):
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.eps == want.eps and got.direction == want.direction


_SUP_THETAS = [(0.0, 0.0), (0.0, 0.5), (0.75, 0.0), (0.25, 0.25), (1.0, 0.5)]
_SURFACE_QS = [(1, 1), (2, INF), (INF, INF), (4, 1.5)]


@pytest.mark.parametrize("J", [0, 3, 24])
def test_grand_lorentz_surface_pick_matches_per_theta_reference(J):
    thetas = _SUP_THETAS + [(-0.5, -0.5), (-0.25, -1.0)]
    for f in random_grids(3, (3, 2), seed=41):
        g = np.asarray(iterated_rearrange_2d(f).values)
        for q in _SURFACE_QS:
            e = Exponents((2, 1.5), q)
            for th in thetas:
                gp = GrandParams(th, eps_levels=J)
                _same(grand_lorentz_norm(f, e, gp),
                      _ref_grand_lorentz_of(g, f.widths, e, gp))


@pytest.mark.parametrize("J", [0, 3, 24])
def test_grand_seq_and_te4_surface_pick_match_per_theta_reference(J):
    rng = np.random.default_rng(43)
    for shape in ((1, 1), (5, 8), (16, 3)):
        a = Sequence2D(rng.random(shape) * (rng.random(shape) < 0.6))
        sqrtS = a._sqrt_table
        cm = CoeffMatrix(WALSH, WALSH, a.entries)
        for q in _SURFACE_QS:
            for th in _SUP_THETAS:
                gp = GrandParams(th, eps_levels=J)
                for p in ((2, 2), (4, 1.5)):
                    for sign in ("plus", "minus"):
                        e = Exponents(p, q)
                        _same(grand_seq_norm(a, e, gp, sign=sign),
                              _ref_grand_seq_of(sqrtS, e, gp, sign))
                e = Exponents((2, 2), q)
                _same(te4_lhs(cm, e, gp), _ref_te4_lhs_of(sqrtS, e, gp))


def _block_table(m: np.ndarray) -> np.ndarray:
    """The block tables of magnitudes ``m[..., i1, i2]`` on the block that
    holds their support, as every owner of block tables builds them."""
    return _support_table(_rearranged_support(m))


def _block_cumsum(a: Sequence2D) -> np.ndarray:
    """The full block table of ``a``, the reference for the support block
    that :func:`_block_table` builds."""
    r = np.asarray(iterated_rearrange_seq(a).entries)
    return np.cumsum(np.cumsum(r**2, axis=0), axis=1)


class TestSupportBlockTables:
    """The block table is built on the support of the rearranged magnitudes
    only; read at the clamped indices it is the full table, bit for bit,
    and so are the left sides that read it."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(29)
        one = np.zeros((16, 8))
        one[5, 3] = 0.75
        sparse = rng.random((16, 8)) * (rng.random((16, 8)) < 0.1)
        mats = [np.zeros((16, 8)), one, sparse, rng.random((16, 8)),
                rng.random((8, 8)) * 1e150, rng.random((1, 8)), rng.random((16, 1)),
                np.zeros((1, 1))]
        for seed in (7, 3):
            mats += [np.abs(a.entries) for a, _ in generate_lacunary_pairs((9, 9), 20, seed)]
        return mats

    @staticmethod
    def _clamped(S, dims):
        i1 = np.minimum(np.arange(dims[0]), S.shape[-2] - 1)
        i2 = np.minimum(np.arange(dims[1]), S.shape[-1] - 1)
        return S[..., i1[:, None], i2]

    def test_table_is_the_full_table(self):
        for m in self._matrices():
            S = _block_table(m)
            assert np.array_equal(self._clamped(S, m.shape), _block_cumsum(Sequence2D(m)))

    def test_block_holds_the_support_only(self):
        shapes = [_block_table(m).shape for m in self._matrices()]
        assert shapes[:2] == [(1, 1), (1, 1)]  # all zero; one nonzero
        assert shapes[3] == (16, 8)  # dense
        # a planted pair: nine nonzeros on the diagonal of a 512 x 512 matrix
        assert set(shapes[8:]) == {(9, 1)}

    def test_stack_is_each_items_table(self):
        mats = [m for m in self._matrices() if m.shape == (16, 8)]
        S = _block_table(np.stack(mats))
        for k, m in enumerate(mats):
            assert np.array_equal(self._clamped(S[k], m.shape),
                                  _block_cumsum(Sequence2D(m)))

    @pytest.mark.parametrize("q", [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (INF, INF),
                                   (2.0, INF)])
    def test_left_sides_read_the_block(self, q):
        for m in self._matrices():
            small, full = _block_table(m), _block_cumsum(Sequence2D(m))
            assert _bochkarev_of(small, q, m.shape).tobytes() == \
                _bochkarev_of(full, q, m.shape).tobytes()
            T = _dyadic_sqrt(small, m.shape)
            assert T.tobytes() == _dyadic_sqrt(full, m.shape).tobytes()
            assert _block_sup_of(T, q).tobytes() == \
                _block_sup_of(_dyadic_sqrt(full, m.shape), q).tobytes()


# a 3x3 theta grid: the theta_1 values and the theta_2 values
THETA_GRID = ((0.2, 0.4, 0.8), (0.3, 0.5, 0.7))


def _layouts(x):
    """The values of ``x`` C-ordered, Fortran-ordered and as a view with
    its last two axes' strides swapped."""
    return [np.ascontiguousarray(x), np.asfortranarray(x),
            np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)]


@pytest.mark.parametrize("q", [0.5, 1, 2, 4, INF])
def test_cores_do_not_depend_on_memory_layout(q):
    # every stage sums C ordered copies of the value rows, so the same
    # values give the same bits in any layout
    rng = np.random.default_rng(31)
    eps = _eps_grid(24, 0.5)
    for g in (rng.random((16, 16)), rng.random((3, 16, 16)) * rng.random((3, 16, 1))):
        args = (1 / 16, 1 / 16, 0.5 + eps, 0.5 - eps[:5], q, 2.0)
        want = _lorentz_core_batch(g, *args).tobytes()
        for x in _layouts(g):
            assert _lorentz_core_batch(x, *args).tobytes() == want
    for t in (rng.random((10, 10)), rng.random((3, 10, 7))):
        args = (-0.25 - eps, 0.125 - eps[:5], q, 3.0)
        want = _seq_block_core(t, *args).tobytes()
        for x in _layouts(t):
            assert _seq_block_core(x, *args).tobytes() == want
    for K in (rng.random((11, 11)), rng.random((3, 11, 11))):
        want = _interp_of(K, THETA_GRID, (q, 2.0), 10).tobytes()
        for x in _layouts(K):
            assert _interp_of(x, THETA_GRID, (q, 2.0), 10).tobytes() == want


def test_grid_reads_do_not_depend_on_memory_layout():
    # the rearranged values are C ordered whatever the layout of the grid's
    # values, so Khat's matrix-vector products, too, give the same bits
    v = np.random.default_rng(32).random((64, 32))
    v[-1] = v[:, -1] = 0.0
    ts = 2.0 ** np.arange(-6, 1)
    want = None
    for x in _layouts(v):
        f = DyadicStep2D((5, 6), x)
        assert f.rearranged.flags.c_contiguous
        got = [khat_grid(f, ts, ts), interp_norm(f, (0.5, 0.5), (2.0, 2.0)),
               lorentz_norm(f, Exponents((2, 3), (1.5, 2.0))),
               logweight_sup_norm(f, (2, 2), (0.5, 0.5))]
        want = want or got
        assert all(same_bits(a, b) for a, b in zip(got, want))


class TestStackedCoresMatchPerItem:
    """A stack of same-shape items on leading axes gives, item by item, the
    bits of the item's own call; every stack holds an all-zero item."""

    QS = [0.5, 1, 2, 4, INF]

    @staticmethod
    def _same_per_item(got, fn, stack, *args):
        assert got.shape[:stack.ndim - 2] == stack.shape[:-2]
        for k in np.ndindex(stack.shape[:-2]):
            assert got[k].tobytes() == fn(stack[k], *args).tobytes(), k

    @staticmethod
    def _grids(shape=(8, 4)):
        g = np.sort(np.random.default_rng(17).random((5,) + shape), axis=-1)[..., ::-1]
        g[2] = 0.0
        g[3] *= 1e-200
        return g

    @staticmethod
    def _tables():
        rng = np.random.default_rng(19)
        tables = []
        for m in (rng.random((12, 5)), np.zeros((12, 5)), rng.random((12, 5)) * 1e150,
                  rng.random((12, 5)) * (rng.random((12, 5)) < 0.3)):
            tables.append(_block_cumsum(Sequence2D(m)))
        return np.stack(tables)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_lorentz_core_batch(self, q, sign):
        eps = _eps_grid(24, 0.5)
        args = (0.125, 0.25, 0.5 + sign * eps, 0.5 + sign * eps[:7], q, 2.0)
        for g in (self._grids(), self._grids().reshape(5, 1, 8, 4)):
            self._same_per_item(_lorentz_core_batch(g, *args),
                                _lorentz_core_batch, g, *args)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_seq_block_core(self, q, sign):
        eps = _eps_grid(24, 1.0)
        args = (0.5 + sign * eps - 0.5, 0.25 + sign * eps[3:] - 0.5, q, 4.0)
        t = _dyadic_sqrt(self._tables(), (12, 5))
        self._same_per_item(_seq_block_core(t, *args), _seq_block_core, t, *args)

    def test_dyadic_sqrt(self):
        S = self._tables()
        self._same_per_item(_dyadic_sqrt(S, (12, 5)), _dyadic_sqrt, S, (12, 5))

    @pytest.mark.parametrize("q", QS)
    def test_bochkarev_and_block_sup(self, q):
        S = self._tables()
        T = _dyadic_sqrt(S, (12, 5))
        if q < 2:  # both suprema are +inf there, and both forms raise
            with pytest.raises(ValueError):
                _bochkarev_of(S, (q, 2.0), (12, 5))
            with pytest.raises(ValueError):
                _block_sup_of(T, (q, 4.0))
            return
        self._same_per_item(_bochkarev_of(S, (q, 2.0), (12, 5)), _bochkarev_of,
                            S, (q, 2.0), (12, 5))
        self._same_per_item(_block_sup_of(T, (q, 4.0)), _block_sup_of, T, (q, 4.0))

    @pytest.mark.parametrize("theta", [(0.5, 0.25), (0.0, 0.5), (0.0, 0.0),
                                       (-0.5, -1.0), (-0.25, -0.25)])
    def test_grand_pick(self, theta):
        gp = GrandParams(theta, eps_levels=6)
        axes = _ref_eps_axes(gp, (1.0, 0.5))
        rng = np.random.default_rng(23)
        vals = rng.random((4, len(axes[0]), len(axes[1])))
        vals[1] = 0.0
        vals[2] = 1.0  # ties everywhere: the first grid point wins
        value, eps = _grand_pick(axes, vals, gp)
        assert value.shape == (4,) and eps.shape == (4, 2)
        for k in range(4):
            want = _ref_pick(axes, vals[k], gp)
            assert value[k].tobytes() == np.float64(want.value).tobytes()
            assert tuple(eps[k]) == want.eps


# ---------------------------------------------------------------------------
# one weighted stage: every nested norm as weight rows for _nested, against
# the stage code it replaced (kept here as the reference)


def _ref_qsum(base, omega, q):
    M = base.max(axis=-1, keepdims=True)
    if q == INF:
        return M[..., 0]
    with np.errstate(invalid="ignore", over="ignore"):
        t = base / M
        t **= q
        t *= omega
        t[base == 0] = 0.0
        out = M[..., 0] * t.sum(axis=-1) ** (1.0 / q)
    return np.where(np.isnan(out), INF, out)


def _ref_block_stage(vals, nus, q):
    n = vals.shape[-1]
    vals = np.concatenate([vals, vals[..., -1:]], axis=-1)[..., None, :, :]
    u = 2.0 ** (nus[:, None] * np.arange(n + 1))
    base = u[:, None, :] * vals
    if q == INF:
        base[..., n][(nus[:, None] > 0) & (vals[..., n] > 0)] = INF
        return _ref_qsum(base, 1.0, q)
    omega = np.ones((len(nus), 1, n + 1))
    with np.errstate(divide="ignore", over="ignore"):
        omega[:, 0, n] = np.where(nus < 0, -1.0 / np.expm1(nus * q * math.log(2.0)), INF)
    return _ref_qsum(base, omega, q)


def _ref_seq_block_core(sqrtS, nu1s, nu2s, q1, q2):
    inner = _ref_block_stage(sqrtS.swapaxes(-1, -2), nu1s, q1)
    return _ref_block_stage(inner, nu2s, q2).swapaxes(-1, -2)


def _ref_lorentz_core_batch(g, h1, h2, a1s, a2s, q1, q2):
    r2, r1 = g.shape[-2:]
    sup1, w1 = _power_cells(a1s, r1, h1, q1)
    sup2, w2 = _power_cells(a2s, r2, h2, q2)
    g = g[..., None, :, :]
    out = np.empty(g.shape[:-3] + (len(sup1), len(sup2)))
    rows = max(1, 2**18 // (g.size // r1 * max(r1, len(sup2))))
    for i in range(0, len(sup1), rows):
        blk = slice(i, i + rows)
        inner = _ref_qsum(g * sup1[blk, None, :], w1[blk, None, :], q1)
        out[..., blk, :] = _ref_qsum(inner[..., None, :] * sup2, w2, q2)
    return out


def _ref_weighted_step_q(vals, h, e, q):
    sup, omega = _power_cells(np.array([e]), len(vals), h, q)
    with np.errstate(invalid="ignore"):
        base = np.where(vals > 0, vals * sup, 0.0)
    return float(_ref_qsum(base, omega, q)[0])


def _ref_interp_of(K, theta, q, J):
    ts = 2.0 ** np.arange(-J, 1)
    out = K.swapaxes(-1, -2)
    for th, qq in zip(theta, q):
        omega = np.full(len(ts), -np.expm1(-th * qq * math.log(2.0)) / (th * qq))
        omega[-1] = 1.0 / (th * qq)
        omega[0] += 1.0 / ((1.0 - th) * qq)
        out = _ref_qsum(out * ts**-th, omega, qq)
    return out


def _assert_matches_replaced(got, want, exact):
    """The comparison with the replaced stages: entries that are 0 or inf on
    either side are equal, and so is every entry when ``exact`` (both stages
    at q = inf, or the first one on the blocked path throughout); the
    separable stage sums in another order, so the other entries agree to
    rel 1e-14."""
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
        return
    edge = (got == 0) | (want == 0) | np.isinf(got) | np.isinf(want)
    assert np.array_equal(got[edge], want[edge])
    assert np.allclose(got[~edge], want[~edge], rtol=1e-14, atol=0)


class TestNestedMatchesReplacedStages:
    """``_lorentz_core_batch`` and ``_seq_block_core`` are one ``_nested``
    call each and match the stages they replaced (see
    :func:`_assert_matches_replaced`), on stacks holding an all-zero item.
    The tables have at least two columns: the replaced block stage copied a
    single column into a contiguous row, which numpy sums pairwise, where
    the padded table is summed in order, so there the two differ in the last
    bit even at q = inf."""

    QS = [0.5, 1, 2, 4, INF]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_seq_block_core(self, q, sign):
        eps = _eps_grid(24, 1.0)
        nu1s, nu2s = 0.5 + sign * eps - 0.5, 0.25 + sign * eps[3:] - 0.5
        rng = np.random.default_rng(29)
        for shape in ((5, 4), (1, 2), (10, 10), (3, 7)):
            m = rng.random((4,) + shape) * (rng.random((4,) + shape) < 0.6)
            m[1] = 0.0
            m[2] *= 1e150
            t = np.sqrt(np.cumsum(np.cumsum(m, axis=-2), axis=-1))
            for qq in ((q, 4.0), (q, q), (2.0, q)):
                # nu1 >= 0: every first-stage row has an infinite tail weight
                exact = qq == (INF, INF) or (nu1s >= 0).all()
                for tab in (t, t[0]):
                    _assert_matches_replaced(_seq_block_core(tab, nu1s, nu2s, *qq),
                                             _ref_seq_block_core(tab, nu1s, nu2s, *qq),
                                             exact)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_lorentz_core_batch(self, q, sign):
        eps = _eps_grid(24, 0.5)
        g = TestStackedCoresMatchPerItem._grids()
        for qq in ((q, 2.0), (q, q), (1.0, q)):
            args = (0.125, 0.25, 0.5 + sign * eps, 0.5 + sign * eps[:7], *qq)
            for stack in (g, g[2], g.reshape(5, 1, 8, 4)):
                _assert_matches_replaced(_lorentz_core_batch(stack, *args),
                                         _ref_lorentz_core_batch(stack, *args),
                                         qq == (INF, INF))

    @pytest.mark.parametrize("q", [2.0, INF])
    def test_zero_saturation_with_diverging_tail(self, q):
        # nu > 0: the saturated tail's weight is infinite, and a zero
        # saturated value contributes 0 (the warnings gate is an error)
        nus = np.array([0.5, 0.0, -0.5])
        assert np.array_equal(_seq_block_core(np.zeros((4, 3)), nus, nus, q, q),
                              np.zeros((3, 3)))
        t = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0]])
        nu1, nu2 = np.array([-0.5]), np.array([0.5])
        got = _seq_block_core(t, nu1, nu2, q, q)
        assert np.isfinite(got).all()
        _assert_matches_replaced(got, _ref_seq_block_core(t, nu1, nu2, q, q), q == INF)

    @pytest.mark.parametrize("q", [2.0, INF])
    def test_zero_value_under_infinite_sup(self, q):
        sup, omega = np.array([[INF, 2.0]]), np.ones((1, 2))
        assert _stage(np.array([[0.0, 1.0]]), sup, omega, q)[0, 0] == 2.0
        assert _stage(np.zeros((1, 2)), sup, omega, q)[0, 0] == 0.0
        assert _stage(np.array([[1e-300, 1.0]]), sup, omega, q)[0, 0] == INF

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0, INF])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_hardy_right_sides_with_a_zero_first_cell(self, q, r):
        prof = DyadicStep1D(3, np.array([0.0, 1.0, 0.75, 0.5, 0.5, 0.25, 0.0, 0.0]))
        v = np.asarray(prof.values)
        for alpha in (0.25, 1.0, 2.0):
            # 1/r - alpha < 0 for alpha > 1/r: the first cell's sup is inf
            assert hardy_descent_rhs(prof, q, r, alpha) == \
                _ref_weighted_step_q(v, prof.width, 1.0 / r - alpha, q)
            assert hardy_ascent_rhs(prof, q, r, -alpha) == \
                _ref_weighted_step_q(v, prof.width, 1.0 / r - alpha, q)
            assert hardy_ascent_rhs(prof, q, r, alpha) == \
                _ref_weighted_step_q(v, prof.width, alpha + 1.0 / r, q)

    @pytest.mark.parametrize("q", [(1, 1), (2, 4), (4, 4), (INF, INF), (2, INF)])
    def test_interp_stack_is_per_item_and_the_replaced_stages(self, q):
        J = 6
        ts = 2.0 ** np.arange(-J, 1)
        fs = random_grids(4, (3, 3), seed=31)
        fs[1] = constant_grid(0.0, (3, 3))
        K = np.stack([khat_grid(f, ts, ts) for f in fs])
        got = _interp_of(K, THETA_GRID, q, J)
        assert got.shape == (4, 3, 3) and (got[1] == 0.0).all()
        for k in range(4):
            assert got[k].tobytes() == _interp_of(K[k], THETA_GRID, q, J).tobytes()
            for (i, th1), (j, th2) in itertools.product(*map(enumerate, THETA_GRID)):
                theta = (th1, th2)
                # each entry is its one-point norm, bit for bit
                assert got[k, i, j].tobytes() == \
                    np.float64(interp_norm(fs[k], theta, q, J)).tobytes()
                want = float(_ref_interp_of(K[k], theta, q, J))
                assert got[k, i, j] == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("q", [(1, 1), (2, 4), (4.0, 4.0), (INF, INF), (2, INF),
                                   (INF, 1.5)])
    def test_seq_block_grid_entries_are_the_one_point_norms(self, q):
        r = np.random.default_rng(43)
        ms = [r.random((8, 8)) * (r.random((8, 8)) < 0.7) for _ in range(4)]
        ms[2][:] = 0.0
        seqs = [Sequence2D(m) for m in ms]
        coeffs = [CoeffMatrix(WALSH, WALSH, m * (-1) ** k) for k, m in enumerate(ms)]
        ps = ((1.0, 4 / 3, 2.0), (1.25, 1.5, INF))
        got = _seq_block_lorentz_of(np.stack([a._sqrt_table for a in seqs]), ps, q)
        assert got.shape == (4, 3, 3) and (got[2] == 0.0).all()
        for k in range(4):
            assert got[k].tobytes() == _seq_block_lorentz_of(
                seqs[k]._sqrt_table, ps, q).tobytes()
            for (i, p1), (j, p2) in itertools.product(*map(enumerate, ps)):
                for one in (seq_block_lorentz_norm(seqs[k], (p1, p2), q),
                            te3_lhs(coeffs[k], (p1, p2), q)):
                    assert got[k, i, j].tobytes() == np.float64(one).tobytes()

    def test_logweight_stack_is_per_item(self):
        fs = random_grids(4, (3, 2), seed=37)
        fs[2] = constant_grid(0.0, (3, 2))
        fs = [DyadicStep2D(f.levels, np.pad(np.asarray(f.values)[:-1, :-1], ((0, 1), (0, 1))))
              for f in fs]
        g = np.stack([np.asarray(iterated_rearrange_2d(f).values) for f in fs])
        got = _logweight_of(g, fs[0].widths, (2, 1.5), (0.5, 1.0))
        assert got.shape == (4,) and got[2] == 0.0
        for k, f in enumerate(fs):
            assert float(got[k]) == logweight_sup_norm(f, (2, 1.5), (0.5, 1.0))


class TestSeparableStage:
    """A finite-q stage of ``_nested`` is separable; what it leaves to the
    direct ``_stage`` (a non-finite weight or value row, an underflowed sum)
    keeps that stage's bits, and an entry's bits do not depend on the other
    rows or items of the call."""

    def test_inner_inf_reaches_the_outer_stage(self):
        # inf form at eps_1 = 1/p_1: a1 = 0, the first cell's omega is +inf,
        # so that row's inner sums are +inf; the outer stage keeps them +inf
        # (inf/inf would be nan there) and the grid minimum stays finite
        e, gp = Exponents((2, 2), (1, 1)), GrandParams((-0.5, -0.5))
        for f in random_grids(6, (3, 3), seed=41):
            g = np.asarray(iterated_rearrange_2d(f).values)
            eps = _eps_grid(24, 0.5)
            args = (*f.widths, 0.5 - eps, 0.5 - eps, 1.0, 1.0)
            got, want = _lorentz_core_batch(g, *args), _ref_lorentz_core_batch(g, *args)
            assert not np.isnan(got).any() and np.isinf(got[0]).all()
            _assert_matches_replaced(got, want, False)
            res = grand_lorentz_norm(f, e, gp)
            assert np.isfinite(res.value)
            assert res.value == pytest.approx(_grand_pick([eps, eps], want, gp)[0],
                                              rel=1e-14, abs=0)

    @pytest.mark.parametrize("q", [1e3, 1e4])
    def test_underflow_guard(self, q):
        # the largest value sits in the first cell and the largest weight in
        # the last: both q-th powers underflow where their products do not
        vals = np.array([[1.0, 0.5, 0.25, 0.125], [0.0, 0.0, 0.0, 0.0]])
        sup = np.array([[0.125, 0.25, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]])
        omega = np.array([[1.0, 2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0]])
        got = norms._sep_stage(vals, sup, omega, q)
        assert np.array_equal(got, _stage(vals, sup, omega, q))
        assert np.isfinite(got).all() and (got[:, 0] > 0).all()
        # and through a core: steep values against increasing weights
        g = 2.0 ** -np.add.outer(np.arange(8.0), np.arange(8.0))
        args = (0.125, 0.125, np.array([0.5, 2.0]), np.array([0.5, 2.0]), q, q)
        got = _lorentz_core_batch(g, *args)
        assert np.isfinite(got).all() and (got > 0).all()
        _assert_matches_replaced(got, _ref_lorentz_core_batch(g, *args), False)

    @pytest.mark.parametrize("q", [(0.5, 2.0), (1.0, 1.0), (2.0, 4.0), (3.0, INF)])
    def test_one_row_call_is_a_row_of_the_many_row_call(self, q):
        g = TestStackedCoresMatchPerItem._grids()
        eps = _eps_grid(24, 0.5)
        # sup- and inf-form rows, the a = 0 row with its infinite omega among them
        a1s, a2s = np.concatenate([0.5 + eps, 0.5 - eps]), 0.5 - eps[::3]
        many = _lorentz_core_batch(g, 0.125, 0.25, a1s, a2s, *q)
        for i, j in np.ndindex(len(a1s), len(a2s)):
            one = _lorentz_core_batch(g, 0.125, 0.25, a1s[i:i + 1], a2s[j:j + 1], *q)
            assert one[..., 0, 0].tobytes() == many[..., i, j].tobytes(), (i, j)
        t = np.sqrt(np.cumsum(np.cumsum(g[..., :6, :], axis=-2), axis=-1))
        nus = -0.25 + np.concatenate([-eps, eps[::4]])
        many = _seq_block_core(t, nus, nus, *q)
        for i, j in np.ndindex(len(nus), len(nus)):
            one = _seq_block_core(t, nus[i:i + 1], nus[j:j + 1], *q)
            assert one[..., 0, 0].tobytes() == many[..., i, j].tobytes(), (i, j)
        # the plain norm is the surface's eps = 0 entry, bit for bit
        e = Exponents((2, 2), q)
        axes, surf = _lorentz_surface(g, (0.125, 0.25), e, True, 24, (True, True))
        assert surf[..., -1, -1].tobytes() == _lorentz_of(g, (0.125, 0.25), e).tobytes()

    @pytest.mark.parametrize("q", [(2.0, 1.5), (0.5, 4.0)])
    def test_stacked_items_are_per_item_at_many_rows(self, q):
        # 64 and 80 rows of 100 and 70 cells: more than one chunk per row,
        # the last one padded
        rng = np.random.default_rng(43)
        eps = _eps_grid(24, 1.0)
        g = -np.sort(-rng.random((3, 64, 100)), axis=-1)
        g[1] = 0.0
        g[2] *= 1e-200
        args = (1 / 100, 1 / 64, 0.5 + eps, 0.5 - eps[1:9], *q)
        got = _lorentz_core_batch(g, *args)
        t = np.sqrt(np.cumsum(np.cumsum(rng.random((3, 80, 70)), axis=-2), axis=-1))
        nus = -0.5 + eps[:12]
        got_t = _seq_block_core(t, nus, -nus, *q)
        for k in range(3):
            assert got[k].tobytes() == _lorentz_core_batch(g[k], *args).tobytes()
            assert got_t[k].tobytes() == _seq_block_core(t[k], nus, -nus, *q).tobytes()

    def test_long_rows_keep_pairwise_accuracy(self):
        # at p = q = (2, 2) the Lorentz norm is the L2 norm; a lacunary pair
        # takes odd integer values, so math.fsum gives it to half an ulp.
        # Over its 512-cell rows the chunked sums stay within two ulp, where
        # one in-order dot product per entry is ten ulp off
        for _, f in generate_lacunary_pairs((9, 9), 3, 7):
            v = np.asarray(f.values)
            want = math.sqrt(math.fsum((v * v).ravel()) * f.widths[0] * f.widths[1])
            assert lorentz_norm(f, Exponents((2, 2), (2, 2))) == \
                pytest.approx(want, rel=4.5e-16, abs=0)


def _ref_p6(f, e, theta, k_max=2**12):
    """The one-point-per-call (k1, k2) scan of ``discrete_grand_norm_P6``."""
    tau1, tau2 = e.q
    g = np.asarray(iterated_rearrange_2d(f).values)
    n1, n2 = f.levels
    r2, r1 = g.shape
    vT = g[np.ix_(_dyadic_samples(r2, n2), _dyadic_samples(r1, n1))].T
    inv_p1, inv_p2 = 1.0 / e.p[0], 1.0 / e.p[1]
    core = _seq_block_core(vT, np.array([-inv_p1]), np.array([-inv_p2]), tau1, tau2)
    limit = 2.0 ** -(inv_p1 + inv_p2) * float(core[0, 0])
    best, calls = 0.0, 0
    for k2 in range(2, k_max + 1):
        if k2**-theta[1] * 2.0 ** -theta[0] * limit <= best:
            break
        for k1 in range(2, k_max + 1):
            if k1**-theta[0] * k2**-theta[1] * limit <= best:
                break
            c1, c2 = inv_p1 + 1.0 / k1, inv_p2 + 1.0 / k2
            core = _seq_block_core(vT, np.array([-c1]), np.array([-c2]), tau1, tau2)
            calls += 1
            val = k1**-theta[0] * k2**-theta[1] * (2.0 ** -(c1 + c2) * float(core[0, 0]))
            if val > best:
                best = val
    return best, calls


def test_p6_block_scan_matches_the_one_point_scan(monkeypatch):
    core, calls = norms._seq_block_core, []
    monkeypatch.setattr(norms, "_seq_block_core",
                        lambda *a: calls.append(1) or core(*a))
    rng = np.random.default_rng(47)
    for i in range(12):
        levels = tuple(int(x) for x in rng.integers(1, 7, 2))
        f = random_grids(1, levels, seed=100 + i)[0]
        e = Exponents(tuple(rng.uniform(1.1, 6, 2)), BLOCK_QS[i % len(BLOCK_QS)])
        theta = tuple(rng.uniform(0.1, 2.0, 2))
        want, one_point_calls = _ref_p6(f, e, theta)  # the unpatched core
        calls.clear()
        got = discrete_grand_norm_P6(f, e, theta)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert len(calls) <= one_point_calls + 1


class TestPreparedOnce:
    """The rearranged values are kept on the grid, and the rearranged
    magnitudes and their block tables on the coefficient matrix and on the
    sequence: every public reader of one object shares one rearrangement."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        sort = rearrange._rearranged_values

        def counted(v):
            calls.append(v.shape)
            return sort(v)

        # the grid imports it from rearrange when it first prepares itself,
        # and the block tables sort in rearrange
        monkeypatch.setattr(rearrange, "_rearranged_values", counted)
        return calls

    @staticmethod
    def _grid():
        v = np.random.default_rng(41).random((16, 32))
        v[-1, :] = v[:, -1] = 0.0  # a finite log-weighted sup
        return DyadicStep2D((5, 4), v)

    @staticmethod
    def _grid_reads(f):
        e = Exponents((2, 2), (2, 2))
        ts = np.array([0.25, 0.5, 2.0])
        return [lorentz_norm(f, e),
                grand_lorentz_norm(f, e, GrandParams((0.5, 0.5), 8)).value,
                grand_lorentz_norm(f, Exponents((2, 2), (INF, INF)),
                                   GrandParams((-0.5, -0.5), 8)).value,
                grand_lorentz_norm(f, e, GrandParams((0.0, 0.0))).value,
                logweight_sup_norm(f, (2, 2), (0.5, 0.5)),
                discrete_grand_norm_P6(f, e, (0.5, 0.5), k_max=32),
                khat_grid(f, ts, ts), k_upper(f, 0.5, 0.25).khat,
                interp_norm(f, (0.5, 0.5), (2.0, 2.0), J=6),
                iterated_rearrange_2d(f).values,
                evaluate_norm_request({"norm": "lorentz"}, f)["value"]]

    @staticmethod
    def _coeffs():
        return coeffs_2d(TestPreparedOnce._grid(), WALSH, WALSH, 32, 16)

    @staticmethod
    def _coeff_reads(a):
        e, gp = Exponents((2, 2), (2, 2)), GrandParams((0.25, 0.25), 8)
        out = [te3_lhs(a, (1.5, 1.5), (2.0, 2.0)), te4_lhs(a, e, gp).value,
               te4_lhs(a, Exponents((2, 2), (4.0, 4.0)), gp).value]
        for q in ((2.0, 2.0), (4.0, INF)):
            out += [bochkarev_lhs(a, q), block_sup_lhs(a, q)]
        return out + [block_l2(a, *N) for N in ((1, 1), (4, 2), (32, 16))]

    @staticmethod
    def _seq():
        return Sequence2D(np.random.default_rng(43).random((12, 20)))

    @staticmethod
    def _seq_reads(a):
        e, gp = Exponents((1.5, 3.0), (2.0, 4.0)), GrandParams((0.25, 0.5), 8)
        return [seq_block_lorentz_norm(a, (1.5, 1.5), (2.0, 2.0)),
                grand_seq_norm(a, e, gp, sign="plus").value,
                grand_seq_norm(a, e, gp, sign="minus").value]

    @staticmethod
    def _same_bits(got, want):
        assert [np.asarray(x).tobytes() for x in got] == \
            [np.asarray(x).tobytes() for x in want]

    def test_grid_readers_rearrange_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        f = self._grid()
        self._grid_reads(f)
        self._grid_reads(f)
        assert calls == [(16, 32)]

    def test_coefficient_readers_rearrange_once(self, monkeypatch):
        a = self._coeffs()
        calls = self._count(monkeypatch)
        self._coeff_reads(a)
        self._coeff_reads(a)
        assert calls == [(32, 16)]

    def test_sequence_readers_rearrange_once(self, monkeypatch):
        s = self._seq()
        calls = self._count(monkeypatch)
        self._seq_reads(s)
        self._seq_reads(s)
        assert calls == [(12, 20)]

    def test_memo_is_read_only(self):
        f, a, s = self._grid(), self._coeffs(), self._seq()
        self._coeff_reads(a)
        self._seq_reads(s)
        for arr in (f.rearranged, a._support, a._table, a._sqrt_table,
                    s._support, s._table, s._sqrt_table):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_results_equal_a_fresh_objects(self):
        f, a, s = self._grid(), self._coeffs(), self._seq()
        first = self._grid_reads(f), self._coeff_reads(a), self._seq_reads(s)
        again = self._grid_reads(f), self._coeff_reads(a), self._seq_reads(s)
        fresh = (self._grid_reads(DyadicStep2D(f.levels, f.values)),
                 self._coeff_reads(CoeffMatrix(a.system1, a.system2, a.entries)),
                 self._seq_reads(Sequence2D(s.entries)))
        for got in (again, fresh):
            self._same_bits(got[0], first[0])
            self._same_bits(got[1], first[1])
            self._same_bits(got[2], first[2])

    def test_equality_hash_replace_and_pickle(self):
        f, a, s = self._grid(), self._coeffs(), self._seq()
        plain = [pickle.dumps(f), pickle.dumps(a), pickle.dumps(s)]
        self._grid_reads(f)
        self._coeff_reads(a)
        self._seq_reads(s)
        assert "rearranged" in vars(f) and "_table" in vars(a) and "_table" in vars(s)
        # the memo is no state: the pickles are the unprepared object's
        assert [pickle.dumps(f), pickle.dumps(a), pickle.dumps(s)] == plain
        for obj, memo in ((f, "rearranged"), (a, "_support"), (s, "_support")):
            assert obj == obj
            with pytest.raises(TypeError):
                hash(obj)  # a frozen dataclass over an array field
            for copy in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj))):
                assert memo not in vars(copy)
                assert copy.__dataclass_fields__ == obj.__dataclass_fields__
        g = pickle.loads(pickle.dumps(f))
        assert g.levels == f.levels and np.array_equal(g.values, f.values)
        assert g.rearranged.tobytes() == f.rearranged.tobytes()
        self._same_bits(self._coeff_reads(pickle.loads(pickle.dumps(a))),
                        self._coeff_reads(a))
        self._same_bits(self._seq_reads(pickle.loads(pickle.dumps(s))),
                        self._seq_reads(s))


# ---------------------------------------------------------------------------
# the direct stage in blocks of value rows, the rearrangement on a padded
# pitch and the block table summed row by row, against the broadcast
# product and the unpadded forms (see conftest)


@pytest.fixture(scope="module")
def level10_grid():
    """A level-10 random_step grid with its last row and column zeroed, so
    its log-weighted sup norm is finite."""
    vals = np.array(generate(CorpusSpec("random_step", (10, 10), 1, 10000))[0].values)
    vals[-1, :] = 0.0
    vals[:, -1] = 0.0
    return DyadicStep2D((10, 10), vals)


class TestStage:
    """The direct stage takes the value rows in blocks and keeps the bits of
    the broadcast product at every q: a maximum is exact in any order, a
    row of the buffer is summed pairwise as a contiguous row of the product
    is, a ``nan`` from ``0 * inf`` counts as 0 and an infinite product gives
    inf."""

    QS = [1.0, 2.5, INF]

    @staticmethod
    def _check(vals, sup, q, omega=None):
        omega = np.ones_like(sup) if omega is None else omega
        got = _stage(vals, sup, omega, q)
        assert same_bits(got, ref_direct_stage(vals, sup, omega, q))
        return got

    @pytest.mark.parametrize("q", QS)
    def test_item_axes_and_partial_blocks(self, q):
        r = np.random.default_rng(61)
        n = 96
        rows = norms._STAGE_CELLS // n  # the value rows of one block
        sup, omega = r.random((5, n)) * 4.0, r.random((5, n)) + 0.5
        for shape in ((1, n), (rows, n), (rows + 1, n), (3 * rows - 7, n),
                      (3, 7, n), (2, 2, rows + 3, n), (4, 1, n)):
            assert self._check(r.random(shape), sup, q, omega).shape == \
                shape[:-2] + (5, shape[-2])
        # a single weight row
        self._check(r.random((rows + 5, n)), sup[:1], q, omega[:1])
        wide = 2 * norms._STAGE_CELLS  # a row longer than a block: one row per block
        self._check(r.random((3, wide)), sup[:, :1].repeat(wide, axis=1), q)

    @pytest.mark.parametrize("q", QS)
    def test_zero_times_inf_and_infinite_products(self, q):
        sup = np.array([[INF, 1.0, 2.0], [INF, INF, 0.5], [1.0, 1.0, 1.0],
                        [INF, INF, INF]])
        vals = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0],
                         [0.0, 0.0, 5.0]])
        got = self._check(vals, sup, q)
        if q == INF:
            assert got.tolist() == [[6.0, 0.0, INF, 10.0], [INF, 0.0, INF, 2.5],
                                    [3.0, 0.0, 1e-300, 5.0], [INF, 0.0, INF, INF]]

    @pytest.mark.parametrize("q", QS)
    def test_block_cells_tail(self, q):
        # at nu > 0 the tail column's weight is inf: a row with a positive
        # saturation value reads inf, a zero one stays finite
        nus = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
        sup, omega = norms._block_cells(nus, 6, q)
        vals = np.random.default_rng(62).random((9, 7))
        vals[2] = 0.0
        vals[5, -1] = 0.0
        got = self._check(vals, sup, q, omega)
        assert np.isinf(got[nus > 0][:, [0, 1, 3, 4, 6, 7, 8]]).all()
        assert np.isfinite(got[nus > 0][:, 5]).all() and (got[:, 2] == 0).all()

    @pytest.mark.parametrize("q", QS)
    def test_all_zero_rows(self, q):
        vals = np.zeros((5, 40))
        vals[3, 7] = 2.0
        sup = np.full((3, 40), 0.5)
        sup[1, 0] = INF
        got = self._check(vals, sup, q)
        assert same_bits(np.delete(got, 3, axis=-1), np.zeros((3, 4)))

    @pytest.mark.parametrize("q", QS)
    def test_outer_stage_reads_the_inner_view(self, q):
        # after a q = inf inner stage, _nested hands the outer stage a view
        # whose rows are contiguous but whose other axes are not C ordered
        r = np.random.default_rng(64)
        vals = r.random((3, 5, 12, 16))
        inner = _stage(vals, r.random((7, 16)), np.ones((7, 16)), INF)
        assert inner.shape == (3, 5, 7, 12) and not inner.flags.c_contiguous
        sup, omega = r.random((4, 12)) * 2.0, r.random((4, 12)) + 0.5
        assert self._check(inner, sup, q, omega).shape == (3, 5, 4, 7)

    @pytest.mark.parametrize("q", QS)
    def test_bits_do_not_follow_the_layout(self, q):
        # numpy sums a contiguous axis pairwise and a strided one in order;
        # the stage sums C ordered copies of the rows in every layout
        r = np.random.default_rng(65)
        vals = r.random((3, 40, 64))
        sup, omega = r.random((6, 64)) * 2.0, r.random((6, 64)) + 0.5
        want = _stage(vals, sup, omega, q)
        for x in _layouts(vals):
            assert same_bits(_stage(x, sup, omega, q), want)

    @pytest.mark.parametrize("q", QS)
    def test_underflow_and_non_finite_weight_rows(self, q):
        # an infinite omega (first row) or sup (second row): a positive
        # value there gives inf, a zero one counts as 0; at q = 2.5 the
        # first value's q-th power relative to its row's largest underflows,
        # and 0 * inf = nan reads inf
        vals = np.array([[1e-300, 1.0], [0.0, 1.0], [2.0, 0.5]])
        sup = np.array([[1.0, 1.0], [INF, 1.0], [1.0, 2.0]])
        omega = np.array([[INF, 1.0], [1.0, 1.0], [1.0, 1.0]])
        got = self._check(vals, sup, q, omega)
        fin = q != INF
        assert np.isinf(got).tolist() == [[fin, False, fin], [True, False, True],
                                          [False, False, False]]
        assert got[:2, 1].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("q", QS)
    def test_level10_grid_at_the_grand_inf_rows(self, level10_grid, q):
        f = level10_grid
        eps = norms._eps_axes(24, (False, False), (0.5, 0.5))[0]
        sup, omega = _power_cells(0.5 - eps, 1024, f.widths[0], q)
        got = _stage(f.rearranged, sup, omega, q)
        assert got.shape == (len(eps), 1024)
        assert same_bits(got, ref_direct_stage(f.rearranged, sup, omega, q))


@pytest.mark.parametrize("q", [(INF, 2.0), (2.0, INF)])
def test_nested_with_the_inf_form_zero_row(q, monkeypatch):
    """An inf-form core whose grid reaches ``a = 0`` (an infinite first-cell
    omega at finite q) on either side of a q = inf stage: the direct stage
    runs the q = inf stage and the separable stage's non-finite weight row,
    and gives the bits of the broadcast product in both places."""
    g = TestStackedCoresMatchPerItem._grids()
    eps = _eps_grid(24, 0.5)
    args = (0.125, 0.25, 0.5 - eps, 0.5 - eps[::2], *q)
    got = _lorentz_core_batch(g, *args)
    monkeypatch.setattr(norms, "_stage", ref_direct_stage)
    want = _lorentz_core_batch(g, *args)
    assert same_bits(got, want)
    assert not np.isnan(got).any() and (got[2] == 0).all()  # g[2] is zero
    live = got[[0, 1, 3, 4]]
    assert np.isinf(live[:, 0, :] if q[0] != INF else live[..., 0]).all()


class TestSupportTableMatchesReference:
    """The block table sums down its columns one row at a time and
    returns a new C ordered table with the bits of the two cumsums."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (8, 32), (32, 8),
                                       (33, 70), (5, 32, 32)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_and_layout(self, shape, order):
        r = np.random.default_rng(shape[-1]).random(shape)
        r[..., 1::4, :] = 0.0
        r = np.asarray(ref_rearranged_values(r), order=order)
        before = r.copy(order="K")
        got = rearrange._support_table(r)
        assert got.flags.c_contiguous and got.base is None
        assert same_bits(got, ref_support_table(r))
        assert same_bits(r, before)
        r.setflags(write=False)
        assert same_bits(rearrange._support_table(r), got)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_coefficient_matrix_keeps_its_bits(self, order):
        r = np.random.default_rng(63)
        e = r.standard_normal((24, 40)) + 1j * r.standard_normal((24, 40))
        e[5:9] = 0.0
        e[:, 30:] = 0.0
        a = CoeffMatrix(WALSH, TRIG, np.asarray(e, order=order))
        mags = np.abs(a.entries)
        ref_rearranged = ref_rearranged_values(mags)
        assert a._support.flags.c_contiguous
        assert a._support.shape == (20, 30)  # the block that holds the support
        assert same_bits(a._support, ref_rearranged[:20, :30])
        assert not ref_rearranged[20:].any() and not ref_rearranged[:, 30:].any()
        assert same_bits(a._table, ref_support_table(a._support))
        fun = ref_sort_desc(ref_sort_desc(mags, axis=0), axis=1)
        for N in ((1, 1), (3, 5), (20, 31), (24, 40)):
            # block_l2 as it read the unpadded rearrangements: its sums
            # follow the layout of the entries
            block = np.zeros(N, order=order)
            block[:] = ref_rearranged[:N[0], :N[1]]
            assert same_bits(block_l2(a, *N), np.sqrt(np.sum(block**2)))
            assert same_bits(block_l2(a, *N, order="fun"),
                             np.sqrt(np.sum(fun[:N[0], :N[1]] ** 2)))


def _mix(f):
    """The grand_inf request, lorentz and te4_lhs on a fresh copy of ``f``,
    as floats: the values and witnesses."""
    f = DyadicStep2D(f.levels, f.values)
    out = []
    for req in ({"norm": "lorentz", "p": [2, 2], "q": [2, 2]},
                {"norm": "grand", "p": [2, 2], "q": ["inf", "inf"],
                 "theta": [-0.5, -0.5]}):
        doc = evaluate_norm_request(req, f)
        out += [doc["value"], *(doc["argmax_eps"] or [])]
    k = 2 ** f.levels[0]
    g = te4_lhs(coeffs_2d(f, WALSH, WALSH, k, k), Exponents((2, 2), (2, 2)),
                GrandParams((0.25, 0.25)))
    return out + [g.value, *g.eps]


def test_level10_calls_match_the_reference_path(level10_grid, monkeypatch):
    """On a level-10 grid, the calls that read the direct stage, the
    rearrangement and the block table give the bits they give with the
    broadcast product and the unpadded forms in their place."""
    got = _mix(level10_grid)
    monkeypatch.setattr(rearrange, "_rearranged_values", ref_rearranged_values)
    monkeypatch.setattr(rearrange, "_support_table", ref_support_table)
    monkeypatch.setattr(norms, "_stage", ref_direct_stage)
    want = _mix(level10_grid)
    assert np.isfinite(got).all()
    assert [x.hex() for x in got] == [x.hex() for x in want]
