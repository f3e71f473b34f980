import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grids
from lorentz_forge.interpolation import interp_norm
from lorentz_forge.norms import (Exponents, GrandParams, _block_sqrt_table,
                                 _qsum, _seq_block_core, _sup_eps_axes,
                                 discrete_grand_norm_P6,
                                 evaluate_norm_request, grand_lorentz_norm,
                                 grand_seq_norm, logweight_sup_norm,
                                 lorentz_norm, mixed_lebesgue_norm,
                                 seq_block_lorentz_norm)
from lorentz_forge.rearrange import Sequence2D, iterated_rearrange_2d
from lorentz_forge.stepfun import DyadicStep2D, constant_grid, indicator_grid
from lorentz_forge.verify.calibration import calibration

INF = float("inf")


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
                sqrtS = _block_sqrt_table(a)
                (e1, w1), (e2, w2) = _sup_eps_axes(gp)
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
            _block_sqrt_table(a), 1 / e.conjugate(0) - 0.5,
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


class TestDiscreteP6:
    def test_zero_function(self):
        assert discrete_grand_norm_P6(constant_grid(0.0, (2, 2)),
                                      Exponents((2, 2), (2, 2)), (1, 1)) == 0.0

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
