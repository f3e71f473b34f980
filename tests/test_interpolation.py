import numpy as np
import pytest

from conftest import random_grids
from lorentz_forge.interpolation import (_khat_of, beta_from_q, constant_D,
                                         interp_norm, k_upper, khat_grid,
                                         theta_from_p)
from lorentz_forge.norms import Exponents, lorentz_norm
from lorentz_forge.oracles import oracle_rearrange
from lorentz_forge.stepfun import DyadicStep2D, constant_grid
from lorentz_forge.verify.calibration import pinned_ratios
from lorentz_forge.verify.checks import check_interp_chain

INF = float("inf")


class TestKUpper:
    def test_constant_at_unit_parameters(self):
        kt = k_upper(constant_grid(1.0, (3, 3)), 1.0, 1.0)
        assert kt.t00 == pytest.approx(1.0, abs=1e-12)
        assert kt.t10 == kt.t01 == kt.t11 == 0.0
        assert kt.khat == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        kt = k_upper(constant_grid(0.0, (2, 2)), 0.5, 0.5)
        assert (kt.t00, kt.t10, kt.t01, kt.t11) == (0, 0, 0, 0)

    def test_constant_at_half_parameters(self):
        # w = 1/4: averages give T00 = 1/16, the two half tails sqrt(3)/4*?,
        # and the tail rectangle (1/4,1]^2 has mass 9/16
        kt = k_upper(constant_grid(1.0, (4, 4)), 0.5, 0.5)
        assert kt.t00 == pytest.approx(1 / 16, abs=1e-12)
        assert kt.t10 == pytest.approx(np.sqrt(3 / 4) / 4, abs=1e-12)
        assert kt.t01 == pytest.approx(np.sqrt(3 / 64), abs=1e-12)
        assert kt.t11 == pytest.approx(0.75, abs=1e-12)

    def test_constant_beyond_one_in_t(self):
        base = k_upper(constant_grid(1.0, (3, 3)), 1.0, 1.0)
        for t1, t2 in ((2.0, 1.0), (1.0, 8.0), (4.0, 4.0)):
            kt = k_upper(constant_grid(1.0, (3, 3)), t1, t2)
            assert kt.khat == pytest.approx(base.khat, rel=1e-14)

    def test_the_largest_t_reads_as_one(self):
        # t was squared before it was clamped to 1, and t1 t2 T11 read inf * 0
        f = DyadicStep2D((2, 2), np.arange(1, 17.0).reshape(4, 4))
        assert khat_grid(f, [1e300], [1e200]).tobytes() == \
            khat_grid(f, [1.0], [1.0]).tobytes()
        kt, base = k_upper(f, 1e300, 1e200), k_upper(f, 1.0, 1.0)
        assert [float(x).hex() for x in (kt.t00, kt.t10, kt.t01, kt.t11, kt.khat)] == \
            [float(x).hex() for x in (base.t00, base.t10, base.t01, base.t11, base.khat)]

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            k_upper(constant_grid(1.0), 0.0, 1.0)

    @pytest.mark.parametrize("bad", [-0.5, 0.0, INF, float("nan")])
    def test_points_outside_the_open_half_line_raise(self, bad):
        # -0.5 read a negative Khat and inf a nan before these were checked
        f = DyadicStep2D((2, 2), np.arange(1, 17.0).reshape(4, 4))
        for t1, t2 in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError):
                k_upper(f, t1, t2)
            with pytest.raises(ValueError):
                khat_grid(f, [0.25, t1], [t2])

    def test_monotone_on_dyadic_grid(self):
        ts = 2.0 ** np.arange(-8, 1)
        for f in random_grids(20, (4, 4), seed=41):
            K = khat_grid(f, ts, ts)
            assert np.all(np.diff(K, axis=0) >= -1e-12 * K[1:, :])
            assert np.all(np.diff(K, axis=1) >= -1e-12 * K[:, 1:])

    def test_dominates_trivial_decompositions(self, rng):
        # Khat is an upper bound for the true infimum, which is at most the
        # all-in-one-piece value min over the four corners
        from lorentz_forge.norms import mixed_lebesgue_norm

        f = DyadicStep2D((3, 3), rng.random((8, 8)))
        for t1, t2 in ((0.3, 0.7), (1.0, 0.2), (2.0, 2.0)):
            kt = k_upper(f, t1, t2)
            trivial = min(
                mixed_lebesgue_norm(f, (1, 1)),
                t1 * t2 * mixed_lebesgue_norm(f, (2, 2)),
            )
            assert kt.khat >= trivial * (1 - 1e-12) or kt.khat >= 0


def _ref_terms(f, t1, t2, m=2**12):
    """``(T00, T10, T01, T11)`` of ``k_upper`` by midpoint quadrature.

    Each axis is cut into ``m`` uniform panels, plus one cut at ``w = t^2``
    (at most 1), so every panel lies in one cell and on one side of ``w``.
    The s1 integrals of the step function are then exact up to rounding, and
    the running average ``A(s2)/s2``, with ``A`` exact at each midpoint, is
    ``R + beta/s2`` on a cell: its midpoint error is below
    ``(2^level2 / m)^2 / 24`` relative, 6e-7 at level 4.
    """
    g = np.asarray(oracle_rearrange(f).values)  # [j2, j1]
    r2, r1 = g.shape
    w1, w2 = min(t1 * t1, 1.0), min(t2 * t2, 1.0)

    def panels(w):
        e = np.union1d(np.linspace(0.0, 1.0, m + 1), [w])
        return (e[:-1] + e[1:]) / 2, np.diff(e)

    x, dx = panels(w1)
    y, dy = panels(w2)
    gx = g[:, (x * r1).astype(int)]
    rows = (y * r2).astype(int)
    R = (gx * dx * (x < w1)).sum(axis=1)[rows]    # int_0^{w1} g ds1
    Q = (gx**2 * dx * (x > w1)).sum(axis=1)[rows]  # int_{w1}^1 g^2 ds1
    avg = (np.cumsum(R * dy) - R * dy / 2) / y      # A(s2)/s2 at the midpoints
    low = y < w2
    return np.array([np.sum(avg * dy * low), np.sum(np.sqrt(Q) * dy * low),
                     np.sqrt(np.sum(avg**2 * dy * ~low)),
                     np.sqrt(np.sum(Q * dy * ~low))])


class TestKhatReference:
    LEVELS = [(0, 0), (2, 3), (3, 2), (4, 4), (5, 1)]

    @staticmethod
    def _grids(levels, count, seed):
        r = np.random.default_rng(seed)
        n1, n2 = levels
        return [DyadicStep2D(levels, r.random((2**n2, 2**n1))
                             * (r.random((2**n2, 2**n1)) < 0.7))
                for _ in range(count)]

    @pytest.mark.parametrize("levels", LEVELS)
    def test_terms_match_midpoint_quadrature(self, levels):
        r = np.random.default_rng(sum(levels) + 61)
        ts = [tuple(t) for t in 2.0 - r.uniform(0.0, 2.0, (5, 2))]
        ts += [(1.0, 2.0), (0.01, 0.5), (2.0, 0.03)]
        for f in self._grids(levels, 4, sum(levels)):
            for t1, t2 in ts:
                kt = k_upper(f, t1, t2)
                want = _ref_terms(f, t1, t2)
                got = [kt.t00, kt.t10, kt.t01, kt.t11]
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-300)
                t1s, t2s = np.array([t1, 0.5]), np.array([0.25, t2])
                ref = want[0] + t1 * want[1] + t2 * want[2] + t1 * t2 * want[3]
                assert khat_grid(f, t1s, t2s)[0, 1] == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("levels", LEVELS)
    def test_stacked_call_is_per_item_and_per_point(self, levels):
        fs = self._grids(levels, 3, 7) + [constant_grid(0.0, levels)]
        t1s = np.array([1e-9, 0.02, 0.3, 1.0, 1.7])
        t2s = np.array([0.9, 2.0, 1e-4, 0.4])
        G = np.stack([f.rearranged for f in fs])
        K, *terms = _khat_of(G, fs[0].widths, t1s, t2s)
        assert K.shape == (len(fs), len(t1s), len(t2s))
        for k, f in enumerate(fs):
            assert np.array_equal(K[k], khat_grid(f, t1s, t2s))
            for i, t1 in enumerate(t1s):
                for j, t2 in enumerate(t2s):
                    kt = k_upper(f, t1, t2)
                    assert kt.khat == K[k, i, j]
                    assert [kt.t00, kt.t10, kt.t01, kt.t11] == \
                        [T[k, i, j] for T in terms]


class TestInterpNorm:
    def test_zero_function(self):
        assert interp_norm(constant_grid(0.0, (2, 2)), (0.5, 0.5), (2, 2)) == 0.0

    def test_positive_homogeneity(self, rng):
        v = rng.random((8, 8))
        f1 = DyadicStep2D((3, 3), v)
        f2 = DyadicStep2D((3, 3), 2.5 * v)
        n1 = interp_norm(f1, (0.3, 0.6), (1, 2))
        n2 = interp_norm(f2, (0.3, 0.6), (1, 2))
        assert n2 == pytest.approx(2.5 * n1, rel=1e-12)

    def test_pinned_constant_example(self):
        pin = pinned_ratios()["interp_example"]
        got = interp_norm(constant_grid(1.0, (3, 3)), (0.5, 0.5), (INF, INF), J=10)
        assert got == pytest.approx(pin["value_J10"], rel=1e-12)
        fine = interp_norm(constant_grid(1.0, (3, 3)), (0.5, 0.5), (INF, INF), J=16)
        assert fine == pytest.approx(pin["value_J16"], rel=1e-12)

    def test_theta_domain_validated(self):
        with pytest.raises(ValueError):
            interp_norm(constant_grid(1.0), (0.0, 0.5), (2, 2))
        with pytest.raises(ValueError):
            interp_norm(constant_grid(1.0), (0.5, 0.5), (2, 2), J=2)

    @pytest.mark.parametrize("J", [4.5, 10.0, 3, True, "10", None, 1075])
    def test_depth_must_be_an_integer_of_at_least_four(self, J):
        # J = 4.5 sampled t = 2^-4.5 .. 2^0.5, past t = 1, and read 1.951
        # on this grid, where J = 10 reads 1.798; J = 1075 sampled t = 0
        f = constant_grid(1.0, (2, 2))
        with pytest.raises(ValueError, match="J"):
            interp_norm(f, (0.5, 0.5), (2, 2), J=J)
        with pytest.raises(ValueError, match="J"):
            check_interp_chain([f], (0.5, 0.5), (2, 2), J=J)
        assert interp_norm(f, (0.5, 0.5), (2, 2), J=np.int64(4)) == \
            interp_norm(f, (0.5, 0.5), (2, 2), J=4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [2.0**990, 2.0**-990, 1e300, 1e-300],
                             ids=["2^990", "2^-990", "1e300", "1e-300"])
    def test_khat_is_homogeneous_at_any_magnitude(self, c):
        # Khat squares G for its l2 tails: unscaled, 1e300 overflowed to
        # interp_norm = 0.0 and 1e-300 read 0.66 c times the unscaled value
        v = np.random.default_rng(47).random((8, 8))
        f, fc = DyadicStep2D((3, 3), v), DyadicStep2D((3, 3), c * v)
        ts = 2.0 ** np.arange(-6, 1)
        got, want = khat_grid(fc, ts, ts), khat_grid(f, ts, ts)
        assert np.isfinite(got).all() and (got > 0).all()
        np.testing.assert_allclose(got, c * want, rtol=1e-12, atol=0)
        kt, kt1 = k_upper(fc, 0.3, 0.6), k_upper(f, 0.3, 0.6)
        for name in ("t00", "t10", "t01", "t11", "khat"):
            assert getattr(kt, name) == pytest.approx(c * getattr(kt1, name), rel=1e-12)
        for q in ((2.5, 2.5), (1, INF), (INF, INF)):
            n = interp_norm(fc, (0.5, 0.5), q)
            assert np.isfinite(n) and n > 0
            assert n == pytest.approx(c * interp_norm(f, (0.5, 0.5), q), rel=1e-12)

    @pytest.mark.parametrize("q", [(0, 2), (-1, 2), (float("nan"), 2), (2,)])
    def test_q_validated(self, q):
        with pytest.raises(ValueError, match="q components"):
            interp_norm(constant_grid(1.0, (2, 2)), (0.5, 0.5), q)

    def test_chain_against_lorentz(self, rng):
        f = DyadicStep2D((4, 4), rng.random((16, 16)))
        for theta in ((0.3, 0.3), (0.7, 0.4)):
            p = tuple(1 / (1 - t / 2) for t in theta)
            for q in ((1, 1), (2, 2), (INF, INF)):
                lhs = interp_norm(f, theta, q, J=10)
                rhs = 6 * constant_D(theta, q) * lorentz_norm(f, Exponents(p, q))
                assert lhs <= 1.05 * rhs


class TestConstantD:
    def test_symmetric_point(self):
        assert constant_D((0.5, 0.5), (2, 2)) == pytest.approx(4.0)

    def test_max_term_structure(self):
        # beta = (1, 1/2) at q = (1, 2)
        D = constant_D((0.5, 0.5), (1, 2))
        terms = [1 / (0.5 * 0.5), 1 / (0.5**1 * 0.5), 1 / (0.5**0.5 * 0.5),
                 1 / (0.5**1 * 0.5**0.5)]
        assert D == pytest.approx(max(terms))

    def test_blows_up_at_the_upper_corner(self):
        assert constant_D((0.99, 0.99), (2, 2)) > constant_D((0.9, 0.9), (2, 2))
        assert constant_D((0.999, 0.999), (2, 2)) > 1e2

    def test_parameter_symmetry(self):
        assert constant_D((0.3, 0.7), (1, 4)) == constant_D((0.7, 0.3), (4, 1))

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            constant_D((0.0, 0.5), (2, 2))

    @pytest.mark.parametrize("q", [(0, 2), (-1, 2), (float("nan"), 2), (2,)])
    def test_q_validated(self, q):
        # (0, 2) divided by zero and (-1, 2) read 4.0
        with pytest.raises(ValueError, match="q components"):
            constant_D((0.5, 0.5), q)


class TestThetaFromP:
    def test_four_thirds_maps_to_half(self):
        tp = theta_from_p((4 / 3, 4 / 3))
        assert tp.theta == pytest.approx((0.5, 0.5))

    def test_endpoints(self):
        assert theta_from_p((1.001, 1.999)).theta == \
            pytest.approx((0.002 / 1.001, 2 * (1 - 1 / 1.999)), rel=1e-9)

    @pytest.mark.parametrize("p", [(1.0, 1.5), (2.0, 1.5), (0.5, 1.5)])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            theta_from_p(p)


def test_beta_from_q():
    assert beta_from_q((2, 2)) == (0.5, 0.5)
    assert beta_from_q((1, 4)) == (1.0, 0.5)
    assert beta_from_q((INF, INF)) == (0.5, 0.5)
