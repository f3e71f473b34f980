import math
import warnings

import numpy as np
import pytest

from conftest import random_grids
from lorentz_forge.fourier import (TRIG, WALSH, CoeffMatrix, OrthonormalSystem,
                                   ResolutionError, _bitrev_perm, _block_l2_of,
                                   _coeffs_axis, _tensor_coeffs, _trig_cell_matrix,
                                   block_l2, block_sup_lhs, bochkarev_lhs, coeffs_2d,
                                   coeffs_from_values, fwht, gram_matrix, te3_lhs,
                                   te4_lhs, trig_frequency, walsh_on_cells,
                                   walsh_synthesize)
from lorentz_forge.norms import (Exponents, GrandParams, grand_seq_norm,
                                 mixed_lebesgue_norm)
from lorentz_forge.rearrange import (Sequence2D, _rearranged_support,
                                     _rearranged_values, iterated_rearrange_seq)
from lorentz_forge.stepfun import DyadicStep2D, constant_grid

INF = float("inf")


def test_trig_enumeration():
    assert [trig_frequency(i) for i in range(7)] == [0, 1, -1, 2, -2, 3, -3]


class TestCoeffs:
    def test_constant_trig_all_mass_at_zero_frequency(self):
        a = coeffs_2d(constant_grid(1.0, (2, 2)), TRIG, TRIG, 7, 7)
        assert a.entries[0, 0] == pytest.approx(1.0, abs=1e-14)
        rest = np.abs(a.entries).copy()
        rest[0, 0] = 0.0
        assert rest.max() <= 1e-14

    def test_walsh_single_tensor_mode(self):
        c = np.zeros((8, 8))
        c[3, 2] = 1.0
        vals = walsh_synthesize(c, (3, 3))
        a = coeffs_from_values(vals, (3, 3), WALSH, WALSH, 8, 8)
        got = a.entries.real.copy()
        assert got[3, 2] == pytest.approx(1.0, abs=1e-14)
        got[3, 2] = 0.0
        assert np.abs(got).max() <= 1e-14

    @pytest.mark.parametrize("level,tol", [(4, 0.05), (6, 0.02)])
    def test_shifted_cosine_sampling_error_shrinks(self, level, tol):
        h = 2.0**-level
        x = (np.arange(2**level) + 0.5) * h
        vals = np.tile(1.0 + np.cos(2 * np.pi * x), (2**level, 1))
        f = DyadicStep2D((level, level), vals)
        a = coeffs_2d(f, TRIG, TRIG, 3, 1)
        assert abs(a.entries[1, 0] - 0.5) <= tol
        assert abs(a.entries[2, 0] - 0.5) <= tol

    def test_walsh_beyond_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            coeffs_2d(constant_grid(1.0, (2, 2)), WALSH, WALSH, 8, 4)

    def test_walsh_beyond_resolution_is_typed(self):
        with pytest.raises(ResolutionError):
            coeffs_2d(constant_grid(1.0, (2, 2)), WALSH, WALSH, 4, 8)

    def test_synthesis_beyond_resolution_is_typed(self):
        with pytest.raises(ResolutionError):
            walsh_synthesize(np.ones((4, 9)), (2, 3))

    def test_walsh_parseval_exact(self):
        for f in random_grids(20, (5, 5), seed=61):
            a = coeffs_2d(f, WALSH, WALSH, 32, 32)
            assert np.sum(np.abs(a.entries) ** 2) == pytest.approx(
                mixed_lebesgue_norm(f, (2, 2)) ** 2, abs=1e-10)

    def test_trig_bessel_monotone_and_bounded(self):
        for f in random_grids(5, (4, 4), seed=62):
            total = mixed_lebesgue_norm(f, (2, 2)) ** 2
            prev = 0.0
            for K in (2, 4, 8, 16, 32):
                s = float(np.sum(np.abs(
                    coeffs_2d(f, TRIG, TRIG, K, K).entries) ** 2))
                assert s >= prev - 1e-12
                assert s <= total + 1e-10
                prev = s

    def test_coefficient_bound_by_l1_norm(self):
        for f in random_grids(10, (4, 4), seed=63):
            a = coeffs_2d(f, TRIG, TRIG, 9, 9)
            assert np.abs(a.entries).max() <= \
                mixed_lebesgue_norm(f, (1, 1)) + 1e-12

    def test_mixed_system_pair(self):
        f = constant_grid(1.0, (3, 3))
        a = coeffs_2d(f, WALSH, TRIG, 8, 5)
        assert a.entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("systems", [(WALSH, WALSH), (TRIG, TRIG),
                                         (WALSH, TRIG), (TRIG, WALSH)])
    @pytest.mark.parametrize("K", [(0, 2), (2, 0), (-2, 2), (2, -1)])
    def test_nonpositive_truncation_rejected(self, systems, K):
        vals = constant_grid(1.0, (2, 2)).values
        with pytest.raises(ValueError, match="truncation") as exc:
            coeffs_from_values(vals, (2, 2), *systems, *K)
        assert not isinstance(exc.value, ResolutionError)

    @pytest.mark.parametrize("systems", [(WALSH, WALSH), (TRIG, TRIG),
                                         (WALSH, TRIG), (TRIG, WALSH)])
    @pytest.mark.parametrize("levels,K,match", [
        ((2, 2), (2.5, 2), "truncation"), ((2, 2), (2, 2.5), "truncation"),
        ((2, 2), (True, 2), "truncation"), ((2, 2), (2, False), "truncation"),
        ((2, 2), (np.float64(2), 2), "truncation"), ((2, 2), ("2", 2), "truncation"),
        ((3, 3), (2, 2), "shape"), ((2, 1), (2, 2), "shape"), ((-1, 2), (1, 1), "shape")])
    def test_malformed_requests_are_typed(self, systems, levels, K, match):
        # a 4 x 4 grid: integral K >= 1 and a levels (2, 2) grid are required
        vals = np.random.default_rng(1).random((4, 4))
        with pytest.raises(ValueError, match=match) as exc:
            coeffs_from_values(vals, levels, *systems, *K)
        assert not isinstance(exc.value, ResolutionError)
        a = coeffs_from_values(vals, (2, 2), *systems, np.int64(3), 2)
        assert a.truncation == (3, 2)


class TestOrthonormality:
    @pytest.mark.parametrize("system", [TRIG, WALSH])
    def test_gram_is_identity(self, system):
        G = gram_matrix(system, 32, 5)
        assert np.abs(G - np.eye(32)).max() <= 1e-10

    def test_walsh_uniform_bound(self):
        for k in range(16):
            assert np.abs(walsh_on_cells(k, 4)).max() == 1.0

    @pytest.mark.parametrize("kind", ["trig", "walsh"])
    @pytest.mark.parametrize("bound", [math.nan, -1.0, 0.0, -0.0, math.inf, True])
    def test_bound_must_be_finite_and_positive(self, kind, bound):
        with pytest.raises(ValueError, match="bound"):
            OrthonormalSystem(kind, bound=bound)
        assert TRIG.bound == WALSH.bound == 1.0
        assert OrthonormalSystem(kind, bound=2.5).bound == 2.5

    @pytest.mark.parametrize("k,match", [(-1, "negative"), (-8, "negative"),
                                         ([0, -1], "negative"), (8, "not constant"),
                                         ([7, 8], "not constant")])
    def test_walsh_index_out_of_range_rejected(self, k, match):
        with pytest.raises(ValueError, match=match):
            walsh_on_cells(k, 3)


class TestBlocks:
    def test_single_coefficient_any_block(self):
        c = np.zeros((4, 4), dtype=complex)
        c[2, 3] = 0.7j
        a = CoeffMatrix(WALSH, WALSH, c)
        for N in (1, 2, 4):
            assert block_l2(a, N, N) == pytest.approx(0.7)

    def test_all_ones_two_by_two(self):
        a = CoeffMatrix(WALSH, WALSH, np.ones((2, 2), dtype=complex))
        assert block_l2(a, 2, 2) == pytest.approx(2.0)

    def test_monotone_in_block_size(self, rng):
        a = CoeffMatrix(WALSH, WALSH, rng.random((8, 8)).astype(complex))
        vals = [block_l2(a, n, n) for n in (1, 2, 4, 8)]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    def test_order_independent_for_tensor_matrices(self, rng):
        u, w = rng.random(8), rng.random(8)
        a = CoeffMatrix(WALSH, WALSH, np.outer(u, w).astype(complex))
        for n in (1, 2, 4, 8):
            assert block_l2(a, n, n, "seq") == pytest.approx(
                block_l2(a, n, n, "fun"), rel=1e-13)

    def test_block_exceeding_truncation_rejected(self):
        a = CoeffMatrix(WALSH, WALSH, np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            block_l2(a, 4, 2)


class TestMalformedEntries:
    """A matrix takes non-finite entries, as a coefficient dump spells them,
    but every block statistic of them raises ``ValueError``; entries that are
    not 2-D with at least one row and one column raise when the matrix is
    made."""

    STATS = [lambda a: te3_lhs(a, (1.5, 1.5), (2.0, 2.0)),
             lambda a: te4_lhs(a, Exponents((2, 2), (2, 2)), GrandParams((0.25, 0.25), 8)),
             lambda a: bochkarev_lhs(a, (2.0, 2.0)),
             lambda a: block_sup_lhs(a, (2.0, 2.0)),
             lambda a: block_l2(a, 2, 2),
             lambda a: block_l2(a, 2, 2, order="fun")]

    @pytest.mark.parametrize("stat", range(len(STATS)))
    @pytest.mark.parametrize("bad", [math.nan, INF])
    def test_non_finite_entries_raise(self, stat, bad):
        c = np.random.default_rng(5).random((4, 4)).astype(complex)
        assert math.isfinite(float(self.STATS[stat](CoeffMatrix(WALSH, WALSH, c))))
        c[1, 2] = bad
        a = CoeffMatrix(WALSH, WALSH, c)
        assert a.entries[1, 2] == bad or np.isnan(a.entries[1, 2])
        with pytest.raises(ValueError):
            self.STATS[stat](a)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (3,), (2, 2, 2), ()])
    def test_entries_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ValueError):
            CoeffMatrix(WALSH, WALSH, np.ones(shape))


class TestTheoremLeftSides:
    def test_bochkarev_single_coefficient(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 0] = 0.9
        a = CoeffMatrix(WALSH, WALSH, c)
        assert bochkarev_lhs(a, (INF, INF)) == pytest.approx(0.9 / np.log(2))

    def test_bochkarev_zero_matrix(self):
        a = CoeffMatrix(WALSH, WALSH, np.zeros((4, 4), dtype=complex))
        assert bochkarev_lhs(a, (2, 2)) == 0.0

    def test_bochkarev_homogeneous(self, rng):
        m = rng.random((8, 8))
        a1 = CoeffMatrix(WALSH, WALSH, m.astype(complex))
        a2 = CoeffMatrix(WALSH, WALSH, (5 * m).astype(complex))
        assert bochkarev_lhs(a2, (4, INF)) == pytest.approx(
            5 * bochkarev_lhs(a1, (4, INF)), rel=1e-12)

    def test_bochkarev_requires_q_at_least_two(self):
        a = CoeffMatrix(WALSH, WALSH, np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            bochkarev_lhs(a, (1, 2))

    @pytest.mark.parametrize("q", [(1, 1), (2, 1.5), (0.5, INF)])
    def test_block_sup_requires_q_at_least_two(self, q):
        # below q = 2 the weights grow while the bracket saturates: the
        # supremum is +inf, which no finite scan reads
        f = DyadicStep2D((2, 2), np.arange(1, 17.0).reshape(4, 4))
        with pytest.raises(ValueError):
            block_sup_lhs(coeffs_2d(f, WALSH, WALSH, 4, 4), q)

    def test_block_sup_saturates(self, rng):
        a = CoeffMatrix(WALSH, WALSH, rng.random((8, 8)).astype(complex))
        total = np.sqrt(np.sum(np.abs(a.entries) ** 2))
        assert block_sup_lhs(a, (2, 2)) == pytest.approx(total)

    @pytest.mark.parametrize("q", [(2, 2), (4, INF), (INF, INF), (2, INF), (3, 5)])
    def test_block_sup_matches_double_scan(self, q):
        r = np.random.default_rng(17)
        for shape in ((1, 1), (1, 8), (5, 3), (7, 9), (32, 32), (64, 1)):
            mats = [np.zeros(shape)] + [
                r.random(shape) * 10.0 ** r.integers(-3, 4) for _ in range(20)]
            for m in mats:
                a = CoeffMatrix(WALSH, WALSH, m.astype(complex))
                assert block_sup_lhs(a, q) == _block_sup_double_scan(a, q), shape

    def test_te4_lhs_zero_and_homogeneity(self, rng):
        e = Exponents((2, 2), (2, 2))
        gp = GrandParams((0.5, 0.5))
        z = CoeffMatrix(WALSH, WALSH, np.zeros((4, 4), dtype=complex))
        assert te4_lhs(z, e, gp).value == 0.0
        m = rng.random((4, 4))
        v1 = te4_lhs(CoeffMatrix(WALSH, WALSH, m.astype(complex)), e, gp).value
        v2 = te4_lhs(CoeffMatrix(WALSH, WALSH, (2 * m).astype(complex)), e, gp).value
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_te4_lhs_single_entry_delegates_to_seq_norm(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 0] = 1.0
        a = CoeffMatrix(WALSH, WALSH, c)
        e = Exponents((2, 2), (4, 4))
        got = te4_lhs(a, e, GrandParams((0.25, 0.25))).value
        lam = (0.25 + 0.5, 0.25 + 0.5)  # beta = max(1/2, 1/4)
        want = grand_seq_norm(a.magnitudes, e, GrandParams(lam), sign="minus").value
        assert got == want

    def test_te3_lhs_positive(self, rng):
        a = CoeffMatrix(WALSH, WALSH, rng.random((8, 8)).astype(complex))
        assert te3_lhs(a, (4 / 3, 4 / 3), (2, 2)) > 0


def _block_sup_double_scan(a, q):
    """Reference for ``block_sup_lhs``: every n_i up to one past ceil(log2 K_i)."""
    r = np.asarray(iterated_rearrange_seq(a.magnitudes).entries)
    sqrtS = np.sqrt(np.cumsum(np.cumsum(r**2, axis=0), axis=1))
    K1, K2 = r.shape
    e1 = (0.0 if q[0] == INF else 1.0 / q[0]) - 0.5
    e2 = (0.0 if q[1] == INF else 1.0 / q[1]) - 0.5
    n1_max = max(int(math.ceil(math.log2(K1))), 1) + 1
    n2_max = max(int(math.ceil(math.log2(K2))), 1) + 1
    best = 0.0
    for n1 in range(1, n1_max + 1):
        i1 = min(2**n1, K1) - 1
        for n2 in range(1, n2_max + 1):
            i2 = min(2**n2, K2) - 1
            val = n1**e1 * n2**e2 * sqrtS[i1, i2]
            best = max(best, val)
    return best


def test_synthesis_round_trip(rng):
    coeffs = rng.standard_normal((8, 8))
    vals = walsh_synthesize(coeffs, (3, 3))
    a = coeffs_from_values(vals, (3, 3), WALSH, WALSH, 8, 8)
    assert np.allclose(a.entries.real, coeffs, atol=1e-12)
    assert np.abs(a.entries.imag).max() <= 1e-14


def _walsh_walsh_three_transforms(vals, levels, K1, K2):
    """Reference for Walsh x Walsh coefficients: the complex path that also
    transforms the zero imaginary part."""
    a1 = _coeffs_axis(vals, -1, WALSH, levels[0], K1).astype(complex)
    a = _coeffs_axis(a1.real, -2, WALSH, levels[1], K2) + \
        1j * _coeffs_axis(a1.imag, -2, WALSH, levels[1], K2)
    return a.T


@pytest.mark.parametrize("level", range(7))
def test_walsh_walsh_skips_zero_imaginary_transform(level):
    rng = np.random.default_rng(100 + level)
    n = 2**level
    signed = walsh_synthesize(rng.integers(-2, 3, (n, n)).astype(float),
                              (level, level))
    signed[rng.random(signed.shape) < 0.2] = -0.0
    # an all -0.0 grid keeps a -0.0 leading coefficient through both axes
    grids = [signed, np.full((n, n), -0.0), rng.random((n, n)),
             rng.standard_normal((n, n)), rng.random((2 * n, n))]
    for vals in grids:
        levels = (level, int(np.log2(vals.shape[0])))
        r2 = vals.shape[0]
        for K1, K2 in {(n, r2), (max(n // 2, 1), 1), (1, max(r2 - 1, 1))}:
            got = coeffs_from_values(vals, levels, WALSH, WALSH, K1, K2).entries
            want = _walsh_walsh_three_transforms(vals, levels, K1, K2)
            assert got.dtype == want.dtype
            for part in (np.real, np.imag):
                assert np.array_equal(part(got), part(want))
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_magnitudes_is_sequence(rng):
    a = CoeffMatrix(WALSH, WALSH, (rng.random((3, 5)) * 1j).astype(complex))
    mags = a.magnitudes
    assert isinstance(mags, Sequence2D)
    assert mags.dims == (3, 5)


def _fwht_stack(arr, axis):
    """Reference for ``fwht``: each butterfly stage stacks its sums and
    differences into a new array."""
    a = np.moveaxis(np.array(arr, dtype=float), axis, -1)
    n = a.shape[-1]
    h = 1
    while h < n:
        blocks = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = blocks[..., 0, :] + blocks[..., 1, :]
        bot = blocks[..., 0, :] - blocks[..., 1, :]
        a = np.stack([top, bot], axis=-2).reshape(a.shape)
        h *= 2
    return np.moveaxis(a, -1, axis)


@pytest.mark.parametrize("n", [2**k for k in range(11)])
def test_fwht_matches_stacked_butterflies(n):
    r = np.random.default_rng(n)
    for shape, axes in (((n, 3), (0,)), ((5, n), (1, -1)), ((n, n), (0, 1)),
                        ((3, n, 2), (1,)), ((n, 2, 4), (0,))):
        x = r.standard_normal(shape)
        x_before = x.copy()
        for axis in axes:
            assert np.array_equal(fwht(x, axis), _fwht_stack(x, axis))
        assert np.array_equal(x, x_before)  # the input is not written
    ro = r.random((4, n))
    ro.setflags(write=False)
    assert np.array_equal(fwht(ro, 1), _fwht_stack(ro, 1))


def _assert_same_bits(got, want):
    """Equal dtype, shape, values and signs of zero (real and imaginary)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    for part in (np.real, np.imag):
        assert np.array_equal(part(got), part(want))
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _bitrev_perm_loop(n_levels):
    """Reference for ``_bitrev_perm``: reverse the bits of each index."""
    size = 2**n_levels
    perm = np.zeros(size, dtype=int)
    for j in range(size):
        r = 0
        x = j
        for _ in range(n_levels):
            r = (r << 1) | (x & 1)
            x >>= 1
        perm[j] = r
    return perm


def _walsh_on_cells_popcount(k, level):
    """Reference for ``walsh_on_cells``: the parity of the bits that ``k``
    shares with the bit-reversed cell index."""
    bits = np.array([bin(r & k).count("1") for r in _bitrev_perm_loop(level)])
    return np.where(bits % 2 == 0, 1.0, -1.0)


def _trig_cell_matrix_loop(K, level):
    """Reference for ``_trig_cell_matrix``: one frequency row at a time."""
    h = 2.0**-level
    edges = np.arange(2**level + 1) * h
    freqs = np.array([trig_frequency(i) for i in range(K)])
    E = np.empty((K, 2**level), dtype=complex)
    for row, k in enumerate(freqs):
        if k == 0:
            E[row] = h
        else:
            ph = np.exp(-2j * np.pi * k * edges)
            E[row] = (ph[1:] - ph[:-1]) / (-2j * np.pi * k)
    return E


def _trig_gram_loop(count, level):
    """Reference for ``gram_matrix(TRIG, ...)``: one entry at a time."""
    freqs = [trig_frequency(i) for i in range(count)]
    G = np.empty((count, count), dtype=complex)
    edges = np.arange(2**level + 1) * 2.0**-level
    for m, km in enumerate(freqs):
        for n, kn in enumerate(freqs):
            d = km - kn
            if d == 0:
                G[m, n] = 1.0
            else:
                ph = np.exp(2j * np.pi * d * edges)
                G[m, n] = np.sum((ph[1:] - ph[:-1]) / (2j * np.pi * d))
    return G


def test_trig_frequency_array_matches_scalar():
    i = np.arange(50)
    got = trig_frequency(i)
    assert got.dtype == i.dtype
    assert got.tolist() == [trig_frequency(int(x)) for x in i]


@pytest.mark.parametrize("level", range(13))
def test_bitrev_perm_matches_bit_loop(level):
    _assert_same_bits(_bitrev_perm(level), _bitrev_perm_loop(level))


@pytest.mark.parametrize("level", range(11))
def test_walsh_on_cells_matches_popcount(level):
    ks = range(2**level) if level <= 8 else range(40)
    want = np.array([_walsh_on_cells_popcount(k, level) for k in ks])
    for k in ks:
        _assert_same_bits(walsh_on_cells(k, level), want[k])
    _assert_same_bits(walsh_on_cells(np.arange(len(ks)), level), want)


@pytest.mark.parametrize("level", range(11))
def test_trig_cell_matrix_matches_row_loop(level):
    for K in (1, 2, 3, 33, 64, 128, 256):
        _assert_same_bits(_trig_cell_matrix(K, level),
                          _trig_cell_matrix_loop(K, level))


@pytest.mark.parametrize("count,level", [(32, 5), (40, 6)])
def test_trig_gram_matches_entry_loop(count, level):
    _assert_same_bits(gram_matrix(TRIG, count, level), _trig_gram_loop(count, level))


def _fwht_strided(arr, axis):
    """Reference for ``fwht``: the butterflies over strided views with the
    transform axis last, whose inner runs are h = 1, 2, 4, ... long."""
    a = np.array(np.moveaxis(np.asarray(arr), axis, -1), dtype=float, order="C")
    n = a.shape[-1]
    b = np.empty_like(a)
    h = 1
    while h < n:
        shp = a.shape[:-1] + (n // (2 * h), 2, h)
        src, dst = a.reshape(shp), b.reshape(shp)
        np.add(src[..., 0, :], src[..., 1, :], out=dst[..., 0, :])
        np.subtract(src[..., 0, :], src[..., 1, :], out=dst[..., 1, :])
        a, b = b, a
        h *= 2
    return np.moveaxis(a, -1, axis)


def _words(x):
    """The 64-bit words of ``x`` in C order: equal words are equal values
    with equal signs of zero."""
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", [2**k for k in range(11)])
def test_fwht_matches_strided_butterflies(n):
    r = np.random.default_rng(300 + n)
    for shape, axes in (((n, 2, 3), (0,)), ((2, n, 3), (1, -2)), ((2, 3, n), (-1,)),
                        ((4, n), (1, -1)), ((n, 4), (0, -2))):
        x = r.integers(-2, 3, shape).astype(float)  # ties give zeros of both signs
        x[r.random(shape) < 0.2] = -0.0
        for axis in axes:
            got, want = fwht(x, axis), _fwht_strided(x, axis)
            assert got.shape == want.shape
            assert np.array_equal(_words(got), _words(want))


@pytest.mark.parametrize("n", [3, 6, 12])
def test_fwht_rejects_lengths_not_a_power_of_two(n):
    with pytest.raises(ValueError, match="power of two"):
        fwht(np.ones((2, n)), 1)
    with pytest.raises(ValueError, match="power of two"):
        fwht(np.ones(n), 0)


def _walsh_axis_strided(vals, axis, level, K):
    """Reference for Walsh ``_coeffs_axis``: gather, :func:`_fwht_strided`,
    scale and cut, each in a new array."""
    reordered = np.take(vals, _bitrev_perm(level), axis=axis)
    coeffs = _fwht_strided(reordered, axis) * 2.0**-level
    return np.take(coeffs, np.arange(K), axis=axis)


def _coeffs_strided(f, sys1, sys2, K1, K2):
    """Reference for ``coeffs_2d``: the complex path over the strided
    transform."""
    (n1, n2), v = f.levels, np.asarray(f.values)
    if sys1.kind == "walsh":
        a1 = _walsh_axis_strided(v, 1, n1, K1).astype(complex)
    else:
        a1 = v @ _trig_cell_matrix(K1, n1).T
    if sys2.kind == "walsh":
        a = _walsh_axis_strided(a1.real, 0, n2, K2) + (
            0j if sys1.kind == "walsh" else 1j * _walsh_axis_strided(a1.imag, 0, n2, K2))
    else:
        a = _trig_cell_matrix(K2, n2) @ a1
    return np.array(a.T, dtype=complex)


def test_walsh_coeffs_finite_when_cell_values_sum_past_the_float_range():
    # the cell sums overflow, the means do not: the (0, 0) coefficient is
    # (1.7e308 + 1e308 + 1) / 4
    f = DyadicStep2D((1, 1), [[1.7e308, 1e308], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = coeffs_2d(f, WALSH, WALSH, 2, 2).entries.real
    assert a[0, 0] == 6.75e307
    assert np.isfinite(a).all()


@pytest.mark.parametrize("levels", [(0, 0), (3, 4), (6, 5)])
def test_walsh_coeffs_scale_exactly_up_to_the_float_maximum(levels):
    # 2^j v gives 2^j times the coefficients of v, bit for bit, also where
    # the transform has to scale the values down to keep its sums finite
    n1, n2 = levels
    v = np.random.default_rng(n1 + n2).uniform(-1, 1, (2**n2, 2**n1))
    want = coeffs_from_values(v, levels, WALSH, WALSH, 2**n1, 2**n2).entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (1, 300, 1000, 1018, 1021, 1023):
            got = coeffs_from_values(v * 2.0**j, levels, WALSH, WALSH,
                                     2**n1, 2**n2).entries
            assert np.array_equal(_words(got), _words(want * 2.0**j))


@pytest.mark.parametrize("levels", [(0, 2), (3, 4), (5, 5), (6, 3)])
def test_coeffs_match_the_strided_complex_path(levels):
    """Bitwise, signs of zero included (the ``coeffs`` JSON prints them), and
    in the same memory layout, which the sums downstream follow."""
    r = np.random.default_rng(sum(levels))
    n1, n2 = levels
    vals = r.integers(0, 3, (2**n2, 2**n1)).astype(float)
    vals[r.random(vals.shape) < 0.3] = -0.0
    for f in (DyadicStep2D(levels, vals), DyadicStep2D(levels, np.full(vals.shape, -0.0)),
              DyadicStep2D(levels, r.random(vals.shape))):
        for sys1, sys2 in ((WALSH, WALSH), (WALSH, TRIG), (TRIG, WALSH), (TRIG, TRIG)):
            for K1, K2 in {(2**n1, 2**n2), (max(2**n1 // 2, 1), max(2**n2 - 1, 1))}:
                got = coeffs_2d(f, sys1, sys2, K1, K2).entries
                want = _coeffs_strided(f, sys1, sys2, K1, K2)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert np.array_equal(_words(got), _words(want))


@pytest.mark.parametrize("systems", [(WALSH, WALSH), (TRIG, TRIG),
                                     (WALSH, TRIG), (TRIG, WALSH)],
                         ids=lambda s: f"{s[0].kind}-{s[1].kind}")
@pytest.mark.parametrize("levels", [(0, 0), (3, 4), (5, 5)])
def test_stacked_items_are_their_own_calls(levels, systems):
    # each Walsh item is scaled by its own power of two: an item that needs
    # scaling does not move the bits of one that does not; each trig item
    # is its own BLAS call
    n1, n2 = levels
    r = np.random.default_rng(n1 + 7 * n2)
    vals = r.uniform(-1, 1, (2, 3, 2**n2, 2**n1))
    vals[0, 1] *= 2.0**1023
    vals[1, 0] = -0.0
    vals[1, 2][r.random((2**n2, 2**n1)) < 0.3] = -0.0
    K = (2**n1, max(2**n2 // 2, 1))
    got = _tensor_coeffs(vals, levels, *systems, *K)
    assert got.shape == (2, 3, K[1], K[0])
    for i in np.ndindex(2, 3):
        want = coeffs_from_values(vals[i], levels, *systems, *K).entries
        # CoeffMatrix keeps the memory order of the item it is given
        ent = CoeffMatrix(*systems, got[i].T).entries
        assert ent.flags.f_contiguous and want.flags.f_contiguous
        assert np.array_equal(_words(ent), _words(want))


def test_stacked_block_sums_are_each_matrix_s():
    r = np.random.default_rng(3)
    mats = [coeffs_2d(DyadicStep2D((3, 2), r.random((4, 8))), WALSH, WALSH, 8, 4)
            for _ in range(3)]
    mats.append(coeffs_2d(DyadicStep2D((3, 2), np.zeros((4, 8))), WALSH, WALSH, 8, 4))
    mags = np.stack([np.abs(a.entries) for a in mats])
    for order, r_of in (("seq", _rearranged_support),
                        ("fun", lambda m: _rearranged_values(m.swapaxes(-1, -2))
                         .swapaxes(-1, -2))):
        for N1, N2 in ((1, 1), (3, 2), (8, 4)):
            got = _block_l2_of(r_of(mags), N1, N2, fortran=True)
            want = [block_l2(a, N1, N2, order) for a in mats]
            assert np.array_equal(_words(got), _words(np.array(want)))
