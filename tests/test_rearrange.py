import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_rearranged_values, ref_sort_desc, same_bits
from lorentz_forge.norms import Exponents, lorentz_norm
from lorentz_forge.rearrange import (Sequence2D, _rearranged_values,
                                     distribution_function,
                                     iterated_rearrange_2d,
                                     iterated_rearrange_seq,
                                     iterated_rearrange_seq_first_index,
                                     rearrange_1d)
from lorentz_forge.stepfun import DyadicStep1D, DyadicStep2D, constant_grid

finite_vals = st.lists(st.floats(min_value=0, max_value=100), min_size=4,
                       max_size=4)


class TestRearrange1D:
    def test_sorts_descending(self):
        g = DyadicStep1D(2, np.array([1.0, 3.0, 2.0, 3.0]))
        assert rearrange_1d(g).values.tolist() == [3.0, 3.0, 2.0, 1.0]

    def test_constant_fixed_point(self):
        g = DyadicStep1D(1, np.array([2.0, 2.0]))
        assert rearrange_1d(g).values.tolist() == [2.0, 2.0]

    def test_two_cell_swap(self):
        g = DyadicStep1D(1, np.array([0.0, 5.0]))
        assert rearrange_1d(g).values.tolist() == [5.0, 0.0]

    @given(finite_vals)
    def test_equals_sorted_multiset(self, vals):
        g = DyadicStep1D(2, np.array(vals))
        assert rearrange_1d(g).values.tolist() == sorted(vals, reverse=True)


class TestDistributionFunction:
    def test_counts_cells_above(self):
        g = DyadicStep1D(2, np.array([3.0, 3.0, 2.0, 1.0]))
        assert distribution_function(g, 2.0) == 0.5

    def test_above_max_is_zero(self):
        g = DyadicStep1D(1, np.array([1.0, 2.0]))
        assert distribution_function(g, 2.0) == 0.0

    def test_full_mass_at_zero_threshold(self):
        g = DyadicStep1D(3, np.ones(8))
        assert distribution_function(g, 0.0) == 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            distribution_function(DyadicStep1D(0, np.array([1.0])), -1.0)

    def test_equimeasurability_100_thresholds(self, rng):
        g = DyadicStep1D(5, rng.random(32))
        h = rearrange_1d(g)
        for sigma in np.linspace(0, 1.1, 100):
            assert distribution_function(g, sigma) == \
                distribution_function(h, sigma)


class TestIterated2D:
    def test_two_pass_example(self):
        f = DyadicStep2D((1, 1), [[1.0, 4.0], [3.0, 2.0]])
        assert iterated_rearrange_2d(f).values.tolist() == [[4.0, 2.0], [3.0, 1.0]]

    def test_constant_fixed_point(self):
        f = constant_grid(2.0, (2, 2))
        assert np.array_equal(iterated_rearrange_2d(f).values, f.values)

    def test_tensor_factorization_200_instances(self):
        r = np.random.default_rng(99)
        for _ in range(200):
            u, w = r.random(4), r.random(4)
            f = DyadicStep2D((2, 2), np.outer(w, u))
            got = iterated_rearrange_2d(f).values
            want = np.outer(np.sort(w)[::-1], np.sort(u)[::-1])
            assert np.allclose(got, want, rtol=0, atol=0)

    def test_idempotent(self, rng):
        f = DyadicStep2D((3, 3), rng.random((8, 8)))
        once = iterated_rearrange_2d(f)
        twice = iterated_rearrange_2d(once)
        assert np.array_equal(once.values, twice.values)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    def test_row_column_monotone_exhaustive(self, shape):
        # all grids over {0,1,2}: output nonincreasing along both axes
        n = shape[0] * shape[1]
        level = {2: (1, 1), 3: None}[shape[0]]
        for combo in itertools.product((0.0, 1.0, 2.0), repeat=n):
            vals = np.array(combo).reshape(shape)
            if level is None:
                # 3x3 is not dyadic; exercise the raw two-pass kernel
                v = -np.sort(-vals, axis=1)
                v = -np.sort(-v, axis=0)
            else:
                v = iterated_rearrange_2d(DyadicStep2D(level, vals)).values
            assert np.all(np.diff(v, axis=0) <= 0)
            assert np.all(np.diff(v, axis=1) <= 0)


class TestIteratedSeq:
    def test_reverse_order_example(self):
        a = Sequence2D(np.array([[1.0, 4.0], [3.0, 2.0]]))
        assert iterated_rearrange_seq(a).entries.tolist() == [[4.0, 2.0], [3.0, 1.0]]

    def test_single_entry_moves_to_corner(self):
        a = np.zeros((3, 4))
        a[2, 1] = 7.0
        got = iterated_rearrange_seq(Sequence2D(a)).entries
        assert got[0, 0] == 7.0
        assert np.sum(got) == 7.0

    def test_all_equal_fixed_point(self):
        a = Sequence2D(np.full((2, 3), 1.5))
        assert np.array_equal(iterated_rearrange_seq(a).entries, a.entries)

    def test_first_index_order_differs_in_general(self):
        a = Sequence2D(np.array([[10.0, 0.0], [9.0, 9.0]]))
        seq = iterated_rearrange_seq(a).entries
        fun = iterated_rearrange_seq_first_index(a).entries
        assert seq.tolist() == [[10.0, 9.0], [9.0, 0.0]]
        assert fun.tolist() == [[10.0, 9.0], [9.0, 0.0]]
        b = Sequence2D(np.array([[0.0, 5.0, 1.0], [4.0, 2.0, 0.0]]))
        # multisets agree even when the arrangements differ
        s = iterated_rearrange_seq(b).entries
        t = iterated_rearrange_seq_first_index(b).entries
        assert sorted(s.ravel()) == sorted(t.ravel())

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            Sequence2D(np.array([[1.0, -2.0]]))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (3,), (2, 2, 2), ()])
    def test_entries_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ValueError):
            Sequence2D(np.zeros(shape))


@settings(max_examples=25)
@given(st.lists(st.floats(min_value=0, max_value=10), min_size=16, max_size=16))
def test_2d_rearrangement_preserves_multiset(vals):
    f = DyadicStep2D((2, 2), np.array(vals).reshape(4, 4))
    g = iterated_rearrange_2d(f)
    assert sorted(g.values.ravel()) == sorted(f.values.ravel())


def _values(shape, seed):
    """Random values with ties and zeros, signed zeros among them."""
    v = np.random.default_rng(seed).integers(0, 5, shape) * 0.25
    v[v == 0.5] = -0.0
    return v


class TestRearrangedValuesMatchReference:
    """The rearrangement sorts on a padded row pitch and returns a new C
    ordered array; its bits are those of the unpadded negate-sort-sort in
    the input's layout."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (8, 32), (32, 8),
                                       (33, 70), (64, 64), (5, 32, 32), (2, 3, 8, 4)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_and_layout(self, shape, order):
        v = np.asarray(_values(shape, len(shape) + shape[-1]), order=order)
        before = v.copy(order="K")
        got = _rearranged_values(v)
        assert got.flags.c_contiguous and got.base is None
        assert same_bits(got, ref_rearranged_values(v))
        assert same_bits(v, before) and v.flags[order + "_CONTIGUOUS"]  # not written

    def test_stack_is_per_item(self):
        v = _values((6, 32, 32), 3)
        got = _rearranged_values(v)
        for item, row in zip(v, got):
            assert same_bits(row, _rearranged_values(item))

    def test_read_only_and_strided_input(self):
        v = _values((16, 48), 4)
        v.setflags(write=False)
        assert same_bits(_rearranged_values(v), ref_rearranged_values(v))
        cut = _values((40, 40), 5)[::2, 1::3]  # neither C nor F contiguous
        assert same_bits(_rearranged_values(cut), ref_rearranged_values(cut))

    def test_public_passes_keep_their_bits(self):
        for shape in ((1, 1), (4, 8), (16, 4), (32, 32)):
            for order in ("C", "F"):
                e = np.asarray(np.abs(_values(shape, shape[0])), order=order)
                a = Sequence2D(e)
                assert same_bits(iterated_rearrange_seq(a).entries,
                                 ref_rearranged_values(e))
                want = ref_sort_desc(ref_sort_desc(e, axis=0), axis=1)
                got = iterated_rearrange_seq_first_index(a).entries
                assert same_bits(got, want)
                if order == "F":  # the layout of a coefficient matrix's magnitudes
                    assert got.flags.f_contiguous == want.flags.f_contiguous
        g = DyadicStep1D(6, np.abs(_values(64, 6)))
        assert same_bits(rearrange_1d(g).values, ref_sort_desc(g.values, axis=0))


@pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
def test_lorentz_norm_runs_under_a_profiler_or_tracer(hook):
    # a profiler or a Python-level tracer holds one more reference to the
    # sort buffer while it shrinks to the result; the values stay the same
    vals = np.random.default_rng(3).random((64, 32))
    e = Exponents((2.0, 3.0), (1.5, 4.0))
    want = lorentz_norm(DyadicStep2D((5, 6), vals), e)

    def tracer(frame, event, arg):
        return tracer

    old = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
    hook(tracer)
    try:
        got = lorentz_norm(DyadicStep2D((5, 6), vals), e)
    finally:
        hook(old)
    assert got.hex() == want.hex()
