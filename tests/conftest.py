import numpy as np
import pytest

from lorentz_forge.stepfun import DyadicStep2D

INF = float("inf")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_grids(count, levels=(4, 4), seed=12345):
    """Deterministic batch of random step functions for property tests."""
    r = np.random.default_rng(seed)
    n1, n2 = levels
    return [DyadicStep2D(levels, r.random((2**n2, 2**n1)))
            for _ in range(count)]


# the rearrangement and the block table as plain whole-array sorts and
# cumsums, kept as references: the package's passes must give their bits


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


def same_bits(got, want):
    """Equal shapes and equal bits, signs of zero and nan payloads included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and \
        np.array_equal(got.view(np.int64), want.view(np.int64))
