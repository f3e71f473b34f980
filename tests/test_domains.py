"""The domain of every public pair argument, in one table.

One rule checks each argument: ``stepfun._pair`` the real pairs (p, q,
theta, t, (q, r) and the corners), ``stepfun._integer`` and
``stepfun._levels`` the integers, ``fourier._systems`` the systems.  A
malformed value raises a ``ValueError`` that names the argument, never an
IndexError, TypeError, ZeroDivisionError or AttributeError, and every form
of an accepted value gives the bits of its tuple of floats.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz_forge.fourier import (TRIG, WALSH, block_l2, block_sup_lhs,
                                   bochkarev_lhs, coeffs_2d, gram_matrix)
from lorentz_forge.interpolation import constant_D, interp_norm, k_upper, theta_from_p
from lorentz_forge.norms import (Exponents, GrandParams, discrete_grand_norm_P6,
                                 logweight_sup_norm, mixed_lebesgue_norm)
from lorentz_forge.stepfun import DyadicStep1D, DyadicStep2D, evaluate, indicator_grid
from lorentz_forge.verify.checks import check_hardy, check_le3, run_suite
from lorentz_forge.verify.hardy import (hardy_ascent_lhs, hardy_ascent_rhs,
                                        hardy_descent_lhs, hardy_descent_rhs,
                                        hardy_grid)
from lorentz_forge.verify.report import CheckReport

pytestmark = pytest.mark.filterwarnings("error")

NAN, INF = float("nan"), float("inf")

# zero on the cells touching t = 1, so the log-weighted form is finite
F = DyadicStep2D((2, 2), np.pad(np.arange(1.0, 10.0).reshape(3, 3), ((0, 1), (0, 1))))
E = Exponents((2, 2), (2, 2))
A = coeffs_2d(F, WALSH, WALSH, 4, 4)
PROF = DyadicStep1D(2, [4.0, 3.0, 2.0, 1.0])


class Site:
    """One public pair argument: ``call(v)`` passes ``v`` as the argument
    (``spread``: as two positional arguments), ``good`` is an accepted
    value as a tuple of floats, ``out`` a pair outside the domain, and the
    error matches ``name``."""

    def __init__(self, id, call, name, good, out, inf=True, spread=False):
        self.id, self.call, self.name, self.good = id, call, name, good
        self.out, self.inf, self.spread = out, inf, spread

    def __call__(self, v):
        return self.call(*v) if self.spread else self.call(v)


SITES = [
    Site("Exponents.p", lambda v: Exponents(v, (2, 2)), "p components",
         (2.0, 3.0), (0.0, 2.0)),
    Site("Exponents.q", lambda v: Exponents((2, 2), v), "q components",
         (1.0, 4.0), (-1.0, 2.0)),
    Site("GrandParams.theta", GrandParams, "theta", (0.5, 0.25), (0.5, -0.5)),
    Site("mixed_lebesgue_norm.p", lambda v: mixed_lebesgue_norm(F, v), "p components",
         (1.0, 3.0), (0.0, 1.0)),
    Site("logweight_sup_norm.p", lambda v: logweight_sup_norm(F, v, (0.5, 0.5)),
         "p components", (2.0, 3.0), (INF, 2.0), inf=False),
    Site("logweight_sup_norm.theta", lambda v: logweight_sup_norm(F, (2, 2), v),
         "theta components", (0.5, 1.0), (0.0, 0.5), inf=False),
    Site("discrete_grand_norm_P6.theta", lambda v: discrete_grand_norm_P6(F, E, v, 8),
         "theta components", (0.5, 1.0), (0.5, INF), inf=False),
    Site("discrete_grand_norm_P6.p",
         lambda v: discrete_grand_norm_P6(F, Exponents(v, (2, 2)), (0.5, 0.5), 8),
         "p components", (2.0, 3.0), (INF, 2.0), inf=False),
    Site("theta_from_p.p", theta_from_p, "p components", (1.25, 1.5), (2.0, 1.5), inf=False),
    Site("constant_D.theta", lambda v: constant_D(v, (2, 2)), "theta components",
         (0.25, 0.5), (0.0, 0.5), inf=False),
    Site("constant_D.q", lambda v: constant_D((0.5, 0.5), v), "q components",
         (1.0, 4.0), (0.0, 2.0)),
    Site("interp_norm.theta", lambda v: interp_norm(F, v, (2, 2), 4), "theta components",
         (0.25, 0.5), (1.0, 0.5), inf=False),
    Site("interp_norm.q", lambda v: interp_norm(F, (0.5, 0.5), v, 4), "q components",
         (1.0, 4.0), (-1.0, 2.0)),
    Site("k_upper.t", lambda t1, t2: k_upper(F, t1, t2), r"\(t1, t2\)", (0.5, 2.0),
         (0.5, INF), inf=False, spread=True),
    Site("evaluate.t", lambda t1, t2: evaluate(F, t1, t2), r"\(t1, t2\)", (0.3, 0.7),
         (0.0, 0.5), spread=True),
    Site("indicator_grid.corner", lambda a1, a2: indicator_grid(a1, a2, (2, 2)),
         r"corner \(a1, a2\)", (0.5, 0.25), (-0.5, 0.5), inf=False, spread=True),
    Site("bochkarev_lhs.q", lambda v: bochkarev_lhs(A, v), "q components",
         (2.0, 4.0), (1.0, 2.0)),
    Site("block_sup_lhs.q", lambda v: block_sup_lhs(A, v), "q components",
         (2.0, 4.0), (2.0, 1.5)),
    *(Site(f"{display.__name__}.qr", lambda q, r, d=display: d(PROF, q, r, 0.5),
           r"\(q, r\)", (2.0, 1.0), (0.0, 1.0), spread=True)
      for display in (hardy_descent_lhs, hardy_descent_rhs, hardy_ascent_lhs,
                      hardy_ascent_rhs)),
    Site("hardy_grid.qr", lambda q, r: hardy_grid(PROF, q, r, [0.5, 0.25], True),
         r"\(q, r\)", (2.0, 1.0), (2.0, -1.0), spread=True),
    Site("check_hardy.qr", lambda q, r: check_hardy(q, r, [0.5, 0.25]), r"\(q, r\)",
         (2.0, 1.0), (2.0, 0.0), spread=True),
]


def _malformed(site):
    g0, g1 = site.good
    bad = [(NAN, g1), (g0, NAN), site.out]
    if site.spread:  # two arguments: each must be a real number
        return bad + [(None, g1), ("2", g1), (g0, b"2")]
    return bad + [(g0,), (g0, g1, g0), None, "22", ("2", "2"), [g0, None]]


# the calls that failed with another error type before the one rule, and
# the argument the error names now
STRAYS = [
    # IndexError
    (lambda: logweight_sup_norm(F, (2, 2), (1,)), "theta"),
    (lambda: discrete_grand_norm_P6(F, E, (1,)), "theta"),
    (lambda: bochkarev_lhs(A, (2,)), "q"),
    (lambda: block_sup_lhs(A, (2,)), "q"),
    (lambda: theta_from_p((1.5,)), "p"),
    # TypeError
    (lambda: GrandParams(("a", "b")), "theta"),
    (lambda: GrandParams(None), "theta"),
    (lambda: Exponents(("2", "2"), (2, 2)), "p"),
    (lambda: k_upper(F, "a", 0.5), "t1, t2"),
    (lambda: block_l2(A, 2.5, 2), "N1"),
    (lambda: hardy_descent_lhs(PROF, "2", 1, 0.5), "q, r"),
    # an unpacking error that named no argument
    (lambda: GrandParams((0.5, 0.5, 0.5)), "theta"),
    (lambda: constant_D((0.5,), (2, 2)), "theta"),
    (lambda: interp_norm(F, (0.5, 0.5, 0.5), (2, 2)), "theta"),
    # ZeroDivisionError
    (lambda: hardy_ascent_rhs(PROF, 2, 0, 0.5), "q, r"),
    (lambda: check_hardy(0.0, 1.0, [0.5]), "q, r"),
    # AttributeError: a system given by its name
    (lambda: coeffs_2d(F, "walsh", WALSH, 4, 4), "systems"),
    (lambda: gram_matrix("walsh", 4, 2), "systems"),
    (lambda: check_le3([F], ("walsh", "walsh")), "systems"),
    # numpy's TypeError or ValueError on the seed, a run at seed 1, and a
    # level that karamata and hardy never read
    (lambda: run_suite("hardy", 1.5), "seed"),
    (lambda: run_suite("karamata", True), "seed"),
    (lambda: run_suite("karamata", -1), "seed"),
    (lambda: run_suite("karamata", 7, (5,)), "level"),
    (lambda: run_suite("hardy", 7, None), "level"),
]


@pytest.mark.parametrize("call, name", STRAYS, ids=range(len(STRAYS)))
def test_strays_raise_value_error_naming_the_argument(call, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call()


@pytest.mark.parametrize("site, value", [
    pytest.param(site, v, id=f"{site.id}-{v!r}") for site in SITES for v in _malformed(site)])
def test_malformed_pair_raises_naming_the_argument(site, value):
    with pytest.raises(ValueError, match=site.name):
        site(value)


# the integer and system arguments: (call, malformed value, name)
OTHERS = [
    *((lambda v: block_l2(A, v, 1), v, "N1") for v in (2.5, True, None, "2", NAN, 0, 5)),
    *((lambda v: block_l2(A, 1, v), v, "N2") for v in (2.0, False, -1)),
    *((lambda v: run_suite("karamata", v), v, "seed")
      for v in (1.5, True, -1, None, "7", NAN)),
    *((lambda v: run_suite("hardy", 7, v), v, "level")
      for v in ((5,), (5, 5, 5), None, "55", (NAN, 5), (-1, 5), (True, 5), (5, 2.5))),
    *((lambda v: coeffs_2d(F, v, WALSH, 2, 2), v, "systems") for v in ("walsh", None, NAN)),
    *((lambda v: gram_matrix(v, 4, 2), v, "systems") for v in ("trig", None)),
    *((lambda v: check_le3([F], v), v, "systems")
      for v in ((WALSH,), (WALSH, WALSH, WALSH), None, "walsh", ("walsh", WALSH),
                (TRIG, NAN))),
]


@pytest.mark.parametrize("call, value, name", [
    pytest.param(*case, id=f"{case[2]}-{i}-{case[1]!r}") for i, case in enumerate(OTHERS)])
def test_malformed_integer_or_system_raises_naming_the_argument(call, value, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(value)


def _bits(x):
    """``x`` as a comparable key of its float bits: a report by its cases,
    a dataclass by its fields, containers item by item."""
    if isinstance(x, CheckReport):
        return _bits((x.check_id, x.corpus_hash, x.cases))
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, str):
        return x
    return np.float64(x).tobytes()


def _accepted(site):
    """The forms of ``site.good``, and of it with an infinite first
    component where the domain has one."""
    goods = [site.good] + ([(INF, site.good[1])] if site.inf else [])
    out = []
    for g0, g1 in goods:
        forms = [(np.float64(g0), g1), (g0, np.float64(g1))]
        if not site.spread:
            forms += [[g0, g1], np.array([g0, g1]), np.array([g0, g1], dtype=object)]
        if g0 != INF and g0 == int(g0):
            forms += [(int(g0), g1), (np.int64(g0), g1)]
        if g1 == int(g1):
            forms.append((g0, int(g1)))
        out += [(g0, g1, form) for form in forms]
    return out


@pytest.mark.parametrize("site, want, form", [
    pytest.param(site, (g0, g1), form, id=f"{site.id}-{form!r}")
    for site in SITES for g0, g1, form in _accepted(site)])
def test_accepted_forms_give_the_bits_of_the_float_tuple(site, want, form):
    assert _bits(site(form)) == _bits(site(want))


@pytest.mark.parametrize("call, forms", [
    (lambda v: block_l2(A, *v), [(2, 1), (np.int64(2), 1), (2, np.uint8(1))]),
    (lambda v: run_suite("karamata", v), [3, np.int64(3), np.uint16(3)]),
    (lambda v: run_suite("mink", 3, v), [(1, 2), [1, 2], np.array([1, 2]), (np.int64(1), 2)]),
    (lambda v: coeffs_2d(F, *v, 2, 2), [(TRIG, WALSH), [TRIG, WALSH]]),
    (lambda v: check_le3([F], v, Ns=((1, 1),)), [(TRIG, WALSH), [TRIG, WALSH]]),
], ids=["block_l2", "run_suite.seed", "run_suite.level", "coeffs_2d", "check_le3"])
def test_accepted_integer_and_system_forms_agree(call, forms):
    want = _bits(call(forms[0]))
    for form in forms[1:]:
        assert _bits(call(form)) == want


_atoms = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=3), st.none())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SITES), st.lists(_atoms, max_size=3))
def test_pair_arguments_return_the_float_tuple_value_or_raise_value_error(site, value):
    if site.spread and len(value) != 2:  # the call itself would take other arguments
        value = (value + [site.good[0]] * 2)[:2]
    try:
        got = site(value)
    except ValueError:
        return
    assert _bits(got) == _bits(site(tuple(map(float, value))))
