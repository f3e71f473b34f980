"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here; calibrated thresholds come from the shipped calibration file and the
regression-pinned ratio table.
"""

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import lorentz_forge as lf
from lorentz_forge.verify import checks
from lorentz_forge.verify.calibration import calibration, pinned_ratios
from lorentz_forge.verify.corpus import CorpusSpec, generate
from lorentz_forge.verify.report import write_reports

INF = float("inf")
SEED = 7


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = time.time()
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL ({time.time()-t0:6.1f}s): {desc}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS ({time.time()-t0:6.1f}s): {desc}")
        return wrapper
    return deco


def _two_pass(vals):
    v = -np.sort(-np.asarray(vals, dtype=float), axis=1)
    return -np.sort(-v, axis=0)


@functools.lru_cache(maxsize=None)
def _sigma_scan_row(row):
    from lorentz_forge.oracles import _sigma_scan_desc

    return tuple(_sigma_scan_desc(np.array(row)))


def _sigma_scan(vals):
    # memoized over row patterns: the scan is a pure function and the
    # exhaustive sweep revisits the same few integer rows constantly
    v = np.vstack([_sigma_scan_row(tuple(r))
                   for r in np.asarray(vals, dtype=float)])
    return np.column_stack([_sigma_scan_row(tuple(c)) for c in v.T])


@criterion(1, "rearrangement exactness vs sigma-scan oracle, equimeasurability")
def test_criterion_1_rearrangement():
    for shape in ((2, 2), (3, 3)):
        n = shape[0] * shape[1]
        for combo in itertools.product((0.0, 1.0, 2.0), repeat=n):
            vals = np.array(combo).reshape(shape)
            assert np.array_equal(_two_pass(vals), _sigma_scan(vals))
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        f = lf.DyadicStep2D((5, 5), rng.random((32, 32)))
        assert np.array_equal(lf.iterated_rearrange_2d(f).values,
                              lf.oracle_rearrange(f).values)
    g = lf.DyadicStep1D(5, rng.random(32))
    h = lf.rearrange_1d(g)
    for sigma in np.linspace(0.0, 1.1, 100):
        assert lf.distribution_function(g, sigma) == \
            lf.distribution_function(h, sigma)


@criterion(2, "closed-form norm values and quadrature-oracle agreement")
def test_criterion_2_norms():
    one = lf.constant_grid(1.0, (3, 3))
    assert lf.lorentz_norm(one, lf.Exponents((2, 2), (1, 1))) == \
        pytest.approx(4.0, abs=1e-12)
    # the 1/4 indicator example: the quarter square [0,1/2)^2 (its L_(1,1)
    # norm is its measure); the half strip [0,1/2)x[0,1) evaluates to 1/2
    quarter = lf.indicator_grid(0.5, 0.5, (1, 1))
    assert lf.lorentz_norm(quarter, lf.Exponents((1, 1), (1, 1))) == \
        pytest.approx(0.25, abs=1e-12)
    rng = np.random.default_rng(SEED + 1)
    params = [((2, 2), (1, 1)), ((1.5, 3), (2, 1)), ((2, 2), (INF, INF)),
              ((4, 1.2), (0.7, 2)), ((2, 2), (2, 2))]
    for i in range(50):
        f = lf.DyadicStep2D((5, 5), rng.random((32, 32)))
        e = lf.Exponents(*params[i % len(params)])
        assert lf.oracle_lorentz_norm(f, e).value == \
            pytest.approx(lf.lorentz_norm(f, e), rel=1e-6)


@criterion(3, "Walsh Parseval at 1e-10 and trig Bessel monotonicity")
def test_criterion_3_parseval():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        f = lf.DyadicStep2D((6, 6), rng.random((64, 64)))
        a = lf.coeffs_2d(f, lf.WALSH, lf.WALSH, 64, 64)
        assert abs(np.sum(np.abs(a.entries) ** 2)
                   - lf.mixed_lebesgue_norm(f, (2, 2)) ** 2) <= 1e-10
    for _ in range(5):
        f = lf.DyadicStep2D((4, 4), rng.random((16, 16)))
        total = lf.mixed_lebesgue_norm(f, (2, 2)) ** 2
        prev = 0.0
        for K in (2, 4, 8, 16, 32):
            s = float(np.sum(np.abs(lf.coeffs_2d(f, lf.TRIG, lf.TRIG,
                                                 K, K).entries) ** 2))
            assert prev - 1e-12 <= s <= total + 1e-10
            prev = s


@criterion(4, "embedding chain and smoothness monotonicity at constant 1")
def test_criterion_4_embeddings():
    corpus = generate(CorpusSpec("random_step", (5, 5), 100, SEED))
    thetas = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)]
    for th in thetas:
        rep = checks.check_embeddings_chain(corpus, th)
        assert rep.passed, (th, rep.max_ratio)
    for th, s in (((0.25, 0.25), (0.5, 0.5)), ((0.25, 0.5), (1.0, 1.0)),
                  ((0.5, 1.0), (1.0, 1.0))):
        rep = checks.check_p1_monotone(corpus, th, s)
        assert rep.passed
    rep = checks.check_collapse(corpus)
    assert rep.passed and "inexact" not in rep.notes


@criterion(5, "Karamata p-th power sums on 500 majorization pairs")
def test_criterion_5_karamata():
    from lorentz_forge.verify.corpus import generate_karamata_pairs

    pairs = generate_karamata_pairs(500, SEED)
    for p in (0.5, 1.0, 2.0, 3.0):
        rep = checks.check_karamata(pairs, p)
        assert rep.passed, (p, rep.max_ratio)


@criterion(6, "rearranged Minkowski inequalities, both directions")
def test_criterion_6_mink():
    corpus = generate(CorpusSpec("random_step", (5, 5), 100, SEED))
    for p, q in ((1, 2), (1, INF), (2, 4)):
        rep = checks.check_mink(corpus, p, q)
        assert rep.passed, (p, q, rep.max_ratio)


@criterion(7, "Hardy displays: constant below 8, alpha-uniformity within 2x")
def test_criterion_7_hardy():
    alphas = 2.0 ** -np.arange(1, 11)
    for q in (1.0, 2.0, INF):
        for r in (1.0, 2.0, INF):
            rep = checks.check_hardy(q, r, alphas, SEED)
            assert rep.passed, (q, r, rep.max_ratio)
            assert rep.notes["uniformity_pass"], (q, r, rep.notes)


@criterion(8, "coefficient block bounds (four displays) at 1e-9")
def test_criterion_8_le3():
    corpus = generate(CorpusSpec("random_step", (5, 5), 100, SEED))
    rep = checks.check_le3(corpus, (lf.WALSH, lf.WALSH),
                           Ns=((2, 2), (8, 8), (32, 32)))
    assert rep.passed, rep.max_ratio
    assert rep.notes["fun_order_max_ratio_vs_parseval"] <= 1.0 + 1e-9
    rep_trig = checks.check_le3(corpus[:20], (lf.TRIG, lf.TRIG),
                                Ns=((2, 2), (8, 8), (32, 32)))
    assert rep_trig.passed, rep_trig.max_ratio


@criterion(9, "coefficient block norm within 4 * 6 D(theta), D-compatible growth")
def test_criterion_9_te3():
    cal = calibration()
    pinned = pinned_ratios()["te3"]
    reports = checks.suite_te3(SEED)
    per_q = {}
    for r in reports:
        assert r.passed, (r.params, r.max_ratio)
        key = "|".join([",".join(f"{t:g}" for t in r.params["theta"]),
                        ",".join(map(str, r.params["q"]))])
        assert r.max_ratio == pytest.approx(pinned[key], rel=1e-9), key
        per_q.setdefault(tuple(r.params["q"]), []).append(r.max_ratio)
    for q, ratios in per_q.items():
        span = max(ratios) / min(ratios)
        assert span <= cal["te3_growth_span"], (q, span)


@criterion(10, "grand sequence norm and log-weighted coefficient suprema")
def test_criterion_10_te4_thm5():
    pins = pinned_ratios()
    te4 = checks.suite_te4(SEED)
    for r in te4:
        assert r.passed, (r.params, r.max_ratio)
        key = "|".join([",".join(f"{t:g}" for t in r.params["theta"]),
                        ",".join(map(str, r.params["q"]))])
        assert r.max_ratio == pytest.approx(pins["te4"][key], rel=1e-9), key
    assert any(r.params["theta"] == [0.0, 0.0] for r in te4)
    for r in checks.suite_thm5(SEED):
        assert r.passed, (r.check_id, r.params, r.max_ratio)
        key = ",".join(map(str, r.params["q"]))
        assert r.max_ratio == pytest.approx(pins[r.check_id][key], rel=1e-9)


@criterion(11, "interpolation chain within 1.05 * 6 D(theta) at J=10")
def test_criterion_11_interp():
    for r in checks.suite_interp(SEED):
        assert r.passed, (r.params, r.max_ratio)


# the peak resident memory of one `verify --suite all` process; the
# lacunary pairs streamed through the theorem pass keep it near 60 MiB,
# and holding all twenty at once took it past 160 MiB
_VERIFY_ALL_RSS_MIB = 120

# runs its arguments as a child process and prints the child's peak
# resident set in KiB as the last line.  The peak that wait4 reports for a
# child starts from that of the process that spawned it (the child's exec
# replaces a copy that shares the spawner's memory), so a small launcher
# keeps the memory of the test process out of the reading
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_pid, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss, flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@criterion(12, "byte-identical verification reports, full-suite wall clock and memory")
def test_criterion_12_determinism(tmp_path):
    outs = []
    t0 = time.time()
    for name in ("run1", "run2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_LAUNCHER,
             sys.executable, "-W", "error::RuntimeWarning", "-m",
             "lorentz_forge.cli", "verify",
             "--suite", "all", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rss = int(proc.stdout.splitlines()[-1]) / 1024
        assert rss < _VERIFY_ALL_RSS_MIB, f"{name} peak RSS {rss:.1f} MiB"
        outs.append(out)
    wall = time.time() - t0
    assert (outs[0] / "reports.jsonl").read_bytes() == \
        (outs[1] / "reports.jsonl").read_bytes()
    assert (outs[0] / "summary.csv").read_bytes() == \
        (outs[1] / "summary.csv").read_bytes()
    assert wall < 2 * 15 * 60, f"two full-suite runs took {wall:.0f}s"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    """Criterion 12's run with BLAS pinned to one thread and with the BLAS
    thread variables unset (the library's default) writes the same bytes."""
    outs = []
    for pinned in (True, False):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        out = tmp_path / ("pinned" if pinned else "unpinned")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "lorentz_forge.cli", "verify",
             "--suite", "all", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    assert (outs[0] / "reports.jsonl").read_bytes() == \
        (outs[1] / "reports.jsonl").read_bytes()


# SHA-256 of reports.jsonl and summary.csv as write_reports writes
# run_suite("all", seed): a change that means to keep the reports keeps these
# bytes, and a deliberate change of the report format records new digests
# with it.  The reports carry floats, whose last bits may differ with another
# numpy or BLAS, so the environment the digests were recorded in is kept too.
_DIGEST_ENV = ("2.4.6", "scipy-openblas")
_REPORT_DIGESTS = {
    0: ("d417e2bdc113ed2afe9752ed79fc7de39806dae59f3a92a14b80df68205b22ea",
        "31bf9b5d7781c37ea30c3020f2e2694269b16150790cb1ad5f539b1b9eb975b6"),
    7: ("f41068234803f51ed167bc62c1e3e5c46286bd3318348610c57241ecc6fb843a",
        "b1f322722d81753aa8033d4a09a66b94758a8793123ebf70f07a8d4eebc9a25e"),
    13: ("d799be3d0080ae7980c152c29e64d517cd26ccb443eb912b3b666fa8c1d8c427",
         "d922dd399e547c85a2c94a49d871c96a9ee38d7562ae127d69f1a64f7b7cb81e"),
}


@pytest.mark.parametrize("seed", sorted(_REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, seed):
    paths = write_reports(checks.run_suite("all", seed), tmp_path)
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    env = (np.__version__,
           np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    assert got == _REPORT_DIGESTS[seed], (
        "report bytes changed" if env == _DIGEST_ENV else
        "digests recorded for numpy %s / BLAS %s, this is numpy %s / BLAS %s"
        % (_DIGEST_ENV + env))
