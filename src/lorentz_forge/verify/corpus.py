"""Deterministic test-function corpora.

Every generator is a pure function of its spec (kind, level, count, seed,
parameters); rerunning produces byte-identical corpora.  Families are chosen
to stress the inequalities near p = (2,2) with q > 2: flat random grids,
tensor products, power-log profiles with slowly varying factors, sign-planted
lacunary coefficient polynomials, and indicator rectangles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..fourier import WALSH, CoeffMatrix, walsh_on_cells
from ..rearrange import iterated_rearrange_2d
from ..stepfun import DyadicStep2D, _integer, corpus_hash  # corpus_hash: re-exported


@dataclass(frozen=True)
class CorpusSpec:
    kind: str  # random_step | tensor | power_log | lacunary | indicator
    level: tuple[int, int]
    count: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("random_step", "tensor", "power_log",
                             "lacunary", "indicator"):
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if np.shape(self.level) != (2,):
            raise ValueError(f"level must be two nonnegative integers, got {self.level!r}")
        object.__setattr__(self, "level", tuple(map(_integer, self.level)))
        object.__setattr__(self, "count", _integer(self.count, 0, "count"))
        object.__setattr__(self, "seed", _integer(self.seed, 0, "seed"))


def _power_log_profile(level: int, r: float, s: float) -> np.ndarray:
    """``t^{-1/r} * (1 - ln t)^{-s}`` at dyadic midpoints (finite everywhere)."""
    h = 2.0**-level
    t = (np.arange(2**level) + 0.5) * h
    vals = t ** (-1.0 / r) * (1.0 - np.log(t)) ** (-s)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"power_log profile r={r}, s={s} produced non-finite samples")
    return vals


def generate(spec: CorpusSpec) -> list[DyadicStep2D]:
    """Deterministic corpus of nonnegative step functions."""
    n1, n2 = spec.level
    r1, r2 = 2**n1, 2**n2
    rng = np.random.default_rng(spec.seed)
    out: list[DyadicStep2D] = []
    if spec.kind == "random_step":
        for _ in range(spec.count):
            out.append(DyadicStep2D(spec.level, rng.random((r2, r1))))
    elif spec.kind == "tensor":
        for _ in range(spec.count):
            u = rng.random(r1)
            w = rng.random(r2)
            out.append(DyadicStep2D(spec.level, np.outer(w, u)))
    elif spec.kind == "power_log":
        rs = spec.params.get("r", (1.5, 2.0, 4.0))
        ss = spec.params.get("s", (0.0, 0.5, 2.0))
        for i in range(spec.count):
            p1 = _power_log_profile(n1, rs[i % len(rs)], ss[(i // len(rs)) % len(ss)])
            p2 = _power_log_profile(n2, rs[(i + 1) % len(rs)], ss[i % len(ss)])
            f = DyadicStep2D(spec.level, np.outer(p2, p1))
            out.append(iterated_rearrange_2d(f))
    elif spec.kind == "lacunary":
        for _, f in generate_lacunary_pairs(spec.level, spec.count, spec.seed,
                                            spec.params.get("ratio", 2.0)):
            out.append(f)
    elif spec.kind == "indicator":
        for i in range(spec.count):
            vals = np.zeros((r2, r1))
            k1 = max(r1 >> (i % (n1 + 1)), 1)
            k2 = max(r2 >> ((i // (n1 + 1)) % (n2 + 1)), 1)
            vals[:k2, :k1] = 1.0
            out.append(DyadicStep2D(spec.level, vals))
    return out


class LacunaryPairs(Sequence):
    """The pairs of :func:`generate_lacunary_pairs`, each built when read.

    The positions, the Walsh rows on the cells and every instance's signs
    are fixed when the sequence is made.  ``pairs[i]`` builds instance
    ``i``'s planted coefficients and function anew on each read (a 4 MiB
    and a 2 MiB array at level (9, 9)); a slice gives a list of them.  A
    reader that goes through the pairs in order holds only the ones it
    keeps.

    Every pair's planted magnitudes are the same ones.  When the pairs
    :attr:`translates`, every pair's function is also the first's with
    its x1 cells permuted, so a verify sweep prepares the sequence from its
    first pair alone (see :func:`~lorentz_forge.verify.checks._sweep`).
    """

    def __init__(self, level, idx, W1, W2, signs):
        self._level, self._idx, self._W1, self._W2 = level, idx, W1, W2
        self._signs = signs

    def __len__(self) -> int:
        return len(self._signs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._pair(k) for k in range(len(self))[i]]
        return self._pair(range(len(self))[i])

    def __iter__(self):
        return map(self._pair, range(len(self)))

    @property
    def translates(self) -> bool:
        """Whether the planted positions' bit vectors are independent over
        GF(2), as ratio 2's powers of two are.  Then each sign pattern is
        ``w_{n_j}(t)`` at a dyadic ``t``, and each pair's function is the
        first's with its x1 cells permuted by ``j1 ^ t``: bit for bit."""
        span = {0}
        for n in self._idx.tolist():
            if n in span:
                return False
            span |= {s ^ n for s in span}
        return True

    def hash_into(self, h) -> None:
        """Feed the hash ``h`` a tagged record of what fixes every pair bit
        for bit: the levels, the planted positions as int64 and the sign
        matrix.  So :func:`corpus_hash` hashes the sequence, as one item,
        with no pair built; the pairs it yields hash their bytes."""
        h.update(bytes(f"lacunary{self._level}{self._signs.shape}", "ascii"))
        h.update(self._idx.astype(np.int64))
        h.update(self._signs)

    def _pair(self, i: int) -> tuple[CoeffMatrix, DyadicStep2D]:
        signs = self._signs[i]
        # real: the matrix's complex copy is the only 4 MiB array of a pair
        c = np.zeros((self._W1.shape[1], self._W2.shape[1]))
        c[self._idx, self._idx] = signs
        # sum_j s_j w_{n_j}(x1) w_{n_j}(x2) on the cells [j2, j1]: small
        # integers, exact in any summation order
        v = self._W2.T @ (signs[:, None] * self._W1)
        return CoeffMatrix(WALSH, WALSH, c), DyadicStep2D(self._level, np.abs(v, out=v))


def generate_lacunary_pairs(level: tuple[int, int], count: int, seed: int,
                            ratio: float = 2.0) -> LacunaryPairs:
    """Sign-planted lacunary coefficient polynomials with their functions.

    Instance 0 is the canonical all-plus diagonal polynomial
    ``sum_j w_{n_j}(x1) w_{n_j}(x2)`` with gaps ``n_j ~ ratio^j``; later
    instances draw random signs.  Each pair holds the planted coefficients
    (the true coefficients of the signed polynomial) and the magnitude
    function used on the norm side.  ``level``, ``count`` and ``seed`` are
    checked as a :class:`CorpusSpec`'s; ``ratio`` must be finite and > 1.

    Returns a read-only sequence of the ``count`` pairs that builds a pair
    only when it is read (see :class:`LacunaryPairs`); the signs of every
    instance are drawn here, so the pairs depend on the arguments only.
    """
    spec = CorpusSpec("lacunary", level, count, seed)
    if not (math.isfinite(ratio) and ratio > 1):
        raise ValueError(f"lacunary ratio must be finite and > 1, got {ratio}")
    n1, n2 = level = spec.level
    K1, K2 = 2**n1, 2**n2
    positions, j = [], 0
    while (pos := int(round(ratio**j))) < min(K1, K2):
        if pos not in positions:
            positions.append(pos)
        # ratio**j < pos + 1/2 below this j, so round(ratio**j) = pos there
        j = max(j + 1, math.floor(math.log(pos + 0.5) / math.log(ratio)))
    idx = np.array(positions, dtype=int)
    rng = np.random.default_rng(spec.seed)
    signs = np.ones((spec.count, len(positions)))
    for i in range(1, spec.count):
        signs[i] = rng.choice([-1.0, 1.0], size=len(positions))
    return LacunaryPairs(level, idx, walsh_on_cells(idx, n1),
                         walsh_on_cells(idx, n2), signs)


def generate_karamata_pairs(count: int, seed: int, length: int = 16
                            ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Majorization pairs by mass-preserving flattening.

    ``f`` is a nonincreasing sequence; ``g`` arises from ``f`` by averaging
    random contiguous blocks, which preserves the total, keeps ``g``
    nonincreasing, and guarantees the prefix sums of ``f`` dominate those of
    ``g`` by construction.  Violated hypotheses indicate a generator bug and
    raise immediately.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = np.sort(rng.random(length))[::-1]
        g = f.copy()
        for _ in range(int(rng.integers(1, 5))):
            i = int(rng.integers(0, length - 1))
            j = int(rng.integers(i + 1, length))
            g[i:j + 1] = g[i:j + 1].mean()
        if not np.all(np.diff(g) <= 1e-12):
            raise AssertionError("generator bug: flattened sequence not nonincreasing")
        pf, pg = np.cumsum(f), np.cumsum(g)
        if not (np.all(pf >= pg - 1e-12) and abs(pf[-1] - pg[-1]) < 1e-9):
            raise AssertionError("generator bug: majorization hypothesis violated")
        out.append((f, g))
    return out
