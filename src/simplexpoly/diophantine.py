"""Exhaustive integer solutions of (w^2+x^2+y^2+z^2)^2 = 3(w^4+x^4+y^4+z^4).

This is the integer form of the equilateral-triangle distance relation;
(3, 5, 7, 8) is the classic solution. The equation is symmetric and even in
each variable, so solutions are canonicalized as ascending quadruples of
nonnegative integers; it is homogeneous, so every multiple of a solution is
a solution.

The three smaller entries w <= x <= y fix the largest through a discriminant
that must be a perfect square. With s = x + y and delta = y - x it factors as
3(s - w)(s + w)(w - delta)(w + delta) (Heron), so the scan visits no
(w, x, y) triple one by one: it joins about bound^2 (w, s) keys with
bound^2 / 2 (w, delta) keys on the primes at odd exponent of the two halves.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from .geometry import quadruple_residual

# The join's time grows about as bound^2 and is about 0.08 s at bound 1000 on
# one Intel Xeon core. The discriminant stays below 12 * bound^4, under 2^53,
# so the float root of a perfect square rounds to its exact integer root.
_MAX_BOUND = 1_000
_STEP = 4096  # (w, s) keys one numpy step holds, in whole values of w
_FIELD = (2 * _MAX_BOUND).bit_length()  # bits that hold w, s or delta in a packed key
_MASK = (1 << _FIELD) - 1


@dataclass(frozen=True)
class SolutionTuple:
    """Ascending nonnegative quadruple; primitive means gcd 1."""

    values: Tuple[int, int, int, int]
    primitive: bool


def is_solution(w: int, x: int, y: int, z: int) -> bool:
    """Exact integer test of the quartic relation."""
    sq = w * w + x * x + y * y + z * z
    quart = w**4 + x**4 + y**4 + z**4
    return sq * sq == 3 * quart


@functools.cache
def _odd_prime_keys() -> np.ndarray:
    """h[n] for 1 <= n <= 3 * _MAX_BOUND: the XOR of one fixed word per prime
    at odd exponent in n, so h[a * b] == h[a] ^ h[b] and n, m with the same
    odd-exponent primes have h[n] == h[m]. Read-only; h[0] is 0 and unused."""
    top = 3 * _MAX_BOUND
    spf = np.arange(top + 1)
    for p in range(math.isqrt(top), 1, -1):
        spf[p * p :: p] = p  # written last by the smallest prime factor
    word = np.frombuffer(random.Random(0).randbytes(4 * (top + 1)), dtype=np.uint32)
    word = word.astype(np.int64)
    word[1] = 0
    h, rest = np.zeros(top + 1, dtype=np.int64), np.maximum(np.arange(top + 1), 1)
    while rest.max() > 1:  # one prime factor of each n a round, with multiplicity
        p = spf[rest]
        h ^= word[p]
        rest //= p
    h.flags.writeable = False
    return h


def _w_blocks(bound: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ranges lo <= w < hi covering 0..bound, each holding at most
    _STEP (w, s) keys, 2 (bound - w) + 1 per w; a w with more is a block alone."""
    lo = held = 0
    for w in range(bound + 1):
        n = 2 * (bound - w) + 1
        if held and held + n > _STEP:
            yield lo, w
            lo, held = w, 0
        held += n
    yield lo, bound + 1


def _ranges(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ranges starts[i] .. starts[i] + counts[i] - 1 end to end, and the i
    of each entry."""
    i = np.repeat(np.arange(len(counts)), counts)
    return starts[i] + np.arange(len(i)) - (np.cumsum(counts) - counts)[i], i


def _packed(key: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted (key, w, parity of v, v) words; >> _FIELD leaves the join key."""
    return np.sort((((key << _FIELD | w) << 1 | v & 1) << _FIELD) | v)


def _join(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with a[i] >> _FIELD == b[j] >> _FIELD, for sorted
    a and b, in the order of j."""
    keys, needles = a >> _FIELD, b >> _FIELD
    first = np.searchsorted(keys, needles)
    j = np.flatnonzero(keys[np.minimum(first, len(keys) - 1)] == needles)
    i, k = _ranges(first[j], np.searchsorted(keys, needles[j], side="right") - first[j])
    return i, j[k]


def _root(n: np.ndarray) -> np.ndarray:
    """The integer nearest sqrt(n), entrywise: the exact root of every perfect
    square below 2^53, even with a float root a few ulps off."""
    return np.rint(np.sqrt(n)).astype(np.int64)


def _square_triples(lo: int, hi: int, bound: int) -> Tuple[np.ndarray, ...]:
    """w, x, y, c and r of the triples lo <= w < hi, w <= x <= y <= min(bound,
    w + x), whose discriminant is a square r^2.

    Past y = w + x the discriminant is negative: by Heron, c^2 - 2(w^4 + x^4
    + y^4) is 16 times the squared area of the triangle with sides w, x, y.
    With s = x + y and delta = y - x the triples are 0 <= delta <= w,
    2w + delta <= s <= 2 bound - delta and s = delta mod 2, and their
    discriminant is 3(s - w)(s + w)(w - delta)(w + delta). The rows delta = w
    have discriminant 0 and are taken whole. For delta < w both halves are
    positive, so their product is a square exactly when they have the same
    primes at odd exponent, hence the same key: (w, s) keys are joined with
    (w, delta) keys on (key, w, parity), and the exact test drops the pairs
    that only an XOR collision of keys joined.
    """
    h = _odd_prime_keys()
    w = np.arange(lo, hi, dtype=np.int64)
    s, i = _ranges(2 * w, 2 * (bound - w) + 1)
    sides = _packed(h[s - w[i]] ^ h[s + w[i]] ^ h[3], w[i], s)
    delta, i = _ranges(np.zeros_like(w), w)
    halves = _packed(h[w[i] - delta] ^ h[w[i] + delta], w[i], delta)
    at, i = _join(sides, halves)
    w_at, s, delta = (sides[at] >> (_FIELD + 1)) & _MASK, sides[at] & _MASK, halves[i] & _MASK
    disc = 3 * (s - w_at) * (s + w_at) * (w_at - delta) * (w_at + delta)
    r = _root(disc)
    keep = (s >= 2 * w_at + delta) & (s + delta <= 2 * bound) & (r * r == disc)
    x, i = _ranges(w, np.maximum(bound - 2 * w + 1, 0))  # the rows delta = w
    rows = (w[i], 2 * x + w[i], w[i], np.zeros_like(i))
    w, s, delta, r = (np.concatenate([v[keep], row]) for v, row in zip((w_at, s, delta, r), rows))
    x, y = (s - delta) >> 1, (s + delta) >> 1
    return w, x, y, w * w + x * x + y * y, r


def enumerate_solutions(bound: int) -> List[SolutionTuple]:
    """All nonzero solutions with entries in [0, bound], sorted ascending.

    The largest entry is not searched: with the three smaller values fixed,
    the relation is a quadratic in the square of the fourth, so z^2 comes
    from a closed form whose discriminant must be a square. A numpy join
    keeps the (w, x, y) triples with a square discriminant, solves each for
    the integer z it may give, and the exact relation confirms each tuple.
    """
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise TypeError(f"bound must be an int, got {bound!r}")
    if not 1 <= bound <= _MAX_BOUND:
        raise ValueError(f"bound must be in [1, {_MAX_BOUND}], got {bound}")
    found: Set[Tuple[int, int, int, int]] = set()
    for block in _w_blocks(bound):
        w, x, y, c, r = _square_triples(*block, bound)
        # z^2 = (c +- r) / 2, and c - r >= 0 since c^2 <= 3d; r = 0 gives one z
        for twice in (c + r, c - r):
            z = _root(twice / 2)
            # z = 0 only in the zero tuple, which is not reported
            keep = (2 * z * z == twice) & (y <= z) & (z <= bound) & (z > 0)
            for t in zip(w[keep].tolist(), x[keep].tolist(), y[keep].tolist(), z[keep].tolist()):
                if is_solution(*t):
                    found.add(t)
    return [SolutionTuple(t, math.gcd(*t) == 1) for t in sorted(found)]


def realizability_report(sol: SolutionTuple) -> Dict[str, object]:
    """Which entries of the quadruple can act as the triangle side.

    Every positive entry can when the quadruple is a nonnegative solution of
    the exact relation, and none can otherwise: placing a planar point at the
    remaining three distances from an equilateral triangle of that side
    needs the relation, and with a positive side the relation is also
    sufficient. As a monic quadratic in the square of the third distance, its
    discriminant is 48 Area^2 of the triangle (side, d1, d2) (Heron), so a
    real root needs that triangle, and the roots are the squared distances of
    its two mirror-image points to the third vertex. The relation is
    symmetric, and entries up to 1000 have squares and fourth powers that sum
    exactly in floats, so its residual is the same for every side.
    """
    values = [float(v) for v in sol.values]
    residual = quadruple_residual(values[0], values[1:])
    solved = min(sol.values) >= 0 and is_solution(*sol.values)
    return {
        "values": list(sol.values),
        "primitive": sol.primitive,
        "side_positions_realizable": [i for i, v in enumerate(sol.values) if solved and v > 0],
        "relation_residuals": [residual] * len(values),
    }
