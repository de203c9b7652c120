"""Independent verification machinery for the classifier.

``brute_force_factor_search`` decides reducibility over a small prime field
by exhaustively trial-dividing every monic candidate divisor up to half the
input degree, in a fixed enumeration order (ascending lexicographic over
coefficient vectors, monomials listed in descending grlex). Homogeneous
inputs only need homogeneous candidates, since every factor of a homogeneous
polynomial is homogeneous.

The search is exhaustive within its budget or reports BudgetExceeded, never
a silent partial answer. A cheap necessary-condition filter prunes
candidates in bulk with numpy before any exact division runs: on each of up
to eight axis-parallel lines where the input does not vanish, a candidate's
restriction must divide the input's restriction, which a lookup table of
the restricted divisors decides. The first line is looked up for a whole
chunk of candidates at once, the other lines only for its survivors. The
filter only ever rejects non-divisors, so the reported factor is always the
first divisor in enumeration order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import gcd, inf
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .field import PRIME_KIND, FieldElement, FieldSpec
from .family import build_f
from .poly import Monomial, Polynomial, grlex_key

_CHUNK = 1 << 18  # most tails one filter step holds
_LINES = 8  # filter lines on which the input does not vanish
_MAX_TABLE_BYTES = 1 << 23  # the accept tables of one candidate degree, together


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exhaustive search.

    ``max_degree`` caps the candidate degree (None: up to half the input
    degree); ``max_field_size`` caps the prime modulus; ``homogeneous_only``
    refuses non-homogeneous inputs outright; ``max_candidates`` caps the
    total candidate-space size; ``time_limit`` is wall-clock seconds.
    """

    max_degree: Optional[int] = None
    max_field_size: int = 13
    homogeneous_only: bool = False
    time_limit: Optional[float] = None
    max_candidates: int = 80_000_000

    def __post_init__(self) -> None:
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be at least 1, got {self.max_degree}")
        # NaN fails this test too: a NaN deadline would never pass
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be nonnegative, got {self.time_limit}")


@dataclass(frozen=True)
class FactorFound:
    factor: Polynomial
    quotient: Polynomial


@dataclass(frozen=True)
class NoFactorFound:
    candidates_tried: int


@dataclass(frozen=True)
class BudgetExceeded:
    reason: str


SearchOutcome = Union[FactorFound, NoFactorFound, BudgetExceeded]


def _monomials_desc(arity: int, degree: int, exact: bool) -> List[Monomial]:
    """Monomials of total degree == degree (exact) or <= degree, descending grlex."""
    monos: List[Monomial] = []
    degrees = [degree] if exact else list(range(degree + 1))
    for d in degrees:
        for combo in combinations_with_replacement(range(arity), d):
            exps = [0] * arity
            for i in combo:
                exps[i] += 1
            monos.append(tuple(exps))
    monos.sort(key=grlex_key, reverse=True)
    return monos


def _line_matrix(
    monos: Sequence[Monomial], coords: Sequence[int], vy: int, q: int, deg: int
) -> np.ndarray:
    """(deg+1) x len(monos) map from coefficients to y-coefficients on a line.

    The line pins every variable except vy to coords, in order; column j
    holds the value of monos[j] there, in the row of its y-degree.
    """
    mat = np.zeros((deg + 1, len(monos)), dtype=np.int64)
    for j, exps in enumerate(monos):
        w = 1
        for c, e in zip(coords, exps[:vy] + exps[vy + 1 :]):
            w = w * pow(c, e, q) % q
        mat[exps[vy], j] = w
    return mat


def _spread(count: int) -> Iterator[int]:
    """range(count) reordered by a stride near count / golden ratio, coprime to count."""
    stride = max(1, round(count * 0.618))
    while gcd(stride, count) != 1:
        stride += 1
    return (i * stride % count for i in range(count))


def _spread_points(k: int, q: int) -> Iterator[Tuple[int, ...]]:
    """Every point of F_q^k in a spread-out order, those with no zero coordinate first."""
    for j in _spread((q - 1) ** k):
        yield tuple(j // (q - 1) ** i % (q - 1) + 1 for i in range(k))
    for j in _spread(q**k):
        coords = tuple(j // q**i % q for i in range(k))
        if 0 in coords:
            yield coords


def _filter_lines(
    p: Polynomial, q: int, deg: int
) -> List[Tuple[int, Tuple[int, ...], np.ndarray]]:
    """Up to _LINES axis-parallel lines on which p does not vanish.

    Each line is (vy, coords, the deg+1 coefficients of p restricted
    there). Consecutive lines take consecutive pinned points and turn to
    the next direction; every (point, direction) pair comes up once. A
    line through a coordinate axis rejects almost nothing on homogeneous
    input, which is why points with a zero coordinate come last.
    """
    monos = list(p.terms)
    coeffs = np.array([c.value for c in p.terms.values()], dtype=np.int64)
    lines = []
    for turn in range(p.arity):
        for j, coords in enumerate(_spread_points(p.arity - 1, q)):
            vy = (j + turn) % p.arity
            restricted = _line_matrix(monos, coords, vy, q, deg) @ coeffs % q
            if restricted.any():
                lines.append((vy, coords, restricted))
                if len(lines) == _LINES:
                    return lines
    return lines


def _accept_tables(
    restricted: np.ndarray, prev: np.ndarray, d: int, q: int, deadline: float
) -> Optional[np.ndarray]:
    """accept[line, code] for restricted candidates coded little-endian base q.

    restricted holds the input's restriction to each line, one row each.
    Code digit k is the coefficient of y^k; a restricted candidate passes
    when it is a nonzero constant or a scalar multiple of a monic divisor
    of the restricted input. The zero restriction is rejected (the input
    does not vanish on the line, so no true divisor restricts to zero).
    The first q^d codes, of degree below d, copy prev, the lines' degree
    d-1 tables. Monic divisors of degree d are found by one long division
    over all lines and all monic tails at once, in batches of at most
    _CHUNK coefficients; a zero top coefficient makes a step a no-op.
    None means the deadline passed during the build.
    """
    n_lines, n = restricted.shape
    tables = np.zeros((n_lines, q ** (d + 1)), dtype=bool)
    tables[:, : q**d] = prev[:n_lines]
    scalars = np.arange(1, q)[:, None, None]
    step = max(1, _CHUNK // max(1, restricted.size))
    for lo in range(0, q**d, step):
        if time.monotonic() > deadline:
            return None
        idx = np.arange(lo, min(lo + step, q**d))
        monic = np.ones((len(idx), d + 1), dtype=np.int64)
        monic[:, :d] = idx[:, None] // q ** np.arange(d) % q
        rem = np.repeat(restricted[:, None, :], len(idx), axis=1)
        for top in range(n - 1, d - 1, -1):
            span = slice(top - d, top + 1)
            rem[:, :, span] = (rem[:, :, span] - rem[:, :, top, None] * monic) % q
        line, row = np.nonzero(~rem.any(axis=2))
        tables[line, scalars * monic[row] % q @ q ** np.arange(d + 1)] = True
    return tables


def _low_codes(cols: np.ndarray, q: int) -> np.ndarray:
    """Code of the restriction of every low-digit pattern, in enumeration order.

    cols is the (deg+1) x k block of a line matrix for the k lowest tail
    digits; pattern j has digit (j // q^(k-1-i)) % q in column i. Codes
    add digit by digit mod q, so a pattern's code and the code of the
    higher digits combine without carries.
    """
    y = np.zeros((len(cols), 1), dtype=np.int64)
    for col in cols.T:
        y = (y[:, :, None] + col[:, None, None] * np.arange(q)).reshape(len(cols), -1)
    return q ** np.arange(len(cols)) @ (y % q)


def _candidate_polynomial(
    field: FieldSpec, arity: int, monos: List[Monomial], lead: int, tail: np.ndarray
) -> Polynomial:
    terms: Dict[Monomial, FieldElement] = {monos[lead]: field.one()}
    for offset, c in enumerate(tail):
        if c:
            terms[monos[lead + 1 + offset]] = field.from_int(int(c))
    return Polynomial(field, arity, terms)


def brute_force_factor_search(
    p: Polynomial, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Find the first monic proper divisor of p over F_q, or prove none exists.

    Deterministic: identical inputs and budgets yield identical outcomes.
    """
    if p.field.kind != PRIME_KIND:
        raise ValueError("the brute-force search runs over prime fields only")
    deg = p.degree()
    if deg is None or deg == 0:
        raise ValueError("input must be nonconstant")
    q = p.field.p
    if q > budget.max_field_size:
        return BudgetExceeded(f"field size {q} exceeds budget {budget.max_field_size}")
    homogeneous, _ = p.is_homogeneous()
    if budget.homogeneous_only and not homogeneous:
        return BudgetExceeded("input is not homogeneous")

    half = deg // 2
    degree_cap = half if budget.max_degree is None else min(budget.max_degree, half)
    exhaustive = degree_cap == half

    plans = []
    total = 0
    for d in range(1, degree_cap + 1):
        monos = _monomials_desc(p.arity, d, exact=homogeneous)
        lead_count = sum(1 for e in monos if sum(e) == d)
        block_sizes = [q ** (len(monos) - 1 - lead) for lead in range(lead_count)]
        total += sum(block_sizes)
        plans.append((d, monos, lead_count))
    if total > budget.max_candidates:
        return BudgetExceeded(
            f"candidate space of {total} exceeds budget {budget.max_candidates}"
        )

    deadline = time.monotonic() + (inf if budget.time_limit is None else budget.time_limit)
    lines = _filter_lines(p, q, deg)
    restricted = np.array([r for _, _, r in lines], dtype=np.int64).reshape(-1, deg + 1)
    tables = np.tile(np.arange(q) > 0, (len(lines), 1))  # degree 0: nonzero constants
    for d, monos, lead_count in plans:
        size = q ** (d + 1)  # bytes of one line's accept table
        if size > _MAX_TABLE_BYTES:
            return BudgetExceeded(
                f"accept table of {size} bytes for degree {d} exceeds budget {_MAX_TABLE_BYTES}"
            )
        # as many lines as the budget holds; with none, one that passes everything
        used = lines[: _MAX_TABLE_BYTES // size]
        tables = _accept_tables(restricted[: len(used)], tables, d, q, deadline)
        if tables is None:
            return BudgetExceeded("time limit exceeded")
        mats = [(_line_matrix(monos, c, vy, q, d), t) for (vy, c, _), t in zip(used, tables)]
        mats = mats or [
            (np.zeros((d + 1, len(monos)), dtype=np.int64), np.ones(size, dtype=bool))
        ]
        first, first_table = mats[0][0], mats[0][1].reshape((q,) * (d + 1))
        powers = q ** np.arange(d + 1)
        axes = tuple(range(d + 1))
        codes_low = None
        # blocks with the latest possible leading monomial come first
        for lead in range(lead_count - 1, -1, -1):
            t_len = len(monos) - 1 - lead
            # chunks are aligned runs of q^low tails that share their high digits
            low = 0
            while low < t_len and q ** (low + 1) <= _CHUNK:
                low += 1
            high = t_len - low
            places = q ** np.arange(t_len - 1, -1, -1)
            later = [(m[:, lead + 1 :].T, m[:, lead], table) for m, table in mats[1:]]
            high_cols = first[:, lead + 1 : lead + 1 + high]
            # the low digits are those of the last monomials in every block,
            # and low never falls from one block to the next
            if low != codes_low:
                codes, codes_low = _low_codes(first[:, len(monos) - low :], q), low
            for start in range(0, q**t_len, q**low):
                if time.monotonic() > deadline:
                    return BudgetExceeded("time limit exceeded")
                # the restriction of a tail is the high digits' shift plus
                # its low pattern's code, so shift the table, not the codes
                shift = (first[:, lead] + high_cols @ (start // places[:high] % q)) % q
                shifted = np.roll(first_table, tuple(-shift[::-1]), axis=axes)
                rows = np.flatnonzero(shifted.ravel()[codes])
                tails = (start + rows)[:, None] // places % q
                for tail_mat, base, table in later:
                    tails = tails[table[(tails @ tail_mat + base) % q @ powers]]
                for tail in tails:
                    if time.monotonic() > deadline:
                        return BudgetExceeded("time limit exceeded")
                    cand = _candidate_polynomial(p.field, p.arity, monos, lead, tail)
                    quotient = p.exact_divide(cand)
                    if quotient is not None:
                        return FactorFound(cand, quotient)

    if not exhaustive:
        return BudgetExceeded(
            f"degree cap {degree_cap} below half the input degree {half}"
        )
    # every block ran to its end, so all total candidates were ruled out
    return NoFactorFound(total)


# -- symbolic discriminant identity ------------------------------------------------


def discriminant_check(field: FieldSpec, m: int, t) -> bool:
    """Verify the closed-form discriminant of the two-variable reduction.

    Rewrites the homogeneous quartic in the last two variables as a quadratic
    in v (with u, v their elementary symmetric functions), computes its
    discriminant symbolically, and compares it with
    8t((t-1)u^4 - 2 S2 u^2 + (2-t) S4 + S2^2) exactly, where S2, S4 are the
    power sums of the remaining variables.
    """
    if field.characteristic() == 2:
        raise ValueError("discriminant identity requires characteristic != 2")
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    t = field.coerce(t)
    if t.is_zero() or t == field.from_int(2):
        raise ValueError("discriminant identity requires t not in {0, 2}")

    f = build_f(field, m, t)
    reduced = f.symmetric_reduce(m - 2, m - 1)
    assert reduced is not None  # f is symmetric in every variable pair
    v_pos = m - 1

    coeffs = {0: {}, 1: {}, 2: {}}
    for exps, c in reduced.terms.items():
        e = exps[v_pos]
        if e > 2:
            return False
        stripped = list(exps)
        stripped[v_pos] = 0
        coeffs[e][tuple(stripped)] = c
    a2 = Polynomial(field, m, coeffs[2])
    a1 = Polynomial(field, m, coeffs[1])
    a0 = Polynomial(field, m, coeffs[0])
    disc = a1 * a1 - a2 * a0 * 4

    u = Polynomial.variable(field, m, m - 2)
    rest = [1] * (m - 2) + [0, 0]
    s2 = Polynomial.diagonal(field, 0, rest, 2)
    s4 = Polynomial.diagonal(field, 0, rest, 4)
    one = field.one()
    expected = (
        u**4 * (t - one)
        - s2 * u**2 * 2
        + s4.scale(field.from_int(2) - t)
        + s2**2
    ).scale(t * 8)
    return disc == expected
