"""Independent verification machinery for the classifier.

``brute_force_factor_search`` decides reducibility over a small prime field
by exhaustively trial-dividing every monic candidate divisor up to half the
input degree, in a fixed enumeration order (ascending lexicographic over
coefficient vectors, monomials listed in descending grlex). Homogeneous
inputs only need homogeneous candidates, since every factor of a homogeneous
polynomial is homogeneous.

The search is exhaustive within its budget or reports BudgetExceeded, never
a silent partial answer. A cheap necessary-condition filter (restriction to
a line must divide the restricted input) prunes candidates in bulk with
numpy before any exact division runs; it only ever rejects non-divisors, so
the reported factor is always the first divisor in enumeration order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .field import PRIME_KIND, FieldElement, FieldSpec
from .family import build_f
from .poly import Monomial, Polynomial, grlex_key

_CHUNK = 1 << 18
_SLICES = 2  # number of lines the candidate filter restricts to


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


def _poly_divides(d: Sequence[int], p: Sequence[int], q: int) -> bool:
    """Exact univariate divisibility over F_q; d monic, both nonzero."""
    r = list(p)
    dd = len(d) - 1
    while len(r) - 1 >= dd:
        c = r[-1]
        if c:
            off = len(r) - 1 - dd
            for i, dc in enumerate(d):
                r[off + i] = (r[off + i] - c * dc) % q
        r.pop()
    return not any(r)


def _accept_table(p_restricted: List[int], d: int, q: int) -> np.ndarray:
    """accept[code] for restricted candidates coded little-endian base q.

    code digit k is the coefficient of y^k; a restricted candidate passes
    when it is a nonzero constant or a scalar multiple of a monic divisor
    of the restricted input. The zero restriction is rejected (the input
    does not vanish on the slice, so no true divisor restricts to zero).
    """
    size = q ** (d + 1)
    table = np.zeros(size, dtype=bool)
    table[1:q] = True  # nonzero constants divide everything
    powers = [q**k for k in range(d + 1)]
    max_deg = min(d, len(p_restricted) - 1)
    for e in range(1, max_deg + 1):
        for tail in np.ndindex(*([q] * e)):
            monic = list(tail) + [1]
            if _poly_divides(monic, p_restricted, q):
                for lam in range(1, q):
                    code = sum(c * lam % q * powers[k] for k, c in enumerate(monic))
                    table[code] = True
    return table


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

    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    # filter lines pin every variable but the last to (s, 1, ..., 1); keep the
    # first _SLICES on which p does not vanish, with p's restriction there
    vy = p.arity - 1
    coeffs = np.array([c.value for c in p.terms.values()], dtype=np.int64)
    lines = []
    for s in range(q):
        coords = (s,) + (1,) * (p.arity - 2)
        restricted = _line_matrix(list(p.terms), coords, vy, q, deg) @ coeffs % q
        if restricted.any():
            lines.append((coords, np.trim_zeros(restricted, "b").tolist()))
            if len(lines) == _SLICES:
                break
    tried = 0
    for d, monos, lead_count in plans:
        mats = [(_line_matrix(monos, c, vy, q, d), _accept_table(r, d, q)) for c, r in lines]
        codes_base = np.array([q**k for k in range(d + 1)], dtype=np.int64)
        # blocks with the latest possible leading monomial come first
        for lead in range(lead_count - 1, -1, -1):
            t_len = len(monos) - 1 - lead
            n_block = q**t_len
            filters = [(m[:, lead + 1 :].T, m[:, lead], table) for m, table in mats]
            for start in range(0, n_block, _CHUNK):
                if deadline is not None and time.monotonic() > deadline:
                    return BudgetExceeded("time limit exceeded")
                stop = min(start + _CHUNK, n_block)
                ar = np.arange(start, stop, dtype=np.int64)
                tails = np.empty((stop - start, t_len), dtype=np.int64)
                for col in range(t_len):
                    div = q ** (t_len - 1 - col)
                    tails[:, col] = (ar // div) % q
                mask = np.ones(stop - start, dtype=bool)
                for tail_mat, base, table in filters:
                    y = (tails[mask] @ tail_mat + base) % q
                    hits = table[y @ codes_base]
                    idx = np.flatnonzero(mask)
                    mask[idx[~hits]] = False
                    if not mask.any():
                        break
                tried += len(tails)
                for row in np.flatnonzero(mask):
                    if deadline is not None and time.monotonic() > deadline:
                        return BudgetExceeded("time limit exceeded")
                    cand = _candidate_polynomial(p.field, p.arity, monos, lead, tails[row])
                    quotient = p.exact_divide(cand)
                    if quotient is not None:
                        return FactorFound(cand, quotient)

    if not exhaustive:
        return BudgetExceeded(
            f"degree cap {degree_cap} below half the input degree {half}"
        )
    return NoFactorFound(tried)


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
