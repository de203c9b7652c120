"""Brute-force factor search over small prime fields.

``brute_force_factor_search`` decides reducibility over a small prime field
by exhaustively trial-dividing every monic candidate divisor up to half the
input degree, in a fixed enumeration order (ascending lexicographic over
coefficient vectors, monomials listed in descending grlex). Homogeneous
inputs only need homogeneous candidates, since every factor of a homogeneous
polynomial is homogeneous.

Leading homogeneous components multiply, so a divisor's top-degree form
divides the input's (Ostrowski; Gao, J. Algebra 237, 2001). For an
inhomogeneous input, a homogeneous search of the input's top-degree form
first collects its monic divisors of degree d, when the search reaches d;
with the degree-d monomials as the high digits of a candidate's index, a
divisor of index r fixes the indices [r q^k, (r+1) q^k), k the number of
lower monomials, and only those runs are enumerated. Skipped runs still
count in ``candidates_tried``; the budget counts forms and runs enumerated,
charged one degree at a time, right before that degree is searched.

The search is exhaustive within its budget or reports BudgetExceeded, never
a silent partial answer. A cheap necessary-condition filter prunes
candidates in bulk with numpy before any exact division runs: on each of up
to eight axis-parallel lines where the input does not vanish, a candidate's
restriction must divide the input's restriction, which a lookup table of
the restricted divisors decides. The first line is looked up for a whole
chunk of candidates at once, the other lines only for its survivors. The
filter only ever rejects non-divisors, so the reported factor is always the
first divisor in enumeration order.

Before any of that, a factor-degree sieve (``open_degrees`` of a
``_univariate`` field) restricts the input to up to eight seeded lines on
which it keeps its degree, and factors each squarefree restriction by
distinct-degree factorization. A degree that is no sum of some line's factor
degrees has no divisor, so it is charged to the candidate and table budgets,
and counted in ``candidates_tried``, as though searched, but none of its
candidates is enumerated; with no degree left open no filter line is built.
The lines lie in F_q^n, and for q = 3 in F_27^n: an F_3-line is too coarse,
and over F_{3^k} with k odd an irreducible quartic stays irreducible. The
sieve runs on inputs of degree at most 12. An inhomogeneous input's leading
form is sieved first, and the input's own sieve and search stop at the last
degree the leading form leaves open: past it no run can hold a divisor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, islice
from math import comb, gcd, inf
from random import Random
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import _univariate
from .field import PRIME_KIND
from .poly import Monomial, Polynomial, _key

_CHUNK = 1 << 18  # most indices one filter step holds
_LINES = 8  # filter lines on which the input does not vanish
_MAX_CANDIDATES = 80_000_000  # monic candidates enumerated through the degree searched
_MAX_TABLE_BYTES = 1 << 23  # the accept tables of one candidate degree, together
_SIEVE_LINES = 8  # most lines the factor-degree sieve restricts the input to
# highest input degree the sieve runs on: on dense bivariate inputs with a
# linear factor (all eight lines, nothing closed) its lines cost 0.2-3.6 ms
# up to degree 12 over F_5..F_101, and over F_3, on F_27-lines, 0.2-0.3 ms
# at degree 4, 1.2-1.4 ms at 8 and 7.5-8.8 ms at 12; past 12 the candidate
# budget refuses most inputs the sieve could decide
_SIEVE_MAX_DEGREE = 12


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exhaustive search.

    ``max_degree`` caps the candidate degree (None: up to half the input
    degree); ``homogeneous_only`` refuses non-homogeneous inputs outright;
    ``time_limit`` is wall-clock seconds. The other budgets are fixed and
    charged by ``brute_force_factor_search`` once per degree:
    _MAX_CANDIDATES caps the candidates enumerated through the degree being
    searched (for a non-homogeneous input, the leading forms searched and
    the runs they leave), and _MAX_TABLE_BYTES one degree's accept tables
    and, at degree 1, the filter lines' restrictions of the input.
    """

    max_degree: Optional[int] = None
    homogeneous_only: bool = False
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be at least 1, got {self.max_degree}")
        # NaN fails too, as its deadline would never pass; so does inf, which is not JSON
        if self.time_limit is not None and not 0 <= self.time_limit < inf:
            raise ValueError(f"time_limit must be finite and nonnegative, got {self.time_limit}")


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
    # within one degree, ascending combinations give descending exponent tuples
    for d in [degree] if exact else range(degree, -1, -1):
        for combo in combinations_with_replacement(range(arity), d):
            exps = [0] * arity
            for i in combo:
                exps[i] += 1
            monos.append(tuple(exps))
    return monos


def _line_values(
    monos: Sequence[Monomial], coords: Sequence, vy: Union[int, Sequence[int]], q: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The value of each of monos on a line, and its y-degree there.

    The line pins every variable except vy to coords, in order. Lines stack:
    coords of shape (..., arity-1) and vy of shape (...) give (..., len(monos)).
    """
    exps = np.asarray(monos, dtype=np.int64).reshape(len(monos), -1)
    vy = np.asarray(vy)
    free = np.arange(exps.shape[1]) == vy[..., None]
    point = np.ones(free.shape, dtype=np.int64)  # the free variable's powers are 1
    point[~free] = np.ravel(coords)
    # factors[..., j, i] = point[..., i]^exps[j, i] mod q, by repeated squaring:
    # no table of every residue's powers, whose q (deg+1) entries could dwarf p
    base = point[..., None, :]
    factors = np.where(exps & 1, base, 1)
    for bit in range(1, int(exps.max(initial=0)).bit_length()):
        base = base * base % q
        factors = np.where(exps >> bit & 1, factors * base % q, factors)
    values = factors[..., 0]
    for i in range(1, exps.shape[1]):
        values = values * factors[..., i] % q
    return values, exps.T[vy]


def _line_matrix(
    monos: Sequence[Monomial], coords: Sequence, vy: Union[int, Sequence[int]], q: int, deg: int
) -> np.ndarray:
    """(..., deg+1, len(monos)) maps: column j holds monos[j]'s value in its y-degree's row."""
    values, ydeg = _line_values(monos, coords, vy, q)
    return np.where(ydeg[..., None, :] == np.arange(deg + 1)[:, None], values[..., None, :], 0)


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
    monos, coeffs = zip(*p.terms_descending())
    coeffs = np.array(coeffs, dtype=np.int64)
    candidates = (
        ((j + turn) % p.arity, coords)
        for turn in range(p.arity)
        for j, coords in enumerate(_spread_points(p.arity - 1, q))
    )
    lines: List[Tuple[int, Tuple[int, ...], np.ndarray]] = []
    # most lines qualify, so the candidates are restricted _LINES at a time
    while len(lines) < _LINES and (batch := list(islice(candidates, _LINES))):
        vys, points = zip(*batch)
        # each term added into its y-degree: no (deg+1) x terms map per line
        values, ydeg = _line_values(monos, points, vys, q)
        restricted = np.zeros((len(batch), deg + 1), dtype=np.int64)
        np.add.at(restricted, (np.arange(len(batch))[:, None], ydeg), values * coeffs)
        lines += [(vy, c, r) for vy, c, r in zip(vys, points, restricted % q) if r.any()]
    return lines[:_LINES]


def _accept_tables(
    restricted: np.ndarray, prev: np.ndarray, d: int, q: int, deadline: float
) -> np.ndarray:
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
    """
    n_lines, n = restricted.shape
    tables = np.zeros((n_lines, q ** (d + 1)), dtype=bool)
    tables[:, : q**d] = prev[:n_lines]
    scalars = np.arange(1, q)[:, None, None]
    step = max(1, _CHUNK // max(1, restricted.size))
    for lo in range(0, q**d, step):
        idx = np.arange(lo, min(lo + step, q**d))
        monic = np.ones((len(idx), d + 1), dtype=np.int64)
        monic[:, :d] = idx[:, None] // q ** np.arange(d) % q
        rem = np.repeat(restricted[:, None, :], len(idx), axis=1)
        for top in range(n - 1, d - 1, -1):
            _check_deadline(deadline)  # one chunk's steps are O(input degree)
            span = slice(top - d, top + 1)
            rem[:, :, span] = (rem[:, :, span] - rem[:, :, top, None] * monic) % q
        line, row = np.nonzero(~rem.any(axis=2))
        tables[line, scalars * monic[row] % q @ q ** np.arange(d + 1)] = True
    return tables


def _low_codes(cols: np.ndarray, q: int) -> np.ndarray:
    """Code of the restriction of every low-digit pattern, in enumeration order.

    cols is the (deg+1) x k block of a line matrix for the k lowest index
    digits; pattern j has digit (j // q^(k-1-i)) % q in column i. Codes add
    digit by digit mod q, so one table serves every chunk of a degree: a
    pattern's code and the high digits' code combine without carries. The
    digit rows stay below 2q in the narrowest unsigned type, where min(y,
    y - q) reduces mod q (y - q wraps above y when y < q), and are packed
    into codes once at the end.
    """
    rows, narrow = len(cols), np.min_scalar_type(2 * q)
    steps = (cols[:, :, None] * np.arange(q) % q).astype(narrow)
    y = np.zeros((rows, 1), dtype=narrow)
    # the last column first: each new digit is the most significant so far
    for i in range(cols.shape[1] - 1, -1, -1):
        y = (steps[:, i, :, None] + y[:, None, :]).reshape(rows, -1)
        y = np.minimum(y, y - narrow.type(q))
    codes = y[-1].astype(np.int64)
    for row in y[-2::-1]:
        codes *= q
        codes += row
    return codes


@lru_cache(maxsize=64)
def _sieve_lines(q: int, arity: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """The sieve's seeded lines (point, direction) of F_q^arity, in the order drawn."""
    rng = Random(0)
    coords = [tuple(rng.randrange(q) for _ in range(2 * arity)) for _ in range(_SIEVE_LINES)]
    return tuple((c[:arity], c[arity:]) for c in coords)


def _open_degrees(p: Polynomial, cap: int, deadline: float) -> Set[int]:
    """The candidate degrees 1..cap that the factor-degree sieve leaves open.

    ``_Field.open_degrees`` restricts p to up to _SIEVE_LINES seeded lines
    point + s direction, checking the deadline once per line. A restriction
    of high degree costs more to factor than the search it could spare, so
    deg p <= _SIEVE_MAX_DEGREE, or every degree stays open.

    Over F_3 the lines lie in F_27^n: an F_3-line is too coarse to close
    anything, and F_9-lines fail whenever p splits over F_9. An irreducible
    P over F_3 of degree D splits over F_{3^k} into gcd(k, r) conjugate
    factors, r | D the number of its absolutely irreducible factors, so
    with k = 3, odd, an irreducible quartic stays irreducible.
    """
    if not cap or p.degree() > _SIEVE_MAX_DEGREE:
        return set(range(1, cap + 1))
    field = _univariate.field(27 if p.field.p == 3 else p.field.p)  # the lines' field
    lines, check = _sieve_lines(field.order, p.arity), lambda: _check_deadline(deadline)
    opened = field.open_degrees(p.sparse_terms(), p.degree(), lines, cap, check)
    return {d for d in range(1, cap + 1) if opened >> d & 1}


class _Refused(Exception):
    """A budget ran out mid-search; the message is the BudgetExceeded reason."""


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise _Refused("time limit exceeded")


def _check_candidates(work: int, d: int) -> None:
    # the count itself is not formatted: it may run to thousands of digits
    if work > _MAX_CANDIDATES:
        raise _Refused(f"candidate space through degree {d} exceeds budget {_MAX_CANDIDATES}")


class _Search:
    """The sieved, filtered trial division of one input, one candidate degree at a time.

    The factor-degree sieve runs first, on degrees 1..cap; with no degree
    open no filter line is built. Below the last open degree a closed
    degree's tables are still built: degree d's accept tables extend those
    of degree d-1, so degrees must be searched in ascending order, each
    once. ``brute_force_factor_search`` charges every budget but the
    deadline, which is checked here.
    """

    def __init__(self, p: Polynomial, cap: int, deadline: float) -> None:
        self.p, self.q, self.deadline = p, p.field.p, deadline
        deg = p.degree()
        self.open = _open_degrees(p, cap, deadline)
        self.last = max(self.open, default=0)
        if not self.open:
            return
        self.homogeneous, _ = p.is_homogeneous()
        self.lines = _filter_lines(p, self.q, deg)
        self.restricted = np.array(
            [r for _, _, r in self.lines], dtype=np.int64
        ).reshape(-1, deg + 1)
        # degree 0: the nonzero constants
        self.tables = np.tile(np.arange(self.q) > 0, (len(self.lines), 1))

    def divisors(
        self, d: int, runs: Optional[List[int]] = None
    ) -> Iterator[Tuple[int, FactorFound]]:
        """(index, found) for each monic divisor of degree d, in ascending index.

        A candidate's index is its coefficient vector read as a base-q
        number, the first monomial most significant: monic candidates with
        t monomials after the leading one are [q^t, 2 q^t), those of degree
        d have t >= k, k the number of lower monomials, and ascending index
        is the enumeration order. Runs, a sorted list of indices over the
        degree-d monomials, limit the search to the candidates [r q^k,
        (r+1) q^k) whose degree-d form has index r, for each run r. A degree
        the sieve closed yields nothing; only its tables are built.
        """
        p, q = self.p, self.q
        size = q ** (d + 1)
        if d > self.last:
            return
        # as many lines as the budget holds; with none, one that passes everything
        used = self.lines[: _MAX_TABLE_BYTES // size]
        tables = _accept_tables(self.restricted[: len(used)], self.tables, d, q, self.deadline)
        self.tables = tables
        if d not in self.open:
            return
        monos = _monomials_desc(p.arity, d, exact=self.homogeneous)
        keys = [_key(m) for m in monos]
        n = len(monos)
        if used:
            vys, points, _ = zip(*used)
            mats = _line_matrix(monos, points, vys, q, d)
        else:
            mats = np.zeros((1, d + 1, n), dtype=np.int64)
            tables = np.ones((1, size), dtype=bool)
        first, first_table = mats[0], tables[0].reshape((q,) * (d + 1))
        powers, places = q ** np.arange(d + 1), q ** np.arange(n - 1, -1, -1)
        axes = tuple(range(d + 1))
        k = n - comb(p.arity + d - 1, d)  # the monomials of degree below d
        # chunks are aligned ranges of q^low indices that share their high
        # digits, within one run or within one [q^t, 2 q^t), low <= t < n
        low = 0
        while low < (n - 1 if runs is None else k) and q ** (low + 1) <= _CHUNK:
            low += 1
        high = n - low
        codes = _low_codes(first[:, high:], q)
        later = mats[1:].transpose(0, 2, 1)  # one row per index digit
        # the monic indices below q^low have no high digits: one chunk holds them
        below = [np.arange(q**t, 2 * q**t) for t in range(k, low)] if runs is None else []
        # the other chunks step through [r q^e, (r+1) q^e) for each (r, e) in spans
        spans = [(1, t) for t in range(max(k, low), n)] if runs is None else [(r, k) for r in runs]
        starts = (s for r, e in spans for s in range(r * q**e, (r + 1) * q**e, q**low))
        chunks = chain([(0, np.concatenate(below))] if below else [], ((s, None) for s in starts))
        for start, patterns in chunks:
            _check_deadline(self.deadline)
            top = start // places[:high] % q
            # the restriction of a candidate is the high digits' shift plus
            # its low pattern's code, so shift the table, not the codes
            shift = first[:, :high] @ top % q
            shifted = np.roll(first_table, tuple(-shift[::-1]), axis=axes).ravel()
            if patterns is None:
                patterns = np.flatnonzero(shifted[codes])
            else:
                patterns = patterns[shifted[codes[patterns]]]
            lows = patterns[:, None] // places[high:] % q
            for low_mat, table, base in zip(later[:, high:], tables[1:], top @ later[:, :high]):
                if not len(lows):
                    break
                lows = lows[table[(lows @ low_mat + base) % q @ powers]]
            for tail in lows.tolist():
                _check_deadline(self.deadline)
                coeffs = top.tolist() + tail
                # the digits are residues mod q, so already F_q payloads
                cand = Polynomial(p.field, p.arity, {k: c for k, c in zip(keys, coeffs) if c})
                quotient = p.exact_divide(cand)
                if quotient is not None:
                    yield int(places @ coeffs), FactorFound(cand, quotient)


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
    homogeneous, _ = p.is_homogeneous()
    if budget.homogeneous_only and not homogeneous:
        return BudgetExceeded("input is not homogeneous")

    half = deg // 2
    degree_cap = half if budget.max_degree is None else min(budget.max_degree, half)
    exhaustive = degree_cap == half

    deadline = time.monotonic() + (inf if budget.time_limit is None else budget.time_limit)
    # work counts the monic candidates enumerated, charged just before degree d
    # is searched: the monic degree-d forms, then (for inhomogeneous p) the runs
    # of the forms that divide p's leading form, q^(monomials of degree < d) each
    work = 0
    try:
        for d in range(1, degree_cap + 1):
            _check_deadline(deadline)
            work += (q ** comb(p.arity + d - 1, d) - 1) // (q - 1)
            _check_candidates(work, d)
            # one line's accept table; at d = 1 it bounds q, for the sieve's
            # field and the filter lines' int64 products
            if (size := q ** (d + 1)) > _MAX_TABLE_BYTES:
                raise _Refused(
                    f"accept table of {size} bytes for degree {d} exceeds budget {_MAX_TABLE_BYTES}"
                )
            if d == 1:
                # the filter lines' int64 restrictions bound the degree of p,
                # and so of its leading form: one check before either search
                if (size := _LINES * (deg + 1) * 8) > _MAX_TABLE_BYTES:
                    raise _Refused(
                        f"filter lines of {size} bytes for input degree {deg} exceed budget "
                        f"{_MAX_TABLE_BYTES}"
                    )
                # leading forms multiply, so a divisor's degree-d form divides p's
                # leading form: an inhomogeneous p needs only the runs of those
                # forms, and no degree past the last one its sieve leaves open
                leading = (
                    None
                    if homogeneous
                    else _Search(p.leading_homogeneous_component(), degree_cap, deadline)
                )
                search = _Search(p, degree_cap if leading is None else leading.last, deadline)
            runs = None if leading is None else [index for index, _ in leading.divisors(d)]
            if runs is not None:
                work += len(runs) * q ** comb(p.arity + d - 1, p.arity)
                _check_candidates(work, d)
            for _, found in search.divisors(d, runs):
                return found
    except _Refused as refused:
        return BudgetExceeded(str(refused))

    if not exhaustive:
        return BudgetExceeded(
            f"degree cap {degree_cap} below half the input degree {half}"
        )
    # every block ran to its end, so every monic candidate was ruled out: the
    # forms of a homogeneous p, else the polynomials of degree 1..half with a
    # leading coefficient 1, (q^N - q) / (q - 1) of them, N the monomials of
    # degree <= half
    return NoFactorFound(work if homogeneous else (q ** comb(p.arity + half, p.arity) - q) // (q - 1))
