"""Correctness references that do not call the code under test.

Every check the benchmark makes is against a value computed here from the
request's own parameters: the README's classification table, closed forms of
the quartic, determinants of bordered Cayley-Menger matrices by exact
Gaussian elimination, a parser and evaluator for the text format of
polynomials, and brute-force integer scans.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

REDUCIBLE_RULES = frozenset({"TZeroSquare", "HeronCase", "OmegaCase"})


# -- the classification table ---------------------------------------------------


def predict_rule(p: Optional[int], has_cube_root: bool, m: int, a: int, t: int) -> str:
    """Rule tag of the README table for integer parameters read in the field.

    ``p`` is the characteristic (None for Q and Q(w)); ``has_cube_root``
    says whether the field contains a primitive cube root of unity.
    """
    if p is not None:
        a, t = a % p, t % p
    if t == 0:
        return "TZeroSquare"
    if a != 0:
        return "IrreducibleInhomogeneous"
    if m == 3 and t == 2:
        return "HeronCase"
    if m == 3 and t == 3 and has_cube_root:
        return "OmegaCase"
    return "IrreducibleHomogeneous"


def g_terms_mod(q: int, m: int, a: int, t: int) -> Dict[Tuple[int, ...], int]:
    """Nonzero coefficients of (a^2 + sum x_i^2)^2 - t (a^4 + sum x_i^4) mod q."""
    a2 = a * a % q
    raw: Dict[Tuple[int, ...], int] = {(0,) * m: a2 * a2 * (1 - t)}
    for i in range(m):
        e = [0] * m
        e[i] = 4
        raw[tuple(e)] = 1 - t
        e[i] = 2
        raw[tuple(e)] = 2 * a2
        for j in range(i + 1, m):
            e2 = list(e)
            e2[j] = 2
            raw[tuple(e2)] = 2
    return {e: c % q for e, c in raw.items() if c % q}


def mul_terms_mod(
    f: Dict[Tuple[int, ...], int], g: Dict[Tuple[int, ...], int], q: int
) -> Dict[Tuple[int, ...], int]:
    """Product of two sparse polynomials over F_q, zero terms dropped."""
    acc: Dict[Tuple[int, ...], int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = (acc.get(e, 0) + c1 * c2) % q
    return {e: c for e, c in acc.items() if c}


# -- exact scalars: Q as Fraction, F_p as int, Q(w) as QW ------------------------------


class QW:
    """r + s*w in Q(w), with w^2 = -1 - w; just what the evaluator needs."""

    __slots__ = ("r", "s")

    def __init__(self, r, s) -> None:
        self.r, self.s = Fraction(r), Fraction(s)

    @staticmethod
    def lift(x) -> "QW":
        return x if isinstance(x, QW) else QW(x, 0)

    def __add__(self, other) -> "QW":
        other = QW.lift(other)
        return QW(self.r + other.r, self.s + other.s)

    def __mul__(self, other) -> "QW":
        other = QW.lift(other)
        cross = self.s * other.s
        return QW(self.r * other.r - cross, self.r * other.s + self.s * other.r - cross)

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other) -> bool:
        other = QW.lift(other)
        return self.r == other.r and self.s == other.s


class Scalars:
    """Exact values of one field: Fraction or QW in characteristic 0, int mod p."""

    def __init__(self, p: Optional[int]) -> None:
        self.p = p

    def of(self, x):
        """Image of an integer or a Fraction."""
        x = Fraction(x)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def reduce(self, x):
        return x if self.p is None else x % self.p

    def literal(self, text: str):
        """A field literal: '3', '-1/2', 'w', '2*w', '1+2*w', '-1-w'."""
        if "w" not in text:
            return self.of(Fraction(text))
        r = s = Fraction(0)
        for piece in re.findall(r"[+-]?[^+-]+", text):
            if piece.endswith("w"):
                body = piece[:-1].rstrip("*")
                s += {"": 1, "+": 1, "-": -1}.get(body) or Fraction(body)
            else:
                r += Fraction(piece)
        return QW(r, s)


_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")
_OUTER_STAR = re.compile(r"\*(?![^(]*\))")  # a '*' outside parentheses


def eval_text(sc: Scalars, text: str, point: Dict[str, object]):
    """Value of a polynomial in the library's text format at ``point``.

    Terms are joined by ' + ' / ' - '; a term is a '*'-joined list of a
    coefficient (possibly parenthesized), the symbol w, and name^k factors.
    """
    powers: Dict[str, object] = {}
    pieces = _TERM_SPLIT.split(text.strip())
    total = sc.of(0)
    for sign, term in zip(["+"] + pieces[1::2], pieces[0::2]):
        value = -1 if sign == "-" else 1
        if term.startswith("-"):
            value, term = -value, term[1:]
        for factor in _OUTER_STAR.split(term):
            if factor not in powers:
                match = _FACTOR.match(factor)
                if match and match.group(1) in point:
                    powers[factor] = sc.reduce(point[match.group(1)] ** int(match.group(2) or 1))
                elif factor == "w":
                    powers[factor] = QW(0, 1)
                else:
                    powers[factor] = sc.literal(factor.strip("()"))
            value = sc.reduce(value * powers[factor])
        total = sc.reduce(total + value)
    return total


def eval_terms(sc: Scalars, terms: Sequence[dict], values: Sequence[object]):
    """Value of a term list ``[{"monomial": [...], "coefficient": "..."}]``."""
    total = sc.of(0)
    for term in terms:
        value = sc.literal(term["coefficient"])
        for x, e in zip(values, term["monomial"]):
            if e:
                value = sc.reduce(value * x**e)
        total = sc.reduce(total + value)
    return total


def g_value(sc: Scalars, a: int, t: int, xs: Sequence[object]):
    """(a^2 + sum x^2)^2 - t (a^4 + sum x^4) at the point xs."""
    squares = a**2 + sum(x**2 for x in xs)
    return sc.reduce(squares**2 - t * (a**4 + sum(x**4 for x in xs)))


# -- Cayley-Menger determinants ---------------------------------------------------


def fraction_det(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    a = [list(map(Fraction, row)) for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def bordered_det(sq: Dict[Tuple[int, int], Fraction], vertices: int) -> Fraction:
    """Determinant of the bordered matrix with squared distances sq[(i, j)], i < j."""
    size = vertices + 1
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size):
        rows[0][k] = rows[k][0] = Fraction(1)
    for (i, j), v in sq.items():
        rows[i][j] = rows[j][i] = Fraction(v)
    return fraction_det(rows)


def edge_pairs(n: int) -> List[Tuple[int, int]]:
    """Edges of an n-simplex in the library's ring order (lexicographic pairs)."""
    return [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]


def substitution_image(rule: str, xi: Fraction, xj: Fraction) -> Fraction:
    """The value a special-family rule substitutes for a squared edge."""
    return {
        "sum": xi + xj,
        "product": xi * xj,
        "sum-squared": (xi + xj) ** 2,
        "mixed-quadratic": xi * xi + xi * xj + xj * xj,
    }[rule]


# -- Diophantine ---------------------------------------------------------------------


def is_integer_solution(v: Sequence[int]) -> bool:
    sq = sum(x * x for x in v)
    return sq * sq == 3 * sum(x**4 for x in v)


def naive_solutions(bound: int) -> List[Tuple[int, int, int, int]]:
    """Every ascending nonzero quadruple in [0, bound] solving the relation."""
    found = []
    for w in range(bound + 1):
        for x in range(w, bound + 1):
            for y in range(x, bound + 1):
                for z in range(y, bound + 1):
                    if z and is_integer_solution((w, x, y, z)):
                        found.append((w, x, y, z))
    return found


def known_solutions(bound: int) -> List[Tuple[int, int, int, int]]:
    """Multiples of (0,1,1,1), (3,5,7,8) and (7,8,13,15) up to the bound."""
    out = []
    for base in ((0, 1, 1, 1), (3, 5, 7, 8), (7, 8, 13, 15)):
        k = 1
        while k * base[-1] <= bound:
            out.append(tuple(k * v for v in base))
            k += 1
    return out


# -- float geometry ----------------------------------------------------------------


def simplex_distances(edge: float, weights: Sequence[float]) -> List[float]:
    """Distances from sum(w_i e_i) * edge/sqrt(2) to the scaled basis vertices."""
    scale = edge / math.sqrt(2.0)
    return [
        scale * math.sqrt(math.fsum((w - (k == i)) ** 2 for k, w in enumerate(weights)))
        for i in range(len(weights))
    ]


def relation_defect(side: float, distances: Sequence[float]) -> float:
    """(s^2 + sum d^2)^2 - (n+1)(s^4 + sum d^4), normalized by s^4."""
    sq = math.fsum([side * side] + [d * d for d in distances])
    quart = math.fsum([side**4] + [d**4 for d in distances])
    return (sq * sq - len(distances) * quart) / side**4
