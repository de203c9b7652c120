"""Sparse exact multivariate polynomial arithmetic.

Polynomials live in a ring fixed by (field, arity): a monomial is a tuple of
``arity`` nonnegative exponents, and a polynomial maps monomials to nonzero
field elements. The global monomial order is graded lexicographic: compare
total degree first, then the exponent tuple with earlier positions more
significant. The zero polynomial is the empty term map and its degree is
None, never -1.

Values are immutable and operations pure; instances can be shared between
threads. Do not mutate a ``terms`` mapping after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from operator import add
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .field import (
    CYCLOTOMIC_KIND,
    FieldElement,
    FieldSpec,
    element_to_text,
    parse_element,
)

Monomial = Tuple[int, ...]


def grlex_key(exps: Monomial) -> tuple:
    """Sort key for the graded-lexicographic order."""
    return (sum(exps), exps)


def default_names(arity: int) -> Tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(arity))


def _accumulate(
    terms: Dict[Monomial, FieldElement],
    items: Iterable[Tuple[Monomial, FieldElement]],
) -> Dict[Monomial, FieldElement]:
    """Add each (monomial, coefficient) of items into terms, dropping zeros."""
    for exps, c in items:
        prev = terms.get(exps)
        if prev is not None:
            c = prev + c
        if c.is_zero():
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return terms


@dataclass(frozen=True)
class Polynomial:
    """A sparse multivariate polynomial over one of the supported fields."""

    field: FieldSpec
    arity: int
    terms: Mapping[Monomial, FieldElement] = dataclass_field(default_factory=dict)

    def __hash__(self) -> int:
        return hash((self.field, self.arity, frozenset(self.terms.items())))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(
        field: FieldSpec, arity: int, raw: Mapping[Monomial, FieldElement]
    ) -> "Polynomial":
        """Canonical constructor: validates exponents and prunes zeros."""
        terms: Dict[Monomial, FieldElement] = {}
        for exps, c in raw.items():
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 for e in exps):
                raise ValueError(f"bad monomial {exps} for arity {arity}")
            if c.spec != field:
                raise ValueError(f"coefficient field {c.spec} does not match {field}")
            if not c.is_zero():
                terms[exps] = c
        return Polynomial(field, arity, terms)

    @staticmethod
    def zero(field: FieldSpec, arity: int) -> "Polynomial":
        return Polynomial(field, arity, {})

    @staticmethod
    def constant(field: FieldSpec, arity: int, c) -> "Polynomial":
        c = field.coerce(c)
        if c.is_zero():
            return Polynomial.zero(field, arity)
        return Polynomial(field, arity, {(0,) * arity: c})

    @staticmethod
    def diagonal(field: FieldSpec, const, coeffs: Sequence, power: int) -> "Polynomial":
        """const + sum_i coeffs[i] * x_i^power in len(coeffs) variables."""
        if power < 1:
            raise ValueError(f"diagonal power must be at least 1, got {power}")
        arity = len(coeffs)
        raw = {(0,) * arity: field.coerce(const)}
        for i, c in enumerate(coeffs):
            raw[(0,) * i + (power,) + (0,) * (arity - 1 - i)] = field.coerce(c)
        return Polynomial.from_terms(field, arity, raw)

    @staticmethod
    def variable(field: FieldSpec, arity: int, i: int, power: int = 1) -> "Polynomial":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        exps = tuple(power if j == i else 0 for j in range(arity))
        return Polynomial(field, arity, {exps: field.one()})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Monomial) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero())

    def constant_term(self) -> FieldElement:
        return self.coefficient((0,) * self.arity)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> FieldElement:
        return self.terms[self.leading_monomial()]

    def is_homogeneous(self) -> Tuple[bool, Optional[int]]:
        """(flag, degree); the zero polynomial is homogeneous of degree None."""
        if not self.terms:
            return True, None
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return True, degrees.pop()
        return False, None

    def leading_homogeneous_component(self) -> "Polynomial":
        """Sum of the terms of maximal total degree (errors on zero input)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading homogeneous component")
        d = self.degree()
        return Polynomial(
            self.field,
            self.arity,
            {e: c for e, c in self.terms.items() if sum(e) == d},
        )

    # -- ring operations -------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.field != other.field or self.arity != other.arity:
            raise ValueError(
                f"ring mismatch: ({self.field}, {self.arity} vars) vs "
                f"({other.field}, {other.arity} vars)"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = _accumulate(dict(self.terms), other.terms.items())
        return Polynomial(self.field, self.arity, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            self.field, self.arity, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c.is_zero():
            return Polynomial.zero(self.field, self.arity)
        return Polynomial(
            self.field, self.arity, {e: k * c for e, k in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        acc = _accumulate(
            {},
            (
                (tuple(map(add, e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )
        return Polynomial(self.field, self.arity, acc)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n <= 1:
            return self if n else Polynomial.constant(self.field, self.arity, 1)
        half = self ** (n // 2)
        square = half * half
        return square * self if n % 2 else square

    # -- structural operations ---------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        total = self.field.zero()
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def substitute(
        self,
        images: Mapping[int, "Polynomial"],
        arity: Optional[int] = None,
    ) -> "Polynomial":
        """Ring map sending variable i to images[i].

        Unmapped variables go to the same-position variable of the target
        ring, whose arity defaults to this ring's. All images must live in
        the target ring.
        """
        target_arity = self.arity if arity is None else arity
        full: Dict[int, Polynomial] = {}
        for i in range(self.arity):
            img = images.get(i)
            if img is None:
                if i >= target_arity:
                    raise ValueError(
                        f"variable {i} has no image and no slot in target ring"
                    )
                img = Polynomial.variable(self.field, target_arity, i)
            elif img.field != self.field or img.arity != target_arity:
                raise ValueError("substitution image lives in the wrong ring")
            full[i] = img
        powers: Dict[Tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in powers:
                powers[key] = full[i] ** e
            return powers[key]

        acc: Dict[Monomial, FieldElement] = {}
        for exps, c in self.terms.items():
            term = Polynomial.constant(self.field, target_arity, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            _accumulate(acc, term.terms.items())
        return Polynomial(self.field, target_arity, acc)

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Apply the ring automorphism x_i -> x_perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"not a permutation of {self.arity} positions: {perm}")
        terms: Dict[Monomial, FieldElement] = {}
        for exps, c in self.terms.items():
            new = [0] * self.arity
            for i, e in enumerate(exps):
                new[perm[i]] = e
            terms[tuple(new)] = c
        return Polynomial(self.field, self.arity, terms)

    def exact_divide(self, d: "Polynomial") -> Optional["Polynomial"]:
        """Quotient self/d when d divides exactly, else None.

        Single-divisor multivariate division under the grlex order; over a
        field the remainder vanishes exactly when d divides.
        """
        self._check_ring(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.field, self.arity)
        dlm = d.leading_monomial()
        dlc = d.terms[dlm]
        rem = dict(self.terms)
        quot: Dict[Monomial, FieldElement] = {}
        while rem:
            rlm = max(rem, key=grlex_key)
            shift = tuple(a - b for a, b in zip(rlm, dlm))
            if any(e < 0 for e in shift):
                return None
            c = rem[rlm] / dlc
            quot[shift] = c
            neg_c = -c
            _accumulate(
                rem, ((tuple(map(add, shift, e)), neg_c * k) for e, k in d.terms.items())
            )
        return Polynomial(self.field, self.arity, quot)

    def symmetric_reduce(self, i: int, j: int) -> Optional["Polynomial"]:
        """Rewrite a polynomial symmetric in x_i, x_j in terms of their
        elementary symmetric functions.

        Returns None unless self is invariant under swapping positions i and
        j. In the output, position i carries u = x_i + x_j and position j
        carries v = x_i * x_j; every other variable keeps its slot. Pairs
        x_i^k x_j^l + x_i^l x_j^k reduce through the power sums
        p_d = u p_{d-1} - v p_{d-2}.
        """
        if i == j or not (0 <= i < self.arity and 0 <= j < self.arity):
            raise ValueError(f"bad position pair ({i}, {j})")
        swap = list(range(self.arity))
        swap[i], swap[j] = swap[j], swap[i]
        if self.permute_variables(swap) != self:
            return None
        u = Polynomial.variable(self.field, self.arity, i)
        v = Polynomial.variable(self.field, self.arity, j)
        two = Polynomial.constant(self.field, self.arity, 2)
        power_sums = [two, u]

        def power_sum(d: int) -> Polynomial:
            while len(power_sums) <= d:
                power_sums.append(
                    u * power_sums[-1] - v * power_sums[-2]
                )
            return power_sums[d]

        acc: Dict[Monomial, FieldElement] = {}
        for exps, c in self.terms.items():
            k, l = exps[i], exps[j]
            if k < l:
                continue  # mirror of a (k > l) term already handled
            rest = list(exps)
            rest[i] = 0
            rest[j] = l if k > l else k
            base = Polynomial(self.field, self.arity, {tuple(rest): c})
            _accumulate(acc, (base * power_sum(k - l) if k > l else base).terms.items())
        return Polynomial(self.field, self.arity, acc)

    def __str__(self) -> str:
        return poly_to_text(self)


# -- text format ---------------------------------------------------------------
#
# Terms joined by +/-, descending grlex; factors as name^k; coefficients use
# the field literal syntax. A Q(w) coefficient with both components nonzero is
# parenthesized so the term split stays unambiguous; the bare symbol w always
# denotes the cube root of unity, never a variable.

_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def _coeff_text(c: FieldElement) -> Tuple[bool, str]:
    """(negative?, magnitude text); wraps mixed Q(w) coefficients in parens."""
    if c.spec.kind == CYCLOTOMIC_KIND:
        r, s = c.value
        if r != 0 and s != 0:
            return False, f"({element_to_text(c)})"
        if r < 0 or (r == 0 and s < 0):
            return True, element_to_text(-c)
        return False, element_to_text(c)
    text = element_to_text(c)
    if text.startswith("-"):
        return True, text[1:]
    return False, text


def _checked_names(
    field: FieldSpec, arity: int, names: Optional[Sequence[str]]
) -> Tuple[str, ...]:
    """The given variable names, or the defaults, after validation."""
    names = tuple(names) if names is not None else default_names(arity)
    if len(names) != arity or len(set(names)) != arity:
        raise ValueError("need one distinct name per variable")
    if field.kind == CYCLOTOMIC_KIND and "w" in names:
        raise ValueError("the name w is reserved for the cube root of unity")
    return names


def poly_to_text(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    names = _checked_names(p.field, p.arity, names)
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        neg, mag = _coeff_text(p.terms[exps])
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps)
            if e
        ]
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def _split_terms(text: str) -> Iterable[str]:
    depth, start = 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        elif ch in "+-" and depth == 0 and pos > start:
            yield text[start:pos]
            start = pos
    if depth:
        raise ValueError("unbalanced parentheses")
    yield text[start:]


def parse_polynomial(
    text: str, field: FieldSpec, arity: int, names: Optional[Sequence[str]] = None
) -> Polynomial:
    """Inverse of :func:`poly_to_text`; round-trips exactly."""
    index = {name: i for i, name in enumerate(_checked_names(field, arity, names))}
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    terms: Dict[Monomial, FieldElement] = {}
    for raw in _split_terms(compact):
        if not raw:
            continue
        sign = 1
        if raw[0] in "+-":
            sign = -1 if raw[0] == "-" else 1
            raw = raw[1:]
        if not raw:
            raise ValueError("dangling sign in polynomial text")
        coeff = field.one()
        exps = [0] * arity
        # split on * at depth 0
        factors, depth, start = [], 0, 0
        for pos, ch in enumerate(raw):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                factors.append(raw[start:pos])
                start = pos + 1
        factors.append(raw[start:])
        for factor in factors:
            if not factor:
                raise ValueError(f"empty factor in term {raw!r}")
            m = _FACTOR.match(factor)
            if m and m.group(1) in index:
                exps[index[m.group(1)]] += int(m.group(2) or 1)
            elif factor.startswith("(") and factor.endswith(")"):
                coeff = coeff * parse_element(field, factor[1:-1])
            else:
                coeff = coeff * parse_element(field, factor)
        if sign < 0:
            coeff = -coeff
        _accumulate(terms, [(tuple(exps), coeff)])
    return Polynomial(field, arity, terms)
