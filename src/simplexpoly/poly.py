"""Sparse exact multivariate polynomial arithmetic.

Polynomials live in a ring fixed by (field, arity): a monomial is a tuple of
``arity`` nonnegative exponents, and a polynomial maps monomials to nonzero
field elements. The global monomial order is graded lexicographic: compare
total degree first, then the exponent tuple with earlier positions more
significant. The zero polynomial is the empty term map and its degree is
None, never -1.

A monomial is stored as the key ``(degree, -v1, e1, -v2, e2, ...)`` of its
nonzero exponents, positions v1 < v2 < ..., so plain tuple order is grlex
and a term costs time in its variables, not in the arity. Keys stay in this
module; ``Polynomial.terms`` is a read-only view keyed by exponent tuples.
Coefficients are stored as field payloads, and each operation binds the
field's payload operations once; the scalar API returns ``FieldElement``s.

Values are immutable and operations pure; instances can be shared between
threads.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .field import (
    CYCLOTOMIC_KIND,
    FieldElement,
    FieldSpec,
    PayloadOps,
    element_to_text,
    literal_value,
)

Monomial = Tuple[int, ...]
_Key = Tuple[int, ...]  # the stored form of a monomial
T = TypeVar("T")
_ONE: _Key = (0,)  # the key of the monomial 1


def default_names(arity: int) -> Tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(arity))


def _encode(powers: Iterable[Tuple[int, int]]) -> _Key:
    """The key of the product of x_v^e over (v, e) pairs, v ascending and e > 0."""
    key = [0]
    for v, e in powers:
        key += (-v, e)
        key[0] += e
    return tuple(key)


def _monomial_key(v: int, e: int, w: int = 0, f: int = 0) -> _Key:
    """The key of x_v^e (e > 0), or of x_v^e * x_w^f when f > 0 (then v < w)."""
    return (e + f, -v, e, -w, f) if f else (e, -v, e)


def _key(exps: Sequence[int]) -> _Key:
    key = [sum(exps)]
    for v in compress(range(len(exps)), exps):
        key += (-v, exps[v])
    return tuple(key)


def _packed(arity: int, powers: Mapping[int, int]) -> int:
    """x_v^e over the (v, e) items of powers, packed as ``Polynomial.from_packed``
    reads it: the degree in the top byte, then one byte per exponent, x_0's highest."""
    exps = sum(e << 8 * (arity - 1 - v) for v, e in powers.items())
    return sum(powers.values()) << 8 * arity | exps


def _exps(key: _Key, arity: int) -> Monomial:
    exps = [0] * arity
    for i in range(1, len(key), 2):
        exps[-key[i]] = key[i + 1]
    return tuple(exps)


def _times(a: _Key, b: _Key) -> _Key:
    """The key of the product of two monomials: their pairs merged by position."""
    if len(a) == 1:
        return b
    if len(b) == 1:
        return a
    out = [a[0] + b[0]]
    i, j, na, nb = 1, 1, len(a), len(b)
    while i < na and j < nb:
        if a[i] == b[j]:
            out += (a[i], a[i + 1] + b[j + 1])
            i, j = i + 2, j + 2
        elif a[i] > b[j]:  # a's variable comes first
            out += a[i : i + 2]
            i += 2
        else:
            out += b[j : j + 2]
            j += 2
    out += a[i:]
    out += b[j:]
    return tuple(out)


def _over(a: _Key, b: _Key) -> Optional[_Key]:
    """The key of a / b, or None when b does not divide a."""
    powers = dict(zip(a[1::2], a[2::2]))  # -v: e, in a's order
    for v, e in zip(b[1::2], b[2::2]):
        if powers.get(v, 0) < e:
            return None
        powers[v] -= e
    return _encode((-v, e) for v, e in powers.items() if e)


def _accumulate(terms: dict, items: Iterable[tuple], ops: PayloadOps) -> dict:
    """Add each (key, payload) of items into terms, dropping zeros."""
    add, zero = ops.add, ops.zero
    for key, c in items:
        prev = terms.get(key)
        if prev is not None:
            c = add(prev, c)
        if c == zero:
            terms.pop(key, None)
        else:
            terms[key] = c
    return terms


class _Memo(dict):
    """A dict that fills a missing key k with fill(k); a hit makes no Python call."""

    def __init__(self, fill: Callable) -> None:
        self.fill = fill

    def __missing__(self, k):
        self[k] = value = self.fill(k)
        return value


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, exponent tuples to FieldElements;
    each term is converted when it is read, and ``len`` is the store's."""

    __slots__ = ("_store", "_field", "_arity")

    def __init__(self, store: dict, field: FieldSpec, arity: int) -> None:
        self._store, self._field, self._arity = store, field, arity

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Monomial]:
        return (_exps(key, self._arity) for key in self._store)

    def __getitem__(self, exps: Monomial) -> FieldElement:
        if not isinstance(exps, tuple) or len(exps) != self._arity:
            raise KeyError(exps)
        return FieldElement(self._field, self._store[_key(exps)])


@dataclass(frozen=True)
class Polynomial:
    """A sparse multivariate polynomial over one of the supported fields.

    Build one with the static constructors or the ring operations: the
    third field maps this module's keys, not exponent tuples, to payloads."""

    field: FieldSpec
    arity: int
    _store: dict = dataclass_field(default_factory=dict)

    def __hash__(self) -> int:
        return hash((self.field, self.arity, frozenset(self._store.items())))

    @property
    def terms(self) -> Mapping:
        """The terms, as a read-only map from exponent tuples to coefficients."""
        return _Terms(self._store, self.field, self.arity)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(
        field: FieldSpec, arity: int, raw: Mapping[Monomial, FieldElement]
    ) -> "Polynomial":
        """Canonical constructor: validates exponents and prunes zeros."""
        terms = {}
        for exps, c in raw.items():
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 for e in exps):
                raise ValueError(f"bad monomial {exps} for arity {arity}")
            if c.spec != field:
                raise ValueError(f"coefficient field {c.spec} does not match {field}")
            if not c.is_zero():
                terms[_key(exps)] = c.value
        return Polynomial(field, arity, terms)

    @staticmethod
    def from_packed(field: FieldSpec, arity: int, raw: Mapping[int, int]) -> "Polynomial":
        """Unchecked constructor from integer coefficients, mapped into the
        field once per value, of monomials packed into ints: the total degree
        in the top byte, then one byte per exponent with the first position
        highest, so int order is grlex. Prunes zeros; the store is built in
        descending grlex order."""
        # many monomials share their first or their last half of positions
        # with others, so each half is decoded once
        low = (1 << 8 * (arity // 2)) - 1
        high = ((1 << 8 * arity) - 1) ^ low
        halves = _Memo(lambda half: _key(half.to_bytes(arity, "big")))
        images = {n: c.value for n in set(raw.values()) if not (c := field.from_int(n)).is_zero()}
        terms = {}
        for packed in sorted(raw, reverse=True):
            if (n := raw[packed]) in images:
                k1, k2 = halves[packed & high], halves[packed & low]
                terms[(k1[0] + k2[0],) + k1[1:] + k2[1:]] = images[n]
        return Polynomial(field, arity, terms)

    @staticmethod
    def zero(field: FieldSpec, arity: int) -> "Polynomial":
        return Polynomial(field, arity, {})

    @staticmethod
    def constant(field: FieldSpec, arity: int, c) -> "Polynomial":
        c = field.coerce(c).value
        return Polynomial(field, arity, {_ONE: c} if c != field.ops.zero else {})

    @staticmethod
    def diagonal(field: FieldSpec, const, coeffs: Sequence, power: int) -> "Polynomial":
        """const + sum_i coeffs[i] * x_i^power in len(coeffs) variables."""
        if power < 1:
            raise ValueError(f"diagonal power must be at least 1, got {power}")
        keys = [_ONE] + [_monomial_key(i, power) for i in range(len(coeffs))]
        values = (field.coerce(c).value for c in [const, *coeffs])
        store = {k: c for k, c in zip(keys, values) if c != field.ops.zero}
        return Polynomial(field, len(coeffs), store)

    @staticmethod
    def variable(field: FieldSpec, arity: int, i: int) -> "Polynomial":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        return Polynomial(field, arity, {_monomial_key(i, 1): field.one().value})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._store

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        return max(self._store)[0] if self._store else None

    def coefficient(self, exps: Monomial) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero())

    def leading_coefficient(self) -> FieldElement:
        if not self._store:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self._store[max(self._store)])

    def is_homogeneous(self) -> Tuple[bool, Optional[int]]:
        """(flag, degree); the zero polynomial is homogeneous of degree None."""
        if not self._store:
            return True, None
        degrees = {key[0] for key in self._store}
        if len(degrees) == 1:
            return True, degrees.pop()
        return False, None

    def leading_homogeneous_component(self) -> "Polynomial":
        """Sum of the terms of maximal total degree (errors on zero input)."""
        if not self._store:
            raise ValueError("zero polynomial has no leading homogeneous component")
        d = self.degree()
        return Polynomial(
            self.field, self.arity, {k: c for k, c in self._store.items() if k[0] == d}
        )

    def _keys_descending(self) -> List[_Key]:
        """The keys, exponent tuples descending lexicographically (not grlex):
        a key without its degree sorts so. Keys of one degree sort so whole,
        and need no slice."""
        rest = None if self.is_homogeneous()[0] else itemgetter(slice(1, None))
        return sorted(self._store, key=rest, reverse=True)

    def terms_descending(self) -> Iterator[Tuple[Monomial, object]]:
        """(exponent tuple, coefficient payload) pairs, exponent tuples descending
        lexicographically (not grlex)."""
        store = self._store
        return ((_exps(key, self.arity), store[key]) for key in self._keys_descending())

    def sparse_terms(self) -> List[Tuple[List[Tuple[int, int]], object]]:
        """([(variable, exponent), ...], payload) pairs read off the keys, in store order."""
        return [([(-v, e) for v, e in zip(k[1::2], k[2::2])], c) for k, c in self._store.items()]

    # -- ring operations -------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.field != other.field or self.arity != other.arity:
            raise ValueError(
                f"ring mismatch: ({self.field}, {self.arity} vars) vs "
                f"({other.field}, {other.arity} vars)"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = _accumulate(dict(self._store), other._store.items(), self.field.ops)
        return Polynomial(self.field, self.arity, terms)

    def __neg__(self) -> "Polynomial":
        return self.map_coefficients(self.field.ops.neg)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return self if c.is_one() else self.map_coefficients(partial(self.field.ops.mul, c.value))

    def map_coefficients(self, f: Callable[[object], object]) -> "Polynomial":
        """The polynomial with each coefficient payload c replaced by f(c), zeros pruned."""
        zero = self.field.ops.zero
        store = {key: fc for key, c in self._store.items() if (fc := f(c)) != zero}
        return Polynomial(self.field, self.arity, store)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        mul = self.field.ops.mul
        acc = _accumulate(
            {},
            (
                (_times(e1, e2), mul(c1, c2))
                for e1, c1 in self._store.items()
                for e2, c2 in other._store.items()
            ),
            self.field.ops,
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

    def inflate(self, k: int) -> "Polynomial":
        """p(x_1^k, ..., x_m^k): every exponent multiplied by k >= 1."""
        return Polynomial(self.field, self.arity, {
            tuple(e * k if i % 2 == 0 else e for i, e in enumerate(key)): c
            for key, c in self._store.items()
        })

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Apply the ring automorphism x_i -> x_perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"not a permutation of {self.arity} positions: {perm}")
        return Polynomial(self.field, self.arity, {
            _encode(sorted(zip([perm[-v] for v in key[1::2]], key[2::2]))): c
            for key, c in self._store.items()
        })

    def exact_divide(self, d: "Polynomial") -> Optional["Polynomial"]:
        """Quotient self/d when d divides exactly, else None.

        Single-divisor multivariate division under the grlex order; over a
        field the remainder vanishes exactly when d divides.
        """
        self._check_ring(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        mul, neg = self.field.ops.mul, self.field.ops.neg
        dlm = max(d._store)
        inverse = self.field.ops.inverse(d._store[dlm])
        rem = dict(self._store)
        quot = {}
        while rem:
            rlm = max(rem)
            shift = _over(rlm, dlm)
            if shift is None:
                return None
            c = quot[shift] = mul(rem[rlm], inverse)
            neg_c = neg(c)
            shifted = ((_times(shift, e), mul(neg_c, k)) for e, k in d._store.items())
            _accumulate(rem, shifted, self.field.ops)
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
        acc: Dict[_Key, object] = {}
        for exps, c in zip(self.terms, self._store.values()):
            k, l = exps[i], exps[j]
            if k < l:
                continue  # mirror of a (k > l) term already handled
            while len(power_sums) <= k - l:
                power_sums.append(u * power_sums[-1] - v * power_sums[-2])
            rest = list(exps)
            rest[i], rest[j] = 0, l
            base = Polynomial(self.field, self.arity, {_key(rest): c})
            product = base * power_sums[k - l] if k > l else base
            _accumulate(acc, product._store.items(), self.field.ops)
        return Polynomial(self.field, self.arity, acc)

    def __str__(self) -> str:
        return poly_to_text(self)


# -- text format ---------------------------------------------------------------
#
# Terms joined by +/-, descending grlex; factors as name^k; coefficients use
# the field literal syntax. A Q(w) coefficient with both components nonzero is
# parenthesized so the term split stays unambiguous; the bare symbol w always
# denotes the cube root of unity, never a variable.

_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]+))?$")
# spaces stand only next to an operator or a parenthesis, never inside a name or number
_INNER_SPACE = re.compile(r"[^ +\-*^()] +[^ +\-*^()]")


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


def coefficient_texts(field: FieldSpec, render: Callable[[FieldElement], T]) -> Callable:
    """render of a payload of ``field``, once per distinct value (2 and Fraction(2) alike)."""
    return _Memo(lambda c: render(FieldElement(field, c))).__getitem__


def _signed_text(c: FieldElement) -> Tuple[str, str, str]:
    """(separator, magnitude, magnitude as a leading factor) of a coefficient;
    a mixed Q(w) coefficient is parenthesized with its sign inside."""
    text = element_to_text(c)
    if c.spec.kind == CYCLOTOMIC_KIND and all(c.value):
        text = f"({text})"
    mag = text.removeprefix("-")
    return " + " if mag == text else " - ", mag, "" if mag == "1" else mag + "*"


def poly_to_text(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    names = _checked_names(p.field, p.arity, names)
    if p.is_zero():
        return "0"
    signed = coefficient_texts(p.field, _signed_text)
    # ft[v][e] is the text of x_v^e; a key stores -v, hence ft[-key[i]][key[i + 1]]
    ft = [_Memo(lambda e, name=name: name if e == 1 else f"{name}^{e}") for name in names]
    # keys of three or more variables look their (-v, e) pairs up whole, so the join maps in C
    factor = _Memo(lambda ve: ft[-ve[0]][ve[1]]).__getitem__
    pieces = []
    store = p._store
    for key in sorted(store, reverse=True):  # sorting keys is cheaper than sorting items
        sep, mag, lead = signed(store[key])
        n = len(key)
        if n > 5:  # tested first, so that a determinant's long terms pay one test
            pairs = iter(key[1:])
            pieces += (sep, lead + "*".join(map(factor, zip(pairs, pairs))))
        elif n == 5:
            pieces.append(f"{sep}{lead}{ft[-key[1]][key[2]]}*{ft[-key[3]][key[4]]}")
        elif n == 3:
            pieces.append(f"{sep}{lead}{ft[-key[1]][key[2]]}")
        else:
            pieces.append(sep + mag)
    first = pieces[0]  # starts with " + " or " - "
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(pieces)


_TERMS_PER_PIECE = 1024


def terms_json(p: Polynomial, indent: Optional[str] = None) -> Iterator[str]:
    """The JSON text of p's term list, ``[{"coefficient": literal, "monomial":
    [exponents]}, ...]`` in ``terms_descending`` order, in pieces of at most
    1,024 terms. The text is ``json.dumps(terms, sort_keys=True)``'s, or with
    indent (a newline and the indentation of the list's own level) that of
    ``indent=2``. Each term is written from its key; no exponent tuple or
    term dict is built."""
    if not p._store:
        yield "[]"
        return
    if indent is None:
        first, comma, last = "[", ", ", "]"
        head, mid, tail, sep = '{"coefficient": ', ', "monomial": [', "]}", ", "
    else:
        i1, i2, i3 = (indent + "  " * k for k in (1, 2, 3))
        open_, close = (i3, i2) if p.arity else ("", "")  # an empty list is "[]"
        first, comma, last = "[" + i1, "," + i1, indent + "]"
        head, mid = "{" + i2 + '"coefficient": ', "," + i2 + '"monomial": [' + open_
        tail, sep = close + "]" + i1 + "}", "," + i3
    coefficient = coefficient_texts(p.field, lambda c: json.dumps(str(c)))
    exponent = _Memo(str)
    store, zeros, keys = p._store, ["0"] * p.arity, p._keys_descending()
    for start in range(0, len(keys), _TERMS_PER_PIECE):
        pieces = []
        for key in keys[start : start + _TERMS_PER_PIECE]:
            exps = zeros.copy()
            for i in range(1, len(key), 2):
                exps[-key[i]] = exponent[key[i + 1]]
            pieces.append(f"{head}{coefficient(store[key])}{mid}{sep.join(exps)}{tail}")
        yield (comma if start else first) + comma.join(pieces)
    yield last


def _split(text: str, seps: str, keep: bool) -> Iterator[str]:
    """The pieces of text cut at each of seps outside parentheses: keep starts
    each piece with its separator and makes no empty piece, else separators drop."""
    depth, start = 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        elif ch in seps and depth == 0 and (pos > start or not keep):
            yield text[start:pos]
            start = pos if keep else pos + 1
    if depth:
        raise ValueError("unbalanced parentheses")
    yield text[start:]


def parse_polynomial(
    text: str, field: FieldSpec, arity: int, names: Optional[Sequence[str]] = None
) -> Polynomial:
    """Inverse of :func:`poly_to_text`; round-trips exactly."""
    index = {name: i for i, name in enumerate(_checked_names(field, arity, names))}
    for name in index:
        if not (m := _FACTOR.match(name)) or m.group(2):
            raise ValueError(f"variable name {name!r} is not an identifier")
    if inner := _INNER_SPACE.search(text):
        raise ValueError(f"a space may stand only next to + - * ^ ( ), not in {inner.group()!r}")
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    terms: Dict[_Key, object] = {}
    for raw in _split(compact, "+-", keep=True):
        negative = raw[0] == "-"
        if raw[0] in "+-":
            raw = raw[1:]
        if not raw:
            raise ValueError("dangling sign in polynomial text")
        coeff = field.one()
        exps = [0] * arity
        for factor in _split(raw, "*", keep=False):
            if not factor:
                raise ValueError(f"empty factor in term {raw!r}")
            m = _FACTOR.match(factor)
            if m and m.group(1) in index:
                exps[index[m.group(1)]] += int(m.group(2) or 1)
                continue
            literal = factor[1:-1] if factor.startswith("(") and factor.endswith(")") else factor
            value = literal_value(field, literal)
            if value is None:
                raise ValueError(f"unknown factor {factor!r}: the variables are {', '.join(index)}")
            coeff = coeff * value
        if negative:
            coeff = -coeff
        _accumulate(terms, [(_key(exps), coeff.value)], field.ops)
    return Polynomial(field, arity, terms)
