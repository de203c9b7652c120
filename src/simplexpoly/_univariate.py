"""Dense univariate polynomial arithmetic over a finite field F_q, q = p^k.

A polynomial is a list of field elements, the coefficient of y^i at index
i, with no trailing zeros; the zero polynomial is []. An element of F_q is
an int in [0, q): over a prime field the residue itself, over F_{p^k} the
polynomial in z of degree below k whose coefficients are its base-p digits,
modulo the first monic irreducible of degree k. ``field(q)`` holds the
arithmetic of F_q, and its methods return new lists. ``factor_degrees`` is
distinct-degree factorization (von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 14): the degrees of the irreducible factors, without the
factors. ``restrictions`` restricts a polynomial over F_p to lines of F_q^n.

gcd, powers modulo f, the squarefree test, ``factor_degrees`` and
``restrictions`` are written once, in ``_Field``, on each field's own
product and long division: residues reduced mod p over F_p, add and mul
tables over F_{p^k}. A long division written once too, on one vector
operation of the field per step, made the squarefree test and
``factor_degrees`` over F_5..F_13 1.6-1.8 times slower.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Poly = List[int]


class _Field:
    """The algorithms over a field, on the arithmetic its subclass supplies.

    A subclass has p, k and order = p^k, and supplies mul, divide, scale (by
    an element), add (of two elements), inv and derivative; for k > 1 also
    the add and mul tables, which ``restrictions`` reads.
    """

    p: int
    k: int
    order: int

    def monic(self, a: Poly) -> Poly:
        return self.scale(a, self.inv(a[-1]))

    def gcd(self, a: Poly, b: Poly) -> Poly:
        """The monic gcd of a and b, not both zero."""
        while b:
            a, b = b, self.divide(a, b)[1]
        return self.monic(a)

    def pow_mod(self, a: Poly, e: int, f: Poly) -> Poly:
        """a^e mod f, f of degree at least 1."""
        result, base = [1], self.divide(a, f)[1]
        while e:
            if e & 1:
                result = self.divide(self.mul(result, base), f)[1]
            e >>= 1
            if e:
                base = self.divide(self.mul(base, base), f)[1]
        return result

    def minus_y(self, h: Poly) -> Poly:
        """h - y; -1 is the element p - 1 of the prime field."""
        shifted = h + [0] * (2 - len(h))
        shifted[1] = self.add(shifted[1], self.p - 1)
        return trim(shifted)

    def is_squarefree(self, f: Poly) -> bool:
        """f, of degree at least 1, has no repeated factor: gcd(f, f') = 1."""
        df = trim(self.derivative(f)[1:])
        # f' = 0 makes f a p-th power
        return bool(df) and len(self.gcd(f, df)) == 1

    def factor_degrees(self, f: Poly) -> List[int]:
        """Degrees of the irreducible factors of a squarefree f, ascending.

        The product of the monic irreducibles of degree i dividing f is
        gcd(y^(q^i) - y, f), once those of lower degree are divided out; when
        2i exceeds what is left of f, that is irreducible.
        """
        f, h, degrees, i = self.monic(f), [0, 1], [], 0
        while len(f) - 1 >= 2 * (i + 1):
            i += 1
            h = self.pow_mod(h, self.order, f)
            g = self.gcd(f, self.minus_y(h))
            if len(g) > 1:
                degrees += [i] * ((len(g) - 1) // i)
                f = self.divide(f, g)[0]
                h = self.divide(h, f)[1]
        if len(f) > 1:
            degrees.append(len(f) - 1)
        return degrees

    def restrictions(
        self, terms: Sequence, lines: Iterable[Tuple[Sequence[int], Sequence[int]]]
    ) -> Iterator[Poly]:
        """The coefficients in s of P(point + s direction), for each (point, direction).

        terms holds P's ([(variable, exponent), ...], payload) pairs, payloads
        in F_p, and each line lies in F_q^n. By Kronecker substitution, P over
        the integers at z = 2^bits and s = 2^(bits w), w = deg (k - 1) + 1 past
        the z-degree of each coefficient in s, has as base-2^bits digits its
        coefficients in z and s, once bits covers their sum at z = s = 1; mod p,
        the z-digits d_j of each coefficient in s give the element sum_j d_j z^j.
        """
        p, k = self.p, self.k
        deg = max(sum(e for _, e in powers) for powers, _ in terms)
        # each coefficient is at most its value at s = z = 1, where each
        # coordinate is at most 2 k (p - 1)
        bits = (len(terms) * (p - 1) * (2 * k * (p - 1)) ** deg).bit_length()
        width, mask = deg * (k - 1) + 1, (1 << bits) - 1
        if k > 1:
            rows = [list(range(p))]  # row j holds d z^j for each digit d; z is the element p
            while len(rows) < width:
                rows.append([self.mul_table[e][p] for e in rows[-1]])
        at_z = [0]  # each element's digit polynomial at z = 2^bits, digit by digit
        for j in range(k):
            at_z = [c + (d << bits * j) for d in range(p) for c in at_z]
        for point, direction in lines:
            # each variable's powers on the line, computed as far as a term needs them
            powers_of = [[1, at_z[c] + (at_z[v] << bits * width)] for c, v in zip(point, direction)]
            total = 0
            for powers, c in terms:
                for i, e in powers:
                    row = powers_of[i]
                    while len(row) <= e:
                        row.append(row[-1] * row[1])
                    c *= row[e]
                total += c
            digits = []
            while total:
                digits.append((total & mask) % p)
                total >>= bits
            if k > 1:
                digits += [0] * (-len(digits) % width)
                add, coeffs = self.add_table, [0] * (len(digits) // width)
                for j, scaled in enumerate(rows):
                    coeffs = [add[c][scaled[d]] for c, d in zip(coeffs, digits[j::width])]
                digits = coeffs
            yield trim(digits)


class _PrimeField(_Field):
    """F_p: integer arithmetic, reduced mod p."""

    def __init__(self, p: int) -> None:
        self.p = self.order = p
        self.k = 1

    def inv(self, c: int) -> int:
        return pow(c, -1, self.p)

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def scale(self, a: Poly, c: int) -> Poly:
        p = self.p
        return [x * c % p for x in a]

    def derivative(self, f: Poly) -> Poly:
        p = self.p
        return [i * c % p for i, c in enumerate(f)]

    def mul(self, a: Poly, b: Poly) -> Poly:
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        # the top coefficient is a product of two units, so nonzero
        p = self.p
        return [c % p for c in out]

    def divide(self, a: Poly, b: Poly) -> Tuple[Poly, Poly]:
        """(quotient, remainder) of a by a nonzero b."""
        p, n = self.p, len(b) - 1
        if len(a) <= n:
            return [], list(a)
        rem, inv = list(a), pow(b[-1], -1, p)
        quot = [0] * (len(a) - n)
        for k in range(len(a) - 1 - n, -1, -1):
            c = quot[k] = rem[k + n] * inv % p
            if c:
                for j in range(n):
                    rem[k + j] = (rem[k + j] - c * b[j]) % p
        return quot, trim(rem[:n])


class _ExtensionField(_Field):
    """F_{p^k}, k > 1: the add, neg, mul and inv tables of its elements.

    mul_table[a][b] is the product of the digit polynomials of a and b,
    reduced mod the modulus.
    """

    def __init__(self, p: int, k: int) -> None:
        self.p, self.k, self.order = p, k, p**k
        prime = field(p)
        self.modulus = _first_irreducible(prime, k)
        places = p ** np.arange(k)
        digits = np.arange(self.order)[:, None] // places % p
        polys = [trim(d) for d in digits.tolist()]
        products = ([prime.divide(prime.mul(a, b), self.modulus)[1] for b in polys] for a in polys)
        self.mul_table = [[sum(c * p**i for i, c in enumerate(f)) for f in row] for row in products]
        self.inv_table = [0] + [row.index(1) for row in self.mul_table[1:]]
        self.neg_table = self.mul_table[p - 1]
        # addition is digit by digit mod p
        self.add_table = ((digits[:, None, :] + digits[None, :, :]) % p @ places).tolist()

    def inv(self, c: int) -> int:
        return self.inv_table[c]

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def scale(self, a: Poly, c: int) -> Poly:
        row = self.mul_table[c]
        return [row[x] for x in a]

    def derivative(self, f: Poly) -> Poly:
        # i f_i is (i mod p), an element of the prime field, times f_i
        mul, p = self.mul_table, self.p
        return [mul[i % p][c] for i, c in enumerate(f)]

    def mul(self, a: Poly, b: Poly) -> Poly:
        if not a or not b:
            return []
        add, out = self.add_table, [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = self.mul_table[x]
                for j, y in enumerate(b, i):
                    out[j] = add[out[j]][row[y]]
        return out

    def divide(self, a: Poly, b: Poly) -> Tuple[Poly, Poly]:
        """(quotient, remainder) of a by a nonzero b."""
        add, mul, neg, n = self.add_table, self.mul_table, self.neg_table, len(b) - 1
        if len(a) <= n:
            return [], list(a)
        rem, inv = list(a), mul[self.inv_table[b[-1]]]
        quot = [0] * (len(a) - n)
        for k in range(len(a) - 1 - n, -1, -1):
            c = quot[k] = inv[rem[k + n]]
            if c:
                row = mul[neg[c]]
                for j in range(n):
                    rem[k + j] = add[rem[k + j]][row[b[j]]]
        return quot, trim(rem[:n])


def _first_irreducible(prime: _PrimeField, k: int) -> Poly:
    """The first monic irreducible z^k + tail over F_p, tails in ascending base-p index.

    Rabin's test (Ben-Or, FOCS 1981): f of degree k is irreducible iff z^(p^k)
    = z mod f and gcd(z^(p^(k/r)) - z, f) = 1 for each r > 1 dividing k (the
    primes r suffice, and an irreducible f passes for every r).
    """
    p = prime.p
    for index in range(p**k):
        f = [index // p**i % p for i in range(k)] + [1]
        if prime.pow_mod([0, 1], p**k, f) == [0, 1] and all(
            len(prime.gcd(f, prime.minus_y(prime.pow_mod([0, 1], p ** (k // r), f)))) == 1
            for r in range(2, k + 1)
            if k % r == 0
        ):
            return f
    raise AssertionError("every degree has a monic irreducible")


@lru_cache(maxsize=32)
def field(q: int) -> _Field:
    """The arithmetic of F_q, q a prime power; built once per q."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, rest = 1, q // p
    while rest % p == 0:
        k, rest = k + 1, rest // p
    if rest != 1:
        raise ValueError(f"no field has {q} elements")
    return _PrimeField(p) if k == 1 else _ExtensionField(p, k)


def trim(a: Poly) -> Poly:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a

