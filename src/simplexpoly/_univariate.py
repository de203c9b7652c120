"""Dense univariate polynomial arithmetic over a prime field F_p.

A polynomial is a list of ints in [0, p), the coefficient of y^i at index
i, with no trailing zeros; the zero polynomial is []. Functions take the
prime last and return new lists. ``factor_degrees`` is distinct-degree
factorization (von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 14): the degrees of the irreducible factors, without the factors.
"""

from __future__ import annotations

from typing import List, Tuple

Poly = List[int]


def trim(a: Poly) -> Poly:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    # the top coefficient is a product of two units, so nonzero
    return [c % p for c in out]


def divide(a: Poly, b: Poly, p: int) -> Tuple[Poly, Poly]:
    """(quotient, remainder) of a by a nonzero b."""
    n = len(b) - 1
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


def monic(a: Poly, p: int) -> Poly:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, divide(a, b, p)[1]
    return monic(a, p)


def pow_mod(a: Poly, e: int, f: Poly, p: int) -> Poly:
    """a^e mod f, f of degree at least 1."""
    result, base = [1], divide(a, f, p)[1]
    while e:
        if e & 1:
            result = divide(mul(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = divide(mul(base, base, p), f, p)[1]
    return result


def is_squarefree(f: Poly, p: int) -> bool:
    """f, of degree at least 1, has no repeated factor: gcd(f, f') = 1."""
    df = trim([i * c % p for i, c in enumerate(f)][1:])
    # f' = 0 makes f a p-th power
    return bool(df) and len(gcd(f, df, p)) == 1


def factor_degrees(f: Poly, p: int) -> List[int]:
    """Degrees of the irreducible factors of a squarefree f, ascending.

    The product of the monic irreducibles of degree i dividing f is
    gcd(y^(p^i) - y, f), once those of lower degree are divided out; when
    2i exceeds what is left of f, that is irreducible.
    """
    f, h, degrees, i = monic(f, p), [0, 1], [], 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = pow_mod(h, p, f, p)
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % p
        g = gcd(f, trim(shifted), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = divide(f, g, p)[0]
            h = divide(h, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees
