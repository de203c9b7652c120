"""Exact scalar arithmetic over the three coefficient fields of the classifier.

Supported fields:

* the rationals, backed by ``fractions.Fraction``;
* prime fields F_p for odd primes p, as canonical residues in [0, p);
* the quadratic extension Q(w) where w is a primitive cube root of unity,
  stored on the basis {1, w} with the reduction rule w^2 = -1 - w.

All values are immutable and all operations are pure, so elements can be
shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RATIONAL_KIND = "rational"
PRIME_KIND = "prime"
CYCLOTOMIC_KIND = "cyclotomic"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Char2Token:
    """Marker for an otherwise unspecified coefficient field of characteristic 2.

    The library's fields all have characteristic 0 or an odd prime; the
    characteristic-2 collapse of the quartic family is handled symbolically
    by the classifier, which accepts this token in place of a FieldSpec.
    """

    def characteristic(self) -> int:
        return 2

    def __repr__(self) -> str:
        return "CHAR2"


CHAR2 = Char2Token()


@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of a coefficient field: Q, F_p (p an odd prime), or Q(w)."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL_KIND, PRIME_KIND, CYCLOTOMIC_KIND):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME_KIND:
            if self.p is None or self.p < 3 or not _is_prime(self.p):
                raise ValueError(
                    f"prime field requires an odd prime modulus, got {self.p!r}"
                )
        elif self.p is not None:
            raise ValueError(f"{self.kind} field takes no modulus")

    def characteristic(self) -> int:
        return self.p if self.kind == PRIME_KIND else 0

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == PRIME_KIND:
            return FieldElement(self, n % self.p)
        if self.kind == RATIONAL_KIND:
            return FieldElement(self, Fraction(n))
        return FieldElement(self, (Fraction(n), Fraction(0)))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        if self.kind == RATIONAL_KIND:
            return FieldElement(self, Fraction(q))
        if self.kind == CYCLOTOMIC_KIND:
            return FieldElement(self, (Fraction(q), Fraction(0)))
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return FieldElement(
            self, q.numerator * pow(q.denominator, -1, self.p) % self.p
        )

    def omega_element(self, r: Fraction, s: Fraction) -> "FieldElement":
        """The element r + s*w of Q(w)."""
        if self.kind != CYCLOTOMIC_KIND:
            raise ValueError("omega_element is only defined for Q(w)")
        return FieldElement(self, (Fraction(r), Fraction(s)))

    def coerce(self, value: Union["FieldElement", int, Fraction, str]) -> "FieldElement":
        """Map an integer, fraction, literal string, or element into this field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError(f"element of {value.spec} used in {self}")
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a field value")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        if isinstance(value, str):
            return parse_element(self, value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def __repr__(self) -> str:
        if self.kind == PRIME_KIND:
            return f"F{self.p}"
        return "Q" if self.kind == RATIONAL_KIND else "Q(w)"


RATIONAL = FieldSpec(RATIONAL_KIND)
CYCLOTOMIC = FieldSpec(CYCLOTOMIC_KIND)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME_KIND, p)


@dataclass(frozen=True)
class FieldElement:
    """An exact element of Q, F_p, or Q(w).

    Payload by field: a reduced ``Fraction`` for Q, an ``int`` in [0, p)
    for F_p, and a pair (r, s) of fractions meaning r + s*w for Q(w).
    """

    spec: FieldSpec
    value: Union[Fraction, int, tuple]

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        if self.spec.kind == CYCLOTOMIC_KIND:
            return self.value[0] == 0 and self.value[1] == 0
        return self.value == 0

    def is_one(self) -> bool:
        return self == self.spec.one()

    # -- arithmetic ---------------------------------------------------------

    def _other(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError(f"mixed fields {self.spec} and {other.spec}")
            return other
        return self.spec.coerce(other)

    def __add__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        other = self._other(other)
        k = self.spec.kind
        if k == PRIME_KIND:
            return FieldElement(self.spec, (self.value + other.value) % self.spec.p)
        if k == RATIONAL_KIND:
            return FieldElement(self.spec, self.value + other.value)
        (r1, s1), (r2, s2) = self.value, other.value
        return FieldElement(self.spec, (r1 + r2, s1 + s2))

    def __neg__(self) -> "FieldElement":
        k = self.spec.kind
        if k == PRIME_KIND:
            return FieldElement(self.spec, -self.value % self.spec.p)
        if k == RATIONAL_KIND:
            return FieldElement(self.spec, -self.value)
        r, s = self.value
        return FieldElement(self.spec, (-r, -s))

    def __sub__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return self + (-self._other(other))

    def __mul__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        other = self._other(other)
        k = self.spec.kind
        if k == PRIME_KIND:
            return FieldElement(self.spec, self.value * other.value % self.spec.p)
        if k == RATIONAL_KIND:
            return FieldElement(self.spec, self.value * other.value)
        # (r1 + s1 w)(r2 + s2 w) with w^2 = -1 - w
        (r1, s1), (r2, s2) = self.value, other.value
        cross = s1 * s2
        return FieldElement(self.spec, (r1 * r2 - cross, r1 * s2 + s1 * r2 - cross))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.spec}")
        k = self.spec.kind
        if k == PRIME_KIND:
            return FieldElement(self.spec, pow(self.value, -1, self.spec.p))
        if k == RATIONAL_KIND:
            return FieldElement(self.spec, 1 / self.value)
        # 1/(r + s w) = conjugate / norm, with norm r^2 - r s + s^2
        r, s = self.value
        n = r * r - r * s + s * s
        return FieldElement(self.spec, ((r - s) / n, -s / n))

    def __truediv__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return self * self._other(other).inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return element_to_text(self)

    def __repr__(self) -> str:
        return f"{self.spec!r}:{element_to_text(self)}"


# -- square roots and roots of unity ----------------------------------------


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """Tonelli-Shanks; returns the smaller of the two roots, or None."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def is_square(a: FieldElement) -> Optional[FieldElement]:
    """Return an exact square root of ``a`` if one exists in its field.

    Total function: returns None when ``a`` is a non-square. The returned
    root is canonical (nonnegative over Q, the smaller residue over F_p).
    """
    spec = a.spec
    if spec.kind == RATIONAL_KIND:
        r = _fraction_sqrt(a.value)
        return None if r is None else FieldElement(spec, r)
    if spec.kind == PRIME_KIND:
        r = _sqrt_mod_p(a.value, spec.p)
        return None if r is None else FieldElement(spec, r)
    # Q(w): write a = u + v*sqrt(-3) via w = (-1 + sqrt(-3))/2 and solve
    # (alpha + beta*sqrt(-3))^2 = a as a rational system.
    r, s = a.value
    u, v = r - s / 2, s / 2
    if u == 0 and v == 0:
        return spec.zero()

    def back(alpha: Fraction, beta: Fraction) -> FieldElement:
        # sqrt(-3) = 1 + 2w
        return FieldElement(spec, (alpha + beta, 2 * beta))

    if v == 0:
        alpha = _fraction_sqrt(u)
        if alpha is not None:
            return back(alpha, Fraction(0))
        beta = _fraction_sqrt(-u / 3)
        if beta is not None:
            return back(Fraction(0), beta)
        return None
    q = _fraction_sqrt(u * u + 3 * v * v)
    if q is None:
        return None
    for cand in ((u + q) / 2, (u - q) / 2):
        alpha = _fraction_sqrt(cand)
        if alpha is not None and alpha != 0:
            return back(alpha, v / (2 * alpha))
    return None


def primitive_cube_root(spec: FieldSpec) -> Optional[FieldElement]:
    """A primitive third root of unity, when the field contains one.

    Always exists in Q(w); exists in F_p exactly when p = 1 (mod 3); never
    in Q. For F_p the smaller of the two roots of x^2 + x + 1 is returned.
    """
    if spec.kind == CYCLOTOMIC_KIND:
        return FieldElement(spec, (Fraction(0), Fraction(1)))
    if spec.kind == PRIME_KIND and spec.p % 3 == 1:
        rt = _sqrt_mod_p(-3 % spec.p, spec.p)
        assert rt is not None  # -3 is a residue whenever p = 1 (mod 3)
        inv2 = pow(2, -1, spec.p)
        r1 = (rt - 1) * inv2 % spec.p
        r2 = (-rt - 1) * inv2 % spec.p
        return FieldElement(spec, min(r1, r2))
    return None


# -- text literals -----------------------------------------------------------


def element_to_text(a: FieldElement) -> str:
    """Render per the CLI literal syntax: p/q, residue integer, or r+s*w."""
    if a.spec.kind != CYCLOTOMIC_KIND:
        return str(a.value)
    r, s = a.value
    if s == 0:
        return str(r)
    if s == 1:
        w_part = "w"
    elif s == -1:
        w_part = "-w"
    else:
        w_part = f"{s}*w"
    if r == 0:
        return w_part
    sign = "+" if s > 0 else ""
    return f"{r}{sign}{w_part}"


_CYC_TERM = re.compile(r"([+-]?[^+-]*)")


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse a field literal: '5/6' over Q, '3' over F_p, '1+2*w' over Q(w)."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty field literal")
    if spec.kind == RATIONAL_KIND:
        return FieldElement(spec, Fraction(text))
    if spec.kind == PRIME_KIND:
        if "/" in text:
            return spec.from_fraction(Fraction(text))
        return spec.from_int(int(text))
    r, s = Fraction(0), Fraction(0)
    for term in _CYC_TERM.findall(text):
        if not term:
            continue
        if term.endswith("w"):
            body = term[:-1].rstrip("*")
            if body in ("", "+"):
                s += 1
            elif body == "-":
                s -= 1
            else:
                s += Fraction(body)
        else:
            r += Fraction(term)
    return FieldElement(spec, (r, s))
