"""Exact scalar arithmetic over the three coefficient fields of the classifier.

Supported fields, with the payload that stores an element:

* the rationals: an ``int`` when integral, else a ``fractions.Fraction``;
* prime fields F_p for odd primes p: the residue, an ``int`` in [0, p);
* the quadratic extension Q(w) where w is a primitive cube root of unity:
  the pair (r, s) of rational payloads meaning r + s*w, w^2 = -1 - w.

``FieldSpec.ops`` holds the ring operations on payloads; ``FieldElement`` (a
payload with its field) and ``Polynomial`` call them. Equal values compare
equal, and every division goes through ``Fraction``, never to a float.

All values are immutable and all operations are pure, so elements can be
shared freely between threads.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from operator import neg
from typing import Optional, Union

RATIONAL_KIND = "rational"
PRIME_KIND = "prime"
CYCLOTOMIC_KIND = "cyclotomic"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base above (J. Sorenson and
# J. Webster, Math. Comp. 86, 2017): prime moduli must lie below it
_MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below _MODULUS_LIMIT."""
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


def _rational(x: Union[int, Fraction]) -> Union[int, Fraction]:
    """x as a rational payload: an int when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _cyclotomic_mul(a: tuple, b: tuple) -> tuple:
    # (r1 + s1 w)(r2 + s2 w) with w^2 = -1 - w
    (r1, s1), (r2, s2) = a, b
    cross = s1 * s2
    return _rational(r1 * r2 - cross), _rational(r1 * s2 + s1 * r2 - cross)


def _cyclotomic_inverse(a: tuple) -> tuple:
    # 1/(r + s w) = conjugate / norm, with norm r^2 - r s + s^2
    r, s = a
    n = r * r - r * s + s * s
    return _rational(Fraction(r - s, n)), _rational(Fraction(-s, n))


PayloadOps = namedtuple("PayloadOps", "zero add neg mul inverse")  # inverse: nonzero only


def _payload_ops(kind: str, p: Optional[int]) -> PayloadOps:
    if kind == PRIME_KIND:
        return PayloadOps(0, lambda a, b: (a + b) % p, lambda a: -a % p,
                          lambda a, b: a * b % p, lambda a: pow(a, -1, p))
    if kind == RATIONAL_KIND:
        return PayloadOps(0, lambda a, b: _rational(a + b), neg,
                          lambda a, b: _rational(a * b), lambda a: _rational(Fraction(1, a)))
    return PayloadOps((0, 0), lambda a, b: (_rational(a[0] + b[0]), _rational(a[1] + b[1])),
                      lambda a: (-a[0], -a[1]), _cyclotomic_mul, _cyclotomic_inverse)


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
    ops: PayloadOps = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL_KIND, PRIME_KIND, CYCLOTOMIC_KIND):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME_KIND:
            if self.p is None or not 3 <= self.p < _MODULUS_LIMIT or not _is_prime(self.p):
                raise ValueError(
                    f"prime field requires an odd prime modulus below {_MODULUS_LIMIT}, "
                    f"got {self.p!r}"
                )
        elif self.p is not None:
            raise ValueError(f"{self.kind} field takes no modulus")
        object.__setattr__(self, "ops", _payload_ops(self.kind, self.p))

    def __reduce__(self):  # ops holds closures, which do not pickle: rebuild them
        return FieldSpec, (self.kind, self.p)

    def characteristic(self) -> int:
        return self.p if self.kind == PRIME_KIND else 0

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n, 0) if self.kind == CYCLOTOMIC_KIND else n)

    def from_fraction(self, q: Fraction) -> "FieldElement":
        if self.kind != PRIME_KIND:
            q = Fraction(q)
            return FieldElement(self, q if self.kind == RATIONAL_KIND else (q, 0))
        return FieldElement(self, residue(q, self.p))

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
    """An exact element of Q, F_p, or Q(w): a payload (see the module
    docstring) with its field."""

    spec: FieldSpec
    value: Union[Fraction, int, tuple]

    def __post_init__(self) -> None:
        """Put the payload into its field's canonical form; refuse any other value."""
        spec, value = self.spec, self.value
        # exact types, so a bool is refused
        number = (int,) if spec.kind == PRIME_KIND else (int, Fraction)
        if spec.kind != CYCLOTOMIC_KIND:
            valid = type(value) in number
        else:
            valid = type(value) is tuple and len(value) == 2 and all(type(x) in number for x in value)
        if not valid:
            raise TypeError(f"{value!r} is not a payload of {spec}")
        object.__setattr__(self, "value", spec.ops.add(spec.ops.zero, value))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == self.spec.ops.zero

    def is_one(self) -> bool:
        return self == self.spec.one()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.add(self.value, self.spec.coerce(other).value))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.neg(self.value))

    def __sub__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return self + (-self.spec.coerce(other))

    def __mul__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return FieldElement(self.spec, self.spec.ops.mul(self.value, self.spec.coerce(other).value))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.spec}")
        return FieldElement(self.spec, self.spec.ops.inverse(self.value))

    def __truediv__(self, other: Union["FieldElement", int, Fraction]) -> "FieldElement":
        return self * self.spec.coerce(other).inverse()

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


def _fraction_sqrt(q: Union[int, Fraction]) -> Optional[Union[int, Fraction]]:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return _rational(Fraction(rn, rd))
    return None


def _sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """Tonelli-Shanks; returns the smaller of the two roots, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:  # Euler's criterion: a is a non-residue
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
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
    if spec.kind != CYCLOTOMIC_KIND:
        r = _fraction_sqrt(a.value) if spec.kind == RATIONAL_KIND else _sqrt_mod_p(a.value, spec.p)
        return None if r is None else FieldElement(spec, r)
    # Q(w): write a = u + v*sqrt(-3), as w = (-1 + sqrt(-3))/2. A root alpha + beta*sqrt(-3)
    # has u = alpha^2 - 3 beta^2 and v = 2 alpha beta, so the norm u^2 + 3 v^2 is q^2 with
    # q = alpha^2 + 3 beta^2, and alpha^2 = (u + q)/2; sqrt(-3) = 1 + 2w maps the root back.
    r, s = a.value
    u, v = r - Fraction(s, 2), Fraction(s, 2)
    q = _fraction_sqrt(u * u + 3 * v * v)
    alpha = None if q is None else _fraction_sqrt((u + q) / 2)
    if alpha is None:
        return None
    beta = v / (2 * alpha) if alpha else _fraction_sqrt(-u / 3)  # alpha = 0 forces v = 0
    return None if beta is None else FieldElement(spec, (alpha + beta, 2 * beta))


def primitive_cube_root(spec: FieldSpec) -> Optional[FieldElement]:
    """A primitive third root of unity, when the field contains one.

    Always exists in Q(w); exists in F_p exactly when p = 1 (mod 3); never
    in Q. For F_p the smaller of the two roots of x^2 + x + 1 is returned.
    """
    if spec.kind == CYCLOTOMIC_KIND:
        return FieldElement(spec, (0, 1))
    if spec.kind == PRIME_KIND and spec.p % 3 == 1:
        rt = _sqrt_mod_p(-3 % spec.p, spec.p)
        assert rt is not None  # -3 is a residue whenever p = 1 (mod 3)
        return FieldElement(spec, min(residue(Fraction(-1 + r, 2), spec.p) for r in (rt, -rt)))
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


# The one grammar of number literals. A number is ASCII digits with an optional sign
# and an optional /denominator. A Q(w) literal is a number r, then s*w, where s and
# its * are optional and s carries a sign when r is given (the conditional (?(r)...));
# (?=.) refuses the empty text, which would otherwise match with neither part.
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_INTEGER = re.compile(r"[+-]?[0-9]+")
_LITERAL = re.compile(
    rf"(?=.)(?P<r>[+-]?{_NUMBER})?(?:(?P<sign>(?(r)[+-]|[+-]?))(?:(?P<s>{_NUMBER})\*)?w)?"
)


def literal_value(spec: FieldSpec, text: str) -> Optional[FieldElement]:
    """The element of spec that text spells, or None when text is no literal of spec;
    a zero denominator, or over F_p one that p divides, raises ZeroDivisionError."""
    m = _LITERAL.fullmatch(text)
    if m is None or (m["sign"] is not None and spec.kind != CYCLOTOMIC_KIND):
        return None
    try:
        r, s = Fraction(m["r"] or 0), Fraction(m["s"] or 1)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {text!r}") from None
    if m["sign"] is None:
        return spec.from_fraction(r)
    return FieldElement(spec, (r, -s if m["sign"] == "-" else s))


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse a field literal: '5/6' over Q, '3' over F_p, '1+2*w' over Q(w)."""
    value = literal_value(spec, text.strip())
    if value is None:
        raise ValueError(f"{text!r} is not a literal of {spec}")
    return value


def as_integer(x: Union[int, Fraction, str]) -> int:
    """x as an int: an int, an integral Fraction, or an integer literal (no denominator)."""
    if isinstance(x, (int, Fraction)) and x.denominator == 1 or (
        isinstance(x, str) and _INTEGER.fullmatch(x.strip())
    ):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def residue(x: Union[int, Fraction], p: int) -> int:
    """The image n * d^-1 mod p of the rational x = n/d."""
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
