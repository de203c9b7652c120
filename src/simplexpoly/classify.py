"""Reducibility decisions with verifiable factorization certificates.

Every reducible input yields a certificate (unit, factor powers, rule) whose
product is re-checked exactly against the input at construction time;
irreducible inputs yield a distinct verdict naming the rule that applies.
Characteristic 2 is handled symbolically: parameters are integer literals
interpreted through the unique ring map into a characteristic-2 field, the
certificate factors are integer lifts, and the product check reduces
coefficients modulo 2 after every product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .field import (
    Char2Token,
    FieldElement,
    FieldSpec,
    RATIONAL,
    as_integer,
    element_to_text,
    is_square,
    primitive_cube_root,
    residue,
)
from .family import CayleyMengerRing, GParams, InternalCheckError, build_g, cayley_menger
from .poly import Polynomial, poly_to_text


@dataclass(frozen=True)
class ClassificationRule:
    """Which case fired, with the hypotheses that were actually verified."""

    tag: str
    conditions: Mapping[str, str]


@dataclass(frozen=True)
class Factor:
    """A monic factor, claimed irreducible over the certificate's field."""

    polynomial: Polynomial
    multiplicity: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError(f"factor multiplicity must be at least 1, got {self.multiplicity}")


@dataclass(frozen=True)
class FactorizationCertificate:
    """unit * prod(factor^multiplicity) reconstructs the input exactly.

    ``product_check`` is the result of :func:`verify_certificate`, computed
    once at construction; a ``dataclasses.replace`` copy is checked anew.
    """

    input: Polynomial
    unit: FieldElement
    factors: Tuple[Factor, ...]
    rule: ClassificationRule
    product_check: bool = dataclass_field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "product_check", verify_certificate(self))


@dataclass(frozen=True)
class Irreducible:
    input: Optional[Polynomial]
    rule: ClassificationRule


@dataclass(frozen=True)
class ZeroPolynomial:
    """The input collapses to the zero polynomial; factorization is undefined."""

    rule: ClassificationRule


Verdict = Union[FactorizationCertificate, Irreducible, ZeroPolynomial]
_VERDICT_NAMES = {
    FactorizationCertificate: "reducible",
    Irreducible: "irreducible",
    ZeroPolynomial: "zero-polynomial",
}


@dataclass(frozen=True)
class Char2GParams:
    """Family parameters over an unspecified characteristic-2 field.

    a and t are integers, as ``as_integer`` takes them; only their images mod 2 are meaningful.
    """

    m: int
    a: int
    t: int

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"the family is only classified for m >= 3, got m={self.m}")


def _char_str(field: Union[FieldSpec, Char2Token]) -> str:
    return str(field.characteristic())


def _mod_2(p: Polynomial) -> Polynomial:
    """p with every coefficient replaced by its residue 0 or 1 mod 2.

    Raises ZeroDivisionError when a coefficient has an even denominator and so no residue.
    """
    return p.map_coefficients(lambda c: residue(c, 2))


def _product_mod_2(cert: FactorizationCertificate) -> Polynomial:
    """unit * prod(factor^multiplicity) mod 2, reduced after every product.

    Squares are taken term by term, so the fourth power of a linear form with
    m + 1 terms has m + 1 terms, where the product over Q has C(m + 4, 4).
    """
    product = _mod_2(Polynomial.constant(cert.input.field, cert.input.arity, cert.unit))
    for f in cert.factors:
        base, n = _mod_2(f.polynomial), f.multiplicity
        while n:
            if n % 2:
                product = _mod_2(product * base)
            n //= 2
            if n:  # mod 2 the cross terms of a square vanish (Frobenius)
                base = base.inflate(2)
    return product


def verify_certificate(cert: FactorizationCertificate) -> bool:
    """Re-multiply the certificate and compare with its input exactly.

    A lift over Q claimed for characteristic 2 is compared mod 2, and a
    coefficient with no residue mod 2 fails the check.
    """
    if cert.rule.conditions.get("char") == "2" and cert.input.field == RATIONAL:
        try:
            return _product_mod_2(cert) == _mod_2(cert.input)
        except ZeroDivisionError:
            return False
    if not cert.factors:
        return Polynomial.constant(cert.input.field, cert.input.arity, cert.unit) == cert.input
    product = reduce(mul, (f.polynomial**f.multiplicity for f in cert.factors))
    return product.scale(cert.unit) == cert.input


def _certify(
    input_poly: Polynomial,
    unit: FieldElement,
    factors: Sequence[Tuple[Polynomial, int]],
    rule: ClassificationRule,
) -> FactorizationCertificate:
    """Normalize factors monic (unit absorbs the scaling) and product-check."""
    normalized: List[Factor] = []
    for poly, mult in factors:
        lc = poly.leading_coefficient()
        if not lc.is_one():
            poly = poly.scale(lc.inverse())
            unit = unit * lc**mult
        normalized.append(Factor(poly, mult))
    cert = FactorizationCertificate(input_poly, unit, tuple(normalized), rule)
    if not cert.product_check:
        raise InternalCheckError(f"certificate product check failed for rule {rule.tag}")
    return cert


# -- quadratics ------------------------------------------------------------------


def factor_quadratic(a: FieldElement, b: FieldElement, c: FieldElement) -> Verdict:
    """Factor a x^2 + b x + c over its field by the discriminant criterion.

    Reducible exactly when b^2 - 4ac is a square; equal roots are reported
    as one factor of multiplicity 2.
    """
    if a.spec != b.spec or a.spec != c.spec:
        raise ValueError("quadratic coefficients must share one field")
    if a.is_zero():
        raise ValueError("not a quadratic: leading coefficient is zero")
    spec = a.spec
    x = Polynomial.variable(spec, 1, 0)
    quad = x.scale(a) * x + x.scale(b) + Polynomial.constant(spec, 1, c)
    disc = b * b - a * c * 4
    delta = is_square(disc)
    base = {
        "char": _char_str(spec),
        "discriminant": element_to_text(disc),
    }
    if delta is None:
        return Irreducible(
            quad,
            ClassificationRule("QuadraticDiscriminant", {**base, "square": "false"}),
        )
    rule = ClassificationRule("QuadraticDiscriminant", {**base, "square": "true"})
    alpha = (-b + delta) / (a * 2)
    beta = (-b - delta) / (a * 2)
    root_factor = lambda r: x - Polynomial.constant(spec, 1, r)
    if alpha == beta:
        factors = [(root_factor(alpha), 2)]
    else:
        factors = [(root_factor(alpha), 1), (root_factor(beta), 1)]
    return _certify(quad, a, factors, rule)


def classify_diagonal_quadratic(
    field: Union[FieldSpec, Char2Token],
    coeffs: Sequence[Union[FieldElement, int, Fraction, str]],
) -> Verdict:
    """Classify c_0 + c_1 x_1^2 + ... + c_m x_m^2 with all c_j nonzero (j >= 1).

    After normalizing by c_m, the form is reducible exactly when every
    -c_j/c_m is a square and either m = 1, or m = 2 with zero constant term
    (or the field has characteristic 2, where it collapses to a square).
    """
    if len(coeffs) < 2:
        raise ValueError("need a constant term and at least one square coefficient")
    m = len(coeffs) - 1

    if isinstance(field, Char2Token):
        ints = [as_integer(c) for c in coeffs]
        if any(c % 2 == 0 for c in ints[1:]):
            raise ValueError("a square coefficient vanishes in characteristic 2")
        t0 = ints[0] % 2
        lift = Polynomial.diagonal(RATIONAL, t0, [1] * m, 2)
        linear = Polynomial.diagonal(RATIONAL, t0, [1] * m, 1)
        rule = ClassificationRule(
            "DiagonalQuadratic", {"char": "2", "case": "1", "m": str(m)}
        )
        return _certify(lift, RATIONAL.one(), [(linear, 2)], rule)

    cs = [field.coerce(c) for c in coeffs]
    if any(c.is_zero() for c in cs[1:]):
        raise ValueError("square coefficients must be nonzero")
    poly = Polynomial.diagonal(field, cs[0], cs[1:], 2)
    inv = cs[m].inverse()
    ratios = [c * inv for c in cs]  # t_j = c_j / c_m
    roots = [is_square(-ratios[j]) for j in range(m)]
    all_square = all(r is not None for r in roots)
    base = {"char": _char_str(field), "m": str(m)}

    if all_square and (m == 1 or (m == 2 and cs[0].is_zero())):
        # c_m (u - s v)(u + s v) with u = x_m, and v = 1 for m = 1 or x_1 for m = 2
        s = roots[m - 1]
        u = Polynomial.variable(field, m, m - 1)
        v = Polynomial.variable(field, 2, 0) if m == 2 else Polynomial.constant(field, 1, 1)
        factors = [(u, 2)] if s.is_zero() else [(u - v.scale(s), 1), (u + v.scale(s), 1)]
        if m == 1:
            conditions = {"case": "2", "neg_t0_square": "true"}
        else:
            conditions = {"case": "3", "t0": "0", "neg_t1_square": "true"}
        rule = ClassificationRule("DiagonalQuadratic", {**base, **conditions})
        return _certify(poly, cs[m], factors, rule)

    if not all_square:
        reason = "some -c_j/c_m is a non-square"
    elif m == 2:
        reason = "nonzero constant term with m = 2"
    else:
        reason = "more than two square terms"
    rule = ClassificationRule(
        "DiagonalQuadratic", {**base, "case": "irreducible", "reason": reason}
    )
    return Irreducible(poly, rule)


# -- the quartic family ------------------------------------------------------------


def _heron_factors(x: Polynomial, y: Polynomial, z: Polynomial) -> List[Tuple[Polynomial, int]]:
    """The four linear factors of the Heron polynomial in x, y, z."""
    return [(x + y + z, 1), (-x + y + z, 1), (x - y + z, 1), (x + y - z, 1)]


def _classify_g_char2(params: Char2GParams) -> Verdict:
    a, t, m = as_integer(params.a) % 2, as_integer(params.t) % 2, params.m
    if t == 1:
        rule = ClassificationRule(
            "Char2Collapse", {"char": "2", "t": "1", "m": str(m)}
        )
        return ZeroPolynomial(rule)
    lift = build_g(GParams.of(RATIONAL, m, a, t))
    linear = Polynomial.diagonal(RATIONAL, a, [1] * m, 1)
    rule = ClassificationRule(
        "Char2Collapse", {"char": "2", "t": str(t), "a": str(a), "m": str(m)}
    )
    return _certify(lift, RATIONAL.one(), [(linear, 4)], rule)


def classify_g(params: Union[GParams, Char2GParams]) -> Verdict:
    """Complete reducibility decision for the quartic family.

    Decision table (characteristic not 2, parameters compared through the
    canonical image of integers in the field):

    * t = 0: the square of the irreducible quadric a^2 + sum x_i^2;
    * a != 0: irreducible for every t != 0;
    * a = 0, (m, t) = (3, 2): four linear factors;
    * a = 0, (m, t) = (3, 3): two quadratic factors when the field has a
      primitive cube root of unity, irreducible otherwise;
    * all other (m, t) with a = 0: irreducible.

    Over characteristic 2 the polynomial collapses to
    (1 - t)(a + x_1 + ... + x_m)^4, the zero polynomial when t = 1.
    """
    if isinstance(params, Char2GParams):
        return _classify_g_char2(params)

    field, m = params.field, params.m
    g = build_g(params)
    base = {"char": _char_str(field), "m": str(m)}

    if params.t.is_zero():
        quadric = Polynomial.diagonal(field, params.a**2, [1] * m, 2)
        rule = ClassificationRule("TZeroSquare", {**base, "t": "0"})
        return _certify(g, field.one(), [(quadric, 2)], rule)

    t_text = element_to_text(params.t)
    if not params.a.is_zero():
        rule = ClassificationRule(
            "IrreducibleInhomogeneous",
            {**base, "a": element_to_text(params.a), "t": t_text},
        )
        return Irreducible(g, rule)

    if m == 3 and params.t == field.from_int(2):
        rule = ClassificationRule("HeronCase", {**base, "a": "0", "t": "2"})
        xyz = [Polynomial.variable(field, 3, i) for i in range(3)]
        return _certify(g, field.one(), _heron_factors(*xyz), rule)

    if m == 3 and params.t == field.from_int(3):
        omega = primitive_cube_root(field)
        if omega is None:
            rule = ClassificationRule(
                "IrreducibleHomogeneous",
                {**base, "a": "0", "t": "3", "omega_exists": "false"},
            )
            return Irreducible(g, rule)
        omega2 = omega * omega
        rule = ClassificationRule(
            "OmegaCase",
            {**base, "a": "0", "t": "3", "omega": element_to_text(omega)},
        )
        factors = [
            (Polynomial.diagonal(field, 0, [1, omega, omega2], 2), 1),
            (Polynomial.diagonal(field, 0, [1, omega2, omega], 2), 1),
        ]
        return _certify(g, field.from_int(-2), factors, rule)

    rule = ClassificationRule(
        "IrreducibleHomogeneous", {**base, "a": "0", "t": t_text}
    )
    return Irreducible(g, rule)


def classify_cayley_menger(field: Union[FieldSpec, Char2Token], n: int) -> Verdict:
    """The Cayley-Menger determinant is reducible exactly when n = 2."""
    if isinstance(field, Char2Token):
        raise ValueError(
            "the Cayley-Menger classification assumes characteristic != 2"
        )
    if n < 2:
        raise ValueError(f"simplex dimension must be at least 2, got {n}")
    base = {"char": _char_str(field), "n": str(n)}
    if n >= 3:
        # the verdict holds for every n >= 3; the symbolic determinant is
        # attached only within the constructor's size guard
        poly = cayley_menger(n, field) if n <= CayleyMengerRing.max_n else None
        return Irreducible(poly, ClassificationRule("IrreducibleCayleyMenger", base))
    m = cayley_menger(n, field)
    ring = CayleyMengerRing(2)
    z = Polynomial.variable(field, 3, ring.position(1, 2))
    y = Polynomial.variable(field, 3, ring.position(1, 3))
    x = Polynomial.variable(field, 3, ring.position(2, 3))
    rule = ClassificationRule("HeronCayleyMenger", base)
    return _certify(m, field.from_int(-1), _heron_factors(x, y, z), rule)


# -- reporting ---------------------------------------------------------------------


def verdict_to_json(
    verdict: Verdict, names: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Machine-readable rendering shared by the CLI and the test suite."""
    out: Dict[str, object] = {
        "verdict": _VERDICT_NAMES[type(verdict)],
        "rule": verdict.rule.tag,
        "conditions": dict(verdict.rule.conditions),
    }
    if not isinstance(verdict, ZeroPolynomial) and verdict.input is not None:
        out["input"] = poly_to_text(verdict.input, names)
    if isinstance(verdict, FactorizationCertificate):
        out["unit"] = element_to_text(verdict.unit)
        out["factors"] = [
            {
                "polynomial": poly_to_text(f.polynomial, names),
                "multiplicity": f.multiplicity,
                "claim": "irreducible",
            }
            for f in verdict.factors
        ]
        out["product_check"] = verdict.product_check
    return out
