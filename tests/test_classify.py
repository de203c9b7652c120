import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from simplexpoly.field import CHAR2, CYCLOTOMIC, RATIONAL, prime_field
from simplexpoly.poly import Polynomial, poly_to_text
from simplexpoly.family import GParams, cayley_menger
from simplexpoly.classify import (
    Char2GParams,
    FactorizationCertificate,
    Irreducible,
    ZeroPolynomial,
    classify_cayley_menger,
    classify_diagonal_quadratic,
    classify_g,
    factor_quadratic,
    verdict_to_json,
    verify_certificate,
)

Q = RATIONAL
F3, F5, F7, F13 = prime_field(3), prime_field(5), prime_field(7), prime_field(13)


def certificate_product(cert: FactorizationCertificate) -> Polynomial:
    p = Polynomial.constant(cert.input.field, cert.input.arity, cert.unit)
    for f in cert.factors:
        p = p * f.polynomial**f.multiplicity
    return p


class TestFactorQuadratic:
    def test_perfect_square(self):
        v = factor_quadratic(Q.one(), Q.from_int(2), Q.one())
        assert isinstance(v, FactorizationCertificate)
        assert len(v.factors) == 1 and v.factors[0].multiplicity == 2
        assert v.rule.conditions["discriminant"] == "0"

    def test_irreducible_over_q(self):
        v = factor_quadratic(Q.one(), Q.zero(), Q.one())
        assert isinstance(v, Irreducible)
        assert v.rule.conditions == {
            "char": "0",
            "discriminant": "-4",
            "square": "false",
        }

    def test_split_over_f7(self):
        v = factor_quadratic(F7.one(), F7.zero(), F7.from_int(-2))
        assert isinstance(v, FactorizationCertificate)
        roots = sorted((-f.polynomial.constant_term()).value for f in v.factors)
        assert roots == [3, 4]
        assert verify_certificate(v)

    def test_rational_roots(self):
        # 2x^2 - x - 1 = 2 (x - 1)(x + 1/2)
        v = factor_quadratic(Q.from_int(2), Q.from_int(-1), Q.from_int(-1))
        assert isinstance(v, FactorizationCertificate)
        assert v.unit == Q.from_int(2)
        roots = sorted((-f.polynomial.constant_term()).value for f in v.factors)
        assert roots == [Fraction(-1, 2), Fraction(1)]

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(ValueError):
            factor_quadratic(Q.zero(), Q.one(), Q.one())

    def test_mixed_fields(self):
        with pytest.raises(ValueError):
            factor_quadratic(Q.one(), F5.one(), Q.one())


class TestDiagonalQuadratic:
    def test_three_squares_irreducible_everywhere(self):
        for field in (Q, CYCLOTOMIC, F5, F7):
            v = classify_diagonal_quadratic(field, [0, 1, 1, 1])
            assert isinstance(v, Irreducible)

    def test_univariate_split_over_f5(self):
        v = classify_diagonal_quadratic(F5, [1, 1])
        assert isinstance(v, FactorizationCertificate)
        assert v.rule.conditions["case"] == "2"
        # x^2 + 1 = (x + 2)(x + 3) over F_5
        assert certificate_product(v) == v.input

    def test_two_squares(self):
        assert isinstance(classify_diagonal_quadratic(Q, [0, 1, 1]), Irreducible)
        v = classify_diagonal_quadratic(F5, [0, 1, 1])
        assert isinstance(v, FactorizationCertificate)
        assert v.rule.conditions["case"] == "3"

    def test_nonzero_constant_blocks_case_three(self):
        v = classify_diagonal_quadratic(F5, [1, 1, 1])
        assert isinstance(v, Irreducible)
        assert v.rule.conditions["reason"] == "nonzero constant term with m = 2"

    def test_unit_absorbs_scaling(self):
        v = classify_diagonal_quadratic(F5, [2, 3])
        # 3x^2 + 2 = 3(x^2 + 4) = 3(x - 1)(x + 1)
        assert isinstance(v, FactorizationCertificate)
        assert v.unit == F5.from_int(3)

    def test_zero_square_coefficient_rejected(self):
        with pytest.raises(ValueError):
            classify_diagonal_quadratic(Q, [1, 0, 1])
        with pytest.raises(ValueError):
            classify_diagonal_quadratic(Q, [1])

    def test_char2_token(self):
        v = classify_diagonal_quadratic(CHAR2, [1, 1, 1])
        assert isinstance(v, FactorizationCertificate)
        assert v.rule.conditions == {"char": "2", "case": "1", "m": "2"}
        assert verify_certificate(v)
        with pytest.raises(ValueError):
            classify_diagonal_quadratic(CHAR2, [1, 2, 1])

    def test_brute_force_agreement_small(self):
        # every coefficient tuple over F_3, m <= 2; the oracle sees the same answer
        from simplexpoly.oracle import FactorFound, brute_force_factor_search

        for m in (1, 2):
            nonzero = [1, 2]
            for coeffs in product(range(3), *([nonzero] * m)):
                verdict = classify_diagonal_quadratic(F3, list(coeffs))
                poly = (
                    verdict.input
                    if isinstance(verdict, Irreducible)
                    else verdict.input
                )
                outcome = brute_force_factor_search(poly)
                assert isinstance(outcome, FactorFound) == isinstance(
                    verdict, FactorizationCertificate
                ), coeffs


class TestClassifyG:
    def test_heron_case(self):
        v = classify_g(GParams.of(Q, 3, 0, 2))
        assert isinstance(v, FactorizationCertificate)
        assert v.rule.tag == "HeronCase"
        assert len(v.factors) == 4
        assert all(f.polynomial.degree() == 1 for f in v.factors)
        assert verify_certificate(v)

    def test_omega_case_f7(self):
        v = classify_g(GParams.of(F7, 3, 0, 3))
        assert v.rule.tag == "OmegaCase"
        assert v.unit == F7.from_int(-2)
        texts = sorted(poly_to_text(f.polynomial, ["x", "y", "z"]) for f in v.factors)
        assert texts == ["x^2 + 2*y^2 + 4*z^2", "x^2 + 4*y^2 + 2*z^2"]

    def test_omega_case_cyclotomic(self):
        v = classify_g(GParams.of(CYCLOTOMIC, 3, 0, 3))
        assert v.rule.tag == "OmegaCase"
        assert verify_certificate(v)
        assert v.rule.conditions["omega"] == "w"

    def test_omega_missing_over_q(self):
        v = classify_g(GParams.of(Q, 3, 0, 3))
        assert isinstance(v, Irreducible)
        assert v.rule.conditions["omega_exists"] == "false"

    def test_nonzero_offset_irreducible(self):
        v = classify_g(GParams.of(Q, 3, 1, 3))
        assert isinstance(v, Irreducible)
        assert v.rule.tag == "IrreducibleInhomogeneous"

    def test_four_variables_irreducible(self):
        v = classify_g(GParams.of(Q, 4, 0, 2))
        assert isinstance(v, Irreducible)
        assert v.rule.tag == "IrreducibleHomogeneous"

    def test_literal_seven_is_two_mod_five(self):
        v = classify_g(GParams.of(F5, 3, 0, 7))
        assert v.rule.tag == "HeronCase"
        assert verify_certificate(v)

    def test_t_zero_square(self):
        v = classify_g(GParams.of(Q, 5, 1, 0))
        assert v.rule.tag == "TZeroSquare"
        assert len(v.factors) == 1 and v.factors[0].multiplicity == 2

    def test_char3_reaches_heron_not_omega(self):
        # over F_3 the literal t = 3 is 0, so the square case fires
        v = classify_g(GParams.of(F3, 3, 0, 3))
        assert v.rule.tag == "TZeroSquare"
        v = classify_g(GParams.of(F3, 3, 0, 2))
        assert v.rule.tag == "HeronCase"

    def test_verdict_symmetric_in_variables(self):
        for t in (2, 3):
            v = classify_g(GParams.of(F7, 3, 0, t))
            prod = certificate_product(v)
            assert prod.permute_variables([1, 2, 0]) == prod

    def test_factors_monic_under_grlex(self):
        for v in (
            classify_g(GParams.of(Q, 3, 0, 2)),
            classify_g(GParams.of(F7, 3, 0, 3)),
            classify_cayley_menger(Q, 2),
        ):
            for f in v.factors:
                assert f.polynomial.leading_coefficient().is_one()

    def test_char2_zero_polynomial(self):
        v = classify_g(Char2GParams(3, 1, 3))
        assert isinstance(v, ZeroPolynomial)
        assert v.rule.tag == "Char2Collapse"

    def test_char2_fourth_power(self):
        v = classify_g(Char2GParams(4, 1, 2))
        assert isinstance(v, FactorizationCertificate)
        assert v.factors[0].multiplicity == 4
        assert v.factors[0].polynomial.degree() == 1
        assert verify_certificate(v)

    def test_char2_m_guard(self):
        with pytest.raises(ValueError):
            Char2GParams(2, 0, 0)


class TestCayleyMengerClassification:
    def test_n2_certificate(self):
        v = classify_cayley_menger(Q, 2)
        assert v.rule.tag == "HeronCayleyMenger"
        assert len(v.factors) == 4
        assert verify_certificate(v)
        assert v.input == cayley_menger(2)

    def test_n3_irreducible_all_fields(self):
        for field in (Q, F5, CYCLOTOMIC):
            v = classify_cayley_menger(field, 3)
            assert isinstance(v, Irreducible)
            assert v.rule.tag == "IrreducibleCayleyMenger"

    def test_large_dimension_verdict_without_construction(self):
        v = classify_cayley_menger(Q, 9)
        assert isinstance(v, Irreducible)
        assert v.input is None

    def test_char2_rejected(self):
        with pytest.raises(ValueError):
            classify_cayley_menger(CHAR2, 2)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            classify_cayley_menger(Q, 1)


class TestCertificates:
    def test_tampered_unit_fails(self):
        v = classify_g(GParams.of(F7, 3, 0, 3))
        bad = dataclasses.replace(v, unit=-v.unit)
        assert not verify_certificate(bad)

    def test_tampered_factor_sign_fails(self):
        v = classify_g(GParams.of(Q, 3, 0, 2))
        flipped = dataclasses.replace(
            v, factors=(dataclasses.replace(v.factors[0], polynomial=-v.factors[0].polynomial),)
            + v.factors[1:]
        )
        assert not verify_certificate(flipped)

    def test_every_emitted_certificate_verifies(self):
        rng = Random(31)
        fields = [Q, F3, F5, F7, F13, CYCLOTOMIC]
        for _ in range(200):
            field = rng.choice(fields)
            m = rng.randint(3, 5)
            a = rng.choice([0, 1, rng.randint(-3, 3)])
            t = rng.randint(-4, 9)
            verdict = classify_g(GParams.of(field, m, a, t))
            if isinstance(verdict, FactorizationCertificate):
                assert verify_certificate(verdict)

    def test_json_shapes(self):
        red = verdict_to_json(classify_g(GParams.of(Q, 3, 0, 2)), ["x", "y", "z"])
        assert red["verdict"] == "reducible" and red["product_check"] is True
        assert red["rule"] == "HeronCase" and len(red["factors"]) == 4
        irr = verdict_to_json(classify_g(GParams.of(Q, 3, 1, 1)))
        assert irr["verdict"] == "irreducible"
        zero = verdict_to_json(classify_g(Char2GParams(3, 0, 1)))
        assert zero["verdict"] == "zero-polynomial"


# Every m = 1, 2 diagonal form over F_3, F_5, F_7, a small grid over Q and Q(w),
# and the characteristic-2 token; and every quadratic over the same fields.
_GRIDS = {
    "F3": (F3, range(3)),
    "F5": (F5, range(5)),
    "F7": (F7, range(7)),
    "Q": (Q, [-4, -1, 0, 1, 2, Fraction(9, 4)]),
    "Qw": (CYCLOTOMIC, ["-3", "-1", "0", "1", "w", "1+2*w"]),
    "char2": (CHAR2, range(4)),
}


def _quadratic_reports(kind, name):
    field, grid = _GRIDS[name]
    values = list(grid)
    nonzero = [v for v in values if (v % 2 if field is CHAR2 else not field.coerce(v).is_zero())]
    if kind == "diagonal":
        tuples = [
            (c0, *cs) for m in (1, 2) for c0 in values for cs in product(nonzero, repeat=m)
        ]
        verdicts = [classify_diagonal_quadratic(field, list(t)) for t in tuples]
    else:
        verdicts = [
            factor_quadratic(*(field.coerce(v) for v in (a, b, c)))
            for a in nonzero for b in values for c in values
        ]
    return json.dumps([verdict_to_json(v) for v in verdicts], sort_keys=True)


@pytest.mark.parametrize(
    "kind, name, digest",
    [
        ("diagonal", "F3",
         "f641629953caa099fc89d01c2e5777dea054973d20ffb697b5d3d4d0fa0f78ce"),
        ("diagonal", "F5",
         "d7d84a8faceb0700515803067632dea42c0fd4ce698183f33be10358f974c884"),
        ("diagonal", "F7",
         "4bfb8e1b92717da5dee1e92f3dd48789449a42c417579a51a67d1b094c885839"),
        ("diagonal", "Q",
         "b532b97c404315dd133b6a1d717136830dedf1a059a8eae647cc54a987e45964"),
        ("diagonal", "Qw",
         "99d71d8f168d616d7ee0928d3ad38c94e612795c748cfdb8f24d488f7a5e1aab"),
        ("diagonal", "char2",
         "0a68e86a4ede5a765bb70c9670da5f4d661235d990791bcc5801509eae920aa2"),
        ("univariate", "F3",
         "59ceed9c1f929244c2d8c7830915d211b449bcb8303058ea271bdc93c7ad049a"),
        ("univariate", "F5",
         "a0869136531e3e8f461371b5d8534a0c2554ab9c9c69e85b6c494012e66f941a"),
        ("univariate", "F7",
         "703d521bc2e95b913b2835c41d210bd8603d08007599cffb51580036c1a037b8"),
        ("univariate", "Q",
         "8123e264a98dc90f285be37680b10e3ea5b986fc0e870ef9cc51dc0a16fbeb10"),
        ("univariate", "Qw",
         "a74d5214ff39c557ccd74b1f26ee24c26d3176957b1de4b5970969503c683935"),
    ],
)
def test_quadratic_reports_pinned(kind, name, digest):
    # a change that alters one of these reports must update its pin on purpose
    text = _quadratic_reports(kind, name)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
