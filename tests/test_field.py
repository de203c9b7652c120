from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from simplexpoly.field import (
    CHAR2,
    CYCLOTOMIC,
    RATIONAL,
    element_to_text,
    is_square,
    parse_element,
    prime_field,
    primitive_cube_root,
)

from conftest import random_element


class TestFieldSpec:
    def test_characteristics(self):
        assert RATIONAL.characteristic() == 0
        assert CYCLOTOMIC.characteristic() == 0
        assert prime_field(7).characteristic() == 7
        assert CHAR2.characteristic() == 2

    @pytest.mark.parametrize("p", [2, 4, 6, 9, 1, 0, -5])
    def test_bad_moduli_rejected(self, p):
        with pytest.raises(ValueError):
            prime_field(p)

    def test_char_three_allowed(self):
        assert prime_field(3).characteristic() == 3


class TestArithmetic:
    def test_rational_add(self):
        half = RATIONAL.from_fraction(Fraction(1, 2))
        third = RATIONAL.from_fraction(Fraction(1, 3))
        assert (half + third).value == Fraction(5, 6)

    def test_prime_mul(self):
        f7 = prime_field(7)
        assert (f7.from_int(3) * f7.from_int(5)).value == 1

    def test_omega_square(self):
        # the reduction rule: w * w = -1 - w, equivalently w^2 + w + 1 = 0
        w = CYCLOTOMIC.omega_element(0, 1)
        assert w * w == CYCLOTOMIC.omega_element(-1, -1)
        assert (w * w + w + CYCLOTOMIC.one()).is_zero()
        assert (w**3).is_one()

    def test_mixed_field_operands_rejected(self):
        with pytest.raises(ValueError):
            RATIONAL.one() + prime_field(5).one()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RATIONAL.one() / RATIONAL.zero()
        with pytest.raises(ZeroDivisionError):
            CYCLOTOMIC.zero().inverse()

    @pytest.mark.parametrize("spec", [RATIONAL, prime_field(7), prime_field(10007), CYCLOTOMIC])
    def test_inverse_roundtrip(self, spec):
        rng = Random(1)
        for _ in range(200):
            a = random_element(spec, rng)
            if not a.is_zero():
                assert (a * a.inverse()).is_one()

    @given(n=st.integers(-50, 50), d=st.integers(1, 50))
    def test_rational_coerce_matches_fraction(self, n, d):
        q = Fraction(n, d)
        assert RATIONAL.coerce(q).value == q

    def test_prime_fraction_coercion(self):
        f5 = prime_field(5)
        assert f5.coerce(Fraction(7, 3)).value == 7 * pow(3, -1, 5) % 5
        with pytest.raises(ZeroDivisionError):
            f5.coerce(Fraction(1, 5))


class TestIsSquare:
    def test_rational_examples(self):
        assert is_square(RATIONAL.coerce(Fraction(4, 9))).value == Fraction(2, 3)
        assert is_square(RATIONAL.from_int(-4)) is None
        assert is_square(RATIONAL.from_int(2)) is None
        assert is_square(RATIONAL.zero()).is_zero()

    def test_prime_seven_matches_exhaustive_squares(self):
        f7 = prime_field(7)
        squares = {x * x % 7 for x in range(7)}
        assert squares == {0, 1, 2, 4}
        for a in range(7):
            root = is_square(f7.from_int(a))
            assert (root is not None) == (a in squares)
            if root is not None:
                assert root * root == f7.from_int(a)
        assert is_square(f7.from_int(3)) is None

    def test_cyclotomic_minus_three(self):
        # (1 + 2w)^2 = 1 + 4w + 4w^2 = -3
        root = is_square(CYCLOTOMIC.from_int(-3))
        assert root is not None
        assert root * root == CYCLOTOMIC.from_int(-3)
        assert root.value in ((Fraction(1), Fraction(2)), (Fraction(-1), Fraction(-2)))

    def test_cyclotomic_nonsquares(self):
        assert is_square(CYCLOTOMIC.from_int(2)) is None
        assert is_square(CYCLOTOMIC.omega_element(0, 1)) is not None  # w = (w^2)^2... w has a root
        # w itself: (r+s w)^2 = w has the solution -w^2 squared? verify via roundtrip only

    @pytest.mark.parametrize(
        "spec", [RATIONAL, prime_field(5), prime_field(7), prime_field(13), CYCLOTOMIC]
    )
    def test_square_of_square_has_root(self, spec):
        rng = Random(7)
        for _ in range(500):
            a = random_element(spec, rng)
            sq = a * a
            root = is_square(sq)
            assert root is not None
            assert root * root == sq

    def test_tonelli_shanks_moderate_prime(self):
        p = 99991  # 3 (mod 4): 2-adic order 1, so the Tonelli-Shanks loop never runs
        spec = prime_field(p)
        for a in (4, 10, 3533, 99990):
            root = is_square(spec.from_int(a * a))
            assert root is not None and (root * root).value == a * a % p


    def test_square_roots_mod_every_small_prime(self):
        # p = 3 (mod 4) and 2-adic orders of p - 1 up to 8 (p = 257)
        for p in range(3, 300, 2):
            if any(p % d == 0 for d in range(3, p, 2)):
                continue
            spec = prime_field(p)
            smallest = {}
            for r in range(p - 1, -1, -1):
                smallest[r * r % p] = r
            for a in range(p):
                root = is_square(spec.from_int(a))
                assert (None if root is None else root.value) == smallest.get(a), (p, a)


class TestPrimitiveCubeRoot:
    def test_examples(self):
        assert primitive_cube_root(prime_field(7)).value == 2  # 2^3 = 8 = 1 (mod 7)
        assert primitive_cube_root(RATIONAL) is None
        assert primitive_cube_root(prime_field(5)) is None

    def test_f5_exhaustive_cube_check(self):
        assert all(pow(x, 3, 5) != 1 for x in range(2, 5))

    def test_smallest_root_returned(self):
        for p in (7, 13, 19, 31, 103):
            root = primitive_cube_root(prime_field(p))
            smaller = [x for x in range(2, root.value) if pow(x, 3, p) == 1]
            assert not smaller
            assert pow(root.value, 3, p) == 1

    def test_char_three_has_none(self):
        # x^2 + x + 1 = (x - 1)^2 over F_3: only the non-primitive root 1
        assert primitive_cube_root(prime_field(3)) is None

    @pytest.mark.parametrize("spec", [CYCLOTOMIC, prime_field(7), prime_field(13)])
    def test_root_satisfies_quadratic(self, spec):
        lam = primitive_cube_root(spec)
        assert (lam * lam + lam + spec.one()).is_zero()
        assert (lam**3).is_one() and not lam.is_one()


class TestLiterals:
    @pytest.mark.parametrize(
        "text", ["1+2*w", "w", "-w", "1-w", "-1/2+3/4*w", "5", "0", "2*w", "-7/3"]
    )
    def test_cyclotomic_roundtrip(self, text):
        e = parse_element(CYCLOTOMIC, text)
        assert parse_element(CYCLOTOMIC, element_to_text(e)) == e

    @given(n=st.integers(-999, 999), d=st.integers(1, 999))
    def test_rational_roundtrip(self, n, d):
        e = RATIONAL.coerce(Fraction(n, d))
        assert parse_element(RATIONAL, element_to_text(e)) == e

    def test_prime_literals(self):
        f7 = prime_field(7)
        assert parse_element(f7, "-1").value == 6
        assert element_to_text(f7.from_int(12)) == "5"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_element(RATIONAL, "  ")
