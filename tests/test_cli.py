import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given

import simplexpoly
from simplexpoly import classify, cli, diophantine
from simplexpoly.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    check_g_size,
    main,
    parse_field,
)
from simplexpoly.family import prekite_names, prekite_reduction
from simplexpoly.field import CHAR2, CYCLOTOMIC, RATIONAL, prime_field
from simplexpoly.geometry import DistanceTuple
from simplexpoly.poly import (
    Polynomial,
    coefficient_texts,
    default_names,
    parse_polynomial,
    poly_to_text,
    terms_json,
)

from conftest import polynomials_with_names


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestFieldParsing:
    def test_names(self):
        assert parse_field("Q") == RATIONAL
        assert parse_field("Qw") == CYCLOTOMIC
        assert parse_field("Q(w)") == CYCLOTOMIC
        assert parse_field("F7") == prime_field(7)
        assert parse_field("13") == prime_field(13)
        assert parse_field("char2") is CHAR2

    @pytest.mark.parametrize("text", ["F1_01", "1_01", "F\u0661\u0660\u0661", "F+101", "F 101"])
    def test_modulus_is_ascii_digits(self, capsys, text):
        # int() read each of these as 101
        assert main(["classify", "--field", text, "--m", "3", "--a", "0", "--t", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: unknown field {text!r}\n"


INTEGER_OPTIONS = [
    ("--m", "1_0", ["classify", "--field", "Q", "--a", "0", "--t", "2"]),
    ("--m", "\u0661\u0660", ["classify", "--field", "Q", "--a", "0", "--t", "2"]),
    ("--m", "0_3", ["construct", "--family", "f", "--t", "2"]),
    ("--n", "0_3", ["classify", "--field", "Q", "--cayley-menger"]),
    ("--n", "0_3", ["construct", "--family", "cayley-menger"]),
    ("--field", "1_01", ["oracle", "--vars", "x,y", "--poly", "x^2+y^2"]),
    ("--max-degree", "0_1", ["oracle", "--field", "5", "--vars", "x", "--poly", "x^2+1"]),
    ("--n", "0_3", ["geometry", "verify", "--a", "1"]),
    ("--samples", "1_0", ["geometry", "verify", "--n", "3", "--a", "1"]),
    ("--seed", "1_0", ["geometry", "verify", "--n", "3", "--a", "1"]),
    ("--bound", "1_0", ["diophantine"]),
]


@pytest.mark.parametrize("option, text, argv", INTEGER_OPTIONS)
def test_integer_option_outside_the_grammar_is_usage_error(capsys, option, text, argv):
    # int() read each of these, so each command ran
    assert main(argv + [option, text]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: argument {option}: {text!r} is not an integer\n"


class TestClassifyCommand:
    def test_heron(self, capsys):
        code, report = run_json(
            capsys, "classify", "--field", "Q", "--m", "3", "--a", "0", "--t", "2"
        )
        assert code == EXIT_OK
        payload = report["payload"]
        assert payload["rule"] == "HeronCase"
        assert len(payload["factors"]) == 4
        assert payload["product_check"] is True

    def test_cayley_menger(self, capsys):
        code, report = run_json(capsys, "classify", "--field", "Q", "--cayley-menger", "--n", "3")
        assert code == EXIT_OK
        assert report["payload"]["verdict"] == "irreducible"
        assert report["payload"]["rule"] == "IrreducibleCayleyMenger"

    def test_char2(self, capsys):
        code, report = run_json(
            capsys, "classify", "--field", "char2", "--m", "3", "--a", "0", "--t", "1"
        )
        assert code == EXIT_OK
        assert report["payload"]["verdict"] == "zero-polynomial"

    @pytest.mark.parametrize("a, t", [("1/2", "0"), ("1", "w"), ("1_1", "0")])
    def test_char2_non_integer_literal_is_usage_error(self, capsys, a, t):
        assert main(["classify", "--field", "char2", "--m", "3", "--a", a, "--t", t]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: char2 takes integer literals for --a and --t")

    @pytest.mark.parametrize(
        "field, a", [("Q", "1e3"), ("Q", "1.5"), ("5", "1_0"), ("Qw", "w+1"), ("Qw", "1+1")]
    )
    def test_literal_outside_the_grammar_is_usage_error(self, capsys, field, a):
        # Q read 1e3 as 1000 and 1.5 as 3/2, F_5 read 1_0 as 10, Q(w) summed its terms
        assert main(["classify", "--field", field, "--m", "3", "--a", a, "--t", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: {a!r} is not a literal of ")

    def test_number_split_by_a_space_is_usage_error(self, capsys):
        # "1 0" was read as 10 = 0 in F_5, and the Heron certificate printed
        assert main(["classify", "--field", "5", "--m", "3", "--a", "1 0", "--t", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: '1 0' is not a literal of F5\n"

    @pytest.mark.parametrize("field, a", [("Q", "1/0"), ("Qw", "1/0*w"), ("5", "2/0")])
    def test_zero_denominator_is_usage_error(self, capsys, field, a):
        assert main(["classify", "--field", field, "--m", "3", "--a", a, "--t", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: zero denominator in {a!r}\n"

    def test_char2_certificate_at_large_m(self, capsys):
        # (a + x_1 + ... + x_117)^4 has 8.5 M terms over Q; mod 2 it has 118
        code, report = run_json(
            capsys, "classify", "--field", "char2", "--m", "117", "--a", "1", "--t", "0"
        )
        assert code == EXIT_OK
        assert report["payload"]["product_check"] is True

    def test_missing_arguments(self, capsys):
        code = main(["classify", "--field", "Q", "--m", "3"])
        assert code == EXIT_USAGE

    def test_bad_field(self, capsys):
        code = main(["classify", "--field", "F4", "--m", "3", "--a", "0", "--t", "2"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("field", ["Fx", "318665857834031151167461"])
    def test_unparsable_or_composite_field(self, capsys, field):
        code = main(["classify", "--field", field, "--m", "3", "--a", "0", "--t", "2"])
        assert code == EXIT_USAGE

    def test_cayley_menger_requires_n(self, capsys):
        assert main(["classify", "--field", "Q", "--cayley-menger"]) == EXIT_USAGE


class Reached(Exception):
    """Raised by a stub that the command reaches only past its size checks."""


def reached(*args):
    raise Reached


class TestSizeBudgets:
    def test_g_term_count_limit(self):
        assert cli.MAX_G_TERMS == 100_000
        check_g_size(445)  # (446 * 447) / 2 = 99,681 terms
        with pytest.raises(cli.SizeBudgetExceeded, match="100128 terms"):
            check_g_size(446)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "Q", "--m", "{m}", "--a", "1", "--t", "5"],
            ["classify", "--field", "char2", "--m", "{m}", "--a", "1", "--t", "0"],
            ["construct", "--family", "g", "--m", "{m}", "--a", "1", "--t", "5"],
            ["construct", "--family", "f", "--m", "{m}", "--t", "5"],
        ],
    )
    def test_oversized_m_refused_before_building(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "build_g", reached)
        monkeypatch.setattr(cli, "build_f", reached)
        monkeypatch.setattr(cli, "classify_g", reached)
        for m in ("446", "100000"):
            assert main([a.format(m=m) for a in argv]) == EXIT_BUDGET
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "terms, above the limit of 100000" in captured.err
        with pytest.raises(Reached):
            main([a.format(m="445") for a in argv])

    def test_oversized_simplex_refused_before_building(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "regular_simplex", reached)
        assert main(["geometry", "verify", "--n", "1001", "--a", "1"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the limit of 1000" in captured.err
        with pytest.raises(Reached):
            main(["geometry", "verify", "--n", "1000", "--a", "1"])

    # the most samples at n = 1000 and at n = 2 within samples * (n + 101)^2 <= 4e9
    @pytest.mark.parametrize("n,samples", [(1000, 3299), (2, 377038)])
    def test_oversized_verify_refused_before_building(self, monkeypatch, capsys, n, samples):
        assert cli.MAX_VERIFY_WORK == 4 * 10**9
        monkeypatch.setattr(cli, "regular_simplex", reached)
        for over in (samples + 1, 10**8):
            argv = ["geometry", "verify", "--n", str(n), "--a", "1", "--samples", str(over)]
            assert main(argv) == EXIT_BUDGET
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "above the limit of 4000000000" in captured.err
        with pytest.raises(Reached):
            main(["geometry", "verify", "--n", str(n), "--a", "1", "--samples", str(samples)])

    @pytest.mark.parametrize("n,samples", [(1000, 3299), (2, 377038)])
    def test_largest_verify_accepted(self, monkeypatch, capsys, n, samples):
        # the samples themselves are stubbed; the largest real run takes about 2 s
        dt = DistanceTuple(1.0, (1.0,) * (n + 1), 0.0)
        monkeypatch.setattr(cli, "random_affine_weights", lambda n, rng: None)
        monkeypatch.setattr(cli, "relation_residual", lambda simplex, weights: dt)
        code, report = run_json(
            capsys, "geometry", "verify", "--n", str(n), "--a", "1", "--samples", str(samples)
        )
        assert code == EXIT_OK
        assert report["payload"]["n"] == n and report["payload"]["samples"] == samples

    # below the lower bound the term and work counts grow again with |m| and |n|;
    # such a size is a usage error that names the bound, not a budget overrun

    def test_negative_m_classify_names_the_bound(self, capsys):
        argv = ["classify", "--field", "Q", "--m", "-1000", "--a", "1", "--t", "1"]
        assert main(argv) == EXIT_USAGE
        assert "m >= 3, got m=-1000" in capsys.readouterr().err

    def test_negative_m_construct_names_the_bound(self, capsys):
        argv = ["construct", "--family", "f", "--field", "Q", "--m", "-1000", "--t", "1"]
        assert main(argv) == EXIT_USAGE
        assert "m >= 3, got m=-1000" in capsys.readouterr().err

    def test_negative_n_verify_names_the_bound(self, capsys):
        assert main(["geometry", "verify", "--n", "-1000000", "--a", "1"]) == EXIT_USAGE
        assert "at least 2, got -1000000" in capsys.readouterr().err


class TestConstructCommand:
    def test_polynomials_reparse(self, capsys):
        code, report = run_json(
            capsys, "construct", "--family", "g", "--field", "F5",
            "--m", "3", "--a", "1", "--t", "7",
        )
        assert code == EXIT_OK
        payload = report["payload"]
        reparsed = parse_polynomial(
            payload["polynomial"], prime_field(5), payload["arity"], payload["names"]
        )
        assert len(reparsed.terms) == payload["term_count"]

    def test_cayley_menger_roundtrip(self, capsys):
        from simplexpoly.family import cayley_menger

        code, report = run_json(
            capsys, "construct", "--family", "cayley-menger", "--n", "2"
        )
        assert code == EXIT_OK
        payload = report["payload"]
        back = parse_polynomial(payload["polynomial"], RATIONAL, 3, payload["names"])
        assert back == cayley_menger(2)

    def test_prekite_payload(self, capsys):
        code, report = run_json(capsys, "construct", "--family", "prekite", "--n", "3")
        assert code == EXIT_OK
        assert set(report["payload"]) == {"reduced_determinant", "quartic_core"}

    def test_special_rule(self, capsys):
        code, report = run_json(
            capsys, "construct", "--family", "special", "--n", "2", "--rule", "product"
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "g", "--a", "1", "--t", "2"],
            ["--family", "g", "--m", "3", "--a", "1"],
            ["--family", "g", "--m", "3", "--t", "2"],
            ["--family", "f", "--t", "2"],
            ["--family", "f", "--m", "3"],
            ["--family", "cayley-menger"],
            ["--family", "prekite"],
            ["--family", "special", "--rule", "sum"],
            ["--family", "special", "--n", "3"],
            ["--family", "g", "--field", "char2", "--m", "3", "--a", "1", "--t", "2"],
        ],
    )
    def test_missing_option_or_char2_is_usage_error(self, capsys, argv):
        assert main(["construct", *argv]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestOracleCommand:
    def test_factor_found(self, capsys):
        code, report = run_json(
            capsys, "oracle", "--poly", "x^2+y^2", "--field", "5", "--vars", "x,y"
        )
        assert code == EXIT_OK
        assert report["payload"]["outcome"] == "factor-found"
        assert report["payload"]["factor"] == "x + 2*y"

    def test_budget_exit_code(self, capsys):
        code, report = run_json(
            # the degree-2 forms in four variables over F_13 alone are 13^9
            capsys, "oracle", "--poly", "x^2+x*y+y^2+z^4+w^4", "--field", "13",
            "--vars", "x,y,z,w",
        )
        assert code == EXIT_BUDGET
        assert report["payload"]["outcome"] == "budget-exceeded"

    def test_accept_table_budget_exit_code(self, capsys, small_arrays):
        code, report = run_json(
            capsys, "oracle", "--poly", "x^4+y^4", "--field", "1999", "--vars", "x,y",
            "--homogeneous",
        )
        assert code == EXIT_BUDGET
        assert report["payload"]["reason"].startswith("accept table of ")

    @pytest.mark.parametrize(
        "option",
        [
            ["--max-degree", "-1"],
            ["--time-limit", "-1"],
            ["--time-limit", "nan"],
            ["--time-limit", "inf"],
        ],
    )
    def test_out_of_range_budget_is_usage_error(self, capsys, option):
        argv = ["oracle", "--poly", "x+1", "--field", "5", "--vars", "x", *option]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_no_factor(self, capsys):
        code, report = run_json(
            capsys, "oracle", "--poly", "x^2+y^2", "--field", "7", "--vars", "x,y",
            "--homogeneous",
        )
        assert code == EXIT_OK
        assert report["payload"]["outcome"] == "no-factor-found"

    def test_empty_vars_is_usage_error(self, capsys):
        argv = ["oracle", "--poly", "x+1", "--field", "5", "--vars", ""]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: variable name '' is not an identifier\n"

    def test_factor_neither_variable_nor_literal_is_usage_error(self, capsys):
        argv = ["oracle", "--poly", "(x+y)^2", "--field", "5", "--vars", "x,y"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: unknown factor '(x+y)^2': the variables are x, y\n"

    @pytest.mark.parametrize("names, bad", [("x,", ""), ("x,1", "1"), ("x, y", " y")])
    def test_variable_name_must_be_an_identifier(self, capsys, names, bad):
        # "1" would render as the constant 1, and "" or " y" could never be parsed
        argv = ["oracle", "--poly", "x", "--field", "5", "--vars", names]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: variable name {bad!r} is not an identifier\n"

    def test_candidate_count_past_4300_digits_is_a_budget_refusal(self, capsys):
        # the 3^10000 linear forms are refused by degree, never formatted
        names = ",".join(f"x{i}" for i in range(1, 10_001))
        code, report = run_json(capsys, "oracle", "--field", "3", "--vars", names,
                                "--poly", "x1^2+x2^2")
        assert code == EXIT_BUDGET
        assert report["payload"]["reason"] == (
            "candidate space through degree 1 exceeds budget 80000000"
        )

    def test_field_above_13_searched(self, capsys):
        # -1 = 4^2 over F_17, so x^2 + y^2 = (x + 4y)(x - 4y)
        code, report = run_json(
            capsys, "oracle", "--field", "17", "--vars", "x,y", "--poly", "x^2+y^2"
        )
        assert code == EXIT_OK
        assert report["payload"]["factor"] == "x + 4*y"


class TestGeometryCommand:
    def test_verify_seed_determinism(self, capsys):
        args = ("geometry", "verify", "--n", "2", "--a", "1.5", "--samples", "64", "--seed", "9")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # byte-identical reports for identical seeds
        assert json.loads(out1)["payload"]["max_abs_residual"] < 1e-9

    def test_zero_samples_is_usage_error(self, capsys):
        code, out = run(capsys, "geometry", "verify", "--n", "3", "--a", "1", "--samples", "0")
        assert code == EXIT_USAGE and out == ""

    def test_solve(self, capsys):
        code, report = run_json(capsys, "geometry", "solve", "--known", "5,7,8")
        assert code == EXIT_OK
        assert any(abs(v - 3.0) < 1e-9 for v in report["payload"]["solutions"])

    @pytest.mark.parametrize(
        "known, expected",
        [
            ("1e70,1e70,1e70", [0.0, 1.7320508075688774e70]),
            ("3e20,3e20,3e20", [0.0, 5.196152422706633e20]),
        ],
    )
    def test_solve_reports_zero_within_rounding(self, capsys, known, expected):
        # the small root is exactly 0 (the point sits at a vertex); computed,
        # it is a few eps * c, and its square root, 1.45e62 at 1e70, is no root
        code, report = run_json(capsys, "geometry", "solve", "--known", known)
        assert code == EXIT_OK
        assert report["payload"]["solutions"] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "3", "--a", "1e100", "--samples", "3"],
            ["solve", "--known", "1e80,1e80,1e80"],
            ["verify", "--n", "3", "--a", "1e-100", "--samples", "3"],
            ["verify", "--n", "3", "--a", "1e200", "--samples", "3"],
            ["solve", "--known", "1e-200,1e-200,1e-200"],
        ],
    )
    def test_lengths_outside_the_float_range_refused(self, capsys, argv):
        # fourth powers that overflow (an OverflowError, or numpy warnings and
        # inf distances) or underflow (a division by zero, or the answer [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["geometry", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must lie in [1e-70, 1e+70]" in captured.err

    @pytest.mark.parametrize(
        "residuals",
        [
            [float("nan"), -3.0, 1.0, float("nan"), 2.5] + [0.5] * 7 + [-4.0],
            [float("nan"), float("nan")],
            [-0.0],
        ],
        ids=["nan-first", "all-nan", "negative-zero"],
    )
    def test_reported_residuals_as_from_the_full_list(self, monkeypatch, capsys, residuals):
        # the command keeps the first ten residuals and a running maximum,
        # which must report what the first ten and max(0.0, |r|...) of the whole list did
        stream = iter(residuals)
        monkeypatch.setattr(cli, "random_affine_weights", lambda n, rng: None)
        monkeypatch.setattr(
            cli, "relation_residual", lambda simplex, weights: DistanceTuple(1.0, (), next(stream))
        )
        code, out = run(capsys, "geometry", "verify", "--n", "2", "--a", "1",
                        "--samples", str(len(residuals)))
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["max_abs_residual"] == max(0.0, *map(abs, residuals))
        assert json.dumps(payload["first_residuals"]) == json.dumps(residuals[:10])


class TestDiophantineCommand:
    def test_bound_ten(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "10")
        assert code == EXIT_OK
        assert [3, 5, 7, 8] in report["payload"]["solutions"]

    def test_bound_out_of_range_is_usage_error(self, monkeypatch, capsys):
        def no_scan(bound):
            raise AssertionError("a refused bound must not start the scan")

        monkeypatch.setattr(diophantine, "_row_steps", no_scan)
        for bound in (0, diophantine._MAX_BOUND + 1):
            assert main(["diophantine", "--bound", str(bound)]) == EXIT_USAGE
            assert capsys.readouterr().err.startswith("usage error")

    def test_primitive_only(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "10", "--primitive-only")
        assert code == EXIT_OK
        assert report["payload"]["solutions"] == [[0, 1, 1, 1], [3, 5, 7, 8]]
        assert all(report["payload"]["primitive"])

    def test_realizability_report_per_solution(self, capsys):
        code, report = run_json(
            capsys, "diophantine", "--bound", "20", "--report-realizability"
        )
        assert code == EXIT_OK
        payload = report["payload"]
        assert [r["values"] for r in payload["realizability"]] == payload["solutions"]


class TestRemovedOptions:
    def test_geometry_role(self, capsys):
        argv = ["geometry", "solve", "--known", "3,4,5", "--role", "side-given"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_oracle_jobs(self, capsys):
        argv = ["oracle", "--poly", "x^2+y^2", "--field", "5", "--vars", "x,y", "--jobs", "2"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_diophantine_jobs(self, capsys):
        assert main(["diophantine", "--bound", "5", "--jobs", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_construct_phi(self, capsys):
        argv = ["construct", "--family", "phi", "--m", "3", "--t", "2"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")


def test_public_names_resolve():
    for name in simplexpoly.__all__:
        assert hasattr(simplexpoly, name), name


# Exit code and sha256 of stdout for the exact-arithmetic README examples.
# A change that alters one of these reports must update its pin on purpose.
README_EXAMPLES = [
    ("classify --field Q --m 3 --a 0 --t 2", 0,
     "551b320a6dcd26695d174b311af2ca39567e00724f9d332f0003bbcf38d570e2"),
    ("classify --field F5 --m 3 --a 0 --t 7", 0,
     "98e2cd1c9626bcb5e219de3e48a978d11ffd2a9911f63720088635c69debf815"),
    ("classify --field F7 --m 3 --a 0 --t 3", 0,
     "0ddb575d7c8a8a1d9b334c7a5621d42e82dbcf3e80628a5fbe43d466bc956cd3"),
    ("classify --field Q --cayley-menger --n 3", 0,
     "63980bddc9a2aed5fc9dc743abb3fd9df168143acea11722d0547b0e14541141"),
    ("classify --field char2 --m 3 --a 1 --t 0", 0,
     "422564e861f7a46177914a3419744ed18dfb17fac3e522a6a47029fdb68795a4"),
    ("construct --family f --field Q --m 3 --t 2", 0,
     "c86bd84b54bbac26463f21ef830dc014fd04ba70c1b41b49c650a919fa610385"),
    ("construct --family prekite --n 4", 0,
     "f9f4dd9b02780555edf9be7a94a17fa9c011fd844c84be6793e8eae50b04a7fa"),
    ("oracle --poly x^2+y^2 --field 5 --vars x,y", 0,
     "88cb6a134ff86d6b0eea9ad9f17c4414734f230ace579b395308b9fdb2fc2d14"),
    ("oracle --poly x^4+x^2*y^2+y^4 --field 7 --vars x,y --homogeneous", 0,
     "43d38a2a5b0e43792acf5e21e2505d63a7a9877d44c0ddcf5877fe4fb11fedfe"),
    ("diophantine --bound 20 --primitive-only", 0,
     "d0e36691efdfd90691982b81e546a85870bce27da16959892bdba4f85bfdddf3"),
]


@pytest.mark.parametrize(
    "argv, code, digest", README_EXAMPLES, ids=[a for a, _, _ in README_EXAMPLES]
)
def test_readme_example_report_pinned(capsys, argv, code, digest):
    got, out = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of char2 reports up to m = 40; how the product check multiplies
# must not show in them
CHAR2_REPORTS = [
    ("10", "1", "0", "928afdc523247a873d4ef820bc5f2d60c0203e6548f6ce6a81440b04f5091ade"),
    ("40", "1", "0", "b170ebadc58a39be7618f3cd908120d5f8ff2a99c8442c5acd5f4a52a081b9ad"),
    ("40", "0", "2", "5d0d9eebe40940349d840c1e381d975b65b7585e8439edcbd31826fab0685a15"),
]


@pytest.mark.parametrize("m, a, t, digest", CHAR2_REPORTS)
def test_char2_report_pinned(capsys, m, a, t, digest):
    got, out = run(capsys, "classify", "--field", "char2", "--m", m, "--a", a, "--t", t)
    assert got == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInternalErrors:
    HERON = ["classify", "--field", "Q", "--m", "3", "--a", "0", "--t", "2"]

    def test_failed_identity_exits_internal(self, monkeypatch, capsys):
        monkeypatch.setattr(classify, "verify_certificate", lambda cert: False)
        assert main(self.HERON) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal check failed: certificate product check failed")

    def test_unexpected_exception_exits_internal_and_is_named(self, monkeypatch, capsys):
        def broken(params):
            raise KeyError("x9")

        monkeypatch.setattr(cli, "classify_g", broken)
        with pytest.raises(KeyError):  # in-process callers see the exception itself
            main(self.HERON)
        monkeypatch.setattr(sys, "argv", ["simplexpoly", *self.HERON])
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint()
        assert exited.value.code == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert captured.err.endswith("\ninternal error: KeyError: 'x9'\n")

    def test_rejected_input_stays_a_usage_error(self, capsys):
        argv = ["oracle", "--poly", "x^2+z", "--field", "5", "--vars", "x,y"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: unknown factor 'z': the variables are x, y\n"

    def test_polynomial_name_split_by_a_space_is_usage_error(self, capsys):
        # the text was searched as x1^10 + y, and the candidate budget stopped it (exit 2)
        argv = ["oracle", "--field", "5", "--vars", "x1,y", "--poly", "x 1^1 0+y"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: a space may stand only next to + - * ^ ( ), not in 'x 1'\n"


class TestReportShape:
    def test_unknown_subcommand(self, capsys):
        assert main(["definitely-not-a-subcommand"]) == EXIT_USAGE

    def test_reports_carry_version_and_inputs(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "5")
        assert set(report) == {"subcommand", "inputs", "payload", "timing_s", "version"}
        assert report["timing_s"] is None
        assert report["inputs"]["bound"] == 5

    def test_timing_flag(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "5", "--timing")
        assert isinstance(report["timing_s"], float)

    def test_pretty_timing_follows_the_inputs(self, capsys):
        code, out = run(capsys, "diophantine", "--bound", "5", "--pretty", "--timing")
        lines = out.splitlines()
        key, value = lines[lines.index("{") - 1].split(" = ")
        assert code == EXIT_OK and key == "  timing_s" and float(value) >= 0
        assert "timing_s" not in run(capsys, "diophantine", "--bound", "5", "--pretty")[1]

    def test_pretty_output_is_not_json(self, capsys):
        code, out = run(capsys, "classify", "--field", "Q", "--m", "3", "--a", "0",
                        "--t", "2", "--pretty")
        assert code == EXIT_OK
        assert out.startswith("# classify")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--timing", "classify", "--field", "Q", "--m", "3", "--a", "0", "--t", "2"],
            ["--pretty", "diophantine", "--bound", "5"],
            ["geometry", "--pretty", "solve", "--known", "3,4,5"],
            ["geometry", "--timing", "verify", "--n", "2", "--a", "1"],
        ],
        ids=["top-level", "top-level-pretty", "geometry", "geometry-timing"],
    )
    def test_output_flag_before_the_leaf_is_usage_error(self, capsys, argv):
        # the flag would be overwritten by the leaf's default, so it is refused
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_output_flags_after_the_geometry_action(self, capsys):
        code, out = run(capsys, "geometry", "solve", "--pretty", "--known", "3,4,5")
        assert code == EXIT_OK
        assert out.startswith("# geometry")
        code, report = run_json(capsys, "geometry", "solve", "--known", "3,4,5", "--timing")
        assert code == EXIT_OK
        assert isinstance(report["timing_s"], float)


@pytest.mark.parametrize("extra", [[], ["--pretty"]], ids=["json", "pretty"])
def test_closed_stdout_keeps_exit_code(extra):
    # the reader is gone before the report is written, as with `| true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(simplexpoly.__file__))
    argv = ["classify", "--field", "Q", "--m", "3", "--a", "0", "--t", "2", *extra]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simplexpoly.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""


def _fresh_process_report(argv):
    src = os.path.dirname(os.path.dirname(simplexpoly.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "simplexpoly.cli", *argv],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    )
    return proc.stdout.decode()


class TestParserReuse:
    """main builds its parser once per process; no call may see another's options."""

    CLASSIFY = ["classify", "--field", "Q", "--m", "3", "--a", "0", "--t", "2"]
    CONSTRUCT = ["construct", "--family", "cayley-menger", "--field", "F7", "--n", "3"]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_pretty_then_plain(self, capsys):
        code, out = run(capsys, *self.CLASSIFY, "--pretty")
        assert code == EXIT_OK and out.startswith("# classify")
        code, report = run_json(capsys, *self.CLASSIFY)
        assert code == EXIT_OK and report["payload"]["rule"] == "HeronCase"

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["classify", "--field", "Q", "--m", "3", "--bogus"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")
        code, report = run_json(capsys, "diophantine", "--bound", "10", "--primitive-only")
        assert code == EXIT_OK
        assert report["payload"]["solutions"] == [[0, 1, 1, 1], [3, 5, 7, 8]]
        assert "bogus" not in report["inputs"] and "m" not in report["inputs"]

    def test_timing_does_not_carry_over(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "5", "--timing")
        assert isinstance(report["timing_s"], float)
        code, report = run_json(capsys, "diophantine", "--bound", "5")
        assert report["timing_s"] is None

    def test_reports_equal_fresh_process_reports(self, capsys):
        outs = [run(capsys, *argv) for argv in (self.CLASSIFY, self.CONSTRUCT)]
        assert [code for code, _ in outs] == [EXIT_OK, EXIT_OK]
        assert [out for _, out in outs] == [
            _fresh_process_report(argv) for argv in (self.CLASSIFY, self.CONSTRUCT)
        ]


class TestNegativeLiterals:
    """--a, --t and --poly take a value that starts with a single '-'."""

    SEPARATE = [
        ["classify", "--field", "Q", "--m", "3", "--a", "1", "--t", "-1/2"],
        ["construct", "--family", "g", "--field", "Qw", "--m", "3", "--a", "1", "--t", "-w"],
        ["classify", "--field", "F7", "--m", "3", "--a", "-1", "--t", "-2"],
        ["oracle", "--field", "5", "--vars", "x,y", "--poly", "-x^2+y^2"],
    ]

    @pytest.mark.parametrize("argv", SEPARATE)
    def test_separate_and_attached_forms_agree(self, capsys, argv):
        attached = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        assert (code, out) == run(capsys, *attached)
        assert json.loads(out)["inputs"][argv[-2][2:]] == argv[-1]

    def test_installed_entry_point_form(self, capsys):
        argv = self.SEPARATE[0]
        assert run(capsys, *argv)[1] == _fresh_process_report(argv)

    def test_oracle_factor_of_negative_input(self, capsys):
        code, report = run_json(capsys, *self.SEPARATE[3])
        assert report["payload"]["factor"] == "x + y"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field", "Q", "--m", "3", "--a", "1", "--t", "--pretty"],
            ["classify", "--field", "Q", "--m", "3", "--a", "--t", "-1/2"],
            ["oracle", "--field", "5", "--vars", "x,y", "--poly", "--homogeneous"],
        ],
    )
    def test_following_option_is_not_a_value(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err


def _emitted(value, indent=None) -> str:
    out = io.StringIO()
    cli._write_json(out.write, value, indent)
    return out.getvalue()


@given(polynomials_with_names())
def test_payload_coefficients_are_field_literals(case):
    p, names = case
    names = names or default_names(p.arity)
    terms = json.loads(_emitted(cli._poly_payload(p, names)))["terms"]
    assert terms == [
        {"monomial": list(e), "coefficient": str(c)} for e, c in sorted(p.terms.items(), reverse=True)
    ]


def reference_poly_payload(p, names):
    """The payload as it was built before its term list was streamed: one dict
    per term, each holding the dense exponent tuple."""
    coefficient = coefficient_texts(p.field, str)
    return {
        "field": repr(p.field),
        "arity": p.arity,
        "names": list(names),
        "polynomial": poly_to_text(p, names),
        "term_count": len(p.terms),
        "terms": [
            {"monomial": e, "coefficient": coefficient(c)}
            for e, c in p.terms_descending()
        ],
    }


def assert_streams_as_whole_report(p, q, names):
    """One term list, and two as in the prekite report, one and two levels down
    a report, written flat and with indent=2, equal the whole-report encoding."""
    shapes = [
        (cli._poly_payload(p, names), reference_poly_payload(p, names)),
        (
            {"quartic_core": cli._poly_payload(q, names), "reduced_determinant": cli._poly_payload(p, names)},
            {"quartic_core": reference_poly_payload(q, names), "reduced_determinant": reference_poly_payload(p, names)},
        ),
    ]
    for streamed, reference in shapes:
        report = {"inputs": {"n": 3, "field": "Q"}, "payload": streamed, "timing_s": None, "version": "0"}
        whole = {**report, "payload": reference}
        assert _emitted(report) == json.dumps(whole, sort_keys=True)
        assert _emitted(streamed, "\n") == json.dumps(reference, indent=2, sort_keys=True)
        assert _emitted(report, "\n") == json.dumps(whole, indent=2, sort_keys=True)


@given(polynomials_with_names())
def test_streamed_report_matches_whole_report_encoding(case):
    p, names = case
    assert_streams_as_whole_report(p, p * p, names or default_names(p.arity))


def test_streamed_report_edge_cases():
    w = CYCLOTOMIC.omega_element
    mixed = Polynomial.from_terms(CYCLOTOMIC, 3, {
        (256, 0, 1000): w(1, 1), (0, 300, 0): w(-1, 2), (0, 0, 0): w(0, -1), (2, 1, 0): w(5, 0),
    })
    zero = Polynomial.zero(CYCLOTOMIC, 3)
    assert_streams_as_whole_report(mixed, zero, ["x", "y", "z"])
    assert_streams_as_whole_report(zero, mixed, ["x", "y", "z"])
    # no variables: each monomial is the empty list
    assert_streams_as_whole_report(Polynomial.constant(RATIONAL, 0, 5), Polynomial.zero(RATIONAL, 0), [])
    # past 1,024 terms the list leaves in more than one piece
    big = Polynomial.from_terms(RATIONAL, 2, {(i, 3000 - i): RATIONAL.from_int(i - 7) for i in range(3000)})
    assert len(list(terms_json(big))) > 2
    assert_streams_as_whole_report(big, Polynomial.zero(RATIONAL, 2), ["x", "y"])


@pytest.mark.parametrize("field", ["Q", "Qw", "F101"])
@pytest.mark.parametrize("extra", [[], ["--pretty"]], ids=["json", "pretty"])
def test_prekite_report_matches_whole_report_encoding(capsys, field, extra):
    spec = parse_field(field)
    m_star, h = prekite_reduction(4, spec)
    names = prekite_names(4)
    reference = {
        "reduced_determinant": reference_poly_payload(m_star, names),
        "quartic_core": reference_poly_payload(h, names),
    }
    code, out = run(capsys, "construct", "--family", "prekite", "--field", field, "--n", "4", *extra)
    assert code == EXIT_OK
    if extra:
        assert out[out.index("\n{") + 1:] == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    else:
        whole = {**json.loads(out), "payload": reference}
        assert out == json.dumps(whole, sort_keys=True) + "\n"


class _RecordedStdout:
    """A stdout that keeps the length of each write."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_large_report_leaves_in_bounded_writes(monkeypatch):
    stdout = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["construct", "--family", "g", "--field", "Q", "--m", "200", "--a", "1", "--t", "5"]) == EXIT_OK
    sizes = [len(part) for part in stdout.parts]
    assert max(sizes) <= sum(sizes) / 10
    payload = json.loads("".join(stdout.parts))["payload"]
    assert payload["term_count"] == len(payload["terms"]) == 201 * 202 // 2
