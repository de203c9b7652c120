import json

import simplexpoly
from simplexpoly.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_field,
)
from simplexpoly.field import CHAR2, CYCLOTOMIC, RATIONAL, prime_field
from simplexpoly.poly import parse_polynomial


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

    def test_missing_arguments(self, capsys):
        code = main(["classify", "--field", "Q", "--m", "3"])
        assert code == EXIT_USAGE

    def test_bad_field(self, capsys):
        code = main(["classify", "--field", "F4", "--m", "3", "--a", "0", "--t", "2"])
        assert code == EXIT_USAGE


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
            capsys, "oracle", "--poly", "x^2+x*y+y^2+z^4", "--field", "13",
            "--vars", "x,y,z",
        )
        assert code == EXIT_BUDGET
        assert report["payload"]["outcome"] == "budget-exceeded"

    def test_no_factor(self, capsys):
        code, report = run_json(
            capsys, "oracle", "--poly", "x^2+y^2", "--field", "7", "--vars", "x,y",
            "--homogeneous",
        )
        assert code == EXIT_OK
        assert report["payload"]["outcome"] == "no-factor-found"


class TestGeometryCommand:
    def test_verify_seed_determinism(self, capsys):
        args = ("geometry", "verify", "--n", "2", "--a", "1.5", "--samples", "64", "--seed", "9")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # byte-identical reports for identical seeds
        assert json.loads(out1)["payload"]["max_abs_residual"] < 1e-9

    def test_solve(self, capsys):
        code, report = run_json(capsys, "geometry", "solve", "--known", "5,7,8")
        assert code == EXIT_OK
        assert any(abs(v - 3.0) < 1e-9 for v in report["payload"]["solutions"])


class TestDiophantineCommand:
    def test_bound_ten(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "10")
        assert code == EXIT_OK
        assert [3, 5, 7, 8] in report["payload"]["solutions"]

    def test_jobs_below_one_is_usage_error(self, capsys):
        assert main(["diophantine", "--bound", "5", "--jobs", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_primitive_only(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "10", "--primitive-only")
        assert code == EXIT_OK
        assert report["payload"]["solutions"] == [[0, 1, 1, 1], [3, 5, 7, 8]]
        assert all(report["payload"]["primitive"])


class TestRemovedOptions:
    def test_geometry_role(self, capsys):
        argv = ["geometry", "solve", "--known", "3,4,5", "--role", "side-given"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_oracle_jobs(self, capsys):
        argv = ["oracle", "--poly", "x^2+y^2", "--field", "5", "--vars", "x,y", "--jobs", "2"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")

    def test_construct_phi(self, capsys):
        argv = ["construct", "--family", "phi", "--m", "3", "--t", "2"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error")


def test_public_names_resolve():
    for name in simplexpoly.__all__:
        assert hasattr(simplexpoly, name), name


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

    def test_pretty_output_is_not_json(self, capsys):
        code, out = run(capsys, "classify", "--field", "Q", "--m", "3", "--a", "0",
                        "--t", "2", "--pretty")
        assert code == EXIT_OK
        assert out.startswith("# classify")
