import hashlib
import json
import os
import subprocess
import sys

import pytest

import simplexpoly
from simplexpoly import diophantine
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

    def test_accept_table_budget_exit_code(self, capsys, small_arrays):
        code, report = run_json(
            capsys, "oracle", "--poly", "x^4+y^4", "--field", "1999", "--vars", "x,y",
            "--homogeneous", "--max-field-size", "2000",
        )
        assert code == EXIT_BUDGET
        assert report["payload"]["reason"].startswith("accept table of ")

    @pytest.mark.parametrize(
        "option", [["--max-degree", "-1"], ["--time-limit", "-1"], ["--time-limit", "nan"]]
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


class TestDiophantineCommand:
    def test_bound_ten(self, capsys):
        code, report = run_json(capsys, "diophantine", "--bound", "10")
        assert code == EXIT_OK
        assert [3, 5, 7, 8] in report["payload"]["solutions"]

    def test_bound_out_of_range_is_usage_error(self, monkeypatch, capsys):
        def no_scan(w, bound):
            raise AssertionError("a refused bound must not start the scan")

        monkeypatch.setattr(diophantine, "_square_discriminant_pairs", no_scan)
        for bound in (0, diophantine._MAX_BOUND + 1):
            assert main(["diophantine", "--bound", str(bound)]) == EXIT_USAGE
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
     "1bafe300c6f06300003a9bce8878c3d0142eef21da195b18603d1db69e535b35"),
    ("oracle --poly x^4+x^2*y^2+y^4 --field 7 --vars x,y --homogeneous", 0,
     "4ac1a15bded6ad236d6dfbb2a44a32035b43d5888d73d48390091a998f36f433"),
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
