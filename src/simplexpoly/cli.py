"""Command-line entry point: construct / classify / oracle / geometry / diophantine.

Every subcommand emits a single JSON report on stdout (``--pretty`` renders
a human-readable view instead). Reports are deterministic for identical
inputs and seeds; wall-clock timing is only included with ``--timing``.

Exit codes: 0 success, 1 usage error, 2 search or size budget exceeded,
3 internal error: a failed exact identity or an unexpected exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from random import Random
from typing import Callable, Dict, Optional, Sequence, Union

from . import __version__
from .classify import Char2GParams, classify_cayley_menger, classify_g, verdict_to_json
from .diophantine import enumerate_solutions, realizability_report
from .family import (
    CayleyMengerRing,
    GParams,
    InternalCheckError,
    SubstitutionRule,
    build_f,
    build_g,
    cayley_menger,
    prekite_names,
    prekite_reduction,
    special_family_substitution,
)
from .field import CHAR2, Char2Token, FieldSpec, RATIONAL, CYCLOTOMIC, as_integer, prime_field
from .geometry import (
    quadruple_residual,
    random_affine_weights,
    regular_simplex,
    relation_residual,
    solve_fourth_distance,
)
from .oracle import (
    FactorFound,
    NoFactorFound,
    SearchBudget,
    brute_force_factor_search,
)
from .poly import Polynomial, default_names, parse_polynomial, poly_to_text, terms_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3

# size budgets, checked before any polynomial or matrix is built
MAX_G_TERMS = 100_000  # g has (m+1)(m+2)/2 terms: m = 445 is the largest accepted
MAX_SIMPLEX_N = 1_000  # geometry verify builds an (n+1)x(n+1) matrix
MAX_VERIFY_WORK = 4 * 10**9  # verify samples * (n + 101)^2: at most about 2 s


class UsageError(Exception):
    pass


class SizeBudgetExceeded(Exception):
    pass


def check_g_size(m: int) -> None:
    """Refuse an m whose quartic g would have more than MAX_G_TERMS terms."""
    terms = (m + 1) * (m + 2) // 2
    if m >= 3 and terms > MAX_G_TERMS:  # the family refuses m < 3 itself
        raise SizeBudgetExceeded(
            f"g at m={m} has {terms} terms, above the limit of {MAX_G_TERMS}"
        )


def _integer(text: str) -> int:
    """An integer option, read by the literal grammar: ASCII digits with an optional sign."""
    try:
        return as_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_field(text: str) -> Union[FieldSpec, Char2Token]:
    """Field names: Q, Qw (or 'Q(w)'), F<p> or a bare odd prime, char2."""
    t = text.strip()
    lowered = t.lower()
    if lowered == "q":
        return RATIONAL
    if lowered in ("qw", "q(w)"):
        return CYCLOTOMIC
    if lowered == "char2":
        return CHAR2
    if lowered.startswith("f"):
        t = t[1:]
    if not (t.isascii() and t.isdigit()):
        raise UsageError(f"unknown field {text!r}")
    try:
        return prime_field(int(t))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _poly_payload(p: Polynomial, names: Sequence[str]) -> Dict[str, object]:
    return {
        "field": repr(p.field),
        "arity": p.arity,
        "names": list(names),
        "polynomial": poly_to_text(p, names),
        "term_count": len(p.terms),
        "terms": p,  # the term list, which _write_json encodes from p's key store
    }


# -- subcommands -------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> Dict[str, object]:
    field = parse_field(args.field)
    if isinstance(field, Char2Token):
        raise UsageError("construct requires a concrete field, not the char-2 token")
    kind = args.family
    if kind in ("g", "f"):
        if args.m is None or args.t is None:
            raise UsageError(f"family {kind} requires --m and --t")
        check_g_size(args.m)
        if kind == "g":
            if args.a is None:
                raise UsageError("family g requires --a")
            p = build_g(GParams.of(field, args.m, args.a, args.t))
        else:
            p = build_f(field, args.m, args.t)
        names: Sequence[str] = default_names(args.m)
    elif kind == "cayley-menger":
        if args.n is None:
            raise UsageError("cayley-menger requires --n")
        p = cayley_menger(args.n, field)
        names = CayleyMengerRing(args.n).names
    elif kind == "prekite":
        if args.n is None:
            raise UsageError("prekite requires --n")
        m_star, h = prekite_reduction(args.n, field)
        names = prekite_names(args.n)
        return {
            "reduced_determinant": _poly_payload(m_star, names),
            "quartic_core": _poly_payload(h, names),
        }
    else:  # special substitution family
        if args.n is None or args.rule is None:
            raise UsageError("special requires --n and --rule")
        p = special_family_substitution(args.n, SubstitutionRule(args.rule), field)
        names = default_names(args.n + 1)
    return _poly_payload(p, names)


def cmd_classify(args: argparse.Namespace) -> Dict[str, object]:
    field = parse_field(args.field)
    if args.cayley_menger:
        if args.n is None:
            raise UsageError("--cayley-menger requires --n")
        verdict = classify_cayley_menger(field, args.n)
        names = CayleyMengerRing(args.n).names if args.n <= CayleyMengerRing.max_n else None
    else:
        if args.m is None or args.a is None or args.t is None:
            raise UsageError("classify requires --m, --a and --t (or --cayley-menger)")
        check_g_size(args.m)
        if isinstance(field, Char2Token):
            try:
                a, t = as_integer(args.a), as_integer(args.t)
            except ValueError:
                raise UsageError(
                    f"char2 takes integer literals for --a and --t, got {args.a!r} and {args.t!r}"
                ) from None
            verdict = classify_g(Char2GParams(args.m, a, t))
        else:
            verdict = classify_g(GParams.of(field, args.m, args.a, args.t))
        names = default_names(args.m)
    return verdict_to_json(verdict, names)


def cmd_oracle(args: argparse.Namespace) -> Dict[str, object]:
    field = prime_field(args.field)
    names = args.vars.split(",")
    p = parse_polynomial(args.poly, field, len(names), names)
    budget = SearchBudget(
        max_degree=args.max_degree,
        homogeneous_only=args.homogeneous,
        time_limit=args.time_limit,
    )
    outcome = brute_force_factor_search(p, budget)
    if isinstance(outcome, FactorFound):
        return {
            "outcome": "factor-found",
            "factor": poly_to_text(outcome.factor, names),
            "quotient": poly_to_text(outcome.quotient, names),
        }
    if isinstance(outcome, NoFactorFound):
        return {"outcome": "no-factor-found", "candidates_tried": outcome.candidates_tried}
    return {"outcome": "budget-exceeded", "reason": outcome.reason}


def cmd_geometry(args: argparse.Namespace) -> Dict[str, object]:
    if args.action == "verify":
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1, got {args.samples}")
        if args.n > MAX_SIMPLEX_N:
            raise SizeBudgetExceeded(
                f"simplex dimension {args.n} is above the limit of {MAX_SIMPLEX_N}"
            )
        work = args.samples * (args.n + 101) ** 2
        if args.n >= 2 and work > MAX_VERIFY_WORK:  # regular_simplex refuses n < 2 itself
            raise SizeBudgetExceeded(
                f"samples * (n + 101)^2 is {work}, above the limit of {MAX_VERIFY_WORK}"
            )
        simplex = regular_simplex(args.n, args.a)
        rng = Random(args.seed)
        first, peak = [], 0.0  # peak is max(0.0, |r| over all r): a NaN never wins
        for _ in range(args.samples):
            r = relation_residual(simplex, random_affine_weights(args.n, rng)).residual
            if len(first) < 10:
                first.append(r)
            peak = max(peak, abs(r))
        return {
            "n": args.n,
            "edge": args.a,
            "samples": args.samples,
            "max_abs_residual": peak,
            "first_residuals": first,
        }
    known = [float(v) for v in args.known.split(",")]
    solutions = solve_fourth_distance(known)
    return {
        "known": known,
        "solutions": solutions,
        "residuals": [quadruple_residual(v, known) for v in solutions],
    }


def cmd_diophantine(args: argparse.Namespace) -> Dict[str, object]:
    solutions = enumerate_solutions(args.bound)
    if args.primitive_only:
        solutions = [s for s in solutions if s.primitive]
    payload: Dict[str, object] = {
        "bound": args.bound,
        "count": len(solutions),
        "solutions": [list(s.values) for s in solutions],
        "primitive": [s.primitive for s in solutions],
    }
    if args.report_realizability:
        payload["realizability"] = [realizability_report(s) for s in solutions]
    return payload


_FLAT = json.JSONEncoder(sort_keys=True).encode
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2).encode


def _holds_terms(value: dict) -> bool:
    """Whether a Polynomial, which stands for its term list, lies in value at any depth."""
    for v in value.values():
        if type(v) is Polynomial or type(v) is dict and _holds_terms(v):
            return True
    return False


def _items_text(items: Dict[str, object], indent: Optional[str]) -> str:
    """The key: value pairs of items as they stand between the braces of a
    dict at indent's level (with pretty indentation, each after a newline)."""
    if indent is None:
        return _FLAT(items)[1:-1]
    return _PRETTY(items).replace("\n", indent)[1 : -len(indent) - 1]


def _write_json(write: Callable[[str], object], value: object, indent: Optional[str]) -> None:
    """Write value as ``json.dumps(value, sort_keys=True)`` would, or as with
    ``indent=2`` when indent is a newline and the indentation of value's level.
    A Polynomial stands for its term list, which ``terms_json`` writes in
    pieces. A dict that holds one is written in sorted key order: each key
    that leads to a term list on its own, each run of other keys by one
    encoder call. Any other value is one encoder call."""
    if type(value) is Polynomial:
        for piece in terms_json(value, indent):
            write(piece)
    elif type(value) is dict and _holds_terms(value):
        inner = None if indent is None else indent + "  "
        comma = ", " if inner is None else ","
        sep, run = "{", {}
        for key, item in sorted(value.items()):
            if type(item) is Polynomial or type(item) is dict and _holds_terms(item):
                if run:
                    write(sep + _items_text(run, indent))
                    sep, run = comma, {}
                write(f"{sep}{inner or ''}{_FLAT(key)}: ")
                _write_json(write, item, inner)
                sep = comma
            else:
                run[key] = item
        if run:
            write(sep + _items_text(run, indent))
        write("}" if indent is None else indent + "}")
    elif indent is None:
        write(_FLAT(value))
    else:
        write(_PRETTY(value).replace("\n", indent))


def _emit(args: argparse.Namespace, payload: Dict[str, object], started: float) -> None:
    """Print the report of one subcommand: JSON, or a readable view with --pretty."""
    hidden = ("func", "pretty", "timing")
    inputs = {k: v for k, v in sorted(vars(args).items()) if k not in hidden and v is not None}
    timing = round(time.monotonic() - started, 6) if args.timing else None
    try:
        write = sys.stdout.write
        if args.pretty:
            print(f"# {args.subcommand} (simplexpoly {__version__})")
            for key, value in inputs.items():
                print(f"  {key} = {value}")
            if timing is not None:
                print(f"  timing_s = {timing}")
            _write_json(write, payload, "\n")
        else:
            report = {
                "subcommand": args.subcommand,
                "inputs": inputs,
                "payload": payload,
                "timing_s": timing,
                "version": __version__,
            }
            _write_json(write, report, None)
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- wiring ------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> _Parser:
    # the output flags go on the leaf parsers only: a subparser's defaults
    # would overwrite the value of the same flag given before its name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    common.add_argument("--timing", action="store_true", help="include wall-clock timing")
    parser = _Parser(prog="simplexpoly", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("construct", help="emit a family member", parents=[common])
    c.add_argument("--family", required=True,
                   choices=["g", "f", "cayley-menger", "prekite", "special"])
    c.add_argument("--field", default="Q")
    c.add_argument("--m", type=_integer)
    c.add_argument("--a")
    c.add_argument("--t")
    c.add_argument("--n", type=_integer)
    c.add_argument("--rule", choices=[r.value for r in SubstitutionRule])
    c.set_defaults(func=cmd_construct)

    k = sub.add_parser("classify", help="decide reducibility, with certificate", parents=[common])
    k.add_argument("--field", required=True)
    k.add_argument("--m", type=_integer)
    k.add_argument("--a")
    k.add_argument("--t")
    k.add_argument("--cayley-menger", action="store_true")
    k.add_argument("--n", type=_integer)
    k.set_defaults(func=cmd_classify)

    o = sub.add_parser("oracle", help="brute-force factor search over F_p", parents=[common])
    o.add_argument("--poly", required=True)
    o.add_argument("--field", type=_integer, required=True, help="odd prime modulus")
    o.add_argument("--vars", required=True, help="comma-separated variable names")
    o.add_argument("--max-degree", type=_integer)
    o.add_argument("--homogeneous", action="store_true")
    o.add_argument("--time-limit", type=float)
    o.set_defaults(func=cmd_oracle)

    g = sub.add_parser("geometry", help="verify the distance relation numerically")
    gsub = g.add_subparsers(dest="action", required=True)
    gv = gsub.add_parser("verify", parents=[common])
    gv.add_argument("--n", type=_integer, required=True)
    gv.add_argument("--a", type=float, required=True)
    gv.add_argument("--samples", type=_integer, default=100)
    gv.add_argument("--seed", type=_integer, default=0)
    gv.set_defaults(func=cmd_geometry)
    gs = gsub.add_parser("solve", parents=[common])
    gs.add_argument("--known", required=True, help="three comma-separated values")
    gs.set_defaults(func=cmd_geometry)

    d = sub.add_parser("diophantine", help="enumerate integer solutions", parents=[common])
    d.add_argument("--bound", type=_integer, required=True)
    d.add_argument("--primitive-only", action="store_true")
    d.add_argument("--report-realizability", action="store_true")
    d.set_defaults(func=cmd_diophantine)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.monotonic()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # attach a value such as -1/2, -w or -x^2, which argparse takes for an option
        for i in range(len(argv) - 1, 0, -1):
            if argv[i - 1] in ("--a", "--t", "--poly") and argv[i][:1] == "-" and argv[i][:2] != "--":
                argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        _emit(args, payload, started)
        return EXIT_BUDGET if payload.get("outcome") == "budget-exceeded" else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeBudgetExceeded as exc:
        print(f"size budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    try:
        code = main()
    except Exception as exc:  # a fault of the library, not of the input: never a usage error
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
