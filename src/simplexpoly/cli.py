"""Command-line entry point: construct / classify / oracle / geometry / diophantine.

Every subcommand emits a single JSON report on stdout (``--pretty`` renders
a human-readable view instead). Reports are deterministic for identical
inputs and seeds; wall-clock timing is only included with ``--timing``.

Exit codes: 0 success, 1 usage error, 2 search budget exceeded, 3 internal
exact-identity failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from random import Random
from typing import Dict, List, Optional, Sequence, Union

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
from .field import CHAR2, Char2Token, FieldSpec, RATIONAL, CYCLOTOMIC, prime_field
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
from .poly import Polynomial, default_names, parse_polynomial, poly_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


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
    try:
        p = int(t)
    except ValueError:
        raise UsageError(f"unknown field {text!r}") from None
    try:
        return prime_field(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _poly_payload(p: Polynomial, names: Sequence[str]) -> Dict[str, object]:
    return {
        "field": repr(p.field),
        "arity": p.arity,
        "names": list(names),
        "polynomial": poly_to_text(p, names),
        "term_count": len(p.terms),
        "terms": [
            {"monomial": list(e), "coefficient": str(c)}
            for e, c in sorted(p.terms.items(), reverse=True)
        ],
    }


def _report(args: argparse.Namespace, payload: Dict[str, object], started: float) -> Dict[str, object]:
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "pretty", "timing") and not k.startswith("_") and v is not None
    }
    return {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "payload": payload,
        "timing_s": round(time.monotonic() - started, 6) if args.timing else None,
        "version": __version__,
    }


def _print_report(report: Dict[str, object], pretty: bool) -> None:
    if not pretty:
        print(json.dumps(report, sort_keys=True))
        return
    print(f"# {report['subcommand']} (simplexpoly {report['version']})")
    for key, value in report["inputs"].items():  # type: ignore[union-attr]
        print(f"  {key} = {value}")
    print(json.dumps(report["payload"], indent=2, sort_keys=True))


# -- subcommands -------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    field = parse_field(args.field)
    if isinstance(field, Char2Token):
        raise UsageError("construct requires a concrete field, not the char-2 token")
    kind = args.family
    if kind in ("g", "f"):
        if args.m is None or args.t is None:
            raise UsageError(f"family {kind} requires --m and --t")
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
        payload = {
            "reduced_determinant": _poly_payload(m_star, names),
            "quartic_core": _poly_payload(h, names),
        }
        return _emit(args, payload)
    else:  # special substitution family
        if args.n is None or args.rule is None:
            raise UsageError("special requires --n and --rule")
        p = special_family_substitution(args.n, SubstitutionRule(args.rule), field)
        names = default_names(args.n + 1)
    return _emit(args, _poly_payload(p, names))


def cmd_classify(args: argparse.Namespace) -> int:
    field = parse_field(args.field)
    if args.cayley_menger:
        if args.n is None:
            raise UsageError("--cayley-menger requires --n")
        verdict = classify_cayley_menger(field, args.n)
        names = CayleyMengerRing(args.n).names if args.n <= CayleyMengerRing.max_n else None
    else:
        if args.m is None or args.a is None or args.t is None:
            raise UsageError("classify requires --m, --a and --t (or --cayley-menger)")
        if isinstance(field, Char2Token):
            verdict = classify_g(Char2GParams(args.m, int(args.a), int(args.t)))
        else:
            verdict = classify_g(GParams.of(field, args.m, args.a, args.t))
        names = default_names(args.m)
    return _emit(args, verdict_to_json(verdict, names))


def cmd_oracle(args: argparse.Namespace) -> int:
    field = prime_field(args.field)
    names = args.vars.split(",") if args.vars else None
    if names is None:
        raise UsageError("oracle requires --vars (comma-separated variable names)")
    p = parse_polynomial(args.poly, field, len(names), names)
    budget = SearchBudget(
        max_degree=args.max_degree,
        max_field_size=args.max_field_size,
        homogeneous_only=args.homogeneous,
        time_limit=args.time_limit,
    )
    outcome = brute_force_factor_search(p, budget)
    if isinstance(outcome, FactorFound):
        payload: Dict[str, object] = {
            "outcome": "factor-found",
            "factor": poly_to_text(outcome.factor, names),
            "quotient": poly_to_text(outcome.quotient, names),
        }
        return _emit(args, payload)
    if isinstance(outcome, NoFactorFound):
        payload = {
            "outcome": "no-factor-found",
            "candidates_tried": outcome.candidates_tried,
        }
        return _emit(args, payload)
    payload = {"outcome": "budget-exceeded", "reason": outcome.reason}
    return _emit(args, payload, code=EXIT_BUDGET)


def cmd_geometry(args: argparse.Namespace) -> int:
    if args.action == "verify":
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1, got {args.samples}")
        simplex = regular_simplex(args.n, args.a)
        rng = Random(args.seed)
        worst = 0.0
        residuals: List[float] = []
        for _ in range(args.samples):
            weights = random_affine_weights(args.n, rng)
            res = relation_residual(simplex, weights).residual
            residuals.append(res)
            worst = max(worst, abs(res))
        payload: Dict[str, object] = {
            "n": args.n,
            "edge": args.a,
            "samples": args.samples,
            "max_abs_residual": worst,
            "first_residuals": residuals[:10],
        }
        return _emit(args, payload)
    known = [float(v) for v in args.known.split(",")]
    solutions = solve_fourth_distance(known)
    payload = {
        "known": known,
        "solutions": solutions,
        "residuals": [quadruple_residual(v, known) for v in solutions],
    }
    return _emit(args, payload)


def cmd_diophantine(args: argparse.Namespace) -> int:
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
    return _emit(args, payload)


def _emit(args: argparse.Namespace, payload: Dict[str, object], code: int = EXIT_OK) -> int:
    try:
        _print_report(_report(args, payload, args._started), args.pretty)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


# -- wiring ------------------------------------------------------------------------


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
    c.add_argument("--m", type=int)
    c.add_argument("--a")
    c.add_argument("--t")
    c.add_argument("--n", type=int)
    c.add_argument("--rule", choices=[r.value for r in SubstitutionRule])
    c.set_defaults(func=cmd_construct)

    k = sub.add_parser("classify", help="decide reducibility, with certificate", parents=[common])
    k.add_argument("--field", required=True)
    k.add_argument("--m", type=int)
    k.add_argument("--a")
    k.add_argument("--t")
    k.add_argument("--cayley-menger", action="store_true")
    k.add_argument("--n", type=int)
    k.set_defaults(func=cmd_classify)

    o = sub.add_parser("oracle", help="brute-force factor search over F_p", parents=[common])
    o.add_argument("--poly", required=True)
    o.add_argument("--field", type=int, required=True, help="odd prime modulus")
    o.add_argument("--vars", required=True, help="comma-separated variable names")
    o.add_argument("--max-degree", type=int)
    o.add_argument("--max-field-size", type=int, default=SearchBudget.max_field_size)
    o.add_argument("--homogeneous", action="store_true")
    o.add_argument("--time-limit", type=float)
    o.set_defaults(func=cmd_oracle)

    g = sub.add_parser("geometry", help="verify the distance relation numerically")
    gsub = g.add_subparsers(dest="action", required=True)
    gv = gsub.add_parser("verify", parents=[common])
    gv.add_argument("--n", type=int, required=True)
    gv.add_argument("--a", type=float, required=True)
    gv.add_argument("--samples", type=int, default=100)
    gv.add_argument("--seed", type=int, default=0)
    gv.set_defaults(func=cmd_geometry)
    gs = gsub.add_parser("solve", parents=[common])
    gs.add_argument("--known", required=True, help="three comma-separated values")
    gs.set_defaults(func=cmd_geometry)

    d = sub.add_parser("diophantine", help="enumerate integer solutions", parents=[common])
    d.add_argument("--bound", type=int, required=True)
    d.add_argument("--primitive-only", action="store_true")
    d.add_argument("--report-realizability", action="store_true")
    d.set_defaults(func=cmd_diophantine)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        args._started = started
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
