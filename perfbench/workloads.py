"""The three benchmark workloads: request generation, the timed call, the check.

A workload turns a seed into one pass of requests. ``call`` is the timed part
of a request and goes through the library's module attributes, so the tracer
can wrap them; ``check`` runs untimed and compares the result with a value
from ``reference``. It returns None for a correct result, otherwise a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import reference as ref


@dataclass
class Request:
    kind: str
    args: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Base: ``requests`` is one pass, ``warmup`` one request of each kind."""

    name = ""

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        self.lib = lib
        rng = Random(seed)
        self.requests = self.generate(rng)
        rng.shuffle(self.requests)
        self.warmup = self.warmup_requests(rng)

    def generate(self, rng: Random) -> List[Request]:
        raise NotImplementedError

    def warmup_requests(self, rng: Random) -> List[Request]:
        raise NotImplementedError

    def call(self, req: Request) -> object:
        raise NotImplementedError

    def check(self, req: Request, out: object) -> Optional[str]:
        raise NotImplementedError


# -- crosscheck-fq -------------------------------------------------------------------


def _fq_pool() -> List[Tuple[int, int, int, int, bool]]:
    """(q, m, a, t, homogeneous_only) instances of the differential check.

    F_5 with a = 1, t != 0 is left out: each of those searches runs 16-20 s.
    F_3 with t = 2 and either a = 1 or m = 4 is left out too: each searches
    the same candidate space as its t = 1 twin and would only lengthen a pass.
    """
    return (
        [(3, 3, 0, t, False) for t in range(3)]
        + [(3, 3, 1, t, False) for t in range(2)]
        + [(5, 3, 0, t, False) for t in range(5)]
        + [(5, 3, 1, 0, False)]
        + [(q, 3, 0, t, True) for q in (7, 11, 13) for t in range(q)]
        + [(3, 4, 0, t, False) for t in range(2)]
    )


class CrosscheckFq(Workload):
    name = "crosscheck-fq"

    @staticmethod
    def _request(rng: Random, q: int, m: int, a: int, t: int, hom: bool) -> Request:
        # parameters are integer literals read in F_q: a + k*q names the same element
        return Request(
            "oracle",
            {"q": q, "m": m, "a": a, "t": t, "homogeneous_only": hom,
             "a_lit": a + q * rng.randrange(4), "t_lit": t + q * rng.randrange(4)},
        )

    def generate(self, rng: Random) -> List[Request]:
        return [self._request(rng, *inst) for inst in _fq_pool()]

    def warmup_requests(self, rng: Random) -> List[Request]:
        return [self._request(rng, *inst) for inst in
                ((3, 3, 0, 1, False), (7, 3, 0, 1, True), (3, 4, 0, 0, False))]

    def call(self, req: Request) -> object:
        lib, a = self.lib, req.args
        params = lib.family.GParams.of(lib.field.prime_field(a["q"]), a["m"], a["a_lit"], a["t_lit"])
        verdict = lib.classify.classify_g(params)
        budget = lib.oracle.SearchBudget(homogeneous_only=a["homogeneous_only"])
        return verdict, lib.oracle.brute_force_factor_search(verdict.input, budget)

    def check(self, req: Request, out: object) -> Optional[str]:
        verdict, outcome = out
        q, m, a, t = (req.args[k] for k in ("q", "m", "a", "t"))
        expected = ref.predict_rule(q, q % 3 == 1, m, a, t)
        if verdict.rule.tag != expected:
            return f"rule {verdict.rule.tag}, table says {expected}"
        terms = {e: c.value for e, c in verdict.input.terms.items()}
        if terms != ref.g_terms_mod(q, m, a, t):
            return "classified input differs from the closed form of g"
        reducible = expected in ref.REDUCIBLE_RULES
        if isinstance(outcome, self.lib.oracle.FactorFound):
            if not reducible:
                return "oracle found a factor of an irreducible input"
            factor = {e: c.value for e, c in outcome.factor.terms.items()}
            quotient = {e: c.value for e, c in outcome.quotient.terms.items()}
            if not 0 < max(map(sum, factor)) <= 2:
                return "oracle factor is not a proper divisor"
            if ref.mul_terms_mod(factor, quotient, q) != terms:
                return "factor * quotient != input"
            return None
        if isinstance(outcome, self.lib.oracle.NoFactorFound):
            return "oracle found no factor of a reducible input" if reducible else None
        return f"oracle gave {outcome!r}"


# -- classify-construct ------------------------------------------------------------------

FIELDS = {"Q": (None, False), "Qw": (None, True), "F101": (101, False)}
FIELD_ORDER = ("Q", "Qw", "F101")
RULES = ("sum", "product", "sum-squared", "mixed-quadratic")


# m ladders of the t != 0 requests, skewed toward large m; fixed, so that no seed
# changes the cost of a pass. Q(w) arithmetic costs about twice as much, so its
# ladder stops lower.
G_LADDERS = {"Q": (10, 40, 70, 117), "Qw": (10, 40, 70, 95), "F101": (10, 40, 70, 117)}
TZERO_M = 40


class ClassifyConstruct(Workload):
    name = "classify-construct"

    def _point(self, rng: Random, fname: str, k: int) -> List[object]:
        if FIELDS[fname][0] is not None:
            return [rng.randint(1, 100) for _ in range(k)]
        return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]

    def _classify_g(self, rng: Random, fname: str, m: int, a: int, t: int) -> Request:
        p = FIELDS[fname][0]
        lit = (lambda v: v + p * rng.randrange(3)) if p else (lambda v: v)
        argv = ["classify", "--field", fname, "--m", str(m), "--a", str(lit(a)), "--t", str(lit(t))]
        return Request("classify-g", {"argv": argv, "field": fname, "m": m, "a": a, "t": t,
                                      "point": self._point(rng, fname, m)})

    def _cm(self, rng: Random, kind: str, fname: str, n: int, rule: str = "") -> Request:
        argv = {
            "classify-cm": ["classify", "--field", fname, "--cayley-menger", "--n", str(n)],
            "construct-cm": ["construct", "--family", "cayley-menger", "--field", fname, "--n", str(n)],
            "construct-prekite": ["construct", "--family", "prekite", "--field", fname, "--n", str(n)],
            "construct-special": ["construct", "--family", "special", "--rule", rule,
                                  "--field", fname, "--n", str(n)],
        }[kind]
        k = n + 1 if kind in ("construct-prekite", "construct-special") else n * (n + 1) // 2
        return Request(kind, {"argv": argv, "field": fname, "n": n, "rule": rule,
                              "point": self._point(rng, fname, k)})

    def generate(self, rng: Random) -> List[Request]:
        reqs: List[Request] = []
        for fname in FIELD_ORDER:
            for idx, m in enumerate(G_LADDERS[fname]):
                a = rng.randint(1, 9) if idx % 2 == 0 else 0
                reqs.append(self._classify_g(rng, fname, m, a, rng.randint(1, 9)))
            reqs.append(self._classify_g(rng, fname, TZERO_M, rng.randint(0, 5), 0))
            reqs.append(self._classify_g(rng, fname, 3, 0, 2))
            reqs.append(self._classify_g(rng, fname, 3, 0, 3))
        # fields rotate with n by a fixed rule, so a seed cannot move the costliest
        # determinant to the slowest field
        for n in range(2, 7):
            reqs.append(self._cm(rng, "classify-cm", FIELD_ORDER[n % 3], n))
            reqs.append(self._cm(rng, "construct-cm", FIELD_ORDER[(n + 2) % 3], n))
        for n in range(3, 6):
            reqs.append(self._cm(rng, "construct-prekite", FIELD_ORDER[(n + 1) % 3], n))
        for n in (3, 4):
            for rule in RULES:
                reqs.append(self._cm(rng, "construct-special", FIELD_ORDER[n % 3], n, rule))
        return reqs

    def warmup_requests(self, rng: Random) -> List[Request]:
        return [
            self._classify_g(rng, "Q", 3, 1, 5),
            self._cm(rng, "classify-cm", "Q", 2),
            self._cm(rng, "construct-cm", "Q", 2),
            self._cm(rng, "construct-prekite", "Q", 3),
            self._cm(rng, "construct-special", "Q", 3, "sum"),
        ]

    def call(self, req: Request) -> object:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(req.args["argv"])
        return code, buf.getvalue()

    def check(self, req: Request, out: object) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)["payload"]
        args = req.args
        sc = ref.Scalars(FIELDS[args["field"]][0])
        point = [sc.of(v) for v in args["point"]]
        if req.kind == "classify-g":
            return self._check_g(sc, args, point, payload)
        n = args["n"]
        if req.kind in ("classify-cm", "construct-cm"):
            edges = ref.edge_pairs(n)
            want = sc.of(ref.bordered_det(
                {e: Fraction(v) ** 2 for e, v in zip(edges, args["point"])}, n + 1))
            if req.kind == "construct-cm":
                return self._check_terms(sc, payload, point, want, "determinant")
            names = {f"x{i}{j}": x for (i, j), x in zip(edges, point)}
            rule = "HeronCayleyMenger" if n == 2 else "IrreducibleCayleyMenger"
            return self._check_verdict(sc, payload, names, want, rule)
        values = [Fraction(v) for v in args["point"]]
        if req.kind == "construct-prekite":
            x, ys = values[0], values[1:]
            sq = {(i, j): (ys[i - 1] if j == n + 1 else x) ** 2 for i, j in ref.edge_pairs(n)}
            core = n * (x**4 + sum(y**4 for y in ys)) - (x**2 + sum(y**2 for y in ys)) ** 2
            return (self._check_terms(sc, payload["reduced_determinant"], point,
                                      sc.of(ref.bordered_det(sq, n + 1)), "reduced determinant")
                    or self._check_terms(sc, payload["quartic_core"], point, sc.of(core),
                                         "quartic core"))
        sq = {(i, j): ref.substitution_image(args["rule"], values[i - 1], values[j - 1])
              for i, j in ref.edge_pairs(n)}
        return self._check_terms(sc, payload, point, sc.of(ref.bordered_det(sq, n + 1)),
                                 "substituted determinant")

    @staticmethod
    def _check_terms(sc, payload, point, want, what: str) -> Optional[str]:
        if payload["term_count"] != len(payload["terms"]):
            return f"{what}: term_count does not match the term list"
        if ref.eval_terms(sc, payload["terms"], point) != want:
            return f"{what} differs from the reference at a seeded point"
        return None

    def _check_g(self, sc, args, point, payload) -> Optional[str]:
        p, cube = FIELDS[args["field"]]
        rule = ref.predict_rule(p, cube, args["m"], args["a"], args["t"])
        names = {f"x{i + 1}": x for i, x in enumerate(point)}
        return self._check_verdict(sc, payload, names, ref.g_value(sc, args["a"], args["t"], point), rule)

    @staticmethod
    def _check_verdict(sc, payload, names, want, rule: str) -> Optional[str]:
        if payload["rule"] != rule:
            return f"rule {payload['rule']}, reference says {rule}"
        reducible = rule in ref.REDUCIBLE_RULES or rule == "HeronCayleyMenger"
        if payload["verdict"] != ("reducible" if reducible else "irreducible"):
            return f"verdict {payload['verdict']} for rule {rule}"
        if ref.eval_text(sc, payload["input"], names) != want:
            return "input polynomial differs from the reference at a seeded point"
        if not reducible:
            return None
        if payload["product_check"] is not True:
            return "certificate product check failed"
        product = sc.literal(payload["unit"])
        for f in payload["factors"]:
            value = ref.eval_text(sc, f["polynomial"], names)
            for _ in range(f["multiplicity"]):
                product = sc.reduce(product * value)
        if product != want:
            return "certificate factors do not multiply to the input at a seeded point"
        return None


# -- numeric-crosscheck -----------------------------------------------------------------------

EXPECTED_345 = math.sqrt(25 + 12 * math.sqrt(3))
NAIVE_BOUND = 40  # enumerations up to this bound are compared with a full scan


class NumericCrosscheck(Workload):
    name = "numeric-crosscheck"

    def __init__(self, lib: SimpleNamespace, seed: int) -> None:
        self._naive: Dict[int, List[Tuple[int, ...]]] = {}
        super().__init__(lib, seed)

    @staticmethod
    def _weights(rng: Random, n: int) -> List[float]:
        while True:
            raw = [rng.uniform(-2.0, 3.0) for _ in range(n + 1)]
            total = math.fsum(raw)
            if abs(total) >= 1.0:
                return [w / total for w in raw]

    def _residual(self, rng: Random) -> Request:
        """One simplex for each n = 2..10, each with its edge and two weight vectors."""
        return Request("residual", {"cases": [
            (n, rng.uniform(0.5, 4.0), [self._weights(rng, n) for _ in range(2)])
            for n in range(2, 11)]})

    @staticmethod
    def _triangle(rng: Random) -> Tuple[float, List[float]]:
        """A side and the distances of a planar point to that triangle's vertices,
        drawn away from the double root of the quadratic the solver meets."""
        while True:
            s = rng.uniform(1.0, 10.0)
            px, py = rng.uniform(-s, 2 * s), rng.uniform(-s, 2 * s)
            verts = ((0.0, 0.0), (s, 0.0), (s / 2, s * math.sqrt(3) / 2))
            d = [math.hypot(px - vx, py - vy) for vx, vy in verts]
            c = sum(x * x for x in d)
            if abs(2 * s * s - c) > 0.05 * c:
                return s, d

    def _solve(self, rng: Random) -> Request:
        return Request("solve", {"triangles": [self._triangle(rng) for _ in range(16)]})

    def _enumerate(self, bound: int) -> Request:
        return Request("enumerate", {"bound": bound})

    def generate(self, rng: Random) -> List[Request]:
        # Requests of one kind cost the same, so the median falls among the 25
        # residual requests and the 90th percentile among the seven bound-100
        # enumerations, never on a step between two kinds.
        reqs = [self._residual(rng) for _ in range(25)]
        reqs += [self._solve(rng) for _ in range(13)]
        small = [b - rng.randint(0, 2) for b in (10, 20, 30, 40)]
        reqs += [self._enumerate(b) for b in small + [100] * 7 + [200]]
        return reqs

    def warmup_requests(self, rng: Random) -> List[Request]:
        return [self._residual(rng), self._solve(rng), self._enumerate(10)]

    def call(self, req: Request) -> object:
        geo, dio, a = self.lib.geometry, self.lib.diophantine, req.args
        if req.kind == "residual":
            out = []
            for n, edge, weights in a["cases"]:
                simplex = geo.regular_simplex(n, edge)
                out.append([geo.relation_residual(simplex, w) for w in weights])
            return out
        if req.kind == "solve":
            known = [[3.0, 4.0, 5.0]] + [d for _, d in a["triangles"]]
            return [geo.solve_fourth_distance(k) for k in known]
        solutions = dio.enumerate_solutions(a["bound"])
        return solutions, [dio.realizability_report(s) for s in solutions]

    def check(self, req: Request, out: object) -> Optional[str]:
        a = req.args
        if req.kind == "residual":
            for (n, edge, weights), results in zip(a["cases"], out):
                for w, res in zip(weights, results):
                    want = ref.simplex_distances(edge, w)
                    if any(abs(d - e) > 1e-9 * max(1.0, e) for d, e in zip(res.distances, want)):
                        return f"n={n}: distances differ from the reference"
                    if abs(res.residual) > 1e-9 or abs(ref.relation_defect(edge, want)) > 1e-9:
                        return f"n={n}: relation residual {res.residual!r} over 1e-9"
            return None
        if req.kind == "solve":
            if not out[0] or abs(max(out[0]) - EXPECTED_345) > 1e-12 * EXPECTED_345:
                return f"[3,4,5] gave {out[0]}, expected {EXPECTED_345}"
            for (side, _), sols in zip(a["triangles"], out[1:]):
                if not any(abs(v - side) <= 1e-7 * side for v in sols):
                    return f"side {side} missing from {sols}"
            return None
        return self._check_enumeration(a["bound"], *out)

    def _check_enumeration(self, bound: int, solutions, reports) -> Optional[str]:
        values = [s.values for s in solutions]
        if values != sorted(set(values)):
            return "solutions are not sorted and distinct"
        for s in solutions:
            v = s.values
            if list(v) != sorted(v) or not 0 <= v[0] or v[-1] > bound or not v[-1]:
                return f"{v} is not an ascending nonzero tuple within the bound"
            if not ref.is_integer_solution(v):
                return f"{v} does not satisfy the relation"
            if s.primitive != (math.gcd(*v) == 1):
                return f"{v} has a wrong primitivity flag"
        if not set(ref.known_solutions(bound)) <= set(values):
            return "a known solution is missing"
        if bound <= NAIVE_BOUND:
            if bound not in self._naive:
                self._naive[bound] = ref.naive_solutions(bound)
            if values != self._naive[bound]:
                return "solutions differ from the full scan"
        if len(reports) != len(solutions):
            return "not one realizability report per solution"
        for s, rep in zip(solutions, reports):
            if rep["values"] != list(s.values) or rep["primitive"] != s.primitive:
                return "realizability report does not match its tuple"
            if any(abs(r) > 1e-12 for r in rep["relation_residuals"]):
                return "realizability residual of an exact solution is not zero"
            if any(s.values[i] == 0 for i in rep["side_positions_realizable"]):
                return "a zero side is reported realizable"
        return None


WORKLOADS = {w.name: w for w in (CrosscheckFq, ClassifyConstruct, NumericCrosscheck)}
