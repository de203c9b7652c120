"""Spans and work counters recorded around the library's public functions.

The tracer replaces functions and methods of the library, from the outside,
with wrappers that record a span per call: name, start, end, parent span and
request id. Self time (a span's duration minus the time its child spans
cover) is summed per span name as the spans close; the spans themselves are
kept in memory and written out at the end of the run. Counters are taken at
the same boundaries. ``count_field_ops`` installs a second, separate set of
wrappers that count scalar field operations per field kind.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

FAMILY = ("family.build", "family.cayley_menger", "family.reduction")
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.keep_spans = True
        self.request_id = 0
        self.stack: List[list] = []  # [name, start, child time, span index]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple] = []
        self.spans_dropped = 0

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.maxima.clear()

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> list:
        start = time.perf_counter()
        parent = self.stack[-1][3] if self.stack else None
        index = None
        if self.keep_spans and len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append([self.request_id, name, start, None, parent])
        elif self.keep_spans:
            self.spans_dropped += 1
        frame = [name, start, 0.0, index]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][3] = end

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Spans as JSON lines: request, name, start, end, parent span index."""
        with open(path, "w") as out:
            for request, name, start, end, parent in self.spans:
                out.write(json.dumps({"request": request, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


# -- counters at span boundaries ----------------------------------------------------------


def _count_mul(tr: Tracer, args, result) -> None:
    a, b = args
    tr.counts["poly.mul_calls"] += 1
    tr.counts["poly.mul_term_pairs"] += len(a.terms) * len(getattr(b, "terms", (1,)))


def _count_add(tr: Tracer, args, result) -> None:
    tr.counts["poly.add_calls"] += 1


def _count_divide(tr: Tracer, args, result) -> None:
    hit = result is not None
    tr.counts["poly.exact_divide_calls"] += 1
    tr.counts["poly.exact_divide_hits"] += hit
    if tr.parent() == "oracle.search":
        tr.counts["oracle.divisions"] += 1
        tr.counts["oracle.division_hits"] += hit


def _count_search(tr: Tracer, args, result) -> None:
    tr.counts["oracle.candidates"] += getattr(result, "candidates_tried", 0)


def _count_certificate(tr: Tracer, args, result) -> None:
    tr.counts["classify.verify_certificate_calls"] += 1


def _count_family(tr: Tracer, args, result) -> None:
    if tr.parent() not in FAMILY:
        polys = result if isinstance(result, tuple) else (result,)
        tr.counts["family.output_terms"] += sum(len(p.terms) for p in polys)


def _count_residual(tr: Tracer, args, result) -> None:
    tr.counts["geometry.residual_calls"] += 1
    tr.maxima["geometry.max_abs_residual"] = max(
        tr.maxima["geometry.max_abs_residual"], abs(result.residual))


def _count_enumerate(tr: Tracer, args, result) -> None:
    # (w, x, y) with 0 <= w <= x <= y <= bound; z comes from a closed form
    tr.counts["diophantine.triples_scanned"] += math.comb(args[0] + 3, 3)
    tr.counts["diophantine.solutions"] += len(result)


# (module, attribute, span name, counter); a class attribute is "Class.method"
TARGETS = [
    ("cli", "main", "cli", None),
    ("classify", "classify_g", "classify.decide", None),
    ("classify", "classify_cayley_menger", "classify.decide", None),
    ("classify", "verify_certificate", "classify.verify_certificate", _count_certificate),
    ("classify", "verdict_to_json", "classify.render", None),
    ("family", "build_g", "family.build", _count_family),
    ("family", "build_f", "family.build", _count_family),
    ("family", "cayley_menger", "family.cayley_menger", _count_family),
    ("family", "prekite_reduction", "family.reduction", _count_family),
    ("family", "special_family_substitution", "family.reduction", _count_family),
    ("poly", "Polynomial.__mul__", "poly.mul", _count_mul),
    ("poly", "Polynomial.__add__", "poly.add", _count_add),
    ("poly", "Polynomial.exact_divide", "poly.exact_divide", _count_divide),
    ("poly", "poly_to_text", "poly.to_text", None),
    ("oracle", "brute_force_factor_search", "oracle.search", _count_search),
    ("geometry", "regular_simplex", "geometry.simplex", None),
    ("geometry", "relation_residual", "geometry.residual", _count_residual),
    ("geometry", "solve_fourth_distance", "geometry.solve", None),
    ("diophantine", "enumerate_solutions", "diophantine.enumerate", _count_enumerate),
    ("diophantine", "realizability_report", "diophantine.realizability", None),
]


class Patches:
    """Replacements of library attributes, undone in reverse order by ``undo``."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install_spans(tracer: Tracer, modules: Dict[str, object]) -> Patches:
    """Wrap every target, in every library module that holds a reference to it."""
    patches = Patches()
    for mod_name, attr, span, count in TARGETS:
        module = modules[mod_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            patches.set(cls, method, tracer.wrap(span, getattr(cls, method), count))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, count)
        for holder in modules.values():
            for name, value in list(vars(holder).items()):
                if value is original:
                    patches.set(holder, name, wrapped)
    return patches


def count_field_ops(counts: Counter, field_module: object) -> Patches:
    """Count FieldElement +, *, unary - and inverse calls, keyed by field kind."""
    patches = Patches()
    cls = field_module.FieldElement
    for method in ("__add__", "__mul__", "__neg__", "inverse"):
        original = getattr(cls, method)

        def counted(self, *args, _original=original):
            counts["field.ops." + self.spec.kind] += 1
            return _original(self, *args)

        patches.set(cls, method, counted)
    return patches
