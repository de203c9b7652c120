"""simplexpoly benchmark: one workload, one process, one client, closed loop.

    python3 perfbench/run.py --workload crosscheck-fq --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. A run repeats whole passes over the workload's requests,
one request at a time, for about ``--seconds`` seconds, checks every result
against ``reference`` outside the timed window, and prints a table followed
by one JSON line. Times are reported at reference speed (see ``speed``). ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of ``tracing`` and writes the spans of one pass
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import speed

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
MODULES = ("field", "poly", "family", "classify", "oracle", "geometry", "diophantine", "cli")
SETUP_SAMPLES = 9
MIN_PASSES = 3  # so that every request has a median of at least three times

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SPAN_TIMES = {  # metric -> span whose summed self time it reports
    "cli.self_s": "cli",
    "classify.decide_s": "classify.decide",
    "classify.verify_certificate_s": "classify.verify_certificate",
    "classify.render_s": "classify.render",
    "family.build_s": "family.build",
    "family.cayley_menger_s": "family.cayley_menger",
    "family.reduction_s": "family.reduction",
    "poly.mul_s": "poly.mul",
    "poly.add_s": "poly.add",
    "poly.to_text_s": "poly.to_text",
    "poly.exact_divide_s": "poly.exact_divide",
    "oracle.self_s": "oracle.search",
    "geometry.simplex_s": "geometry.simplex",
    "geometry.residual_s": "geometry.residual",
    "geometry.solve_s": "geometry.solve",
    "diophantine.enumerate_s": "diophantine.enumerate",
    "diophantine.realizability_s": "diophantine.realizability",
    "request.self_s": "request",
}
COUNTERS = (
    "classify.verify_certificate_calls",
    "family.output_terms",
    "poly.mul_calls",
    "poly.mul_term_pairs",
    "poly.add_calls",
    "poly.exact_divide_calls",
    "poly.exact_divide_hits",
    "oracle.candidates",
    "oracle.divisions",
    "geometry.residual_calls",
    "diophantine.triples_scanned",
    "diophantine.solutions",
)
FIELD_OPS = ("field.ops.prime", "field.ops.rational", "field.ops.cyclotomic")


def load_library() -> SimpleNamespace:
    """Import simplexpoly from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module(f"simplexpoly.{name}") for name in MODULES}
    except ImportError as exc:
        sys.exit(f"cannot import simplexpoly from {SRC}: {exc}")
    if Path(mods["cli"].__file__).resolve().parent != SRC / "simplexpoly":
        sys.exit(f"simplexpoly was imported from {mods['cli'].__file__}, not from {SRC}")
    mods["package"] = sys.modules["simplexpoly"]
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int):
    """Import, generate the seeded requests, and run one checked warm-up per kind."""
    lib = load_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](lib, seed)
    for req in wl.warmup:
        err = wl.check(req, wl.call(req))
        if err:
            sys.exit(f"warm-up {req.kind} failed: {err}")
    return lib, wl


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh process until it is set up.

    Not scaled to reference speed: the set-up process may run on the other
    core, whose load a kernel run in this process does not see.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"set-up process failed with exit code {code}")
    return statistics.median(samples)


class Pass:
    """Times (s, in request order) and failures of one pass: ``latencies`` as
    measured, ``scaled`` at reference speed."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.failures: List[str] = []


def request_times(passes: List[Pass], scaled: bool = True) -> List[float]:
    """Each request's median time over the passes (all passes share one order)."""
    return [statistics.median(times)
            for times in zip(*(p.scaled if scaled else p.latencies for p in passes))]


def throughput(passes: List[Pass], scaled: bool = True) -> float:
    """Verified requests per second of timed time, for a pass of median times."""
    attempted = sum(len(p.latencies) for p in passes)
    verified = 1 - sum(len(p.failures) for p in passes) / attempted
    times = request_times(passes, scaled)
    return verified * len(times) / sum(times)


def run_pass(wl, tracer=None) -> Pass:
    result = Pass()
    for req in wl.requests:
        err: Optional[str] = None
        out = None
        # every request starts from a collected heap, so a cyclic collection
        # falls in the same request on every pass
        gc.collect()
        before = speed.kernel_seconds()
        if tracer is not None:
            tracer.request_id += 1
            tracer.enabled = True
        start = time.perf_counter()
        try:
            if tracer is not None:
                frame = tracer.enter("request")
                try:
                    out = wl.call(req)
                finally:
                    tracer.exit(frame)
            else:
                out = wl.call(req)
        except Exception as exc:  # a failed request is counted, never fatal
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        result.latencies.append(elapsed)
        result.scaled.append(elapsed * speed.scale(before, speed.kernel_seconds()))
        if err is None:
            try:
                err = wl.check(req, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            result.failures.append(f"{req.kind} {req.args.get('argv', '')}: {err}")
    return result


def timed_loop(seconds: float, kinds: List[str], run, min_rounds: int) -> Dict[str, List[Pass]]:
    """Run one pass of each kind per round; after the first round, drop "count".

    Passes are never cut short, so every pass has the same requests. The run
    makes at least ``min_rounds`` rounds, then stops when another round would
    end more than half a round past ``seconds``.
    """
    passes: Dict[str, List[Pass]] = {k: [] for k in kinds}
    start = time.perf_counter()
    order = list(kinds)
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        for kind in order:
            passes[kind].append(run(kind))
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - round_start) / 2 >= seconds:
            return passes
        order = [k for k in kinds if k != "count"]


def end_to_end(args, lib, wl) -> dict:
    setup_s = setup_seconds(args.workload, args.seed)
    passes = timed_loop(args.seconds, ["plain"], lambda _: run_pass(wl), MIN_PASSES)["plain"]
    n = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    values, measured = {}, {}
    for out, scaled in ((values, True), (measured, False)):
        ms = [x * 1000 for x in request_times(passes, scaled)]
        out["throughput_per_s"] = throughput(passes, scaled)
        out["latency_p50_ms"] = statistics.median(ms)
        out["latency_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = f"{n} samples: {len(ms)} requests x {len(passes)} passes"
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} set-ups in fresh processes",
        "throughput_per_s": samples,
        "latency_p50_ms": samples,
        "latency_p90_ms": f"{samples}; {len(ms) - round(0.9 * len(ms))} requests beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name in measured:
        notes[name] += f"; {measured[name]:.4f} as measured"
    for name, unit in END_TO_END.items():
        print(f"{name:<22} {values[name]:>14.4f} {unit:<11} {notes[name]}")
    print(f"{'error_rate':<22} {len(failures) / n:>14.4f} {'fraction':<11} "
          f"{len(failures)} of {n} requests failed")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"attempted": n, "failures": failures, "metrics": metrics}


def per_layer(args, lib, wl) -> dict:
    import tracing
    from workloads import WORKLOADS

    modules = {name: getattr(lib, name) for name in MODULES + ("package",)}
    tracer = tracing.Tracer()
    traced: List[dict] = []  # one snapshot of the tracer per traced pass
    counted: Dict[str, int] = {}

    def run(kind: str) -> Pass:
        if kind == "plain":
            return run_pass(wl)
        tracer.reset()
        patches = tracing.install_spans(tracer, modules)
        try:
            if kind == "traced":
                result = run_pass(wl, tracer)
                tracer.keep_spans = False  # the spans of the first traced pass are kept
                traced.append({"counts": dict(tracer.counts), "self": dict(tracer.self_s),
                               "total": dict(tracer.total_s), "max": dict(tracer.maxima),
                               "wall": sum(result.latencies)})
                return result
            # field-op wrappers distort times, so they get a pass of their own,
            # over requests generated afresh from the seed
            ops = tracing.count_field_ops(tracer.counts, lib.field)
            try:
                result = run_pass(WORKLOADS[args.workload](lib, args.seed), tracer)
            finally:
                ops.undo()
            counted.update(tracer.counts)
            return result
        finally:
            patches.undo()

    passes = timed_loop(args.seconds, ["plain", "traced", "count"], run, 2)
    structural = [s["counts"] for s in traced]
    structural.append({k: v for k, v in counted.items() if not k.startswith("field.")})
    repeat = all(c == structural[0] for c in structural)

    def med(fn) -> float:
        return statistics.median(fn(s) for s in traced)

    counts = traced[0]["counts"]
    values: Dict[str, float] = {
        metric: med(lambda s, span=span: s["self"].get(span, 0.0))
        for metric, span in SPAN_TIMES.items()
    }
    values["oracle.search_s"] = med(lambda s: s["total"].get("oracle.search", 0.0))
    values.update({c: counts.get(c, 0) for c in COUNTERS})
    values.update({c: counted.get(c, 0) for c in FIELD_OPS})
    divisions = counts.get("oracle.divisions", 0)
    values["oracle.division_hit_ratio"] = (
        counts.get("oracle.division_hits", 0) / divisions if divisions else 0.0)
    values["geometry.max_abs_residual"] = max(
        s["max"].get("geometry.max_abs_residual", 0.0) for s in traced)
    plain_tp = throughput(passes["plain"])
    traced_tp = throughput(passes["traced"])
    values["trace.untraced_throughput_per_s"] = plain_tp
    values["trace.traced_throughput_per_s"] = traced_tp
    values["trace.overhead_ratio"] = plain_tp / traced_tp
    values["trace.reconcile_ratio"] = med(lambda s: sum(s["self"].values()) / s["wall"])
    values["trace.counters_repeat"] = 1.0 if repeat else 0.0
    values["trace.requests_per_pass"] = len(wl.requests)

    out_dir = CHECKOUT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"))

    for name, (unit, _) in PER_LAYER.items():
        print(f"{name:<34} {values[name]:>16.6g} {unit}")
    print(f"passes: {len(passes['plain'])} untraced, {len(traced)} traced, 1 counting; "
          f"{len(tracer.spans)} spans written, {tracer.spans_dropped} not kept")
    all_passes = [p for ps in passes.values() for p in ps]
    failures = [f for p in all_passes for f in p.failures]
    if not repeat:
        failures.append("self-check: counters differ between passes on one seed")
    return {
        "attempted": sum(len(p.latencies) for p in all_passes),
        "failures": failures,
        "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in PER_LAYER.items()},
    }


def _per_layer_spec() -> Dict[str, tuple]:
    spec = {name: ("s", "lower") for name in SPAN_TIMES}
    spec["oracle.search_s"] = ("s", "lower")
    spec.update({name: ("count", "lower") for name in COUNTERS + FIELD_OPS})
    spec["diophantine.solutions"] = ("count", "higher")
    spec["oracle.division_hit_ratio"] = ("ratio", "higher")
    spec["geometry.max_abs_residual"] = ("ratio", "lower")
    spec["trace.untraced_throughput_per_s"] = ("requests/s", "higher")
    spec["trace.traced_throughput_per_s"] = ("requests/s", "higher")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    spec["trace.reconcile_ratio"] = ("ratio", "higher")
    spec["trace.counters_repeat"] = ("ratio", "higher")
    spec["trace.requests_per_pass"] = ("count", "higher")
    return spec


PER_LAYER = _per_layer_spec()


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    lib, wl = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(wl.requests)} requests per pass")
    report = (per_layer if args.trace else end_to_end)(args, lib, wl)
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
