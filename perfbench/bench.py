"""Workloads, correctness gates and metrics of the weakorder benchmark.

Every workload drives the library through its public API from one process
with ``workers=1``:

* ``sweep-exhaustive``: ``sweep(..., "EQ")`` over every ordered pair of F4,
  then of D5 (the exhaustive sweeps; the verify kernels do the work).
* ``h4-sample``: ``sweep(H4, "H", sample=2000, seed=<seed>)``; set-up (the
  H4 product tables) dominates, and the join is really compared.
* ``pointwise``: 2,000 single-pair queries on F4 in a closed loop with one
  caller.  A query is ``check_conjecture_H(u, v)``, then
  ``conjectural_join_D``, then ``path_witness`` to one reflection of the join.
* ``h4-closure``: ``is_biclosed(Phi_u | Phi_v)`` for 2,000 unions on a cold
  H4 root table; exact scalar signs and cone masks do the work.

A pass sets up from cold, as a new process would (fresh scalar ring, root
table, group and, where the workload uses them, product tables), and then
runs the workload's operations.  A run makes as many whole passes as come
nearest to ``--seconds`` (at least one), and sets up at least ``min_setups``
times in all.  The end-to-end metrics are:

* ``setup_s``: median of one set-up;
* ``verdict_s``: median of one pass, from the start of set-up to the last
  verdict;
* ``items_per_s``: pairs checked (sweeps), queries (pointwise) or closure
  decisions (h4-closure) per second spent inside those calls;
* ``peak_rss_mb``: the process high-water mark after the passes.

The tables printed before the result also give ``op_p50_ms`` and
``op_p99_ms``, the latency of one operation (one ``sweep`` call, one query
or one ``is_biclosed`` call), and ``failed_frac`` (failed over attempted
operations).  They are left out of the result line: on h4-closure the 99th
percentile lands on a cone-mask fill for some seeds and not for others (1.2
against 26 ms), a median of sub-millisecond operations swings by a quarter
between runs on a shared machine, and ``failed_frac`` reads 0 on a good run.

Correctness gates run outside the timed region and count every mismatch,
exception or wrong count as failed; a failed gate makes the run exit 1.

With ``--trace 1`` the run first measures untraced passes as above, then
one more pass under the tracer, and reports per-layer counts and self times,
``verify.w2_speedup`` (sweep time at ``workers=1`` over ``workers=2``) and
the tracing overhead (traced minus untraced ``verdict_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import numpy as np

import weakorder
from weakorder import bruhat, coxeter, scalar, verify, weak_order

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SPOT_CHECKS = 16  # sweep pairs re-checked through the single-pair API
clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """The inputs of the four workloads."""

    sweep_types: tuple[str, ...]
    union_counts: dict[str, int]  # distinct unions over all ordered pairs
    sample_type: str
    sample: int
    pointwise_type: str
    queries: int
    closure_type: str
    decisions: int


FULL = Sizes(("F4", "D5"), {"F4": 33_211, "D5": 35_857}, "H4", 2000, "F4", 2000, "H4", 2000)
SMOKE = Sizes(("B3", "H3"), {"B3": 137, "H3": 817}, "H3", 200, "B3", 100, "H3", 200)


@dataclass
class Outcome:
    """What a run measured, and the verdict of its correctness gates."""

    setup_s: list[float] = field(default_factory=list)
    verdict_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    items: int = 0
    items_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def timed_op(self, seconds: float, items: int) -> None:
        self.op_s.append(seconds)
        self.items += items
        self.items_s += seconds

    def gate(self, ok: bool, what: str, weight: int = 1) -> None:
        if not ok:
            self.failed += weight
            self.problems.append(what)

    def raised(self, what: str, weight: int = 1) -> None:
        self.gate(False, f"{what} raised: {traceback.format_exc(limit=3).strip()}", weight)


def _no_span(_name: str):
    return nullcontext()


def _cold_start() -> None:
    """Forget the process-wide scalar rings (and their refined intervals)."""
    scalar.build_ring.cache_clear()


def _tables_mb(system: coxeter.CoxeterSystem) -> float:
    total = 0
    for value in vars(system.numpy_tables()).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(a.nbytes for a in value if isinstance(a, np.ndarray))
    return total / 2**20


def _spot_pairs(system, rng: Random, out: Outcome, both_routes: bool) -> None:
    """Re-check a seeded sample of pairs through the single-pair public API."""
    for _ in range(SPOT_CHECKS):
        u = system.element(rng.randrange(system.size))
        v = system.element(rng.randrange(system.size))
        out.attempted += 1
        what = f"{system.graph.name} spot pair ({u.word_str()}; {v.word_str()})"
        try:
            verdict = bruhat.check_conjecture_H(u, v)
            ok = verdict.holds
            if both_routes:
                right = weak_order.conjectural_join_D(
                    system, coxeter.left_reflection_set(u), coxeter.left_reflection_set(v)
                )
                ok = ok and right.bits == verdict.rhs.bits
        except Exception:
            out.raised(what)
            continue
        out.gate(ok, f"{what} disagrees with the sweep")


# -- workloads -------------------------------------------------------------------


class Workload:
    """One workload: ``setup()`` builds from cold, ``work()`` runs the timed
    operations and ``check()`` gates their results; the hooks below default
    to doing nothing."""

    min_setups = 5

    def spot_check(self, state, rng: Random, out: Outcome) -> None:
        """Extra gates after the passes; by default every operation is checked in full."""

    def check_traced(self, tracer: Tracer, out: Outcome) -> None:
        """Gates on what the tracer counted."""

    def tables_mb(self, state) -> float:
        return 0.0

    def w2_speedup(self, state, seed: int, out: Outcome) -> float:
        return 0.0  # measured on the sweeps only


class Sweeps(Workload):
    """sweep-exhaustive (EQ over all pairs) and h4-sample (H over a sample)."""

    item, op = "pairs", "sweep"  # names in the printed tables

    def __init__(self, sizes: Sizes, exhaustive: bool):
        self.exhaustive = exhaustive
        self.types = sizes.sweep_types if exhaustive else (sizes.sample_type,)
        self.conjecture = "EQ" if exhaustive else "H"
        self.sample = None if exhaustive else sizes.sample
        self.union_counts = sizes.union_counts
        # one H4 set-up costs about 15 s, so h4-sample sets up once per pass
        self.min_setups = 5 if exhaustive else 1

    def setup(self):
        systems = []
        for name in self.types:
            system = coxeter.build_system(name)
            system.numpy_tables()
            systems.append(system)
        return systems

    def _sweep(self, system, seed: int, workers: int):
        return verify.sweep(
            system,
            self.conjecture,
            sample=self.sample,
            seed=None if self.sample is None else seed,
            workers=workers,
        )

    def work(self, systems, seed: int, rng: Random, out: Outcome, span) -> list:
        reports = []
        for system in systems:
            start = clock()
            try:
                report = self._sweep(system, seed, 1)
            except Exception:
                out.timed_op(clock() - start, 0)
                out.raised(f"sweep of {system.graph.name}", self._pairs(system))
                reports.append(None)
                continue
            out.timed_op(clock() - start, report.pairs_checked)
            reports.append(report)
        return reports

    def _pairs(self, system) -> int:
        return system.size**2 if self.sample is None else self.sample

    def check(self, systems, reports: list, out: Outcome, span) -> None:
        for system, report in zip(systems, reports):
            name = system.graph.name
            if report is None:  # the sweep raised; work() counted its pairs as failed
                out.attempted += self._pairs(system)
                continue
            out.attempted += report.pairs_checked
            out.gate(report.failure_count == 0, f"{name}: {report.failure_count} failing pairs",
                     report.failure_count)
            out.gate(report.pairs_checked == self._pairs(system),
                     f"{name}: {report.pairs_checked} pairs checked, expected {self._pairs(system)}")
            with span("verify.report"):
                OUT_DIR.mkdir(exist_ok=True)
                (OUT_DIR / f"report-{name}.json").write_text(report.to_json())

    def spot_check(self, systems, rng: Random, out: Outcome) -> None:
        for system in systems:
            if self.exhaustive:
                bits = np.array(system.inv_bits, dtype=np.int64)
                unions = np.unique((bits[:, None] | bits[None, :]).ravel()).size
                expected = self.union_counts[system.graph.name]
                out.gate(unions == expected,
                         f"{system.graph.name}: {unions} distinct unions, expected {expected}")
            _spot_pairs(system, rng, out, both_routes=self.conjecture == "EQ")

    def check_traced(self, tracer: Tracer, out: Outcome) -> None:
        if not self.exhaustive:
            return
        for name, unions in tracer.union_sizes:
            expected = self.union_counts[name]
            out.gate(unions == expected,
                     f"{name}: the sweep deduplicated to {unions} unions, expected {expected}")

    def tables_mb(self, systems) -> float:
        return sum(_tables_mb(s) for s in systems)

    def w2_speedup(self, systems, seed: int, out: Outcome) -> float:
        """Sweep time at workers=1 over sweep time at workers=2."""
        seconds = {}
        for workers in (1, 2):
            start = clock()
            for system in systems:
                report = self._sweep(system, seed, workers)
                out.gate(report.ok and report.pairs_checked == self._pairs(system),
                         f"{system.graph.name} sweep at workers={workers} failed")
            seconds[workers] = clock() - start
        return seconds[1] / seconds[2]


class Pointwise(Workload):
    """Single-pair queries: H verdict, D set and a witness path per pair."""

    min_setups = 7
    item, op = "queries", "query"

    def __init__(self, sizes: Sizes):
        self.type = sizes.pointwise_type
        self.queries = sizes.queries

    def setup(self):
        system = coxeter.build_system(self.type)
        system.numpy_tables()
        return system

    def work(self, system, seed: int, rng: Random, out: Outcome, span) -> list:
        results = []
        for _ in range(self.queries):
            u = system.element(rng.randrange(1, system.size))
            v = system.element(rng.randrange(1, system.size))
            start = clock()
            with span("bench.query"):
                try:
                    phi_u = coxeter.left_reflection_set(u)
                    phi_v = coxeter.left_reflection_set(v)
                    verdict = bruhat.check_conjecture_H(u, v)
                    right = weak_order.conjectural_join_D(system, phi_u, phi_v)
                    roots = verdict.lhs.indices()
                    target = roots[rng.randrange(len(roots))]
                    witness = bruhat.path_witness(system, phi_u | phi_v, target)
                    result = (u, v, verdict, right, target, witness)
                except Exception:
                    result = (u, v, traceback.format_exc(limit=3).strip())
            out.timed_op(clock() - start, 1)
            results.append(result)
        return results

    def check(self, system, results: list, out: Outcome, span) -> None:
        for result in results:
            out.attempted += 1
            u, v = result[0], result[1]
            what = f"query ({u.word_str()}; {v.word_str()})"
            if len(result) == 3:
                out.gate(False, f"{what} raised: {result[2]}")
                continue
            _, _, verdict, right, target, witness = result
            labels = (coxeter.left_reflection_set(u) | coxeter.left_reflection_set(v)).bits
            ok = (
                verdict.holds
                and right.bits == verdict.lhs.bits
                and witness is not None
                and len(witness["labels"]) > 0
                and all(labels >> r & 1 for r in witness["labels"])
                and witness["vertices"][-1] == system.reflection(target).word_str()
            )
            out.gate(ok, f"{what}: wrong H verdict, D set or witness path")

    def tables_mb(self, system) -> float:
        return _tables_mb(system)


class Closure(Workload):
    """Biclosed-set decisions, checked against inversion-set membership.

    Finite biclosed sets are exactly the inversion sets (Hohlweg-Labbe 2016).
    The closure route never builds the product tables.
    """

    item, op = "decisions", "decision"

    def __init__(self, sizes: Sizes):
        self.graph = coxeter.CoxeterGraph.from_name(sizes.closure_type)
        self.decisions = sizes.decisions

    def setup(self):
        return coxeter.enumerate_group(coxeter.generate_positive_roots(self.graph))

    def work(self, system, seed: int, rng: Random, out: Outcome, span) -> list:
        inv = system.inv_bits
        unions = [
            inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
            for _ in range(self.decisions)
        ]
        decisions = []
        for bits in unions:
            subset = coxeter.RootSubset(system.table, bits)
            start = clock()
            try:
                decision = weak_order.is_biclosed(subset)
            except Exception:
                decision = traceback.format_exc(limit=3).strip()
            out.timed_op(clock() - start, 1)
            decisions.append((bits, decision))
        return decisions

    def check(self, system, decisions: list, out: Outcome, span) -> None:
        inversion_sets = set(system.inv_bits)
        for bits, decision in decisions:
            out.attempted += 1
            if isinstance(decision, str):
                out.gate(False, f"is_biclosed({bits:#x}) raised: {decision}")
                continue
            out.gate(decision is (bits in inversion_sets),
                     f"is_biclosed({bits:#x}) = {decision} disagrees with inversion-set membership")


WORKLOADS = {
    "sweep-exhaustive": lambda sizes: Sweeps(sizes, exhaustive=True),
    "h4-sample": lambda sizes: Sweeps(sizes, exhaustive=False),
    "pointwise": Pointwise,
    "h4-closure": Closure,
}


# -- measuring -------------------------------------------------------------------


def run_pass(workload, seed: int, rng: Random, out: Outcome, span):
    """One cold set-up plus the workload's operations; returns the set-up state."""
    _cold_start()
    with span("bench.pass"):
        start = clock()
        with span("bench.setup"):
            state = workload.setup()
        setup_end = clock()
        results = workload.work(state, seed, rng, out, span)
        end = clock()
    out.setup_s.append(setup_end - start)
    out.verdict_s.append(end - start)
    workload.check(state, results, out, span)
    return state


def measure(workload, seed: int, seconds: float, out: Outcome):
    """Whole passes for about ``seconds``; returns the last state and peak RSS.

    Another pass starts only while it would end nearer to ``seconds`` than
    stopping now, so that a pass lasting about ``seconds`` (an H4 pass) runs
    once on a fast machine as on a slow one.
    """
    rng = Random(seed)
    start = clock()
    passes, state = 0, None
    while passes == 0 or clock() - start + pass_s / 2 < seconds:
        state = None  # release the previous pass before the next set-up
        begin = clock()
        state = run_pass(workload, seed + passes, rng, out, _no_span)
        pass_s = clock() - begin
        passes += 1
    rss_mb = peak_rss_mb()
    while len(out.setup_s) < workload.min_setups:
        _cold_start()
        begin = clock()
        workload.setup()
        out.setup_s.append(clock() - begin)
    return state, rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(out: Outcome, rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "verdict_s": (statistics.median(out.verdict_s), "s"),
        "items_per_s": (out.items / out.items_s if out.items_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# Per-layer metrics read from the tracer: name -> (kind, tracer key, unit).
LAYER_FIELDS = {
    "scalar.mul_calls": ("calls", "scalar.mul", "count"),
    "scalar.sign_calls": ("calls", "scalar.sign", "count"),
    "scalar.sign_s": ("self_s", "scalar.sign", "s"),
    "scalar.inverse_calls": ("calls", "scalar.inverse", "count"),
    "coxeter.roots_s": ("self_s", "coxeter.roots", "s"),
    "coxeter.enumerate_s": ("self_s", "coxeter.enumerate", "s"),
    "coxeter.tables_s": ("self_s", "coxeter.tables", "s"),
    "coxeter.cone_mask_calls": ("calls", "coxeter.cone_mask", "count"),
    "coxeter.cone_mask_computed": ("counts", "coxeter.cone_mask_computed", "count"),
    "coxeter.cone_mask_s": ("self_s", "coxeter.cone_mask", "s"),
    "coxeter.reachable_ids_calls": ("calls", "coxeter.reachable_ids", "count"),
    "coxeter.reachable_ids_s": ("self_s", "coxeter.reachable_ids", "s"),
    "weak_order.join_calls": ("calls", "weak_order.join", "count"),
    "weak_order.join_s": ("self_s", "weak_order.join", "s"),
    "bruhat.check_H_calls": ("calls", "bruhat.check_H", "count"),
    "bruhat.check_H_s": ("self_s", "bruhat.check_H", "s"),
    "bruhat.path_witness_calls": ("calls", "bruhat.path_witness", "count"),
    "bruhat.path_witness_s": ("self_s", "bruhat.path_witness", "s"),
    "verify.sweep_s": ("total_s", "verify.sweep", "s"),
    "verify.unions": ("counts", "verify.unions", "count"),
    "verify.chunks": ("calls", "verify.chunk", "count"),
    "verify.join_s": ("total_s", "verify.join", "s"),
    "verify.left_s": ("total_s", "verify.left", "s"),
    "verify.right_s": ("total_s", "verify.right", "s"),
    "verify.records_s": ("total_s", "verify.records", "s"),
    "verify.report_s": ("total_s", "verify.report", "s"),
}
# Which wrapped attribute each tracer key depends on, to report it as absent.
_SOURCES = {
    "verify.unions": "weakorder.verify._sweep_unions",
    "verify.chunk": "weakorder.verify._process_chunk",
    "verify.join": "weakorder.verify._joins_for_chunk",
    "verify.left": "weakorder.verify._reachable_reflection_bits",
    "verify.right": "weakorder.verify._reachable_reflection_bits",
    "verify.records": "weakorder.verify._failure_records",
}


# The per-layer metrics of the final JSON line (BENCHMARK.json "per_layer").
# Self times of layers that only some workloads enter (cone masks, the
# single-pair helpers, the verify helpers) are printed and written to the
# run record, but left out of it: they would read 0.0 on every run elsewhere.
REPORTED_LAYERS = (
    "scalar.mul_calls",
    "scalar.sign_calls",
    "scalar.sign_s",
    "scalar.inverse_calls",
    "coxeter.roots_s",
    "coxeter.enumerate_s",
    "coxeter.tables_mb",
    "coxeter.cone_mask_calls",
    "coxeter.cone_mask_computed",
    "coxeter.reachable_ids_calls",
    "weak_order.join_calls",
    "bruhat.check_H_calls",
    "bruhat.path_witness_calls",
    "verify.pairs",
    "verify.unions",
    "verify.chunks",
    "verify.dedupe_ratio",
    "verify.w2_speedup",
    "trace.overhead_s",
)


def per_layer(tracer: Tracer, pairs: int, tables_mb: float, w2: float,
              overhead_s: float) -> dict[str, tuple[float, str] | None]:
    """Every per-layer metric of the traced pass; None marks an absent target."""
    layers: dict[str, tuple[float, str] | None] = {}
    for name, (kind, key, unit) in LAYER_FIELDS.items():
        if _SOURCES.get(key) in tracer.absent:
            layers[name] = None
            continue
        value = getattr(tracer, kind)[key]
        layers[name] = (float(value) if unit == "s" else int(value), unit)
    sweep_s = tracer.total_s["verify.sweep"]
    parts = ("verify.join", "verify.left", "verify.right", "verify.records")
    layers["verify.other_s"] = (sweep_s - sum(tracer.total_s[p] for p in parts), "s")
    layers["verify.pairs"] = (pairs, "count")
    unions = tracer.counts["verify.unions"]
    layers["verify.dedupe_ratio"] = (pairs / unions if unions else 0.0, "ratio")
    layers["verify.unions_per_s"] = (unions / sweep_s if sweep_s else 0.0, "1/s")
    layers["coxeter.tables_mb"] = (tables_mb, "MB")
    layers["verify.w2_speedup"] = (w2, "ratio")
    layers["trace.overhead_s"] = (overhead_s, "s")
    return layers


def traced_pass(workload, seed: int) -> tuple[Tracer, object, Outcome]:
    """One more pass under the tracer, measured and gated on its own."""
    tracer = Tracer()
    traced = Outcome()
    with tracer.installed():
        state = run_pass(workload, seed, Random(seed), traced, tracer.span)
    workload.check_traced(tracer, traced)
    return tracer, state, traced


# -- reporting -------------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "weakorder_workers_env": os.environ.get("WEAKORDER_WORKERS"),
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        if entry is None:
            print(f"  {name:32s} absent")
        else:
            value, unit = entry
            print(f"  {name:32s} {value:>16.6g} {unit}")


def _self_time_table(tracer: Tracer) -> list[dict]:
    names = sorted(tracer.calls, key=lambda n: -tracer.self_s[n])
    return [
        {"name": n, "calls": tracer.calls[n], "total_s": tracer.total_s[n],
         "self_s": tracer.self_s[n]}
        for n in names
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="B3/H3-sized inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None, sizes: Sizes | None = None) -> int:
    args = parse_args(argv)
    if not Path(weakorder.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"weakorder was imported from {weakorder.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    sizes = sizes or (SMOKE if args.smoke else FULL)
    workload = WORKLOADS[args.workload](sizes)
    env = environment(args.seed)
    print(json.dumps({"env": env}), flush=True)

    out = Outcome()
    state, rss_mb = measure(workload, args.seed, args.seconds, out)
    workload.spot_check(state, Random(args.seed + 1_000_003), out)
    e2e = end_to_end(out, rss_mb)
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "passes": len(out.verdict_s), "setups": len(out.setup_s)}
    item, op = workload.item, workload.op
    summary = dict(e2e)
    summary[f"items_per_s ({item}_per_s)"] = summary.pop("items_per_s")
    latency_ms = [s * 1e3 for s in out.op_s]
    summary[f"op_p50_ms ({op}_p50_ms)"] = (percentile(latency_ms, 50), "ms")
    summary[f"op_p99_ms ({op}_p99_ms)"] = (percentile(latency_ms, 99), "ms")
    summary["failed_frac"] = (out.failed / max(out.attempted, 1), "ratio")
    _print_metrics(f"end-to-end, {args.workload}, seed {args.seed}, "
                   f"{record['passes']} passes, {record['setups']} set-ups:", summary)

    if args.trace:
        w2 = workload.w2_speedup(state, args.seed, out)
        tracer, traced_state, traced = traced_pass(workload, args.seed)
        out.attempted += traced.attempted
        out.failed += traced.failed
        out.problems += traced.problems
        pairs = traced.items if isinstance(workload, Sweeps) else 0
        overhead = traced.verdict_s[0] - e2e["verdict_s"][0]
        layers = per_layer(tracer, pairs, workload.tables_mb(traced_state), w2, overhead)
        _print_metrics(f"per-layer, one traced pass (verdict {traced.verdict_s[0]:.4f} s, "
                       f"tracing overhead {overhead:+.4f} s):", layers)
        table = _self_time_table(tracer)
        print("self time by span name:")
        for row in table:
            print(f"  {row['name']:28s} {row['calls']:>10d} calls "
                  f"{row['total_s']:>12.6f} s total {row['self_s']:>12.6f} s self")
        for name in tracer.absent:
            print(f"  {name:28s} absent")
        record.update(
            per_layer={k: v and {"value": v[0], "unit": v[1]} for k, v in layers.items()},
            self_times=table,
            absent=tracer.absent,
            spans=[dict(zip(("id", "name", "start", "end", "parent"), s)) for s in tracer.spans],
        )
        metrics = {k: layers[k] for k in REPORTED_LAYERS if layers[k] is not None}
    else:
        metrics = e2e

    correct = out.failed == 0
    for problem in out.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    record.update(end_to_end={k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                  attempted=out.attempted, failed=out.failed, problems=out.problems[:100])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
