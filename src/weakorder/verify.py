"""Exhaustive and sampled sweeps of the join identities over a whole group.

For every ordered pair (u, v) the sweeps compare three quantities built
from the union A = Phi_u | Phi_v of inversion sets:

* lhs      -- the inversion set of the weak-order join of u and v;
* rhs "H"  -- roots of the reflections reachable from the identity by
              length-increasing left products x -> s_alpha * x, alpha in A;
* rhs "D"  -- the same with right products x -> x * s_alpha.

"H" checks lhs == rhs_left, "D" checks lhs == rhs_right, and "EQ" checks
that the two routes agree pair by pair (same verdict and the same rhs).

The engine batches work by *distinct unions*: many ordered pairs share one
union A, and every quantity above depends on the pair only through A.
Both kernels live in `coxeter`.  Reachability runs as a length-level
dynamic program over all unions in a chunk at once, on uint64 words that
each hold 64 unions.  Joins come from an exact integer subset test of A
against the packed inversion sets (the first upper bound in enumeration
order, then minimality of that one).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from random import Random

import numpy as np

from .coxeter import (
    CoxeterGraph,
    CoxeterSystem,
    RootSubset,
    build_system,
    reach_words,
    transpose_bits,
    weak_joins,
)

DEFAULT_CHUNK = 4096
MAX_RECORDED_FAILURES = 100
_CONJECTURES = ("H", "D", "EQ")


class UsageError(ValueError):
    """A request the caller has to change: unparsable input or a setting or
    size the library does not support."""


def workers_from_env(default: int = 1) -> int:
    """Worker count from WEAKORDER_WORKERS, falling back to the default."""
    raw = os.environ.get("WEAKORDER_WORKERS", "").strip()
    if not raw:
        return default
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError("WEAKORDER_WORKERS must be a positive integer")
    return count


@dataclass
class SweepReport:
    """Outcome of one sweep, serializable as a stable JSON document."""

    type: str
    conjecture: str
    pairs_checked: int
    failure_count: int
    failures: list[dict] = field(default_factory=list)
    wall_time_ms: int = 0
    seed: int | None = None
    workers: int = 1
    schema: int = 1

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "type": self.type,
            "conjecture": self.conjecture,
            "backend": "exact",
            "pairs_checked": self.pairs_checked,
            "failures": self.failures,
            "failure_count": self.failure_count,
            "wall_time_ms": self.wall_time_ms,
            "seed": self.seed,
            "workers": self.workers,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


def _as_system(target: str | CoxeterGraph | CoxeterSystem) -> CoxeterSystem:
    if isinstance(target, CoxeterSystem):
        return target
    return build_system(target)


# -- batched per-union computations ---------------------------------------------------

# Read-only state shared with forked workers (set before the pool starts).
_POOL_STATE: dict = {}


def _joins_for_chunk(system: CoxeterSystem, unions: np.ndarray) -> np.ndarray:
    """Join element id for each union in the chunk (unions: kc x n_words)."""
    return weak_joins(system.numpy_tables(), unions)


def _reachable_reflection_bits(
    system: CoxeterSystem, unions: np.ndarray, side: str
) -> np.ndarray:
    """Root words (kc x n_words) of the reflections reachable under each union."""
    npt = system.numpy_tables()
    reach = reach_words(npt, unions, side)
    return transpose_bits(reach[npt.refl_ids], unions.shape[0])


def _process_chunk(span: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Worker body: per-union lhs/rhs bits for unions[span[0]:span[1]]."""
    system: CoxeterSystem = _POOL_STATE["system"]
    unions = _POOL_STATE["unions"][span[0]:span[1], None]
    want_left: bool = _POOL_STATE["want_left"]
    want_right: bool = _POOL_STATE["want_right"]
    lhs = system.numpy_tables().inv_words[_joins_for_chunk(system, unions), 0]
    empty = np.zeros(0, dtype=np.uint64)
    rhs_left = (
        _reachable_reflection_bits(system, unions, "left")[:, 0]
        if want_left else empty
    )
    rhs_right = (
        _reachable_reflection_bits(system, unions, "right")[:, 0]
        if want_right else empty
    )
    return lhs, rhs_left, rhs_right


def _sweep_unions(
    system: CoxeterSystem,
    unions: np.ndarray,
    want_left: bool,
    want_right: bool,
    workers: int,
    chunk: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    spans = [
        (lo, min(lo + chunk, unions.size)) for lo in range(0, unions.size, chunk)
    ]
    _POOL_STATE.update(
        system=system, unions=unions, want_left=want_left, want_right=want_right
    )
    processes = min(workers, len(spans), os.cpu_count() or 1)
    try:
        if processes > 1:
            with get_context("fork").Pool(processes) as pool:
                parts = pool.map(_process_chunk, spans)
        else:
            parts = [_process_chunk(s) for s in spans]
    finally:
        _POOL_STATE.clear()
    lhs = np.concatenate([p[0] for p in parts])
    rhs_left = np.concatenate([p[1] for p in parts]) if want_left else lhs
    rhs_right = np.concatenate([p[2] for p in parts]) if want_right else lhs
    return lhs, rhs_left, rhs_right


# -- pair enumeration and failure records ---------------------------------------------


def _pair_arrays(
    system: CoxeterSystem, sample: int | None, seed: int | None
) -> tuple[np.ndarray, np.ndarray]:
    n = system.size
    if sample is None:
        grid = np.arange(n, dtype=np.int32)
        return (
            np.repeat(grid, n),
            np.tile(grid, n),
        )
    rng = Random(seed)
    us = np.array([rng.randrange(n) for _ in range(sample)], dtype=np.int32)
    vs = np.array([rng.randrange(n) for _ in range(sample)], dtype=np.int32)
    return us, vs


def _root_names(system: CoxeterSystem, bits: int) -> list[str]:
    roots = system.table.roots
    return [roots[r].render() for r in RootSubset(system.table, bits).indices()]


def _failure_records(
    system: CoxeterSystem,
    us: np.ndarray,
    vs: np.ndarray,
    bad: np.ndarray,
    lhs: np.ndarray,
    rhs_left: np.ndarray,
    rhs_right: np.ndarray,
    inverse: np.ndarray,
    conjecture: str,
) -> list[dict]:
    ids = np.nonzero(bad)[0]
    lengths = np.array(system.lengths, dtype=np.int32)
    order = np.lexsort((vs[ids], us[ids], lengths[vs[ids]], lengths[us[ids]]))
    records = []
    for p in ids[order][:MAX_RECORDED_FAILURES]:
        k = int(inverse[p])
        rec = {
            "u": system.element(int(us[p])).word_str(),
            "v": system.element(int(vs[p])).word_str(),
            "join_inversions": _root_names(system, int(lhs[k])),
        }
        if conjecture in ("H", "EQ"):
            rec["reachable_left"] = _root_names(system, int(rhs_left[k]))
        if conjecture in ("D", "EQ"):
            rec["reachable_right"] = _root_names(system, int(rhs_right[k]))
        records.append(rec)
    return records


def sweep(
    target: str | CoxeterGraph | CoxeterSystem,
    conjecture: str,
    sample: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> SweepReport:
    """Check one conjecture over every ordered pair, or over `sample` seeded pairs.

    conjecture "H" compares join inversion sets with left-product reachable
    reflections, "D" with right-product ones, and "EQ" checks that the two
    routes give identical verdicts and sets.
    """
    if conjecture not in _CONJECTURES:
        raise UsageError(f"conjecture must be one of {_CONJECTURES}")
    workers = workers_from_env(1) if workers is None else workers
    if workers < 1:
        raise UsageError("workers must be a positive integer")
    if sample is not None and sample < 1:
        raise UsageError("sample must be a positive integer")
    if chunk < 1:
        raise UsageError("chunk must be a positive integer")
    start = time.perf_counter()
    system = _as_system(target)
    if system.table.n_roots > 64:
        raise UsageError("sweeps support at most 64 positive roots")
    # within the root guard every inversion set and union is one uint64 word
    words = system.numpy_tables().inv_words[:, 0]
    us, vs = _pair_arrays(system, sample, seed)
    unions, inverse = np.unique(words[us] | words[vs], return_inverse=True)
    want_left = conjecture in ("H", "EQ")
    want_right = conjecture in ("D", "EQ")
    lhs, rhs_left, rhs_right = _sweep_unions(
        system, unions, want_left, want_right, workers, chunk
    )
    if conjecture == "H":
        union_ok = lhs == rhs_left
    elif conjecture == "D":
        union_ok = lhs == rhs_right
    else:
        # equal rhs sets force equal verdicts, so one comparison suffices
        union_ok = rhs_left == rhs_right
    bad = ~union_ok[inverse]
    failures = _failure_records(
        system, us, vs, bad, lhs, rhs_left, rhs_right, inverse, conjecture
    )
    return SweepReport(
        type=system.graph.display_name,
        conjecture=conjecture,
        pairs_checked=int(us.size),
        failure_count=int(bad.sum()),
        failures=failures,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
        seed=seed if sample is not None else None,
        workers=workers,
    )
