"""Exhaustive and sampled sweeps of the join identities over a whole group.

For every ordered pair (u, v) the sweeps compare three quantities built
from the union A = Phi_u | Phi_v of inversion sets:

* lhs      -- the inversion set of the weak-order join of u and v;
* rhs "H"  -- roots of the reflections reachable from the identity by
              length-increasing left products x -> s_alpha * x, alpha in A;
* rhs "D"  -- the same with right products x -> x * s_alpha.

"H" checks lhs == rhs_left, "D" checks lhs == rhs_right, "HD" checks
both at once (lhs == rhs_left == rhs_right), and "EQ" checks that the two
routes agree pair by pair (same verdict and the same rhs).

The engine batches work by *distinct unions*: many ordered pairs share one
union A, and every quantity above depends on the pair only through A.
The distinct unions are found by streaming: a union is symmetric, so an
exhaustive sweep reads only the pairs u <= v, in spans of rows of u of
about _PAIR_BLOCK_CELLS pairs each.  A span's unions are one broadcast OR
of its rows' inversion sets against a run of columns (the columns past
the span, then the span's own square cut to its upper triangle), so no
array of pair ids is built, and they are sorted and deduplicated as words
of the narrowest unsigned type that holds n_roots bits (uint32 for F4 and
D5, uint64 for H4).  The sorted distinct runs are merged into one running
sorted array whenever they are as many as it holds; the distinct unions
are widened to uint64 for the kernels.  A sampled sweep is one block of
its seeded pairs.  Both kernels
live in `coxeter`.  Reachability runs as a length-level dynamic program
over all unions in a chunk at once, on uint64 words that each hold 64
unions, in tiles of 4-word groups whose working set stays in cache; the
sweeps read only the reflections' rows, so the program runs only over
the elements below some reflection in Bruhat order
(reflection_reach_words).  The join
of A is the element whose inversion set is the 2-closure cl(A): cone
rounds over a chunk's unions, then one lookup among the sorted keys
(weak_joins).  A sweep builds the step program of a route only when it
reads that route: "H" never builds the right one.  "EQ" decides without the join, so it runs the join
kernel only for the unions of the pairs it records as failing.

Failing pairs are counted and recorded by a second stream, over the
ordered pairs on the same grid of spans, that runs only when some union
fails: each cell's union is looked up among the sorted failing unions,
(u, v) is recovered for the failing cells alone, and the first
MAX_RECORDED_FAILURES failing pairs in record order are kept across
blocks, so memory stays bounded even when every pair fails.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from random import Random
from typing import Iterator

import numpy as np

from .coxeter import (
    CoxeterGraph,
    CoxeterSystem,
    RootSubset,
    build_system,
    reflection_reach_words,
    transpose_bits,
    weak_joins,
)

DEFAULT_CHUNK = 4096
MAX_RECORDED_FAILURES = 100
_PAIR_BLOCK_CELLS = 1 << 18  # pairs per streamed span of rows
_SORTED_LOOKUP_UNIONS = 4096  # failing unions from which a block's are looked up sorted
# the quantities each conjecture compares: (join, left route, right route)
_ROUTES = {
    "H": (True, True, False),
    "D": (True, False, True),
    "EQ": (False, True, True),
    "HD": (True, True, True),
}
_CONJECTURES = tuple(_ROUTES)


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
    return weak_joins(system, unions)


def _reachable_reflection_bits(
    system: CoxeterSystem, unions: np.ndarray, side: str
) -> np.ndarray:
    """Root words (kc x n_words) of the reflections reachable under each union."""
    reach = reflection_reach_words(system.numpy_tables(), unions, side)
    return transpose_bits(reach, unions.shape[0])


def _process_chunk(span: tuple[int, int]) -> tuple[np.ndarray | None, ...]:
    """Worker body: per-union lhs/rhs bits for unions[span[0]:span[1]], None
    for each quantity the sweep does not want."""
    system: CoxeterSystem = _POOL_STATE["system"]
    unions = _POOL_STATE["unions"][span[0]:span[1], None]
    want_join, want_left, want_right = _POOL_STATE["want"]
    lhs = (
        system.inv_words[_joins_for_chunk(system, unions), 0]
        if want_join else None
    )
    rhs_left = (
        _reachable_reflection_bits(system, unions, "left")[:, 0]
        if want_left else None
    )
    rhs_right = (
        _reachable_reflection_bits(system, unions, "right")[:, 0]
        if want_right else None
    )
    return lhs, rhs_left, rhs_right


def _sweep_unions(
    system: CoxeterSystem,
    unions: np.ndarray,
    want_join: bool,
    want_left: bool,
    want_right: bool,
    workers: int,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Join, left-route and right-route bits of every union, each None
    unless wanted, in chunks of DEFAULT_CHUNK unions.  The step program
    of each wanted route is built here, before any worker is forked, so
    that the workers share it."""
    npt = system.numpy_tables()
    for side, want in (("left", want_left), ("right", want_right)):
        if want:
            npt.program(side)
    spans = [
        (lo, min(lo + DEFAULT_CHUNK, unions.size))
        for lo in range(0, unions.size, DEFAULT_CHUNK)
    ]
    wanted = (want_join, want_left, want_right)
    _POOL_STATE.update(system=system, unions=unions, want=wanted)
    processes = min(workers, len(spans), os.cpu_count() or 1)
    try:
        if processes > 1:
            with get_context("fork").Pool(processes) as pool:
                parts = pool.map(_process_chunk, spans)
        else:
            parts = [_process_chunk(s) for s in spans]
    finally:
        _POOL_STATE.clear()
    return tuple(
        np.concatenate([p[i] for p in parts]) if want else None
        for i, want in enumerate(wanted)
    )


# -- streamed pairs, distinct unions and failure records --------------------------------

# A block of pairs: element ids us and vs whose broadcast cells are the pairs,
# and a mask over those cells that keeps some of them (None keeps every cell).
PairBlocks = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]


def _pair_arrays(
    system: CoxeterSystem, sample: int, seed: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """`sample` seeded pairs (us, vs) of element ids.

    The ids are those of 2 * sample Random(seed).randrange(n) calls, the us
    first, drawn at once: for n < 2**32, randrange keeps the top k =
    n.bit_length() bits of one 32-bit word from the generator per try and
    tries until the value is below n, and randbytes(4 * m) holds the next
    m words in generation order, each little-endian.  Ids are int32, so a
    group past 2**31 elements raises UsageError.
    """
    n = system.size
    if not 0 < n <= 1 << 31:
        raise UsageError(f"cannot sample pairs of {n} elements as int32 ids")
    rng, shift, need = Random(seed), np.uint32(32 - n.bit_length()), 2 * sample
    parts, count = [np.zeros(0, dtype=np.uint32)], 0
    while count < need:
        m = 2 * (need - count)  # a try is below n with chance over 1/2
        ids = np.frombuffer(rng.randbytes(4 * m), dtype="<u4") >> shift
        parts.append(ids[ids < n])
        count += parts[-1].size
    ids = np.concatenate(parts)[:need].astype(np.int32)
    return ids[:sample], ids[sample:]


def _pair_blocks(
    n: int, pairs: tuple[np.ndarray, np.ndarray] | None, ordered: bool
) -> PairBlocks:
    """Blocks (us, vs, keep) that together hold each pair to check once.

    Seeded pairs are one block of two 1-D arrays.  Otherwise the n x n grid
    is cut into spans of rows u of about _PAIR_BLOCK_CELLS pairs each (at
    least one row), and a block is a span's rows as a column us against a
    row vs of v.  Ordered, a span is one block of every v, so the blocks
    hold the pairs in order.  The symmetric half (v >= u, which holds every
    union) takes from a span the v past its last row, then the span's own
    square of rows against rows, cut to its upper triangle by keep.
    """
    if pairs is not None:
        yield pairs[0], pairs[1], None
        return
    ids = np.arange(n, dtype=np.intp)
    counts = np.full(n, n, dtype=np.intp) if ordered else n - ids
    ends = np.cumsum(counts)
    lo = 0
    while lo < n:
        limit = ends[lo] - counts[lo] + _PAIR_BLOCK_CELLS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        us = ids[lo:hi, None]
        if ordered:
            yield us, ids[None, :], None
        else:
            if hi < n:
                yield us, ids[None, hi:], None
            square = ids[None, lo:hi]
            yield us, square, us <= square
        lo = hi


def _union_keys(system: CoxeterSystem) -> np.ndarray:
    """Each element's inversion set as one word of the narrowest unsigned
    type that holds n_roots bits (at most 64 roots)."""
    key = np.min_scalar_type((1 << system.table.n_roots) - 1)
    return system.inv_words[:, 0].astype(key, copy=False)


def _distinct_unions(words: np.ndarray, blocks: PairBlocks) -> np.ndarray:
    """Sorted distinct unions words[u] | words[v] over the pair blocks.

    Each block's unions are sorted and their repeats dropped.  These runs
    are held until they are as many as the running sorted array and then
    merged into it at once, so merges are few and memory stays at about
    twice that array plus one block.
    """
    runs = [np.zeros(0, dtype=words.dtype)]  # the running array, then new runs
    held = 0
    for us, vs, keep in blocks:
        unions = words[us] | words[vs]
        part = unions.ravel() if keep is None else unions[keep]
        part.sort()
        runs.append(_drop_repeats(part))
        held += runs[-1].size
        if held >= runs[0].size:
            runs, held = [_merged(runs)], 0
    return _merged(runs)


def _merged(runs: list[np.ndarray]) -> np.ndarray:
    """The distinct values of sorted runs, sorted.  Empties the list, so the
    runs are freed before the merged array is sorted."""
    merged = np.concatenate(runs)
    runs.clear()
    merged.sort()  # numpy's default sort beats timsort's run merging here
    return _drop_repeats(merged)


def _drop_repeats(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (np.unique without its sort)."""
    fresh = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[np.flatnonzero(fresh)]  # 2-4x faster than a boolean mask here


def _root_names(system: CoxeterSystem, bits: int) -> list[str]:
    roots = system.table.roots
    return [roots[r].render() for r in RootSubset(system.table, bits).indices()]


def _failure_records(
    system: CoxeterSystem,
    blocks: PairBlocks,
    failing: np.ndarray,
    rhs_left: np.ndarray | None,
    rhs_right: np.ndarray | None,
) -> tuple[int, list[dict]]:
    """Failure count and records of the pairs whose union is failing.

    blocks are the ordered stream of _pair_blocks, whose every cell is a
    pair.  failing holds the sorted failing unions as _union_keys words, and
    rhs_left / rhs_right the route bits of each (None for a route the
    conjecture does not read).  Each cell's union is searched for among
    the failing ones, cell by cell while they are few.  From
    _SORTED_LOOKUP_UNIONS failing unions on, a binary search per cell, in
    cell order, misses the cache on most probes and costs more than
    sorting the block: a block's distinct unions are then searched for in
    sorted order and the result mapped back to the cells.  (np.isin sorts
    or tables all of failing once a block, which small blocks cannot
    repay.)  Pairs are counted over all blocks; each block keeps only the
    first MAX_RECORDED_FAILURES failing pairs in (len u, len v, u, v)
    order, and recovers (u, v) for its failing cells alone, so memory
    stays bounded when every pair fails.  That order is the order of one
    int64 key per pair, ((len u * (n_roots + 1) + len v) * |W| + u) * |W|
    + v, exact below 4.6e7 elements: a block's first pairs are one
    partition of its keys, and only the kept ones are sorted.  The joins
    are computed for the recorded pairs only.
    """
    npt = system.numpy_tables()
    words = _union_keys(system)
    n = np.int64(system.size)
    span = np.int64(system.table.n_roots + 1)
    lengths = npt.lengths.astype(np.int64)
    count = 0
    top = np.zeros(0, dtype=np.int64)  # the record keys kept so far
    for us, vs, _ in blocks:
        unions = words[us] | words[vs]
        if failing.size < _SORTED_LOOKUP_UNIONS:
            at = np.minimum(np.searchsorted(failing, unions), failing.size - 1)
            hit = failing[at] == unions
        else:
            distinct, cell = np.unique(unions.ravel(), return_inverse=True)
            at = np.minimum(np.searchsorted(failing, distinct), failing.size - 1)
            hit = (failing[at] == distinct)[cell].reshape(unions.shape)
        count += int(np.count_nonzero(hit))
        cells = np.nonzero(hit)
        u = np.broadcast_to(us, hit.shape)[cells]
        v = np.broadcast_to(vs, hit.shape)[cells]
        keys = np.concatenate([top, ((lengths[u] * span + lengths[v]) * n + u) * n + v])
        if keys.size > MAX_RECORDED_FAILURES:
            keys = np.partition(keys, MAX_RECORDED_FAILURES - 1)
        top = keys[:MAX_RECORDED_FAILURES]
    top.sort()
    top_u, top_v = top // n % n, top % n
    k = np.searchsorted(failing, words[top_u] | words[top_v])
    joins = _joins_for_chunk(system, failing[k, None].astype(np.uint64))
    lhs = system.inv_words[joins, 0]
    records = []
    for p in range(k.size):
        rec = {
            "u": system.element(int(top_u[p])).word_str(),
            "v": system.element(int(top_v[p])).word_str(),
            "join_inversions": _root_names(system, int(lhs[p])),
        }
        if rhs_left is not None:
            rec["reachable_left"] = _root_names(system, int(rhs_left[k[p]]))
        if rhs_right is not None:
            rec["reachable_right"] = _root_names(system, int(rhs_right[k[p]]))
        records.append(rec)
    return count, records


def sweep(
    target: str | CoxeterGraph | CoxeterSystem,
    conjecture: str,
    sample: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> SweepReport:
    """Check one conjecture over every ordered pair, or over `sample` seeded pairs.

    conjecture "H" compares join inversion sets with left-product reachable
    reflections, "D" with right-product ones, "HD" with both, and "EQ"
    checks that the two routes give identical verdicts and sets.

    "EQ" and the "D" half of "HD" check the right step program against
    the left, not the conjecture: x is reached by right products exactly
    when x^-1 is reached by left ones, and reflections are involutions, so
    these checks cannot fail on consistent programs.
    """
    if conjecture not in _CONJECTURES:
        raise UsageError(f"conjecture must be one of {_CONJECTURES}")
    workers = workers_from_env(1) if workers is None else workers
    if workers < 1:
        raise UsageError("workers must be a positive integer")
    if sample is not None and sample < 1:
        raise UsageError("sample must be a positive integer")
    start = time.perf_counter()
    system = _as_system(target)
    if system.table.n_roots > 64:
        raise UsageError("sweeps support at most 64 positive roots")
    # within the root guard every inversion set and union is one word; the
    # dedupe sorts them in the narrowest type, the kernels read uint64
    n = system.size
    pairs = None if sample is None else _pair_arrays(system, sample, seed)
    keys = _distinct_unions(_union_keys(system), _pair_blocks(n, pairs, ordered=False))
    unions = keys.astype(np.uint64, copy=False)
    lhs, rhs_left, rhs_right = _sweep_unions(
        system, unions, *_ROUTES[conjecture], workers
    )
    if lhs is None:
        # EQ: equal rhs sets force equal verdicts, so one comparison suffices
        union_ok = rhs_left == rhs_right
    else:
        union_ok = np.ones(unions.size, dtype=bool)
        for rhs in (rhs_left, rhs_right):
            if rhs is not None:
                union_ok &= lhs == rhs
    failure_count, failures = 0, []
    if not union_ok.all():
        bad = ~union_ok
        failure_count, failures = _failure_records(
            system,
            _pair_blocks(n, pairs, ordered=True),
            keys[bad],
            None if rhs_left is None else rhs_left[bad],
            None if rhs_right is None else rhs_right[bad],
        )
    return SweepReport(
        type=system.graph.display_name,
        conjecture=conjecture,
        pairs_checked=n * n if pairs is None else sample,
        failure_count=failure_count,
        failures=failures,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
        seed=seed if sample is not None else None,
        workers=workers,
    )
