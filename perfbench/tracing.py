"""Spans and self times for the traced benchmark run.

The tracer swaps attributes of the weakorder modules and classes for thin
wrappers while a traced pass runs, and restores them afterwards.  Every
wrapped call adds to per-name call counts, inclusive time and self time (the
call's duration minus the part its wrapped children cover).  Spans (id, name,
start, end, parent id) are kept in memory and written out by the caller when
the run ends; the hottest names (scalar arithmetic and cached cone masks)
are only aggregated, so that millions of calls do not become millions of
spans.

A target missing from the library (a helper a later change removed) is
listed in ``Tracer.absent`` instead of being reported as zero.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

from weakorder import bruhat, coxeter, scalar, verify, weak_order

clock = time.perf_counter


class Tracer:
    """In-memory spans plus per-name calls, inclusive and self seconds."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.union_sizes: list[tuple[str, int]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._cones_seen: set[tuple[int, int, int]] = set()

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        parent = self._stack[-1][3] if self._stack else None
        if keep:
            self._next_id += 1
            anchor = self._next_id
        else:
            anchor = parent
        frame = [name, clock(), 0.0, anchor, parent, keep]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = clock()
        self._stack.pop()
        name, start, child, anchor, parent, keep = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if keep:
            self.spans.append((anchor, name, start, end, parent))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened from the benchmark's own code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn: Callable, keep: bool = True) -> Callable:
        def traced(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    # -- wrappers that also count work at the boundary ---------------------

    def _cone_mask(self, fn: Callable) -> Callable:
        seen = self._cones_seen

        def traced(table, i, j):
            key = (id(table), min(i, j), max(i, j))
            computed = key not in seen
            if computed:
                seen.add(key)
                self.counts["coxeter.cone_mask_computed"] += 1
            frame = self._enter("coxeter.cone_mask", computed)
            try:
                return fn(table, i, j)
            finally:
                self._exit(frame)

        return traced

    def _reach_bits(self, fn: Callable) -> Callable:
        """verify.left / verify.right, after the helper's ``side`` argument."""

        def traced(*args, **kwargs):
            side = kwargs.get("side", args[2] if len(args) > 2 else "reach")
            frame = self._enter(f"verify.{side}", True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def _sweep_unions(self, fn: Callable) -> Callable:
        """Counts the distinct unions a sweep hands to its kernels."""
        inner = self.wrap("verify.unions", fn)

        def traced(system, unions, *args, **kwargs):
            self.union_sizes.append((system.graph.name, int(unions.size)))
            self.counts["verify.unions"] += int(unions.size)
            return inner(system, unions, *args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def _targets(self) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
        def plain(name: str, keep: bool = True):
            return lambda fn: self.wrap(name, fn, keep)

        scalars = scalar.AlgebraicScalar
        return [
            (scalars, "__mul__", plain("scalar.mul", False)),
            (scalars, "__rmul__", plain("scalar.mul", False)),
            (scalars, "sign", plain("scalar.sign", False)),
            (scalars, "inverse", plain("scalar.inverse", False)),
            (coxeter, "generate_positive_roots", plain("coxeter.roots")),
            (coxeter, "enumerate_group", plain("coxeter.enumerate")),
            (coxeter.CoxeterSystem, "numpy_tables", plain("coxeter.tables")),
            (coxeter.CoxeterSystem, "reachable_ids", plain("coxeter.reachable_ids")),
            (coxeter.RootTable, "cone_mask", self._cone_mask),
            (weak_order, "join_of_union_bits", plain("weak_order.join")),
            (weak_order, "conjectural_join_D", plain("weak_order.join_D")),
            (weak_order, "is_biclosed", plain("weak_order.is_biclosed")),
            (bruhat, "check_conjecture_H", plain("bruhat.check_H")),
            (bruhat, "path_witness", plain("bruhat.path_witness")),
            (verify, "sweep", plain("verify.sweep")),
            (verify, "_sweep_unions", self._sweep_unions),
            (verify, "_process_chunk", plain("verify.chunk")),
            (verify, "_joins_for_chunk", plain("verify.join")),
            (verify, "_reachable_reflection_bits", self._reach_bits),
            (verify, "_failure_records", plain("verify.records")),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every target for its wrapper; restore the originals on exit."""
        undo = []
        try:
            for owner, attr, make in self._targets():
                original = vars(owner).get(attr)
                if original is None:
                    self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                setattr(owner, attr, make(original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
