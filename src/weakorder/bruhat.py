"""Bruhat-graph reachability with restricted edge labels.

A label set A (positive-root indices) induces the subgraph of the Bruhat
graph whose edges are x -> s_alpha * x with alpha in A and length strictly
increasing.  The vertex set reachable from the identity with labels
T_L(u) union T_L(v) is the path space V_W(u, v); the check here compares
its reflections against the left reflection set of the weak-order join.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import (
    CoxeterSystem,
    GroupElement,
    RootSubset,
    WrongType,
    left_reflection_set,
)
from .weak_order import join_bruteforce


def bruhat_reachable(
    system: CoxeterSystem, labels: RootSubset
) -> frozenset[GroupElement]:
    """All arrival vertices of label-restricted increasing paths from e.

    The identity is included (the empty path).
    """
    visited = system.reach(labels, "left")
    return frozenset(system.element(i) for i in np.nonzero(visited)[0])


def path_vertices(u: GroupElement, v: GroupElement) -> frozenset[GroupElement]:
    """V_W(u, v): vertices of Bruhat paths labelled from T_L(u) union T_L(v)."""
    labels = left_reflection_set(u) | left_reflection_set(v)
    return bruhat_reachable(u.system, labels)


def reachable_reflection_roots(system: CoxeterSystem, labels: RootSubset) -> RootSubset:
    """The roots of the reflections inside the reachable vertex set."""
    return system.reached_reflections(labels, "left")


@dataclass(frozen=True)
class HVerdict:
    """Comparison of T_L(join(u, v)) with the reflections of V_W(u, v)."""

    holds: bool
    join: GroupElement
    lhs: RootSubset
    rhs: RootSubset
    witness_diff: RootSubset


def check_conjecture_H(u: GroupElement, v: GroupElement) -> HVerdict:
    """Is the left reflection set of u join v exactly T cap V_W(u, v)?"""
    if u.system is not v.system:
        raise ValueError("elements belong to different systems")
    system = u.system
    join = join_bruteforce(u, v)
    lhs = left_reflection_set(join)
    labels = left_reflection_set(u) | left_reflection_set(v)
    rhs = reachable_reflection_roots(system, labels)
    diff = RootSubset(system.table, lhs.bits ^ rhs.bits)
    return HVerdict(lhs.bits == rhs.bits, join, lhs, rhs, diff)


def dihedral_TL_profile(v: GroupElement) -> RootSubset:
    """Left reflection set of a dihedral element from its closed form.

    With s the first letter of a reduced word for v and r the other
    generator, T_L(v) = { (sr)^k s : 0 <= k <= length(v) - 1 }, where
    words longer than m fold back to reduced reflections ((sr)^k s equals
    (rs)^(m-1-k) r).  Requires a rank-2 system.
    """
    system = v.system
    if system.graph.rank != 2:
        raise WrongType("the closed-form profile is defined for I2(m) only")
    if v.length == 0:
        return RootSubset(system.table, 0)
    s = v.word[0]
    r = 3 - s  # the other 1-based generator index
    bits = 0
    for k in range(v.length):
        elem = system.element_from_word((s, r) * k + (s,))
        bits |= 1 << system.reflection_root(elem)
    return RootSubset(system.table, bits)


def path_witness(
    system: CoxeterSystem, labels: RootSubset, target_root: int
) -> dict | None:
    """A shortest label-restricted increasing path from e to a reflection.

    Returns {"labels": [root indices], "vertices": [word strings]} or None
    when the reflection is not reachable.  Deterministic: of the shortest
    paths, the one with the lexicographically least label sequence, which
    is the path of a breadth-first search over frontier order, then label
    order (tests/oracles.path_witness_loop), since that search keeps each
    frontier in the order of its label sequences.  When the target's root
    is a label, the path is the one step e -> t, returned without a
    search.  A label subset of another root table raises ValueError.

    One backward pass over the left program over D, in slots (every
    vertex of a path to a reflection is below it), from the target's level
    down to level 1; a step (r, q) into y is the edge q -> y.  A slot's
    key is the least, over its edges toward the target, of (steps to the
    target) * n_roots * end + label * end + next slot, end the slots up to
    the target's level: 0 at the target, 2**62 (above every real key)
    until a key arrives.  A level's slots that hold a key send it, one
    step longer, to their steps' predecessors, which are shorter, so a
    level's keys are final when its turn comes.  A label outside the set
    costs 2**62, so its keys never win.  Read forward from e, the least
    (steps, label) keeps to the shortest paths and spells the least label
    sequence, since a vertex and a label fix the next vertex.
    """
    if labels.table is not system.table:
        raise ValueError("label subset belongs to a different root table")
    target = system.reflection(target_root).index
    if int(target_root) in labels:
        return {"labels": [int(target_root)], "vertices": ["e", system.element(target).word_str()]}
    npt = system.numpy_tables()
    n_roots = npt.n_roots
    blocks = npt.program("left", reflections_only=True)[:npt.lengths[target]]
    end = blocks[-1][1]  # the slots up to the target's level
    step, none = n_roots * end, 1 << 62  # one step's part of a key; no key yet
    cost = np.full(n_roots, none, dtype=np.int64)  # a label's part of a key
    indices = np.array(labels.indices(), dtype=np.int64)
    cost[indices] = indices * end
    best = np.full(end, none, dtype=np.int64)
    goal = npt.slots.item(target)
    best[goal] = 0
    for lo, hi, roots, preds in reversed(blocks):
        level = best[lo:hi]
        columns = (level < none).nonzero()[0]
        sent = level.take(columns) // step * step + columns + (step + lo)
        keys = cost.take(roots.take(columns, axis=1)) + sent
        # np.minimum.at is about twice as fast on flat indices
        np.minimum.at(best, preds.take(columns, axis=1).ravel(), keys.ravel())
    if best[0] == none:
        return None
    path, slot = [], 0
    while slot != goal:
        label, slot = divmod(best.item(slot) % step, end)
        path.append((label, npt.elements.item(slot)))
    return {
        "labels": [r for r, _ in path],
        "vertices": ["e"] + [system.element(x).word_str() for _, x in path],
    }


def to_dot(u: GroupElement, v: GroupElement) -> str:
    """Graphviz rendering of V_W(u, v): reflections doubled, edges labelled.

    Nodes are listed by id, which is (length, reduced word) order.  The
    edges p -> t_r * p are the left program's steps (r, p) with r a label
    and p visited, listed by p, then by r.
    """
    system = u.system
    labels = left_reflection_set(u) | left_reflection_set(v)
    visited = system.reach(labels, "left")
    ids = np.flatnonzero(visited).tolist()
    npt = system.numpy_tables()
    reflection_ids = set(npt.refl_ids.tolist())
    lines = [
        "digraph bruhat_paths {",
        "  rankdir=BT;",
        '  node [shape=ellipse, fontname="Helvetica"];',
    ]
    for i in ids:
        name = system.element(i).word_str()
        extra = ", peripheries=2, style=filled, fillcolor=lightgrey" \
            if i in reflection_ids else ""
        lines.append(f'  n{i} [label="{name}"{extra}];')
    allowed = np.zeros(npt.n_roots, dtype=bool)
    allowed[list(labels.indices())] = True
    edges = []
    for lo, _, roots, preds in npt.program("left")[:system.lengths[ids[-1]]]:
        sources = npt.elements.take(preds)
        rows, columns = np.nonzero(allowed[roots] & visited[sources])
        edges += zip(sources[rows, columns].tolist(), roots[rows, columns].tolist(),
                     npt.elements[lo + columns].tolist())
    for i, r, j in sorted(edges):
        lines.append(f'  n{i} -> n{j} [label="{system.table.roots[r].render()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
