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
    when the reflection is not reachable.  Deterministic: breadth-first,
    each element's parent the first step into it in frontier order, then
    label index order.  When the target's root is a label, the path is the
    one step e -> t, returned without a search.  A label subset of another
    root table raises ValueError.

    The rounds run over the left step program over D, in slots: every
    vertex of a path to a reflection is below it.  Element y's parent and
    label are the least key p * n_roots + r over the steps (r, q) into y
    with r a label and q the frontier's p-th element, and the fresh
    elements, by that key, are the next frontier.  A round runs the
    levels from the frontier's lowest to the target's.
    """
    if labels.table is not system.table:
        raise ValueError("label subset belongs to a different root table")
    target = system.reflection(target_root).index
    if int(target_root) in labels:
        return {"labels": [int(target_root)], "vertices": ["e", system.element(target).word_str()]}
    npt = system.numpy_tables()
    n_roots, bounds = npt.n_roots, npt.bounds
    blocks = npt.program("left", reflections_only=True)[:npt.lengths[target]]
    end = blocks[-1][1]  # the slots up to the target's level
    none = end * n_roots
    allowed = np.full(n_roots, none, dtype=np.int64)
    indices = labels.indices()
    allowed[list(indices)] = indices
    roots = [allowed.take(level_roots) for _, _, level_roots, _ in blocks]
    via = np.full(end, -1, dtype=np.int64)  # parent slot * n_roots + label
    via[0] = 0
    position = np.full(end, none, dtype=np.int64)  # p * n_roots at the frontier's p-th slot
    best = np.full(end, none, dtype=np.int64)  # the least key into each slot
    goal = npt.slots.item(target)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and via[goal] < 0:
        position[frontier] = np.arange(0, frontier.size * n_roots, n_roots)
        low = int(np.searchsorted(bounds, frontier.min(), side="right")) - 1
        for (lo, hi, _, preds), label_roots in zip(blocks[low:], roots[low:]):
            keys = position.take(preds)
            keys += label_roots
            keys.min(axis=0, out=best[lo:hi])
        position[frontier] = none
        # a level below low keeps its keys of an earlier round, all visited
        fresh = np.flatnonzero((best < none) & (via < 0))
        fresh = fresh[np.argsort(best[fresh])]
        keys = best[fresh]
        via[fresh] = frontier[keys // n_roots] * n_roots + keys % n_roots
        frontier = fresh
    if via[goal] < 0:
        return None
    path = []
    slot = goal
    while slot:
        prev, label = divmod(via.item(slot), n_roots)
        path.append((label, npt.elements.item(slot)))
        slot = prev
    path.reverse()
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
