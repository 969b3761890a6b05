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
    label index order.  A round gathers the products of the whole frontier
    by every label at once.  When the target's root is a label, the path
    is the one step e -> t, which raises length: the first round would
    find it, so it is returned without a search, and without reading the
    product table.  A label subset of another root table raises
    ValueError.
    """
    if labels.table is not system.table:
        raise ValueError("label subset belongs to a different root table")
    target = system.reflection(target_root).index
    if int(target_root) in labels:
        return {"labels": [int(target_root)], "vertices": ["e", system.element(target).word_str()]}
    npt = system.numpy_tables()
    roots = np.array(labels.indices(), dtype=np.intp)
    parent = np.full(system.size, -1, dtype=np.intp)
    label = np.full(system.size, -1, dtype=np.intp)
    parent[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size and parent[target] < 0:
        products = npt.left[roots[None, :], frontier[:, None]]
        rises = npt.lengths[products] > npt.lengths[frontier, None]
        steps = np.flatnonzero(rises & (parent[products] < 0))
        found = products.ravel()[steps]
        _, first = np.unique(found, return_index=True)
        first.sort()  # discovery order: frontier order, then label order
        steps, fresh = steps[first], found[first]
        parent[fresh] = frontier[steps // roots.size]
        label[fresh] = roots[steps % roots.size]
        frontier = fresh
    if parent[target] < 0:
        return None
    path = []
    x = target
    while x != 0:
        path.append((int(label[x]), x))
        x = int(parent[x])
    path.reverse()
    return {
        "labels": [r for r, _ in path],
        "vertices": ["e"] + [system.element(x).word_str() for _, x in path],
    }


def to_dot(u: GroupElement, v: GroupElement) -> str:
    """Graphviz rendering of V_W(u, v): reflections doubled, edges labelled."""
    system = u.system
    labels = left_reflection_set(u) | left_reflection_set(v)
    visited = system.reach(labels, "left")
    ids = sorted(
        (int(i) for i in np.nonzero(visited)[0]),
        key=lambda i: (system.lengths[i], system.element(i).word),
    )
    npt = system.numpy_tables()
    reflection_ids = set(int(i) for i in npt.refl_ids)
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
    for i in ids:
        for r in labels.indices():
            j = int(npt.left[r, i])
            if npt.lengths[j] > npt.lengths[i]:
                root_name = system.table.roots[r].render()
                lines.append(f'  n{i} -> n{j} [label="{root_name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
