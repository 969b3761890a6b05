"""Weak order on a finite Coxeter group via inversion bit-sets.

u <=_R v iff Phi_u is a subset of Phi_v, so order tests are bit-mask tests.
The join u v v is the element whose inversion set is the 2-closure of
Phi_u | Phi_v (coxeter.weak_joins); the conjectural route computes the
reflections reachable by the length-increasing product map tau and
compares elsewhere.

Closure here is the pairwise-cone notion: A is closed when every positive
root lying in the nonnegative span of two members of A is itself a member,
i.e. when one cone round (RootTable.cone_round), the round the join runs
to a fixed point, adds nothing.  Biclosed means A and its complement are
both closed; the finite biclosed sets are exactly the inversion sets
(Hohlweg-Labbe 2016), so `enumerate_biclosed` reads them off the group.
"""

from __future__ import annotations

import numpy as np

from .coxeter import (
    CoxeterSystem,
    GroupElement,
    RootSubset,
    _unpack_words,
    bits_to_words,
    weak_joins,
    words_to_bits,
)

# -- closure predicates -----------------------------------------------------------


def _closed_and_coclosed(subset: RootSubset) -> tuple[bool, bool]:
    """Whether the set and its complement are closed: one cone round
    (RootTable.cone_round) over the two as bits 0 and 1 of one column."""
    table = subset.table
    words = bits_to_words(subset.bits, -(-table.n_roots // 64))[None]
    member = _unpack_words(words, table.n_roots)[0]
    sets = np.where(member, 1, 2).astype(np.uint64)[:, None]
    added = int(np.bitwise_or.reduce(table.cone_round(sets), axis=0)[0])
    return not added & 1, not added & 2


def is_closed(subset: RootSubset) -> bool:
    """Every nonnegative combination of two members that is a root is a member."""
    return _closed_and_coclosed(subset)[0]


def is_coclosed(subset: RootSubset) -> bool:
    return _closed_and_coclosed(subset)[1]


def is_biclosed(subset: RootSubset) -> bool:
    return all(_closed_and_coclosed(subset))


def enumerate_biclosed(system: CoxeterSystem) -> list[RootSubset]:
    """All biclosed subsets of the positive roots, sorted by (size, bit-set):
    the inversion sets of the group elements."""
    table = system.table
    subsets = [RootSubset(table, bits) for bits in words_to_bits(system.inv_words)]
    subsets.sort(key=lambda s: (len(s), s.bits))
    return subsets


# -- order and joins ---------------------------------------------------------------


def leq_weak(u: GroupElement, v: GroupElement) -> bool:
    """Right weak order: containment of inversion sets."""
    if u.system is not v.system:
        raise ValueError("elements belong to different systems")
    return u.inversion_bits & ~v.inversion_bits == 0


def join_of_union_bits(system: CoxeterSystem, union_bits: int) -> int:
    """Index of the least element whose inversion set contains the given roots.

    The batched join kernel with a batch of one: the element whose
    inversion set is the 2-closure of the roots.  It reads the cone table
    and the sorted keys only, never the step programs.  The id is
    remembered per union (CoxeterSystem._recall).
    """
    join = system._recall(union_bits, 0)
    if join is None:
        words = system._set_words(union_bits)
        join = system._remember(union_bits, 0, int(weak_joins(system, words)[0]))
    return join


def join_bruteforce(u: GroupElement, v: GroupElement) -> GroupElement:
    """The weak-order join u v v: the element whose inversion set is the
    2-closure of Phi_u | Phi_v, by the batched join kernel."""
    if u.system is not v.system:
        raise ValueError("elements belong to different systems")
    system = u.system
    return system.element(
        join_of_union_bits(system, u.inversion_bits | v.inversion_bits)
    )


# -- the tau map --------------------------------------------------------------------


def tau_reachable(system: CoxeterSystem, subset: RootSubset) -> frozenset[GroupElement]:
    """Elements reachable from the identity by length-increasing right products.

    x steps to x * s_alpha for alpha in the subset whenever the length goes
    up; the identity itself is not part of the image.
    """
    visited = system.reach(subset, "right")
    return frozenset(
        system.element(i) for i in np.nonzero(visited)[0] if i != 0
    )


def conjectural_join_D(
    system: CoxeterSystem, a: RootSubset, b: RootSubset
) -> RootSubset:
    """The root set J(A, B): reflections reachable by tau from A union B."""
    return system.reached_reflections(a | b, "right")
