"""Weak order on a finite Coxeter group via inversion bit-sets.

u <=_R v iff Phi_u is a subset of Phi_v, so order tests are bit-mask tests.
Joins are computed by brute force as the unique inclusion-minimal upper
bound; the conjectural route computes the reflections reachable by the
length-increasing product map tau and compares elsewhere.

Closure here is the pairwise-cone notion: A is closed when every positive
root lying in the nonnegative span of two members of A is itself a member.
Biclosed means A and its complement are both closed; the finite biclosed
sets are exactly the inversion sets, which `enumerate_biclosed` can verify
against a brute-force subset enumeration at small rank.  The predicates
read the root table's cone table (RootTable.cone_words, every pair's cone
as packed words, built on the first query) and test all pairs of members
in one gather.
"""

from __future__ import annotations

import numpy as np

from .coxeter import (  # the join errors are re-exported from here
    CoxeterError,
    CoxeterSystem,
    GroupElement,
    NonUniqueMinimal,
    NoUpperBound,
    RootSubset,
    RootTable,
    _unpack_words,
    bits_to_words,
    left_reflection_set,
    weak_joins,
)

ORACLE_CAP = 20


class OracleTooLarge(CoxeterError):
    """The 2^n biclosed-subset enumeration was asked beyond its cap."""


# -- closure predicates -----------------------------------------------------------


def _closed_bits(table: RootTable, bits: int) -> bool:
    """No two members have a root of their cone outside the set.

    One gather of the cone table over the members tests every pair at once.
    """
    cones = table.cone_words()
    words = bits_to_words(bits, cones.shape[2])
    members = np.flatnonzero(_unpack_words(words[None], table.n_roots)[0])
    return not (cones[np.ix_(members, members)] & ~words).any()


def is_closed(subset: RootSubset) -> bool:
    """Every nonnegative combination of two members that is a root is a member."""
    return _closed_bits(subset.table, subset.bits)


def is_coclosed(subset: RootSubset) -> bool:
    return _closed_bits(subset.table, subset.complement().bits)


def is_biclosed(subset: RootSubset) -> bool:
    return is_closed(subset) and is_coclosed(subset)


def enumerate_biclosed(
    system: CoxeterSystem, method: str = "fast", oracle_cap: int = ORACLE_CAP
) -> list[RootSubset]:
    """All biclosed subsets of the positive roots, sorted by (size, bit-set).

    method="fast" reads them off as the inversion sets of the group
    elements; method="oracle" filters every subset of the positive roots
    with the closure predicates (capped: 2^n subsets).
    """
    table = system.table
    if method == "fast":
        found = sorted(set(system.inv_bits))
    elif method == "oracle":
        n = table.n_roots
        if n > oracle_cap:
            raise OracleTooLarge(
                f"{n} positive roots exceed the oracle cap of {oracle_cap}"
            )
        found = [
            bits for bits in range(1 << n)
            if _closed_bits(table, bits)
            and _closed_bits(table, ~bits & ((1 << n) - 1))
        ]
    else:
        raise ValueError(f"unknown method {method!r}")
    subsets = [RootSubset(table, bits) for bits in found]
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

    The batched join kernel with a batch of one: the shortest upper bound,
    checked to lie below every other upper bound; a finite weak order is a
    lattice, so failure of either step raises NoUpperBound or
    NonUniqueMinimal.
    """
    npt = system.numpy_tables()
    return int(weak_joins(npt, npt.words(union_bits))[0])


def join_bruteforce(u: GroupElement, v: GroupElement) -> GroupElement:
    """The weak-order join, as the unique inclusion-minimal upper bound."""
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
