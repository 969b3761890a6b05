"""The per-system memo of single-pair answers, keyed by the union's bits.

join_of_union_bits and CoxeterSystem.reached_reflections remember, per
union of roots, the join's element id and the reached-reflection bits of
each route.  A remembered answer must be the one the kernels give a system
that has never seen the union, the memo must stay within its bound, and
it must belong to one system alone.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from weakorder import coxeter, weak_order
from weakorder.bruhat import check_conjecture_H, reachable_reflection_roots
from weakorder.coxeter import (
    RootSubset,
    bits_to_words,
    build_system,
    left_reflection_set,
    reflection_reach_words,
    transpose_bits,
    weak_joins,
    words_to_bits,
)
from weakorder.weak_order import conjectural_join_D, join_bruteforce, join_of_union_bits


def _fresh_answers(name, unions):
    """(join id, left route bits, right route bits) of each union, from the
    batched kernels on a system built for the purpose, which no helper has
    asked anything."""
    system = build_system(name)
    words = np.stack([bits_to_words(bits, system.inv_words.shape[1]) for bits in unions])
    joins = weak_joins(system, words).tolist()
    routes = [
        words_to_bits(transpose_bits(
            reflection_reach_words(system.numpy_tables(), words, side), len(unions)))
        for side in ("left", "right")
    ]
    return dict(zip(unions, zip(joins, *routes)))


def _count_kernel_calls(monkeypatch):
    calls = Counter()

    def joins(system, unions):
        calls["join"] += unions.shape[0]
        return weak_joins(system, unions)

    def routes(tables, unions, side):
        calls[side] += unions.shape[0]
        return reflection_reach_words(tables, unions, side)

    monkeypatch.setattr(weak_order, "weak_joins", joins)
    monkeypatch.setattr(coxeter, "reflection_reach_words", routes)
    return calls


def _pairs(name, system):
    """Every unordered pair u <= v (by id) of the small types, 300 seeded
    pairs of F4 and H4."""
    if name in ("F4", "H4"):
        rng = random.Random(name)
        return [(rng.randrange(system.size), rng.randrange(system.size)) for _ in range(300)]
    return [(i, j) for i in range(system.size) for j in range(i, system.size)]


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "F4", "H4"])
def test_warm_answers_equal_a_fresh_systems(monkeypatch, name):
    system = build_system(name)
    pairs = _pairs(name, system)
    unions = sorted({
        system.element(i).inversion_bits | system.element(j).inversion_bits
        for i, j in pairs
    })
    assert len(unions) <= coxeter._UNION_MEMO
    fresh = _fresh_answers(name, unions)
    calls = _count_kernel_calls(monkeypatch)
    for i, j in pairs:
        # (u, v) then (v, u): one union, so the second asks a warm memo
        for u, v in ((system.element(i), system.element(j)),
                     (system.element(j), system.element(i))):
            phi_u, phi_v = left_reflection_set(u), left_reflection_set(v)
            join, left, right = fresh[(phi_u | phi_v).bits]
            phi_join = system.element(join).inversion_bits
            verdict = check_conjecture_H(u, v)
            assert verdict.join.index == join
            assert (verdict.lhs.bits, verdict.rhs.bits) == (phi_join, left)
            assert verdict.witness_diff.bits == phi_join ^ left
            assert verdict.holds == (phi_join == left)
            assert join_bruteforce(u, v).index == join
            assert join_of_union_bits(system, (phi_u | phi_v).bits) == join
            assert reachable_reflection_roots(system, phi_u | phi_v).bits == left
            assert conjectural_join_D(system, phi_u, phi_v).bits == right
    # each answer of each union came from the kernels once
    assert calls == {"join": len(unions), "left": len(unions), "right": len(unions)}
    assert set(system._union_memo) == set(unions)


def test_memo_holds_at_most_its_bound_and_drops_the_oldest(monkeypatch):
    # the bound is read at call time; the memory test below fills the real one
    monkeypatch.setattr(coxeter, "_UNION_MEMO", 64)
    system = build_system("F4")
    rng = random.Random(4)
    asked = []
    while len(asked) < 100:
        u, v = (system.element(rng.randrange(system.size)) for _ in range(2))
        union = (left_reflection_set(u) | left_reflection_set(v)).bits
        if union not in asked:
            asked.append(union)
            check_conjecture_H(u, v)
            conjectural_join_D(system, left_reflection_set(u), left_reflection_set(v))
    assert list(system._union_memo) == asked[-64:]
    assert all(None not in entry for entry in system._union_memo.values())
    # an evicted union is answered again, and then drops the next oldest
    oldest = RootSubset(system.table, asked[0])
    assert system.reached_reflections(oldest, "left").bits == \
        _fresh_answers("F4", [asked[0]])[asked[0]][1]
    assert list(system._union_memo) == asked[-63:] + [asked[0]]
    assert system._union_memo[asked[0]][0] is None


def test_two_systems_of_one_type_share_nothing(monkeypatch):
    first, second = build_system("B3"), build_system("B3")
    calls = _count_kernel_calls(monkeypatch)
    u, v = first.element(5), first.element(17)
    verdict = check_conjecture_H(u, v)
    assert len(first._union_memo) == 1 and len(second._union_memo) == 0
    assert calls == {"join": 1, "left": 1}
    again = check_conjecture_H(second.element(5), second.element(17))
    assert calls == {"join": 2, "left": 2}
    assert first._union_memo is not second._union_memo
    assert list(first._union_memo) == list(second._union_memo)
    assert again.join.system is second and again.join.index == verdict.join.index
    assert again.rhs.table is second.table and again.rhs.bits == verdict.rhs.bits


def test_labels_of_another_table_raise_even_when_their_bits_are_remembered():
    first, second = build_system("B3"), build_system("B3")
    u, v = first.element(5), first.element(17)
    labels = left_reflection_set(u) | left_reflection_set(v)
    own = RootSubset(second.table, labels.bits)
    for side in ("left", "right"):
        second.reached_reflections(own, side)
    join_of_union_bits(second, labels.bits)
    assert second._union_memo[labels.bits][0] is not None
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="different root table"):
            second.reached_reflections(labels, side)
    with pytest.raises(ValueError, match="different root table"):
        reachable_reflection_roots(second, labels)
    with pytest.raises(ValueError, match="different root table"):
        conjectural_join_D(second, left_reflection_set(u), left_reflection_set(v))
    with pytest.raises(ValueError, match="different systems"):
        join_bruteforce(u, second.element(17))
    # an unknown side is refused, remembered union or not
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        second.reached_reflections(own, "join")


def test_answers_are_fresh_objects():
    system = build_system("A3")
    u, v = system.element(3), system.element(11)
    first, second = check_conjecture_H(u, v), check_conjecture_H(u, v)
    assert first == second
    assert first.join is not second.join and first.rhs is not second.rhs


MEMO_BOUND = 6 * 2**20  # bytes the memo at its bound may hold, unions of 64 roots


def test_memo_at_its_bound_stays_under_its_memory_bound():
    """At the bound, 16,384 unions of up to 64 roots with all three answers
    (64-bit keys and route bits) stay under 6 MiB."""
    system = build_system("A2")
    rng = random.Random(64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(coxeter._UNION_MEMO + 100):
            bits = rng.getrandbits(64) | 1 << 63
            system._remember(bits, 0, rng.randrange(2**20, 2**21))
            system._remember(bits, 1, rng.getrandbits(64) | 1 << 63)
            system._remember(bits, 2, rng.getrandbits(64) | 1 << 63)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system._union_memo) == coxeter._UNION_MEMO
    assert held < MEMO_BOUND, held
