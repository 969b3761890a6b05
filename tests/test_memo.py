"""The per-system memo of single-pair answers, keyed by the union's bits.

join_of_union_bits and CoxeterSystem.reached_reflections remember, per
union of roots, the join's element id and the reached-reflection bits of
each route.  A remembered answer must be the one the kernels give a system
that has never seen the union, the memo must stay within its bound, and
it must belong to one system alone.  A union with neither route
remembered, asked once the right program exists, is routed on both sides
by one paired run, which counts as one answer of each side.  A fresh
union's routes, one side or paired, transpose no bit matrix.
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
    _paired_reflection_words,
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


def _count_kernel_calls(monkeypatch, runs=None):
    """Unions the kernels answer, by answer: the paired route kernel counts
    each of its unions once per side.  runs, when given, counts the route
    kernels' calls: one side alone, or "paired" for both in one."""
    calls = Counter()
    runs = Counter() if runs is None else runs

    def joins(system, unions):
        calls["join"] += unions.shape[0]
        return weak_joins(system, unions)

    def routes(tables, unions, side):
        calls[side] += unions.shape[0]
        runs[side] += 1
        return reflection_reach_words(tables, unions, side)

    def paired(tables, unions):
        calls["left"] += unions.shape[0]
        calls["right"] += unions.shape[0]
        runs["paired"] += 1
        return _paired_reflection_words(tables, unions)

    monkeypatch.setattr(weak_order, "weak_joins", joins)
    monkeypatch.setattr(coxeter, "reflection_reach_words", routes)
    monkeypatch.setattr(coxeter, "_paired_reflection_words", paired)
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


def test_pointwise_order_runs_each_side_once_then_both_in_one(monkeypatch):
    # a pointwise query asks H, then D, of one union: before the right
    # program exists the two routes run one side a call; once it does, a
    # fresh union's first route runs both sides in one
    system = build_system("F4")
    runs = Counter()
    calls = _count_kernel_calls(monkeypatch, runs)
    u, v, w = system.element(40), system.element(700), system.element(1000)
    phi_u, phi_v, phi_w = (left_reflection_set(x) for x in (u, v, w))
    first, second = (phi_u | phi_v).bits, (phi_u | phi_w).bits
    assert first != second
    fresh = _fresh_answers("F4", [first, second])
    assert check_conjecture_H(u, v).rhs.bits == fresh[first][1]
    assert "right" not in system.numpy_tables()._programs
    assert runs == {"left": 1}
    assert conjectural_join_D(system, phi_u, phi_v).bits == fresh[first][2]
    assert runs == {"left": 1, "right": 1}
    assert check_conjecture_H(u, w).rhs.bits == fresh[second][1]
    assert runs == {"left": 1, "right": 1, "paired": 1}
    assert conjectural_join_D(system, phi_u, phi_w).bits == fresh[second][2]
    assert runs == {"left": 1, "right": 1, "paired": 1}
    assert calls == {"join": 2, "left": 2, "right": 2}
    # a union with one route remembered runs the other side alone
    third = phi_v | phi_w
    system.reached_reflections(third, "right")
    assert runs == {"left": 1, "right": 1, "paired": 2}
    system._union_memo[third.bits][1] = None
    assert system.reached_reflections(third, "left").bits == \
        _fresh_answers("F4", [third.bits])[third.bits][1]
    assert runs == {"left": 2, "right": 1, "paired": 2}


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
    # I2(64) has 64 roots, so every 64-bit union is a set of its roots
    system = build_system("I2(64)")
    rng = random.Random(64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(coxeter._UNION_MEMO + 100):
            record = system._record(rng.getrandbits(64) | 1 << 63)
            record[0] = rng.randrange(2**20, 2**21)
            record[1] = rng.getrandbits(64) | 1 << 63
            record[2] = rng.getrandbits(64) | 1 << 63
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system._union_memo) == coxeter._UNION_MEMO
    assert held < MEMO_BOUND, held


def test_a_fresh_single_union_is_routed_with_no_transpose(monkeypatch):
    """A batch of one runs as a tile of bytes, whose rows are packed
    straight into the memo's bits: neither a left-only route (before the
    right program exists) nor a paired one transposes a bit matrix, and
    neither does listing a root subset."""
    system = build_system("F4")
    u, v, w = system.element(40), system.element(700), system.element(1000)
    first = left_reflection_set(u) | left_reflection_set(v)
    second = left_reflection_set(u) | left_reflection_set(w)
    fresh = _fresh_answers("F4", [first.bits, second.bits])
    runs = Counter()
    answers = _count_kernel_calls(monkeypatch, runs)

    def counted(words, n_bits):
        runs["transpose_bits"] += 1
        return transpose_bits(words, n_bits)

    monkeypatch.setattr(coxeter, "transpose_bits", counted)
    assert system.reached_reflections(first, "left").bits == fresh[first.bits][1]
    assert "right" not in system.numpy_tables()._programs
    system.numpy_tables().program("right")
    assert system.reached_reflections(second, "right").bits == fresh[second.bits][2]
    assert system._union_memo[second.bits][1] == fresh[second.bits][1]
    assert first.indices() == tuple(r for r in range(24) if first.bits >> r & 1)
    assert runs == {"left": 1, "paired": 1}
    assert answers == {"left": 2, "right": 1}
