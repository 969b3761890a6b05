"""Closure predicates, biclosed enumeration, joins, and the tau map."""

import itertools

from oracles import biclosed_subsets
from weakorder.coxeter import RootSubset, build_system, left_reflection_set
from weakorder.weak_order import (
    conjectural_join_D,
    enumerate_biclosed,
    is_biclosed,
    is_closed,
    is_coclosed,
    join_bruteforce,
    join_of_union_bits,
    leq_weak,
    tau_reachable,
)


def subset_by_names(system, names):
    index = {
        system.table.roots[r].render(): r for r in range(system.table.n_roots)
    }
    bits = 0
    for name in names:
        bits |= 1 << index[name]
    return RootSubset(system.table, bits)


def names_of(system, subset):
    return {system.table.roots[r].render() for r in subset.indices()}


def test_closure_worked_examples_a3():
    system = build_system("A3")
    # {a1, a2} is not closed: a1 + a2 is a root in the cone of the pair
    assert not is_closed(subset_by_names(system, ["a1", "a2"]))
    assert is_closed(subset_by_names(system, ["a1", "a2", "a1 + a2"]))
    # singleton simple roots are biclosed (inversion sets of generators)
    assert is_biclosed(subset_by_names(system, ["a1"]))
    # an inversion set and its complement are both closed
    phi = left_reflection_set(system.element_from_word((1, 2)))
    assert is_closed(phi) and is_coclosed(phi)
    # {a1, a1+a2+a3} leaves no cone gaps: nothing between them is a root
    assert is_closed(subset_by_names(system, ["a1", "a1 + a2 + a3"]))
    assert not is_coclosed(subset_by_names(system, ["a1 + a2"]))


def test_empty_and_full_sets_are_biclosed():
    system = build_system("B2")
    empty = RootSubset(system.table, 0)
    full = RootSubset(system.table, (1 << system.table.n_roots) - 1)
    assert is_biclosed(empty) and is_biclosed(full)


def test_biclosed_sets_are_exactly_inversion_sets():
    for name, count in (("A2", 6), ("B2", 8), ("A3", 24), ("I2(5)", 10), ("I2(6)", 12)):
        system = build_system(name)
        fast = enumerate_biclosed(system)
        assert [s.bits for s in fast] == biclosed_subsets(system.table)
        assert len(fast) == count == system.size
        assert {s.bits for s in fast} == set(system.inv_bits)


def test_leq_weak_against_reduced_word_prefix_oracle():
    # in right weak order u <= v iff some reduced word of v has a prefix
    # multiplying to u; reduced words are found by brute-force enumeration
    for name in ("I2(6)", "A3"):
        system = build_system(name)
        rank = system.graph.rank
        reduced = {x.index: [] for x in system.elements()}
        for v in system.elements():
            for word in itertools.product(range(1, rank + 1), repeat=v.length):
                if system.element_from_word(word) == v:
                    reduced[v.index].append(word)
        for u in system.elements():
            for v in system.elements():
                expected = any(
                    system.element_from_word(word[: u.length]) == u
                    for word in reduced[v.index]
                )
                assert leq_weak(u, v) == expected, (name, u.word, v.word)


def test_leq_weak_is_a_partial_order():
    system = build_system("A3")
    elems = list(system.elements())
    for u in elems:
        assert leq_weak(u, u)
        assert leq_weak(system.identity, u)
        assert leq_weak(u, system.longest_element)
    for u, v in itertools.combinations(elems, 2):
        if leq_weak(u, v) and leq_weak(v, u):
            assert u == v


def test_join_is_least_upper_bound_a3_exhaustive():
    system = build_system("A3")
    elems = list(system.elements())
    for u in elems:
        for v in elems:
            j = join_bruteforce(u, v)
            assert leq_weak(u, j) and leq_weak(v, j)
            for w in elems:
                if leq_weak(u, w) and leq_weak(v, w):
                    assert leq_weak(j, w)


def test_join_algebraic_laws():
    system = build_system("B3")
    elems = list(system.elements())
    for u in elems:
        assert join_bruteforce(u, u) == u
        assert join_bruteforce(u, system.identity) == u
        assert join_bruteforce(u, system.longest_element) == system.longest_element
    import random

    rng = random.Random(5)
    for _ in range(200):
        u, v, w = (rng.choice(elems) for _ in range(3))
        assert join_bruteforce(u, v) == join_bruteforce(v, u)
        assert join_bruteforce(join_bruteforce(u, v), w) == join_bruteforce(
            u, join_bruteforce(v, w)
        )


def test_join_worked_example_a3():
    system = build_system("A3")
    u = system.element_from_word((1, 2))   # inversions {a1, a1+a2}
    v = system.element_from_word((3, 1))   # inversions {a1, a3}
    j = join_bruteforce(u, v)
    assert names_of(system, left_reflection_set(j)) == {
        "a1", "a3", "a1 + a2", "a1 + a2 + a3"
    }


def test_join_of_union_bits_identity():
    system = build_system("A3")
    assert join_of_union_bits(system, 0) == 0


def test_tau_reachable_worked_example():
    system = build_system("A3")
    a = subset_by_names(system, ["a1", "a3", "a1 + a2"])
    reached = tau_reachable(system, a)
    assert system.identity not in reached
    words = {x.word for x in reached}
    assert (1,) in words and (3,) in words
    # s2 alone is not a product of reflections from the subset that climbs
    assert (2,) not in words


def test_conjectural_join_matches_join_exhaustively_a3():
    system = build_system("A3")
    for u in system.elements():
        for v in system.elements():
            left = left_reflection_set(join_bruteforce(u, v))
            right = conjectural_join_D(
                system, left_reflection_set(u), left_reflection_set(v)
            )
            assert left.bits == right.bits


def test_conjectural_join_worked_example():
    system = build_system("A3")
    a = subset_by_names(system, ["a1", "a1 + a2"])
    b = subset_by_names(system, ["a1", "a3"])
    j = conjectural_join_D(system, a, b)
    assert names_of(system, j) == {"a1", "a3", "a1 + a2", "a1 + a2 + a3"}
