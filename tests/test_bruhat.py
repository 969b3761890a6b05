"""Label-restricted Bruhat reachability and the join comparison."""

import itertools
import random
import tracemalloc

import pytest

from oracles import oracle_tables, path_witness_loop, to_dot_loop
from weakorder.coxeter import (
    RootSubset,
    WrongType,
    build_system,
    left_reflection_set,
)
from weakorder.bruhat import (
    bruhat_reachable,
    check_conjecture_H,
    dihedral_TL_profile,
    path_vertices,
    path_witness,
    reachable_reflection_roots,
    to_dot,
)
from weakorder.weak_order import conjectural_join_D, join_bruteforce, tau_reachable


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


def python_reachable_oracle(system, label_indices):
    """Plain-dict breadth-first search over the oracle's left product table,
    independent of the library's step programs."""
    left = oracle_tables(system)[0]
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for r in label_indices:
                y = int(left[r, x])
                if system.lengths[y] > system.lengths[x] and y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def test_reachable_matches_python_oracle():
    for name in ("A3", "B3", "I2(7)"):
        system = build_system(name)
        n = system.table.n_roots
        import random

        rng = random.Random(11)
        for _ in range(25):
            k = rng.randrange(0, n + 1)
            labels = tuple(sorted(rng.sample(range(n), k)))
            bits = 0
            for r in labels:
                bits |= 1 << r
            got = {
                x.index
                for x in bruhat_reachable(system, RootSubset(system.table, bits))
            }
            assert got == python_reachable_oracle(system, labels), (name, labels)


def test_empty_labels_reach_only_identity():
    system = build_system("A3")
    got = bruhat_reachable(system, RootSubset(system.table, 0))
    assert {x.index for x in got} == {0}


def test_path_vertices_contains_both_endpoints_interval():
    system = build_system("A3")
    for u in system.elements():
        for v in system.elements():
            vertices = path_vertices(u, v)
            assert system.identity in vertices
            assert u in vertices and v in vertices


def test_check_H_exhaustive_small_types():
    for name in ("A2", "A3", "B2", "I2(5)"):
        system = build_system(name)
        for u in system.elements():
            for v in system.elements():
                verdict = check_conjecture_H(u, v)
                assert verdict.holds, (name, u.word, v.word)
                assert verdict.lhs.bits == verdict.rhs.bits
                assert len(verdict.witness_diff) == 0
                assert verdict.join == join_bruteforce(u, v)


def test_i2_4_worked_instances():
    system = build_system("I2(4)")
    s = system.element_from_word((1,))
    r = system.element_from_word((2,))
    srs = system.element_from_word((1, 2, 1))

    # join of the two generators is the full element; every reflection
    # is reachable
    verdict = check_conjecture_H(s, r)
    assert verdict.holds
    assert verdict.join == system.longest_element
    assert verdict.join.length == 4
    assert len(verdict.rhs) == 4

    # join of s and srs is srs itself; the other generator's reflection
    # is NOT reachable
    verdict = check_conjecture_H(s, srs)
    assert verdict.holds
    assert verdict.join == srs
    reached = {system.reflection(i).word for i in verdict.rhs.indices()}
    assert reached == {(1,), (1, 2, 1), (2, 1, 2)}
    assert (2,) not in reached


def test_s4_worked_instance_via_dictionary():
    system = build_system("A3")
    sigma = system.element_of_permutation((3, 1, 2, 4))
    tau = system.element_of_permutation((1, 4, 2, 3))
    verdict = check_conjecture_H(sigma, tau)
    assert verdict.holds
    assert system.permutation_of(verdict.join) == (4, 3, 1, 2)


def test_dihedral_profile_matches_inversion_sets():
    for m in (3, 4, 5, 6, 7, 8):
        system = build_system(f"I2({m})")
        for v in system.elements():
            if v.length == system.table.n_roots:
                continue  # w0 starts with either generator; profile needs one
            profile = dihedral_TL_profile(v)
            assert profile.bits == left_reflection_set(v).bits, (m, v.word)


def test_dihedral_profile_of_w0_covers_everything():
    system = build_system("I2(5)")
    assert dihedral_TL_profile(system.longest_element).bits == (1 << 5) - 1


def test_dihedral_profile_needs_rank_two():
    system = build_system("A3")
    with pytest.raises(WrongType):
        dihedral_TL_profile(system.identity)


def test_reachable_reflections_vs_verdict_rhs():
    system = build_system("B2")
    for u in system.elements():
        for v in system.elements():
            labels = left_reflection_set(u) | left_reflection_set(v)
            rhs = reachable_reflection_roots(system, labels)
            assert rhs.bits == check_conjecture_H(u, v).rhs.bits


def test_path_witness_structure():
    system = build_system("A3")
    u = system.element_from_word((1, 2))
    v = system.element_from_word((3, 1))
    labels = left_reflection_set(u) | left_reflection_set(v)
    # the long root a1+a2+a3 is reachable (it lies in the join's inversions)
    target = next(
        r for r in range(system.table.n_roots)
        if system.table.roots[r].render() == "a1 + a2 + a3"
    )
    witness = path_witness(system, labels, target)
    assert witness is not None
    assert witness["vertices"][0] == "e"
    assert all(r in labels.indices() for r in witness["labels"])
    # replay the path: left-multiplications by the labels, lengths increase
    x = system.identity
    for r, vertex in zip(witness["labels"], witness["vertices"][1:]):
        y = system.element(system.left_mul_reflection(r, x.index))
        assert y.length > x.length
        assert y.word_str() == vertex
        x = y
    assert x == system.reflection(target)


def test_path_witness_unreachable():
    system = build_system("A3")
    labels = subset_by_names(system, ["a1"])
    target = next(
        r for r in range(system.table.n_roots)
        if system.table.roots[r].render() == "a2"
    )
    assert path_witness(system, labels, target) is None


def test_path_witness_deterministic():
    system = build_system("B3")
    labels = left_reflection_set(system.longest_element)
    a = path_witness(system, labels, 5)
    b = path_witness(system, labels, 5)
    assert a == b


@pytest.mark.parametrize(
    "name, queries", [("A3", 200), ("F4", 200), ("D5", 100), ("H4", 15), ("I2(65)", 100)]
)
def test_path_witness_matches_the_loop_oracle(name, queries):
    """Seeded label sets (every fourth thinned at random, so that some
    targets are unreachable) and targets: the backward pass gives the
    loop's path, or None with it.  I2(65)'s sets take two words."""
    system = build_system(name)
    rng = random.Random(21)
    unreachable = 0
    for q in range(queries):
        bits = system.inv_bits[rng.randrange(system.size)]
        bits |= system.inv_bits[rng.randrange(system.size)]
        if q % 4 == 0:
            bits &= rng.getrandbits(system.table.n_roots)
        labels = RootSubset(system.table, bits)
        target = rng.randrange(system.table.n_roots)
        witness = path_witness(system, labels, target)
        assert witness == path_witness_loop(system, labels, target)
        unreachable += witness is None
    assert 0 < unreachable < queries


@pytest.mark.parametrize("name", ["A3", "I2(7)"])
def test_every_witness_of_a_small_group_matches_the_loop_oracle(name):
    """Every target of every pair u <= v (by id): the backward pass gives
    the loop's path, or None with it.  No labels reach no reflection, and
    a target whose root is a label is the one step e -> t."""
    system = build_system(name)
    targets = range(system.table.n_roots)
    unreachable = 0
    for i in range(system.size):
        for j in range(i, system.size):
            labels = left_reflection_set(system.element(i)) | left_reflection_set(system.element(j))
            for target in targets:
                witness = path_witness(system, labels, target)
                assert witness == path_witness_loop(system, labels, target)
                unreachable += witness is None
    assert unreachable > 0
    empty = RootSubset(system.table, 0)
    assert all(path_witness(system, empty, target) is None for target in targets)
    for target in targets:
        one = {"labels": [target], "vertices": ["e", system.reflection(target).word_str()]}
        assert path_witness(system, RootSubset(system.table, 1 << target), target) == one


def test_to_dot_structure():
    system = build_system("A3")
    u = system.element_from_word((2, 1))
    v = system.element_from_word((3, 2))
    dot = to_dot(u, v)
    assert dot.startswith("digraph bruhat_paths {")
    assert dot.rstrip().endswith("}")
    vertices = path_vertices(u, v)
    assert dot.count("[label=") >= len(vertices)
    # reflections inside the vertex set are drawn doubled
    assert dot.count("peripheries=2") == sum(
        1 for x in vertices if x.length % 2 == 1 and
        x.inversion_bits.bit_count() == x.length and
        any(system.reflection(r) == x for r in range(system.table.n_roots))
    )
    # all duplicated nodes correspond to reachable reflections
    rhs = reachable_reflection_roots(
        system, left_reflection_set(u) | left_reflection_set(v)
    )
    assert dot.count("peripheries=2") == len(rhs)


@pytest.mark.parametrize("name", ["A3", "B3", "F4"])
def test_to_dot_matches_the_loop_oracle(name):
    """Seeded pairs, the empty pair (e, e) among them: the text the step
    program gives is the oracle's, byte for byte."""
    system = build_system(name)
    rng = random.Random(31)
    pairs = [(system.identity, system.identity)] + [
        (system.element(rng.randrange(system.size)), system.element(rng.randrange(system.size)))
        for _ in range(12)
    ]
    for u, v in pairs:
        assert to_dot(u, v) == to_dot_loop(u, v), (u, v)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_witness_and_dot_allocate_no_product_table():
    """An E6 product table by reflections is 36 x 51,840 int32, 7.5 MB: a
    searching witness and a rendering each stay well below it."""
    system = build_system("E6")
    system.numpy_tables()
    u = system.element_from_word([1, 2, 3, 4])
    v = system.element_from_word([6, 5, 4, 2])
    labels = left_reflection_set(u) | left_reflection_set(v)
    target = max(left_reflection_set(join_bruteforce(u, v)) - labels)
    witness, peak = _traced_peak(lambda: path_witness(system, labels, target))
    assert len(witness["labels"]) > 1 and peak < 2**21
    dot, peak = _traced_peak(lambda: to_dot(u, v))
    assert dot.count(" -> ") > 100 and peak < 3 * 2**20


@pytest.mark.parametrize(
    "helper",
    [
        bruhat_reachable,
        reachable_reflection_roots,
        tau_reachable,
        lambda system, labels: conjectural_join_D(system, labels, labels),
        lambda system, labels: path_witness(system, labels, 5),
    ],
    ids=["bruhat_reachable", "reachable_reflection_roots", "tau_reachable",
         "conjectural_join_D", "path_witness"],
)
def test_label_sets_of_another_table_are_rejected(helper):
    a3 = build_system("A3")
    b3_full = RootSubset.full(build_system("B3").table)
    with pytest.raises(ValueError, match="different root table"):
        helper(a3, b3_full)
    # a table with the same number of roots is still a different table
    with pytest.raises(ValueError, match="different root table"):
        helper(a3, RootSubset.full(build_system("A3").table))
