"""Root tables, group enumeration, and the reflection dictionary."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from oracles import enumerate_bfs, product_tables_loop
from weakorder import cli, coxeter
from weakorder.coxeter import (
    CoxeterError,
    CoxeterGraph,
    CoxeterSystem,
    FinitenessExceeded,
    NotAReflection,
    RootSubset,
    WrongType,
    build_system,
    generate_positive_roots,
    left_reflection_set,
    weak_joins,
)
from weakorder.bruhat import check_conjecture_H, path_witness, to_dot
from weakorder.verify import sweep
from weakorder.weak_order import conjectural_join_D, join_bruteforce, join_of_union_bits

# root counts and group orders from the classification of finite types
ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "D4": 12,
    "F4": 24,
    "H3": 15,
    "I2(5)": 5, "I2(6)": 6, "I2(7)": 7, "I2(12)": 12,
}
GROUP_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192,
    "F4": 1152,
    "H3": 120,
    "I2(5)": 10, "I2(6)": 12, "I2(7)": 14, "I2(12)": 24,
}


def test_root_counts_match_classification():
    for name, count in ROOT_COUNTS.items():
        table = generate_positive_roots(CoxeterGraph.from_name(name))
        assert table.n_roots == count, name


def test_group_orders_match_classification():
    for name, order in GROUP_ORDERS.items():
        system = build_system(name)
        assert system.size == order, name
        assert system.longest_element.length == system.table.n_roots


def test_h4_root_count():
    table = generate_positive_roots(CoxeterGraph.from_name("H4"))
    assert table.n_roots == 60


def test_a3_root_list_and_order():
    system = build_system("A3")
    names = [system.table.roots[r].render() for r in range(6)]
    assert names == ["a1", "a2", "a3", "a2 + a3", "a1 + a2", "a1 + a2 + a3"]
    depths = [system.table.roots[r].depth for r in range(6)]
    assert depths == [0, 0, 0, 1, 1, 2]


def test_a3_coordinates_are_zero_one_integers():
    system = build_system("A3")
    for root in system.table.roots:
        for c in root.coords:
            assert c.coeffs in ((Fraction(0),), (Fraction(1),))


def test_i2_coordinates_are_sine_ratios():
    # the m dihedral positive roots are (sin((j+1)t), sin(jt))/sin(t) for
    # j = 0..m-1 with t = pi/m, checked numerically against the exact table
    for m in (4, 5, 7, 8):
        system = build_system(f"I2({m})")
        got = sorted(
            tuple(round(c.to_float(), 9) for c in root.coords)
            for root in system.table.roots
        )
        t = math.pi / m
        s = math.sin(t)
        expected = sorted(
            (round(math.sin((j + 1) * t) / s, 9), round(math.sin(j * t) / s, 9))
            for j in range(m)
        )
        assert got == expected


def test_simple_reflection_permutes_other_positive_roots():
    system = build_system("B3")
    act = system.table.act
    n = system.table.n_roots
    for i in range(system.graph.rank):
        assert act[i][i] == -(i + 1)
        others = {abs(act[i][v]) - 1 for v in range(n) if v != i}
        assert others == set(range(n)) - {i}


def test_act_table_is_an_involution():
    for name in ("A3", "B3", "H3", "I2(7)"):
        system = build_system(name)
        act = system.table.act
        n = system.table.n_roots
        for t in range(n):
            for v in range(n):
                image = act[t][v]
                back = act[t][image - 1] if image > 0 else -act[t][-image - 1]
                assert back == v + 1, (name, t, v)


def test_act_fixes_own_root():
    for name in ("A3", "H3"):
        system = build_system(name)
        for t in range(system.table.n_roots):
            assert system.table.act[t][t] == -(t + 1)


def test_reflection_words_match_phi_dictionary():
    system = build_system("A3")
    by_name = {
        system.table.roots[r].render(): system.reflection(r)
        for r in range(system.table.n_roots)
    }
    assert by_name["a1"].word == (1,)
    assert by_name["a1 + a2"].word in ((1, 2, 1), (2, 1, 2))
    assert by_name["a1 + a2 + a3"].word in (
        (3, 1, 2, 1, 3), (1, 3, 2, 3, 1), (3, 2, 1, 2, 3), (1, 2, 3, 2, 1),
    )
    for r in range(system.table.n_roots):
        refl = system.reflection(r)
        assert refl.length % 2 == 1
        assert system.reflection_root(refl) == r


def test_reflection_root_rejects_non_reflections():
    system = build_system("A3")
    with pytest.raises(NotAReflection):
        system.reflection_root(system.element_from_word((1, 2)))


def test_length_changes_by_one_per_generator():
    system = build_system("B3")
    for x in system.elements():
        for i in range(1, system.graph.rank + 1):
            y = system.element_from_word(x.word + (i,))
            assert abs(y.length - x.length) == 1


def test_inversion_set_of_word_prefix_grows():
    # a reduced word read left-to-right adds a new right inversion per letter
    system = build_system("A3")
    for x in system.elements():
        bits = 0
        for k in range(len(x.word)):
            y = system.element_from_word(x.word[: k + 1])
            assert y.length == k + 1
        assert system.element_from_word(x.word) == x


def test_inversion_sets_are_unique_and_sized_by_length():
    for name in ("A3", "B3", "I2(9)"):
        system = build_system(name)
        seen = set()
        for x in system.elements():
            bits = x.inversion_bits
            assert bits not in seen
            seen.add(bits)
            assert bin(bits).count("1") == x.length


def test_worked_inversion_set():
    system = build_system("A3")
    w = system.element_from_word((1, 2))
    got = {system.table.roots[r].render() for r in left_reflection_set(w).indices()}
    assert got == {"a1", "a1 + a2"}
    w = system.element_from_word((2, 1))
    got = {system.table.roots[r].render() for r in left_reflection_set(w).indices()}
    assert got == {"a2", "a1 + a2"}


def test_longest_element_has_all_inversions():
    for name in ("A3", "B2", "I2(6)", "H3"):
        system = build_system(name)
        w0 = system.longest_element
        assert w0.inversion_bits == (1 << system.table.n_roots) - 1


def test_left_and_right_reflection_products_are_involutions():
    system = build_system("B3")
    left, right = _b3_oracle_tables()
    for r in range(system.table.n_roots):
        for x in range(system.size):
            assert left[r, left[r, x]] == x and right[r, right[r, x]] == x
            assert system.left_mul_reflection(r, system.left_mul_reflection(r, x)) == x
            assert system.right_mul_reflection(system.right_mul_reflection(x, r), r) == x


def test_enumeration_rejects_an_inconsistent_root_table():
    # s1 acts as the length-3 reflection, which negates every root; a valid
    # simple row keeps every product one level up or down, so this is caught
    # by the simple rows' own check before any word could fail to be reduced
    table = generate_positive_roots(CoxeterGraph.from_name("A2"))
    table.act = (table.act[2],) + table.act[1:]
    with pytest.raises(CoxeterError, match="negates its own root and no other"):
        CoxeterSystem(table)


@pytest.mark.parametrize(
    "row",
    [
        (-1, 4, 2),  # A2 has three roots
        (-1, 0, 2),  # no root 0
        (-1, 3, 3),  # not a permutation
        (-1, 2, 2),  # not a permutation
        (-1, -3, -2),  # negates other roots
        (1, 3, 2),  # keeps its own root
    ],
)
def test_enumeration_rejects_a_simple_row_that_is_no_simple_reflection(row):
    table = generate_positive_roots(CoxeterGraph.from_name("A2"))
    table.act = (row,) + table.act[1:]
    with pytest.raises(CoxeterError, match="negates its own root and no other"):
        CoxeterSystem(table)


def test_tables_refuse_an_order_that_decreases_length():
    system = build_system("A3")
    system.lengths = system.lengths.copy()
    system.lengths[1], system.lengths[-1] = system.lengths[-1], system.lengths[1]
    with pytest.raises(CoxeterError, match="never decrease length"):
        system.numpy_tables()


def test_tables_refuse_an_inversion_set_whose_size_is_not_its_length():
    # the sweeps compare inversion sets with what the routes reach by length
    system = build_system("A3")
    system.inv_words = system.inv_words.copy()
    system.inv_words[5, 0] ^= np.uint64(1 << 5)
    with pytest.raises(CoxeterError, match="size is not its element's length"):
        system.numpy_tables()


def test_tables_refuse_a_step_from_a_longer_element():
    # the reachability kernel reads only the rows of shorter levels, which
    # it has filled: e * s2 pointed at w0 makes w0 a predecessor of s1 s2
    system = build_system("A3")
    system._right_by_gen = system._right_by_gen.copy()
    system._right_by_gen[0, 1] = system.longest_element.index
    with pytest.raises(CoxeterError, match="not in a shorter length level"):
        system.numpy_tables()


def test_tables_refuse_an_inversion_set_that_does_not_hold_its_parents():
    # the left roots of x are its parent's and one more, so they are Phi_x
    # only when Phi_parent is in Phi_x: Phi(s1 s2) = {a1, a1 + a2} made
    # {a2, a1 + a2}, which keeps its size but drops Phi(s1) = {a1}
    system = build_system("A3")
    x = system.element_from_word([1, 2]).index
    assert system.inv_words[x, 0] == 0b10001
    system.inv_words = system.inv_words.copy()
    system.inv_words[x, 0] = 0b10010
    with pytest.raises(CoxeterError, match="not its parent's plus one root"):
        system.numpy_tables()


def test_join_kernel_errors_on_a_broken_table():
    # A3's roots: a1, a2, a3, a2 + a3, a1 + a2, a1 + a2 + a3
    system = build_system("A3")
    cones = system.table.cone_words()
    assert cones[0, 2, 0] == 0b101 and cones[0, 1, 0] == 0b10011
    # a2 added to cone(a1, a3): Phi(s1 s3) = {a1, a3} is no longer closed,
    # and the check of every inversion set before the first join catches it
    cones[0, 2, 0] = cones[2, 0, 0] = np.uint64(0b111)
    with pytest.raises(CoxeterError, match="an inversion set is not closed"):
        join_of_union_bits(system, 0b001)
    # a1 + a2 removed from cone(a1, a2): {a1, a2} is then closed, but no
    # element's inversion set
    system = build_system("A3")
    cones = system.table.cone_words()
    cones[0, 1, 0] = cones[1, 0, 0] = np.uint64(0b011)
    assert join_of_union_bits(system, 0b001) == system.element_from_word([1]).index
    with pytest.raises(CoxeterError, match="no element's inversion set"):
        weak_joins(system, system._set_words(0b011))


def test_joins_never_build_the_product_tables():
    system = build_system("B3")
    u, v = system.element_from_word([1, 2]), system.element_from_word([3])
    assert join_bruteforce(u, v).index == join_of_union_bits(
        system, u.inversion_bits | v.inversion_bits
    )
    assert system._np_tables is None


@lru_cache(maxsize=None)
def _b3_oracle_tables():
    table = generate_positive_roots(CoxeterGraph.from_name("B3"))
    return product_tables_loop(table, enumerate_bfs(table))


def _union(u, v):
    return left_reflection_set(u) | left_reflection_set(v)


# what each reader does with B3, u = s1 s2 and v = s3 s2
READERS = {
    "sweeps": lambda system, u, v: all(
        sweep(system, conjecture, workers=1).ok for conjecture in ("H", "D", "EQ", "HD")
    ),
    "check_conjecture_H": lambda system, u, v: check_conjecture_H(u, v).holds,
    "conjectural_join_D": lambda system, u, v: conjectural_join_D(
        system, left_reflection_set(u), left_reflection_set(v)
    ).bits,
    "reachable_ids": lambda system, u, v: all(
        system.reachable_ids(_union(u, v).bits, side).any() for side in ("left", "right")
    ),
    # root 6 (a1 + a2 + c*a3) is three steps away, root 0 (a1) is a label
    "path_witness": lambda system, u, v: path_witness(system, _union(u, v), 6),
    "path_witness one step": lambda system, u, v: path_witness(system, _union(u, v), 0),
    "to_dot": lambda system, u, v: to_dot(u, v),
    "left_mul_reflection": lambda system, u, v: system.left_mul_reflection(2, u.index) + 1,
    "right_mul_reflection": lambda system, u, v: system.right_mul_reflection(u.index, 2) + 1,
}


@pytest.mark.parametrize("reader", READERS)
def test_only_products_by_one_reflection_build_the_product_tables(reader):
    # no reader, the products by one reflection included, leaves an
    # (n_roots, |W|) array behind: the step programs are the only
    # multiplication structure
    system = build_system("B3")
    u, v = system.element_from_word([1, 2]), system.element_from_word([3, 2])
    assert READERS[reader](system, u, v)
    shape = (system.table.n_roots, system.size)
    arrays = [value for value in (*vars(system.numpy_tables()).values(), *vars(system).values())
              if isinstance(value, np.ndarray)]
    assert arrays and not any(a.shape[:2] in (shape, shape[::-1]) for a in arrays)


# what each reader does with B3, u = s1 s2 and v = s3 s2, and the step
# programs it builds: numpy_tables() builds the left one, the joins and
# the products by one reflection none
LEFT, BOTH = ["left"], ["left", "right"]
PROGRAM_READERS = {
    "numpy_tables": (lambda system, u, v: system.numpy_tables().down_size > 0, LEFT),
    "H sweep": (lambda system, u, v: sweep(system, "H", workers=1).ok, LEFT),
    "check_conjecture_H": (lambda system, u, v: check_conjecture_H(u, v).holds, LEFT),
    "joins": (lambda system, u, v: join_bruteforce(u, v).length > 0, []),
    "path_witness": (lambda system, u, v: path_witness(system, _union(u, v), 6), LEFT),
    "path_witness one step": (lambda system, u, v: path_witness(system, _union(u, v), 0), []),
    "reachable_ids left": (
        lambda system, u, v: system.reachable_ids(_union(u, v).bits, "left").any(), LEFT
    ),
    "D sweep": (lambda system, u, v: sweep(system, "D", workers=1).ok, BOTH),
    "EQ sweep": (lambda system, u, v: sweep(system, "EQ", workers=1).ok, BOTH),
    "HD sweep": (lambda system, u, v: sweep(system, "HD", workers=1).ok, BOTH),
    "conjectural_join_D": (lambda system, u, v: conjectural_join_D(
        system, left_reflection_set(u), left_reflection_set(v)
    ).bits, BOTH),
    "reachable_ids right": (
        lambda system, u, v: system.reachable_ids(_union(u, v).bits, "right").any(), BOTH
    ),
    "right_mul_reflection": (
        lambda system, u, v: system.right_mul_reflection(u.index, 2) + 1, []
    ),
}


def _counted_tree_steps(monkeypatch) -> list[str]:
    """The sides whose steps are built from now on, in order."""
    built = []
    steps = coxeter._tree_steps

    def counted(tree, conj, bounds, side):
        built.append(side)
        return steps(tree, conj, bounds, side)

    monkeypatch.setattr(coxeter, "_tree_steps", counted)
    return built


@pytest.mark.parametrize("reader", PROGRAM_READERS)
def test_the_right_step_program_is_built_once_and_only_when_read(monkeypatch, reader):
    read, sides = PROGRAM_READERS[reader]
    built = _counted_tree_steps(monkeypatch)
    system = build_system("B3")
    u, v = system.element_from_word([1, 2]), system.element_from_word([3, 2])
    assert read(system, u, v) and read(system, u, v)
    assert built == sides
    if "right" not in sides:
        return
    # the program built on first read holds the descents of the oracle table
    npt = system.numpy_tables()
    right = _b3_oracle_tables()[1]
    elements = np.argsort(npt.slots)
    for lo, hi, roots, preds in npt.program("right"):
        for column, x in enumerate(elements[lo:hi]):
            below = right[:, x]
            falls = np.flatnonzero(npt.lengths[below] < npt.lengths[x])
            steps = zip(roots[:, column].tolist(), elements[preds[:, column]].tolist())
            assert set(steps) == set(zip(falls.tolist(), below[falls].tolist())), x
    assert built == ["left", "right"]


@pytest.mark.parametrize("conjecture", ["D", "EQ"])
def test_pooled_right_route_sweeps_match_one_worker(monkeypatch, conjecture):
    # the right program is built before the pool forks, in this process
    built = _counted_tree_steps(monkeypatch)
    system = build_system("F4")
    pooled = sweep(system, conjecture, workers=2).as_dict()
    assert built == ["left", "right"]
    solo = sweep(build_system("F4"), conjecture, workers=1).as_dict()
    for report in (pooled, solo):
        del report["wall_time_ms"], report["workers"]
    assert pooled == solo and solo["failure_count"] == 0


def _cli_join(system, u, v):
    return cli.main(["join", "--type", "B3", "--u", u.word_str(), "--v", v.word_str()]) == 0


# set-up and the paths that read the left route alone, each asked of every
# pair of a sample of B3: none builds the right program, and so none builds
# the paired one (both sides' programs over D, interleaved)
LEFT_ONLY_READERS = {
    "numpy_tables": lambda system, u, v: system.numpy_tables().down_size > 0,
    "check_conjecture_H": lambda system, u, v: check_conjecture_H(u, v).join.length >= 0,
    "path_witness": lambda system, u, v: path_witness(system, _union(u, v), 6) or True,
    "cli join": _cli_join,
}


@pytest.mark.parametrize("reader", LEFT_ONLY_READERS)
def test_set_up_and_left_only_paths_build_no_right_or_paired_program(monkeypatch, capsys,
                                                                      reader):
    systems = []

    def build(*args, **kwargs):
        systems.append(build_system(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(cli, "build_system", build)
    system = build_system("B3")
    elements = [system.element(i) for i in range(0, system.size, 7)]
    for u in elements:
        for v in elements:
            assert LEFT_ONLY_READERS[reader](system, u, v)
    for built in systems or [system]:
        npt = built.numpy_tables()
        assert "right" not in npt._programs and npt._paired is None


def test_the_paired_program_is_built_once_and_reused():
    system = build_system("B3")
    npt = system.numpy_tables()
    elements = list(system.elements())
    conjectural_join_D(system, _union(elements[1], elements[2]), _union(elements[3], elements[4]))
    assert npt._paired is None  # the first right route runs alone and builds its program
    paired = None
    for u in elements[::5]:
        for v in elements[::3]:
            check_conjecture_H(u, v)
            conjectural_join_D(system, left_reflection_set(u), left_reflection_set(v))
            paired = paired or npt._paired
            assert npt._paired is paired
    assert paired is not None and npt.paired_program() is paired


def test_left_product_by_reflection_agrees_with_word_composition():
    system = build_system("A3")
    for r in range(system.table.n_roots):
        t = system.reflection(r)
        for x in system.elements():
            product = system.element_from_word(t.word + x.word)
            assert system.left_mul_reflection(r, x.index) == product.index
            product = system.element_from_word(x.word + t.word)
            assert system.right_mul_reflection(x.index, r) == product.index


def test_products_by_reflection_reject_out_of_range_indices():
    system = build_system("A3")  # 6 roots, 24 elements
    for root, element in [(-1, 0), (6, 0), (0, -1), (0, 24)]:
        with pytest.raises(ValueError, match="index .* out of range"):
            system.left_mul_reflection(root, element)
        with pytest.raises(ValueError, match="index .* out of range"):
            system.right_mul_reflection(element, root)
    # the last valid indices still answer
    t, x = system.reflection(5), system.element(23)
    left = system.element_from_word(t.word + x.word)
    right = system.element_from_word(x.word + t.word)
    assert system.left_mul_reflection(5, 23) == left.index
    assert system.right_mul_reflection(23, 5) == right.index


def test_permutation_dictionary_is_a_bijection_on_s4():
    import itertools

    system = build_system("A3")
    seen = set()
    for x in system.elements():
        line = system.permutation_of(x)
        assert system.element_of_permutation(line) == x
        seen.add(line)
    assert seen == set(itertools.permutations((1, 2, 3, 4)))


def test_permutation_dictionary_composes_like_words():
    system = build_system("A3")
    s1 = system.permutation_of(system.element_from_word((1,)))
    assert s1 == (2, 1, 3, 4)
    w = system.permutation_of(system.element_from_word((2, 1)))
    assert w == (3, 1, 2, 4)


def test_wrong_type_for_permutations():
    system = build_system("B3")
    with pytest.raises(WrongType):
        system.permutation_of(system.identity)


def test_graph_validation():
    with pytest.raises(ValueError):
        CoxeterGraph(rank=2, m=((1, 2), (3, 1)))  # asymmetric
    with pytest.raises(ValueError):
        CoxeterGraph(rank=2, m=((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(ValueError):
        CoxeterGraph(rank=2, m=((1, 1), (1, 1)))  # off-diagonal < 2
    with pytest.raises(ValueError):
        CoxeterGraph.from_name("Z9")
    with pytest.raises(ValueError):
        CoxeterGraph.from_name("I2(1)")


def test_graph_from_json_round_trip():
    graph = CoxeterGraph.from_json({"rank": 2, "m": [[1, 7], [7, 1]], "name": "seven"})
    assert graph.name == "seven"
    assert graph.ring_parameter == 7
    system = build_system(graph)
    assert system.size == 14


def test_ring_parameter_is_lcm_of_labels():
    # label 3 adds nothing: 2cos(pi/3) = 1 lies in every ring
    assert CoxeterGraph.from_name("A3").ring_parameter == 3
    assert CoxeterGraph.from_name("B3").ring_parameter == 4
    assert CoxeterGraph.from_name("H3").ring_parameter == 5
    assert CoxeterGraph.from_name("F4").ring_parameter == 4
    assert CoxeterGraph.from_name("I2(7)").ring_parameter == 7


def test_infinite_group_hits_the_root_cap():
    affine = CoxeterGraph.from_matrix(
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]], name="affine-triangle"
    )
    with pytest.raises(FinitenessExceeded):
        generate_positive_roots(affine, cap=200)


def test_element_cap():
    with pytest.raises(FinitenessExceeded):
        build_system("A4", element_cap=50)


def test_root_subset_operations():
    system = build_system("A2")
    table = system.table
    a = RootSubset(table, 0b011)
    b = RootSubset(table, 0b110)
    assert (a | b).bits == 0b111
    assert (a & b).bits == 0b010
    assert (a - b).bits == 0b001
    assert a.complement().bits == 0b100
    assert len(a) == 2 and a.indices() == (0, 1)


def test_root_subset_rejects_bits_outside_its_roots():
    table = build_system("A3").table
    assert RootSubset(table, (1 << 6) - 1).indices() == (0, 1, 2, 3, 4, 5)
    for bits in (1 << 6, 1 << 7, -1):
        with pytest.raises(ValueError, match="outside the 6 positive roots"):
            RootSubset(table, bits)


def test_raw_bit_sets_outside_the_roots_are_rejected():
    system = build_system("A3")  # 6 roots
    full = (1 << 6) - 1
    assert join_of_union_bits(system, full) == system.longest_element.index
    assert system.reachable_ids(full, "left").all()
    for bits in (1 << 6, 1 << 64, -1):
        with pytest.raises(ValueError, match="outside the 6 positive roots"):
            join_of_union_bits(system, bits)
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="outside the 6 positive roots"):
                system.reachable_ids(bits, side)


def test_element_index_must_name_an_element():
    system = build_system("A3")
    assert system.element(system.size - 1).index == system.size - 1
    assert system.element(0) == system.identity
    for index in (-1, system.size, 10**6):
        with pytest.raises(ValueError, match="out of range"):
            system.element(index)



@pytest.mark.parametrize("side", ["sideways", "Left", "", None])
def test_reachability_rejects_an_unknown_side(side):
    system = build_system("A2")
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        system.reachable_ids(0b111, side)
    assert system.reachable_ids(0b111, "left").all()
    assert system.reachable_ids(0b111, "right").all()
