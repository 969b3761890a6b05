"""Level-wise enumeration, its ids in (length, reduced word) order, and the products by one reflection, bit for bit
against the element-by-element oracles in oracles.py, and the step
programs, built from the enumeration tree, against the descents of the
oracle tables;
plus the checks enumeration and the tables make on their input: the
element cap at its exact boundary, inconsistent root tables, a parent off
its level, and Python-int indices; and the root-set codec every packed
inversion set goes through, with the bit-matrix transpose against the
unpacked one in oracles.py.
"""

import json
import math
from functools import lru_cache
from random import Random

import numpy as np
import pytest

from oracles import (
    enumerate_bfs,
    oracle_tables,
    product_tables_loop,
    transpose_bits_unpacked,
)
from weakorder import coxeter
from weakorder.coxeter import (
    CoxeterError,
    CoxeterGraph,
    CoxeterSystem,
    FinitenessExceeded,
    RootSubset,
    _pack_words,
    _unpack_words,
    _word_keys,
    bits_to_words,
    build_system,
    generate_positive_roots,
    left_reflection_set,
    transpose_bits,
    words_to_bits,
)
from weakorder.bruhat import check_conjecture_H, path_witness
from weakorder.verify import sweep
from weakorder.weak_order import conjectural_join_D, join_bruteforce

# I2(64) has the widest inversion sets that are one uint64 key, I2(65) the
# narrowest that are void keys of two words
TYPES = ["A3", "B3", "H3", "I2(7)", "I2(64)", "I2(65)", "D4", "F4", "D5"]


@lru_cache(maxsize=None)
def _oracle(name):
    return enumerate_bfs(_system(name).table)


@lru_cache(maxsize=None)
def _oracle_tables(name):
    """The columns the oracle tables cover, and the tables: every element,
    or 200 sampled ones of H4, whose whole tables take about 14 s."""
    system = _system(name)
    if name != "H4":
        return range(system.size), *product_tables_loop(system.table, _oracle(name))
    columns = sorted(Random(4).sample(range(1, system.size - 1), 198))
    columns = [0, *columns, system.size - 1]
    return columns, *product_tables_loop(system.table, _oracle(name), columns)


def _assert_products_match(system, columns, left, right):
    """Every (root, element) cell of the oracle tables' columns, through the
    library's products by one reflection on each side."""
    for column, x in enumerate(columns):
        for r in range(system.table.n_roots):
            assert system.left_mul_reflection(r, x) == left[r, column], ("left", r, x)
            assert system.right_mul_reflection(x, r) == right[r, column], ("right", r, x)


# H4 compares enumeration here and sampled columns of its tables below
@pytest.mark.parametrize("name,tables", [(t, True) for t in TYPES] + [("H4", False)])
def test_enumeration_and_tables_match_oracles(name, tables):
    system = build_system(name)
    oracle = _oracle(name)
    assert system.size == len(oracle.inv_bits)
    assert system.inv_bits == oracle.inv_bits
    assert [x.word for x in system.elements()] == oracle.words
    assert system.lengths.dtype == np.int16 and system.lengths.tolist() == oracle.lengths
    assert system._right_by_gen.tolist() == oracle.right_by_gen
    assert [r.index for r in system.reflections()] == oracle.refl_elem
    assert system.longest_element.index == oracle.w0
    if tables:
        columns, left, right = _oracle_tables(name)
        _assert_products_match(system, columns, left, right)
        # the kernels' oracles gather the same tables a reflection at a time
        gathered = oracle_tables(system)
        assert np.array_equal(gathered[0], left) and np.array_equal(gathered[1], right)


# the degrees of the basic invariants (Humphreys 1990, 3.7): the number of
# elements of length k is the coefficient of q^k in prod_i (1 + q + ... + q^(d_i - 1))
DEGREES = {
    "A3": (2, 3, 4), "B3": (2, 4, 6), "H3": (2, 6, 10), "I2(65)": (2, 65),
    "A4": (2, 3, 4, 5), "B4": (2, 4, 6, 8), "D4": (2, 4, 4, 6), "F4": (2, 6, 8, 12),
    "D5": (2, 4, 5, 6, 8), "H4": (2, 12, 20, 30), "E6": (2, 5, 6, 8, 9, 12),
}


@pytest.mark.parametrize("name", DEGREES)
def test_level_sizes_are_the_poincare_polynomial(name):
    poincare = np.ones(1, dtype=np.int64)
    for d in DEGREES[name]:
        poincare = np.convolve(poincare, np.ones(d, dtype=np.int64))
    system = _system(name)
    assert np.bincount(system.lengths).tolist() == poincare.tolist()
    assert system.size == math.prod(DEGREES[name])


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "F4", "D5", "H4", "E6"])
def test_ids_run_in_length_then_word_order(name):
    keys = [(x.length, x.word) for x in _system(name).elements()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_inversion_bits_are_spelled_out_only_on_first_read():
    system = build_system("F4")
    system.numpy_tables()
    assert sweep(system, "EQ").ok
    u, v = system.element_from_word([1, 2, 3]), system.element_from_word([4, 3, 2])
    a, b = left_reflection_set(u), left_reflection_set(v)
    closed = left_reflection_set(join_bruteforce(u, v))
    assert check_conjecture_H(u, v).holds
    assert conjectural_join_D(system, a, b) == closed
    # a root of the join that is no label: the witness searches the left program
    assert path_witness(system, a | b, min(closed - (a | b))) is not None
    assert system._inv_bits is None
    bits = system.inv_bits
    assert bits == words_to_bits(system.inv_words)
    assert system.inv_bits is bits


def test_h4_tables_match_the_oracle_on_sampled_columns():
    system = build_system("H4")
    _assert_products_match(system, *_oracle_tables("H4"))


def _program_steps(npt, side, x, elements):
    """The (root, predecessor id) steps into element x of one side's
    program; elements[s] is the element of slot s."""
    k = int(npt.lengths[x])
    if k == 0:
        return []
    lo, _, roots, preds = npt.program(side)[k - 1]
    column = npt.slots[x] - lo
    return list(zip(roots[:, column].tolist(), elements[preds[:, column]].tolist()))


@pytest.mark.parametrize("name", TYPES + ["H4"])
def test_step_programs_are_the_descents_of_the_oracle_tables(name):
    # the programs are built along the enumeration tree, never from the
    # tables: each element's steps must be its descents in the oracle tables
    system = build_system(name)
    npt = system.numpy_tables()
    columns, left, right = _oracle_tables(name)
    lengths, elements = system.lengths, np.argsort(npt.slots)
    for side, mul in (("left", left), ("right", right)):
        for column, x in enumerate(columns):
            below = mul[:, column]
            falls = np.flatnonzero(lengths[below] < lengths[x])
            steps = _program_steps(npt, side, x, elements)
            assert len(steps) == lengths[x]
            assert set(steps) == set(zip(falls.tolist(), below[falls].tolist())), (side, x)


def test_product_tables_reject_a_parent_not_one_level_up():
    system = build_system("A3")
    w0 = system.size - 1
    for parent in (0, w0):  # e is six levels up, w0 is on its own level
        system._parent = system._parent.copy()
        system._parent[w0] = parent
        with pytest.raises(CoxeterError, match="parent is not one length level up"):
            system.numpy_tables()


def test_product_tables_reject_a_step_under_another_root(monkeypatch):
    # every root labels |W| / 2 right steps, so a step moved to another root
    # while the right program is built leaves one root a step short; a wrong
    # predecessor keeps the count, and the oracle descents above catch it
    system = build_system("A3")
    npt = system.numpy_tables()
    steps = coxeter._tree_steps

    def moved(tree, conj, bounds, side):
        roots, preds = steps(tree, conj, bounds, side)
        roots[2][0, 0] = (roots[2][0, 0] + 1) % system.table.n_roots
        return roots, preds

    monkeypatch.setattr(coxeter, "_tree_steps", moved)
    with pytest.raises(CoxeterError, match="does not label half of the right steps"):
        npt.program("right")


@pytest.mark.parametrize("name,order", [("A4", 120), ("H3", 120), ("F4", 1152)])
def test_element_cap_boundary(name, order):
    table = generate_positive_roots(CoxeterGraph.from_name(name))
    assert CoxeterSystem(table, element_cap=order).size == order
    with pytest.raises(FinitenessExceeded, match=f"more than {order - 1} group"):
        CoxeterSystem(table, element_cap=order - 1)


def _a2_with_simple_rows(first, second):
    table = generate_positive_roots(CoxeterGraph.from_name("A2"))
    table.act = (first, second, table.act[2])
    return table


SIMPLE_ROW_CHECK = "negates its own root and no other"


def test_enumeration_rejects_a_shorter_product_missing_from_the_level_before():
    # s1 negates alpha1 + alpha2, not alpha1: no simple reflection
    table = _a2_with_simple_rows((1, 2, -3), (-1, 3, 2))
    with pytest.raises(CoxeterError, match=SIMPLE_ROW_CHECK):
        CoxeterSystem(table)
    # s1 is A2's and s2 a valid simple row, but it fixes alpha1 and
    # alpha1 + alpha2: s1 s2 has the inversion set {alpha1, alpha1 + alpha2},
    # and its product by s1 goes down, to {alpha1 + alpha2}, which is no
    # product of the level before by s1
    s1 = generate_positive_roots(CoxeterGraph.from_name("A2")).act[0]
    table = _a2_with_simple_rows(s1, (1, -2, 3))
    with pytest.raises(CoxeterError, match="not in the level before"):
        CoxeterSystem(table)


def test_enumeration_rejects_a_reflection_outside_the_group():
    # both generators negate alpha1 + alpha2 only, which is no simple row
    table = _a2_with_simple_rows((1, 2, -3), (1, 2, -3))
    with pytest.raises(CoxeterError, match=SIMPLE_ROW_CHECK):
        CoxeterSystem(table)
    # A2's simple rows, and a reflection through alpha1 + alpha2 that negates
    # {alpha1, alpha2}, which is no inversion set: the group is whole, but
    # the reflection is not in it
    table = generate_positive_roots(CoxeterGraph.from_name("A2"))
    table.act = table.act[:2] + ((-1, -2, 3),)
    with pytest.raises(CoxeterError, match="reflection is not an element"):
        CoxeterSystem(table)


def test_enumeration_rejects_an_even_length_reflection():
    table = generate_positive_roots(CoxeterGraph.from_name("A2"))
    s1, s2, _ = table.act
    table.act = (s1, s2, s1[:2] + (-3,))  # Phi(s1) | {alpha1 + alpha2}: length 2
    with pytest.raises(CoxeterError, match="odd length"):
        CoxeterSystem(table)


def test_indices_are_python_ints():
    system = build_system("B3")
    elements = [
        system.element_from_word([1, 2, 3]),
        system.element_by_bits(system.inv_bits[5]),
        system.reflection(4),
        system.longest_element,
    ]
    indices = [e.index for e in elements]
    assert all(type(i) is int for i in indices)
    assert all(type(b) is int for b in system.inv_bits)
    assert all(type(x.length) is int for x in system.elements())
    assert all(type(x.inversion_bits) is int for x in system.elements())
    words = [x.word for x in system.elements()]
    assert all(type(i) is int for word in words for i in word)
    json.dumps([indices, words[-1]])
    assert hash(elements[0]) == hash((id(system), indices[0]))


def test_element_by_bits_rejects_a_set_that_is_no_inversion_set():
    system = build_system("B3")
    w0 = system.longest_element
    assert system.element_by_bits(w0.inversion_bits) == w0
    assert system.element_by_bits(0) == system.identity
    # {a1, a2} is not closed: it lacks a1 + a2 (a root of B3)
    for bits in (0b11, -1, 1 << system.table.n_roots):
        with pytest.raises(CoxeterError, match="no element has the inversion set"):
            system.element_by_bits(bits)


@lru_cache(maxsize=None)
def _system(name):
    return build_system(name)


# 6, 60, 64 and 65 roots: one word, one word nearly full, exactly full, two words
@pytest.mark.parametrize("name", ["A3", "H4", "I2(64)", "I2(65)"])
def test_root_set_codec_round_trips(name):
    system = _system(name)
    n = system.table.n_roots
    n_words = -(-n // 64)
    rng = Random(n)
    sets = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]
    words = np.stack([bits_to_words(bits, n_words) for bits in sets])
    assert words.shape == (len(sets), n_words) and words.dtype == np.uint64
    assert words_to_bits(words) == sets
    rows = _unpack_words(words, n)
    assert rows.tolist() == [[bool(bits >> r & 1) for r in range(n)] for bits in sets]
    assert np.array_equal(_pack_words(rows), words)
    # a strided view packs the same (its packed rows are strided too)
    assert np.array_equal(_pack_words(np.asfortranarray(rows)), words)
    assert np.array_equal(transpose_bits(transpose_bits(words, n), len(sets)), words)
    # up to 64 roots a set is its own uint64 lookup key, past that a void key
    keys = _word_keys(words)
    assert keys.dtype == (np.uint64 if n_words == 1 else np.dtype((np.void, 8 * n_words)))
    assert system._sorted_keys.dtype == keys.dtype
    assert (keys[:, None] == keys[None, :]).tolist() == [[a == b for b in sets] for a in sets]
    for bits, row in zip(sets, rows):
        assert RootSubset(system.table, bits).indices() == tuple(np.flatnonzero(row))


@pytest.mark.parametrize("n_bits", [1, 24, 60, 64, 65, 130])
@pytest.mark.parametrize("rows", [1, 7, 9, 20, 63, 64, 65, 4096, 5000])
def test_transpose_bits_matches_the_unpacked_transpose(rows, n_bits):
    rng = np.random.default_rng(rows * 1000 + n_bits)
    # every bit random, those past n_bits included: the transpose ignores them
    words = rng.integers(0, 1 << 64, size=(rows, -(-n_bits // 64)), dtype=np.uint64)
    columns = transpose_bits(words, n_bits)
    assert columns.dtype == np.uint64 and columns.shape == (n_bits, -(-rows // 64))
    assert np.array_equal(columns, transpose_bits_unpacked(words, n_bits))
    back = transpose_bits(columns, rows)
    assert np.array_equal(back, transpose_bits_unpacked(columns, rows))
    kept = _unpack_words(words, n_bits)
    assert np.array_equal(_unpack_words(back, n_bits), kept)


def test_small_transposes_match_the_unpacked_transpose_on_every_shape():
    # every shape of the bool path (rows * n_bits <= 512): one-word outputs
    # are shifted and OR-reduced, wider ones packed
    rng = np.random.default_rng(512)
    for rows in range(0, 513):
        for n_bits in range(0, 512 // max(rows, 1) + 1):
            words = rng.integers(0, 1 << 64, size=(rows, max(1, -(-n_bits // 64))),
                                 dtype=np.uint64)
            columns = transpose_bits(words, n_bits)
            assert columns.dtype == np.uint64, (rows, n_bits)
            assert columns.shape == (n_bits, -(-rows // 64)), (rows, n_bits)
            assert np.array_equal(columns, transpose_bits_unpacked(words, n_bits)), (rows, n_bits)


@pytest.mark.parametrize("name", TYPES + ["H4"])
def test_inversion_words_are_the_inversion_bits(name):
    system = _system(name)
    n_words = system.inv_words.shape[1]
    assert n_words == -(-system.table.n_roots // 64)
    assert words_to_bits(system.inv_words) == system.inv_bits
    for x, bits in enumerate(system.inv_bits):
        assert np.array_equal(system.inv_words[x], bits_to_words(bits, n_words))


@pytest.mark.parametrize("name", TYPES + ["H4"])
def test_refl_ids_agree_with_the_reflection_dictionary(name):
    system = _system(name)
    refl_ids = system.numpy_tables().refl_ids
    assert refl_ids.dtype == np.int32 and refl_ids.shape == (system.table.n_roots,)
    for r, x in enumerate(refl_ids.tolist()):
        assert system.reflection(r).index == x
        assert system.reflection_root(system.element(x)) == r
    assert [t.index for t in system.reflections()] == refl_ids.tolist()
