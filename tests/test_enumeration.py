"""Level-wise enumeration and the product tables, bit for bit against the
element-by-element oracles in oracles.py, plus the checks enumeration makes
on its input: the element cap at its exact boundary, inconsistent root
tables, and Python-int indices.
"""

import json

import numpy as np
import pytest

from oracles import enumerate_bfs, product_tables_loop
from weakorder.coxeter import (
    CoxeterError,
    CoxeterGraph,
    CoxeterSystem,
    FinitenessExceeded,
    build_system,
    generate_positive_roots,
)

TYPES = ["A3", "B3", "H3", "I2(7)", "I2(65)", "D4", "F4", "D5"]


# the oracle tables for H4 take about 14 s, so H4 compares enumeration only
@pytest.mark.parametrize("name,tables", [(t, True) for t in TYPES] + [("H4", False)])
def test_enumeration_and_tables_match_oracles(name, tables):
    system = build_system(name)
    oracle = enumerate_bfs(system.table)
    assert system.size == len(oracle.inv_bits)
    assert system.inv_bits == oracle.inv_bits
    assert system.words == oracle.words
    assert system.lengths == oracle.lengths
    assert system._right_by_gen.tolist() == oracle.right_by_gen
    assert [r.index for r in system.reflections()] == oracle.refl_elem
    assert system.longest_element.index == oracle.w0
    if tables:
        left, right = product_tables_loop(system.table, oracle)
        npt = system.numpy_tables()
        assert npt.left.dtype == left.dtype and np.array_equal(npt.left, left)
        assert npt.right.dtype == right.dtype and np.array_equal(npt.right, right)


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


def test_enumeration_rejects_a_shorter_product_missing_from_the_level_before():
    # s1 negates alpha1 + alpha2 and s2 swaps it with alpha2: consistent up to
    # length 2, then s2 * (s1 s2 s1) has the inversion set {alpha2}, which is
    # not one of the length-1 elements
    table = _a2_with_simple_rows((1, 2, -3), (-1, 3, 2))
    with pytest.raises(CoxeterError, match="not in the level before"):
        CoxeterSystem(table)


def test_enumeration_rejects_a_reflection_outside_the_group():
    # both generators negate alpha1 + alpha2 only, so the group is {e, s}
    # and the reflection through alpha1 + alpha2 (inversion set: every root)
    # is not in it
    table = _a2_with_simple_rows((1, 2, -3), (1, 2, -3))
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
    assert all(type(n) is int for n in system.lengths)
    assert all(type(i) is int for word in system.words for i in word)
    json.dumps([indices, system.words[-1]])
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
