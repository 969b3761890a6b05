"""The root table against the scalar loops in oracles.py: roots, depths,
order and act from the integer array construction, its root cap, and the
cone table bit for bit against Cramer's rule one pair at a time, over
several block sizes, plus the closure predicates that read it on H4.
"""

import functools
import random

import numpy as np
import pytest

from oracles import cone_mask_cramer, roots_and_act_loop
from weakorder.coxeter import (
    CoxeterGraph,
    FinitenessExceeded,
    RootSubset,
    _cone_table,
    enumerate_group,
    generate_positive_roots,
)
from weakorder.weak_order import is_biclosed, is_closed, is_coclosed

CONE_TYPES = ["A3", "B3", "H3", "I2(7)", "I2(12)", "D4", "F4", "B5", "E6"]


@functools.lru_cache(maxsize=None)
def exact_table(name):
    return generate_positive_roots(CoxeterGraph.from_name(name))


@functools.lru_cache(maxsize=None)
def oracle_cones(name):
    table = exact_table(name)
    n = table.n_roots
    return [[cone_mask_cramer(table, i, j) for j in range(n)] for i in range(n)]


def as_ints(cone):
    return [
        [int.from_bytes(words.astype("<u8").tobytes(), "little") for words in row]
        for row in cone
    ]


# I2(64) is the one type here whose table leaves signs open at 2^64
ORACLE_TYPES = [
    "A3", "B3", "H3", "I2(7)", "I2(12)", "D4", "F4", "B5", "E6", "H4", "I2(64)"
]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_roots_and_act_match_the_scan_oracle(name):
    graph = CoxeterGraph.from_name(name)
    table = generate_positive_roots(graph)
    roots, depths, act = roots_and_act_loop(graph)
    assert [root.coords for root in table.roots] == roots
    assert [root.depth for root in table.roots] == depths
    assert [root.index for root in table.roots] == list(range(len(roots)))
    assert table.act == act


@pytest.mark.parametrize("name,n_roots", [("H3", 15), ("F4", 24)])
def test_root_cap_boundary(name, n_roots):
    graph = CoxeterGraph.from_name(name)
    assert generate_positive_roots(graph, cap=n_roots).n_roots == n_roots
    with pytest.raises(FinitenessExceeded, match=f"more than {n_roots - 1} positive"):
        generate_positive_roots(graph, cap=n_roots - 1)


def test_hyperbolic_triangle_exceeds_the_root_cap():
    # 1/2 + 1/3 + 1/7 < 1: the (2, 3, 7) triangle group is infinite
    graph = CoxeterGraph.from_matrix([[1, 2, 3], [2, 1, 7], [3, 7, 1]])
    with pytest.raises(FinitenessExceeded, match="more than 10000 positive roots"):
        generate_positive_roots(graph)


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("name", CONE_TYPES)
def test_cone_table_matches_cramer_oracle(name, block):
    table = exact_table(name)
    cone = _cone_table(table, block)
    n = table.n_roots
    assert cone.shape == (n, n, -(-n // 64)) and cone.dtype == np.uint64
    assert as_ints(cone) == oracle_cones(name)


def test_cone_mask_reads_the_table_built_once():
    table = generate_positive_roots(CoxeterGraph.from_name("B3"))
    assert table._cones is None  # the constructor builds no cones
    masks = oracle_cones("B3")
    for i in range(table.n_roots):
        for j in range(table.n_roots):
            assert table.cone_mask(i, j) == masks[i][j]
    assert table.cone_words() is table.cone_words()


def test_h4_biclosed_sets_are_the_inversion_sets():
    table = exact_table("H4")
    system = enumerate_group(table)
    inversion_sets = set(system.inv_bits)
    rng = random.Random(20261018)
    full = (1 << table.n_roots) - 1
    samples = [system.inv_bits[rng.randrange(system.size)] for _ in range(200)]
    samples += [
        system.inv_bits[rng.randrange(system.size)]
        | system.inv_bits[rng.randrange(system.size)]
        for _ in range(400)
    ]
    samples += [rng.getrandbits(table.n_roots) for _ in range(100)]
    samples += [0, full]
    assert sum(bits in inversion_sets for bits in samples) >= 200
    for bits in samples:
        subset = RootSubset(table, bits)
        biclosed = is_biclosed(subset)
        assert biclosed == (bits in inversion_sets), hex(bits)
        assert biclosed == (is_closed(subset) and is_coclosed(subset))
