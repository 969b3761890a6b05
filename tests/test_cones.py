"""The root table against the scalar loops in oracles.py: roots, depths,
order and act (built from the simple rows by conjugation) from the integer
array construction, its root cap and its consistency checks, and the cone
table (solved for the simple roots, conjugated for the rest) bit for bit
against Cramer's rule one pair at a time and, for dihedral types, against
the reflection order, plus the closure predicates that read it on H4.  The
cones of the simple roots, solved over blocks of roots, must match the
per-root loop bit for bit, and the table's build must stay small in memory.
"""

import functools
import random
import tracemalloc

import numpy as np
import pytest

from oracles import base_cones_loop, cone_mask_cramer, dihedral_cones, roots_and_act_loop
from weakorder import coxeter
from weakorder.coxeter import (
    CoxeterError,
    CoxeterGraph,
    FinitenessExceeded,
    RootSubset,
    _base_cones,
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


@pytest.mark.parametrize(
    "corrupt,error",
    [
        ("simple row", "act is not a table of reflections"),
        ("2B entry", "reflection image is not a root of the table"),
    ],
    ids=["simple row", "2B entry"],
)
def test_inconsistent_reflections_raise(corrupt, error, monkeypatch):
    table = generate_positive_roots(CoxeterGraph.from_name("B3"))
    if corrupt == "simple row":
        reflect = table._reflect

        def corrupted(x):
            images = reflect(x)
            images[4, 0] = images[5, 0]  # s_1 sends two roots to one image
            return images

        monkeypatch.setattr(table, "_reflect", corrupted)
    else:
        table._two_b = table._two_b.copy()
        table._two_b[0, table.ring.degree] -= 1  # 2B_12 is now -2
    with pytest.raises(CoxeterError, match=error):
        table._build_act()


def random_descents(seed):
    """_descents, but each root t takes a random i among all its descents."""
    rng = random.Random(seed)
    first = coxeter._descents

    def descents(simple, roots):
        depths = np.array([root.depth for root in roots])
        image = np.abs(simple) - 1
        down = (simple > 0) & (depths[image] == depths - 1)
        levels = []
        for t, _, _ in first(simple, roots):
            gens = np.array([rng.choice(np.flatnonzero(down[:, r])) for r in t])
            levels.append((t, gens, image[gens, t]))
        return levels

    return descents


# seed None conjugates through the library's descents, 1 and 7 through random
# ones: s_i maps cones to cones for every descent i, so the table is the same
@pytest.mark.parametrize("seed", [1, 7, None])
@pytest.mark.parametrize("name", CONE_TYPES)
def test_cone_table_matches_cramer_oracle(name, seed, monkeypatch):
    table = exact_table(name)
    if seed is not None:
        monkeypatch.setattr(coxeter, "_descents", random_descents(seed))
    cone = _cone_table(table)
    n = table.n_roots
    assert cone.shape == (n, n, -(-n // 64)) and cone.dtype == np.uint64
    assert as_ints(cone) == oracle_cones(name)


# I2(64) and I2(65) run on Python ints; the others fit int64
BASE_CONE_TYPES = [
    "A3", "B3", "H3", "I2(7)", "I2(64)", "I2(65)", "D4", "F4", "B5", "E6", "H4", "E7", "E8"
]


@pytest.mark.parametrize("name", BASE_CONE_TYPES)
def test_base_cones_match_the_per_root_oracle(name):
    table = exact_table(name)
    base = _base_cones(table)
    expected = base_cones_loop(table)
    assert base.dtype == expected.dtype and np.array_equal(base, expected)


# the blocked base cones keep every temporary small: the same passes over
# all roots at once peak at 2.2 MiB on H4 and 17 MiB on E8
@pytest.mark.parametrize("name,mib", [("H4", 1), ("E8", 4)])
def test_cone_table_memory_stays_bounded(name, mib):
    table = generate_positive_roots(CoxeterGraph.from_name(name))
    tracemalloc.start()
    try:
        cone = _cone_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cone.shape[:2] == (table.n_roots, table.n_roots)
    assert peak <= mib * 2**20, f"{peak / 2**20:.2f} MiB"


# I2(64) and I2(65) have one and two words per cone; Cramer is too slow there
@pytest.mark.parametrize("name", ["I2(5)", "I2(7)", "I2(12)", "I2(64)", "I2(65)"])
def test_dihedral_cones_follow_the_reflection_order(name):
    table = exact_table(name)
    assert as_ints(table.cone_words()) == dihedral_cones(table)


def test_cone_mask_reads_the_table_built_once():
    table = generate_positive_roots(CoxeterGraph.from_name("B3"))
    assert table._cones is None  # the constructor builds no cones
    masks = oracle_cones("B3")
    for i in range(table.n_roots):
        for j in range(table.n_roots):
            assert table.cone_mask(i, j) == masks[i][j]
    assert table.cone_words() is table.cone_words()


def test_cone_mask_rejects_roots_out_of_range():
    table = exact_table("A3")
    assert table.cone_mask(5, 0) == oracle_cones("A3")[5][0]
    for i, j in ((-1, 0), (6, 0), (0, -1), (0, 6)):
        with pytest.raises(ValueError, match="out of range"):
            table.cone_mask(i, j)


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
