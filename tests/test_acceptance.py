"""Acceptance gate: each test drives one end-to-end guarantee of the package
and prints a single PASS line with the measured scope and timing.

The guarantees, in order:

1.  left-product sweeps hold exhaustively on every small type;
2.  F4 holds exhaustively for both the left and right routes, in budget;
3.  the two routes agree pair-by-pair on every small type;
4.  biclosed subsets enumerated from scratch are exactly the inversion sets;
5.  the shipped golden JSON outputs are byte-stable;
6.  the symmetric-group model: closure joins, palindromic paths,
    interval confinement and chain extraction, against brute force;
7.  the exact root tables agree with a float64 evaluation of the form:
    unit norms, nonnegative coordinates and every reflection image;
8.  the scalar layer has the right degrees and satisfies the field axioms.
"""

import contextlib
import io
import itertools
import math
import time
from pathlib import Path
from random import Random

import numpy as np
import pytest

from oracles import biclosed_subsets
from weakorder import (
    AlgebraicScalar,
    CoxeterGraph,
    build_ring,
    build_system,
    enumerate_biclosed,
    generate_positive_roots,
    sweep,
)
from weakorder import permutations as pm
from weakorder.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

SMALL_TYPES = ["A2", "A3", "A4", "B2", "B3"] + [
    f"I2({m})" for m in range(3, 13)
] + ["H3"]

EXPECTED_PAIRS = {
    "A2": 36,
    "A3": 576,
    "A4": 14_400,
    "B2": 64,
    "B3": 2_304,
    "H3": 14_400,
    **{f"I2({m})": (2 * m) ** 2 for m in range(3, 13)},
}


def test_small_type_left_sweeps():
    start = time.perf_counter()
    total = 0
    for name in SMALL_TYPES:
        report = sweep(name, "H")
        assert report.failure_count == 0, f"{name}: {report.failures[:3]}"
        assert report.pairs_checked == EXPECTED_PAIRS[name]
        total += report.pairs_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS left-route sweeps: {len(SMALL_TYPES)} types, "
          f"{total} pairs, 0 failures, {elapsed:.2f}s")


def test_f4_exhaustive_both_routes():
    start = time.perf_counter()
    system = build_system("F4")
    for code in ("H", "D"):
        report = sweep(system, code, workers=8)
        assert report.pairs_checked == 1_327_104
        assert report.failure_count == 0, report.failures[:3]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS F4 both routes: 2 x 1,327,104 pairs, 0 failures, "
          f"{elapsed:.2f}s (8 workers)")


def test_route_equivalence_small_types():
    start = time.perf_counter()
    total = 0
    for name in SMALL_TYPES:
        report = sweep(name, "EQ")
        assert report.failure_count == 0, f"{name}: {report.failures[:3]}"
        total += report.pairs_checked
    elapsed = time.perf_counter() - start
    print(f"PASS route equivalence: {len(SMALL_TYPES)} types, "
          f"{total} pairs agree, {elapsed:.2f}s")


def test_biclosed_oracle_matches_inversion_sets():
    start = time.perf_counter()
    cases = [("A2", 6), ("A3", 24), ("B2", 8)] + [
        (f"I2({m})", 2 * m) for m in range(3, 13)
    ]
    for name, expected_count in cases:
        system = build_system(name)
        oracle = biclosed_subsets(system.table)
        fast = enumerate_biclosed(system)
        assert len(oracle) == expected_count, name
        assert oracle == [s.bits for s in fast], name
        assert set(oracle) == set(system.inv_bits), name
    elapsed = time.perf_counter() - start
    print(f"PASS biclosed oracle: {len(cases)} types, subsets == inversion "
          f"sets, {elapsed:.2f}s")


GOLDEN_COMMANDS = {
    "s4_join.json": ["join", "--type", "A3", "--u", "3124", "--v", "1423",
                     "--format", "json"],
    "a3_root_join.json": ["join", "--type", "A3", "--u", "1 2", "--v", "3 1",
                          "--format", "json"],
    "i2_4_top.json": ["join", "--type", "I2(4)", "--u", "1", "--v", "2 1 2",
                      "--format", "json"],
    "i2_4_partial.json": ["join", "--type", "I2(4)", "--u", "1",
                          "--v", "1 2 1", "--format", "json"],
}


def test_golden_outputs_byte_stable():
    import json

    start = time.perf_counter()
    for name, argv in GOLDEN_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(list(argv))
        assert rc == 0, name
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert buf.getvalue() == expected, f"{name} output drifted"

    # the frozen documents also carry the right mathematics
    s4 = json.loads((GOLDEN / "s4_join.json").read_text())
    assert s4["one_line"]["join"] == "4312"
    closed, join = pm.transitive_closure_join(
        pm.parse_perm("3124"), pm.parse_perm("1423")
    )
    assert pm.format_perm(join) == "4312"
    assert closed == frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})
    assert (1, 2) not in closed

    a3 = json.loads((GOLDEN / "a3_root_join.json").read_text())
    assert a3["join_inversions"]["roots"] == [
        "a1", "a3", "a1 + a2", "a1 + a2 + a3"
    ]

    top = json.loads((GOLDEN / "i2_4_top.json").read_text())
    assert len(top["join"].split()) == 4
    assert len(top["reachable_reflections"]["indices"]) == 4

    partial = json.loads((GOLDEN / "i2_4_partial.json").read_text())
    assert partial["join"] == "1 2 1"
    assert "a2" not in partial["reachable_reflections"]["roots"]
    elapsed = time.perf_counter() - start
    print(f"PASS golden outputs: {len(GOLDEN_COMMANDS)} files byte-stable, "
          f"{elapsed:.2f}s")


# -- symmetric-group model helpers -----------------------------------------------------


def _all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def _brute_join(tl_by_perm, p, q):
    """Shortest permutation whose left-reflection set contains both; checked
    inclusion-minimal among all upper bounds."""
    union = tl_by_perm[p] | tl_by_perm[q]
    upper = [w for w, tl in tl_by_perm.items() if tl >= union]
    best = min(upper, key=lambda w: len(tl_by_perm[w]))
    assert all(tl_by_perm[best] <= tl_by_perm[w] for w in upper)
    return best


def _is_transposition(perm):
    try:
        pm.as_transposition(perm)
        return True
    except pm.NotEndingAtReflection:
        return False


def _check_path_invariants(path):
    assert pm.check_Tab_confinement(path)
    chain = pm.extract_chain(path)
    a, b = pm.as_transposition(path.end)
    assert chain[0][0] == a and chain[-1][1] == b
    for left, right in zip(chain, chain[1:]):
        assert left[1] == right[0]  # consecutive links share their endpoint


def test_symmetric_group_model():
    start = time.perf_counter()

    # closure join == brute-force join: all of S4, then seeded samples
    s4 = _all_perms(4)
    tl4 = {w: pm.tl_set(w) for w in s4}
    for p in s4:
        for q in s4:
            closed, join = pm.transitive_closure_join(p, q)
            assert join == _brute_join(tl4, p, q)
            assert closed == tl4[join]
    rng = Random(20250815)
    sampled_pairs = 0
    for n in (5, 6):
        perms = _all_perms(n)
        tl = {w: pm.tl_set(w) for w in perms}
        for _ in range(1000):
            p, q = rng.choice(perms), rng.choice(perms)
            _, join = pm.transitive_closure_join(p, q)
            assert join == _brute_join(tl, p, q)
            sampled_pairs += 1

    # a palindromic path reaches every reflection of the join, for all S4 pairs
    path_count = 0
    for p in s4:
        for q in s4:
            closed, _ = pm.transitive_closure_join(p, q)
            union = tl4[p] | tl4[q]
            for t in sorted(closed):
                path = pm.palindromic_path(p, q, t)
                assert path.end == pm.transposition_perm(4, t)
                assert path.labels == tuple(reversed(path.labels))
                assert set(path.labels) <= union
                path_count += 1
            for t in sorted(set(itertools.combinations(range(1, 5), 2)) - closed):
                with pytest.raises(pm.NotInClosure):
                    pm.palindromic_path(p, q, t)

    # confinement and chain extraction: every increasing path to a
    # reflection in S4, then random descent-generated paths in S5
    exhaustive = 0
    trans4 = list(itertools.combinations(range(1, 5), 2))
    stack = [(pm.identity(4), ())]
    while stack:
        vertex, labels = stack.pop()
        if labels and _is_transposition(vertex):
            _check_path_invariants(pm.BruhatPath.from_labels(4, labels))
            exhaustive += 1
        count = pm.inv_count(vertex)
        for t in trans4:
            bigger = pm.lmul_transposition(t, vertex)
            if pm.inv_count(bigger) > count:
                stack.append((bigger, labels + (t,)))

    trans5 = list(itertools.combinations(range(1, 6), 2))
    for _ in range(10_000):
        t = rng.choice(trans5)
        vertex = pm.transposition_perm(5, t)
        down_labels = []
        while vertex != pm.identity(5):
            count = pm.inv_count(vertex)
            step = rng.choice([
                s for s in trans5
                if pm.inv_count(pm.lmul_transposition(s, vertex)) < count
            ])
            down_labels.append(step)
            vertex = pm.lmul_transposition(step, vertex)
        _check_path_invariants(
            pm.BruhatPath.from_labels(5, tuple(reversed(down_labels)))
        )

    elapsed = time.perf_counter() - start
    print(f"PASS symmetric-group model: 576 + {sampled_pairs} joins, "
          f"{path_count} palindromic paths, {exhaustive} exhaustive + "
          f"10000 sampled chains, {elapsed:.2f}s")


def test_exact_tables_match_float_geometry():
    start = time.perf_counter()
    names = ["A3", "B3", "H3", "I2(5)", "I2(7)", "F4", "H4"]
    for name in names:
        table = generate_positive_roots(CoxeterGraph.from_name(name))
        # B_ij = -cos(pi/m_ij), so B_ii = -cos(pi) = 1
        form = -np.cos(np.pi / np.array(table.graph.m, dtype=float))
        roots = np.array([[c.to_float() for c in r.coords] for r in table.roots])
        assert (roots >= -1e-12).all() and (roots.max(axis=1) > 0).all()
        pairing = 2 * roots @ form @ roots.T  # [t, r] = 2B(beta_t, beta_r)
        assert np.allclose(np.diag(pairing), 2, atol=1e-9)
        act = np.array(table.act)
        images = roots[None, :, :] - pairing[:, :, None] * roots[:, None, :]
        expected = np.sign(act)[..., None] * roots[np.abs(act) - 1]
        assert np.allclose(images, expected, atol=1e-9)
    elapsed = time.perf_counter() - start
    print(f"PASS float geometry: {len(names)} types, unit norms and every "
          f"reflection image within 1e-9, {elapsed:.2f}s")


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_scalar_degrees_and_field_axioms():
    start = time.perf_counter()
    for L in range(3, 61):
        assert build_ring(L).degree == _phi(2 * L) // 2, L

    rng = Random(13)
    triples = 10_000
    for L in (3, 4, 5, 6, 7, 12, 30):
        ring = build_ring(L)
        zero, one = ring.zero(), ring.one()

        def rand_scalar():
            num = tuple(rng.randint(-9, 9) for _ in range(ring.degree))
            return AlgebraicScalar(ring, num, rng.randint(1, 9))

        for _ in range(triples):
            a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a * zero == zero
            if a != zero:
                assert a * a.inverse() == one
    elapsed = time.perf_counter() - start
    print(f"PASS scalar layer: degrees 3..60, 7 rings x {triples} triples "
          f"of field axioms, {elapsed:.2f}s")
