"""The symmetric-group transposition model: joins, closures, paths, chains."""

import itertools
import random

import pytest

from weakorder import permutations as pm
from weakorder.coxeter import build_system
from weakorder.weak_order import join_bruteforce


def brute_force_join(p, q, tl_by_perm):
    """Independent oracle: unique inclusion-minimal upper bound by full scan."""
    union = tl_by_perm[p] | tl_by_perm[q]
    uppers = [w for w, tl in tl_by_perm.items() if union <= tl]
    best = min(uppers, key=pm.inv_count)
    assert all(tl_by_perm[best] <= tl_by_perm[w] for w in uppers)
    return best


def all_tl_sets(n):
    return {w: pm.tl_set(w) for w in itertools.permutations(range(1, n + 1))}


def test_parse_and_format():
    assert pm.parse_perm("3124") == (3, 1, 2, 4)
    assert pm.parse_perm("10,2,3,4,5,6,7,8,9,1")[0] == 10
    assert pm.format_perm((3, 1, 2, 4)) == "3124"
    assert pm.format_perm(tuple([10] + list(range(2, 10)) + [1])).startswith("10,")
    with pytest.raises(ValueError):
        pm.parse_perm("1135")
    with pytest.raises(ValueError):
        pm.parse_perm("12", n=3)


def test_compose_and_inverse():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(2, 8)
        p = tuple(rng.sample(range(1, n + 1), n))
        q = tuple(rng.sample(range(1, n + 1), n))
        pq = pm.compose(p, q)
        for i in range(1, n + 1):
            assert pq[i - 1] == p[q[i - 1] - 1]
        assert pm.compose(p, pm.inverse(p)) == pm.identity(n)
        assert pm.compose(pm.inverse(p), p) == pm.identity(n)


def test_left_multiplication_swaps_values():
    p = (3, 1, 2, 4)
    assert pm.lmul_transposition((1, 3), p) == (1, 3, 2, 4)
    assert pm.lmul_transposition((1, 4), pm.identity(4)) == (4, 2, 3, 1)
    t = pm.transposition_perm(5, (2, 5))
    assert pm.compose(t, t) == pm.identity(5)
    assert pm.as_transposition(t) == (2, 5)
    with pytest.raises(pm.NotEndingAtReflection):
        pm.as_transposition((2, 3, 1))


def test_inversion_and_tl_sets_against_position_scan():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2, 9)
        p = tuple(rng.sample(range(1, n + 1), n))
        inv = {
            (i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, n)
            if p[i] > p[j]
        }
        assert pm.inv_set(p) == inv
        assert pm.inv_count(p) == len(inv)
        # T_L via positions of values: a before b in one-line iff not inverted
        pos = {val: k for k, val in enumerate(p)}
        tl = {
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if pos[a] > pos[b]
        }
        assert pm.tl_set(p) == tl


def test_tl_set_is_inv_set_of_inverse():
    for p in itertools.permutations(range(1, 6)):
        assert pm.tl_set(p) == pm.inv_set(pm.inverse(p))


def test_word_round_trip():
    for p in itertools.permutations(range(1, 6)):
        word = pm.word_of_perm(p)
        assert pm.perm_of_word(5, word) == p
        assert len(word) == pm.inv_count(p)


def test_transitive_closure_against_matrix_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randrange(2, 9)
        pairs = {
            (a, b)
            for a in range(1, n)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.3
        }
        closed = pm.transitive_closure(pairs, n)
        # oracle: repeated relational squaring on an adjacency matrix
        adj = [[False] * (n + 1) for _ in range(n + 1)]
        for a, b in pairs:
            adj[a][b] = True
        changed = True
        while changed:
            changed = False
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if not adj[a][b] and any(
                        adj[a][c] and adj[c][b] for c in range(1, n + 1)
                    ):
                        adj[a][b] = True
                        changed = True
        oracle = {
            (a, b) for a in range(1, n + 1) for b in range(1, n + 1) if adj[a][b]
        }
        assert closed == oracle


def test_transitive_closure_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pm.transitive_closure([(3, 2)], 4)


def test_worked_example_s4():
    p, q = pm.parse_perm("3124"), pm.parse_perm("1423")
    assert sorted(pm.tl_set(p)) == [(1, 3), (2, 3)]
    assert sorted(pm.tl_set(q)) == [(2, 4), (3, 4)]
    closed, join = pm.transitive_closure_join(p, q)
    assert pm.format_perm(join) == "4312"
    assert sorted(closed) == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert (1, 2) not in closed


def test_closure_join_equals_brute_force_s4():
    tls = all_tl_sets(4)
    for p, q in itertools.product(tls, repeat=2):
        closed, join = pm.transitive_closure_join(p, q)
        assert join == brute_force_join(p, q, tls)
        assert pm.tl_set(join) == closed


def test_closure_join_equals_group_join_via_dictionary():
    system = build_system("A3")
    elems = {system.permutation_of(x): x for x in system.elements()}
    for p, q in itertools.product(elems, repeat=2):
        _, join = pm.transitive_closure_join(p, q)
        assert join == system.permutation_of(join_bruteforce(elems[p], elems[q]))


def test_closure_join_sampled_s5_s6():
    rng = random.Random(1009)
    for n in (5, 6):
        tls = all_tl_sets(n)
        perms = list(tls)
        for _ in range(300):
            p, q = rng.choice(perms), rng.choice(perms)
            closed, join = pm.transitive_closure_join(p, q)
            assert join == brute_force_join(p, q, tls)
            assert pm.tl_set(join) == closed


def test_join_input_validation():
    with pytest.raises(ValueError):
        pm.transitive_closure_join((2, 1), (1, 2, 3))
    with pytest.raises(pm.PermError):
        pm.transitive_closure_join(
            tuple(range(1, 14)), tuple(range(1, 14))
        )


def test_worked_palindromic_path():
    p, q = pm.parse_perm("3124"), pm.parse_perm("1423")
    path = pm.palindromic_path(p, q, (1, 4))
    assert path.labels == ((1, 3), (3, 4), (1, 3))
    assert [pm.format_perm(v) for v in path.vertices] == ["3214", "4213", "4231"]
    assert path.end == pm.transposition_perm(4, (1, 4))
    assert pm.check_Tab_confinement(path)
    assert pm.extract_chain(path) == ((1, 3), (3, 4))


def test_palindromic_path_properties_exhaustive_s4():
    tls = all_tl_sets(4)
    for p, q in itertools.product(tls, repeat=2):
        closed, _ = pm.transitive_closure_join(p, q)
        union = tls[p] | tls[q]
        for t in itertools.combinations(range(1, 5), 2):
            if t in closed:
                path = pm.palindromic_path(p, q, t)
                assert path.labels == path.labels[::-1]
                assert set(path.labels) <= union
                assert path.end == pm.transposition_perm(4, t)
                lengths = [pm.inv_count(v) for v in path.vertices]
                assert all(b > a for a, b in zip(lengths, lengths[1:]))
            else:
                with pytest.raises(pm.NotInClosure):
                    pm.palindromic_path(p, q, t)


def test_palindromic_path_single_edge():
    p = pm.parse_perm("2134")
    path = pm.palindromic_path(p, pm.identity(4), (1, 2))
    assert path.labels == ((1, 2),)


def test_bruhat_path_rejects_non_increasing():
    with pytest.raises(pm.NotIncreasing, match="does not increase length"):
        pm.BruhatPath.from_labels(3, [(1, 2), (1, 2)])


def test_confinement_and_extract_chain_exhaustive_s4():
    # every strictly-increasing path from e ending at a transposition stays
    # inside the interval of its endpoint and carries a linked chain
    trans = list(itertools.combinations(range(1, 5), 2))
    stack = [(pm.identity(4), ())]
    paths = 0
    while stack:
        vertex, labels = stack.pop()
        try:
            a, b = pm.as_transposition(vertex)
        except pm.NotEndingAtReflection:
            pass
        else:
            if labels:
                path = pm.BruhatPath.from_labels(4, labels)
                assert pm.check_Tab_confinement(path), labels
                gamma = pm.extract_chain(path)
                seq = [a] + [j for _, j in gamma]
                assert seq[-1] == b
                assert all(x < y for x, y in zip(seq, seq[1:]))
                # linked: each label continues where the previous ended
                for (i1, j1), (i2, j2) in zip(gamma, gamma[1:]):
                    assert j1 == i2
                paths += 1
        base = pm.inv_count(vertex)
        for t in trans:
            w = pm.lmul_transposition(t, vertex)
            if pm.inv_count(w) > base:
                stack.append((w, labels + (t,)))
    assert paths > 80  # the graph admits many such paths


def test_extract_chain_requires_transposition_endpoint():
    path = pm.BruhatPath.from_labels(4, [(1, 2), (2, 3)])
    assert path.end == (3, 1, 2, 4)  # a 3-cycle, not a transposition
    with pytest.raises(pm.NotEndingAtReflection):
        pm.extract_chain(path)


def test_extract_chain_flags_descending_transport():
    # genuine increasing paths never move the tracked value downward (the
    # exhaustive test above); drive the defensive branch with a fabricated
    # path object whose label sequence would transport 1 -> 3 -> 2
    path = pm.BruhatPath(
        n=4,
        labels=((1, 3), (2, 3)),
        vertices=(
            pm.transposition_perm(4, (1, 3)),
            pm.transposition_perm(4, (1, 2)),
        ),
    )
    with pytest.raises(pm.LinkingViolation):
        pm.extract_chain(path)


def test_reachable_perms_match_group_reachability():
    system = build_system("A3")
    import random as _random

    rng = _random.Random(77)
    all_t = list(itertools.combinations(range(1, 5), 2))
    for _ in range(50):
        labels = [t for t in all_t if rng.random() < 0.5]
        got = pm.bruhat_reachable_perms(4, labels)
        # mirror through the reflection model
        bits = 0
        for r in range(system.table.n_roots):
            refl_perm = system.permutation_of(system.reflection(r))
            if pm.as_transposition(refl_perm) in labels:
                bits |= 1 << r
        from weakorder.coxeter import RootSubset
        from weakorder.bruhat import bruhat_reachable

        mirrored = {
            system.permutation_of(x)
            for x in bruhat_reachable(system, RootSubset(system.table, bits))
        }
        assert got == mirrored
