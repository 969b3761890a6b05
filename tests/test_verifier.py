"""Tests for the batched sweep engine.

The batched code path (distinct unions, the packed-word level dynamic
program, subset-test joins) is cross-checked against the single-pair
routines, exhaustively on small groups, and against the oracles in
oracles.py on every union of I2(64), at the root guard.  The single-pair
routines call the same kernels with a batch of one, so the independent
check of both kernels is test_kernels.py, against the oracles in
oracles.py.
"""

import json

import numpy as np
import pytest

from oracles import joins_matmul, reachable_ids_push, reflection_bits
from weakorder import (
    SweepReport,
    build_system,
    check_conjecture_H,
    conjectural_join_D,
    join_bruteforce,
    left_reflection_set,
    sweep,
    workers_from_env,
)
from weakorder import verify as vf


# -- batched engine vs per-pair routines -----------------------------------------------


def _inv_words(system):
    """Inversion sets as one uint64 word each (every type here has <= 64 roots)."""
    return system.numpy_tables().inv_words[:, 0]


def _per_pair_bits(system):
    """For every ordered pair: packed lhs / rhs-left / rhs-right bits."""
    n = system.size
    lhs = np.zeros(n * n, dtype=np.uint64)
    rhs_l = np.zeros(n * n, dtype=np.uint64)
    rhs_r = np.zeros(n * n, dtype=np.uint64)
    for i in range(n):
        u = system.element(i)
        for j in range(n):
            v = system.element(j)
            p = i * n + j
            lhs[p] = left_reflection_set(join_bruteforce(u, v)).bits
            verdict = check_conjecture_H(u, v)
            rhs_l[p] = verdict.rhs.bits
            rhs_r[p] = conjectural_join_D(
                system, left_reflection_set(u), left_reflection_set(v)
            ).bits
    return lhs, rhs_l, rhs_r


@pytest.mark.parametrize("name", ["A3", "I2(6)"])
def test_batched_matches_per_pair_routines(name):
    system = build_system(name)
    words = _inv_words(system)
    n = system.size
    us = np.repeat(np.arange(n, dtype=np.int32), n)
    vs = np.tile(np.arange(n, dtype=np.int32), n)
    unions, inverse = np.unique(words[us] | words[vs], return_inverse=True)
    lhs_u, rl_u, rr_u = vf._sweep_unions(
        system, unions, True, True, workers=1, chunk=64
    )
    lhs, rhs_l, rhs_r = lhs_u[inverse], rl_u[inverse], rr_u[inverse]

    exp_lhs, exp_l, exp_r = _per_pair_bits(system)
    assert np.array_equal(lhs, exp_lhs)
    assert np.array_equal(rhs_l, exp_l)
    assert np.array_equal(rhs_r, exp_r)


def test_joins_for_chunk_against_join_bruteforce():
    system = build_system("B3")
    words = _inv_words(system)
    rng = np.random.default_rng(20240817)
    us = rng.integers(0, system.size, size=80).astype(np.int32)
    vs = rng.integers(0, system.size, size=80).astype(np.int32)
    unions = words[us] | words[vs]
    join_ids = vf._joins_for_chunk(system, unions[:, None])
    for p in range(us.size):
        expected = join_bruteforce(system.element(int(us[p])), system.element(int(vs[p])))
        assert int(join_ids[p]) == expected.index


def test_reachable_bits_match_single_pair_route():
    system = build_system("H3")
    words = _inv_words(system)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, system.size, size=40).astype(np.int32)
    unions = words[ids] | words[ids[::-1].copy()]
    left_bits = vf._reachable_reflection_bits(system, unions[:, None], "left")[:, 0]
    for p in range(ids.size):
        u = system.element(int(ids[p]))
        v = system.element(int(ids[::-1][p]))
        expected = check_conjecture_H(u, v).rhs.bits
        assert int(left_bits[p]) == expected


# -- sweep outcomes on known groups ----------------------------------------------------


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "I2(5)", "I2(7)", "H3"])
def test_exhaustive_sweeps_hold(name):
    for code in ("H", "D", "EQ"):
        report = sweep(name, code)
        assert report.ok
        assert report.failure_count == 0
        assert report.failures == []
        assert report.pairs_checked == build_system(name).size ** 2


def test_sweep_reports_its_conjecture_code():
    for code in ("H", "D", "EQ"):
        assert sweep("A3", code).as_dict()["conjecture"] == code
    with pytest.raises(ValueError):
        sweep("A3", "X")


def test_sweep_accepts_prebuilt_system():
    system = build_system("A3")
    report = sweep(system, "H")
    assert report.ok
    assert report.type == "A3"
    assert report.pairs_checked == 24 * 24


def test_sampled_sweep_is_deterministic():
    a = sweep("B3", "H", sample=200, seed=11)
    b = sweep("B3", "H", sample=200, seed=11)
    assert a.pairs_checked == b.pairs_checked == 200
    assert a.seed == b.seed == 11
    assert a.ok and b.ok
    ua, va = vf._pair_arrays(build_system("B3"), 200, 11)
    ub, vb = vf._pair_arrays(build_system("B3"), 200, 11)
    assert np.array_equal(ua, ub) and np.array_equal(va, vb)
    uc, _ = vf._pair_arrays(build_system("B3"), 200, 12)
    assert not np.array_equal(ua, uc)


def test_exhaustive_sweep_reports_no_seed():
    report = sweep("A2", "H", seed=99)
    assert report.seed is None
    sampled = sweep("A2", "H", sample=10, seed=99)
    assert sampled.seed == 99


def test_worker_pool_matches_single_process():
    solo = sweep("A3", "H", workers=1, chunk=32)
    pooled = sweep("A3", "H", workers=2, chunk=32)
    assert pooled.workers == 2
    assert solo.ok and pooled.ok
    assert solo.pairs_checked == pooled.pairs_checked


def test_root_count_guard():
    with pytest.raises(ValueError):
        sweep("I2(65)", "H")
    # 64 roots, one full uint64 word, is the boundary and must still work
    report = sweep("I2(64)", "H", sample=50, seed=1)
    assert report.ok


def test_sixty_four_roots_sweep_every_union_against_the_oracles():
    system = build_system("I2(64)")
    report = sweep(system, "EQ")
    assert report.ok and report.pairs_checked == system.size**2
    words = _inv_words(system)
    unions = np.unique(words[:, None] | words[None, :])
    assert (unions >> np.uint64(63) & np.uint64(1)).any()  # root 63 is covered
    lhs, rhs_l, rhs_r = vf._sweep_unions(system, unions, True, True, workers=1, chunk=64)
    union_bits = [int(u) for u in unions]
    assert lhs.tolist() == [system.inv_bits[j] for j in joins_matmul(system, union_bits)]
    for side, rhs in (("left", rhs_l), ("right", rhs_r)):
        reached = reachable_ids_push(system, union_bits, side)
        assert rhs.tolist() == [reflection_bits(system, row) for row in reached], side


# -- report shape ----------------------------------------------------------------------


def test_report_key_order_is_stable():
    report = sweep("A2", "H")
    assert list(report.as_dict().keys()) == [
        "schema",
        "type",
        "conjecture",
        "backend",
        "pairs_checked",
        "failures",
        "failure_count",
        "wall_time_ms",
        "seed",
        "workers",
    ]
    doc = json.loads(report.to_json())
    assert doc["schema"] == 1
    assert doc["type"] == "A2"
    assert doc["conjecture"] == "H"
    assert doc["backend"] == "exact"
    assert doc["failure_count"] == 0


def test_report_names_matrix_builds():
    from weakorder import CoxeterGraph

    graph = CoxeterGraph(2, ((1, 3), (3, 1)))
    report = sweep(graph, "H")
    assert report.type.startswith("matrix")


def test_failure_records_sorted_and_truncated():
    system = build_system("A3")
    n = system.size
    us = np.repeat(np.arange(n, dtype=np.int32), n)
    vs = np.tile(np.arange(n, dtype=np.int32), n)
    words = _inv_words(system)
    unions, inverse = np.unique(words[us] | words[vs], return_inverse=True)
    lhs = words[np.zeros(unions.size, dtype=np.int32)]
    bad = np.ones(n * n, dtype=bool)  # pretend every pair failed
    records = vf._failure_records(
        system, us, vs, bad, lhs, lhs, lhs, inverse, "EQ"
    )
    assert len(records) == vf.MAX_RECORDED_FAILURES
    assert records[0]["u"] == "e" and records[0]["v"] == "e"
    # sorted by (len(u), len(v)) first: the identity row comes before any
    # pair with a longer u, and within the row v lengths ascend
    lengths = system.lengths

    def key(rec):
        def ln(text):
            return 0 if text == "e" else len(text.split())

        return (ln(rec["u"]), ln(rec["v"]))

    keys = [key(r) for r in records]
    assert keys == sorted(keys)
    assert all("reachable_left" in r and "reachable_right" in r for r in records)
    only_h = vf._failure_records(system, us, vs, bad, lhs, lhs, lhs, inverse, "H")
    assert all("reachable_right" not in r for r in only_h)
    assert all("reachable_left" in r for r in only_h)
    assert len(lengths) == n


def test_chunk_boundaries_do_not_change_results():
    system = build_system("A3")
    unions = np.unique(_inv_words(system))
    a = vf._sweep_unions(system, unions, True, True, workers=1, chunk=7)
    b = vf._sweep_unions(system, unions, True, True, workers=1, chunk=10_000)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# -- environment-driven worker count ---------------------------------------------------


def test_workers_from_env(monkeypatch):
    monkeypatch.delenv("WEAKORDER_WORKERS", raising=False)
    assert workers_from_env() == 1
    assert workers_from_env(default=3) == 3
    monkeypatch.setenv("WEAKORDER_WORKERS", "4")
    assert workers_from_env() == 4
    assert workers_from_env(default=9) == 4
    monkeypatch.setenv("WEAKORDER_WORKERS", "0")
    with pytest.raises(ValueError):
        workers_from_env()
    monkeypatch.setenv("WEAKORDER_WORKERS", "junk")
    with pytest.raises(ValueError):
        workers_from_env()


def test_sweep_reads_workers_env(monkeypatch):
    monkeypatch.setenv("WEAKORDER_WORKERS", "2")
    report = sweep("A2", "H")
    assert report.workers == 2
    explicit = sweep("A2", "H", workers=1)
    assert explicit.workers == 1


def test_workers_below_one_are_a_usage_error(monkeypatch):
    monkeypatch.delenv("WEAKORDER_WORKERS", raising=False)
    for workers in (0, -3):
        with pytest.raises(vf.UsageError, match="workers must be a positive integer"):
            sweep("A2", "H", workers=workers)


def test_empty_samples_and_chunks_are_usage_errors():
    for sample in (0, -1):
        with pytest.raises(vf.UsageError, match="sample must be a positive integer"):
            sweep("A2", "H", sample=sample, seed=1)
    for chunk in (0, -4):
        with pytest.raises(vf.UsageError, match="chunk must be a positive integer"):
            sweep("A2", "H", chunk=chunk)


def test_pool_is_bounded_by_chunks_and_cpus(monkeypatch):
    sizes = []

    class FakePool:  # records its size and runs the chunks in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return [fn(span) for span in spans]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(vf, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(vf.os, "cpu_count", lambda: 3)
    system = build_system("A3")
    words = _inv_words(system)
    unions = np.unique(words[:, None] | words[None, :])
    half = -(-unions.size // 2)
    for chunk, workers, expected in (
        (4, 100_000, [3]),  # many chunks: one process per CPU
        (half, 100_000, [2]),  # two chunks
        (4, 2, [2]),
        (unions.size, 100_000, []),  # one chunk: no pool
        (4, 1, []),
    ):
        sizes.clear()
        report = sweep(system, "H", workers=workers, chunk=chunk)
        assert report.ok and report.workers == workers
        assert sizes == expected, (chunk, workers)
    monkeypatch.setattr(vf.os, "cpu_count", lambda: None)
    sizes.clear()
    assert sweep(system, "H", workers=8, chunk=4).ok and sizes == []


def test_report_dataclass_defaults():
    report = SweepReport(
        type="A2", conjecture="H", pairs_checked=36, failure_count=0
    )
    assert report.ok
    assert report.schema == 1
    assert report.failures == []
