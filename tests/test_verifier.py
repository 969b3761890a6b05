"""Tests for the batched sweep engine.

The batched code path (distinct unions, the packed-word level dynamic
program, subset-test joins) is cross-checked against the single-pair
routines, exhaustively on small groups, and against the oracles in
oracles.py on every union of I2(64), at the root guard.  The single-pair
routines call the same kernels with a batch of one, so the independent
check of both kernels is test_kernels.py, against the oracles in
oracles.py.
"""

import itertools
import json
import random
import tracemalloc
from types import SimpleNamespace

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
from weakorder import coxeter
from weakorder import verify as vf


# -- batched engine vs per-pair routines -----------------------------------------------


def _inv_words(system):
    """Inversion sets as one uint64 word each (every type here has <= 64 roots)."""
    return system.inv_words[:, 0]


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
def test_batched_matches_per_pair_routines(name, monkeypatch):
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 64)
    system = build_system(name)
    words = _inv_words(system)
    n = system.size
    us = np.repeat(np.arange(n, dtype=np.int32), n)
    vs = np.tile(np.arange(n, dtype=np.int32), n)
    unions, inverse = np.unique(words[us] | words[vs], return_inverse=True)
    lhs_u, rl_u, rr_u = vf._sweep_unions(system, unions, True, True, True, workers=1)
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
    for code in ("H", "D", "EQ", "HD"):
        report = sweep(name, code)
        assert report.ok
        assert report.failure_count == 0
        assert report.failures == []
        assert report.pairs_checked == build_system(name).size ** 2


def test_sweep_reports_its_conjecture_code():
    for code in ("H", "D", "EQ", "HD"):
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


@pytest.mark.parametrize(
    "n", [1, 2, 3, 24, 1152, 1920, 14400, 51840, 2903040, 2**31 - 1, 2**31]
)
def test_sampled_pairs_are_the_randrange_draws(n):
    """The pairs drawn at once are the ids of the randrange loop: us from
    the first `sample` calls, vs from the next."""
    for sample, seed in itertools.product((0, 1, 5, 2000), (0, 1, 7)):
        rng = random.Random(seed)
        us = [rng.randrange(n) for _ in range(sample)]
        vs = [rng.randrange(n) for _ in range(sample)]
        got_us, got_vs = vf._pair_arrays(SimpleNamespace(size=n), sample, seed)
        assert got_us.dtype == got_vs.dtype == np.int32
        assert got_us.tolist() == us and got_vs.tolist() == vs, (sample, seed)


@pytest.mark.parametrize("n", [0, 2**31 + 1, 2**32])
def test_sampled_pairs_need_int32_ids(n):
    with pytest.raises(vf.UsageError):
        vf._pair_arrays(SimpleNamespace(size=n), 5, 1)


def test_exhaustive_sweep_reports_no_seed():
    report = sweep("A2", "H", seed=99)
    assert report.seed is None
    sampled = sweep("A2", "H", sample=10, seed=99)
    assert sampled.seed == 99


def test_worker_pool_matches_single_process(monkeypatch):
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 32)
    solo = sweep("A3", "H", workers=1)
    pooled = sweep("A3", "H", workers=2)
    assert pooled.workers == 2
    assert solo.ok and pooled.ok
    assert solo.pairs_checked == pooled.pairs_checked


def test_root_count_guard():
    with pytest.raises(ValueError):
        sweep("I2(65)", "H")
    # 64 roots, one full uint64 word, is the boundary and must still work
    report = sweep("I2(64)", "H", sample=50, seed=1)
    assert report.ok


def test_sixty_four_roots_sweep_every_union_against_the_oracles(monkeypatch):
    system = build_system("I2(64)")
    report = sweep(system, "EQ")
    assert report.ok and report.pairs_checked == system.size**2
    words = _inv_words(system)
    unions = np.unique(words[:, None] | words[None, :])
    assert (unions >> np.uint64(63) & np.uint64(1)).any()  # root 63 is covered
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 64)
    lhs, rhs_l, rhs_r = vf._sweep_unions(system, unions, True, True, True, workers=1)
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


# one type per key width the dedupe sorts in
KEY_WIDTHS = {"A3": np.uint8, "H3": np.uint16, "F4": np.uint32, "I2(64)": np.uint64}


def _block_cells(blocks, n):
    """The pairs of each block as cells u * n + v, block after block."""
    cells = []
    for us, vs, keep in blocks:
        grid = np.add(*np.broadcast_arrays(us * n, vs))
        cells.append(grid.ravel() if keep is None else grid[keep])
    return np.concatenate(cells)


def test_failure_records_sorted_and_truncated(monkeypatch):
    def key(rec):
        def ln(text):
            return 0 if text == "e" else len(text.split())

        return (ln(rec["u"]), ln(rec["v"]))

    for name, width in KEY_WIDTHS.items():
        system = build_system(name)
        n = system.size
        words = vf._union_keys(system)
        assert words.dtype == width
        unions = np.unique(words[:, None] | words[None, :])  # pretend every union failed
        rhs = _inv_words(system)[np.zeros(unions.size, dtype=np.int32)]
        # blocks of up to 2^20 pairs (one block but on F4), then blocks of 2
        # rows whose kept records are merged block by block; each block's
        # failing cells looked up one by one, then by its sorted unions
        results = []
        for cells, sorted_from in itertools.product((1 << 20, 2 * n), (unions.size + 1, 1)):
            monkeypatch.setattr(vf, "_PAIR_BLOCK_CELLS", cells)
            monkeypatch.setattr(vf, "_SORTED_LOOKUP_UNIONS", sorted_from)
            blocks = vf._pair_blocks(n, None, ordered=True)
            count, records = vf._failure_records(system, blocks, unions, rhs, rhs)
            assert count == n * n
            assert len(records) == vf.MAX_RECORDED_FAILURES
            assert records[0]["u"] == "e" and records[0]["v"] == "e"
            # sorted by (len(u), len(v)) first: the identity row comes before
            # any pair with a longer u, and within the row v lengths ascend
            keys = [key(r) for r in records]
            assert keys == sorted(keys)
            assert all("reachable_left" in r and "reachable_right" in r for r in records)
            blocks = vf._pair_blocks(n, None, ordered=True)
            _, only_h = vf._failure_records(system, blocks, unions, rhs, None)
            assert all("reachable_right" not in r for r in only_h)
            assert all("reachable_left" in r for r in only_h)
            results.append(records)
        assert all(records == results[0] for records in results), name
        assert len(system.lengths) == n


@pytest.mark.parametrize("name", KEY_WIDTHS)
def test_streamed_dedupe_matches_one_unique_over_all_pairs(monkeypatch, name):
    system = build_system(name)
    n = system.size
    words = vf._union_keys(system)
    width = KEY_WIDTHS[name]
    assert words.dtype == width and np.array_equal(words, _inv_words(system))
    monkeypatch.setattr(vf, "_PAIR_BLOCK_CELLS", 3 * n)
    half = list(vf._pair_blocks(n, None, ordered=False))
    ordered = list(vf._pair_blocks(n, None, ordered=True))
    assert len(half) > 3 and len(ordered) > 3
    # the half holds each pair u <= v once, the ordered blocks each pair once
    # and in order
    upper = np.triu_indices(n)
    assert np.array_equal(np.sort(_block_cells(half, n)), upper[0] * n + upper[1])
    assert np.array_equal(_block_cells(ordered, n), np.arange(n * n))
    streamed = vf._distinct_unions(words, iter(half))
    assert streamed.dtype == width
    wide = _inv_words(system)
    assert np.array_equal(streamed, np.unique(wide[:, None] | wide[None, :]))


@pytest.mark.parametrize("name", ["F4", "D5"])
def test_exhaustive_sweep_memory_stays_small(name):
    # per-pair id arrays would be 4 MB a block of 262,144 pairs, with as
    # much again for their gathered unions; the broadcast grid needs neither
    system = build_system(name)
    system.numpy_tables()
    tracemalloc.start()
    try:
        report = sweep(system, "EQ", workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.pairs_checked == system.size**2
    assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MB"


# -- fault injection on real groups: counts and records against the old method ----------


_REACH = vf._reachable_reflection_bits


def _corrupt_routes(monkeypatch, sides, every_union=False):
    """Flip root 0 in the routes' bits on `sides`, for the unions picked by a
    hash of their value (about one in eight), or for every union."""

    def corrupted(system, unions, side):
        bits = _REACH(system, unions, side).copy()
        if side in sides:
            spread = unions[:, 0] * np.uint64(0x9E3779B97F4A7C15)
            picked = every_union | (spread >> np.uint64(61) == 0)
            bits[picked, 0] ^= np.uint64(1)
        return bits

    monkeypatch.setattr(vf, "_reachable_reflection_bits", corrupted)


def _reference_failures(system, conjecture, us, vs):
    """Failure count and records by one np.unique with an inverse over every
    pair, the kernels over all its unions, and one sort of the failing pairs."""
    words = _inv_words(system)
    unions, inverse = np.unique(words[us] | words[vs], return_inverse=True)
    lhs, rhs_l, rhs_r = vf._sweep_unions(system, unions, True, True, True, workers=1)
    union_ok = {
        "H": lhs == rhs_l,
        "D": lhs == rhs_r,
        "EQ": rhs_l == rhs_r,
        "HD": (lhs == rhs_l) & (lhs == rhs_r),
    }[conjecture]
    bad = np.nonzero(~union_ok[inverse])[0]
    lengths = np.array(system.lengths)
    order = np.lexsort((vs[bad], us[bad], lengths[vs[bad]], lengths[us[bad]]))
    roots = system.table.roots

    def names(bits):
        return [roots[r].render() for r in range(len(roots)) if int(bits) >> r & 1]

    records = []
    for p in bad[order][: vf.MAX_RECORDED_FAILURES]:
        k = inverse[p]
        rec = {
            "u": system.element(int(us[p])).word_str(),
            "v": system.element(int(vs[p])).word_str(),
            "join_inversions": names(lhs[k]),
        }
        if conjecture != "D":
            rec["reachable_left"] = names(rhs_l[k])
        if conjecture != "H":
            rec["reachable_right"] = names(rhs_r[k])
        records.append(rec)
    return bad.size, records


def _all_pairs(n):
    grid = np.arange(n, dtype=np.int32)
    return np.repeat(grid, n), np.tile(grid, n)


@pytest.mark.parametrize("sample", [None, 500])
@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(9)"])
def test_injected_faults_are_counted_and_recorded_like_the_old_method(
    monkeypatch, name, sample
):
    system = build_system(name)
    monkeypatch.setattr(vf, "_PAIR_BLOCK_CELLS", 4 * system.size)  # several blocks
    if sample is None:
        us, vs = _all_pairs(system.size)
    else:
        us, vs = vf._pair_arrays(system, sample, 3)
    # each corruption with the one conjecture that reads no corrupted route,
    # or, with the same corruption on both routes, EQ: the routes still
    # agree.  These groups fail too few unions for the sorted lookup of
    # failure records, so it is also made to run from one failing union on.
    cases = itertools.product(
        ((("left",), "D"), (("right",), "H"), (("left", "right"), "EQ")),
        (vf._SORTED_LOOKUP_UNIONS, 1),
    )
    for (sides, passing), sorted_from in cases:
        _corrupt_routes(monkeypatch, sides)
        monkeypatch.setattr(vf, "_SORTED_LOOKUP_UNIONS", sorted_from)
        for code in ("H", "D", "EQ", "HD"):
            report = sweep(system, code, sample=sample, seed=3, workers=1)
            count, records = _reference_failures(system, code, us, vs)
            assert report.pairs_checked == us.size
            assert report.failure_count == count, (sides, code)
            assert json.dumps(report.failures) == json.dumps(records), (sides, code)
            assert report.ok == (code == passing), (sides, code)


def test_every_pair_failing_records_the_first_hundred_in_key_order(monkeypatch):
    system = build_system("B3")
    n = system.size
    monkeypatch.setattr(vf, "_PAIR_BLOCK_CELLS", 5 * n)
    _corrupt_routes(monkeypatch, ("left",), every_union=True)
    report = sweep(system, "EQ")
    assert report.failure_count == n * n
    us, vs = _all_pairs(n)
    lengths = system.lengths
    first = sorted(zip(us.tolist(), vs.tolist()),
                   key=lambda p: (lengths[p[0]], lengths[p[1]], p[0], p[1]))
    first = first[: vf.MAX_RECORDED_FAILURES]
    assert [(r["u"], r["v"]) for r in report.failures] == [
        (system.element(u).word_str(), system.element(v).word_str()) for u, v in first
    ]
    assert report.failures == _reference_failures(system, "EQ", us, vs)[1]


@pytest.mark.parametrize("name,sample", [("A3", None), ("H3", None), ("F4", 3000)])
def test_one_word_reach_tiles_leave_the_reports_unchanged(monkeypatch, name, sample):
    """Every report, passing or failing, is the same when each reach tile is
    one group of 4 words, 256 unions, as with the default tiles."""
    system = build_system(name)
    _corrupt_routes(monkeypatch, ("left",))
    reports = []
    for tile_bytes in (coxeter._REACH_TILE_BYTES, 1):
        monkeypatch.setattr(coxeter, "_REACH_TILE_BYTES", tile_bytes)
        for code in ("H", "D", "EQ", "HD"):
            report = sweep(system, code, sample=sample, seed=5, workers=1).as_dict()
            del report["wall_time_ms"]
            reports.append(json.dumps(report))
    assert reports[:4] == reports[4:]
    assert '"failure_count": 0' in reports[1]  # D reads no corrupted route


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    system = build_system("A3")
    unions = np.unique(_inv_words(system))
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 7)
    a = vf._sweep_unions(system, unions, True, True, True, workers=1)
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 10_000)
    b = vf._sweep_unions(system, unions, True, True, True, workers=1)
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


def test_empty_samples_are_usage_errors():
    for sample in (0, -1):
        with pytest.raises(vf.UsageError, match="sample must be a positive integer"):
            sweep("A2", "H", sample=sample, seed=1)


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
        monkeypatch.setattr(vf, "DEFAULT_CHUNK", chunk)
        report = sweep(system, "H", workers=workers)
        assert report.ok and report.workers == workers
        assert sizes == expected, (chunk, workers)
    monkeypatch.setattr(vf.os, "cpu_count", lambda: None)
    sizes.clear()
    monkeypatch.setattr(vf, "DEFAULT_CHUNK", 4)
    assert sweep(system, "H", workers=8).ok and sizes == []


def test_report_dataclass_defaults():
    report = SweepReport(
        type="A2", conjecture="H", pairs_checked=36, failure_count=0
    )
    assert report.ok
    assert report.schema == 1
    assert report.failures == []
