"""The packed reachability kernel and the closure join kernel, bit for bit
against the independent oracles in oracles.py.

Every distinct union Phi_u | Phi_v of each type is run through both kernels
at several chunk sizes, so that batches of one word, of a word and a bit
and of many words all meet the oracle; a system with more than 64 roots
checks the multi-word inversion sets of the single-pair helpers.  The
reachability oracle is the forward push over all unions at once; the
frontier search checks it on every union of A3, B3 and H3.  The join
kernel runs cone rounds until the whole batch is closed, so batches that
mix sizes, the empty union and the full set meet the matrix-product
oracle, and every inversion set must be closed and its own join;
reachability runs over column tiles, which are shrunk here so that every
type splits.
The reflection-only run of the reachability program must give reach_words'
rows at the reflections bit for bit, and its down-set of the reflections
must hold them and be closed under the steps of both sides.  It stops each
tile at the longest reflection whose root is not in every union of the
tile; the levels it runs are pinned against that count, over tiles that
stop at 0, part way and at the top.  Both runs, on both sides, must be
monotone in their labels.  The paired run, both sides in one level loop,
must give each side's reflection rows bit for bit, and every kernel must
answer a batch of no unions with no words.  No kernel sets a bit past its
batch's unions, e's row included, and a batch of one, which runs as a tile
of bytes, must give every kernel's rows of its union's bit in a batch of
64.
"""

import functools
import operator
import random
import tracemalloc

import numpy as np
import pytest

from oracles import (
    joins_matmul,
    oracle_tables,
    reachable_ids_bfs,
    reachable_ids_push,
    reflection_bits,
)
from weakorder import (
    RootSubset,
    build_system,
    check_conjecture_H,
    conjectural_join_D,
    join_bruteforce,
    left_reflection_set,
    reachable_reflection_roots,
)
from weakorder import coxeter
from weakorder.coxeter import (
    _paired_reflection_words,
    bits_to_words,
    reach_words,
    reflection_reach_words,
    weak_joins,
)

TYPES = ["A3", "B3", "H3", "I2(7)", "D4", "F4"]
CHUNKS = [1, 63, 64, 65, 4096]


@functools.lru_cache(maxsize=None)
def _system(name):
    return build_system(name)


@functools.lru_cache(maxsize=None)
def _unions(name):
    inv = _system(name).inv_bits
    return tuple(sorted({a | b for a in inv for b in inv}))


@functools.lru_cache(maxsize=None)
def _oracle_reach(name, side):
    return reachable_ids_push(_system(name), _unions(name), side)


def _union_words(system, unions):
    n_words = system.inv_words.shape[1]
    return np.array([bits_to_words(bits, n_words) for bits in unions])


def _reach_rows(reach, count):
    """The (count, |W|) bool rows of a reach_words result; padding bits must
    reach nothing past e."""
    bits = np.unpackbits(
        reach.view(np.uint8), axis=1, count=reach.shape[1] * 64, bitorder="little"
    )
    assert not bits[1:, count:].any()
    return bits[:, :count].T.astype(bool)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", TYPES)
def test_kernels_match_oracles_bit_for_bit(name, chunk):
    system = _system(name)
    npt = system.numpy_tables()
    unions = _unions(name)
    words = _union_words(system, unions)
    joins = np.concatenate(
        [weak_joins(system, words[lo:lo + chunk]) for lo in range(0, len(unions), chunk)]
    )
    assert np.array_equal(joins, joins_matmul(system, unions))
    for side in ("left", "right"):
        parts = []
        for lo in range(0, len(unions), chunk):
            reach = reach_words(npt, words[lo:lo + chunk], side)
            kc = min(chunk, len(unions) - lo)
            assert reach.shape == (system.size, -(-kc // 64))
            parts.append(_reach_rows(reach, kc))
        assert np.array_equal(np.concatenate(parts), _oracle_reach(name, side)), side


@pytest.mark.parametrize("tile", [1, 4, 8])
@pytest.mark.parametrize("name", TYPES)
def test_reach_tiles_match_the_push_oracle(monkeypatch, name, tile):
    """Tiles of a budget of `tile` words over a batch of 6 words, two groups
    of 4 words, the last with 2 padding words: a budget below one group
    still runs one group a tile, 4 words make one-group tiles and 8 words
    one tile of both groups."""
    system = _system(name)
    unions = random.Random(tile).choices(_unions(name), k=5 * 64 + 17)
    words = _union_words(system, unions)
    monkeypatch.setattr(coxeter, "_REACH_TILE_BYTES", tile * 8 * system.size + 7)
    for side in ("left", "right"):
        reach = reach_words(system.numpy_tables(), words, side)
        assert reach.shape == (system.size, 6) and reach.flags.c_contiguous
        expected = reachable_ids_push(system, unions, side)
        assert np.array_equal(_reach_rows(reach, len(unions)), expected), side


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4", "D5"])
def test_right_route_is_the_inverse_image_of_the_left(name):
    """x is reached by right products under A exactly when x^-1 is reached by
    left products: (x s_a)^-1 = s_a x^-1, and inverses have equal lengths."""
    system = _system(name)
    inverse = [
        system.element_from_word(system.element(x).word[::-1]).index
        for x in range(system.size)
    ]
    rng = random.Random(200)
    inv = system.inv_bits
    unions = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
              for _ in range(200)]
    words = _union_words(system, unions)
    npt = system.numpy_tables()
    left, right = (reach_words(npt, words, side) for side in ("left", "right"))
    assert np.array_equal(right, left[inverse])


@pytest.mark.parametrize("name", ["A3", "H3", "I2(7)", "F4", "I2(65)"])
def test_join_of_a_batch_that_mixes_union_sizes(name):
    """Shuffled batches with the empty union (join e) and the full set (join
    w0) among the others, in one batch and one union at a time."""
    system = _system(name)
    rng = random.Random(9)
    full = (1 << system.table.n_roots) - 1
    others = _unions(name)
    unions = [0, full, *rng.sample(others, min(60, len(others))), full, 0]
    rng.shuffle(unions)
    assert len({bits.bit_count() for bits in unions}) > 3
    words = _union_words(system, unions)
    expected = joins_matmul(system, unions)
    joins = weak_joins(system, words)
    assert np.array_equal(joins, expected)
    assert joins[unions.index(0)] == 0
    assert joins[unions.index(full)] == system.longest_element.index
    singles = [weak_joins(system, words[i:i + 1])[0] for i in range(len(unions))]
    assert singles == expected.tolist()


@pytest.mark.parametrize("name", ["H4", "E6"])
def test_join_of_seeded_unions_of_large_types(name):
    system = _system(name)
    rng = random.Random(12)
    inv = system.inv_bits
    unions = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
              for _ in range(300)]
    joins = weak_joins(system, _union_words(system, unions))
    assert np.array_equal(joins, joins_matmul(system, unions))


@pytest.mark.parametrize(
    "name", ["A3", "B3", "H3", "I2(7)", "D4", "F4", "D5", "B5", "H4", "E6"]
)
def test_every_inversion_set_is_closed_and_its_own_join(name):
    """One cone round adds nothing to any inversion set, so each is its own
    closure: the join kernel maps every inversion set to its element."""
    system = _system(name)
    sets = coxeter.transpose_bits(system.inv_words, system.table.n_roots)
    assert not system.table.cone_round(sets).any()
    joins = weak_joins(system, system.inv_words)
    assert np.array_equal(joins, np.arange(system.size))


# one round over all 14,400 H4 inversion sets gathered 3 MB, which a process
# that has freed nothing that large maps fresh and page-faults; E6's blocks
# are sized by transpose_bits' byte matrix, larger than its gather
@pytest.mark.parametrize("name,limit", [("H4", 2**19), ("E6", 2**18)])
def test_the_first_join_certifies_in_small_blocks(name, limit):
    system = build_system(name)
    system.table.cone_triples()
    tracemalloc.start()
    try:
        joins = weak_joins(system, system.inv_words[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system._joins_certified and joins.tolist() == [0]
    assert peak <= limit, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_push_oracle_matches_the_bfs_on_every_union(name):
    system = _system(name)
    for side in ("left", "right"):
        bfs = [reachable_ids_bfs(system, bits, side) for bits in _unions(name)]
        assert np.array_equal(_oracle_reach(name, side), np.array(bfs)), side


def test_more_than_62_roots():
    system = build_system("I2(64)")
    assert system.table.n_roots == 64 and system.size == 128
    assert system.inv_words.shape[1] == 1
    rng = random.Random(64)
    pairs = [
        (system.element(rng.randrange(128)), system.element(rng.randrange(128)))
        for _ in range(40)
    ]
    unions = [u.inversion_bits | v.inversion_bits for u, v in pairs]
    expected_joins = joins_matmul(system, unions)
    for (u, v), bits, join_id in zip(pairs, unions, expected_joins):
        phi_u, phi_v = left_reflection_set(u), left_reflection_set(v)
        assert join_bruteforce(u, v).index == join_id
        verdict = check_conjecture_H(u, v)
        assert verdict.join.index == join_id
        assert verdict.rhs.bits == reflection_bits(
            system, reachable_ids_bfs(system, bits, "left")
        )
        assert conjectural_join_D(system, phi_u, phi_v).bits == reflection_bits(
            system, reachable_ids_bfs(system, bits, "right")
        )
        assert verdict.holds


def test_multi_word_inversion_sets():
    system = build_system("I2(65)")
    assert system.inv_words.shape[1] == 2
    top = (1 << 65) - 1
    assert np.array_equal(system.inv_words[system.longest_element.index], [2**64 - 1, 1])
    rng = random.Random(65)
    for _ in range(20):
        u = system.element(rng.randrange(system.size))
        v = system.element(rng.randrange(system.size))
        bits = u.inversion_bits | v.inversion_bits
        assert join_bruteforce(u, v).index == joins_matmul(system, [bits])[0]
        assert check_conjecture_H(u, v).rhs.bits == reflection_bits(
            system, reachable_ids_bfs(system, bits, "left")
        )
    assert join_bruteforce(system.element(1), system.element(2)).inversion_bits == top


REFLECTION_TYPES = ["A3", "B3", "H3", "I2(9)", "F4"]


def _reflection_rows_agree(npt, words, side):
    rows = reflection_reach_words(npt, words, side)
    full = reach_words(npt, words, side)
    assert rows.shape == (npt.n_roots, full.shape[1]) and rows.flags.c_contiguous
    assert np.array_equal(rows, full[npt.refl_ids]), side


@pytest.mark.parametrize("chunk", [1, 65, 4096])
@pytest.mark.parametrize("name", REFLECTION_TYPES)
def test_reflection_rows_match_reach_words_on_every_union(name, chunk):
    system = _system(name)
    npt = system.numpy_tables()
    words = _union_words(system, _unions(name))
    if chunk == 1:  # one union at a time: at most 600 seeded ones
        words = words[random.Random(1).sample(range(len(words)), min(len(words), 600))]
    for lo in range(0, len(words), chunk):
        for side in ("left", "right"):
            _reflection_rows_agree(npt, words[lo:lo + chunk], side)


@pytest.mark.parametrize("tile", [1, 4, 8])
@pytest.mark.parametrize("name", REFLECTION_TYPES)
def test_reflection_rows_in_ragged_tiles(monkeypatch, name, tile):
    """Tiles of a budget of `tile` words of the down-set's rows over a batch
    of 6 words, two groups of 4 words: one group a tile below 8 words, both
    groups in one tile at 8."""
    system = _system(name)
    npt = system.numpy_tables()
    unions = random.Random(tile).choices(_unions(name), k=5 * 64 + 17)
    words = _union_words(system, unions)
    monkeypatch.setattr(coxeter, "_REACH_TILE_BYTES", tile * 8 * npt.down_size + 7)
    for side in ("left", "right"):
        _reflection_rows_agree(npt, words, side)
        rows = reflection_reach_words(npt, words, side)
        expected = reachable_ids_push(system, unions, side)[:, npt.refl_ids]
        assert np.array_equal(_reach_rows(rows, len(unions)), expected), side


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "I2(65)", "F4", "D5"])
def test_grouped_tiles_match_the_push_oracle(monkeypatch, name, groups):
    """Batches of 1, 2, 3, 5, 6 and 9 words, the last word part padding, in
    tiles of `groups` groups of 4 words (batches past 2 words; the last
    group of 3, 5, 6 and 9 words is ragged): reach_words and the left,
    right and paired routes against the push oracle, and the routes
    against reach_words' reflection rows."""
    system = _system(name)
    npt = system.numpy_tables()
    unions = random.Random(groups).choices(_unions(name), k=9 * 64)
    words = _union_words(system, unions)
    expected = {side: reachable_ids_push(system, unions, side) for side in ("left", "right")}

    def budget(filled):
        monkeypatch.setattr(coxeter, "_REACH_TILE_BYTES", groups * 32 * filled + 7)

    for n_words in (1, 2, 3, 5, 6, 9):
        count = 64 * n_words - 17
        batch = words[:count]
        routes = []
        for side in ("left", "right"):
            budget(system.size)
            reach = reach_words(npt, batch, side)
            assert reach.shape == (system.size, n_words) and reach.flags.c_contiguous
            assert np.array_equal(_reach_rows(reach, count), expected[side][:count])
            budget(npt.down_size)
            rows = reflection_reach_words(npt, batch, side)
            assert rows.shape == (npt.n_roots, n_words) and rows.flags.c_contiguous
            assert np.array_equal(rows, reach[npt.refl_ids]), (n_words, side)
            routes.append(rows)
        budget(2 * npt.down_size)
        paired = _paired_reflection_words(npt, batch)
        assert paired.shape == (2, npt.n_roots, n_words) and paired.flags.c_contiguous
        assert np.array_equal(paired, np.stack(routes)), n_words


@pytest.mark.parametrize(
    "name,shape", [("H4", (1, 60, 4)), ("F4", (16, 24, 4))], ids=["H4", "F4"]
)
def test_routes_gather_rows_of_4_words(monkeypatch, name, shape):
    """With the default budget, the routes of a 4,096-union chunk reach
    _reach_tile as labels in groups of 4 words, so that every row a level
    gathers is 32 bytes: one group a tile on H4, all 16 in one tile on F4."""
    system = _system(name)
    npt = system.numpy_tables()
    rng = random.Random(27)
    inv = system.inv_bits
    unions = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
              for _ in range(4096)]
    words = _union_words(system, unions)
    shapes = []
    reach_tile = coxeter._reach_tile

    def recorded(blocks, labels, stop=None):
        shapes.append((labels.shape, labels.flags.c_contiguous))
        return reach_tile(blocks, labels, stop)

    monkeypatch.setattr(coxeter, "_reach_tile", recorded)
    for side in ("left", "right"):
        shapes.clear()
        reflection_reach_words(npt, words, side)
        assert len(shapes) == 64 // (shape[0] * shape[2]), side
        assert set(shapes) == {(shape, True)}, side


@pytest.mark.parametrize("name", ["H4", "E6"])
def test_reflection_rows_of_seeded_unions_of_large_types(name):
    system = _system(name)
    rng = random.Random(13)
    inv = system.inv_bits
    unions = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
              for _ in range(300)]
    npt = system.numpy_tables()
    for side in ("left", "right"):
        _reflection_rows_agree(npt, _union_words(system, unions), side)


def _levels(system):
    """The length of each root's reflection."""
    return [system.reflection(r).length for r in range(system.table.n_roots)]


def _stop_unions(system):
    """Sorted unions that make every kind of tile in tiles of 4 and 8
    words, each part repeating its last union to a multiple of 512: 512
    full sets (tiles that stop at 0); the empty union (a tile that runs
    the top level) and the distinct unions of 400 seeded pairs; the same
    unions with the roots of the longest reflections added (tiles that
    stop part way); then 5 full sets, a tile of real unions that all hold
    every root, and padding."""
    full = (1 << system.table.n_roots) - 1
    rng = random.Random(22)
    inv = system.inv_bits
    unions = sorted({inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
                     for _ in range(400)})
    levels = _levels(system)
    longest = sum(1 << r for r, level in enumerate(levels) if level == max(levels))
    parts = [[full], [0, *unions], sorted({bits | longest for bits in unions})]
    return [bits for part in parts for bits in part + part[-1:] * (-len(part) % 512)] + [full] * 5


def _expected_stops(system, unions, width):
    """Per tile of `width` words, the level of the longest reflection whose
    root is not in every union of the tile, or 0."""
    levels = _levels(system)
    stops = []
    for lo in range(0, len(unions), 64 * width):
        common = functools.reduce(operator.and_, unions[lo:lo + 64 * width])
        stops.append(max((level for r, level in enumerate(levels) if not common >> r & 1),
                         default=0))
    return stops


@pytest.mark.parametrize("tile", [None, 1, 4, 8])
@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "F4", "D5", "H4", "E6"])
def test_reflection_rows_stop_at_the_longest_open_reflection(monkeypatch, name, tile):
    """Bit for bit, padding included, against reach_words' rows, in the
    default tiles and in budgets of 1, 4 and 8 words, that is tiles of one
    group of 4 words (a budget below one group runs one) and of two; with
    the fixed widths the levels each tile runs are pinned: none for a tile
    whose roots are all in every union, the top level for the tile with
    the empty union."""
    system = _system(name)
    npt = system.numpy_tables()
    unions = _stop_unions(system)
    words = _union_words(system, unions)
    if tile is not None:
        monkeypatch.setattr(coxeter, "_REACH_TILE_BYTES", tile * 8 * npt.down_size + 7)
    runs = []
    reach_tile = coxeter._reach_tile

    class Levels(list):
        """A program that notes how many levels a tile slices off it to run."""

        def __getitem__(self, key):
            if isinstance(key, slice):
                runs.append(len(range(*key.indices(len(self)))))
            return super().__getitem__(key)

    def counted(blocks, labels, stop=None):
        return reach_tile(Levels(blocks), labels, stop)

    top = len(npt.program("left", reflections_only=True))
    assert top == max(npt.lengths[npt.refl_ids])
    for side in ("left", "right"):
        npt.program(side)
        monkeypatch.setattr(coxeter, "_reach_tile", counted)
        runs.clear()
        rows = reflection_reach_words(npt, words, side)
        monkeypatch.setattr(coxeter, "_reach_tile", reach_tile)
        full = reach_words(npt, words, side)
        assert rows.shape == (npt.n_roots, full.shape[1]) and rows.flags.c_contiguous
        assert np.array_equal(rows, full[npt.refl_ids]), side
        if tile is None:
            continue
        stops = _expected_stops(system, unions, 4 * max(1, tile // 4))
        assert runs == [stop for stop in stops if stop], side
        assert stops[0] == stops[-1] == 0 and top in stops
        assert any(0 < stop < top for stop in stops)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(9)", "D4"])
def test_single_pairs_through_the_helpers_match_the_push_oracle(name):
    system = _system(name)
    rng = random.Random(14)
    pairs = [(system.element(rng.randrange(system.size)),
              system.element(rng.randrange(system.size))) for _ in range(60)]
    unions = [u.inversion_bits | v.inversion_bits for u, v in pairs]
    left = reachable_ids_push(system, unions, "left")
    right = reachable_ids_push(system, unions, "right")
    for i, (u, v) in enumerate(pairs):
        assert check_conjecture_H(u, v).rhs.bits == reflection_bits(system, left[i])
        phi_u, phi_v = left_reflection_set(u), left_reflection_set(v)
        assert conjectural_join_D(system, phi_u, phi_v).bits == reflection_bits(
            system, right[i]
        )
    # random label sets, not unions of inversion sets: the two sides still
    # reach the same reflections, since x is reached on the right exactly
    # when x^-1 is on the left and a reflection is its own inverse
    labels = [rng.getrandbits(system.table.n_roots) for _ in range(60)]
    left = reachable_ids_push(system, labels, "left")
    right = reachable_ids_push(system, labels, "right")
    for i, bits in enumerate(labels):
        subset = RootSubset(system.table, bits)
        on_left = reachable_reflection_roots(system, subset).bits
        assert on_left == reflection_bits(system, left[i])
        assert on_left == conjectural_join_D(system, subset, subset).bits
        assert on_left == reflection_bits(system, right[i])


def _down_set(npt):
    """The elements the reflection-only program fills: e and its blocks' slots."""
    filled = np.zeros(npt.lengths.size, dtype=bool)
    filled[0] = True
    for lo, hi, _, _ in npt.program("left", reflections_only=True):
        filled[lo:hi] = True
    return filled[npt.slots]


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(9)", "F4", "D5"])
def test_the_down_set_holds_the_reflections_and_is_closed_under_descents(name):
    system = _system(name)
    npt = system.numpy_tables()
    inside = _down_set(npt)
    assert inside.sum() == npt.down_size
    assert inside[npt.refl_ids].all()
    ids = np.flatnonzero(inside)
    left, right = oracle_tables(system)
    for mul in (left, right):
        below = mul[:, ids]
        falls = npt.lengths[below] < npt.lengths[ids]
        assert inside[below[falls]].all()
    # and no larger: a depth-first walk down from the reflections marks it all
    marked = np.zeros(system.size, dtype=bool)
    todo = npt.refl_ids.tolist()
    while todo:
        x = todo.pop()
        if not marked[x]:
            marked[x] = True
            below = left[:, x]
            todo.extend(below[npt.lengths[below] < npt.lengths[x]].tolist())
    assert np.array_equal(marked, inside)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4", "D5", "H4"])
def test_routes_are_monotone_in_their_labels(name):
    # A within A' gives reach(A) within reach(A'), on both sides: a sweep
    # that routes only the smallest and largest label sets of a join class
    # rests on it
    system = _system(name)
    npt = system.numpy_tables()
    rng = random.Random(19)
    inv, n = system.inv_bits, system.table.n_roots
    wide = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
            for _ in range(150)] + [rng.getrandbits(n) for _ in range(100)]
    narrow = [bits & rng.getrandbits(n) for bits in wide]
    for kernel in (reach_words, reflection_reach_words):
        for side in ("left", "right"):
            small = kernel(npt, _union_words(system, narrow), side)
            large = kernel(npt, _union_words(system, wide), side)
            assert not (small & ~large).any(), (kernel.__name__, side)
            assert (large & ~small).any(), (kernel.__name__, side)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "D4", "F4", "H4"])
def test_the_paired_run_gives_each_sides_reflection_rows(name):
    """Seeded unions, the empty union, each single root, the full set (stop
    0) and the full set less the longest reflection's root (stop top), in
    one batch and one union a call."""
    system = _system(name)
    npt = system.numpy_tables()
    rng = random.Random(24)
    inv, n = system.inv_bits, system.table.n_roots
    longest = int(np.argmax(npt.refl_lengths))
    unions = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
              for _ in range(100)]
    unions += [0, (1 << n) - 1, (1 << n) - 1 - (1 << longest)] + [1 << r for r in range(n)]
    words = _union_words(system, unions)
    batches = [words] + [words[i:i + 1] for i in range(len(words))]
    for batch in batches:
        paired = _paired_reflection_words(npt, batch)
        assert paired.shape == (2, n, -(-len(batch) // 64)) and paired.dtype == np.uint64
        for rows, side in zip(paired, ("left", "right")):
            assert np.array_equal(rows, reflection_reach_words(npt, batch, side)), side


@pytest.mark.parametrize("name", ["A3", "F4"])
def test_a_batch_of_no_unions_has_no_words(name):
    system = _system(name)
    npt = system.numpy_tables()
    none = np.zeros((0, system.inv_words.shape[1]), dtype=np.uint64)
    for side in ("left", "right"):
        reach = reach_words(npt, none, side)
        assert reach.shape == (system.size, 0) and reach.dtype == np.uint64
        rows = reflection_reach_words(npt, none, side)
        assert rows.shape == (npt.n_roots, 0) and rows.dtype == np.uint64
    paired = _paired_reflection_words(npt, none)
    assert paired.shape == (2, npt.n_roots, 0) and paired.dtype == np.uint64
    joins = weak_joins(system, none)
    assert joins.shape == (0,)


def _kernel_runs(npt, words):
    """Every kernel's result for one batch: reach_words and
    reflection_reach_words on both sides, then the paired run."""
    return [
        *(reach_words(npt, words, side) for side in ("left", "right")),
        *(reflection_reach_words(npt, words, side) for side in ("left", "right")),
        _paired_reflection_words(npt, words),
    ]


@pytest.mark.parametrize("count", [1, 3, 64, 65, 200])
@pytest.mark.parametrize("name", ["A3", "B3", "I2(65)", "F4"])
def test_no_row_holds_a_bit_past_its_unions(name, count):
    """Bit j of a row is union j's alone: e's row included, no kernel sets
    a bit at or past the batch's count, whether the batch is one union's
    bytes, one or two words, or groups of 4 words with a ragged last one."""
    system = _system(name)
    npt = system.numpy_tables()
    unions = random.Random(count).choices(_unions(name), k=count)
    for result in _kernel_runs(npt, _union_words(system, unions)):
        assert result.shape[-1] == -(-count // 64) and result.dtype == np.uint64
        bits = np.unpackbits(result.view(np.uint8), axis=-1, bitorder="little")
        assert not bits[..., count:].any()


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "I2(65)", "F4", "D5", "H4"])
def test_a_single_union_is_its_bit_of_a_batch(name):
    """A batch of one runs as a tile of bytes; a batch of 64 as a tile of
    one word.  The empty union (bit 0, run to the top), the full set
    (stop 0 alone; nothing is decided in the batch, which holds the empty
    union) and 62 seeded pair unions fill one word, and each union alone
    must give, in every kernel, its own bit of the batch's result, in the
    batch's shape."""
    system = _system(name)
    npt = system.numpy_tables()
    rng = random.Random(29)
    inv = system.inv_bits
    pairs = [inv[rng.randrange(system.size)] | inv[rng.randrange(system.size)]
             for _ in range(62)]
    unions = [0, (1 << system.table.n_roots) - 1, *pairs]
    words = _union_words(system, unions)
    batch = _kernel_runs(npt, words)
    for j in range(len(unions)):
        for alone, together in zip(_kernel_runs(npt, words[j:j + 1]), batch):
            assert alone.shape == together.shape and alone.flags.c_contiguous
            assert np.array_equal(alone, together >> np.uint64(j) & np.uint64(1)), j
