"""Finite Coxeter systems: root tables, reflection tables, and group elements.

Everything is exact.  A Coxeter graph with edge labels m_ij determines the
bilinear form B_ii = 1, B_ij = -cos(pi/m_ij) over Q(c), c = 2*cos(pi/L), with
L the lcm of the labels >= 4 (L = 3 when there are none: 2cos(pi/m) is
rational for m <= 3).  Every entry of 2B and every root coordinate lies in
Z[c], so the root table is integer coefficient arrays over the power basis
of c, which the ring (scalar.MinimalPolynomial) multiplies and signs:
positive roots are generated by closing the simple roots under simple
reflections one depth level at a time, each level in one integer matrix
product, and only the simple reflections are computed from coordinates.
Group elements are enumerated breadth-first and keyed canonically by their
inversion sets, each packed once in the root-set codec's words.

The element model is permutation-based: enumeration holds each element w
of the level being extended as the signed action of w on the positive-root
indices, from which the length and inversion set of each product w * s_i
follow by one root flip, without further vector arithmetic; the
root-to-reflection dictionary phi reads the signs of the reflection table.
Enumeration and the reachability step programs are array code over
whole length levels: a level's steps are one take per side of its
breadth-first parents' steps and one in the generator table.  The step
programs are the only multiplication structure the kernels read; a
product by one reflection is one key lookup of its inversion set.

For closure and the join the root table also keeps the cone of every
pair of positive roots as a packed bit-set, built on first use: exact
integer array code for the cones of the simple roots, conjugation for the
rest.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .permutations import perm_of_word, word_of_perm
from .scalar import AlgebraicScalar, build_ring, embed_cos

DEFAULT_ROOT_CAP = 10_000
DEFAULT_ELEMENT_CAP = 2_000_000
_WORD_MASK = (1 << 64) - 1
# reach array bytes a tile of word groups, to stay in L2 cache: at 1 MiB H4's
# tiles are two groups, with coarser stops, and its routes are slower
_REACH_TILE_BYTES = 1 << 19
_SCRATCH_WORDS = 1 << 14  # 128 KiB, glibc's default threshold for mapping an allocation
_UNION_MEMO = 1 << 14  # unions whose single-pair answers a system keeps


class CoxeterError(Exception):
    """Base class for construction and lookup failures."""


class FinitenessExceeded(CoxeterError):
    """Root or element generation exceeded the configured cap."""


class NotAReflection(CoxeterError):
    """phi_inverse applied to an element that is not a reflection."""


class WrongType(CoxeterError):
    """An operation restricted to a specific family got another type."""


# -- Coxeter graphs -------------------------------------------------------------

_NAME_RE = re.compile(r"^([ABDEFH])(\d+)$")
_I2_RE = re.compile(r"^I2\((\d+)\)$")


@dataclass(frozen=True)
class CoxeterGraph:
    """A symmetric Coxeter matrix with 1s on the diagonal, plus a display name."""

    rank: int
    m: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 1 or len(self.m) != self.rank:
            raise ValueError("matrix size does not match rank")
        for i, row in enumerate(self.m):
            if len(row) != self.rank:
                raise ValueError("Coxeter matrix is not square")
            for j, mij in enumerate(row):
                if i == j and mij != 1:
                    raise ValueError("diagonal entries must be 1")
                if i != j and mij < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
                if mij != self.m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")

    @property
    def display_name(self) -> str:
        """The display name, or the matrix itself for an unnamed graph."""
        return self.name or f"matrix{self.m}"

    @property
    def ring_parameter(self) -> int:
        """L = lcm of the labels >= 4, or 3: 2cos(pi/m) is rational for m <= 3."""
        L = math.lcm(*(m for row in self.m for m in row if m >= 4))
        return L if L > 1 else 3

    @classmethod
    def from_matrix(
        cls, rows: Sequence[Sequence[int]], name: str | None = None
    ) -> "CoxeterGraph":
        """A graph from the rows of its matrix; an entry that is not an int
        (a float, a bool, a string) raises ValueError."""
        if any(isinstance(x, bool) or not isinstance(x, int) for r in rows for x in r):
            raise ValueError("Coxeter matrix entries must be integers")
        return cls(len(rows), tuple(tuple(r) for r in rows), name)

    @classmethod
    def from_name(cls, name: str) -> "CoxeterGraph":
        """Build one of the finite families: A_n, B_n, D_n, E6-8, F4, H3, H4, I2(m).

        >>> CoxeterGraph.from_name("A2").m
        ((1, 3), (3, 1))
        >>> CoxeterGraph.from_name("I2(7)").m
        ((1, 7), (7, 1))
        """
        text = name.strip().upper().replace(" ", "")
        match = _I2_RE.match(text)
        if match:
            m = int(match.group(1))
            if m < 2:
                raise ValueError("I2(m) needs m >= 2")
            return cls.from_matrix([[1, m], [m, 1]], name=f"I2({m})")
        match = _NAME_RE.match(text)
        if not match:
            raise ValueError(f"unrecognized type name {name!r}")
        family, n = match.group(1), int(match.group(2))
        chain_label = {i: 3 for i in range(n - 1)}
        extra: list[tuple[int, int, int]] = []
        if family == "A":
            if n < 1:
                raise ValueError("A_n needs n >= 1")
        elif family == "B":
            if n < 2:
                raise ValueError("B_n needs n >= 2")
            chain_label[n - 2] = 4
        elif family == "D":
            if n < 4:
                raise ValueError("D_n needs n >= 4")
            del chain_label[n - 2]
            extra.append((n - 3, n - 1, 3))
        elif family == "E":
            if n not in (6, 7, 8):
                raise ValueError("E_n exists for n in {6, 7, 8}")
            del chain_label[n - 2]
            extra.append((2, n - 1, 3))
        elif family == "F":
            if n != 4:
                raise ValueError("F_n exists only for n = 4")
            chain_label[1] = 4
        elif family == "H":
            if n not in (3, 4):
                raise ValueError("H_n exists for n in {3, 4}")
            chain_label[0] = 5
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i, label in chain_label.items():
            rows[i][i + 1] = rows[i + 1][i] = label
        for i, j, label in extra:
            rows[i][j] = rows[j][i] = label
        return cls.from_matrix(rows, name=text)

    @classmethod
    def from_json(cls, obj: dict) -> "CoxeterGraph":
        graph = cls.from_matrix(obj["m"], name=obj.get("name"))
        if "rank" in obj and int(obj["rank"]) != graph.rank:
            raise ValueError("declared rank does not match the matrix size")
        return graph


# -- the root-set codec ----------------------------------------------------------
# The one packed format of a root set: root r is bit r % 64 of word r // 64 in
# ceil(n_roots / 64) little-endian uint64 words, or bit r of a Python int.
# Only these helpers convert between words, bool rows and ints.


def _pack_words(mask: np.ndarray) -> np.ndarray:
    """Each row (last axis) of a bool array as ceil(columns / 64) uint64 words.

    A nonzero entry of a mask of another dtype counts as set.  Contiguous
    rows of whole bytes are packed as one flat run, which numpy does 3-4x
    faster than row by row along the last axis.
    """
    if mask.shape[-1] % 8 == 0 and mask.flags.c_contiguous:
        flat = np.packbits(mask.reshape(-1), bitorder="little")
        packed = flat.reshape(*mask.shape[:-1], mask.shape[-1] // 8)
    else:
        packed = np.packbits(mask, axis=-1, bitorder="little")
    if packed.shape[-1] % 8 == 0 and packed.flags.c_contiguous:  # whole words
        return packed.view("<u8").astype(np.uint64, copy=False)
    out = np.zeros((*mask.shape[:-1], 8 * -(-mask.shape[-1] // 64)), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def _unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Bits 0..n_bits-1 of each row (last axis) of a uint64 word array, as bools."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=n_bits, bitorder="little").view(bool)


def bits_to_words(bits: int, n_words: int) -> np.ndarray:
    """A root bit-set as n_words little-endian uint64 words."""
    return np.array(
        [bits >> (64 * w) & _WORD_MASK for w in range(n_words)], dtype=np.uint64
    )


def words_to_bits(words: np.ndarray) -> list[int]:
    """Each row of a 2-D uint64 word array as a Python int bit-set."""
    keys = _word_keys(words)
    if keys.dtype == np.uint64:
        return keys.tolist()
    return [int.from_bytes(row, "little") for row in keys.tolist()]


_BYTE_COUNTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """The number of roots in each row of a 2-D uint64 word array."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return _BYTE_COUNTS.take(as_bytes.T).sum(axis=0, dtype=np.intp)


def _word_keys(words: np.ndarray) -> np.ndarray:
    """Each row of a 2-D uint64 word array as one sortable key, a view.

    A row of one word (at most 64 roots) is its own uint64 key; wider rows
    are one void scalar each, which compares bytewise.  Equal rows give
    equal keys, so np.unique and np.searchsorted work on them whatever the
    number of words; the order of the keys is not the order of the sets.
    """
    rows = np.ascontiguousarray(words, dtype="<u8")
    if rows.shape[1] == 1:
        return rows[:, 0].view(np.uint64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


_BYTE_BITS = (np.uint8(1) << np.arange(8, dtype=np.uint8))[:, None]  # bit k of a byte
_BOOL_TRANSPOSE_BITS = 512  # matrices up to this many bits go one bool a bit
_ROW_SHIFTS = np.arange(64, dtype=np.uint64)  # row r of a one-word output is bit r


def transpose_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Bit-matrix transpose between row-packed and column-packed layouts.

    words is (rows, w) uint64 and holds bits 0..n_bits-1 of every row; the
    result is (n_bits, ceil(rows / 64)) uint64 whose row c has bit r set
    exactly when row r of the input has bit c set.

    A matrix of up to _BOOL_TRANSPOSE_BITS bits (one union, or the join of
    one) is unpacked to a bool a bit and transposed as a view, which
    takes the fewest array calls.  When the output is one word a row (at
    most 64 input rows), that view's columns are shifted to their row's
    bit and OR-reduced, with no shift for a single row, which costs less
    than packing; otherwise it is packed.  A larger one moves bytes before
    bits: the ceil(n_bits / 8) bytes that hold the bits of each row are
    copied once into a (bytes, rows) matrix, rows padded to whole words,
    so bit c is bit c % 8 of byte row c // 8.  Masking each byte row with
    each of its 8 bits gives every column c as one contiguous row of
    bytes, nonzero where the bit is set, and _pack_words packs those rows.
    Its strided copy is one byte per 8 bits, not one per bit: a 4,096 x 24
    matrix transposes about ten times faster, a single union 1-2 µs slower.
    """
    rows = words.shape[0]
    if rows * n_bits <= _BOOL_TRANSPOSE_BITS:
        columns = _unpack_words(words, n_bits).T
        if not 0 < rows <= 64:
            return _pack_words(columns)
        columns = columns.astype(np.uint64)
        if rows == 1:
            return columns
        columns <<= _ROW_SHIFTS[:rows]
        return np.bitwise_or.reduce(columns, axis=1, keepdims=True)
    n_bytes = -(-n_bits // 8)
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    padded = -(-rows // 64) * 64
    cols = np.zeros((n_bytes, 1, padded), dtype=np.uint8)
    cols[:, 0, :rows] = as_bytes[:, :n_bytes].T
    return _pack_words((cols & _BYTE_BITS).reshape(8 * n_bytes, padded)[:n_bits])


# -- positive roots --------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    """A positive root: exact coordinates in the simple-root basis."""

    index: int
    coords: tuple
    depth: int

    def render(self) -> str:
        parts = []
        for k, c in enumerate(self.coords):
            if c.is_zero():
                continue
            coeff = c.render()
            if coeff == "1":
                parts.append(f"a{k + 1}")
                continue
            if " " in coeff or "/" in coeff or coeff.startswith("-"):
                coeff = f"({coeff})"
            parts.append(f"{coeff}*a{k + 1}")
        return " + ".join(parts) if parts else "0"


def _keys(x: np.ndarray) -> np.ndarray:
    """One sortable key per row of x, its entries as a tuple: equal for equal rows."""
    rows = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    return np.fromiter(map(tuple, rows.tolist()), dtype=object, count=rows.shape[0])


class RootTable:
    """Deterministically ordered positive roots with the full reflection table.

    Built over the ring Q(c) of the graph, c = 2cos(pi/L) with L its
    ring_parameter, as exact integer arrays over the power basis of c:
    _coeffs[r, t] holds the coefficients of beta_r[t], and there is no
    other scalar representation.  The ring multiplies and signs them
    (MinimalPolynomial.times and .signs).  Positive roots come
    from closing the simple roots under the simple reflections one depth
    level at a time, a whole level reflected in one matrix product with the
    integer matrix of 2B (B_ij = -cos(pi/m_ij)).  Repeats and simple
    reflection images are found among sorted row keys, and Root.coords are
    made from the arrays at the end.

    Ordering: the simple roots first in generator order, then by generation
    depth, ties broken by exact lexicographic coordinate comparison.  The
    table act[t][r] records s_{beta_t}(beta_r) as a signed 1-based root
    index, the only geometric data the group model needs; past the simple
    rows, each row is a conjugate s_i s_u s_i of a row one depth level up.

    Closure and the join read the cone table instead: cone_words()[i, j]
    is the set of positive roots a*beta_i + b*beta_j with a, b >= 0, in the
    codec's words, for every pair of roots.  It is built on the first
    cone query (_cone_table), never by the constructor.
    """

    def __init__(self, graph: CoxeterGraph, cap: int = DEFAULT_ROOT_CAP):
        self.graph = graph
        self.ring = ring = build_ring(graph.ring_parameter)
        self._cones: np.ndarray | None = None
        self._cone_triples: tuple[np.ndarray, ...] | None = None
        n, d = graph.rank, ring.degree
        # row block j, column block i: multiplication by 2B_ij = -2cos(pi/m_ij)
        entries = np.array(
            [(-embed_cos(m, ring)).num for row in graph.m for m in row], dtype=object
        )
        blocks = ring.times(entries).reshape(n, n, d, d)
        self._two_b = blocks.transpose(1, 3, 0, 2).reshape(n * d, n * d)
        coeffs, depths = self._generate(cap)
        order = self._order(coeffs, depths)
        self._coeffs, depths = coeffs[order], depths[order].tolist()
        self.roots = [
            Root(r, tuple(AlgebraicScalar(ring, tuple(v), 1) for v in root), depths[r])
            for r, root in enumerate(self._coeffs.tolist())
        ]
        self._build_act()

    # construction ---------------------------------------------------------

    def _generate(self, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and depths of the positive roots, in order of discovery.

        s_i(v) = v - 2B(v, alpha_i) alpha_i changes coordinate i only; a
        level's candidates s_i(v) are new when their keys are neither among
        the roots found before nor repeated earlier in the level.
        """
        n, d = self.graph.rank, self.ring.degree
        level = np.zeros((n, n, d), dtype=self._two_b.dtype)
        diag = np.arange(n)
        level[diag, diag, 0] = 1
        found, depths = [level], [np.zeros(n, dtype=np.intp)]
        seen = np.sort(_keys(level))
        total = n
        while True:
            cands = self._reflect(level).reshape(-1, n, d)
            if len(found) == 1:  # s_i(alpha_i) = -alpha_i
                cands = np.delete(cands, diag * (n + 1), axis=0)
            keys, first = np.unique(_keys(cands), return_index=True)
            fresh = ~_match(seen, keys)[1]
            if not fresh.any():
                break
            total += int(fresh.sum())
            if total > cap:
                raise FinitenessExceeded(
                    f"more than {cap} positive roots; the group is "
                    "infinite or the cap is too small"
                )
            level = cands[np.sort(first[fresh])]
            found.append(level)
            depths.append(np.full(level.shape[0], len(depths), dtype=np.intp))
            seen = np.sort(np.concatenate([seen, keys[fresh]]), kind="stable")
        coeffs = np.concatenate(found)
        signs = self.ring.signs(coeffs.reshape(-1, d)).reshape(-1, n)
        if (signs.min(axis=1) < 0).any() or (signs.max(axis=1) <= 0).any():
            raise CoxeterError("generated a non-positive root vector")
        return coeffs, np.concatenate(depths)

    def _order(self, coeffs: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """The simple roots, then the rest by depth and exact lexicographic order.

        Each coordinate's distinct values are ranked by the signs of all
        their differences, and the ranks are sorted as integers.
        """
        n = self.graph.rank
        ranks = []
        for t in range(n):
            values = coeffs[:, t]
            _, first, slot = np.unique(
                _keys(values), return_index=True, return_inverse=True
            )
            distinct = values[first]
            k = first.size
            diff = (distinct[:, None] - distinct[None, :]).reshape(k * k, -1)
            above = (self.ring.signs(diff).reshape(k, k) > 0).sum(axis=1)
            ranks.append(above[slot][n:])
        return np.concatenate([np.arange(n), n + np.lexsort([*ranks[::-1], depths[n:]])])

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        """images[v, i] = s_i(x[v]) for an (m, n, d) coefficient array x."""
        diag = np.arange(x.shape[1])
        images = np.repeat(x[:, None], x.shape[1], axis=1)
        images[:, diag, diag] -= (x.reshape(len(x), -1) @ self._two_b).reshape(x.shape)
        return images

    def _build_act(self) -> None:
        """Simple rows by key lookup, then s_t = s_i s_u s_i for beta_t = s_i(beta_u);
        every row must negate its own root and square to the identity."""
        x = self._coeffs
        n_roots, n = x.shape[:2]
        rows = np.arange(n_roots)
        keys = _keys(np.concatenate([x, -x]))
        order = np.argsort(keys)
        ids = np.concatenate([rows + 1, -rows - 1])[order]
        images = self._reflect(x).swapaxes(0, 1).reshape(-1, *x.shape[1:])
        what = "reflection image is not a root of the table"
        simple = _find(keys[order], ids, _keys(images), what).reshape(n, n_roots)
        act = np.pad(simple, [(0, n_roots - n), (0, 0)])  # the other rows by level
        for roots, gens, parents in _descents(simple, self.roots):
            act[roots] = _compose(simple[gens], _compose(act[parents], simple[gens]))
        if (np.diag(act) != -rows - 1).any() or (_compose(act, act) != rows + 1).any():
            raise CoxeterError("act is not a table of reflections")
        self.act = tuple(map(tuple, act.tolist()))

    # queries ---------------------------------------------------------------

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def cone_words(self) -> np.ndarray:
        """(n_roots, n_roots, n_words) uint64: row (i, j) is cone_mask(i, j).

        Built on the first call and kept.
        """
        if self._cones is None:
            self._cones = _cone_table(self)
        return self._cones

    def cone_mask(self, i: int, j: int) -> int:
        """Bit-set of positive roots expressible as a*beta_i + b*beta_j, a,b >= 0.

        ValueError outside [0, n_roots).
        """
        for index in (i, j):
            if not 0 <= index < self.n_roots:
                raise ValueError(f"root index {index} out of range")
        return words_to_bits(self.cone_words()[i, j][None])[0]

    def cone_triples(self) -> tuple[np.ndarray, ...]:
        """i, j, then the distinct g and their starts, of the triples
        (i < j, g) by g with g in cone_mask(i, j) and not i or j; built on
        the first call and kept."""
        if self._cone_triples is None:
            self._cone_triples = _cone_triples(self.cone_words(), self.n_roots)
        return self._cone_triples

    def cone_round(self, sets: np.ndarray) -> np.ndarray:
        """The roots one round of 2-closure adds to (n_roots, w) uint64 sets,
        64 a word as transpose_bits lays them out: g joins a set that holds
        two roots i < j with g in their cone.  A set is closed when a round
        adds nothing.  The triples (i, j, g), g not i or j, are listed by g
        on the first round, so a round is one gather of sets[i] & sets[j]
        and one OR per g."""
        first, second, targets, starts = self.cone_triples()
        hits = sets.take(first, axis=0)
        hits &= sets.take(second, axis=0)
        hits = np.bitwise_or.reduceat(hits, starts, axis=0)
        added = np.zeros_like(sets)
        added[targets] = hits & ~sets.take(targets, axis=0)
        return added


def generate_positive_roots(graph: CoxeterGraph, cap: int = DEFAULT_ROOT_CAP) -> RootTable:
    """Close the simple roots under simple reflections, exactly."""
    return RootTable(graph, cap=cap)


# -- the cone table --------------------------------------------------------------


def _compose(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row by row f o g of signed 1-based root maps."""
    return np.take_along_axis(f, np.abs(g) - 1, axis=1) * np.sign(g)


def _descents(simple: np.ndarray, roots: list[Root]) -> list[tuple]:
    """Per depth level k >= 1 (a run of the table order): roots t, the first i
    with beta_t = s_i(beta_u) for a root u of depth k - 1, and u."""
    depths = np.array([root.depth for root in roots])
    image = np.abs(simple) - 1
    down = (simple > 0) & (depths[image] == depths - 1)
    if not down[:, simple.shape[0]:].any(axis=0).all():
        raise CoxeterError("a root of positive depth has no simple descent")
    gens = down.argmax(axis=0)
    parents = image[gens, np.arange(depths.size)]
    ends = np.searchsorted(depths, np.arange(1, depths[-1] + 2)).tolist()
    return [(np.arange(a, b), gens[a:b], parents[a:b]) for a, b in zip(ends, ends[1:])]


def _narrow(ring, x: np.ndarray) -> np.ndarray:
    """x as int64 when every form _base_cones builds fits."""
    d = x.shape[-1]
    biggest = int(np.abs(x).max())
    # the largest entry sum of c^a's multiplication matrices over a < d
    spread = np.abs(ring.times(np.eye(d, dtype=object))).sum(axis=0).max()
    return x.astype(np.int64) if 2 * d * biggest**2 * spread < 1 << 63 else x


def _base_cones(table: RootTable) -> np.ndarray:
    """base[k, j, g]: whether beta_g lies in the cone of alpha_k and beta_j.

    Let q be the first coordinate other than k where beta = beta_j is
    nonzero (so beta_q > 0), or k when beta = alpha_k.  gamma is in the plane
    of alpha_k and beta when gamma_c beta_q - gamma_q beta_c vanishes for
    every c != k; it is then a alpha_k + b beta, b = gamma_q / beta_q >= 0,
    and in the cone when a beta_q, that form at c = k, is >= 0.

    The roots j run in blocks whose arrays hold about _SCRATCH_WORDS
    entries each, with no loop over single roots.  A block's products
    gamma_c beta_p, for every root g and coordinates c and p, are one
    integer matrix product per coefficient, and the forms gamma_c beta_p -
    gamma_p beta_c their antisymmetric difference, the coefficient axis
    leading so that the zero test reduces over a leading axis.  At p = q,
    g is in the plane when no form other than the one at c = k fails to
    vanish.  The forms at c = k of every plane are signed in one call.
    """
    ring = table.ring
    x = _narrow(ring, table._coeffs)
    n_roots, n, d = x.shape
    nonzero = (x != 0).any(axis=2)
    if (nonzero[n:].sum(axis=1) < 2).any():
        raise CoxeterError("distinct positive roots cannot be proportional")
    ks = np.arange(n)
    others = nonzero[:, None, :] & (ks[:, None] != ks)  # [j, k, c]
    qs = np.where(others.any(axis=2), others.argmax(axis=2), ks)  # [j, k]
    times = ring.times(x).transpose(2, 3, 0, 1)  # [t, e, j, p]: coefficient t of beta_j[p] c^e
    gammas = x.reshape(n_roots * n, d)
    step = max(1, _SCRATCH_WORDS // (n_roots * n * n * d))
    planes = []
    for lo in range(0, n_roots, step):
        q = qs[lo:lo + step]
        j = np.arange(q.shape[0])[:, None]
        # forms[t, g, c, j, p]: coefficient t of gamma_c beta_p - gamma_p beta_c
        products = gammas @ times[:, :, lo:lo + step].reshape(d, d, -1)
        products = products.reshape(d, n_roots, n, q.shape[0], n)
        forms = products - products.transpose(0, 1, 4, 3, 2)
        moved = (forms != 0).any(axis=0)  # [g, c, j, p]
        outside = moved.sum(axis=1)[:, j, q] - moved[:, ks, j, q]  # [g, j, k]
        g, j, k = np.nonzero(outside == 0)
        planes.append((k, lo + j, g, forms[:, g, k, j, q[j, k]].T))
    base = np.zeros((n, n_roots, n_roots), dtype=bool)
    k, j, g, values = map(np.concatenate, zip(*planes))
    base[k, j, g] = ring.signs(values) >= 0
    return base


def _cone_table(table: RootTable) -> np.ndarray:
    """cone[i, j]: the roots a*beta_i + b*beta_j, a, b >= 0, as uint64 words.

    The simple rows are _base_cones.  If beta_t = s_i(beta_u) and beta_j !=
    alpha_i, s_i maps cone(beta_u, s_i beta_j), which lacks alpha_i, onto
    cone(beta_t, beta_j): a depth level of rows is one gather of words and
    one take of their bits.
    """
    n, n_roots = table.graph.rank, table.n_roots
    simple = np.array(table.act[:n], dtype=np.intp)
    cone = np.pad(_pack_words(_base_cones(table)), [(0, n_roots - n), (0, 0), (0, 0)])
    for roots, gens, parents in _descents(simple, table.roots):
        perm = np.abs(simple[gens]) - 1
        rows = _unpack_words(cone[parents[:, None], perm], n_roots)
        # [t, j, g] = rows[t, j, perm[t, g]], one take in the flat rows
        at = np.arange(0, rows.size, n_roots).reshape(*perm.shape, 1) + perm[:, None]
        cone[roots] = _pack_words(rows.ravel().take(at))
        cone[roots, :n] = cone[:n, roots].swapaxes(0, 1)
    return cone


def _cone_triples(cone: np.ndarray, n_roots: int) -> tuple[np.ndarray, ...]:
    """i, j, the distinct g and their starts, of the (i < j, g) by g with
    g in cone[i, j] and not i or j."""
    i, j = np.triu_indices(n_roots, 1)
    inside = _unpack_words(cone[i, j], n_roots)  # [pair, g]
    pairs = np.arange(i.size)
    inside[pairs, i] = inside[pairs, j] = False
    g, pair = np.nonzero(np.ascontiguousarray(inside.T))
    targets, starts = np.unique(g, return_index=True)
    return i[pair], j[pair], targets, starts


# -- root subsets ----------------------------------------------------------------

_SET_BITS = [tuple(k for k in range(8) if b >> k & 1) for b in range(256)]  # of each byte


@dataclass(frozen=True)
class RootSubset:
    """An immutable subset of the positive roots of one table, as a bit-set."""

    table: RootTable
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.table.n_roots:
            raise ValueError(f"bits outside the {self.table.n_roots} positive roots")

    @classmethod
    def full(cls, table: RootTable) -> "RootSubset":
        return cls(table, (1 << table.n_roots) - 1)

    def indices(self) -> tuple[int, ...]:
        """The roots in the set, in increasing order, read off the int's set
        bits a byte at a time."""
        found, bits, base = [], self.bits, 0
        while bits:
            for bit in _SET_BITS[bits & 255]:
                found.append(base + bit)
            bits >>= 8
            base += 8
        return tuple(found)

    def __contains__(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __or__(self, other: "RootSubset") -> "RootSubset":
        self._check(other)
        return RootSubset(self.table, self.bits | other.bits)

    def __and__(self, other: "RootSubset") -> "RootSubset":
        self._check(other)
        return RootSubset(self.table, self.bits & other.bits)

    def __sub__(self, other: "RootSubset") -> "RootSubset":
        self._check(other)
        return RootSubset(self.table, self.bits & ~other.bits)

    def complement(self) -> "RootSubset":
        return RootSubset(self.table, ~self.bits & ((1 << self.table.n_roots) - 1))

    def _check(self, other: "RootSubset") -> None:
        if self.table is not other.table:
            raise ValueError("root subsets belong to different tables")

    def __repr__(self) -> str:
        return f"RootSubset{self.indices()}"


# -- the group model -------------------------------------------------------------


class GroupElement:
    """A group element: a handle into its system, keyed by inversion bit-set."""

    __slots__ = ("system", "index")

    def __init__(self, system: "CoxeterSystem", index: int):
        self.system = system
        self.index = index

    @property
    def length(self) -> int:
        return self.system.lengths.item(self.index)

    @property
    def word(self) -> tuple[int, ...]:
        """A reduced word, 1-based generator indices: the letters recorded
        along this element's breadth-first parents, from e."""
        parent, letter = self.system._parent, self.system._letter
        word, x = [], self.index
        while x:
            word.append(letter.item(x))
            x = parent.item(x)
        return tuple(word[::-1])

    @property
    def inversion_bits(self) -> int:
        """Phi_x as a Python int, from this element's row of inv_words."""
        words = self.system.inv_words
        if words.shape[1] == 1:
            return words.item(self.index, 0)
        return words_to_bits(words[self.index:self.index + 1])[0]

    def word_str(self) -> str:
        return " ".join(map(str, self.word)) or "e"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.system is other.system
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.system), self.index))

    def __repr__(self) -> str:
        return f"<{self.word_str()}>"


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """np.concatenate of a list of arrays that empties the list, so that its
    parts are freed before the next list is joined (E7: 78 MB less peak)."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _times_simple(
    tau: np.ndarray, rows: np.ndarray, gens: np.ndarray, perm: np.ndarray
) -> np.ndarray:
    """Signed actions tau[rows[j]] o s_{gens[j]} on the positive root indices.

    perm[g] holds the 0-based root index of s_g(beta_v) for each v; the
    simple row negates root g and no other.  Per generator, one take of
    the rows, one take of the columns and the sign of column g.
    """
    out = np.empty((rows.size, tau.shape[1]), dtype=tau.dtype)
    for g in range(perm.shape[0]):
        at = np.flatnonzero(gens == g)
        block = tau.take(rows[at], axis=0).take(perm[g], axis=1)
        block[:, g] *= -1
        out[at] = block
    return out


def _match(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per key: a position in the sorted table, and whether the key is there."""
    pos = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return pos, table[pos] == keys


def _find(table: np.ndarray, ids: np.ndarray, keys: np.ndarray, what: str) -> np.ndarray:
    """ids[j] for the j with table[j] == key, per key; table is sorted.

    A key absent from the table raises CoxeterError(what).
    """
    pos, found = _match(table, keys)
    if not found.all():
        raise CoxeterError(what)
    return ids[pos]


class _NumpyTables:
    """The reachability kernel's step programs.

    Elements are numbered in enumeration order, along which length never
    decreases, so each length level is a contiguous range of ids: level k
    is bounds[k]..bounds[k + 1] - 1.  The length-decreasing steps (root r,
    predecessor q) into an element x are (r, t_r * x) on the left, for the
    k roots of Phi_x, and (r, x * t_r) on the right, for the k roots of
    Phi_{x^-1}, when x has length k.  Per side they make a step program,
    one (k, n_k) block of roots and of predecessors per level k, and the
    programs are all the reachability kernel reads (program(side)).  Each
    is built along the enumeration tree, one level at a time, in one
    pass: the constructor builds the left one, from which it marks D and
    numbers the reach rows (_build_programs), and nothing else; the right
    one is built on its first read, so "H" sweeps, check_conjecture_H,
    weakorder join and path_witness never build it, while "D", "EQ",
    "HD", conjectural_join_D and the right route of reachable_ids do,
    once.  path_witness and to_dot read the left program too: a step
    (r, p) into y is the edge p -> y = t_r * p of the Bruhat graph.

    A third program, the paired one (paired_program), interleaves the
    two sides' blocks over D, so that one run of the level loop answers
    both routes of a union.  It serves single pairs alone: at a batch of
    one a level costs numpy's fixed cost per call, which pairing pays once
    for both sides, while a sweep's chunk of thousands of unions costs
    its gathers, which pairing does not reduce, in a working set twice
    as large.  So the sweeps run one side a call, and the paired program
    is built on its first read, which CoxeterSystem.reached_reflections
    makes only once the right program exists: numpy_tables() and the
    left-only paths never build it.

    The sweeps compare the system's inversion sets with what the routes
    reach, so the constructor checks that both describe one group before
    it builds anything: the order never decreases length, every parent is
    one level up, |Phi_x| = length(x), and Phi_x is Phi_parent plus the
    root the enumeration recorded for x, so that the left roots of x are
    exactly Phi_x.  The build checks that every step's predecessor lies
    in a shorter level, since the kernel reads only the rows of shorter
    levels, which it has filled.  The right program's roots are not Phi_x,
    so its build counts them: x -> x * t pairs the elements, and exactly
    one of each pair has t as a right descent, so every root labels
    exactly |W| / 2 of the right steps.
    """

    def __init__(self, system: "CoxeterSystem"):
        self.lengths = system.lengths
        if self.lengths[0] != 0 or (np.diff(self.lengths) < 0).any():
            raise CoxeterError(
                "enumeration order must start at e and never decrease length"
            )
        self.n_roots = n_roots = system.table.n_roots
        self.refl_ids = system.refl_ids
        parent, gen = system._parent, system._letter - 1
        if (self.lengths[parent[1:]] != self.lengths[1:] - 1).any():
            raise CoxeterError("an element's parent is not one length level up")
        inv_words = system.inv_words
        if (_popcount(inv_words) != self.lengths).any():
            raise CoxeterError("an inversion set's size is not its element's length")
        flips = _pack_words(np.eye(n_roots, dtype=bool))  # row r is the set {r}
        grown = inv_words.take(parent[1:], axis=0) | flips.take(system._added[1:], axis=0)
        if (grown != inv_words[1:]).any():
            raise CoxeterError(
                "an inversion set is not its parent's plus one root: the "
                "inversion sets are inconsistent"
            )
        rank = system.graph.rank
        # conj[t, g]: the root of s_g t s_g, the reflection through s_g(beta_t)
        self._conj = np.abs(np.array(system.table.act[:rank])).T - 1
        self._tree = (parent, gen, system._added, system._right_by_gen)
        self.bounds = np.searchsorted(self.lengths, np.arange(int(self.lengths[-1]) + 2))
        self._programs: dict[str, tuple[list, list]] = {}
        self._paired: tuple[list, np.ndarray] | None = None
        self._build_programs()

    def program(self, side: str, reflections_only: bool = False) -> list[tuple]:
        """One side's step program: (lo, hi, roots, preds) per level.

        With reflections_only, the blocks over D alone, up to the longest
        reflection's level.  The left program is built by the constructor,
        the right one on first read; both are kept.  Any other side raises
        ValueError.
        """
        _check_side(side)
        if side not in self._programs:
            roots, preds = _tree_steps(self._tree, self._conj, self.bounds, side)
            counts = sum(np.bincount(level.ravel(), minlength=self.n_roots) for level in roots)
            if (counts != self.lengths.size // 2).any():
                raise CoxeterError("a root does not label half of the right steps")
            self._programs[side] = self._side_program(roots, preds)
        return self._programs[side][reflections_only]

    def paired_program(self) -> tuple[list, np.ndarray]:
        """Both sides' programs over D, interleaved: (blocks, rows).

        Level k's block (2 lo, 2 hi, roots, preds) holds the left and right
        blocks over D column by column, so that reach row 2 s is the left
        route at slot s and row 2 s + 1 the right route.  A right step from
        slot 0 reads row 0: e's row is all ones on both sides, so one row
        serves both, and row 1 is never read.  rows[0] and rows[1] are the
        reflections' reach rows on the left and on the right.  Built on
        first read from the two programs over D, which stay as they are,
        and kept.  Its entries are intp, numpy's index type, which take
        reads with no conversion: the paired program serves batches of one
        alone, where converting a level's int32 and uint8 indices took
        about a quarter of an F4 level's time.  So it holds the two
        programs' entries a second time at 16 bytes a step, not 5: about
        200 KB on F4 and 10 MB on H4.
        """
        if self._paired is None:
            blocks = []
            for (lo, hi, roots, preds), (_, _, right_roots, right_preds) in zip(
                self.program("left", True), self.program("right", True)
            ):
                k, n = roots.shape
                both_roots = np.empty((k, 2 * n), dtype=np.intp)
                both_roots[:, 0::2], both_roots[:, 1::2] = roots, right_roots
                both_preds = np.empty((k, 2 * n), dtype=np.intp)
                both_preds[:, 0::2] = 2 * preds
                both_preds[:, 1::2] = 2 * right_preds + (right_preds != 0)
                blocks.append((2 * lo, 2 * hi, both_roots, both_preds))
            rows = np.stack([2 * self.refl_slots, 2 * self.refl_slots + 1])
            self._paired = blocks, rows
        return self._paired

    def _build_programs(self) -> None:
        """The slots of the reach rows, and the left step program.

        The kernel's reach rows are slots: within each length level the
        elements of D come first, each part in id order, so level k's
        slots are bounds[k]..bounds[k + 1] - 1 like its ids, slots[x] is
        the slot of element x and elements[s] the element of slot s.  The
        left steps are built once along the enumeration tree, in id order
        (_tree_steps); D is marked from their levels up to the longest
        reflection's (_reflection_down_set), and then those levels are put
        in slot order (_side_program).
        """
        lengths, bounds, size = self.lengths, self.bounds, self.lengths.size
        self.refl_lengths = lengths[self.refl_ids]  # each root's reflection's level
        self._top = top = int(self.refl_lengths.max())  # the longest reflection's level
        roots, preds = _tree_steps(self._tree, self._conj, bounds, "left")
        inside = _reflection_down_set(preds[:top + 1], bounds, self.refl_ids)
        self.elements = np.argsort(2 * lengths + ~inside, kind="stable").astype(np.int32)
        self.slots = slots = np.empty(size, dtype=np.int32)
        slots[self.elements] = np.arange(size, dtype=np.int32)
        self.refl_slots = slots[self.refl_ids]
        self.down_size = int(np.count_nonzero(inside))
        # the end of D's slots in each level
        self._cuts = (bounds[:-1] + np.add.reduceat(inside.astype(np.intp), bounds[:-1])).tolist()
        self._programs["left"] = self._side_program(roots, preds)

    def _side_program(
        self, roots: list[np.ndarray], preds: list[np.ndarray]
    ) -> tuple[list, list]:
        """A side's blocks, and its blocks over D, from its steps in id order.

        No element above the longest reflection's level is in D, so slots
        and ids differ only up to that level: each of those levels' rows
        is put in slot order by one take.  Every level's predecessors
        become slots by one take in place.  Level k's block is its
        (n_k, k) views, transposed.
        """
        ids, cuts, slots = self.bounds.tolist(), self._cuts, self.slots
        for k in range(1, len(roots)):
            level = preds[k]
            if k <= self._top:
                rows = self.elements[ids[k]:ids[k + 1]] - ids[k]
                roots[k][...] = roots[k].take(rows, axis=0)
                level = level.take(rows, axis=0)
            slots.take(level, out=preds[k])
        blocks = [
            (lo, hi, level_roots.T, level_preds.T)
            for lo, hi, level_roots, level_preds in zip(ids[1:], ids[2:], roots[1:], preds[1:])
        ]
        down = [
            (lo, cut, level_roots[:, :cut - lo], level_preds[:, :cut - lo])
            for (lo, _, level_roots, level_preds), cut in zip(blocks[:self._top], cuts[1:])
        ]
        return blocks, down


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def _tree_steps(
    tree: tuple[np.ndarray, ...], conj: np.ndarray, bounds: np.ndarray, side: str
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Roots and predecessors of one side's length-decreasing steps, by level.

    tree is (parent, gen, added, by_gen), with level k the ids
    bounds[k]..bounds[k + 1] - 1: element x's parent, the generator g
    with x = parent * s_g, the root of Phi_x that is not in its parent's,
    and the generator table.  Entry k of each list is an (n_k, k) view,
    row x - bounds[k] holding the steps into x, of one array of roots (of
    added's dtype) and one of int32 predecessors, so that a side is two
    allocations, not two a level.

    Take x = p * s_g.  On the left, Phi_x is Phi_p plus added[x] =
    p(alpha_g): each step (beta, q) into p gives the step (beta, q * s_g)
    into x, since t_beta x = (t_beta p) s_g, and (p(alpha_g), p) is the
    new one.  On the right, N(x) = {alpha_g} + s_g N(p) for N(w) =
    Phi_{w^-1} (Humphreys 1990, 5.6): each step (r, q) into p gives
    (s_g(r), q * s_g), since x t_{s_g(r)} = (p t_r) s_g, and (alpha_g, p)
    is the new one.  conj[r, g] is the root of s_g(beta_r).  A level is
    one row take of its parents' steps and one take in the generator
    table.  A predecessor outside the shorter levels raises CoxeterError.
    """
    parent, gen, added, by_gen = tree
    rank = by_gen.shape[1]
    flat_gen = by_gen.ravel()  # x * s_g at x * rank + g
    flat_conj = conj.T.astype(added.dtype).ravel()  # s_g(beta_r) at g * n_roots + r
    n_roots = conj.shape[0]
    ids = bounds.tolist()
    sizes = np.diff(bounds)
    # level k's n_k * k steps are ends[k]..ends[k + 1] - 1 of one array
    ends = np.concatenate([[0], np.cumsum(sizes * np.arange(sizes.size))]).tolist()

    def by_level(dtype: type) -> list[np.ndarray]:
        flat = np.empty(ends[-1], dtype=dtype)
        return [flat[a:b].reshape(n, k) for k, (a, b, n) in enumerate(zip(ends, ends[1:], sizes))]

    roots, preds = by_level(added.dtype), by_level(np.int32)
    for k in range(1, len(ids) - 1):
        up, lo, hi = ids[k - 1], ids[k], ids[k + 1]
        p, g = parent[lo:hi, None], gen[lo:hi, None]
        rows = p[:, 0] - up  # the parents' rows in level k - 1
        steps = flat_gen.take(preds[k - 1].take(rows, axis=0) * rank + g)
        if steps.max(initial=0) >= lo:
            raise CoxeterError(
                "a step's predecessor is not in a shorter length level: the "
                "generator table is inconsistent"
            )
        np.concatenate([steps, p], axis=1, out=preds[k])
        before = roots[k - 1].take(rows, axis=0)
        if side == "left":
            last = added[lo:hi, None]
        else:
            before = flat_conj.take(before + g * n_roots)
            last = g.astype(added.dtype)
        np.concatenate([before, last], axis=1, out=roots[k])
    return roots, preds


def _reflection_down_set(
    preds: list[np.ndarray], bounds: np.ndarray, refl_ids: np.ndarray
) -> np.ndarray:
    """Bool mask of D, the elements below some reflection in Bruhat order.

    preds are one side's step predecessors by level, in id order, as
    _tree_steps lists them, up to the longest reflection's level.  Bruhat
    order is generated by the steps, and the left and right steps into x
    reach the same elements (x * t = (x t x^-1) * x), so D is closed under
    the predecessors of both sides.  Marked one level at a time, from the
    longest reflection's level down.
    """
    ids = bounds.tolist()
    inside = np.zeros(ids[-1], dtype=bool)
    inside[refl_ids] = True
    for k in range(len(preds) - 1, 0, -1):
        # a scatter through intp indices is the fast one
        inside[preds[k][inside[ids[k]:ids[k + 1]]].astype(np.intp)] = True
    return inside


# -- the two kernels -------------------------------------------------------------


def reach_words(tables: _NumpyTables, unions: np.ndarray, side: str) -> np.ndarray:
    """Length-increasing reachability from e under each union, 64 unions a word.

    unions is (k, n_words) uint64, one root set of labels per row.  The
    result is (|W|, ceil(k / 64)) uint64: bit j % 64 of word j // 64 in row
    x is set when x is reachable under union j, by steps x -> s_alpha * x
    (side="left") or x -> x * s_alpha (side="right") with alpha in the union
    and length going up.  A level dynamic program: reach[x] is the OR of
    reach[p] & labels[r] over the descent steps (r, p) into x, exactly k of
    them for x of length k, so a level is one (k, n_k) gather and an OR
    down its first axis.  Any other side raises ValueError.

    Word columns are independent, so the program runs over tiles of
    groups of 4 words, as many as keep one tile's reach array within
    _REACH_TILE_BYTES, where each level's gathers stay in cache, and each
    gathered row is 32 bytes (_run_program); a batch of one or two words
    is one tile of its own words, and a batch of one union one tile of
    bytes, one a root and one a slot.
    """
    return _run_program(tables, unions, tables.program(side), tables.slots, tables.lengths.size)


def reflection_reach_words(
    tables: _NumpyTables, unions: np.ndarray, side: str
) -> np.ndarray:
    """The rows of reach_words at the reflections: (n_roots, ceil(k / 64)).

    Row r is reach_words' row of the reflection of root r, bit for bit.  A
    path to a reflection t passes only through elements below t in Bruhat
    order, so the program runs over the columns of D, the Bruhat down-set
    of the reflections, alone, and no level above the longest reflection
    is run.  The tiles hold as many groups of 4 words as D's rows allow:
    one on H4 and E6, all 16 of a 4,096-union chunk on F4 and D5.  Within
    a tile, a root in every union is decided: e -> t_r is a rising step
    labelled r, so its reflection's row is its label row.  The program
    stops at the longest reflection whose root is not decided
    (_tile_rows).

    One side a call, over that side's program alone: the sweeps route
    thousands of unions a chunk, where a level's cost is its gathers, and
    running both sides in one level loop (_paired_reflection_words) would
    double each tile's working set for no fewer gathers.  Only a batch of
    one, whose levels cost numpy's fixed cost per call, gains by pairing.
    """
    blocks = tables.program(side, reflections_only=True)
    return _run_program(tables, unions, blocks, tables.refl_slots, tables.down_size)


def _paired_reflection_words(tables: _NumpyTables, unions: np.ndarray) -> np.ndarray:
    """Both sides' reflection_reach_words in one run: (2, n_roots, ceil(k / 64)).

    Entry 0 is the left side's result and entry 1 the right side's, bit
    for bit.  The level loop runs once over the paired program
    (_NumpyTables.paired_program), whose level blocks hold both sides'
    steps over D, so each level costs one gather, one AND and one OR for
    the two routes.  The two sides' steps stay separate inputs: pairing
    shares the array calls, not the routes.  A root in every union of a
    tile decides both sides, so the stop level is the one either side's
    tile would stop at.
    """
    blocks, rows = tables.paired_program()
    return _run_program(tables, unions, blocks, rows, 2 * tables.down_size)


def _run_program(
    tables: _NumpyTables, unions: np.ndarray, blocks: list, rows: np.ndarray, filled: int
) -> np.ndarray:
    """The reach rows `rows` (slots, of any shape) under each union, tile by tile.

    A batch of one union is one tile of bytes: its labels are one uint8 a
    root, 1 for each root of the union (which is then decided, below),
    unpacked from its words, and its reach rows are one uint8 a slot, in
    a 1-D array, cast to one word a row at the end.  At a batch of one a level costs numpy's fixed cost
    per call, so this tile runs the same level loop with neither the
    transpose of the labels in nor that of the rows out that a tile of
    words needs (transpose_bits).

    A batch of one or two words is one tile of (n_roots, words) labels.
    A longer one is laid out in groups of 4 words, (groups, n_roots, 4),
    so that every row a level gathers is 32 bytes, which numpy's take
    copies with a typed loop, as it does 8- and 16-byte rows, where the
    56- and 80-byte rows of 7- and 10-word tiles take one memmove each.
    A last group short of 4 words is padded with zero words, which are
    sliced off the result.  A tile is as many groups as keep its reach
    array of `filled` rows within _REACH_TILE_BYTES, at least one.

    rows is tables.slots for the full program, whose tiles run every
    level; any other rows are the reflections' rows, whose tiles run the
    program only as far up as their undecided roots need (_tile_rows).
    A root is decided in a tile when it lies in every union of the tile,
    that is when its label words equal full there: full holds each
    word's bits of real unions, so a root need not be in the padding
    bits of the last word, and it is 0 on the padding words, which no
    union owns.  The result is rows.shape plus one axis of ceil(k / 64)
    words, C-contiguous, with no bit at or past k: e's row, which a tile
    of words holds all ones while its levels run, is written as full.  A
    batch of no unions has no words.
    """
    n_roots, count = tables.n_roots, unions.shape[0]
    if count == 1:  # one tile of bytes
        labels = _unpack_words(unions, n_roots)[0].view(np.uint8)
        out = _tile_rows(tables, blocks, rows, labels, labels.view(bool))
        return out.astype(np.uint64)[..., None]
    flat = transpose_bits(unions, n_roots)
    words = flat.shape[1]
    if not words:
        return np.zeros(rows.shape + (0,), dtype=np.uint64)
    full = np.full(words, _WORD_MASK, dtype=np.uint64)
    full[-1] >>= np.uint64(-count % 64)
    if words < 3:  # one tile of 8- or 16-byte rows
        labels, tiles = flat, [(slice(None), slice(None))]
    else:  # groups of 4 words, the last padded with zero words
        groups = -(-words // 4)
        if words % 4:
            pad = groups * 4 - words
            flat = np.concatenate([flat, np.zeros((n_roots, pad), dtype=np.uint64)], axis=1)
            full = np.concatenate([full, np.zeros(pad, dtype=np.uint64)])
        labels = np.ascontiguousarray(flat.reshape(n_roots, groups, 4).transpose(1, 0, 2))
        size = max(1, _REACH_TILE_BYTES // (32 * filled))  # groups a tile
        tiles = [
            (slice(lo, lo + size), slice(4 * lo, 4 * (lo + size))) for lo in range(0, groups, size)
        ]
    # each tile is its groups' labels and the same words of flat and full
    parts = [
        _tile_rows(tables, blocks, rows, labels[part], (flat[:, cut] == full[cut]).all(axis=1))
        for part, cut in tiles
    ]
    if words < 3:
        out = parts[0]
    else:
        grouped = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out = np.moveaxis(grouped, 0, -2).reshape(rows.shape + (-1,))
        out = np.ascontiguousarray(out[..., :words])
    if rows is tables.slots:
        out[0] = full[:words]  # e's row, all ones in the tiles
    return out


def _tile_rows(
    tables: _NumpyTables, blocks: list, rows: np.ndarray, labels: np.ndarray, decided: np.ndarray
) -> np.ndarray:
    """The reach rows `rows` over one tile of labels, bytes or words.

    labels is one union's bytes, (n_roots,), or words, (n_roots, c) or
    grouped, (groups, n_roots, c), and the result is its leading axes,
    then rows.shape, then its row of words, if any.  For the full
    program, rows is tables.slots and every level runs.  Any other rows
    are the reach rows of the reflections, by root on their last axis:
    one side's slots, or both sides' rows of the paired program.  decided
    marks the roots in every union of the tile: a decided root's
    reflection's row is its label row, on either side, since e -> t_r
    raises length and no row but e's holds padding bits.  stop is the
    level of the longest reflection whose root is not decided, 0 when
    every root is; only levels 1..stop run, which fill the rows of every
    reflection up to that level, and the longer ones are copied from the
    label rows.  At stop = top the tile costs what one full run does.
    """
    axis = -1 if labels.ndim == 1 else -2  # the axis of the roots, and of the slots
    stop = None if rows is tables.slots else int(tables.refl_lengths[~decided].max(initial=0))
    if stop in (None, len(blocks)):
        return _reach_tile(blocks, labels).take(rows, axis=axis)
    lead, row = labels.shape[:axis], labels.shape[labels.ndim + axis + 1:]
    # the label rows, once for each side
    copied = labels.reshape(lead + (1,) * (rows.ndim - 1) + (tables.n_roots,) + row)
    if not stop:
        return np.broadcast_to(copied, lead + rows.shape + row).copy()
    run = (tables.refl_lengths <= stop).reshape((-1,) + (1,) * len(row))
    return np.where(run, _reach_tile(blocks, labels, stop).take(rows, axis=axis), copied)


def _reach_tile(blocks: list, labels: np.ndarray, stop: int | None = None) -> np.ndarray:
    """Reach rows by slot over one tile of labels, in the labels' layout.

    labels is one union's bytes, (n_roots,) uint8 of 0 and 1, or words,
    (n_roots, c) or grouped, (groups, n_roots, c) uint64.  The reach rows
    are laid out the same with slots for roots: one byte a slot, or rows
    of c words with the same leading axes.  Slot 0 is e, set for every
    union, so that a level may read it for any union and either side: 1
    in a tile of bytes, whose rows all hold 0 or 1, and all ones in a
    tile of words, where e's row is the only one with bits past the
    tile's unions, since every other row is masked by label rows
    (_run_program writes the batch's union bits there).  Block (lo, hi,
    roots, preds) fills slots lo..hi-1 from slots of shorter elements, by
    one take along the slot axis of the reach rows at preds and one of
    the label rows at roots, and an OR down the step axis; slots that no
    block fills are left unset, and so are all slots above level stop
    when the blocks run only up to it.  The arrays are sized for every
    block whatever stop is, so tiles that stop at different levels ask
    the allocator for the same sizes (sizes that vary left holes in the
    heap); np.empty touches no page a tile leaves unused.

    A level whose gathers hold 8 * _SCRATCH_WORDS bytes or more gathers
    into two scratch arrays that every such level of the tile reuses:
    fresh arrays that large may be fresh memory mappings, page-faulted on
    every level, depending on what the process freed before.  The scratch
    takes skip the bounds check (mode="clip" never clips): every
    predecessor lies in a shorter level, which the build checks.  Smaller
    gathers allocate their own, which costs less than slicing scratch
    views.
    """
    axis = -1 if labels.ndim == 1 else -2  # the axis of the roots, and of the slots
    lead, row = labels.shape[:axis], labels.shape[labels.ndim + axis + 1:]
    in_row = (slice(None),) * len(row)  # a reach row's words, if any
    entries = labels.size // labels.shape[axis]  # entries one step gathers
    reach = np.empty(lead + (blocks[-1][1],) + row, dtype=labels.dtype)
    reach[(..., 0) + in_row] = 1 if axis == -1 else _WORD_MASK  # e's row
    scratch = None
    for lo, hi, roots, preds in blocks[:stop]:
        if roots.size * entries * labels.itemsize < 8 * _SCRATCH_WORDS:
            step = reach.take(preds, axis=axis)
            step &= labels.take(roots, axis=axis)
        else:
            if scratch is None:
                most = max(block[2].size for block in blocks)
                scratch = np.empty((2, most * entries), dtype=labels.dtype)
            gathered = scratch[:, :roots.size * entries]
            step, mask = gathered.reshape((2,) + lead + roots.shape + row)
            reach.take(preds, axis=axis, out=step, mode="clip")
            labels.take(roots, axis=axis, out=mask, mode="clip")
            step &= mask
        np.bitwise_or.reduce(step, axis=axis - 1, out=reach[(..., slice(lo, hi)) + in_row])
    return reach


def weak_joins(system: "CoxeterSystem", unions: np.ndarray) -> np.ndarray:
    """Element id of the weak-order join of each union of inversion sets.

    unions is (k, n_words) uint64.  In a finite group Phi(u v v) is the
    2-closure cl(A) of A = Phi_u | Phi_v (Bjorner-Edelman-Ziegler 1990;
    Hohlweg-Labbe 2016): cone rounds run over the transposed unions until
    none adds a root, and each closure is looked up among the sorted keys.
    That is certified: before a system's first join, a round over every
    inversion set must add nothing.  Then the x found has Phi_x = cl(A),
    so x is an upper bound, and every upper bound y has a closed Phi_y
    that holds A, hence cl(A).  Either check failing raises CoxeterError.
    The certifying round runs over blocks of inversion sets, 64 a word,
    with as many words a block as keep both its gather (one row a cone
    triple) and the byte matrix transpose_bits masks (64 bytes a word for
    every byte of a set) under _SCRATCH_WORDS: a larger temporary may be a
    fresh mapping that page-faults.
    """
    table = system.table
    if not system._joins_certified:
        triples = table.cone_triples()[0].size
        n_bytes = -(-table.n_roots // 8)
        rows = 64 * max(1, _SCRATCH_WORDS // max(triples, 64 * n_bytes))
        for lo in range(0, system.size, rows):
            sets = transpose_bits(system.inv_words[lo:lo + rows], table.n_roots)
            if table.cone_round(sets).any():
                raise CoxeterError(
                    "an inversion set is not closed: the cone table is inconsistent"
                )
        system._joins_certified = True
    sets = transpose_bits(unions, table.n_roots)
    while (added := table.cone_round(sets)).any():
        sets |= added
    what = ("the closure of a union is no element's inversion set: the cone "
            "table is inconsistent")
    return system._ids_of(transpose_bits(sets, unions.shape[0]), what)


class CoxeterSystem:
    """A fully enumerated finite Coxeter group over its exact root table."""

    def __init__(self, table: RootTable, element_cap: int = DEFAULT_ELEMENT_CAP):
        self.table = table
        self.graph = table.graph
        self._inv_bits: list[int] | None = None
        self._enumerate(element_cap)
        self._np_tables: _NumpyTables | None = None
        self._joins_certified = False
        self._union_memo: OrderedDict[int, list[int | None]] = OrderedDict()

    def _enumerate(self, element_cap: int) -> None:
        """Breadth-first enumeration, one length level at a time.

        Each simple row of act must be an involution that negates its own
        root and no other, which is checked first.  An element x of the
        level being extended is held as tau_x, the signed action of x on
        the positive root indices (1-based, negative for a negative image),
        beside its inversion set Phi_x = {beta > 0 : x^-1(beta) < 0} in the
        codec's words; a level's tau is dropped once the next level is
        built.  x * s_i is longer than x exactly when tau_x(alpha_i) > 0,
        and its inversion set is Phi_x with the one root |tau_x(alpha_i)|
        flipped (Humphreys, Reflection Groups and Coxeter Groups, 1990,
        5.4-5.6): a level's products are the first n columns of its tau and
        one XOR per longer product.  The longer products are the next
        level, numbered by first occurrence in (x, i) order.
        The shorter ones need no lookup: x * s_i = y one level down exactly
        when y * s_i = x one level up, so they are the longer products of
        the level before, scattered back.  tau is made for the new elements
        only, as tau_{x s_i} = tau_x o s_i (_times_simple).  Ids, words and
        _right_by_gen are those of a FIFO breadth-first search over x * s_i
        in the same order; each new element records its parent x, letter
        i + 1 and, in _added, the root |tau_x(alpha_i)| its inversion set
        adds to x's, from which an element's word is spelled on request
        (GroupElement.word) and the step programs are built.  A word is its
        parent's word plus the letter, so ids run in (length, reduced word)
        lexicographic order.

        With valid simple rows every product is one level up or down, so
        no word can fail to be reduced and nothing checks for it.  Valid
        simple rows can still generate a group that is not the table's (a
        row that fixes a root its reflection moves); then some shorter
        product is the product of no element of the level before, or of
        two, and CoxeterError is raised.  The other rows of act are read
        for the reflections only: a row whose negated roots are no
        element's inversion set, or are even in number, raises
        CoxeterError, and so does a group with no element that inverts
        every root.

        Each inversion set is packed once, in inv_words; its _word_keys
        (the word itself up to 64 roots) are the sorted lookup keys.  An
        element reads its own row as an int (GroupElement.inversion_bits).
        """
        n = self.graph.rank
        n_roots = self.table.n_roots
        act = np.array(self.table.act, dtype=np.intp)
        simple = act[:n]
        perm = np.abs(simple) - 1
        if (
            (perm < 0).any()
            or (perm >= n_roots).any()
            or ((simple < 0) != np.eye(n, n_roots, dtype=bool)).any()
            or (_compose(simple, simple) != np.arange(1, n_roots + 1)).any()
        ):
            raise CoxeterError(
                "a simple reflection must be an involution that negates its "
                "own root and no other: the root table is inconsistent"
            )
        level = np.arange(1, n_roots + 1, dtype=np.min_scalar_type(-n_roots - 1))[None]
        flips = _pack_words(np.eye(n_roots, dtype=bool))  # row r is the set {r}
        words = np.zeros((1, flips.shape[1]), dtype=np.uint64)
        by_gen, inv_words = [], [words]
        parents, letters = [np.zeros(1, dtype=np.int32)], [np.zeros(1, dtype=np.int32)]
        added = [np.zeros(1, dtype=np.min_scalar_type(n_roots - 1))]
        sizes = [1]  # the number of elements of each length
        back = back_ids = np.zeros(0, dtype=np.intp)  # the level before's products
        start = 0
        for k in range(n_roots + 1):  # lengths run from 0 to n_roots
            m = level.shape[0]
            images = level[:, :n].ravel()  # tau_x(alpha_i) in (x, i) order
            down = images < 0
            # y * s_i = x one level up is x * s_i = y one level down: each
            # shorter product is written once, by the level before
            product = np.empty(m * n, dtype=np.int32)
            product[back] = back_ids
            if (np.bincount(back, minlength=m * n) != down).any():
                raise CoxeterError(
                    "a shorter product is not in the level before: the root "
                    "table is inconsistent"
                )
            by_gen.append(product.reshape(m, n))
            ups = np.flatnonzero(~down)
            if not ups.size:
                break
            x, gen = np.divmod(ups, n)
            flipped = images[ups] - 1  # the root each longer product adds
            found = words.take(x, axis=0) ^ flips.take(flipped, axis=0)
            _, first, slot = np.unique(
                _word_keys(found), return_index=True, return_inverse=True
            )
            size = start + m
            if size + first.size > element_cap:
                raise FinitenessExceeded(f"more than {element_cap} group elements")
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            number = rank[slot]  # the new elements, numbered by first occurrence
            product[ups] = size + number
            back, back_ids = number * n + gen, start + x
            new = first[order]
            added.append(flipped[new].astype(added[0].dtype))
            parent, gen = x[new], gen[new]
            level = _times_simple(level, parent, gen, perm)
            words = found[new]
            inv_words.append(words)
            parents.append((start + parent).astype(np.int32))
            letters.append((gen + 1).astype(np.int32))
            sizes.append(new.size)
            start = size
        self.lengths = np.repeat(np.arange(len(sizes), dtype=np.int16), sizes)
        self._parent, self._letter = _joined(parents), _joined(letters)
        self._added = _joined(added)
        self._right_by_gen = _joined(by_gen)
        self.inv_words = _joined(inv_words)
        self.size = self.inv_words.shape[0]
        keys = _word_keys(self.inv_words)
        self._by_key = np.argsort(keys).astype(np.int32)
        self._sorted_keys = keys[self._by_key]
        refl = self._ids_of(
            _pack_words(act < 0),
            "a reflection is not an element of the group: the root table "
            "is inconsistent",
        )
        # a reflection's length is the number of roots its row negates
        if (np.count_nonzero(act < 0, axis=1) % 2 != 1).any():
            raise CoxeterError("a reflection must have odd length")
        self.refl_ids = refl.astype(np.int32)
        full = bits_to_words((1 << n_roots) - 1, self.inv_words.shape[1])[None]
        self._w0 = int(self._ids_of(full, "the longest element is missing")[0])

    def _ids_of(self, words: np.ndarray, what: str) -> np.ndarray:
        """Element ids of the inversion sets in the rows of a word array.

        A set that is no element's raises CoxeterError(what).
        """
        return _find(self._sorted_keys, self._by_key, _word_keys(words), what)

    def _set_words(self, bits: int) -> np.ndarray:
        """One root bit-set as a (1, n_words) batch; ValueError outside the roots."""
        n_roots = self.table.n_roots
        if not 0 <= bits < 1 << n_roots:
            raise ValueError(f"bits outside the {n_roots} positive roots")
        return bits_to_words(bits, self.inv_words.shape[1])[None, :]

    def _record(self, bits: int) -> list[int | None]:
        """The memo's record of a union of roots, made on first use.

        The memo keys each union by its bits.  Its record is a list of the
        join's element id, the left route's reached-reflection bits and
        the right route's, as ints, None where an answer is not yet
        computed: join_of_union_bits and reached_reflections fill their
        entries in place, after checking their arguments.  A new union is
        checked against the roots (ValueError outside them) before
        anything is stored.  The memo holds at most _UNION_MEMO unions: a
        new one past that drops the oldest, first in, first out.  It is
        an OrderedDict because a plain dict's first key is found by a scan
        past the slots of every key deleted since its last resize.
        """
        memo = self._union_memo
        record = memo.get(bits)
        if record is None:
            if not 0 <= bits < 1 << self.table.n_roots:
                raise ValueError(f"bits outside the {self.table.n_roots} positive roots")
            if len(memo) >= _UNION_MEMO:
                memo.popitem(last=False)
            record = memo[bits] = [None, None, None]
        return record

    # -- basic access -------------------------------------------------------

    @property
    def inv_bits(self) -> list[int]:
        """Every element's inversion set as a Python int bit-set, by id.

        Spelled out from inv_words on first read and kept; no library path
        reads it.
        """
        if self._inv_bits is None:
            self._inv_bits = words_to_bits(self.inv_words)
        return self._inv_bits

    def element(self, index: int) -> GroupElement:
        """The element with id `index`; ValueError outside [0, size)."""
        if not 0 <= index < self.size:
            raise ValueError(f"element index {index} out of range")
        return GroupElement(self, index)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    @property
    def longest_element(self) -> GroupElement:
        return GroupElement(self, self._w0)

    def elements(self) -> Iterator[GroupElement]:
        return (GroupElement(self, i) for i in range(self.size))

    def element_from_word(self, word: Iterable[int]) -> GroupElement:
        """Multiply out a (not necessarily reduced) 1-based generator word."""
        x = 0
        for letter in word:
            i = int(letter) - 1
            if not 0 <= i < self.graph.rank:
                raise ValueError(f"generator index {letter} out of range")
            x = self._right_by_gen[x, i]
        return GroupElement(self, int(x))

    def element_by_bits(self, bits: int) -> GroupElement:
        """The element with inversion set `bits`; CoxeterError if there is none."""
        n_roots = self.table.n_roots
        what = f"no element has the inversion set {bits:#x}"
        if not 0 <= bits < 1 << n_roots:
            raise CoxeterError(what)
        words = bits_to_words(bits, self.inv_words.shape[1])[None]
        return GroupElement(self, int(self._ids_of(words, what)[0]))

    # -- reflections and phi --------------------------------------------------

    def reflection(self, root_index: int) -> GroupElement:
        """phi: positive root index -> the reflection through that root."""
        if not 0 <= root_index < self.table.n_roots:
            raise ValueError(f"root index {root_index} out of range")
        return GroupElement(self, int(self.refl_ids[root_index]))

    def reflection_root(self, element: GroupElement) -> int:
        """phi^{-1}: reflection element -> its positive root index."""
        if element.system is not self:
            raise ValueError("element belongs to a different system")
        roots = np.flatnonzero(self.refl_ids == element.index)
        if not roots.size:
            raise NotAReflection(f"{element!r} is not a reflection")
        return int(roots[0])

    def reflections(self) -> list[GroupElement]:
        return [GroupElement(self, i) for i in self.refl_ids.tolist()]

    # -- products by reflections ----------------------------------------------

    def numpy_tables(self) -> _NumpyTables:
        if self._np_tables is None:
            self._np_tables = _NumpyTables(self)
        return self._np_tables

    def left_mul_reflection(self, root_index: int, element_index: int) -> int:
        """Element id of t * x for the reflection t of a root and the element x:
        the key of Phi_{t x} = Phi_t xor |t(Phi_x)|, which is T_L(u v) =
        T_L(u) xor u T_L(v) u^-1 (Bjorner-Brenti 2005, 1.4) for u = t."""
        self._check_indices(root_index, element_index)
        n_roots = self.table.n_roots
        inside = _unpack_words(self.inv_words[element_index], n_roots)
        image = np.zeros(n_roots, dtype=bool)
        image[np.abs(np.array(self.table.act[root_index]))[inside] - 1] = True
        words = self.inv_words[self.refl_ids[root_index]] ^ _pack_words(image)
        return int(self._ids_of(words[None], "a product is no element")[0])

    def right_mul_reflection(self, element_index: int, root_index: int) -> int:
        """Element id of x * t for the element x and the reflection t of a root:
        t' * x for t' = x t x^-1, through |x(beta_t)|, x's word applied."""
        self._check_indices(root_index, element_index)
        act, root = self.table.act, root_index + 1
        for letter in reversed(self.element(element_index).word):
            image = act[letter - 1][abs(root) - 1]
            root = image if root > 0 else -image
        return self.left_mul_reflection(abs(root) - 1, element_index)

    def _check_indices(self, root_index: int, element_index: int) -> None:
        if not 0 <= root_index < self.table.n_roots:
            raise ValueError(f"root index {root_index} out of range")
        if not 0 <= element_index < self.size:
            raise ValueError(f"element index {element_index} out of range")

    def reachable_ids(self, label_bits: int, side: str) -> np.ndarray:
        """Length-increasing reachability from the identity, as a bool vector.

        side="left" steps x -> s_alpha * x (Bruhat-path arrival vertices),
        side="right" steps x -> x * s_alpha (the tau product map); in both
        cases only steps that increase length are taken and the start
        vertex (the identity) is marked.  One call of the batched kernel
        with a batch of one, whose tile of bytes holds one 0 or 1 a row.
        """
        words = self._set_words(label_bits)
        return reach_words(self.numpy_tables(), words, side)[:, 0] != 0

    def reach(self, labels: RootSubset, side: str) -> np.ndarray:
        """reachable_ids for a root subset.

        The subset must belong to this system's root table; one of another
        table raises ValueError.
        """
        if labels.table is not self.table:
            raise ValueError("label subset belongs to a different root table")
        return self.reachable_ids(labels.bits, side)

    def reached_reflections(self, labels: RootSubset, side: str) -> RootSubset:
        """The roots of the reflections reachable under a root subset, from
        the program over the reflections' down-set alone, remembered per
        union (_record).

        A union the memo holds no route of, asked once the system's right
        program exists, runs both routes in one level loop
        (_paired_reflection_words) and remembers both: a single-pair route
        costs numpy's fixed cost per level, which pairing pays once for the
        two sides.  Any other miss runs the asked side alone, so that the
        left route of an "H"-only caller (check_conjecture_H, weakorder
        join) never builds the right program, nor the paired one.

        Either run is a batch of one union, which the kernels run as a tile
        of bytes (_run_program): each reflection's row is one word holding
        0 or 1, so the rows of each side are packed straight into its
        bits, with no transpose of the labels in or of the rows out.

        The subset must belong to this system's root table; one of another
        table raises ValueError.
        """
        if labels.table is not self.table:
            raise ValueError("label subset belongs to a different root table")
        _check_side(side)
        record, slot = self._record(labels.bits), 1 + (side == "right")
        if record[slot] is None:
            words = self._set_words(labels.bits)
            npt = self.numpy_tables()
            if record[1] is None and record[2] is None and "right" in npt._programs:
                rows = _paired_reflection_words(npt, words)
                record[1:] = words_to_bits(_pack_words(rows.reshape(2, -1)))
            else:
                rows = reflection_reach_words(npt, words, side)
                record[slot] = words_to_bits(_pack_words(rows.reshape(1, -1)))[0]
        return RootSubset(self.table, record[slot])

    # -- type-A permutation dictionary ----------------------------------------

    def is_type_a(self) -> bool:
        """Is the graph the chain A_rank, in its generator order?"""
        return self.graph.m == CoxeterGraph.from_name(f"A{self.graph.rank}").m

    def permutation_of(self, element: GroupElement) -> tuple[int, ...]:
        """One-line notation in S_{rank+1} under s_i <-> t_{i,i+1}."""
        if not self.is_type_a():
            raise WrongType("one-line notation needs a type-A chain graph")
        return perm_of_word(self.graph.rank + 1, element.word)

    def element_of_permutation(self, line: Sequence[int]) -> GroupElement:
        if not self.is_type_a():
            raise WrongType("one-line notation needs a type-A chain graph")
        if sorted(line) != list(range(1, self.graph.rank + 2)):
            raise ValueError(f"{line!r} is not a permutation of 1..{self.graph.rank + 1}")
        return self.element_from_word(word_of_perm(tuple(line)))


def enumerate_group(
    table: RootTable, element_cap: int = DEFAULT_ELEMENT_CAP
) -> CoxeterSystem:
    """Breadth-first enumeration of the whole group over a finite root table.

    Raises FinitenessExceeded when the group has more than element_cap
    elements.
    """
    return CoxeterSystem(table, element_cap=element_cap)


def build_system(
    type_or_graph: str | CoxeterGraph,
    cap: int = DEFAULT_ROOT_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> CoxeterSystem:
    """Convenience: graph -> root table -> enumerated system."""
    graph = (
        CoxeterGraph.from_name(type_or_graph)
        if isinstance(type_or_graph, str)
        else type_or_graph
    )
    return enumerate_group(
        generate_positive_roots(graph, cap=cap),
        element_cap=element_cap,
    )


def left_reflection_set(element: GroupElement) -> RootSubset:
    """The inversion set Phi_w as a root subset (so |result| = length)."""
    return RootSubset(element.system.table, element.inversion_bits)
