"""Transposition combinatorics of the symmetric group (the type-A fast path).

Permutations are tuples in one-line notation with values 1..n; s_i is the
adjacent transposition t_{i,i+1}, and a transposition t_ab (a < b) acts on
the left by swapping the values a and b.  The left reflection set is

    T_L(sigma) = { t_ab : a < b, sigma^{-1}(a) > sigma^{-1}(b) },

i.e. the inversion pairs of sigma^{-1}.  Joins in weak order come from the
transitive closure of unions of such sets, and Bruhat paths to a
transposition carry enough structure (interval confinement, an extractable
increasing chain) to build palindromic paths witnessing reachability.

>>> sorted(tl_set(parse_perm("3124")))
[(1, 3), (2, 3)]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Sequence

Perm = tuple[int, ...]
Transposition = tuple[int, int]

MAX_N = 12


class PermError(Exception):
    """Base class for permutation-model failures."""


class NotInClosure(PermError):
    """The requested transposition is not in the transitive closure."""


class NotEndingAtReflection(PermError):
    """The path does not end at a transposition."""


class LinkingViolation(PermError):
    """The extracted subsequence fails the increasing-chain property."""


class NotIncreasing(PermError):
    """A path step does not increase the length."""


class NotAJoin(PermError):
    """The closed inversion-pair set is not the inversion set of a permutation."""


def _check_n(n: int) -> None:
    if n > MAX_N:
        raise PermError(f"n={n} exceeds the supported maximum {MAX_N}")


# -- basic permutation algebra ------------------------------------------------------


def parse_perm(text: str, n: int | None = None) -> Perm:
    """One-line notation: digits for n <= 9, comma-separated beyond.

    >>> parse_perm("3124"), parse_perm("10,2,3,4,5,6,7,8,9,1")[:2]
    ((3, 1, 2, 4), (10, 2))
    """
    text = text.strip()
    values = (
        tuple(int(tok) for tok in text.split(","))
        if "," in text
        else tuple(int(ch) for ch in text)
    )
    size = n if n is not None else len(values)
    if sorted(values) != list(range(1, size + 1)):
        raise ValueError(f"{text!r} is not a permutation of 1..{size}")
    return values


def format_perm(p: Perm) -> str:
    return (
        "".join(str(x) for x in p) if len(p) <= 9
        else ",".join(str(x) for x in p)
    )


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for pos, val in enumerate(p):
        out[val - 1] = pos + 1
    return tuple(out)


def lmul_transposition(t: Transposition, p: Perm) -> Perm:
    """Left product t * p: swap the values t[0] and t[1] in one-line notation."""
    a, b = t
    return tuple(b if x == a else a if x == b else x for x in p)


def transposition_perm(n: int, t: Transposition) -> Perm:
    return lmul_transposition(t, identity(n))


def as_transposition(p: Perm) -> Transposition:
    """The pair (a, b) when p is a transposition; raises otherwise."""
    moved = [i + 1 for i, x in enumerate(p) if x != i + 1]
    if len(moved) == 2 and p[moved[0] - 1] == moved[1] and p[moved[1] - 1] == moved[0]:
        return (moved[0], moved[1])
    raise NotEndingAtReflection(f"{format_perm(p)} is not a transposition")


def inv_set(p: Perm) -> frozenset[Transposition]:
    """Inversion pairs (i, j), i < j, appearing out of order in one-line notation."""
    n = len(p)
    return frozenset(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if p[i] > p[j]
    )


def inv_count(p: Perm) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def tl_set(p: Perm) -> frozenset[Transposition]:
    """Left reflection set: { t_ab : a < b, p^{-1}(a) > p^{-1}(b) }."""
    return inv_set(inverse(p))


def word_of_perm(p: Perm) -> tuple[int, ...]:
    """A reduced word in adjacent transpositions (1-based), deterministic."""
    work = list(p)
    letters: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                letters.append(i + 1)
                changed = True
    letters.reverse()
    return tuple(letters)


def perm_of_word(n: int, word: Iterable[int]) -> Perm:
    line = list(range(1, n + 1))
    for i in word:
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


# -- joins via transitive closure ----------------------------------------------------


def transitive_closure(pairs: Iterable[Transposition], n: int) -> frozenset[Transposition]:
    """Close a set of ordered pairs (a < b) under (a,b),(b,c) => (a,c)."""
    succ = [0] * (n + 1)  # succ[a] = bitmask of b > a with (a, b) present
    for a, b in pairs:
        if not 1 <= a < b <= n:
            raise ValueError(f"({a}, {b}) is not an increasing pair in 1..{n}")
        succ[a] |= 1 << b
    for a in range(n, 0, -1):
        mask = succ[a]
        acc = mask
        while mask:
            b = mask & -mask
            acc |= succ[b.bit_length() - 1]
            mask ^= b
        succ[a] = acc
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        if succ[a] >> b & 1
    )


def transitive_closure_join(p: Perm, q: Perm) -> tuple[frozenset[Transposition], Perm]:
    """The closed set T_L(p) union T_L(q) and the permutation realizing it.

    The join is rebuilt by sorting 1..n with "a before b iff (a, b) is not
    in the closed set" and the result is verified to have exactly the
    closed set as its left reflection set (NotAJoin otherwise).

    >>> closed, join = transitive_closure_join(parse_perm("3124"), parse_perm("1423"))
    >>> format_perm(join), sorted(closed)
    ('4312', [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    """
    n = len(p)
    _check_n(n)
    if len(q) != n:
        raise ValueError("permutations have different sizes")
    closed = transitive_closure(tl_set(p) | tl_set(q), n)

    def before(a: int, b: int) -> int:
        if a == b:
            return 0
        if a < b:
            return 1 if (a, b) in closed else -1
        return -1 if (b, a) in closed else 1

    join = tuple(sorted(range(1, n + 1), key=cmp_to_key(before)))
    if tl_set(join) != closed:
        raise NotAJoin("the transitive closure is not the inversion set of its order")
    return closed, join


# -- Bruhat paths ---------------------------------------------------------------------


@dataclass(frozen=True)
class BruhatPath:
    """An increasing-length path from the identity in the Bruhat graph of S_n.

    vertices[k] is the product labels[k] * ... * labels[1] applied to the
    identity (left multiplication at every step); lengths strictly increase.
    """

    n: int
    labels: tuple[Transposition, ...]
    vertices: tuple[Perm, ...]

    @classmethod
    def from_labels(cls, n: int, labels: Sequence[Transposition]) -> "BruhatPath":
        vertices = []
        current = identity(n)
        inv_prev = 0
        for t in labels:
            current = lmul_transposition(t, current)
            inv_cur = inv_count(current)
            if inv_cur <= inv_prev:
                raise NotIncreasing(f"path step {t} does not increase length")
            inv_prev = inv_cur
            vertices.append(current)
        return cls(n, tuple(labels), tuple(vertices))

    @property
    def end(self) -> Perm:
        return self.vertices[-1] if self.vertices else identity(self.n)


def bruhat_reachable_perms(
    n: int, labels: Iterable[Transposition]
) -> set[Perm]:
    """All arrival vertices (including e) of label-restricted increasing paths."""
    _check_n(n)
    labels = list(labels)
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        fresh = []
        for p in frontier:
            base = inv_count(p)
            for t in labels:
                q = lmul_transposition(t, p)
                if q not in seen and inv_count(q) > base:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return seen


def palindromic_path(p: Perm, q: Perm, t: Transposition) -> BruhatPath:
    """A palindromic Bruhat path from e to t with labels in T_L(p) | T_L(q).

    Takes a shortest increasing chain a = i_0 < ... < i_l = b with every
    step (i_k, i_{k+1}) in the label union (ties broken by the smallest
    next index), then walks the chain forward and back:

        (a,i1), (i1,i2), ..., (i_{l-1},b), (i_{l-2},i_{l-1}), ..., (a,i1).

    Raises NotInClosure when t is not in the transitive closure of the
    union, which equals T_L(p join q).
    """
    n = len(p)
    _check_n(n)
    union = tl_set(p) | tl_set(q)
    a, b = t
    if not 1 <= a < b <= n:
        raise ValueError(f"{t} is not an increasing pair in 1..{n}")
    # shortest-chain distance from each index up to b (edges only go up, so
    # one descending sweep suffices)
    hops = {b: 0}
    for x in range(b - 1, a - 1, -1):
        steps = [
            hops[y] + 1
            for y in range(x + 1, b + 1)
            if (x, y) in union and y in hops
        ]
        if steps:
            hops[x] = min(steps)
    if a not in hops:
        raise NotInClosure(f"t_{t} is not reachable inside T_L union")
    chain = [a]
    while chain[-1] != b:
        x = chain[-1]
        chain.append(next(
            y for y in range(x + 1, b + 1)
            if (x, y) in union and hops.get(y) == hops[x] - 1
        ))
    forward = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    labels = forward + [forward[k] for k in range(len(forward) - 2, -1, -1)]
    path = BruhatPath.from_labels(n, labels)
    if path.end != transposition_perm(n, t):
        raise NotEndingAtReflection(f"palindromic path does not end at t_{t}")
    return path


def check_Tab_confinement(path: BruhatPath) -> bool:
    """Every label of a path ending at t_ab lies inside the interval [a, b]."""
    a, b = as_transposition(path.end)
    return all(a <= i and j <= b for i, j in path.labels)


def extract_chain(path: BruhatPath) -> tuple[Transposition, ...]:
    """The subsequence of labels that carries a to b, in path order.

    Scanning the labels in path order and tracking the image of a, exactly
    the labels containing the current image move it; the increasing-chain
    property says each such label contains the image as its smaller entry,
    so the selected labels link as (a,i1), (i1,i2), ..., (i_{k-1},b).
    Raises LinkingViolation if a selected label would move the image down.
    """
    a, b = as_transposition(path.end)
    tracked = a
    selected: list[Transposition] = []
    for (i, j) in path.labels:
        if tracked == i:
            selected.append((i, j))
            tracked = j
        elif tracked == j:
            raise LinkingViolation(
                f"label ({i}, {j}) moves the tracked entry {tracked} downward"
            )
    if tracked != b:
        raise LinkingViolation("path does not transport a to b")
    return tuple(selected)
