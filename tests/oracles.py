"""Independent oracles for the library's group model and kernels.

Kernels: the routes the library used before its bit-packed kernels, a
frontier breadth-first search over one label set at a time, and a float32
join from two matrix products over boolean root masks.  They read only the
oracle product tables (product_tables_gather over enumerate_bfs, built
once per type), the lengths and the Python-int inversion sets, never the
packed words or step programs the kernels use.

Group model: the element-by-element Python loops the library used before
its level-wise array code, a FIFO breadth-first search over signed
permutations and the product tables built one (reflection, element) pair
at a time, or one reflection at a time for the kernels' oracles.  They
read only the root table's act.

Root table: the scalar loops the library used before its keyed lookups
and its cone table, positive roots generated with a linear scan for
repeats, reflection images found by a scan over all roots, and cone masks
solved one pair at a time by Cramer's rule with an exact inverse.  They
read only the root coordinates and the bilinear form, and they sign
scalars with interval_sign, not with the library's MinimalPolynomial.signs.
The cones of the simple roots also have the per-root loop the library
used before its blocked array passes, with the ring's products and signs.
The cones of a rank-2 table also follow from its reflection order alone,
read off act, with no arithmetic.

The bit-matrix transpose between one word row per union and one word
row per root has the unpack, transpose and pack the library used before.

Reachability has a second oracle that is its own algorithm: a forward
push over the length-increasing entries of a product table, with one
Python int per element holding a bit per union, checked against the
breadth-first search on the small types.  Witness paths have the
forward (element, label) search the library's backward pass is checked
against, and
the Graphviz rendering the (vertex, label) loop over the left table.

Biclosed sets: every subset of the positive roots and its complement
through one cone round, the 2^n-subset test the library used before it
read them off the inversion sets.  Scalars: division and powers, built
on the ring's inverse and product alone.
"""

import collections
import functools
import math
import types
from fractions import Fraction

import numpy as np

from weakorder.coxeter import (
    CoxeterError,
    _pack_words,
    _unpack_words,
    generate_positive_roots,
)
from weakorder.scalar import build_ring, embed_cos


_BRACKETS = {}  # L -> the narrowest (lo, hi) around 2cos(pi/L) bisected so far


def _horner(coeffs, x):
    acc = Fraction(0)
    for coef in reversed(coeffs):
        acc = acc * x + coef
    return acc


def interval_sign(value):
    """Exact sign of a scalar by interval Horner evaluation over a bisected bracket of c.

    The bracket (lo, hi) of c = 2cos(pi/L), with psi_L(lo) < 0 < psi_L(hi),
    is seeded from a double, checked exactly, kept per L and bisected until
    the interval image of the numerator (den > 0) excludes zero.
    """
    if value.is_zero():
        return 0
    ring = value.ring
    psi = ring.coefficients
    if ring.L not in _BRACKETS:
        seed = Fraction(2 * math.cos(math.pi / ring.L))
        lo, hi = seed - Fraction(1, 1 << 40), seed + Fraction(1, 1 << 40)
        if not _horner(psi, lo) < 0 < _horner(psi, hi):
            raise ArithmeticError(f"failed to bracket 2cos(pi/{ring.L})")
        _BRACKETS[ring.L] = lo, hi
    coeffs = value.num
    for _ in range(20000):
        lo, hi = _BRACKETS[ring.L]
        vlo = vhi = Fraction(coeffs[-1])
        for coef in reversed(coeffs[:-1]):
            products = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(products) + coef, max(products) + coef
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        mid = (lo + hi) / 2
        _BRACKETS[ring.L] = (lo, mid) if _horner(psi, mid) > 0 else (mid, hi)
    raise ArithmeticError("sign determination failed to converge")


def divide(a, b):
    """a / b for scalars of one ring: a times the inverse of b."""
    return a * b.inverse()


def power(a, k):
    """a^k for an int k >= 0 by repeated products."""
    acc = a.ring.one()
    for _ in range(k):
        acc = acc * a
    return acc


def root_masks(bit_sets, n_roots):
    """(len(bit_sets), n_roots) bool matrix from Python-int root bit-sets."""
    return np.array(
        [[bits >> r & 1 for r in range(n_roots)] for bits in bit_sets], dtype=bool
    ).reshape(len(bit_sets), n_roots)


@functools.lru_cache(maxsize=None)
def _tables_of_type(graph):
    table = generate_positive_roots(graph)
    return product_tables_gather(table, enumerate_bfs(table))


def oracle_tables(system):
    """The oracle's (left, right) product tables of the system's type.

    Built by product_tables_gather from the type's own root table and
    enumerate_bfs, whose ids are the library's, once per type.
    """
    return _tables_of_type(system.graph)


@functools.lru_cache(maxsize=None)
def _ascents(system, side):
    """The oracle product table of one side and its length-increasing entries."""
    mul = oracle_tables(system)[side == "right"]
    return mul, system.lengths[mul] > system.lengths[None, :]


def reachable_ids_bfs(system, label_bits, side):
    """Frontier breadth-first search: bool vector of elements reachable from e
    by length-increasing products with reflections in label_bits."""
    mul, asc = _ascents(system, side)
    visited = np.zeros(system.size, dtype=bool)
    visited[0] = True
    labels = np.array(
        [r for r in range(system.table.n_roots) if label_bits >> r & 1],
        dtype=np.intp,
    )
    if labels.size == 0:
        return visited
    frontier = np.array([0], dtype=np.intp)
    while frontier.size:
        grid = np.ix_(labels, frontier)
        targets = mul[grid][asc[grid]]
        if targets.size == 0:
            break
        targets = np.unique(targets)
        targets = targets[~visited[targets]]
        visited[targets] = True
        frontier = targets.astype(np.intp)
    return visited


def reachable_ids_push(system, union_bits, side):
    """Reachability under many label sets at once, by a forward push.

    Element x holds one Python int with bit k set when x is reachable under
    union k.  Elements are taken in enumeration order, along which length
    never decreases, so every step into x has been pushed before x pushes
    on: reach[y] |= reach[x] & labels[r] for each length-increasing entry
    y = mul[r, x].  Returns a (len(union_bits), |W|) bool array.
    """
    mul, asc = _ascents(system, side)
    count = len(union_bits)
    masks = root_masks(union_bits, system.table.n_roots)
    labels = [
        int.from_bytes(np.packbits(column, bitorder="little").tobytes(), "little")
        for column in masks.T
    ]
    reach = [0] * system.size
    reach[0] = (1 << count) - 1
    elements, roots = np.nonzero(asc.T)
    targets = mul[roots, elements]
    for x, r, y in zip(elements.tolist(), roots.tolist(), targets.tolist()):
        reach[y] |= reach[x] & labels[r]
    width = -(-count // 8)
    rows = np.frombuffer(
        b"".join(bits.to_bytes(width, "little") for bits in reach), dtype=np.uint8
    ).reshape(system.size, width)
    return np.unpackbits(rows, axis=1, count=count, bitorder="little").T.astype(bool)


def path_witness_loop(system, labels, target_root):
    """The breadth-first witness path, one (element, label) pair at a time.

    The forward search that bruhat.path_witness's backward pass is checked
    against: frontier in discovery order, labels in index order, the
    first step into an element its parent; the search stops after the
    round that reaches the target.  Same result format, None when the
    reflection is not reachable.
    """
    target = system.reflection(target_root).index
    left, lengths = oracle_tables(system)[0], system.lengths
    parent = {0: (-1, -1)}
    frontier = [0]
    label_list = list(labels.indices())
    while frontier and target not in parent:
        fresh = []
        for x in frontier:
            for r in label_list:
                y = int(left[r, x])
                if lengths[y] > lengths[x] and y not in parent:
                    parent[y] = (x, r)
                    fresh.append(y)
        frontier = fresh
    if target not in parent:
        return None
    steps = []
    x = target
    while x != 0:
        px, r = parent[x]
        steps.append((r, x))
        x = px
    steps.reverse()
    return {
        "labels": [r for r, _ in steps],
        "vertices": ["e"] + [system.element(x).word_str() for _, x in steps],
    }


def to_dot_loop(u, v):
    """The Graphviz rendering of V_W(u, v), one (vertex, label) pair at a time.

    The loop bruhat.to_dot ran over the left product table before it read
    the step program: the vertices of the frontier search sorted by
    (length, word), reflections doubled, then for each vertex in that
    order and each label in index order the length-increasing edge.
    """
    system = u.system
    bits = u.inversion_bits | v.inversion_bits
    visited = reachable_ids_bfs(system, bits, "left")
    left, lengths = oracle_tables(system)[0], system.lengths
    ids = sorted(
        np.flatnonzero(visited).tolist(),
        key=lambda i: (lengths[i], system.element(i).word),
    )
    reflections = set(system.refl_ids.tolist())
    lines = [
        "digraph bruhat_paths {",
        "  rankdir=BT;",
        '  node [shape=ellipse, fontname="Helvetica"];',
    ]
    for i in ids:
        extra = ", peripheries=2, style=filled, fillcolor=lightgrey" if i in reflections else ""
        lines.append(f'  n{i} [label="{system.element(i).word_str()}"{extra}];')
    labels = [r for r in range(system.table.n_roots) if bits >> r & 1]
    for i in ids:
        for r in labels:
            j = int(left[r, i])
            if lengths[j] > lengths[i]:
                lines.append(f'  n{i} -> n{j} [label="{system.table.roots[r].render()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reflection_bits(system, visited):
    """Python-int root bit-set of the reflections marked in a bool vector."""
    npt = system.numpy_tables()
    bits = 0
    for r in np.nonzero(visited[npt.refl_ids])[0]:
        bits |= 1 << int(r)
    return bits


def transpose_bits_unpacked(words, n_bits):
    """The bit-matrix transpose the library used before its byte-first one.

    Every bit of (rows, w) uint64 words becomes one bool, the bool matrix
    is transposed as a strided view and packed again, each row padded to
    whole little-endian uint64 words: (n_bits, ceil(rows / 64)).
    """
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bools = np.unpackbits(as_bytes, axis=-1, count=n_bits, bitorder="little")
    packed = np.packbits(bools.T, axis=-1, bitorder="little")
    out = np.zeros((n_bits, 8 * -(-words.shape[0] // 64)), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64)


def joins_matmul(system, union_bits):
    """Join element ids from two float32 matrix products.

    missing[x, k] counts the roots of union k outside Phi_x; the shortest x
    with none missing is the candidate, and it must lie below every other
    upper bound.
    """
    n_roots = system.table.n_roots
    invm = root_masks(system.inv_bits, n_roots)
    masks = root_masks(union_bits, n_roots)
    absent = (~invm).astype(np.float32)
    missing = absent @ masks.T.astype(np.float32)
    upper = missing == 0.0
    if not upper.any(axis=0).all():
        raise RuntimeError("some union admits no upper bound in a finite group")
    lengths = np.array(system.lengths, dtype=np.int32)
    candidates = np.where(upper, lengths[:, None], 1 << 30)
    join_ids = np.argmin(candidates, axis=0)
    missing2 = absent @ invm[join_ids].T.astype(np.float32)
    if (upper & (missing2 > 0.0)).any():
        raise RuntimeError("minimal upper bound is not unique")
    return join_ids


def enumerate_bfs(table):
    """The group by a FIFO breadth-first search over signed permutations.

    Element x is the tuple sigma_x, the signed action of x^-1 on the 1-based
    positive-root indices; x * s_i has sigma s_i o sigma_x, read from
    table.act, and a product seen for the first time gets the next id.
    Returns sigmas, inv_bits, words, lengths, right_by_gen (x * s_i by
    0-based generator), refl_elem (the element of each reflection), w0 and
    id_by_bits, all Python ints and tuples.
    """
    n = table.graph.rank
    n_roots = table.n_roots
    act = table.act
    sigmas = [tuple(range(1, n_roots + 1))]
    inv_bits = [0]
    words = [()]
    id_by_bits = {0: 0}
    right_by_gen = [[-1] * n]
    queue = collections.deque([0])
    while queue:
        x = queue.popleft()
        sig = sigmas[x]
        for i in range(n):
            out = []
            bits = 0
            for v in range(n_roots):
                s = sig[v]
                b = act[i][s - 1] if s > 0 else -act[i][-s - 1]
                out.append(b)
                if b < 0:
                    bits |= 1 << v
            y = id_by_bits.get(bits)
            if y is None:
                y = len(inv_bits)
                id_by_bits[bits] = y
                sigmas.append(tuple(out))
                inv_bits.append(bits)
                words.append(words[x] + (i + 1,))
                right_by_gen.append([-1] * n)
                queue.append(y)
            right_by_gen[x][i] = y
    refl_elem = [
        id_by_bits[sum(1 << v for v, image in enumerate(act[r]) if image < 0)]
        for r in range(n_roots)
    ]
    return types.SimpleNamespace(
        sigmas=sigmas,
        inv_bits=inv_bits,
        words=words,
        lengths=[bits.bit_count() for bits in inv_bits],
        right_by_gen=right_by_gen,
        refl_elem=refl_elem,
        w0=id_by_bits[(1 << n_roots) - 1],
        id_by_bits=id_by_bits,
    )


def product_tables_loop(table, group, columns=None):
    """left[t, x] = t * x and right[t, x] = x * t, element by element.

    group is what enumerate_bfs returns.  sigma of t * x is sigma_x o s_t
    and sigma of x * t is s_t o sigma_x; each product is found by its
    inversion set.  columns lists the elements x to compute, every element
    by default; column k of each table is then element columns[k].
    """
    n_roots = table.n_roots
    if columns is None:
        columns = range(len(group.inv_bits))
    left = np.empty((n_roots, len(columns)), dtype=np.int32)
    right = np.empty((n_roots, len(columns)), dtype=np.int32)
    for t in range(n_roots):
        act_t = table.act[t]
        for k, x in enumerate(columns):
            sig = group.sigmas[x]
            bits_l = 0
            bits_r = 0
            for v in range(n_roots):
                a = act_t[v]
                s = sig[a - 1] if a > 0 else -sig[-a - 1]
                if s < 0:
                    bits_l |= 1 << v
                s = sig[v]
                b = act_t[s - 1] if s > 0 else -act_t[-s - 1]
                if b < 0:
                    bits_r |= 1 << v
            left[t, k] = group.id_by_bits[bits_l]
            right[t, k] = group.id_by_bits[bits_r]
    return left, right


def product_tables_gather(table, group):
    """What product_tables_loop returns for every element, a reflection at a time.

    The signed actions of all elements are one (|W|, n_roots) array: sigma
    of t * x is gathered from every sigma_x through act[t], sigma of x * t
    from act[t] through every sigma_x, and each product is found by the
    bytes of its inversion set among the sorted bytes of every element's.
    """
    sigmas = np.array(group.sigmas, dtype=np.int32)
    act = np.array(table.act, dtype=np.int32)

    def keys(products):
        """Each row's negated roots as one sortable key: a uint64 up to 64
        roots, bytes compared as a void scalar past that."""
        packed = np.packbits(products < 0, axis=1)
        if packed.shape[1] <= 8:
            padded = np.zeros((packed.shape[0], 8), dtype=np.uint8)
            padded[:, :packed.shape[1]] = packed
            return padded.view(np.uint64).ravel()
        packed = np.ascontiguousarray(packed)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()

    order = np.argsort(keys(sigmas))
    known = keys(sigmas)[order]

    def lookup(products):
        wanted = keys(products)
        found = np.minimum(np.searchsorted(known, wanted), known.size - 1)
        assert (known[found] == wanted).all(), "a product is no element"
        return order[found]

    n_roots, size = act.shape[0], sigmas.shape[0]
    left = np.empty((n_roots, size), dtype=np.int32)
    right = np.empty((n_roots, size), dtype=np.int32)
    columns, signs = np.abs(sigmas) - 1, np.sign(sigmas)
    for t, row in enumerate(act):
        left[t] = lookup(sigmas[:, np.abs(row) - 1] * np.sign(row))
        right[t] = lookup(row[columns] * signs)
    return left, right


def bilinear_form(graph, ring):
    """The symmetric form with B_ii = 1 and B_ij = -cos(pi/m_ij), as scalars."""
    one = ring.from_rational(1)
    neg_half = ring.from_rational(Fraction(-1, 2))
    return tuple(
        tuple(
            one if i == j else embed_cos(graph.m[i][j], ring) * neg_half
            for j in range(graph.rank)
        )
        for i in range(graph.rank)
    )


def sum_scalars(ring, items):
    acc = None
    for x in items:
        acc = x if acc is None else acc + x
    return ring.from_rational(0) if acc is None else acc


def roots_and_act_loop(graph):
    """Positive roots (coordinate tuples, in table order), depths and the act table.

    Closes the simple roots under simple reflections with a linear scan for
    repeats, orders them by (depth, exact lexicographic coordinates) after
    the simple roots, and finds every reflection image s_t(beta_r) by a scan
    over all roots.
    """
    ring = build_ring(graph.ring_parameter)
    form = bilinear_form(graph, ring)
    n = graph.rank
    zero = ring.from_rational(0)
    one = ring.from_rational(1)

    def pair_with_simple(coords, i):
        return sum_scalars(
            ring, (vj * form[j][i] for j, vj in enumerate(coords) if not vj.is_zero())
        )

    vectors = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
    depths = [0] * n
    frontier = list(range(n))
    while frontier:
        fresh = []
        for idx in frontier:
            coords = vectors[idx]
            for i in range(n):
                if depths[idx] == 0 and idx == i:
                    continue
                ci = coords[i] - 2 * pair_with_simple(coords, i)
                cand = coords[:i] + (ci,) + coords[i + 1:]
                if any(cand == v for v in vectors):
                    continue
                vectors.append(cand)
                depths.append(depths[idx] + 1)
                fresh.append(len(vectors) - 1)
        frontier = fresh

    def cmp_vectors(a, b):
        if depths[a] != depths[b]:
            return depths[a] - depths[b]
        for x, y in zip(vectors[a], vectors[b]):
            s = interval_sign(x - y)
            if s:
                return s
        return 0

    rest = sorted(range(n, len(vectors)), key=functools.cmp_to_key(cmp_vectors))
    order = list(range(n)) + rest
    roots = [vectors[old] for old in order]
    depths = [depths[old] for old in order]

    def signed_index(coords):
        for r, root in enumerate(roots):
            if root == coords:
                return r + 1
        negated = tuple(-c for c in coords)
        for r, root in enumerate(roots):
            if root == negated:
                return -(r + 1)
        raise CoxeterError("reflection image is not a root of the table")

    act = []
    for t, beta in enumerate(roots):
        row = []
        for r, gamma in enumerate(roots):
            if r == t:
                row.append(-(t + 1))
                continue
            pairing = sum_scalars(
                ring,
                (gi * form[i][j] * bj for i, gi in enumerate(gamma)
                 for j, bj in enumerate(beta)),
            )
            image = tuple(v - 2 * pairing * b for v, b in zip(gamma, beta))
            row.append(signed_index(image))
        act.append(tuple(row))
    return roots, depths, tuple(act)


def cone_mask_cramer(table, i, j):
    """Bit-set of the positive roots a*beta_i + b*beta_j with a, b >= 0.

    Solved by Cramer's rule on the first coordinate pair with a nonzero
    minor, with the exact inverse of that minor, then verified on every
    coordinate.
    """
    if i == j:
        return 1 << i
    alpha = table.roots[i].coords
    beta = table.roots[j].coords
    n = table.graph.rank
    pivot = None
    for p in range(n):
        for q in range(p + 1, n):
            det = alpha[p] * beta[q] - alpha[q] * beta[p]
            if interval_sign(det) != 0:
                pivot = (p, q, det.inverse())
                break
        if pivot:
            break
    if pivot is None:
        raise CoxeterError("distinct positive roots cannot be proportional")
    p, q, det_inv = pivot
    mask = (1 << i) | (1 << j)
    for k in range(table.n_roots):
        if k == i or k == j:
            continue
        gamma = table.roots[k].coords
        a = (gamma[p] * beta[q] - gamma[q] * beta[p]) * det_inv
        b = (alpha[p] * gamma[q] - alpha[q] * gamma[p]) * det_inv
        if interval_sign(a) < 0 or interval_sign(b) < 0:
            continue
        if all((a * alpha[c] + b * beta[c] - gamma[c]).is_zero() for c in range(n)):
            mask |= 1 << k
    return mask


def base_cones_loop(table):
    """base[k, j, g]: whether beta_g lies in the cone of alpha_k and beta_j.

    The per-root loop the library used before its blocked array passes,
    on the exact coefficients as Python ints (never narrowed to int64).
    Let q be the first coordinate other than k where beta = beta_j is
    nonzero, or k when beta = alpha_k.  gamma is in the plane of alpha_k
    and beta when gamma_c beta_q - gamma_q beta_c vanishes for every
    c != k, and in the cone when that form at c = k is >= 0.
    """
    ring = table.ring
    x = table._coeffs.astype(object)
    n_roots, n = x.shape[:2]
    ks = np.arange(n)
    planes = []
    for j, nonzero in enumerate((x != 0).any(axis=2)):
        if j >= n and nonzero.sum() < 2:
            raise CoxeterError("distinct positive roots cannot be proportional")
        products = (ring.times(x[j]) @ x[:, :, None, :, None])[..., 0]
        forms = products - products.swapaxes(1, 2)  # [g, c, q]
        others = nonzero & (ks[:, None] != ks)
        q = np.where(others.any(axis=1), others.argmax(axis=1), ks)
        zero = ~(forms[:, :, q] != 0).any(axis=3)
        zero[:, ks, ks] = True  # c = k is the cone test
        g, k = np.nonzero(zero.all(axis=1))
        planes.append((k, np.full(g.size, j), g, forms[g, k, q[k]]))
    base = np.zeros((n, n_roots, n_roots), dtype=bool)
    k, j, g, values = map(np.concatenate, zip(*planes))
    base[k, j, g] = ring.signs(values) >= 0
    return base


def dihedral_cones(table):
    """Cone masks of a rank-2 table from its reflection order.

    rho_1 = alpha_1, rho_2 = s_1(alpha_2), rho_3 = s_1 s_2(alpha_1), ...,
    read by walking act along the alternating word, are the positive roots
    in angular order from alpha_1 to alpha_2, so cone(rho_a, rho_b) is
    {rho_c : a <= c <= b}.
    """
    if table.graph.rank != 2:
        raise ValueError("a reflection order of this kind needs rank 2")
    n = table.n_roots
    order = []
    for k in range(n):
        root = k % 2
        for letter in reversed(range(k)):
            root = table.act[letter % 2][root] - 1
            if root < 0:
                raise CoxeterError("the alternating word reaches a negative root")
        order.append(root)
    if sorted(order) != list(range(n)):
        raise CoxeterError("the reflection order misses a root")
    masks = [[0] * n for _ in range(n)]
    for a in range(n):
        bits = 0
        for b in range(a, n):
            bits |= 1 << order[b]
            masks[order[a]][order[b]] = masks[order[b]][order[a]] = bits
    return masks


def biclosed_subsets(table):
    """Bit-sets of every biclosed subset of the positive roots, sorted by
    (size, bit-set): all 2^n subsets, and every complement, through one
    cone round, with subset s holding root r when bit r of s is set."""
    subsets = np.arange(1 << table.n_roots)
    sets = np.stack([_pack_words(subsets >> r & 1) for r in range(table.n_roots)])
    added = table.cone_round(sets) | table.cone_round(~sets)
    grown = _unpack_words(np.bitwise_or.reduce(added, axis=0)[None], subsets.size)[0]
    return sorted(np.flatnonzero(~grown).tolist(), key=lambda bits: (bits.bit_count(), bits))
