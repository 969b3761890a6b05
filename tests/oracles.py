"""Independent oracles for the library's reachability and join kernels.

These are the routes the library used before its bit-packed kernels: a
frontier breadth-first search over one label set at a time, and a float32
join from two matrix products over boolean root masks.  They read only the
product tables, the lengths and the Python-int inversion sets, never the
packed words or descent lists the kernels use.
"""

import functools

import numpy as np


def root_masks(bit_sets, n_roots):
    """(len(bit_sets), n_roots) bool matrix from Python-int root bit-sets."""
    return np.array(
        [[bits >> r & 1 for r in range(n_roots)] for bits in bit_sets], dtype=bool
    ).reshape(len(bit_sets), n_roots)


@functools.lru_cache(maxsize=None)
def _ascents(system, side):
    """The product table of one side and its length-increasing entries."""
    npt = system.numpy_tables()
    mul = npt.left if side == "left" else npt.right
    return mul, npt.lengths[mul] > npt.lengths[None, :]


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


def reflection_bits(system, visited):
    """Python-int root bit-set of the reflections marked in a bool vector."""
    npt = system.numpy_tables()
    bits = 0
    for r in np.nonzero(visited[npt.refl_ids])[0]:
        bits |= 1 << int(r)
    return bits


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
