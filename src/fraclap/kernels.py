"""Hot inner-loop kernels: tolerance-based point dedup and matching.

Point merging and matching share one close-pair search.  Each point is
quantized to a grid cell of size equal to the tolerance, so two points
within tolerance differ by at most one cell per axis.  Cell coordinates are
packed into one int64 key (21 bits per axis) and the keys are sorted once.
For every point, the points in its own cell and in the half of the 3^d
neighbor cells that lie lexicographically ahead are found by ``searchsorted``
on the sorted keys; the other half is covered by symmetry.  A pair that
straddles a cell edge is therefore always found, and a packing collision
merely adds candidates.  Every candidate pair is then decided by the exact
squared distance, summed axis by axis, against ``tol**2``.

Dedup keeps the first occurrence of each cluster: every point goes to the
smallest index within ``tol`` of it.  Copies of the pieces of a
post-critically finite set meet only at images of its boundary points, so
genuine coincidences lie many orders of magnitude below ``tol``.  Any pair
at a distance in ``(tol/10, tol]`` is reported as ambiguous; a chained merge
(``a`` near ``b`` near ``c`` with ``a`` far from ``c``) always contains such a
pair, so an unreported result is exactly the first-occurrence clustering.
"""

import itertools

import numpy as np

_KEY_MASK = (1 << 21) - 1


def _cell_key(q0, q1, q2):
    return ((q0 & _KEY_MASK) << 42) | ((q1 & _KEY_MASK) << 21) | (q2 & _KEY_MASK)


def _ranges(starts, counts):
    """Concatenated ``arange(s, s + c)`` for each start and count."""
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)


def _close_pairs(points, tol):
    """Row pairs ``(i, j)`` with ``i < j`` at most ``tol`` apart, and their
    squared distances.  A pair may be listed more than once."""
    n, d = points.shape
    q = np.floor(points / tol).astype(np.int64)
    if d == 2:
        q = np.column_stack([q, np.zeros(n, np.int64)])
    key = _cell_key(q[:, 0], q[:, 1], q[:, 2])
    order = np.argsort(key)
    skey, qs = key[order], q[order]
    # end[s]: one past the last sorted position sharing the key of position s
    group_end = np.append(np.flatnonzero(skey[1:] != skey[:-1]) + 1, n)
    end = np.repeat(group_end, np.diff(group_end, prepend=0))
    pos = np.arange(n, dtype=np.int64)
    # same cell: every later position of the group
    src = [np.repeat(pos, end - pos - 1)]
    dst = [_ranges(pos + 1, end - pos - 1)]
    for off in itertools.product((-1, 0, 1), repeat=d):
        if off <= (0,) * d:
            continue  # the zero offset is above; negative ones by symmetry
        ox, oy, oz = off + (0,) * (3 - d)
        needle = _cell_key(qs[:, 0] + ox, qs[:, 1] + oy, qs[:, 2] + oz)
        lo = np.searchsorted(skey, needle)
        hit = np.flatnonzero(skey[np.minimum(lo, n - 1)] == needle)
        lo = lo[hit]
        src.append(np.repeat(hit, end[lo] - lo))
        dst.append(_ranges(lo, end[lo] - lo))
    a = order[np.concatenate(src)]
    b = order[np.concatenate(dst)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    dv = points[j] - points[i]
    d2 = dv[:, 0] * dv[:, 0]
    for k in range(1, d):
        d2 += dv[:, k] * dv[:, k]
    keep = d2 <= tol * tol
    return i[keep], j[keep], d2[keep]


def _dedup_core(points, tol):
    """Merge points closer than ``tol``, preserving first-occurrence order.

    Returns ``(assign, uniq_rows, amb_i, amb_j)`` where ``assign[i]`` is the
    unique-vertex index of input row ``i`` and ``uniq_rows`` lists the source
    row of each unique vertex.  A pair at distance in ``(tol/10, tol]`` is
    suspicious (true coincidences land far below ``tol/10``); the one with
    the smallest later row is reported as rows ``amb_i > amb_j`` (-1, -1 when
    clean).  The assignment is only meaningful when clean.
    """
    n = points.shape[0]
    i, j, d2 = _close_pairs(points, tol)
    amb_i = amb_j = -1
    gray = np.flatnonzero(d2 > (0.1 * tol) * (0.1 * tol))
    if gray.size:
        k = gray[np.lexsort((i[gray], j[gray]))[0]]
        amb_i, amb_j = int(j[k]), int(i[k])
    root = np.arange(n, dtype=np.int64)
    np.minimum.at(root, j, i)
    kept = root == np.arange(n)
    rank = np.cumsum(kept) - 1
    return rank[root], np.flatnonzero(kept), amb_i, amb_j


def _match_core(ref, query, tol):
    """Nearest-reference match within ``tol`` for each query point.

    Returns ``(best_idx, best_d2)``; ``best_idx[i]`` is -1 (and
    ``best_d2[i]`` infinite) when no reference point lies within ``tol`` of
    ``query[i]``.  Equidistant references resolve to the smallest index.
    """
    m = ref.shape[0]
    i, j, d2 = _close_pairs(np.vstack([ref, query]), tol)
    cross = (i < m) & (j >= m)
    r, qi, d2 = i[cross], j[cross] - m, d2[cross]
    order = np.lexsort((r, d2, qi))
    _, head = np.unique(qi[order], return_index=True)
    first = order[head]
    best_idx = np.full(query.shape[0], -1, np.int64)
    best_d2 = np.full(query.shape[0], np.inf, np.float64)
    best_idx[qi[first]] = r[first]
    best_d2[qi[first]] = d2[first]
    return best_idx, best_d2

