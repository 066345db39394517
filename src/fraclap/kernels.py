"""Hot inner-loop kernels: tolerance-based point dedup and matching.

Point merging and matching share one close-pair search.  Each point is
quantized to a grid cell of edge ``2**26 * tol``; at the meshes' relative
tolerance of 1e-9 that is about 1/15 of the shortest edge.  Cell
coordinates are packed into one int64 key (21 bits per axis) and the keys
are sorted once, so the points of one cell form a run of equal keys and
every pair within a run is a candidate.  Two points within ``tol`` differ
by at most one cell per axis, and when they lie in different cells, each
is within ``tol`` of the face its cell shares with the other's.  So only
the points within that band of a face of their cell probe the neighbour
cells across those faces, and only the half of the 3^d - 1 neighbours that
lie lexicographically ahead (the other half is covered by symmetry); each
probe is a ``searchsorted`` on the sorted keys.  Mesh edges are at least
1e9 tolerances long, so almost no vertex is that close to a face; a
cloud with many points per cell would instead cost the square of that
count.

Because the cell edge is a power of two times ``tol``, ``p / cell`` is one
correctly rounded division, and a band edge ``2**-26`` cells from a face is
a representable quotient while ``|p / cell| < 2**26``; rounding is
monotone, so a point within ``tol`` of a face computes within the band.
The band is still widened by ``2**-50 * (1 + max |p / cell|)`` cells, which
covers the rounding of that division at the largest coordinate and of the
squared distance below.  A packing collision merely adds candidates.  Every
candidate pair is then decided by the exact squared distance, summed axis
by axis, against ``tol**2``.  The set of pairs returned is therefore every
pair within ``tol``, as a search of all neighbour cells of every point
would find it, and dedup and matching, which depend only on that set, are
unchanged by the face-local probing.

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
# Grid cell edge in tolerances: a power of two, so p / cell is one rounding.
_CELL_TOLS = 2.0**26


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
    cell = _CELL_TOLS * tol
    u = points / cell
    q = np.floor(u)
    frac = u - q
    # tol in cell units, plus the rounding of p / cell at the largest |p|
    band = 2.0**-26 + 2.0**-50 * (1.0 + np.abs(u).max(initial=0.0))
    q = q.astype(np.int64)
    if d == 2:
        q = np.column_stack([q, np.zeros(n, np.int64)])
    key = _cell_key(q[:, 0], q[:, 1], q[:, 2])
    order = np.argsort(key)
    skey = key[order]
    # same cell: every pair of positions in a run of equal sorted keys
    run_start = np.append(0, np.flatnonzero(skey[1:] != skey[:-1]) + 1)
    run_size = np.diff(np.append(run_start, n))
    multi = run_size > 1
    pos = _ranges(run_start[multi], run_size[multi])
    after = np.repeat(run_start[multi] + run_size[multi], run_size[multi]) - pos - 1
    a = [order[np.repeat(pos, after)]]
    b = [order[_ranges(pos + 1, after)]]
    # neighbour cells, probed only from the points near the faces they share
    near_lo, near_hi = frac <= band, 1.0 - frac <= band
    rows = np.flatnonzero((near_lo | near_hi).any(axis=1))
    near_lo, near_hi, qn = near_lo[rows], near_hi[rows], q[rows]
    for off in itertools.product((-1, 0, 1), repeat=d):
        if off <= (0,) * d:
            continue  # the zero offset is above; negative ones by symmetry
        ok = np.ones(rows.size, dtype=bool)
        for k, o in enumerate(off):
            if o:
                ok &= near_hi[:, k] if o > 0 else near_lo[:, k]
        ox, oy, oz = off + (0,) * (3 - d)
        needle = _cell_key(qn[ok, 0] + ox, qn[ok, 1] + oy, qn[ok, 2] + oz)
        lo = np.searchsorted(skey, needle)
        count = np.searchsorted(skey, needle, side="right") - lo
        a.append(np.repeat(rows[ok], count))
        b.append(order[_ranges(lo, count)])
    a, b = np.concatenate(a), np.concatenate(b)
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

