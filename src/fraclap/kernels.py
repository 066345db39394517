"""Merging points closer than a tolerance.

Points are merged by one close-pair search, a sort and sweep of their
projections onto one fixed direction (see ``_close_pairs``).

Dedup keeps the first occurrence of each cluster: every point goes to the
smallest index within ``tol`` of it.  Copies of the pieces of a
post-critically finite set meet only at images of its boundary points, so
genuine coincidences lie many orders of magnitude below ``tol``.  Any pair
at a distance in ``(tol/10, tol]`` is reported as ambiguous; a chained merge
(``a`` near ``b`` near ``c`` with ``a`` far from ``c``) always contains such a
pair, so an unreported result is exactly the first-occurrence clustering.
"""

import numpy as np


def _ranges(starts, counts):
    """Concatenated ``arange(s, s + c)`` for each start and count."""
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)


# The sweep direction: (1, sqrt 2, sqrt 5), cut to the dimension and
# normalised.  Its irrational component ratios keep the lattice-like
# vertices of a mesh from sharing a projection.
_DIRECTION = np.array([1.0, np.sqrt(2.0), np.sqrt(5.0)])


def _close_pairs(points, tol):
    """Row pairs ``(i, j)`` with ``i < j`` at most ``tol`` apart, each listed
    once, and their squared distances.

    The points are sorted by their projections ``s`` onto the unit direction
    ``u``.  Each sorted position whose gap to the next projection is at most
    a window ``w`` lists the positions up to ``s + w`` (one ``searchsorted``),
    and every listed pair is decided by its exact squared distance, summed
    axis by axis, against ``tol**2``.

    No pair within ``tol`` is missed.  Projection never lengthens a distance:
    ``|u.(p - q)| <= |p - q|``.  Rounding of a gap ``s[k+1] - s[k]`` and of an
    end ``s + w`` is monotone and every ``s[b]`` is representable, so a pair
    whose true projection gap is at most ``w`` passes both.  The window
    therefore only has to cover two rounding errors: that of the
    projections, a few ulps of ``max |p|``, and that of the squared-distance
    test, a few ulps of ``tol``.  ``w = tol (1 + 2**-40) + 2**-48 (d + 2)
    (max |s| + max |p|)`` covers both with a wide margin.  A wider ``w`` only
    adds candidates, and the exact test discards them.

    The cost is one sort of n floats plus the pairs whose projections fall
    within ``w``.  Mesh edges are at least 1e9 tolerances long, so on a built
    level those are the true pairs, or nearly.  Points lying on a hyperplane
    normal to ``u`` would cost the square of their count.
    """
    d = points.shape[1]
    u = _DIRECTION[:d] / np.linalg.norm(_DIRECTION[:d])
    proj = points @ u
    order = np.argsort(proj)
    s = proj[order]
    big = np.abs(s).max(initial=0.0) + np.abs(points).max(initial=0.0)
    w = tol * (1.0 + 2.0**-40) + 2.0**-48 * (d + 2) * big
    start = np.flatnonzero(s[1:] - s[:-1] <= w)
    count = np.searchsorted(s, s[start] + w, side="right") - start - 1
    a, b = order[np.repeat(start, count)], order[_ranges(start + 1, count)]
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

