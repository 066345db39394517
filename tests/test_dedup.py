"""Unit tests for the vertex dedup and its close-pair search, including
comparisons with quadratic brute-force oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import geometry
from fraclap.errors import GeometryError
from fraclap.geometry import _DIRECTION, _close_pairs, _dedup


def brute_force_dedup(points, tol):
    """Quadratic reference: first-occurrence order, closest match wins."""
    uniq = []
    assign = []
    for p in points:
        best, best_d = -1, np.inf
        for k, q in enumerate(uniq):
            d = np.linalg.norm(p - q)
            if d < best_d:
                best, best_d = k, d
        if best >= 0 and best_d <= tol:
            assign.append(best)
        else:
            uniq.append(p)
            assign.append(len(uniq) - 1)
    return np.array(assign), np.array(uniq)


def clustered_points(rng, n_clusters, per_cluster, dim, spread):
    centers = rng.uniform(-1, 1, size=(n_clusters, dim))
    pts = np.repeat(centers, per_cluster, axis=0)
    pts = pts + rng.uniform(-spread, spread, size=pts.shape)
    return rng.permutation(pts)


@pytest.mark.parametrize("dim", [2, 3])
def test_dedup_matches_brute_force(dim):
    rng = np.random.default_rng(7 + dim)
    tol = 1e-6
    # jitter far below tol/10 so merges are unambiguous
    pts = clustered_points(rng, 60, 4, dim, spread=1e-9)
    assign, uniq_rows = _dedup(pts, tol)
    ref_assign, ref_uniq = brute_force_dedup(pts, tol)
    assert uniq_rows.size == ref_uniq.shape[0]
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_allclose(pts[uniq_rows], ref_uniq, rtol=0, atol=0)


def test_dedup_keeps_distant_points_separate():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assign, uniq_rows = _dedup(pts, 1e-9)
    assert uniq_rows.size == 3
    np.testing.assert_array_equal(assign, [0, 1, 2])


def test_dedup_flags_gray_zone_merge():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [0.5 * tol, 0.0]])
    with pytest.raises(GeometryError, match=r"vertices 5\.000e-07 apart"):
        _dedup(pts, tol)


def test_dedup_clean_merge_below_tenth():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [0.05 * tol, 0.0]])
    assign, uniq_rows = _dedup(pts, tol)
    assert uniq_rows.size == 1
    np.testing.assert_array_equal(assign, [0, 0])


def test_dedup_separates_just_over_tolerance():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [1.001 * tol, 0.0]])
    _, uniq_rows = _dedup(pts, tol)
    assert uniq_rows.size == 2


def test_dedup_first_occurrence_order():
    tol = 1e-6
    pts = np.array([[3.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    assign, uniq_rows = _dedup(pts, tol)
    np.testing.assert_array_equal(uniq_rows, [0, 1, 3])
    np.testing.assert_array_equal(assign, [0, 1, 0, 2, 1])


def test_dedup_reports_gray_pair_that_is_not_the_nearest_merge():
    # row 2 merges cleanly into row 1 (0.07 tol) but also lies 0.98 tol from
    # row 0, so the clustering depends on the tolerance
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [1.05 * tol, 0.0], [0.98 * tol, 0.0]])
    with pytest.raises(GeometryError, match=r"vertices 9\.800e-07 apart"):
        _dedup(pts, tol)


def grid_edge_clusters(rng, n_clusters, per_cluster, dim, tol):
    """Clusters centred on the lattice points ``k * tol``; each member is
    ``1e-3 * tol`` off its centre on every axis.  Centres are at least five
    tolerances apart."""
    ks = rng.choice(2000, size=(4 * n_clusters, dim)) * 5 - 5000
    ks = np.unique(ks, axis=0)[:n_clusters]
    signs = rng.choice([-1.0, 1.0], size=(ks.shape[0], per_cluster, dim))
    pts = ks[:, None, :] * tol + signs * 1e-3 * tol
    return pts.reshape(-1, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_dedup_merges_clusters_across_cell_edges(dim):
    rng = np.random.default_rng(21 + dim)
    tol = 1e-6
    pts = rng.permutation(grid_edge_clusters(rng, 80, 4, dim, tol))
    assign, uniq_rows = _dedup(pts, tol)
    ref_assign, ref_uniq = brute_force_dedup(pts, tol)
    assert ref_uniq.shape[0] == 80
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_array_equal(pts[uniq_rows], ref_uniq)


# -- close pairs against brute force -------------------------------------------

# Offsets, in tolerances, of a cluster member from its cluster's first point.
# Axis steps: members at 0 on every axis coincide; the others land in the
# ambiguity band (tol/10, tol], below it or just beyond tol.  Steps along
# +-u, the sweep direction, straddle tol by a few ulps, where a window that
# does not cover the rounding of the projections drops a pair; some also
# step across u.
_MEMBER_OFFSETS = (0.0, 0.0, 0.05, -0.05, 0.4, -0.4, 0.7, -0.7, 1.0)
_ALONG_OFFSETS = (1.0, 1 + 2.0**-52, 1 - 2.0**-52, 1 + 2.0**-40, 1 - 2.0**-40,
                  0.999, 0.5, 0.05)
_ACROSS_OFFSETS = (0.0, 0.0, 0.05, 0.3)


def _sweep_frame(dim):
    """The sweep direction ``u`` and a unit vector perpendicular to it."""
    u = _DIRECTION[:dim] / np.linalg.norm(_DIRECTION[:dim])
    v = np.zeros(dim)
    v[:2] = -u[1], u[0]
    return u, v / np.linalg.norm(v)


@st.composite
def _sweep_points(draw, dim):
    """Clusters of 1-4 points, members about ``tol`` apart along the sweep
    direction or the axes, centres up to about 1e3 from the origin."""
    tol = draw(st.sampled_from([1e-6, 2.0**-40, 3e-9, 1e-12]))
    far = draw(st.sampled_from([10 * tol, 1.0, 1e3]))
    u, v = _sweep_frame(dim)
    points = []
    for _ in range(draw(st.integers(1, 10))):
        first = np.array([draw(st.floats(-far, far)) for _ in range(dim)])
        points.append(first)
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                step = np.array([draw(st.sampled_from(_MEMBER_OFFSETS)) for _ in range(dim)])
            else:
                along = draw(st.sampled_from(_ALONG_OFFSETS)) * draw(st.sampled_from([1, -1]))
                step = along * u + draw(st.sampled_from(_ACROSS_OFFSETS)) * v
            points.append(first + step * tol)
    order = draw(st.permutations(range(len(points))))
    return np.array(points)[order], tol


def brute_force_pairs(points, tol):
    """Every pair ``i < j`` within ``tol``, by the norm of its difference,
    in ``_close_pairs``'s order: by the sorted position of the pair's first
    point along the sweep, then of its second."""
    u = _DIRECTION[:points.shape[1]] / np.linalg.norm(_DIRECTION[:points.shape[1]])
    rank = np.empty(points.shape[0], dtype=np.intp)
    rank[np.argsort(points @ u)] = np.arange(points.shape[0])
    i, j = np.triu_indices(points.shape[0], k=1)
    dist = np.linalg.norm(points[j] - points[i], axis=1)
    keep = dist <= tol
    i, j, dist = i[keep], j[keep], dist[keep]
    order = np.lexsort((np.maximum(rank[i], rank[j]), np.minimum(rank[i], rank[j])))
    return i[order], j[order], dist[order]


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=150)
@given(data=st.data())
def test_close_pairs_match_brute_force(dim, data):
    # blocks of a few rows (two at least), so that the gap scan crosses block
    # seams: the same pairs, each listed once, in the same order, with the
    # same bits
    points, tol = data.draw(_sweep_points(dim))
    with mock.patch.object(geometry, "_SCAN_ROWS", data.draw(st.integers(2, 5))):
        i, j, dist = _close_pairs(points, tol)
    ref_i, ref_j, ref_dist = brute_force_pairs(points, tol)
    np.testing.assert_array_equal(i, ref_i)
    np.testing.assert_array_equal(j, ref_j)
    assert dist.tobytes() == ref_dist.tobytes()
