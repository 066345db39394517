"""Unit tests for the dedup/match kernels, including comparisons with
quadratic brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.kernels import _CELL_TOLS, _close_pairs, _dedup_core, _match_core


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
    assign, uniq_rows, amb_i, amb_j = _dedup_core(np.ascontiguousarray(pts), tol)
    ref_assign, ref_uniq = brute_force_dedup(pts, tol)
    assert amb_i == -1 and amb_j == -1
    assert uniq_rows.size == ref_uniq.shape[0]
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_allclose(pts[uniq_rows], ref_uniq, rtol=0, atol=0)


def test_dedup_keeps_distant_points_separate():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assign, uniq_rows, amb_i, _ = _dedup_core(pts, 1e-9)
    assert uniq_rows.size == 3
    np.testing.assert_array_equal(assign, [0, 1, 2])
    assert amb_i == -1


def test_dedup_flags_gray_zone_merge():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [0.5 * tol, 0.0]])
    assign, uniq_rows, amb_i, amb_j = _dedup_core(pts, tol)
    assert uniq_rows.size == 1
    assert (amb_i, amb_j) == (1, 0)


def test_dedup_clean_merge_below_tenth():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [0.05 * tol, 0.0]])
    assign, uniq_rows, amb_i, _ = _dedup_core(pts, tol)
    assert uniq_rows.size == 1 and amb_i == -1


def test_dedup_separates_just_over_tolerance():
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [1.001 * tol, 0.0]])
    _, uniq_rows, amb_i, _ = _dedup_core(pts, tol)
    assert uniq_rows.size == 2 and amb_i == -1


def test_dedup_first_occurrence_order():
    tol = 1e-6
    pts = np.array([[3.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    assign, uniq_rows, _, _ = _dedup_core(pts, tol)
    np.testing.assert_array_equal(uniq_rows, [0, 1, 3])
    np.testing.assert_array_equal(assign, [0, 1, 0, 2, 1])


def test_dedup_reports_gray_pair_that_is_not_the_nearest_merge():
    # row 2 merges cleanly into row 1 (0.07 tol) but also lies 0.98 tol from
    # row 0, so the clustering depends on the tolerance
    tol = 1e-6
    pts = np.array([[0.0, 0.0], [1.05 * tol, 0.0], [0.98 * tol, 0.0]])
    _, _, amb_i, amb_j = _dedup_core(pts, tol)
    assert (amb_i, amb_j) == (2, 0)


def grid_edge_clusters(rng, n_clusters, per_cluster, dim, tol):
    """Clusters centred on grid-cell corners ``k * tol``; each member is
    ``1e-3 * tol`` off the corner on every axis, so most clusters straddle a
    cell edge.  Centres are at least five cells apart."""
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
    assign, uniq_rows, amb_i, _ = _dedup_core(pts, tol)
    ref_assign, ref_uniq = brute_force_dedup(pts, tol)
    assert amb_i == -1
    assert ref_uniq.shape[0] == 80
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_array_equal(pts[uniq_rows], ref_uniq)


@pytest.mark.parametrize("dim", [2, 3])
def test_match_finds_partners_across_cell_edges(dim):
    rng = np.random.default_rng(31 + dim)
    tol = 1e-6
    clusters = grid_edge_clusters(rng, 80, 2, dim, tol).reshape(80, 2, dim)
    ref, query = clusters[:, 0], clusters[::-1, 1]
    idx, d2 = _match_core(ref, query, tol)
    dist2 = ((query[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(idx, dist2.argmin(axis=1))
    np.testing.assert_array_equal(idx, np.arange(80)[::-1])
    assert d2.max() <= tol * tol


def test_match_finds_shared_points():
    rng = np.random.default_rng(11)
    ref = rng.uniform(-1, 1, size=(200, 2))
    perm = rng.permutation(200)[:50]
    query = ref[perm] + rng.uniform(-1e-12, 1e-12, size=(50, 2))
    idx, d2 = _match_core(ref, query, 1e-9)
    np.testing.assert_array_equal(idx, perm)
    assert d2.max() <= 1e-18


def test_match_reports_unmatched():
    ref = np.array([[0.0, 0.0], [1.0, 0.0]])
    query = np.array([[0.5, 0.5]])
    idx, _ = _match_core(ref, query, 1e-9)
    assert idx[0] == -1


def test_match_unmatched_with_unequal_sizes():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    query = np.array([[1.0, 1.0 + 1e-13], [0.5, 0.5], [0.0, 0.0]])
    idx, d2 = _match_core(ref, query, 1e-9)
    np.testing.assert_array_equal(idx, [3, -1, 0])
    assert d2[1] == np.inf and d2[2] == 0.0


def test_match_3d():
    rng = np.random.default_rng(3)
    ref = rng.uniform(-1, 1, size=(100, 3))
    idx, _ = _match_core(ref, ref[::-1].copy(), 1e-12)
    np.testing.assert_array_equal(idx, np.arange(100)[::-1])



# -- close pairs against brute force -------------------------------------------

# Offsets, in tolerances, of a point from a grid-cell face on one axis, and of
# a cluster member from its cluster's first point.  Members at 0 on every
# axis coincide; the others land in the ambiguity band (tol/10, tol], below
# it or just beyond tol, and a member moved on several axes crosses a corner.
_FACE_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.01, -0.99)
_MEMBER_OFFSETS = (0.0, 0.0, 0.05, -0.05, 0.4, -0.4, 0.7, -0.7, 1.0)


@st.composite
def _cell_face_points(draw, dim):
    """Points on or within ``tol`` of the faces of the ``_close_pairs``
    cells, in clusters of 1-4, up to about 2**20 cells from the origin."""
    tol = draw(st.sampled_from([1e-6, 2.0**-40, 3e-9]))
    cell = _CELL_TOLS * tol
    far = draw(st.sampled_from([3, 2**20]))
    points = []
    for _ in range(draw(st.integers(1, 10))):
        face = [draw(st.integers(-far, far)) for _ in range(dim)]
        inside = [draw(st.sampled_from(_FACE_OFFSETS + (0.5 * _CELL_TOLS,))) for _ in range(dim)]
        first = np.array(face) * cell + np.array(inside) * tol
        points.append(first)
        for _ in range(draw(st.integers(0, 3))):
            step = [draw(st.sampled_from(_MEMBER_OFFSETS)) for _ in range(dim)]
            points.append(first + np.array(step) * tol)
    order = draw(st.permutations(range(len(points))))
    return np.array(points)[order], tol


def brute_force_pairs(points, tol):
    """Every pair ``i < j`` within ``tol``, by the kernel's distance sum."""
    i, j = np.triu_indices(points.shape[0], k=1)
    dv = points[j] - points[i]
    d2 = dv[:, 0] * dv[:, 0]
    for k in range(1, points.shape[1]):
        d2 += dv[:, k] * dv[:, k]
    keep = d2 <= tol * tol
    return dict(zip(zip(i[keep].tolist(), j[keep].tolist()), d2[keep].tolist()))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=150)
@given(data=st.data())
def test_close_pairs_match_brute_force(dim, data):
    points, tol = data.draw(_cell_face_points(dim))
    i, j, d2 = _close_pairs(points, tol)
    found = dict(zip(zip(i.tolist(), j.tolist()), d2.tolist()))
    assert (i < j).all()
    assert found == brute_force_pairs(points, tol)
