"""Adjacency/degree/Laplacian assembly and the energy form."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclap.errors import UsageError
from fraclap.geometry import FAMILIES, LevelMesh, _SCAN_ROWS, build_level
from fraclap.graphs import (
    _apply_elements,
    _assemble,
    adjacency,
    degree,
    energy,
    graph_laplacian,
)
from fraclap.measures import fem_area_stiffness, fem_edge_stiffness


def path_mesh(n):
    verts = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return LevelMesh(
        family="path",
        level=0,
        vertices=verts,
        edges=edges,
        cells=np.empty((0, 3), dtype=np.int64),
        boundary_indices=np.array([0, n - 1]),
    )


def edge_sum_energy(mesh, u, v):
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    return float(np.sum((u[i] - u[j]) * (v[i] - v[j])))


# -- adjacency ----------------------------------------------------------------

def test_adjacency_single_edge():
    np.testing.assert_array_equal(
        adjacency(path_mesh(2)).toarray(), [[0, 1], [1, 0]]
    )


def test_adjacency_triangle_is_complete():
    a = adjacency(build_level("sierpinski", 0)).toarray()
    np.testing.assert_array_equal(a, np.ones((3, 3)) - np.eye(3))


def test_adjacency_koch_level1_is_a_path():
    a = adjacency(build_level("koch", 1)).toarray()
    deg = a.sum(axis=0)
    assert sorted(deg.tolist()) == [1, 1, 2, 2, 2]
    # connectivity: (I + A)^4 has no zero entry on a 5-vertex path
    reach = np.linalg.matrix_power(np.eye(5) + a, 4)
    assert (reach > 0).all()


# -- degree ---------------------------------------------------------------------

def test_degree_path3():
    np.testing.assert_array_equal(degree(path_mesh(3)).toarray(),
                                  np.diag([1.0, 2.0, 1.0]))


def test_degree_sierpinski_level1():
    d = np.diag(degree(build_level("sierpinski", 1)).toarray())
    np.testing.assert_array_equal(d, [2, 2, 2, 4, 4, 4])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_sierpinski_interior_is_four(n):
    m = build_level("sierpinski", n)
    d = np.diag(degree(m).toarray())
    np.testing.assert_array_equal(d[m.interior_indices], 4.0)
    np.testing.assert_array_equal(d[m.boundary_indices], 2.0)


# -- laplacian -------------------------------------------------------------------

def test_laplacian_triangle():
    lap = graph_laplacian(build_level("sierpinski", 0)).toarray()
    np.testing.assert_array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_sierpinski_level1_diagonal():
    lap = graph_laplacian(build_level("sierpinski", 1)).toarray()
    np.testing.assert_array_equal(np.diag(lap), [2, 2, 2, 4, 4, 4])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(4))
def test_laplacian_annihilates_constants_exactly(family, n):
    m = build_level(family, n)
    lap = graph_laplacian(m)
    np.testing.assert_array_equal(lap @ np.ones(m.num_vertices), 0.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(6))
def test_laplacian_symmetric_and_psd(family, n):
    m = build_level(family, n)
    lap = graph_laplacian(m)
    assert abs(lap - lap.T).max() == 0.0
    rng = np.random.default_rng(42)
    u = rng.normal(size=(100, m.num_vertices))
    lu = lap @ u.T
    quad = np.einsum("nk,nk->k", u.T, lu)
    assert quad.min() >= -1e-12 * max(1.0, np.abs(quad).max())


# -- energy ----------------------------------------------------------------------

def test_energy_constant_is_zero():
    m = build_level("sierpinski", 2)
    lap = graph_laplacian(m)
    v = np.random.default_rng(1).normal(size=m.num_vertices)
    assert energy(lap, np.ones(m.num_vertices), v) == pytest.approx(0.0, abs=1e-12)


def test_energy_single_edge():
    lap = graph_laplacian(path_mesh(2))
    assert energy(lap, np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 1.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(5))
def test_energy_equals_edge_sum(family, n):
    m = build_level(family, n)
    lap = graph_laplacian(m)
    rng = np.random.default_rng(n + 17)
    u = rng.normal(size=m.num_vertices)
    v = rng.normal(size=m.num_vertices)
    ref = edge_sum_energy(m, u, v)
    got = energy(lap, u, v)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@given(seed=st.integers(0, 10_000))
def test_energy_edge_sum_property(seed):
    m = build_level("sierpinski", 2)
    lap = graph_laplacian(m)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=m.num_vertices)
    ref = edge_sum_energy(m, u, u)
    assert abs(energy(lap, u, u) - ref) <= 1e-12 * max(1.0, abs(ref))
    assert energy(lap, u, u) >= 0.0


def test_energy_dimension_mismatch():
    lap = graph_laplacian(build_level("koch", 1))
    with pytest.raises(UsageError):
        energy(lap, np.zeros(4), np.zeros(5))


# -- _assemble -------------------------------------------------------------------

def test_from_triplets_coalesces_and_sorts():
    m = _assemble(2, [1, 0, 1, 0], [0, 1, 0, 0], [1.0, 2.0, 3.0, -1.0])
    assert m.format == "csr" and m.has_canonical_format
    coo = m.tocoo()
    np.testing.assert_array_equal(coo.row, [0, 0, 1])
    np.testing.assert_array_equal(coo.col, [0, 1, 0])
    np.testing.assert_array_equal(coo.data, [-1.0, 2.0, 4.0])


def test_from_triplets_drops_exact_zeros():
    m = _assemble(2, [0, 0], [0, 0], [1.0, -1.0])
    assert m.nnz == 0


def test_sparse_rejects_out_of_range():
    with pytest.raises(UsageError):
        _assemble(2, [2], [0], [1.0])
    with pytest.raises(UsageError):
        _assemble(2, [0], [-1], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_assemble_rejects_non_finite(bad):
    with pytest.raises(UsageError, match="finite"):
        _assemble(2, [0, 1], [0, 1], [1.0, bad])


def test_matvec_matches_dense():
    rng = np.random.default_rng(2)
    dense = rng.normal(size=(6, 6))
    rows, cols = np.nonzero(dense)
    m = _assemble(6, rows, cols, dense[rows, cols])
    x = rng.normal(size=6)
    np.testing.assert_allclose(m @ x, dense @ x, atol=1e-14)


# -- unassembled element sums -------------------------------------------------------

def _bincount_apply(elements, local, u):
    """The whole-mesh formula the blocked ``_apply_elements`` replaced."""
    local = np.broadcast_to(local, (*elements.shape, elements.shape[1]))
    ku = np.einsum("kab,kb->ka", local, u[elements])
    return np.bincount(elements.ravel(), weights=ku.ravel(), minlength=u.size)


# the first level of each family with more edges (and cells) than one block
@pytest.mark.parametrize("family, level", [("sierpinski", 9), ("koch", 8), ("hata2d", 7),
                                           ("hata3d", 6)])
def test_blocked_element_sums_keep_the_bincount_bits(family, level):
    mesh = build_level(family, level)
    rng = np.random.default_rng(level)
    u = rng.normal(size=mesh.num_vertices)
    for rows in (mesh.edges, mesh.cells) if mesh.num_cells else (mesh.edges,):
        k, p = rows.shape
        assert k > _SCAN_ROWS
        for local in (np.broadcast_to(rng.normal(size=(p, p)), (k, p, p)),
                      rng.normal(size=(k, p, p))):
            got = _apply_elements(rows, local, u)
            assert got.tobytes() == _bincount_apply(rows, local, u).tobytes(), (p, local.strides)


# -- assembly bit identity ----------------------------------------------------------

# sha256 over (indptr, indices as int64, data as float64) of every level
# 0..OPERATOR_LEVELS[family] in turn, recorded from the triplet container
# this assembly replaced.  The fem_edge and fem_area digests were re-recorded
# when a built level took one element per level (``measures._elements``) in
# place of elements from coordinates; the graph_laplacian digests kept
# theirs.  Every entry of these operators sums equal values or at most two
# terms, so the order in which scipy sums the duplicates moves no bit.
OPERATOR_LEVELS = {"koch": 6, "sierpinski": 8, "hata2d": 6, "hata3d": 5}
OPERATOR_DIGESTS = {
    "koch": {
        graph_laplacian: "6db94bd145c2c92e0ebe8331a660b1d2d42b2fb8dfa1b049d36cf4e8a07f434a",
        fem_edge_stiffness: "d7bb07861fdd89617a286093cf0348c711a7c668224edd441db65382ce3f6e61",
    },
    "sierpinski": {
        graph_laplacian: "c42eed4a4c93fa1c3aef574a7ad67212d5f80d42728bcef5e5f6e31f4ca22a2b",
        fem_edge_stiffness: "0b9c730d90007014f14a5f0c97cf3d0de8b3e28913f00be35f04eb9e2e9fe144",
        fem_area_stiffness: "1fd72f27d3fd727e8f9249b17814a7582f002e8776ab68fce8e95a59cd43a8dd",
    },
    "hata2d": {
        graph_laplacian: "ab6fafb279bbbe924fb47169b2df856f000f7a2ab0956f9e1330598ea77b104e",
        fem_edge_stiffness: "d2ab352a7b440fe8b226d1c6ee4e2e419b57c7eebcab8aa4be04406cfd38dc80",
    },
    "hata3d": {
        graph_laplacian: "445ac0ee95e5c3026c5f08bedbbfd9ce5761979ccf54b4f180d5adb2dfa151a5",
        fem_edge_stiffness: "12b62a8fc6506f3152f794c96e0f412c4d2dee69ed1d60d474c660adf3cb66bc",
    },
}


@pytest.mark.parametrize("family", FAMILIES)
def test_operators_are_bit_identical(family):
    meshes = [build_level(family, n) for n in range(OPERATOR_LEVELS[family] + 1)]
    assert (meshes[0].num_cells > 0) == (fem_area_stiffness in OPERATOR_DIGESTS[family])
    for assemble, expected in OPERATOR_DIGESTS[family].items():
        h = hashlib.sha256()
        for mesh in meshes:
            a = assemble(mesh)
            assert a.format == "csr" and a.has_canonical_format
            h.update(a.indptr.astype(np.int64).tobytes())
            h.update(a.indices.astype(np.int64).tobytes())
            h.update(a.data.astype(np.float64).tobytes())
        assert h.hexdigest() == expected, assemble.__name__
