"""Measure weights, load vectors and stiffness assembly.

Load formulas are checked against independent Gauss quadrature of the
piecewise-linear integrands; the stiffness identities against scaled graph
Laplacians are checked entrywise.
"""

import numpy as np
import pytest

from fraclap.errors import AssemblyError, UsageError
from fraclap.geometry import LevelMesh, build_level
from fraclap.graphs import graph_laplacian
from fraclap.measures import (
    MeasureKind,
    _elements,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
    vertex_weights,
)

SQRT3 = np.sqrt(3.0)


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def single_cell_mesh(p0, p1, p2):
    verts = np.array([p0, p1, p2], dtype=float)
    return LevelMesh(
        family="single",
        level=0,
        vertices=verts,
        edges=np.array([[0, 1], [1, 2], [2, 0]]),
        cells=np.array([[0, 1, 2]]),
        boundary_indices=np.array([0, 1, 2]),
        dedup_tolerance=1e-9,
    )


def single_edge_mesh(p0, p1):
    return LevelMesh(
        family="segment",
        level=0,
        vertices=np.array([p0, p1], dtype=float),
        edges=np.array([[0, 1]]),
        cells=np.empty((0, 3), dtype=np.int64),
        boundary_indices=np.array([0, 1]),
        dedup_tolerance=1e-9,
    )


def max_entry_gap(a, b):
    return np.max(np.abs(a.toarray() - b.toarray()))


# -- vertex weights -----------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_self_similar_weights_sum_to_one(n):
    w = vertex_weights(build_level("sierpinski", n), MeasureKind.SELF_SIMILAR)
    assert abs(w.total - 1.0) <= 1e-14


@pytest.mark.parametrize("family", ["koch", "hata2d", "hata3d"])
def test_self_similar_weights_sum_to_one_edge_families(family):
    w = vertex_weights(build_level(family, 3), "self_similar")
    assert abs(w.total - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_self_similar_weight_values(n):
    m = build_level("sierpinski", n)
    w = vertex_weights(m, MeasureKind.SELF_SIMILAR).weights
    np.testing.assert_allclose(w[m.interior_indices], (2 / 3) * 3.0**-n, rtol=1e-13)
    np.testing.assert_allclose(w[m.boundary_indices], (1 / 3) * 3.0**-n, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_edge_length_weight_interior(n):
    m = build_level("sierpinski", n)
    w = vertex_weights(m, MeasureKind.EDGE_LENGTH).weights
    np.testing.assert_allclose(w[m.interior_indices], 2.0 ** (1 - n), rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangle_area_weight_interior(n):
    m = build_level("sierpinski", n)
    w = vertex_weights(m, MeasureKind.TRIANGLE_AREA).weights
    np.testing.assert_allclose(
        w[m.interior_indices], (SQRT3 / 6) * 2.0 ** (-2 * n), rtol=1e-13
    )


def test_triangle_area_requires_cells():
    with pytest.raises(AssemblyError):
        vertex_weights(build_level("koch", 2), MeasureKind.TRIANGLE_AREA)


def test_unknown_measure_kind():
    with pytest.raises(UsageError):
        vertex_weights(build_level("koch", 1), "volume")


# -- load vectors ---------------------------------------------------------------

@pytest.mark.parametrize(
    "kind", [MeasureKind.SELF_SIMILAR, MeasureKind.EDGE_LENGTH, MeasureKind.TRIANGLE_AREA]
)
def test_zero_data_gives_zero_load(kind):
    m = build_level("sierpinski", 2)
    np.testing.assert_array_equal(load_vector(m, kind, np.zeros(m.num_vertices)), 0.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_unit_edge_load_matches_closed_form(n):
    m = build_level("sierpinski", n)
    b = load_vector(m, MeasureKind.EDGE_LENGTH, np.ones(m.num_vertices))
    expected = 2.0 ** (1 - n)
    gap = np.abs(b[m.interior_indices] - expected)
    assert gap.max() <= 1e-14 * expected


@pytest.mark.parametrize("n", range(1, 7))
def test_unit_area_load_matches_closed_form(n):
    m = build_level("sierpinski", n)
    b = load_vector(m, MeasureKind.TRIANGLE_AREA, np.ones(m.num_vertices))
    expected = (SQRT3 / 6) * 2.0 ** (-2 * n)
    gap = np.abs(b[m.interior_indices] - expected)
    assert gap.max() <= 1e-14 * expected


@pytest.mark.parametrize("family", ["sierpinski", "koch", "hata2d"])
def test_unit_load_equals_weights(family):
    # hat functions sum to one on each element, so g = 1 integrates to the mass
    m = build_level(family, 2)
    ones = np.ones(m.num_vertices)
    kinds = [MeasureKind.SELF_SIMILAR, MeasureKind.EDGE_LENGTH]
    if m.num_cells:
        kinds.append(MeasureKind.TRIANGLE_AREA)
    for kind in kinds:
        np.testing.assert_allclose(
            load_vector(m, kind, ones), vertex_weights(m, kind).weights, rtol=1e-14
        )


def gauss_segment_integral(p0, p1, f, order=4):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    length = np.linalg.norm(p1 - p0)
    return 0.5 * length * np.sum(weights * f(t))


def test_edge_load_matches_quadrature_oracle():
    rng = np.random.default_rng(8)
    p0, p1 = rng.normal(size=2), rng.normal(size=2)
    m = single_edge_mesh(p0, p1)
    g = rng.normal(size=2)
    b = load_vector(m, MeasureKind.EDGE_LENGTH, g)
    # linear interpolant of g times each hat function, integrated exactly
    interp = lambda t: g[0] * (1 - t) + g[1] * t
    ref0 = gauss_segment_integral(p0, p1, lambda t: interp(t) * (1 - t))
    ref1 = gauss_segment_integral(p0, p1, lambda t: interp(t) * t)
    np.testing.assert_allclose(b, [ref0, ref1], rtol=1e-12)


def midpoint_triangle_integral(p, f):
    # three-midpoint rule, exact for quadratics
    area = 0.5 * abs(cross2(p[1] - p[0], p[2] - p[0]))
    mids_bary = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
    return area / 3.0 * sum(f(np.array(b)) for b in mids_bary)


def test_area_load_matches_quadrature_oracle():
    rng = np.random.default_rng(9)
    p = rng.normal(size=(3, 2))
    if cross2(p[1] - p[0], p[2] - p[0]) < 0:
        p = p[::-1]
    m = single_cell_mesh(*p)
    g = rng.normal(size=3)
    b = load_vector(m, MeasureKind.TRIANGLE_AREA, g)
    ref = [
        midpoint_triangle_integral(p, lambda bary: (g @ bary) * bary[i])
        for i in range(3)
    ]
    np.testing.assert_allclose(b, ref, rtol=1e-12)


def test_area_load_requires_cells():
    m = build_level("hata2d", 1)
    with pytest.raises(AssemblyError):
        load_vector(m, MeasureKind.TRIANGLE_AREA, np.zeros(m.num_vertices))


def test_load_length_mismatch():
    with pytest.raises(UsageError):
        load_vector(build_level("koch", 1), MeasureKind.EDGE_LENGTH, np.zeros(3))


# -- stiffness matrices -----------------------------------------------------------

def test_single_unit_edge_stiffness():
    m = single_edge_mesh(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(
        fem_edge_stiffness(m).toarray(), [[1, -1], [-1, 1]]
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_stiffness_identity_sierpinski(n):
    m = build_level("sierpinski", n)
    a = fem_edge_stiffness(m)
    lap = graph_laplacian(m) * 2.0**n
    assert max_entry_gap(a, lap) <= 1e-12 * np.abs(a.data).max()


@pytest.mark.parametrize("n", range(1, 7))
def test_area_stiffness_identity_sierpinski(n):
    m = build_level("sierpinski", n)
    a = fem_area_stiffness(m)
    lap = graph_laplacian(m) * (SQRT3 / 6)
    assert max_entry_gap(a, lap) <= 1e-12 * np.abs(a.data).max()


@pytest.mark.parametrize("n", range(1, 5))
def test_edge_stiffness_identity_koch(n):
    m = build_level("koch", n)
    a = fem_edge_stiffness(m)
    lap = graph_laplacian(m) * 3.0**n
    assert max_entry_gap(a, lap) <= 1e-12 * np.abs(a.data).max()


def test_equilateral_element_values():
    a = fem_area_stiffness(build_level("sierpinski", 0)).toarray()
    np.testing.assert_allclose(np.diag(a), SQRT3 / 3, rtol=1e-14)
    off = a[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -SQRT3 / 6, rtol=1e-14)


def test_right_reference_triangle_element():
    m = single_cell_mesh([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    a = fem_area_stiffness(m).toarray()
    np.testing.assert_allclose(
        a, [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]], atol=1e-15
    )


def test_random_triangle_element_against_gradient_oracle():
    # fit the plane coefficients of each hat function and integrate the
    # constant gradient products over the triangle area
    rng = np.random.default_rng(12)
    p = rng.normal(size=(3, 2))
    area = 0.5 * abs(cross2(p[1] - p[0], p[2] - p[0]))
    vander = np.column_stack([np.ones(3), p])
    grads = np.linalg.solve(vander, np.eye(3))[1:, :].T  # row i: grad of hat i
    ref = area * grads @ grads.T
    m = single_cell_mesh(*p)
    np.testing.assert_allclose(
        fem_area_stiffness(m).toarray(), ref, rtol=1e-12
    )


@pytest.mark.parametrize("family,n", [("sierpinski", 3), ("koch", 3), ("hata2d", 3)])
def test_stiffness_annihilates_constants(family, n):
    m = build_level(family, n)
    mats = [fem_edge_stiffness(m)]
    if m.num_cells:
        mats.append(fem_area_stiffness(m))
    for a in mats:
        ones = np.ones(m.num_vertices)
        assert np.abs(a @ ones).max() <= 1e-12 * np.abs(a.data).max()


def test_stiffness_matches_dense_scatter_on_a_triangle_fan():
    """A caller mesh whose hub lies in six cells at every cell position, with
    unequal edges: the CSR assembly equals a dense sum of the elements."""
    rng = np.random.default_rng(11)
    k = 6
    angle = 2 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    rim = rng.uniform(0.5, 2.0, k)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    ring = 1 + np.arange(k)
    fan = np.column_stack([np.zeros(k, dtype=int), ring, np.roll(ring, -1)])
    cells = np.array([np.roll(c, t % 3) for t, c in enumerate(fan)])
    mesh = LevelMesh(
        family="fan",
        level=0,
        vertices=np.vstack([[0.1, -0.05], rim]),
        edges=np.vstack([np.column_stack([np.zeros(k, dtype=int), ring]), fan[:, 1:]]),
        cells=cells,
        boundary_indices=ring,
        dedup_tolerance=1e-9,
    )
    for formulation, build in (("fem_edge", fem_edge_stiffness), ("fem_area", fem_area_stiffness)):
        elements, local = _elements(mesh, formulation)
        dense = np.zeros((mesh.num_vertices, mesh.num_vertices))
        np.add.at(dense, (elements[:, :, None], elements[:, None, :]), local)
        gap = np.abs(build(mesh).toarray() - dense).max()
        assert gap <= 1e-14 * np.abs(dense).max()


def test_zero_length_edge_rejected():
    m = LevelMesh(
        family="bad",
        level=0,
        vertices=np.array([[0.0, 0.0], [0.0, 0.0]]),
        edges=np.array([[0, 1]]),
        cells=np.empty((0, 3), dtype=np.int64),
        boundary_indices=np.array([0, 1]),
        dedup_tolerance=1e-9,
    )
    with pytest.raises(AssemblyError):
        fem_edge_stiffness(m)


def test_degenerate_cell_rejected():
    m = LevelMesh(
        family="bad",
        level=0,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        edges=np.array([[0, 1], [1, 2], [0, 2]]),
        cells=np.array([[0, 1, 2]]),
        boundary_indices=np.array([0, 2]),
        dedup_tolerance=1e-9,
    )
    with pytest.raises(AssemblyError):
        fem_area_stiffness(m)


def test_area_stiffness_requires_cells():
    with pytest.raises(AssemblyError):
        fem_area_stiffness(build_level("koch", 2))
