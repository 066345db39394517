"""Measure weights, load vectors and stiffness assembly.

Load formulas are checked against independent Gauss quadrature of the
piecewise-linear integrands; the stiffness identities against scaled graph
Laplacians are checked entrywise.
"""

import itertools

import numpy as np
import pytest

from fraclap import geometry
from fraclap.errors import AssemblyError, UsageError
from fraclap.geometry import (
    FAMILIES,
    LevelMesh,
    _structure,
    build_level,
    builtin_system,
    iterate,
)
from fraclap.graphs import _EDGE_ELEMENT, graph_laplacian
from fraclap.measures import (
    MeasureKind,
    _cell_areas,
    _elements,
    _level,
    _load,
    _masses,
    _triangle_matrices,
    fem_area_stiffness,
    fem_edge_stiffness,
    load_vector,
    vertex_weights,
)
from fraclap.meshfile import read_mesh, write_mesh

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
    )


def single_edge_mesh(p0, p1):
    return LevelMesh(
        family="segment",
        level=0,
        vertices=np.array([p0, p1], dtype=float),
        edges=np.array([[0, 1]]),
        cells=np.empty((0, 3), dtype=np.int64),
        boundary_indices=np.array([0, 1]),
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


def _edgeless(family):
    return LevelMesh(family=family, level=0, vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
                     edges=np.empty((0, 2), dtype=np.int64),
                     cells=np.empty((0, 3), dtype=np.int64),
                     boundary_indices=np.array([0, 1]))


@pytest.mark.parametrize("family", ["sierpinski", "caller"])
def test_self_similar_measure_refuses_a_mesh_without_edges(family):
    # no copy to give the mass 1 to: an assembly error, not a division by zero
    with pytest.raises(AssemblyError, match="mesh has no edges"):
        vertex_weights(_edgeless(family), "self_similar")


@pytest.mark.parametrize("family", ["sierpinski", "caller"])
def test_edge_length_measure_of_a_mesh_without_edges_is_zero(family):
    weights = vertex_weights(_edgeless(family), "edge_length").weights
    np.testing.assert_array_equal(weights, [0.0, 0.0])


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


def test_zero_length_edge_has_zero_mass():
    # the stiffness refuses this edge; the measure gives it no mass
    mesh = _named_sierpinski([[0, 0], [0, 0], [0.5, 0.5]], [])
    half = 0.5 * np.sqrt(0.5)
    np.testing.assert_allclose(vertex_weights(mesh, "edge_length").weights,
                               [half, half, 2 * half], rtol=1e-15)
    g = np.array([1.0, 2.0, 4.0])
    b = load_vector(mesh, "edge_length", g)
    length = np.sqrt(0.5)
    expected = [length * (1 / 3 + 4 / 6), length * (2 / 3 + 4 / 6),
                length * (4 / 3 + 1 / 6) + length * (4 / 3 + 2 / 6)]
    np.testing.assert_allclose(b, expected, rtol=1e-15)


def test_area_load_working_set(traced):
    # traced peak above what the call starts from, with the level built and
    # lazy imports warm: 6.08 MiB with per-cell areas and three np.add.at
    # passes, 4.12 MiB with one mass element per level while the edge range
    # that _level read gathered every edge, 0.96 MiB with that range taken
    # in blocks (numpy 2.4); _level measures no edge
    mesh = build_level("sierpinski", 10)
    mesh.__dict__.pop("dedup_tolerance", None)  # as if nothing had measured it yet
    g = 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
    small = build_level("sierpinski", 2)
    _load(small, "fem_area", np.ones(small.num_vertices))
    with traced:
        _load(mesh, "fem_area", g)
    assert traced.peak - traced.start <= 1.5 * 2**20, (traced.peak - traced.start) / 2**20


def test_edge_elements_working_set(traced):
    # traced peak above what the call starts from, with the level built and
    # lazy imports warm: 12.0 MiB with (edges, d) endpoint gathers for the
    # lengths, 6.0 MiB with the squared gaps summed one axis at a time
    # (numpy 2.4); the bound leaves 2 MiB of margin over the latter
    mesh = build_level("koch", 9)
    _elements(build_level("koch", 2), "fem_edge")
    with traced:
        _elements(mesh, "fem_edge")
    assert traced.peak - traced.start <= 8.0 * 2**20, (traced.peak - traced.start) / 2**20


def test_edge_load_working_set(traced):
    # traced peak above what the call starts from, with the level built and
    # lazy imports warm: 10.0 MiB with whole-mesh (edges, 2) gathers and
    # products and an intp copy of the edges for np.bincount, 4.0 MiB with
    # the element sums applied in blocks of geometry._SCAN_ROWS edges, 2.19
    # MiB with the fem-edge halving done in place (numpy 2.4); the bound
    # leaves about 0.8 MiB of margin
    mesh = build_level("koch", 9)
    g = 1.0 + mesh.vertices[:, 0]
    small = build_level("koch", 2)
    _load(small, "fem_edge", np.ones(small.num_vertices))
    with traced:
        _load(mesh, "fem_edge", g)
    assert traced.peak - traced.start <= 3.0 * 2**20, (traced.peak - traced.start) / 2**20


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
    )
    with pytest.raises(AssemblyError):
        fem_area_stiffness(m)


def test_area_stiffness_requires_cells():
    with pytest.raises(AssemblyError):
        fem_area_stiffness(build_level("koch", 2))


# the scales of the power-of-two system tests in test_geometry, and 2**±1000
@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000],
                         ids=["2**600", "2**-600", "2**1000", "2**-1000"])
def test_triangle_matrices_of_a_scaled_mesh_keep_their_bits(scale):
    # K is scale-free and a power of two scales every gap exactly: a product
    # of raw gaps overflowed (an error under this suite's warning filter) or
    # underflowed to a "degenerate zero-area cell"
    for n in range(5):
        mesh = build_level("sierpinski", n)
        scaled = LevelMesh(mesh.family, n, scale * mesh.vertices, mesh.edges, mesh.cells,
                           mesh.boundary_indices)
        assert _triangle_matrices(scaled).tobytes() == _triangle_matrices(mesh).tobytes()


# -- one element per level ----------------------------------------------------------

def _coordinate_elements(mesh, formulation):
    if formulation == "fem_area":
        return _triangle_matrices(mesh)
    return (1.0 / mesh.edge_lengths())[:, None, None] * _EDGE_ELEMENT


_KIND = {"fem_edge": MeasureKind.EDGE_LENGTH, "fem_area": MeasureKind.TRIANGLE_AREA}


def _coordinate_load(mesh, kind, g):
    """The closed forms L (g_a/3 + g_b/6) per edge end and S (2 g_i + g_j +
    g_k)/12 per cell vertex, from coordinates."""
    b = np.zeros(mesh.num_vertices)
    if kind is MeasureKind.EDGE_LENGTH:
        length = mesh.edge_lengths()
        for a, o in ((0, 1), (1, 0)):
            i, j = mesh.edges[:, a], mesh.edges[:, o]
            np.add.at(b, i, length * (g[i] / 3.0 + g[j] / 6.0))
        return b
    p = mesh.vertices[mesh.cells]
    area = 0.5 * np.abs(cross2((p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T))
    gc = g[mesh.cells]
    for i in range(3):
        np.add.at(b, mesh.cells[:, i],
                  area * (2.0 * gc[:, i] + gc[:, (i + 1) % 3] + gc[:, (i + 2) % 3]) / 12.0)
    return b


# the coordinate 1/L drifts from 1/(L0 r**n) with the level; measured 2.6e-12
# at Koch 9, 1.2e-12 at hata2d 8, 3.6e-13 at hata3d 7, 1.2e-13 at Sierpinski
# 10, and 1.5e-13 for the Sierpinski 10 fem-area element.  The loads of the
# level's mass element drift from the loads from coordinates by 2.0e-12,
# 4.6e-13, 1.6e-13, 5.7e-14 and 1.5e-13 (normwise)
@pytest.mark.parametrize("family, level, formulation", [
    ("koch", 9, "fem_edge"), ("hata2d", 8, "fem_edge"), ("hata3d", 7, "fem_edge"),
    ("sierpinski", 10, "fem_edge"), ("sierpinski", 10, "fem_area"),
])
def test_level_element_is_the_coordinate_elements(family, level, formulation):
    mesh = build_level(family, level)
    _, local = _elements(mesh, formulation)
    assert local.strides[0] == 0
    gap = np.abs(_coordinate_elements(mesh, formulation) - local[0]).max()
    assert gap <= 1e-11 * np.abs(local[0]).max()
    # the mass element of the level against the loads from coordinates
    kind = _KIND[formulation]
    assert _masses(mesh, kind)[1].strides[0] == 0
    g = 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
    b = load_vector(mesh, kind, g)
    expected = _coordinate_load(mesh, kind, g)
    assert np.abs(b - expected).max() <= 1e-11 * np.abs(expected).max()


def test_level_elements_are_exact_scalings_of_the_seed():
    _, edge = _elements(build_level("koch", 5), "fem_edge")
    np.testing.assert_array_equal(edge[0], 3.0**5 * _EDGE_ELEMENT)
    _, area = _elements(build_level("sierpinski", 5), "fem_area")
    np.testing.assert_array_equal(area[0], _triangle_matrices(build_level("sierpinski", 0))[0])


def _equal_copy(mesh, how, tmp_path):
    """A mesh equal to ``mesh`` field by field, made another way."""
    if how == "fields":
        return LevelMesh(mesh.family, mesh.level, mesh.vertices, mesh.edges, mesh.cells,
                         mesh.boundary_indices)
    if how == "read_mesh":
        write_mesh(mesh, tmp_path / "mesh.json")
        return read_mesh(tmp_path / "mesh.json")
    return iterate(builtin_system(mesh.family), mesh.level)


@pytest.mark.parametrize("how", ["fields", "read_mesh", "iterate"])
@pytest.mark.parametrize("family", FAMILIES)
def test_equal_copies_take_the_level_element(tmp_path, family, how):
    # a copy whose coordinates are the built level's bits is that level
    # (``geometry._built``): it takes the one element and the one mass
    # element, with the built level's bits
    mesh = build_level(family, 4)
    other = _equal_copy(mesh, how, tmp_path)
    assert other is not mesh
    formulations = ["fem_edge", "fem_area"] if mesh.num_cells else ["fem_edge"]
    for formulation in formulations:
        (_, local), (_, want) = _elements(other, formulation), _elements(mesh, formulation)
        assert local.strides[0] == 0 and local.tobytes() == want.tobytes(), formulation
        kind = _KIND[formulation]
        (_, mass), (_, want) = _masses(other, kind), _masses(mesh, kind)
        assert mass.strides[0] == 0 and mass.tobytes() == want.tobytes(), kind


def test_a_caller_copy_does_not_become_the_kept_level(refines, tmp_path):
    # the copy is compared with a level built for the comparison alone: the
    # level store stays as it was, holding the one level its caller holds
    write_mesh(build_level("sierpinski", 8), tmp_path / "mesh.json")
    kept = build_level("sierpinski", 2)
    copy = read_mesh(tmp_path / "mesh.json")
    assert sorted(geometry._LEVELS) == [("sierpinski", 2)]
    _, local = _elements(copy, "fem_edge")
    assert local.strides[0] == 0  # the level's one element
    assert sorted(geometry._LEVELS) == [("sierpinski", 2)]
    assert geometry._LEVELS["sierpinski", 2] is kept


def _relabeled(mesh, **change):
    fields = dict(family=mesh.family, level=mesh.level, vertices=mesh.vertices,
                  edges=mesh.edges, cells=mesh.cells,
                  boundary_indices=mesh.boundary_indices)
    return LevelMesh(**{**fields, **change})


_RELABELS = {"family": {"family": "caller"}, "level": {"level": 3},
             "huge_level": {"level": 10**400}}


@pytest.mark.parametrize("formulation", ["fem_edge", "fem_area"])
@pytest.mark.parametrize("change", ["moved", "one_ulp", "translated", *_RELABELS])
def test_other_meshes_keep_coordinate_elements(formulation, change):
    # a level whose coordinates are not the built level's bits is another
    # mesh, however close: one vertex moved by 1e-6 or by one ulp, or every
    # vertex translated by (1, 1)
    mesh = build_level("sierpinski", 4)
    vertices, k = mesh.vertices.copy(), mesh.interior_indices[7]
    if change == "moved":
        vertices[k] += [1e-6, 0.0]
    elif change == "one_ulp":
        vertices[k, 0] = np.nextafter(vertices[k, 0], np.inf)
    elif change == "translated":
        vertices += 1.0
    other = _relabeled(mesh, vertices=vertices, **_RELABELS.get(change, {}))
    _, local = _elements(other, formulation)
    assert local.strides[0] != 0
    np.testing.assert_array_equal(local, _coordinate_elements(other, formulation))
    # loads from coordinates: 3.1e-16 (edge) and 4.1e-16 (area) from the
    # closed forms, normwise
    kind = _KIND[formulation]
    assert _masses(other, kind)[1].strides[0] != 0
    g = 1.0 + other.vertices[:, 0] * other.vertices[:, 1]
    expected = _coordinate_load(other, kind, g)
    gap = np.abs(load_vector(other, kind, g) - expected).max()
    assert gap <= 1e-15 * np.abs(expected).max()


def _named_sierpinski(vertices, cells):
    return LevelMesh(family="sierpinski", level=0, vertices=np.array(vertices),
                     edges=np.array([[0, 1], [1, 2], [0, 2]]),
                     cells=np.array(cells, dtype=np.int64).reshape(-1, 3),
                     boundary_indices=np.array([0, 1, 2]))


@pytest.mark.parametrize("case, match", [
    ("zero-length edge", "zero-length edge"),
    ("degenerate cell", "degenerate"),
    ("non-planar", "planar"),
    ("no cells", "requires a mesh with cells"),
])
def test_assembly_checks_hold_under_a_built_in_family_name(case, match):
    if case == "zero-length edge":
        mesh, build = _named_sierpinski([[0, 0], [0, 0], [0.5, 0.5]], []), fem_edge_stiffness
    elif case == "degenerate cell":
        mesh, build = _named_sierpinski([[0, 0], [0.5, 0], [1, 0]], [0, 1, 2]), fem_area_stiffness
    elif case == "non-planar":
        mesh = _named_sierpinski([[0, 0, 0], [1, 0, 0], [0.5, 0.8, 0.1]], [0, 1, 2])
        build = fem_area_stiffness
    else:
        mesh = _relabeled(build_level("sierpinski", 2), cells=np.empty((0, 3), dtype=np.int64))
        build = fem_area_stiffness
    with pytest.raises(AssemblyError, match=match):
        build(mesh)


# -- what the level element relies on -------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_seed_facts_the_level_element_relies_on(family):
    # ``measures._level`` scales the seed's longest edge and takes the seed
    # cell's element; every edge and cell of a level is that only while
    # every seed edge has the longest one's length and every side of a seed
    # cell is a seed edge
    seed = _structure(family)[0]
    length = seed.edge_lengths()
    np.testing.assert_allclose(length, length[0], rtol=1e-15)
    if family == "sierpinski":
        assert seed.num_cells == 1
        sides = {frozenset(seed.cells[0, [i, (i + 1) % 3]].tolist()) for i in range(3)}
        assert sides <= {frozenset(e) for e in seed.edges.tolist()}
    else:
        assert seed.num_cells == 0


def _coordinate_masses(mesh):
    """The triangle-area mass elements S (1 + I) / 12 from coordinate areas."""
    return _cell_areas(mesh.vertices[mesh.cells])[:, None, None] * ((1.0 + np.eye(3)) / 12.0)


def test_a_koch_named_rhombus_takes_coordinate_elements():
    # a Koch-named level 1 whose edges all have Koch's length 1/3, carrying
    # two equilateral cells (a rhombus): it is not laid out as Koch's level
    # 1, so its elements and masses come from its coordinates
    h = SQRT3 / 6.0
    mesh = LevelMesh(family="koch", level=1,
                     vertices=np.array([[0.0, 0.0], [1 / 3, 0.0], [1 / 6, h], [1 / 2, h]]),
                     edges=np.array([[0, 1], [1, 2], [2, 0], [1, 3], [3, 2]]),
                     cells=np.array([[0, 1, 2], [1, 3, 2]]),
                     boundary_indices=np.array([0, 3]))
    assert _level(mesh) is None
    np.testing.assert_array_equal(_elements(mesh, "fem_edge")[1],
                                  _coordinate_elements(mesh, "fem_edge"))
    np.testing.assert_array_equal(_elements(mesh, "fem_area")[1], _triangle_matrices(mesh))
    np.testing.assert_array_equal(_masses(mesh, MeasureKind.TRIANGLE_AREA)[1],
                                  _coordinate_masses(mesh))


def test_cells_of_a_mesh_whose_edges_do_not_fit_take_coordinates():
    # Sierpinski 2 plus one edge between two interior vertices: every cell
    # is still the seed cell scaled by 1/4, but the mesh is not a level, so
    # its elements and masses come from coordinates
    mesh = build_level("sierpinski", 2)
    adjacent = {tuple(sorted(e)) for e in mesh.edges.tolist()}
    extra = next(pair for pair in itertools.combinations(mesh.interior_indices.tolist(), 2)
                 if pair not in adjacent)
    other = _relabeled(mesh, edges=np.vstack([mesh.edges, extra]))
    _, local = _elements(other, "fem_area")
    assert local.strides[0] != 0
    np.testing.assert_array_equal(local, _triangle_matrices(other))
    _, mass = _masses(other, MeasureKind.TRIANGLE_AREA)
    assert mass.strides[0] != 0
    np.testing.assert_array_equal(mass, _coordinate_masses(other))
