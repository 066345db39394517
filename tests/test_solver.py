"""Dirichlet solves: partitioning, linear solver contract, maximum
principle, linearity, symmetry and dense-oracle equivalence."""

import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclap import geometry
from fraclap.errors import GeometryError, SolveError, UsageError
from fraclap.geometry import (
    FAMILIES,
    AffineMap,
    IFSystem,
    LevelMesh,
    _copy_table,
    _structure,
    build_level,
    embed,
    iterate,
)
from fraclap.graphs import _apply_elements, _assemble, _assemble_elements, graph_laplacian
from fraclap.measures import fd_graph_stiffness, fem_area_stiffness, fem_edge_stiffness
from fraclap.meshfile import read_mesh, write_mesh
from fraclap.renorm import _elements, _load, _renormalized
from fraclap.solver import (
    BACKWARD_ERROR_BOUND,
    _Condensation,
    _extend,
    _leaf_block,
    _problem,
    linear_solve,
    partition,
    solve_condensed,
    solve_dirichlet,
)

from test_renorm import _corner_reader

finite_floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


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


def dense_dirichlet_oracle(mesh, operator, load, boundary_values):
    """Independent dense Gaussian-elimination solve of the interior system."""
    a = operator.toarray()
    bidx = np.sort(mesh.boundary_indices)
    iidx = np.setdiff1d(np.arange(mesh.num_vertices), bidx)
    u0 = np.array([boundary_values[int(i)] for i in bidx])
    rhs = load[iidx] - a[np.ix_(iidx, bidx)] @ u0
    ui = np.linalg.solve(a[np.ix_(iidx, iidx)], rhs)
    out = np.empty(mesh.num_vertices)
    out[bidx] = u0
    out[iidx] = ui
    return out


def small_meshes(limit=50):
    # level 0 meshes have empty interiors and nothing to solve
    for family in FAMILIES:
        level = 1
        while True:
            m = build_level(family, level)
            if m.num_vertices > limit:
                break
            yield m
            level += 1


# -- partition -----------------------------------------------------------------

def test_partition_sierpinski_level1():
    m = build_level("sierpinski", 1)
    a_ii, a_i0, iidx, bidx = partition(graph_laplacian(m), m.boundary_indices)
    np.testing.assert_array_equal(np.diag(a_ii.toarray()), [4.0, 4.0, 4.0])
    assert a_ii.shape == (3, 3) and a_i0.shape == (3, 3)
    np.testing.assert_array_equal(bidx, [0, 1, 2])
    np.testing.assert_array_equal(iidx, [3, 4, 5])


def test_partition_path3():
    m = path_mesh(3)
    a_ii, a_i0, _, _ = partition(graph_laplacian(m), [0, 2])
    np.testing.assert_array_equal(a_ii.toarray(), [[2.0]])
    np.testing.assert_array_equal(a_i0.toarray(), [[-1.0, -1.0]])


def test_partition_rejects_empty_interior():
    m = build_level("sierpinski", 0)
    with pytest.raises(SolveError):
        partition(graph_laplacian(m), [0, 1, 2])


def test_partition_rejects_bad_index():
    m = path_mesh(3)
    with pytest.raises(UsageError):
        partition(graph_laplacian(m), [0, 7])


# -- linear_solve -----------------------------------------------------------------

def test_solve_identity():
    eye = _assemble(3, range(3), range(3), np.ones(3))
    b = np.array([3.0, -1.0, 2.0])
    x, residual = linear_solve(eye, b)
    np.testing.assert_allclose(x, b)
    assert residual == np.abs(b - eye @ x).max()


def test_solve_two_by_two():
    a = _assemble(2, [0, 0, 1, 1], [0, 1, 0, 1], [2, -1, -1, 2])
    x, _ = linear_solve(a, np.ones(2))
    np.testing.assert_allclose(x, np.ones(2), atol=1e-12)


def test_solve_random_spd_against_dense():
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(50, 50))
    dense = dense @ dense.T + 50 * np.eye(50)
    rows, cols = np.nonzero(dense)
    a = _assemble(50, rows, cols, dense[rows, cols])
    b = rng.normal(size=50)
    x, _ = linear_solve(a, b)
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), atol=1e-8)


def test_solve_rejects_nonsymmetric():
    a = _assemble(2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
    with pytest.raises(SolveError):
        linear_solve(a, np.ones(2))


def test_solve_rejects_singular():
    m = path_mesh(3)
    lap = graph_laplacian(m)  # singular without boundary elimination
    with pytest.raises(SolveError):
        linear_solve(lap, np.array([1.0, 0.0, -1.0]))


def test_solve_residual_contract():
    m = build_level("sierpinski", 5)
    a_ii, _, iidx, _ = partition(graph_laplacian(m), m.boundary_indices)
    b = np.ones(iidx.size)
    x, residual = linear_solve(a_ii, b)
    res = np.abs(a_ii @ x - b).max()
    assert residual == res
    norm_a = abs(a_ii).sum(axis=1).max()
    assert res <= BACKWARD_ERROR_BOUND * (norm_a * np.abs(x).max() + np.abs(b).max())


# -- solve_dirichlet -----------------------------------------------------------------

def test_constants_are_harmonic():
    m = build_level("sierpinski", 2)
    sol = solve_dirichlet(m, *_elements(m, "fd"), np.zeros(m.num_vertices),
                          {int(i): 2.5 for i in m.boundary_indices})
    np.testing.assert_allclose(sol.values, 2.5, atol=1e-12)
    assert sol.values[m.boundary_indices[0]] == 2.5  # boundary copied exactly


def test_path_interior_is_midpoint_value():
    m = path_mesh(3)
    sol = solve_dirichlet(m, *_elements(m, "fd"), np.zeros(3), {0: 0.0, 2: 1.0})
    assert sol.values[1] == pytest.approx(0.5, abs=1e-12)


def test_sierpinski_level1_against_dense_oracle():
    m = build_level("sierpinski", 1)
    lap = graph_laplacian(m)
    h = {0: 1.0, 1: 0.0, 2: 0.0}
    load = np.zeros(m.num_vertices)
    sol = solve_dirichlet(m, *_elements(m, "fd"), load, h)
    ref = dense_dirichlet_oracle(m, lap, load, h)
    np.testing.assert_allclose(sol.values, ref, atol=1e-12)


def test_all_small_meshes_against_dense_oracle():
    rng = np.random.default_rng(21)
    count = 0
    for m in small_meshes(50):
        lap = graph_laplacian(m)
        load = rng.normal(size=m.num_vertices)
        h = {int(i): float(v) for i, v in
             zip(m.boundary_indices, rng.normal(size=m.boundary_indices.size))}
        sol = solve_dirichlet(m, *_elements(m, "fd"), load, h)
        ref = dense_dirichlet_oracle(m, lap, load, h)
        np.testing.assert_allclose(sol.values, ref, atol=1e-10)
        count += 1
    assert count == 9  # levels 1..2 (1..3 for sierpinski) stay below 50 vertices


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("level", [1, 3])
def test_maximum_principle(family, level):
    m = build_level(family, level)
    rng = np.random.default_rng(level)
    h = {int(i): float(v) for i, v in
         zip(m.boundary_indices, rng.uniform(-2, 3, m.boundary_indices.size))}
    sol = solve_dirichlet(m, *_elements(m, "fd"), np.zeros(m.num_vertices), h)
    values = np.array(list(h.values()))
    assert sol.values.min() >= values.min() - 1e-10
    assert sol.values.max() <= values.max() + 1e-10


@given(alpha=finite_floats, beta=finite_floats)
def test_solution_linearity(alpha, beta):
    m = build_level("sierpinski", 2)
    elements, local = _elements(m, "fd")
    rng = np.random.default_rng(3)
    g1, g2 = rng.normal(size=(2, m.num_vertices))
    h1 = {int(i): float(rng.normal()) for i in m.boundary_indices}
    h2 = {int(i): float(rng.normal()) for i in m.boundary_indices}
    u1 = solve_dirichlet(m, elements, local, g1, h1).values
    u2 = solve_dirichlet(m, elements, local, g2, h2).values
    combo_h = {k: alpha * h1[k] + beta * h2[k] for k in h1}
    combo = solve_dirichlet(m, elements, local, alpha * g1 + beta * g2, combo_h).values
    scale = max(1.0, np.abs(combo).max())
    assert np.abs(combo - (alpha * u1 + beta * u2)).max() <= 1e-10 * scale


def test_reflection_symmetry_on_sierpinski():
    # the mirror through a0 and the midpoint of a1 a2 swaps a1 and a2
    m = build_level("sierpinski", 3)
    h = {0: 1.0, 1: 0.0, 2: 0.0}
    sol = solve_dirichlet(m, *_elements(m, "fd"), np.zeros(m.num_vertices), h)
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    mirror = np.array([[c, s], [s, -c]])
    reflected = LevelMesh(m.family, m.level, m.vertices @ mirror.T, m.edges, m.cells,
                          m.boundary_indices)
    idx = embed(reflected, m).index_map
    np.testing.assert_allclose(sol.values[idx], sol.values, atol=1e-10)


def test_solution_reports_residual():
    m = build_level("sierpinski", 3)
    sol = solve_dirichlet(m, *_elements(m, "fd"), np.ones(m.num_vertices),
                          {int(i): 0.0 for i in m.boundary_indices})
    assert 0.0 <= sol.solver_residual <= 1e-10


# Both solvers check a problem with one helper; each case is tried on both.
SOLVERS = {"condensed": solve_condensed, "dirichlet": solve_dirichlet}


def _refuse_on_both(h, match):
    m = build_level("sierpinski", 1)
    for solver in SOLVERS.values():
        with pytest.raises(UsageError, match=match):
            solver(m, *_elements(m, "fd"), np.zeros(m.num_vertices), h)


def test_problem_requires_complete_boundary_data():
    _refuse_on_both({0: 1.0}, "exactly the boundary indices")


def test_problem_rejects_extra_boundary_data():
    _refuse_on_both({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, "exactly the boundary indices")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_boundary_data(bad):
    _refuse_on_both({0: bad, 1: 0.0, 2: 0.0}, "finite")


@pytest.mark.parametrize("h", [
    {0: 1.0, 1: 0.0, 2: 0.0, 2.5: 7.0},  # an extra key that int() maps onto 2
    {0.5: 1.0, 1: 0.0, 2: 0.0},          # a key that int() maps onto 0
], ids=["extra-float-key", "float-key"])
def test_boundary_keys_must_be_vertex_indices(h):
    _refuse_on_both(h, "integer vertex indices")


def test_boundary_keys_may_be_numpy_integers():
    m = build_level("sierpinski", 2)
    h = {i: 1.0 for i in m.boundary_indices}  # numpy int64 keys
    for solver in SOLVERS.values():
        sol = solver(m, *_elements(m, "fd"), np.zeros(m.num_vertices), h)
        np.testing.assert_allclose(sol.values, 1.0, atol=1e-12)


# -- solve_condensed: self-similar static condensation ------------------------

STIFFNESS = {
    "fd": fd_graph_stiffness,
    "graph_energy": fd_graph_stiffness,
    "fem_edge": fem_edge_stiffness,
    "fem_area": fem_area_stiffness,
}


def _backward_error(a, x, b):
    """Normwise backward error |b - A x| / (|A| |x| + |b|), infinity norms."""
    scale = abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    return np.abs(b - a @ x).max() / scale


def _oracle_cases():
    for family in FAMILIES:
        for formulation in STIFFNESS:
            if formulation == "fem_area" and family != "sierpinski":
                continue
            for level in range(1, 6):
                yield family, formulation, level
    # one deep case per family
    yield from [("sierpinski", "fd", 8), ("koch", "fem_edge", 7),
                ("hata2d", "fd", 7), ("hata3d", "graph_energy", 7)]


@pytest.mark.parametrize("family, formulation, level", list(_oracle_cases()))
def test_condensation_matches_the_factorization(family, formulation, level):
    mesh = build_level(family, level)
    rng = np.random.default_rng(level)
    elements, local = _elements(mesh, formulation)
    operator = STIFFNESS[formulation](mesh)
    load = _load(mesh, formulation, rng.normal(size=mesh.num_vertices))
    h = {int(i): float(v) for i, v in
         zip(mesh.boundary_indices, rng.normal(size=mesh.boundary_indices.size))}
    problem = mesh, elements, local, load, h
    condensed = solve_condensed(*problem)
    factored = solve_dirichlet(*problem)
    a_ii, a_i0, iidx, bidx = partition(operator, mesh.boundary_indices)
    rhs = load[iidx] - a_i0 @ np.array([h[int(i)] for i in bidx])
    for sol in (condensed, factored):
        np.testing.assert_array_equal(sol.values[bidx], [h[int(i)] for i in bidx])
        assert _backward_error(a_ii, sol.values[iidx], rhs) <= BACKWARD_ERROR_BOUND
    # both are backward stable, so they differ by about cond(A_II) * 1e-16;
    # the worst case here, hata3d level 7, reads 6e-9
    gap = np.abs(condensed.values - factored.values).max()
    assert gap <= 1e-7 * np.abs(factored.values).max()
    _, _, elements, local, _ = _problem(*problem)
    norm = _Condensation(mesh, elements, local).norm()
    assembled = abs(a_ii).sum(axis=1).max()
    assert abs(norm - assembled) <= 1e-14 * assembled


@pytest.mark.parametrize("family", FAMILIES)
def test_condensation_refuses_unequal_leaf_elements(family):
    # random edge conductances: the leaves carry different blocks, which the
    # condensation refuses and the factorization solves
    mesh = build_level(family, 3)
    rng = np.random.default_rng(3)
    c = rng.uniform(0.5, 2.0, mesh.num_edges)
    local = c[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    load = rng.normal(size=mesh.num_vertices)
    h = {int(i): float(v) for i, v in
         zip(mesh.boundary_indices, rng.normal(size=mesh.boundary_indices.size))}
    with pytest.raises(UsageError, match="solve_dirichlet"):
        solve_condensed(mesh, mesh.edges, local, load, h)
    i, j = mesh.edges.T
    operator = _assemble(mesh.num_vertices, [i, j, i, j], [i, j, j, i], [c, c, -c, -c])
    factored = solve_dirichlet(mesh, mesh.edges, local, load, h)
    np.testing.assert_allclose(factored.values, dense_dirichlet_oracle(mesh, operator, load, h),
                               rtol=1e-10, atol=1e-10)


# the fd cases keep the family alone as their id
@pytest.mark.parametrize("family, formulation", [
    *((family, "fd") for family in FAMILIES),
    ("sierpinski", "fem_edge"), ("sierpinski", "fem_area"), ("koch", "fem_edge"),
], ids=[*FAMILIES, "sierpinski-fem_edge", "sierpinski-fem_area", "koch-fem_edge"])
def test_condensation_rejects_permuted_edges(family, formulation):
    # _copy_table reads the table off the edges without checking it; the
    # condensation's own checks refuse what it reads from permuted edges
    mesh = build_level(family, 3)
    order = np.random.default_rng(5).permutation(mesh.num_edges)
    permuted = LevelMesh(mesh.family, mesh.level, mesh.vertices, mesh.edges[order],
                         mesh.cells, mesh.boundary_indices)
    h = {int(i): 0.0 for i in mesh.boundary_indices}
    elements, local = _elements(permuted, formulation)
    with pytest.raises(GeometryError):
        solve_condensed(permuted, elements, local, np.ones(mesh.num_vertices), h)


@pytest.mark.parametrize("family, formulation", [
    ("sierpinski", "fd"), ("sierpinski", "fem_area"), ("koch", "fem_edge"),
    ("hata2d", "graph_energy"), ("hata3d", "fd"),
])
def test_leaf_blocks_are_the_per_element_sums(family, formulation):
    mesh = build_level(family, 4)
    elements, local = _elements(mesh, formulation)
    seed = build_level(family, 0)
    leaves = _copy_table(mesh)
    # reference: each element added into its leaf's block in element order
    expected = np.zeros((leaves.shape[0], leaves.shape[1], leaves.shape[1]))
    per_leaf = elements.shape[0] // leaves.shape[0]
    for k, (element, matrix) in enumerate(zip(elements, local)):
        w = k // per_leaf
        pos = [int(np.flatnonzero(leaves[w] == v)[0]) for v in element]
        for a, b in np.ndindex(matrix.shape):
            expected[w, pos[a], pos[b]] += matrix[a, b]
    assert (expected == expected[:1]).all()  # every leaf carries one block
    pos = seed.cells if formulation == "fem_area" else seed.edges
    assert _leaf_block(pos, seed.num_vertices, local).tobytes() == expected[0].tobytes()


@pytest.mark.parametrize("family, formulation, swap", [
    ("sierpinski", "fd", "edges"),         # two edges of one leaf trade places
    ("koch", "fem_edge", "reversed"),      # one edge lists its ends reversed
    ("sierpinski", "fem_area", "rotated"),  # one cell lists its corners rotated
    ("sierpinski", "fd", "subset"),        # one edge of every leaf
])
def test_condensation_rejects_elements_out_of_the_first_leaf_order(family, formulation, swap):
    mesh = build_level(family, 3)
    elements, local = _elements(mesh, formulation)
    elements, local = elements.copy(), local.copy()
    k = elements.shape[0] // 2
    if swap == "edges":
        per_leaf = elements.shape[0] // 3**mesh.level
        k -= k % per_leaf
        elements[[k, k + 1]], local[[k, k + 1]] = elements[[k + 1, k]], local[[k + 1, k]]
    elif swap == "subset":
        elements, local = elements[::3], local[::3]
    else:
        turn = [1, 0] if swap == "reversed" else [1, 2, 0]
        elements[k], local[k] = elements[k, turn], local[k][np.ix_(turn, turn)]
    h = {int(i): 0.0 for i in mesh.boundary_indices}
    with pytest.raises(GeometryError, match="edges or cells of a level as build_level builds it"):
        solve_condensed(mesh, elements, local, np.ones(mesh.num_vertices), h)


@pytest.mark.parametrize("case", ["caller-family", "right-gasket", "level-40"])
def test_condensation_rejects_a_mesh_that_no_built_level_matches(case):
    # build_level refuses the family or the level: the mesh is no built level
    if case == "right-gasket":  # the README's caller system, level 3
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        seed = LevelMesh("right-gasket", 0, corners, [[0, 1], [1, 2], [2, 0]], [[0, 1, 2]],
                         [0, 1, 2])
        mesh = iterate(IFSystem(tuple(AffineMap(np.eye(2) / 2, c / 2) for c in corners), seed), 3)
    else:
        built = build_level("sierpinski", 3)
        family, level = ("caller", 3) if case == "caller-family" else ("sierpinski", 40)
        mesh = LevelMesh(family, level, built.vertices, built.edges, built.cells,
                         built.boundary_indices)
    elements, local = _elements(mesh, "fd")
    h = {int(i): 0.0 for i in mesh.boundary_indices}
    with pytest.raises(GeometryError, match="edges or cells of a level as build_level builds it"):
        solve_condensed(mesh, elements, local, np.ones(mesh.num_vertices), h)


def _assert_glues_and_partitions(mesh):
    """The layout the condensation takes from a built level: every leaf
    lists its edges and cells at the seed's positions, the copies agree on
    every glued vertex at every depth, every vertex is eliminated exactly
    once, and the top copy's seed vertices are the boundary."""
    seed, glue, _ = _structure(mesh.family)
    (m, nb), nv1 = glue.shape, int(glue.max()) + 1
    # the raw rows, as _copy_table returns them once the layout is checked
    ids = mesh.cells if seed.num_cells else mesh.edges
    for rows, pos in ((mesh.edges, seed.edges), (mesh.cells, seed.cells)):
        assert (ids[:, pos] == rows.reshape(ids.shape[0], *pos.shape)).all()
    eliminated = []
    for d in range(mesh.level - 1, -1, -1):
        child = ids.reshape(m**d, m * nb)
        v1 = np.empty((m**d, nv1), dtype=np.int64)
        v1[:, glue.ravel()] = child
        assert (v1[:, glue.ravel()] == child).all()
        eliminated.append(v1[:, nb:].ravel())
        ids = v1[:, :nb]
    counts = np.bincount(np.concatenate([ids.ravel(), *eliminated]), minlength=mesh.num_vertices)
    assert (counts == 1).all()
    assert ids.ravel().tolist() == mesh.boundary_indices.tolist()


@pytest.mark.parametrize("family, level", [
    (family, level) for family in FAMILIES for level in range(1, 6 if family == "hata3d" else 7)
])
def test_built_levels_glue_and_partition(family, level):
    _assert_glues_and_partitions(build_level(family, level))


def test_glue_and_partition_fail_with_two_edges_of_one_leaf_swapped():
    mesh = build_level("sierpinski", 3)
    edges = mesh.edges.copy()
    edges[[3, 4]] = edges[[4, 3]]  # the first two edges of the second leaf
    swapped = LevelMesh(mesh.family, mesh.level, mesh.vertices, edges, mesh.cells,
                        mesh.boundary_indices)
    with pytest.raises(AssertionError):
        _assert_glues_and_partitions(swapped)
    # the condensation refuses it by its topology alone
    h = {int(i): 0.0 for i in mesh.boundary_indices}
    with pytest.raises(GeometryError, match="as build_level builds it"):
        solve_condensed(swapped, *_elements(swapped, "fd"), np.ones(mesh.num_vertices), h)


def test_copy_table_refuses_a_seed_it_cannot_read_off_the_mesh(monkeypatch):
    # the table is the mesh's own cells or edges: a seed of two edges, or of
    # one edge listing its ends reversed, has no such table, and _structure
    # refuses it once per family
    mesh, koch = build_level("koch", 2), geometry.builtin_system("koch")
    assert _copy_table(mesh) is mesh.edges
    path = LevelMesh("path", 0, [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]], [[0, 2], [2, 1]], [],
                     [0, 1])
    turned = LevelMesh("turned", 0, koch.seed.vertices, [[1, 0]], [], [0, 1])
    # uncached, so no system of this test outlives it
    monkeypatch.setattr(geometry, "builtin_system", geometry.builtin_system.__wrapped__)
    for seed in (path, turned):
        monkeypatch.setitem(geometry._BUILTIN, seed.family,
                            lambda seed=seed: IFSystem(koch.maps, seed))
        with pytest.raises(GeometryError, match="copy table needs a seed"):
            _structure(seed.family)


def test_a_level_with_an_isolated_vertex_is_refused_by_every_copy_table_reader(monkeypatch):
    # one vertex more than the level predicts makes a singular system, which
    # at zero load would solve with residual 0: it is refused before
    # anything is built
    mesh = build_level("sierpinski", 3)
    extra = LevelMesh(mesh.family, mesh.level, np.vstack([mesh.vertices, [[2.0, 2.0]]]),
                      mesh.edges, mesh.cells, mesh.boundary_indices)
    elements, local = _elements(extra, "fd")
    monkeypatch.setattr(geometry, "build_level", None)  # a build would raise TypeError
    for load in (np.zeros(extra.num_vertices), np.ones(extra.num_vertices)):
        with pytest.raises(GeometryError, match="as build_level builds it"):
            solve_condensed(extra, elements, local, load, {0: 0.0, 1: 0.0, 2: 0.0})
    with pytest.raises(GeometryError, match="as build_level builds it"):
        geometry._copy_table(extra)


@pytest.mark.parametrize("family", FAMILIES)
def test_condensation_takes_any_mesh_equal_to_the_built_level(tmp_path, family):
    mesh = build_level(family, 4)
    rng = np.random.default_rng(4)
    load = rng.normal(size=mesh.num_vertices)
    h = dict(zip(mesh.boundary_indices.tolist(), rng.normal(size=mesh.boundary_indices.size)))
    write_mesh(mesh, tmp_path / "mesh.json")
    moved = mesh.vertices + rng.uniform(0.1, 0.2, mesh.vertices.shape)
    others = [
        LevelMesh(mesh.family, mesh.level, mesh.vertices, mesh.edges, mesh.cells,
                  mesh.boundary_indices),
        read_mesh(tmp_path / "mesh.json"),
        LevelMesh(mesh.family, mesh.level, moved, mesh.edges, mesh.cells, mesh.boundary_indices),
    ]
    expected = solve_condensed(mesh, *_elements(mesh, "fd"), load, h).values
    for other in others:
        assert other is not mesh
        values = solve_condensed(other, *_elements(other, "fd"), load, h).values
        assert values.tobytes() == expected.tobytes()
    # the read-back copy is the level, coordinates and all: it takes the
    # level's weak-form elements too
    back = others[1]
    for formulation in ["fem_edge", "fem_area"][:1 + bool(mesh.num_cells)]:
        expected = solve_condensed(mesh, *_elements(mesh, formulation), load, h).values
        values = solve_condensed(back, *_elements(back, formulation), load, h).values
        assert values.tobytes() == expected.tobytes(), formulation


def test_condensation_rejects_a_mesh_of_another_level():
    mesh = build_level("sierpinski", 3)
    relabeled = LevelMesh(mesh.family, 2, mesh.vertices, mesh.edges, mesh.cells,
                          mesh.boundary_indices)
    elements, local = _elements(relabeled, "fd")
    with pytest.raises(GeometryError):
        solve_condensed(relabeled, elements, local, np.zeros(mesh.num_vertices),
                        {0: 0.0, 1: 0.0, 2: 0.0})


def test_condensation_rejects_nonsymmetric_elements():
    mesh = build_level("koch", 2)
    elements, local = _elements(mesh, "fd")
    local = local.copy()
    local[0, 0, 1] = 0.0
    with pytest.raises(SolveError, match="symmetric"):
        solve_condensed(mesh, elements, local, np.zeros(mesh.num_vertices), {0: 1.0, 1: 0.0})


@pytest.mark.parametrize("solver", [solve_condensed, solve_dirichlet])
def test_asymmetric_broadcast_stack_is_refused(solver):
    mesh = build_level("koch", 2)
    elements, _ = _elements(mesh, "fd")
    local = np.broadcast_to(np.array([[1.0, -1.0], [-0.5, 1.0]]), (mesh.num_edges, 2, 2))
    with pytest.raises(SolveError, match="symmetric"):
        solver(mesh, elements, local, np.zeros(mesh.num_vertices), {0: 1.0, 1: 0.0})


@pytest.mark.parametrize("stack", ["empty", "2-D local", "short local", "wide local"])
@pytest.mark.parametrize("solver", ["condensed", "dirichlet"])
def test_misshapen_element_stacks_are_usage_errors(solver, stack):
    mesh = build_level("sierpinski", 2)
    elements, local = _elements(mesh, "fd")
    elements, local = {
        "empty": (elements[:0], local[:0]),
        "2-D local": (elements, local[0]),
        "short local": (elements, local[:-1]),
        "wide local": (elements, np.ones((mesh.num_edges, 3, 3))),
    }[stack]
    h = {0: 1.0, 1: 0.0, 2: 0.0}
    with pytest.raises(UsageError, match=r"\(k, p, p\)"):
        SOLVERS[solver](mesh, elements, local, np.ones(mesh.num_vertices), h)


def test_condensation_rejects_empty_interior():
    mesh = build_level("sierpinski", 0)
    elements, local = _elements(mesh, "fd")
    with pytest.raises(SolveError, match="empty interior"):
        solve_condensed(mesh, elements, local, np.zeros(3), {0: 1.0, 1: 0.0, 2: 0.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solver", ["condensed", "dirichlet"])
def test_non_finite_load_is_a_usage_error(solver, bad):
    mesh = build_level("sierpinski", 2)
    load = np.ones(mesh.num_vertices)
    load[mesh.interior_indices[0]] = bad
    h = {0: 1.0, 1: 0.0, 2: 0.0}
    with pytest.raises(UsageError, match="load must be finite"):
        SOLVERS[solver](mesh, *_elements(mesh, "fd"), load, h)


# -- one block per depth --------------------------------------------------------

# sha256 of solve_condensed(...).values.tobytes() and the solver residual, for
# the load of g = 1 + x*y and zero boundary data (or 1, -0.5, 0.25).  First
# recorded while every copy was factored on its own; the fem entries were
# re-recorded when a built level took one element per level
# (``measures._elements``), and every entry when the Schur diagonal came from
# the carried row sums (``_Condensation``) and the loads from mass elements
# (``measures._masses``).  Every entry was re-recorded once more when each
# depth kept one inverse and both passes became matrix products; the values
# moved by at most 1.6e-15 relative.
DEEP_CONDENSATION_DIGESTS = {
    ("sierpinski", 9, "fd", False): (
        "d753e524df189b83f8d0abccb1b48790ecce01aecb199d45886502f00ec7bda9", 2.848523639187306e-10),
    ("sierpinski", 9, "fem_area", False): (
        "5e2f61c41df8879aa5ae6d246fc51c3bf70f10ab56dab01e1d514432f14871ae", 4.468598546205314e-16),
    ("koch", 8, "fem_edge", False): (
        "e300cdd2a6a81211ea625d11491ce569f8a33584ae7fa0520a121ebaa5f19824", 7.722045352871569e-11),
    ("hata2d", 6, "fd", False): (
        "8d4d38a5dd06c55da650c0eea96c91e9a73b22f9d3dc5a35e9ec0ee7c90d104d", 1.460748189074934e-09),
    ("hata3d", 6, "fem_edge", False): (
        "8f965683a95f1f86ba5b09c8439326366b4d1f21d2fc5a70be23a5de79801047", 1.2075816041567933e-11),
    ("sierpinski", 10, "fd", True): (
        "3b71f141bde2edff1566bdf5f65cb043b213c9a772c7a297946fb143208ec447", 1.9159545061597782e-09),
}


@pytest.mark.parametrize("family, level, formulation, boundary", list(DEEP_CONDENSATION_DIGESTS))
def test_deep_condensation_is_bit_identical(family, level, formulation, boundary):
    mesh = build_level(family, level)
    load = _load(mesh, formulation, 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1])
    if formulation == "fem_edge":  # recorded with the whole edge-length load
        load = 2.0 * load
    data = [1.0, -0.5, 0.25] if boundary else [0.0, 0.0, 0.0]
    h = {int(i): v for i, v in zip(mesh.boundary_indices, data)}
    solution = solve_condensed(mesh, *_elements(mesh, formulation), load, h)
    digest, residual = DEEP_CONDENSATION_DIGESTS[family, level, formulation, boundary]
    assert hashlib.sha256(solution.values.tobytes()).hexdigest() == digest
    assert solution.solver_residual == residual


def _one_element_cases():
    for family in FAMILIES:
        for formulation in ("fd", "graph_energy", "fem_edge"):
            yield family, formulation
    yield "sierpinski", "fem_area"


@pytest.mark.parametrize("family, formulation", list(_one_element_cases()))
def test_unit_edge_elements_give_one_block_per_depth(family, formulation):
    mesh = build_level(family, 6)
    elements, local = _elements(mesh, formulation)
    assert local.strides[0] == 0  # one element per level, broadcast
    # scaled by constant**n as solve_online does: the stack stays broadcast
    scaled = _renormalized(local, 5.0, 6)
    assert scaled.strides[0] == 0
    # a full array of the same elements gives the bits of the broadcast stack
    full = np.array(scaled)
    load = _load(mesh, formulation, 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1])
    h = {int(i): v for i, v in zip(mesh.boundary_indices, [1.0, -0.5, 0.25])}
    one, dense = (solve_condensed(mesh, elements, s, load, h) for s in (scaled, full))
    assert dense.values.tobytes() == one.values.tobytes()
    assert dense.solver_residual == one.solver_residual


# -- the harmonic extension rule: an exact oracle for zero loads -------------

def _exact_solve(a, rhs):
    """``a^-1 rhs`` for a nonsingular square matrix ``a`` of rationals and the
    rows ``rhs``, by Gauss-Jordan elimination on ``[a | rhs]`` in exact
    arithmetic, as an object array of ``Fraction``."""
    n = len(a)
    rows = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[c])]
    return np.array([row[n:] for row in rows], dtype=object)


def _harmonic_extension_matrix(family):
    """``H = -L_II^-1 L_IB`` of the level-1 graph Laplacian ``L`` of a family,
    in exact rationals (``_exact_solve``): row ``t`` gives the harmonic value
    at level-1 vertex ``nb + t`` from the values at the ``nb`` seed vertices."""
    seed, glue, _ = _structure(family)
    nb, nv1 = glue.shape[1], int(glue.max()) + 1
    lap = np.full((nv1, nv1), Fraction(0), dtype=object)
    for a, b in glue[:, seed.edges].reshape(-1, 2).tolist():
        lap[[a, b], [a, b]] += 1
        lap[[a, b], [b, a]] -= 1
    return _exact_solve(lap[nb:, nb:], -lap[nb:, :nb]).tolist()


def _v1_tables(leaves, glue):
    """The level-1 vertices of every copy of a built level with the copy
    table ``leaves`` and the gluing table ``glue``, one table per depth from
    the leaves up: read off the leaves and glued up one depth at a time, not
    laid out by ``geometry._layout``."""
    (m, nb), nv1 = glue.shape, int(glue.max()) + 1
    ids, tables = leaves, []
    while len(ids) > 1:
        v1 = np.empty((len(ids) // m, nv1), dtype=np.int64)
        v1[:, glue.ravel()] = ids.reshape(len(v1), m * nb)
        tables.append(v1)
        ids = v1[:, :nb]
    return tables


def _words(mesh):
    """``_v1_tables`` of a built level: the level-1 vertices of every word of maps."""
    return _v1_tables(_copy_table(mesh), _structure(mesh.family)[1])


def _harmonic_extension(mesh, boundary_values):
    """The harmonic function of a built level with the given values on its
    boundary, extended one copy at a time from the root down: the level-1
    vertices of every word of maps (``_words``) take ``H``
    (``_harmonic_extension_matrix``) times the values at the word's seed
    vertices."""
    nb = mesh.boundary_indices.size
    h = np.array(_harmonic_extension_matrix(mesh.family), dtype=np.float64)
    u = np.full(mesh.num_vertices, np.nan)
    u[mesh.boundary_indices] = boundary_values
    for v1 in _words(mesh)[::-1]:
        u[v1[:, nb:]] = u[v1[:, :nb]] @ h.T
    return u


def test_sierpinski_harmonic_extension_is_the_one_fifth_two_fifths_rule():
    # each new vertex takes 2/5 of its two nearest seed vertices and 1/5 of
    # the opposite one
    h = _harmonic_extension_matrix("sierpinski")
    assert sorted(map(sorted, h)) == [[Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]] * 3


# Every built-in formulation takes one element per level, a multiple of the
# unit edge element on each edge (fem_area: on each side of its equilateral
# cell), so all of them have the harmonic functions of the graph Laplacian.  Measured: at most
# 1.3e-15 relative at the tier-1 levels and 2.0e-15 at the deep ones; with
# the Schur diagonal formed by subtraction, 8.4e-11 to 1.7e-7 at tier-1.
_EXTENSION_LEVELS = {"sierpinski": (10, 14), "koch": (9, 11), "hata2d": (7, 9), "hata3d": (6, 8)}


@pytest.mark.parametrize("family, formulation, level", [
    *((family, form, _EXTENSION_LEVELS[family][0]) for family, form in _one_element_cases()),
    *(pytest.param(family, form, _EXTENSION_LEVELS[family][1], marks=pytest.mark.deep)
      for family, form in _one_element_cases()),
])
def test_harmonic_solution_is_the_harmonic_extension(family, formulation, level):
    mesh = build_level(family, level)
    data = np.random.default_rng(level).normal(size=mesh.boundary_indices.size)
    h = dict(zip(mesh.boundary_indices.tolist(), data.tolist()))
    load = np.zeros(mesh.num_vertices)
    u = solve_condensed(mesh, *_elements(mesh, formulation), load, h).values
    expected = _harmonic_extension(mesh, data)
    assert np.isfinite(expected).all()  # every vertex lies in some word's level-1 set
    assert np.abs(u - expected).max() <= 1e-14 * np.abs(expected).max()


# -- an exact rational reference for the condensed solve -------------------

def _exact_condensed(mesh, local, load, boundary_values):
    """The exact solution, in ``Fraction``, of the Dirichlet problem that
    ``solve_condensed`` solves on a built level whose leaves all carry the
    element matrix ``local[0]``: the same condensation in exact arithmetic,
    from the leaf block summed exactly and the float data read exactly.  Each
    depth's block is eliminated by ``_exact_solve``, and each copy's
    vertices are read off the leaves (``_words``)."""
    seed, glue, _ = _structure(mesh.family)
    nb, nv1 = glue.shape[1], int(glue.max()) + 1
    pos = geometry._element_rows(seed, local.shape[1])
    exact = np.vectorize(Fraction, otypes=[object])
    schur = np.full((nb, nb), Fraction(0), dtype=object)
    for rows in pos:
        schur[np.ix_(rows, rows)] += exact(local[0])
    f, words, depths = exact(load), _words(mesh), []
    up = np.full((len(_copy_table(mesh)), nb), Fraction(0), dtype=object)
    for v1 in words:
        a = np.full((nv1, nv1), Fraction(0), dtype=object)
        fv = np.full((len(v1), nv1), Fraction(0), dtype=object)
        for i, g in enumerate(glue):
            a[np.ix_(g, g)] += schur
            fv[:, g] += up[i::len(glue)]
        inv_ii, x_ib = np.hsplit(_exact_solve(a[nb:, nb:], np.hstack(
            [np.eye(nv1 - nb, dtype=int), a[nb:, :nb]])), [nv1 - nb])
        schur = a[:nb, :nb] - a[:nb, nb:] @ x_ib
        f_i = fv[:, nb:] + f[v1[:, nb:]]
        up = fv[:, :nb] - f_i @ x_ib
        depths.append((inv_ii, x_ib, f_i))
    u = np.full(mesh.num_vertices, None, dtype=object)
    u[mesh.boundary_indices] = exact(np.array(boundary_values))
    for v1, (inv_ii, x_ib, f_i) in zip(words[::-1], depths[::-1]):
        u[v1[:, nb:]] = f_i @ inv_ii.T - u[v1[:, :nb]] @ x_ib.T
    return u


# Measured: at most 4.1 eps at the tier-1 levels and 6.5 eps at the deep
# ones; with the Schur diagonal formed by subtraction, 136 to 24,700 eps at tier-1.
_EXACT_LEVELS = {"sierpinski": (5, 7), "koch": (5, 7), "hata2d": (4, 6), "hata3d": (4, 5)}


@pytest.mark.parametrize("family, formulation, level", [
    *((family, form, _EXACT_LEVELS[family][0]) for family, form in _one_element_cases()),
    *(pytest.param(family, form, _EXACT_LEVELS[family][1], marks=pytest.mark.deep)
      for family, form in _one_element_cases()),
])
def test_condensed_solve_is_within_a_few_eps_of_the_exact_solution(family, formulation, level):
    # nonnegative data: the solution is positive inside, and each entry is
    # compared with its own exact value
    mesh = build_level(family, level)
    elements, local = _elements(mesh, formulation)
    rng = np.random.default_rng(level)
    load = _load(mesh, formulation, rng.uniform(size=mesh.num_vertices))
    data = rng.uniform(size=mesh.boundary_indices.size)
    h = dict(zip(mesh.boundary_indices.tolist(), data.tolist()))
    u = solve_condensed(mesh, elements, local, load, h).values
    exact = _exact_condensed(mesh, local, load, data)
    error = np.array([abs(Fraction(a) - b) / b for a, b in zip(u.tolist(), exact)], dtype=float)
    assert error.max() <= 2 * level * np.finfo(float).eps


def test_solve_factors_nothing(monkeypatch):
    # one inverse per depth is formed on construction; solve only multiplies
    mesh = build_level("sierpinski", 5)
    elements, local = _elements(mesh, "fd")
    calls = []
    for name in ("solve", "inv"):
        def counted(*args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cond = _Condensation(mesh, elements, local)
    assert len(calls) == mesh.level
    calls.clear()
    b = np.ones(mesh.num_vertices)  # whole-length; its boundary entries are not read
    cond.solve(cond.solve(b))
    assert calls == []


# The interior-length apply and solve that the whole-length methods
# replaced, kept here as the reference for their bits: a zero vector with
# the interior scattered in, each depth's V1 table built whole, and every
# product taken over all copies of a depth at once.
def _interior_apply(cond, interior, x):
    u = np.zeros(interior.size)
    u[interior] = x
    return cond.product(u)[interior]


def _interior_solve(cond, interior, b):
    f = np.zeros(interior.size)
    f[interior] = b
    nb = cond.leaves.shape[1]
    tables = _v1_tables(cond.leaves, cond.glue)
    up, loads = np.broadcast_to(0.0, cond.leaves.shape), []
    for v1, (_, x_ib) in zip(tables, cond.depths):
        children, fv = up.reshape(v1.shape[0], -1, nb), np.zeros(v1.shape)
        for i, g in enumerate(cond.glue):
            fv[:, g] += children[:, i]
        f_i = fv[:, nb:] + f[v1[:, nb:]]
        up = fv[:, :nb] - f_i @ x_ib
        loads.append(f_i)
    u = np.zeros(f.size)
    for v1, (inv_ii, x_ib), f_i in zip(tables[::-1], cond.depths[::-1], loads[::-1]):
        u_i = f_i @ inv_ii.T
        u_i -= u[v1[:, :nb]] @ x_ib.T
        u[v1[:, nb:]] = u_i
    return u[interior]


@pytest.mark.parametrize("family, formulation, level", [
    (family, formulation, level) for family, formulation in _one_element_cases()
    for level in range(1, 7)
])
def test_whole_length_vectors_keep_the_interior_bits(family, formulation, level):
    mesh = build_level(family, level)
    elements, local = _elements(mesh, formulation)
    cond = _Condensation(mesh, elements, local)
    nb = mesh.boundary_indices.size
    for v1, (first, new) in zip(_words(mesh), geometry._copy_starts(family, level, upward=True)):
        assert np.array_equal(first[:, None] + new, v1[:, nb:])
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.boundary_indices] = False
    bidx = mesh.boundary_indices
    rng = np.random.default_rng(level)
    b = rng.normal(size=mesh.num_vertices)
    b[bidx] = np.nan  # never read
    x = rng.normal(size=mesh.num_vertices)
    x[bidx] = 0.0
    expected = _interior_solve(cond, interior, b[interior])
    # blocks of one to three rows (two at least, see geometry._blocks) cross
    # the seams between blocks on every depth of more than a few copies
    for rows in (1, 2, 3, geometry._SCAN_ROWS):
        with mock.patch.object(geometry, "_SCAN_ROWS", rows):
            got = cond.solve(b)
        assert got[interior].tobytes() == expected.tobytes(), rows
        assert got[bidx].tobytes() == bytes(got.itemsize * bidx.size)  # +0.0
    got = cond.apply(x)
    assert got[interior].tobytes() == _interior_apply(cond, interior, x[interior]).tobytes()
    assert got[bidx].tobytes() == bytes(got.itemsize * bidx.size)


class _Recorder:
    """An ``x_ib`` for ``_extend`` whose product with each block's V0 values
    records them and is zero."""

    __array_ufunc__ = None  # so ``v0 @ x_ib.T`` calls __rmatmul__

    def __init__(self, width):
        self.width, self.v0 = width, []

    @property
    def T(self):
        return self

    def __rmatmul__(self, v0):
        self.v0.append(v0.copy())
        return np.zeros((len(v0), self.width))


@pytest.mark.parametrize("family, level", [
    (family, level) for family in FAMILIES for level in range(1, 7)
])
def test_the_walk_places_every_copy_where_the_leaves_put_it(family, level):
    # the way down, in blocks of three rows that cross the seams, takes each
    # copy's new vertices at the new columns of the V1 tables read off the
    # leaves, and carries to each copy the values at their V0 columns (zero
    # on the boundary)
    mesh = build_level(family, level)
    glue = _structure(family)[1]
    nb, tables = glue.shape[1], _words(mesh)[::-1]
    values = np.arange(mesh.num_vertices, dtype=float)
    values[mesh.boundary_indices] = 0.0
    seen = [[] for _ in tables]

    def interior(rows, d):
        seen[d].append(rows)
        return values[rows]

    probes = [_Recorder(glue.max() + 1 - nb) for _ in tables]
    depths = [(lambda rows, d=d: interior(rows, d), probe) for d, probe in enumerate(probes)]
    with mock.patch.object(geometry, "_SCAN_ROWS", 3):
        out = _extend(values.copy(), glue, geometry._copy_starts(family, level), depths)
    assert out.tobytes() == values.tobytes()
    for d, v1 in enumerate(tables):
        assert np.array_equal(np.concatenate(seen[d]), v1[:, nb:]), d
        assert np.array_equal(np.concatenate(probes[d].v0), values[v1[:, :nb]]), d
    # level n - 1's walk, placed at level n: the map embed searches for
    coarse = build_level(family, level - 1)
    index_map = np.full(coarse.num_vertices, -1)
    for (cf, cn), (ff, fn) in zip(geometry._copy_starts(family, level - 1),
                                  geometry._copy_starts(family, level)):
        index_map[cf[:, None] + cn] = ff[:, None] + fn
    inside = coarse.interior_indices
    assert index_map[inside].tolist() == embed(coarse, mesh).index_map[inside].tolist()


@pytest.mark.parametrize("family, level", [
    (family, level) for family in FAMILIES for level in range(1, 7)
])
def test_corner_reader_reads_every_depth_and_the_table_embedding(family, level):
    # the corner reader of the two-level renorm reference (test_renorm), read
    # in blocks of three rows that cross the seams, gives the V0 columns of
    # the V1 tables at every height above the leaves, and at height 1 the
    # map that embed searches for
    mesh = build_level(family, level)
    leaves, nb = _copy_table(mesh), mesh.boundary_indices.size
    for height, v0 in enumerate([leaves, *(v1[:, :nb] for v1 in _words(mesh))]):
        read = _corner_reader(leaves, family, height)
        with mock.patch.object(geometry, "_SCAN_ROWS", 3):
            got = np.concatenate([read(b) for b in geometry._blocks(len(v0))])
        assert np.array_equal(got, v0), height
    coarse = build_level(family, level - 1)
    table = _copy_table(coarse)
    index_map = np.full(coarse.num_vertices, -1)
    index_map[table] = _corner_reader(leaves, family, 1)(slice(0, len(table)))
    assert index_map.tolist() == embed(coarse, mesh).index_map.tolist()


@pytest.mark.parametrize("level", [2, 3, 5])
def test_condensation_norm_is_exact_with_a_negative_diagonal(level):
    # a symmetric cell element whose diagonal has both signs: where two
    # leaves meet, their diagonal entries cancel in A_ii, so one pass of
    # |block| over the leaves would overstate those rows
    mesh = build_level("sierpinski", level)
    element = np.array([[-3.0, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 1.5]])
    local = np.broadcast_to(element, (mesh.num_cells, 3, 3))
    cond = _Condensation(mesh, mesh.cells, local)
    a = _assemble_elements(mesh.num_vertices, mesh.cells, local)
    a_ii = partition(a, mesh.boundary_indices)[0]
    assembled = abs(a_ii).sum(axis=1).max()
    assert abs(cond.norm() - assembled) <= 1e-14 * assembled
    interior = np.ones(mesh.num_vertices)
    interior[mesh.boundary_indices] = 0.0
    one_pass = _apply_elements(mesh.cells, abs(element), interior)[interior > 0].max()
    assert one_pass > 1.5 * assembled


@pytest.mark.parametrize("broadcast", [True, False])
def test_condensation_refuses_a_singular_block(broadcast):
    """All-zero elements: every copy has the same singular block, factored once."""
    mesh = build_level("sierpinski", 4)
    zero = np.zeros((mesh.num_edges, 2, 2))
    local = np.broadcast_to(zero[0], zero.shape) if broadcast else zero
    h = {int(i): 1.0 for i in mesh.boundary_indices}
    with pytest.raises(SolveError, match="^singular interior block$"):
        solve_condensed(mesh, mesh.edges, local, np.ones(mesh.num_vertices), h)


@pytest.mark.parametrize("load, data", [(1e308, (0.0, 0.0, 0.0)), (1.0, (1e308, -1e308, 0.0))],
                         ids=["load", "boundary"])
@pytest.mark.parametrize("solver", ["condensed", "dirichlet"])
def test_overflowing_data_is_a_solve_error(solver, load, data):
    # no block is singular: the rfd operator of Sierpinski 3 with data near
    # the largest double overflows on the way, and the suite turns numpy's
    # overflow warnings into errors
    mesh = build_level("sierpinski", 3)
    elements, local = _elements(mesh, "fd")
    h = dict(zip(mesh.boundary_indices.tolist(), data))
    with pytest.raises(SolveError, match="^the data overflow double precision$"):
        SOLVERS[solver](mesh, elements, _renormalized(local, 5.0, mesh.level),
                        np.full(mesh.num_vertices, load), h)
