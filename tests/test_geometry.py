"""Mesh construction tests: map evaluation, counts, nesting, ordering."""

import copy
import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest

from fraclap import geometry
from fraclap.errors import GeometryError, UsageError
from fraclap.geometry import (
    FAMILIES,
    MAX_VERTICES,
    RELATIVE_TOLERANCE,
    AffineMap,
    IFSystem,
    LevelMesh,
    _table_embedding,
    apply_map,
    build_level,
    builtin_system,
    check_level,
    embed,
    iterate,
    predicted_vertices,
)

SQRT3 = np.sqrt(3.0)


# -- apply_map ---------------------------------------------------------------

def test_sierpinski_map_halves_toward_corner():
    ifs = builtin_system("sierpinski")
    np.testing.assert_allclose(apply_map(ifs.maps[0], [1.0, 0.0]), [0.5, 0.0])


def test_corner_is_fixed_point_of_its_map():
    ifs = builtin_system("sierpinski")
    np.testing.assert_allclose(apply_map(ifs.maps[1], [1.0, 0.0]), [1.0, 0.0])


def test_hata_branch_map_value():
    # (1/3, 0) + (1/3) rot(60 deg) (1, 0) = (1/2, sqrt(3)/6)
    ifs = builtin_system("hata2d")
    np.testing.assert_allclose(
        apply_map(ifs.maps[1], [1.0, 0.0]), [0.5, SQRT3 / 6], atol=1e-15
    )


def test_apply_map_dimension_mismatch():
    ifs = builtin_system("sierpinski")
    with pytest.raises(UsageError):
        apply_map(ifs.maps[0], [1.0, 0.0, 0.0])


def test_affine_map_must_contract():
    with pytest.raises(UsageError):
        AffineMap(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("linear, translation, message", [
    (np.ones((2, 3)) / 10, np.zeros(2), "square matrix"),
    (np.eye(2) / 2, np.zeros(3), "translation dimension"),
    (np.eye(2) / 2, np.array([np.nan, 0.0]), "entries must be finite"),
], ids=["not-square", "translation-dimension", "nan-translation"])
def test_affine_map_refuses_malformed_parts(linear, translation, message):
    with pytest.raises(UsageError, match=message):
        AffineMap(linear, translation)


_P, _Q = np.zeros(2), np.array([1.0, 0.0])
_HALF = AffineMap(np.eye(2) / 2, np.zeros(2))
_SEGMENT_SEED = dict(family="custom", level=0, vertices=[_P, _Q], edges=[[0, 1]], cells=[],
                     boundary_indices=[0, 1])


@pytest.mark.parametrize("maps, seed, message", [
    ((), {}, "at least one contraction map"),
    ((_HALF, AffineMap(np.eye(3) / 2, np.zeros(3))), {}, "map 1 has dimension 3, the seed 2"),
    ((_HALF, AffineMap(np.diag([0.5, 0.0]), _Q / 2)), {}, "map 1 has a singular linear part"),
    ((_HALF,), {"level": 1}, "level-0 mesh"),
    ((_HALF,), {"boundary_indices": []}, "boundary indices must be 0, 1"),
    ((_HALF,), {"boundary_indices": [1, 0]}, "boundary indices must be 0, 1"),
    ((_HALF,), {"vertices": [_P, _Q / 2, _Q], "edges": [[0, 1], [1, 2]],
                "boundary_indices": [0, 2]}, "boundary indices must be 0, 1"),
    ((_HALF,), {"edges": []}, "at least one edge"),
    ((_HALF,), {"vertices": np.eye(3)[:2]}, "map 0 has dimension 2, the seed 3"),
    ((_HALF,), {"vertices": [_P, _Q / 2, _Q], "edges": [[0, 2]]}, "must lie on a seed edge"),
    ((_HALF,), {"vertices": [_P, _P, _Q], "edges": [[0, 2], [1, 2]]},
     "within the seed's dedup tolerance"),
    # 4e-10 apart, against a tolerance of 1e-9 times the shortest edge (about 0.5)
    ((_HALF,), {"vertices": [_P, _Q, _Q / 2, _Q / 2 + [4e-10, 0.0]], "edges": [[0, 2], [3, 1]]},
     "within the seed's dedup tolerance"),
], ids=["no-maps", "mixed-dimensions", "singular-map", "seed-at-level-1", "no-boundary-points",
        "boundary-out-of-seed-order", "boundary-not-first", "no-seed-edge", "3-d-endpoints",
        "boundary-point-off-the-seed", "repeated-boundary-point", "near-coincident-seed-vertices"])
def test_ifs_refuses_malformed_parts(maps, seed, message):
    assert IFSystem((_HALF,), LevelMesh(**_SEGMENT_SEED)).dimension == 2
    with pytest.raises(UsageError, match=message):
        IFSystem(maps, LevelMesh(**{**_SEGMENT_SEED, **seed}))


# -- builtin families --------------------------------------------------------

def test_builtin_sierpinski_shape():
    ifs = builtin_system("sierpinski")
    assert len(ifs.maps) == 3
    assert ifs.seed.family == "sierpinski" and ifs.seed.level == 0
    assert ifs.seed.edges.tolist() == [[0, 1], [1, 2], [2, 0]]
    assert ifs.seed.cells.tolist() == [[0, 1, 2]]
    assert ifs.seed.boundary_indices.tolist() == [0, 1, 2]
    np.testing.assert_allclose(ifs.seed.vertices, [[0, 0], [1, 0], [0.5, SQRT3 / 2]])


def test_builtin_hata2d_shape():
    ifs = builtin_system("hata2d")
    assert len(ifs.maps) == 5
    assert ifs.seed.edges.tolist() == [[0, 1]] and ifs.seed.num_cells == 0
    np.testing.assert_allclose(ifs.seed.vertices[:2], [[0, 0], [1, 0]])


def test_builtin_hata3d_shape():
    ifs = builtin_system("hata3d")
    assert len(ifs.maps) == 6
    assert ifs.dimension == 3
    np.testing.assert_allclose(ifs.seed.vertices, [[0, 0, 0], [0, 0, 1]])


def test_builtin_koch_shape():
    ifs = builtin_system("koch")
    assert len(ifs.maps) == 4 and ifs.seed.num_cells == 0
    assert ifs.seed.edges.tolist() == [[0, 1]] and ifs.seed.boundary_indices.tolist() == [0, 1]


def test_builtin_unknown_family():
    with pytest.raises(UsageError):
        builtin_system("menger")


@pytest.mark.parametrize("family", FAMILIES)
def test_builtin_system_is_built_once(family):
    assert builtin_system(family) is builtin_system(family)
    assert iterate(builtin_system(family), 0) is builtin_system(family).seed


# -- iterate: counts ----------------------------------------------------------

def test_sierpinski_level1_counts():
    m = build_level("sierpinski", 1)
    assert (m.num_vertices, m.num_edges, m.num_cells) == (6, 9, 3)
    assert m.boundary_indices.tolist() == [0, 1, 2]


@pytest.mark.parametrize("n", range(5))
def test_sierpinski_count_formulas(n):
    m = build_level("sierpinski", n)
    assert m.num_vertices == (3 ** (n + 1) + 3) // 2
    assert m.num_edges == 3 ** (n + 1)
    assert m.num_cells == 3**n


@pytest.mark.parametrize("n", range(4))
def test_koch_count_formulas(n):
    m = build_level("koch", n)
    assert m.num_edges == 4**n
    assert m.num_vertices == 4**n + 1


def test_hata2d_level1_counts():
    m = build_level("hata2d", 1)
    assert (m.num_vertices, m.num_edges) == (6, 5)


@pytest.mark.parametrize("family", ["hata2d", "hata3d"])
@pytest.mark.parametrize("n", range(5))
def test_hata_families_are_trees(family, n):
    m = build_level(family, n)
    assert m.num_vertices == m.num_edges + 1


def brute_force_level(family, n):
    """Independent construction: recursively expand segments, then merge
    endpoint coordinates pairwise."""
    ifs = builtin_system(family)
    segments = [(ifs.seed.vertices[i], ifs.seed.vertices[j]) for i, j in ifs.seed.edges]
    for _ in range(n):
        segments = [
            (m.linear @ p + m.translation, m.linear @ q + m.translation)
            for m in ifs.maps
            for p, q in segments
        ]
    tol = 1e-9 * min(np.linalg.norm(p - q) for p, q in segments)
    points = []

    def locate(x):
        for k, y in enumerate(points):
            if np.linalg.norm(x - y) <= tol:
                return k
        points.append(x)
        return len(points) - 1

    edges = set()
    for p, q in segments:
        i, j = locate(p), locate(q)
        edges.add((min(i, j), max(i, j)))
    return np.array(points), edges


@pytest.mark.parametrize("family,n", [("sierpinski", 3), ("koch", 2), ("hata2d", 2)])
def test_iterate_against_brute_force(family, n):
    m = build_level(family, n)
    points, edges = brute_force_level(family, n)
    assert m.num_vertices == points.shape[0]
    assert m.num_edges == len(edges)
    # same vertex sets up to reordering
    key = np.lexsort(points.T)
    ref = points[key]
    got = m.vertices[np.lexsort(m.vertices.T)]
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_iterate_rejects_negative_level():
    with pytest.raises(UsageError):
        iterate(builtin_system("koch"), -1)


@pytest.mark.parametrize("call", [
    lambda: iterate(builtin_system("koch"), 2.7),
    lambda: build_level("koch", 1.5),
    lambda: build_level("koch", "2"),
    lambda: check_level("koch", 2.0),
    lambda: predicted_vertices("koch", 2.7),
    lambda: build_level("koch", True),
], ids=["iterate-2.7", "build-1.5", "build-string", "check-2.0", "predicted-2.7", "build-true"])
def test_a_level_must_be_an_integer(call):
    # numpy integers are levels; 2.7 is not truncated to 2, 1.5 is not
    # reported as negative, "2" raises no TypeError, and True is not level 1
    # even with level 1 cached
    assert build_level("koch", np.int64(2)).num_vertices == 17
    assert iterate(builtin_system("koch"), np.int32(2)).num_vertices == 17
    with pytest.raises(UsageError, match="level must be an integer"):
        call()


# -- determinism and self-similarity ------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_iterate_is_deterministic(family):
    ifs = builtin_system(family)
    a = iterate(ifs, 3)
    b = iterate(ifs, 3)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.cells, b.cells)


@pytest.mark.parametrize("n", range(5))
def test_count_self_similarity(n):
    assert build_level("sierpinski", n + 1).num_cells == 3 * build_level(
        "sierpinski", n
    ).num_cells
    assert build_level("koch", n + 1).num_edges == 4 * build_level("koch", n).num_edges
    assert build_level("hata2d", n + 1).num_edges == 5 * build_level(
        "hata2d", n
    ).num_edges


# -- geometric structure -------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(4))
def test_vertex_nesting(family, n):
    coarse = build_level(family, n)
    fine = build_level(family, n + 1)
    emb = embed(coarse, fine)
    np.testing.assert_allclose(
        fine.vertices[emb.index_map], coarse.vertices, atol=fine.dedup_tolerance
    )


@pytest.mark.parametrize(
    "family,base", [("sierpinski", 2.0), ("koch", 3.0), ("hata2d", 3.0)]
)
@pytest.mark.parametrize("n", range(4))
def test_edge_lengths(family, base, n):
    lengths = build_level(family, n).edge_lengths()
    np.testing.assert_allclose(lengths, base**-n, rtol=1e-12)


@pytest.mark.parametrize("family, n", [
    ("koch", 9), ("sierpinski", 10), ("hata2d", 8), ("hata3d", 7),
])
def test_lengths_have_the_bits_of_the_norm(family, n):
    # summed one axis at a time, in the order np.linalg.norm sums the row
    m = build_level(family, n)
    reference = np.linalg.norm(m.vertices[m.edges[:, 0]] - m.vertices[m.edges[:, 1]], axis=1)
    assert m.edge_lengths().tobytes() == reference.tobytes()


@pytest.mark.parametrize("points, length", [
    ([[0.0, 0.0], [1e200, 0.0]], 1e200),
    ([[0.0, 0.0, 0.0], [3 * 2.0**600, 0.0, -4 * 2.0**600]], 5 * 2.0**600),
    ([[-1e308, 0.0], [0.0, 0.0]], 1e308),
    ([[3 * 2.0**-600, 0.0], [0.0, 4 * 2.0**-600]], 5 * 2.0**-600),
], ids=["1e200", "3-4-5-times-2-to-the-600", "1e308", "3-4-5-times-2-to-the-minus-600"])
def test_lengths_of_points_whose_squares_are_not_doubles(points, length):
    # scaled by a power of two before squaring: no overflow (an error under
    # this suite's warning filter), no underflow to 0, and the exact length
    assert geometry._distances(np.array(points), [0], [1]).tolist() == [length]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(5))
def test_boundary_persistence(family, n):
    ifs = builtin_system(family)
    m = build_level(family, n)
    np.testing.assert_allclose(
        m.vertices[m.boundary_indices], ifs.seed.vertices[ifs.seed.boundary_indices],
        atol=m.dedup_tolerance,
    )


def test_vertex_ordering_boundary_first_then_discovery():
    m = build_level("sierpinski", 1)
    corners = builtin_system("sierpinski").seed.vertices
    np.testing.assert_allclose(m.vertices[:3], corners)
    np.testing.assert_allclose(m.vertices[3], (corners[0] + corners[1]) / 2)
    np.testing.assert_allclose(m.vertices[4], (corners[0] + corners[2]) / 2)
    np.testing.assert_allclose(m.vertices[5], (corners[1] + corners[2]) / 2)


# -- embed ---------------------------------------------------------------------

def test_embed_identity():
    m = build_level("sierpinski", 2)
    emb = embed(m, m)
    np.testing.assert_array_equal(emb.index_map, np.arange(m.num_vertices))


def test_embed_koch_levels_2_3():
    emb = embed(build_level("koch", 2), build_level("koch", 3))
    assert emb.index_map.size == 17
    assert np.unique(emb.index_map).size == 17


def test_embed_rejects_family_mismatch():
    with pytest.raises(GeometryError):
        embed(build_level("koch", 1), build_level("hata2d", 2))


def test_embed_rejects_level_gap():
    with pytest.raises(GeometryError):
        embed(build_level("koch", 1), build_level("koch", 3))


def test_embed_unmatched_vertices():
    m = build_level("koch", 1)
    fine = build_level("koch", 2)
    shifted = LevelMesh(
        family="koch",
        level=2,
        vertices=fine.vertices + 100.0,
        edges=fine.edges,
        cells=fine.cells,
        boundary_indices=fine.boundary_indices,
    )
    with pytest.raises(GeometryError):
        embed(m, shifted)


def _with_vertices_and_edges(mesh, vertices, edges):
    return LevelMesh(mesh.family, mesh.level, vertices, edges, mesh.cells,
                     mesh.boundary_indices)


@pytest.mark.parametrize("family", FAMILIES)
def test_embed_outside_the_copy_layout_matches_geometrically(family):
    coarse, fine = build_level(family, 3), build_level(family, 4)
    order = np.random.default_rng(9).permutation(fine.num_edges)
    permuted = _with_vertices_and_edges(fine, fine.vertices, fine.edges[order])
    # the nearest fine vertex to each coarse one, by brute force
    dist2 = ((coarse.vertices[:, None, :] - fine.vertices[None, :, :]) ** 2).sum(axis=2)
    idx = dist2.argmin(axis=1)
    assert (dist2[np.arange(coarse.num_vertices), idx] <= fine.dedup_tolerance**2).all()
    np.testing.assert_array_equal(embed(coarse, permuted).index_map, idx)
    np.testing.assert_array_equal(embed(coarse, fine).index_map, idx)


@pytest.mark.parametrize("family", FAMILIES)
def test_embed_rejects_a_shared_vertex_moved_by_twice_the_tolerance(family):
    coarse, fine = build_level(family, 3), build_level(family, 4)
    moved = fine.vertices.copy()
    # a coarse interior vertex shared by two fine copies
    shared = embed(coarse, fine).index_map[coarse.interior_indices[0]]
    moved[shared, 0] += 2 * fine.dedup_tolerance
    moved = _with_vertices_and_edges(fine, moved, fine.edges)
    with pytest.raises(GeometryError, match="no fine counterpart"):
        embed(coarse, moved)


# the refusal of a mesh that is not laid out as its built level (_copy_table)
_LAYOUT = "copy table needs .* as build_level builds it"


@pytest.mark.parametrize("family", FAMILIES)
def test_table_embedding_refuses_swapped_copy_table_rows(family):
    coarse, fine = build_level(family, 3), build_level(family, 4)
    key = "cells" if fine.num_cells else "edges"
    rows = getattr(fine, key).copy()
    rows[[0, -1]] = rows[[-1, 0]]  # the first and the last copy trade places
    with pytest.raises(GeometryError, match=_LAYOUT):
        _table_embedding(coarse, dataclasses.replace(fine, **{key: rows}))


def test_table_embedding_refuses_a_vertex_off_the_table_or_taken_twice():
    coarse, fine = build_level("sierpinski", 3), build_level("sierpinski", 4)
    extra = np.vstack([coarse.vertices, [[2.0, 2.0]]])  # on no cell
    with pytest.raises(GeometryError, match=_LAYOUT):
        _table_embedding(dataclasses.replace(coarse, vertices=extra), fine)
    cells = fine.cells.copy()
    # rows -1 and 2 are child 2 of the last and of the first coarse copy
    cells[-1] = cells[2]
    with pytest.raises(GeometryError, match=_LAYOUT):
        _table_embedding(coarse, dataclasses.replace(fine, cells=cells))


def test_table_embedding_maps_a_level_onto_the_next_only():
    coarse = build_level("koch", 2)
    for fine in (coarse, build_level("koch", 4), build_level("hata2d", 3)):
        with pytest.raises(GeometryError, match="onto the next of its family"):
            _table_embedding(coarse, fine)
    with pytest.raises(GeometryError, match=_LAYOUT):
        _table_embedding(coarse, dataclasses.replace(build_level("koch", 4), level=3))


def test_copy_table_passes_a_held_level_without_a_build(monkeypatch):
    mesh, seed = build_level("sierpinski", 3), build_level("sierpinski", 0)
    build_level("sierpinski", 2)  # the last level returned is not the mesh
    last = dict(geometry._LAST)
    monkeypatch.setattr(geometry, "build_level", None)  # a build would raise TypeError
    assert geometry._copy_table(mesh) is mesh.cells
    assert geometry._copy_table(seed) is seed.cells
    assert geometry._LAST == last
    # an equal mesh that the store does not hold is compared with a build
    with pytest.raises(TypeError):
        geometry._copy_table(dataclasses.replace(mesh))


@pytest.mark.parametrize("family", FAMILIES)
def test_embed_refuses_a_shared_vertex_in_the_dedup_gray_zone(family):
    # half a tolerance is within it, but not clearly: the build refuses such
    # a pair, and so does the embed
    coarse, fine = build_level(family, 3), build_level(family, 4)
    moved = fine.vertices.copy()
    shared = embed(coarse, fine).index_map[coarse.interior_indices[0]]
    moved[shared, 0] += 0.5 * fine.dedup_tolerance
    with pytest.raises(GeometryError, match="dedup ambiguity"):
        embed(coarse, _with_vertices_and_edges(fine, moved, fine.edges))


# -- dedup safety --------------------------------------------------------------

def test_dedup_ambiguity_is_reported():
    # the copies of x/2 and x/2 + (0.5 + 2.5e-10, 0) meet 2.5e-10 apart, in
    # the gray zone (tol/10, tol] of the level-1 tolerance 0.5 * 1e-9
    ifs = _halving_system(0.0, 0.5 + 2.5e-10)
    assert iterate(ifs, 0).num_vertices == 2
    with pytest.raises(GeometryError, match="ambiguity"):
        iterate(ifs, 1)


def _halving_system(*shifts):
    # maps x -> x/2 + (s, 0) on the unit segment
    maps = tuple(AffineMap(np.eye(2) / 2, np.array([s, 0.0])) for s in shifts)
    return IFSystem(maps, LevelMesh(**_SEGMENT_SEED))


def _sierpinski_with_a_repeated_map():
    ifs = builtin_system("sierpinski")
    return IFSystem((*ifs.maps, ifs.maps[0]), ifs.seed)


@pytest.mark.parametrize("system, level", [
    (lambda: _halving_system(0.0, 0.5, 0.5), 1),  # the same map twice
    (lambda: _halving_system(0.0, 0.5, 0.25), 2),  # overlapping maps
    (_sierpinski_with_a_repeated_map, 1),
], ids=["repeated map", "overlapping maps", "sierpinski repeated map"])
def test_copies_sharing_an_edge_are_refused(system, level):
    # the copies of a level are gathered without merging edges
    with pytest.raises(GeometryError, match="duplicate edge"):
        iterate(system(), level)


def test_a_boundary_point_must_be_reproduced():
    # x/2 alone maps the unit segment onto its first half: (1, 0) is on no level-1 edge
    with pytest.raises(GeometryError, match="not reproduced by the iteration"):
        iterate(_halving_system(0.0), 1)


def _scaled_system(family, scale):
    """The built-in system conjugated by ``x -> scale x``: the same linear
    parts, the translations and the seed's vertices times ``scale``."""
    ifs = builtin_system(family)
    return IFSystem(tuple(AffineMap(m.linear, scale * m.translation) for m in ifs.maps),
                    dataclasses.replace(ifs.seed, vertices=scale * ifs.seed.vertices))


@pytest.mark.parametrize("scale", [1e-13, 1e13])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_scaled_system_gives_the_built_in_mesh(family, scale):
    # tolerances follow the seed's scale: no absolute threshold refuses the
    # system or merges its vertices
    mesh = build_level(family, 3)
    got = iterate(_scaled_system(family, scale), 3)
    for name in ("edges", "cells", "boundary_indices"):
        np.testing.assert_array_equal(getattr(got, name), getattr(mesh, name))
    np.testing.assert_allclose(got.vertices, scale * mesh.vertices, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("family, scale, top", [
    *(pytest.param(family, scale, 6, id=f"{family}-{name}") for family in FAMILIES
      for scale, name in [(2.0**600, "2**600"), (2.0**-600, "2**-600")]),
    # tol**2 was inf here: pairs in the sweep window but far apart merged,
    # and level 8 lost 10 vertices with no error
    pytest.param("hata3d", 2.0**700, 8, id="hata3d-2**700", marks=pytest.mark.deep),
])
def test_a_system_scaled_by_a_power_of_two_gives_the_built_levels_exactly(family, scale, top):
    # a power of two scales every product and sum exactly, so every distance
    # check must decide as at scale 1: none may square a gap or a tolerance,
    # whose square overflows (an error under this suite's warning filter) or
    # underflows to zero
    prev = None
    for n in range(top + 1):
        got, mesh = iterate(_scaled_system(family, scale), n), build_level(family, n)
        for name in ("edges", "cells", "boundary_indices"):
            np.testing.assert_array_equal(getattr(got, name), getattr(mesh, name))
        assert np.array_equal(got.vertices, scale * mesh.vertices), n
        assert got.dedup_tolerance == scale * mesh.dedup_tolerance, n
        if prev is not None:
            np.testing.assert_array_equal(_table_embedding(prev[0], got).index_map,
                                          _table_embedding(prev[1], mesh).index_map)
        prev = got, mesh


def test_meshes_are_immutable():
    # every array of a glued level and of the seed is read-only, the empty
    # cells of a family without cells and the boundary a level shares with
    # the seed too, and none can be made writable again: each is a view of
    # a read-only owner, on which numpy refuses the write flag
    for family in FAMILIES:
        for m in (build_level(family, 2), builtin_system(family).seed):
            for name in ("vertices", "edges", "cells", "boundary_indices"):
                arr = getattr(m, name)
                assert not arr.flags.writeable, (family, m.level, name)
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
                with pytest.raises(ValueError):
                    arr[...] = 0


def test_mesh_rejects_duplicate_edge():
    with pytest.raises(GeometryError, match="duplicate edge"):
        LevelMesh("custom", 0, np.eye(3)[:, :2], [[0, 1], [1, 2], [1, 0]],
                  np.empty((0, 3)), [0])


def test_mesh_rejects_cell_side_without_edge():
    with pytest.raises(GeometryError, match="pairwise joined"):
        LevelMesh("custom", 0, np.eye(3)[:, :2], [[0, 1], [1, 2]], [[0, 1, 2]], [0])


def test_mesh_checks_hold_where_the_keys_pass_int32():
    # Sierpinski 10 has 88,575 vertices, so the keys a * n + b of its last
    # edges and cell sides pass 2**31: formed in int32 they would wrap.
    # Edge k is a side of the last cell, between two of the last vertices.
    mesh = build_level("sierpinski", 10)
    n, edges, cells, bidx = mesh.num_vertices, mesh.edges, mesh.cells, mesh.boundary_indices
    k = mesh.num_edges - 3
    assert n == 88_575 and int(edges[k].min()) * n > 2**31
    args = (mesh.family, mesh.level, mesh.vertices)
    assert LevelMesh(*args, edges, cells, bidx).num_edges == mesh.num_edges
    repeated = np.concatenate([edges, edges[k:k + 1, ::-1]])
    with pytest.raises(GeometryError, match="duplicate edge"):
        LevelMesh(*args, repeated, cells, bidx)
    with pytest.raises(GeometryError, match="not pairwise joined"):
        LevelMesh(*args, np.delete(edges, k, axis=0), cells, bidx)


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_blocks_cover_the_rows_with_no_one_row_block(rows):
    # numpy multiplies a one-row matrix by gemv, whose bits differ from
    # gemm's: only a single row is a block of one
    with mock.patch.object(geometry, "_SCAN_ROWS", rows):
        for n in range(13):
            blocks = list(geometry._blocks(n))
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            sizes = [b.stop - b.start for b in blocks]
            assert sizes == [1] if n == 1 else all(2 <= k <= max(rows, 2) + 1 for k in sizes)


@pytest.mark.parametrize("rows", [2, 3, 4])
@pytest.mark.parametrize("edges, cells, message", [
    ([[0, 1], [1, 2], [2, 3], [3, 3]], [], "self-loop edge"),
    ([[0, 1], [2, 3], [1, 2], [3, 2]], [], "duplicate edge"),
    ([[0, 1], [1, 2], [2, 0]], [[0, 1, 2], [0, 1, 3], [0, 1, 2], [0, 1, 2], [1, 1, 2]],
     "degenerate cell"),
    ([[0, 1], [1, 2], [2, 0]], [[0, 1, 2], [0, 1, 2], [0, 1, 3]], "not pairwise joined"),
], ids=["self-loop", "duplicate-edge", "degenerate-after-a-missing-side", "missing-side"])
def test_mesh_checks_cross_block_seams(rows, edges, cells, message):
    # every check goes block by block: a duplicate whose sorted keys straddle
    # a seam is found, and a degenerate cell is refused before an earlier
    # cell's missing side is looked up, as the unblocked checks did (a block
    # has two rows at least: five cells put the two in different blocks)
    with mock.patch.object(geometry, "_SCAN_ROWS", rows):
        with pytest.raises(GeometryError, match=message):
            LevelMesh("custom", 0, np.eye(4)[:, :3], edges, cells, [0])


_PATH_MESH = dict(family="path", level=0,
                  vertices=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                  edges=[[0, 1], [1, 2], [2, 3]], cells=[], boundary_indices=[0, 3])


@pytest.mark.parametrize("key, value, message", [
    ("edges", [[0, 1, 2], [1, 2, 3]], "edges must be integer rows"),
    ("edges", [0, 1, 1, 2, 2, 3], "edges must be integer rows"),
    ("edges", [[0.5, 1], [1, 2], [2, 3]], "edges must be integer rows"),
    ("cells", [[0, 1], [1, 2], [2, 3]], "cells must be integer rows"),
    ("boundary_indices", [[0], [3]], "boundary indices must be 1-D integers"),
    ("boundary_indices", [0.7, 3.2], "boundary indices must be 1-D integers"),
    ("level", 2.7, "level must be an integer"),
    ("level", "2", "level must be an integer"),
    ("level", None, "level must be an integer"),
    ("level", True, "level must be an integer"),
    ("level", -1, "level must be nonnegative"),
    ("family", None, "family must be a string"),
    ("family", 5, "family must be a string"),
    ("vertices", [[0.0], [1.0], [2.0], [3.0]], "vertices must be an"),
    ("vertices", [[0.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [3.0, 0.0]], "coordinates must be finite"),
    ("vertices", [["0", "0"], ["1", "0"], ["2", "0"], ["3", "0"]], "must be real numbers"),
    ("vertices", [["a", "b"]] * 4, "must be real numbers"),
    ("vertices", [[False, False], [True, False], [True, True], [False, True]],
     "must be real numbers"),
    ("vertices", np.arange(8).reshape(4, 2) + 0j, "must be real numbers"),
    ("vertices", np.arange(8.0).reshape(4, 2).astype(object), "must be real numbers"),
    ("edges", [[0, 1], [1, 2], [2, 4]], "edge index out of range"),
    ("edges", [[0, 1], [1, 2], [2, -1]], "edge index out of range"),
    ("edges", [[0, 1], [1, 2], [2**32 + 2, 3]], "edge index out of range"),
    ("edges", [[0, 1], [1, 2], [2, 2]], "self-loop edge"),
    ("boundary_indices", [0, 4], "boundary index out of range"),
    ("boundary_indices", [0, 2**32 + 3], "boundary index out of range"),
    ("cells", [[0, 1, 4]], "cell index out of range"),
    ("cells", [[0, 1, 1]], "degenerate cell"),
    ("vertices", [[0.0, 0.0], [1.0], [2.0, 0.0], [3.0, 0.0]], "vertices must be an"),
    ("vertices", 5.0, "vertices must be an"),
    ("edges", [[0, 1], [1], [2, 3]], "edges must be integer rows"),
    ("cells", [[0, 1, 2], [1, 2]], "cells must be integer rows"),
    ("boundary_indices", [[0], [3, 1]], "boundary indices must be 1-D integers"),
], ids=["edges-of-three", "flat-edges", "fractional-edge", "cells-of-two",
        "boundary-rows", "fractional-boundary",
        "fractional-level", "text-level", "no-level", "bool-level", "negative-level", "no-family",
        "numeric-family", "one-coordinate", "nan-coordinate", "numeric-text-vertices",
        "text-vertices", "bool-vertices", "complex-vertices", "object-vertices",
        "edge-past-the-vertices",
        "negative-edge", "edge-past-int32", "self-loop", "boundary-past-the-vertices",
        "boundary-past-int32", "cell-past-the-vertices", "degenerate-cell",
        "ragged-vertices", "scalar-vertices", "ragged-edges", "ragged-cells",
        "ragged-boundary"])
def test_mesh_refuses_malformed_arrays(key, value, message):
    # not reshaped, truncated or wrapped: edges [[0, 1, 2], [1, 2, 3]] are not
    # [[0, 1], [2, 1], [2, 3]], boundary [0.7, 3.2] is not [0, 3], and the
    # int32 indices do not read 2**32 + 2 as 2; level 2.7 is not level 2
    assert LevelMesh(**_PATH_MESH).num_edges == 3
    with pytest.raises(GeometryError, match=message):
        LevelMesh(**{**_PATH_MESH, key: value})


def test_mesh_derives_its_dedup_tolerance():
    # one rule for every mesh, built or not: none is passed in
    assert LevelMesh(**_PATH_MESH).dedup_tolerance == RELATIVE_TOLERANCE * 1.0
    assert LevelMesh(**{**_PATH_MESH, "edges": []}).dedup_tolerance == 0.0
    with pytest.raises(TypeError):
        LevelMesh(**_PATH_MESH, dedup_tolerance=1e-9)


@pytest.mark.parametrize("level", [np.int64(3), np.uint8(3), 3, 10**400],
                         ids=["int64", "uint8", "int", "ten-to-the-400"])
def test_mesh_stores_its_level_as_an_int(level):
    mesh = LevelMesh(**{**_PATH_MESH, "level": level})
    assert type(mesh.level) is int and mesh.level == level


# -- bit identity --------------------------------------------------------------

# sha256 of the float64 vertex array, then the edge and cell arrays as int64
# values (C order, native byte order), and of the ``embed(level n - 1, level
# n)`` index map as int64 values, recorded with the hash-table dedup the
# sort-based kernels replaced (Sierpinski 9 and 10, the levels the benchmark workloads embed,
# with the sort-based kernels and the copy-table embed).  Vertex order is
# part of the mesh contract.
MESH_DIGESTS = {
    ("koch", 0): "686b5a45db540fcf22ee4c4fd041895f1eab53224f786f5ac51e570197885f38",
    ("koch", 1): "0691c662fb19c8075548906af6f9e1a4fb30a3786785b7d4bc3f2871838dd07b",
    ("koch", 2): "190b862076196adbed43af68f9a068860594e2fc414f996fc054a2a408141d10",
    ("koch", 3): "765fed3b01b4a9b5f91ba06982012bf4e1d2908ccbb98da700d1fb6a4a3460d4",
    ("koch", 4): "aa75fe1eb13dfd9478042071d29c6ef3f8ad8590ccd8dad62fc09458baf0bed7",
    ("koch", 5): "058795c2a98749b35327a775a49374588efa3f5f1f6ea0c7ce788a55e7b33cac",
    ("koch", 6): "596fdc59ad646e78a13e906420351b8a07353c14c86f68176151b23d3a010e00",
    ("koch", 7): "bd4cf147dadf94453d0c907bff5ddc15f3aea69042d99052435f6aa4eac5f79c",
    ("koch", 8): "d9f27b2a6a54babdddc24bb8b50ddeb04a5bba11c2840c319a14cd49163acf56",
    ("sierpinski", 0): "e6afe42286cad264424c19a5d5a73c9837d629879b4c0ba90255611906b438a7",
    ("sierpinski", 1): "a484ee6ccab6effc138b9c7b13f08e9e46967a8f4a7a9ae3c392e099c34f711d",
    ("sierpinski", 2): "5ed31cc2538d3578051cb135ed78d6d02e9a57030a756c27d77b3eebd056650c",
    ("sierpinski", 3): "98d4f493379a72bf271a911dfef409b1dc4195772cfdb34cff3914003fa70e2b",
    ("sierpinski", 4): "09216a33b670c4bd8e07d9f1a7974492bdc22a163d4b5604251be8c290fa9f55",
    ("sierpinski", 5): "645ee0ef0768551878f833b5ede21fcbba687ccdc5e39904643b7047b157811f",
    ("sierpinski", 6): "e144e6e1472d6b78b3bf90b9a49cc422636c040db9dc38da4b4a379765426da2",
    ("sierpinski", 7): "7fca5d818db03f275d228cf698afa0c88aa25f1fe003cc6c4cbd283a116478f0",
    ("sierpinski", 8): "e2bf493e247e1700b859a6637720c10240a0e9446ef1339627dc3fa0b3950064",
    ("sierpinski", 9): "204f3ec499d40d4c632c0448601e7510b98f41f4eb83b7b5967e6d1f7b74e90e",
    ("sierpinski", 10): "83e9f10c64a25ac3bc028fad3bf1b348334ab3f5a9cca6915483ab65d3667780",
    ("hata2d", 0): "686b5a45db540fcf22ee4c4fd041895f1eab53224f786f5ac51e570197885f38",
    ("hata2d", 1): "81dec8a74cae439064eb5cf16ed8ef8cd23ec91e3479dff89f50b379bd190c47",
    ("hata2d", 2): "4fcb330c959f992e4be701cf6182652b95224e9a599ccbde2e85751204398d73",
    ("hata2d", 3): "bddbaeb4a489a256dff24922a8c7da814cdd076efdd1332f61c3eeb32ccf17e7",
    ("hata2d", 4): "c72fd130485ea1ff6f3a7ef3cc5ba3a31b6fe0b4d611bb24175e044b6c3c58e7",
    ("hata2d", 5): "c3f3c960d861c81a9c7c2566ffba8e207bf01d286e6a210aa8788c59fc1cb755",
    ("hata2d", 6): "2980889c2a433b96c05383d63bb7514695c301c21e41028c07fe5ceef1690d84",
    ("hata2d", 7): "55870a1b1e35d42de0409539cb2da253248588aa3858a2548bd3c7d13859b782",
    ("hata3d", 0): "ff543e32ff8ff1a35c4661adc69f4a306a3af205ae66aba30257a673822c9dc3",
    ("hata3d", 1): "2040a4ef5d7e1cebb884cf68e95278554ede17793dac0cff330777286208374b",
    ("hata3d", 2): "8f0e6843339ada10e137cc2f11a81fbfea122d8b56ae06ee5c3dba56ff67a22f",
    ("hata3d", 3): "35f78f2774061e4955c3332733eb7cc67b1ef609ba039756f174a42103ce30fe",
    ("hata3d", 4): "bff4117d1e02daca9b5e993efd296af86479216d4f3492fe1e743273a51647f5",
    ("hata3d", 5): "5624d5e8baf063293f1b6816fb1e3bc37177584b6e625645d448ed3fa6d93ceb",
    ("hata3d", 6): "6fcae83885a2d65ead302493e9a3e8a44090d86e28e9aeeea9bcf04ae1509409",
}
EMBED_DIGESTS = {
    ("koch", 1): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("koch", 2): "8526c0a1f2e64b92af35197f5faf0dad8abdacbd0eecba72350894b4aa48be0a",
    ("koch", 3): "1fe466ca7f5be155c9c492029679a644b11fcc2db3b364694b5ea82487532a57",
    ("koch", 4): "929fa6d5435a5046e196355a1efa6568c9c1f8e1ffc0c609beda8ef4760492cb",
    ("koch", 5): "b8ed6c8888a391d82b21272df002894fdf2210d4ebf4ec8fd93821aa4d01de75",
    ("koch", 6): "abea32b357f732a39ac20e576189456a22db4f4607ddbec13e16d7493b6e449f",
    ("koch", 7): "f815a5ac6ce215a23f847bd9c930d654aebffc4c27791a453470dd6d62810c81",
    ("koch", 8): "e36391cc35afaeeba7dbf2f26dc32b793a0cf1f85ed8b92f351c31c86cb0e2d6",
    ("sierpinski", 1): "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
    ("sierpinski", 2): "9a2536d0183dbb580b4442a533f0df40e4dfd6ce0f671c953f9b7c4dc73f70b4",
    ("sierpinski", 3): "0dcf341457552fa306a3b31004604dc0a02b90a1de4cbae9c352a2276974effc",
    ("sierpinski", 4): "c51bc1ed43461d843219adcfa384ad81110b6bec8d90bf4964ed5bcf2c5465ce",
    ("sierpinski", 5): "0d277edf4fef1786cbd2a429738e924892f3ab03db7a80123078bc503faa6634",
    ("sierpinski", 6): "71885cc12333ff4c85918c2432c74538c3d625c16150b64c7283a8fcca327b19",
    ("sierpinski", 7): "e9eb3eb4f3081ac16b31e53e3682c375dd62f8099923b05e3ccd0beb9f042a41",
    ("sierpinski", 8): "2bd4f2183151c58156f9a0324be74aade4a505fbf3ec1d929068b9f606e132f8",
    ("sierpinski", 9): "8a0af4ea98b173870b535391f155293779d8eda129e00eaacd0152d3c374ed31",
    ("sierpinski", 10): "4b57b4589c7cbfc62f9dd56e5f2d5f7e9ba341e8517f0e28ce40776b0a8c88a1",
    ("hata2d", 1): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("hata2d", 2): "502fa18fc9886844b3ade5971d77191f53f1d0950134f13981fd172dd3da37c2",
    ("hata2d", 3): "2df7ae14bc8637340e15dafa53430e3557196489143ad0986ef348341f79cbec",
    ("hata2d", 4): "b7e22ad02d5003568be2c25f5798167198f0d7cf512949c1c313f4ecc0d7838d",
    ("hata2d", 5): "1de141fd796a1478ef59da95898d00a1253fa4d5821d9bc02db6410505fb78e7",
    ("hata2d", 6): "7600014a52ac69e0673b690438b69a2ce6f2f35d4ec8aeadff07e4323a24ef6c",
    ("hata2d", 7): "16b460547971bd31962de3c3b95cbabde321a3f25e3ad59bdcce18856db2f4b2",
    ("hata3d", 1): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("hata3d", 2): "7fa548a6e13f786680c91da296fe471feaa54cc3267c0ddab08d06ed7e5e2502",
    ("hata3d", 3): "9c425409be25dd800e676773aea502d5fe449626d2de0c95d7aebeca2f4c244c",
    ("hata3d", 4): "ce4b42ca693e23d8613ec1106447613b1d3630a540592de617b6fa3fddfcaf3a",
    ("hata3d", 5): "56bde5595b5ed329aa55012638bdcdff188614193a6d9625d8805d55da86760b",
    ("hata3d", 6): "e42e965cc452eed03794e0e4a5c7f48ed17cbea27c0c5bdee48c0b11bf526999",
}


def _digest(*arrays):
    """sha256 of the arrays' bytes, integer arrays widened to int64: the
    digests were recorded when indices were int64, and hash the values."""
    h = hashlib.sha256()
    for a in arrays:
        h.update((a.astype(np.int64) if a.dtype.kind in "iu" else a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("family", FAMILIES)
def test_meshes_and_embeddings_are_bit_identical(family):
    top = max(n for f, n in MESH_DIGESTS if f == family)
    prev = None
    for n in range(top + 1):
        m = build_level(family, n)
        assert (m.vertices.dtype, m.edges.dtype, m.cells.dtype, m.boundary_indices.dtype) == (
            np.float64, np.int32, np.int32, np.int32), n
        assert _digest(m.vertices, m.edges, m.cells) == MESH_DIGESTS[family, n], n
        if prev is not None:
            index_map = embed(prev, m).index_map
            assert index_map.dtype == np.int32, n
            assert _digest(index_map) == EMBED_DIGESTS[family, n], n
            table_map = _table_embedding(prev, m).index_map
            assert table_map.dtype == np.int32 and np.array_equal(table_map, index_map), n
        prev = m


@pytest.mark.parametrize("family, top", [
    ("sierpinski", 8), ("koch", 7), ("hata2d", 6), ("hata3d", 5),
], ids=["sierpinski", "koch", "hata2d", "hata3d"])
def test_build_level_matches_iterate(family, top, refines):
    # both in blocks of 7 rows, which cross every seam of the glue's
    # products and gathers and of the pair scan; the level
    # store starts empty, so build_level glues each level from the one below
    ifs = builtin_system(family)
    with mock.patch.object(geometry, "_SCAN_ROWS", 7):
        for n in range(top + 1):
            a, b = build_level(family, n), iterate(ifs, n)
            for name in ("vertices", "edges", "cells", "boundary_indices"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (n, name)
            assert a.dedup_tolerance == b.dedup_tolerance
    assert refines == [(family, n) for n in range(1, top + 1)]


@pytest.mark.parametrize("family, level", [
    ("sierpinski", 10), ("koch", 9), ("hata2d", 8), ("hata3d", 7),
], ids=["sierpinski", "koch", "hata2d", "hata3d"])
def test_glued_levels_pass_the_mesh_checks(family, level):
    # a glued level skips LevelMesh's checks, whose proof (``_glue``'s
    # induction) is run here once, above the tops of
    # test_build_level_matches_iterate: the same fields, checked, are kept
    mesh = build_level(family, level)
    fields = [getattr(mesh, f.name) for f in dataclasses.fields(LevelMesh)]
    checked = LevelMesh(*fields)
    for name, value in zip(("vertices", "edges", "cells", "boundary_indices"), fields[2:]):
        got = getattr(checked, name)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name


def test_glued_levels_skip_the_mesh_checks(refines):
    # with the structure warm and the level store empty, no glued level runs
    # LevelMesh.__post_init__
    with mock.patch.object(LevelMesh, "__post_init__", autospec=True,
                           side_effect=LevelMesh.__post_init__) as checks:
        for family in FAMILIES:
            assert build_level(family, 6).level == 6
    assert checks.call_count == 0
    assert refines == [(family, n) for family in FAMILIES for n in range(1, 7)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mutate", [
    lambda glue, nb: glue[[1, 0, *range(2, len(glue))]],
    lambda glue, nb: np.concatenate([np.roll(glue[:1], 1, axis=1), glue[1:]]),
    lambda glue, nb: np.where(glue < nb, glue, nb + (glue + 1 - nb) % (glue.max() + 1 - nb)),
], ids=["swapped-rows", "rolled-row", "shifted-by-one"])
def test_glue_follows_its_gluing_table(monkeypatch, family, mutate):
    # a gluing table with two copies swapped, one copy's corners rolled, or
    # the numbers of the level-1 vertices past the boundary shifted by one
    # (cyclically) gives another mesh than the geometric refine
    seed, glue, grow = geometry._structure(family)
    coarse, want = build_level(family, 2), iterate(builtin_system(family), 3)
    assert geometry._glue(coarse).vertices.tobytes() == want.vertices.tobytes()
    monkeypatch.setattr(geometry, "_structure",
                        lambda f: (seed, mutate(glue, seed.boundary_indices.size), grow))
    got = geometry._glue(coarse)
    assert any(getattr(got, name).tobytes() != getattr(want, name).tobytes()
               for name in ("vertices", "edges", "cells"))


def test_build_level_refines_the_cached_coarser_level(refines):
    build_level("sierpinski", 5)
    assert refines == [("sierpinski", n) for n in range(1, 6)]
    build_level("sierpinski", 6)
    assert refines[5:] == [("sierpinski", 6)]


def test_build_level_returns_a_held_level_as_it_is(refines):
    # a level that only its caller holds is found again, as the condensation's
    # ``mesh is built`` test needs, and nothing else keeps it once dropped
    mesh = build_level("koch", 5)
    geometry._LAST.clear()
    assert build_level("koch", 5) is mesh
    assert refines == [("koch", n) for n in range(1, 6)]
    geometry._LAST.clear()
    del mesh
    assert list(geometry._LEVELS) == []


# The traced peak of one glue over the new mesh's bytes, at most: numpy
# 2.4 reads 1.40, 1.34, 1.34, 1.26, 1.04, 1.09 and 1.13, the new mesh and
# one block of products and gathers (the checks that glued levels skip
# read 2.03 to 1.34 with their sorted edge keys).  Sierpinski 10 spans many
# blocks, and a whole-mesh index or coordinate temporary would top them.
@pytest.mark.parametrize("family, level, bound", [
    ("koch", 6, 1.5), ("sierpinski", 7, 1.45), ("hata2d", 5, 1.45), ("hata3d", 5, 1.35),
    ("sierpinski", 10, 1.15), ("koch", 8, 1.2), ("hata3d", 6, 1.25),
], ids=["koch-6", "sierpinski-7", "hata2d-5", "hata3d-5", "sierpinski-10", "koch-8", "hata3d-6"])
def test_build_level_working_set_is_bounded_by_the_new_mesh(family, level, bound, traced,
                                                           refines):
    # gluing from the kept level below holds the new mesh and one block of
    # work: no whole-mesh index array is gathered
    build_level(family, level - 1)
    with traced:
        mesh = build_level(family, level)
    size = mesh.vertices.nbytes + mesh.edges.nbytes + mesh.cells.nbytes
    assert traced.peak <= bound * size, traced.peak / size


# A cold build keeps the level and none below it (numpy 2.4: 1.000 to 1.001
# times its bytes, where a cache of every coarser level held 1.50, 1.34,
# 1.26 and 1.21), and holds only the level below beside the new one:
# Sierpinski 10 peaks at 1.37 times its bytes (1.96 with the cache).
@pytest.mark.parametrize("family, level, peak", [
    ("sierpinski", 10, 1.45), ("koch", 8, None), ("hata2d", 7, None), ("hata3d", 6, None),
], ids=["sierpinski-10", "koch-8", "hata2d-7", "hata3d-6"])
def test_cold_build_holds_the_level_alone(family, level, peak, traced, refines):
    with traced:
        mesh = build_level(family, level)
    size = mesh.vertices.nbytes + mesh.edges.nbytes + mesh.cells.nbytes
    assert traced.held - traced.start <= 1.05 * size, (traced.held - traced.start) / size
    assert peak is None or traced.peak - traced.start <= peak * size, (
        (traced.peak - traced.start) / size)
    assert refines == [(family, n) for n in range(1, level + 1)]


@pytest.mark.parametrize("family, level", [("koch", 9), ("sierpinski", 10)])
def test_dedup_tolerance_working_set(family, level, traced):
    # traced peak of the shortest edge above the start: one block of
    # geometry._SCAN_ROWS edges, about 41 B per row (numpy 2.4: 165 KiB
    # each), where the whole-edge gathers took 6.07 and 4.12 MiB
    mesh = build_level(family, level)
    mesh.__dict__.pop("dedup_tolerance", None)  # as if nothing had measured it yet
    with traced:
        tolerance = mesh.dedup_tolerance
    assert traced.peak - traced.start <= 48 * geometry._SCAN_ROWS, (
        (traced.peak - traced.start) / 2**10)
    lengths = np.linalg.norm(mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]],
                             axis=1)
    assert tolerance == RELATIVE_TOLERANCE * lengths.min()


# -- size guard ----------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_predicted_vertices_match_the_built_levels(family):
    for n in range(7):
        assert predicted_vertices(family, n) == build_level(family, n).num_vertices


@pytest.mark.parametrize("family, largest", [
    ("sierpinski", 14), ("koch", 11), ("hata2d", 9), ("hata3d", 8),
])
def test_check_level_admits_up_to_the_vertex_bound(family, largest):
    # through the prediction only: nothing this large is built
    assert predicted_vertices(family, largest) <= MAX_VERTICES
    assert predicted_vertices(family, largest + 1) > MAX_VERTICES
    check_level(family, largest)
    for level in (largest + 1, 40, 10**9):
        with pytest.raises(UsageError, match=f"largest {family} level allowed is {largest}$"):
            check_level(family, level)
    with pytest.raises(UsageError, match="nonnegative"):
        check_level(family, -1)


def test_build_level_refuses_an_oversized_level_before_building(refines):
    with pytest.raises(UsageError, match="would exceed"):
        build_level("sierpinski", 40)
    assert refines == [] and geometry._LAST == {}


def test_array_holding_records_compare_by_identity():
    # a field-wise == of arrays has no single truth value, and arrays do not
    # hash: the records that hold them compare by identity and hash by it
    from fraclap.measures import vertex_weights
    from fraclap.renorm import estimate_laplacian_ratio
    from fraclap.solver import Solution

    mesh = build_level("koch", 2)
    assert mesh != iterate(builtin_system("koch"), 2)
    records = [
        mesh,
        builtin_system("koch"),
        builtin_system("koch").maps[0],
        embed(build_level("koch", 1), mesh),
        vertex_weights(mesh, "edge_length"),
        estimate_laplacian_ratio("koch", 1),
        Solution(values=np.zeros(2), level=0, solver_residual=0.0),
    ]
    for record in records:
        twin = copy.copy(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) != hash(twin)
