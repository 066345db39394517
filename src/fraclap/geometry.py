"""Level meshes of self-similar sets built from iterated affine contractions.

A family is described by an :class:`IFSystem`: a list of affine contraction
maps, a seed edge set and the seed's boundary points.  ``iterate`` applies
the union of the maps ``n`` times to the seed, merging coincident vertices,
and returns a :class:`LevelMesh`.  Vertex ordering is part of the contract:
boundary vertices come first (in seed order), interior vertices follow in
discovery order, and repeated runs produce identical meshes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, UsageError
from .kernels import _dedup_core, _match_core

FAMILIES = ("koch", "sierpinski", "hata2d", "hata3d")

# Vertices closer than RELATIVE_TOLERANCE times the current minimum edge
# length are merged; genuinely coincident points land many orders of
# magnitude below that.
RELATIVE_TOLERANCE = 1e-9

# The most vertices ``build_level`` builds: building Sierpinski 12 and 13
# peaks at about 170 B per vertex above the interpreter, so 2**23 vertices
# peak near 1.4 GiB.
MAX_VERTICES = 2**23


def _frozen(arr, dtype):
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per undirected edge of a mesh with ``n`` vertices."""
    a, b = edges[:, 0], edges[:, 1]
    key = np.minimum(a, b)
    key *= n
    key += np.maximum(a, b)
    return key


def _lengths(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``|points[i] - points[j]|`` for each row ``(i, j)`` of ``edges``.

    The squared gaps are summed one axis at a time, in place, so no
    ``(edges, d)`` array is formed; the result has the bits of
    ``np.linalg.norm(points[i] - points[j], axis=1)``.
    """
    sq = np.zeros(edges.shape[0])
    for col in points.T:
        gap = col[edges[:, 0]]
        gap -= col[edges[:, 1]]
        gap *= gap
        sq += gap
    return np.sqrt(sq, out=sq)


def _sorted_columns(cells: np.ndarray):
    """The smallest, middle and largest vertex of each cell."""
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    return lo, a + b + c - lo - hi, hi


@dataclass(frozen=True)
class AffineMap:
    """Contraction ``x -> linear @ x + translation``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = _frozen(self.linear, np.float64)
        tr = _frozen(self.translation, np.float64)
        if lin.ndim != 2 or lin.shape[0] != lin.shape[1]:
            raise UsageError("linear part must be a square matrix")
        if tr.shape != (lin.shape[0],):
            raise UsageError("translation dimension does not match linear part")
        if not (np.isfinite(lin).all() and np.isfinite(tr).all()):
            raise UsageError("affine map entries must be finite")
        if np.linalg.norm(lin, 2) >= 1.0:
            raise UsageError("linear part must be a strict contraction")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]


def apply_map(m: AffineMap, p) -> np.ndarray:
    """Apply the contraction to a single point."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (m.dimension,):
        raise UsageError(
            f"point dimension {p.shape} does not match map dimension {m.dimension}"
        )
    return m.linear @ p + m.translation


@dataclass(frozen=True)
class IFSystem:
    """Affine maps plus the seed edge set they act on."""

    maps: tuple[AffineMap, ...]
    seed_edges: tuple[tuple[np.ndarray, np.ndarray], ...]
    boundary_points: np.ndarray
    family_name: str
    cell_generation: bool = False

    def __post_init__(self):
        if not self.maps:
            raise UsageError("need at least one contraction map")
        dim = self.maps[0].dimension
        if any(m.dimension != dim for m in self.maps):
            raise UsageError("all maps must share one dimension")
        bp = _frozen(self.boundary_points, np.float64)
        if bp.ndim != 2 or bp.shape[1] != dim or bp.shape[0] == 0:
            raise UsageError("boundary points must be a nonempty (b, d) array")
        edges = tuple(
            (_frozen(p, np.float64), _frozen(q, np.float64)) for p, q in self.seed_edges
        )
        if not edges:
            raise UsageError("seed must contain at least one edge")
        for p, q in edges:
            if p.shape != (dim,) or q.shape != (dim,):
                raise UsageError("seed edge endpoints must match the map dimension")
        endpoints = np.array([pt for e in edges for pt in e])
        for b in bp:
            if not (np.linalg.norm(endpoints - b, axis=1) < 1e-12).any():
                raise UsageError("every boundary point must be a seed edge endpoint")
        if bp.shape[0] > 1:
            dists = np.linalg.norm(bp[:, None, :] - bp[None, :, :], axis=2)
            if (dists + np.eye(bp.shape[0]) <= 1e-12).any():
                raise UsageError("boundary points must be pairwise distinct")
        if self.cell_generation and bp.shape[0] != 3:
            raise UsageError("cell generation requires a triangular seed boundary")
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "seed_edges", edges)
        object.__setattr__(self, "boundary_points", bp)

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension


@dataclass(frozen=True)
class LevelMesh:
    """Level-``n`` approximation: vertices, edges, optional cells, boundary."""

    family: str
    level: int
    vertices: np.ndarray
    edges: np.ndarray
    cells: np.ndarray
    boundary_indices: np.ndarray
    dedup_tolerance: float

    def __post_init__(self):
        verts = _frozen(self.vertices, np.float64)
        edges = _frozen(np.asarray(self.edges).reshape(-1, 2), np.int64)
        cells = _frozen(np.asarray(self.cells).reshape(-1, 3), np.int64)
        bidx = _frozen(self.boundary_indices, np.int64)
        n = verts.shape[0]
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise GeometryError("vertices must be an (N, 2) or (N, 3) array")
        if not np.isfinite(verts).all():
            raise GeometryError("vertex coordinates must be finite")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GeometryError("edge index out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise GeometryError("self-loop edge")
        # sorted keys of the undirected edges: one sort finds duplicates,
        # and searchsorted looks up the cell sides below
        ekey = _edge_keys(edges, n)
        ekey.sort()
        if (ekey[1:] == ekey[:-1]).any():
            raise GeometryError("duplicate edge")
        if bidx.size and (bidx.min() < 0 or bidx.max() >= n):
            raise GeometryError("boundary index out of range")
        if cells.size:
            if cells.min() < 0 or cells.max() >= n:
                raise GeometryError("cell index out of range")
            lo, mid, hi = _sorted_columns(cells)
            if (lo == mid).any() or (mid == hi).any():
                raise GeometryError("degenerate cell with repeated vertex")
            for a, b in ((lo, mid), (mid, hi), (lo, hi)):
                side = a * n
                side += b
                pos = np.searchsorted(ekey, side)
                if (pos == ekey.size).any() or (ekey[pos] != side).any():
                    raise GeometryError("cell vertices not pairwise joined by edges")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundary_indices", bidx)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior_indices(self) -> np.ndarray:
        interior = np.ones(self.num_vertices, dtype=bool)
        interior[self.boundary_indices] = False
        return np.flatnonzero(interior)

    def edge_lengths(self) -> np.ndarray:
        return _lengths(self.vertices, self.edges)


@dataclass(frozen=True)
class EmbeddingMap:
    """For each coarse vertex, the index of the coinciding fine vertex."""

    coarse_level: int
    fine_level: int
    index_map: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index_map", _frozen(self.index_map, np.int64))


def _rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _branch_rotation(azimuth: float, polar: float) -> np.ndarray:
    """Rotation taking the z axis onto the unit vector at (polar, azimuth)."""
    u = np.array([-np.sin(azimuth), np.cos(azimuth), 0.0])
    c, s = np.cos(polar), np.sin(polar)
    ux = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return c * np.eye(3) + s * ux + (1.0 - c) * np.outer(u, u)


def _koch_system() -> IFSystem:
    # Four maps of ratio 1/3 with segment directions 0, +60, -60, 0 degrees
    # and matching endpoints, so each segment is replaced by the classic
    # four-segment generator.
    i2 = np.eye(2)
    r60 = _rot2(np.pi / 3)
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    maps = (
        AffineMap(i2 / 3, a),
        AffineMap(r60 / 3, np.array([1 / 3, 0.0])),
        AffineMap(_rot2(-np.pi / 3) / 3, np.array([0.5, np.sqrt(3) / 6])),
        AffineMap(i2 / 3, np.array([2 / 3, 0.0])),
    )
    return IFSystem(maps, ((a, b),), np.array([a, b]), "koch")


def _sierpinski_system() -> IFSystem:
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    maps = tuple(AffineMap(np.eye(2) / 2, c / 2) for c in corners)
    seed = (
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[0]),
    )
    return IFSystem(maps, seed, corners, "sierpinski", cell_generation=True)


def _hata2d_system() -> IFSystem:
    i2 = np.eye(2)
    r60 = _rot2(np.pi / 3)
    p1 = np.array([0.0, 0.0])
    p2 = np.array([1.0, 0.0])
    maps = (
        AffineMap(i2 / 3, p1),
        AffineMap(r60 / 3, np.array([1 / 3, 0.0])),
        AffineMap(i2 / 3, np.array([1 / 3, 0.0])),
        AffineMap(r60 / 3, np.array([2 / 3, 0.0])),
        AffineMap(i2 / 3, np.array([2 / 3, 0.0])),
    )
    return IFSystem(maps, ((p1, p2),), np.array([p1, p2]), "hata2d")


def _hata3d_system() -> IFSystem:
    # Trunk along the z axis split in thirds; three branch maps of ratio 1/3
    # rotate the trunk direction by 45 degrees at azimuths 60, 120 and 180
    # degrees (frame n1 = x axis, n2 = y axis), attached at z = 1/3, 2/3, 2/3.
    i3 = np.eye(3)
    p1 = np.zeros(3)
    p2 = np.array([0.0, 0.0, 1.0])
    t1 = np.array([0.0, 0.0, 1 / 3])
    t2 = np.array([0.0, 0.0, 2 / 3])
    polar = np.pi / 4
    maps = (
        AffineMap(i3 / 3, p1),
        AffineMap(_branch_rotation(np.pi / 3, polar) / 3, t1),
        AffineMap(i3 / 3, t1),
        AffineMap(_branch_rotation(2 * np.pi / 3, polar) / 3, t2),
        AffineMap(_branch_rotation(np.pi, polar) / 3, t2),
        AffineMap(i3 / 3, t2),
    )
    return IFSystem(maps, ((p1, p2),), np.array([p1, p2]), "hata3d")


_BUILTIN = {
    "koch": _koch_system,
    "sierpinski": _sierpinski_system,
    "hata2d": _hata2d_system,
    "hata3d": _hata3d_system,
}


def builtin_system(family: str) -> IFSystem:
    """Return the predefined system for one of the supported families."""
    try:
        factory = _BUILTIN[family]
    except KeyError:
        raise UsageError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}"
        ) from None
    return factory()


def _dedup_or_raise(candidates: np.ndarray, tol: float):
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    assign, uniq_rows, amb_i, amb_j = _dedup_core(cand, float(tol))
    if amb_i >= 0:
        dist = float(np.linalg.norm(cand[amb_i] - cand[amb_j]))
        raise GeometryError(
            f"dedup ambiguity: vertices {dist:.3e} apart with tolerance {tol:.3e}; "
            "tolerance appears misconfigured for this geometry"
        )
    return assign, uniq_rows


def _finish_mesh(ifs, level, points, maps, edges, cells):
    """Merge the candidate vertices of a level and return its mesh.

    The candidates are the boundary points followed by one block per map:
    the image of ``points`` under that map, or ``points`` itself when
    ``maps`` is empty.  ``edges`` and ``cells`` index ``points`` and are
    repeated in every block, in block order, and gathered as they are: the
    copies of a post-critically finite system meet only at vertices, so
    they share no edge or cell, and a system whose copies share an edge
    raises ``GeometryError`` ("duplicate edge") from ``LevelMesh``.  The
    candidates live only in this frame, so they are released as soon as the
    vertices are taken.
    """
    nb, (npts, dim) = ifs.boundary_points.shape[0], points.shape
    offsets = nb + npts * np.arange(max(len(maps), 1), dtype=np.int64)
    cand = np.empty((nb + offsets.size * npts, dim))
    cand[:nb] = ifs.boundary_points
    if not maps:
        cand[nb:] = points
    for off, m in zip(offsets, maps):
        block = cand[off:off + npts]
        np.matmul(points, m.linear.T, out=block)
        block += m.translation
    # the minimum candidate edge length, taken block by block
    min_len = np.min([_lengths(cand[off:off + npts], edges).min() for off in offsets])
    if min_len <= 0.0:
        raise GeometryError("degenerate zero-length edge in construction")
    tol = RELATIVE_TOLERANCE * min_len
    assign, uniq_rows = _dedup_or_raise(cand, tol)
    if not np.array_equal(assign[:nb], np.arange(nb)):
        raise GeometryError("boundary anchor points collapsed during dedup")
    verts = cand[uniq_rows]
    del cand, uniq_rows
    nv = verts.shape[0]

    edges = _gather_blocks(assign, offsets, edges)
    cells = _gather_blocks(assign, offsets, cells)
    del assign

    incident = np.bincount(edges.ravel(), minlength=nv)
    if (incident[:nb] == 0).any():
        raise GeometryError("a boundary point is not reproduced by the iteration")
    del incident
    return LevelMesh(
        family=ifs.family_name,
        level=level,
        vertices=verts,
        edges=edges,
        cells=cells,
        boundary_indices=np.arange(nb),
        dedup_tolerance=tol,
    )


def _gather_blocks(assign, offsets, rows):
    """``assign[off + rows]`` for each offset, stacked in offset order."""
    out = np.empty((offsets.size * rows.shape[0], rows.shape[1]), dtype=np.int64)
    blocks = out.reshape(offsets.size, *rows.shape)
    for k, off in enumerate(offsets):
        np.take(assign, off + rows, out=blocks[k])
    return out


def _seed_mesh(ifs: IFSystem) -> LevelMesh:
    # one identity block: the boundary points, then the seed edge endpoints
    nb = ifs.boundary_points.shape[0]
    endpoints = np.array([pt for e in ifs.seed_edges for pt in e])
    points = np.vstack([ifs.boundary_points, endpoints])
    ne = len(ifs.seed_edges)
    edges = nb + np.arange(2 * ne, dtype=np.int64).reshape(ne, 2)
    cells = np.empty((0, 3), dtype=np.int64)
    if ifs.cell_generation:
        # The triangular seed cell is spanned by the three boundary anchors.
        cells = np.array([[0, 1, 2]], dtype=np.int64)
    return _finish_mesh(ifs, 0, points, (), edges, cells)


def _refine(ifs: IFSystem, mesh: LevelMesh) -> LevelMesh:
    return _finish_mesh(ifs, mesh.level + 1, mesh.vertices, ifs.maps, mesh.edges, mesh.cells)


def _copy_table(mesh: LevelMesh, seed: LevelMesh) -> np.ndarray:
    """(copy, seed vertex) -> vertex of ``mesh``, read off its edges for a
    mesh refined from ``seed`` by ``_refine``.

    ``_refine`` stacks the images of the coarser edge list map-major and the
    copies share no edge, so the edges of level n are ``m**n`` blocks of the
    seed edges, one per word of maps in lexicographic order.  The table is
    read, not checked: on a mesh laid out otherwise it is wrong.  It is read
    by ``_structure``, on a level it refines itself, and by
    ``solver._Condensation``, which refuses copies that disagree on a glued
    vertex or a vertex not eliminated exactly once; ``solver._leaf_blocks``
    refuses an element outside its leaf and ``solver._contract_solve`` a
    residual over the contract.
    """
    copies, extra = divmod(mesh.num_edges, seed.num_edges)
    if extra:
        raise GeometryError("edge count is not a multiple of the seed's")
    table = np.empty((copies, seed.num_vertices), dtype=np.int64)
    table[:, seed.edges] = mesh.edges.reshape(copies, seed.num_edges, 2)
    return table


def iterate(ifs: IFSystem, n: int) -> LevelMesh:
    """Apply the union map ``n`` times to the seed and return the mesh.

    Coincident vertices are merged; edges and cells are kept as each copy
    gives them.  A system whose copies share an edge (a repeated or an
    overlapping map) raises ``GeometryError``.
    """
    if n < 0:
        raise UsageError("level must be nonnegative")
    mesh = _seed_mesh(ifs)
    for _ in range(int(n)):
        mesh = _refine(ifs, mesh)
    return mesh


@functools.lru_cache(maxsize=None)
def _structure(family: str) -> tuple[LevelMesh, np.ndarray, float]:
    """The self-similar structure of a built-in family: ``(seed, glue,
    grow)``, its level-0 mesh, its gluing table ``(child, seed vertex) ->
    level-1 vertex`` and ``1/r``, the reciprocal of the one similarity ratio
    of its maps (3, or 2 for Sierpinski).  Built with ``_seed_mesh`` and
    ``_refine``, not ``build_level``, which checks against it."""
    ifs = builtin_system(family)
    seed = _seed_mesh(ifs)
    glue = _copy_table(_refine(ifs, seed), seed)
    glue.setflags(write=False)
    return seed, glue, float(1.0 / np.linalg.norm(ifs.maps[0].linear, 2))


def predicted_vertices(family: str, level: int) -> int:
    """The vertex count of ``build_level(family, level)``, in Python ints.

    A level is m copies of the one below glued at c = m V_0 - V_1 vertices,
    so V_{n+1} = m V_n - c, solved from the structure (``_structure``): m
    children in the gluing table, V_0 seed vertices and V_1 level-1 vertices.
    """
    seed, glue, _ = _structure(family)
    m, v0, v1 = glue.shape[0], seed.num_vertices, int(glue.max()) + 1
    c = m * v0 - v1
    return (c + (v0 * (m - 1) - c) * m**int(level)) // (m - 1)


def check_level(family: str, level: int) -> None:
    """Refuse with ``UsageError`` a negative level or one whose predicted
    vertex count exceeds ``MAX_VERTICES``, before anything is built."""
    if level < 0:
        raise UsageError("level must be nonnegative")
    largest = 0  # counts grow with the level: find the last that fits
    while predicted_vertices(family, largest + 1) <= MAX_VERTICES:
        largest += 1
    if level > largest:
        raise UsageError(
            f"{family} level {level} would exceed {MAX_VERTICES} vertices; "
            f"the largest {family} level allowed is {largest}"
        )


@functools.lru_cache(maxsize=64)
def build_level(family: str, level: int) -> LevelMesh:
    """Cached ``iterate(builtin_system(family), level)``; meshes are immutable.

    Each level refines the cached level below it, so a process builds every
    level once.  An oversized level is refused by ``check_level``, and a
    built level whose vertex count is not the predicted one raises
    ``GeometryError``.
    """
    check_level(family, level)
    if level == 0:
        return iterate(builtin_system(family), level)
    mesh = _refine(builtin_system(family), build_level(family, level - 1))
    predicted = predicted_vertices(family, level)
    if mesh.num_vertices != predicted:
        raise GeometryError(
            f"{family} level {level} has {mesh.num_vertices} vertices, predicted {predicted}"
        )
    return mesh


def embed(coarse: LevelMesh, fine: LevelMesh) -> EmbeddingMap:
    """Match every coarse vertex to the coinciding fine vertex.

    Accepts ``fine`` at the same level (identity embedding) or one level up.
    Each coarse vertex is matched by ``_match_core`` to the nearest fine
    vertex within the fine dedup tolerance.  A coarse vertex without one,
    or a fine vertex matched twice, raises ``GeometryError``.
    """
    if fine.family != coarse.family:
        raise GeometryError("cannot embed meshes from different families")
    if fine.level not in (coarse.level, coarse.level + 1):
        raise GeometryError(
            f"embedding expects fine level in {{{coarse.level}, {coarse.level + 1}}}, "
            f"got {fine.level}"
        )
    idx, _ = _match_core(fine.vertices, coarse.vertices, float(fine.dedup_tolerance))
    missing = int((idx < 0).sum())
    if missing:
        raise GeometryError(
            f"{missing} coarse vertices have no fine counterpart; incompatible meshes"
        )
    if np.bincount(idx).max(initial=0) > 1:
        raise GeometryError("embedding is not injective; incompatible meshes")
    return EmbeddingMap(coarse.level, fine.level, idx)
