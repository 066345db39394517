"""Level meshes of self-similar sets built from iterated affine contractions.

A family is described by an :class:`IFSystem`: a list of affine contraction
maps and its seed, the level-0 :class:`LevelMesh` they refine.  ``iterate``
applies the union of the maps ``n`` times to the seed, merging coincident
vertices, and returns a :class:`LevelMesh`; ``build_level`` makes the same
meshes by walking a built-in family's copy tree, with no search.  Vertex
ordering is part of the contract: boundary vertices come first (in seed
order), interior vertices follow in discovery order, and repeated runs
produce identical meshes.

A built level's vertex order is a walk of its copy tree, and one walk
makes every level: the copies of each depth and the copy table a block at
a time (``_depth_walk``), the edge and cell rows from the copy table
(``_element_blocks``), and the coordinates a block at a time from a
template level (``_vertex_blocks``).  ``build_level`` fills level n from
these with level n - 1 as the template; a solve or a mesh document reads
them with a small template and builds no level above it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import FAMILIES
from .errors import GeometryError, UsageError

# Vertices closer than RELATIVE_TOLERANCE times a mesh's shortest edge are
# one (a refinement merges at the coarse level's tolerance times the least
# singular value of the maps, a bound on its shortest candidate edge's);
# genuinely coincident points land many orders of magnitude below that.
RELATIVE_TOLERANCE = 1e-9

# The most vertices ``build_level`` builds: a cold Sierpinski 13 and 14
# peak at 54.6 and 53.7 B per vertex above the imports (numpy 2.4), the
# level beside the one below it, so 2**23 vertices peak near 0.42 GiB.
MAX_VERTICES = 2**23

# Index arrays are int32: every index lies below this.
_INDEX_END = 2**31

# Rows per block of the copy-tree walk's products and copies, of the mesh
# checks and of the close-pair scan: none forms a whole-mesh index or mask
# temporary.
_SCAN_ROWS = 4096


def _frozen(arr, dtype):
    """``arr`` as a contiguous ``dtype`` view of a read-only owner, which
    numpy, unlike the owner, refuses to make writable again.  An ``arr``
    that is itself a view is frozen as it is; its owner is left alone."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out.view()


def _kept(arr, dtype):
    """``arr`` for a result to hold: ``_frozen(arr)`` when the owner of its
    memory is already read-only, so numpy refuses the write flag on every
    view of it, and otherwise a frozen copy, so a caller that holds the
    owner, or sets it writable again, cannot change the result.  A vector
    that its maker freezes before handing it over is kept without a copy."""
    arr = np.asarray(arr)
    owner = arr
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner.flags.writeable:
        arr = np.array(arr, dtype, order="C")
    return _frozen(arr, dtype)


def _index_array(arr, shape, n, message, name):
    """``arr`` as a frozen int32 copy of ``shape``, whose leading -1 stands
    for any count, with every entry in ``range(n)`` and below ``_INDEX_END``.
    Any empty array is no rows; anything else of another shape, or not of an
    integer dtype, raises ``GeometryError`` with ``message``, and an entry
    out of range raises "``name`` index out of range": nothing is reshaped,
    truncated or wrapped (the range is checked before the cast)."""
    try:
        arr = np.asarray(arr)
    except ValueError:  # ragged rows
        raise GeometryError(message) from None
    if arr.size == 0:
        arr = arr.reshape(shape)
    elif arr.ndim != len(shape) or arr.shape[1:] != shape[1:] or arr.dtype.kind not in "iu":
        raise GeometryError(message)
    elif arr.min() < 0 or arr.max() >= min(n, _INDEX_END):
        raise GeometryError(f"{name} index out of range")
    return _frozen(np.array(arr, np.int32, order="C"), np.int32)


def _blocks(n: int):
    """Slices of ``_SCAN_ROWS`` rows (two at least) covering ``range(n)``,
    the last one taking a one-row tail.  numpy multiplies a one-row matrix
    by gemv, whose bits differ from gemm's, so only ``n == 1`` gives a
    one-row block: each block's products keep the bits of one product over
    all ``n`` rows."""
    step, lo = max(_SCAN_ROWS, 2), 0
    while lo < n:
        hi = lo + step if n - lo - step >= 2 else n
        yield slice(lo, hi)
        lo = hi


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """One int64 key ``min * n + max`` per undirected edge ``(a, b)`` of a
    mesh with ``n`` vertices, widened before the product, which overflows
    int32 above 46,341 vertices.  It is summed as ``min * (n - 1) + a + b``,
    which adds the int32 columns in place: no second whole-edge array."""
    a, b = edges[:, 0], edges[:, 1]
    key = np.minimum(a, b, dtype=np.int64)
    key *= n - 1
    key += a
    key += b
    return key


def _abs_max(v: np.ndarray) -> float:
    """``np.abs(v).max()`` without a copy of ``v``, 0.0 for an empty ``v``:
    the larger of ``v.max()`` and ``-v.min()``, a zero made positive; a NaN
    entry gives NaN."""
    return float(np.maximum(v.max(initial=0.0), -v.min(initial=0.0))) + 0.0


def _distance_blocks(p: np.ndarray, i, j):
    """``|p[i] - p[j]|`` for the index arrays ``i`` and ``j``, yielded
    ``_SCAN_ROWS`` rows at a time, so no whole-pair gather is made.

    The squared gaps are summed one axis at a time, in place, so no
    ``(pairs, d)`` array is formed.  Each gap is scaled by ``2**-e``, with
    ``e`` the binary exponent of ``max |p|``, before it is squared, and the
    root by ``2**e``.  That is exact away from underflow, so the result has
    the bits of ``np.linalg.norm(p[i] - p[j], axis=1)``, and no square
    overflows: a distance is ``inf`` only when it exceeds the largest
    double.  Every distance check of this module uses it, against a
    tolerance that is never squared."""
    e = int(np.frexp(_abs_max(p))[1])
    for b in _blocks(len(i)):
        sq = np.zeros(b.stop - b.start)
        with np.errstate(over="ignore"):  # a gap overflows only where its distance does
            for col in p.T:
                gap = col[i[b]]
                gap -= col[j[b]]
                np.ldexp(gap, -e, out=gap)
                gap *= gap
                sq += gap
            np.ldexp(np.sqrt(sq, out=sq), e, out=sq)
        yield sq


def _distances(p: np.ndarray, i, j) -> np.ndarray:
    """The distances of ``_distance_blocks``, in one array."""
    out = np.empty(len(i))
    for b, dist in zip(_blocks(out.size), _distance_blocks(p, i, j)):
        out[b] = dist
    return out


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LevelMesh:
    """Level-``n`` approximation: vertices, edges, optional cells, boundary.

    Vertices are float64; edges, cells and boundary indices are int32, which
    address every level ``build_level`` admits (``MAX_VERTICES``): an index
    of ``2**31`` or more is out of range.  A mesh keeps frozen copies of the
    arrays its caller hands it, so no caller array changes it later."""

    family: str
    level: int
    vertices: np.ndarray
    edges: np.ndarray
    cells: np.ndarray
    boundary_indices: np.ndarray

    def __post_init__(self):
        try:
            verts = np.asarray(self.vertices)
        except ValueError:  # ragged rows, refused as a shape
            verts = np.empty(0)
        if verts.dtype.kind not in "iuf":  # no text, bool, complex, object
            raise GeometryError("vertex coordinates must be real numbers")
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise GeometryError("vertices must be an (N, 2) or (N, 3) array")
        verts = _frozen(np.array(verts, np.float64, order="C"), np.float64)  # its own copy
        n = verts.shape[0]
        edges = _index_array(self.edges, (-1, 2), n, "edges must be integer rows of 2 entries",
                             "edge")
        cells = _index_array(self.cells, (-1, 3), n, "cells must be integer rows of 3 entries",
                             "cell")
        bidx = _index_array(self.boundary_indices, (-1,), n,
                            "boundary indices must be 1-D integers", "boundary")
        if not isinstance(self.family, str):
            raise GeometryError(f"family must be a string, got {self.family!r}")
        try:
            level = _level_index(self.level)
        except UsageError as exc:
            raise GeometryError(str(exc)) from None
        if not np.isfinite(verts).all():
            raise GeometryError("vertex coordinates must be finite")
        if any((edges[b, 0] == edges[b, 1]).any() for b in _blocks(len(edges))):
            raise GeometryError("self-loop edge")
        # sorted keys of the undirected edges: one sort finds duplicates,
        # and searchsorted looks up the cell sides below
        ekey = _edge_keys(edges, n)
        ekey.sort()
        if any((ekey[1:][b] == ekey[:-1][b]).any() for b in _blocks(len(ekey) - 1)):
            raise GeometryError("duplicate edge")
        # block by block: every degenerate cell is refused before any side
        # is looked up
        sides = ([0, 1], [1, 2], [0, 2])
        for b in _blocks(len(cells)):
            if any((cells[b, i] == cells[b, j]).any() for i, j in sides):
                raise GeometryError("degenerate cell with repeated vertex")
        for b in _blocks(len(cells)):
            for side in sides:
                key = _edge_keys(cells[b][:, side], n)
                pos = np.searchsorted(ekey, key)
                if (pos == ekey.size).any() or (ekey[pos] != key).any():
                    raise GeometryError("cell vertices not pairwise joined by edges")
        object.__setattr__(self, "level", level)
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
        return _distances(self.vertices, *self.edges.T)

    @functools.cached_property
    def dedup_tolerance(self) -> float:
        """``RELATIVE_TOLERANCE`` times the shortest edge, 0.0 with no edges,
        measured once and block by block: no whole-edge array is made."""
        blocks = _distance_blocks(self.vertices, *self.edges.T)
        return RELATIVE_TOLERANCE * float(min((b.min() for b in blocks), default=0.0))


@dataclass(frozen=True, eq=False)
class IFSystem:
    """Affine maps plus the level-0 mesh they refine, its ``seed``, whose
    boundary vertices are its first vertices.  The system's family and
    dimension are the seed's."""

    maps: tuple[AffineMap, ...]
    seed: LevelMesh

    def __post_init__(self):
        maps, seed = tuple(self.maps), self.seed
        if not maps:
            raise UsageError("need at least one contraction map")
        for k, m in enumerate(maps):
            if m.dimension != seed.dimension:
                raise UsageError(f"map {k} has dimension {m.dimension}, the seed {seed.dimension}")
            if np.linalg.matrix_rank(m.linear) < m.dimension:
                raise UsageError(f"map {k} has a singular linear part")
        if seed.level != 0 or not seed.num_edges:
            raise UsageError("the seed must be a level-0 mesh with at least one edge")
        nb = seed.boundary_indices.size
        if not nb or not np.array_equal(seed.boundary_indices, np.arange(nb)):
            raise UsageError("the seed's boundary indices must be 0, 1, ..., nb - 1 with nb >= 1")
        if (np.bincount(seed.edges.ravel(), minlength=nb)[:nb] == 0).any():
            raise UsageError("every boundary vertex must lie on a seed edge")
        if _close_pairs(seed.vertices, seed.dedup_tolerance)[0].size:
            raise UsageError("two seed vertices lie within the seed's dedup tolerance")
        object.__setattr__(self, "maps", maps)

    @property
    def dimension(self) -> int:
        return self.seed.dimension


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """For each coarse vertex, the index of the coinciding fine vertex."""

    coarse_level: int
    fine_level: int
    index_map: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index_map", _index_array(
            self.index_map, (-1,), _INDEX_END, "index map must be 1-D integers", "fine vertex"))


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
    return IFSystem(maps, LevelMesh("koch", 0, [a, b], [[0, 1]], [], [0, 1]))


def _sierpinski_system() -> IFSystem:
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    maps = tuple(AffineMap(np.eye(2) / 2, c / 2) for c in corners)
    seed = LevelMesh("sierpinski", 0, corners, [[0, 1], [1, 2], [2, 0]], [[0, 1, 2]], [0, 1, 2])
    return IFSystem(maps, seed)


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
    return IFSystem(maps, LevelMesh("hata2d", 0, [p1, p2], [[0, 1]], [], [0, 1]))


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
    return IFSystem(maps, LevelMesh("hata3d", 0, [p1, p2], [[0, 1]], [], [0, 1]))


_BUILTIN = {
    "koch": _koch_system,
    "sierpinski": _sierpinski_system,
    "hata2d": _hata2d_system,
    "hata3d": _hata3d_system,
}


@functools.cache
def builtin_system(family: str) -> IFSystem:
    """Return the predefined system for one of the supported families, built
    once per process: a system is immutable."""
    try:
        factory = _BUILTIN[family]
    except KeyError:
        raise UsageError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}"
        ) from None
    return factory()


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
    once, and their distances.

    The points are sorted by their projections ``s`` onto the unit direction
    ``u``.  Each sorted position whose gap to the next projection is at most
    a window ``w`` lists the positions up to ``s + w`` (one ``searchsorted``),
    and every listed pair is decided by its distance (``_distance_blocks``)
    against ``tol``.

    No pair within ``tol`` is missed.  Projection never lengthens a distance:
    ``|u.(p - q)| <= |p - q|``.  Rounding of a gap ``s[k+1] - s[k]`` and of an
    end ``s + w`` is monotone and every ``s[b]`` is representable, so a pair
    whose true projection gap is at most ``w`` passes both.  The window
    therefore only has to cover two rounding errors: that of the
    projections, a few ulps of ``max |p|``, and that of the distance test, a
    few ulps of ``tol``.  ``w = tol (1 + 2**-40) + 2**-48 (d + 2)
    (max |s| + max |p|)`` covers both with a wide margin.  A wider ``w`` only
    adds candidates, and the distance test discards them.

    The cost is one sort of n floats plus the pairs whose projections fall
    within ``w``; the projections are sorted in place and their gaps tested
    ``_SCAN_ROWS`` at a time, so the whole-point arrays are ``s`` and its
    ``argsort``.  Mesh edges are at least 1e9 tolerances long, so on a built
    level those are the true pairs, or nearly.  Points lying on a hyperplane
    normal to ``u`` would cost the square of their count.
    """
    d = points.shape[1]
    u = _DIRECTION[:d] / np.linalg.norm(_DIRECTION[:d])
    s = points @ u
    order = np.argsort(s)
    s.sort()  # in place: the values of s[order]
    big = max(-s[0], s[-1]) if s.size else 0.0
    big += _abs_max(points)
    w = tol * (1.0 + 2.0**-40) + 2.0**-48 * (d + 2) * big
    start = np.concatenate([np.empty(0, dtype=np.intp)] + [
        b.start + np.flatnonzero(s[1:][b] - s[:-1][b] <= w) for b in _blocks(s.size - 1)])
    count = np.searchsorted(s, s[start] + w, side="right") - start - 1
    a, b = order[np.repeat(start, count)], order[_ranges(start + 1, count)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    dist = _distances(points, i, j)
    keep = dist <= tol
    return i[keep], j[keep], dist[keep]


def _dedup(candidates, tol):
    """Merge the rows of ``candidates`` closer than ``tol``, keeping the first
    occurrence of each cluster: ``(assign, uniq_rows)``, where ``assign[i]``
    is the unique-vertex index of row ``i`` and ``uniq_rows`` lists the
    source row of each unique vertex, so every row goes to the smallest row
    within ``tol`` of it.

    Copies of the pieces of a post-critically finite set meet only at images
    of its boundary points, so genuine coincidences lie many orders of
    magnitude below ``tol``.  A pair at a distance in ``(tol/10, tol]`` raises
    a "dedup ambiguity" ``GeometryError``, naming the pair with the smallest
    later row.  A chained merge (``a`` near ``b`` near ``c`` with ``a`` far
    from ``c``) always contains such a pair, so a result that is returned is
    exactly the first-occurrence clustering.
    """
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    i, j, dist = _close_pairs(cand, float(tol))
    gray = np.flatnonzero(dist > 0.1 * tol)
    if gray.size:
        k = gray[np.lexsort((i[gray], j[gray]))[0]]
        raise GeometryError(
            f"dedup ambiguity: vertices {dist[k]:.3e} apart with tolerance {tol:.3e}; "
            "tolerance appears misconfigured for this geometry"
        )
    kept = np.ones(cand.shape[0], dtype=bool)
    kept[j] = False
    assign = np.cumsum(kept, dtype=np.int32)
    assign -= 1
    # each later row of a pair goes where the smallest row within tol of
    # it goes: arrays of the pairs' size, none of the candidates'
    later, at = np.unique(j, return_inverse=True)
    root = later.copy()
    np.minimum.at(root, at, i)
    assign[later] = assign[root]
    return assign, np.flatnonzero(kept)


def _refine(ifs: IFSystem, mesh: LevelMesh) -> LevelMesh:
    """The next level of ``mesh``, found geometrically: ``iterate``'s step,
    and ``_structure``'s for level 1, whose copy tree ``build_level`` walks.

    The candidates, the seed's boundary vertices and then the image of
    ``mesh.vertices`` under each map, are merged at the least singular value
    of the maps' linear parts times the tolerance of ``mesh``: a map scales
    no length by less, so that is ``RELATIVE_TOLERANCE`` times a lower bound
    on the shortest candidate edge.  Every copy keeps the edges and cells of
    ``mesh`` as it gives them: the copies of a post-critically finite system
    meet only at vertices, and a system whose copies share an edge raises
    ``GeometryError`` ("duplicate edge") from ``LevelMesh``.
    """
    seed, points = ifs.seed, mesh.vertices
    nb = seed.boundary_indices.size
    shrink = min(np.linalg.svd(m.linear, compute_uv=False)[-1] for m in ifs.maps)
    cand = np.concatenate([seed.vertices[:nb],
                           *(points @ m.linear.T + m.translation for m in ifs.maps)])
    assign, uniq_rows = _dedup(cand, shrink * mesh.dedup_tolerance)
    offsets = nb + len(points) * np.arange(len(ifs.maps))[:, None, None]
    edges = assign[offsets + mesh.edges].reshape(-1, 2)
    if (np.bincount(edges[edges < nb], minlength=nb) == 0).any():
        raise GeometryError("a boundary point is not reproduced by the iteration")
    return LevelMesh(seed.family, mesh.level + 1, cand[uniq_rows], edges,
                     assign[offsets + mesh.cells].reshape(-1, 3), np.arange(nb))


def _map_rows(maps, rows: np.ndarray, word) -> np.ndarray:
    """``rows`` under the maps of ``word``, innermost (last) first, each
    ``rows @ linear.T + translation`` with the translation added a column at
    a time: the sums of ``+= translation``, whose inner loop is only d long,
    in a third of its time (7 against 23 us on 3,282 rows, 2-core Linux VM,
    numpy 2.4).  ``_vertex_blocks`` maps every coordinate of a built level."""
    for i in reversed(word):
        rows = rows @ maps[i].linear.T
        for col, shift in zip(rows.T, maps[i].translation.tolist()):
            col += shift
    return rows


def _built(mesh: LevelMesh) -> LevelMesh | None:
    """``build_level(mesh.family, mesh.level)`` when ``mesh`` is laid out as
    that level, else ``None``: the one rule for "is this mesh a built level?".

    The seed, and a level in the level store (made by ``build_level``), pass
    as they are.  Any other mesh needs a built-in family, a level
    ``build_level`` admits and the predicted vertex count, checked before
    anything is built, and then the built level's edges, cells and boundary
    indices (coordinates are not part of the layout).  A level no one holds
    is built for the comparison alone, and is not kept."""
    family, level = mesh.family, mesh.level
    if family not in FAMILIES:
        return None
    if mesh is builtin_system(family).seed or _LEVELS.get((family, level)) is mesh:
        return mesh
    if level > _largest_level(family) or mesh.num_vertices != predicted_vertices(family, level):
        return None
    built = build_level(family, level)
    layout = operator.attrgetter("edges", "cells", "boundary_indices")
    return built if all(map(np.array_equal, layout(mesh), layout(built))) else None


def _element_rows(mesh: LevelMesh, p: int = 0) -> np.ndarray:
    """``mesh``'s rows of ``p``-vertex elements (edges for 2, else cells), or
    with no ``p`` the rows that are its copies: cells, or edges when it has none."""
    return mesh.edges if p == 2 or not (p or mesh.num_cells) else mesh.cells


def _copy_table(mesh: LevelMesh) -> np.ndarray:
    """(copy, seed vertex) -> vertex of ``mesh``, for a mesh laid out as
    ``build_level(mesh.family, mesh.level)`` (``_built``): the rows that are
    its copies (``_element_rows``); any other mesh raises ``GeometryError``.

    The copy tree lays out a level's cells (edges) as the ``m**n`` images
    of the seed's cells (edges), one block per word of maps in
    lexicographic order (``_element_blocks``), and each image is a row of
    the table (``_structure`` refuses any other seed)."""
    if _built(mesh) is None:
        raise GeometryError("a copy table needs the vertex count, boundary, edges or cells "
                            "of a level as build_level builds it")
    return _element_rows(mesh)


def _level_index(level) -> int:
    """``operator.index(level)``; anything else, or a negative level, raises
    ``UsageError``: 2.7 is not read as level 2, nor ``True`` as level 1."""
    try:
        if isinstance(level, bool):  # operator.index(True) is 1
            raise TypeError
        level = operator.index(level)
    except TypeError:
        raise UsageError(f"level must be an integer, got {level!r}") from None
    if level < 0:
        raise UsageError("level must be nonnegative")
    return level


def iterate(ifs: IFSystem, n: int) -> LevelMesh:
    """Apply the union map ``n`` times to ``ifs.seed`` and return the mesh;
    level 0 is the seed itself.  Each level is found geometrically
    (``_refine``): coincident vertices are merged, and edges and cells kept
    as each copy gives them; a system whose copies share an edge (a repeated
    or an overlapping map) raises ``GeometryError``."""
    mesh = ifs.seed
    for _ in range(_level_index(n)):
        mesh = _refine(ifs, mesh)
    return mesh


@functools.lru_cache(maxsize=None)
def _structure(family: str) -> tuple[LevelMesh, np.ndarray, float]:
    """The self-similar structure of a built-in family: ``(seed, glue,
    grow)``, its level-0 mesh, its gluing table ``(child, seed vertex) ->
    level-1 vertex`` and ``1/r``, the reciprocal of the one similarity ratio
    of its maps (3, or 2 for Sierpinski).  Read off the seed's one geometric
    refine (``_refine``); every level's copy tree is walked by it
    (``_depth_walk``).
    A seed that is not one cell, or else one edge, listing all its vertices
    in order, all of them boundary vertices, has no copy table
    (``_copy_table``) and raises ``GeometryError``."""
    ifs = builtin_system(family)
    seed = ifs.seed
    pos = _element_rows(seed)
    if pos.tolist() != [seed.boundary_indices.tolist()] or pos.size != seed.num_vertices:
        raise GeometryError("a copy table needs a seed of one cell or edge "
                            "listing its vertices in order")
    grow = float(1.0 / np.linalg.norm(ifs.maps[0].linear, 2))
    return seed, _element_rows(_refine(ifs, seed)), grow


@functools.lru_cache(maxsize=None)
def _layout(family: str, level: int):
    """``(place, offsets)``, immutable and made once per process: level
    ``level >= 1`` of ``family`` has its level-1 vertex ``g`` at
    ``place[g]`` and copy ``i``'s vertex ``v >= nb`` at ``v + offsets[i]``,
    each copy (a level ``level - 1``) having ``inner`` vertices past V0.  A
    new level-1 vertex follows the interiors of the copies before the first
    that names it, and copy ``i``'s interior the new level-1 vertices that
    copies 0..i name."""
    glue = _structure(family)[1]
    nb = glue.shape[1]
    inner = predicted_vertices(family, level - 1) - nb
    child = np.unique(glue, return_index=True)[1] // nb
    place = np.arange(child.size)
    place[nb:] += child[nb:] * inner
    return _frozen(place, np.int64), tuple(int(np.count_nonzero(child[nb:] <= i)) + i * inner
                                           for i in range(len(glue)))


def _depth_walk(family: str, level: int, depth: int, corners: bool = True):
    """The copies of depth ``depth`` of ``build_level(family, level)`` (the
    level itself is depth 0, its ``m**level`` leaves depth ``level``) in
    copy-table order, a block at a time: ``(s, v0, first)``, copy ``w`` of
    the depth (``s.start <= w < s.stop``) having its seed vertices (V0) at
    ``v0[w - s.start]`` and, above the leaves, its new level-1 vertices at
    ``first[w - s.start] + new`` (``_copy_starts``).  At depth ``level`` the
    ``v0`` rows are those of the copy table (``_copy_table``).  With no
    ``corners``, ``v0`` is None.

    Each block holds the children of at most ``_SCAN_ROWS // m`` copies of
    the parent depth, walked the same way: a child's V0 vertices are its
    parent's V1 vertices at its glue row, and its start is its parent's plus
    the glue's offset (``_layout``).  So one block of each depth above is
    held, and each block but the top's one copy has two copies at least (no
    product of a block is a one-row product, ``_blocks``)."""
    glue = _structure(family)[1]
    m, nb = glue.shape
    if not depth:
        yield slice(0, 1), np.arange(nb)[None] if corners else None, np.zeros(1, np.int64)
        return
    place, offsets = _layout(family, level - depth + 1)
    step, lo, rows = max(_SCAN_ROWS // m, 1), 0, glue.tolist()
    for _, v0, first in _depth_walk(family, level, depth - 1, corners):
        for k in range(0, len(first), step):  # the children of ``step`` parents at a time
            parents, kids = first[k:k + step], None
            starts = np.empty((len(parents), m), np.int64)
            for i in range(m):  # column by column: no gather
                np.add(parents, offsets[i], out=starts[:, i])
            if corners:
                kids = np.empty((len(parents), m, nb), np.int64)
                for i, row in enumerate(rows):
                    for a, g in enumerate(row):  # child i's seed vertex a is level-1 vertex g
                        if g < nb:
                            kids[:, i, a] = v0[k:k + step, g]
                        else:
                            np.add(parents, place[g], out=kids[:, i, a])
                kids = kids.reshape(-1, nb)
            yield slice(lo, lo + starts.size), kids, starts.ravel()
            lo += starts.size


def _copy_starts(family: str, level: int, upward: bool = False):
    """The depths of ``build_level(family, level)`` from the top, or from the
    leaves up with ``upward``: ``(walk, new)``, each copy of a block
    ``(s, v0, first)`` of the depth's walk (``_depth_walk``) having its new
    level-1 vertices at ``first[:, None] + new`` (``_layout``); ``v0`` is None."""
    nb = _structure(family)[1].shape[1]
    for d in reversed(range(level)) if upward else range(level):
        yield _depth_walk(family, level, d, corners=False), _layout(family, level - d)[0][nb:]


def _leaf_rows(family: str, level: int):
    """The copy table of ``build_level(family, level)`` (``_copy_table``),
    a block of rows at a time, read off the depth walk (``_depth_walk``)."""
    return (v0 for _, v0, _ in _depth_walk(family, level, level))


def _element_blocks(template: LevelMesh, level: int, p: int):
    """The rows of ``p``-vertex elements (``_element_rows``) of
    ``build_level(template.family, level)``, bit for bit, as ``(b, rows)``:
    the built level ``template``'s rows under each of its copies in
    ``level`` (``_depth_walk``), with no level above it built.  A copy has
    template vertex ``v`` at its seed vertex ``v0[v]`` for ``v < nb`` and at
    ``first + v`` past them (``_layout``).  The seed's rows go under a block
    of leaves at a time (``_copy_table``), a larger template's under one
    copy at a time in the blocks of ``_blocks``, so that making a level
    holds one block of its template's rows beside it."""
    rows, nb = _element_rows(template, p), template.boundary_indices.size
    k = len(rows)
    for s, v0, first in _depth_walk(template.family, level, level - template.level) if k else ():
        if not template.level:
            out, lo = v0[:, rows].reshape(-1, p), s.start * k
            for b in _blocks(len(out)):
                yield slice(lo + b.start, lo + b.stop), out[b]
            continue
        for w, start in enumerate(first.tolist()):
            for b in _blocks(k):
                out, low = np.add(rows[b], start), rows[b] < nb
                out[low] = v0[w, rows[b][low]]
                yield slice((s.start + w) * k + b.start, (s.start + w) * k + b.stop), out


def _template_level(family: str, level: int) -> int:
    """The template that ``generate`` and ``solve`` hand ``_vertex_blocks``:
    the largest level up to ``level`` with at most ``_SCAN_ROWS`` vertices,
    or the seed's."""
    t = 0
    while t < level and predicted_vertices(family, t + 1) <= _SCAN_ROWS:
        t += 1
    return t


def _pieces(maps, tables, news, template: LevelMesh, n: int, word):
    """The interior of the copy of level ``n`` at ``word`` (``_vertex_blocks``)
    in pieces, down to the template's level.  It takes what it reads: a
    nested generator naming itself is a reference cycle, which would hold
    the template until the cyclic collector ran (``cli.run`` turns it off)."""
    nb = template.boundary_indices.size
    if n == template.level:  # a block at a time: no template-sized temporary
        for b in _blocks(template.num_vertices):
            yield _map_rows(maps, template.vertices[b], word)[max(nb - b.start, 0):]
        return
    v1 = _map_rows(maps, tables[n], word)
    for i in range(len(maps)):
        yield v1[news[i]]
        yield from _pieces(maps, tables, news, template, n - 1, [*word, i])


def _vertex_blocks(template: LevelMesh, level: int, out=None):
    """The vertices of ``build_level(template.family, level)``, bit for bit,
    as ``(b, rows)`` in the blocks of ``_blocks``, each a new array or, with
    ``out``, ``out[b]``: made from the built level ``template`` at or below
    ``level``, with no level above it built.

    A level's vertex order is a pre-order walk of its copy tree (``_layout``):
    its boundary, then for each copy ``i`` the new level-1 vertices that ``i``
    names first, then ``i``'s interior, laid out the same way one level down.
    The copies at the template's level are the template's interior under
    the maps of their word; every other vertex is a level-1 vertex of some
    copy, whose bits are those of the first child naming it in that copy's
    own level (written last to first).  Every row is mapped by
    ``_map_rows``, innermost map first, and never as a one-row product: the
    level-1 vertices of a copy are mapped all together, and the template
    with its boundary, in the blocks of ``_blocks``."""
    family, t, glue = template.family, template.level, _structure(template.family)[1]
    maps, (m, nb) = builtin_system(family).maps, glue.shape
    child = np.unique(glue, return_index=True)[1] // nb  # the first child naming each vertex
    news = [np.flatnonzero(child[nb:] == i) + nb for i in range(m)]
    tables, corners = {}, template.vertices[:nb]
    for n in range(t + 1, level + 1):  # level n's level-1 vertices, in its own frame
        tables[n] = np.empty((glue.max() + 1, template.dimension))
        for i in reversed(range(m)):
            tables[n][glue[i]] = _map_rows(maps, corners, [i])
        corners = tables[n][:nb]
    source = itertools.chain([corners], _pieces(maps, tables, news, template, level, []))
    rows, at = next(source), 0
    for b in _blocks(predicted_vertices(family, level)):
        dst = np.empty((b.stop - b.start, template.dimension)) if out is None else out[b]
        filled = 0
        while filled < len(dst):
            if at == len(rows):
                rows, at = next(source), 0
            k = min(len(dst) - filled, len(rows) - at)
            dst[filled:filled + k] = rows[at:at + k]
            filled, at = filled + k, at + k
        yield b, dst


def predicted_vertices(family: str, level: int) -> int:
    """The vertex count of ``build_level(family, level)``, in Python ints.

    A level is m copies of the one below joined at c = m V_0 - V_1 vertices,
    so V_{n+1} = m V_n - c, solved from the structure (``_structure``): m
    children in the gluing table, V_0 seed vertices and V_1 level-1 vertices.
    A level that is not a nonnegative integer raises ``UsageError``.
    """
    seed, glue, _ = _structure(family)
    m, v0, v1 = glue.shape[0], seed.num_vertices, int(glue.max()) + 1
    c = m * v0 - v1
    return (c + (v0 * (m - 1) - c) * m**_level_index(level)) // (m - 1)


@functools.cache
def _largest_level(family: str) -> int:
    """The last level of ``family`` whose predicted vertex count is at most
    ``MAX_VERTICES``, found once per process."""
    largest = 0  # counts grow with the level: find the last that fits
    while predicted_vertices(family, largest + 1) <= MAX_VERTICES:
        largest += 1
    return largest


def check_level(family: str, level: int) -> None:
    """Refuse with ``UsageError`` a level that is not a nonnegative integer
    (``_level_index``) or one whose predicted vertex count exceeds
    ``MAX_VERTICES``, before anything is built."""
    level = _level_index(level)
    largest = _largest_level(family)
    if level > largest:
        raise UsageError(
            f"{family} level {level} would exceed {MAX_VERTICES} vertices; "
            f"the largest {family} level allowed is {largest}"
        )


# The built levels that something still references, by (family, level).
_LEVELS = weakref.WeakValueDictionary()


def build_level(family: str, level: int) -> LevelMesh:
    """``iterate(builtin_system(family), level)``, bit for bit; meshes are
    immutable.

    A level that something still references is returned as it is.  Any
    other is made from the finest such level below it, or from the seed,
    one level at a time and with no search: level n's vertices come from
    the walk of its copy tree with level n - 1 as the template
    (``_vertex_blocks``), and its edges and cells are level n - 1's placed
    in each of its copies (``_element_blocks``).  Each level made on the way
    is let go of once the next one is filled; the process keeps no level
    that its callers do not hold.  An oversized level is refused by
    ``check_level`` on every call.

    A level made here skips ``LevelMesh``'s checks, which hold by
    induction.  ``_structure`` admits only a seed that is one cell or edge
    listing all its vertices, so two copies sharing two vertices would give
    the checked level-1 ``_refine`` a duplicate edge: two rows of the
    gluing table share one entry at most.  Each copy is placed injectively,
    its interior at fresh indices below the new count and its V0 at its
    gluing row's distinct entries (``_layout``), so no self-loop, repeated
    cell vertex, duplicate edge, cell side that is not an edge or index out
    of range appears at any level.
    """
    check_level(family, level)
    level = operator.index(level)  # a numpy level finds the int-keyed level
    below = level
    while below and (family, below) not in _LEVELS:
        below -= 1
    ifs = builtin_system(family)
    seed, m = ifs.seed, len(ifs.maps)
    mesh = _LEVELS.get((family, below), seed)
    while mesh.level < level:
        n = mesh.level + 1
        verts = np.empty((predicted_vertices(family, n), seed.dimension))
        for _ in _vertex_blocks(mesh, n, verts):
            pass
        elements = {}
        for p in (2, 3):  # each made once the one before is filled
            rows = elements[p] = np.empty((m * len(_element_rows(mesh, p)), p), np.int32)
            for b, block in _element_blocks(mesh, n, p):
                rows[b] = block
        made = object.__new__(LevelMesh)  # no checks: see the induction above
        vars(made).update(family=seed.family, level=n, vertices=_frozen(verts, float),
                          edges=_frozen(elements[2], np.int32),
                          cells=_frozen(elements[3], np.int32),
                          boundary_indices=seed.boundary_indices)
        mesh = _LEVELS[family, n] = made
    return mesh


def embed(coarse: LevelMesh, fine: LevelMesh) -> EmbeddingMap:
    """Map every coarse vertex to the coinciding fine vertex.

    Accepts ``fine`` at the same level (identity embedding) or one level up.
    The fine vertices, then the coarse ones, are merged by the dedup of the
    geometric refine (``_dedup``) with the fine dedup tolerance, so each
    coarse vertex goes to the first fine vertex within it.  Two
    vertices at a distance in ``(tol/10, tol]`` raise its "dedup ambiguity"
    ``GeometryError``; so does a coarse vertex with no fine vertex within
    the tolerance, or a fine vertex taken by two coarse ones.
    """
    if fine.family != coarse.family:
        raise GeometryError("cannot embed meshes from different families")
    if fine.level not in (coarse.level, coarse.level + 1):
        raise GeometryError(
            f"embedding expects fine level in {{{coarse.level}, {coarse.level + 1}}}, "
            f"got {fine.level}"
        )
    nf = fine.num_vertices
    assign, uniq_rows = _dedup(np.vstack([fine.vertices, coarse.vertices]), fine.dedup_tolerance)
    idx = uniq_rows[assign[nf:]]
    missing = int((idx >= nf).sum())
    if missing:
        raise GeometryError(
            f"{missing} coarse vertices have no fine counterpart; incompatible meshes"
        )
    if np.bincount(idx).max(initial=0) > 1:
        raise GeometryError("embedding is not injective; incompatible meshes")
    return EmbeddingMap(coarse.level, fine.level, idx)
