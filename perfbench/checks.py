"""Output checks for the benchmark's fraclap commands.

Each check returns ``None`` when the file a command wrote is correct and a
one-line reason otherwise.  The references are independent of the code under
test: closed-form vertex counts, mesh digests recorded at the commit that
introduced the benchmark (meshes must stay bit-identical), the known
renormalization constants, and a backward error computed from an operator
assembled here from the mesh arrays.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.sparse as sp

# sha256 of the float64 vertex array, then the int64 edge and cell arrays
# (C order, native byte order), of the mesh each command sees.
MESH_DIGESTS = {
    ("sierpinski", 4): "09216a33b670c4bd8e07d9f1a7974492bdc22a163d4b5604251be8c290fa9f55",
    ("hata2d", 3): "bddbaeb4a489a256dff24922a8c7da814cdd076efdd1332f61c3eeb32ccf17e7",
    ("hata3d", 3): "35f78f2774061e4955c3332733eb7cc67b1ef609ba039756f174a42103ce30fe",
    ("sierpinski", 10): "83e9f10c64a25ac3bc028fad3bf1b348334ab3f5a9cca6915483ab65d3667780",
    ("hata2d", 7): "55870a1b1e35d42de0409539cb2da253248588aa3858a2548bd3c7d13859b782",
    ("hata3d", 6): "6fcae83885a2d65ead302493e9a3e8a44090d86e28e9aeeea9bcf04ae1509409",
}

# Limit of the last-pair mean of ``fraclap renorm``, per family and method.
# Sierpinski, Koch and planar Hata are the known constants.  The two Hata fd
# constants and non-planar Hata fem-edge have none in the literature; the
# ratio fields converge to 15, 18 and 2 (their maxima agree to 11 digits from
# level 4 on).
CONSTANTS = {
    ("sierpinski", "fd"): 5.0,
    ("sierpinski", "fem-area"): 5.0 / 4.0,
    ("koch", "fem-edge"): 16.0 / 9.0,
    ("hata2d", "fem-edge"): 5.0 / 3.0,
    ("hata2d", "fd"): 15.0,
    ("hata3d", "fd"): 18.0,
    ("hata3d", "fem-edge"): 2.0,
}
CONSTANT_TOLERANCE = 1e-3  # relative to the constant

# Normwise backward error |b - Ax| / (|A| |x| + |b|) (infinity norms) that a
# written solution must meet; a backward-stable solve gives about 1e-16.
BACKWARD_ERROR_LIMIT = 1e-12

TABLE_HEADER = "pair,max,mean,min,excluded_count"


def vertex_count(family: str, level: int) -> int:
    if family == "sierpinski":
        return (3 ** (level + 1) + 3) // 2
    return {"koch": 4, "hata2d": 5, "hata3d": 6}[family] ** level + 1


def mesh_digest(vertices, edges, cells) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(vertices, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(edges, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, 3).tobytes())
    return h.hexdigest()


def check_mesh(mesh, family: str, level: int, nb: int):
    """Counts, boundary order and digest of a mesh of ``family`` at ``level``
    with ``nb`` boundary vertices."""
    expected = vertex_count(family, level)
    if mesh.vertices.shape[0] != expected:
        return f"{mesh.vertices.shape[0]} vertices, expected {expected}"
    if not np.array_equal(mesh.boundary_indices, np.arange(nb)):
        return f"boundary indices {mesh.boundary_indices.tolist()}, expected 0..{nb - 1}"
    digest = MESH_DIGESTS.get((family, level))
    if digest and mesh_digest(mesh.vertices, mesh.edges, mesh.cells) != digest:
        return "mesh arrays differ from the recorded digest"
    return None


def check_generate(path, family: str, level: int, nb: int):
    from fraclap.meshfile import read_mesh

    mesh = read_mesh(path)
    if (mesh.family, mesh.level) != (family, level):
        return f"document is {mesh.family} level {mesh.level}"
    return check_mesh(mesh, family, level, nb)


def check_renorm(path, family: str, method: str, levels: tuple[int, int]):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        return "missing table header"
    a, b = levels
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [f"{n}:{n + 1}" for n in range(a, b)]:
        return f"table pairs {[r[0] for r in rows]} do not cover {a}:{b}"
    for r in rows:
        hi, mean, lo = (float(v) for v in r[1:4])
        if not (math.isfinite(hi) and math.isfinite(lo) and lo <= mean <= hi):
            return f"pair {r[0]}: max/mean/min {hi}, {mean}, {lo} out of order"
    constant = CONSTANTS[(family, method)]
    mean = float(rows[-1][2])
    if abs(mean - constant) > CONSTANT_TOLERANCE * constant:
        return f"last-pair mean {mean!r} is not within {CONSTANT_TOLERANCE} of {constant!r}"
    return None


def _stiffness(method: str, vertices, edges, cells):
    n = vertices.shape[0]
    if method == "rfem2d":
        p = vertices[cells]
        e = p[:, (2, 0, 1), :] - p[:, (1, 2, 0), :]
        area = 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
        local = np.einsum("cid,cjd->cij", e, e) / (4.0 * area)[:, None, None]
        rows = np.repeat(cells, 3, axis=1).ravel()
        cols = np.tile(cells, (1, 3)).ravel()
        return sp.csr_array(sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)))
    if method == "rfd":
        w = np.ones(edges.shape[0])
    else:  # rfem1d: conductance 1/length per edge
        w = 1.0 / np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([w, w, -w, -w])
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


def _load(method: str, vertices, edges, cells, g):
    if method == "rfd":
        return g
    b = np.zeros(vertices.shape[0])
    if method == "rfem1d":  # half the exact edge-length load
        i, j = edges[:, 0], edges[:, 1]
        length = np.linalg.norm(vertices[i] - vertices[j], axis=1)
        np.add.at(b, i, 0.5 * length * (g[i] / 3.0 + g[j] / 6.0))
        np.add.at(b, j, 0.5 * length * (g[j] / 3.0 + g[i] / 6.0))
        return b
    p = vertices[cells]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    gc = g[cells]
    total = gc.sum(axis=1)
    for k in range(3):
        np.add.at(b, cells[:, k], area * (gc[:, k] + total) / 12.0)
    return b


def backward_error(a, x, b) -> float:
    """Normwise backward error of ``x`` as a solution of ``a x = b``."""
    r = b - a @ x
    norm_a = float(abs(a).sum(axis=1).max()) if a.shape[0] else 0.0
    scale = norm_a * float(np.abs(x).max()) + float(np.abs(b).max())
    return float(np.abs(r).max()) / scale if scale else 0.0


def read_solution(path):
    meta = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return meta, rows


def check_solve(path, mesh, method: str, bc: list[float], ab):
    """Check a solution file against ``mesh`` and the command's inputs.

    ``ab`` is ``(a, b)`` for the forcing ``sin(a*x+b*y)``, or ``None`` for a
    zero forcing.
    """
    meta, rows = read_solution(path)
    vertices = mesh.vertices
    n, dim = vertices.shape
    if rows.shape != (n, dim + 1):
        return f"solution has shape {rows.shape}, expected {(n, dim + 1)}"
    if not np.array_equal(rows[:, :dim], vertices):
        return "solution coordinates differ from the mesh vertices"
    x = rows[:, dim]
    nb = len(bc)
    if not np.array_equal(x[:nb], bc):
        return f"boundary values {x[:nb].tolist()} do not reproduce --bc {bc}"
    if not np.isfinite(x).all():
        return "solution has non-finite values"
    if ab is None:
        lo, hi = min(bc), max(bc)
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if x.min() < lo - slack or x.max() > hi + slack:
            return (f"range [{x.min()!r}, {x.max()!r}] violates the maximum "
                    f"principle for boundary values in [{lo}, {hi}]")
        g = np.zeros(n)
    else:
        g = np.sin(ab[0] * vertices[:, 0] + ab[1] * vertices[:, 1])
    constant = float(meta.get("constant") or "nan")
    if not constant > 0:
        return f"header constant {meta.get('constant')!r} is not positive"
    a = _stiffness(method, vertices, mesh.edges, mesh.cells) * constant ** mesh.level
    load = _load(method, vertices, mesh.edges, mesh.cells, g)
    interior = np.arange(nb, n)
    be = backward_error(a[interior], x, load[interior])
    if not be <= BACKWARD_ERROR_LIMIT:
        return f"backward error {be:.3e} exceeds {BACKWARD_ERROR_LIMIT:.0e}"
    return None
