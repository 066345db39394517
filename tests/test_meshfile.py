"""Mesh document round trip and the table/solution writers."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraclap
from fraclap import geometry
from fraclap.errors import UsageError
from fraclap.geometry import FAMILIES, RELATIVE_TOLERANCE, LevelMesh, build_level
from fraclap.measures import _elements
from fraclap.meshfile import read_mesh, write_mesh, write_solution, write_table
from fraclap.renorm import RenormEstimate, estimate_laplacian_ratio, solve_online
from fraclap.solver import Solution, solve_dirichlet

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))


@pytest.mark.parametrize("family", FAMILIES)
def test_mesh_round_trip_is_bit_exact(family, tmp_path):
    mesh = build_level(family, 2)
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.family == mesh.family
    assert back.level == mesh.level
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.edges, mesh.edges)
    np.testing.assert_array_equal(back.cells, mesh.cells)
    np.testing.assert_array_equal(back.boundary_indices, mesh.boundary_indices)
    # one rule: both take it from the shortest edge of the mesh
    assert back.dedup_tolerance == mesh.dedup_tolerance


# Writes and reads back the largest hata2d document in a child process, so
# that the read (about 0.8 GiB) adds nothing to this process's cached levels.
_DEEP_ROUND_TRIP = """
import sys
from fraclap.geometry import build_level
from fraclap.meshfile import read_mesh, write_mesh
mesh = build_level("hata2d", 9)
write_mesh(mesh, sys.argv[1])
back = read_mesh(sys.argv[1])
for key in ("vertices", "edges", "cells", "boundary_indices"):
    a, b = getattr(back, key), getattr(mesh, key)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
assert (back.family, back.level) == (mesh.family, mesh.level)
assert back.dedup_tolerance == mesh.dedup_tolerance
"""


@pytest.mark.deep
def test_mesh_round_trip_at_hata2d_9_is_bit_exact(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _DEEP_ROUND_TRIP, str(tmp_path / "mesh.json")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_mesh_document_fields(tmp_path):
    mesh = build_level("sierpinski", 1)
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"family", "level", "dimension",
                        "vertices", "edges", "cells", "boundary"}
    assert doc["dimension"] == 2
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 9
    assert len(doc["cells"]) == 3
    assert doc["boundary"] == [0, 1, 2]


def test_hata3d_document_is_three_dimensional(tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(build_level("hata3d", 2), path)
    doc = json.loads(path.read_text())
    assert doc["dimension"] == 3
    assert all(len(v) == 3 for v in doc["vertices"])


def test_malformed_document_rejected(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text("{not json")
    with pytest.raises(UsageError):
        read_mesh(path)
    path.write_text(json.dumps({"family": "x"}))
    with pytest.raises(UsageError):
        read_mesh(path)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    json.dumps({"vertices": None}).replace("null", "[" * 50_000 + "]" * 50_000),
], ids=["nested-document", "nested-vertices"])
def test_deeply_nested_document_rejected(tmp_path, text):
    # the decoder's recursion limit is a malformed document, not a crash
    path = tmp_path / "mesh.json"
    path.write_text(text)
    with pytest.raises(UsageError, match="malformed mesh document"):
        read_mesh(path)


def test_non_ascii_document_rejected(tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(build_level("koch", 1), path)
    doc = json.loads(path.read_text())
    doc["family"] = "koch\u00e9"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(UsageError, match="malformed mesh document"):
        read_mesh(path)


@pytest.mark.parametrize("key, row, value", [
    ("edges", 0, 99),          # out of range: refused before edge lengths are taken
    ("edges", 0, 1.7),         # not truncated to 1
    ("edges", 0, True),        # JSON true is not read as 1
    ("boundary", None, True),
    ("vertices", 2, True),     # nor as the coordinate 1.0
    ("vertices", 2, "0.5"),    # a string is not a coordinate
], ids=["edge-out-of-range", "fractional-edge", "true-edge", "true-boundary", "true-coordinate",
        "string-coordinate"])
def test_malformed_indices_rejected(tmp_path, key, row, value):
    path = tmp_path / "mesh.json"
    write_mesh(build_level("koch", 1), path)
    doc = json.loads(path.read_text())
    entries = doc[key] if row is None else doc[key][row]
    entries[-1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="malformed mesh document"):
        read_mesh(path)


@pytest.mark.parametrize("key, value", [
    ("level", 1.7),
    ("level", True),
    ("level", "1"),
    ("level", -3),
    ("family", 5),
    ("family", None),
], ids=["fractional-level", "true-level", "string-level", "negative-level",
        "number-family", "null-family"])
def test_malformed_level_or_family_rejected(tmp_path, key, value):
    # both fields select the level's elements (measures._level): nothing is
    # coerced into a level or a family name
    path = tmp_path / "mesh.json"
    write_mesh(build_level("koch", 1), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="malformed mesh document"):
        read_mesh(path)


_PATH_DOCUMENT = {
    "family": "path", "level": 0, "dimension": 2,
    "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
    "edges": [[0, 1], [1, 2], [2, 3]], "cells": [], "boundary": [0, 3],
}


@pytest.mark.parametrize("key, value", [
    ("vertices", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
    ("edges", [[0, 1, 2], [1, 2, 3]]),
    ("vertices", [0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]),
    ("edges", [0, 1, 1, 2, 2, 3]),
    ("cells", [0, 1, 2]),
    ("dimension", 1),
    ("boundary", [[0], [3]]),
], ids=["3-d-rows-in-a-planar-document", "edges-of-three", "flat-vertices", "flat-edges",
        "flat-cells", "dimension-1", "boundary-rows"])
def test_rows_of_the_wrong_width_are_refused(tmp_path, key, value):
    # not reshaped: 4 rows of 3 coordinates are not 6 planar vertices, and
    # edges [[0, 1, 2], [1, 2, 3]] are not [[0, 1], [2, 1], [2, 3]]
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(_PATH_DOCUMENT))
    assert read_mesh(path).num_edges == 3
    path.write_text(json.dumps({**_PATH_DOCUMENT, key: value}))
    with pytest.raises(UsageError, match="malformed mesh document"):
        read_mesh(path)


@pytest.mark.parametrize("change, message", [
    ({"dimension": 1, "vertices": [[0.0], [1.0], [2.0], [3.0]]}, "vertices must be an"),
    ({"vertices": [[0.0, 0.0], [1.0, 0.0], [float("nan"), 0.0], [3.0, 0.0]]},
     "vertex coordinates must be finite"),
    ({"edges": [[0, 1], [1, 2], [2, 4]]}, "edge index out of range"),
    ({"edges": [[0, 1], [1, 2], [2, -1]]}, "edge index out of range"),
    ({"edges": [[0, 1], [1, 2], [2**32 + 2, 3]]}, "edge index out of range"),
    ({"edges": [[0, 1], [1, 2], [2, 2]]}, "self-loop edge"),
    ({"edges": [[0, 1], [1, 2], [2, 3], [1, 0]]}, "duplicate edge"),
    ({"boundary": [0, 4]}, "boundary index out of range"),
    ({"cells": [[0, 1, 4]]}, "cell index out of range"),
    ({"cells": [[0, 1, 1]]}, "degenerate cell"),
    ({"cells": [[0, 1, 2]]}, "cell vertices not pairwise joined"),
], ids=["one-coordinate", "nan-coordinate", "edge-past-the-vertices", "negative-edge",
        "edge-past-int32", "self-loop", "duplicate-edge", "boundary-past-the-vertices",
        "cell-past-the-vertices", "degenerate-cell", "cell-side-without-edge"])
def test_mesh_refusals_are_malformed_documents(tmp_path, change, message):
    # LevelMesh checks the document's structure; each of its refusals is the
    # reader's usage error, with LevelMesh's reason
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({**_PATH_DOCUMENT, **change}))
    with pytest.raises(UsageError, match=f"malformed mesh document: {message}"):
        read_mesh(path)


def test_table_format(tmp_path):
    estimates = [estimate_laplacian_ratio("sierpinski", n) for n in (2, 3)]
    path = tmp_path / "table.csv"
    write_table(estimates, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "pair,max,mean,min,excluded_count"
    assert len(lines) == 3
    for line, est in zip(lines[1:], estimates):
        pair, vmax, vmean, vmin, excl = line.split(",")
        assert pair == f"{est.level_pair[0]}:{est.level_pair[1]}"
        assert float(vmax) == est.max
        assert float(vmean) == est.mean
        assert float(vmin) == est.min
        assert int(excl) == est.excluded_count
    # the whole text, against str.format, with hand-made rows of values that
    # no estimate gives; a reference rather than a digest, since the
    # estimates' bits depend on the BLAS kernel
    estimates += [
        RenormEstimate(level_pair=(4, 5), ratios=np.zeros(1), max=np.inf, mean=np.nan,
                       min=-0.0, excluded_count=7),
        RenormEstimate(level_pair=(5, 6), ratios=np.zeros(1), max=5e-324, mean=-np.inf,
                       min=1 / 3, excluded_count=0),
    ]
    write_table(estimates, path)
    assert path.read_text() == "pair,max,mean,min,excluded_count\n" + "".join(
        "{}:{},{:.17g},{:.17g},{:.17g},{}\n".format(
            *est.level_pair, est.max, est.mean, est.min, est.excluded_count)
        for est in estimates)


def test_solution_file_layout(tmp_path):
    mesh = build_level("sierpinski", 2)
    solution = solve_dirichlet(mesh, *_elements(mesh, "fd"), np.zeros(mesh.num_vertices),
                               {0: 1.0, 1: 0.0, 2: 0.0})
    sol = dataclasses.replace(solution, method="rfd",
                              renorm_constant_applied=5.0)
    path = tmp_path / "solution.csv"
    write_solution(mesh, sol, path, extra={"rhs": "0"})
    lines = path.read_text().strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    meta = dict(ln[2:].split("=", 1) for ln in header)
    assert meta["method"] == "rfd"
    assert meta["level"] == "2"
    assert float(meta["constant"]) == 5.0
    assert float(meta["residual"]) == sol.solver_residual
    assert meta["rhs"] == "0"
    assert len(rows) == mesh.num_vertices
    first = rows[0].split(",")
    assert len(first) == 3  # x, y, value
    assert float(first[2]) == sol.values[0]


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of write_mesh output, recorded with the json.dump writer; level 0
# and the cell-free families (koch, hata) write "cells": [].
MESH_FILE_DIGESTS = {
    ("koch", 0): "bcf5a76a24f98a8e014a1ada1542486eb08ac848d20073851a173783aa8453de",
    ("koch", 1): "ab0544167edb362ea8322bd8b0f143df309906f9be1960218d1704a50378b44a",
    ("koch", 2): "bdb2e22262073ee6ee0d683b8d1d947a9d6f3e4a4f05926a72413a1424873be1",
    ("koch", 3): "0ae50fd3197b71682d77e3d398f2545704df230c362c4bde9657b3b5437ef0a0",
    ("koch", 4): "7e9b596865db69aaed368c6b86aca848849917c102c3078c2472b1d1569051b1",
    ("koch", 5): "413fc42dc208ee93f655ac13bb1510b2e961d71c9000695c7a69d2d0e5c46be8",
    ("koch", 6): "c10f9b82766fec4cb5d785ac8eb5d61cc6d3f7d37fc6ea34610f44c8fc5d5efe",
    ("sierpinski", 0): "ad01b71b503ad5b1ce362024497aff6c0f595c44bc7412253316750c35a692be",
    ("sierpinski", 1): "2603816e53ebf7be89cbf9312506a511229ca521703e96446420caa4f9892163",
    ("sierpinski", 2): "7f0d4d78aca79225e78427afe84a2fdcb00b6fdfd1333adb487cbf21392de78b",
    ("sierpinski", 3): "bd4c35fefa70cfd1e07a35b5626fc1c613926f89485520b89c2c974944eda848",
    ("sierpinski", 4): "844601752f3b074fa70cc2fe92770d6ac3d2ce0fef6d886b8c411867b9b302ad",
    ("sierpinski", 5): "2adbd4d69afc44be8fc3c66b277121af3c6af218b9e82e0bb1de191f644a0e36",
    ("sierpinski", 6): "e11080aa2dbc9212268ee40a0f6e1ce7ded56e74e08f4bd2299190b7e11a5109",
    ("sierpinski", 7): "8d3b21b9dc808c6a87f86254283bc4d360812148c08aed5f115ea41fa4e5d782",
    ("hata2d", 0): "806220f4fbaf0f6d4eeb1ee6466afcc2ebc7fe503c75ae019289d10a24f3d160",
    ("hata2d", 1): "03de2c9a10f2b2cbb7776a8661103f9da48ccfb642a2415379e166000026c681",
    ("hata2d", 2): "4affab36ed586047e7a7d8722840509184a8cab9fc2511aa9d4e75f0a88bcbcc",
    ("hata2d", 3): "e6a58a9866032d26b775e23f9c0410ad6f0c39794950834faa68a067bc6539d1",
    ("hata2d", 4): "9250ac4c07b8b95617fe8270edb1cbb97aa18880f74d4c66dfb0760ac835d345",
    ("hata2d", 5): "c9fb50081ec8a62a1d8fd45b7ca5e9993b010a1f8d111e21ecab91fda958b1cc",
    ("hata3d", 0): "eba86546d8c3c6697d2d83bf84b08c258b3255c6b7a06f3054d587e6e8bfdf08",
    ("hata3d", 1): "3cd0a03bf668c5ec89f3f6c6e4abfb9cd90f4a94fe7cae1626b245aa096c9fe9",
    ("hata3d", 2): "1f13a7c9cd177967d24e511962e443c9687d6b78f9d8e9f5ea753afb6cd3fa8a",
    ("hata3d", 3): "822077520e331d73e7d1c07ea14d1fef8b3b6e69b441d872272251e55a673ac7",
    ("hata3d", 4): "b4dbec558211475d2a868b9e490e1e420bad37a4205658d00d2cf3661042c894",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_mesh_documents_are_byte_identical(family, tmp_path):
    path = tmp_path / "mesh.json"
    for n in sorted(n for f, n in MESH_FILE_DIGESTS if f == family):
        write_mesh(build_level(family, n), path)
        assert _file_digest(path) == MESH_FILE_DIGESTS[family, n], n


def _json_dump(mesh):
    """The mesh document as ``json.dump(doc, fh, indent=1)`` writes it."""
    doc = {
        "family": mesh.family,
        "level": mesh.level,
        "dimension": mesh.dimension,
        "vertices": mesh.vertices.tolist(),
        "edges": mesh.edges.tolist(),
        "cells": mesh.cells.tolist(),
        "boundary": mesh.boundary_indices.tolist(),
    }
    return json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_mesh_document_is_the_json_dump_layout(family, tmp_path):
    path = tmp_path / "mesh.json"
    for n in (0, 2, 5):
        mesh = build_level(family, n)
        write_mesh(mesh, path)
        assert path.read_text() == _json_dump(mesh), n


def _solution_cases():
    """(name, mesh, solution, extra) for the solution-file gate: every solve
    method, 3-D rows, a solution without a constant, and extra header keys."""
    cases = []
    for family, n, method, constant in [
        ("sierpinski", 4, "rfd", 5.0),
        ("sierpinski", 4, "rfem1d", 1.25),
        ("sierpinski", 4, "rfem2d", 1.25),
        ("hata3d", 3, "rfd", 2.0),
    ]:
        mesh = build_level(family, n)
        g = 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
        h = {int(i): 1.0 / (k + 3) for k, i in enumerate(mesh.boundary_indices)}
        sol = solve_online(family, n, method, constant, g, h)
        cases.append((f"{family}-{n}-{method}", mesh, sol, None))
    mesh = build_level("sierpinski", 2)
    values = mesh.vertices[:, 0] / 3.0 - mesh.vertices[:, 1] * 1e-300
    values[:6] = [0.0, -0.0, 1e300, -2.5e-310, np.inf, np.nan]
    bare = Solution(values=values, method="dirichlet", level=2,
                    renorm_constant_applied=None, solver_residual=0.0)
    cases.append(("no-constant", mesh, bare, None))
    cases.append(("extra", mesh, bare, {"rhs": "x*y+1", "bc": "1,0,0"}))
    return cases


# sha256 of write_solution output, recorded with the per-value str.format
# writer.  The solved cases also pin the solver's output bits: they were
# re-recorded when solve_online moved from the SuperLU factorization to the
# condensation solver, while the two unsolved cases kept their digests.  The
# rfem1d and rfem2d digests were re-recorded again when a built level took
# one element per level (``measures._elements``); rfd kept its digests.  The
# four solved cases were re-recorded once more when the condensation's Schur
# diagonal came from the carried row sums and the loads from mass elements,
# and again when each depth kept one inverse and both passes became matrix
# products (values moved by at most 5.7e-16 relative).
SOLUTION_FILE_DIGESTS = {
    "sierpinski-4-rfd": "0410c4967a57e025e7a916a21552ff4e39a472a08369cbd599fbc2fd2a07a04b",
    "sierpinski-4-rfem1d": "b350a5b7881e70fdf7681c4d2a8122c8df8ca89e96d0118f9eda33f172eb2e45",
    "sierpinski-4-rfem2d": "d10d8ddc1d0217f108d01c43e1092725d87f6fb37adf3dba0accb720ac089e37",
    "hata3d-3-rfd": "7309a57e02d42e8a32e03152bc6a76f52af35d80e68bd618bf2a1943f7c9fef2",
    "no-constant": "474e2ed0b5891712470433d8b5f7942bbd2e72a9692757f0b6a3c8fd5fd86623",
    "extra": "a92c1605a1167771636eca968dac3259312218bda4788e5ff9057b3364d7fb7f",
}


def test_solution_files_are_byte_identical(tmp_path):
    path = tmp_path / "solution.csv"
    cases = _solution_cases()
    assert [c[0] for c in cases] == list(SOLUTION_FILE_DIGESTS)
    for name, mesh, sol, extra in cases:
        write_solution(mesh, sol, path, extra=extra)
        assert _file_digest(path) == SOLUTION_FILE_DIGESTS[name], name


def test_solution_rows_are_17_digit_values(tmp_path):
    path = tmp_path / "solution.csv"
    for _, mesh, sol, extra in _solution_cases():
        write_solution(mesh, sol, path, extra=extra)
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        expected = [",".join("{:.17g}".format(c) for c in (*point, value))
                    for point, value in zip(mesh.vertices, sol.values)]
        assert rows == expected


# Writer inputs drawn from a small pool so that values repeat: the writers
# format each distinct bit pattern once, so 0.0 and -0.0 must stay apart.
@pytest.mark.parametrize("change", [
    {"edges": []},
    {"vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]},
    {"vertices": [[-1e308, 0.0], [1e308, 0.0], [-1e308, 1e308], [1e308, 1e308]]},
], ids=["no-edges", "zero-length-edge", "edges-longer-than-a-double"])
def test_document_without_usable_edges_is_refused(tmp_path, change):
    # the dedup tolerance is a positive finite part of the shortest edge
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({**_PATH_DOCUMENT, **change}))
    with pytest.raises(UsageError, match="mesh document has no usable edges"):
        read_mesh(path)


def test_document_with_far_apart_points_is_read(tmp_path):
    # a length of 1e200 is a double, although its square is not
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({**_PATH_DOCUMENT, "vertices": [[0.0, 0.0], [1e200, 0.0]],
                                "edges": [[0, 1]], "boundary": [0, 1]}))
    mesh = read_mesh(path)
    assert mesh.edge_lengths().tolist() == [1e200]
    assert mesh.dedup_tolerance == RELATIVE_TOLERANCE * 1e200


# The writers' block size is drawn too, so that rows span block seams.
_FINITE_POOL = [0.0, -0.0, 5e-324, 1e300, 1 / 3, -2.5]
_SOLUTION_POOL = _FINITE_POOL + [np.inf, -np.inf, np.nan]


def test_write_solution_working_set_at_hata3d_6(tmp_path, traced):
    # the writer formats geometry._SCAN_ROWS rows at a time, so what it adds
    # to the process is a block's strings: 2.3 MiB at 4,096 rows, 7.1 MiB at
    # 16,384
    mesh = build_level("hata3d", 6)
    sol = solve_online("hata3d", 6, "rfd", 2.0, np.ones(mesh.num_vertices), {0: 0.0, 1: 1.0})
    path = tmp_path / "solution.csv"
    with traced:
        write_solution(mesh, sol, path, extra={"rhs": "1", "bc": "0,1"})
    assert traced.peak - traced.start <= 3 * 2**20, (traced.peak - traced.start) / 2**20


def _pooled_case(coords, values, block_rows):
    """A triangle mesh on ``coords`` (any number of extra vertices), a
    solution of ``values`` and the writers' block size."""
    mesh = LevelMesh(family="pool", level=0, vertices=coords,
                     edges=[[0, 1], [1, 2], [0, 2]], cells=[[0, 1, 2]],
                     boundary_indices=[0, 1, 2])
    sol = Solution(values=values, method="rfd", level=0,
                   renorm_constant_applied=1.0, solver_residual=0.0)
    return mesh, sol, block_rows


@st.composite
def _pooled_cases(draw):
    n = draw(st.integers(3, 30))
    dim = draw(st.sampled_from([2, 3]))
    coords = draw(st.lists(st.sampled_from(_FINITE_POOL), min_size=n * dim, max_size=n * dim))
    values = draw(st.lists(st.sampled_from(_SOLUTION_POOL), min_size=n, max_size=n))
    return _pooled_case(np.reshape(coords, (n, dim)), np.array(values), draw(st.integers(1, 40)))


_SIGNED_ZEROS = _pooled_case(
    np.array([[0.0, -0.0], [-0.0, 0.0], [5e-324, 0.0]]), np.array([-0.0, 0.0, np.nan]), 2)


@given(case=_pooled_cases())
@example(case=_SIGNED_ZEROS)
def test_mesh_writer_on_repeated_values_is_the_json_dump(case, tmp_path_factory):
    mesh, _, block_rows = case
    path = tmp_path_factory.mktemp("pool") / "mesh.json"
    with mock.patch.object(geometry, "_SCAN_ROWS", block_rows):
        write_mesh(mesh, path)
    assert path.read_text() == _json_dump(mesh)


@given(case=_pooled_cases())
@example(case=_SIGNED_ZEROS)
def test_solution_writer_on_repeated_values_is_per_value_format(case, tmp_path_factory):
    mesh, sol, block_rows = case
    path = tmp_path_factory.mktemp("pool") / "solution.csv"
    with mock.patch.object(geometry, "_SCAN_ROWS", block_rows):
        write_solution(mesh, sol, path)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert rows == [",".join("{:.17g}".format(c) for c in (*point, value))
                    for point, value in zip(mesh.vertices.tolist(), sol.values.tolist())]
