"""Portable file formats: mesh documents (JSON), estimate tables and
solution fields (comma separated).

A mesh document is exactly what ``json.dump(doc, fh, indent=1)`` writes for
the object ``{"family", "level", "dimension", "vertices", "edges", "cells",
"boundary"}`` (in that key order), followed by a newline: one value per
line, each row of ``vertices``/``edges``/``cells`` a nested list, empty
arrays as ``[]``.  Coordinates are Python float reprs (the shortest decimal
that reparses to the same double), so they round-trip bit-exactly.  The
mesh and solution rows go through one block loop (``_write_rows``), not the
pure-Python JSON encoder: one ``%`` operation per block on a row template
repeated once per row, with each distinct coordinate of the block formatted
once (a deep level has few); the bytes are those of formatting every value.
The blocks come from an array or, for ``generate`` and ``solve``, which
hold no level, from the copy tree: the coordinates that
``geometry._vertex_blocks`` makes and the edge and cell rows of
``geometry._element_blocks``.

Table and solution rows are comma-separated ``%.17g`` values, locale
independent; a solution file starts with ``# key=value`` header lines and
then has one ``coordinates...,value`` row per vertex.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, UsageError
from .geometry import LevelMesh, _blocks

if TYPE_CHECKING:  # annotations only: writing a mesh loads no solver
    from .renorm import RenormEstimate
    from .solver import Solution


def _formatted(arr: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value of float64 ``arr``, as a flat object array
    in row-major order, formatting each distinct bit pattern once (so
    ``-0.0`` stays apart from ``0.0``)."""
    bits, inverse = np.unique(arr.ravel().view(np.int64), return_inverse=True)
    strings = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse]


def _row_blocks(arr: np.ndarray):
    """``(b, arr[b])`` for the blocks ``b`` of ``geometry._blocks``."""
    return ((b, arr[b]) for b in _blocks(len(arr)))


def _write_rows(fh, item: str, sep: str, blocks, fmt: str, last) -> None:
    """Write ``item % row`` for each row of the ``(b, rows)`` ``blocks`` of an
    array (``_row_blocks``, or ``geometry._vertex_blocks`` for a level's
    coordinates), joined by ``sep``: a whole ``(vertices, d + 1)`` copy would
    set the peak of a large solve.  A float row's fields are the strings of
    ``_formatted(rows, fmt)``, since coordinates repeat.  Unless ``last`` is
    None, ``item`` formats each row's entry of ``last`` first, as it is
    (solution values are distinct), and escapes the row's fields as ``%%s``."""
    for b, block in blocks:
        fields = _formatted(block, fmt) if block.dtype.kind == "f" else block.ravel()
        rows = sep.join([item] * len(block))
        if last is not None:
            rows %= tuple(last[b].tolist())
        fh.write((sep if b.start else "") + rows % tuple(fields.tolist()))


def write_mesh(mesh: LevelMesh, path) -> None:
    _write_mesh(mesh.family, mesh.level, mesh.dimension, path, *(
        (len(arr), _row_blocks(arr))
        for arr in (mesh.vertices, mesh.edges, mesh.cells, mesh.boundary_indices)))


def _write_mesh(family: str, level: int, dimension: int, path, vertices, edges, cells,
                boundary) -> None:
    """``write_mesh`` with each array as ``(count, blocks)``, its row count
    and its ``(b, rows)`` blocks (``_write_rows``): ``generate`` writes a
    level's rows as ``geometry._vertex_blocks`` and
    ``geometry._element_blocks`` make them, and holds no level."""
    import json  # here and in read_mesh alone: a table or a solution needs none

    with open(path, "w", encoding="ascii") as fh:
        fh.write('{\n "family": %s,\n "level": %s,\n "dimension": %s' % (
            json.dumps(family), json.dumps(level), json.dumps(dimension)))
        for key, (count, blocks), field, width in (
            ("vertices", vertices, "%s", dimension),
            ("edges", edges, "%d", 2),
            ("cells", cells, "%d", 3),
            ("boundary", boundary, "%d", 0),
        ):
            # a row of a 2-D array is a nested list; an empty array is []
            item = "[\n   %s\n  ]" % ",\n   ".join([field] * width) if width else field
            fh.write(f',\n "{key}": [' + ("\n  " if count else ""))
            _write_rows(fh, item, ",\n  ", blocks, "%r", None)
            fh.write("\n ]" if count else "]")
        fh.write("\n}\n")


def _array(doc: dict, key: str, dtype) -> np.ndarray:
    """``doc[key]`` as an int64 array of JSON integers or a float64 array of
    JSON numbers, refusing any other entry: ``1.7`` is not truncated to an
    index, and ``true`` and ``"0.5"`` are not read as 1 and 0.5.  ``LevelMesh``
    checks the indices' range, then keeps them as int32."""
    arr = np.array(doc[key], dtype=object)
    kinds, what = ({int}, "integer indices") if dtype is np.int64 else ({int, float}, "numbers")
    if not set(map(type, arr.flat)) <= kinds:
        raise UsageError(f"malformed mesh document: {key} must be {what}")
    return arr.astype(dtype)


def read_mesh(path) -> LevelMesh:
    """The document's mesh, with int32 indices as a built level's.
    ``LevelMesh`` checks its structure, and any refusal is a "malformed mesh
    document" ``UsageError``.  The mesh derives its dedup tolerance from its
    shortest edge, as a built level does; a document without an edge of
    positive finite length is refused."""
    import json

    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise UsageError(f"malformed mesh document: {exc}") from None
    try:
        dimension = doc["dimension"]
        vertices = _array(doc, "vertices", np.float64)
        edges, cells = _array(doc, "edges", np.int64), _array(doc, "cells", np.int64)
        boundary = _array(doc, "boundary", np.int64)
        family, level = doc["family"], doc["level"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed mesh document: {exc}") from None
    if type(dimension) is not int or vertices.shape[1:] != (dimension,):
        raise UsageError("malformed mesh document: each vertex row must have dimension entries")
    try:
        mesh = LevelMesh(family, level, vertices, edges, cells, boundary)
    except GeometryError as exc:
        raise UsageError(f"malformed mesh document: {exc}") from None
    if not 0.0 < mesh.dedup_tolerance < np.inf:
        raise UsageError("mesh document has no usable edges")
    return mesh


def _table(estimates: list[RenormEstimate], fmt: str) -> str:
    """The header line, then a row per level pair, with ``fmt`` for its values."""
    row = f"%d:%d,{fmt},{fmt},{fmt},%d\n"
    return "pair,max,mean,min,excluded_count\n" + "".join(
        row % (*est.level_pair, est.max, est.mean, est.min, est.excluded_count)
        for est in estimates)


def write_table(estimates: list[RenormEstimate], path) -> None:
    """``_table`` with ``%.17g`` values."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_table(estimates, "%.17g"))


def check_header(meta: dict) -> None:
    """Refuse, with ``UsageError``, a solution header key or value that
    contains a line break or is not ASCII, the file's encoding."""
    for key, value in meta.items():
        line = f"{key}={value}"
        if "\n" in line or "\r" in line:
            raise UsageError(f"solution header must not contain line breaks, got {line!r}")
        if not line.isascii():
            raise UsageError(f"solution header must be ASCII, got {ascii(line)}")


def write_solution(mesh: LevelMesh, solution: Solution, path, extra=None) -> None:
    """Header metadata lines prefixed '#', then coordinate/value rows.  The
    header is checked by ``check_header`` before the file is opened."""
    _write_solution(mesh.family, mesh.dimension, _row_blocks(mesh.vertices), solution, path,
                    extra)


def _write_solution(family: str, dimension: int, coordinates, solution: Solution, path,
                    extra=None) -> None:
    """``write_solution`` with the coordinates as ``(b, rows)`` blocks
    (``_write_rows``): ``solve`` writes a level's rows as
    ``geometry._vertex_blocks`` makes them, and holds no level."""
    constant = solution.renorm_constant_applied
    meta = {
        "family": family,
        "level": solution.level,
        "method": solution.method,
        "constant": "" if constant is None else "%.17g" % constant,
        "residual": "%.17g" % solution.solver_residual,
    }
    if extra:
        meta.update(extra)
    check_header(meta)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in meta.items()))
        _write_rows(fh, "%%s," * dimension + "%.17g\n", "", coordinates, "%.17g",
                    solution.values)
