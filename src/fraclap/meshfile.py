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

Table and solution rows are comma-separated ``%.17g`` values, locale
independent; a solution file starts with ``# key=value`` header lines and
then has one ``coordinates...,value`` row per vertex.
"""

from __future__ import annotations

import json
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


def _write_rows(fh, item: str, sep: str, arr: np.ndarray, fmt: str, last) -> None:
    """Write ``item % row`` for each row of ``arr``, joined by ``sep``, in
    blocks of ``geometry._blocks``: a whole ``(vertices, d + 1)`` copy would
    set the peak of a large solve.  A float row's fields are the strings of
    ``_formatted(block, fmt)``, since coordinates repeat.  Unless ``last``
    is None, ``item`` formats each row's entry of ``last`` first, as it is
    (solution values are distinct), and escapes the row's fields as ``%%s``."""
    for b in _blocks(len(arr)):
        block = arr[b]
        fields = _formatted(block, fmt) if arr.dtype.kind == "f" else block.ravel()
        rows = sep.join([item] * len(block))
        if last is not None:
            rows %= tuple(last[b].tolist())
        fh.write((sep if b.start else "") + rows % tuple(fields.tolist()))


def write_mesh(mesh: LevelMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{\n "family": %s,\n "level": %s,\n "dimension": %s' % (
            json.dumps(mesh.family), json.dumps(mesh.level), json.dumps(mesh.dimension)))
        for key, arr, field in (
            ("vertices", mesh.vertices, "%s"),
            ("edges", mesh.edges, "%d"),
            ("cells", mesh.cells, "%d"),
            ("boundary", mesh.boundary_indices, "%d"),
        ):
            # a 2-D array is a list of rows, each a nested list; an empty one is []
            item = field if arr.ndim == 1 else (
                "[\n   %s\n  ]" % ",\n   ".join([field] * arr.shape[1]))
            fh.write(f',\n "{key}": [' + ("\n  " if arr.size else ""))
            _write_rows(fh, item, ",\n  ", arr, "%r", None)
            fh.write("\n ]" if arr.size else "]")
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
    constant = solution.renorm_constant_applied
    meta = {
        "family": mesh.family,
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
        _write_rows(fh, "%%s," * mesh.dimension + "%.17g\n", "", mesh.vertices, "%.17g",
                    solution.values)
