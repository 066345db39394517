"""Portable file formats: mesh documents (JSON), estimate tables and
solution fields (comma separated).

A mesh document is exactly what ``json.dump(doc, fh, indent=1)`` writes for
the object ``{"family", "level", "dimension", "vertices", "edges", "cells",
"boundary"}`` (in that key order), followed by a newline: one value per
line, each row of ``vertices``/``edges``/``cells`` a nested list, empty
arrays as ``[]``.  Coordinates are Python float reprs (the shortest decimal
that reparses to the same double), so they round-trip bit-exactly.  Each
block of rows is formatted by one ``%`` operation on a row template repeated
once per row, rather than by the pure-Python JSON encoder.  Within a block,
each distinct float bit pattern is formatted once and the string reused
wherever the value repeats (a deep level has few distinct coordinates); the
bytes are the same as formatting every value.

Table and solution rows are comma-separated ``%.17g`` values, locale
independent; a solution file starts with ``# key=value`` header lines and
then has one ``coordinates...,value`` row per vertex.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, UsageError
from .geometry import LevelMesh, RELATIVE_TOLERANCE

if TYPE_CHECKING:  # annotations only: writing a mesh loads no solver
    from .renorm import RenormEstimate
    from .solver import Solution

_FMT = "{:.17g}"
# Rows formatted per write: keeps the writers' transient strings and tuples
# to a few MiB rather than a multiple of the file size.
_BLOCK_ROWS = 16384


def _formatted(arr: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value of float64 ``arr``, as a flat object array
    in row-major order, formatting each distinct bit pattern once (so
    ``-0.0`` stays apart from ``0.0``)."""
    bits, inverse = np.unique(arr.ravel().view(np.int64), return_inverse=True)
    strings = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse]


def _write_rows(fh, arr: np.ndarray, item: str, sep: str, fmt: str) -> None:
    """Write ``item % tuple(row)`` for each row of ``arr``, joined by ``sep``,
    ``_BLOCK_ROWS`` rows per write.  A float ``arr`` fills the ``%s`` fields
    of ``item`` with ``_formatted(block, fmt)``."""
    for lo in range(0, len(arr), _BLOCK_ROWS):
        block = arr[lo:lo + _BLOCK_ROWS]
        values = _formatted(block, fmt) if arr.dtype.kind == "f" else block.ravel()
        fh.write((sep if lo else "") + sep.join([item] * len(block)) % tuple(values.tolist()))


def _write_json_rows(fh, arr: np.ndarray, fmt: str) -> None:
    """``arr`` as a value of the top-level object in the ``indent=1`` JSON
    layout; a 2-D array is a list of rows, each a nested list."""
    if arr.size == 0:
        fh.write("[]")
        return
    field = "%s" if arr.dtype.kind == "f" else fmt
    item = field if arr.ndim == 1 else "[\n   " + ",\n   ".join([field] * arr.shape[1]) + "\n  ]"
    fh.write("[\n  ")
    _write_rows(fh, arr, item, ",\n  ", fmt)
    fh.write("\n ]")


def write_mesh(mesh: LevelMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{\n "family": %s,\n "level": %s,\n "dimension": %s' % (
            json.dumps(mesh.family), json.dumps(mesh.level), json.dumps(mesh.dimension)))
        for key, arr, fmt in (
            ("vertices", mesh.vertices, "%r"),
            ("edges", mesh.edges, "%d"),
            ("cells", mesh.cells, "%d"),
            ("boundary", mesh.boundary_indices, "%d"),
        ):
            fh.write(f',\n "{key}": ')
            _write_json_rows(fh, arr, fmt)
        fh.write("\n}\n")


def _array(doc: dict, key: str, dtype) -> np.ndarray:
    """``doc[key]`` as an int64 array of JSON integers or a float64 array of
    JSON numbers, refusing any other entry: ``1.7`` is not truncated to an
    index, and ``true`` and ``"0.5"`` are not read as 1 and 0.5."""
    arr = np.array(doc[key], dtype=object)
    kinds, what = ({int}, "integer indices") if dtype is np.int64 else ({int, float}, "numbers")
    if not set(map(type, arr.flat)) <= kinds:
        raise UsageError(f"malformed mesh document: {key} must be {what}")
    return arr.astype(dtype)


def read_mesh(path) -> LevelMesh:
    """The document's mesh.  ``LevelMesh`` checks its structure, and any
    refusal is a "malformed mesh document" ``UsageError``."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        # built with no tolerance first: the tolerance needs the checked edges
        mesh = LevelMesh(
            family=family,
            level=level,
            vertices=vertices,
            edges=edges,
            cells=cells,
            boundary_indices=boundary,
            dedup_tolerance=0.0,
        )
        lengths = mesh.edge_lengths()
        if lengths.size == 0 or lengths.min() <= 0.0:
            raise UsageError("mesh document has no usable edges")
        return replace(mesh, dedup_tolerance=RELATIVE_TOLERANCE * float(lengths.min()))
    except GeometryError as exc:
        raise UsageError(f"malformed mesh document: {exc}") from None


def write_table(estimates: list[RenormEstimate], path) -> None:
    """One row per level pair: pair, max, mean, min, excluded_count."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pair,max,mean,min,excluded_count\n")
        for est in estimates:
            a, b = est.level_pair
            fh.write(
                f"{a}:{b},{_FMT.format(est.max)},{_FMT.format(est.mean)},"
                f"{_FMT.format(est.min)},{est.excluded_count}\n"
            )


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
    meta = {
        "family": mesh.family,
        "level": solution.level,
        "method": solution.method,
        "constant": "" if solution.renorm_constant_applied is None
        else _FMT.format(solution.renorm_constant_applied),
        "residual": _FMT.format(solution.solver_residual),
    }
    if extra:
        meta.update(extra)
    check_header(meta)
    with open(path, "w", encoding="ascii") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        # coordinates repeat, so each distinct one is formatted once; every
        # value is distinct, so the template formats it
        d = mesh.dimension
        item = "%s," * d + "%.17g\n"
        # stacked one block at a time: a whole (vertices, d + 1) copy would
        # set the peak of a large solve
        for lo in range(0, mesh.num_vertices, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            coords = _formatted(mesh.vertices[rows], "%.17g").reshape(-1, d)
            block = np.column_stack([coords, solution.values[rows].astype(object)])
            fh.write(item * len(block) % tuple(block.ravel().tolist()))
