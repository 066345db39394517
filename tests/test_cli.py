"""Command line behavior: outputs, consistency with the library, exit codes."""

import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap
from fraclap import cli, geometry, renorm, solver
from fraclap.geometry import build_level, predicted_vertices
from fraclap.meshfile import read_mesh
from fraclap.renorm import estimate_laplacian_ratio


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))


def run_fresh(*argv):
    """Run ``python *argv`` in a new interpreter that imports this checkout's
    fraclap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def read_solution(path):
    meta, coords, values = {}, [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif line:
                parts = [float(v) for v in line.split(",")]
                coords.append(parts[:-1])
                values.append(parts[-1])
    return meta, np.array(coords), np.array(values)


def test_generate_counts_and_round_trip(tmp_path, capsys):
    out = tmp_path / "s3.json"
    rc = cli.main(["generate", "--family", "sierpinski", "--level", "3",
                   "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "42 vertices, 81 edges, 27 cells" in printed
    mesh = read_mesh(out)
    ref = build_level("sierpinski", 3)
    np.testing.assert_array_equal(mesh.vertices, ref.vertices)
    np.testing.assert_array_equal(mesh.edges, ref.edges)


def test_generate_koch_seed(tmp_path, capsys):
    out = tmp_path / "k0.json"
    assert cli.main(["generate", "--family", "koch", "--level", "0",
                     "--out", str(out)]) == 0
    assert "2 vertices, 1 edges" in capsys.readouterr().out


def test_generate_hata3d_writes_3d_coordinates(tmp_path):
    out = tmp_path / "h2.json"
    assert cli.main(["generate", "--family", "hata3d", "--level", "2",
                     "--out", str(out)]) == 0
    mesh = read_mesh(out)
    assert mesh.dimension == 3


def test_renorm_table_matches_library(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli.main(["renorm", "--family", "sierpinski", "--method", "fd",
                   "--levels", "3:6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    for line, n in zip(lines[1:], (3, 4, 5)):
        pair, vmax, vmean, vmin, excl = line.split(",")
        est = estimate_laplacian_ratio("sierpinski", n)
        assert pair == f"{n}:{n + 1}"
        assert float(vmax) == est.max
        assert float(vmean) == est.mean
        assert float(vmin) == est.min
        assert int(excl) == est.excluded_count
        assert abs(float(vmean) - 5.0) <= 1e-3


@pytest.mark.parametrize(
    "method,expected",
    [("fem-edge", 1.25), ("fem-area", 1.25), ("energy", 5.0 / 3.0)],
)
def test_renorm_other_methods(tmp_path, method, expected):
    out = tmp_path / "table.csv"
    rc = cli.main(["renorm", "--family", "sierpinski", "--method", method,
                   "--levels", "4:6", "--out", str(out)])
    assert rc == 0
    for line in out.read_text().strip().splitlines()[1:]:
        assert abs(float(line.split(",")[2]) - expected) <= 1e-3


# Runs the command line through the process entry, collector off, then
# reports the process's peak RSS on stderr as it exits: its VmHWM, since
# Linux carries ru_maxrss across exec from the forking parent.
_WITH_PEAK = """
import atexit, sys
from fraclap import cli

def peak():
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")), end="", file=sys.stderr)

atexit.register(peak)
cli.run()
"""


# renorm at the largest allowed pair of each family (``pytest -m deep``),
# each in a fresh child: the exactly self-similar pairs read their constant
# to rounding at every ratio, and hata3d's mean is near 2.  No level is
# built: the child holds the two model solutions at the coarse interior
# and the V0 values of two depths of one level's copies.  Each child's
# peak is in the report of ``pytest -m deep -rP``, and its bytes per
# predicted vertex of the finer level stay under a bound, set when both
# levels were built and solved (76.5, 80.6, 87.5 and 90.5 B then); with no
# level built they measure 16.2, 22.8, 13.2 and 24.8 B, most of it the
# interpreter and numpy (2-core Linux VM, Python 3.11, numpy 2.4).
@pytest.mark.deep
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("family, method, levels, columns, constant, bound, peak_bound", [
    ("koch", "fem-edge", "10:11", (1, 3), 16 / 9, 1e-12, 87),
    ("hata2d", "fem-edge", "8:9", (1, 3), 5 / 3, 1e-12, 92),
    ("sierpinski", "fem-area", "13:14", (1, 3), 5 / 4, 1e-12, 110),
    ("hata3d", "fem-edge", "7:8", (2,), 2.0, 1e-3, 102),
], ids=["koch", "hata2d", "sierpinski", "hata3d"])
def test_renorm_at_the_top_pair(tmp_path, family, method, levels, columns, constant, bound,
                                peak_bound):
    top = int(levels.split(":")[1])
    assert geometry._largest_level(family) == top
    out = tmp_path / "table.csv"
    child = run_fresh("-c", _WITH_PEAK, "renorm", "--family", family, "--method", method,
                      "--levels", levels, "--out", str(out))
    assert child.returncode == 0, child.stderr
    header, row = out.read_text().strip().splitlines()
    fields = row.split(",")
    assert fields[0] == levels
    for k in columns:  # 1 max, 2 mean, 3 min
        assert abs(float(fields[k]) - constant) <= bound, header.split(",")[k]
    peak = int(child.stderr.split()[-2]) * 1024  # VmHWM is in kB
    print(f"renorm {family} {levels} {method}: peak {peak // 2**20} MiB")
    vertices = predicted_vertices(family, top)
    assert peak <= peak_bound * vertices, peak / vertices


# renorm Sierpinski fd 12:14 through the process entry (``pytest -m deep``),
# which built and solved levels 12 to 14 and peaked at 600 MiB: with no
# level built its VmHWM read 113.1 MiB in each of five runs (2-core Linux
# VM, Python 3.11, numpy 2.4), and the bound is 150 MiB.
@pytest.mark.deep
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_renorm_sierpinski_12_to_14_peak(tmp_path):
    out = tmp_path / "table.csv"
    child = run_fresh("-c", _WITH_PEAK, "renorm", "--family", "sierpinski", "--method", "fd",
                      "--levels", "12:14", "--out", str(out))
    assert child.returncode == 0, child.stderr
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["12:13", "13:14"]
    for row in rows:  # max, mean and min read 5 to rounding
        assert all(abs(float(x) - 5.0) <= 1e-12 for x in row[1:4]), row
    peak = int(child.stderr.split()[-2]) * 1024  # VmHWM is in kB
    print(f"renorm sierpinski 12:14 fd: peak {peak / 2**20:.1f} MiB")
    assert peak <= 150 * 2**20, peak / 2**20


# solve at the largest allowed level of each family (``pytest -m deep``),
# each in a fresh child, whose peak is the command's own:
# with a zero load the values lie within the boundary values (the maximum
# principle), read off the printed range, not off the large solution file.
# Each child's peak is in the report of ``pytest -m deep -rP``, and its
# bytes per predicted vertex stay under a bound: 39.5, 45.7, 49.9 and
# 53.0 B in each of three runs with no level built (the coordinates and
# the copy table come from the copy tree), where the solve that built and
# held its level took 79.9, 64.4, 73.9 and 84.8 B (2-core Linux VM,
# Python 3.11, numpy 2.4); each bound is the figure plus about 8%.
@pytest.mark.deep
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("family, level, method, bound", [
    ("sierpinski", 14, "rfd", 43), ("koch", 11, "rfem1d", 50), ("hata2d", 9, "rfd", 54),
    ("hata3d", 8, "rfem1d", 58),
], ids=["sierpinski", "koch", "hata2d", "hata3d"])
def test_solve_at_the_largest_level(tmp_path, family, level, method, bound):
    assert geometry._largest_level(family) == level
    nb = build_level(family, 0).boundary_indices.size
    # three decimals print exactly in the range's six significant digits
    data = np.round(np.random.default_rng(level).uniform(-1.0, 1.0, nb), 3).tolist()
    out_path = tmp_path / "u.csv"
    out = run_fresh("-c", _WITH_PEAK, "solve", "--family", family, "--level", str(level),
                    "--method", method, "--rhs", "0", "--bc=" + ",".join(map(str, data)),
                    "--out", str(out_path))
    out_path.unlink(missing_ok=True)
    assert out.returncode == 0, out.stderr
    umin, umax = map(float, re.search(r"range \[(\S+), (\S+)\]", out.stdout).groups())
    assert min(data) <= umin <= umax <= max(data)
    peak = int(out.stderr.split()[-2]) * 1024  # VmHWM is in kB
    print(f"solve {family} {level} {method}: peak {peak // 2**20} MiB")
    vertices = predicted_vertices(family, level)
    assert peak <= bound * vertices, peak / vertices


# generate at the largest allowed level of each family (``pytest -m deep``),
# each in a fresh child.  The document is streamed, never read with
# read_mesh (about 5x the file size; Sierpinski 14's file is 993 MiB): its
# head up to the seed's boundary points, its vertex row count and its
# boundary list.  Each child's peak is in the report of ``pytest -m deep -rP``,
# and its bytes per predicted vertex stay under a bound: at most 7.2, 8.5,
# 18.2 and 23.0 B in three runs each, with the rows made from the copy tree
# and no level held (mostly the interpreter and numpy: 34 to 49 MiB), where
# gluing and holding the level took 62.8, 42.2, 51.6 and 63.5 B (2-core
# Linux VM, Python 3.11, numpy 2.4).
@pytest.mark.deep
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("family, level, bound", [
    ("sierpinski", 14, 9), ("koch", 11, 11), ("hata2d", 9, 22), ("hata3d", 8, 28),
], ids=["sierpinski", "koch", "hata2d", "hata3d"])
def test_generate_at_the_largest_level(tmp_path, family, level, bound):
    assert geometry._largest_level(family) == level
    seed = build_level(family, 0)
    nb = seed.boundary_indices.size
    path = tmp_path / "mesh.json"
    out = run_fresh("-c", _WITH_PEAK, "generate", "--family", family, "--level", str(level),
                    "--out", str(path))
    # every level starts with the seed's boundary points, in the json.dump layout
    head = json.dumps({"family": family, "level": level, "dimension": seed.dimension,
                       "vertices": seed.vertices[seed.boundary_indices].tolist()}, indent=1)
    head = head[:head.rindex("\n ]")].encode()
    rows = nb
    try:
        assert out.returncode == 0, out.stderr
        peak = int(out.stderr.split()[-2]) * 1024  # VmHWM is in kB
        print(f"generate {family} {level}: peak {peak // 2**20} MiB")
        with open(path, "rb") as fh:
            assert fh.read(len(head)) == head
            for line in fh:
                if line == b"  [\n":
                    rows += 1
                elif line.startswith(b" ]"):
                    break
            fh.seek(-4096, os.SEEK_END)
            tail = fh.read().decode()
    finally:
        path.unlink(missing_ok=True)
    assert rows == geometry.predicted_vertices(family, level)
    assert json.loads("{" + tail[tail.rindex('"boundary"'):])["boundary"] == list(range(nb))
    assert peak / rows < bound, peak / rows


def test_solve_sierpinski_rows_and_boundary(tmp_path):
    out = tmp_path / "sol.csv"
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "5", "--method", "rfd",
        "--rhs", "sin(x+y)", "--bc", "1,0,0", "--out", str(out),
    ])
    assert rc == 0
    meta, coords, values = read_solution(out)
    assert values.size == (3**6 + 3) // 2  # 366 vertices at level 5
    assert values[0] == 1.0 and values[1] == 0.0 and values[2] == 0.0
    assert meta["method"] == "rfd"
    assert float(meta["constant"]) == pytest.approx(5.0, abs=1e-3)


def test_solve_koch_harmonic_is_monotone_along_curve(tmp_path):
    out = tmp_path / "k.csv"
    rc = cli.main([
        "solve", "--family", "koch", "--level", "3", "--method", "rfem1d",
        "--rhs", "0", "--bc", "1,0", "--out", str(out),
    ])
    assert rc == 0
    _, _, values = read_solution(out)
    mesh = build_level("koch", 3)
    # walk the path graph from one boundary endpoint to the other
    neighbors = {}
    for i, j in mesh.edges:
        neighbors.setdefault(int(i), []).append(int(j))
        neighbors.setdefault(int(j), []).append(int(i))
    order = [0]
    prev = None
    while order[-1] != 1:
        nxt = [k for k in neighbors[order[-1]] if k != prev]
        prev = order[-1]
        order.append(nxt[0])
    along = values[order]
    assert along[0] == 1.0 and along[-1] == 0.0
    assert (np.diff(along) <= 1e-12).all()


def test_solve_hata_harmonic_constant_on_branches(tmp_path):
    out = tmp_path / "h.csv"
    rc = cli.main([
        "solve", "--family", "hata2d", "--level", "3", "--method", "rfd",
        "--rhs", "0", "--bc", "1,0", "--out", str(out),
    ])
    assert rc == 0
    _, _, values = read_solution(out)
    mesh = build_level("hata2d", 3)
    neighbors = {}
    for i, j in mesh.edges:
        neighbors.setdefault(int(i), []).append(int(j))
        neighbors.setdefault(int(j), []).append(int(i))
    # main path between the two boundary vertices
    def path_to(target):
        stack = [(0, [0])]
        seen = {0}
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            for k in neighbors[node]:
                if k not in seen:
                    seen.add(k)
                    stack.append((k, path + [k]))
        raise AssertionError("tree is connected")

    main_path = set(path_to(1))
    # every vertex off the main path carries the value of its attachment point
    for start in main_path:
        for k in neighbors[start]:
            if k in main_path:
                continue
            stack, branch = [k], set()
            while stack:
                node = stack.pop()
                if node in branch or node in main_path:
                    continue
                branch.add(node)
                stack.extend(neighbors[node])
            for node in branch:
                assert values[node] == pytest.approx(values[start], abs=1e-10)


def test_solve_respects_explicit_constant(tmp_path):
    out = tmp_path / "sol.csv"
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "3", "--method", "rfd",
        "--constant", "5", "--rhs", "1", "--bc", "0,0,0", "--out", str(out),
    ])
    assert rc == 0
    meta, _, _ = read_solution(out)
    assert float(meta["constant"]) == 5.0


# -- exit codes ---------------------------------------------------------------

def test_unknown_family_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["generate", "--family", "menger", "--level", "1", "--out", "x"])
    assert err.value.code == 2


def test_bad_level_range_is_usage_error(tmp_path):
    rc = cli.main(["renorm", "--family", "koch", "--method", "fd",
                   "--levels", "6:3", "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_wrong_boundary_count_is_usage_error(tmp_path):
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "2", "--method", "rfd",
        "--rhs", "0", "--bc", "1,0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize("rhs", [
    "sin(",
    "-" * 3000 + "1",
    "(" * 300 + "1" + ")" * 300,
    "0" + "+0" * 5000,
    "\u0663",
], ids=["sin(", "3000-unary-minus", "300-parentheses", "5000-term-sum", "arabic-indic-three"])
def test_bad_expression_is_usage_error(tmp_path, capsys, rhs):
    rc = cli.main([
        "solve", "--family", "koch", "--level", "2", "--method", "rfd",
        f"--rhs={rhs}", "--bc", "1,0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# negative values as separate tokens, as a shell user types them
@pytest.mark.parametrize("family, values", [
    ("koch", ["--rhs", "-x", "--bc", "-0.5,0.2"]),
    ("hata2d", ["--rhs", "-1e-3", "--bc", "-1,0", "--constant", "15"]),
    ("sierpinski", ["--bc", "-1,-2e0,.5", "--rhs", "--x"]),
], ids=["koch", "hata2d", "sierpinski"])
def test_negative_values_as_separate_tokens_are_the_equals_form(tmp_path, family, values):
    def solve(argv, name):
        out = tmp_path / name
        assert cli.main(["solve", "--family", family, "--level", "3", "--method", "rfd",
                         *argv, "--out", str(out)]) == 0
        return out.read_bytes()

    joined = [f"{k}={v}" for k, v in zip(values[::2], values[1::2])]
    assert solve(values, "tokens.csv") == solve(joined, "equals.csv")


def test_negative_constant_as_a_separate_token_is_one_usage_error(tmp_path, capsys):
    rc = cli.main(["solve", "--family", "koch", "--level", "3", "--method", "rfd",
                   "--rhs", "0", "--bc", "0,1", "--constant", "-2e0",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: renormalization constant must be positive\n"


@pytest.mark.parametrize("option", ["--out", "--o", "-h"])
def test_an_option_after_bc_is_not_its_value(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--family", "koch", "--level", "3", "--method", "rfd",
                  "--rhs", "0", "--bc", option, str(tmp_path / "s.csv")])
    assert err.value.code == 2
    assert "argument --bc: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("rhs, bc, extra", [
    ("sin(", "0,0,0", []), ("0", "0,0", []),
    ("z", "0,0,0", []),    # no z on a planar family
    ("1/x", "0,0,0", []),  # infinite at the boundary vertex (0, 0)
    # constant**11 is not a finite nonzero scaling
    *(("1", "0,0,0", ["--constant", c]) for c in ("1e300", "inf", "1e-300")),
], ids=["sin(-0,0,0", "0-0,0", "z-0,0,0", "1/x-0,0,0",
        "constant-1e300", "constant-inf", "constant-1e-300"])
def test_solve_refuses_bad_rhs_or_bc_before_building_the_level(tmp_path, refines, rhs, bc,
                                                                extra):
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "11", "--method", "rfd", *extra,
        f"--rhs={rhs}", f"--bc={bc}", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    # at most the seed, which gives the boundary count and is refined by nothing
    assert refines == []
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", [
    "generate --family sierpinski --level 40",
    "solve --family sierpinski --level 40 --method rfd --rhs 0 --bc 1,0,0",
    "renorm --family sierpinski --method fd --levels 1:40",
], ids=["generate", "solve", "renorm"])
def test_oversized_level_exits_two_before_building(tmp_path, capsys, refines, command):
    start = time.perf_counter()
    rc = cli.main([*command.split(), "--out", str(tmp_path / "out")])
    assert rc == 2 and time.perf_counter() - start < 1.0
    # at most the seed, which gives the boundary count and is refined by nothing
    assert refines == []
    assert list(tmp_path.iterdir()) == []
    assert "the largest sierpinski level allowed is 14" in capsys.readouterr().err


def _readme_blocks(language):
    """The code blocks of the README fenced as ``language``."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), flags=re.M | re.S)


def _readme_commands():
    """The ``fraclap ...`` lines of the README's ``sh`` blocks, continuation
    lines joined."""
    lines = "".join(_readme_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("fraclap ")]


def test_readme_lists_twelve_commands():
    assert len(_readme_commands()) == 12


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_succeeds(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0
    out = argv[argv.index("--out") + 1]
    assert (tmp_path / out).stat().st_size > 0


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    # a contract no solve can meet forces a real numerical failure
    monkeypatch.setattr(solver, "BACKWARD_ERROR_BOUND", 0.0)
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "3", "--method", "rfd",
        "--constant", "5", "--rhs", "1", "--bc", "1,0,0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 3
    assert "exceeds the solver contract 0.000e+00" in capsys.readouterr().err


def test_io_failure_exits_four():
    rc = cli.main(["generate", "--family", "koch", "--level", "1",
                   "--out", "/nonexistent-dir/mesh.json"])
    assert rc == 4


_OUT_COMMANDS = {
    "generate": ["generate", "--family", "sierpinski", "--level", "5"],
    "renorm": ["renorm", "--family", "sierpinski", "--method", "fd", "--levels", "4:5"],
    "solve": ["solve", "--family", "sierpinski", "--level", "5", "--method", "rfd",
              "--constant", "5", "--rhs", "1", "--bc", "1,0,0"],
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
@pytest.mark.parametrize("where", ["missing dir", "directory", "file as dir", "empty",
                                   "new file as dir"])
def test_unwritable_out_exits_four_before_building(tmp_path, capsys, refines, command, where):
    # an empty last component ("" or "new/") names no file that open can create
    (tmp_path / "file").write_text("")
    out = {"missing dir": str(tmp_path / "missing" / "out"),
           "directory": str(tmp_path),
           "file as dir": str(tmp_path / "file" / "out"),
           "empty": "",
           "new file as dir": str(tmp_path / "new") + os.sep}[where]
    rc = cli.main([*_OUT_COMMANDS[command], "--out", out])
    assert rc == 4 and refines == []
    assert "i/o failure:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("family", ["koch", "hata2d", "hata3d"])
@pytest.mark.parametrize("argv", [
    ["solve", "--level", "3", "--method", "rfem2d", "--constant", "2", "--rhs", "1",
     "--bc", "0,1"],
    ["solve", "--level", "3", "--method", "rfem2d", "--rhs", "1", "--bc", "0,1"],
    ["renorm", "--method", "fem-area", "--levels", "2:4"],
], ids=["solve constant", "solve auto", "renorm"])
def test_area_formulation_without_cells_exits_two_before_building(
        tmp_path, capsys, refines, family, argv):
    out = tmp_path / "out"
    rc = cli.main([*argv, "--family", family, "--out", str(out)])
    assert rc == 2 and refines == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cells" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("family", geometry.FAMILIES)
@pytest.mark.parametrize("constant", [["--constant", "5"], []], ids=["constant", "auto"])
def test_solve_at_level_zero_exits_two_before_building(tmp_path, capsys, refines, family,
                                                       constant):
    # level 0 is the seed, whose vertices are all boundary vertices
    out = tmp_path / "s.csv"
    bc = "0,0,0" if family == "sierpinski" else "0,0"
    rc = cli.main(["solve", "--family", family, "--level", "0", "--method", "rfd",
                   *constant, "--rhs", "1", "--bc", bc, "--out", str(out)])
    assert rc == 2 and refines == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "interior" in err[0]
    assert not out.exists()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_read_only_out_exits_four_before_building(tmp_path, refines, command):
    out = tmp_path / "out"
    out.write_text("keep")
    out.chmod(0o444)
    assert cli.main([*_OUT_COMMANDS[command], "--out", str(out)]) == 4 and refines == []
    assert out.read_text() == "keep"


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_dev_null_out_is_accepted(command):
    assert cli.main([*_OUT_COMMANDS[command], "--out", os.devnull]) == 0


def _bc(family):
    return "--bc=" + ",".join(["0.5"] * build_level(family, 0).boundary_indices.size)


def _each_family_commands(family):
    """``(argv, top)``: commands at small levels of ``family``, and the
    level each one builds (0: none): a solve's template
    (``geometry._template_level``), the level its coordinate rows map."""
    cells = bool(build_level(family, 0).num_cells)
    renorm_methods = ["fd", "energy", "fem-edge", *["fem-area"] * cells]
    solve_methods = ["rfd", "rfem1d", *["rfem2d"] * cells]
    return [
        (["generate", "--level", "4"], 4),
        *((["renorm", "--method", m, "--levels", "2:4"], 0) for m in renorm_methods),
        *((["solve", "--level", str(n), "--method", m, "--rhs", "1 + x"],
           geometry._template_level(family, n)) for m in solve_methods for n in (1, 2, 3, 5)),
        (["solve", "--level", "4", "--method", "rfd", "--constant", "3", "--rhs", "1"],
         geometry._template_level(family, 4)),
    ]


@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_commands_refine_each_level_once(tmp_path, refines, family):
    # the level a command reads comes from one chain of refines, whatever
    # the estimate's pair: the estimates build no level, so renorm makes
    # none, and solve makes its template once for the load and the file
    for argv, top in _each_family_commands(family):
        del refines[:]
        extra = [_bc(family)] if argv[0] == "solve" else []
        rc = cli.main([*argv, *extra, "--family", family, "--out", str(tmp_path / "out")])
        assert rc == 0, argv
        assert refines == [(family, n) for n in range(1, top + 1)], argv


def _searched(*args):
    raise AssertionError("a vertex search ran")


@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_no_command_searches_for_a_vertex(tmp_path, monkeypatch, refines, family):
    # past each family's structure, made first (``refines``), every level a
    # command reads is walked from the gluing table: nothing refines
    # geometrically, merges close vertices or scans for them
    for name in ("_refine", "_dedup", "_close_pairs"):
        monkeypatch.setattr(geometry, name, _searched)
    for argv, _ in _each_family_commands(family):
        extra = [_bc(family)] if argv[0] == "solve" else []
        rc = cli.main([*argv, *extra, "--family", family, "--out", str(tmp_path / "out")])
        assert rc == 0, argv


@pytest.mark.parametrize("family", geometry.FAMILIES)
@pytest.mark.parametrize("argv, top", [
    (["renorm", "--method", "fem-edge", "--levels", "2:5"], None),
    (["solve", "--level", "5", "--method", "rfem1d", "--rhs", "1 + x"], 5),
    (["solve", "--level", "5", "--method", "rfd", "--rhs", "0"], 5),
], ids=["renorm", "solve-rfem1d", "solve-rfd"])
def test_commands_keep_only_their_top_level(tmp_path, monkeypatch, refines, family, argv, top):
    # while solve solves, its template (the level itself up to
    # geometry._SCAN_ROWS vertices) is the one level of its family alive;
    # renorm builds none, and once a command returns none is alive
    alive, solve = [], renorm.solve_online

    def watched(*args):
        alive.append(sorted(geometry._LEVELS))
        return solve(*args)

    monkeypatch.setattr(renorm, "solve_online", watched)
    extra = [_bc(family)] if argv[0] == "solve" else []
    assert cli.main([*argv, *extra, "--family", family, "--out", str(tmp_path / "out")]) == 0
    assert alive == ([[(family, geometry._template_level(family, top))]] if top else [])
    assert list(geometry._LEVELS) == []


@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_renorm_builds_no_level(tmp_path, builds_nothing, family):
    # every estimate is read off the family's structure
    methods = ["fd", "energy", "fem-edge", *["fem-area"] * (family == "sierpinski")]
    for method in methods:
        argv = ["renorm", "--family", family, "--method", method, "--levels", "1:6"]
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0, method


def _refused(*args):
    raise AssertionError("a level was searched for or embedded")


@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_solve_builds_no_level_above_its_template(tmp_path, monkeypatch, refines, family):
    # two levels above the template: the load, the leaves and the file rows
    # come from the copy tree, and the file has the bytes of the solve on
    # the built level
    from fraclap.expressions import compile_expression
    from fraclap.meshfile import write_solution

    level = geometry._template_level(family, geometry._largest_level(family)) + 2
    top = geometry._template_level(family, level)
    build = geometry.build_level

    def capped_build(name, n):
        assert n <= top, n
        return build(name, n)

    monkeypatch.setattr(geometry, "build_level", capped_build)
    for name in ("_refine", "_dedup", "embed"):
        monkeypatch.setattr(geometry, name, _refused)
    seed = build_level(family, 0)
    methods = ["rfd", "rfem1d", *["rfem2d"] * bool(seed.num_cells)]
    rhs, bc = "1 + x", [0.5, -0.25, 1.0][:seed.boundary_indices.size]
    for method in methods:
        argv = ["solve", "--family", family, "--level", str(level), "--method", method,
                "--constant", "3", "--rhs", rhs, "--bc=" + ",".join(map(str, bc))]
        assert cli.main([*argv, "--out", str(tmp_path / f"{method}.csv")]) == 0, method
    assert refines and all(n <= top for _, n in refines), refines  # no level above it made
    monkeypatch.undo()
    mesh = build_level(family, level)
    g = compile_expression(rhs).evaluate(mesh.vertices)
    for method in methods:
        sol = renorm.solve_online(family, level, method, 3.0, g, dict(enumerate(bc)))
        extra = {"rhs": rhs, "bc": ",".join(map(str, bc))}
        write_solution(mesh, sol, tmp_path / "level.csv", extra=extra)
        assert (tmp_path / f"{method}.csv").read_bytes() == (tmp_path / "level.csv").read_bytes()


@pytest.mark.parametrize("rows", [2, 3, 4096])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
@pytest.mark.parametrize("family", geometry.FAMILIES)
def test_generate_builds_no_level_above_its_template(tmp_path, monkeypatch, capsys, refines,
                                                     family, offset, rows):
    # about the template of blocks of ``rows`` rows (the seed for 2 and 3,
    # where one below it is the seed as well): the coordinates, edges and
    # cells come from the copy tree, with the bytes and the counts of the
    # document of the built level
    from unittest import mock

    from fraclap.meshfile import write_mesh

    with mock.patch.object(geometry, "_SCAN_ROWS", rows):
        level = max(geometry._template_level(family, geometry._largest_level(family)) + offset,
                    0)
    mesh = build_level(family, level)
    write_mesh(mesh, tmp_path / "level.json")
    out = tmp_path / "mesh.json"
    line = (f"{family} level {level}: {mesh.num_vertices} vertices, {mesh.num_edges} edges, "
            f"{mesh.num_cells} cells -> {out}\n")
    del mesh
    capsys.readouterr()
    del refines[:]
    build = geometry.build_level
    with mock.patch.object(geometry, "_SCAN_ROWS", rows):
        top = geometry._template_level(family, level)

        def capped_build(name, n):
            assert n <= top, n
            return build(name, n)

        monkeypatch.setattr(geometry, "build_level", capped_build)
        for name in ("_refine", "_dedup", "embed"):
            monkeypatch.setattr(geometry, name, _refused)
        assert cli.main(["generate", "--family", family, "--level", str(level),
                         "--out", str(out)]) == 0
    assert all(n <= top for _, n in refines), refines  # no level above the template made
    assert capsys.readouterr().out == line
    assert out.read_bytes() == (tmp_path / "level.json").read_bytes()


@pytest.mark.parametrize("rhs, passes", [("0", 1), ("-(2*pi - exp(1)) / 3", 1), ("1 + x", 2)],
                         ids=["zero", "constant", "coordinate"])
@pytest.mark.parametrize("family", ["sierpinski", "hata3d"])
def test_a_constant_rhs_makes_the_coordinates_once(tmp_path, monkeypatch, family, rhs, passes):
    # an rhs that names no coordinate fills the load with its value: the
    # coordinate blocks are made for the file alone, and the file keeps the
    # bytes of the solve on the built level
    from fraclap.expressions import compile_expression
    from fraclap.meshfile import write_solution

    calls, blocks = [], geometry._vertex_blocks

    def counted(template, level, *out):
        calls.append((template.family, level))
        return blocks(template, level, *out)

    level = geometry._template_level(family, geometry._largest_level(family)) + 2
    # the template is held, so build_level makes no level: every call counted is the command's
    held = build_level(family, geometry._template_level(family, level))
    monkeypatch.setattr(geometry, "_vertex_blocks", counted)
    bc = [0.5, -0.25, 1.0][:build_level(family, 0).boundary_indices.size]
    extra = {"rhs": rhs, "bc": ",".join(map(str, bc))}
    assert cli.main(["solve", "--family", family, "--level", str(level), "--method", "rfd",
                     "--constant", "3", "--rhs", rhs, "--bc=" + extra["bc"],
                     "--out", str(tmp_path / "u.csv")]) == 0
    assert calls == [(family, level)] * passes
    monkeypatch.undo()
    mesh = build_level(family, level)
    g = compile_expression(rhs).evaluate(mesh.vertices)
    sol = renorm.solve_online(family, level, "rfd", 3.0, g, dict(enumerate(bc)))
    write_solution(mesh, sol, tmp_path / "level.csv", extra=extra)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "level.csv").read_bytes()


@pytest.mark.parametrize("rows", [2, 3, 5, 4096])
@pytest.mark.parametrize("family, level, rhs", [
    ("sierpinski", 6, "sin(3*x) / (2 + cos(y)) - exp(-x*pi) + -y"),
    ("hata3d", 4, "sin(3*z) / (2 + cos(y)) - exp(-x*pi) + -z"),
], ids=["sierpinski", "hata3d"])
def test_solve_evaluates_the_rhs_a_block_at_a_time_with_its_bits(monkeypatch, tmp_path, rows,
                                                                   family, level, rhs):
    # the forcing on a block of generated coordinates has the bits of the
    # forcing on the built level's vertices, whatever the blocks: the columns
    # of a block are strided, and numpy's loops take strided tails apart
    from unittest import mock

    from fraclap.expressions import compile_expression

    handed, solve = [], renorm.solve_online

    def spy(family, n, method, constant, g, h):
        handed.append(g.copy())
        return solve(family, n, method, constant, g, h)

    monkeypatch.setattr(renorm, "solve_online", spy)
    with mock.patch.object(geometry, "_SCAN_ROWS", rows):
        assert cli.main(["solve", "--family", family, "--level", str(level), "--method", "rfd",
                         "--constant", "3", "--rhs", rhs, _bc(family),
                         "--out", str(tmp_path / "u.csv")]) == 0
    expected = compile_expression(rhs).evaluate(build_level(family, level).vertices)
    assert handed[0].tobytes() == expected.tobytes()


def test_rhs_not_finite_inside_exits_two_before_the_file_is_opened(monkeypatch, tmp_path, capsys):
    # finite at the boundary points, infinite at the vertices with x = 1/4,
    # which a later block of five rows holds: refused before the solve
    from unittest import mock

    monkeypatch.setattr(renorm, "solve_online", _refused)
    with mock.patch.object(geometry, "_SCAN_ROWS", 5):
        rc = cli.main(["solve", "--family", "sierpinski", "--level", "4", "--method", "rfd",
                       "--constant", "5", "--rhs", "1/(x - 0.25)", "--bc", "1,0,0",
                       "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite at every mesh vertex" in err
    assert not (tmp_path / "s.csv").exists()


# Runs the CLI in a child whose address space is capped 4 MiB above what a
# first command maps (numpy and its BLAS buffer, about 130 MiB), so only the
# command's own arrays and strings can exhaust it.  generate holds no level:
# Sierpinski 3 needs under 1 MiB of that and Sierpinski 14 between 8 and 16
# (its rows' strings grow the allocator's heap), measured on Linux, numpy 2.4.
_UNDER_MEMORY_LIMIT = """
import os, resource, sys
from fraclap import cli
cli.main(["generate", "--family", "sierpinski", "--level", "0", "--out", os.devnull])
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = size * 1024 + 4 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("level, code", [("3", 0), ("14", 5)])
def test_memory_failure_exits_five_without_traceback(tmp_path, monkeypatch, level, code):
    # each OpenBLAS thread reserves address space of its own
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = run_fresh("-c", _UNDER_MEMORY_LIMIT, "generate", "--family", "sierpinski",
                    "--level", level, "--out", str(tmp_path / "mesh.json"))
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    if code:
        lines = out.stderr.splitlines()
        # a bare MemoryError, from a block's rows, still says what ran out
        assert len(lines) == 1 and re.fullmatch(r"memory failure: generate: \S.*", lines[0])


def test_module_entry_point_runs():
    out = run_fresh("-m", "fraclap.cli", "--help")
    assert out.returncode == 0
    assert "generate" in out.stdout and "renorm" in out.stdout


def _record_entry(monkeypatch):
    """Replace ``gc.disable``, ``gc.freeze`` and ``sys.exit`` with recorders
    that append to the returned list; the exit still raises ``SystemExit``."""
    events = []

    def exit_(code=0):
        events.append(("exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(gc, "disable", lambda: events.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "exit", exit_)
    return events


@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_run_exits_with_the_code_of_main_with_the_collector_off(monkeypatch, code):
    events = _record_entry(monkeypatch)
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or code)
    with pytest.raises(SystemExit):
        cli.run()
    assert events == ["disable", "main", "freeze", ("exit", code)]


def test_run_freezes_when_main_raises(monkeypatch):
    events = _record_entry(monkeypatch)

    def main():
        events.append("main")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(RuntimeError, match="boom"):
        cli.run()
    assert events == ["disable", "main", "freeze"]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["generate", "--bogus"], 2),
], ids=["help", "bad-option"])
def test_run_freezes_on_the_parsers_own_exit(monkeypatch, argv, code):
    events = _record_entry(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["fraclap", *argv])
    with pytest.raises(SystemExit):
        cli.run()
    assert events == ["disable", ("exit", code), "freeze"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main(["generate", "--family", "koch", "--level", "2",
                         "--out", str(tmp_path / "mesh.json")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("rhs", ["1/0", "x/0", "exp(1000)"])
def test_non_finite_rhs_exits_two_without_traceback_or_warning(tmp_path, rhs):
    out = run_fresh(
        "-m", "fraclap.cli", "solve", "--family", "sierpinski", "--level", "2",
        "--method", "rfd", "--constant", "5", "--rhs", rhs, "--bc", "1,0,0",
        "--out", str(tmp_path / "s.csv"),
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "not finite" in out.stderr
    assert "Traceback" not in out.stderr and "Warning" not in out.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("bc", ["nan,0,0", "inf,0,0", "0,-inf,0"])
def test_non_finite_boundary_data_is_usage_error(tmp_path, capsys, bc):
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "2", "--method", "rfd",
        "--constant", "5", "--rhs", "0", f"--bc={bc}",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    assert "boundary values must be finite" in capsys.readouterr().err


def test_non_finite_boundary_data_is_rejected_before_estimating(tmp_path, capsys):
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "5", "--method", "rfd",
        "--rhs", "0", "--bc=nan,0,0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "estimated constant" not in captured.out
    assert "boundary values must be finite" in captured.err


@pytest.mark.parametrize("constant", ["1e300", "inf", "1e-300"])
def test_unrepresentable_renormalization_exits_two_without_traceback(tmp_path, constant):
    out = run_fresh(
        "-m", "fraclap.cli", "solve", "--family", "sierpinski", "--level", "3",
        "--method", "rfd", "--constant", constant, "--rhs", "1", "--bc", "1,0,0",
        "--out", str(tmp_path / "o.csv"),
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "finite" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("rhs, bc", [("1e308", "0,0,0"), ("1", "1e308,-1e308,0")],
                         ids=["load", "boundary"])
def test_overflowing_data_exits_three_with_one_line(tmp_path, rhs, bc):
    # finite data whose solve overflows double precision: no block is singular
    out = run_fresh(
        "-m", "fraclap.cli", "solve", "--family", "sierpinski", "--level", "3",
        "--method", "rfd", "--rhs", rhs, "--bc", bc, "--out", str(tmp_path / "o.csv"),
    )
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["numerical failure: the data overflow double precision"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("rhs, bc, constant", [
    ("x\n+1", "0,0,0", ["--constant", "5"]),
    ("0", "0,0,\n0", ["--constant", "5"]),
    ("x\r+1", "0,0,0", ["--constant", "5"]),
    ("x\n+1", "0,0,0", []),  # refused before the constant is estimated
], ids=["x\n+1-0,0,0", "0-0,0,\n0", "x\r+1-0,0,0", "x\n+1-0,0,0-estimated"])
def test_line_break_in_a_header_value_exits_two_without_output(tmp_path, rhs, bc, constant):
    out = run_fresh(
        "-m", "fraclap.cli", "solve", "--family", "sierpinski", "--level", "2",
        "--method", "rfd", *constant, f"--rhs={rhs}", f"--bc={bc}",
        "--out", str(tmp_path / "s.csv"),
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and "line breaks" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("rhs, bc", [("0", "\u0663,0"), ("x\u00a0+1", "1,0")],
                         ids=["arabic-indic-three-in-bc", "no-break-space-in-rhs"])
def test_non_ascii_header_value_exits_two_before_building_the_level(tmp_path, capsys,
                                                                    builds_nothing, rhs, bc):
    """The solution header is ASCII; these used to solve and then fail to
    write it with a UnicodeEncodeError traceback (exit 1)."""
    rc = cli.main([
        "solve", "--family", "koch", "--level", "2", "--method", "rfd", "--constant", "16",
        f"--rhs={rhs}", f"--bc={bc}", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    # not even the seed was asked for (``builds_nothing``)
    assert not (tmp_path / "s.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "ASCII" in captured.err
    assert captured.err.isascii() and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    "renorm --family sierpinski --method fd --levels 3:9",
    "renorm --family hata2d --method fd --levels 3:6",
    "renorm --family koch --method fd --levels 2:6",
    "solve --family hata3d --level 6 --method rfd --rhs 0 --bc 1,0",
    "solve --family hata2d --level 8 --method rfd --rhs 0 --bc 1,0",
    "solve --family koch --level 8 --method rfd --rhs 0 --bc 1,0",
], ids=["renorm-sierpinski", "renorm-hata2d", "renorm-koch",
        "solve-hata3d", "solve-hata2d", "solve-koch"])
def test_fd_commands_with_large_solutions_succeed(tmp_path, command):
    """fd solutions grow like the constant to the level; these commands
    exited 3 under the former absolute residual bound."""
    out = run_fresh("-m", "fraclap.cli", *command.split(), "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


_SCIPY_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{body}
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps([rc, sorted(loaded)]))
"""

_CLI_BODY = """
    from fraclap import cli
    try:
        rc = cli.main({argv!r})
    except SystemExit as exc:
        rc = exc.code
"""

# the factored path on a caller-supplied CSR operator
_LINEAR_SOLVE_BODY = """
    import numpy as np
    from fraclap import build_level, graph_laplacian, linear_solve, partition
    mesh = build_level("sierpinski", 3)
    a_ii = partition(graph_laplacian(mesh), mesh.boundary_indices)[0]
    x, _ = linear_solve(a_ii, np.ones(a_ii.shape[0]))
    rc = 0 if np.isfinite(x).all() else 1
"""


@pytest.mark.parametrize("body, loads_scipy", [
    (_CLI_BODY.format(argv=["generate", "--family", "sierpinski", "--level", "3",
                            "--out", "{out}"]), False),
    (_CLI_BODY.format(argv=["--help"]), False),
    (_CLI_BODY.format(argv=["solve", "--family", "sierpinski", "--level", "3",
                            "--method", "rfd", "--constant", "5", "--rhs", "1",
                            "--bc", "1,0,0", "--out", "{out}"]), False),
    (_CLI_BODY.format(argv=["renorm", "--family", "hata3d", "--method", "fem-edge",
                            "--levels", "2:4", "--out", "{out}"]), False),
    (_LINEAR_SOLVE_BODY, True),
], ids=["generate", "help", "solve", "renorm", "linear_solve"])
def test_scipy_is_imported_only_to_factor(tmp_path, body, loads_scipy):
    """Built-in families are solved by condensation with numpy alone; scipy
    loads only to assemble and factor a CSR operator."""
    body = body.replace("{out}", str(tmp_path / "out"))
    out = run_fresh("-c", _SCIPY_PROBE.format(body=body))
    assert out.returncode == 0, out.stderr
    rc, loaded = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    assert bool(loaded) == loads_scipy, loaded
    assert ("scipy.sparse.linalg" in loaded) == loads_scipy


# json is read before the probe imports it to print its report
_STARTUP_PROBE = """
import contextlib, io, sys
from fraclap import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = cli.main({argv!r})
    except SystemExit as exc:
        rc = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("fraclap", "numpy", "json"))
import json
print(json.dumps([rc, loaded]))
"""


_PARSER_ONLY = ["fraclap", "fraclap.cli", "fraclap.errors"]
_SOLVERS = ["fraclap.geometry", "fraclap.graphs", "fraclap.measures", "fraclap.meshfile",
            "fraclap.renorm", "fraclap.solver"]


@pytest.mark.parametrize("argv, code, modules, loads_json", [
    (["--help"], 0, _PARSER_ONLY, False),
    (["generate", "--family", "nope", "--level", "3", "--out", "{out}"], 2, _PARSER_ONLY, False),
    (["generate", "--family", "koch", "--level", "abc", "--out", "{out}"], 2, _PARSER_ONLY,
     False),
    (["generate", "--family", "sierpinski", "--level", "3", "--out", "{out}"], 0,
     [*_PARSER_ONLY, "fraclap.geometry", "fraclap.meshfile"], True),
    (["renorm", "--family", "koch", "--method", "fd", "--levels", "2:3", "--out", "{out}"], 0,
     [*_PARSER_ONLY, *_SOLVERS], False),
    (["solve", "--family", "sierpinski", "--level", "3", "--method", "rfd", "--rhs", "1 + x",
      "--bc", "0,0,1", "--out", "{out}"], 0,
     [*_PARSER_ONLY, "fraclap.expressions", *_SOLVERS], False),
], ids=["help", "unknown-family", "text-level", "generate", "renorm", "solve"])
def test_a_command_loads_only_what_it_runs(tmp_path, argv, code, modules, loads_json):
    """Help and argument errors come before numpy loads, ``generate`` loads
    no solver module, and only the mesh document loads json."""
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    out = run_fresh("-c", _STARTUP_PROBE.format(argv=argv))
    assert out.returncode == 0, out.stderr
    rc, loaded = json.loads(out.stdout.splitlines()[-1])
    assert rc == code
    assert [m for m in loaded if m.startswith("fraclap")] == modules
    assert ("numpy" in loaded) == (modules != _PARSER_ONLY)
    assert ("json" in loaded) == loads_json


_API_PROBE = """
import importlib, sys
import fraclap
assert "numpy" not in sys.modules
assert set(fraclap.__all__) <= set(dir(fraclap))
# a submodule is an attribute of the package before anything imports it
assert fraclap.solver.BACKWARD_ERROR_BOUND > 0
assert not hasattr(fraclap, "nope")  # hasattr catches AttributeError alone
star = {}
exec("from fraclap import *", star)
assert star.keys() - {"__builtins__"} == set(fraclap.__all__)
for name in fraclap.__all__:
    value = getattr(fraclap, name)
    assert star[name] is value, name
    if name != "FAMILIES":
        assert getattr(importlib.import_module(value.__module__), name) is value, name
assert fraclap.geometry.FAMILIES is fraclap.FAMILIES
assert fraclap.renorm.SOLVE_METHODS is fraclap.SOLVE_METHODS
"""


def test_the_public_names_resolve_on_first_access():
    """``import fraclap`` loads no numpy; every public name then resolves to
    the object of its home module."""
    out = run_fresh("-c", _API_PROBE)
    assert out.returncode == 0, out.stderr


# -- the command line as a property: every well-formed solve succeeds, and
# every refusal is one line with its code ------------------------------------

def _run_main(argv):
    """``cli.main(argv)`` in process: its code, a parser refusal's too, its
    stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# numbers in repr and exponent forms, never negative: the sign is unary minus
_NUMBERS = st.one_of(st.floats(0.0, 100.0).map(repr),
                     st.builds("{}e{}".format, st.integers(0, 99), st.integers(-3, 1)))
_VALUES = st.floats(-1e3, 1e3).map(repr)


@st.composite
def _expressions(draw, coordinates):
    """A sum of products of numbers, coordinates, ``pi``, ``e`` and one-level
    ``sin``, ``cos`` and ``exp`` calls, any term negated: finite at every
    vertex, since no coordinate exceeds 1 in magnitude."""
    atoms = st.one_of(_NUMBERS, st.sampled_from([*coordinates, "pi", "e"]))
    factors = st.one_of(atoms, st.builds("{}({})".format,
                                         st.sampled_from(["sin", "cos", "exp"]), atoms))
    terms = draw(st.lists(st.lists(factors, min_size=1, max_size=2).map("*".join),
                          min_size=1, max_size=3))
    text = ""
    for k, term in enumerate(terms):
        sign = draw(st.sampled_from(["", "-"] if k == 0 else [" + ", " - ", " + -"]))
        text += sign + term
    return text


@st.composite
def _solve_commands(draw):
    """``(argv without --out, family, level, boundary values)`` of a
    well-formed ``solve``: a level from 1 to 3, a method the family admits,
    an ``--rhs`` in its coordinates, ``--bc`` of either sign and
    ``--constant`` present or absent, each value a separate token."""
    family = draw(st.sampled_from(geometry.FAMILIES))
    seed = build_level(family, 0)
    level = draw(st.integers(1, 3))
    method = draw(st.sampled_from(["rfd", "rfem1d", *(["rfem2d"] if seed.num_cells else [])]))
    bc = draw(st.lists(_VALUES, min_size=seed.boundary_indices.size,
                       max_size=seed.boundary_indices.size))
    argv = ["solve", "--family", family, "--level", str(level), "--method", method,
            "--rhs", draw(_expressions("xyz"[:seed.dimension])), "--bc", ",".join(bc)]
    constant = draw(st.none() | st.floats(0.5, 8.0).map(repr))
    if constant is not None:
        argv += ["--constant", constant]
    return argv, family, level, [float(v) for v in bc]


@st.composite
def _malformed_solve_commands(draw):
    """A well-formed ``solve`` with one defect: a wrong boundary count, an
    unknown name, a value that is not finite, a bad level, or rfem2d on a
    family without cells."""
    argv, family, _, bc = draw(_solve_commands())
    seed = build_level(family, 0)
    defect = draw(st.sampled_from(["count", "name", "finite", "level", "cells"]))
    if defect == "count":
        count = draw(st.sampled_from([n for n in (1, len(bc) - 1, len(bc) + 1, len(bc) + 2)
                                      if n > 0 and n != len(bc)]))
        argv[argv.index("--bc") + 1] = ",".join(["0.5"] * count)
    elif defect == "name":
        name = draw(st.sampled_from(["w", "t", "rho", *("z" if seed.dimension == 2 else "")]))
        argv[argv.index("--rhs") + 1] += f" + {name}"
    elif defect == "finite":
        bad = draw(st.sampled_from(["inf", "-inf", "nan"]))
        if draw(st.booleans()):
            argv[argv.index("--bc") + 1] = ",".join([bad, *map(repr, bc[1:])])
        else:
            argv += ["--constant", bad]
    elif defect == "level":
        top = geometry._largest_level(family)
        argv[argv.index("--level") + 1] = str(draw(st.sampled_from([-1, top + 1, top + 9])))
    else:
        no_cells = [f for f in geometry.FAMILIES if not build_level(f, 0).num_cells]
        argv[argv.index("--family") + 1] = draw(st.sampled_from(no_cells))
        argv[argv.index("--method") + 1] = "rfem2d"
        argv[argv.index("--bc") + 1] = "0,0"
    return argv


@settings(max_examples=50)
@given(_solve_commands())
def test_every_well_formed_solve_succeeds(command):
    argv, family, level, bc = command
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "u.csv")
        code, _, err = _run_main([*argv, "--out", out])
        assert code == 0, err
        _, coords, values = read_solution(out)
    assert len(values) == len(coords) == predicted_vertices(family, level)
    assert values[:len(bc)].tolist() == bc  # the boundary comes first, in seed order


@settings(max_examples=50)
@given(_malformed_solve_commands())
def test_every_malformed_solve_is_one_usage_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_main([*argv, "--out", os.path.join(tmp, "u.csv")])
        assert os.listdir(tmp) == []
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# -- generate and renorm as properties: every well-formed command writes its
# documented rows, and every refusal is one line with its code ---------------

@st.composite
def _generate_commands(draw):
    """``(argv without --out, family, level)`` of a well-formed ``generate``:
    any family at a level from 0 to 3."""
    family, level = draw(st.sampled_from(geometry.FAMILIES)), draw(st.integers(0, 3))
    return ["generate", "--family", family, "--level", str(level)], family, level


@st.composite
def _renorm_commands(draw):
    """``(argv without --out, family, A, B)`` of a well-formed ``renorm``: a
    method the family admits and levels ``1 <= A < B <= 4``."""
    family = draw(st.sampled_from(geometry.FAMILIES))
    cells = bool(build_level(family, 0).num_cells)
    method = draw(st.sampled_from(["fd", "energy", "fem-edge", *["fem-area"] * cells]))
    a = draw(st.integers(1, 3))
    b = draw(st.integers(a + 1, 4))
    return ["renorm", "--family", family, "--method", method, "--levels", f"{a}:{b}"], a, b


@st.composite
def _malformed_generate_or_renorm_commands(draw):
    """A well-formed ``generate`` or ``renorm`` with one defect: an unknown
    family or method, a level that is not an integer, negative or oversized,
    a level range that is not ``A:B`` with ``1 <= A < B``, or fem-area on a
    family without cells."""
    argv = draw(st.one_of(_generate_commands(), _renorm_commands()))[0]
    top = geometry._largest_level(argv[argv.index("--family") + 1])
    bad = {"--family": ["cantor", "Koch", ""]}
    if argv[0] == "generate":
        bad["--level"] = ["-1", "-7", str(top + 1), str(top + 9), "2.5", "two", "0x2"]
    else:
        bad["--method"] = ["rfd", "fem", "area"]
        bad["--levels"] = ["", "3", "2:2", "3:2", "0:2", "a:b", "1:2:3", "1.5:3", f"2:{top + 1}"]
        bad["cells"] = [f for f in geometry.FAMILIES if not build_level(f, 0).num_cells]
    option = draw(st.sampled_from(sorted(bad)))
    value = draw(st.sampled_from(bad[option]))
    if option == "cells":
        argv[argv.index("--family") + 1], argv[argv.index("--method") + 1] = value, "fem-area"
    else:
        argv[argv.index(option) + 1] = value
    return argv


@settings(max_examples=20)
@given(_generate_commands())
def test_every_well_formed_generate_writes_its_level(command):
    argv, family, level = command
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "mesh.json")
        code, printed, err = _run_main([*argv, "--out", out])
        assert code == 0, err
        mesh = read_mesh(out)
    assert mesh.num_vertices == predicted_vertices(family, level)
    assert mesh.boundary_indices.tolist() == list(range(build_level(family, 0).num_vertices))
    assert printed == (f"{family} level {level}: {mesh.num_vertices} vertices, "
                       f"{mesh.num_edges} edges, {mesh.num_cells} cells -> {out}\n")


@settings(max_examples=20)
@given(_renorm_commands())
def test_every_well_formed_renorm_writes_a_row_per_pair(command):
    argv, a, b = command
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "table.csv")
        code, printed, err = _run_main([*argv, "--out", out])
        assert code == 0, err
        with open(out) as fh:
            written = fh.read().splitlines()
    pairs = [f"{n}:{n + 1}" for n in range(a, b)]
    for table in (written, printed.splitlines()):
        assert table[0] == "pair,max,mean,min,excluded_count"
        assert [row.split(",")[0] for row in table[1:]] == pairs
    for row in written[1:]:
        vmax, vmean, vmin = map(float, row.split(",")[1:4])
        assert vmin <= vmean <= vmax


@settings(max_examples=30)
@given(_malformed_generate_or_renorm_commands())
def test_every_malformed_generate_or_renorm_is_one_usage_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_main([*argv, "--out", os.path.join(tmp, "out")])
        assert os.listdir(tmp) == []
    # a parser refusal prints its usage first
    lines = err.splitlines()
    assert (code, out) == (2, ""), err
    assert [line for line in lines if "error:" in line] == lines[-1:], err
    assert lines[0].startswith(("error:", "usage:")), err
