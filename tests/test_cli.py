"""Command line behavior: outputs, consistency with the library, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import fraclap
from fraclap import cli
from fraclap.geometry import build_level
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


@pytest.mark.parametrize("rhs, bc", [("sin(", "0,0,0"), ("0", "0,0")])
def test_solve_refuses_bad_rhs_or_bc_before_building_the_level(tmp_path, rhs, bc):
    build_level.cache_clear()
    rc = cli.main([
        "solve", "--family", "sierpinski", "--level", "11", "--method", "rfd",
        f"--rhs={rhs}", f"--bc={bc}", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    # at most the seed, which gives the boundary count
    assert build_level.cache_info().currsize <= 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", [
    "generate --family sierpinski --level 40",
    "solve --family sierpinski --level 40 --method rfd --rhs 0 --bc 1,0,0",
    "renorm --family sierpinski --method fd --levels 1:40",
], ids=["generate", "solve", "renorm"])
def test_oversized_level_exits_two_before_building(tmp_path, capsys, command):
    build_level.cache_clear()
    start = time.perf_counter()
    rc = cli.main([*command.split(), "--out", str(tmp_path / "out")])
    assert rc == 2 and time.perf_counter() - start < 1.0
    # at most the seed, which gives the boundary count
    assert build_level.cache_info().currsize <= 1
    assert list(tmp_path.iterdir()) == []
    assert "the largest sierpinski level allowed is 14" in capsys.readouterr().err


def _readme_commands():
    """The ``fraclap ...`` lines of the README's ``sh`` blocks, continuation
    lines joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("fraclap ")]


def test_readme_lists_twelve_commands():
    assert len(_readme_commands()) == 12


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_succeeds(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0
    out = argv[argv.index("--out") + 1]
    assert (tmp_path / out).stat().st_size > 0


def test_numerical_failure_exits_three(tmp_path):
    rc = cli.main([
        "solve", "--family", "koch", "--level", "2", "--method", "rfem2d",
        "--rhs", "0", "--bc", "1,0", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 3


def test_io_failure_exits_four():
    rc = cli.main(["generate", "--family", "koch", "--level", "1",
                   "--out", "/nonexistent-dir/mesh.json"])
    assert rc == 4


def test_module_entry_point_runs():
    out = run_fresh("-m", "fraclap.cli", "--help")
    assert out.returncode == 0
    assert "generate" in out.stdout and "renorm" in out.stdout


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
def test_non_ascii_header_value_exits_two_before_building_the_level(tmp_path, capsys, rhs, bc):
    """The solution header is ASCII; these used to solve and then fail to
    write it with a UnicodeEncodeError traceback (exit 1)."""
    build_level.cache_clear()
    rc = cli.main([
        "solve", "--family", "koch", "--level", "2", "--method", "rfd", "--constant", "16",
        f"--rhs={rhs}", f"--bc={bc}", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    assert build_level.cache_info().currsize == 0
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
