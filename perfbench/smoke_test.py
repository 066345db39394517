"""Smoke test of the benchmark: every workload at tiny levels, untraced and
traced, plus the refusal to run without the sources.

Run from the repository root, in about a minute:

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from run import Command  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

# The workloads' command kinds at levels that run in well under a second.
TINY = {
    "generate-deep": [
        Command("generate", "sierpinski", level=4),
        Command("generate", "hata2d", level=3),
        Command("generate", "hata3d", level=3),
    ],
    "renorm-sweep": [
        Command("renorm", "sierpinski", levels=(2, 4), method="fd"),
        Command("renorm", "sierpinski", levels=(2, 4), method="fem-area"),
        Command("renorm", "koch", levels=(2, 4), method="fem-edge"),
        Command("renorm", "hata2d", levels=(3, 5), method="fd"),
        Command("renorm", "hata3d", levels=(2, 4), method="fem-edge"),
    ],
    "solve-large": [
        Command("solve", "sierpinski", level=4, method="rfem2d", forced=True),
        Command("solve", "sierpinski", level=4, method="rfd", constant=5.0),
        Command("solve", "hata3d", level=3, method="rfd"),
    ],
}

# Spans each tiny workload must reach.
REACHED = {
    "generate-deep": ["cli.main", "geometry.build_level", "geometry.iterate",
                      "meshfile.write_mesh"],
    "renorm-sweep": ["geometry.embed", "graphs.graph_laplacian",
                     "measures.fd_graph_stiffness", "measures.fem_area_stiffness",
                     "measures.fem_edge_stiffness", "measures.load_vector",
                     "solver.partition", "solver.linear_solve", "solver.solve_dirichlet",
                     "renorm.estimate_laplacian_ratio", "renorm.estimate_energy_ratio",
                     "meshfile.write_table"],
    "solve-large": ["renorm.auto_constant", "renorm.renormalize", "renorm.solve_online",
                    "expressions.compile_expression", "expressions.Expression.evaluate",
                    "meshfile.write_solution"],
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in _spec()["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(TINY) == sorted(run.WORKLOADS)
    for name, commands in TINY.items():
        full = run.WORKLOADS[name]
        assert [(c.verb, c.family, c.method) for c in commands] == \
            [(c.verb, c.family, c.method) for c in full]


def test_untraced_tiny_workloads():
    names = {m["name"] for m in _spec()["end_to_end"]}
    for name, commands in TINY.items():
        result, record = run.measure(commands, seed=3, seconds=0, trace=False, root=ROOT)
        assert result["correct"], record["failures"]
        assert result["failed"] == 0, record["failures"]
        assert result["attempted"] == len(commands)
        assert result["metrics"]["ops_passed"]["value"] == len(commands)
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert record["machine"]["nproc"] >= 1


def test_failed_check_counts_against_ops_passed():
    import checks

    key = ("koch", "fem-edge")
    saved = checks.CONSTANTS[key]
    checks.CONSTANTS[key] = 1.0
    try:
        result, record = run.measure(TINY["renorm-sweep"], seed=3, seconds=0, trace=False,
                                     root=ROOT)
    finally:
        checks.CONSTANTS[key] = saved
    assert not result["correct"]
    assert result["failed"] == 1 and record["ops_failed"] == [1]
    assert result["metrics"]["ops_passed"]["value"] == 4
    assert "last-pair mean" in record["failures"][0]["check"]


def test_seed_changes_data_not_commands():
    a = run.plan(TINY["solve-large"], 1, ROOT)
    b = run.plan(TINY["solve-large"], 2, ROOT)
    assert sorted(map(repr, (i.command for i in a))) == sorted(map(repr, (i.command for i in b)))
    assert [i.bc for i in a] != [i.bc for i in b]


def test_traced_tiny_workloads():
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    for name, commands in TINY.items():
        result, record = run.measure(commands, seed=5, seconds=0, trace=True, root=ROOT)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert set(result["metrics"]) == per_layer
        # every listed function resolves or is reported missing; none is missing here
        assert set(record["missing_spans"]) <= set(SPAN_NAMES)
        assert record["missing_spans"] == []
        assert record["counter_errors"] == []
        metrics = result["metrics"]
        for span in REACHED[name]:
            assert metrics[f"{span}.calls"]["value"] > 0, span
            assert metrics[f"{span}.self_s"]["value"] > 0, span
        assert metrics["cli.main.calls"]["value"] == len(commands)
        assert metrics["meshfile.bytes_written"]["value"] > 0
        if name == "generate-deep":
            assert metrics["geometry.vertices_built"]["value"] == 123 + 126 + 217
        else:
            assert 0 < metrics["solver.backward_error_max"]["value"] < 1e-12
            assert metrics["measures.nnz"]["value"] > 0
            assert metrics["solver.unknowns"]["value"] > 0


def test_unresolved_name_is_reported_missing():
    code = ("import tracer; tracer.SPANS['geometry'].append('no_such_function'); "
            "print(tracer.install(tracer.Tracer()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['geometry.no_such_function']"


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "generate-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok {test.__name__}", flush=True)
