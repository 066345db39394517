#!/usr/bin/env python3
"""End-to-end benchmark of the fraclap command line, with a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload generate-deep --seed 1 --seconds 10 --trace 0

A workload is a fixed list of ``fraclap`` commands.  One client runs them in
a closed loop: each command is a fresh ``python -m fraclap.cli`` child,
started when the previous one has ended, so every command pays interpreter
and import start-up as a user does.  One pass runs every command once; passes
repeat until their measured time reaches ``--seconds``.  Each output file is
checked (see ``checks.py``) outside the timed region.

A pass takes 12-20 s at the commit that added the benchmark (2-core Xeon
VM), so a 10 s run is one pass.  Short runs are deliberate: that host's
speed drifts by up to 40% over a few minutes, which dominates the spread
between runs, and a set of short runs spans fewer of those periods.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median over passes of the summed wall time of a pass's
  commands, failed commands included;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any child, in MiB;
* ``ops_passed``: median over passes of the commands that exited 0 and
  passed their output check (the result's ``failed`` counts the others);
* ``setup_s``: median wall time of a fresh ``python -m fraclap.cli --help``.

``--trace 1`` runs one untraced pass, then the same commands through
``tracer.py`` and prints self time and calls per span, the counters, and
``trace.overhead_s`` (traced minus untraced pass time).

``--seed`` picks the boundary values, the forcing coefficients and the command
order; it never changes which commands run or their levels.  The last line
of standard output is the result as one JSON object; the lines before it
hold the full record: per-command times, exit codes and error messages of
failed commands, and the machine the run was made on.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNTERS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run ends within 180 s, whatever the program does


@dataclass(frozen=True)
class Command:
    """One fraclap command of a workload, before the seed fills in its data."""

    verb: str  # generate | renorm | solve
    family: str
    level: int = 0  # generate, solve
    levels: tuple[int, int] = (0, 0)  # renorm
    method: str = ""
    constant: float | None = None  # solve: None estimates the constant
    forced: bool = False  # solve: forcing sin(a*x+b*y) instead of 0


# Why these: generate-deep isolates mesh construction and the mesh writer
# (one build per process, so no cross-level reuse, and no solver: the control
# for solver and assembly changes).  renorm-sweep builds every level of each
# range and runs about 25 medium model solves per command, so cross-level
# reuse, embed, assembly and factorization show while output is tiny.
# solve-large makes one large solve with boundary data and writes a large CSV;
# only its auto-constant commands build coarser levels.  The fd commands that
# exceed the solver's residual contract stay in: they count as failed.
WORKLOADS = {
    "generate-deep": [
        Command("generate", "sierpinski", level=10),
        Command("generate", "hata2d", level=7),
        Command("generate", "hata3d", level=6),
    ],
    "renorm-sweep": [
        Command("renorm", "sierpinski", levels=(3, 9), method="fd"),
        Command("renorm", "sierpinski", levels=(4, 9), method="fem-area"),
        Command("renorm", "koch", levels=(3, 8), method="fem-edge"),
        Command("renorm", "hata2d", levels=(3, 6), method="fd"),
        Command("renorm", "hata3d", levels=(3, 6), method="fem-edge"),
    ],
    "solve-large": [
        Command("solve", "sierpinski", level=10, method="rfem2d", forced=True),
        Command("solve", "sierpinski", level=10, method="rfd", constant=5.0),
        Command("solve", "hata3d", level=6, method="rfd"),
    ],
}
BOUNDARY_COUNT = {"koch": 2, "sierpinski": 3, "hata2d": 2, "hata3d": 2}


@dataclass
class Invocation:
    """A command with its seeded data: CLI arguments and what to check."""

    command: Command
    args: list[str]
    output: str
    bc: list[float] | None = None
    ab: tuple[float, float] | None = None


def plan(commands, seed: int, workdir: Path) -> list[Invocation]:
    rng = random.Random(seed)
    order = list(commands)
    rng.shuffle(order)
    out = []
    for k, c in enumerate(order):
        path = str(workdir / f"{k}-{c.verb}.out")
        bc = ab = None
        if c.verb == "generate":
            args = ["--level", str(c.level)]
        elif c.verb == "renorm":
            args = ["--method", c.method, "--levels", f"{c.levels[0]}:{c.levels[1]}"]
        else:
            bc = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(BOUNDARY_COUNT[c.family])]
            if c.forced:
                ab = (round(rng.uniform(0.5, 3.0), 3), round(rng.uniform(0.5, 3.0), 3))
            args = ["--level", str(c.level), "--method", c.method,
                    "--rhs", f"sin({ab[0]}*x+{ab[1]}*y)" if ab else "0",
                    "--bc=" + ",".join(map(repr, bc))]
            if c.constant is not None:
                args += ["--constant", repr(c.constant)]
        out.append(Invocation(c, [c.verb, "--family", c.family, *args, "--out", path],
                              path, bc, ab))
    return out


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit: int
    stderr: str


class Runner:
    """Runs children one at a time under the run's deadline."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def child(self, argv) -> ChildResult:
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace").strip()
        return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                           proc.returncode, stderr)

    def cli(self, args) -> ChildResult:
        return self.child([sys.executable, "-m", "fraclap.cli", *args])

    def traced(self, args, trace_path: Path) -> ChildResult:
        return self.child([sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *args])

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


class Checker:
    """Output checks, made after the timed passes.

    The parent keeps to the standard library while children run, because a
    child's ``ru_maxrss`` includes the parent's resident set at fork.  An
    output identical to one already kept is not kept again.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir / "outputs"
        self.dir.mkdir()
        self.kept = {}  # (command, sha256) -> (invocation, kept file)

    def keep(self, inv: Invocation, command: str) -> str:
        digest = hashlib.sha256(Path(inv.output).read_bytes()).hexdigest()
        if (command, digest) in self.kept:
            os.remove(inv.output)
        else:
            path = self.dir / str(len(self.kept))
            os.replace(inv.output, path)
            self.kept[(command, digest)] = (inv, path)
        return digest

    def verdicts(self):
        """Check every kept output; map (command, sha256) to a problem or None."""
        meshes = {}
        out = {}
        for key, (inv, path) in self.kept.items():
            try:
                out[key] = self._check(inv, path, meshes)
            except Exception as exc:  # an output the check cannot read fails it
                out[key] = f"check raised {exc!r}"
        return out

    @staticmethod
    def _check(inv: Invocation, path: Path, meshes):
        import checks

        c = inv.command
        nb = BOUNDARY_COUNT[c.family]
        if c.verb == "generate":
            return checks.check_generate(path, c.family, c.level, nb)
        if c.verb == "renorm":
            return checks.check_renorm(path, c.family, c.method, c.levels)
        if (c.family, c.level) not in meshes:
            from fraclap.geometry import build_level

            mesh = build_level(c.family, c.level)
            meshes[c.family, c.level] = (mesh, checks.check_mesh(mesh, c.family, c.level, nb))
        mesh, problem = meshes[c.family, c.level]
        if problem:
            return f"reference mesh: {problem}"
        return checks.check_solve(path, mesh, c.method, inv.bc, inv.ab)


def run_pass(runner: Runner, checker: Checker, invocations, trace_dir: Path | None = None):
    """Run every command once; return one record per command."""
    records = []
    for k, inv in enumerate(invocations):
        if runner.expired():
            break
        if trace_dir is None:
            res = runner.cli(inv.args)
        else:
            res = runner.traced(inv.args, trace_dir / f"{k}.json")
        command = "fraclap " + " ".join(inv.args)
        rec = {"command": command, "wall_s": res.wall_s, "cpu_s": res.cpu_s,
               "rss_mib": res.rss_mib, "exit": res.exit}
        if res.exit == 0:
            rec["output_sha256"] = checker.keep(inv, command)
        else:
            rec["stderr"] = res.stderr.splitlines()[-1] if res.stderr else ""
            if os.path.exists(inv.output):
                os.remove(inv.output)
        records.append(rec)
    return records


def passed(rec) -> bool:
    return rec["exit"] == 0 and "check" not in rec


def percentile_summary(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "samples": len(values)}
    for p in (99.9, 99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = values[min(len(values) - 1, int(len(values) * p / 100))]
            break
    return out


def machine_stamp(root: Path):
    def meminfo():
        try:
            with open("/proc/meminfo") as fh:
                return int(fh.readline().split()[1]) * 1024
        except (OSError, ValueError, IndexError):
            return None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    def git_commit():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    src = hashlib.sha256()
    for path in sorted((root / "src" / "fraclap").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": meminfo(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
    }


def measure(commands, seed: int, seconds: float, trace: bool, root: Path):
    """Run one benchmark run; return ``(result, record)``."""
    workdir = root / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir, time.monotonic() + DEADLINE_S)
        checker = Checker(workdir)
        invocations = plan(commands, seed, workdir)
        record = {"seed": seed, "seconds": seconds, "trace": int(trace),
                  "machine": machine_stamp(root)}
        if trace:
            trace_dir = workdir / "trace"
            trace_dir.mkdir()
            passes = [run_pass(runner, checker, invocations),
                      run_pass(runner, checker, invocations, trace_dir)]
        else:
            setup = [runner.cli(["--help"]).wall_s for _ in range(SETUP_REPEATS)]
            passes, measured = [], 0.0
            while not passes or (measured < seconds and not runner.expired()):
                passes.append(run_pass(runner, checker, invocations))
                measured += sum(r["wall_s"] for r in passes[-1])
        records = [r for p in passes for r in p]
        verdicts = checker.verdicts()
        for r in records:
            problem = verdicts.get((r["command"], r.get("output_sha256")))
            if problem:
                r["check"] = problem
        walls = [sum(r["wall_s"] for r in p) for p in passes]
        ok = [sum(map(passed, p)) for p in passes]
        record["passes"] = passes
        record["ops_failed"] = [len(p) - n for p, n in zip(passes, ok)]
        record["failures"] = [r for r in records if not passed(r)]
        if trace:
            metrics, record["missing_spans"], record["counter_errors"] = \
                trace_metrics(trace_dir, len(passes[1]))
            metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
        else:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (max(r["rss_mib"] for r in records), "MiB"),
                "ops_passed": (statistics.median(ok), "count"),
                "setup_s": (statistics.median(setup), "s"),
            }
            record["wall_s"] = percentile_summary(walls)
            record["setup_s"] = percentile_summary(setup)
        result = {
            # a command that exits 0 must have written correct output
            "correct": all("check" not in r for r in records)
                       and len(records) == len(passes) * len(invocations),
            "attempted": len(records),
            "failed": len(record["failures"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def trace_metrics(trace_dir: Path, count: int):
    """Sum the traced commands' spans and counters into per-layer metrics."""
    spans = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    counters = dict.fromkeys(COUNTERS, 0)
    counters["solver.backward_error_max"] = 0.0
    missing, errors = set(), []
    for k in range(count):
        path = trace_dir / f"{k}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        missing.update(doc["missing"])
        errors += doc["counter_errors"]
        for name, span in doc["spans"].items():
            spans[name]["self_s"] += span["self_s"]
            spans[name]["calls"] += span["calls"]
        for name, value in doc["counters"].items():
            if name == "solver.backward_error_max":
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    metrics = {}
    for name, span in spans.items():
        metrics[f"{name}.self_s"] = (span["self_s"], "s")
        metrics[f"{name}.calls"] = (span["calls"], "count")
    units = {"solver.backward_error_max": "ratio", "meshfile.bytes_written": "B"}
    for name, value in counters.items():
        metrics[name] = (value, units.get(name, "count"))
    return metrics, sorted(missing), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fraclap" / "cli.py").is_file():
        print(f"error: {root} holds no fraclap sources (src/fraclap); "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), root)
    record["workload"] = args.workload
    print(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
