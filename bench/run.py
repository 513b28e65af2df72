#!/usr/bin/env python3
"""Benchmark of the shapefeat CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload detect --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each timed command runs as its own ``python -m shapefeat``
process, one after another (a closed loop with one client), and the
end-to-end metrics of BENCHMARK.json are reported. With ``--trace 1`` the
same commands run in this process through ``shapefeat.cli.main``, once plain
and once with every layer function wrapped by a span recorder, and the
per-layer metrics are reported. Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record of the run goes to ``.bench_out/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# One thread per process, so timings do not depend on idle BLAS pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# `workloads` and `spans` import NumPy and shapefeat, so they are imported
# inside functions: the launcher must start before this process grows.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
IMPORT_REPEATS = 5
# Every run must end within 180 s; stop starting work well before that.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


class Runner:
    """Runs CLI commands as child processes and keeps what each one did.

    Children are forked by `launcher.py`, a process started before this one
    allocates anything, so each child's peak RSS is its own.
    """

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.attempted = 0
        self.failures: list = []
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def spawn(self, argv) -> dict:
        """Exit code, wall time and the child's own peak RSS (os.wait4)."""
        log = self.workdir / "child.log"
        request = {
            "argv": [sys.executable, *argv],
            "cwd": str(self.workdir),
            "log": str(log),
            "timeout": max(1.0, CHILD_TIMEOUT_S - (time.perf_counter() - self.started)),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        result = json.loads(self.launcher.stdout.readline())
        result["log"] = log.read_text(errors="replace")[-2000:]
        return result

    def command(self, cmd) -> dict:
        self.attempted += 1
        result = self.spawn(["-m", "shapefeat", *cmd.argv])
        if result["code"] != 0:
            self.fail(f"{cmd.argv[0]} exited {result['code']}: {result['log']}")
        return result


def setup_fixture(workload, workdir: Path, seed: int, repeats: int, runner: Runner):
    """Set up `repeats` times; the files must come out byte-identical each time."""
    times, digests = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fx = workload.setup(workdir, seed)
        times.append(time.perf_counter() - t0)
        digests.append(fx.digest())
    if any(d != digests[0] for d in digests):
        runner.fail("set-up files differ between repetitions")
    # Byte-compile and page in the package before anything is timed.
    runner.spawn(["-c", "import shapefeat.cli"])
    return fx, times


def check_first_round(workload, fx, runner: Runner, first) -> float:
    """Parse the first round's outputs, run the check commands, return bag recall."""
    from workloads import check_output

    for cmd in first:
        problem = check_output(cmd, workload.classes)
        if problem:
            runner.fail(f"{cmd.metric}: {problem}")
    checks = workload.check_commands(fx, first)
    for cmd in checks:
        if runner.command(cmd)["code"] != 0:
            return 0.0
    recall, problem = workload.recalls(first, checks)
    if problem:
        runner.fail(problem)
    return recall


def check_repeats(runner: Runner, digests: dict, cmd, label: str) -> None:
    """Output bytes of a command must not change between repeats of the same code."""
    from workloads import sha256

    digest = sha256(cmd.out)
    first = digests.setdefault(cmd.metric, digest)
    if digest != first:
        runner.fail(f"{cmd.metric} output differs in {label} from the first run")


def run_untraced(workload, fx, runner: Runner, seconds: float) -> dict:
    """Rounds of the timed commands until `seconds` have passed (at least MIN_ROUNDS)."""
    rounds = []
    digests: dict = {}
    recall = 0.0
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        last = sum(r["wall_s"] for r in rounds[-1].values()) if rounds else 0.0
        if rounds and time.perf_counter() - runner.started + 1.5 * last > BUDGET_S:
            break
        cmds = workload.commands(fx, len(rounds))
        results = {}
        for cmd in cmds:
            results[cmd.metric] = runner.command(cmd)
            if results[cmd.metric]["code"] != 0:
                return {"rounds": rounds, "recall": recall}
            check_repeats(runner, digests, cmd, f"round {len(rounds)}")
        rounds.append(results)
        if len(rounds) == 1:
            recall = check_first_round(workload, fx, runner, cmds)
    return {"rounds": rounds, "recall": recall}


def end_to_end(workload, fx, setup_times, measured):
    """The end-to-end metrics, and the median time of each timed command."""
    rounds = measured["rounds"]
    keys = list(rounds[0])
    points = sum(cmd.points for cmd in workload.commands(fx, 0))
    wall = median([sum(it[k]["wall_s"] for k in keys) for it in rounds])
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "points_per_s": points / wall,
        "peak_rss_mb": max(median([it[k]["rss_mb"] for it in rounds]) for k in keys),
        "bag_recall": measured["recall"],
    }
    commands = {k: median([it[k]["wall_s"] for it in rounds]) for k in keys}
    return metrics, commands


def call_cli(argv) -> int:
    from shapefeat import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def in_process(workload, fx, runner: Runner, tag: str, reference: dict, recorder=None):
    """One round through shapefeat.cli.main in this process; returns its wall time."""
    from workloads import Command

    total = 0.0
    for cmd in workload.commands(fx, 0):
        out = cmd.out.with_name(f"{tag}-{cmd.out.name}")
        argv = tuple(str(out) if a == str(cmd.out) else a for a in cmd.argv)
        runner.attempted += 1
        t0 = time.perf_counter()
        if recorder is None:
            code = call_cli(argv)
        else:
            code = recorder.run(f"cli.{argv[0]}", call_cli, argv)
        total += time.perf_counter() - t0
        if code != 0:
            runner.fail(f"in-process {argv[0]} ({tag}) exited {code}")
            continue
        check_repeats(runner, reference, Command(cmd.metric, argv, out, cmd.points), tag)
    return total


def run_traced(workload, fx, runner: Runner, seconds: float):
    """A reference round of CLI children, then plain and traced in-process rounds."""
    from spans import Recorder, layer_metrics, memory_metrics

    reference: dict = {}
    ref_cmds = workload.commands(fx, 0)
    for cmd in ref_cmds:
        if runner.command(cmd)["code"] != 0:
            return None, None
        check_repeats(runner, reference, cmd, "the reference run")
    check_first_round(workload, fx, runner, ref_cmds)

    plain, traced, layers, recorders = [], [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        if traced and time.perf_counter() - runner.started + 1.5 * (plain[-1] + traced[-1]) > BUDGET_S:
            break
        rec = Recorder()
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for tag in order:
            if tag == "plain":
                plain.append(in_process(workload, fx, runner, tag, reference))
            else:
                rec.install()
                try:
                    traced.append(in_process(workload, fx, runner, tag, reference, rec))
                finally:
                    rec.uninstall()
        layers.append(layer_metrics(rec))
        recorders.append(rec)

    # Times are medians over the traced rounds; counts repeat exactly.
    metrics = {
        name: median([it[name] for it in layers]) if name.endswith("_s") else value
        for name, value in layers[0].items()
    }
    metrics.update(memory_metrics(recorders[0]))
    imports = [
        runner.spawn(["-c", "import shapefeat.cli"])["wall_s"] for _ in range(IMPORT_REPEATS)
    ]
    metrics["cli.import_s"] = median(imports)
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    self_s = [rec.self_times() for rec in recorders]
    ranking = sorted(
        ((name, median([s.get(name, 0.0) for s in self_s])) for name in self_s[0]),
        key=lambda kv: -kv[1],
    )
    total = sum(t for _, t in ranking)
    shares = [(name, t, t / total) for name, t in ranking]
    return metrics, shares


def measure(args, runner: Runner):
    """Set up, run the workload; returns (row, metrics, extra), metrics None on failure."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    repeats = 1 if args.trace else SETUP_REPEATS
    fx, setup_times = setup_fixture(workload, runner.workdir, args.seed, repeats, runner)
    row = workload.row(fx, args.seed)
    row.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        trace=args.trace,
        seconds=args.seconds,
    )
    if args.trace:
        metrics, shares = run_traced(workload, fx, runner, args.seconds)
        return row, metrics, {"layer_self_time_shares": shares}
    measured = run_untraced(workload, fx, runner, args.seconds)
    rounds = measured["rounds"]
    if not rounds:
        return row, None, {}
    metrics, commands = end_to_end(workload, fx, setup_times, measured)
    extra = {
        "command_s": commands,
        "rounds": [
            {k: {"wall_s": r["wall_s"], "rss_mb": r["rss_mb"]} for k, r in it.items()}
            for it in rounds
        ],
        "setup_s_all": setup_times,
    }
    return row, metrics, extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shapefeat" / "cli.py").is_file():
        print(f"error: no shapefeat sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Before this process allocates anything large: children fork from it.
    runner = Runner(workdir, time.perf_counter())
    try:
        row, metrics, extra = measure(args, runner)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: " + "; ".join(runner.failures), file=sys.stderr)
        return 1

    failed = len(runner.failures)
    extra["error_rate"] = failed / runner.attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps(row, sort_keys=True))
    for name, item in report.items():
        print(f"{name}: {item['value']!r} {item['unit']}")
    if args.trace:
        for name, seconds, share in extra["layer_self_time_shares"]:
            print(f"  self {name}: {seconds:.4f} s ({share:.1%})")
    else:
        for name, seconds in extra["command_s"].items():
            print(f"{name}: {seconds!r} s")
    print(f"error_rate: {extra['error_rate']!r} ({failed} of {runner.attempted} commands)")
    for failure in runner.failures:
        print(f"FAILED: {failure}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(row=row, metrics=metrics, failures=runner.failures, **extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
