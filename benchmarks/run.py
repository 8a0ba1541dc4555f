"""Benchmark of the qeuler CLI: time to a fixed session of exact, checked results.

    python3 benchmarks/run.py --workload routes|convexity|inverse \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/`` and nothing needs building.  One client runs the
workload's commands in a closed loop, each in a fresh interpreter as a
user runs the tool, and repeats the whole list (a pass) for as many
passes as fit in ``S`` seconds, at least one.  Every output goes through
the correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics: medians over the passes of
wall time and child CPU time, each in units of bare interpreter starts
timed just before the pass, and of peak child RSS; the median CLI
start-up time; and the share of commands that passed the gate.
``--trace 1`` instead alternates untraced passes with passes that time
spans around each layer's public functions, adds one pass under cProfile
for exact call counts, and reports the per-layer metrics.

The last line of standard output is the JSON result; the lines before it
are the run record and a readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from gate import Outcome, judge
from workloads import EXCLUDED, WORKLOADS, Command, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ARGV = [sys.executable, "-c", "import qeuler.cli"]
#: A bare interpreter start importing only the standard-library modules
#: the CLI uses.  It measures the machine, never qeuler, and pass times are
#: reported in units of it (see "Noise" in README.md).
START_ARGV = [sys.executable, "-c", "import argparse, dataclasses, enum, fractions, json, re"]

#: Start-ups timed before each pass, so that the samples spread over the
#: run like the passes do: of the CLI for ``setup_s``, bare for the unit.
SETUP_PER_PASS = 2
START_PER_PASS = 3
COMMAND_TIMEOUT_S = 120.0
#: Untraced and span passes alternated in a traced run.
TRACE_PAIRS = 3
#: Commands not started by then count as failed, so a run always ends
#: within three minutes.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Finished:
    """A child process that exited, with its resource usage from wait4."""

    exit: int
    out: str
    err: str
    started: float
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, timeout_s: float) -> Finished | None:
    """Run argv to completion; None if it outlived ``timeout_s`` and was killed."""
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = started + timeout_s - time.monotonic()
                if left <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(timeout=max(left, 0.1)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        return None
    return Finished(
        exit=proc.returncode,
        out=b"".join(chunks[proc.stdout]).decode(),
        err=b"".join(chunks[proc.stderr]).decode(),
        started=started,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QEULER_OUT_DIR", None)
    return env


def untraced_argv(cmd: Command) -> list[str]:
    if cmd.program == "lib":
        return [sys.executable, str(HERE / "window.py"), *cmd.argv]
    return [sys.executable, "-m", "qeuler", *cmd.argv]


def traced_argv(mode: str):
    def argv(cmd: Command) -> list[str]:
        return [sys.executable, str(HERE / "trace_child.py"), mode, cmd.program, *cmd.argv]

    return argv


@dataclass
class Pass:
    wall_s: float
    children: list  # Finished | None per command
    reasons: list  # gate verdict per command: None passed, else why not
    records: list | None = None  # traced passes: the child's JSON record


def run_pass(cmds: list[Command], argv_of, env: dict, deadline: float, traced: bool = False) -> Pass:
    t0 = time.monotonic()
    children = []
    for cmd in cmds:
        left = min(COMMAND_TIMEOUT_S, deadline - time.monotonic())
        children.append(run_child(argv_of(cmd), env, left) if left > 0 else None)
    wall = time.monotonic() - t0
    records = None
    if traced:
        records = [_trace_record(child) for child in children]
        outcomes = [None if r is None else Outcome(r["exit"], r["out"]) for r in records]
    else:
        outcomes = [None if c is None else Outcome(c.exit, c.out) for c in children]
    return Pass(wall, children, judge(cmds, outcomes), records)


def _trace_record(child: Finished | None) -> dict | None:
    if child is None or child.exit != 0:
        return None
    try:
        return json.loads(child.out.rstrip("\n").rsplit("\n", 1)[-1])
    except ValueError:
        return None


def samples(argv: list[str], env: dict, count: int) -> list[Finished]:
    """``count`` runs of a fixed child that must succeed."""
    out = []
    for _ in range(count):
        child = run_child(argv, env, COMMAND_TIMEOUT_S)
        if child is None or child.exit != 0:
            raise RuntimeError(f"{' '.join(argv)} failed: {child.err if child else 'timed out'}")
        out.append(child)
    return out


def end_to_end(passes: list[Pass], starts: list[list[Finished]], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw times the ``*_starts`` ones scale.

    ``starts[i]`` holds the bare interpreter starts timed just before pass
    ``i``; pass ``i`` is measured in units of their median.
    """
    median = statistics.median
    cpu = [sum(c.cpu_s for c in p.children if c is not None) for p in passes]
    start_wall = [median(s.wall_s for s in ss) for ss in starts]
    start_cpu = [median(s.cpu_s for s in ss) for ss in starts]
    rss = [max((c.maxrss_kb for c in p.children if c is not None), default=0) / 1024 for p in passes]
    attempted = sum(len(p.children) for p in passes)
    failed = sum(r is not None for p in passes for r in p.reasons)
    metrics = {
        "wall_starts": (median(p.wall_s / s for p, s in zip(passes, start_wall)), "starts"),
        "cpu_starts": (median(c / s for c, s in zip(cpu, start_cpu)), "starts"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }
    raw = {
        "wall_s": (median(p.wall_s for p in passes), "s"),
        "cpu_s": (median(cpu), "s"),
        "start_s": (median(start_wall), "s"),
    }
    return metrics, raw


def _span_pass(cmds: list[Command], traced: Pass) -> tuple[dict, dict]:
    """Span metrics of one traced pass, and the split of its wall time."""
    stats: dict[str, list] = {}
    start = entry = 0.0
    import_times = []
    out_bytes = 0
    for cmd, child, rec in zip(cmds, traced.children, traced.records):
        if rec is None:
            continue
        for name, (calls, total, self_s) in rec["spans"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        start += rec["t_start"] - child.started
        import_times.append(rec["t_imported"] - rec["t_start"])
        entry += rec["t_exit"] - rec["t_entry"]
        if cmd.program == "cli":
            out_bytes += len(rec["out"].encode())

    values: dict[str, float] = {}
    for name, _ in layers.PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("total_s", "self_s"):
            values[name] = stats.get(base, [0, 0.0, 0.0])[1 if field == "total_s" else 2]
    values["cli.output_bytes"] = out_bytes
    values["import_s"] = statistics.median(import_times) if import_times else 0.0
    values["trace.traced_wall_s"] = traced.wall_s
    values["trace.interpreter_start_s"] = start
    values["trace.uncovered_s"] = traced.wall_s - start - sum(import_times) - entry

    split = {"interpreter start": start, "import": sum(import_times)}
    for name, (_, _, self_s) in stats.items():
        module = name.split(".", 1)[0]
        split[module] = split.get(module, 0.0) + self_s
    split["entry outside spans"] = entry - sum(s[2] for s in stats.values())
    split["uncovered"] = values["trace.uncovered_s"]
    return values, split


def per_layer(cmds: list[Command], untraced: list[Pass], spans: list[Pass], profile: Pass) -> tuple[dict, dict]:
    """The per-layer metrics, plus the wall-time split of the median span pass.

    Span times are medians over the span passes; counts come from the
    single profiler pass, where they are exact.
    """
    median = statistics.median
    per_pass = sorted((_span_pass(cmds, p) for p in spans), key=lambda vs: vs[0]["trace.traced_wall_s"])
    values = {name: median(v[name] for v, _ in per_pass) for name in per_pass[0][0]}
    values["trace.untraced_wall_s"] = median(p.wall_s for p in untraced)
    values["trace.overhead_ratio"] = values["trace.traced_wall_s"] / values["trace.untraced_wall_s"]

    counts: dict[str, int] = {}
    bits = 0
    for rec in filter(None, profile.records):
        bits = max(bits, rec["max_coeff_bits"])
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
    for name, _ in layers.PER_LAYER:
        if name.endswith(".calls"):
            values[name] = counts.get(name.removesuffix(".calls"), 0)
    values["algebra.fraction_ops"] = counts.get("algebra.fraction_ops", 0)
    values["algebra.max_coeff_bits"] = bits

    metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
    return metrics, per_pass[len(per_pass) // 2][1]


def run_record(args, cmds: list[Command], passes: list[Pass], setup: list[float], starts: list) -> dict:
    walls = []
    for i, cmd in enumerate(cmds):
        done = [p.children[i] for p in passes if p.children[i] is not None]
        walls.append({
            "argv": " ".join((cmd.program, *cmd.argv)),
            "wall_s": [round(c.wall_s, 4) for c in done],
            "cpu_s": [round(c.cpu_s, 4) for c in done],
            "failures": sorted({p.reasons[i] for p in passes if p.reasons[i]}),
        })
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "setup_s": [round(t, 4) for t in setup],
        "start_s": [[round(s.wall_s, 4) for s in ss] for ss in starts],
        "commands": walls,
        "excluded_sizes": [{"argv": argv, "cost": cost} for argv, cost in EXCLUDED],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qeuler" / "__init__.py").is_file():
        sys.stderr.write(f"no qeuler package under {SRC}; run inside a qeuler checkout\n")
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the running child is killed
    deadline = time.monotonic() + RUN_DEADLINE_S
    cmds = build(args.workload, args.seed)
    env = child_env()
    samples(SETUP_ARGV, env, 1)  # may compile bytecode, so it is never counted
    setup: list[float] = []
    starts: list[list[Finished]] = []
    raw: dict = {}
    if args.trace:
        untraced, spans = [], []
        for _ in range(TRACE_PAIRS):  # alternated, so drift in machine speed hits both alike
            untraced.append(run_pass(cmds, untraced_argv, env, deadline))
            spans.append(run_pass(cmds, traced_argv("spans"), env, deadline, traced=True))
        profile = run_pass(cmds, traced_argv("profile"), env, deadline, traced=True)
        passes = untraced + spans + [profile]
        metrics, split = per_layer(cmds, untraced, spans, profile)
    else:
        passes = []
        t0 = time.monotonic()
        # start another pass only if one more of average length still fits
        while not passes or (time.monotonic() - t0) * (len(passes) + 1) / len(passes) <= args.seconds:
            setup += [c.wall_s for c in samples(SETUP_ARGV, env, SETUP_PER_PASS)]
            starts.append(samples(START_ARGV, env, START_PER_PASS))
            passes.append(run_pass(cmds, untraced_argv, env, deadline))
        metrics, raw = end_to_end(passes, starts, setup)

    attempted = sum(len(p.children) for p in passes)
    failed = sum(r is not None for p in passes for r in p.reasons)
    print(json.dumps(run_record(args, cmds, passes, setup, starts), indent=1))
    for name, (value, unit) in (metrics | raw).items():
        print(f"{name:48} {value:>14.6g} {unit}")
    print(f"{'error_rate':48} {failed / attempted:>14.6g} ratio")
    if args.trace:
        wall = metrics["trace.traced_wall_s"][0]
        print(f"median traced pass {wall:.3f} s = " + " + ".join(f"{k} {v:.3f}" for k, v in split.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
