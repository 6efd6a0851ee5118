"""Benchmark of the trifold CLI: build a ball, then run the workload's
automaton and verify calls on it, one call at a time, and check every output.

    python3 perfbench/run.py --workload d333-certify --seed 1 --seconds 40 --trace 0

Run from the repository root.  The seed relabels each vertex-group table
(seed 0 is the shipped tables); the program receives only the spec file
written from it.  The pipeline repeats until --seconds is spent; each metric
is the median over repetitions.  Every timed call is bracketed by the fixed
work of calibrate.py, and its time is reported in reference seconds, so that
drift in the speed of a shared host cancels.  With --trace 0 the end-to-end metrics are
reported; with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics of the traced ones are reported, with the tracing overhead.
The last line of standard output is one JSON object with the verdict and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import select
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import facts
import layers
from calibrate import REFERENCE_S, calibrate
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# what the `trifold` console script runs
CLI_ENTRY = "import sys; from trifold.cli import main; sys.exit(main())"
SETUP_PROBES = 3  # at the start; one more between repetitions
CALL_DEADLINE_S = 170.0  # after the start of the run; a run must end within 180 s
MIB = 1 << 20
SLICE_S = 1.0  # a call is stopped for a calibration pass after each second it runs

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "automaton_s": "s",
    "verify_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "build_mb": "MB",
}


@dataclass
class Call:
    subcommand: str
    wall_s: float
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool
    calibrations: list[float]  # passes run while the call was stopped
    calibration_s: float = 0.0  # mean over the call, its brackets included

    @property
    def seconds(self) -> float:
        """Wall time scaled to the reference host speed (calibrate.py)."""
        return self.wall_s * REFERENCE_S / self.calibration_s


@dataclass
class Repetition:
    calls: list[Call]
    build_bytes: int
    development_sha256: str
    layer_times: dict[str, float]  # from traced calls only
    layer_counts: dict[str, int]


def run_call(subcommand: str, argv: list[str], env: dict, deadline: float, name: str,
             slice_s: float | None = SLICE_S) -> Call:
    """Run one child process to completion; its own peak RSS comes from wait4.
    With slice_s None the child is never stopped for a calibration pass."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        # A plain fork, not the vfork or posix_spawn that subprocess uses: Linux
        # adds the peak RSS of the address space a child execs from to the
        # child's ru_maxrss, and after vfork that is this process's own peak.
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.chdir(ROOT)
                os.execve(argv[0], argv, env)
            finally:
                os._exit(127)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(0.0, deadline - start), kill)
        timer.start()
        pidfd = os.pidfd_open(pid)
        try:
            paused, calibrations = 0.0, []
            # Every slice_s the child is stopped while one calibration pass
            # runs; the time it is stopped is not counted.  Waits never reap
            # it, so the timer can never signal a reused pid.
            while not select.select([pidfd], [], [], slice_s)[0]:
                os.kill(pid, signal.SIGSTOP)
                if os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT).si_code \
                        != os.CLD_STOPPED:
                    break
                os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOHANG)  # take the stop report
                stopped = time.perf_counter()
                calibrations.append(calibrate(passes=1))
                os.kill(pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start - paused
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            os.close(pidfd)
            with lock:
                if not state["exited"]:  # left by an error, perhaps stopped
                    os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
    return Call(
        subcommand,
        wall,
        os.waitstatus_to_exitcode(status),
        usage.ru_maxrss / 1024,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        state["killed"],
        calibrations,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRIFOLD_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def pipeline(w: Workload, spec: Path, env: dict, deadline: float, tag: str, traced: bool) -> Repetition:
    ball = WORK / "ball"
    shutil.rmtree(ball, ignore_errors=True)
    commands = [["build", str(spec), "--radius", str(w.radius), "--out", str(ball)]]
    for i, (subcommand, *args) in enumerate(w.steps):
        argv = [subcommand, str(ball), *args]
        if subcommand == "automaton":
            argv += ["--out", str(WORK / f"machine{i}.json")]
        commands.append(argv)
    calls, trace_files, build_bytes = [], [], 0
    before = calibrate()
    for i, argv in enumerate(commands):
        name = f"{tag}.{i}"
        if traced:
            trace_files.append(WORK / f"{name}.trace.json")
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_files[-1]), name, *argv]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *argv]
        # a traced call is never stopped: its spans would count the stop
        calls.append(run_call(commands[i][0], argv, env, deadline, name,
                              None if traced else SLICE_S))
        after = calibrate()
        calls[-1].calibration_s = statistics.mean([before, *calls[-1].calibrations, after])
        before = after
        if i == 0:
            build_bytes = sum(p.stat().st_size for p in ball.iterdir()) if ball.is_dir() else 0
    dev_json = ball / "development.json"
    sha = hashlib.sha256(dev_json.read_bytes()).hexdigest() if dev_json.exists() else ""
    times, counts = layers.summarize([json.loads(p.read_text()) for p in trace_files if p.exists()])
    return Repetition(calls, build_bytes, sha, times, counts)


def check(call: Call, expected: dict | None) -> tuple[str | None, dict, dict]:
    """Failure reason (None when the call succeeded), facts and verdict words."""
    if call.timed_out:
        return "timed out", {}, {}
    if call.returncode not in (0, 1):
        return f"exit code {call.returncode}", {}, {}
    if "Traceback" in call.stderr:
        return "traceback", {}, {}
    try:
        got, verdicts = facts.parse(call.subcommand, call.stdout)
    except ValueError as exc:
        return str(exc), {}, {}
    if expected is not None and got != expected:
        return f"facts {got} differ from reference {expected}", got, verdicts
    return None, got, verdicts


def end_to_end(rep: Repetition) -> dict[str, float]:
    def seconds(subcommand: str) -> float:
        return sum(c.seconds for c in rep.calls if c.subcommand == subcommand)

    return {
        "build_s": seconds("build"),
        "automaton_s": seconds("automaton"),
        "verify_s": seconds("verify"),
        "total_s": sum(c.seconds for c in rep.calls),
        "peak_rss_mb": max(c.rss_mb for c in rep.calls),
        "build_mb": rep.build_bytes / MIB,
    }


def wall_total(rep: Repetition) -> float:
    return sum(c.wall_s for c in rep.calls)


def setup_probes(argv: list[str], env: dict, deadline: float, name: str, count: int) -> list[float]:
    """Set-up times of `count` probes in reference seconds; consecutive probes
    share the calibration between them."""
    times, before = [], calibrate()
    for i in range(count):
        call = run_call("setup", argv, env, deadline, f"{name}.{i}")
        if call.returncode != 0:
            raise RuntimeError(f"set-up probe exited {call.returncode}: {call.stderr.strip()[-500:]}")
        after = calibrate()
        call.calibration_s = statistics.mean([before, *call.calibrations, after])
        times.append(call.seconds)
        before = after
    return times


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def measure(w: Workload, spec: Path, env: dict, budget_end: float, deadline: float, trace: bool):
    """Repeat the pipeline (alternating with a traced one under trace) until
    the budget is spent, sampling set-up time between repetitions."""
    probe = [sys.executable, str(HERE / "probe_setup.py"), str(spec)]
    run_call("setup", probe, env, deadline, "warm")  # fills the bytecode cache where one is kept
    setup = setup_probes(probe, env, deadline, "s", SETUP_PROBES)
    plain, traced, rounds = [], [], []
    while True:
        round_start = time.perf_counter()
        n = len(rounds)
        plain.append(pipeline(w, spec, env, deadline, f"r{n}", traced=False))
        if trace:
            traced.append(pipeline(w, spec, env, deadline, f"t{n}", traced=True))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now + statistics.median(rounds) > budget_end:
            return plain, traced, setup
        setup += setup_probes(probe, env, deadline, f"s{n}", 1)


def check_all(reps: list[Repetition], expected: list[dict] | None):
    """Failed calls, problems found and the facts of the first repetition."""
    failed, problems, first_facts = 0, [], []
    for n, rep in enumerate(reps):
        for i, call in enumerate(rep.calls):
            reason, got, verdicts = check(call, None if expected is None else expected[i])
            if n == 0:
                first_facts.append(got)
                if verdicts:
                    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in verdicts.items()))
            if reason:
                failed += 1
                problems.append(f"{call.subcommand} (call {i}): {reason}")
    shas = {rep.development_sha256 for rep in reps}
    if len(shas) != 1:
        problems.append(f"development.json differs between repetitions: {sorted(shas)}")
    return failed, problems, first_facts


def per_layer(plain: list[Repetition], traced: list[Repetition], problems: list[str]) -> dict:
    counts = traced[0].layer_counts
    if any(rep.layer_counts != counts for rep in traced):
        problems.append("traced counts differ between repetitions")
    times = {k: statistics.median(rep.layer_times.get(k, 0.0) for rep in traced)
             for k in traced[0].layer_times}
    values = layers.derive(times, counts)
    values["trace.overhead_s"] = statistics.median(map(wall_total, traced)) - statistics.median(
        map(wall_total, plain))
    return {k: {"value": values[k], "unit": unit} for k, (unit, _) in layers.PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's facts as the workload's reference (seed 0 only)")
    args = parser.parse_args()
    if args.record and args.seed != 0:
        parser.error("--record needs --seed 0")

    if not (ROOT / "src" / "trifold" / "cli.py").is_file():
        print(f"error: no trifold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = None if args.record else references.get(w.name)
    if not args.record and (expected is None or len(expected) != 1 + len(w.steps)):
        print(f"error: no reference facts for each call of {w.name} in {REFERENCE}",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + CALL_DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        spec = WORK / "spec.json"
        call = run_call("spec", [sys.executable, str(HERE / "spec.py"), w.sample, str(args.seed),
                                 str(spec)], child_env(), deadline, "spec")
        if call.returncode != 0:
            raise RuntimeError(f"spec.py exited {call.returncode}: {call.stderr.strip()[-500:]}")
        plain, traced, setup = measure(
            w, spec, child_env(), min(start + args.seconds, deadline), deadline, bool(args.trace)
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(len(rep.calls) for rep in plain + traced)
    failed, problems, first_facts = check_all(plain + traced, expected)
    rows = [end_to_end(rep) for rep in plain]
    for i, row in enumerate(rows):
        print(f"repetition {i}: " + ", ".join(f"{k} {v:.4f}" for k, v in row.items())
              + f"; wall {wall_total(plain[i]):.4f} s, calibration "
              + f"{statistics.median(c.calibration_s for c in plain[i].calls):.4f} s")
    print(f"ops_failed_frac {failed / attempted:.4f} ({failed} of {attempted} calls)")
    if args.trace:
        metrics = per_layer(plain, traced, problems)
    else:
        values = {"setup_s": statistics.median(setup), **{k: median_of(rows, k) for k in rows[0]}}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    for problem in problems:
        print(f"FAILED {problem}")
    if args.record and not problems:
        references[w.name] = first_facts
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
