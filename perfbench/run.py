"""Benchmark the tlab command line on one seeded workload.

    python3 perfbench/run.py --workload word-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. A run repeats rounds until ``--seconds``
have passed. A round writes the workload's inputs from ``--seed`` with
``tlab.synth`` and ``tlab.corpus`` (timed as set-up), then runs the
workload's ``tlab`` commands, one process per command with default flags.
The outputs of every round must be byte-identical, and those of the first
are checked against ``reference``, which shares no code with tlab.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the commands, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``),
named as in BENCHMARK.json. A command that exits non-zero ends the run: it
is counted in ``failed``, ``correct`` is false, and ``metrics`` holds what
the rounds that completed give (nothing if none did). The line before the
result holds every round's raw timings and what the machine did meanwhile:
steal, iowait, load average, and the time of a fixed pure-Python probe
before each round, which shows when other tenants slowed the processor down
(steal does not always).

A workload's CPU time is the sum over its commands of each command's median
user plus system CPU time over the run's rounds. Set-up time and peak RSS
are medians over the rounds too. Wall time is a per-layer metric, the sum
over commands of each command's least wall time: on a shared host a whole
run can fall into a spell of minutes in which the processor is up to 1.5
times slower, and wall time spreads more between runs than CPU time does
(see README.md).

With ``--trace 1`` untraced and traced rounds alternate. Traced rounds run
each command under ``traced_tlab.py``, and their outputs must be
byte-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TLAB_ENTRY = "from tlab.cli import run; run()"  # what the installed `tlab` script runs
DEADLINE_S = 170  # a run, commands and checks included, ends well within 180 s


class Command(NamedTuple):
    """One finished tlab process: its wall time and what the kernel accounted to it."""

    name: str
    wall: float
    cpu: float
    rss_mb: float
    code: int


def run_tlab(argv: list[str], cwd: Path, env: dict, deadline: float, stats: Path | None) -> Command:
    """Run one tlab command to its end, killing it at ``deadline`` (time.monotonic)."""
    if stats is None:
        cmd = [sys.executable, "-c", TLAB_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_tlab.py"), str(stats), *argv]
    name = argv[0]
    with open(cwd / f"{name}.out", "wb") as out, open(cwd / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now; it rises when the host is contended."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        table[i % 4099] = table.get(i % 4099, 0) + 1
    return time.perf_counter() - start


def cpu_ticks() -> dict[str, int] | None:
    """Whole-machine steal, iowait and total ticks from /proc/stat, where it exists."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal (guest time is already in user)
    return {"iowait": fields[4], "steal": fields[7], "total": sum(fields[:8])}


def digest(directory: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


class Run:
    def __init__(self, workload, seed: int, seconds: int, trace: bool, work: Path) -> None:
        self.workload, self.seed, self.seconds, self.trace, self.work = workload, seed, seconds, trace, work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.inputs = work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.probes: list[float] = []
        self.rounds: list[dict] = []
        self.problems: list[str] = []

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        self.workload.setup(self.inputs, self.seed)
        self.setup_times.append(time.perf_counter() - start)

    def round(self, traced: bool) -> None:
        out = self.work / ("traced" if traced else "untraced")
        out.mkdir(exist_ok=True)
        commands, layers = [], {}
        for argv in self.workload.commands():
            stats = out / f"{argv[0]}.stats.json" if traced else None
            self.attempted += 1
            done = run_tlab(argv, out, self.env, self.deadline, stats)
            commands.append(done)
            if done.code != 0:  # the round stops here and is not recorded
                self.failed += 1
                self.problems.append(f"{argv[0]} exited {done.code}: {(out / f'{argv[0]}.err').read_text()[-500:]}")
                return
            if traced:
                for key, value in json.loads(stats.read_text()).items():
                    layers[key] = layers.get(key, 0) + value
        self.rounds.append({"traced": traced, "commands": commands, "layers": layers,
                            "digest": digest(out, self.workload.outputs)})

    def measure(self) -> None:
        start = time.monotonic()
        while not self.failed and (not self.rounds or time.monotonic() - start < self.seconds):
            self.probes.append(probe())
            self.setup()
            self.round(traced=False)
            if self.trace and not self.failed:
                self.round(traced=True)

    def verify(self) -> None:
        first = self.rounds[0]["digest"]
        if any(r["digest"] != first for r in self.rounds):
            self.problems.append("outputs differ between rounds (traced rounds included)")
        self.problems += self.workload.check(self.inputs, self.work / "untraced", self.seed)

    def least(self, field: str, traced: bool = False) -> dict[str, float]:
        """Per command, the least value of ``field`` over the untraced (or traced) rounds."""
        out: dict[str, float] = {}
        for r in self.rounds:
            if r["traced"] == traced:
                for c in r["commands"]:
                    value = getattr(c, field)
                    out[c.name] = min(value, out.get(c.name, value))
        return out

    def end_to_end(self) -> dict[str, float]:
        cpu: dict[str, list[float]] = {}
        for r in self.rounds:
            for c in r["commands"]:
                cpu.setdefault(c.name, []).append(c.cpu)
        return {
            "setup_s": statistics.median(self.setup_times),
            "cpu_s": sum(map(statistics.median, cpu.values())),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in r["commands"]) for r in self.rounds),
        }

    def per_layer(self, names: list[str]) -> dict[str, float]:
        walls = self.least("wall")
        tokenize = walls.get("tokenize")
        derived = {
            "wall_s": sum(walls.values()),
            "trials_per_s": self.workload.trials / sum(walls.values()),
            "trace.overhead_s": sum(self.least("wall", traced=True).values()) - sum(walls.values()),
            "build_s": walls.get("build-model", 0.0),
            "evaluate_s": walls.get("evaluate", 0.0),
            "tokenize_chars_per_s": self.workload.test_chars(self.inputs) / tokenize if tokenize else 0.0,
        }
        traced = [r["layers"] for r in self.rounds if r["traced"]]
        return {name: derived[name] if name in derived else min(r[name] for r in traced) for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="repeat whole rounds until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind as on an exception, so that a running tlab process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "tlab" / "cli.py").is_file():
        print(f"perfbench: no tlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference.self_check()

    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    try:
        ticks_before, load_before = cpu_ticks(), os.getloadavg()
        run.measure()
        ticks_after, load_after = cpu_ticks(), os.getloadavg()
        if not run.failed:  # a failed command may have left partial outputs
            run.verify()
        metrics = {}  # from the rounds that completed, if any did
        if any(r["traced"] == bool(args.trace) for r in run.rounds):
            metrics = run.per_layer(list(units)) if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "probe_s": run.probes,
    }
    if ticks_before and ticks_after:
        delta = {k: ticks_after[k] - ticks_before[k] for k in ticks_before}
        machine.update(steal_ticks=delta["steal"], iowait_ticks=delta["iowait"], total_ticks=delta["total"],
                       steal_share=delta["steal"] / max(1, delta["total"]))
    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": run.setup_times,
        "rounds": [{"traced": r["traced"], "commands": [c._asdict() for c in r["commands"]]} for r in run.rounds],
        "machine": machine,
    }}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
