"""Run every workload on several seeds and print medians and quartiles of each metric.

    python3 perfbench/sweep.py --runs 10 --seconds 30

Run i uses seed i (1 to ``--runs``), untraced, and rotates the order of the
workloads, so that no workload always runs first or last. Each run is a
separate ``run.py`` process. The table gives, per workload and metric, the
median, the first and third quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, for the end-to-end metrics and
for wall time (from each run's diagnostics); then the operations attempted
and failed, and the machine's steal, iowait, load average and probe times
(see run.py) over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("word-grid", "morph-grid", "pipeline")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    result["stderr"] = proc.stderr
    return result


def row(workload: str, metric: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else float("nan")
    return f"{workload:<11} {metric:<34} {unit:<8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", help="also write every run's result to this JSON file")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for i in range(args.runs):
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[: i % len(WORKLOADS)]
        for name in order:
            result = run_once(name, i + 1, args.seconds)
            results[name].append(result)
            values = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                               if k == "cpu_s")
            print(f"run {i + 1}/{args.runs} {name} seed {i + 1}: correct={result['correct']} "
                  f"{values} steal={result['diagnostics']['machine'].get('steal_share', float('nan')):.4f}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':<11} {'metric':<34} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, runs in results.items():
        for metric, entry in runs[0]["metrics"].items():
            print(row(name, metric, entry["unit"], [r["metrics"][metric]["value"] for r in runs]))
        # wall time, a per-layer metric, from the diagnostics: per command the least over the rounds, summed
        walls = [sum(min(c["wall"] for rd in r["diagnostics"]["rounds"] for c in rd["commands"] if c["name"] == n)
                     for n in {c["name"] for c in r["diagnostics"]["rounds"][0]["commands"]}) for r in runs]
        print(row(name, "wall_s (diagnostics)", "s", walls))
    print()
    for name, runs in results.items():
        machine = [r["diagnostics"]["machine"] for r in runs]
        steal = [m["steal_share"] for m in machine if "steal_share" in m]
        iowait = [m["iowait_ticks"] for m in machine if "iowait_ticks" in m]
        load = [m["loadavg_before"][0] for m in machine]
        probes = [p for m in machine for p in m["probe_s"]]
        fast = min(probes)
        print(f"{name}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}, "
              f"rounds per run {statistics.median(len(r['diagnostics']['rounds']) for r in runs)}, "
              f"steal share median {statistics.median(steal) if steal else float('nan'):.4f} "
              f"max {max(steal) if steal else float('nan'):.4f}, iowait ticks max {max(iowait) if iowait else 0}, "
              f"1-min load median {statistics.median(load):.2f}, probe median/min {statistics.median(probes) / fast:.2f} "
              f"max/min {max(probes) / fast:.2f}, probes over 1.25x min {sum(p > 1.25 * fast for p in probes)}/{len(probes)}")
    first = next(iter(results.values()))[0]["diagnostics"]["machine"]
    print(f"nproc {first['nproc']}, os.cpu_count() {first['cpu_count']}, Python {first['python']}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
