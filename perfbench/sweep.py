"""Run the benchmark once per seed on each workload and summarize the runs.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

For every metric it prints the median of the per-run values, the first and
third quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median.  With --out the
same summary is written as JSON.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds_from(args.seeds):
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                      f"{done.stdout[-2000:]}{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {
            name: {"unit": units[name], **summarize(vals)} for name, vals in values.items()
        }
        for name, s in summary[workload].items():
            print(f"  {name:32s} median {s['median']:.4g} {s['unit']}  "
                  f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
