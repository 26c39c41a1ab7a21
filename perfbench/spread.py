"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs one process at a time, from the root of a checkout.  For each workload
and metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the quartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out`` also writes the summary and
every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            shown = {}
            for line in lines:
                if line.startswith("metric "):
                    _, name, value, _unit = line.split()
                    shown[name] = float(value)
            runs.append({"seed": seed, "exit": proc.returncode, "result": result, "shown": shown})
            ok = ok and proc.returncode == 0 and result["correct"]
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        rows = {}
        for name in runs[0]["shown"]:
            bound = bounds.get(name)
            values = [r["shown"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"{workload:16} {name:17} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:.4f}  bound {bound}", flush=True)
        summary["workloads"][workload] = {"metrics": rows, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
