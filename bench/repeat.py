"""Run workloads over several seeds and report each metric's median and spread.

    python3 bench/repeat.py --seeds 1-10

Runs bench/run.py untraced once per (workload, seed), one after another,
for every workload in BENCHMARK.json at its run_seconds, and prints for
every metric the median, the quartiles and the spread, the distance
between the quartiles as a share of the median. The rows are also
written to bench/out/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    rows = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"attempted={[r['attempted'] for r in runs]} failed={[r['failed'] for r in runs]} "
              f"failed share={sorted(shares)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            rows.append({"workload": workload, "metric": metric, "median": median,
                         "q1": q1, "q3": q3, "spread": spread, "values": values})
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"  {metric:44s} {unit:6s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}")
    out = HERE / "out" / "repeat.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
