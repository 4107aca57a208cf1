"""Run every workload untraced and traced, and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Rows are the end-to-end metrics (from --trace 0 runs), the per-layer
metrics and quality figures (from --trace 1 runs) and ops_failed;
columns are the workloads.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    results = {(w, t): bench(w, args.seed, args.seconds, t) for w in workloads for t in (0, 1)}

    print(f"{'metric':<38} {'unit':<7}" + "".join(f" {w:>16}" for w in workloads))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for m in SPEC[section]:
            values = "".join(f" {results[w, trace]['metrics'][m['name']]['value']:>16.6g}" for w in workloads)
            print(f"{m['name']:<38} {m['unit']:<7}{values}")
    ops = "".join(
        f" {sum(results[w, t]['failed'] for t in (0, 1))}/{sum(results[w, t]['attempted'] for t in (0, 1)):<13}"
        for w in workloads
    )
    print(f"{'ops_failed':<38} {'ratio':<7}{ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
