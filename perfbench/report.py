"""Print every end-to-end metric of every workload, or self-test the benchmark.

    python3 perfbench/report.py [--seconds S] [--seed N]
    python3 perfbench/report.py --self-test

The first form runs each workload once through run.py, exactly as a
benchmark harness would, and prints a table: each metric with its unit,
the operation count and percentile behind verdict_tail_s, the untrusted
operations by name and the worker's memory ceiling.

--self-test makes short runs (one pass) of every workload, untraced and
traced.  It fails unless every operation of the list executed, the
outputs were correct, and every metric of BENCHMARK.json was printed with
its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def show(workload, details, result):
    print(f"\n== {workload}  seed {details['seed']}, {details['passes']} "
          f"passes of {details['ops_per_pass']} operations, "
          f"memory ceiling {details['memory_ceiling_mb']} MB")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  verdict_tail_s is p{details['verdict_tail_percentile']} of "
          f"{details['ops_timed']} timed operations")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for line in details["untrusted_ops"]:
        print(f"  untrusted: {line}")


def self_test(seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            details, result = run(w["name"], seed, 1, trace)
            show(w["name"], details, result)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics {got} "
                                f"!= {want}")
            passes = details["passes"] + details["traced_passes"]
            if result["attempted"] != passes * details["ops_per_pass"]:
                problems.append(f"{w['name']}: not every operation executed")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']}: incorrect or failed operations")
    for p in problems:
        print(f"SELF-TEST FAILURE: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        show(w["name"], *run(w["name"], args.seed, seconds, 0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
