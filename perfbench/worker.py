"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --out DIR --pass K
        [--traced] [--setup-only]

Imports the program, limits its own address space, builds the seeded
operation list and makes one untimed LAPACK call, then prints `ready` on
standard output.  The parent times interpreter start up to that line as
one set-up sample.  The operations then run one at a time, each timed
around its `repeat` calls only; results are checked against the oracle
outside the timed region.  The pass result goes to DIR/pass-K.json and, in
a traced pass, the spans to DIR/spans-K.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
import warnings

import numpy as np

import workloads
from oracle import Outcome

CEILING_MB = 3072  # address-space limit of the worker, well below host memory


def run_op(op, tracer):
    """Time one operation and check its result.  Returns a record."""
    span = tracer.begin_op(op.name) if tracer else None
    raised = None
    t0 = time.perf_counter()
    try:
        for _ in range(op.repeat):
            result = op.call()
    except Exception as exc:  # an operation that raises is a failed operation
        raised = exc
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    if raised is None:
        try:
            outcome = op.check(result)
        except Exception:
            traceback.print_exc()
            outcome = Outcome("check_error")
    else:
        outcome = Outcome("memory" if isinstance(raised, MemoryError)
                          else "exception")
        raised = f"{type(raised).__name__}: {raised}"
    return {"name": op.name, "seconds": seconds, "repeat": op.repeat,
            "trusted": outcome.trusted, "reason": outcome.reason,
            "raised": raised, "known_defect": op.known_defect,
            "depth": outcome.depth}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pass", dest="pass_no", type=int, default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (CEILING_MB << 20, CEILING_MB << 20))
    warnings.simplefilter("ignore")
    workdir = os.path.join(args.out, f"work-{args.pass_no}")
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, workdir)
    M = np.eye(8) + 0.1 * np.ones((8, 8))
    np.linalg.slogdet(M), np.linalg.svd(M), np.linalg.eigvalsh(M)
    tracer = None
    if args.traced:
        import tracing  # only traced passes load the wrappers
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return

    records = []
    for op in ops:
        gc.collect()
        records.append(run_op(op, tracer))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ops": records, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "ceiling_mb": CEILING_MB, "traced": args.traced}
    if tracer:
        tracer.dump(os.path.join(args.out, f"spans-{args.pass_no}.json"))
        result["layers"] = tracing.layer_metrics(tracer.spans)
    with open(os.path.join(args.out, f"pass-{args.pass_no}.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
