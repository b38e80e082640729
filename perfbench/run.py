"""The gausscomp benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One caller runs the workload's
operation list as a closed loop, one operation at a time.  Each pass of
the list runs in a fresh worker interpreter (so the program's caches start
cold, as for every CLI user); passes repeat until S seconds have gone.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate
and it carries the per-layer metrics and the tracing overhead.  The line
before it holds the details behind the numbers.  Outputs go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-suites", "operators")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
TAIL_LADDER = (90, 75, 50)  # the tail is the highest with >= 10 ops beyond it
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("GAUSSCOMP_OUTDIR", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, timeout):
    """Run one worker; return its set-up time (start until `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return setup


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile: a beta-weighted mean of
    all order statistics, steadier than one or two of them when the host's
    speed moves single samples."""
    from scipy.special import betainc
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100.0 * (n + 1), (1 - p / 100.0) * (n + 1)
    cdf = betainc(a, b, [k / n for k in range(n + 1)])
    return float(sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(xs)))


def tail_percentile(n):
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def run_passes(workload, seed, seconds, trace, rundir):
    """Passes until `seconds` have gone; with tracing every second pass is
    traced.  Returns (passes, setup samples)."""
    base = ["--workload", workload, "--seed", str(seed), "--out", str(rundir)]
    start = time.perf_counter()
    passes, setups = [], []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        k = len(passes)
        if k >= (2 if trace else 1) and (
                elapsed >= seconds or elapsed + last > RUN_LIMIT_S - 20):
            break
        traced = trace and k % 2 == 1
        argv = base + ["--pass", str(k)] + (["--traced"] if traced else [])
        t0 = time.perf_counter()
        setup = spawn(argv, RUN_LIMIT_S - elapsed)
        last = time.perf_counter() - t0
        with open(rundir / f"pass-{k}.json") as fh:
            res = json.load(fh)
        if not traced:
            setups.append(setup)
        passes.append(res)
    while len(setups) < SETUP_SAMPLES:
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        setups.append(spawn(base + ["--pass", "0", "--setup-only"],
                            remaining))
    return passes, setups


def is_correct(rec):
    """An untrusted result is acceptable only as a declared known defect,
    and never as a finite answer that disagrees with its reference."""
    return rec["trusted"] or (rec["known_defect"] is not None
                              and rec["reason"] not in ("mismatch", "check_error"))


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "threads": {v: "1" for v in THREAD_VARS}}


def summarize(workload, seed, seconds, trace, passes, setups):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    records = [r for p in passes for r in p["ops"]]
    times = [r["seconds"] for p in plain for r in p["ops"]]
    walls = [sum(r["seconds"] for r in p["ops"]) for p in plain]
    tail_p = tail_percentile(len(times))
    trusted = sum(r["trusted"] for r in records)
    e2e = {
        "wall_s": (statistics.fmean(walls), "s"),
        "verdict_p50_s": (percentile(times, 50), "s"),
        "verdict_tail_s": (percentile(times, tail_p), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": (trusted / len(records), "ratio"),
        "depth_reached": (statistics.median(
            sum(r["depth"] for r in p["ops"]) for p in passes), "count"),
    }
    untrusted = sorted({(r["name"], r["reason"]) for r in records
                        if not r["trusted"]})
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(passes[0]["ops"]),
        "ops_timed": len(times), "verdict_tail_percentile": tail_p,
        "setup_samples": setups, "pass_walls_s": walls,
        "untrusted_ops": [f"{n}: {why}" for n, why in untrusted],
        "raised_ops": sorted({r["name"] for r in records if r["raised"]}),
        "memory_ceiling_mb": passes[0]["ceiling_mb"],
        "environment": environment(),
    }
    if trace:
        layers = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        traced_wall = statistics.fmean(
            sum(r["seconds"] for r in p["ops"]) for p in traced)
        layers["trace.overhead_share"] = (traced_wall - e2e["wall_s"][0]) \
            / e2e["wall_s"][0]
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in units}
        details["e2e_untraced"] = {k: v[0] for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {
        "correct": all(is_correct(r) for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["raised"]),
        "metrics": metrics,
    }
    return details, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind, so that `spawn` kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gausscomp" / "__init__.py").is_file():
        print(f"error: no gausscomp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    rundir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace), rundir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details, result = summarize(args.workload, args.seed, args.seconds,
                                bool(args.trace), passes, setups)
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{rundir.name}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
