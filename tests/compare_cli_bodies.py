"""Compare the CLI documents that two source trees write for the benchmark's
CLI operations.

    python tests/compare_cli_bodies.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `gausscomp` package (the
`src` of two checkouts).  The argv of every CLI operation of
`perfbench/workloads.cli_suites` at seeds 1-3 is collected by replacing
`cli.main`, through which the operations reach the CLI, with a recorder.
Each argv then runs in process once per tree, in a child interpreter that
imports only that tree, with `--output` and `--outdir` sent to a temporary
directory.  Per operation the exit code, the body (the document without its
header) and the sha256 of each CSV are compared.

Each differing operation is printed with its largest relative float
difference.  The exit status is 1 when an exit code, a key, a string, a
length, any other non-float value or the set of CSV files differs, and 0
when only floats or CSV bytes do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def collect(src, workdir):
    """[(name, argv)] of the CLI operations of `cli_suites` at `SEEDS`."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads

    seen, main = [], workloads.cli.main
    workloads.cli.main = lambda argv=None: seen.append(list(argv))
    ops = []
    try:
        for seed in SEEDS:
            for op in workloads.build("cli-suites", seed, workdir):
                before = len(seen)
                op.call()  # a library operation records nothing
                ops += [(f"seed{seed}/{op.name}", argv)
                        for argv in seen[before:]]
    finally:
        workloads.cli.main = main
    return ops


def _redirect(argv, report, tables):
    """`argv` with the values of --output and --outdir replaced."""
    out = list(argv)
    for flag, path in (("--output", report), ("--outdir", tables)):
        if flag in out:
            out[out.index(flag) + 1] = path
    return out


def run_tree(src, argvs):
    """[(exit code, body or None, {csv name: sha256})] of each argv, run in
    this process against the `gausscomp` of `src`."""
    sys.path.insert(0, str(src))
    from gausscomp import cli

    warnings.simplefilter("ignore")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        report, tables = os.path.join(tmp, "report.json"), os.path.join(
            tmp, "tables")
        for argv in argvs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(report)
            shutil.rmtree(tables, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(_redirect(argv, report, tables))
            body = None
            if os.path.exists(report):
                with open(report) as fh:
                    body = json.load(fh)["body"]
            csvs = {}
            if os.path.isdir(tables):
                for name in sorted(os.listdir(tables)):
                    with open(os.path.join(tables, name), "rb") as fh:
                        csvs[name] = hashlib.sha256(fh.read()).hexdigest()
            results.append((code, body, csvs))
    return results


def compare(a, b, where="body"):
    """(the first non-float difference or None, the largest relative float
    difference) between two JSON values."""
    if type(a) is float and type(b) is float:
        return None, (abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0)
    if type(a) is not type(b):
        return f"{where}: type {type(a).__name__} != {type(b).__name__}", 0.0
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{where}: keys {sorted(a.keys() ^ b.keys())}", 0.0
        pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}", 0.0
        pairs = [(x, y, f"{where}[{k}]") for k, (x, y) in enumerate(zip(a, b))]
    else:
        return (None if a == b else f"{where}: {a!r} != {b!r}"), 0.0
    first, worst = None, 0.0
    for x, y, at in pairs:
        bad, rel = compare(x, y, at)
        first, worst = first or bad, max(worst, rel)
    return first, worst


def _child(src, argvs):
    """Run `argvs` against `src` in a fresh interpreter."""
    with tempfile.NamedTemporaryFile("r", suffix=".json") as out:
        subprocess.run([sys.executable, __file__, "--run", str(src), out.name],
                       input=json.dumps(argvs), text=True, check=True)
        return json.load(out)


def main(argv):
    if argv[:1] == ["--run"]:  # the child: one tree, argv lists on stdin
        src, out = argv[1:]
        results = run_tree(src, json.load(sys.stdin))
        with open(out, "w") as fh:
            json.dump(results, fh)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 3
    old, new = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as workdir:
        ops = collect(new, workdir)
    argvs = [a for _, a in ops]
    differ, structural = 0, False
    for (name, _), (ca, ba, sa), (cb, bb, sb) in zip(
            ops, _child(old, argvs), _child(new, argvs)):
        bad, worst = compare(ba, bb)
        if ca != cb:
            bad = f"exit {ca} != {cb}"
        elif sa.keys() != sb.keys():
            bad = bad or f"csv files {sorted(sa.keys() ^ sb.keys())}"
        if bad is None and worst == 0.0 and sa == sb:
            continue
        differ += 1
        structural = structural or bad is not None
        csv = [k for k in sa if sa[k] != sb.get(k)]
        print(f"{name}: largest relative float difference {worst:.3g}"
              + (f"; csv {', '.join(csv)} differ" if csv else "")
              + (f"; {bad}" if bad else ""))
    print(f"{len(ops)} operations, {differ} differ"
          + (", not only in floats" if structural else ""))
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
