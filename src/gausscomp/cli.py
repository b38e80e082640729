"""Command-line front end: density evaluation, hypothesis-suite checks and
turnkey reproductions of the worked families, with deterministic reports.

Each command (`rn`, `check thm51|prop52|prop56`, `example
diag|banded|singular`) takes exactly the flags it reads; any other flag is
a usage error.

Reports are one-line JSON documents with sorted keys and two top-level
keys: `header` (carries the timestamp and the schema version; the only
non-deterministic part) and `body` (configuration, per-check records and
tables; byte-identical across runs with the same arguments; `check --seed`
is only recorded).  `rn` and `example` also write their tables as CSV
files into `--outdir` if given.  `--output` and the CSV files are
overwritten in place, not atomically: opened without O_TRUNC, written by
`os.write` until it has taken every UTF-8 byte, then, if a regular file that
was longer, cut to the new length (on ext4, cutting a file just written to
zero length, as `open(path, "w")` does, waits for its blocks to reach the
disk).  A crash mid-write can leave old and new bytes mixed; rerunning the
command regenerates the file.

Exit codes: 0 every check passed, 1 at least one check failed, 2 no
failure but at least one evidence-only verdict, 3 bad input or usage.

Symbol file format (text): first line `kind eta` (the kind is a label
that is not read), then either a line
`rule <name> <params...>` or explicit entries `i j value` one per line
(1-based, zero extension outside).  A `diag` or `ex53` sequence is the
rest of the rule line; `identity`, `ex59 [q]` and `geometric_tridiagonal q
[diag]` take no other parameters.  Entries and parameters must be finite.
Blank lines and lines whose first non-blank character is `#` are skipped.
Partition files hold whitespace-separated strictly increasing positive
integers.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import checker
from .banded import (BandedSymbol, BlockPartition, PerturbedIdentity,
                     _dense, det_sequence)
from .checker import CheckReport
from .gaussmeas import (Box, RnDerivative, SingularScalingReport, _band_sweep,
                        _box_norms, _p_limit_lower, _singular_exponents,
                        _singular_trajectories, diag_closed_form)

SCHEMA_VERSION = "1.6"

__all__ = ["main", "build_parser", "load_symbol", "load_partition"]


class CliError(Exception):
    """Bad input reported with exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# symbol construction


_ALPHA_FUNCS = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log}
_ALPHA_NAMES = {"j", "pi", *_ALPHA_FUNCS}
_ALPHA_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _alpha_node_ok(node):
    """The sequence-rule grammar: numbers, the names j, pi, sqrt, exp, log,
    binary + - * / **, unary + -, and calls of sqrt/exp/log with positional
    arguments."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in _ALPHA_NAMES
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _ALPHA_BINOPS)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.UAdd, ast.USub))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in _ALPHA_FUNCS
    return isinstance(node, (ast.Load, *_ALPHA_BINOPS, ast.UAdd, ast.USub))


def _alpha_expr(expr):
    """Sequence rule j -> value from an expression in j; `^` means power.

    The expression is parsed and validated against a small arithmetic
    grammar once; only the validated tree, its numbers made floats, is
    compiled, and it is evaluated at a float j: a power past the float
    range raises instead of growing a Python integer.  An expression nested
    too deeply to parse or compile, or a number past the float range, is
    bad input too.
    """
    try:
        tree = ast.parse(expr.replace("^", "**"), "<alphas>", mode="eval")
        for node in ast.walk(tree.body):
            if not _alpha_node_ok(node):
                raise CliError(f"sequence rule {expr!r}: "
                               f"{ast.unparse(node)!r} is not allowed")
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        code = compile(tree, "<alphas>", "eval")
    except (SyntaxError, RecursionError, OverflowError) as exc:
        raise CliError(f"cannot parse sequence rule {expr!r}: {exc}") from None
    env = {"__builtins__": {}, "pi": math.pi, **_ALPHA_FUNCS}

    def fn(j):
        try:
            value = float(eval(code, env, {"j": float(j)}))
            if not math.isfinite(value):
                raise ValueError(f"{value} is not finite")
            return value
        except (ArithmeticError, TypeError, ValueError) as exc:
            # a CliError: a suite would file a ValueError as over budget
            raise CliError(f"cannot evaluate sequence rule {expr!r} at "
                           f"j={j}: {exc}") from None

    fn(1)
    return fn


def _builtin_symbol(name, alphas, q, band=False):
    if name == "identity":
        return BandedSymbol.identity()
    if name == "diag":
        if alphas is None:
            raise CliError("diag needs a sequence: --alphas or the rest of "
                           "its rule line")
        return BandedSymbol.diagonal(_alpha_expr(alphas))
    if name == "ex53":  # its own rule is code; only user text is parsed
        return BandedSymbol.diagonal(_alpha_expr(alphas) if alphas is not None
                                     else lambda j: 1.0 - 2.0 ** -j)
    if not band:  # ex59 as a PerturbedIdentity, its window validated
        return PerturbedIdentity.geometric(q)
    if not 0 < q < 1:  # the band alone: the same bits, nothing validated
        raise CliError("q must lie in (0, 1)")
    return BandedSymbol.geometric_tridiagonal(q)


# rule name -> (required, allowed) numeric parameters
_RULE_ARITY = {"identity": (0, 0), "ex59": (0, 1),
               "geometric_tridiagonal": (1, 2)}


def _rule_symbol(name, params, band):
    """The symbol of a rule line; ValueError or CliError for bad input."""
    if name in ("diag", "ex53"):  # the sequence is the rest of the line
        return _builtin_symbol(name, " ".join(params) or None, None)
    if name not in _RULE_ARITY:
        raise ValueError(f"unknown rule {name!r}")
    lo, hi = _RULE_ARITY[name]
    if not lo <= len(params) <= hi:
        raise ValueError(f"rule {name} takes {lo} to {hi} parameters")
    vals = [float(p.removeprefix("q=") if name == "ex59" else p)
            for p in params]
    if not all(map(math.isfinite, vals)):
        raise ValueError("a parameter is not finite")
    if name != "geometric_tridiagonal":
        return _builtin_symbol(name, None, vals[0] if vals else 0.5, band)
    return BandedSymbol.geometric_tridiagonal(*vals)


def load_symbol(path, band=False):
    """Read a symbol file (module docstring); `band`: as `_builtin_symbol`."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh)
                 if ln and not ln.startswith("#")]
    if not lines:
        raise CliError(f"{path}: empty symbol file")
    head = lines[0].split()
    if len(head) != 2 or not head[1].isdecimal():
        raise CliError(f"{path}: header {lines[0]!r} must be 'kind eta' "
                       "with an unsigned integer eta")
    eta = int(head[1])
    if len(lines) >= 2 and lines[1].startswith("rule"):
        name, *params = lines[1].split()[1:] or [""]
        where = f"{path}: rule line {lines[1]!r}"
        try:
            sym = _rule_symbol(name, params, band)
        except (CliError, ValueError) as exc:
            raise CliError(f"{where}: {exc}") from None

        def checked(lo, hi):  # a suite would file a ValueError as over budget
            try:  # a sequence failing past j = 1, or q**j past the float range
                return sym.bands(lo, hi)
            except (CliError, OverflowError) as exc:
                raise CliError(f"{where}: columns {lo}..{hi}: {exc}") from None

        return (sym if isinstance(sym, PerturbedIdentity)  # ex59: q in (0, 1)
                else BandedSymbol(sym.eta, checked))
    entries = {}
    for ln in lines[1:]:
        try:
            i, j, v = ln.split()
            key, value = (int(i), int(j)), float(v)
        except ValueError:
            raise CliError(f"{path}: entry line {ln!r} must be 'i j value' "
                           "with integer i, j") from None
        if not math.isfinite(value):
            raise CliError(f"{path}: entry line {ln!r} has a non-finite "
                           "value")
        entries[key] = value
    try:
        return BandedSymbol.from_entries(eta, entries)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def load_partition(path):
    with open(path) as fh:
        vals = fh.read().split()
    if not vals:
        raise CliError(f"{path}: empty partition file")
    bad = next((v for v in vals if not v.isdecimal()), None)
    if bad is not None:
        raise CliError(f"{path}: partition token {bad!r} is not an unsigned "
                       "integer")
    try:
        return BlockPartition([int(v) for v in vals])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _finite_floats(flag, raw, count=None):
    """The finite numbers of the comma list `raw`, `count` of them if given."""
    with contextlib.suppress(ValueError):
        vals = [float(v) for v in raw.split(",")]
        if count in (None, len(vals)) and all(map(math.isfinite, vals)):
            return vals
    want = "a comma list of" if count is None else count
    raise CliError(f"{flag} {raw!r}: needs {want} finite number(s)")


def _dim_cap(raw):
    """`--dim-cap`: a nonnegative integer, or `none` for no cap."""
    if raw == "none":
        return None
    with contextlib.suppress(ValueError):
        if int(raw) >= 0:
            return int(raw)
    raise argparse.ArgumentTypeError(
        f"{raw!r} is not a nonnegative integer or none")


def _resolve_symbol(args, band=True):
    return (load_symbol(args.file, band) if args.file else
            _builtin_symbol(args.builtin, args.alphas, args.q, band))


# ---------------------------------------------------------------------------
# report plumbing


def _leaf(obj):
    """A numpy array or scalar as Python values; json.dumps' `default`."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _open_all(outdir, csvs, output):
    """Descriptors of the paths `csvs` under `outdir`, then of `output` if
    given, opened to be written in place (made if missing, never truncated
    here), all or none: a failure closes what it opened, removes what it
    made and raises, as a CliError naming `--outdir` for a CSV."""
    fds, made = [], []
    try:
        if outdir:
            os.makedirs(outdir, exist_ok=True)
        for path in [*csvs, output] if output else csvs:
            new = not os.path.lexists(path)
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            made += [path] * new
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        for path in made:
            os.unlink(path)
        if len(fds) < len(csvs):
            raise CliError(f"--outdir {outdir!r}: {exc}") from None
        raise
    return fds


def _write(fd, text):
    """Write `text` through `fd` in place, as the module docstring says: only
    a regular file is ever truncated, and the inode, mode and links stay."""
    rest = data = memoryview(text.encode())
    st = os.fstat(fd)
    while rest:
        rest = rest[os.write(fd, rest):]
    if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
        os.ftruncate(fd, len(data))


def _dumps(obj, **kw):
    # json's C encoder; numpy leaves go through the hook; a non-finite number:
    # ValueError, exit 3; no container in a report holds itself
    return json.dumps(obj, allow_nan=False, default=_leaf,
                      check_circular=False, **kw)


def _emit(args, command, config, reports, tables=None):
    """Write the report document and, with `--outdir`, each table as CSV.

    Without `--outdir` the document is one `json.dumps`.  With it, each
    table's rows are encoded once and spliced into the document where they
    go.  A table whose cells are all `int` or `float` is then written as
    that same text re-punctuated, `[[1, 0.5], [2, 0.25]]` as
    `1,0.5\\n2,0.25\\n`: json and `csv` both print them by `repr`.  Any
    other table (`rn`'s `point` strings) goes through `csv.writer`, which
    quotes a comma and keeps the text as typed.  The directory is made and
    every output opened before anything is written, so an output that
    cannot be opened leaves nothing behind."""
    tables = tables or {}
    body = {"command": command, "config": config,
            "reports": [r.to_dict() for r in reports],
            "tables": {name: {"columns": cols, "rows": rows}
                       for name, (cols, rows) in tables.items()}}
    doc = {"header": {"schema_version": SCHEMA_VERSION,
                      "timestamp": datetime.now(timezone.utc).isoformat()},
           "body": body}
    outdir = tables and args.outdir  # check writes none and has no --outdir
    if not outdir:
        text = _dumps(doc, sort_keys=True)
    else:
        rows_text = {name: _dumps(rows) for name, (_, rows) in tables.items()}
        mark = "\0rows"
        for table in body["tables"].values():
            table["rows"] = mark
        # the rows are the body's last values, in sorted order, and only
        # names, columns and the header follow them: the last marks are the
        # rows' whatever strings the config or the reports hold
        head, *tails = _dumps(doc, sort_keys=True).rsplit(_dumps(mark),
                                                          len(tables))
        text = head + "".join(rows_text[name] + tail
                              for name, tail in zip(sorted(tables), tails))
    csvs = {}
    for name, (cols, rows) in tables.items() if outdir else ():
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        inner = rows_text[name][1:-1]  # "[1, 0.5], [2, 0.25]"; "" if none
        if not {int, float}.issuperset(map(type, chain.from_iterable(rows))):
            writer.writerows(rows)
        elif inner:
            buf.write(inner[1:-1].replace("], [", "\n").replace(", ", ",")
                      + "\n")
        csvs[os.path.join(outdir, f"{command}_{name}.csv")] = buf.getvalue()
    fds = _open_all(outdir, list(csvs), args.output)
    try:
        if args.output:
            _write(fds[-1], text + os.linesep)
        else:
            print(text)
        for fd, data in zip(fds, csvs.values()):
            _write(fd, data)
    finally:
        for fd in fds:
            os.close(fd)
    verdicts = {r.verdict for r in reports}
    return 1 if "fail" in verdicts else 2 if "evidence" in verdicts else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_rn(args):
    """`rn`: densities at `--point`s and box norms of A^power on the kappa x
    kappa corner.  The norms read the corner's band, as the suites do; only
    a point needs the dense corner, and with it an invertible A^power."""
    if args.kappa < 1:
        raise CliError("rn needs --kappa >= 1")
    if args.power < 1:
        raise CliError("rn needs --power >= 1")
    if args.box_dims is not None and not 0 <= args.box_dims <= args.kappa:
        raise CliError(f"rn needs 0 <= --box-dims <= --kappa {args.kappa}, "
                       f"got {args.box_dims}")
    sym = _resolve_symbol(args)
    ab = sym.bands(1, args.kappa)
    reports, values, norms = [], [], []
    if args.point:
        d = RnDerivative(np.linalg.matrix_power(
            _dense(ab, sym.eta, args.kappa), args.power))
        values = [[raw, d(np.array(_finite_floats("--point", raw,
                                                   args.kappa)))]
                  for raw in args.point]
    for raw in args.box or []:
        hw, = _finite_floats("--box", raw, 1)
        dims = args.box_dims if args.box_dims is not None else args.kappa
        box = Box(dims, hw)  # a non-positive halfwidth is bad input
        try:
            norms.append([hw, dims, next(_box_norms(
                ab, sym.eta, args.power, box, (args.kappa,)))])
        except checker._BOX_NORM_ERRORS as exc:
            verdict, payload = checker._box_norm_failure(exc)
            reports.append(CheckReport(name=f"box_norm[{raw}]",
                                       verdict=verdict, payload=payload))
    tables = {"values": (["point", "h"], values),
              "box_norms": (["halfwidth", "dims", "norm_sq"], norms)}
    config = {"symbol": args.builtin or args.file, "power": args.power,
              "kappa": args.kappa, "q": args.q, "alphas": args.alphas}
    return _emit(args, "rn", config, reports, tables)


def cmd_check(args):
    prop56 = args.suite == "prop56"
    if args.L < 1 or min(args.n, args.r) < 0 or (
            not prop56 and args.n + args.r < 1):
        raise CliError("check needs --L >= 1, --n, --r >= 0 and, for thm51 "
                       "and prop52, --n + --r >= 1")
    if prop56 and args.rho is not None and not 0 < args.rho < math.inf:
        raise CliError(f"--rho {args.rho} must be positive and finite")
    sym = _resolve_symbol(args, band=not prop56)
    s = (load_partition(args.partition_file) if args.partition_file
         else BlockPartition.unit(args.L))
    if len(s) < args.L:
        raise CliError(f"--partition-file has {len(s)} cut points; "
                       f"--L {args.L} needs at least {args.L}")
    config = {"suite": args.suite, "symbol": args.builtin or args.file,
              "q": args.q, "alphas": args.alphas, "n": args.n, "r": args.r,
              "L": args.L, "seed": args.seed}
    if prop56:
        if not isinstance(sym, PerturbedIdentity):
            raise CliError("prop56 needs a perturbed-identity symbol "
                           "(builtin ex59)")
        rho = args.rho if args.rho is not None else sym.det_floor
        reports = checker.prop56_suite(sym, s, args.n, args.r, rho, L=args.L)
    else:
        boxes = [Box(args.n + args.r, h)
                 for h in _finite_floats("--boxes", args.boxes)]
        suite = (checker.prop52_suite if args.suite == "prop52"
                 else checker.thm51_suite)
        reports = suite(sym, s, args.n, args.r, args.L, boxes,
                        dim_cap=args.dim_cap)
        config.update(boxes=[b.halfwidth for b in boxes],
                      dim_cap=args.dim_cap)
    return _emit(args, f"check_{args.suite}", config, reports)


def _example_diag(args):
    alpha, n_plus_r = _alpha_expr(args.alphas), 2
    if args.L <= n_plus_r or not 0 < args.k < math.inf:
        raise CliError(f"example diag needs --L > {n_plus_r} and a positive, "
                       "finite --k")
    box, levels = Box(n_plus_r, args.k), range(n_plus_r + 1, args.L + 1)
    ab, rows, worst = BandedSymbol.diagonal(alpha).bands(1, args.L), [], 0.0
    failed = {}  # the detail of each failed general path -> its verdict
    for i in (1, 2):  # one trajectory per power, on two independent paths
        diag_closed_form(ab[0], i, n_plus_r, args.k, args.L)  # bad input first
        sweep = _band_sweep(ab, 0, i, box, levels)
        for l, closed in zip(levels, _box_norms(ab, 0, i, box, levels)):
            try:  # a failure of the general path ends this power's rows
                quad = next(sweep)
            except checker._BOX_NORM_ERRORS as exc:
                verdict, payload = checker._box_norm_failure(exc)
                failed[f"i = {i}, l = {l}: {payload['detail']}"] = verdict
                break
            worst = max(worst, rel := abs(closed - quad) / closed)
            rows.append([i, l, closed, quad, rel])
    config = {"alphas": args.alphas, "k": args.k, "L": args.L}
    verdicts = {"pass" if worst < 1e-8 else "fail", *failed.values()}
    payload = {"max_rel_diff": worst, "detail": "; ".join(failed)}
    reports = [CheckReport(
        name="closed_form_vs_quadrature", tolerances={"rel": 1e-8},
        verdict=min(verdicts, key=["fail", "evidence", "pass"].index),
        payload=payload if failed else {"max_rel_diff": worst})]
    tables = {"norms": (["i", "l", "closed_form", "quadrature", "rel_diff"],
                        rows)}
    return _emit(args, "example_diag", config, reports, tables)


def _example_banded(args):
    """`example banded`: the corner determinants of ex59 against the
    envelope floor < det < 1 for l >= 2.  Each det_l is a product of l
    pivots of the band elimination, each off by a few ulps, taken as a sum
    of logs: its absolute error is at most a few l u (u = 2^-53, det <= 1).
    A det within the band 4 L u of either bound is `evidence`: rounding can
    put it on either side, as at q 0.003 or 1e-9.  Beyond the band of a
    bound it is `fail`; inside the band-shrunk envelope it is `pass`."""
    if args.L < 2:
        raise CliError("example banded needs --L >= 2")
    band = _builtin_symbol("ex59", None, args.q, band=True)
    dets = det_sequence(band, BlockPartition.unit(args.L), args.L)
    q = args.q  # the floor of PerturbedIdentity.geometric(q), bit for bit
    floor = 1.0 - q * q / (1.0 - q * q)
    payload = {"min_det": float(np.min(dets)), "floor": floor, "upper": 1.0}
    margin = float(np.min(np.minimum(dets[1:] - floor, 1.0 - dets[1:])))
    rounding = 4 * args.L * 2.0 ** -53
    verdict = ("pass" if margin > rounding else
               "evidence" if abs(margin) <= rounding else "fail")
    if verdict == "evidence":
        payload["detail"] = (
            f"the smallest margin to the envelope, {margin:.3g}, lies within "
            f"its rounding band +-{rounding:.3g} (4 L u)")
    reports = [CheckReport(name="determinant_envelope", verdict=verdict,
                           payload=payload)]
    tables = {"determinants": (["l", "det"], list(enumerate(
        dets.tolist(), 1)))}
    return _emit(args, "example_banded", {"q": args.q, "L": args.L},
                 reports, tables)


def _example_singular(args):
    """`example singular`: about 100 strided rows of P_n and log Q_n from
    log sums taken only there and at the last two n; no N-term array.  The
    verdict fails on P reaching 0, on the log sums of P rising, and on
    log Q not decreasing over the last two n."""
    beta, q_exp = _singular_exponents(args.alpha, args.N)
    stride = max(1, args.N // 100)
    n, log_p, log_q = _singular_trajectories(beta, q_exp, args.N, stride)
    row = (n - 2) % stride == 0  # the last two n only when on the stride
    rows = list(map(list, zip(n[row].tolist(), np.exp(log_p[row]).tolist(),
                              log_q[row].tolist())))
    p_last = float(np.exp(log_p[-1]))
    tail, p_limit_lower = _p_limit_lower(p_last, beta, args.N)
    payload = {"p_limit_lower": p_limit_lower,
               "final_log_q": float(log_q[-1]), "beta": beta,
               "note": SingularScalingReport.note}
    if not (p_last > 0 and log_q[-1] < log_q[-2]
            and np.all(np.diff(log_p) <= 0)):
        verdict = "fail"
    elif p_limit_lower > 0:
        verdict = "pass"
    else:  # beta > 1 makes lim P positive; only its certificate underflows
        verdict = "evidence"
        payload["detail"] = (
            f"P_N = {p_last:.6g} > 0, but the certified lower limit "
            f"P_N exp(-tail) underflows to 0 (tail sum bound {tail:.6g})")
    reports = [CheckReport(name="singular_scaling_dichotomy",
                           verdict=verdict, payload=payload)]
    tables = {"trajectories": (["n", "P_n", "log_Q_n"], rows)}
    return _emit(args, "example_singular",
                 {"alpha": args.alpha, "N": args.N}, reports, tables)


# ---------------------------------------------------------------------------
# argument parsing


def _symbol_args(p, name):
    """The flags of `rn` and of the suites, which read a symbol."""
    g = p.add_mutually_exclusive_group(required=True)  # the symbol's source
    g.add_argument("--builtin", choices=["identity", "diag", "ex53", "ex59"])
    g.add_argument("--file", help="symbol file (text format, see module doc)")
    p.add_argument("--alphas", help="diagonal rule, expression in j")
    p.add_argument("--q", type=float, default=0.5,
                   help="off-diagonal ratio for builtin ex59")
    if name == "rn":
        p.add_argument("--power", type=int, default=1)
        p.add_argument("--kappa", type=int, default=2)
        p.add_argument("--point", action="append",
                       help="comma-separated coordinates; repeatable")
        p.add_argument("--box", action="append",
                       help="box halfwidth; repeatable")
        p.add_argument("--box-dims", type=int)
        return
    p.add_argument("--partition-file")
    p.add_argument("--seed", type=int, default=0, help="only recorded")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--L", type=int, default=64 if name == "prop56" else 6)
    if name == "prop56":
        p.add_argument("--rho", type=float)
    else:
        p.add_argument("--boxes", default="1",
                       help="comma-separated halfwidths")
        p.add_argument("--dim-cap", type=_dim_cap, default=None,
                       help="largest truncation size; default none")


def _example_args(p, name):
    if name == "diag":
        p.add_argument("--alphas", default="1-2^-j",
                       help="diagonal rule, expression in j")
        p.add_argument("--k", type=float, default=1.0, help="box halfwidth")
        p.add_argument("--L", type=int, default=6)
    elif name == "banded":
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--L", type=int, default=64)
    else:
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--N", type=int, default=10_000)


# command words -> (handler, takes --outdir, help, flags(parser, last word))
_COMMANDS = {
    ("rn",): (cmd_rn, True, "evaluate densities and box norms", _symbol_args),
    **{("check", suite): (cmd_check, False, None, _symbol_args)
       for suite in ("thm51", "prop52", "prop56")},
    **{("example", which): (fn, True, None, _example_args) for which, fn in (
        ("diag", _example_diag), ("banded", _example_banded),
        ("singular", _example_singular))},
}
# group word -> (the attribute naming the command in it, help)
_GROUPS = {"check": ("suite", "run a hypothesis suite"),
           "example": ("which", "scripted reproduction of a worked family")}


def _command(p, key):
    """Make `p` the parser of command `key`: its flags, words and handler."""
    fn, tables, _, add_flags = _COMMANDS[key]
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    if tables:
        p.add_argument("--outdir", help="directory for CSV tables")
    add_flags(p, key[-1])
    names = ("cmd", *_GROUPS.get(key[0], ())[:1])  # as the tree sets them
    p.set_defaults(fn=fn, **dict(zip(names, key)))
    return p


def build_parser():
    """A fresh parser of every command; `main` uses it only for help and
    errors.  Each command declares exactly the flags it reads."""
    parser = _Parser(prog="gausscomp", description="Numerical checks for "
                     "composition operators with banded matrix symbols over "
                     "Gaussian measure")
    subs = {(): parser.add_subparsers(dest="cmd", required=True)}
    for key, (_, _, help, _) in _COMMANDS.items():
        if key[:-1] not in subs:  # the first command of a group
            dest, group_help = _GROUPS[key[0]]
            group = subs[()].add_parser(key[0], help=group_help)
            subs[key[:-1]] = group.add_subparsers(dest=dest, required=True)
        # no abbreviations: `example diag --alpha` is unread, not --alphas
        _command(subs[key[:-1]].add_parser(
            key[-1], help=help, allow_abbrev=False), key)
    return parser


class _LeafParser(_Parser):
    def error(self, message):  # the whole tree reports it
        raise argparse.ArgumentError(None, message)


@functools.lru_cache(maxsize=len(_COMMANDS))
def _leaf_parser(key):
    """Command `key`'s parser alone, built once per process.  It has no -h:
    help, like every error, goes to the whole tree, which prints it."""
    return _command(_LeafParser(add_help=False, allow_abbrev=False), key)


def _parse(argv):
    """`build_parser().parse_args(argv)`, by the named command's parser."""
    for key in (tuple(argv[:1]), tuple(argv[:2])):
        with contextlib.suppress(argparse.ArgumentError):
            if key in _COMMANDS:
                return _leaf_parser(key).parse_args(argv[len(key):])
    return build_parser().parse_args(argv)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
