"""Command-line front end: density evaluation, hypothesis-suite checks and
turnkey reproductions of the worked families, with deterministic reports.

Reports are JSON documents with two top-level keys: `header` (carries the
timestamp and the schema version; the only non-deterministic part) and
`body` (configuration, per-check records and tables; byte-identical across
runs with the same arguments; `--seed` is only recorded).  Tables are
additionally emitted as CSV files when an output directory is given (flag
`--outdir` or environment variable GAUSSCOMP_OUTDIR).

Exit codes: 0 every check passed, 1 at least one check failed, 2 no
failure but at least one evidence-only verdict, 3 bad input or usage.

Symbol file format (text): first line `kind eta`, then either a line
`rule <name> <params...>` or explicit entries `i j value` one per line
(1-based, zero extension outside).  Partition files hold whitespace-
separated strictly increasing positive integers.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import checker
from .banded import (
    BandedSymbol,
    BlockPartition,
    DecayCertificate,
    PerturbedIdentity,
    det_sequence,
    truncate,
)
from .checker import CheckReport
from .gaussmeas import (
    Box,
    DivergenceError,
    RnDerivative,
    chi_norm_sq,
    diag_closed_form,
    rn_eval,
    singular_scaling_demo,
)

SCHEMA_VERSION = "1.0"

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
    grammar once; only the validated tree is compiled and evaluated.
    """
    try:
        tree = ast.parse(expr.replace("^", "**"), "<alphas>", mode="eval")
    except SyntaxError as exc:
        raise CliError(f"cannot parse sequence rule {expr!r}: {exc}")
    bad = next((n for n in ast.walk(tree.body) if not _alpha_node_ok(n)), None)
    if bad is not None:
        raise CliError(f"sequence rule {expr!r}: {ast.unparse(bad)!r} "
                       "is not allowed")
    code = compile(tree, "<alphas>", "eval")
    env = {"__builtins__": {}, "pi": math.pi, **_ALPHA_FUNCS}

    def fn(j):
        return float(eval(code, env, {"j": j}))

    try:
        fn(1)
    except Exception as exc:
        raise CliError(f"cannot evaluate sequence rule {expr!r}: {exc}")
    return fn


def _builtin_symbol(name, args):
    if name == "identity":
        return BandedSymbol.identity()
    if name == "diag":
        if not args.alphas:
            raise CliError("builtin diag needs --alphas")
        return BandedSymbol.diagonal(_alpha_expr(args.alphas),
                                     rule=("diag", (args.alphas,)))
    if name == "ex53":
        expr = args.alphas or "1-2^-j"
        return BandedSymbol.diagonal(_alpha_expr(expr),
                                     rule=("ex53", (expr,)))
    if name == "ex59":
        return PerturbedIdentity.geometric(args.q)
    raise CliError(f"unknown builtin symbol {name!r}")


def load_symbol(path):
    """Read a symbol from the text format documented in the module docstring."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise CliError(f"{path}: empty symbol file")
    head = lines[0].split()
    if len(head) != 2 or not head[1].isdecimal():
        raise CliError(f"{path}: header {lines[0]!r} must be 'kind eta' "
                       "with an unsigned integer eta")
    kind, eta = head[0], int(head[1])
    if len(lines) >= 2 and lines[1].startswith("rule"):
        try:
            parts = lines[1].split()
            name, params = parts[1], parts[2:]
            if name == "identity":
                return BandedSymbol.identity()
            if name in ("diag", "ex53"):
                expr = params[0] if params else "1-2^-j"
                return _builtin_symbol(
                    name, argparse.Namespace(alphas=expr, q=None))
            if name == "ex59":
                q = float(params[0].split("=")[-1]) if params else 0.5
                return _builtin_symbol(
                    "ex59", argparse.Namespace(alphas=None, q=q))
            if name == "geometric_tridiagonal":
                q = float(params[0])
                diag = float(params[1]) if len(params) > 1 else 1.0
                return BandedSymbol.geometric_tridiagonal(q, diag)
        except IndexError:
            raise CliError(f"{path}: rule line {lines[1]!r} lacks the rule "
                           "name or a required parameter") from None
        raise CliError(f"{path}: unknown rule {name!r}")
    entries = {}
    for ln in lines[1:]:
        try:
            i, j, v = ln.split()
            entries[(int(i), int(j))] = float(v)
        except ValueError:
            raise CliError(f"{path}: entry line {ln!r} must be 'i j value' "
                           "with integer i, j") from None
    return BandedSymbol.from_entries(eta, entries, kind=kind)


def load_partition(path):
    with open(path) as fh:
        vals = fh.read().split()
    if not vals:
        raise CliError(f"{path}: empty partition file")
    bad = next((v for v in vals if not v.isdecimal()), None)
    if bad is not None:
        raise CliError(f"{path}: partition token {bad!r} is not an unsigned "
                       "integer")
    return BlockPartition([int(v) for v in vals])


def _resolve_symbol(args):
    if getattr(args, "file", None):
        return load_symbol(args.file)
    return _builtin_symbol(args.builtin, args)


# ---------------------------------------------------------------------------
# report plumbing


def _exit_code(reports):
    verdicts = [r.verdict for r in reports]
    if any(v == "fail" for v in verdicts):
        return 1
    if any(v == "evidence" for v in verdicts):
        return 2
    return 0


def _emit(args, command, config, reports, tables=None):
    body = {
        "command": command,
        "config": checker._plain(config),
        "reports": [r.to_dict() for r in reports],
        "tables": {name: {"columns": cols, "rows": checker._plain(rows)}
                   for name, (cols, rows) in (tables or {}).items()},
    }
    doc = {
        "header": {
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "body": body,
    }
    # a non-finite number is never written: ValueError, exit code 3
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    outdir = args.outdir or os.environ.get("GAUSSCOMP_OUTDIR")
    if outdir and tables:
        os.makedirs(outdir, exist_ok=True)
        for name, (cols, rows) in tables.items():
            with open(os.path.join(outdir, f"{command}_{name}.csv"), "w",
                      newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([cols, *rows])
    return _exit_code(reports)


# ---------------------------------------------------------------------------
# subcommands


def cmd_rn(args):
    if args.kappa < 1:
        raise CliError("rn needs --kappa >= 1")
    sym = _resolve_symbol(args)
    if isinstance(sym, PerturbedIdentity):
        sym = sym.symbol
    A = sym.window(args.kappa)
    Ai = np.linalg.matrix_power(A, args.power)
    d = RnDerivative(Ai)
    reports = []
    values = []
    for raw in args.point or []:
        x = np.array([float(v) for v in raw.split(",")])
        if not np.all(np.isfinite(x)):
            raise CliError(f"point {raw!r} is not finite")
        if len(x) != args.kappa:
            raise CliError(f"point {raw!r} has wrong dimension")
        values.append([raw, rn_eval(d, x)])
    norms = []
    for raw in args.box or []:
        hw = float(raw)
        if not math.isfinite(hw):
            raise CliError(f"box halfwidth {raw!r} is not finite")
        dims = args.box_dims if args.box_dims is not None else args.kappa
        try:
            val = chi_norm_sq(A, args.power, Box(dims, hw))
            norms.append([hw, dims, val])
        except DivergenceError as exc:
            reports.append(CheckReport(name=f"box_norm[{raw}]", verdict="fail",
                                       payload={"detail": str(exc)}))
    reports.append(CheckReport(
        name="density_evaluation", verdict="pass",
        payload={"points_evaluated": len(values), "boxes": len(norms)},
        params={"power": args.power, "kappa": args.kappa},
    ))
    tables = {"values": (["point", "h"], values),
              "box_norms": (["halfwidth", "dims", "norm_sq"], norms)}
    config = {"symbol": args.builtin or args.file, "power": args.power,
              "kappa": args.kappa, "q": args.q, "alphas": args.alphas}
    return _emit(args, "rn", config, reports, tables)


def cmd_check(args):
    if args.L < 1 or min(args.n, args.r) < 0 or (
            args.suite != "prop56" and args.n + args.r < 1):
        raise CliError("check needs --L >= 1, --n, --r >= 0 and, for thm51 "
                       "and prop52, --n + --r >= 1")
    sym = _resolve_symbol(args)
    boxes = [Box(args.n + args.r, float(h))
             for h in (args.boxes.split(",") if args.boxes else ["1"])]
    if not all(math.isfinite(b.halfwidth) for b in boxes):
        raise CliError(f"--boxes {args.boxes!r} has a non-finite halfwidth")
    s = args.partition
    if s is None:
        s = BlockPartition.unit(max(args.L + 2, 8))
    elif len(s) < args.L and args.suite != "prop56":
        raise CliError(f"--partition-file has {len(s)} cut points; "
                       f"--L {args.L} needs at least {args.L}")
    if args.suite == "prop56":
        if not isinstance(sym, PerturbedIdentity):
            raise CliError("prop56 needs a perturbed-identity symbol "
                           "(builtin ex59)")
        rho = args.rho
        if rho is None and sym.base.rule and sym.base.rule[0] == "geometric_tridiagonal":
            q = sym.base.rule[1][0]
            rho = 1.0 - q * q / (1.0 - q * q) if q * q < 0.5 else None
        reports = checker.prop56_suite(sym, s, args.n, args.r, rho, L=args.L)
    else:
        if isinstance(sym, PerturbedIdentity):
            sym = sym.symbol
        suite = (checker.prop52_suite if args.suite == "prop52"
                 else checker.thm51_suite)
        reports = suite(sym, s, args.n, args.r, args.L, boxes,
                        dim_cap=args.dim_cap)
    config = {"suite": args.suite, "symbol": args.builtin or args.file,
              "q": args.q, "alphas": args.alphas, "n": args.n, "r": args.r,
              "L": args.L, "boxes": [b.halfwidth for b in boxes],
              "seed": args.seed}
    return _emit(args, f"check_{args.suite}", config, reports)


def cmd_example(args):
    return {"diag": _example_diag, "banded": _example_banded,
            "singular": _example_singular}[args.which](args)


def _example_diag(args):
    expr = args.alphas or "1-2^-j"
    alpha = _alpha_expr(expr)
    n_plus_r = 2
    if args.L <= n_plus_r or not 0 < args.k < math.inf:
        raise CliError(f"example diag needs --L > {n_plus_r} and a positive, "
                       "finite --k")
    rows = []
    worst = 0.0
    for i in (1, 2):
        for l in range(n_plus_r + 1, args.L + 1):
            closed = diag_closed_form(alpha, i, n_plus_r, args.k, l)
            A = np.diag([alpha(j) for j in range(1, l + 1)])
            quad = chi_norm_sq(A, i, Box(n_plus_r, args.k))
            rel = abs(closed - quad) / closed
            worst = max(worst, rel)
            rows.append([i, l, closed, quad, rel])
    ok = worst < 1e-8
    reports = [CheckReport(
        name="closed_form_vs_quadrature",
        verdict="pass" if ok else "fail",
        payload={"max_rel_diff": worst},
        params={"alphas": expr, "k": args.k, "L": args.L},
        tolerances={"rel": 1e-8},
    )]
    tables = {"norms": (["i", "l", "closed_form", "quadrature", "rel_diff"],
                        rows)}
    return _emit(args, "example_diag",
                 {"alphas": expr, "k": args.k, "L": args.L}, reports, tables)


def _example_banded(args):
    if args.L < 2:
        raise CliError("example banded needs --L >= 2")
    b = PerturbedIdentity.geometric(args.q)
    s = BlockPartition.unit(args.L)
    dets = det_sequence(b.symbol, s, args.L)
    q = args.q
    floor = 1.0 - q * q / (1.0 - q * q)
    rows = [[l + 1, float(d), floor, 1.0] for l, d in enumerate(dets)]
    inside = bool(np.all(dets[1:] > floor) and np.all(dets[1:] < 1.0))
    reports = [CheckReport(
        name="determinant_envelope",
        verdict="pass" if inside else "fail",
        payload={"min_det": float(np.min(dets)), "floor": floor},
        params={"q": q, "L": args.L},
    )]
    tables = {"determinants": (["l", "det", "lower", "upper"], rows)}
    return _emit(args, "example_banded", {"q": q, "L": args.L},
                 reports, tables)


def _example_singular(args):
    rep = singular_scaling_demo(args.alpha, args.N)
    stride = max(1, args.N // 100)
    rows = [[n + 2, float(rep.p_trajectory[n]), float(rep.log_q_trajectory[n])]
            for n in range(0, args.N, stride)]
    ok = (rep.p_limit_lower > 0
          and rep.log_q_trajectory[-1] < rep.log_q_trajectory[-2]
          and bool(np.all(np.diff(rep.p_trajectory) <= 0)))
    reports = [CheckReport(
        name="singular_scaling_dichotomy",
        verdict="pass" if ok else "fail",
        payload={"p_limit_lower": rep.p_limit_lower,
                 "final_log_q": float(rep.log_q_trajectory[-1]),
                 "beta": rep.beta, "note": rep.note},
        params={"alpha": args.alpha, "N": args.N},
    )]
    tables = {"trajectories": (["n", "P_n", "log_Q_n"], rows)}
    return _emit(args, "example_singular",
                 {"alpha": args.alpha, "N": args.N}, reports, tables)


# ---------------------------------------------------------------------------
# argument parsing


def _add_symbol_args(p):
    p.add_argument("--builtin",
                   choices=["identity", "diag", "ex53", "ex59"])
    p.add_argument("--file", help="symbol file (text format, see module doc)")
    p.add_argument("--alphas", help="diagonal rule, expression in j")
    p.add_argument("--q", type=float, default=0.5,
                   help="off-diagonal ratio for builtin ex59")
    p.add_argument("--partition-file", dest="partition_file")


def _add_common_args(p):
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.add_argument("--outdir", help="directory for CSV tables "
                   "(default: env GAUSSCOMP_OUTDIR)")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = _Parser(prog="gausscomp",
                     description="Numerical checks for composition operators "
                                 "with banded matrix symbols over Gaussian "
                                 "measure")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("rn",
                       help="evaluate densities and box norms")
    _add_symbol_args(p)
    _add_common_args(p)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--point", action="append",
                   help="comma-separated coordinates; repeatable")
    p.add_argument("--box", action="append",
                   help="box halfwidth; repeatable")
    p.add_argument("--box-dims", type=int, dest="box_dims")
    p.set_defaults(fn=cmd_rn)

    p = sub.add_parser("check",
                       help="run a hypothesis suite")
    p.add_argument("suite", choices=["thm51", "prop52", "prop56"])
    _add_symbol_args(p)
    _add_common_args(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--boxes", help="comma-separated halfwidths")
    p.add_argument("--dim-cap", type=int, default=4, dest="dim_cap")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("example",
                       help="scripted reproduction of a worked family")
    p.add_argument("which", choices=["diag", "banded", "singular"])
    _add_common_args(p)
    p.add_argument("--alphas", help="diagonal rule for example diag")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--N", type=int, default=10_000)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--k", type=float, default=1.0,
                   help="box halfwidth for example diag")
    p.set_defaults(fn=cmd_example)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "check":
            args.L = args.L if args.L is not None else (
                64 if args.suite == "prop56" else 6)
            args.partition = (load_partition(args.partition_file)
                              if args.partition_file else None)
        if args.cmd == "example" and args.L is None:
            args.L = 64 if args.which == "banded" else 6
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
