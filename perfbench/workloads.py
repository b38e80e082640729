"""The benchmark workloads: fixed lists of operations with seeded inputs.

Each operation is one CLI invocation or one library call at a stated size,
run `repeat` times back to back so that no timed operation lasts only a
few milliseconds.  Sizes and repeat counts are fixed here; the seed only
moves parameter values (halfwidths, ratios, test functions, sample points),
so the work per pass and the set of untrusted operations do not depend on
it.

Programs are reached through module attributes at call time (`cli.main`,
`banded.det_sequence`, ...) so that the traced run sees the wrapped
functions.  Only names in each module's `__all__`, public attributes of
the returned objects and the CLI are used.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gausscomp import banded, checker, cli, gaussmeas, hermite
from oracle import (NOT_COMPUTABLE, Outcome, box_norm_sq, close, density,
                    dense, has_nonfinite, hermite_projection, minors,
                    singular_p)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    repeat: int = 1
    # the reason this operation is untrusted on the current program, or None
    known_defect: str | None = None


def ex53_alpha(j):
    return 1.0 - 2.0 ** -j


def ex59_entry(q):
    """Entries of b = I + bhat with bhat[j, j+1] = bhat[j+1, j] = q^j."""
    def entry(i, j):
        if i == j:
            return 1.0
        return q ** min(i, j) if abs(i - j) == 1 else 0.0
    return entry


def ex53_corner(l):
    return np.diag([ex53_alpha(j) for j in range(1, l + 1)])


def ex59_corner(q):
    return lambda l: dense(ex59_entry(q), l)


# ---------------------------------------------------------------------------
# CLI operations


class Cli:
    """Builds CLI operations that write their report into a work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.report = os.path.join(workdir, "report.json")
        self.tables = os.path.join(workdir, "tables")

    def op(self, name, argv, expect_exit, check_body=None, repeat=1,
           known_defect=None, outdir=False):
        argv = [str(a) for a in argv] + ["--output", self.report]
        if outdir:
            argv += ["--outdir", self.tables]

        def call():
            return cli.main(argv)

        def check(code):
            try:
                with open(self.report) as fh:
                    body = json.load(fh)["body"]
            except FileNotFoundError:
                return Outcome("no_report")
            os.remove(self.report)
            if has_nonfinite(body):
                return Outcome("nonfinite")
            if any(NOT_COMPUTABLE in str(r["payload"].get("detail", ""))
                   for r in body["reports"]):
                return Outcome("not_computable")
            if code != (expect_exit() if callable(expect_exit) else expect_exit):
                return Outcome("wrong_verdict")
            return check_body(body) if check_body else Outcome(depth=1)

        return Op(name, call, check, repeat, known_defect)


_REPORT_INDEX = re.compile(r"\[i=(\d+),box=(\d+)\]")


def trajectories(corner, boxes, n_plus_r):
    """Check every trajectory level of a thm51/prop52 report against the
    exact box norm of that truncation; depth counts the levels."""
    def check(body):
        depth = 0
        for rep in body["reports"]:
            traj = rep["payload"].get("trajectory")
            if traj is None:
                continue
            i, bi = map(int, _REPORT_INDEX.search(rep["name"]).groups())
            for l, value in enumerate(traj, start=1):
                ref = box_norm_sq(corner(l), i, min(n_plus_r, l), boxes[bi])
                if ref is None or not close(value, ref):
                    return Outcome("mismatch")
                depth += 1
        return Outcome(depth=depth)
    return check


def rn_check(A, power, dims, hw, point):
    Ap = np.linalg.matrix_power(A, power)

    def check(body):
        ref = box_norm_sq(A, power, dims, hw)
        rows = body["tables"]["box_norms"]["rows"]
        if ref == math.inf:
            diverged = any(r["name"].startswith("box_norm")
                           and r["verdict"] == "fail" for r in body["reports"])
            return Outcome(depth=1) if diverged else Outcome("wrong_verdict")
        if len(rows) != 1 or not close(rows[0][2], ref):
            return Outcome("mismatch")
        for _, h in body["tables"]["values"]["rows"]:
            if not close(h, density(Ap, np.array(point))):
                return Outcome("mismatch")
        return Outcome(depth=1)
    return check


def rn_op(c, rng, name, symbol_args, A, power, dims, repeat):
    """Box norm and density of A^power at a seeded halfwidth and point."""
    kappa = A.shape[0]
    hw = round(rng.uniform(0.5, 2.0), 3)
    point = np.round(rng.uniform(-1, 1, kappa), 3).tolist()

    def expect_exit():  # a divergent integral is a genuine fail
        return 1 if box_norm_sq(A, power, dims, hw) == math.inf else 0
    return c.op(name,
                ["rn", *symbol_args, "--kappa", kappa, "--power", power,
                 "--box", hw, "--box-dims", dims,
                 "--point=" + ",".join(map(str, point))],
                expect_exit, rn_check(A, power, dims, hw, point), repeat)


def diag_example_check(hw):
    def check(body):
        rows = body["tables"]["norms"]["rows"]
        for i, l, closed, quad, _ in rows:
            ref = box_norm_sq(ex53_corner(l), i, 2, hw)
            if not (close(closed, ref) and close(quad, ref)):
                return Outcome("mismatch")
        return Outcome(depth=len(rows))
    return check


def banded_example_check(q, L):
    levels = [l for l in (1, 2, 3, 10, 100, 300) if l <= L]

    def check(body):
        dets = {row[0]: row[1] for row in body["tables"]["determinants"]["rows"]}
        ref = minors(ex59_entry(q), levels)
        if len(dets) != L or not all(close(dets[l], ref[l]) for l in levels):
            return Outcome("mismatch")
        return Outcome(depth=1)
    return check


def singular_example_check(alpha):
    def check(body):
        rows = [r for r in body["tables"]["trajectories"]["rows"]
                if r[0] <= 20_000]
        if not all(close(p, singular_p(alpha, n), 1e-9) for n, p, _ in rows):
            return Outcome("mismatch")
        return Outcome(depth=1)
    return check


# ---------------------------------------------------------------------------
# library operations


def value_op(name, call, ref, repeat=1):
    """A library call returning one number with a known exact value."""
    def check(value):
        if not math.isfinite(value):
            return Outcome("nonfinite")
        return Outcome(depth=1) if close(value, ref) else Outcome("mismatch")
    return Op(name, call, check, repeat)


def operator_symbol(c):
    """The contracting banded symbol c * (tridiagonal, q = 0.25)."""
    return banded.BandedSymbol.geometric_tridiagonal(0.25).scaled(c)


def apply_op(adjoint, kappa, degree, scalings, coefs):
    """Apply one operator per scaling to every test function: the first
    application of each operator is cold, the rest hit the operator cache."""
    kind = "adjoint" if adjoint else "composition"

    def call():
        fn = hermite.adjoint_apply if adjoint else hermite.composition_apply
        model = hermite.HermiteModel.get(kappa, degree)
        out = []
        for c in scalings:
            A = operator_symbol(c).window(kappa)
            for coef in coefs:
                g, leak = fn(A, model.function(coef))
                out.append((A, coef, g, leak))
        return model, out

    def check(res):
        model, out = res
        for A, coef, g, leak in out:
            if has_nonfinite(g.coef) or not math.isfinite(leak):
                return Outcome("nonfinite")
            ref = hermite_projection(A, coef, model.indices, g.model.indices,
                                     adjoint)
            err = float(np.max(np.abs(g.coef - ref)))
            if err > 1e-6 * max(1.0, float(np.max(np.abs(ref)))) or leak < 0:
                return Outcome("mismatch")
        return Outcome(depth=1)
    return Op(f"{kind}-k{kappa}-d{degree}", call, check)


def report_op(name, call, verdict):
    """Library calls returning CheckReports with a known verdict."""
    def check(reports):
        if any(has_nonfinite(rep.payload) for rep in reports):
            return Outcome("nonfinite")
        if any(rep.verdict != verdict for rep in reports):
            return Outcome("wrong_verdict")
        return Outcome(depth=1)
    return Op(name, call, check)


def snr_op(kappa, degree, c, testfns, scalings, r=1):
    """The double-sum form, once per operator; each operator's Grams are
    computed afresh."""
    def call():
        model = hermite.HermiteModel.get(kappa, degree)
        fns = [[model.function(v) for v in row] for row in testfns]
        return [checker.snr_form_value(operator_symbol(s).window(kappa), c,
                                       r, fns, model) for s in scalings]

    def check(results):
        if any(has_nonfinite([res.value, res.imag, res.defect])
               for res in results):
            return Outcome("nonfinite")
        if not all(res.valid for res in results):
            return Outcome("invalid")
        return Outcome(depth=1)
    return Op(f"snr_form_value-k{kappa}-d{degree}", call, check,
              known_defect="invalid")


def model_dim(kappa, degree):
    return math.comb(degree + kappa, kappa)


# ---------------------------------------------------------------------------
# the workloads


def cli_suites(rng, seed, workdir):
    """Hypothesis suites, examples and box norms as users run them."""
    c = Cli(workdir)
    ops = []
    for suite, Ls, code in (("thm51", (8, 16, 30), 2),
                            ("prop52", (8, 14, 20), 0)):
        for L in Ls:
            hw = round(rng.uniform(0.8, 1.2), 3)
            ops.append(c.op(
                f"{suite}-ex53-L{L}",
                ["check", suite, "--builtin", "ex53", "--L", L,
                 "--dim-cap", L, "--boxes", hw, "--seed", seed],
                code, trajectories(ex53_corner, [hw], 2)))
    # the coupled tensor path: no level is computable within the budget
    for suite, code in (("thm51", 2), ("prop52", 1)):
        ops.append(c.op(
            f"{suite}-ex59-L6",
            ["check", suite, "--builtin", "ex59", "--q", 0.5, "--L", 6],
            code, trajectories(ex59_corner(0.5), [1.0], 2),
            known_defect="not_computable"))
    for t in range(7):
        admissible = t < 4
        q = round(rng.uniform(0.25, 0.65) if admissible
                  else rng.uniform(0.72, 0.95), 3)
        ops.append(c.op(f"prop56-q{t}",
                        ["check", "prop56", "--builtin", "ex59", "--q", q,
                         "--seed", seed],
                        0 if admissible else 1,
                        repeat=1 if admissible else 24))
    # the depth axis: prop52 on a 128 corner with the default dim cap, the
    # determinant floor to L = 512, and alpha_j = 0.5^(j-1) underflowing to
    # 0 at j = 1076, which fails symmetry_rowbound_ratio
    ops.append(c.op("prop52-ex53-L128",
                    ["check", "prop52", "--builtin", "ex53", "--L", 128], 0,
                    trajectories(ex53_corner, [1.0], 2)))
    for L in (512, 1100):
        ops.append(c.op(f"prop56-ex59-L{L}",
                        ["check", "prop56", "--builtin", "ex59", "--q", 0.5,
                         "--L", L, "--seed", seed], 0,
                        known_defect="wrong_verdict" if L >= 1076 else None))
    for L, repeat in ((6, 1), (9, 1), (12, 1)):
        hw = round(rng.uniform(0.8, 1.2), 3)
        ops.append(c.op(f"example-diag-L{L}",
                        ["example", "diag", "--L", L, "--k", hw], 0,
                        diag_example_check(hw), repeat, outdir=True))
    for L, repeat in ((256, 8), (512, 4), (1024, 2), (4000, 1)):
        q = round(rng.uniform(0.3, 0.6), 3)
        ops.append(c.op(f"example-banded-L{L}",
                        ["example", "banded", "--L", L, "--q", q], 0,
                        banded_example_check(q, L), repeat, outdir=True))
    for N, repeat in ((10_000, 8), (100_000, 8), (300_000, 4),
                      (1_000_000, 1)):
        alpha = round(rng.uniform(0.3, 0.7), 3)
        ops.append(c.op(f"example-singular-N{N}",
                        ["example", "singular", "--N", N, "--alpha", alpha],
                        0, singular_example_check(alpha), repeat, outdir=True))
    for kappa, dims, power, repeat in ((1, 0, 1, 12), (1, 1, 2, 12),
                                       (2, 0, 2, 8), (2, 1, 1, 8),
                                       (2, 2, 1, 12), (3, 0, 1, 6),
                                       (3, 1, 2, 6), (3, 2, 2, 6),
                                       (3, 3, 1, 12), (4, 0, 1, 4),
                                       (4, 1, 1, 4), (4, 2, 2, 4),
                                       (4, 4, 1, 8)):
        ops.append(rn_op(c, rng, f"rn-ex53-k{kappa}-d{dims}-p{power}",
                         ["--builtin", "ex53"], ex53_corner(kappa), power,
                         dims, repeat))
    # at q = 0.5 and no box coordinate the integral diverges: a genuine fail
    for kappa, dims, q, repeat in ((2, 0, 0.5, 24), (2, 0, 0.3, 8),
                                   (2, 1, 0.3, 8), (2, 2, 0.3, 8),
                                   (3, 0, 0.3, 2), (3, 1, 0.3, 1)):
        ops.append(rn_op(c, rng, f"rn-ex59-k{kappa}-d{dims}-q{q}",
                         ["--builtin", "ex59", "--q", q],
                         ex59_corner(q)(kappa), 1, dims, repeat))
    # order doubling overflows the Gauss-Hermite weights: norm_sq is NaN
    ops.append(c.op("rn-diag-1.4-nan",
                    ["rn", "--builtin", "diag", "--alphas", "1.4+0*j",
                     "--kappa", 1, "--box", 1, "--box-dims", 0], 0,
                    rn_check(np.array([[1.4]]), 1, 0, 1.0, None),
                    known_defect="nonfinite"))
    for kappa, repeat in ((1, 32), (2, 12), (3, 1), (4, 1)):
        A = ex59_corner(round(rng.uniform(0.3, 0.6), 3))(kappa)
        ops.append(value_op(f"h_normalization-ex59-k{kappa}",
                            lambda A=A: gaussmeas.h_normalization(A), 1.0,
                            repeat))
    for kappa, repeat in ((4, 4), (8, 2), (16, 1)):
        A = ex53_corner(kappa)
        ops.append(value_op(f"h_normalization-ex53-k{kappa}",
                            lambda A=A: gaussmeas.h_normalization(A), 1.0,
                            repeat))
    return ops


def operators(rng, seed, workdir):
    """Hermite-model operators, Gram forms and positivity sweeps."""
    ops = []

    def scalings(n):
        # fixed: the quadrature order an operator needs, and so its cost,
        # depends on the scaling (0.7 at kappa = 3, degree 4 needs order 64)
        return [0.7 - 0.004 * k for k in range(n)]

    # (kappa, degree, operators for adjoint, operators for composition)
    cells = [(1, 6, 10, 24), (1, 8, 10, 24), (1, 10, 8, 16), (1, 12, 8, 16),
             (1, 14, 8, 16), (1, 16, 8, 16),
             (2, 4, 6, 24), (2, 6, 3, 18), (2, 8, 2, 8), (2, 10, 1, 6),
             (2, 12, 1, 4), (2, 14, 1, 3), (2, 16, 1, 2),
             (3, 2, 1, 6), (3, 3, 1, 3), (3, 4, 1, 1)]
    for kappa, degree, n_adjoint, n_composition in cells:
        coefs = [rng.standard_normal(model_dim(kappa, degree))
                 for _ in range(4)]
        ops.append(apply_op(True, kappa, degree, scalings(n_adjoint), coefs))
        ops.append(apply_op(False, kappa, degree, scalings(n_composition),
                            coefs))
    for kappa, degree, n in ((2, 4, 6), (2, 6, 4), (2, 8, 3), (3, 4, 1),
                             (3, 5, 1), (3, 6, 1)):
        seeds = rng.integers(1 << 30, size=n).tolist()
        As = [operator_symbol(c).window(kappa) for c in scalings(n)]
        ops.append(report_op(
            f"hyponormality-k{kappa}-d{degree}",
            lambda As=As, d=degree, seeds=seeds: [
                checker.hyponormality_consequence(A, model_degree=d, seed=s)
                for A, s in zip(As, seeds)],
            "pass"))
    # fixed inputs: whether a defect exceeds the tolerance depends on them,
    # and these give defects of 1e-5 to 1e-4 for every operator
    fixed = np.random.default_rng(0)
    for kappa, degree, n in ((2, 3, 4), (2, 4, 3), (3, 2, 2)):
        gen = fixed.standard_normal((2, 2, 3))
        dim = model_dim(kappa, degree)
        testfns = [[fixed.standard_normal(dim) for _ in range(2)]
                   for _ in range(2)]
        ops.append(snr_op(kappa, degree, checker.gram_construct(gen),
                          testfns, scalings(n)))
    for n, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1),
                 (3, 2), (3, 3)):
        gen = (rng.standard_normal((n + 1, m, 3))
               + 1j * rng.standard_normal((n + 1, m, 3)))
        grid = checker.LambdaGrid(seed=int(rng.integers(1 << 30)))
        ops.append(report_op(
            f"form_positivity-n{n}-m{m}",
            lambda gen=gen, grid=grid: [checker.form_positivity_evidence(
                checker.gram_construct(gen), grid)],
            "evidence"))
    return ops


WORKLOADS = {
    "cli-suites": cli_suites,
    "operators": operators,
}


def build(workload, seed, workdir):
    """The operation list of one pass with inputs drawn from the seed.  The
    order is fixed, so each operation pays for the same shared set-up
    (models, caches) under every seed."""
    ops = WORKLOADS[workload](np.random.default_rng(seed), seed, workdir)
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate operation names in {workload}")
    return ops
