import csv
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import argparse
import io
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausscomp import checker, cli, gaussmeas
from gausscomp.banded import BandedSymbol, PerturbedIdentity
from gausscomp.checker import CheckReport
from gausscomp.cli import (CliError, _alpha_expr, build_parser, load_partition,
                           load_symbol, main)
from gausscomp.gaussmeas import (Box, DivergenceError, RnDerivative,
                                 chi_norm_sq)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- exit codes and determinism ---------------------------------------------

def test_prop56_admissible_exits_zero(capsys):
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", "0.5")
    assert code == 0
    floor = next(r for r in doc["body"]["reports"]
                 if r["name"] == "determinant_floor")
    # without --rho the floor is the family's 1 - q^2 / (1 - q^2)
    assert floor["payload"]["rho"] == 1.0 - 0.25 / 0.75


def test_prop56_perturbation_inequality_is_exact(capsys):
    # the supremum over x on 24 coordinates, attained at k = 1 of n + r = 2
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", "0.5", "--seed", "5")
    assert code == 0
    rep = next(r for r in doc["body"]["reports"]
               if r["name"] == "perturbation_inequality")
    assert rep["payload"]["worst_ratio"] == pytest.approx(
        0.05285081423000137, rel=1e-12)
    assert rep["payload"]["C_tilde"] == pytest.approx(115.59591794226543,
                                                      rel=1e-12)
    assert rep["params"] == {"window": 24} and "seed" not in rep
    assert doc["body"]["config"]["seed"] == 5


@pytest.mark.parametrize("L,window,check", [
    ("500", 24, "perturbation_inequality"), ("5", 5, "determinant_floor")])
def test_prop56_conclusion_names_the_smallest_window(capsys, L, window,
                                                     check):
    # the floor reads L corners, but the exact perturbation sup only 24
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--L", L)
    assert code == 0
    conclusion = doc["body"]["reports"][-1]
    assert conclusion["params"]["window"] == window
    detail = conclusion["payload"]["detail"]
    assert f"depth {window}," in detail and f"({check})" in detail


def floats_of(obj):
    """Every float in a nested JSON value."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in floats_of(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in floats_of(v)]
    return [obj] if isinstance(obj, float) else []


@pytest.mark.parametrize("q,L", [("0.25", "600"), ("0.3", "700"),
                                 ("0.41", "900"), ("0.5", "1075"),
                                 ("0.5", "1076"), ("0.5", "1100"),
                                 ("0.6", "1500")])
def test_prop56_passes_past_the_underflow_depth(capsys, q, L):
    # q**j underflows to 0 before L (j = 538, 619, 836, 1075 and 1459), but
    # log alpha_j and log p_j do not: every check but the exact
    # perturbation sup covers all L coordinates and passes
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", q, "--L", L)
    assert code == 0
    assert all(math.isfinite(x) for x in floats_of(doc["body"]))
    reports = {r["name"]: r for r in doc["body"]["reports"]}
    assert all(r["verdict"] == "pass" for r in reports.values())
    for name in ("summability_certificates", "symmetry_rowbound_ratio",
                 "power_entry_bound"):
        assert reports[name]["params"]["window"] == int(L)
    assert reports["determinant_floor"]["params"]["L"] == int(L)


def test_prop56_power_entry_bound_at_n_plus_r_4(capsys):
    # the banded power bound holds up to k = n + r = 4
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", "0.5", "--n", "2", "--r", "2")
    assert code == 0
    bound = [r for r in doc["body"]["reports"]
             if r["name"] == "power_entry_bound"]
    assert len(bound) == 1 and bound[0]["verdict"] == "pass"
    assert bound[0]["params"]["max_power"] == 4


def test_prop56_inadmissible_exits_one_naming_precondition(capsys):
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", "0.8")
    assert code == 1
    first = doc["body"]["reports"][0]
    assert first["name"] == "precondition: q ∈ (0, √2/2)"
    assert first["verdict"] == "fail"


def test_prop52_ex53_exits_zero(capsys):
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex53",
                        "--alphas", "1-2^-j")
    assert code == 0
    assert all(r["verdict"] == "pass" for r in doc["body"]["reports"])


def test_thm51_reports_evidence_exit_two(capsys):
    code, doc = run_cli(capsys, "check", "thm51", "--builtin", "ex53")
    assert code == 2
    verdicts = {r["verdict"] for r in doc["body"]["reports"]}
    assert "evidence" in verdicts and "fail" not in verdicts


@pytest.mark.parametrize("L", ["1", "3"])
def test_prop52_too_short_trajectory_exits_two(capsys, L):
    # one increment (L 3, level 1 skipped) or none (L 1) cannot be judged
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex53",
                        "--L", L)
    assert code == 2
    traj = [r for r in doc["body"]["reports"]
            if r["name"].startswith("norm_trajectory_consistent")]
    assert len(traj) == 2 and all(r["verdict"] == "evidence" for r in traj)


def test_prop52_default_reaches_every_level(capsys):
    # --dim-cap defaults to none: all 128 levels of every trajectory
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex53",
                        "--L", "128")
    assert code == 0
    reports = doc["body"]["reports"]
    traj = [r for r in reports
            if r["name"].startswith("norm_trajectory_consistent")]
    assert len(traj) == 2 and all(len(r["payload"]["trajectory"]) == 128
                                  for r in traj)
    assert all(r["params"]["dim_capped"] is False for r in reports
               if r["name"].startswith("box_norm_finite"))
    code_none, doc_none = run_cli(capsys, "check", "prop52", "--builtin",
                                  "ex53", "--L", "128", "--dim-cap", "none")
    assert code_none == code and doc_none["body"] == doc["body"]


@pytest.mark.parametrize("suite, want", [("thm51", 2), ("prop52", 0)])
def test_banded_box_norms_reach_level_1024(capsys, suite, want):
    # one layout to L = 1024: every trajectory and finiteness check at all
    # 1024 levels, with no box dim capped
    code, doc = run_cli(capsys, "check", suite, "--builtin", "ex53", "--L",
                        "1024")
    assert code == want
    reports = doc["body"]["reports"]
    traj = [r["payload"]["trajectory"] for r in reports
            if r["name"].startswith("norm_trajectory")]
    finite = [r["params"] for r in reports
              if r["name"].startswith(("finiteness", "box_norm_finite"))]
    assert traj and all(len(t) == 1024 for t in traj)
    assert finite and all(p["levels"] == 1024 and p["dim_capped"] is False
                          for p in finite)


def test_prop52_indefinite_box_form_reaches_level_2000(capsys):
    # K indefinite: exit 1, since ex59's inverse is not in the block class,
    # with both box norms computed at every level
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex59",
                        "--q", "0.5", "--L", "2000")
    assert code == 1
    finite = [r for r in doc["body"]["reports"]
              if r["name"].startswith("box_norm_finite")]
    assert len(finite) == 2 and all(
        r["verdict"] == "pass" and r["params"]["levels"] == 2000
        for r in finite)


def test_growing_increments_are_evidence_not_fail(capsys):
    # ex59's box norms rise before they level off: no disproof
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex59",
                        "--q", "0.5", "--L", "8")
    traj = [r for r in doc["body"]["reports"]
            if r["name"].startswith("norm_trajectory_consistent")]
    incs = np.abs(np.diff(traj[1]["payload"]["trajectory"][1:]))
    assert incs[1] > incs[0]  # a growing increment past the box
    assert all(r["verdict"] == "evidence" for r in traj)
    fails = [r["name"] for r in doc["body"]["reports"]
             if r["verdict"] == "fail"]
    assert code == 1 and fails == ["inverse_in_block_class"]


def test_thm51_ex59_three_dim_box_is_computable(capsys):
    # n + r = 3 on a coupled symbol: every power is computed
    code, doc = run_cli(capsys, "check", "thm51", "--builtin", "ex59",
                        "--q", "0.5", "--n", "2", "--r", "1", "--L", "8")
    assert code == 2
    reports = doc["body"]["reports"]
    assert not any("not computable" in json.dumps(r) for r in reports)
    finite = [r for r in reports if r["name"].startswith("finiteness")]
    assert len(finite) == 3 and all(r["verdict"] == "pass" for r in finite)


def test_deterministic_body(capsys):
    _, doc1 = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                      "--q", "0.5", "--seed", "11")
    _, doc2 = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                      "--q", "0.5", "--seed", "11")
    assert json.dumps(doc1["body"], sort_keys=True) == \
        json.dumps(doc2["body"], sort_keys=True)
    assert "timestamp" in doc1["header"]
    assert doc1["header"]["schema_version"]


def test_box_norms_do_not_import_scipy_linalg(tmp_path):
    # a fresh interpreter: the box norms of a thm51 run use numpy's LAPACK
    # only, so scipy.linalg stays unimported
    code = ("import sys; from gausscomp import cli; code = cli.main(["
            "'check', 'thm51', '--builtin', 'ex53', '--L', '3', '--output', "
            f"{str(tmp_path / 'r.json')!r}]); "
            "print(code, 'scipy.linalg' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == ["2", "False"]


def test_bad_input_exits_three(capsys):
    code = main(["check", "prop56", "--builtin", "ex53"])
    capsys.readouterr()
    assert code == 3  # prop56 needs a perturbed-identity symbol
    code = main(["rn", "--builtin", "diag"])  # missing --alphas
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("rho", ["-1", "0", "nan", "inf"])
def test_prop56_rho_must_be_positive_and_finite(tmp_path, capsys, rho):
    out = tmp_path / "report.json"
    code = main(["check", "prop56", "--builtin", "ex59", f"--rho={rho}",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert re.search(r"--rho\b", err)


@pytest.mark.parametrize("argv,flag", [
    (("rn", "--builtin", "ex53", "--seed", "1"), "--seed"),
    (("rn", "--builtin", "ex53", "--partition-file", "p"), "--partition-file"),
    (("check", "prop56", "--builtin", "ex59", "--boxes", "2"), "--boxes"),
    (("check", "prop56", "--builtin", "ex59", "--dim-cap", "9"), "--dim-cap"),
    # check writes no table
    (("check", "thm51", "--builtin", "ex53", "--outdir", "d"), "--outdir"),
    (("example", "diag", "--N", "5"), "--N"),
    (("example", "banded", "--k", "2"), "--k"),
    (("example", "singular", "--L", "5"), "--L"),
    (("example", "banded", "--seed", "1"), "--seed"),
    # not an abbreviation of diag's --alphas
    (("example", "diag", "--alpha", "0.5"), "--alpha"),
    (("check", "thm51", "--builtin", "ex53", "--L", "4", "--rho", "0.5"),
     "--rho"),
    (("check", "prop52", "--builtin", "ex53", "--L", "4", "--rho", "0.5"),
     "--rho"),
], ids=["rn-seed", "rn-partition-file", "prop56-boxes", "prop56-dim-cap",
        "thm51-outdir", "diag-N", "banded-k", "singular-L", "banded-seed",
        "diag-alpha", "thm51-rho", "prop52-rho"])
def test_unread_flag_is_bad_input(tmp_path, capsys, argv, flag):
    # each was accepted and ignored; the parser now names it
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert re.search(rf"{flag}\b", err)


@pytest.mark.parametrize("argv", [
    ("check", "thm51", "--builtin", "ex53", "--boxes", ""),
    ("check", "prop52", "--builtin", "ex53", "--alphas", ""),
    ("example", "diag", "--alphas", ""),
], ids=["thm51-boxes", "prop52-alphas", "diag-alphas"])
def test_empty_value_is_bad_input(tmp_path, capsys, argv):
    # not the default: box 1.0 or the sequence 1-2^-j
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    stdout, _ = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()


def test_outdir_is_read_only_from_the_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAUSSCOMP_OUTDIR", str(tmp_path / "env"))
    code = main(["example", "banded", "--L", "8",
                 "--output", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == 0 and not (tmp_path / "env").exists()


@pytest.mark.parametrize("argv", [
    ("check", "prop56", "--builtin", "ex59", "--q", "0.9"),
    ("rn", "--builtin", "ex53"),
    ("check", "prop56"),
    ("rn",),
], ids=["check-both", "rn-both", "check-neither", "rn-neither"])
def test_symbol_needs_builtin_or_file_not_both(tmp_path, capsys, argv):
    # with both flags the report named the builtin and evaluated the file
    p = tmp_path / "sym.txt"
    p.write_text("diagonal 0\nrule ex59 q=0.5\n")
    extra = ["--file", str(p)] if "--builtin" in argv else []
    code = main([*argv, *extra])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "--builtin" in err and "--file" in err


# -- rn ---------------------------------------------------------------------

def test_rn_identity_all_ones(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "identity", "--kappa", "2",
                        "--point", "0,0", "--point", "1.5,-0.5")
    assert code == 0
    rows = doc["body"]["tables"]["values"]["rows"]
    assert all(v == pytest.approx(1.0) for _, v in rows)


def test_rn_diag_half_at_origin(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "diag", "--alphas", "0.5",
                        "--kappa", "1", "--point", "0")
    assert code == 0
    assert doc["body"]["tables"]["values"]["rows"][0][1] == pytest.approx(2.0)


def test_rn_ex59_matches_library(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "ex59", "--q", "0.5",
                        "--kappa", "3", "--point", "0.3,0.1,-0.2")
    assert code == 0
    from gausscomp.banded import PerturbedIdentity
    from gausscomp.gaussmeas import RnDerivative
    A = PerturbedIdentity.geometric(0.5).symbol.window(3)
    expected = RnDerivative(A)(np.array([0.3, 0.1, -0.2]))
    assert doc["body"]["tables"]["values"]["rows"][0][1] == \
        pytest.approx(expected, rel=1e-12)


def test_rn_divergent_box_flagged(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "diag", "--alphas", "2",
                        "--kappa", "1", "--box", "1", "--box-dims", "0")
    assert code == 1


def test_rn_alpha_1_4_norm_is_finite(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "diag", "--alphas",
                        "1.4+0*j", "--kappa", "1", "--box", "1",
                        "--box-dims", "0")
    assert code == 0
    norm_sq = doc["body"]["tables"]["box_norms"]["rows"][0][2]
    assert norm_sq == pytest.approx(1.0 / (1.4 * math.sqrt(2.0 - 1.96)),
                                    rel=1e-12)


def test_rn_box_past_the_quadrature_budget_is_evidence(capsys):
    # a coupled 5-dim box of the third power: no Gauss-Legendre order within
    # the point budget converges
    code, doc = run_cli(capsys, "rn", "--builtin", "ex59", "--q", "0.5",
                        "--kappa", "5", "--power", "3", "--box", "1",
                        "--box-dims", "5")
    assert code == 2
    rep = doc["body"]["reports"][0]
    assert rep["name"] == "box_norm[1]" and rep["verdict"] == "evidence"
    assert rep["payload"]["detail"].startswith(
        "not computable within the quadrature budget: box quadrature did "
        "not converge")
    assert doc["body"]["tables"]["box_norms"]["rows"] == []


_DIAG = ("--builtin", "diag", "--alphas", "0.01+0*j")


@pytest.mark.parametrize("argv,name,corner", [
    (("check", "thm51", "--L", "200", *_DIAG), "finiteness[i=1", 167),
    (("check", "prop52", "--L", "200", *_DIAG), "box_norm_finite[i=1", 167),
    (("rn", "--kappa", "200", "--box", "1", "--box-dims", "1", *_DIAG),
     "box_norm", 200),
    (("check", "prop52", "--builtin", "ex53", "--boxes", "1e-300", "--L",
      "4"), "box_norm_finite[i=1", 2),
    (("rn", "--builtin", "ex53", "--kappa", "4", "--box", "1e-100",
      "--box-dims", "4"), "box_norm", 4),
], ids=["thm51", "prop52", "rn", "prop52-underflow", "rn-underflow"])
def test_box_norm_past_the_float_range_is_evidence(capsys, argv, name, corner):
    # alpha = 0.01: each tail coordinate multiplies the norm by 100 / sqrt(2),
    # so the norm leaves the float range at n = 167; on a tiny box the
    # integrand is positive, so a norm of 0.0 underflowed.  Either way no
    # trajectory and no table row carries the norm
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    reports = doc["body"]["reports"]
    rep = next(r for r in reports if r["name"].startswith(name))
    assert rep["verdict"] == "evidence" and rep["payload"]["detail"] == (
        f"not computable: the box norm of the {corner} x {corner} corner "
        "is outside the float range")
    assert not any(r["name"].startswith("norm_trajectory") for r in reports)
    assert doc["body"].get("tables", {}).get("box_norms", {"rows": []})[
        "rows"] == []


_OOM = ("Unable to allocate 2.98 GiB for an array with shape (20000, 20000) "
        "and data type float64")


@pytest.mark.parametrize("argv,name", [
    (("rn", "--kappa", "3", "--box", "1"), "box_norm[1]"),
    (("check", "thm51", "--L", "3"), "finiteness[i=1,box=0]"),
], ids=["rn", "thm51"])
def test_box_norm_past_memory_is_evidence(capsys, monkeypatch, argv, name):
    # as rn --kappa 20000 --box 1 under a 1 GB address-space limit, whose
    # sweep cannot allocate its N x d array; nothing large is allocated here
    def out_of_memory(*args):
        raise MemoryError(_OOM)

    monkeypatch.setattr(cli, "_box_norms", out_of_memory)
    monkeypatch.setattr(checker, "_box_norms", out_of_memory)
    code = main([*argv, "--builtin", "ex59"])
    out, err = capsys.readouterr()
    reports = json.loads(out)["body"]["reports"]
    rep = next(r for r in reports if r["name"] == name)
    assert code == 2 and err == "" and rep["verdict"] == "evidence"
    assert rep["payload"] == {"detail": f"not computable: {_OOM}"}


@pytest.mark.parametrize("argv", [
    ("--kappa", "1", "--point=nan"),
    ("--kappa", "1", "--point=inf"),
    ("--kappa", "1", "--point=1e200"),  # finite, but the log-density overflows
    ("--kappa", "2", "--box", "nan", "--box-dims", "1"),
], ids=["point-nan", "point-inf", "point-overflow", "box-nan"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rn_nonfinite_input_exits_three_writing_nothing(tmp_path, capsys,
                                                        argv):
    report = tmp_path / "report.json"
    code = main(["rn", "--builtin", "ex53", *argv, "--output", str(report)])
    out, err = capsys.readouterr()
    assert code == 3
    assert not report.exists()
    assert out == ""
    assert "NaN" not in err and "Infinity" not in err
    assert main(["rn", "--builtin", "ex53", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "NaN" not in err and "Infinity" not in err


def test_rn_box_on_a_singular_corner_fails(capsys):
    # alpha_1 = 0: no density, but the box norm is a fail, as in the suites
    code, doc = run_cli(capsys, "rn", "--builtin", "diag", "--alphas", "j-1",
                        "--kappa", "2", "--box", "1")
    assert code == 1
    assert doc["body"]["reports"] == [{
        "name": "box_norm[1]", "verdict": "fail", "params": {},
        "tolerances": {}, "payload": {"detail": "singular truncation corner"}}]
    assert doc["body"]["tables"]["box_norms"]["rows"] == []


def test_rn_point_on_a_singular_corner_is_bad_input(capsys):
    code = main(["rn", "--builtin", "diag", "--alphas", "j-1", "--kappa",
                 "2", "--box", "1", "--point", "0.1,0.2"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "symbol matrix is not invertible" in err


def test_rn_box_norms_read_the_band(capsys, monkeypatch):
    # each row is `_box_norms` on the band, bit for bit the dense adapter's
    # value; a point's dense corner comes from that same band, so every call
    # reads the band once and no window
    sym = PerturbedIdentity.geometric(0.3).symbol
    rows = [[h, 2, chi_norm_sq(sym.window(3), 1, Box(2, h))]
            for h in (1.0, 0.5)]
    value = RnDerivative(sym.window(3))(np.array([0, 0.1, 0]))
    bands, calls, reads = BandedSymbol.bands, [], []

    def refused(*args):
        raise AssertionError("densified")

    def counted(self, lo, hi):
        reads[-1] += 1
        return bands(self, lo, hi)

    monkeypatch.setattr(BandedSymbol, "from_dense", refused)
    monkeypatch.setattr(BandedSymbol, "window", lambda self, n: calls.append(n))
    monkeypatch.setattr(BandedSymbol, "bands", counted)
    argv = ["rn", "--builtin", "ex59", "--q", "0.3", "--kappa", "3", "--box",
            "1", "--box", "0.5", "--box-dims", "2"]
    for point in ([], ["--point", "0,0.1,0"]):
        reads.append(0)
        code, doc = run_cli(capsys, *argv, *point)
        assert code == 0 and doc["body"]["tables"]["box_norms"]["rows"] == rows
    assert doc["body"]["tables"]["values"]["rows"] == [["0,0.1,0", value]]
    assert calls == [] and reads == [1, 1]


def test_builtin_ex53_is_its_rule_without_the_parser(tmp_path, capsys,
                                                     monkeypatch):
    # the code and the parsed rule agree at every j, also past j = 1074,
    # where 2^-j underflows and alpha_j is 1.0
    parsed = BandedSymbol.diagonal(_alpha_expr("1-2^-j")).bands(1, 5000)
    assert np.array_equal(cli._builtin_symbol("ex53", None, None).bands(
        1, 5000), parsed)
    reports = []
    for argv in (["--builtin", "ex53"], ["--builtin", "diag", "--alphas",
                                         "1-2^-j"]):
        code, doc = run_cli(capsys, "check", "thm51", *argv, "--L", "8")
        reports.append((code, doc["body"]["reports"]))
    assert reports[0] == reports[1]

    def refused(expr):
        raise AssertionError(f"parsed {expr!r}")

    monkeypatch.setattr(cli, "_alpha_expr", refused)
    rule = tmp_path / "ex53.txt"
    rule.write_text("diagonal 0\nrule ex53\n")
    for argv in (["rn", "--builtin", "ex53", "--kappa", "2", "--box", "1"],
                 ["check", "thm51", "--builtin", "ex53", "--L", "4"],
                 ["check", "thm51", "--file", str(rule), "--L", "4"]):
        assert run_cli(capsys, *argv)[0] in (0, 2)


def test_rn_identity_large_point_is_one(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "identity", "--kappa", "1",
                        "--point=1e200")
    assert code == 0
    assert doc["body"]["tables"]["values"]["rows"] == [["1e200", 1.0]]


def test_rn_density_past_float_range_exits_three(capsys):
    # h(50) = exp(937.5) / 2 for the symbol 2: finite input, no float value
    code = main(["rn", "--builtin", "diag", "--alphas", "2", "--kappa", "1",
                 "--point=50"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "outside the float range" in err


@pytest.mark.parametrize("expr,j,expected", [
    ("1-2^-j", 3, 0.875),
    ("1.4+0*j", 5, 1.4),
    ("sqrt(j)/(j+1)", 4, 0.4),
])
def test_alpha_expr_values(expr, j, expected):
    assert _alpha_expr(expr)(j) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("expr", [
    "().__class__", "j.real", "abs(j)", "sqrt(x=j)", "__import__('os')",
    "j//2",
    # too deep for the parser or the compiler: their RecursionError
    pytest.param("1+" * 1000 + "0*j", id="nested-too-deeply"),
    # Python ints would compute 9^(9^9) digit by digit; floats overflow
    pytest.param("1+0*9**9**9", id="power-past-the-float-range"),
])
def test_alpha_expr_rejects_outside_grammar(capsys, expr):
    with pytest.raises(CliError):
        _alpha_expr(expr)
    code = main(["rn", "--builtin", "diag", "--alphas", expr, "--kappa", "1"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("expr,detail", [
    ("1/(j-2)", "division by zero"),
    ("exp(j*400)", "math range error"),
    ("(1-j)^0.5+1", "complex"),
    ("0.5+0*(1e308*10)^(j-1)", "nan is not finite"),
], ids=["zero-division", "overflow", "complex", "nonfinite"])
def test_sequence_rule_failing_past_j1_is_bad_input(tmp_path, capsys, expr,
                                                     detail):
    # j = 1 evaluates; j = 2 raises once the suite reads the second corner
    report = tmp_path / "report.json"
    code = main(["check", "thm51", "--builtin", "diag", "--alphas", expr,
                 "--L", "4", "--output", str(report)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and not report.exists()
    assert f"sequence rule {expr!r} at j=2: " in err and detail in err


# -- examples ---------------------------------------------------------------

def test_thm51_singular_corner_fails_naming_level(capsys):
    # alpha_1 = 1 - 1^-0.5 = 0: the first corner is singular
    code, doc = run_cli(capsys, "check", "thm51", "--builtin", "diag",
                        "--alphas", "1-j^-0.5")
    assert code == 1
    finite = [r for r in doc["body"]["reports"]
              if r["name"].startswith("finiteness")]
    assert len(finite) == 2
    for rep in finite:
        assert rep["verdict"] == "fail"
        assert rep["payload"] == {"detail": "singular truncation corner",
                                  "first_singular_level": 1}


@pytest.mark.parametrize("argv", [
    ("check", "prop52", "--builtin", "ex53", "--L", "0"),
    ("check", "thm51", "--builtin", "ex53", "--L", "0"),
    ("check", "thm51", "--builtin", "ex53", "--n", "0", "--r", "0"),
    ("check", "prop52", "--builtin", "ex53", "--n", "0", "--r", "0"),
    ("check", "thm51", "--builtin", "ex53", "--n", "-1", "--r", "1"),
    ("check", "prop52", "--builtin", "ex53", "--n", "-1", "--r", "1"),
    ("example", "diag", "--L", "2"),
    ("example", "banded", "--L", "1"),
    ("example", "singular", "--N", "0"),
    ("example", "singular", "--N", "1"),
    ("rn", "--builtin", "identity", "--kappa", "0"),
    ("rn", "--builtin", "ex53", "--kappa", "-1"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--power", "0", "--box", "1"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--power", "-1", "--box", "1"),
    ("rn", "--builtin", "ex53", "--box", "0"),
    ("rn", "--builtin", "ex53", "--box", "-1"),
    ("example", "diag", "--k", "0"),
    ("example", "diag", "--k", "-1"),
    ("example", "diag", "--k", "nan"),
    ("example", "diag", "--k", "inf"),
], ids=["prop52-L0", "thm51-L0", "thm51-n0-r0", "prop52-n0-r0",
        "thm51-n-1", "prop52-n-1", "diag-L2", "banded-L1", "singular-N0",
        "singular-N1", "rn-kappa0", "rn-kappa-1", "rn-power0", "rn-power-1",
        "rn-box0", "rn-box-1", "diag-k0", "diag-k-1", "diag-k-nan", "diag-k-inf"])
def test_degenerate_sizes_are_bad_input(capsys, argv):
    # each of these used to pass on an empty check or crash
    code = main(list(argv))
    out, _ = capsys.readouterr()
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv,flag", [
    (("rn", "--builtin", "identity", "--kappa", "0"), "--kappa"),
    (("rn", "--builtin", "ex53", "--kappa", "-1"), "--kappa"),
    (("example", "diag", "--k", "0"), "--k"),
    (("example", "diag", "--k", "nan"), "--k"),
    (("check", "thm51", "--builtin", "ex59", "--boxes", "1,inf"), "--boxes"),
    (("rn", "--builtin", "ex53", "--power", "0", "--box", "1"), "--power"),
    (("rn", "--builtin", "ex53", "--power", "-1", "--box", "1"), "--power"),
    (("rn", "--builtin", "ex59", "--q", "0.5", "--kappa", "5", "--box", "1",
      "--box-dims", "6"), "--box-dims"),
    (("rn", "--builtin", "ex53", "--box", "1", "--box-dims", "-1"),
     "--box-dims"),
])
def test_bad_size_error_names_the_flag(capsys, argv, flag):
    # not numpy's "negative dimensions" or a bare "math domain error"
    assert main(list(argv)) == 3
    _, err = capsys.readouterr()
    assert re.search(rf"{flag}\b", err)


def test_example_diag_agreement(capsys):
    code, doc = run_cli(capsys, "example", "diag")
    assert code == 0
    rep = doc["body"]["reports"][0]
    assert rep["payload"]["max_rel_diff"] < 1e-8


def test_example_diag_past_the_float_range_is_bad_input(tmp_path, capsys):
    # the closed form goes first, so it is the one error line, with exit 3
    report = tmp_path / "report.json"
    code = main(["example", "diag", "--alphas", "0.01+0*j", "--L", "200",
                 "--output", str(report)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and not report.exists()
    assert err == "error: closed form at l = 167 is outside the float range\n"


@pytest.mark.parametrize("alphas", ["0*j", "1-j^-0.5"])
def test_example_diag_zero_box_entry_is_bad_input(tmp_path, capsys, alphas):
    # alpha_1 = 0 leaves no box factor: one error line naming it, exit 3
    report = tmp_path / "report.json"
    code = main(["example", "diag", "--alphas", alphas, "--output",
                 str(report)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and not report.exists()
    assert err == "error: alpha_1^(2i) = 0; box factor undefined\n"


@pytest.mark.parametrize("k", ["1e-200", "1e-300"])
def test_example_diag_underflowing_closed_form_is_bad_input(tmp_path, capsys,
                                                             k):
    # the running log-sum is finite, but its exp underflows to 0.0 at the
    # first level; the quadrature underflows too, so no relative error exists
    report = tmp_path / "report.json"
    code = main(["example", "diag", "--L", "5", "--k", k, "--output",
                 str(report)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and not report.exists()
    assert err == "error: closed form at l = 3 is outside the float range\n"


def test_example_diag_evaluates_its_rule_once_per_coordinate(capsys,
                                                             monkeypatch):
    # the closed form takes the diagonal already read: --L 12 evaluations,
    # not 12 more per power
    parse, calls = cli._alpha_expr, []

    def counted(expr):
        rule = parse(expr)

        def counted_rule(j):
            calls.append(j)
            return rule(j)

        return counted_rule

    monkeypatch.setattr(cli, "_alpha_expr", counted)
    code, _ = run_cli(capsys, "example", "diag", "--L", "12")
    assert code == 0 and calls == list(range(1, 13))


_UNDERFLOW = "exp(-230.2585093*exp(50*(1-j)))"  # 1e-100, then 1.0 from j = 2


def test_example_diag_failed_general_path_is_its_verdict(capsys):
    # at i = 2, level 3, the box entry alpha_1^4 underflows in the band sweep,
    # which then finds a singular form; the closed form is finite there.  That
    # power's rows end, and the verdict says why: exit 1, no traceback
    code = main(["example", "diag", "--alphas", _UNDERFLOW, "--L", "4"])
    out, err = capsys.readouterr()
    body = json.loads(out)["body"]
    rep, = body["reports"]
    rows = body["tables"]["norms"]["rows"]
    assert code == 1 and err == "" and rep["verdict"] == "fail"
    assert [r[:2] for r in rows] == [[1, 3], [1, 4]]
    assert rep["payload"] == {
        "max_rel_diff": max(r[4] for r in rows),
        "detail": "i = 2, l = 3: quadratic form fails positive-definiteness "
                  "on unrestricted coordinates (0 negative eigenvalues, "
                  "singular)"}


_BUDGET = ("i = 1, l = 4: not computable within the quadrature budget: no "
           "order")


@pytest.mark.parametrize("second,verdict,code,detail,powers", [
    (None, "evidence", 2, _BUDGET, [1, 2, 2, 2]),
    (DivergenceError("diverges"), "fail", 1,
     f"{_BUDGET}; i = 2, l = 4: diverges", [1, 2]),
], ids=["budget", "budget-and-divergence"])
def test_example_diag_general_path_failures_combine(
        capsys, monkeypatch, second, verdict, code, detail, powers):
    # the general path fails after level 3: at i = 1 past its quadrature
    # budget, at i = 2 divergent or not at all; each failure ends its own
    # power's rows, and the worst verdict is the report's
    sweep = cli._band_sweep

    def failing(ab, eta, i, box, levels):
        run = sweep(ab, eta, i, box, levels)
        yield next(run)
        error = ValueError("no order") if i == 1 else second
        if error is not None:
            raise error
        yield from run

    monkeypatch.setattr(cli, "_band_sweep", failing)
    got, doc = run_cli(capsys, "example", "diag", "--L", "5")
    rep, = doc["body"]["reports"]
    rows = doc["body"]["tables"]["norms"]["rows"]
    assert got == code and rep["verdict"] == verdict
    assert rep["payload"]["detail"] == detail
    assert [r[0] for r in rows] == powers


def test_example_diag_runs_past_l53(capsys):
    # alpha_j = 1 - 2^-j rounds to 1.0 from j = 54: a tail factor of 1
    code, doc = run_cli(capsys, "example", "diag", "--L", "60")
    assert code == 0
    rows = doc["body"]["tables"]["norms"]["rows"]
    assert len(rows) == 2 * 58 and rows[-1][:2] == [2, 60]
    # from l = 54 on each level adds a factor of exactly 1
    assert len({tuple(r[2:4]) for r in rows[-7:]}) == 1


def test_example_banded_envelope(capsys):
    code, doc = run_cli(capsys, "example", "banded", "--q", "0.5", "--L", "32")
    assert code == 0
    rows = doc["body"]["tables"]["determinants"]["rows"]
    assert rows[0][1] == pytest.approx(1.0)
    assert rows[2][1] == pytest.approx(0.6875)
    floor = 1.0 - 0.25 / 0.75
    assert all(r[1] > floor for r in rows[1:])


@pytest.mark.parametrize("argv,margin", [
    # the computed min det is 2 ulps below the floor; in exact arithmetic it
    # is 6.6e-21 above it (a 60-digit recurrence)
    (("--q", "0.003", "--L", "50"), -2.220446049250313e-16),
    (("--q", "1e-9",), 0.0),  # every det rounds to 1.0, the floor and upper
], ids=["q0.003", "q1e-9"])
def test_example_banded_det_within_the_rounding_band_is_evidence(capsys, argv,
                                                                margin):
    code, doc = run_cli(capsys, "example", "banded", *argv)
    report, = doc["body"]["reports"]
    assert code == 2 and report["verdict"] == "evidence"
    assert report["payload"]["detail"] == (
        f"the smallest margin to the envelope, {margin:.3g}, lies within its "
        f"rounding band +-{4 * doc['body']['config']['L'] * 2.0**-53:.3g} "
        "(4 L u)")


def test_example_banded_det_beyond_the_rounding_band_fails(capsys,
                                                           monkeypatch):
    floor = 1.0 - 0.25 / 0.75
    monkeypatch.setattr(cli, "det_sequence", lambda *a: np.array(
        [1.0, 0.8, floor - 1e-3, 0.7]))
    code, doc = run_cli(capsys, "example", "banded", "--L", "4")
    report, = doc["body"]["reports"]
    assert code == 1 and report["verdict"] == "fail"
    assert report["payload"] == {"min_det": floor - 1e-3, "floor": floor,
                                 "upper": 1.0}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.69, 0.9])
def test_ex59_band_has_the_bits_of_the_perturbed_identity(q):
    band = cli._builtin_symbol("ex59", None, q, band=True)
    assert np.array_equal(band.bands(1, 40),
                          PerturbedIdentity.geometric(q).symbol.bands(1, 40))


_EX59_COMMANDS = [("rn", "--builtin", "ex59", "--kappa", "3", "--box", "1"),
                  ("check", "thm51", "--builtin", "ex59"),
                  ("check", "prop52", "--builtin", "ex59"),
                  ("example", "banded", "--L", "8"),
                  ("check", "prop56", "--builtin", "ex59", "--L", "8")]


@pytest.mark.parametrize("argv", _EX59_COMMANDS,
                         ids=["rn", "thm51", "prop52", "banded", "prop56"])
def test_only_prop56_validates_an_ex59_window(capsys, monkeypatch, argv):
    seen = []
    monkeypatch.setattr(PerturbedIdentity, "validate_window",
                        lambda self, n: seen.append(n))
    assert main([*argv, "--q", "0.5"]) != 3  # thm51 and prop52 judge
    capsys.readouterr()
    assert bool(seen) == (argv[1] == "prop56")


def test_ex59_rule_file_reaches_each_command_as_its_builtin_twin(
        tmp_path, capsys, monkeypatch):
    # rn, thm51 and prop52 get the band alone from a `rule ex59` file, as
    # from --builtin ex59: no PerturbedIdentity is built, and the reports and
    # tables are equal; only prop56 gets its PerturbedIdentity
    p = tmp_path / "ex59.txt"
    p.write_text("banded 1\nrule ex59 q=0.3\n")

    def refused(self):
        raise AssertionError("a PerturbedIdentity was built")

    for argv in (("rn", "--kappa", "3", "--box", "1", "--box-dims", "2",
                  "--point", "0,0.1,0"), ("check", "thm51", "--L", "5"),
                 ("check", "prop52", "--L", "5")):
        with monkeypatch.context() as m:
            m.setattr(PerturbedIdentity, "__post_init__", refused)
            (code, doc), (twin_code, twin) = (run_cli(capsys, *argv, *src) for
                src in (["--file", str(p)], ["--builtin", "ex59", "--q", "0.3"]))
        assert code == twin_code != 3
        assert [doc["body"][k] for k in ("reports", "tables")] == [
            twin["body"][k] for k in ("reports", "tables")]
    seen, suite = [], checker.prop56_suite

    def recorded(sym, *args, **kw):
        seen.append(type(sym))
        return suite(sym, *args, **kw)

    monkeypatch.setattr(checker, "prop56_suite", recorded)
    code, _ = run_cli(capsys, "check", "prop56", "--file", str(p), "--L", "8")
    assert code == 0 and seen == [PerturbedIdentity]


@pytest.mark.parametrize("argv", [c for c in _EX59_COMMANDS if c[0] != "example"],
                         ids=["rn", "thm51", "prop52", "prop56"])
def test_ex59_rule_file_q_outside_the_unit_interval_is_bad_input(
        tmp_path, capsys, argv):
    # the band and the PerturbedIdentity refuse q with the same message
    p = tmp_path / "ex59.txt"
    p.write_text("banded 1\nrule ex59 1\n")
    argv = [a for a in argv if a not in ("--builtin", "ex59")]
    assert main([*argv, "--file", str(p)]) == 3
    assert capsys.readouterr() == (
        "", f"error: {p}: rule line 'rule ex59 1': q must lie in (0, 1)\n")


@pytest.mark.parametrize("argv", _EX59_COMMANDS,
                         ids=["rn", "thm51", "prop52", "banded", "prop56"])
@pytest.mark.parametrize("q", ["0", "1", "nan"])
def test_ex59_q_outside_the_unit_interval_is_bad_input(capsys, argv, q):
    assert main([*argv, "--q", q]) == 3
    assert capsys.readouterr() == ("", "error: q must lie in (0, 1)\n")


def test_example_singular_trajectories(capsys):
    code, doc = run_cli(capsys, "example", "singular", "--alpha", "0.5",
                        "--N", "2000")
    assert code == 0
    rep = doc["body"]["reports"][0]
    assert rep["payload"]["p_limit_lower"] > 0
    assert rep["payload"]["final_log_q"] < -5


@pytest.mark.parametrize("N", [2, 3, 16383, 16384, 16385, 49159, 1638407])
def test_example_singular_stream_matches_the_demo(capsys, N):
    # the strided sums are those of the full trajectories, associated
    # otherwise; past 100 * 2^9 the runs between rows are Euler-Maclaurin's
    code, doc = run_cli(capsys, "example", "singular", "--alpha", "0.7",
                        "--N", str(N))
    rep = gaussmeas.singular_scaling_demo(0.7, N)
    stride = max(1, N // 100)
    rows = doc["body"]["tables"]["trajectories"]["rows"]
    assert code == 0
    assert [r[0] for r in rows] == list(range(2, N + 2, stride))
    for n, p, log_q in rows:
        assert p == pytest.approx(rep.p_trajectory[n - 2], rel=1e-12)
        assert log_q == pytest.approx(rep.log_q_trajectory[n - 2], rel=1e-12)
    payload = doc["body"]["reports"][0]["payload"]
    assert payload == {
        "p_limit_lower": pytest.approx(rep.p_limit_lower, rel=1e-12),
        "final_log_q": pytest.approx(rep.log_q_trajectory[-1], rel=1e-12),
        "beta": rep.beta, "note": rep.note}


def test_example_singular_rows_match_an_fsum_of_log1p(capsys):
    # sums of logs gather less rounding than a running product of factors
    code, doc = run_cli(capsys, "example", "singular", "--alpha", "0.3",
                        "--N", "100000")
    rows = doc["body"]["tables"]["trajectories"]["rows"]
    beta = doc["body"]["reports"][0]["payload"]["beta"]
    terms = np.log1p(-np.arange(2, 100_002, dtype=float) ** -beta)
    cuts = [0] + [n - 1 for n, _, _ in rows]  # P_n sums terms[:n - 1]
    parts = [math.fsum(terms[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert code == 0
    for k, (_, p, _) in enumerate(rows):
        assert p == pytest.approx(math.exp(math.fsum(parts[:k + 1])),
                                  rel=1e-14)


@pytest.mark.parametrize("N", ["9007199254740992", "1000000000000000000"])
def test_example_singular_N_past_2_53_is_bad_input(capsys, N):
    # from N = 2^53 on, the last index m = N + 1 is not exact in a float
    assert main(["example", "singular", "--N", N]) == 3
    assert capsys.readouterr() == (
        "", f"error: --N {N} must lie in [2, 2^53 - 1], so that every index "
        "m <= N + 1 is exact in floats\n")


def test_example_singular_runs_at_N_2_53_minus_1(capsys):
    N = 9007199254740991
    code, doc = run_cli(capsys, "example", "singular", "--N", str(N),
                        "--alpha", "0.001")
    rows = doc["body"]["tables"]["trajectories"]["rows"]
    assert code == 0 and doc["body"]["reports"][0]["verdict"] == "pass"
    assert [r[0] for r in rows] == list(range(2, N + 2, N // 100))


def test_example_singular_rise_across_chunks_fails(capsys, monkeypatch):
    # the log sums of P rise between two output points: a fail, whatever
    # exp makes of them
    def sums(beta, q_exp, N, stride):
        return (np.arange(2, 6), np.array([-0.5, -0.6, -0.55, -0.7]),
                np.array([-1.0, -2.0, -3.0, -4.0]))

    monkeypatch.setattr(cli, "_singular_trajectories", sums)
    code, doc = run_cli(capsys, "example", "singular", "--N", "4")
    assert code == 1
    assert doc["body"]["reports"][0]["verdict"] == "fail"


def test_example_singular_alpha_whose_exponent_underflows(capsys):
    # 2 alpha^2 beta = 0 would make every factor of Q zero, its log -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["example", "singular", "--alpha", "1e-300", "--N", "100"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("error: --alpha 1e-300: 2 alpha^2 beta underflows to 0"
                   "\n")


@pytest.mark.parametrize("alpha", ["0.999", "0.9999"])
def test_example_singular_underflowing_certificate_is_evidence(capsys, alpha):
    # beta > 1 and P_N > 0: only exp(-tail) underflows, which disproves nothing
    code, doc = run_cli(capsys, "example", "singular", "--alpha", alpha)
    rep = doc["body"]["reports"][0]
    assert code == 2 and rep["verdict"] == "evidence"
    assert rep["payload"]["p_limit_lower"] == 0.0
    assert "underflows" in rep["payload"]["detail"]


def test_example_singular_tiny_certificate_still_passes(capsys):
    code, doc = run_cli(capsys, "example", "singular", "--alpha", "0.99")
    payload = doc["body"]["reports"][0]["payload"]
    assert code == 0 and 0.0 < payload["p_limit_lower"] < 1e-170
    assert "detail" not in payload


def test_example_singular_holds_no_trajectory(tmp_path):
    # the whole run allocates a head of terms and one quadrature per row,
    # not N terms (the full trajectories of N = 10^6 take 8 MB each)
    tracemalloc.start()
    try:
        code = main(["example", "singular", "--N", "1000000",
                     "--output", str(tmp_path / "s.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


def test_example_csv_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["example", "banded", "--q", "0.5", "--L", "8",
                 "--output", str(out), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert out.exists()
    text = (tmp_path / "example_banded_determinants.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "l,det"
    assert len(lines) == 9
    # the envelope is stated once, in the payload, not as constant columns
    doc = json.loads(out.read_text())
    assert doc["body"]["tables"]["determinants"]["columns"] == ["l", "det"]
    payload = doc["body"]["reports"][0]["payload"]
    assert payload["floor"] == 1.0 - 0.25 / 0.75 and payload["upper"] == 1.0


def test_rn_point_csv_keeps_two_columns(tmp_path, capsys):
    # the point's own commas are quoted, not taken as column separators
    code = main(["rn", "--builtin", "ex53", "--kappa", "2", "--point",
                 "0.1,0.2", "--box", "1", "--outdir", str(tmp_path),
                 "--output", str(tmp_path / "rn.json")])
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "rn_values.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point", "h"]
    assert len(rows) == 2 and len(rows[1]) == 2 and rows[1][0] == "0.1,0.2"
    assert float(rows[1][1]) > 0


def test_rn_point_in_other_digits_is_written_as_utf8(tmp_path, capsys):
    # float() reads the Arabic-Indic digits; the table keeps them as typed
    code = main(["rn", "--builtin", "ex53", "--kappa", "2", "--point=١,٢",
                 "--outdir", str(tmp_path), "--output", str(tmp_path / "r")])
    capsys.readouterr()
    row = (tmp_path / "rn_values.csv").read_bytes().split(b"\n")[1]
    assert code == 0 and row.startswith('"١,٢",'.encode("utf-8"))


@pytest.mark.parametrize("argv", [
    ("example", "banded", "--L", "5"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--point", "0.1,0.2"),
], ids=["banded", "rn"])
@pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
def test_outdir_that_is_a_file_writes_nothing(tmp_path, capsys, argv,
                                              to_file):
    # the report was written, or printed, before the directory failed
    blocker, out = tmp_path / "F", tmp_path / "R"
    blocker.write_text("kept\n")
    code = main([*argv, "--outdir", str(blocker),
                 *(["--output", str(out)] if to_file else [])])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert err.startswith(f"error: --outdir {str(blocker)!r}: ")
    assert blocker.read_text() == "kept\n"


def test_a_csv_that_cannot_be_opened_writes_no_report(tmp_path, capsys):
    outdir, out = tmp_path / "D", tmp_path / "R"
    (outdir / "example_banded_determinants.csv").mkdir(parents=True)
    code = main(["example", "banded", "--L", "5", "--output", str(out),
                 "--outdir", str(outdir)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert err.startswith(f"error: --outdir {str(outdir)!r}: ")


def test_a_report_that_cannot_be_opened_leaves_no_csv(tmp_path, capsys):
    outdir = tmp_path / "D"
    code = main(["example", "banded", "--L", "5", "--output", str(tmp_path),
                 "--outdir", str(outdir)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and err.startswith("error: ")
    assert os.listdir(outdir) == []


# -- file formats -----------------------------------------------------------

def test_symbol_file_triplets(tmp_path):
    p = tmp_path / "sym.txt"
    p.write_text("banded 1\n1 1 1.0\n2 2 1.0\n1 2 0.5\n2 1 0.5\n")
    a = load_symbol(str(p))
    assert a.entry(1, 2) == 0.5
    assert a.entry(3, 3) == 0.0


def test_symbol_file_rule(tmp_path):
    p = tmp_path / "sym.txt"
    p.write_text("banded 1\nrule geometric_tridiagonal 0.5\n")
    a = load_symbol(str(p))
    assert a.entry(2, 3) == 0.25


@pytest.mark.parametrize("text", [
    "banded 1\n  # note\nrule geometric_tridiagonal 0.5\n",
    "# a 2x2 corner\nbanded 1\n\t# diagonal\n1 1 1.0\n2 2 1.0\n"
    "   # off-diagonal\n1 2 0.5\n2 1 0.5\n2 3 0.25\n",
], ids=["rule", "triplets"])
def test_symbol_file_indented_comment_is_skipped(tmp_path, capsys, text):
    # an indented `# note` was read as an entry line: exit 3
    p = tmp_path / "sym.txt"
    p.write_text(text)
    assert load_symbol(str(p)).entry(2, 3) == 0.25
    code = main(["check", "prop52", "--file", str(p), "--L", "3",
                 "--output", str(tmp_path / "r.json")])
    assert capsys.readouterr().err == "" and code != 3


def test_partition_file(tmp_path):
    p = tmp_path / "part.txt"
    p.write_text("2 4 8 16\n")
    s = load_partition(str(p))
    assert s.cut(3) == 8


@pytest.mark.parametrize("suite", ["thm51", "prop52", "prop56"])
def test_short_partition_file_is_bad_input(tmp_path, capsys, suite):
    p = tmp_path / "part.txt"
    p.write_text("1 2 3\n")
    builtin = "ex59" if suite == "prop56" else "ex53"
    code = main(["check", suite, "--builtin", builtin, "--L", "6",
                 "--partition-file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "--partition-file" in err and "--L 6" in err


def test_prop52_one_cut_partition_writes_a_report(tmp_path, capsys):
    # one block has no off-diagonal block, so the block-class check tests
    # none instead of asking the partition for a second cut
    p = tmp_path / "part.txt"
    p.write_text("1\n")
    out = tmp_path / "r.json"
    code = main(["check", "prop52", "--builtin", "ex53", "--L", "1",
                 "--partition-file", str(p), "--output", str(out)])
    capsys.readouterr()
    assert code == 2  # a one-level trajectory is evidence only
    reports = json.loads(out.read_text())["body"]["reports"]
    block = next(r for r in reports if r["name"] == "inverse_in_block_class")
    assert block["verdict"] == "pass"
    assert block["payload"]["block_ranks"] == []


@pytest.mark.parametrize("suite,text,message", [
    pytest.param(suite, "\n", "empty partition file", id=suite)
    for suite in ("thm51", "prop52", "prop56")] + [
    pytest.param("thm51", "1 2 x\n", "'x'", id="non-integer-token"),
    pytest.param("thm51", "0 1 2\n", "cut points must be positive",
                 id="non-positive-cut"),
    pytest.param("thm51", "3 2 1\n", "strictly increasing",
                 id="decreasing-cuts"),
])
def test_empty_partition_file_is_bad_input(tmp_path, capsys, suite, text,
                                           message):
    # an empty file is rejected, not replaced by the unit partition, a bad
    # token is quoted and an invalid cut sequence names the file
    p = tmp_path / "part.txt"
    p.write_text(text)
    code = main(["check", suite, "--builtin", "ex59",
                 "--partition-file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert str(p) in err and message in err


@pytest.mark.parametrize("text,message", [
    pytest.param(f"banded 1\n{rule}\n", repr(rule), id=rule)
    for rule in ("rule", "rule geometric_tridiagonal")] + [
    pytest.param("banded 1\n1 1\n", "'1 1'", id="entry-two-fields"),
    pytest.param("banded 1\n1 1 x\n", "'1 1 x'", id="entry-non-numeric"),
    pytest.param("banded x\n1 1 1.0\n", "'banded x'", id="header-eta"),
    pytest.param("banded 0\n1 2 0.5\n",
                 "entry (1, 2) lies outside the declared band eta=0",
                 id="entry-outside-band"),
    pytest.param("banded 1\n0 1 0.5\n", "indices are 1-based",
                 id="entry-zero-index"),
    pytest.param("diagonal 0\nrule diag\n", "'rule diag'", id="rule-diag"),
] + [
    # a rule or entry line with a bad or non-finite value: quoted, with why
    pytest.param(f"banded 1\n{line}\n", f"{line!r}{reason}", id=name)
    for name, line, reason in [
        ("rule-non-numeric", "rule geometric_tridiagonal abc",
         ": could not convert string to float: 'abc'"),
        ("rule-ex59-q-outside", "rule ex59 q=2", ": q must lie in (0, 1)"),
        ("rule-identity-surplus", "rule identity 1",
         ": rule identity takes 0 to 0 parameters"),
        ("rule-ex59-surplus", "rule ex59 0.5 0.6",
         ": rule ex59 takes 0 to 1 parameters"),
        ("rule-geometric-surplus", "rule geometric_tridiagonal 0.5 1 2",
         ": rule geometric_tridiagonal takes 1 to 2 parameters"),
        ("rule-nan", "rule geometric_tridiagonal nan",
         ": a parameter is not finite"),
        ("rule-inf-diag", "rule geometric_tridiagonal 0.5 inf",
         ": a parameter is not finite"),
        ("rule-ex59-nan", "rule ex59 q=nan", ": a parameter is not finite"),
        ("rule-ex59-other-name", "rule ex59 r=0.3",
         ": could not convert string to float: 'r=0.3'"),
        ("rule-diag-inf", "rule diag 1e308*10+0*j",
         ": cannot evaluate sequence rule '1e308*10+0*j' at j=1: inf is "
         "not finite"),
        ("entry-nan", "1 1 nan", " has a non-finite value"),
        ("entry-inf", "1 1 inf", " has a non-finite value"),
        ("entry-overflow", "2 1 -1e400", " has a non-finite value"),
    ]
])
def test_symbol_file_incomplete_rule_is_bad_input(tmp_path, capsys, text,
                                                  message):
    # a malformed rule, entry or header line: the error names the file and
    # quotes the line; an entry the symbol rejects keeps the symbol's message
    p = tmp_path / "sym.txt"
    p.write_text(text)
    with pytest.raises(CliError, match=str(p)):
        load_symbol(str(p))
    code = main(["check", "prop52", "--file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert str(p) in err and message in err


def test_bare_ex53_rule_is_the_default_sequence(tmp_path, capsys):
    p = tmp_path / "sym.txt"
    p.write_text("diagonal 0\nrule ex53\n")
    argv = ("check", "prop52", "--L", "4")
    code, doc = run_cli(capsys, *argv, "--file", str(p))
    twin_code, twin = run_cli(capsys, *argv, "--builtin", "ex53")
    assert code == twin_code == 0
    assert doc["body"]["reports"] == twin["body"]["reports"]


def test_overflowing_rule_is_bad_input(tmp_path, capsys):
    # 2**j leaves the float range past column 1023
    p = tmp_path / "geo2.txt"
    p.write_text("banded 1\nrule geometric_tridiagonal 2\n")
    out = tmp_path / "report.json"
    code = main(["check", "prop52", "--file", str(p), "--L", "1100",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert str(p) in err and "'rule geometric_tridiagonal 2'" in err


def test_sequence_rule_failing_in_a_suite_names_the_file(tmp_path, capsys):
    # j = 1 builds the symbol; j = 2 fails only once a suite reads column 2
    p = tmp_path / "seq.txt"
    p.write_text("diagonal 0\nrule diag 1/(j-2)\n")
    out = tmp_path / "report.json"
    code = main(["check", "thm51", "--file", str(p), "--L", "4",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert f"{p}: rule line 'rule diag 1/(j-2)'" in err
    assert "at j=2: float division by zero" in err


def scale_file(tmp_path, c):
    """12 x 12 tridiagonal: diagonal c, off-diagonals c * 1e-4."""
    p = tmp_path / f"scale{c}.txt"
    p.write_text("banded 1\n" + "".join(
        f"{i} {j} {c if i == j else c * 1e-4!r}\n" for i in range(1, 13)
        for j in range(max(1, i - 1), min(12, i + 1) + 1)))
    return p


def test_inverse_block_class_does_not_depend_on_the_scale(tmp_path, capsys):
    # scaling A scales A^-1 and keeps its zero pattern: the inverse entry
    # (1, 3) is c^-1 * 1e-8, never zero
    for c in (1e-7, 1.0, 1e7):
        code, doc = run_cli(capsys, "check", "prop52", "--file",
                            str(scale_file(tmp_path, c)), "--L", "8",
                            "--dim-cap", "1")
        block = next(r for r in doc["body"]["reports"]
                     if r["name"] == "inverse_in_block_class")
        assert code == 1 and block["verdict"] == "fail"
        assert block["payload"] == {"structural_violation": [1, 3],
                                    "block_ranks": []}


@pytest.mark.parametrize("argv,flag", [
    (("check", "thm51", "--builtin", "ex53", "--boxes", "1,x"), "--boxes"),
    (("rn", "--builtin", "ex53", "--box="), "--box"),
    (("rn", "--builtin", "ex53", "--point=0.1,y"), "--point"),
], ids=["boxes", "box", "point"])
def test_unparsable_number_names_the_flag(tmp_path, capsys, argv, flag):
    # not a bare "could not convert string to float"
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert re.search(rf"{flag}\b", err) and "could not convert" not in err


def test_unparsable_dim_cap_names_the_flag(tmp_path, capsys):
    # not argparse's "invalid _dim_cap value", which names a private function
    out = tmp_path / "report.json"
    code = main(["check", "thm51", "--builtin", "ex53", "--dim-cap", "x",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert re.search(r"--dim-cap\b", err) and "_dim_cap" not in err
    assert "'x'" in err and "nonnegative integer or none" in err


def test_check_with_symbol_file(tmp_path, capsys):
    p = tmp_path / "sym.txt"
    p.write_text("diagonal 0\nrule diag 1-2^-j\n")
    code, doc = run_cli(capsys, "check", "prop52", "--file", str(p))
    assert code == 0


@pytest.mark.parametrize("suite", ["thm51", "prop52"])
def test_spaced_diag_rule_reads_the_whole_line(tmp_path, capsys, suite):
    # the sequence is the rest of the line, not its first token "1"
    p = tmp_path / "sym.txt"
    p.write_text("diagonal 0\nrule diag 1 - 2^-j\n")
    argv = ("check", suite, "--L", "4")
    code, doc = run_cli(capsys, *argv, "--file", str(p))
    twin_code, twin = run_cli(capsys, *argv, "--builtin", "ex53")
    assert code == twin_code
    assert doc["body"]["reports"] == twin["body"]["reports"]


@pytest.mark.parametrize("argv", [
    ("check", "thm51", "--builtin", "diag", "--L", "4"),
    ("check", "prop52", "--builtin", "diag", "--L", "4"),
    ("example", "diag"),
    ("rn", "--builtin", "diag", "--kappa", "2"),
], ids=["thm51", "prop52", "example", "rn"])
def test_nonfinite_sequence_rule_exits_three(tmp_path, capsys, argv):
    # inf at j = 1: rejected when the rule is built, before any report
    report = tmp_path / "report.json"
    expr = "1e308*10+0*j"
    code = main([*argv, "--alphas", expr, "--output", str(report)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and not report.exists()
    assert f"sequence rule {expr!r} at j=1: inf is not finite" in err


def test_missing_file_exits_three(capsys):
    code = main(["check", "prop52", "--file", "/nonexistent/sym.txt"])
    capsys.readouterr()
    assert code == 3


# -- the shared parser --------------------------------------------------------

def test_shared_parser_keeps_no_state_between_calls(capsys):
    # main parses every call with one parser; no value leaks into the next
    code, doc = run_cli(capsys, "rn", "--builtin", "ex53", "--kappa", "2",
                        "--point", "0.1,0.2", "--point", "0.3,0.4")
    assert code == 0 and len(doc["body"]["tables"]["values"]["rows"]) == 2
    code, doc = run_cli(capsys, "rn", "--builtin", "ex53", "--kappa", "2")
    assert code == 0 and doc["body"]["tables"]["values"]["rows"] == []
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59")
    assert code == 0 and doc["body"]["config"]["L"] == 64
    code, doc = run_cli(capsys, "check", "thm51", "--builtin", "ex53")
    assert code == 2 and doc["body"]["config"]["L"] == 6
    assert main(["check", "thm51", "--builtin", "ex53", "--L", "x"]) == 3
    capsys.readouterr()
    code, doc = run_cli(capsys, "check", "prop52", "--builtin", "ex53")
    assert code == 0 and doc["body"]["config"]["L"] == 6


GOLDEN_ARGV = {path.stem: json.loads(path.read_text())["argv"] for path in
               sorted(pathlib.Path(__file__).with_name("golden").glob("*.json"))}


@pytest.mark.parametrize("argv", GOLDEN_ARGV.values(), ids=GOLDEN_ARGV)
def test_routed_parse_equals_the_tree(argv):
    assert cli._parse(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["check"], ["check", "nope"], ["example"],
    ["rn", "--builtin", "ex53", "--bogus"], ["--kap", "2"], ["--L", "x"],
    ["check", "thm51", "--builtin", "ex53", "--L", "x"],
    ["check", "--builtin", "ex53", "thm51"], ["--extra", "1", "example", "diag"],
    ["rn", "--builtin", "ex53", "--file", "f"], ["check", "prop56"],
    ["rn", "--builtin", "ex53", "--point", "-h"], ["example", "diag", "-hx"],
    ["example", "singular", "--N", "5", "--N"], ["rn", "--builtin", "nope"],
    ["check", "thm51", "--builtin", "ex53", "--dim-cap", "-1"],
])
def test_routed_errors_equal_the_tree(capsys, argv):
    with pytest.raises(CliError) as exc:  # main before routing: the tree
        build_parser().parse_args(argv)
    print(f"error: {exc.value}", file=sys.stderr)
    want = capsys.readouterr()
    assert main(argv) == 3 and capsys.readouterr() == want
    assert want.err.splitlines()[0].startswith("usage: gausscomp")


@pytest.mark.parametrize("argv", [["--help"], ["check", "-h"],
                                  ["check", "thm51", "--help"],
                                  ["rn", "--builtin", "ex53", "-h"]])
def test_routed_help_equals_the_tree(capsys, argv):
    with pytest.raises(SystemExit) as tree:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as routed:
        main(argv)
    assert routed.value.code == tree.value.code == 0
    assert capsys.readouterr() == want and "usage: gausscomp" in want.out


def test_a_call_builds_only_its_own_parser_once(capsys, monkeypatch):
    built, init = [], cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._leaf_parser.cache_clear()
    argv = ["example", "banded", "--L", "8"]
    assert main(argv) == 0 and len(built) == 1  # not the whole tree
    assert main(argv) == 0 and len(built) == 1  # and not again
    capsys.readouterr()


def test_build_parser_returns_a_fresh_parser(capsys):
    parser = build_parser()
    assert parser is not build_parser()
    key = ("check", "thm51")
    assert cli._leaf_parser(key) is cli._leaf_parser(key)
    parser.add_argument("--extra")
    assert parser.parse_args(["--extra", "1", "example", "diag"]).extra == "1"
    assert main(["--extra", "1", "example", "diag"]) == 3
    capsys.readouterr()


# -- the document format ------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("check", "prop52", "--builtin", "ex53", "--L", "3"),
    ("example", "banded", "--q", "0.5", "--L", "8"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--point", "0.1,0.2",
     "--box", "1"),
], ids=["check", "example", "rn"])
def test_output_is_indented_sorted_json(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) in (0, 2)
    capsys.readouterr()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def _banded(L, out, outdir):
    assert main(["example", "banded", "--L", str(L), "--output", str(out),
                 "--outdir", str(outdir)]) == 0
    table = outdir / "example_banded_determinants.csv"
    return (re.sub(r'"timestamp": "[^"]*"', "", out.read_text()),
            table.read_bytes())


def test_shorter_report_over_a_longer_one_leaves_one_document(tmp_path,
                                                              capsys):
    out, outdir = tmp_path / "r.json", tmp_path / "tables"
    _banded(300, out, outdir)
    long_size = out.stat().st_size
    rewritten = _banded(8, out, outdir)
    fresh = _banded(8, tmp_path / "fresh.json", tmp_path / "fresh")
    capsys.readouterr()
    assert out.stat().st_size < long_size
    assert json.loads(out.read_text())["body"]["config"]["L"] == 8
    assert rewritten == fresh  # no stale tail in the report or the table
    assert len(rewritten[1].decode().splitlines()) == 9


def test_rewrite_keeps_the_inode_mode_and_links(tmp_path, capsys):
    out, outdir = tmp_path / "r.json", tmp_path / "tables"
    table = outdir / "example_banded_determinants.csv"
    _banded(300, out, outdir)
    for path in (out, table):
        path.chmod(0o600)
        os.link(path, tmp_path / f"link-{path.name}")
    before = [path.stat().st_ino for path in (out, table)]
    _banded(8, out, outdir)
    capsys.readouterr()
    for path, ino in zip((out, table), before):
        st = path.stat()
        assert st.st_ino == ino and st.st_mode & 0o777 == 0o600
        assert st.st_nlink == 2
        assert (tmp_path / f"link-{path.name}").read_bytes() == \
            path.read_bytes()


def test_short_writes_still_write_the_whole_document(tmp_path, capsys,
                                                    monkeypatch):
    want = _banded(300, tmp_path / "r.json", tmp_path / "t")
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    got = _banded(300, tmp_path / "short.json", tmp_path / "short")
    capsys.readouterr()
    assert got == want and len(want[0]) > 1000


def test_output_to_dev_null_exits_zero(tmp_path, capsys):
    # a character device is written, never truncated
    assert main(["example", "banded", "--L", "8", "--output",
                 os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_three(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
    code = main(["example", "banded", "--L", "8", "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "no").exists()


def test_report_and_tables_are_opened_without_truncation(tmp_path, capsys,
                                                         monkeypatch):
    opened = {}
    real_open = os.open

    def spy(path, flags, *rest, **kw):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    out, outdir = tmp_path / "r.json", tmp_path / "tables"
    _banded(8, out, outdir)
    capsys.readouterr()
    written = [str(out), str(outdir / "example_banded_determinants.csv")]
    assert all(path in opened for path in written)
    for path in written:
        assert opened[path] & (os.O_WRONLY | os.O_CREAT) == \
            os.O_WRONLY | os.O_CREAT
        assert not opened[path] & os.O_TRUNC


def _emitted(tmp_path, name, payload, rows):
    out = tmp_path / f"{name}.json"
    args = argparse.Namespace(output=str(out), outdir=None)
    report = CheckReport(name="r", verdict="pass", payload=payload)
    assert cli._emit(args, "t", {"x": rows[0][0]}, [report],
                     {"tab": (["a", "b", "c", "d", "e"], rows)}) == 0
    return re.sub(r'"timestamp": "[^"]*"', "", out.read_text())


def test_numpy_leaves_are_written_as_python_values(tmp_path):
    numpy_row = [np.float32(0.25), np.int64(7), np.bool_(True),
                 np.array([1.5, 2.0]), np.array([[1, 2], [3, 4]])]
    python_row = [0.25, 7, True, [1.5, 2.0], [[1, 2], [3, 4]]]
    numpy_payload = {"v": np.float64(0.1), "a": np.arange(3)}
    python_payload = {"v": 0.1, "a": [0, 1, 2]}
    assert _emitted(tmp_path, "np", numpy_payload, [numpy_row]) == \
        _emitted(tmp_path, "py", python_payload, [python_row])


def test_numpy_nan_in_a_table_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gaussmeas.RnDerivative, "__call__",
                        lambda d, x: np.array([1.0, np.nan]))
    out = tmp_path / "rn.json"
    code = main(["rn", "--builtin", "ex53", "--kappa", "1", "--point", "0",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert "NaN" not in err


@pytest.mark.parametrize("suite,name", [("thm51", "finiteness"),
                                        ("prop52", "box_norm_finite")])
def test_no_level_within_the_dim_cap_is_evidence(tmp_path, capsys, suite,
                                                 name):
    # s(1) = 3 exceeds the cap 1 and the box dims 2: nothing is computed,
    # which is not a pass
    part = tmp_path / "part.txt"
    part.write_text("3 6 9 12 15\n")
    code, doc = run_cli(capsys, "check", suite, "--builtin", "ex53", "--L",
                        "4", "--dim-cap", "1", "--partition-file", str(part))
    assert code == 2
    finite = [r for r in doc["body"]["reports"] if r["name"].startswith(name)]
    assert len(finite) == 2 and all(r["verdict"] == "evidence" for r in finite)
    assert all("dim_cap 1" in r["payload"]["detail"] for r in finite)
    assert not any("trajectory" in r["name"] for r in doc["body"]["reports"])


@pytest.mark.parametrize("cap", ["1", "none"])
@pytest.mark.parametrize("suite", ["thm51", "prop52"])
def test_dim_cap_is_in_the_config(capsys, suite, cap):
    # two runs with different caps write different configs
    code, doc = run_cli(capsys, "check", suite, "--builtin", "ex53", "--L",
                        "3", "--dim-cap", cap)
    assert doc["body"]["config"]["dim_cap"] == (None if cap == "none" else 1)


@pytest.mark.parametrize("suite", ["thm51", "prop52"])
def test_negative_dim_cap_is_bad_input(tmp_path, capsys, suite):
    # it acted as a cap of 0
    out = tmp_path / "report.json"
    code = main(["check", suite, "--builtin", "ex53", "--dim-cap", "-5",
                 "--output", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 3 and stdout == "" and not out.exists()
    assert re.search(r"--dim-cap\b", err) and "-5" in err


# -- only computed content ----------------------------------------------------

def test_thm51_reports_only_box_norms(capsys):
    # (vi)/(vii) hold for every banded symbol; no constant pass is reported
    code, doc = run_cli(capsys, "check", "thm51", "--builtin", "ex53",
                        "--L", "4", "--n", "2", "--r", "1")
    assert code == 2
    names = [r["name"] for r in doc["body"]["reports"]]
    assert names == [f"{kind}[i={i},box=0]" for i in (1, 2, 3)
                     for kind in ("finiteness", "norm_trajectory")]


def test_rn_with_a_finite_box_writes_no_report(capsys):
    code, doc = run_cli(capsys, "rn", "--builtin", "ex53", "--kappa", "2",
                        "--box", "1", "--point", "0.1,0.2")
    assert code == 0 and doc["body"]["reports"] == []
    assert len(doc["body"]["tables"]["box_norms"]["rows"]) == 1


@pytest.mark.parametrize("argv", [
    ("check", "thm51", "--builtin", "ex53", "--L", "4"),
    ("check", "prop52", "--builtin", "ex53", "--L", "4"),
    ("check", "prop56", "--builtin", "ex59", "--seed", "7"),
    ("rn", "--builtin", "ex59", "--kappa", "2", "--box", "1", "--box-dims",
     "0"),
    ("example", "diag", "--L", "4"),
    ("example", "banded", "--L", "8"),
    ("example", "singular", "--N", "100"),
], ids=["thm51", "prop52", "prop56", "rn", "diag", "banded", "singular"])
def test_reports_carry_no_seed_and_no_copy_of_the_config(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    reports = doc["body"]["reports"]
    assert reports and all("seed" not in r for r in reports)
    if argv[0] == "example":
        assert all(r["params"] == {} for r in reports)


# -- each table encoded once --------------------------------------------------

def _reference(written, command, config, reports, tables):
    """The document and CSVs that json.dumps and csv.writer write alone, at
    the timestamp of the `written` document."""
    doc = {"header": json.loads(written)["header"],
           "body": {"command": command, "config": config,
                    "reports": [r.to_dict() for r in reports],
                    "tables": {name: {"columns": cols, "rows": rows}
                               for name, (cols, rows) in tables.items()}}}
    csvs = {}
    for name, (cols, rows) in tables.items():
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\n").writerows([cols, *rows])
        csvs[f"{command}_{name}.csv"] = buf.getvalue().encode()
    return (json.dumps(doc, sort_keys=True, allow_nan=False,
                       default=cli._leaf) + os.linesep).encode(), csvs


def _assert_written_alone(out, outdir, call):
    written = out.read_bytes()
    document, csvs = _reference(written, *call)
    assert written == document
    assert sorted(os.listdir(outdir)) == sorted(csvs)
    for name, text in csvs.items():
        assert (outdir / name).read_bytes() == text


@pytest.mark.parametrize("argv", [
    ("example", "diag", "--L", "9"),
    ("example", "banded", "--q", "0.45", "--L", "300"),
    ("example", "singular", "--N", "100000"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--point=0.1,0.2", "--box",
     "1"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--point=\u0661,\u0662"),
    ("rn", "--builtin", "ex59", "--kappa", "3", "--box", "1", "--box", "2"),
], ids=["diag", "banded", "singular", "rn-comma", "rn-arabic-indic",
        "rn-no-point"])
def test_outdir_writes_the_bytes_of_json_and_csv_alone(tmp_path, capsys,
                                                       monkeypatch, argv):
    calls, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda *a: calls.append(a[1:]) or emit(*a))
    out, outdir = tmp_path / "r.json", tmp_path / "tables"
    code = main([*argv, "--output", str(out), "--outdir", str(outdir)])
    capsys.readouterr()
    assert code in (0, 2) and len(calls) == 1
    if argv[0] == "rn" and "--point" not in " ".join(argv):
        assert calls[0][3]["values"][1] == []
    _assert_written_alone(out, outdir, calls[0])


_NUMBERS = st.one_of(st.integers(), st.integers(-10**300, 10**300),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, 1e16, 1e-5]))
_CELLS = st.one_of(_NUMBERS, st.booleans(), st.text(max_size=4),
                   st.just("\0rows"))
_TABLES = st.dictionaries(
    st.sampled_from(["a", "b", "values"]),
    st.tuples(st.just(["x", "y"]), st.one_of(*(
        st.lists(st.lists(c, max_size=4) | st.tuples(c, c), max_size=5)
        for c in (_NUMBERS, _CELLS)))),
    min_size=1, max_size=3)


@seed(40)
@settings(max_examples=300, deadline=None)
@given(_TABLES, st.text(max_size=6) | st.just("\0rows"))
def test_emit_writes_the_bytes_of_json_and_csv_alone(tables, text):
    # ints, bools, strings and floats at the edges of repr; a config string
    # that is the rows' placeholder
    report = CheckReport(name=text, verdict="pass", payload={"s": text})
    call = ("t", {"s": text, "rows": [[text, 1.5]]}, [report], tables)
    with tempfile.TemporaryDirectory() as tmp:
        out, outdir = pathlib.Path(tmp, "r.json"), pathlib.Path(tmp, "d")
        args = argparse.Namespace(output=str(out), outdir=str(outdir))
        assert cli._emit(args, *call) == 0
        _assert_written_alone(out, outdir, call)


@pytest.mark.parametrize("argv", [
    ("example", "banded", "--L", "8"),
    ("rn", "--builtin", "ex53", "--kappa", "2", "--point", "0.1,0.2"),
    ("check", "prop56", "--builtin", "ex59", "--L", "8"),
], ids=["banded", "rn", "prop56"])
def test_without_outdir_the_document_is_one_dumps(capsys, monkeypatch, argv):
    calls, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or
                        dumps(*a, **k))
    code = main(list(argv))
    capsys.readouterr()
    assert code == 0 and len(calls) == 1
