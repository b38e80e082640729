import csv
import json
import math
import re

import numpy as np
import pytest

from gausscomp.cli import CliError, _alpha_expr, load_partition, load_symbol, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- exit codes and determinism ---------------------------------------------

def test_prop56_admissible_exits_zero(capsys):
    code, doc = run_cli(capsys, "check", "prop56", "--builtin", "ex59",
                        "--q", "0.5")
    assert code == 0
    names = [r["name"] for r in doc["body"]["reports"]]
    assert "determinant_floor" in names


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
    assert rep["params"] == {"window": 24} and rep["seed"] is None
    assert doc["body"]["config"]["seed"] == 5


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


def test_bad_input_exits_three(capsys):
    code = main(["check", "prop56", "--builtin", "ex53"])
    capsys.readouterr()
    assert code == 3  # prop56 needs a perturbed-identity symbol
    code = main(["rn", "--builtin", "diag"])  # missing --alphas
    capsys.readouterr()
    assert code == 3


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


@pytest.mark.parametrize("expr", ["().__class__", "j.real", "abs(j)",
                                  "sqrt(x=j)", "__import__('os')", "j//2"])
def test_alpha_expr_rejects_outside_grammar(capsys, expr):
    with pytest.raises(CliError):
        _alpha_expr(expr)
    code = main(["rn", "--builtin", "diag", "--alphas", expr, "--kappa", "1"])
    capsys.readouterr()
    assert code == 3


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
    ("example", "diag", "--k", "0"),
    ("example", "diag", "--k", "-1"),
    ("example", "diag", "--k", "nan"),
    ("example", "diag", "--k", "inf"),
], ids=["prop52-L0", "thm51-L0", "thm51-n0-r0", "prop52-n0-r0",
        "thm51-n-1", "prop52-n-1", "diag-L2", "banded-L1", "singular-N0",
        "singular-N1", "rn-kappa0", "rn-kappa-1", "diag-k0", "diag-k-1",
        "diag-k-nan", "diag-k-inf"])
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


def test_example_banded_envelope(capsys):
    code, doc = run_cli(capsys, "example", "banded", "--q", "0.5", "--L", "32")
    assert code == 0
    rows = doc["body"]["tables"]["determinants"]["rows"]
    assert rows[0][1] == pytest.approx(1.0)
    assert rows[2][1] == pytest.approx(0.6875)
    floor = 1.0 - 0.25 / 0.75
    assert all(r[1] > floor for r in rows[1:])


def test_example_singular_trajectories(capsys):
    code, doc = run_cli(capsys, "example", "singular", "--alpha", "0.5",
                        "--N", "2000")
    assert code == 0
    rep = doc["body"]["reports"][0]
    assert rep["payload"]["p_limit_lower"] > 0
    assert rep["payload"]["final_log_q"] < -5


def test_example_csv_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["example", "banded", "--q", "0.5", "--L", "8",
                 "--output", str(out), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert out.exists()
    text = (tmp_path / "example_banded_determinants.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "l,det,lower,upper"
    assert len(lines) == 9


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


def test_partition_file(tmp_path):
    p = tmp_path / "part.txt"
    p.write_text("2 4 8 16\n")
    s = load_partition(str(p))
    assert s.cut(3) == 8


@pytest.mark.parametrize("suite", ["thm51", "prop52"])
def test_short_partition_file_is_bad_input(tmp_path, capsys, suite):
    p = tmp_path / "part.txt"
    p.write_text("1 2 3\n")
    code = main(["check", suite, "--builtin", "ex53", "--L", "6",
                 "--partition-file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "--partition-file" in err and "--L 6" in err


@pytest.mark.parametrize("suite,text,message", [
    pytest.param(suite, "\n", "empty partition file", id=suite)
    for suite in ("thm51", "prop52", "prop56")] + [
    pytest.param("thm51", "1 2 x\n", "'x'", id="non-integer-token"),
])
def test_empty_partition_file_is_bad_input(tmp_path, capsys, suite, text,
                                           message):
    # an empty file is rejected, not replaced by the unit partition, and a
    # bad token is quoted
    p = tmp_path / "part.txt"
    p.write_text(text)
    code = main(["check", suite, "--builtin", "ex59",
                 "--partition-file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert str(p) in err and message in err


@pytest.mark.parametrize("text,line", [
    pytest.param(f"banded 1\n{rule}\n", rule, id=rule)
    for rule in ("rule", "rule geometric_tridiagonal")] + [
    pytest.param("banded 1\n1 1\n", "1 1", id="entry-two-fields"),
    pytest.param("banded 1\n1 1 x\n", "1 1 x", id="entry-non-numeric"),
    pytest.param("banded x\n1 1 1.0\n", "banded x", id="header-eta"),
])
def test_symbol_file_incomplete_rule_is_bad_input(tmp_path, capsys, text,
                                                  line):
    # a malformed rule, entry or header line: the error names the file and
    # quotes the line
    p = tmp_path / "sym.txt"
    p.write_text(text)
    with pytest.raises(CliError, match=str(p)):
        load_symbol(str(p))
    code = main(["check", "prop52", "--file", str(p)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert str(p) in err and repr(line) in err


def test_check_with_symbol_file(tmp_path, capsys):
    p = tmp_path / "sym.txt"
    p.write_text("diagonal 0\nrule diag 1-2^-j\n")
    code, doc = run_cli(capsys, "check", "prop52", "--file", str(p))
    assert code == 0


def test_missing_file_exits_three(capsys):
    code = main(["check", "prop52", "--file", "/nonexistent/sym.txt"])
    capsys.readouterr()
    assert code == 3
