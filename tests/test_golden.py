"""The golden corpus: one report body per command in `tests/golden/`.

Each file holds the argv, the exit code and the body (the document without
its `header`).  The test reruns the command and compares: strings,
integers, booleans, None, keys and list lengths exactly, floats to a
relative 1e-12 with an absolute floor of 1e-14, so that another BLAS build
still passes.  A change that moves a body on purpose rewrites the files
with

    GAUSSCOMP_REGOLD=1 PYTHONPATH=src python -m pytest -q tests/test_golden.py

and the diff of `tests/golden/` shows what moved.
"""

import json
import math
import os
import pathlib

import pytest

from gausscomp.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
REL, ABS = 1e-12, 1e-14

COMMANDS = {
    "check_thm51_ex53": ["check", "thm51", "--builtin", "ex53", "--L", "8"],
    "check_prop52_ex53": ["check", "prop52", "--builtin", "ex53", "--L", "8"],
    "check_thm51_ex59": ["check", "thm51", "--builtin", "ex59", "--q", "0.5",
                         "--L", "6"],
    "check_prop52_ex59": ["check", "prop52", "--builtin", "ex59", "--q",
                          "0.5", "--L", "6"],
    "check_prop52_ex53_underflow": ["check", "prop52", "--builtin", "ex53",
                                    "--boxes", "1e-300", "--L", "4"],
    "check_prop56_ex59_q0.5": ["check", "prop56", "--builtin", "ex59", "--q",
                               "0.5"],
    "check_prop56_ex59_q0.8": ["check", "prop56", "--builtin", "ex59", "--q",
                               "0.8"],
    "check_thm51_ex59_q0.69_L24": ["check", "thm51", "--builtin", "ex59",
                                   "--q", "0.69", "--L", "24"],
    "check_thm51_ex59_q0.5_L40": ["check", "thm51", "--builtin", "ex59",
                                  "--q", "0.5", "--L", "40"],
    "rn_ex53": ["rn", "--builtin", "ex53", "--kappa", "3", "--power", "2",
                "--box", "1", "--box-dims", "2", "--point", "0.1,0.2,0.3"],
    "rn_ex59": ["rn", "--builtin", "ex59", "--q", "0.5", "--kappa", "2",
                "--box", "1", "--box-dims", "0"],
    "example_diag": ["example", "diag", "--L", "12"],
    "example_banded": ["example", "banded", "--L", "64"],
    "example_singular": ["example", "singular", "--N", "10000"],
}


def mismatches(want, got, path="body"):
    """The paths at which `got` differs from `want` beyond the tolerances."""
    if type(want) is not type(got):
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in mismatches(want[k], got[k],
                                                     f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = math.isclose(want, got, rel_tol=REL, abs_tol=ABS)
    else:
        ok = want == got
    return [] if ok else [f"{path}: {want!r} != {got!r}"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_body_matches_the_golden_file(capsys, name):
    argv = COMMANDS[name]
    code = main(argv)
    got = {"argv": argv, "exit_code": code,
           "body": json.loads(capsys.readouterr().out)["body"]}
    path = GOLDEN / f"{name}.json"
    if os.environ.get("GAUSSCOMP_REGOLD") == "1":
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    want = json.loads(path.read_text())
    assert want["argv"] == argv
    assert want["exit_code"] == code
    bad = mismatches(want["body"], got["body"])
    assert not bad, "\n".join(bad[:10])


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("want,got,ok", [
    (1.0, 1.0 + 1e-13, True),
    (1.0, 1.0 + 1e-11, False),
    (0.0, 1e-15, True),
    (0.0, 1e-13, False),
    (1, 1.0, False),
    (True, 1, False),
    (None, 0.0, False),
    ("a", "b", False),
    ([1.0], [1.0, 2.0], False),
    ({"a": 1}, {"b": 1}, False),
    ({"a": [0.5, {"b": "x"}]}, {"a": [0.5, {"b": "x"}]}, True),
])
def test_comparison_rules(want, got, ok):
    assert (not mismatches(want, got)) is ok
