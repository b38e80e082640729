"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from gausscomp.banded import (
    BandedSymbol,
    BlockPartition,
    PerturbedIdentity,
    det_sequence,
    power_entry_bound,
)
from gausscomp.checker import (
    CoefficientTensor,
    form_positivity_evidence,
    gram_construct,
    hyponormality_consequence,
    snr_form_value,
)
from gausscomp.gaussmeas import (
    Box,
    chi_norm_sq,
    diag_closed_form,
    gaussian_box_mass,
    h_normalization,
    perturbation_bound_check,
    poisson_bounds,
    rn_power_factorization_check,
    singular_scaling_demo,
)
from gausscomp.hermite import HermiteModel


def _line(num, name, ok):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _well_conditioned(kappa, rng, lo=0.5, hi=2.0):
    u, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    v, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    return u @ np.diag(rng.uniform(lo, hi, kappa)) @ v.T


def test_criterion_01_determinant_recursion_and_bounds():
    t0 = time.perf_counter()
    ok = True
    for q in (0.3, 0.5, 0.7):
        dets = det_sequence(BandedSymbol.geometric_tridiagonal(q),
                            BlockPartition.unit(64), 64)
        # three-term recursion residual, relative
        for l in range(3, 65):
            pred = dets[l - 2] - q ** (2 * l - 2) * dets[l - 3]
            ok &= abs(dets[l - 1] - pred) <= 1e-12 * abs(dets[l - 1])
        floor = 1.0 - q * q / (1.0 - q * q)
        ok &= bool(np.all(dets[1:] > floor) and np.all(dets[1:] < 1.0))
    ok &= (time.perf_counter() - t0) < 1.0
    _line(1, "determinant recursion and bounds", ok)


def test_criterion_02_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    alpha = lambda j: 1.0 - 2.0 ** (-j)
    worst = 0.0
    for i in (1, 2):
        for k in (1.0, 2.0):
            for l in range(3, 7):
                closed = diag_closed_form(alpha, i, 2, k, l)
                A = np.diag([alpha(j) for j in range(1, l + 1)])
                quad = chi_norm_sq(A, i, Box(2, k))
                worst = max(worst, abs(closed - quad) / closed)
    ok = worst < 1e-8 and (time.perf_counter() - t0) < 30.0
    _line(2, "closed form vs quadrature", ok)


def test_criterion_03_rn_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        kappa = int(rng.integers(1, 4))
        A = _well_conditioned(kappa, rng)
        n = int(rng.integers(1, 5))
        pts = rng.standard_normal((20, kappa))
        worst = max(worst, rn_power_factorization_check(A, n, pts))
    ok = worst < 1e-8 and (time.perf_counter() - t0) < 10.0
    _line(3, "density power factorization", ok)


def test_criterion_04_measure_transport_normalization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        kappa = int(rng.integers(1, 4))
        A = _well_conditioned(kappa, rng, lo=0.4, hi=2.5)
        worst = max(worst, abs(h_normalization(A) - 1.0))
    _line(4, "measure transport normalization", worst < 1e-8)


def test_criterion_05_poisson_bounds():
    ok = True
    for a in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0):
        lo, hi = poisson_bounds(a)
        m2 = gaussian_box_mass(a) ** 2
        ok &= lo < m2 < hi
    _line(5, "two-sided box mass bounds", ok)


def test_criterion_06_singular_scaling_dichotomy():
    rep = singular_scaling_demo(0.5, N=10_000)
    ok = (rep.p_trajectory[-1] >= 0.9 * rep.p_limit_lower
          and rep.p_limit_lower > 0
          and rep.log_q_trajectory[-1] <= -5.0
          and rep.log_q_trajectory[-1] < rep.log_q_trajectory[-2]
          and bool(np.all(np.diff(rep.p_trajectory) <= 0))
          and bool(np.all(np.diff(rep.log_q_trajectory) < 0)))
    _line(6, "singular scaling dichotomy", ok)


def test_criterion_07_form_nonnegativity_shadow():
    t0 = time.perf_counter()
    A = np.diag([0.5, 1.0 / 3.0])
    model = HermiteModel.get(2, 6)
    rng = np.random.default_rng(7)
    retained = 0
    worst = math.inf
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(0, 3))
        r = int(rng.integers(0, 3))
        m = int(rng.integers(1, 3))
        c = rng.standard_normal((n + 1, m, 3)) \
            + 1j * rng.standard_normal((n + 1, m, 3))
        tensor = gram_construct(c)
        fs = []
        for i in range(m):
            row = []
            for k in range(r + 1):
                v = rng.standard_normal(model.dim)
                v /= np.linalg.norm(v)
                row.append(model.function(v))
            fs.append(row)
        res = snr_form_value(A, tensor, r, fs, model, defect_tol=1e-6)
        if not res.valid:
            continue
        retained += 1
        worst = min(worst, res.value)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-7 and retained >= 0.95 * trials and elapsed < 300.0
    _line(7, "weak-class form nonnegativity shadow", ok)


def test_criterion_08_hyponormality_consequence():
    rep = hyponormality_consequence(np.array([[0.5]]), trials=200, seed=8,
                                    tol=1e-7)
    ok = (rep.verdict == "pass"
          and rep.payload["worst_form_value"] >= -1e-7
          and rep.payload["worst_adjoint_norm_excess"] <= 1e-7)
    _line(8, "hyponormality consequence", ok)


def test_criterion_09_disproof_soundness():
    a = np.zeros((2, 2, 1, 1), dtype=complex)
    a[0, 0, 0, 0] = 1.0
    a[1, 1, 0, 0] = -1.0
    rep = form_positivity_evidence(CoefficientTensor(a))
    ok = rep.verdict == "fail"
    if ok:
        lam = complex(*rep.payload["witness_lambda"])
        ok = abs(lam) > 1.0
    _line(9, "disproof soundness of the positivity form", ok)


def test_criterion_10_cli_end_to_end():
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "gausscomp", *argv],
                              capture_output=True, text=True)
        body = None
        if proc.stdout.strip():
            body = json.loads(proc.stdout)["body"]
        return proc.returncode, body

    ok = True
    code, body = run("check", "prop56", "--builtin", "ex59", "--q", "0.5")
    ok &= code == 0
    code2, body2 = run("check", "prop56", "--builtin", "ex59", "--q", "0.8")
    ok &= code2 == 1
    ok &= any(r["name"] == "precondition: q ∈ (0, √2/2)"
              and r["verdict"] == "fail" for r in body2["reports"])
    code3, _ = run("check", "prop52", "--builtin", "ex53")
    ok &= code3 == 0
    # determinism: byte-identical body across two runs with the same seed
    _, body_b = run("check", "prop56", "--builtin", "ex59", "--q", "0.5")
    ok &= json.dumps(body, sort_keys=True) == json.dumps(body_b,
                                                         sort_keys=True)
    _line(10, "hypothesis-suite end to end", ok)


def test_criterion_11_trace_class_entry_bound():
    b = PerturbedIdentity.geometric(0.5)
    ok = True
    for k in (1, 2, 3, 4):
        passed, worst = power_entry_bound(b, k, 12)
        ok &= passed and worst <= 1.0 + 1e-12
    _line(11, "trace-class entry bound", ok)


def test_criterion_12_perturbation_bound():
    b = PerturbedIdentity.geometric(0.5)
    ok = True
    for k in (1, 2, 3):
        chk = perturbation_bound_check(b, k, 24)
        ok &= chk.all_pass and chk.worst_ratio <= 1.0
    _line(12, "perturbation inequality with the proof constant", ok)
