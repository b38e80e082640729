import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy.special import erf

from gausscomp import gaussmeas
from gausscomp.banded import BandedSymbol, BlockPartition, PerturbedIdentity
from gausscomp.checker import prop52_suite, thm51_suite
from gausscomp.gaussmeas import (
    Box,
    DivergenceError,
    RnDerivative,
    chi_norm_sq,
    diag_closed_form,
    gaussian_box_mass,
    h_normalization,
    perturbation_bound_check,
    poisson_bounds,
    proof_constant,
    rn_power_factorization_check,
    singular_scaling_demo,
)

RNG = np.random.default_rng(42)


def random_well_conditioned(kappa, rng):
    """Singular values in [0.5, 2]: invertible with mild condition number."""
    u, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    v, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    sv = rng.uniform(0.5, 2.0, kappa)
    return u @ np.diag(sv) @ v.T


# -- density ----------------------------------------------------------------

def test_rn_identity_is_one():
    d = RnDerivative(np.eye(3))
    pts = RNG.standard_normal((10_000, 3))
    vals = np.array([d(x) for x in pts])
    np.testing.assert_allclose(vals, 1.0, rtol=1e-14)


def test_rn_scalar_values():
    d = RnDerivative(np.array([[2.0]]))
    assert d([0.0]) == pytest.approx(0.5)
    d = RnDerivative(np.array([[0.5]]))
    assert d([1.0]) == pytest.approx(2.0 * math.exp(-1.5))


def test_rn_rejects_singular():
    with pytest.raises(ValueError):
        RnDerivative(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_rn_identity_log_density_at_large_point():
    # x @ x overflows at 1e200, but (x - y) @ (x + y) is exactly 0
    for kappa in (1, 3):
        assert RnDerivative(np.eye(kappa)).log_eval(np.full(kappa, 1e200)) \
            == 0.0


def test_factorization_trivial_n1():
    A = random_well_conditioned(3, RNG)
    pts = RNG.standard_normal((20, 3))
    assert rn_power_factorization_check(A, 1, pts) == 0.0


def test_factorization_diag():
    A = np.diag([0.5, 1.0 / 3.0])
    pts = RNG.standard_normal((100, 2))
    assert rn_power_factorization_check(A, 2, pts) < 1e-10


def test_factorization_random_family():
    worst = 0.0
    for _ in range(10):
        kappa = int(RNG.integers(1, 4))
        A = random_well_conditioned(kappa, RNG)
        pts = RNG.standard_normal((20, kappa))
        n = int(RNG.integers(1, 5))
        worst = max(worst, rn_power_factorization_check(A, n, pts))
    assert worst < 1e-8


# -- quadrature norms -------------------------------------------------------

def test_gaussian_space_normalization():
    for kappa in (1, 2, 3):
        val = h_normalization(np.eye(kappa))
        assert val == pytest.approx(1.0, abs=1e-10)


def test_h_normalization_random():
    for _ in range(10):
        kappa = int(RNG.integers(1, 6))
        A = random_well_conditioned(kappa, RNG)
        assert h_normalization(A) == pytest.approx(1.0, abs=1e-12)


def test_chi_norm_identity_box_mass():
    val = chi_norm_sq(np.eye(1), 1, Box(1, 1.0))
    assert val == pytest.approx(erf(1.0 / math.sqrt(2.0)), abs=1e-10)


def test_chi_norm_free_closed_form():
    # no box restriction: the norm is the product of tail factors
    alpha = 0.5
    val = chi_norm_sq(np.array([[alpha]]), 1, None)
    assert val == pytest.approx(1.0 / (alpha * math.sqrt(2.0 - alpha**2)),
                                rel=1e-9)


def test_chi_norm_divergence_flag():
    with pytest.raises(DivergenceError):
        chi_norm_sq(np.array([[2.0]]), 1, None)


def test_chi_norm_monotone_in_box():
    A = np.diag([0.5, 0.75])
    vals = [chi_norm_sq(A, 1, Box(2, k)) for k in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_diag_closed_form_vs_quadrature():
    alpha = lambda j: 1.0 - 2.0 ** (-j)
    for i in (1, 2):
        for l in (4, 6):
            closed = diag_closed_form(alpha, i, 2, 1.0, l)
            A = np.diag([alpha(j) for j in range(1, l + 1)])
            quad = chi_norm_sq(A, i, Box(2, 1.0))
            assert quad == pytest.approx(closed, rel=1e-8)


def test_diag_closed_form_all_ones_reduces_to_box():
    # alpha close to 1 everywhere: tail factors collapse to 1 and the value
    # reduces to the squared box mass
    a = 1.0 - 1e-9
    val = diag_closed_form([a, a, a], 1, 2, 1.0, 3)
    assert val == pytest.approx(erf(1.0 / math.sqrt(2.0)) ** 2, rel=1e-6)
    # alpha = 1 in the tail, as 1 - 2^-j is in floats past j = 53: factor 1
    assert diag_closed_form([1.0, 1.0, 1.0], 1, 2, 1.0, 3) == pytest.approx(
        erf(1.0 / math.sqrt(2.0)) ** 2, rel=1e-15)


def test_diag_closed_form_tail_undefined():
    with pytest.raises(ValueError):
        diag_closed_form([0.5, 0.5, 1.5], 2, 2, 1.0, 3)


def test_diag_closed_form_short_sequence_is_an_index_error():
    # the entries come from the diagonal symbol's band
    with pytest.raises(IndexError, match="materialized to 2, index 3"):
        diag_closed_form([0.5, 0.5], 1, 1, 1.0, 3)


def test_diag_closed_form_zero_box_entry_names_alpha():
    # no erf factor at alpha_j = 0: a ValueError, not a ZeroDivisionError
    with pytest.raises(ValueError, match=r"^alpha_2\^\(2i\) = 0; box factor"):
        diag_closed_form([0.5, 0.0, 0.5], 1, 2, 1.0, 3)


def test_diag_closed_form_with_a_subnormal_box_power():
    # alpha_1^2 = 1e-310 is subnormal, so 2 / alpha_1^2 overflows; the box
    # factor taken in y = x / alpha_1 never forms it.  Reference: (2 / pi)
    # k^2 / alpha_1^2 from mpmath at 40 digits
    run = list(gaussmeas._diag_closed_forms([1e-155, 1.0, 1.0, 1.0], 1, 2,
                                            1e-300, 4))
    assert run[-1] == pytest.approx(6.3661977236758134e-291, rel=1e-12)


@pytest.mark.parametrize("alpha", [lambda j: 1.0 - 2.0 ** (-j),
                                   lambda j: 1.0 - (j + 1) ** -0.75,
                                   lambda j: 0.9 ** (j % 7) / (1 + j % 3)])
def test_running_closed_forms_have_each_levels_bits(alpha):
    # one running log-sum per power gives every level's own call, bit for bit
    seq = [alpha(j) for j in range(1, 121)]
    for i, k in ((1, 1.0), (2, 0.7)):
        run = list(gaussmeas._diag_closed_forms(seq, i, 2, k, 120))
        assert run == [diag_closed_form(seq, i, 2, k, l)
                       for l in range(3, 121)]


def test_running_closed_forms_stop_where_each_level_does():
    seq = [0.01] * 200
    run = gaussmeas._diag_closed_forms(seq, 1, 2, 1.0, 200)
    for l in range(3, 167):
        assert next(run) == diag_closed_form(seq, 1, 2, 1.0, l)
    with pytest.raises(ValueError, match="l = 167 is outside the float"):
        next(run)
    with pytest.raises(ValueError, match="l = 167 is outside the float"):
        diag_closed_form(seq, 1, 2, 1.0, 167)


def test_diag_closed_form_converges_in_l():
    alpha = lambda j: 1.0 - 2.0 ** (-j)
    vals = [diag_closed_form(alpha, 1, 2, 1.0, l) for l in range(3, 30)]
    incs = np.abs(np.diff(vals))
    assert incs[-1] < 1e-7
    assert incs[-1] < incs[0]


# -- closed forms pinning the box integrals --------------------------------

def _log_gauss_free(A, i):
    """log of |det B|^2 det(2 B^T B - I)^{-1/2}, B = A^{-i}; None when the
    exponent matrix is not positive definite."""
    B = np.linalg.matrix_power(np.linalg.inv(A), i)
    E = 2.0 * B.T @ B - np.eye(A.shape[0])
    if np.linalg.eigvalsh(E)[0] <= 1e-12:
        return None
    return 2.0 * np.linalg.slogdet(B)[1] - 0.5 * np.linalg.slogdet(E)[1]


@seed(11)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_chi_norm_unrestricted_matches_determinant_formula(kappa, i, s):
    rng = np.random.default_rng(s)
    u, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    v, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    A = u @ np.diag(rng.uniform(0.6, 1.3, kappa)) @ v.T
    ref = _log_gauss_free(A, i)
    if ref is None:
        with pytest.raises(DivergenceError):
            chi_norm_sq(A, i, None)
    else:
        assert chi_norm_sq(A, i, None) == pytest.approx(math.exp(ref),
                                                        rel=1e-10)


@seed(12)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.3, 1.15), min_size=2, max_size=2),
       st.lists(st.floats(0.3, 0.99), min_size=1, max_size=4),
       st.integers(1, 2), st.floats(0.2, 3.0))
def test_chi_norm_diagonal_matches_closed_form(box_alphas, tail, i, k):
    alphas = box_alphas + tail
    val = chi_norm_sq(np.diag(alphas), i, Box(2, k))
    closed = diag_closed_form(alphas, i, 2, k, len(alphas))
    assert val == pytest.approx(closed, rel=1e-10)


def _box_form(A, i, d):
    """Schur complement S on the first d coordinates and the log scale of
    the box integral behind chi_norm_sq(A, i, Box(d, k))."""
    kappa = A.shape[0]
    B = np.linalg.matrix_power(np.linalg.inv(A), i)
    E = 2.0 * B.T @ B - np.eye(kappa)
    log_scale = 2.0 * np.linalg.slogdet(B)[1]
    S = E[:d, :d]
    if kappa > d:
        free = E[d:, d:]
        log_scale -= 0.5 * np.linalg.slogdet(free)[1]
        S = S - E[:d, d:] @ np.linalg.solve(free, E[d:, :d])
    return S, log_scale


def _scaled_integral(S, box, log_scale):
    """exp(log_scale) times the box integral of the form S."""
    g, v = gaussmeas._gauss_box_integral(S, box)
    return math.exp(log_scale + g) * v


@pytest.mark.parametrize("kappa,i,k", [(2, 1, 1.0), (4, 1, 0.7), (4, 2, 1.3),
                                       (6, 1, 2.0), (8, 1, 1.0), (8, 2, 0.5),
                                       (3, 1, 3.0), (3, 2, 1.0),
                                       (10, 2, 2.5)])
def test_chi_norm_coupled_ex59_matches_erf_reference(kappa, i, k):
    from scipy import integrate

    A = PerturbedIdentity.geometric(0.5).symbol.window(kappa)
    S, log_scale = _box_form(A, i, 2)
    a, b, c = S[0, 0], S[0, 1], S[1, 1]
    assert abs(b) > 1e-3  # the box coordinates are coupled

    def outer(x):  # the inner coordinate integrated in erf form
        shift = b * x / c
        inner = 0.5 * (erf((k + shift) * math.sqrt(c / 2.0))
                       + erf((k - shift) * math.sqrt(c / 2.0)))
        return math.exp(-0.5 * (a - b * b / c) * x * x) * inner

    box, _ = integrate.quad(outer, -k, k, epsabs=0.0, epsrel=1e-12)
    ref = math.exp(log_scale) * box / math.sqrt(2.0 * math.pi * c)
    assert chi_norm_sq(A, i, Box(2, k)) == pytest.approx(ref, rel=1e-9)


def _symbol_with_box_form(S):
    """A whose E = 2 A^-T A^-1 - I is S (S + I must be positive definite)."""
    chol = np.linalg.cholesky((np.asarray(S) + np.eye(len(S))) / 2.0)
    return np.linalg.inv(chol.T)


@pytest.mark.parametrize("A,i,d,k", [
    # no positive diagonal entry: the rule covers every box coordinate
    (_symbol_with_box_form([[-0.3, 0.1], [0.1, -0.2]]), 1, 2, 1.0),
    (PerturbedIdentity.geometric(0.5).symbol.window(12), 3, 2, 0.5),
    # mixed signs: the closed-form coordinate is the one of curvature 1.5
    (_symbol_with_box_form([[0.8, 0.3, -0.2], [0.3, -0.4, 0.1],
                            [-0.2, 0.1, 1.5]]), 1, 3, 1.2),
], ids=["negative-2x2", "ex59-l12-i3", "mixed-3x3"])
def test_chi_norm_coupled_box_matches_scipy_reference(A, i, d, k):
    from scipy import integrate

    S, log_scale = _box_form(A, i, d)
    assert abs(S[0, 1]) > 1e-3  # the box coordinates are coupled
    s = S.tolist()

    def integrand(*x):
        return math.exp(-0.5 * sum(s[p][q] * x[p] * x[q]
                                   for p in range(d) for q in range(d)))

    box, _ = integrate.nquad(integrand, [[-k, k]] * d,
                             opts={"epsabs": 0.0, "epsrel": 1e-11})
    ref = math.exp(log_scale) * box / (2.0 * math.pi) ** (d / 2.0)
    assert chi_norm_sq(A, i, Box(d, k)) == pytest.approx(ref, rel=1e-9)


def test_chi_norm_coupled_three_dims_matches_mpmath():
    """ex59 q = 0.5, level 8, i = 1, box [-1, 1]^3: the Schur complement is
    indefinite (eigenvalues about -0.18, 0.88, 9.05).  The reference takes
    minutes, so it is hard-coded; it was computed (to 20 digits from the
    double-precision S) with

        import mpmath as mp
        import numpy as np
        from gausscomp.banded import PerturbedIdentity

        mp.mp.dps = 20
        A = PerturbedIdentity.geometric(0.5).symbol.window(8)
        B = np.linalg.inv(A)
        E = 2.0 * B.T @ B - np.eye(8)
        free = E[3:, 3:]
        S = E[:3, :3] - E[:3, 3:] @ np.linalg.solve(free, E[3:, :3])
        log_scale = (2.0 * np.linalg.slogdet(B)[1]
                     - 0.5 * np.linalg.slogdet(free)[1])
        S = mp.matrix(S.tolist())
        box = mp.quad(
            lambda *x: mp.exp(-(mp.matrix(x).T * S * mp.matrix(x))[0] / 2),
            [-1, 1], [-1, 1], [-1, 1])
        print(mp.exp(log_scale) * box / (2 * mp.pi) ** 1.5)
    """
    A = PerturbedIdentity.geometric(0.5).symbol.window(8)
    assert chi_norm_sq(A, 1, Box(3, 1.0)) == pytest.approx(
        0.46627659431759879577, rel=1e-12)


@pytest.mark.parametrize("l,d", [(12, 4), (14, 5)])
def test_chi_norm_coupled_high_dims_within_default_budget(monkeypatch, l, d):
    # the fixed budget converges, and a 1000x tighter target moves the
    # value by less than the fixed target
    A = PerturbedIdentity.geometric(0.5).symbol.window(l)
    val = chi_norm_sq(A, 2, Box(d, 1.0))
    monkeypatch.setattr(gaussmeas, "_TARGET", 1e-12)
    tight = chi_norm_sq(A, 2, Box(d, 1.0))
    assert math.isfinite(val) and val == pytest.approx(tight, rel=1e-9)


@seed(13)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_banded_kernel_matches_dense_schur_complement(eta, i, d, extra, s):
    # diagonal entries above 1 in modulus: K = 2I - P^T P is mostly
    # indefinite, so the inertia count decides divergence
    n = max(1, d + extra)
    rng = np.random.default_rng(s)
    A = np.diag(rng.uniform(1.0, 1.6, n) * rng.choice([-1.0, 1.0], n))
    for u in range(1, min(eta, n - 1) + 1):
        A += np.diag(rng.uniform(-0.4, 0.4, n - u), u)
        A += np.diag(rng.uniform(-0.4, 0.4, n - u), -u)
    k = float(rng.uniform(0.5, 2.0))
    B = np.linalg.matrix_power(np.linalg.inv(A), i)
    E = 2.0 * B.T @ B - np.eye(n)
    lo = np.linalg.eigvalsh(E[d:, d:])[0] if d < n else math.inf
    assume(abs(lo) > 1e-9)  # the dense path's floor decides inside it
    if lo < 0:
        with pytest.raises(DivergenceError):
            chi_norm_sq(A, i, Box(d, k))
        return
    S, log_scale = _box_form(A, i, d)
    ref = _scaled_integral(S, Box(d, k), log_scale)
    assert chi_norm_sq(A, i, Box(d, k)) == pytest.approx(ref, rel=1e-10)


@seed(21)
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 3),
       st.lists(st.integers(1, 3), min_size=1, max_size=12), st.booleans(),
       st.sampled_from(["none", "zero row", "zero pivot"]),
       st.integers(0, 2**32 - 1))
def test_box_form_sweep_matches_dense_schur_complement_at_every_level(
        eta, i, d, widths, unit, defect, s):
    # one sweep over unit or wider cuts against the dense Schur complement
    # of each corner, up to the first singular or divergent level, which
    # must raise there; levels from 6 i eta on share swept rows.  A zero
    # row makes every later corner singular, and a first column (1, 1)
    # gives K a zero first pivot at i = 1 (the scale is a power of 2),
    # which the sweep's guard hands to the whole corner
    rng = np.random.default_rng(s)
    cuts = np.cumsum(widths).tolist()
    cuts = tuple(range(1, cuts[-1] + 1)) if unit else tuple(cuts)
    N = cuts[-1] + eta  # band entries past the last corner are ignored
    A = np.diag(rng.uniform(0.7, 1.2, N) * rng.choice([-1.0, 1.0], N))
    for u in range(1, min(eta, N - 1) + 1):
        A += np.diag(rng.uniform(-0.3, 0.3, N - u) / eta, u)
        A += np.diag(rng.uniform(-0.3, 0.3, N - u) / eta, -u)
    if defect == "zero row":
        A[rng.integers(cuts[-1])] = 0.0
    elif defect == "zero pivot" and eta:
        A[:2, 0] = 1.0
    k = float(rng.uniform(0.5, 2.0))
    norms = gaussmeas._box_norms(BandedSymbol.from_dense(A, eta=eta).bands(
        1, N), eta, i, Box(d, k), cuts)
    for n in cuts:
        An, dims = A[:n, :n], min(d, n)
        if not An.any(1).all():
            with pytest.raises(np.linalg.LinAlgError):
                next(norms)
            return
        assume(np.linalg.cond(An) < 1e6)
        B = np.linalg.matrix_power(np.linalg.inv(An), i)
        E = 2.0 * B.T @ B - np.eye(n)
        lo = np.linalg.eigvalsh(E[dims:, dims:])[0] if dims < n else math.inf
        assume(abs(lo) > 1e-9)  # the dense path's floor decides inside it
        if lo < 0:
            with pytest.raises(DivergenceError):
                next(norms)
            return
        S_ref, log_ref = _box_form(An, i, dims)
        assert next(norms) == pytest.approx(_scaled_integral(
            S_ref, Box(dims, k), log_ref), rel=1e-10)


def _dense_norms(A, i, d):
    """chi_norm_sq of each leading corner of A on a box [-1, 1]^min(d, n)
    by the dense Schur complement, None where the corner is ill-conditioned
    (cond >= 1e6)."""
    out = []
    for n in range(1, len(A) + 1):
        S, log_scale = _box_form(A[:n, :n], i, min(d, n))
        out.append(None if np.linalg.cond(A[:n, :n]) >= 1e6 else
                   _scaled_integral(S, Box(min(d, n), 1.0), log_scale))
    return out


def _thm51_trajectory(A, eta, d):
    reports = thm51_suite(BandedSymbol.from_dense(A, eta=eta),
                          BlockPartition.unit(len(A)), 1, 0, len(A),
                          [Box(d, 1.0)])
    return next(r for r in reports if r.name.startswith(
        "norm_trajectory")).payload["trajectory"]


def test_zero_first_pivot_of_K_goes_to_the_whole_corner():
    # the first column (1, 1) makes K_00 = 2 - 1 - 1 = 0 exactly, while K
    # is nonsingular: the sweep's guard stops at row 0, and every level
    # with rows to sweep closes on its whole corner by a pivoted LU
    rng = np.random.default_rng(0)
    A = (np.diag(rng.uniform(0.6, 0.9, 8))
         + np.diag(rng.uniform(-0.2, 0.2, 7), 1)
         + np.diag(rng.uniform(-0.2, 0.2, 7), -1))
    A[:2, 0] = 1.0
    ref = _dense_norms(A, 1, 1)
    assert all(v is not None for v in ref)
    assert _thm51_trajectory(A, 1, 1) == pytest.approx(ref, rel=1e-12)
    for n in (4, 8):  # a whole corner, and a sweep that stops at row 0
        assert chi_norm_sq(A[:n, :n], 1, Box(1, 1.0)) == pytest.approx(
            ref[n - 1], rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_trip_past_row_0_closes_from_the_last_swept_row(monkeypatch,
                                                          seed):
    # a large A_{13,12} gives row 12 of K's unpivoted elimination the
    # largest multiplier; a guard between it and every earlier row's stops
    # the sweep at k = 12, and each later level n closes from there: its
    # closing block has n - k rows, not n, and the norms stay exact
    rng = np.random.default_rng(seed)
    N, k = 32, 12
    A = (np.diag(rng.uniform(0.6, 0.9, N))
         + np.diag(rng.uniform(-0.2, 0.2, N - 1), 1)
         + np.diag(rng.uniform(-0.2, 0.2, N - 1), -1))
    A[k + 1, k] = 0.6
    K, ratios = 2.0 * np.eye(N) - A.T @ A, []
    for r in range(N - 3):  # the multipliers of rows the last level sweeps
        ratios.append(np.abs(K[r + 1:r + 3, r]).max() / abs(K[r, r]))
        K[r + 1:, r + 1:] -= np.outer(K[r + 1:, r], K[r, r + 1:]) / K[r, r]
    assert int(np.argmax(ratios)) == k
    monkeypatch.setattr(gaussmeas, "_MAX_MULTIPLIER",
                        math.sqrt(max(ratios[:k]) * ratios[k]))
    solve, sizes = np.linalg.solve, []

    def recording_solve(S, W):
        sizes.append(len(S))
        return solve(S, W)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    cuts = tuple(range(1, N + 1))
    traj = list(gaussmeas._box_norms(BandedSymbol.from_dense(A).bands(1, N),
                                     1, 1, Box(1, 1.0), cuts))
    assert sizes == [n if n < 6 else n - min(n - 3, k) for n in cuts]
    monkeypatch.setattr(np.linalg, "solve", solve)
    ref = _dense_norms(A, 1, 1)
    assert all(v is not None for v in ref)
    assert traj == pytest.approx(ref, rel=1e-12)


def test_singular_K_past_the_guard_is_a_singular_divergence():
    # the leading block [[1, 1], [-1, 1]] has orthogonal columns of squared
    # norm 2, so K = 2I - A^T A is singular from level 2 on; the sweep's
    # zero first pivot hands each level to its whole corner, whose LU
    # finds the zero pivot
    A = np.diag([1.0, 1.0, 0.8, 0.7, 0.9, 0.6])
    A[0, 1], A[1, 0], A[3, 2], A[2, 3] = 1.0, -1.0, 0.1, 0.2
    for n in (2, 6):
        with pytest.raises(DivergenceError, match=r"\(singular\)"):
            chi_norm_sq(A[:n, :n], 1, Box(1, 1.0))
    reports = thm51_suite(BandedSymbol.from_dense(A), BlockPartition.unit(6),
                          1, 0, 6, [Box(1, 1.0)])
    assert reports[0].verdict == "fail"
    assert reports[0].payload["detail"].endswith("(singular)")


def test_box_norms_past_a_tiny_leading_minor_at_eta_2():
    # det A_2 is 1e-12 of its scale: a unit-cut elimination, which may not
    # exchange rows, puts later log|det A_n| off by 1e-4 and the norms with
    # them; its guard recomputes the later corners with partial pivoting
    from test_banded import band_with_tiny_minor

    A = 0.5 * band_with_tiny_minor(2, 8, 2, 1e-12, seed=0)
    ref, traj = _dense_norms(A, 1, 1), _thm51_trajectory(A, 2, 1)
    assert sum(v is not None for v in ref) >= 6
    for n, (value, dense) in enumerate(zip(traj, ref), 1):
        if dense is not None:
            assert value == pytest.approx(dense, rel=1e-8)
            assert chi_norm_sq(A[:n, :n], 1, Box(1, 1.0)) == pytest.approx(
                dense, rel=1e-8)


def _counting_integral(monkeypatch):
    """Wrap `_gauss_box_integral`; the returned list holds each call's S."""
    integral, forms = gaussmeas._gauss_box_integral, []

    def counted(S, box):
        forms.append(S.copy())
        return integral(S, box)

    monkeypatch.setattr(gaussmeas, "_gauss_box_integral", counted)
    return forms


def test_a_settled_trajectory_integrates_once_per_run_of_equal_forms(
        monkeypatch):
    # alpha_j = 1 - 2^-j: from about j = 53 on every corner closes on the
    # same box form, so two powers of 64 levels need 4 integrals, not 128
    forms = _counting_integral(monkeypatch)
    ex53 = BandedSymbol.diagonal(lambda j: 1.0 - 2.0 ** -j)
    reports = thm51_suite(ex53, BlockPartition.unit(64), 1, 1, 64,
                          [Box(2, 1.0)])
    assert len(forms) == 4
    assert [r.params["levels"] for r in reports
            if r.name.startswith("finiteness")] == [64, 64]
    forms.clear()
    prop52_suite(PerturbedIdentity.geometric(0.5).symbol,
                 BlockPartition.unit(2000), 1, 1, 2000, [Box(2, 1.0)])
    assert 0 < len(forms) < 30


@pytest.mark.parametrize("i,want", [(1, 11), (2, 12)])
def test_box_norms_integrate_each_level_whose_form_moved(monkeypatch, i,
                                                         want):
    # a random tridiagonal band: each level's norm is its own corner's, and
    # a level integrates exactly when its form differs from the level
    # before, so a stale form never serves another level
    rng = np.random.default_rng(0)
    L = 12
    A = (np.diag(rng.uniform(0.6, 0.9, L))
         + np.diag(rng.uniform(-0.2, 0.2, L - 1), 1)
         + np.diag(rng.uniform(-0.2, 0.2, L - 1), -1))
    forms, box = _counting_integral(monkeypatch), Box(2, 1.0)
    ref = [chi_norm_sq(A[:n, :n], i, Box(min(n, 2), 1.0))
           for n in range(1, L + 1)]
    moved = sum(n == 0 or S.shape != forms[n - 1].shape
                or S.tobytes() != forms[n - 1].tobytes()
                for n, S in enumerate(forms))
    forms.clear()
    traj = list(gaussmeas._box_norms(BandedSymbol.from_dense(A).bands(1, L),
                                     1, i, box, tuple(range(1, L + 1))))
    assert len(forms) == moved == want
    assert traj == pytest.approx(ref, rel=1e-12)


def test_ex53_trajectories_reach_level_20000():
    ex53 = BandedSymbol.diagonal(lambda j: 1.0 - 2.0 ** -j)
    reports = thm51_suite(ex53, BlockPartition.unit(20_000), 1, 1, 20_000,
                          [Box(2, 1.0)])
    trajs = [r.payload["trajectory"] for r in reports
             if r.name.startswith("norm_trajectory")]
    assert [len(t) for t in trajs] == [20_000, 20_000]
    for i, traj in enumerate(trajs, 1):
        assert traj[-1] == pytest.approx(diag_closed_form(
            lambda j: 1.0 - 2.0 ** -j, i, 2, 1.0, 20_000), rel=1e-10)


def test_legendre_rule_is_cached_and_read_only():
    t, w = gaussmeas._legendre_rule(16)
    ref_t, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
    assert gaussmeas._legendre_rule(16)[0] is t
    assert gaussmeas._legendre_rule.cache_info().maxsize is not None
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("l,value", [(8, 5.21170320412731),
                                     (9, 5.268974375766756),
                                     (10, 5.295940886548679),
                                     (11, 5.308723038599891),
                                     (12, 5.314796527297599)])
def test_banded_kernel_pins_ex59_q069(l, value):
    # q = 0.69 < sqrt(2)/2: K is indefinite at every level; the first power
    # keeps a positive definite free block, the second does not (dense
    # lambda_min(E_ff) = -0.258).  Values are the dense path's.
    A = PerturbedIdentity.geometric(0.69).symbol.window(l)
    assert chi_norm_sq(A, 1, Box(2, 1.0)) == pytest.approx(value, rel=1e-12)
    with pytest.raises(DivergenceError, match="1 negative eigenvalues"):
        chi_norm_sq(A, 2, Box(2, 1.0))


def test_banded_kernel_reads_the_band_of_a_corner():
    # entries of the band outside the n x n corner are ignored, and a
    # singular corner raises LinAlgError
    sym = PerturbedIdentity.geometric(0.5).symbol
    ab, cuts = sym.bands(1, 9), (1, 2, 5, 9)
    for n, norm in zip(cuts, gaussmeas._box_norms(ab, 1, 2, Box(2, 1.0),
                                                  cuts)):
        assert norm == pytest.approx(
            chi_norm_sq(sym.window(n), 2, Box(min(n, 2), 1.0)), rel=1e-13)
    with pytest.raises(np.linalg.LinAlgError):
        chi_norm_sq(np.diag([1.0, 0.0, 2.0]), 1, Box(1, 1.0))


def test_chi_norm_nan_regression_alpha_1_4():
    # order doubling of the former Gauss-Hermite rule produced NaN here
    val = chi_norm_sq(np.diag([1.4]), 1, Box(0, 1.0))
    assert val == pytest.approx(1.0 / (1.4 * math.sqrt(2.0 - 1.96)),
                                rel=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_chi_norm_negative_curvature_box_matches_quadrature(alpha):
    # exponent coefficient 2/alpha^2 - 1 < 0: the erfi (Dawson) branch
    from scipy import integrate

    k = 1.5
    s = 2.0 / alpha**2 - 1.0
    box, _ = integrate.quad(lambda x: math.exp(-0.5 * s * x * x), -k, k,
                            epsabs=0.0, epsrel=1e-13)
    ref = box / (alpha**2 * math.sqrt(2.0 * math.pi))
    val = chi_norm_sq(np.array([[alpha]]), 1, Box(1, k))
    assert val == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("max_points", [100, 10_000])
def test_coupled_box_unconverged_raises(monkeypatch, max_points):
    # a coupled 5-dim box: after the closed-form coordinate, 10_000 points
    # admit the first rule (8^4) but not its refinement (16^4)
    monkeypatch.setattr(gaussmeas, "_MAX_POINTS", max_points)
    A = PerturbedIdentity.geometric(0.5).symbol.window(14)
    with pytest.raises(ValueError, match="did not converge"):
        chi_norm_sq(A, 2, Box(5, 1.0))


@pytest.mark.parametrize("constant,value,last", [
    ("_MAX_POINTS", 100, 8),       # the first rule is over budget
    ("_MAX_POINTS", 10_000, 16),   # the refinement is over budget
    ("_MAX_ORDER", 15, 8),         # no refinement within the largest order
], ids=["first-over-budget", "refinement-over-budget", "max-order"])
def test_coupled_box_unconverged_names_last_order(monkeypatch, constant,
                                                  value, last):
    monkeypatch.setattr(gaussmeas, constant, value)
    A = PerturbedIdentity.geometric(0.5).symbol.window(14)
    with pytest.raises(ValueError, match=rf"\(last order {last}\)"):
        chi_norm_sq(A, 2, Box(5, 1.0))


def test_coupled_box_past_the_scale_range_keeps_a_representable_norm(
        monkeypatch):
    # a coupled box integral exp(g) v, v < 1, its log factor g shifted until
    # exp of the level's log scale alone overflows: the norm exp(scale) v is
    # still representable; one past the float range, or underflowed to 0,
    # is the corner's float-range error
    A, box = PerturbedIdentity.geometric(0.5).symbol.window(3), Box(2, 0.1)
    integral, shift, values = gaussmeas._gauss_box_integral, 0.0, []

    def shifted(S, b):
        g, v = integral(S, b)
        values.append(v)
        return g + shift, v

    monkeypatch.setattr(gaussmeas, "_gauss_box_integral", shifted)
    log_norm = math.log(chi_norm_sq(A, 1, box))
    v = values[0]
    assert 0.0 < v < 0.1  # coupled: exp(711) v is below exp(709)
    shift = 711.0 - log_norm + math.log(v)  # the log scale becomes 711
    assert chi_norm_sq(A, 1, box) == pytest.approx(
        math.exp(log_norm + shift), rel=1e-12)
    for shift in (720.0 - log_norm, -800.0 - log_norm):
        with pytest.raises(OverflowError, match="the box norm of the 3 x 3 "
                           "corner is outside the float range"):
            chi_norm_sq(A, 1, box)


def test_coupled_box_rule_sums_in_log_space():
    # both diagonal entries of the 7 x 7 corner's box form are negative, so
    # no coordinate is closed and the rule's terms pass exp's range: summed
    # after their largest log, they give the corner's float-range error, not
    # an overflow warning and a rule that never converges
    ab = BandedSymbol.geometric_tridiagonal(0.6259980468749999).bands(1, 12)
    norms = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="the box norm of the 7 x 7 "
                           "corner is outside the float range"):
            for norm in gaussmeas._box_norms(ab, 1, 2, Box(2, 1.0),
                                             range(1, 13)):
                norms.append(norm)
    assert len(norms) == 6
    assert norms[-1] == pytest.approx(6.037192076752e91, rel=1e-10)


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_box_integral_of_a_zero_form_is_the_box_length(k):
    # s = 0: the factor is (2 pi)^{-1/2} times the length 2k of [-k, k]
    assert gaussmeas._gauss_box_integral(np.zeros((1, 1)), Box(1, k)) == (
        math.log(2.0 * k / math.sqrt(2.0 * math.pi)), 1.0)


# -- poisson bounds ---------------------------------------------------------

@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_poisson_bounds_bracket(a):
    lo, hi = poisson_bounds(a)
    mass_sq = gaussian_box_mass(a) ** 2
    assert lo < mass_sq < hi


def test_poisson_bounds_values():
    lo, hi = poisson_bounds(1.0)
    assert lo == pytest.approx(1.0 - math.exp(-0.5))
    assert hi == pytest.approx(1.0 - math.exp(-1.0))


def test_poisson_bounds_vanish_at_zero():
    lo, hi = poisson_bounds(1e-8)
    assert 0 < lo < hi < 1e-15


# -- singular scaling -------------------------------------------------------

def test_singular_scaling_dichotomy():
    rep = singular_scaling_demo(0.5, N=10_000)
    assert rep.beta == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0)
    assert rep.q_exponent == pytest.approx(0.5 * rep.beta)
    assert rep.q_exponent < 1.0 < rep.beta
    assert rep.sqrt_alpha_exponent < 1.0
    # P stays bounded away from zero, with a certificate
    assert rep.p_limit_lower > 0.0
    assert np.all(np.diff(rep.p_trajectory) <= 0)
    assert rep.p_trajectory[-1] >= rep.p_limit_lower
    # log Q diverges downward
    assert rep.log_q_trajectory[-1] < -5.0
    assert rep.log_q_trajectory[-1] < rep.log_q_trajectory[-2]


@pytest.mark.parametrize("N", [2, 3, 16383, 16384, 16385, 49159])
def test_singular_stream_matches_one_cumulative_pass(N):
    # at stride 1 the sums are one cumsum of all N log terms, bit for bit,
    # and the demo's P is exp of it
    alpha = 0.5
    beta, q = gaussmeas._singular_exponents(alpha, N)
    n, log_p, log_q = gaussmeas._singular_trajectories(beta, q, N, 1)
    ln_m = np.log(np.arange(2, N + 2, dtype=float))
    ref_p = np.cumsum(gaussmeas._log1m_pow(ln_m, beta, np.empty(N)))
    ref_q = np.cumsum(gaussmeas._log1m_pow(ln_m, q, np.empty(N)))
    assert np.array_equal(n, np.arange(2, N + 2))
    assert np.array_equal(log_p, ref_p) and np.array_equal(log_q, ref_q)
    rep = singular_scaling_demo(alpha, N)
    assert np.array_equal(rep.p_trajectory, np.exp(ref_p))
    assert np.array_equal(rep.log_q_trajectory, ref_q)


@pytest.mark.parametrize("alpha", [0.5, 1e-3, 1e-6, 1e-9])
def test_singular_log_q_matches_40_digits(alpha):
    # 1 - m^-q cancels when q ln m << 1; log(-expm1(-y)) does not
    import mpmath as mp
    N = 1000
    beta, q = gaussmeas._singular_exponents(alpha, N)
    with mp.workdps(40):
        ref = mp.fsum(mp.log(1 - mp.mpf(m) ** -mp.mpf(q))
                      for m in range(2, N + 2))
        for stride in (1, N // 100):
            got = gaussmeas._singular_trajectories(beta, q, N, stride)[2][-1]
            assert abs((got - ref) / ref) < 1e-14


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1e-3, 1e-9, 0.999])
@pytest.mark.parametrize("N", [10**5, 10**6])
def test_singular_rows_match_an_fsum_of_the_terms(N, alpha):
    # past the head, the runs between rows are Euler-Maclaurin's; every
    # row still matches the running fsum of per-run fsums of the terms
    beta, q = gaussmeas._singular_exponents(alpha, N)
    n, *sums = gaussmeas._singular_trajectories(beta, q, N, N // 100)
    ln_m, cuts = np.log(np.arange(2, N + 2, dtype=float)), [0, *(n - 1)]
    for got, c in zip(sums, (beta, q)):
        terms = gaussmeas._log1m_pow(ln_m, c, np.empty(N))
        parts = [math.fsum(terms[i:j]) for i, j in zip(cuts, cuts[1:])]
        want = [math.fsum(parts[:k + 1]) for k in range(len(parts))]
        assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 1e-3, 0.99, 1e-9])
@pytest.mark.parametrize("N", [10**9, 10**12, 10**15])
def test_singular_last_row_matches_30_digit_sumem(N, alpha):
    import mpmath as mp
    beta, q = gaussmeas._singular_exponents(alpha, N)
    _, *sums = gaussmeas._singular_trajectories(beta, q, N, N // 100)
    for got, c in zip(sums, (beta, q)):
        with mp.workdps(30):
            def f(m, c=mp.mpf(c)):
                return mp.log(-mp.expm1(-c * mp.log(m)))
            ref = (mp.fsum(f(m) for m in range(2, 257))
                   + mp.sumem(f, [257, N + 1]))
        assert got[-1] == pytest.approx(float(ref), rel=1e-14, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 0.9999999, 1e-9, 1e-150, 2.3e-162])
def test_singular_run_sums_are_nonpositive_and_warn_nothing(alpha):
    # the caller's "P rising" fail reads np.diff of these sums; tiny alpha
    # makes h = 1 / y of Q's f' near 1e225 (near 1e242 at 2.3e-162, about
    # the least alpha whose 2 alpha^2 beta is not 0), and beta near 5e74
    # underflows P's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (10**5, 10**9, 10**15, (1 << 53) - 1):
            beta, q = gaussmeas._singular_exponents(alpha, N)
            for stride in (N // 100, N // 7, N):
                _, log_p, log_q = gaussmeas._singular_trajectories(
                    beta, q, N, stride)
                assert np.all(np.diff(log_p, prepend=0.0) <= 0)
                assert np.all(np.diff(log_q, prepend=0.0) <= 0)
            a = np.array([2049, 10**4, 10**6, 10**12])
            for cs in ((beta, q), (1.0, 134.0)):
                assert np.all(gaussmeas._em_sums(a, 2 * a - 1, cs) <= 0)


def test_singular_scaling_near_degenerate_flag():
    assert singular_scaling_demo(0.999, N=100).near_degenerate
    assert not singular_scaling_demo(0.5, N=100).near_degenerate


def test_singular_scaling_rejects_bad_alpha():
    with pytest.raises(ValueError):
        singular_scaling_demo(1.5)


@pytest.mark.parametrize("N", [0, 1])
def test_singular_scaling_rejects_short_trajectory(N):
    with pytest.raises(ValueError):
        singular_scaling_demo(0.5, N=N)


@pytest.mark.parametrize("halfwidth", [0.0, -1.0, math.nan])
def test_box_rejects_nonpositive_halfwidth(halfwidth):
    with pytest.raises(ValueError):
        Box(1, halfwidth)


# -- the perturbation inequality ----------------------------------------------

def test_perturbation_bound_unit_vector():
    # window 1 is the span of e1: |1 - |b e1|^2| / (C p_1) = q^2 / (C q)
    b = PerturbedIdentity.geometric(0.5)
    chk = perturbation_bound_check(b, 1, 1)
    assert chk.all_pass and chk.window == 1
    assert chk.worst_ratio == pytest.approx(0.5 / chk.C_tilde, rel=1e-14)


def _zero_perturbation(weights=lambda j: 0.5 ** j):
    from gausscomp.banded import BandedSymbol
    base = BandedSymbol.from_entries(1, {})
    return PerturbedIdentity(base=base, alpha=lambda j: 0.5 ** j,
                             weights=weights, m=0.25, M=0.75,
                             alpha_sum=1.0, weight_sum=1.0)


def test_perturbation_bound_zero_perturbation():
    chk = perturbation_bound_check(_zero_perturbation(), 2, 10)
    assert chk.worst_ratio == 0.0 and chk.all_pass


def test_perturbation_bound_nonpositive_weight_raises():
    # the ratio bounds hold (p_{j+1} / p_j = 0.5), the weights are negative
    b = _zero_perturbation(weights=lambda j: -(0.5 ** j))
    with pytest.raises(ValueError, match="weights must be positive"):
        perturbation_bound_check(b, 1, 8)


def _sampled_ratio(b, k, x):
    """|x.x - |b^k x|^2| / (C_tilde x.Px) from a dense power of the
    materialized symbol: len(x) + 2k rows hold every path of k steps."""
    n = len(x) + 2 * k
    xp = np.zeros(n)
    xp[: len(x)] = x
    y = np.linalg.matrix_power(b.symbol.window(n), k) @ xp
    lhs = abs(float(xp @ xp - y @ y))
    p = np.array([b.weights(j) for j in range(1, len(x) + 1)])
    return lhs / (proof_constant(b, k) * float(np.sum(x * x * p)))


def test_perturbation_bound_random_supports():
    # the exact supremum bounds every sampled 12-sparse vector on 24 entries
    b = PerturbedIdentity.geometric(0.5)
    for k in (1, 2, 3):
        chk = perturbation_bound_check(b, k, 24)
        assert chk.all_pass, f"k={k}: worst ratio {chk.worst_ratio}"
        for _ in range(50):
            x = np.zeros(24)
            support = RNG.choice(24, size=12, replace=False)
            x[support] = RNG.standard_normal(12)
            assert _sampled_ratio(b, k, x) <= chk.worst_ratio * (1 + 1e-12)


@pytest.mark.parametrize("q,k", [(0.5, 1), (0.3, 2), (0.65, 3)])
def test_perturbation_bound_top_eigenvector_attains(q, k):
    b = PerturbedIdentity.geometric(q)
    chk = perturbation_bound_check(b, k, 24)
    n = 24 + k
    B = np.linalg.matrix_power(b.symbol.window(n + k), k)[:n, :24]
    scale = 1.0 / np.sqrt([b.weights(j) for j in range(1, 25)])
    w, v = np.linalg.eigh((np.eye(24) - B.T @ B) * np.outer(scale, scale))
    top = v[:, np.argmax(np.abs(w))] * scale
    assert _sampled_ratio(b, k, top) == pytest.approx(chk.worst_ratio,
                                                      rel=1e-10)


@pytest.mark.parametrize("q,k,window", [(0.5, 1, 12), (0.3, 2, 24),
                                        (0.65, 3, 24)])
def test_perturbation_bound_matches_mpmath(q, k, window):
    """The supremum from a 40-digit symmetric eigensolver on the
    tridiagonal b (b_jj = 1, b_{j,j+1} = b_{j+1,j} = q^j) of size
    window + k, which holds every path of k steps from the window."""
    import mpmath as mp
    with mp.workdps(40):
        n = window + k
        qm = mp.mpf(q)
        bm = mp.eye(n)
        for j in range(1, n):
            bm[j - 1, j] = bm[j, j - 1] = qm ** j
        Bk = (bm ** k)[:, :window]
        form = mp.eye(window) - Bk.T * Bk
        for i in range(window):
            for j in range(window):
                form[i, j] /= mp.sqrt(qm ** (i + 1) * qm ** (j + 1))
        ev = mp.eigsy(form, eigvals_only=True)
        ref = max(abs(e) for e in ev) / mp.mpf(proof_constant(
            PerturbedIdentity.geometric(q), k))
    chk = perturbation_bound_check(PerturbedIdentity.geometric(q), k, window)
    assert chk.worst_ratio == pytest.approx(float(ref), rel=1e-14)


def test_proof_constant_monotone_in_power():
    b = PerturbedIdentity.geometric(0.5)
    cs = [proof_constant(b, k) for k in (1, 2, 3)]
    assert cs[0] < cs[1] < cs[2]
