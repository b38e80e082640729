import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.special import erf

from gausscomp import gaussmeas
from gausscomp.banded import PerturbedIdentity
from gausscomp.gaussmeas import (
    Box,
    DivergenceError,
    GaussianSpace,
    RnDerivative,
    chi_norm_sq,
    diag_closed_form,
    ell2p_norm_sq,
    gaussian_box_mass,
    h_normalization,
    infinite_product,
    perturbation_bound_check,
    poisson_bounds,
    proof_constant,
    rn_eval,
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
    vals = np.array([rn_eval(d, x) for x in pts])
    np.testing.assert_allclose(vals, 1.0, rtol=1e-14)


def test_rn_scalar_values():
    d = RnDerivative(np.array([[2.0]]))
    assert rn_eval(d, [0.0]) == pytest.approx(0.5)
    d = RnDerivative(np.array([[0.5]]))
    assert rn_eval(d, [1.0]) == pytest.approx(2.0 * math.exp(-1.5))


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
        GaussianSpace(kappa)  # density check at construction
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
    with pytest.raises(ValueError):
        diag_closed_form([1.0, 1.0, 1.0], 1, 2, 1.0, 3)  # tail needs alpha < 1


def test_diag_closed_form_tail_undefined():
    with pytest.raises(ValueError):
        diag_closed_form([0.5, 0.5, 1.5], 2, 2, 1.0, 3)


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


# -- products ---------------------------------------------------------------

def test_product_all_ones():
    res = infinite_product(lambda j: 1.0)
    assert res.status == "convergent"
    assert res.value == 1.0 and res.remainder_bound == 0.0


def test_product_euler_like():
    res = infinite_product(lambda j: 1.0 - 2.0 ** (-j), n_terms=200,
                           tail_bound=lambda N: 2.0 ** (-N))
    assert res.status == "convergent"
    assert res.value == pytest.approx(0.2887880950866, abs=1e-10)
    assert res.remainder_bound < 1e-30


def test_product_harmonic_divergent():
    res = infinite_product(lambda j: 1.0 - 1.0 / (j + 1), n_terms=5000)
    assert res.status == "divergent_to_zero"


def test_product_rejects_nonpositive():
    with pytest.raises(ValueError):
        infinite_product(lambda j: 1.0 - 1.0 / j, n_terms=10)


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


# -- weighted norms and the perturbation inequality -------------------------

def test_ell2p_basics():
    assert ell2p_norm_sq([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert ell2p_norm_sq([1.0, 1.0], [0.5, 0.25]) == pytest.approx(0.75)


@seed(5)
@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_ell2p_homogeneity(x1, x2):
    x = np.array([x1, x2])
    p = [0.5, 0.25]
    assert ell2p_norm_sq(2.0 * x, p) == pytest.approx(4.0 * ell2p_norm_sq(x, p))


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
    return lhs / (proof_constant(b, k) * ell2p_norm_sq(x, b.weights))


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
