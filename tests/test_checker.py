import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausscomp.banded import (
    BandedSymbol,
    BlockPartition,
    PerturbedIdentity,
    power,
)
from gausscomp.checker import (
    CoefficientTensor,
    _power_pair_grams,
    LambdaGrid,
    compute_n_a,
    form_positivity_evidence,
    gram_construct,
    hyponormality_consequence,
    prop52_suite,
    prop56_suite,
    snr_form_matrix,
    snr_form_value,
    thm51_suite,
)
from gausscomp import checker, gaussmeas
from gausscomp.gaussmeas import Box, DivergenceError, chi_norm_sq
from gausscomp.hermite import HermiteModel, _power_pair_gram

RNG = np.random.default_rng(2024)


def tensor_with(n, m, entries):
    a = np.zeros((n + 1, n + 1, m, m), dtype=complex)
    for (p, q, i, j), v in entries.items():
        a[p, q, i - 1, j - 1] = v
    return CoefficientTensor(a)


# -- effective degree -------------------------------------------------------

def test_n_a_only_constant():
    assert tensor_with(3, 1, {(0, 0, 1, 1): 1.0}).n_a == 0


def test_n_a_row_entry():
    assert tensor_with(3, 1, {(1, 0, 1, 1): 1.0}).n_a == 1


def test_n_a_imaginary_entry():
    assert tensor_with(2, 2, {(2, 2, 1, 2): 1j}).n_a == 2


@seed(13)
@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_n_a_scaling_invariance(z):
    t = tensor_with(3, 2, {(1, 2, 1, 2): 0.5 + 1j, (0, 0, 2, 2): -2.0})
    assert CoefficientTensor(t.a * z).n_a == t.n_a


# -- positivity form --------------------------------------------------------

def test_gram_tensor_passes_everywhere():
    c = RNG.standard_normal((3, 2, 4)) + 1j * RNG.standard_normal((3, 2, 4))
    rep = form_positivity_evidence(gram_construct(c))
    assert rep.verdict == "evidence"
    assert rep.payload["witness_lambda"] is None


def test_indefinite_tensor_fails_beyond_unit_disk():
    t = tensor_with(1, 1, {(0, 0, 1, 1): 1.0, (1, 1, 1, 1): -1.0})
    rep = form_positivity_evidence(t)
    assert rep.verdict == "fail"
    lam = complex(*rep.payload["witness_lambda"])
    assert abs(lam) > 1.0


def test_positive_scalar_polynomial_passes():
    # 1 + Re(lambda) + |lambda|^2 >= 1 - |lambda| + |lambda|^2 > 0
    t = tensor_with(1, 1, {(0, 0, 1, 1): 1.0, (0, 1, 1, 1): 0.5,
                           (1, 0, 1, 1): 0.5, (1, 1, 1, 1): 1.0})
    assert form_positivity_evidence(t).verdict == "evidence"


def test_gram_construct_shape_and_round_trip():
    c = np.zeros((3, 2, 1), dtype=complex)
    c[0, 0, 0] = 1.0
    t = gram_construct(c)
    assert t.a[0, 0, 0, 0] == 1.0 and t.n_a == 0
    c[2, 1, 0] = 2.0
    assert gram_construct(c).n_a == 2


def test_lambda_grid_reproducible():
    g = LambdaGrid(seed=5)
    np.testing.assert_array_equal(g.points(), LambdaGrid(seed=5).points())


def per_point_grid(grid):
    """The grid drawn one rejection sample at a time."""
    pts = [0.0 + 0.0j]
    for rho in grid.radii:
        for t in range(grid.n_angles):
            theta = 2.0 * math.pi * t / grid.n_angles
            pts.append(rho * complex(math.cos(theta), math.sin(theta)))
    rng = np.random.default_rng(grid.seed)
    for _ in range(grid.n_random):
        while True:
            z = complex(*(rng.uniform(-1, 1, 2) * grid.random_radius))
            if abs(z) <= grid.random_radius:
                pts.append(z)
                break
    return np.array(pts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lambda_grid_is_the_per_point_rejection_stream(seed):
    grid = LambdaGrid(seed=seed)
    np.testing.assert_array_equal(grid.points(), per_point_grid(grid))


class FewRandomPoints(LambdaGrid):
    n_random = 2


@pytest.mark.parametrize("seed", [13, 25, 28, 60])
def test_lambda_grid_draws_again_when_a_batch_keeps_too_few(seed):
    # `points` draws 2 * n_random pairs at a time; these seeds keep fewer
    # than 2 of their first 4
    first = np.random.default_rng(seed).uniform(-1, 1, (4, 2)) * 3.0
    assert np.sum(np.hypot(*first.T) <= 3.0) < 2
    grid = FewRandomPoints(seed=seed)
    np.testing.assert_array_equal(grid.points(), per_point_grid(grid))


# -- the bilinear form of adjoint powers ------------------------------------

def test_snr_reduces_to_norm_sum_for_degree_zero():
    model = HermiteModel.get(1, 4)
    c = np.zeros((1, 2, 3), dtype=complex)
    c[0] = RNG.standard_normal((2, 3))
    t = gram_construct(c)
    fs = [[model.function(RNG.standard_normal(model.dim))] for _ in range(2)]
    res = snr_form_value(np.array([[0.5]]), t, 0, fs, model)
    expected = 0.0
    for tt in range(3):
        acc = np.zeros(model.dim, dtype=complex)
        for i in range(2):
            acc += c[0, i, tt] * fs[i][0].coef
        expected += float(np.real(np.vdot(acc, acc)))
    assert res.valid
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_snr_scaling_quadratic_r0():
    model = HermiteModel.get(1, 4)
    c = RNG.standard_normal((3, 2, 2)) + 1j * RNG.standard_normal((3, 2, 2))
    t = gram_construct(c)
    A = np.array([[0.5]])
    fs = [[model.function(RNG.standard_normal(model.dim))] for _ in range(2)]
    fs2 = [[model.function(2.0 * row[0].coef)] for row in fs]
    v1 = snr_form_value(A, t, 0, fs, model).value
    v2 = snr_form_value(A, t, 0, fs2, model).value
    assert v2 == pytest.approx(4.0 * v1, rel=1e-10)


def test_snr_identity_symbol_gram_nonnegative():
    model = HermiteModel.get(2, 4)
    for _ in range(5):
        c = RNG.standard_normal((2, 2, 2)) + 1j * RNG.standard_normal((2, 2, 2))
        t = gram_construct(c)
        fs = [[model.function(RNG.standard_normal(model.dim))
               for _ in range(2)] for _ in range(2)]
        res = snr_form_value(np.eye(2), t, 1, fs, model)
        assert res.valid and res.value >= -1e-7


def test_snr_contracting_diagonal_nonnegative():
    model = HermiteModel.get(2, 6)
    A = np.diag([0.5, 1.0 / 3.0])
    for _ in range(10):
        n = int(RNG.integers(0, 3))
        r = int(RNG.integers(0, 3))
        m = int(RNG.integers(1, 3))
        c = RNG.standard_normal((n + 1, m, 3)) \
            + 1j * RNG.standard_normal((n + 1, m, 3))
        t = gram_construct(c)
        fs = [[model.function(RNG.standard_normal(model.dim))
               for _ in range(r + 1)] for _ in range(m)]
        res = snr_form_value(A, t, r, fs, model)
        assert res.valid
        assert res.value >= -1e-7
        assert res.imag < 1e-10


def test_snr_rejects_wrong_testfn_shape():
    model = HermiteModel.get(1, 4)
    t = gram_construct(np.ones((1, 2, 1), dtype=complex))
    with pytest.raises(ValueError):
        snr_form_value(np.array([[0.5]]), t, 1,
                       [[model.function(np.zeros(model.dim))]], model)


def random_contraction(kappa, seed):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    V, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    return U @ np.diag(rng.uniform(0.3, 0.9, kappa)) @ V.T


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_power_pair_grams_closed_forms(kappa, degree, seed):
    # <S 1, S 1> is the squared norm of the density of A, and the power-0
    # Gram is the orthonormal basis' identity
    A = random_contraction(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    grams = _power_pair_grams(A, model, 1)
    assert grams[(1, 1)][0, 0] == pytest.approx(chi_norm_sq(A, 1, None),
                                                rel=1e-12)
    np.testing.assert_allclose(grams[(0, 0)], np.eye(model.dim), atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_power_pair_grams_order_raise_is_rounding_only(kappa, degree, seed):
    A = random_contraction(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    exact = _power_pair_grams(A, model, 2)
    raised = _power_pair_grams(A, model, 2, order=degree + 2)
    for key, G in exact.items():
        assert np.max(np.abs(raised[key] - G)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(G))))


def test_power_pair_grams_build_each_power_once(monkeypatch):
    # P + 1 adjoint powers per call, not two per pair; same Grams bit for bit
    A, model, P = random_contraction(2, 11), HermiteModel.get(2, 3), 3
    built = []

    def counting(A, d):
        built.append(d)
        return gaussmeas._adjoint_power(A, d)

    monkeypatch.setattr(checker, "_adjoint_power", counting)
    grams = _power_pair_grams(A, model, P)
    assert sorted(built) == list(range(P + 1))
    for (a, b), G in grams.items():
        adj = {d: gaussmeas._adjoint_power(A, d) for d in (a, b)}
        ref = (_power_pair_gram(adj, a, model, b, model) if a <= b
               else _power_pair_gram(adj, b, model, a, model).T)
        assert np.array_equal(G, ref)


def test_power_pair_grams_diverging_pair_raises():
    # 2 / 1.5^2 - 1 < 0: <S f, S g> diverges for the expanding symbol 1.5
    with pytest.raises(DivergenceError):
        _power_pair_grams(np.array([[1.5]]), HermiteModel.get(1, 4), 1)


def gram_callers(A):
    """The three callers of `_power_pair_grams`, each on a kappa = 2 model."""
    model = HermiteModel.get(2, 2)
    c = gram_construct(np.ones((2, 1, 1), dtype=complex))
    fs = [[model.function(np.ones(model.dim)) for _ in range(2)]]
    return {"snr_form_matrix": lambda: snr_form_matrix(A, c, 1, model),
            "snr_form_value": lambda: snr_form_value(A, c, 1, fs, model),
            "hyponormality_consequence":
                lambda: hyponormality_consequence(A, 2)}


@pytest.mark.parametrize("caller", ["snr_form_matrix", "snr_form_value",
                                    "hyponormality_consequence"])
@pytest.mark.parametrize("A,message", [
    ([[0.5, 0.1], [np.nan, 0.5]],
     r"^symbol entry \(2, 1\) is nan, not finite$"),
    ([[0.5, -np.inf], [np.nan, 0.5]],
     r"^symbol entry \(1, 2\) is -inf, not finite$"),
    (np.full((2, 3), 0.3),
     r"^a symbol of shape \(2, 3\) does not act on a kappa = 2 model$"),
])
def test_gram_path_refuses_a_malformed_symbol(monkeypatch, caller, A,
                                              message):
    # a NaN entry used to give NaN Grams and numpy's "Eigenvalues did not
    # converge", a (2, 3) symbol "Last 2 dimensions of the array must be
    # square"; now a ValueError names it before any power or Gram is built
    built = []
    monkeypatch.setattr(checker, "_adjoint_power",
                        lambda *args: built.append(args))
    monkeypatch.setattr(checker, "_power_pair_gram",
                        lambda *args: built.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            gram_callers(np.array(A))[caller]()
    assert built == []


def test_snr_defect_is_rounding_level():
    rng = np.random.default_rng(5)
    model = HermiteModel.get(2, 4)
    c = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
    fs = [[model.function(rng.standard_normal(model.dim)) for _ in range(2)]
          for _ in range(2)]
    res = snr_form_value(random_contraction(2, 11), gram_construct(c), 1, fs,
                         model)
    assert res.valid and res.defect < 1e-12


def brute_form(A, t, r, coefs, model):
    """The double-sum form entry by entry over (p, q, k, l, i, j)."""
    grams = _power_pair_grams(A, model, t.n_a + r)
    total = 0.0 + 0.0j
    for p, q, k, l in itertools.product(range(t.n_a + 1), range(t.n_a + 1),
                                        range(r + 1), range(r + 1)):
        G = grams[(p + k, q + l)]
        for i, j in itertools.product(range(t.m), repeat=2):
            total += t.a[p, q, i, j] * (coefs[i][l] @ G @ np.conj(coefs[j][k]))
    return total


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2),
       st.integers(0, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_snr_form_matrix_is_the_form(kappa, degree, n, r, m, seed):
    rng = np.random.default_rng(seed)
    A = random_contraction(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    t = gram_construct(rng.standard_normal((n + 1, m, 2))
                       + 1j * rng.standard_normal((n + 1, m, 2)))
    M = snr_form_matrix(A, t, r, model)
    scale = max(1.0, float(np.max(np.abs(M))))
    assert M.shape == (m * (r + 1) * model.dim,) * 2
    assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * scale
    lo, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    for _ in range(3):
        coefs = (rng.standard_normal((m, r + 1, model.dim))
                 + 1j * rng.standard_normal((m, r + 1, model.dim)))
        U = coefs.ravel()
        value = U @ M @ np.conj(U)
        assert value == pytest.approx(brute_form(A, t, r, coefs, model),
                                      rel=1e-10, abs=1e-12)
        res = snr_form_value(A, t, r, coefs, model)
        assert res.valid
        norm_sq = float(np.vdot(U, U).real)
        assert lo[0] <= res.value / norm_sq + 1e-12 * scale
    # the eigenvector of the smallest eigenvalue attains it
    witness = np.conj(vecs[:, 0]).reshape(m, r + 1, model.dim)
    assert snr_form_value(A, t, r, witness, model).value == pytest.approx(
        lo[0], abs=1e-10 * scale)


# -- normality ------------------------------------------------------------

def corners_normal(mat, s, L):
    """prop52's `inverse_corners_normal` report on the symbol of `mat`."""
    return next(r for r in prop52_suite(BandedSymbol.from_dense(mat), s, 0,
                                        0, L, [])
                if r.name == "inverse_corners_normal")


def test_normality_symmetric_passes():
    A = RNG.standard_normal((4, 4))
    rep = corners_normal(A + A.T, BlockPartition.unit(4), 4)
    assert rep.verdict == "pass"
    assert rep.payload["worst_relative_commutator"] == 0.0


def test_normality_shear_fails_with_exact_commutator():
    # |C|_F = sqrt(2) against |A|_F^2 = 3 at the 2-corner
    rep = corners_normal(np.array([[1.0, 1.0], [0.0, 1.0]]),
                         BlockPartition.unit(2), 2)
    assert rep.verdict == "fail"
    assert rep.payload["worst_relative_commutator"] == pytest.approx(
        math.sqrt(2.0) / 3.0, rel=1e-15)


def test_normality_rotation_passes():
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])
    assert corners_normal(R, BlockPartition.unit(2), 2).verdict == "pass"


def test_normality_transpose_agrees():
    A = RNG.standard_normal((3, 3))
    reps = [corners_normal(x, BlockPartition.unit(3), 3) for x in (A, A.T)]
    assert reps[0].verdict == reps[1].verdict
    assert reps[0].payload == reps[1].payload


# -- hyponormality consequence ----------------------------------------------

def test_hyponormality_contracting_diagonal():
    rep = hyponormality_consequence(np.array([[0.5]]))
    assert rep.verdict == "pass"
    assert rep.payload["worst_form_value"] >= -1e-7
    assert rep.payload["worst_adjoint_norm_excess"] <= 1e-7


def test_hyponormality_two_dims():
    rep = hyponormality_consequence(np.diag([0.5, 1.0 / 3.0]), model_degree=4)
    assert rep.verdict == "pass"


SHEAR = 0.6 * np.array([[1.0, 1.0], [0.0, 1.0]])


def test_hyponormality_shear_is_disproved():
    # 200 random pairs (and 5000) missed this: the form's exact minimum over
    # the degree-4 model is negative
    rep = hyponormality_consequence(SHEAR, model_degree=4)
    assert rep.verdict == "fail"
    worst = rep.payload["worst_form_value"]
    assert worst == pytest.approx(-0.0644, abs=5e-5)
    # the minimizing eigenvector (f, g) evaluates the form to the minimum
    grams = _power_pair_grams(SHEAR, HermiteModel.get(2, 4), 1)
    G00, G10, G11 = grams[(0, 0)], grams[(1, 0)], grams[(1, 1)]
    _, vecs = np.linalg.eigh(np.block([[G00, G10], [G10.T, G11]]))
    f, g = np.split(vecs[:, 0], 2)
    form = f @ G00 @ f + 2.0 * (f @ G10 @ g) + g @ G11 @ g
    assert abs(form - worst) <= 1e-9


@pytest.mark.parametrize("A,degree", [
    (np.array([[0.5]]), 6),
    (np.diag([0.5, 1.0 / 3.0]), 4),
    (SHEAR, 4),
], ids=["half", "diag", "shear"])
def test_hyponormality_exact_extremes_bound_random_pairs(A, degree):
    rep = hyponormality_consequence(A, model_degree=degree)
    model = HermiteModel.get(A.shape[0], degree)
    grams = _power_pair_grams(A, model, 1)
    G00, G10, G11 = grams[(0, 0)], grams[(1, 0)], grams[(1, 1)]
    rng = np.random.default_rng(6)
    for _ in range(50):
        fg = rng.standard_normal(2 * model.dim)
        f, g = np.split(fg / np.linalg.norm(fg), 2)
        form = f @ G00 @ f + 2.0 * (f @ G10 @ g) + g @ G11 @ g
        assert rep.payload["worst_form_value"] <= form + 1e-12
        g = g / np.linalg.norm(g)
        tstar = G10 @ g
        excess = tstar @ G00 @ tstar - g @ G11 @ g
        assert rep.payload["worst_adjoint_norm_excess"] >= excess - 1e-12


def test_hyponormality_form_is_the_snr_form_with_r_one():
    # <f,f> + <g,Tf> + <Tf,g> + <Tg,Tg> is the double-sum form with a = 1,
    # m = 1, r = 1 and test functions (f, g)
    rep = hyponormality_consequence(SHEAR, model_degree=4)
    one = CoefficientTensor(np.ones((1, 1, 1, 1)))
    M = snr_form_matrix(SHEAR, one, 1, HermiteModel.get(2, 4))
    assert np.linalg.eigvalsh(M)[0] == pytest.approx(
        rep.payload["worst_form_value"], abs=1e-12)


# -- suites -----------------------------------------------------------------

def ex53_symbol():
    return BandedSymbol.diagonal(lambda j: 1.0 - 2.0 ** (-j))


def test_prop52_diagonal_family_passes():
    s = BlockPartition.unit(8)
    reports = prop52_suite(ex53_symbol(), s, 1, 1, 6,
                           [Box(2, 1.0), Box(2, 2.0)])
    assert reports and all(r.verdict == "pass" for r in reports)


def test_prop52_nonnormal_truncations_fail():
    a = BandedSymbol.from_entries(
        1, {(1, 1): 1.0, (1, 2): 1.0, (2, 2): 1.0, (3, 3): 1.0,
            (4, 4): 1.0, (5, 5): 1.0})
    s = BlockPartition.unit(5)
    reports = prop52_suite(a, s, 1, 0, 3, [Box(1, 1.0)])
    by_name = {r.name: r.verdict for r in reports}
    assert by_name["inverse_corners_normal"] == "fail"


def test_prop52_reports_first_singular_level():
    a = BandedSymbol.diagonal([1.0, 2.0, 0.0, 3.0, 0.0, 4.0])
    reports = prop52_suite(a, BlockPartition.unit(6), 1, 0, 6, [Box(1, 1.0)])
    assert len(reports) == 1
    assert reports[0].verdict == "fail"
    assert reports[0].payload == {"first_singular_level": 3}


def test_prop52_rank_break_fails_structurally():
    # inverse of a block-diagonal orthogonal-ish symbol with a partial-rank
    # off-diagonal block is itself partial rank
    mat = np.eye(5)
    mat[0, 2] = 1.0  # rank-1 coupling into a 2-wide block
    a = BandedSymbol.from_dense(mat)
    s = BlockPartition((2, 4, 5))
    reports = prop52_suite(a, s, 1, 0, 3, [Box(1, 1.0)], dim_cap=2)
    by_name = {r.name: r.verdict for r in reports}
    assert by_name["inverse_in_block_class"] == "fail"


def block_class(a, s, K):
    """The `inverse_in_block_class` report of `prop52_suite` to depth K."""
    return next(r for r in prop52_suite(a, s, 0, 0, K, [])
                if r.name == "inverse_in_block_class")


def test_prop52_slice_past_memory_is_evidence_naming_its_size(monkeypatch):
    # as for cuts 2, 4, ..., 2^17, whose one 65537^2 slice takes 34 GB;
    # here the widest block is 4 wide, so the padded slice is 5 x 5
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(checker, "_band_ranks", out_of_memory)
    s = BlockPartition([2, 4, 8])
    rep = block_class(BandedSymbol.geometric_tridiagonal(0.5), s, 3)
    assert rep.verdict == "evidence"
    assert rep.payload == {"detail": "not computable: a 5 x 5 block slice "
                                     "does not fit in memory"}


def block_class_of_inverse(inv, s, K, tol):
    """The first cut p whose inverse is not zero between blocks <= p and
    >= p + 2, as (p, p + 2), else the rank of every block (p, p + 1); an
    entry or singular value counts when above `tol` times max |inv|."""
    floor = tol * np.max(np.abs(inv))
    for p in range(1, K):
        lo, hi = s.cut(p), s.cut(p + 1)
        if max(np.abs(inv[:lo, hi:]).max(), np.abs(inv[hi:, :lo]).max()) > floor:
            return (p, p + 2), []
    ranks = []
    for p in range(1, K):
        sv = np.linalg.svd(inv[s.cut(p - 1):s.cut(p), s.cut(p):s.cut(p + 1)],
                           compute_uv=False)
        ranks.append((p, int(np.sum(sv > floor)), s.cut(p) - s.cut(p - 1)))
    return None, ranks


@st.composite
def dominant_banded_symbols(draw):
    """A sparse band with entries +-1, 0.5 and the diagonal 1 + the row's
    absolute sum, so every corner is well conditioned, with K and at least
    four more blocks."""
    eta = draw(st.integers(0, 3))
    s = BlockPartition(np.cumsum(draw(st.lists(st.integers(1, 3), min_size=5,
                                               max_size=9))))
    K = draw(st.integers(1, len(s) - 4))
    n = s.cut(len(s))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if 0 < abs(i - j) <= eta]
    entries = draw(st.dictionaries(st.sampled_from(cells),
                                   st.sampled_from([1.0, -1.0, 0.5]),
                                   max_size=len(cells) // 2)) if cells else {}
    for i in range(1, n + 1):
        entries[(i, i)] = 1.0 + sum(abs(v) for (r, _), v in entries.items()
                                    if r == i)
    return BandedSymbol.from_entries(eta, entries), s, K


@seed(19)
@settings(max_examples=300, deadline=None)
@given(dominant_banded_symbols())
def test_inverse_block_class_matches_dense_inverse(case):
    # the dense inverse of the first corner two or more blocks past K that
    # holds A's band past s(K), read at a relative floor
    a, s, K = case
    N = next(s.cut(m) for m in range(K + 2, len(s) + 1)
             if s.cut(m) >= s.cut(K) + a.eta)
    violation, ranks = block_class_of_inverse(
        np.linalg.inv(a.window(N)), s, K, 1e-12)
    rep = block_class(a, s, K)
    assert rep.payload == {"structural_violation": violation,
                           "block_ranks": ranks}
    assert rep.verdict == ("pass" if violation is None and all(
        r in (0, full) for _, r, full in ranks) else "fail")


def test_inverse_block_rank_of_an_ill_conditioned_symbol_matches_mpmath():
    """cond(A) is about 1e13.  A's boundary corner a_34 at cut 2 is an
    exact zero, so block (2, 3) of the inverse has rank 0; in floating
    point that block is roundoff far below every true entry of A^-1."""
    import mpmath as mp
    a = BandedSymbol.from_entries(1, {
        (1, 1): 1e-6, (1, 2): 1e-6, (2, 2): 1e-6, (3, 2): 3.0, (3, 3): -1.0,
        (4, 3): 1.0, (4, 4): 1e-6, (5, 5): 3.0, (5, 6): 1.0, (6, 5): 1e-6,
        (6, 6): 3.0})
    s = BlockPartition((1, 3, 4, 5))
    W = a.window(6)
    with mp.workdps(40):
        exact = np.array((mp.matrix(W.tolist()) ** -1).tolist(), dtype=float)
    violation, ranks = block_class_of_inverse(exact, s, 4, 1e-25)
    assert ranks[1] == (2, 0, 2)
    rep = block_class(a, s, 4)
    assert rep.payload == {"structural_violation": violation,
                           "block_ranks": ranks}
    inv = np.linalg.inv(W)
    assert np.abs(inv[1:3, 3:4]).max() < 1e-12 * np.abs(inv).max()


@pytest.mark.parametrize("base,K", [(10.0, 12), (2.0, 40)])
def test_inverse_block_class_of_a_graded_diagonal_passes(base, K):
    # alpha_j = base^-j: the inverse is exactly diagonal, although the last
    # entries lie far below 1e-10 of the largest
    rep = block_class(BandedSymbol.diagonal(lambda j: base ** -j),
                      BlockPartition.unit(K + 2), K)
    assert rep.verdict == "pass"
    assert rep.payload == {"structural_violation": None,
                           "block_ranks": [(p, 0, 1) for p in range(1, K)]}


def test_inverse_block_class_finds_a_deep_coupling_of_a_graded_band():
    # a_jj = 10^-j, and rows 10-12 coupled at their own scale: the inverse
    # is nonzero at (10, 12), whose band entries are all below 1e-10 of a_11
    entries = {(j, j): 10.0 ** -j for j in range(1, 15)}
    entries.update({(10, 11): 1e-11, (11, 10): 1e-11, (11, 12): 1e-12,
                    (12, 11): 1e-12})
    rep = block_class(BandedSymbol.from_entries(1, entries),
                      BlockPartition.unit(14), 12)
    inv = np.linalg.inv(BandedSymbol.from_entries(1, entries).window(12))
    assert inv[9, 11] != 0.0 and np.count_nonzero(inv[:10, 11:]) == 1
    assert rep.verdict == "fail"
    assert rep.payload == {"structural_violation": (10, 12),
                           "block_ranks": []}


def test_inverse_block_class_at_depth_one_tests_no_cut():
    # the L-corner of one block has no cut inside it
    rep = block_class(ex53_symbol(), BlockPartition.unit(8), 1)
    assert rep.verdict == "pass"
    assert rep.payload == {"structural_violation": None, "block_ranks": []}


def test_thm51_diagonal_family():
    s = BlockPartition.unit(8)
    reports = thm51_suite(ex53_symbol(), s, 1, 1, 6, [Box(2, 1.0)])
    verdicts = {r.name: r.verdict for r in reports}
    assert all(v in ("pass", "evidence") for v in verdicts.values())
    assert any(v == "evidence" for v in verdicts.values())


@pytest.mark.parametrize("suite,name", [(thm51_suite, "finiteness"),
                                        (prop52_suite, "box_norm_finite")])
def test_unconverged_box_quadrature_is_never_a_pass(monkeypatch, suite, name):
    monkeypatch.setattr(gaussmeas, "_MAX_POINTS", 20)
    sym = PerturbedIdentity.geometric(0.5).symbol
    reports = suite(sym, BlockPartition.unit(8), 2, 1, 4, [Box(3, 1.0)])
    finite = [r for r in reports if r.name.startswith(name)]
    assert finite and all(r.verdict == "evidence" for r in finite)
    assert all("not computable" in r.payload["detail"] for r in finite)
    assert not any("trajectory" in r.name for r in reports)


@pytest.mark.parametrize("suite,name", [(thm51_suite, "norm_trajectory"),
                                        (prop52_suite,
                                         "norm_trajectory_consistent")])
@pytest.mark.parametrize("L", [1, 3])
def test_too_short_trajectory_is_evidence(suite, name, L):
    # level 1 is skipped (box larger than the truncation): L = 3 leaves one
    # increment and L = 1 none, too few to judge either way
    reports = suite(ex53_symbol(), BlockPartition.unit(8), 1, 1, L,
                    [Box(2, 1.0)])
    traj = [r for r in reports if r.name.startswith(name + "[")]
    assert len(traj) == 2
    assert all(len(r.payload["trajectory"]) == L for r in traj)
    assert all(r.verdict == "evidence" for r in traj)


def test_ex59_trajectory_computable_with_default_budget():
    sym = PerturbedIdentity.geometric(0.5).symbol
    reports = thm51_suite(sym, BlockPartition.unit(8), 1, 1, 6, [Box(2, 1.0)])
    traj = [r for r in reports if r.name.startswith("norm_trajectory")]
    assert len(traj) == 2
    assert all(len(r.payload["trajectory"]) == 6 for r in traj)
    assert all(math.isfinite(v) for r in traj for v in r.payload["trajectory"])


@pytest.mark.parametrize("traj,verdict", [
    ([0.1, 0.5, 0.6, 0.65], "pass"),      # shrinking increments
    ([0.1, 0.2, 0.4, 0.45], "evidence"),  # a growing increment disproves nothing
    ([0.1, math.inf, 0.2, 0.25], "fail"),  # a non-finite value does
    ([0.1, 0.2, 0.3], "pass"),            # equal increments
    ([0.1, 0.2], "evidence"),             # one increment: too short
], ids=["shrinking", "growing", "nonfinite", "equal", "short"])
def test_trajectory_verdict_fails_only_a_nonfinite_value(traj, verdict):
    assert checker._trajectory_verdict(traj, 0, "pass") == verdict


@pytest.mark.parametrize("suite,name", [(thm51_suite, "finiteness"),
                                        (prop52_suite, "box_norm_finite")])
def test_no_level_within_the_dim_cap_is_evidence(suite, name):
    # s(1) = 3 exceeds both the cap and the box dims: an empty trajectory
    # computes nothing and is no pass
    reports = suite(ex53_symbol(), BlockPartition((3, 6, 9, 12, 15)), 1, 1, 4,
                    [Box(2, 1.0)], dim_cap=1)
    finite = [r for r in reports if r.name.startswith(name)]
    assert len(finite) == 2 and all(r.verdict == "evidence" for r in finite)
    assert all(r.payload == {"detail": "no truncation level within dim_cap 1: "
                                       "s(1) = 3"} for r in finite)
    assert not any("trajectory" in r.name for r in reports)


def test_default_suites_reach_every_level():
    # no dim cap by default: every level 1..L is computed
    reports = thm51_suite(ex53_symbol(), BlockPartition.unit(40), 1, 1, 40,
                          [Box(2, 1.0)])
    finite = [r for r in reports if r.name.startswith("finiteness")]
    assert all(r.params["levels"] == 40 and not r.params["dim_capped"]
               for r in finite)
    capped = thm51_suite(ex53_symbol(), BlockPartition.unit(40), 1, 1, 40,
                         [Box(2, 1.0)], dim_cap=4)
    assert all(r.params["levels"] == 4 and r.params["dim_capped"]
               for r in capped if r.name.startswith("finiteness"))


@pytest.mark.parametrize("symbol,cuts,n,L,dim_cap,points", [
    (ex53_symbol(), range(1, 9), 1, 6, None, None),  # every level computed
    (ex53_symbol(), range(1, 9), 1, 6, 4, None),     # capped at level 4
    (PerturbedIdentity.geometric(0.5).symbol, range(1, 9), 2, 4, None, 20),
    (ex53_symbol(), (3, 6, 9, 12, 15), 1, 4, 1, None),  # no level fits
], ids=["computed", "capped", "over-budget", "no-level"])
def test_suites_share_the_box_norm_layout(monkeypatch, symbol, cuts, n, L,
                                          dim_cap, points):
    # thm51 and prop52 write their box-norm reports through one path: the
    # same names, finiteness verdicts, params and payload keys, in order
    if points is not None:
        monkeypatch.setattr(gaussmeas, "_MAX_POINTS", points)
    s = BlockPartition(cuts)
    boxes = [Box(n + 1, 1.0), Box(n + 1, 0.5)]
    kinds = {"finiteness": "finite", "box_norm_finite": "finite",
             "norm_trajectory": "trajectory",
             "norm_trajectory_consistent": "trajectory"}

    def box_norms(suite):
        out = []
        for r in suite(symbol, s, n, 1, L, boxes, dim_cap=dim_cap):
            name, _, tag = r.name.partition("[")
            if name in kinds:
                out.append((kinds[name], tag, r.params, sorted(r.payload),
                            r.verdict if kinds[name] == "finite" else None))
        return out

    thm51, prop52 = box_norms(thm51_suite), box_norms(prop52_suite)
    assert thm51 and thm51 == prop52
    for kind, _, params, keys, verdict in thm51:
        assert {"i", "box_halfwidth"} <= set(params)
        if kind == "trajectory":
            assert keys == ["note", "trajectory"]
        elif verdict == "pass":
            assert keys == ["largest_norm_sq"]
            assert params["levels"] == (L if dim_cap is None else dim_cap)
            assert params["dim_capped"] is (dim_cap is not None)
        else:
            assert keys == ["detail"] and set(params) == {"i",
                                                          "box_halfwidth"}


def test_thm51_singular_corner_is_a_fail_naming_the_level():
    a = BandedSymbol.diagonal([0.9, 0.8, 0.0, 0.7, 0.6, 0.5])
    reports = thm51_suite(a, BlockPartition.unit(6), 1, 0, 6, [Box(1, 1.0)])
    finite = [r for r in reports if r.name.startswith("finiteness")]
    assert len(finite) == 1
    assert finite[0].verdict == "fail"
    assert finite[0].payload == {"detail": "singular truncation corner",
                                 "first_singular_level": 3}


def test_prop56_geometric_passes():
    s = BlockPartition.unit(64)
    reports = prop56_suite(PerturbedIdentity.geometric(0.5), s, 1, 1,
                           rho=2.0 / 3.0, L=64)
    assert all(r.verdict == "pass" for r in reports)
    pert = next(r for r in reports if r.name == "perturbation_inequality")
    assert pert.params == {"window": 24} and not hasattr(pert, "seed")
    floor = next(r for r in reports if r.name == "determinant_floor")
    assert floor.payload["min_abs_det"] > 2.0 / 3.0


def direct_prop56_values(q, win, powers, window=24, sup_window=200):
    """The prop56 checks' values from the floats q**(j-1) and q**j, as the
    suite took them before log space: the summability partials, the worst
    power entry ratio on dense window corners, and the perturbation
    inequality's C_tilde and worst ratio."""
    b = PerturbedIdentity.geometric(q)
    alpha = [q ** (j - 1) for j in range(1, max(win, sup_window) + 1)]
    p = [q ** j for j in range(1, max(win, sup_window) + 1)]
    S = 1.0 / (1.0 - q)
    entry = max(float(np.max(np.max(np.abs(
        power(b.base, k, win).window(win)), axis=1)
        / (S ** (k - 1) * np.array(alpha[:win])))) for k in powers)
    c = max(max(alpha[:sup_window]),
            max(a / w for a, w in zip(alpha[:sup_window], p)))
    pert = []
    for k in powers:
        g_k = sum(math.comb(k, i) * S ** (i - 1) for i in range(1, k + 1))
        K = (2.0 * (g_k * c) ** 2 * (2 * k + 1)
             * (max(0.5 * (1.0 + q), 2.0 / q) ** (k / 2.0)) ** 2)
        C = K + 2.0 * math.sqrt(K)
        B = power(b.symbol, k, window + k).window(window + k)[:, :window]
        scale = 1.0 / np.sqrt(p[:window])
        form = (np.eye(window) - B.T @ B) * np.outer(scale, scale)
        pert.append((float(np.max(np.abs(np.linalg.eigvalsh(form)))) / C, C))
    worst, C = max(pert)
    return {"alpha_partial": math.fsum(alpha[:win]),
            "weight_partial": math.fsum(p[:win]), "entry": entry,
            "perturbation": worst, "C_tilde": C}


@seed(29)
@settings(max_examples=40, deadline=None)
@given(st.floats(2.0 ** -1022, math.sqrt(2) / 2, exclude_max=True))
def test_prop56_log_sequences_match_the_floats(q):
    # wherever q**j is a normal float, log alpha_j and log p_j are the
    # logarithms of q**(j-1) and q**j, and where no check's window reaches
    # past that, every value the suite reports is the float evaluation's
    # (q is normal: at the least subnormal q, m = q / 2 rounds to 0)
    b = PerturbedIdentity.geometric(q)
    tiny = np.finfo(float).tiny
    J = next((j for j in range(1, 2000) if q ** j < tiny), 2000) - 1
    _, log_alpha, log_p = b.read_window(J)
    j = np.arange(1, J + 1)
    np.testing.assert_allclose(log_alpha, [math.log(q ** (i - 1)) for i in j],
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(log_p, [math.log(q ** i) for i in j],
                               rtol=1e-15, atol=0.0)
    if J < 200:  # proof_constant's sups read 200 weights
        return
    reports = {r.name: r for r in prop56_suite(
        b, BlockPartition.unit(64), 1, 1, b.det_floor, L=64)}
    want = direct_prop56_values(q, 64, (1, 2))
    got = {**reports["summability_certificates"].payload,
           "entry": reports["power_entry_bound"].payload["worst_ratio"],
           "perturbation":
               reports["perturbation_inequality"].payload["worst_ratio"],
           "C_tilde": reports["perturbation_inequality"].payload["C_tilde"]}
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_prop56_inadmissible_q_stops_early():
    s = BlockPartition.unit(16)
    reports = prop56_suite(PerturbedIdentity.geometric(0.8), s, 1, 1,
                           rho=None, L=16)
    assert reports[0].name == "precondition: q ∈ (0, √2/2)"
    assert reports[0].verdict == "fail"
    assert reports[-1].name == "conclusion"
    assert reports[-1].verdict == "fail"
    # determinant analysis was not attempted
    assert not any(r.name == "determinant_floor" for r in reports)


def test_prop56_zero_perturbation_trivial():
    base = BandedSymbol.from_entries(1, {})
    b = PerturbedIdentity(base=base, log_alpha=lambda j: j * math.log(0.5),
                          log_weights=lambda j: j * math.log(0.5), m=0.25,
                          M=0.75, alpha_sum=1.0, weight_sum=1.0)
    s = BlockPartition.unit(16)
    reports = prop56_suite(b, s, 1, 1, rho=0.5, L=16)
    assert all(r.verdict == "pass" for r in reports)


def test_prop56_singular_corner_fails_the_floor():
    # b_2 = [[1, 1], [1, 1]] is singular; half its |det| is no floor
    base = BandedSymbol.from_entries(1, {(1, 2): 1.0, (2, 1): 1.0})
    b = PerturbedIdentity(base=base,
                          log_alpha=lambda j: np.where(j <= 2, 0.0,
                                                       j * math.log(0.5)),
                          log_weights=lambda j: j * math.log(0.5), m=0.25,
                          M=0.75, alpha_sum=3.0, weight_sum=1.0)
    reports = {r.name: r for r in prop56_suite(b, BlockPartition.unit(10),
                                                1, 1, None, L=8)}
    floor = reports["determinant_floor"]
    assert floor.verdict == "fail"
    assert floor.payload["min_abs_det"] == 0.0 and floor.payload["rho"] == 0.0
    assert reports["conclusion"].verdict == "fail"


def test_prop56_window_violation_fails_the_checks_that_read_it():
    # bhat is asymmetric at (20, 21), inside the window but past the 16
    # coordinates the constructor validates: the checks that read those
    # rows report it as a failure instead of raising out of the suite
    base = BandedSymbol.from_entries(1, {(20, 21): 0.5, (21, 20): 0.25})
    b = PerturbedIdentity(base=base, log_alpha=lambda j: np.zeros(j.shape),
                          log_weights=lambda j: j * math.log(0.5), m=0.25,
                          M=0.75, alpha_sum=100.0, weight_sum=1.0)
    reports = {r.name: r for r in prop56_suite(
        b, BlockPartition.unit(40), 1, 1, 0.5, L=40)}
    detail = "perturbation not symmetric at (20, 21)"
    for name in ("symmetry_rowbound_ratio", "power_entry_bound",
                 "perturbation_inequality"):
        assert reports[name].verdict == "fail"
        assert reports[name].payload == {"detail": detail}
    assert reports["determinant_floor"].verdict == "pass"
    assert reports["conclusion"].verdict == "fail"


def test_report_serialization_plain_types():
    d = corners_normal(np.eye(2), BlockPartition.unit(2), 2).to_dict()
    assert type(d["payload"]["worst_relative_commutator"]) is float
    assert d["verdict"] == "pass"


def test_fixed_tolerances_reach_the_reports():
    # the tuning values are constants; a report still records each one, and
    # changing a constant means changing this test on purpose
    t = gram_construct(np.ones((1, 1, 1), dtype=complex))
    assert form_positivity_evidence(t).tolerances == {"tol_psd": 1e-10}
    rep = hyponormality_consequence(np.array([[0.5]]), model_degree=2)
    assert rep.tolerances == {"tol": 1e-7}
    prop52 = {r.name: r for r in prop52_suite(
        ex53_symbol(), BlockPartition.unit(8), 1, 0, 3, [Box(1, 1.0)])}
    assert prop52["inverse_in_block_class"].tolerances == {"rank_tol": 1e-10}
    prop56 = {r.name: r for r in prop56_suite(
        PerturbedIdentity.geometric(0.5), BlockPartition.unit(16), 1, 1,
        rho=None, L=16)}
    # every check but the exact perturbation sup covers max(64, s(L))
    assert prop56["power_entry_bound"].params["window"] == 64
    assert prop56["perturbation_inequality"].params["window"] == 24
    assert len(LambdaGrid().points()) == 1537
