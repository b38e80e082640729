import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss, hermeval

from gausscomp.gaussmeas import chi_norm_sq
from gausscomp.hermite import (
    CylFunction,
    HermiteModel,
    _transfer,
    adjoint_apply,
    composition_apply,
    gaussian_gram,
    gram,
    hermite_values,
)

RNG = np.random.default_rng(7)


def gauss_hermite_rule(kappa, order):
    """Tensor probabilists' Gauss-Hermite rule with expectation weights under
    the standard Gaussian on R^kappa: nodes (npts, kappa), weights (npts,).
    Exact for polynomials of degree below 2 * order in each coordinate."""
    z, w = hermegauss(order)
    grids = np.meshgrid(*[np.arange(order)] * kappa, indexing="ij")
    grid = np.stack([g.ravel() for g in grids], axis=-1)
    return z[grid], np.prod(w[grid] / w.sum(), axis=1)


def test_hermite_values_low_degrees():
    x = np.array([0.0, 1.0, -2.0])
    vals = hermite_values(x, 3)
    np.testing.assert_allclose(vals[:, 0], 1.0)
    np.testing.assert_allclose(vals[:, 1], x)
    np.testing.assert_allclose(vals[:, 2], (x**2 - 1.0) / math.sqrt(2.0))
    np.testing.assert_allclose(vals[:, 3], (x**3 - 3 * x) / math.sqrt(6.0))


@pytest.mark.parametrize("kappa,degree", [(1, 8), (2, 6), (3, 4)])
def test_basis_orthonormal(kappa, degree):
    model = HermiteModel.get(kappa, degree)
    X, W = gauss_hermite_rule(kappa, degree + 2)
    phi = model.basis_matrix(X)
    G = phi.T @ (W[:, None] * phi)
    np.testing.assert_allclose(G, np.eye(model.dim), atol=1e-10)


def test_model_dim_binomial():
    # multi-indices with |beta| <= D in kappa variables
    assert HermiteModel.get(2, 6).dim == math.comb(8, 2)
    assert HermiteModel.get(3, 4).dim == math.comb(7, 3)


def test_graded_lex_ordering():
    model = HermiteModel.get(2, 3)
    degs = [sum(idx) for idx in model.indices]
    assert degs == sorted(degs)
    assert model.indices[0] == (0, 0)


def test_project_roundtrip():
    model = HermiteModel.get(2, 5)
    coef = RNG.standard_normal(model.dim)
    f = model.function(coef)
    X, W = gauss_hermite_rule(2, model.degree + 2)
    projected = model.basis_matrix(X).T @ (W * f.eval(X))
    np.testing.assert_allclose(projected, coef, atol=1e-10)


def test_cyl_function_norm_parseval():
    model = HermiteModel.get(1, 6)
    coef = RNG.standard_normal(model.dim)
    f = model.function(coef)
    assert f.norm_sq == pytest.approx(float(coef @ coef))
    X, W = gauss_hermite_rule(1, model.degree + 2)
    assert float(W @ f.eval(X) ** 2) == pytest.approx(f.norm_sq, abs=1e-10)


def test_embed_preserves_coefficients():
    small = HermiteModel.get(2, 3)
    big = HermiteModel.get(2, 6)
    f = small.basis_function((1, 2))
    g = f.embed(big)
    assert g.norm_sq == pytest.approx(1.0)
    assert g.coef[big._index_pos[(1, 2)]] == 1.0


# -- operators --------------------------------------------------------------

def test_adjoint_identity_exact():
    model = HermiteModel.get(2, 5)
    f = model.function(RNG.standard_normal(model.dim))
    g, leak = adjoint_apply(np.eye(2), f, target=model)
    np.testing.assert_allclose(g.coef, f.coef, atol=1e-10)
    assert leak < 1e-10


def test_adjoint_of_constant_integrates_to_one():
    # S 1 = h_A; its mean coefficient is the integral of the density
    model = HermiteModel.get(1, 6)
    one = model.basis_function((0,))
    g, leak = adjoint_apply(np.array([[0.5]]), one, pad=6)
    assert g.coef[0] == pytest.approx(1.0, abs=1e-10)
    assert leak > 0.0  # density is not polynomial


def test_composition_scales_linear_coefficient():
    model = HermiteModel.get(1, 4)
    f = model.basis_function((1,))
    g, leak = composition_apply(np.array([[0.75]]), f, target=model)
    assert g.coef[model._index_pos[(1,)]] == pytest.approx(0.75, abs=1e-12)
    assert leak < 1e-12


def test_composition_preserves_degree_no_leak():
    model = HermiteModel.get(2, 6)
    A = np.array([[0.5, 0.1], [0.0, 0.4]])
    f = model.function(RNG.standard_normal(model.dim))
    g, leak = composition_apply(A, f, target=model)
    assert leak < 1e-9 * f.norm_sq


def test_adjointness_within_truncation():
    # <C_A f, g> equals <f, S g> whenever the target of S g contains every
    # degree present in f; the projection discards only components
    # orthogonal to f
    model = HermiteModel.get(2, 6)
    A = np.diag([0.5, 1.0 / 3.0])
    for _ in range(5):
        f = model.function(RNG.standard_normal(model.dim))
        g = model.function(RNG.standard_normal(model.dim))
        caf, _ = composition_apply(A, f, target=model)
        sg, _ = adjoint_apply(A, g, target=model)
        lhs = float(caf.coef @ g.coef)
        rhs = float(f.coef @ sg.coef)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_adjointness_quadrature_both_sides():
    # <C_A f, g> = <f, S g> with both sides by quadrature on a fine model
    fine = HermiteModel.get(1, 30)
    model = HermiteModel.get(1, 5)
    A = np.array([[0.5]])
    for _ in range(5):
        f = model.function(RNG.standard_normal(model.dim))
        g = model.function(RNG.standard_normal(model.dim))
        caf, _ = composition_apply(A, f, target=model)
        lhs = float(caf.coef @ g.coef)
        sg, _ = adjoint_apply(A, g, target=fine)
        rhs = float(f.embed(fine).coef @ sg.coef)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_adjoint_norm_bound_contracting():
    # |C_A f| <= sup h_A^(1/2) |f| for diagonal contracting A
    model = HermiteModel.get(1, 6)
    alpha = 0.5
    bound = math.sqrt(1.0 / alpha)  # sup of the density on the real line
    for _ in range(10):
        f = model.function(RNG.standard_normal(model.dim))
        caf, _ = composition_apply(np.array([[alpha]]), f, target=model)
        assert math.sqrt(caf.norm_sq) <= bound * math.sqrt(f.norm_sq) + 1e-12


def test_gram_identity_and_mismatch():
    model = HermiteModel.get(2, 3)
    basis = [model.basis_function(idx) for idx in model.indices[:4]]
    np.testing.assert_allclose(gram(basis, basis), np.eye(4), atol=1e-14)
    other = HermiteModel.get(2, 4)
    with pytest.raises(ValueError):
        gram(basis, [other.basis_function((0, 0))])


def test_gram_matches_quadrature():
    model = HermiteModel.get(2, 5)
    fs = [model.function(RNG.standard_normal(model.dim)) for _ in range(3)]
    G = gram(fs, fs)
    X, W = gauss_hermite_rule(2, model.degree + 2)
    for i in range(3):
        for j in range(3):
            quad = float(W @ (fs[i].eval(X) * fs[j].eval(X)))
            assert G[i, j] == pytest.approx(quad, abs=1e-10)


def test_adjoint_leakage_is_significant_for_top_degree():
    # the adjoint pushes mass up in degree; for a top-degree input most of
    # the image lies beyond any small padding, which is why bilinear forms
    # of adjoint powers are evaluated by direct quadrature elsewhere
    model = HermiteModel.get(1, 6)
    top = model.basis_function((6,))
    _, leak = adjoint_apply(np.array([[0.5]]), top, pad=4)
    assert leak > 0.1


# -- the exact Gaussian-moment kernel ---------------------------------------

def well_conditioned(kappa, seed):
    """Random A with singular values in [0.3, 1.2], so 2I - A^T A > 0."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    V, _ = np.linalg.qr(rng.standard_normal((kappa, kappa)))
    return U @ np.diag(rng.uniform(0.3, 1.2, kappa)) @ V.T


def brute_basis(points, indices):
    """Orthonormal tensor Hermite values from numpy's hermeval, (npts, dim)."""
    out = np.ones((len(points), len(indices)))
    for b, idx in enumerate(indices):
        for c, n in enumerate(idx):
            unit = np.zeros(n + 1)
            unit[n] = 1.0 / math.sqrt(math.factorial(n))
            out[:, b] *= hermeval(points[:, c], unit)
    return out


def brute_projection(A, coef, model_in, model_out, adjoint):
    """<f o A, e_b> or <T f, e_b> = <f, e_b o A> on a standard tensor
    Gauss-Hermite rule three orders above exactness."""
    X, W = gauss_hermite_rule(
        A.shape[0], (model_in.degree + model_out.degree) // 2 + 4)
    if adjoint:
        f = brute_basis(X, model_in.indices) @ coef
        e = brute_basis(X @ A.T, model_out.indices)
    else:
        f = brute_basis(X @ A.T, model_in.indices) @ coef
        e = brute_basis(X, model_out.indices)
    return e.T @ (W * f)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_operators_match_brute_force_projection(kappa, degree, adjoint, seed):
    A = well_conditioned(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    coef = np.random.default_rng(seed).standard_normal(model.dim)
    apply = adjoint_apply if adjoint else composition_apply
    g, leak = apply(A, model.function(coef))
    ref = brute_projection(A, coef, model, g.model, adjoint)
    np.testing.assert_allclose(g.coef, ref, rtol=0, atol=1e-10 * max(
        1.0, float(np.max(np.abs(ref)))))
    assert leak >= 0.0


@settings(max_examples=15, deadline=None)
@given(st.floats(0.1, 1.35), st.booleans())
def test_adjoint_gram_of_constant_closed_form(a, negative):
    # int h_a^2 d mu = 1 / (|a| sqrt(2 - a^2)) for the 1-D density of a
    a = -a if negative else a
    model = HermiteModel.get(1, 3)
    _, G = _transfer(np.array([[a]]), model, model, True)
    assert G[0, 0] == pytest.approx(1.0 / (abs(a) * math.sqrt(2.0 - a * a)),
                                    rel=1e-13)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_adjoint_gram_of_constant_is_density_norm(kappa, seed):
    # <T 1, T 1> is the squared norm of the density, in closed form
    A = well_conditioned(kappa, seed)
    model = HermiteModel.get(kappa, 2)
    _, G = _transfer(A, model, model, True)
    assert G[0, 0] == pytest.approx(chi_norm_sq(A, 1, None), rel=1e-12)


def test_adjoint_of_expanding_symbol_raises():
    model = HermiteModel.get(1, 4)
    with pytest.raises(ValueError, match="positive-definiteness"):
        adjoint_apply(np.array([[1.5]]), model.basis_function((0,)))
    with pytest.raises(ValueError):  # singular: no density
        adjoint_apply(np.zeros((1, 1)), model.basis_function((0,)))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_gram_rule_order_raise_is_rounding_only(kappa, degree, seed):
    A = well_conditioned(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    out = HermiteModel.get(kappa, degree + 4)
    I = np.eye(kappa)
    cases = [(I, I, out, A, model), (I, A, model, A, model),
             (I, A, out, I, model), (2.0 * I - A.T @ A, I, model, I, model)]
    for E, P, mp, Q, mq in cases:
        exact = gaussian_gram(E, P, mp, Q, mq)
        raised = gaussian_gram(E, P, mp, Q, mq,
                               order=(mp.degree + mq.degree) // 2 + 2)
        assert np.max(np.abs(raised - exact)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(exact))))
