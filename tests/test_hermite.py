import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss, hermeval

import gausscomp
from gausscomp.gaussmeas import DivergenceError, _adjoint_power, chi_norm_sq
from gausscomp.hermite import (
    CylFunction,
    HermiteModel,
    _power_pair_gram,
    _rule_basis,
    _tensor_rule,
    _transfer,
    _transfer_by_value,
    adjoint_apply,
    composition_apply,
    gaussian_gram,
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
    vals = HermiteModel(1, 3).basis_matrix(x[:, None])
    np.testing.assert_allclose(vals[:, 0], 1.0)
    np.testing.assert_allclose(vals[:, 1], x)
    np.testing.assert_allclose(vals[:, 2], (x**2 - 1.0) / math.sqrt(2.0))
    np.testing.assert_allclose(vals[:, 3], (x**3 - 3 * x) / math.sqrt(6.0))


def test_hermite_values_match_hermeval_to_degree_20():
    x = np.linspace(-6.0, 6.0, 49)
    vals = HermiteModel(1, 20).basis_matrix(x[:, None])
    assert vals.shape == (49, 21)
    for n in range(21):
        ref = hermeval(x, np.eye(n + 1)[n]) / math.sqrt(math.factorial(n))
        np.testing.assert_allclose(vals[:, n], ref, rtol=1e-12, atol=1e-12)


def column_hermite_values(x, max_degree):
    """The recurrence one point-major column at a time."""
    out = np.empty((len(x), max_degree + 1))
    out[:, 0] = 1.0
    if max_degree >= 1:
        out[:, 1] = x
    for n in range(1, max_degree):
        out[:, n + 1] = x * out[:, n] - n * out[:, n - 1]
    for n in range(max_degree + 1):
        out[:, n] /= math.sqrt(math.factorial(n))
    return out


@pytest.mark.parametrize("kappa,degree", [(1, 20), (2, 12), (3, 6)])
def test_basis_is_the_column_recurrence_bit_for_bit(kappa, degree):
    X = RNG.standard_normal((40, kappa)) * 2.0
    model = HermiteModel.get(kappa, degree)
    expected = np.ones((40, model.dim))
    for c in range(kappa):
        expected *= column_hermite_values(X[:, c], degree)[
            :, model._index_array[:, c]]
    np.testing.assert_array_equal(model.basis_matrix(X), expected)
    np.testing.assert_array_equal(
        HermiteModel(1, degree).basis_matrix(X[:, :1]),
        column_hermite_values(X[:, 0], degree))


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


def test_model_lookup_is_cached_by_value():
    # `gaussian_gram` reuses one basis when both models are one object
    assert HermiteModel.get(2, 5) is HermiteModel.get(2, 5)
    assert HermiteModel.get(2, 5) is not HermiteModel.get(2, 4)
    assert HermiteModel.get.cache_info().maxsize == 256
    with pytest.raises(TypeError):
        HermiteModel.get(kappa=2, degree=5)


def test_transfer_is_cached_by_value():
    model = HermiteModel.get(2, 3)
    A = np.array([[0.6, 0.1], [-0.2, 0.5]])
    S, G = _transfer(A, model, HermiteModel.get(2, 5), True)
    hits = _transfer_by_value.cache_info().hits
    # an equal-valued copy in another memory layout
    S2, G2 = _transfer(A.copy(order="F"), model, HermiteModel.get(2, 5), True)
    assert _transfer_by_value.cache_info().hits == hits + 1
    assert S2 is S and G2 is G
    assert _transfer_by_value.cache_info().maxsize == 1


def test_transfer_cache_holds_the_last_operator_only():
    # each application re-reads the operator of the call before it, so one
    # entry serves every hit; a second operator evicts the first
    f = HermiteModel.get(2, 3).basis_function((1, 0))
    adjoint_apply(np.array([[0.6, 0.1], [-0.2, 0.5]]), f)
    adjoint_apply(np.array([[0.7, 0.0], [0.1, 0.4]]), f)
    assert _transfer_by_value.cache_info().currsize == 1


def test_every_cache_is_bounded():
    # an unbounded functools cache grows with the traffic it serves
    found = {}
    for info in pkgutil.iter_modules(gausscomp.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gausscomp.{info.name}")
        for obj in vars(module).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                # a classmethod or staticmethod wraps its cached function
                members = [getattr(m, "__func__", m)
                           for m in vars(obj).values()]
            for m in members:
                if hasattr(m, "cache_info"):
                    found[m.__qualname__] = m.cache_info().maxsize
    assert {"HermiteModel.get", "_tensor_rule", "_transfer_by_value",
            "_rule_basis", "_polar_ring", "_leaf_parser",
            "_legendre_rule"} <= found.keys()
    assert all(size is not None for size in found.values()), found


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
    # graded order lists a coarse model's indices first in a finer one, so
    # zero padding embeds a function unchanged
    small = HermiteModel.get(2, 3)
    big = HermiteModel.get(2, 6)
    assert big.indices[:small.dim] == small.indices
    f = small.basis_function((1, 2))
    g = big.function(np.pad(f.coef, (0, big.dim - small.dim)))
    assert g.norm_sq == pytest.approx(1.0)
    assert g.coef[big._index_pos[(1, 2)]] == 1.0
    X = np.array([[0.3, -1.2], [1.5, 0.7], [-2.0, 0.1]])
    np.testing.assert_allclose(g.eval(X), f.eval(X), rtol=1e-13)


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
        # graded order puts the coarse indices first
        rhs = float(f.coef @ sg.coef[:model.dim])
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


def test_gram_matches_quadrature():
    # the basis is orthonormal: inner products are coefficient dot products
    model = HermiteModel.get(2, 5)
    fs = [model.function(RNG.standard_normal(model.dim)) for _ in range(3)]
    G = np.array([[f.coef @ g.coef for g in fs] for f in fs])
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
    # the default target and explicit ones below, at and above the source
    # degree: composition's G must stay exact for a lower-degree target
    A = well_conditioned(kappa, seed)
    model = HermiteModel.get(kappa, degree)
    coef = np.random.default_rng(seed).standard_normal(model.dim)
    apply = adjoint_apply if adjoint else composition_apply
    targets = [None] + [HermiteModel.get(kappa, t)
                        for t in (max(0, degree - 2), degree, degree + 3)]
    for target in targets:
        g, leak = apply(A, model.function(coef), target=target)
        ref = brute_projection(A, coef, model, g.model, adjoint)
        np.testing.assert_allclose(g.coef, ref, rtol=0, atol=1e-10 * max(
            1.0, float(np.max(np.abs(ref)))))
        assert leak >= 0.0
        if not adjoint:
            # G = <phi_in o A, phi_in o A> on a rule three orders above
            X, W = gauss_hermite_rule(kappa, degree + 4)
            V = brute_basis(X @ A.T, model.indices)
            G_ref = V.T @ (W[:, None] * V)
            _, G = _transfer(A, model, g.model, False)
            np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-10 * max(
                1.0, float(np.max(np.abs(G_ref)))))


@pytest.mark.parametrize("kappa,degree", [(1, 2), (1, 16), (2, 7), (3, 4)])
@pytest.mark.parametrize("pad", [-2, 0, 4])
@pytest.mark.parametrize("adjoint", [False, True])
def test_transfer_is_the_whitened_gram_formula(kappa, degree, pad, adjoint):
    # S and G as Gaussian moments by `gaussian_gram` with E = I, as they
    # were once computed, agree with the direct rule to rounding
    A = well_conditioned(kappa, 100 * kappa + degree)
    model_in = HermiteModel.get(kappa, degree)
    model_out = HermiteModel.get(kappa, degree + pad)
    I = np.eye(kappa)
    if adjoint:
        expected = (gaussian_gram(I, A, model_out, I, model_in),
                    _power_pair_gram({1: _adjoint_power(A, 1)}, 1, model_in,
                                     1, model_in))
    else:
        expected = (gaussian_gram(I, I, model_out, A, model_in),
                    gaussian_gram(I, A, model_in, A, model_in))
    for got, ref in zip(_transfer(A, model_in, model_out, adjoint), expected):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("apply", [adjoint_apply, composition_apply])
@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (1, 2)])
def test_symbol_of_the_wrong_size_is_named(apply, shape):
    # the check comes before any cache or rule is read
    f = HermiteModel.get(2, 3).function(np.ones(10))
    caches = (_transfer_by_value, _rule_basis, _tensor_rule)
    before = [c.cache_info() for c in caches]
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\)"
                       r" does not act on a kappa = 2 model"):
        apply(0.5 * np.ones(shape), f)
    assert [c.cache_info() for c in caches] == before


@pytest.mark.parametrize("apply", [adjoint_apply, composition_apply])
def test_target_of_another_dimension_is_named(apply):
    f = HermiteModel.get(2, 3).function(np.ones(10))
    with pytest.raises(ValueError, match="target model has kappa = 3 but "
                       "the function's model has kappa = 2"):
        apply(0.5 * np.eye(2), f, target=HermiteModel.get(3, 3))


def test_rule_basis_holds_one_read_only_basis():
    V = _rule_basis(4, 2, 3)
    np.testing.assert_array_equal(
        V, HermiteModel.get(2, 3).basis_matrix(_tensor_rule(4, 2)[0]))
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
    # keyed by value: equal arguments hit, a second model evicts the first
    assert _rule_basis(4, 2, 3) is V
    assert _rule_basis(4, 2, 4).shape == (16, HermiteModel.get(2, 4).dim)
    info = _rule_basis.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    assert _rule_basis(4, 2, 3) is not V
    assert _rule_basis.cache_info().misses == info.misses + 1


@pytest.mark.parametrize("adjoint,calls", [(False, 1), (True, 2)])
def test_each_operator_evaluates_the_basis_it_moves_once(monkeypatch,
                                                         adjoint, calls):
    # the fixed side is read from `_rule_basis`; the adjoint's G evaluates
    # its own basis in `_power_pair_gram`
    apply = adjoint_apply if adjoint else composition_apply
    f = HermiteModel.get(2, 4).basis_function((1, 1))
    apply(np.array([[0.6, 0.1], [-0.2, 0.5]]), f)
    seen = []
    basis_matrix = HermiteModel.basis_matrix
    monkeypatch.setattr(HermiteModel, "basis_matrix",
                        lambda self, pts: seen.append(len(pts)) or
                        basis_matrix(self, pts))
    apply(np.array([[0.7, 0.0], [0.1, 0.4]]), f)
    assert len(seen) == calls


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
    with pytest.raises(DivergenceError):
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_gram_reads_the_rule_it_would_build(kappa, deg_p, deg_q, raise_by,
                                            seed):
    # the cached rule changes no bit: the uncached formula, with the rule
    # built here, gives the same Gram
    rng = np.random.default_rng(seed)
    A = well_conditioned(kappa, seed)
    E = 2.0 * np.eye(kappa) - A.T @ A
    P, Q = A, rng.standard_normal((kappa, kappa))
    mp, mq = HermiteModel.get(kappa, deg_p), HermiteModel.get(kappa, deg_q)
    n = (deg_p + deg_q) // 2 + 1 + raise_by
    log_scale = float(rng.uniform(-1.0, 1.0))
    L = np.linalg.cholesky(E)
    Z, W = gauss_hermite_rule(kappa, n)
    X = np.linalg.solve(L.T, Z.T).T
    W = W * math.exp(log_scale - float(np.sum(np.log(np.diag(L)))))
    expected = mp.basis_matrix(X @ P.T).T @ (W[:, None] *
                                             mq.basis_matrix(X @ Q.T))
    got = gaussian_gram(E, P, mp, Q, mq, log_scale,
                        order=n if raise_by else None)
    np.testing.assert_array_equal(got, expected)


def test_tensor_rule_is_cached_and_read_only():
    Z, W = _tensor_rule(4, 2)
    assert Z.shape == (16, 2) and W.shape == (16,)
    assert _tensor_rule(4, 2)[0] is Z
    assert _tensor_rule.cache_info().maxsize == 256
    for arr in (Z, W):
        with pytest.raises(ValueError):
            arr[0] = 1.0
