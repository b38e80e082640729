"""Truncated tensor Hermite models for cylindrical functions.

The basis is the probabilists' Hermite family, normalized to be orthonormal
under the standard Gaussian measure, tensorized over coordinates and
truncated by total degree.  The checker's forms read exact Grams of
adjoint powers (`_power_pair_gram`).  Linear-symbol composition and its
adjoint also act on coefficient vectors through cached projection
matrices, each application with its truncation leakage (the squared norm
outside the target degree); no verdict reads that layer.

Every entry of those matrices is a Gaussian moment of a polynomial, the
integral of phi_a(P x) phi_b(Q x) exp(-x^T E x / 2).  `gaussian_gram`
whitens E by its Cholesky factor and applies the tensor Gauss-Hermite rule
that is exact for the degree at hand, so the matrices carry rounding error
only.  The transfer matrices, where E = I, apply that rule unwhitened.  A
model holds no grid of its own.

Four bounded `functools.lru_cache`s, keyed by value, hold what is built
once per process: models by (kappa, degree) and the read-only tensor rules
by (order, kappa), 256 of each; the operator matrices by the symbol's
bytes, both degrees and the direction; and the read-only basis of the side
an operator does not move, at the rule's nodes, by (order n, kappa,
degree).  The last two hold one entry each, because an operator is
re-applied to each test function right after its first application and
the operators of one sweep share their models.  An operator entry costs
(dim_out * dim_in + dim_in**2) * 8 bytes, about 0.8 MB at kappa 3, degree
8 and 9 MB at kappa 4; a basis entry costs n**kappa * dim * 8 bytes, about
1.8 MB at kappa 3, degree 8, n = 11.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .gaussmeas import DivergenceError, _adjoint_power

__all__ = [
    "HermiteModel",
    "CylFunction",
    "adjoint_apply",
    "composition_apply",
]


# sqrt(n!) for every n whose factorial is a finite double
_SQRT_FACTORIAL = np.array([math.sqrt(math.factorial(n)) for n in range(171)])


def _hermite_rows(x, max_degree):
    """Orthonormal Hermite values, degree first: shape (max_degree + 1,
    *x.shape), so each step of the recurrence writes one contiguous row."""
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for n in range(1, max_degree):
        out[n + 1] = x * out[n] - n * out[n - 1]
    out /= _SQRT_FACTORIAL[:max_degree + 1].reshape((-1,) + (1,) * x.ndim)
    return out


class HermiteModel:
    """Tensor Hermite basis on R^kappa truncated by total degree.

    Basis functions are indexed by multi-indices in graded lexicographic
    order.  A model is an index set: it evaluates its basis at given points
    and maps coefficient vectors to functions; every inner product over it
    is a coefficient dot product or an exact `gaussian_gram`.
    """

    def __init__(self, kappa, degree):
        self.kappa = int(kappa)
        self.degree = int(degree)
        self.indices = sorted(
            (
                idx
                for idx in iproduct(range(degree + 1), repeat=kappa)
                if sum(idx) <= degree
            ),
            key=lambda idx: (sum(idx), idx),
        )
        self._index_pos = {idx: b for b, idx in enumerate(self.indices)}
        self._index_array = np.array(self.indices)

    @classmethod
    @functools.lru_cache(maxsize=256)
    def get(cls, kappa, degree, /):
        """Cached model: equal (kappa, degree), passed by position, give the
        same object, so `gaussian_gram` reuses one basis for both sides."""
        return cls(kappa, degree)

    @property
    def dim(self):
        return len(self.indices)

    def basis_matrix(self, points):
        """Values of every basis function at the points, (npts, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = self._index_array
        H = _hermite_rows(pts.T, self.degree)   # (degree + 1, kappa, npts)
        out = H[idx[:, 0], 0].T
        for c in range(1, self.kappa):
            out *= H[idx[:, c], c].T
        return out

    def function(self, coef):
        coef = np.asarray(coef)
        if coef.shape != (self.dim,):
            raise ValueError(f"coefficient vector must have length {self.dim}")
        return CylFunction(self, coef)

    def basis_function(self, idx):
        coef = np.zeros(self.dim)
        coef[self._index_pos[tuple(idx)]] = 1.0
        return CylFunction(self, coef)


@dataclass
class CylFunction:
    """Coefficient vector over a Hermite model."""

    model: HermiteModel
    coef: np.ndarray

    @property
    def norm_sq(self):
        return float(np.real(np.vdot(self.coef, self.coef)))

    def eval(self, points):
        return self.model.basis_matrix(points) @ self.coef


# ---------------------------------------------------------------------------
# operators


@functools.lru_cache(maxsize=256)
def _tensor_rule(n, kappa):
    """Tensor Gauss-Hermite rule of order n on R^kappa with expectation
    weights under the standard Gaussian: read-only nodes (n**kappa, kappa)
    and weights (n**kappa,)."""
    z, w = hermegauss(n)
    grid = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(n)] * kappa, indexing="ij")], axis=-1)
    nodes, weights = z[grid], np.prod(w[grid] / w.sum(), axis=1)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gaussian_gram(E, P, model_p, Q, model_q, log_scale=0.0, order=None):
    """Exact Gram (2 pi)^(-kappa/2) int phi_p(P x) phi_q(Q x)^T
    exp(-x^T E x / 2) dx, times exp(log_scale), for phi_p, phi_q the bases
    of `model_p`, `model_q`.

    With E = L L^T (numpy's LinAlgError unless E is positive definite), the
    whitening x = L^-T z leaves det(L)^-1 times a standard Gaussian
    expectation of a polynomial of total degree deg_p + deg_q, which the
    tensor Gauss-Hermite rule of order (deg_p + deg_q) // 2 + 1 integrates
    exactly.  A given `order` only raises the rule order.
    """
    L = np.linalg.cholesky(E)
    n = max((model_p.degree + model_q.degree) // 2 + 1, order or 0)
    Z, W = _tensor_rule(n, len(L))
    X = np.linalg.solve(L.T, Z.T).T
    W = W * math.exp(log_scale - float(np.sum(np.log(np.diag(L)))))
    Vp = model_p.basis_matrix(X @ P.T)
    Vq = Vp if Q is P and model_q is model_p else \
        model_q.basis_matrix(X @ Q.T)
    return Vp.T @ (W[:, None] * Vq)


def _power_pair_gram(adj, a, model_a, b, model_b, order=None):
    """Exact Gram <S^a phi, S^b psi> for S the composition adjoint of A and
    phi, psi the bases of `model_a`, `model_b`; `adj[d]` is
    `gaussmeas._adjoint_power(A, d)`, and `order` only raises the
    Gauss-Hermite rule order.

    The weighted-composition representation
        <S^a f, S^b g> = int h_{A^a} h_{A^b} (f o A^-a) conj(g o A^-b) d mu
    involves no truncation of the operator at all.  Successive projections
    of S onto a padded polynomial model were tried first and rejected: the
    adjoint moves mass up in degree with slowly decaying tails, so
    projection leakage of order 1e-1 swamps any useful tolerance.  The
    integrand is a polynomial times exp(-x^T E x / 2) with
    E = M_a + M_b - I, M_d = A^-dT A^-d, so `gaussian_gram` evaluates it
    exactly and the only error left is rounding.  DivergenceError is raised
    when E is not positive definite: the integral is infinite.
    """
    B_a, M_a, ld_a = adj[a]
    B_b, M_b, ld_b = adj[b]
    E = M_a + M_b - np.eye(len(M_a))
    lo = float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])
    if lo <= 1e-12:
        raise DivergenceError(
            f"inner product of powers ({a}, {b}) diverges: "
            f"combined exponent matrix has min eigenvalue {lo:.3e}"
        )
    return gaussian_gram(E, B_a, model_a, B_b, model_b, ld_a + ld_b, order)


def _transfer(A, model_in: HermiteModel, model_out: HermiteModel, adjoint: bool):
    """Projection matrix S and value-Gram G for composition or its adjoint.

    S c are the target coefficients of the transformed function with source
    coefficients c; c^H G c is its full squared norm, so the leakage of one
    application is c^H (G - S^T S) c >= 0.  For composition,
    S = <phi_in o A, phi_out> and G = <phi_in o A, phi_in o A>.  For the
    adjoint T (density times inverse composition), S follows from
    <T phi_b, phi_a> = <phi_b, phi_a o A>, and G is the power-pair Gram
    <T phi_in, T phi_in>, by `_power_pair_gram`.  The rest comes from one
    tensor Gauss-Hermite rule, exact for each: the basis that A moves is
    evaluated at its nodes, the other read from `_rule_basis`.  The matrices
    are cached by value.  ValueError: A is not kappa x kappa.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (model_in.kappa,) * 2:
        raise ValueError(f"a symbol of shape {A.shape} does not act on a "
                         f"kappa = {model_in.kappa} model")
    return _transfer_by_value(A.tobytes(), A.shape, model_in.kappa,
                              model_in.degree, model_out.degree, adjoint)


@functools.lru_cache(maxsize=1)
def _rule_basis(n, kappa, degree):
    """Read-only basis of the (kappa, degree) model at the order-n tensor
    rule's nodes: the side of a transfer matrix that A does not move."""
    V = HermiteModel.get(kappa, degree).basis_matrix(_tensor_rule(n, kappa)[0])
    V.flags.writeable = False
    return V


@functools.lru_cache(maxsize=1)
def _transfer_by_value(data, shape, kappa, degree_in, degree_out, adjoint):
    A = np.frombuffer(data).reshape(shape)
    model_in = HermiteModel.get(kappa, degree_in)
    n = (degree_in + degree_out) // 2 + 1
    if adjoint:  # G first, so that no moved basis is held while it runs
        G = _power_pair_gram({1: _adjoint_power(A, 1)}, 1, model_in, 1,
                             model_in)
        Z, W = _tensor_rule(n, kappa)
        Vf = _rule_basis(n, kappa, degree_in)
        Va = HermiteModel.get(kappa, degree_out).basis_matrix(Z @ A.T)
        return Va.T @ (W[:, None] * Vf), G
    n = max(n, degree_in + 1)  # G pairs two degree_in polynomials
    Z, W = _tensor_rule(n, kappa)
    Vf = _rule_basis(n, kappa, degree_out)
    Va = model_in.basis_matrix(Z @ A.T)
    WVa = W[:, None] * Va
    return Vf.T @ WVa, Va.T @ WVa


def _apply(A, f: CylFunction, target, adjoint, pad):
    if target is None:
        target = HermiteModel.get(f.model.kappa, f.model.degree + pad)
    if target.kappa != f.model.kappa:
        raise ValueError(f"target model has kappa = {target.kappa} but the "
                         f"function's model has kappa = {f.model.kappa}")
    S, G = _transfer(A, f.model, target, adjoint)
    coef = S @ f.coef
    full = float(np.real(np.vdot(f.coef, G @ f.coef)))
    leakage = max(0.0, full - float(np.real(np.vdot(coef, coef))))
    return CylFunction(target, coef), leakage


def adjoint_apply(A, f: CylFunction, target: HermiteModel | None = None,
                  pad: int = 4):
    """Apply the composition adjoint (density times inverse composition).

    Returns (g, leakage); leakage is the squared norm falling outside the
    target truncation.  The density factor is not polynomial, so leakage
    is generically positive.  DivergenceError: the image has no finite norm.
    """
    return _apply(A, f, target, adjoint=True, pad=pad)


def composition_apply(A, f: CylFunction, target: HermiteModel | None = None,
                      pad: int = 0):
    """Apply composition by the linear map A (projection onto the target).

    Composition by a linear map preserves polynomial degree, so with a
    target of the same degree the leakage vanishes up to rounding.
    """
    return _apply(A, f, target, adjoint=False, pad=pad)
