"""Truncated tensor Hermite models for cylindrical functions.

The basis is the probabilists' Hermite family, normalized to be orthonormal
under the standard Gaussian measure, tensorized over coordinates and
truncated by total degree.  Linear-symbol composition and its adjoint act
on coefficient vectors through cached projection matrices, and every
application reports its truncation leakage (the squared norm that falls
outside the target degree).

Every entry of those matrices is a Gaussian moment of a polynomial, the
integral of phi_a(P x) phi_b(Q x) exp(-x^T E x / 2).  `gaussian_gram`
whitens E by its Cholesky factor and applies the tensor Gauss-Hermite rule
that is exact for the degree at hand, so the matrices carry rounding error
only.  It is the only Gauss-Hermite rule here: a model holds no grid of
its own.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

__all__ = [
    "HermiteModel",
    "CylFunction",
    "adjoint_apply",
    "composition_apply",
    "gram",
    "hermite_values",
]


def hermite_values(points, max_degree):
    """Orthonormal probabilists' Hermite values He_n(x)/sqrt(n!).

    Returns an array of shape (len(points), max_degree + 1).
    """
    x = np.asarray(points, dtype=float)
    out = np.empty((len(x), max_degree + 1))
    out[:, 0] = 1.0
    if max_degree >= 1:
        out[:, 1] = x
    for n in range(1, max_degree):
        out[:, n + 1] = x * out[:, n] - n * out[:, n - 1]
    for n in range(max_degree + 1):
        out[:, n] /= math.sqrt(math.factorial(n))
    return out


class _LRU(OrderedDict):
    """Cache keyed by value and bounded to `size` entries; the least
    recently used entry is evicted first."""

    def __init__(self, size=256):
        super().__init__()
        self.size = size

    def fetch(self, key, compute):
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = compute()
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class HermiteModel:
    """Tensor Hermite basis on R^kappa truncated by total degree.

    Basis functions are indexed by multi-indices in graded lexicographic
    order.  A model is an index set: it evaluates its basis at given points
    and maps coefficient vectors to functions; every inner product over it
    is a coefficient dot product or an exact `gaussian_gram`.
    """

    _cache = _LRU()

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
    def get(cls, kappa, degree):
        """Cached model lookup, so that equal (kappa, degree) give the same
        object: `gram` and `CylFunction.embed` compare models by identity."""
        return cls._cache.fetch((kappa, degree), lambda: cls(kappa, degree))

    @property
    def dim(self):
        return len(self.indices)

    def basis_matrix(self, points):
        """Values of every basis function at the points, (npts, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = self._index_array
        out = hermite_values(pts[:, 0], self.degree)[:, idx[:, 0]]
        for c in range(1, self.kappa):
            out *= hermite_values(pts[:, c], self.degree)[:, idx[:, c]]
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

    def embed(self, target: HermiteModel):
        """Inject coefficients into a model of larger degree, same kappa."""
        if target is self.model:
            return self
        if target.kappa != self.model.kappa or target.degree < self.model.degree:
            raise ValueError("target model must extend the source model")
        coef = np.zeros(target.dim, dtype=self.coef.dtype)
        for b, idx in enumerate(self.model.indices):
            coef[target._index_pos[idx]] = self.coef[b]
        return CylFunction(target, coef)


# ---------------------------------------------------------------------------
# operators

_op_cache = _LRU()


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
    z, w = hermegauss(n)
    grid = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(n)] * len(L), indexing="ij")], axis=-1)
    X = np.linalg.solve(L.T, z[grid].T).T
    W = np.prod(w[grid] / w.sum(), axis=1) * math.exp(
        log_scale - float(np.sum(np.log(np.diag(L)))))
    Vp = model_p.basis_matrix(X @ P.T)
    Vq = Vp if Q is P and model_q is model_p else \
        model_q.basis_matrix(X @ Q.T)
    return Vp.T @ (W[:, None] * Vq)


def _transfer(A, model_in: HermiteModel, model_out: HermiteModel, adjoint: bool):
    """Projection matrix S and value-Gram G for composition or its adjoint.

    S c are the target coefficients of the transformed function with source
    coefficients c; c^H G c is its full squared norm, so the leakage of one
    application is c^H (G - S^T S) c >= 0.  For composition,
    S = <phi_in o A, phi_out> and G = <phi_in o A, phi_in o A>.  For the
    adjoint T (density times inverse composition), S follows from
    <T phi_b, phi_a> = <phi_b, phi_a o A>, and the substitution y = A^-1 x
    turns G into a Gaussian moment with exponent K = 2I - A^T A and factor
    |det A|^-1.  Every entry is computed exactly by `gaussian_gram`; the
    matrices are cached by value.
    """
    A = np.asarray(A, dtype=float)
    I = np.eye(model_in.kappa)

    def compute():
        if not adjoint:
            return (gaussian_gram(I, I, model_out, A, model_in),
                    gaussian_gram(I, A, model_in, A, model_in))
        K = 2.0 * I - A.T @ A
        if float(np.linalg.eigvalsh(K)[0]) <= 1e-12:
            raise ValueError(
                "adjoint image is not square-integrable: combined exponent "
                "matrix fails positive-definiteness"
            )
        sign, logdet = np.linalg.slogdet(A)
        if sign == 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return (gaussian_gram(I, A, model_out, I, model_in),
                gaussian_gram(K, I, model_in, I, model_in, -logdet))

    key = (A.tobytes(), A.shape, model_in.kappa, model_in.degree,
           model_out.degree, adjoint)
    return _op_cache.fetch(key, compute)


def _apply(A, f: CylFunction, target, adjoint, pad):
    if target is None:
        target = HermiteModel.get(f.model.kappa, f.model.degree + pad)
    if target.kappa != f.model.kappa:
        raise ValueError("dimension mismatch between symbol and model")
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
    is generically positive.
    """
    return _apply(A, f, target, adjoint=True, pad=pad)


def composition_apply(A, f: CylFunction, target: HermiteModel | None = None,
                      pad: int = 0):
    """Apply composition by the linear map A (projection onto the target).

    Composition by a linear map preserves polynomial degree, so with a
    target of the same degree the leakage vanishes up to rounding.
    """
    return _apply(A, f, target, adjoint=False, pad=pad)


def gram(fs, gs):
    """Matrix of inner products <f_i, g_j> by coefficient dot products."""
    if not fs or not gs:
        return np.zeros((len(fs), len(gs)))
    model = fs[0].model
    for h in list(fs) + list(gs):
        if h.model is not model:
            raise ValueError("all functions must share one model")
    F = np.stack([f.coef for f in fs])
    G = np.stack([g.coef for g in gs])
    return F @ np.conj(G).T
