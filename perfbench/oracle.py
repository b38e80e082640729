"""Reference values the benchmark checks every result against.

Nothing here calls the program: each reference is an independent closed
form or a dense computation in numpy/scipy.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import erf

REL_TOL = 1e-6  # quadrature target is 1e-9; leave room for accumulated terms
NOT_COMPUTABLE = "not computable within the quadrature budget"


class Outcome:
    """Result of checking one operation: trusted or not, and the number of
    scale points (levels, corners, windows or model cells) it computed with
    a trusted result."""

    def __init__(self, reason=None, depth=0):
        self.reason = reason
        self.depth = depth if reason is None else 0

    @property
    def trusted(self):
        return self.reason is None


def close(value, ref, rel=REL_TOL):
    return math.isfinite(value) and abs(value - ref) <= rel * max(1.0, abs(ref))


def has_nonfinite(obj):
    """True when a NaN or an infinity appears anywhere in a nested value."""
    if isinstance(obj, dict):
        return any(has_nonfinite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(has_nonfinite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return not bool(np.all(np.isfinite(obj)))
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        return not np.isfinite(obj)
    return False


# ---------------------------------------------------------------------------
# Gaussian box integrals


def _box_gauss(S, k):
    """(2 pi)^{-d/2} * integral over [-k, k]^d of exp(-y^T S y / 2), d <= 2,
    or any d when S is diagonal.  None when no reference is available."""
    d = S.shape[0]
    if d == 0:
        return 1.0
    if np.all(S == np.diag(np.diag(S))):
        s = np.diag(S)
        return float(np.prod(erf(k * np.sqrt(s / 2.0)) / np.sqrt(s)))
    if d != 2:
        return None
    # imported here: scipy.integrate would double the measured set-up time
    from scipy import integrate
    a, b, c = S[0, 0], S[0, 1], S[1, 1]

    def outer(x):
        # the inner integral over y in closed form
        shift = b * x / c
        inner = 0.5 * (erf((k + shift) * math.sqrt(c / 2.0))
                       + erf((k - shift) * math.sqrt(c / 2.0)))
        return math.exp(-0.5 * (a - b * b / c) * x * x) * inner

    val, _ = integrate.quad(outer, -k, k, epsabs=0.0, epsrel=1e-12, limit=200)
    return val / math.sqrt(2.0 * math.pi * c)


def box_norm_sq(A, i, d, k):
    """Exact squared norm of the box-restricted density of A^i.

    The unrestricted coordinates are integrated in closed form through the
    Schur complement; math.inf when that Gaussian integral diverges, None
    when the remaining box integral has no reference here.
    """
    A = np.asarray(A, dtype=float)
    kappa = A.shape[0]
    B = np.linalg.matrix_power(np.linalg.inv(A), i)
    E = 2.0 * (B.T @ B) - np.eye(kappa)
    log_scale = 2.0 * np.linalg.slogdet(B)[1]
    Eff = E[d:, d:]
    if kappa > d:
        if np.linalg.eigvalsh(Eff)[0] <= 0:
            return math.inf
        log_scale -= 0.5 * np.linalg.slogdet(Eff)[1]
        S = E[:d, :d] - E[:d, d:] @ np.linalg.solve(Eff, E[d:, :d])
    else:
        S = E
    box = _box_gauss(S, k)
    if box is None:
        return None
    return math.exp(log_scale) * box


def density(A, x):
    """Radon-Nikodym density of the image measure of A at x."""
    Ainv = np.linalg.inv(A)
    y = Ainv @ x
    return math.exp(-np.linalg.slogdet(A)[1] + 0.5 * (x @ x - y @ y))


# ---------------------------------------------------------------------------
# determinants


def dense(entry, n):
    """Dense n x n matrix from a 1-based entry rule."""
    return np.array([[entry(i, j) for j in range(1, n + 1)]
                     for i in range(1, n + 1)])


def minors(entry, levels):
    """Leading minors det(M[:l, :l]) by dense slogdet, one per level."""
    M = dense(entry, max(levels))
    out = {}
    for l in levels:
        sign, logdet = np.linalg.slogdet(M[:l, :l])
        out[l] = sign * math.exp(logdet)
    return out


# ---------------------------------------------------------------------------
# Hermite projections


def _hermite(x, degree):
    out = np.empty((len(x), degree + 1))
    out[:, 0] = 1.0
    if degree >= 1:
        out[:, 1] = x
    for n in range(1, degree):
        out[:, n + 1] = x * out[:, n] - n * out[:, n - 1]
    return out / np.sqrt([math.factorial(n) for n in range(degree + 1)])


def _basis(points, indices):
    degree = max(sum(idx) for idx in indices)
    per = [_hermite(points[:, c], degree) for c in range(points.shape[1])]
    return np.stack([np.prod([per[c][:, idx[c]] for c in range(len(idx))],
                             axis=0) for idx in indices], axis=1)


def hermite_projection(A, coef, in_indices, out_indices, adjoint):
    """Target coefficients of composition by A (or of its adjoint) applied
    to the function with source coefficients `coef`.

    <f o A, e_b> and <T f, e_b> = <f, e_b o A> are Gaussian expectations
    of polynomials, so a tensor Gauss-Hermite rule of sufficient order is
    exact.
    """
    A = np.asarray(A, dtype=float)
    kappa = A.shape[0]
    order = (max(map(sum, in_indices)) + max(map(sum, out_indices))) // 2 + 2
    z, w = hermegauss(order)
    w = w / w.sum()
    X = np.array(list(product(z, repeat=kappa)))
    W = np.prod(np.array(list(product(w, repeat=kappa))), axis=1)
    AX = X @ A.T
    if adjoint:
        f_vals = _basis(X, in_indices) @ coef
        e_vals = _basis(AX, out_indices)
    else:
        f_vals = _basis(AX, in_indices) @ coef
        e_vals = _basis(X, out_indices)
    return e_vals.T @ (W * f_vals)


# ---------------------------------------------------------------------------
# the singular-scaling trajectory


def singular_p(alpha, n):
    """P_n = prod_{m=2}^{n} (1 - m^-beta) with beta = (1 + 1/sqrt(alpha))/2."""
    beta = 0.5 * (1.0 + 1.0 / math.sqrt(alpha))
    m = np.arange(2, n + 1, dtype=float)
    return math.exp(math.fsum(np.log1p(-m ** (-beta))))
