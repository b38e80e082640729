"""Gaussian densities, Radon-Nikodym derivatives of linear symbols and
weighted-norm computations.

Everything is assembled in log space: the densities involved span hundreds
of orders of magnitude already in moderate dimension.  Box-restricted
Gaussian integrals are exact on the unrestricted coordinates: a Cholesky
factor of their block gives the determinant factor and the Schur complement
left on the box coordinates.  A decoupled box then factors into closed-form
erf (or, for negative curvature, erfi through Dawson's function) terms.  A
coupled box integrates one coordinate of positive curvature in closed form
(a shifted erf) and the others by a tensor Gauss-Legendre rule whose order
doubles from `_FIRST_ORDER` until two successive values agree to `_TARGET`;
a refinement that would pass `_MAX_ORDER` per coordinate or `_MAX_POINTS`
points raises instead of returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import dawsn, erf, log_ndtr

from .banded import PerturbedIdentity, power

__all__ = [
    "DivergenceError",
    "GaussianSpace",
    "RnDerivative",
    "Box",
    "rn_eval",
    "rn_power_factorization_check",
    "chi_norm_sq",
    "h_normalization",
    "diag_closed_form",
    "gaussian_box_mass",
    "infinite_product",
    "ProductResult",
    "poisson_bounds",
    "singular_scaling_demo",
    "SingularScalingReport",
    "ell2p_norm_sq",
    "perturbation_bound_check",
    "PerturbationCheck",
    "proof_constant",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SUP_WINDOW = 200  # proof_constant: coordinates of its sups


class DivergenceError(ArithmeticError):
    """Raised when the Gaussian-weighted quadratic form fails to decay in an
    unrestricted coordinate, so the integral is infinite."""


@dataclass(frozen=True)
class GaussianSpace:
    """Standard Gaussian product measure on R^kappa."""

    kappa: int

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * float(x @ x) - 0.5 * self.kappa * math.log(2.0 * math.pi)

    def density(self, x):
        return math.exp(self.log_density(x))


class RnDerivative:
    """Density of the image of the Gaussian measure under a linear map.

    For an invertible matrix A the density against the Gaussian measure is
    |det A^-1| * exp((|x|^2 - |A^-1 x|^2) / 2), evaluated here in log space.
    A log-density or a density outside the float range raises ValueError.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("symbol must be a square matrix")
        sign, logdet = np.linalg.slogdet(A)
        if sign == 0 or not np.isfinite(logdet):
            raise ValueError("symbol matrix is not invertible")
        self.A = A
        self.A_inv = np.linalg.inv(A)
        self.log_abs_det_A_inv = -logdet

    @property
    def kappa(self):
        return self.A.shape[0]

    def log_eval(self, x):
        x = np.asarray(x, dtype=float)
        y = self.A_inv @ x
        # (x - y) @ (x + y), not x @ x - y @ y: no overflow for large x
        val = self.log_abs_det_A_inv + 0.5 * float((x - y) @ (x + y))
        if not math.isfinite(val):
            raise ValueError("log-density is outside the float range")
        return val

    def __call__(self, x):
        try:
            return math.exp(self.log_eval(x))
        except OverflowError:
            raise ValueError("density is outside the float range") from None


def rn_eval(d: RnDerivative, x) -> float:
    return d(x)


def rn_power_factorization_check(A, n: int, points) -> float:
    """Worst relative deviation between the density of A^n and the product
    of shifted single-step densities, in log space, over the sample points.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    A = np.asarray(A, dtype=float)
    direct = RnDerivative(np.linalg.matrix_power(A, n))
    single = RnDerivative(A)
    inv_pows = [np.linalg.matrix_power(single.A_inv, t) for t in range(n)]
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        lhs = direct.log_eval(x)
        rhs = math.fsum(single.log_eval(ip @ x) for ip in inv_pows)
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class Box:
    """Axis-aligned hypercube [-k, k]^dims on the first `dims` coordinates."""

    dims: int
    halfwidth: float

    def __post_init__(self):
        if self.dims < 0 or not self.halfwidth > 0:
            raise ValueError("box needs dims >= 0 and positive halfwidth")


_FIRST_ORDER = 8  # Gauss-Legendre order of the first coupled-box rule
_TARGET = 1e-9  # doubling stops when successive values agree to this
_MAX_ORDER = 1500  # largest Gauss-Legendre order per coordinate
_MAX_POINTS = 4_000_000  # largest point count of one tensor rule


def _log_box_factor(s, k):
    """log of (2 pi)^{-1/2} * integral over [-k, k] of exp(-s x^2 / 2)."""
    if s > 0:
        return math.log(erf(k * math.sqrt(0.5 * s))) - 0.5 * math.log(s)
    if s == 0:
        return math.log(2.0 * k / _SQRT2PI)
    # erfi(a) = 2 exp(a^2) dawsn(a) / sqrt(pi), kept in log space
    t = -s
    a = k * math.sqrt(0.5 * t)
    return math.log(2.0 * dawsn(a)) + a * a - 0.5 * math.log(math.pi * t)


def _gauss_box_integral(E, box: Box, log_scale=0.0):
    """exp(log_scale) (2 pi)^{-kappa/2} times the integral of
    exp(-x^T E x / 2) over box x R^rest.

    The unrestricted coordinates f integrate in closed form: they contribute
    det(E_ff)^{-1/2} and leave the Schur complement
    S = E_bb - E_bf E_ff^{-1} E_fb on the box coordinates b.  A diagonal S
    factors into exact one-dimensional erf (or erfi) box factors.  A coupled
    S is integrated in closed form in its coordinate of largest positive
    diagonal entry (none if no entry is positive), and in the others by a
    single-panel tensor Gauss-Legendre rule whose order doubles until two
    successive values agree to the relative `_TARGET`.  ValueError is raised
    when `_MAX_POINTS` or `_MAX_ORDER` stops the refinement first.
    """
    E = np.asarray(E, dtype=float)
    E = 0.5 * (E + E.T)
    kappa = E.shape[0]
    d = box.dims if box is not None else 0
    if d > kappa:
        raise ValueError("box dimensions exceed ambient dimension")
    S = E[:d, :d]
    if d < kappa:
        free = E[d:, d:]
        lo = np.linalg.eigvalsh(free)[0]
        if lo <= 1e-12:
            raise DivergenceError(
                "quadratic form fails positive-definiteness on unrestricted "
                f"coordinates (min eigenvalue {lo:.3e})"
            )
        chol = np.linalg.cholesky(free)
        log_scale -= float(np.sum(np.log(np.diag(chol))))
        W = np.linalg.solve(chol, E[d:, :d])
        S = S - W.T @ W
    if d == 0:
        return math.exp(log_scale)

    diag = np.diag(S)
    off = np.max(np.abs(S - np.diag(diag)))
    if off <= 1e-13 * max(1.0, np.max(np.abs(diag))):
        return math.exp(log_scale + math.fsum(
            _log_box_factor(float(s), box.halfwidth) for s in diag))

    # condition on the coordinate j of largest curvature s > 0: given the
    # rest z, (2 pi)^{-1/2} times the integral over [-k, k] of
    # exp(-s y^2 / 2 - u y), u = S_{j,rest} z, is exp(u^2 / 2s) (the Schur
    # complement R - c c^T / s on the rest) times a shifted erf, even in u
    k, j = box.halfwidth, int(np.argmax(diag))
    s = float(diag[j])
    if s > 0:
        rest = np.arange(d) != j
        c = S[rest, j]
        Q = S[np.ix_(rest, rest)] - np.outer(c, c) / s
        log_scale -= 0.5 * math.log(s)
    else:
        Q = S
    m = Q.shape[0]
    order, prev = _FIRST_ORDER, None
    while order ** m <= _MAX_POINTS:
        t, w = leggauss(order)
        x = np.array(np.meshgrid(*[k * t] * m, indexing="ij")).reshape(m, -1)
        wts = np.prod(np.meshgrid(*[k * w] * m, indexing="ij"), 0).ravel()
        log_vals = -0.5 * np.einsum("in,ij,jn->n", x, Q, x)
        if s > 0:  # log(Phi(mu + h) - Phi(mu - h)) at mu <= 0: no cancellation
            mu, h = -np.abs(c @ x) / math.sqrt(s), k * math.sqrt(s)
            upper = log_ndtr(mu + h)
            log_vals += upper + np.log(-np.expm1(log_ndtr(mu - h) - upper))
        cur = float(wts @ np.exp(log_vals)) / (2.0 * math.pi) ** (m / 2.0)
        if prev is not None and abs(cur - prev) <= _TARGET * abs(cur):
            return math.exp(log_scale) * cur
        if 2 * order > _MAX_ORDER:
            break
        prev, order = cur, 2 * order
    raise ValueError(
        f"box quadrature did not converge to {_TARGET:g} within "
        f"max_order {_MAX_ORDER} and {_MAX_POINTS} points "
        f"(last order {order})"
    )


def chi_norm_sq(A, i: int, box: Box | None) -> float:
    """Squared L2 norm of the box-restricted density of A^i.

    Integrates the squared Radon-Nikodym density of the i-th power of the
    linear symbol over box x R^rest against the Gaussian measure.  The
    unrestricted coordinates are integrated exactly (Schur complement), a
    decoupled box exactly (erf factors), and a coupled box exactly in one
    coordinate and by tensor Gauss-Legendre quadrature in the others.
    Raises DivergenceError when the integral is infinite and ValueError
    when the box quadrature does not converge within its fixed budget.
    """
    A = np.asarray(A, dtype=float)
    kappa = A.shape[0]
    if box is None:
        box = Box(0, 1.0)
    B = np.linalg.matrix_power(np.linalg.inv(A), i)
    sign, logdetB = np.linalg.slogdet(B)
    E = 2.0 * (B.T @ B) - np.eye(kappa)
    return _gauss_box_integral(E, box, log_scale=2.0 * logdetB)


def h_normalization(A) -> float:
    """Integral of the density of A against the Gaussian measure.

    Measure transport makes this exactly 1 for every invertible A; it is
    evaluated in closed form as |det A^-1| * det(A^-T A^-1)^{-1/2}, so the
    value checks the density's normalization to rounding.
    """
    A = np.asarray(A, dtype=float)
    B = np.linalg.inv(A)
    sign, logdetB = np.linalg.slogdet(B)
    E = B.T @ B
    return _gauss_box_integral(E, Box(0, 1.0), log_scale=logdetB)


def gaussian_box_mass(a: float) -> float:
    """Mass of [-a, a] under the standard 1-D Gaussian."""
    return float(erf(a / math.sqrt(2.0)))


def diag_closed_form(alphas, i: int, n_plus_r: int, k: float, l: int) -> float:
    """Closed-form squared norm of the box-restricted density for a
    diagonal symbol diag(alpha_1, ..., alpha_l), box [-k, k]^(n+r).

    The leading n+r coordinates contribute explicit box-restricted factors
    (error-function form); every tail coordinate j in (n+r, l] contributes
    (alpha_j^i * sqrt(2 - alpha_j^(2i)))^(-1).
    """
    alpha = _materialize(alphas, l)
    if l <= n_plus_r:
        raise ValueError("truncation l must exceed the box dimension n+r")
    log_val = 0.0
    for j in range(1, n_plus_r + 1):
        a2i = alpha[j - 1] ** (2 * i)
        two = 2.0 - a2i
        if two <= 0:
            raise ValueError(
                f"2 - alpha_{j}^(2i) <= 0; box factor undefined"
            )
        # integral over [-k,k] of exp(-x^2 (1 - a^{2i}) / a^{2i}) d(mu_G)
        box_factor = math.sqrt(a2i / two) * erf(k * math.sqrt(two / (2.0 * a2i)))
        log_val += -math.log(a2i) + math.log(box_factor)
    for j in range(n_plus_r + 1, l + 1):
        aj = alpha[j - 1]
        if not 0 < aj < 1:
            raise ValueError(
                f"tail entries must satisfy 0 < alpha_{j} < 1, got {aj}"
            )
        a2i = aj ** (2 * i)
        two = 2.0 - a2i
        if two <= 0:
            raise ValueError(f"2 - alpha_{j}^(2i) <= 0; tail factor undefined")
        log_val -= i * math.log(aj) + 0.5 * math.log(two)
    return math.exp(log_val)


def _materialize(alphas, l):
    if callable(alphas):
        return [float(alphas(j)) for j in range(1, l + 1)]
    seq = [float(v) for v in alphas]
    if len(seq) < l:
        raise ValueError(f"need {l} entries, got {len(seq)}")
    return seq


# ---------------------------------------------------------------------------
# infinite products and the singular-scaling demonstration


@dataclass(frozen=True)
class ProductResult:
    status: str                 # convergent | divergent_to_zero | indeterminate
    value: float                # partial product
    remainder_bound: float | None  # bound on |limit/value - 1| when convergent
    terms_used: int


def infinite_product(terms: Callable[[int], float], n_terms: int = 10_000,
                     tail_bound: Callable[[int], float] | None = None) -> ProductResult:
    """Classify the product of positive terms t_1, t_2, ...

    Convergence is decided through summability of |1 - t_j|.  With a
    `tail_bound(N)` certificate (a bound on the tail sum of |1 - t_j|)
    the verdict is `convergent` together with a rigorous remainder bound.
    Without a certificate the partial sums can only witness divergence to
    zero; anything else is `indeterminate`.
    """
    log_p = 0.0
    dev_sum = 0.0
    dev_half = 0.0
    hit_zero = False
    any_above_one = False
    for j in range(1, n_terms + 1):
        t = float(terms(j))
        if t <= 0:
            raise ValueError(f"term {j} is not positive: {t}")
        if t > 1:
            any_above_one = True
        log_p += math.log(t)
        dev_sum += abs(1.0 - t)
        if j == n_terms // 2:
            dev_half = dev_sum
        if log_p < -745:  # exp underflows
            hit_zero = True
    value = math.exp(log_p) if log_p > -745 else 0.0
    if tail_bound is not None:
        T = float(tail_bound(n_terms))
        if T >= 1.0:
            raise ValueError("tail bound must certify a tail sum below 1")
        rem = math.expm1(T / (1.0 - T))
        return ProductResult("convergent", value, rem, n_terms)
    if dev_sum == 0.0:
        # every inspected term is exactly 1; nothing to bound
        return ProductResult("convergent", value, 0.0, n_terms)
    tail_estimate = dev_sum - dev_half
    if not any_above_one and (hit_zero or tail_estimate > 0.05):
        return ProductResult("divergent_to_zero", value, None, n_terms)
    return ProductResult("indeterminate", value, None, n_terms)


def poisson_bounds(a: float):
    """Two-sided bounds (1 - e^{-a^2/2}, 1 - e^{-a^2}) sandwiching the
    squared Gaussian mass of [-a, a]."""
    if a <= 0:
        raise ValueError("a must be positive")
    return -math.expm1(-a * a / 2.0), -math.expm1(-a * a)


@dataclass
class SingularScalingReport:
    alpha: float
    beta: float                  # exponent of the generator x_n = n^-beta
    N: int
    p_trajectory: np.ndarray     # partial products with exponent beta
    log_q_trajectory: np.ndarray  # log partial products with exponent 2 a^2 b
    p_tail_sum_bound: float      # integral-test bound on the tail of sum x_n
    p_limit_lower: float         # certified lower bound for the limit of P
    q_exponent: float            # 2 * alpha^2 * beta, < 1 (non-summable)
    sqrt_alpha_exponent: float   # beta * sqrt(alpha), < 1 by construction
    near_degenerate: bool
    note: str = (
        "beta = (1 + 1/sqrt(alpha))/2 is one admissible choice; any "
        "exponent strictly between 1 and 1/sqrt(alpha) works. The index "
        "starts at n = 2 because x_1 = 1 would annihilate the first factor."
    )


def singular_scaling_demo(alpha: float, N: int = 10_000) -> SingularScalingReport:
    """Contrast the two box-product trajectories under a singular scaling.

    With x_n = n^-beta and a_n = sqrt(2 ln(1/x_n)), the product of
    1 - exp(-a_n^2 / 2) = 1 - x_n stays bounded away from zero (its
    exponent beta > 1 is summable), while the scaled product of
    1 - exp(-alpha^2 a_n^2) = 1 - x_n^(2 alpha^2) collapses to zero
    (exponent 2 alpha^2 beta < 1 is not summable).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if N < 2:
        raise ValueError("N must be at least 2")
    beta = 0.5 * (1.0 + 1.0 / math.sqrt(alpha))
    q_exp = 2.0 * alpha * alpha * beta
    ns = np.arange(2, N + 2, dtype=float)
    x = ns ** (-beta)
    xq = ns ** (-q_exp)
    p_traj = np.cumprod(1.0 - x)
    log_q_traj = np.cumsum(np.log1p(-xq))
    # integral-test tail: sum_{n > N+1} n^-beta <= (N+1)^(1-beta) / (beta-1)
    tail = (N + 1.0) ** (1.0 - beta) / (beta - 1.0)
    x_next = (N + 2.0) ** (-beta)
    p_limit_lower = float(p_traj[-1] * math.exp(-tail / (1.0 - x_next)))
    return SingularScalingReport(
        alpha=alpha,
        beta=beta,
        N=N,
        p_trajectory=p_traj,
        log_q_trajectory=log_q_traj,
        p_tail_sum_bound=tail,
        p_limit_lower=p_limit_lower,
        q_exponent=q_exp,
        sqrt_alpha_exponent=beta * math.sqrt(alpha),
        near_degenerate=(1.0 / math.sqrt(alpha) - 1.0) < 0.05,
    )


# ---------------------------------------------------------------------------
# weighted sequence norms and the perturbation inequality


def ell2p_norm_sq(x, p) -> float:
    """Weighted squared norm sum x_j^2 p_j."""
    x = np.asarray(x, dtype=float)
    if callable(p):
        w = np.array([p(j) for j in range(1, len(x) + 1)])
    else:
        w = np.asarray(p, dtype=float)
        if len(w) != len(x):
            raise ValueError("weights and sequence length mismatch")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return float(np.sum(x * x * w))


def proof_constant(b: PerturbedIdentity, k: int) -> float:
    """The explicit inequality constant for the k-th power of b = I + bhat.

    Assembled from the proof's chain: c = max(sup alpha_j / p_j, sup
    alpha_j), both sups over the first `_SUP_WINDOW` coordinates; the
    shift-norm bound on the weighted space comes from the ratio bounds
    (m, M); the k-th power of the perturbation is controlled
    through the binomial expansion with row bounds alpha_j scaled by
    g_k = sum_i C(k, i) (sum alpha)^(i-1).
    """
    c = 0.0
    for j in range(1, _SUP_WINDOW + 1):
        aj = b.alpha(j)
        c = max(c, aj, aj / b.weights(j))
    g_k = sum(
        math.comb(k, i) * b.alpha_sum ** (i - 1) for i in range(1, k + 1)
    )
    eta_k = k * b.base.eta
    shift = max(b.M, 1.0 / b.m) ** (eta_k / 2.0)
    K = 2.0 * (g_k * c) ** 2 * (2 * eta_k + 1) * shift**2
    return K + 2.0 * math.sqrt(K)


@dataclass
class PerturbationCheck:
    """Exact supremum of the perturbation inequality's ratio on a window."""

    C_tilde: float
    worst_ratio: float   # sup of |x.x - (b^k x).(b^k x)| / (C_tilde x.Px)
    all_pass: bool
    window: int          # x ranges over vectors supported on [1, window]


def perturbation_bound_check(b: PerturbedIdentity, k: int,
                             window: int) -> PerturbationCheck:
    """Verify |sum x_j^2 - ((b^k) x)_j^2| <= C_tilde * sum x_j^2 p_j for
    every x supported on the first `window` coordinates, with C_tilde from
    the explicit constant chain.

    b^k has bandwidth k eta, so with B the first `window` columns of b^k on
    window + k eta rows, (b^k) x = B x, and the ratio is a Rayleigh
    quotient: its supremum is the largest |eigenvalue| of
    P^{-1/2} (I - B^T B) P^{-1/2}, P = diag(p_1, ..., p_window), over
    C_tilde.  Nothing is sampled.
    """
    C_tilde = proof_constant(b, k)
    n = window + k * b.base.eta
    b.validate_window(n + k * b.base.eta)
    B = power(b.symbol, k, n).window(n)[:, :window]
    p = np.array([b.weights(j) for j in range(1, window + 1)], dtype=float)
    if np.any(p <= 0):
        raise ValueError("weights must be positive")
    scale = 1.0 / np.sqrt(p)
    form = (np.eye(window) - B.T @ B) * np.outer(scale, scale)
    worst = float(np.max(np.abs(np.linalg.eigvalsh(form)))) / C_tilde
    return PerturbationCheck(C_tilde, worst, worst <= 1.0, window)
