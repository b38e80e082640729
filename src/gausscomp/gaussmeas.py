"""Gaussian densities, Radon-Nikodym derivatives of linear symbols and
weighted-norm computations.

Everything is assembled in log space: the densities involved span hundreds
of orders of magnitude already in moderate dimension.  A diagonal symbol's
box-restricted Gaussian integrals factor in closed form
(`_diag_closed_forms`); any other band's are exact on the unrestricted
coordinates, through one LDL^T sweep of the band of K = 2I - P^T P, P = A^i,
for all nested corners (`_band_sweep`), which integrates a run of levels
with the same box form once.  A decoupled box then factors into closed-form
erf (or, for negative curvature, erfi through Dawson's function) terms.  A
coupled box integrates one coordinate of positive curvature in closed form
(a shifted erf) and the others by a tensor Gauss-Legendre rule whose order
doubles from `_FIRST_ORDER` until two successive values agree to `_TARGET`;
a refinement that would pass `_MAX_ORDER` per coordinate or `_MAX_POINTS`
points raises instead of returning.  `_em_sums` takes the singular-scaling
sums between distant rows in O(1) by Euler-Maclaurin.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import dawsn, log_ndtr

from .banded import (BandedSymbol, PerturbedIdentity, _band_power,
                     _band_product, _cut_logdets, _dense, _transpose, power)

__all__ = [
    "DivergenceError",
    "RnDerivative",
    "Box",
    "rn_power_factorization_check",
    "chi_norm_sq",
    "h_normalization",
    "diag_closed_form",
    "gaussian_box_mass",
    "poisson_bounds",
    "singular_scaling_demo",
    "SingularScalingReport",
    "perturbation_bound_check",
    "PerturbationCheck",
    "proof_constant",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)  # exp of anything larger overflows
_SUP_WINDOW = 200  # proof_constant: coordinates of its sups
_MAX_MULTIPLIER = 1e4  # largest multiplier of _band_sweep's unpivoted sweep
_NOT_PD = ("quadratic form fails positive-definiteness on unrestricted "
           "coordinates")  # DivergenceError: the message's stem


class DivergenceError(ArithmeticError):
    """Raised when the Gaussian-weighted quadratic form fails to decay in an
    unrestricted coordinate, so the integral is infinite."""


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
        return math.log(math.erf(k * math.sqrt(0.5 * s))) - 0.5 * math.log(s)
    if s == 0:
        return math.log(2.0 * k / _SQRT2PI)
    # erfi(a) = 2 exp(a^2) dawsn(a) / sqrt(pi), kept in log space
    t = -s
    a = k * math.sqrt(0.5 * t)
    return math.log(2.0 * dawsn(a)) + a * a - 0.5 * math.log(math.pi * t)


@functools.lru_cache(maxsize=64)
def _legendre_rule(order):
    """Read-only Gauss-Legendre nodes and weights of `order` on [-1, 1]."""
    t, w = leggauss(order)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_box_integral(S, box: Box):
    """(g, v): (2 pi)^{-d/2} times the integral of exp(-x^T S x / 2) over the
    box [-k, k]^d, d = box.dims, S a d x d form, is exp(g) v.

    A diagonal S factors into exact one-dimensional erf (or erfi) box
    factors, all in g (v = 1).  A coupled S is integrated in closed form in
    its coordinate of largest positive diagonal entry s (none if no entry
    is positive), whose log factor -log(s) / 2 goes into g, and in the
    others by a single-panel tensor Gauss-Legendre rule, v.  The rule sums
    its terms after subtracting their largest log, which goes into g, so no
    term overflows; its order doubles until two successive values agree to
    the relative `_TARGET`, the previous one rescaled to the current shift.
    ValueError is raised when `_MAX_POINTS` or `_MAX_ORDER` stops the
    refinement first.
    """
    S = 0.5 * (S + S.T)
    d = box.dims
    if d == 0:
        return 0.0, 1.0

    diag = S.diagonal()
    off = np.abs(S - np.diag(diag)).max()
    if off <= 1e-13 * max(1.0, np.abs(diag).max()):
        return math.fsum(_log_box_factor(float(s), box.halfwidth)
                         for s in diag), 1.0

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
    else:
        Q = S
    m = Q.shape[0]
    order, prev, prev_shift = _FIRST_ORDER, None, 0.0
    while order ** m <= _MAX_POINTS:
        t, w = _legendre_rule(order)
        x = np.array(np.meshgrid(*[k * t] * m, indexing="ij")).reshape(m, -1)
        wts = np.prod(np.meshgrid(*[k * w] * m, indexing="ij"), 0).ravel()
        log_vals = -0.5 * np.einsum("in,ij,jn->n", x, Q, x)
        if s > 0:  # log(Phi(mu + h) - Phi(mu - h)) at mu <= 0: no cancellation
            mu, h = -np.abs(c @ x) / math.sqrt(s), k * math.sqrt(s)
            upper = log_ndtr(mu + h)
            log_vals += upper + np.log(-np.expm1(log_ndtr(mu - h) - upper))
        shift = float(log_vals.max())  # log-sum-exp: no term overflows
        cur = (float(wts @ np.exp(log_vals - shift))
               / (2.0 * math.pi) ** (m / 2.0))
        if prev is not None and abs(cur - prev * math.exp(
                min(prev_shift - shift, _LOG_MAX))) <= _TARGET * cur:
            return (-0.5 * math.log(s) if s > 0 else 0.0) + shift, cur
        if 2 * order > _MAX_ORDER:
            break
        prev, prev_shift, order = cur, shift, 2 * order
    raise ValueError(
        f"box quadrature did not converge to {_TARGET:g} within "
        f"max_order {_MAX_ORDER} and {_MAX_POINTS} points "
        f"(last order {order})"
    )


def _adjoint_power(A, d):
    """(B, B^T B, log|det B|) for B = A^-d: the density of A^d against the
    Gaussian measure is |det B| exp((|x|^2 - |B x|^2) / 2)."""
    B = np.linalg.matrix_power(np.linalg.inv(A), d)
    return B, B.T @ B, np.linalg.slogdet(B)[1]


def _box_norms(ab, eta, i, box: Box, cuts):
    """Yield `chi_norm_sq` of A_n^i on `box` per leading corner A_n, n in the
    increasing `cuts`, of the band `ab`: `_diag_closed_forms` if eta = 0."""
    return (_band_sweep(ab, eta, i, box, cuts) if eta else
            _diag_closed_forms(ab[0, :cuts[-1]].tolist(), i, box, cuts))


def _checked_norm(scale, v, n):
    """exp(scale) v, the n x n corner's box norm, or OverflowError."""
    try:  # exp(scale) v is the more accurate while exp(scale) is in range
        norm = (math.exp(scale) * v if scale <= _LOG_MAX
                else math.exp(scale + math.log(v)) if v else 0.0)
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:  # the integrand is positive on the box
        raise OverflowError(f"the box norm of the {n} x {n} corner is "
                            "outside the float range")
    return norm


def _band_sweep(ab, eta, i, box: Box, cuts):
    """`_box_norms` of any band: exp(log_scale) times the integral of a form S
    on the box's dims = min(box.dims, n) axes.  With P = A_n^i and K = 2I - P^T
    P, E = P^-T K P^-1, the box keeps T^-1, T = P_b K^-1 P_b^T, at log scale
    -log|det P| - (log|det K| + log|det T|) / 2; E_ff is positive definite iff
    T is nonsingular with as many negative eigenvalues as K (Sylvester, then
    Haynsworth's inertia additivity on E^-1), else DivergenceError.  K_n is
    K_N's corner, N = cuts[-1], but in its last w = i eta rows, so one LDL^T
    sweep of K_N's band (bandwidth g = 2w) serves every level for its rows
    below n - w - g (none while n < 2 (w + g)), and a dense Schur complement of
    K_n's rows from the last swept row m closes it.  The sweep does not pivot:
    a zero pivot or a multiplier past `_MAX_MULTIPLIER` stops it, and every
    later level closes from there (from row 0: the whole corner), whose LU
    finds a singular K.  A is scaled by a power of 2 to entries up to 1.  A
    level whose T equals the previous one's bit for bit reuses its eigenvalues
    and box integral (a settled trajectory integrates once per run of equal T);
    the inertia test and the log scale are still the level's own."""
    N, w, g, d = cuts[-1], i * eta, 2 * i * eta, box.dims
    signs, logdet_a = _cut_logdets(ab, eta, cuts)
    c = 2.0 ** math.ceil(math.log2(max(1.0, np.abs(ab[:, :N]).max())))
    a, two = ab[:, :N] / c, 2.0 * c ** (-2.0 * i)
    pbt = np.zeros((N, d))
    if N >= 2 * (w + g):  # a level to sweep: kb[k, t] = K_{k + t, k}, P_b^T
        p = _band_power(a, eta, i)
        # K_{k + 1 + x, k + 1 + y}, x >= y: np.tril_indices(g), at less cost
        tx, ty = np.nonzero(np.tri(g, dtype=bool))
        kb = -_band_product(_transpose(p, w), w, p, w)[g:].T
        kb[:, 0] += two
        nb = min(N, d + w)  # the rows of P_b^T that can be nonzero
        pbt[:nb, :nb] = _dense(p, w, nb)[:d].T
    m, neg, logd, tpre = 0, 0, 0.0, np.zeros((d, d))
    last = (None,)  # the previous level's key, eigenvalues, negatives, (g, v)
    for n, sign, ld_a in zip(cuts, signs, logdet_a.tolist()):
        if sign == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        while m < (n - w - g if n >= 2 * (w + g) else 0):  # eliminate row m
            D, col, z = kb[m, 0], kb[m, 1:], pbt[m]
            if D == 0.0 or g and np.abs(col).max() > abs(D) * _MAX_MULTIPLIER:
                break  # the guard: this level and every later one close here
            tpre += np.outer(z / D, z)
            logd, neg, m = logd + math.log(abs(D)), neg + (D < 0), m + 1
            if g:
                kb[m + ty, tx - ty] -= col[tx] * (col[ty] / D)
                pbt[m:m + g] -= np.outer(col / D, z)
        dims = min(d, n)
        T, ld_k, neg_k = tpre[:dims, :dims], logd, neg
        if n > m:  # K_n's rows from m; P_n is exact on rows past m - w
            lo = max(0, m - 2 * w)
            blk = np.linalg.matrix_power(_dense(a[:, lo:n], eta, n - lo), i)
            q, W = blk[max(0, m - w) - lo:, m - lo:], np.zeros((n - m, dims))
            S = -q.T @ q
            S.flat[::n - m + 1] += two
            W[:, lo:] = blk[:max(0, dims - lo), m - lo:].T
            if m:  # the carried block and right-hand side
                S[tx, ty] = S[ty, tx] = kb[m + ty, tx - ty]
                W[:g] = pbt[m:m + g, :dims]
            try:
                T = T + W.T @ np.linalg.solve(S, W)
            except np.linalg.LinAlgError:  # a zero pivot of S's LU
                raise DivergenceError(f"{_NOT_PD} (singular)") from None
            lam = np.linalg.eigvalsh(S).tolist()
            ld_k += math.fsum(math.log(abs(x)) for x in lam)
            neg_k += sum(x < 0 for x in lam)
        key = (T.tobytes(), dims)
        if key != last[0]:  # a new form: eigh, the test, then its integral
            lam, V = np.linalg.eigh(T)
            lams = lam.tolist()
            last = key, lams, sum(x < 0 for x in lams), None
        _, lams, neg_t, lfv = last
        if dims < n and (neg_k != neg_t or 0.0 in lams):
            raise DivergenceError(f"{_NOT_PD} ({neg_k - neg_t} negative eigen"
                                  f"values{', singular' * (0.0 in lams)})")
        if lfv is None:
            lfv = _gauss_box_integral((V / lam) @ V.T,
                                      Box(dims, box.halfwidth))
            last = key, lams, neg_t, lfv
        lf, v = lfv
        scale = -i * (ld_a + n * math.log(c)) - 0.5 * (
            ld_k + math.fsum(math.log(abs(x)) for x in lams)) + lf
        yield _checked_norm(scale, v, n)


def chi_norm_sq(A, i: int, box: Box | None) -> float:
    """Squared L2 norm of the box-restricted density of A^i.

    Integrates the squared Radon-Nikodym density of the i-th power of the
    linear symbol over box x R^rest against the Gaussian measure.  The
    unrestricted coordinates are integrated exactly from the band of A
    (`_box_norms` at one level), a decoupled box exactly (erf factors), and
    a coupled box exactly in one coordinate and by tensor Gauss-Legendre
    quadrature in the others.  Raises DivergenceError when the integral is
    infinite, ValueError when the box quadrature does not converge within
    its fixed budget and OverflowError when the norm is outside the float
    range: past it, or underflowed to 0 (the integrand is positive, so 0 is
    never the value).
    """
    box, sym = box or Box(0, 1.0), BandedSymbol.from_dense(A)
    if box.dims > len(A):
        raise ValueError("box dimensions exceed ambient dimension")
    return next(_box_norms(sym.bands(1, len(A)), sym.eta, i, box, (len(A),)))


def h_normalization(A) -> float:
    """Integral of the density of A against the Gaussian measure.

    Measure transport makes this exactly 1 for every invertible A; it is
    evaluated in closed form as |det B| * det(B^T B)^{-1/2}, B = A^-1, so
    the value checks the density's normalization to rounding.
    """
    _, M, ld = _adjoint_power(np.asarray(A, dtype=float), 1)
    return math.exp(ld - 0.5 * np.linalg.slogdet(M)[1])


def gaussian_box_mass(a: float) -> float:
    """Mass of [-a, a] under the standard 1-D Gaussian."""
    return math.erf(a / math.sqrt(2.0))


def diag_closed_form(alphas, i: int, n_plus_r: int, k: float, l: int) -> float:
    """Closed-form squared norm of the box-restricted density for a
    diagonal symbol diag(alpha_1, ..., alpha_l), box [-k, k]^(n+r).

    The leading n+r coordinates contribute explicit box-restricted factors
    (error-function form, alpha_j != 0); every tail coordinate j in (n+r, l]
    contributes (alpha_j^i * sqrt(2 - alpha_j^(2i)))^(-1), which needs
    0 < alpha_j <= 1.  A value outside the float range, one that overflows
    or one that underflows to 0, raises ValueError; a finite sequence of
    fewer than l entries raises `BandedSymbol.diagonal`'s IndexError.
    """
    alpha = BandedSymbol.diagonal(alphas).bands(1, l)[0].tolist()
    if l <= n_plus_r:
        raise ValueError("truncation l must exceed the box dimension n+r")
    for j, aj in enumerate(alpha[:n_plus_r], 1):
        if 2.0 - abs(aj) ** (2 * i) <= 0:
            raise ValueError(f"2 - alpha_{j}^(2i) <= 0; box factor undefined")
        if abs(aj) ** i == 0:
            raise ValueError(f"alpha_{j}^(2i) = 0; box factor undefined")
    levels = range(n_plus_r + 1, l + 1)
    run = _diag_closed_forms(alpha, i, Box(n_plus_r, k), levels)
    for m in levels:  # level m adds coordinate m: its domain, then its value
        if not 0 < alpha[m - 1] <= 1:
            raise ValueError(f"tail entries must satisfy 0 < alpha_{m} <= 1, "
                             f"got {alpha[m - 1]}")
        try:
            value = next(run)
        except OverflowError:
            raise ValueError(f"closed form at l = {m} is outside the float "
                             "range") from None
    return value


def _diag_closed_forms(alpha, i, box: Box, cuts):
    """`_box_norms` of diag(alpha): exp of a Neumaier-compensated prefix sum
    over coordinates j, a = |alpha_j| and t = 2 - a^2i, of -i log a -
    log(t) / 2 off the box and, by x = a^i y, -i log a + `_log_box_factor`(t,
    k / a^i) on it (erfi where t < 0).  Each level raises what `_band_sweep`
    raises there: LinAlgError for an alpha_j = 0, else DivergenceError for
    t = 0 or a t < 0 off the box, else OverflowError."""
    s, comp, bad = 0.0, 0.0, []  # the sum, its compensation; K's bad pivots
    for m, n in zip([0, *cuts], cuts):
        for j, a in enumerate(map(abs, alpha[m:n]), m):
            if a == 0.0:
                raise np.linalg.LinAlgError("Singular matrix")
            ai = math.prod([a] * i)  # as the sweep's band power: t's bits
            t = 2.0 - ai * ai
            if t == 0.0 or t < 0.0 and j >= box.dims:
                bad.append(t)
                continue
            x = -i * math.log(a) + (-0.5 * math.log(t) if j >= box.dims else
                _log_box_factor(t, box.halfwidth / ai if ai else math.inf))
            u = s + x
            comp += (s - u) + x if abs(s) >= abs(x) else (x - u) + s
            s = u
        if bad:  # a singular K, else negative pivots off the box
            raise DivergenceError(_NOT_PD + (" (singular)" if 0.0 in bad else
                                             f" ({len(bad)} negative eigen"
                                             "values)"))
        yield _checked_norm(s, math.exp(comp), n)  # no rounding of s + comp


# ---------------------------------------------------------------------------
# the singular-scaling demonstration


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


_HEAD, _GAP = 1 << 11, 1 << 9  # see `_singular_trajectories`


def _singular_exponents(alpha, N):
    """(beta, 2 alpha^2 beta) of the singular scaling over N terms."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not 2 <= N < 1 << 53:  # the last index, m = N + 1, must be a float
        raise ValueError(f"--N {N} must lie in [2, 2^53 - 1], so that every "
                         "index m <= N + 1 is exact in floats")
    beta = 0.5 * (1.0 + 1.0 / math.sqrt(alpha))
    if 2.0 * alpha * alpha * beta == 0.0:  # Q's factors 1 - m^-0 would be 0
        raise ValueError(f"--alpha {alpha!r}: 2 alpha^2 beta underflows to 0")
    return beta, 2.0 * alpha * alpha * beta


def _log1m_pow(ln_m, c, out):
    """out = log(1 - m^-c) from an increasing ln m > 0, to full precision
    (Maechler 2012): with y = c ln m, log(-expm1(-y)) up to y = ln 2, where
    1 - e^-y would cancel, and log1p(-exp(-y)) past it."""
    k = np.searchsorted(ln_m, math.log(2.0) / c, side="right")
    small, large = np.multiply(ln_m, -c, out=out)[:k], out[k:]
    np.log(np.negative(np.expm1(small, out=small), out=small), out=small)
    np.log1p(np.negative(np.exp(large, out=large), out=large), out=large)
    return out


def _em_sums(a, b, cs):
    """Sums of f(m) = log(1 - m^-c), m = a..b, for each c of cs over the
    increasing disjoint runs a..b, by Euler-Maclaurin with 16-point Gauss-
    Legendre integrals on the pieces a 2^j..min(a 2^(j+1), b).  With y = c
    ln x and h = e^-y / (1 - e^-y) < 1e243 (c > 1e-243), f = -log1p(h), f' =
    c h / x and f''' = c / x^3 (2h (c + ch + 1) + (c + 2ch + 1) ch (1 + h)):
    no step cancels or overflows."""
    k = np.frexp(-(-b // a) - 1)[1]  # pieces: the least k with a 2^k >= b
    first = np.cumsum(k) - k
    lo = np.repeat(a, k) * np.exp2(np.arange(k.sum()) - np.repeat(first, k))
    half = 0.5 * (np.minimum(2 * lo, np.repeat(b, k)) - lo)  # exact
    t, w = _legendre_rule(16)
    x = np.append((lo + half)[:, None] + half[:, None] * t, (a, b))
    y = np.multiply.outer(cs, np.log(x))
    h = np.exp(-y) / -np.expm1(-y)
    f, n, c = -np.log1p(h), len(x) - 2 * len(a), np.reshape(cs, (-1, 1, 1))
    x, h = x[n:].reshape(2, -1), h[:, n:].reshape(len(cs), 2, -1)  # a; b
    ch = c * h
    d3 = c / x ** 3 * (2 * h * (c + ch + 1) + (c + 2 * ch + 1) * ch * (1 + h))
    ends = f[:, n:].reshape(h.shape) / 2 + [[-1.0], [1.0]] * (
        ch / x / 12 - d3 / 720)  # (f(a) + f(b)) / 2 + [f'] / 12 - [f'''] / 720
    quad = f[:, :n].reshape(len(cs), -1, len(w)) @ w * half
    return np.add.reduceat(quad, first, axis=1) + ends.sum(1)


def _singular_trajectories(beta, q_exp, N, stride):
    """(n, log P_n, log Q_n) at n - 2 = 0, stride, 2 stride, ... < N and at
    n = N, N + 1: log P_n = sum log1p(-m^-beta), log Q_n = sum
    log(1 - m^-q_exp), m = 2..n.  The terms m <= `_HEAD` and the runs
    between output points shorter than `_GAP`, cheaper than `_em_sums`'
    fixed cost, are summed term by term (stride 1: one cumsum, bit for
    bit), longer runs past their first term by `_em_sums`.  -f is
    completely monotone, so their remainders add to at most 2 zeta(4) /
    (2 pi)^4 times the integral of |f''''| past `_HEAD`: below 1e-16 of
    the head's sum for every c.  A caller fails on P reaching 0, on P
    rising, read off these sums (each run's is <= 0, so none can rise), and
    on log Q not decreasing over the last two n."""
    b = np.concatenate((np.arange(2, N, stride), (N, N + 1)))  # the n
    a = np.concatenate(([2], b[:-1] + 1))  # each sum adds the run a..b
    s = np.maximum(a + 1, _HEAD + 1)  # a..s-1 is never empty
    em = b - s >= _GAP - 1  # then s..b goes to `_em_sums`
    lens = np.where(em, s, b + 1) - a  # the terms summed one by one
    start = np.cumsum(lens) - lens
    m = np.arange(2.0, lens.sum() + 2)
    if em.any():
        m += np.repeat(a - 2 - start, lens)  # skip each s..b
    ln_m, terms = np.log(m), np.empty((2, len(m)))
    for t, c in zip(terms, (beta, q_exp)):
        _log1m_pow(ln_m, c, t)
    sums = np.add.reduceat(terms, start, axis=1)
    if em.any():
        sums[:, em] += _em_sums(s[em], b[em], (beta, q_exp))
    np.add.accumulate(sums, axis=1, out=sums)
    return b, sums[0], sums[1]


def _p_limit_lower(p_last, beta, N):
    """(tail, lower): the integral-test bound on the tail sum of n^-beta
    past N + 1 and the certified lower bound it gives for lim P."""
    # sum_{n > N+1} n^-beta <= (N+1)^(1-beta) / (beta-1)
    tail = (N + 1.0) ** (1.0 - beta) / (beta - 1.0)
    x_next = (N + 2.0) ** (-beta)
    return tail, float(p_last * math.exp(-tail / (1.0 - x_next)))


def singular_scaling_demo(alpha: float, N: int = 10_000) -> SingularScalingReport:
    """Contrast the two box-product trajectories under a singular scaling.

    With x_n = n^-beta and a_n = sqrt(2 ln(1/x_n)), the product of
    1 - exp(-a_n^2 / 2) = 1 - x_n stays bounded away from zero (its
    exponent beta > 1 is summable), while the scaled product of
    1 - exp(-alpha^2 a_n^2) = 1 - x_n^(2 alpha^2) collapses to zero
    (exponent 2 alpha^2 beta < 1 is not summable).  Both trajectories are
    kept in full: `_singular_trajectories` at stride 1, P_n = exp(log P_n).
    """
    beta, q_exp = _singular_exponents(alpha, N)
    _, log_p, log_q_traj = _singular_trajectories(beta, q_exp, N, 1)
    p_traj = np.exp(log_p)
    tail, p_limit_lower = _p_limit_lower(p_traj[-1], beta, N)
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
# the perturbation inequality


def proof_constant(b: PerturbedIdentity, k: int) -> float:
    """The explicit inequality constant for the k-th power of b = I + bhat.

    Assembled from the proof's chain: c = max(sup alpha_j / p_j, sup
    alpha_j), both sups over the first `_SUP_WINDOW` coordinates of
    `read_window`, in log space; the shift-norm bound on the weighted space
    comes from the ratio bounds (m, M); the k-th power of the perturbation
    is controlled through the binomial expansion with row bounds alpha_j
    scaled by g_k = sum_i C(k, i) (sum alpha)^(i-1).
    """
    _, log_alpha, log_p = b.read_window(_SUP_WINDOW)
    c = math.exp(max(log_alpha.max(), (log_alpha - log_p).max()))
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
    scale = np.exp(-0.5 * b.read_window(window)[2])  # validated: p_j > 0
    form = (np.eye(window) - B.T @ B) * np.outer(scale, scale)
    worst = float(np.max(np.abs(np.linalg.eigvalsh(form)))) / C_tilde
    return PerturbationCheck(C_tilde, worst, worst <= 1.0, window)
