"""Numeric verdict procedures for the weak-cohyponormality class machinery.

The module hosts the coefficient-tensor layer (effective degree, the
positivity form over complex lambda, Gram-constructed admissible tensors),
the bilinear form for powers of the composition adjoint, the matrix
normality test, and the hypothesis suites for the three criteria on banded
symbols.

A sampled check of a universally quantified positivity statement can only
disprove it or accumulate evidence, never prove it; verdicts are therefore
split into "fail" (a genuine disproof), "pass" (a numeric check at stated
tolerance) and "evidence" (a sampled or truncated statement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .banded import (
    _RANK_TOL,
    BandedSymbol,
    BlockPartition,
    PerturbedIdentity,
    det_sequence,
    in_class_F,
    logdet_corners,
    power_entry_bound,
    truncate,
)
from .gaussmeas import (
    Box,
    DivergenceError,
    chi_norm_sq,
    perturbation_bound_check,
)
from .hermite import HermiteModel, gaussian_gram

__all__ = [
    "CheckReport",
    "CoefficientTensor",
    "LambdaGrid",
    "compute_n_a",
    "gram_construct",
    "form_positivity_evidence",
    "snr_form_matrix",
    "snr_form_value",
    "SnrFormResult",
    "normality_test",
    "hyponormality_consequence",
    "thm51_suite",
    "prop52_suite",
    "prop56_suite",
]

_PSD_TOL = 1e-10  # form_positivity_evidence: relative asymmetry and eigenvalue
_DEFECT_TOL = 1e-6  # snr_form_value: rounding allowance between rule orders
_HYPO_TOL = 1e-7  # hyponormality_consequence: a value past it is a disproof
_ENTRY_BOUND_WINDOW = 12  # prop56_suite: coordinates of the power entry bound


@dataclass
class CheckReport:
    """Structured pass/fail/evidence record for one verified hypothesis."""

    name: str
    verdict: str                     # pass | fail | evidence
    payload: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "payload": _plain(self.payload),
            "params": _plain(self.params),
            "tolerances": _plain(self.tolerances),
            "seed": self.seed,
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# coefficient tensors


class CoefficientTensor:
    """Complex coefficients a[p, q, i, j], p, q in 0..n, i, j in 1..m.

    The effective degree is the largest index whose row or column slice in
    the (p, q) plane carries a nonzero entry.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 4 or a.shape[0] != a.shape[1] or a.shape[2] != a.shape[3]:
            raise ValueError("tensor must have shape (n+1, n+1, m, m)")
        self.a = a
        self.n = a.shape[0] - 1
        self.m = a.shape[2]
        self.n_a = compute_n_a(self)

    @classmethod
    def zeros(cls, n, m):
        return cls(np.zeros((n + 1, n + 1, m, m), dtype=complex))

    def scaled(self, z):
        return CoefficientTensor(self.a * z)


def compute_n_a(c: CoefficientTensor) -> int:
    """Greatest degree index whose row or column slice is nonzero."""
    a = c.a if isinstance(c, CoefficientTensor) else np.asarray(c, dtype=complex)
    for d in range(a.shape[0] - 1, -1, -1):
        if np.any(a[d, :, :, :] != 0) or np.any(a[:, d, :, :] != 0):
            return d
    return 0


def gram_construct(c) -> CoefficientTensor:
    """Tensor a[p,q,i,j] = sum_t c[p,i,t] * conj(c[q,j,t]).

    The resulting positivity form is a sum of squares, so the output is
    admissible for every lambda by construction.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 3:
        raise ValueError("generator must have shape (n+1, m, T)")
    a = np.einsum("pit,qjt->pqij", c, np.conj(c))
    return CoefficientTensor(a)


@dataclass(frozen=True)
class LambdaGrid:
    """Sampling grid in the complex plane for the positivity form."""

    radii: ClassVar[tuple] = tuple(round(0.1 * k, 1) for k in range(1, 21))
    n_angles: ClassVar[int] = 64
    n_random: ClassVar[int] = 256
    random_radius: ClassVar[float] = 3.0
    seed: int = 0

    def points(self):
        pts = [0.0 + 0.0j]
        for rho in self.radii:
            for t in range(self.n_angles):
                theta = 2.0 * math.pi * t / self.n_angles
                pts.append(rho * complex(math.cos(theta), math.sin(theta)))
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_random):
            while True:
                z = complex(*(rng.uniform(-1, 1, 2) * self.random_radius))
                if abs(z) <= self.random_radius:
                    pts.append(z)
                    break
        return np.array(pts)


def form_positivity_evidence(c: CoefficientTensor,
                             grid: LambdaGrid | None = None) -> CheckReport:
    """Sample the positivity form over a lambda grid.

    For each lambda the form in z is the Hermitian matrix M with
    M[j, i] = sum_{p,q} a[p,q,i,j] lambda^p conj(lambda)^q; a negative
    eigenvalue below -_PSD_TOL * |M| at any sampled lambda is a disproof.
    A clean sweep is evidence only: sampling cannot certify all lambda.
    """
    grid = grid or LambdaGrid()
    lams = grid.points()
    lp = lams[:, None] ** np.arange(c.n + 1)
    M = np.einsum("lp,lq,pqij->lji", lp, np.conj(lp), c.a)
    Mh = np.conj(np.swapaxes(M, 1, 2))
    scale = np.maximum(1.0, np.linalg.norm(M, axis=(1, 2)))
    asym = np.linalg.norm(M - Mh, axis=(1, 2)) / scale
    lo = np.linalg.eigvalsh(0.5 * (M + Mh))[:, 0]
    max_asym = float(np.max(asym))
    flagged = (asym > _PSD_TOL) | (lo < -_PSD_TOL * scale)
    witness, worst = None, math.inf
    if np.any(flagged):
        k = int(np.argmin(np.where(flagged, lo / scale, math.inf)))
        witness, worst = lams[k], float(lo[k] / scale[k])
    ok = witness is None
    return CheckReport(
        name="form_positivity",
        verdict="evidence" if ok else "fail",
        payload={
            "witness_lambda": None if ok else [witness.real, witness.imag],
            "worst_relative_eigenvalue": None if ok else worst,
            "max_asymmetry": max_asym,
        },
        params={"n": c.n, "m": c.m, "n_a": c.n_a,
                "grid_points": len(lams)},
        tolerances={"tol_psd": _PSD_TOL},
        seed=grid.seed,
    )


# ---------------------------------------------------------------------------
# the bilinear form for powers of the composition adjoint
#
# Inner products <S^a f, S^b g> with S the composition adjoint are computed
# from the weighted-composition representation
#     <S^a f, S^b g> = int h_{A^a} h_{A^b} (f o A^-a) conj(g o A^-b) d mu,
# which involves no truncation of the operator at all.  Successive
# projections of S onto a padded polynomial model were tried first and
# rejected: the adjoint moves mass up in degree with slowly decaying tails,
# so projection leakage of order 1e-1 swamps any useful tolerance.  The
# integrand is a polynomial times exp(-x^T E x / 2) with
# E = M_a + M_b - I, M_d = A^-dT A^-d, so `gaussian_gram` evaluates it
# exactly and the only error left is rounding.


def _power_pair_grams(A, model: HermiteModel, max_power: int,
                      order: int | None = None):
    """Gram matrices G[a][b] with f^T G conj(g) = <S^a f, S^b g>; `order`
    only raises the exact Gauss-Hermite rule order."""
    A = np.asarray(A, dtype=float)
    kappa = A.shape[0]
    if kappa != model.kappa:
        raise ValueError("symbol dimension does not match the model")
    inv = np.linalg.inv(A)
    B = [np.linalg.matrix_power(inv, d) for d in range(max_power + 1)]
    logdet = [np.linalg.slogdet(b)[1] for b in B]
    M = [b.T @ b for b in B]
    grams = {}
    for a in range(max_power + 1):
        for b in range(a, max_power + 1):
            E = M[a] + M[b] - np.eye(kappa)
            lo = float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])
            if lo <= 1e-12:
                raise DivergenceError(
                    f"inner product of powers ({a}, {b}) diverges: "
                    f"combined exponent matrix has min eigenvalue {lo:.3e}"
                )
            G = gaussian_gram(E, B[a], model, B[b], model,
                              logdet[a] + logdet[b], order)
            grams[(a, b)] = G
            if a != b:
                grams[(b, a)] = G.T
    return grams


@dataclass
class SnrFormResult:
    value: float
    imag: float
    defect: float          # rounding check: change between the exact
                           # rule orders degree + 1 and degree + 2
    valid: bool


def snr_form_matrix(A, c: CoefficientTensor, r: int, model: HermiteModel,
                    order: int | None = None):
    """Matrix M, of size m (r+1) dim, of the double-sum form for T = the
    composition adjoint of A: block (i, l), (j, k) is
    sum_pq a[p, q, i, j] G[(p + k, q + l)], and the form at the stacked
    coefficient vectors U = (testfns[i][l]) is U^T M conj(U).  For a
    Hermitian M (every `gram_construct` tensor) the smallest eigenvalue is
    the exact minimum of the form over unit vectors of the model.
    """
    max_power = c.n_a + r
    grams = _power_pair_grams(A, model, max_power, order)
    G = np.array([[grams[(a, b)] for b in range(max_power + 1)]
                  for a in range(max_power + 1)])
    a = c.a[: c.n_a + 1, : c.n_a + 1]
    pk = np.add.outer(np.arange(c.n_a + 1), np.arange(r + 1))
    # G[p + k, q + l] gathered as (p, q, k, l, basis, basis)
    gathered = G[pk[:, None, :, None], pk[None, :, None, :]]
    M = np.einsum("pqij,pqklxy->ilxjky", a, gathered)
    size = c.m * (r + 1) * model.dim
    return M.reshape(size, size)


def snr_form_value(A, c: CoefficientTensor, r: int, testfns,
                   model: HermiteModel) -> SnrFormResult:
    """Value of the double-sum form for T = the composition adjoint of A.

    `testfns[i][k]` (i = 0..m-1, k = 0..r) are coefficient vectors over the
    model; the value is U^T M conj(U) with M = `snr_form_matrix`.  Every
    Gram is exact at the Gauss-Hermite order degree + 1; the value is
    computed there and at degree + 2, and the trial is valid when the two
    agree to `_DEFECT_TOL`, a rounding check, and the imaginary part is
    within `_DEFECT_TOL` too.
    """
    U = np.array([[getattr(f, "coef", f) for f in row] for row in testfns],
                 dtype=complex)
    if U.shape != (c.m, r + 1, model.dim):
        raise ValueError("need an m x (r+1) array of test functions")
    U = U.ravel()
    vals = [U @ snr_form_matrix(A, c, r, model, o) @ np.conj(U)
            for o in (model.degree + 1, model.degree + 2)]
    defect = abs(vals[1] - vals[0]) / max(1.0, abs(vals[1]))
    imag = abs(vals[1].imag) / max(1.0, abs(vals[1]))
    return SnrFormResult(
        value=float(vals[1].real),
        imag=imag,
        defect=defect,
        valid=defect <= _DEFECT_TOL and imag <= _DEFECT_TOL,
    )


# ---------------------------------------------------------------------------
# matrix-level tests


def normality_test(A, tol: float = 1e-10) -> CheckReport:
    """Frobenius-norm commutator test |A A^T - A^T A| <= tol |A|_F^2."""
    A = np.asarray(A, dtype=float)
    comm = A @ A.T - A.T @ A
    scale = float(np.linalg.norm(A)) ** 2
    resid = float(np.linalg.norm(comm))
    ok = resid <= tol * max(scale, 1e-300)
    return CheckReport(
        name="normality",
        verdict="pass" if ok else "fail",
        payload={"commutator_frobenius": resid, "scale": scale},
        tolerances={"tol": tol},
    )


def hyponormality_consequence(A, model_degree: int = 6,
                              seed: int = 0) -> CheckReport:
    """Consequence of membership in the first weak class, exact over the
    Hermite model: with T the composition adjoint, `worst_form_value` is the
    minimum over unit (f, g) of <f,f> + <g,Tf> + <Tf,g> + <Tg,Tg>, and
    `worst_adjoint_norm_excess` the maximum over unit g of
    |T* g|^2 - |Tg|^2 (T* g = G10 g: composition preserves degree).  Both
    are eigenvalues of exact Grams, so a value past `_HYPO_TOL` is a
    genuine disproof.  Nothing is sampled: `seed` is ignored, and stays
    only until the benchmark workloads stop passing it.
    """
    A = np.asarray(A, dtype=float)
    model = HermiteModel.get(A.shape[0], model_degree)
    grams = _power_pair_grams(A, model, 1)
    G00, G10, G11 = grams[(0, 0)], grams[(1, 0)], grams[(1, 1)]
    worst_form = float(np.linalg.eigvalsh(
        np.block([[G00, G10], [G10.T, G11]]))[0])
    worst_norm_gap = float(np.linalg.eigvalsh(G10.T @ G00 @ G10 - G11)[-1])
    ok = worst_form >= -_HYPO_TOL and worst_norm_gap <= _HYPO_TOL
    return CheckReport(
        name="hyponormality_consequence",
        verdict="pass" if ok else "fail",
        payload={"worst_form_value": worst_form,
                 "worst_adjoint_norm_excess": worst_norm_gap},
        params={"degree": model_degree},
        tolerances={"tol": _HYPO_TOL},
    )


# ---------------------------------------------------------------------------
# hypothesis suites


def _trajectory_verdict(traj, skip, consistent_verdict):
    """`consistent_verdict` for finite values whose increments shrink
    (Cauchy-looking), "fail" for a non-finite value or a growing increment,
    and "evidence" for fewer than two increments, too few to judge.

    The first `skip` levels are ignored: while the truncation is smaller
    than the box the restricted box grows with the level and increments are
    not comparable.
    """
    if any(not math.isfinite(v) for v in traj):
        return "fail"
    tail = traj[skip:]
    incs = [abs(b - a) for a, b in zip(tail, tail[1:])]
    if len(incs) < 2:
        return "evidence"
    shrink = all(b <= a + 1e-12 or a < 1e-12 for a, b in zip(incs, incs[1:]))
    return consistent_verdict if shrink else "fail"


def _first_singular_level(a, s, L):
    """First level p <= L whose corner a_p is singular, or None."""
    signs, logabs = logdet_corners(a, s, L)
    singular = np.flatnonzero((signs == 0) | ~np.isfinite(logabs))
    return int(singular[0]) + 1 if singular.size else None


def _box_norm_reports(a, s, i, bi, box, L, dim_cap, finite_name,
                      traj_name, consistent_verdict, detailed):
    """Finiteness and trajectory reports for the box-restricted norms of the
    i-th power over the truncations of `a` at levels 1..L, stopping before
    the first level whose size s(l) exceeds both `dim_cap` and the box.

    A divergent integral and a singular corner (named by its level) are a
    "fail"; a quadrature that does not converge is "evidence" that names the
    budget, never a "pass".  A consistent trajectory gets
    `consistent_verdict`, one too short to judge "evidence".  The `detailed`
    layout (thm51) keeps i and the halfwidth in the params of every
    finiteness report, the level count in the params and a caveat note on
    the trajectory; the other layout (prop52) carries `dim_capped` in the
    finiteness payload.
    """
    tag = f"[i={i},box={bi}]"
    params = {"i": i, "box_halfwidth": box.halfwidth}
    traj = []
    try:
        for l in range(1, L + 1):
            if s.cut(l) > max(dim_cap, box.dims):
                break
            traj.append(chi_norm_sq(truncate(a, s, l), i, Box(
                min(box.dims, s.cut(l)), box.halfwidth)))
    except (DivergenceError, ValueError) as exc:
        if isinstance(exc, np.linalg.LinAlgError):
            verdict, payload = "fail", {
                "detail": "singular truncation corner",
                "first_singular_level": _first_singular_level(a, s, L)}
        elif isinstance(exc, DivergenceError):
            verdict, payload = "fail", {"detail": str(exc)}
        else:
            verdict, payload = "evidence", {
                "detail": f"not computable within the quadrature budget: {exc}"}
        return [CheckReport(name=finite_name + tag, verdict=verdict,
                            payload=payload,
                            params=dict(params) if detailed else {})]
    capped = len(traj) < L
    finite = {"largest_norm_sq": traj[-1] if traj else None}
    if detailed:
        finite_params = dict(params, levels=len(traj), dim_capped=capped)
    else:
        finite["dim_capped"] = capped
        finite_params = dict(params)
    skip = sum(1 for l in range(1, len(traj) + 1) if s.cut(l) < box.dims)
    trajectory = {"trajectory": traj}
    if detailed:
        trajectory["note"] = ("limit behaviour consistent up to the "
                              "reported truncation depth only")
    return [
        CheckReport(name=finite_name + tag, verdict="pass", payload=finite,
                    params=finite_params),
        CheckReport(name=traj_name + tag,
                    verdict=_trajectory_verdict(traj, skip, consistent_verdict),
                    payload=trajectory, params=dict(params)),
    ]


def thm51_suite(a: BandedSymbol, s: BlockPartition, n: int, r: int, L: int,
                boxes, dim_cap: int = 6) -> list:
    """Numeric checks for the general inductive-limit criterion.

    Per power i and box: finiteness of the truncation norm (iii), the
    trajectory of box-restricted norms (v, reported as evidence since a
    limsup over all truncations cannot be certified), and the structural
    coordinate-stability conditions (vi)/(vii) which hold exactly for
    banded symbols.
    """
    reports = []
    for i in range(1, n + r + 1):
        for bi, box in enumerate(boxes):
            reports += _box_norm_reports(
                a, s, i, bi, box, L, dim_cap, "finiteness",
                "norm_trajectory", "evidence", detailed=True)
        reports.append(CheckReport(
            name=f"coordinate_stability[i={i}]",
            verdict="pass",
            payload={"bandwidth": a.eta,
                     "stable_from": f"any p with s(p) >= m + {i * a.eta}"},
            params={"i": i},
        ))
    return reports


def prop52_suite(a: BandedSymbol, s: BlockPartition, n: int, r: int, L: int,
                 boxes, dim_cap: int = 6) -> list:
    """Hypothesis suite for the block-3-diagonal inverse-symbol criterion.

    Checks, on truncations up to depth L: invertibility of the corners,
    membership of the inverse symbol in the full-or-zero-rank block class,
    normality of the inverse corners, finiteness of the box-restricted
    norms and consistency of their trajectory.
    """
    reports = []
    corner_L = truncate(a, s, L)
    # (a) invertibility of the truncations
    bad = _first_singular_level(a, s, L)
    reports.append(CheckReport(
        name="invertible_truncations",
        verdict="pass" if bad is None else "fail",
        payload={"first_singular_level": bad},
        params={"L": L},
    ))
    if bad is not None:
        return reports
    inv_L = np.linalg.inv(corner_L)
    inv_sym = BandedSymbol.from_dense(
        np.where(np.abs(inv_L) > 1e-12, inv_L, 0.0))
    # (b) inverse symbol in the block class; edge rows of the window are
    # contaminated by truncation, so check one block short
    rep = in_class_F(inv_sym, s, max(2, L - 1))
    reports.append(CheckReport(
        name="inverse_in_block_class",
        verdict="pass" if rep.ok and rep.structural_violation is None else "fail",
        payload={"structural_violation": rep.structural_violation,
                 "block_ranks": rep.block_ranks},
        tolerances={"rank_tol": _RANK_TOL},
    ))
    # (d) normality of the inverse corners
    worst = 0.0
    for k in range(1, L + 1):
        sub = inv_L[: s.cut(k), : s.cut(k)]
        rep_k = normality_test(sub, tol=1e-8)
        worst = max(worst, rep_k.payload["commutator_frobenius"]
                    / max(rep_k.payload["scale"], 1e-300))
    reports.append(CheckReport(
        name="inverse_corners_normal",
        verdict="pass" if worst <= 1e-8 else "fail",
        payload={"worst_relative_commutator": worst},
        tolerances={"tol": 1e-8},
    ))
    # (c) + (e): finiteness and trajectory of the box-restricted norms
    for i in range(1, n + r + 1):
        for bi, box in enumerate(boxes):
            reports += _box_norm_reports(
                a, s, i, bi, box, L, dim_cap, "box_norm_finite",
                "norm_trajectory_consistent", "pass", detailed=False)
    return reports


def prop56_suite(b: PerturbedIdentity, s: BlockPartition, n: int, r: int,
                 rho: float | None, L: int = 64) -> list:
    """Hypothesis suite for the perturbed-identity criterion.

    Family preconditions are checked first; a failed precondition stops the
    suite before any determinant analysis.  Then: summability certificates,
    the determinant floor |det b_k| >= rho up to depth L, the power entry
    bound on the first `_ENTRY_BOUND_WINDOW` coordinates, and the
    perturbation inequality with the proof-derived constant, exact over x
    supported on the first 24 coordinates (one eigenvalue per power,
    nothing sampled), reported with the constant of the power that attains
    the largest ratio.
    """
    reports = []
    for name, ok in b.preconditions:
        reports.append(CheckReport(
            name=f"precondition: {name}",
            verdict="pass" if ok else "fail",
            payload={},
        ))
    if any(rep.verdict == "fail" for rep in reports):
        reports.append(CheckReport(
            name="conclusion",
            verdict="fail",
            payload={"detail": "family precondition violated; determinant "
                               "analysis not attempted"},
        ))
        return reports
    # summability and ratio certificates (validated on a finite window)
    win = max(64, s.cut(min(len(s), L)))
    partial_alpha = math.fsum(b.alpha(j) for j in range(1, win + 1))
    partial_p = math.fsum(b.weights(j) for j in range(1, win + 1))
    summable_ok = (partial_alpha <= b.alpha_sum * (1 + 1e-9)
                   and partial_p <= b.weight_sum * (1 + 1e-9))
    reports.append(CheckReport(
        name="summability_certificates",
        verdict="pass" if summable_ok else "fail",
        payload={"alpha_partial": partial_alpha, "alpha_sum": b.alpha_sum,
                 "weight_partial": partial_p, "weight_sum": b.weight_sum},
        params={"window": win},
    ))
    try:
        b.validate_window(win)
        reports.append(CheckReport(
            name="symmetry_rowbound_ratio", verdict="pass",
            params={"window": win}))
    except ValueError as exc:
        reports.append(CheckReport(
            name="symmetry_rowbound_ratio", verdict="fail",
            payload={"detail": str(exc)}))
    # determinant floor
    dets = det_sequence(b.symbol, s, min(L, len(s)))
    if rho is None:
        rho = 0.5 * float(np.min(np.abs(dets)))
    floor_ok = bool(np.all(np.abs(dets) >= rho - 1e-12))
    reports.append(CheckReport(
        name="determinant_floor",
        verdict="pass" if floor_ok else "fail",
        payload={"min_abs_det": float(np.min(np.abs(dets))),
                 "rho": rho,
                 "strictly_decreasing": bool(np.all(np.diff(dets) < 0)),
                 "note": f"floor verified to depth {len(dets)}; deeper "
                         "determinants extrapolate by monotonicity"},
        params={"L": len(dets)},
    ))
    # trace-class entry bound for powers up to n + r
    worst_entry = 0.0
    for k in range(1, max(1, n + r) + 1):
        ok, ratio = power_entry_bound(b, k, _ENTRY_BOUND_WINDOW)
        worst_entry = max(worst_entry, ratio)
    reports.append(CheckReport(
        name="power_entry_bound",
        verdict="pass" if worst_entry <= 1.0 + 1e-12 else "fail",
        payload={"worst_ratio": worst_entry},
        params={"window": _ENTRY_BOUND_WINDOW, "max_power": max(1, n + r)},
    ))
    # perturbation inequality, exact on the first 24 coordinates
    worst = max((perturbation_bound_check(b, k, 24)
                 for k in range(1, max(1, n + r) + 1)),
                key=lambda chk: chk.worst_ratio)
    reports.append(CheckReport(
        name="perturbation_inequality",
        verdict="pass" if worst.all_pass else "fail",
        payload={"worst_ratio": worst.worst_ratio, "C_tilde": worst.C_tilde},
        params={"window": worst.window},
    ))
    all_ok = all(rep.verdict == "pass" for rep in reports)
    reports.append(CheckReport(
        name="conclusion",
        verdict="pass" if all_ok else "fail",
        payload={"detail": f"class-membership hypotheses verified to depth "
                           f"{min(L, len(s))}" if all_ok
                 else "at least one hypothesis failed"},
        params={"n": n, "r": r},
    ))
    return reports
