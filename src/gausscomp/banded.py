"""Banded infinite-matrix symbols and their finite truncations.

A symbol is an infinite real matrix with finite bandwidth eta and 1-based
indices, held as its band: `bands(lo, hi)` returns columns lo..hi in the
LAPACK "ab" layout, ab[eta + i - j, j - lo] = a_ij (Golub & Van Loan 4.3),
and every view reads it.  Explicit symbols store a finite band with zero
extension; rule-based symbols produce any requested columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BandedSymbol",
    "BlockPartition",
    "PerturbedIdentity",
    "truncate",
    "block",
    "in_class_F",
    "ClassFReport",
    "det_sequence",
    "logdet_corners",
    "power",
    "power_entry_bound",
]

_RANK_TOL = 1e-10  # in_class_F, prop52_suite: relative floor of a rank


class BandedSymbol:
    """Infinite real matrix with finite bandwidth; `band(lo, hi)` returns
    columns lo..hi in the "ab" layout, or a stored band's first of them."""

    def __init__(self, eta, band):
        if eta < 0:
            raise ValueError("bandwidth must be nonnegative")
        self.eta = int(eta)
        self._band = band

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls):
        return cls.diagonal(lambda j: 1.0)

    @classmethod
    def diagonal(cls, alpha):
        """Diagonal symbol with entries alpha(j) or a finite sequence."""
        if not callable(alpha):
            seq = [float(v) for v in alpha]

            def alpha(j):
                if j > len(seq):
                    raise IndexError(f"diagonal sequence materialized to "
                                     f"{len(seq)}, index {j} requested")
                return seq[j - 1]

        return cls(0, lambda lo, hi: [[alpha(j) for j in range(lo, hi + 1)]])

    @classmethod
    def geometric_tridiagonal(cls, q, diag=1.0):
        """Tridiagonal symbol with unit diagonal and entries q**j at (j, j+1).

        The symmetric 1-banded family: b[j, j+1] = b[j+1, j] = q**j.
        """
        q = float(q)

        def band(lo, hi):
            # q**j for j = lo-1..hi; j = 0 would sit at (0, 1), outside
            pw = [q ** j if j else 0.0 for j in range(lo - 1, hi + 1)]
            return [pw[:-1], [diag] * (hi - lo + 1), pw[1:]]

        return cls(1, band)

    @classmethod
    def from_entries(cls, eta, entries):
        """Explicit symbol from a map (i, j) -> value, zero elsewhere."""
        # a negative eta admits no entry and is refused by the constructor
        ab = np.zeros((2 * max(eta, 0) + 1, max(
            [0, *(j for i, j in entries if abs(i - j) <= eta)])))
        for (i, j), v in entries.items():
            if i < 1 or j < 1:
                raise ValueError("indices are 1-based")
            if abs(i - j) <= eta:
                ab[eta + i - j, j - 1] = v
            elif v != 0.0:
                raise ValueError(f"entry ({i}, {j}) lies outside the "
                                 f"declared band eta={eta}")
        return cls(eta, lambda lo, hi: ab[:, lo - 1:hi])

    @classmethod
    def from_dense(cls, mat, eta=None):
        mat = np.asarray(mat, dtype=float)
        rows, cols = np.nonzero(mat)
        if eta is None:
            eta = int(np.max(np.abs(rows - cols), initial=0))
        entries = {(i + 1, j + 1): mat[i, j]
                   for i, j in zip(rows.tolist(), cols.tolist())}
        return cls.from_entries(eta, entries)

    # -- access -----------------------------------------------------------

    def bands(self, lo, hi):
        """Columns lo..hi (1-based), a fresh (2 eta + 1, hi - lo + 1) array
        with ab[eta + i - j, j - lo] = a_ij and zeros where i < 1."""
        if lo < 1:
            raise IndexError("indices are 1-based")
        ab = np.zeros((2 * self.eta + 1, hi - lo + 1))
        part = np.asarray(self._band(lo, hi), dtype=float)
        ab[:, :part.shape[1]] = part
        return ab

    def entry(self, i, j):
        """Entry a_{ij}, 1-based."""
        if i < 1 or j < 1:
            raise IndexError("indices are 1-based")
        if abs(i - j) > self.eta:
            return 0.0
        return float(self.bands(j, j)[self.eta + i - j, 0])

    def window(self, n):
        """Dense leading n x n corner."""
        out = np.zeros((n, n))
        flat = out.reshape(-1)  # entry (j + d, j) at d * n + j * (n + 1)
        for d, c, v in _band_rows(self.bands(1, n), self.eta, n):
            flat[d * n + c.start * (n + 1)::n + 1][:len(v)] = v
        return out

    def scaled(self, c):
        """The symbol c * a."""
        c = float(c)
        return BandedSymbol(self.eta, lambda lo, hi: c * self.bands(lo, hi))

    def plus_identity(self):
        """The symbol I + a (same bandwidth)."""
        eye = np.eye(2 * self.eta + 1)[:, [self.eta]]
        return BandedSymbol(self.eta, lambda lo, hi: self.bands(lo, hi) + eye)


def _band_rows(ab, eta, n):
    """(i - j, column slice, entries) of each band row within rows 1..n."""
    for k, row in enumerate(ab):
        c = slice(max(0, eta - k), max(0, min(n, n + eta - k)))
        yield k - eta, c, row[c]


@dataclass(frozen=True)
class BlockPartition:
    """Strictly increasing cut points s(1) < s(2) < ..., with s(0) = 0."""

    s: tuple

    def __init__(self, s: Sequence[int]):
        s = tuple(int(v) for v in s)
        if any(v <= 0 for v in s):
            raise ValueError("cut points must be positive")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("cut points must be strictly increasing")
        object.__setattr__(self, "s", s)

    @classmethod
    def unit(cls, K):
        """s(k) = k, materialized to K."""
        return cls(range(1, K + 1))

    def __len__(self):
        return len(self.s)

    def cut(self, p):
        """s(p); s(0) = 0."""
        if p == 0:
            return 0
        if not 1 <= p <= len(self.s):
            raise IndexError(f"partition index {p} out of materialized range")
        return self.s[p - 1]

    def block_rows(self, p):
        """Row range (lo, hi) of block p, 1-based inclusive."""
        return self.cut(p - 1) + 1, self.cut(p)


def truncate(a: BandedSymbol, s: BlockPartition, p: int) -> np.ndarray:
    """Leading corner a_p of size s(p) x s(p)."""
    return a.window(s.cut(p))


def block(a: BandedSymbol, s: BlockPartition, p: int, q: int) -> np.ndarray:
    """Block a_pq; the zero matrix of the correct shape when |p - q| > 1."""
    rlo, rhi = s.block_rows(p)
    clo, chi = s.block_rows(q)
    if abs(p - q) > 1:
        return np.zeros((rhi - rlo + 1, chi - clo + 1))
    return a.window(max(rhi, chi))[rlo - 1:rhi, clo - 1:chi]


@dataclass
class ClassFReport:
    ok: bool
    structural_violation: tuple | None  # offending (i, j) or None
    block_ranks: list  # (p, rank, full_rank)


def in_class_F(a: BandedSymbol, s: BlockPartition, K: int):
    """Test block-3-diagonal structure with full-or-zero off-diagonal ranks.

    Returns a ClassFReport.  Structural violations (a nonzero entry outside
    the allowed block pattern on the window s(K)) are reported separately
    from rank failures.  A block's rank counts singular values above
    `_RANK_TOL` times the largest.
    """
    W = a.window(s.cut(K))
    # zero pattern: no entry between blocks two or more apart
    part = np.searchsorted(s.s[:K], np.arange(1, len(W) + 1))  # block - 1
    far = part[None, :] - part[:, None] >= 2
    bad = np.argwhere(far & ((W != 0.0) | (W.T != 0.0)))
    if len(bad):
        i, j = bad[0] + 1
        return ClassFReport(False, (int(i), int(j)), [])
    ranks = []
    for p in range(1, K):
        blk = W[s.cut(p - 1):s.cut(p), s.cut(p):s.cut(p + 1)]
        sv = np.linalg.svd(blk, compute_uv=False)
        smax = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > _RANK_TOL * smax)) if smax > 0 else 0
        ranks.append((p, rank, s.cut(p) - s.cut(p - 1)))
    return ClassFReport(all(r in (0, full) for _, r, full in ranks), None,
                        ranks)


def det_sequence(a: BandedSymbol, s: BlockPartition, K: int) -> np.ndarray:
    """Determinants of the leading corners a_p, p = 1..K.

    Tridiagonal symbols use the three-term minor recursion
    D_n = a_nn D_{n-1} - a_{n,n-1} a_{n-1,n} D_{n-2}; anything wider falls
    back to a pivoted factorization via logdet_corners.
    """
    if a.eta <= 1:
        n = s.cut(K)
        ab = np.zeros((3, n))  # rows a_{j-1,j}, a_jj, a_{j+1,j}
        ab[1 - a.eta:2 + a.eta] = a.bands(1, n)
        up, diag, low = ab.tolist()
        minors = [1.0, *diag[:1]]
        for i in range(1, n):
            minors.append(diag[i] * minors[i]
                          - low[i - 1] * up[i] * minors[i - 1])
        return np.array([minors[s.cut(p)] for p in range(1, K + 1)])
    signs, logabs = logdet_corners(a, s, K)
    return signs * np.exp(logabs)


def logdet_corners(a: BandedSymbol, s: BlockPartition, K: int):
    """(sign, log|det|) of the corners a_p via pivoted LU.

    The corner a_K is materialized once; every a_p is its leading s(p) x s(p)
    slice.  An exactly singular corner is reported as (0.0, -inf), not an
    error.
    """
    corner = truncate(a, s, K)
    signs = np.empty(K)
    logabs = np.empty(K)
    for p in range(1, K + 1):
        n = s.cut(p)
        signs[p - 1], logabs[p - 1] = np.linalg.slogdet(corner[:n, :n])
    return signs, logabs


def power(a: BandedSymbol, k: int, window: int) -> BandedSymbol:
    """Matrix power a**k materialized on the leading window.

    Computed on an enlarged corner so that band spill cannot corrupt the
    requested window; the result has bandwidth min(k * eta, window - 1).
    """
    if k < 1:
        raise ValueError("power must be a positive integer")
    big = a.window(window + k * a.eta)
    pw = np.linalg.matrix_power(big, k)[:window, :window]
    eta = min(k * a.eta, window - 1) if window > 1 else 0
    return BandedSymbol.from_dense(pw, eta=eta)


@dataclass
class PerturbedIdentity:
    """Symmetric banded perturbation of the identity, b = I + bhat.

    Carries the row-bound sequence alpha, summable weights p with ratio
    bounds (m, M), and the certified sums of both sequences.  The symmetry
    and row-bound invariants are validated on the materialized window at
    construction and on any later window growth.
    """

    base: BandedSymbol          # the perturbation bhat
    alpha: Callable             # j -> alpha_j > 0
    weights: Callable           # j -> p_j > 0
    m: float
    M: float
    alpha_sum: float            # certified sum of alpha_j
    weight_sum: float           # certified sum of p_j
    preconditions: tuple = ()   # ((name, ok), ...) family-level admissibility
    det_floor: float | None = None  # floor of the corner determinants
    validated_window: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0 < self.m < self.M:
            raise ValueError("ratio bounds require 0 < m < M")
        self.validate_window(16)

    def validate_window(self, n):
        """Check symmetry, |bhat_ij| <= alpha_i and ratio bounds on [1, n].

        [1, validated_window] has been checked already, so only the rows
        whose band reaches past it and the new weight ratios are."""
        w = self.validated_window
        if n <= w:
            return
        eta = self.base.eta
        lo = max(1, w - eta + 1)
        c0 = max(1, lo - eta)  # the first column a visited row reaches
        # a_ij[r, t] = a_ij, a_ji[r, t] = a_ji at i = lo + r, j = i + t - eta
        a_ij, a_ji = np.zeros((2, n - c0 + 1, 2 * eta + 1))
        for d, c, v in _band_rows(self.base.bands(c0, n), eta, n - c0 + 1):
            a_ij[c.start + d:c.stop + d, eta - d] = v
            a_ji[c, eta + d] = v
        a_ij, a_ji = a_ij[lo - c0:], a_ji[lo - c0:]
        alpha = [self.alpha(k) for k in range(lo, n + 1)]
        al = np.array(alpha, dtype=float)[:, None]
        bad = (al <= 0) | (a_ij != a_ji) | (np.abs(a_ij) > al * (1 + 1e-12))
        if bad.any():  # the first violation, in the order checks are stated
            r, t = np.unravel_index(np.argmax(bad), bad.shape)
            i, j, ai, x = lo + r, lo + r + t - eta, alpha[r], float(a_ij[r, t])
            if ai <= 0:
                raise ValueError(f"alpha_{i} must be positive")
            if x != a_ji[r, t]:
                raise ValueError(f"perturbation not symmetric at ({i}, {j})")
            raise ValueError(
                f"|bhat_({i},{j})| = {abs(x)} exceeds alpha_{i} = {ai}")
        p = [self.weights(j) for j in range(max(1, w), n + 1)]
        for j, (pj, pnext) in enumerate(zip(p, p[1:]), start=max(1, w)):
            ratio = pnext / pj
            if not self.m < ratio < self.M:
                raise ValueError(
                    f"weight ratio p_{j+1}/p_{j} = {ratio} outside "
                    f"({self.m}, {self.M})"
                )
        self.validated_window = n

    @property
    def symbol(self) -> BandedSymbol:
        """The full symbol b = I + bhat."""
        return self.base.plus_identity()

    @classmethod
    def geometric(cls, q):
        """The 1-banded family bhat[j, j+1] = q**j with alpha_j = q**(j-1).

        Admissible for 0 < q < sqrt(2)/2; the constructor records the
        admissibility of the supplied q as a precondition instead of
        raising, so diagnostic runs on inadmissible q are possible.  The
        corner determinants stay above `det_floor` = 1 - q**2 / (1 - q**2),
        which is positive exactly for admissible q.
        """
        q = float(q)
        if not 0 < q < 1:
            raise ValueError("q must lie in (0, 1)")
        base = BandedSymbol.geometric_tridiagonal(q, diag=0.0)
        return cls(
            base=base,
            alpha=lambda j: q ** (j - 1),
            weights=lambda j: q ** j,
            m=0.5 * q,
            M=0.5 * (1.0 + q),
            alpha_sum=1.0 / (1.0 - q),
            weight_sum=q / (1.0 - q),
            preconditions=(
                ("q ∈ (0, √2/2)", 0 < q < math.sqrt(2) / 2),
            ),
            det_floor=1.0 - q * q / (1.0 - q * q),
        )


def power_entry_bound(b: PerturbedIdentity, k: int, window: int):
    """Check |(bhat**k)_ij| <= (sum alpha)**(k-1) * alpha_i on the window.

    Returns (ok, worst_ratio) where worst_ratio is max |entry| / bound.
    """
    b.validate_window(window + k * b.base.eta)
    pw = power(b.base, k, window).window(window)
    bounds = b.alpha_sum ** (k - 1) * np.array(
        [b.alpha(i) for i in range(1, window + 1)])
    worst = float(np.max(np.max(np.abs(pw), axis=1) / bounds))
    return worst <= 1.0 + 1e-12, worst
