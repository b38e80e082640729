"""Banded infinite-matrix symbols and their finite truncations.

A symbol is an infinite real matrix with finite bandwidth eta and 1-based
indices, held as its band: `bands(lo, hi)` returns columns lo..hi in the
LAPACK "ab" layout, ab[eta + i - j, j - lo] = a_ij (Golub & Van Loan 4.3),
which every view reads.  The band arithmetic is one product (`_band_product`,
which `_band_power` folds) and one transpose (`_transpose`), and block ranks
have one rule (`_band_ranks`).  Explicit symbols store a finite band with
zero extension; rule-based symbols produce any requested columns.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
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
    "power",
    "power_entry_bound",
]

_RANK_TOL = 1e-10  # _band_ranks: relative floor of a rank
_RANK_BYTES = 1 << 24  # _band_ranks: padded blocks per batched SVD, in bytes


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
        return _dense(self.bands(1, n), self.eta, n)

    def scaled(self, c):
        """The symbol c * a."""
        c = float(c)
        return BandedSymbol(self.eta, lambda lo, hi: c * self.bands(lo, hi))

    def plus_identity(self):
        """The symbol I + a (same bandwidth)."""
        eye = np.eye(2 * self.eta + 1)[:, [self.eta]]
        return BandedSymbol(self.eta, lambda lo, hi: self.bands(lo, hi) + eye)


def _dense(ab, eta, n):
    """The dense n x n corner of the band `ab` from its first column."""
    out = np.zeros((n, n))
    flat = out.reshape(-1)  # entry (j + d, j) at d * n + j * (n + 1)
    for k, row in enumerate(ab):  # d = k - eta; columns of rows 0..n - 1
        c = row[max(0, eta - k):max(0, min(n, n + eta - k))]
        flat[(k - eta) * n + max(0, eta - k) * (n + 1)::n + 1][:len(c)] = c
    return out


def _transpose(ab, eta):
    """The band of A^T, A the corner of the band `ab`: row eta + d is row
    eta - d moved d columns, so entries past the corner's rows drop out.
    With the rows reversed in a zero frame of rows m long, the move is one
    more column per row, so rows m + 1 long read it off."""
    k, n = ab.shape
    m = n + 2 * eta
    at = np.zeros(k * (m + 1))
    at[:k * m].reshape(k, m)[::-1, eta:eta + n] = ab
    return at.reshape(k, m + 1)[:, :n]


def _band_product(x, ex, y, ey):
    """The band, bandwidth ex + ey, of X Y from the bands x of X and y of Y
    over the same columns: (X Y)_rj sums x_r,j+u y_j+u,j over u in
    -ey..ey, in that order, and columns past the last reach nothing."""
    n = y.shape[1]
    q = np.zeros((2 * (ex + ey) + 1, n))
    for u in range(-ey, ey + 1):
        lo, hi = max(0, -u), max(0, -u, min(n, n - u))
        q[ey + u:ey + u + 2 * ex + 1, lo:hi] += (x[:, lo + u:hi + u]
                                                 * y[ey + u, lo:hi])
    return q


def _band_blocks(ab, eta, r0, r1, c0, c1, size):
    """The blocks [r0:r1, c0:c1] (0-based; one per entry of the index
    arrays) of the corner whose band from column 1 is `ab`, each at the top
    left of a size x size zero block: zero off the band and the corner."""
    w, out = ab.shape[1], np.zeros((len(r0), size, size))
    j = np.add.outer(c0, np.arange(size))  # the blocks' columns
    lo, hi = np.maximum(r0, 0)[:, None], np.minimum(r1, w)[:, None]
    cols = (0 <= j) & (j < np.minimum(c1, w)[:, None])
    for d in range(-eta, eta + 1):  # the entries (j + d, j), as `_dense` does
        b, y = np.nonzero(cols & (lo <= j + d) & (j + d < hi))
        out[b, j[b, y] + d - np.asarray(r0)[b], y] = ab[eta + d, j[b, y]]
    return out


def _band_ranks(ab, eta, r0, r1, c0, c1):
    """Ranks of the `_band_blocks` slices, each padded to its own size, by
    batched SVDs over chunks of at most `_RANK_BYTES` of same-size blocks (at
    least one), widest first so that a block too large to allocate fails
    before any SVD: the singular values above `_RANK_TOL` times the block's
    own largest (zero block: 0)."""
    sizes, ranks = np.maximum(r1 - r0, c1 - c0), np.zeros(len(r0), int)
    for size in np.unique(sizes)[::-1].tolist():
        same = np.flatnonzero(sizes == size)
        step = max(1, _RANK_BYTES // max(8 * size * size, 1))
        for part in np.split(same, range(step, len(same), step)):
            sv = np.linalg.svd(_band_blocks(
                ab, eta, r0[part], r1[part], c0[part], c1[part], size),
                compute_uv=False)
            ranks[part] = (sv > _RANK_TOL * sv[:, :1]).sum(1)
    return ranks


def _band_power(ab, eta, k):
    """The band, bandwidth k eta, of A^k, A the n x n corner of the band `ab`
    (n columns, zero above row 1); `ab` past row n reaches only rows past n."""
    return functools.reduce(lambda p, t: _band_product(p, t * eta, ab, eta),
                            range(1, k), ab)


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
        """s(k) = k, materialized to K; increasing by construction, so
        built without the constructor's checks."""
        part = object.__new__(cls)
        object.__setattr__(part, "s", tuple(range(1, K + 1)))
        return part

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
    lo, hi = min(rlo, clo), max(rhi, chi)
    return _dense(a.bands(lo, hi), a.eta, hi - lo + 1)[
        rlo - lo:rhi - lo + 1, clo - lo:chi - lo + 1]


@dataclass
class ClassFReport:
    ok: bool
    structural_violation: tuple | None  # offending (i, j) or None
    block_ranks: list  # (p, rank, full_rank)


def in_class_F(a: BandedSymbol, s: BlockPartition, K: int):
    """Test block-3-diagonal structure with full-or-zero off-diagonal ranks.

    Returns a ClassFReport.  Structural violations (a nonzero entry outside
    the allowed block pattern on the window s(K)) are reported separately
    from rank failures.  Both are read from the band; the ranks of the
    blocks (p, p + 1) are `_band_ranks`'s, the rule `prop52_suite` uses.
    """
    n, eta, cuts = s.cut(K), a.eta, np.array((0, *s.s[:K]))
    ab, i, t = a.bands(1, n), np.arange(n)[:, None], np.arange(1, eta + 1)
    # zero pattern: no a_ij (A^T's band) or a_ji, j = i + t < n, across blocks
    # two or more apart (block p: rows cuts[p - 1]..cuts[p] - 1), row-major
    part, j = np.searchsorted(cuts, np.arange(n + eta), "right"), i + t
    bad = np.argwhere((part[j] - part[i] >= 2) & (j < n) & (
        (_transpose(ab, eta) != 0) | (ab != 0))[eta + 1:].T)
    if len(bad):
        r, c = bad[0].tolist()
        return ClassFReport(False, (r + 1, r + c + 2), [])
    b = np.diff(cuts)
    ranks = list(zip(range(1, K), _band_ranks(
        ab, eta, cuts[:-2], cuts[1:-1], cuts[1:-1], cuts[2:]).tolist(),
        b[:-1].tolist()))
    return ClassFReport(all(r in (0, full) for _, r, full in ranks), None,
                        ranks)


def _cut_logdets(ab, eta, cuts):
    """(sign, log|det|) arrays of the leading corners of sizes `cuts` of the
    matrix whose band from column 1 is `ab`, by one band elimination with
    partial pivoting over rows j..j + eta (LAPACK gbtrf).  An exchange at
    row j moves only rows up to j + eta, so a corner that none crosses keeps
    its own rows, reordered: the product of the pivots before its last row.
    A corner of size c that an exchange at row j crosses, bringing in a row
    p >= c, is read just before the first such exchange: the pivots before
    row j times the determinant of the reduced block on rows and columns
    j..c - 1, at most eta x eta.  A column with no nonzero candidate leaves
    each corner not yet read exactly singular, (0, -inf), and ends it."""
    n = cuts[-1]
    # rows[i][t] = a_{i, i - eta + t} (0-based), then eta columns for the
    # fill of row exchanges; the eta rows past n stay zero
    rows = np.zeros((n + eta, 3 * eta + 1))
    rows[:n, :2 * eta + 1] = _transpose(ab[:, :n], eta).T
    rows, piv, read = rows.tolist(), [], {}
    # the fill columns stay zero until the first exchange; column j at tj
    push, ts = piv.append, range(eta + 1, 2 * eta + 1)
    offs = [(off, eta - off) for off in range(1, eta + 1)]
    for j in range(n):
        p, x = j, rows[j][eta]
        ax = abs(x)
        for off, tj in offs:
            y = rows[j + off][tj]
            if abs(y) > ax:
                p, x, ax = j + off, y, abs(y)
        if x == 0.0:
            break
        if p > j:
            for k in range(bisect_right(cuts, j), bisect_right(cuts, p)):
                if k not in read:  # the first exchange to cross corner k
                    read[k] = (j, *np.linalg.slogdet(
                        [rows[i][j - i + eta:cuts[k] - i + eta]
                         for i in range(j, cuts[k])]))
            # swap rows j and p, each re-offset to its new position
            sh, ts = p - j, range(eta + 1, 3 * eta + 1)
            rows[j], rows[p] = ([0.0] * sh + rows[p][:-sh],
                                rows[j][sh:] + [0.0] * sh)
            push(-x)  # an exchange flips the sign
        else:
            push(x)
        top = rows[j]
        for off, tj in offs:
            row = rows[j + off]
            y = row[tj]
            if y != 0.0:
                m = y / x
                for t in ts:
                    row[t - off] -= m * top[t]
    # prefix products of the pivots: [j] is that of the rows before j
    sg = np.concatenate(([1.0], np.sign(piv).cumprod()))
    la = np.concatenate(([0.0], np.log(np.abs(piv)).cumsum()))
    ends = np.minimum(cuts, len(piv))
    signs, logabs = sg[ends], la[ends]
    signs[ends < cuts], logabs[ends < cuts] = 0.0, -np.inf
    for k, (j, sign, logdet) in read.items():
        signs[k], logabs[k] = sg[j] * sign, la[j] + logdet
    return signs, logabs


def _corner_commutators(ab, eta, cuts):
    """(|A_n A_n^T - A_n^T A_n|_F, |A_n|_F^2) arrays over the leading n x n
    corners, n in `cuts`, of A, whose band from column 1 to cuts[-1] + eta
    is `ab`.  The corner's commutator is the infinite C = A A^T - A^T A but
    on its trailing eta x eta block, where A's entries past the corner
    reach.  So its squared norm is a prefix sum of C's squares with
    max(i, j) < n - eta plus its own last eta rows, from the corner's last
    3 eta rows: sums of squares, no term cancels another."""
    w, n, abt = ab.shape[1], np.asarray(cuts), _transpose(ab, eta)
    cab = (_band_product(ab, eta, abt, eta)
           - _band_product(abt, eta, ab, eta))  # the band of C
    # rows n - 3 eta..n - 1 of A_n and A_n^T from column n - 4 eta; the
    # corner's last eta rows of C_n on columns n - 3 eta..n - 1 from them
    x, xt = (_band_blocks(y, eta, n - 3 * eta, n, n - 4 * eta, n, 4 * eta)
             for y in (ab, abt))
    c = (x[:, 2 * eta:3 * eta] @ x.transpose(0, 2, 1)
         - xt[:, 2 * eta:3 * eta] @ xt.transpose(0, 2, 1)) ** 2

    def prefix(x, b):  # [m]: the sum of the squares with max(i, j) < m
        key = np.arange(w) + np.maximum(np.arange(2 * b + 1) - b, 0)[:, None]
        return np.concatenate(([0.0], np.cumsum(np.bincount(
            key.ravel(), (x * x).ravel(), minlength=w + 2 * b))))

    # C_n is symmetric, so the strip beside its trailing block counts twice
    sq = (prefix(cab, 2 * eta)[np.maximum(n - eta, 0)]
          + (c * np.repeat([2.0, 1.0], [2 * eta, 2 * eta])).sum((1, 2)))
    return np.sqrt(sq), prefix(ab, eta)[n]


def det_sequence(a: BandedSymbol, s: BlockPartition, K: int) -> np.ndarray:
    """Determinants of the leading corners a_p, p = 1..K, from the pivoted
    band elimination of `_cut_logdets`: a singular corner gives 0.0, and
    each corner past it, or past a tiny minor, is still its own one."""
    signs, logabs = _cut_logdets(a.bands(1, s.cut(K)), a.eta, s.s[:K])
    return signs * np.exp(logabs)


def power(a: BandedSymbol, k: int, window: int) -> BandedSymbol:
    """Matrix power a**k materialized on the leading window.

    The band of the (window + k eta) corner's power, so that no band spill
    reaches the window, cropped to it: bandwidth min(k * eta, window - 1).
    """
    if k < 1:
        raise ValueError("power must be a positive integer")
    w = k * a.eta  # rows past the corner reach only rows past the window
    pk = _band_power(a.bands(1, window + w), a.eta, k)
    eta = min(w, window - 1) if window > 1 else 0
    # a transpose's transpose drops a_{j + d, j} past the window's last row
    ab = _transpose(_transpose(pk[w - eta:w + eta + 1, :window], eta), eta)
    return BandedSymbol(eta, lambda lo, hi: ab[:, lo - 1:hi])


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
        at = _transpose(self.base.bands(c0, n), eta)  # (A^T)^T: rows c0..n
        # a_ij[r, t] = a_ij, a_ji[r, t] = a_ji at i = lo + r, j = i + t - eta
        a_ij, a_ji = at.T[lo - c0:], _transpose(at, eta).T[lo - c0:]
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
