"""Banded infinite-matrix symbols and their finite truncations.

A symbol is an infinite real matrix with finite bandwidth, addressed with
1-based indices.  All operations materialize finite windows as dense numpy
arrays; entries outside an explicit window are zero by convention, while
rule-based symbols (diagonal sequences, geometric off-diagonals) extend to
any requested window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DecayCertificate",
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
    "decay_certificate_check",
]

_RANK_TOL = 1e-10  # in_class_F: relative singular-value floor of a rank


@dataclass(frozen=True)
class DecayCertificate:
    """Asserted entry decay |a_ij| <= C * lam**|i-j|."""

    C: float
    lam: float

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("decay constant C must be positive")
        if not 0 < self.lam < 1:
            raise ValueError("decay rate lam must lie in (0, 1)")


class BandedSymbol:
    """Infinite real matrix with finite bandwidth.

    Entries are produced either by a rule ``entry_fn(i, j)`` (1-based) or by
    an explicit finite window with implied zero extension.
    """

    def __init__(self, kind, eta, entry_fn, decay=None, rule=None):
        if eta < 0:
            raise ValueError("bandwidth must be nonnegative")
        self.kind = kind
        self.eta = int(eta)
        self._entry_fn = entry_fn
        self.decay = decay
        self.rule = rule  # (name, params) for serialization, or None

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls):
        return cls.diagonal(lambda j: 1.0, rule=("identity", ()))

    @classmethod
    def diagonal(cls, alpha, decay=None, rule=None):
        """Diagonal symbol with entries alpha(j) or a finite sequence."""
        if callable(alpha):
            fn = alpha
        else:
            seq = [float(v) for v in alpha]

            def fn(j, _seq=seq):
                if j > len(_seq):
                    raise IndexError(
                        f"diagonal sequence materialized to {len(_seq)}, "
                        f"index {j} requested"
                    )
                return _seq[j - 1]

        return cls(
            "diagonal",
            0,
            lambda i, j: fn(i) if i == j else 0.0,
            decay=decay,
            rule=rule,
        )

    @classmethod
    def geometric_tridiagonal(cls, q, diag=1.0):
        """Tridiagonal symbol with unit diagonal and entries q**j at (j, j+1).

        The symmetric 1-banded family: b[j, j+1] = b[j+1, j] = q**j.
        """
        q = float(q)

        def entry(i, j):
            if i == j:
                return diag
            if abs(i - j) == 1:
                return q ** min(i, j)
            return 0.0

        return cls(
            "banded",
            1,
            entry,
            decay=DecayCertificate(C=max(1.0, abs(diag)), lam=abs(q)) if 0 < abs(q) < 1 else None,
            rule=("geometric_tridiagonal", (q, diag)),
        )

    @classmethod
    def from_entries(cls, eta, entries, kind="banded", decay=None):
        """Explicit symbol from a map (i, j) -> value, zero elsewhere."""
        table = {}
        for (i, j), v in entries.items():
            if i < 1 or j < 1:
                raise ValueError("indices are 1-based")
            if abs(i - j) > eta and v != 0.0:
                raise ValueError(
                    f"entry ({i}, {j}) lies outside the declared band eta={eta}"
                )
            table[(i, j)] = float(v)
        return cls(kind, eta, lambda i, j: table.get((i, j), 0.0), decay=decay)

    @classmethod
    def from_dense(cls, mat, eta=None, kind="banded", decay=None):
        mat = np.asarray(mat, dtype=float)
        rows, cols = np.nonzero(mat)
        if eta is None:
            eta = int(np.max(np.abs(rows - cols), initial=0))
        entries = {(i + 1, j + 1): mat[i, j]
                   for i, j in zip(rows.tolist(), cols.tolist())}
        return cls.from_entries(eta, entries, kind=kind, decay=decay)

    # -- access -----------------------------------------------------------

    def entry(self, i, j):
        """Entry a_{ij}, 1-based."""
        if i < 1 or j < 1:
            raise IndexError("indices are 1-based")
        if abs(i - j) > self.eta:
            return 0.0
        return float(self._entry_fn(i, j))

    def window(self, n):
        """Dense leading n x n corner."""
        out = np.zeros((n, n))
        for i in range(1, n + 1):
            lo = max(1, i - self.eta)
            hi = min(n, i + self.eta)
            for j in range(lo, hi + 1):
                out[i - 1, j - 1] = self._entry_fn(i, j)
        return out

    def scaled(self, c):
        """The symbol c * a."""
        c = float(c)
        return BandedSymbol(
            self.kind, self.eta, lambda i, j: c * self._entry_fn(i, j)
        )

    def plus_identity(self):
        """The symbol I + a (same bandwidth)."""
        return BandedSymbol(
            self.kind,
            self.eta,
            lambda i, j: self._entry_fn(i, j) + (1.0 if i == j else 0.0),
        )


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
    out = np.zeros((rhi - rlo + 1, chi - clo + 1))
    if abs(p - q) <= 1:
        for i in range(rlo, rhi + 1):
            for j in range(clo, chi + 1):
                out[i - rlo, j - clo] = a.entry(i, j)
    return out


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
    n = s.cut(K)
    # zero pattern: entries with row in block p and column beyond block p+1
    for p in range(1, K):
        rlo, rhi = s.block_rows(p)
        for i in range(rlo, rhi + 1):
            for j in range(s.cut(p + 1) + 1, n + 1):
                if a.entry(i, j) != 0.0 or a.entry(j, i) != 0.0:
                    return ClassFReport(False, (i, j), [])
    ranks = []
    ok = True
    for p in range(1, K):
        blk = block(a, s, p, p + 1)
        full = s.cut(p) - s.cut(p - 1)
        sv = np.linalg.svd(blk, compute_uv=False)
        smax = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > _RANK_TOL * smax)) if smax > 0 else 0
        ranks.append((p, rank, full))
        if rank not in (0, full):
            ok = False
    return ClassFReport(ok, None, ranks)


def det_sequence(a: BandedSymbol, s: BlockPartition, K: int) -> np.ndarray:
    """Determinants of the leading corners a_p, p = 1..K.

    Tridiagonal symbols use the three-term minor recursion
    D_n = a_nn D_{n-1} - a_{n,n-1} a_{n-1,n} D_{n-2}; anything wider falls
    back to a pivoted factorization via logdet_corners.
    """
    if a.eta <= 1:
        n = s.cut(K)
        minors = np.empty(n + 1)
        minors[0] = 1.0
        for i in range(1, n + 1):
            d = a.entry(i, i) * minors[i - 1]
            if i >= 2:
                d -= a.entry(i, i - 1) * a.entry(i - 1, i) * minors[i - 2]
            minors[i] = d
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
    return BandedSymbol.from_dense(pw, eta=eta, kind=a.kind)


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
    validated_window: int = field(default=0)

    def __post_init__(self):
        if not 0 < self.m < self.M:
            raise ValueError("ratio bounds require 0 < m < M")
        self.validate_window(max(16, self.validated_window))

    def validate_window(self, n):
        """Check symmetry, |bhat_ij| <= alpha_i and ratio bounds on [1, n]."""
        b = self.base
        for i in range(1, n + 1):
            ai = self.alpha(i)
            if ai <= 0:
                raise ValueError(f"alpha_{i} must be positive")
            for j in range(max(1, i - b.eta), min(n, i + b.eta) + 1):
                if b.entry(i, j) != b.entry(j, i):
                    raise ValueError(f"perturbation not symmetric at ({i}, {j})")
                if abs(b.entry(i, j)) > ai * (1 + 1e-12):
                    raise ValueError(
                        f"|bhat_({i},{j})| = {abs(b.entry(i, j))} exceeds "
                        f"alpha_{i} = {ai}"
                    )
        for j in range(1, n):
            ratio = self.weights(j + 1) / self.weights(j)
            if not self.m < ratio < self.M:
                raise ValueError(
                    f"weight ratio p_{j+1}/p_{j} = {ratio} outside "
                    f"({self.m}, {self.M})"
                )
        self.validated_window = max(self.validated_window, n)

    @property
    def symbol(self) -> BandedSymbol:
        """The full symbol b = I + bhat."""
        return self.base.plus_identity()

    @classmethod
    def geometric(cls, q):
        """The 1-banded family bhat[j, j+1] = q**j with alpha_j = q**(j-1).

        Admissible for 0 < q < sqrt(2)/2; the constructor records the
        admissibility of the supplied q as a precondition instead of
        raising, so diagnostic runs on inadmissible q are possible.
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


def decay_certificate_check(a: BandedSymbol, window: int) -> bool:
    """Verify |a_ij| <= C * lam**|i-j| on the leading window."""
    if a.decay is None:
        raise ValueError("symbol carries no decay certificate")
    C, lam = a.decay.C, a.decay.lam
    for i in range(1, window + 1):
        for j in range(max(1, i - a.eta), min(window, i + a.eta) + 1):
            if abs(a.entry(i, j)) > C * lam ** abs(i - j) * (1 + 1e-12):
                return False
    return True
