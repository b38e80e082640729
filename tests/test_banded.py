import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausscomp.banded import (
    BandedSymbol,
    BlockPartition,
    DecayCertificate,
    PerturbedIdentity,
    block,
    decay_certificate_check,
    det_sequence,
    in_class_F,
    logdet_corners,
    power,
    power_entry_bound,
    truncate,
)


def geometric(q):
    return BandedSymbol.geometric_tridiagonal(q)


# -- truncate / block -------------------------------------------------------

def test_truncate_diagonal_corner():
    a = BandedSymbol.diagonal([0.5, 0.25, 0.125])
    s = BlockPartition.unit(3)
    np.testing.assert_allclose(truncate(a, s, 2), [[0.5, 0.0], [0.0, 0.25]])


def test_truncate_geometric_matches_display():
    # unit diagonal, q on the first off-diagonal
    np.testing.assert_allclose(
        truncate(geometric(0.5), BlockPartition.unit(4), 2),
        [[1.0, 0.5], [0.5, 1.0]],
    )


def test_truncate_size_one():
    a = BandedSymbol.diagonal([3.0])
    assert truncate(a, BlockPartition.unit(1), 1) == np.array([[3.0]])


def test_truncate_out_of_range():
    a = BandedSymbol.identity()
    with pytest.raises(IndexError):
        truncate(a, BlockPartition.unit(2), 3)


def test_block_geometric_superdiagonal():
    s = BlockPartition.unit(4)
    np.testing.assert_allclose(block(geometric(0.5), s, 1, 2), [[0.5]])
    np.testing.assert_allclose(block(geometric(0.5), s, 2, 3), [[0.25]])


def test_block_far_apart_is_zero():
    s = BlockPartition((2, 4, 6))
    out = block(geometric(0.5), s, 1, 3)
    assert out.shape == (2, 2)
    assert np.all(out == 0.0)


def test_block_diagonal_entry():
    a = BandedSymbol.diagonal([0.5, 0.25])
    np.testing.assert_allclose(block(a, BlockPartition.unit(2), 2, 2), [[0.25]])


# -- class F ---------------------------------------------------------------

def test_class_F_geometric_full_rank():
    rep = in_class_F(geometric(0.5), BlockPartition.unit(6), 6)
    assert rep.ok and rep.structural_violation is None
    assert all(rank == 1 for (_, rank, _) in rep.block_ranks)


def test_class_F_diagonal_zero_rank():
    a = BandedSymbol.diagonal(lambda j: 1.0 / j)
    rep = in_class_F(a, BlockPartition.unit(5), 5)
    assert rep.ok
    assert all(rank == 0 for (_, rank, _) in rep.block_ranks)


def test_class_F_partial_rank_fails():
    # off-diagonal block [[1,0],[0,0]] has rank 1, full would be 2
    a = BandedSymbol.from_entries(
        2, {(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (4, 4): 1.0, (1, 3): 1.0}
    )
    rep = in_class_F(a, BlockPartition((2, 4)), 2)
    assert not rep.ok
    assert rep.structural_violation is None
    assert rep.block_ranks[0][1] == 1


def test_class_F_structural_violation():
    a = BandedSymbol.from_entries(4, {(1, 1): 1.0, (1, 5): 2.0})
    rep = in_class_F(a, BlockPartition.unit(5), 5)
    assert not rep.ok
    assert rep.structural_violation is not None


@seed(7)
@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.69),
       st.floats(min_value=0.1, max_value=10.0))
def test_class_F_scaling_invariance(q, c):
    s = BlockPartition.unit(5)
    assert in_class_F(geometric(q), s, 5).ok == \
        in_class_F(geometric(q).scaled(c), s, 5).ok


def class_F_by_entries(a, s, K):
    """The nested `entry` walk that `in_class_F` replaced: the first
    zero-pattern violation in row-major order, else the rank of every
    block (p, p + 1) from `block`."""
    n = s.cut(K)
    for p in range(1, K):
        rlo, rhi = s.block_rows(p)
        for i in range(rlo, rhi + 1):
            for j in range(s.cut(p + 1) + 1, n + 1):
                if a.entry(i, j) != 0.0 or a.entry(j, i) != 0.0:
                    return (i, j), []
    ranks = []
    for p in range(1, K):
        sv = np.linalg.svd(block(a, s, p, p + 1), compute_uv=False)
        smax = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > 1e-10 * smax)) if smax > 0 else 0
        ranks.append((p, rank, s.cut(p) - s.cut(p - 1)))
    return None, ranks


@st.composite
def sparse_symbols(draw):
    eta = draw(st.integers(0, 4))
    s = BlockPartition(np.cumsum(draw(st.lists(st.integers(1, 3), min_size=1,
                                               max_size=6))))
    K = draw(st.integers(0, len(s)))
    n = s.cut(len(s))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if abs(i - j) <= eta]
    values = st.sampled_from([0.0, 1.0, -0.5, 2.0, 1e-12])
    entries = draw(st.dictionaries(st.sampled_from(cells), values,
                                   max_size=len(cells) // 3 + 1))
    return BandedSymbol.from_entries(eta, entries), s, K


@seed(11)
@settings(max_examples=300, deadline=None)
@given(sparse_symbols())
def test_class_F_matches_entry_walk(case):
    a, s, K = case
    rep = in_class_F(a, s, K)
    violation, ranks = class_F_by_entries(a, s, K)
    assert rep.structural_violation == violation
    assert rep.block_ranks == ranks
    assert rep.ok == (violation is None
                      and all(r in (0, full) for _, r, full in ranks))


# -- determinants ----------------------------------------------------------

def test_det_recursion_values_q_half():
    dets = det_sequence(geometric(0.5), BlockPartition.unit(3), 3)
    np.testing.assert_allclose(dets, [1.0, 0.75, 0.6875], rtol=1e-14)


def test_det_identity():
    dets = det_sequence(BandedSymbol.identity(), BlockPartition.unit(10), 10)
    np.testing.assert_allclose(dets, np.ones(10))


def test_det_envelope_q_07():
    q = 0.7
    dets = det_sequence(geometric(q), BlockPartition.unit(32), 32)
    floor = 1.0 - q * q / (1.0 - q * q)
    assert np.all(dets[1:] > floor)
    assert np.all(dets[1:] < 1.0)


@seed(3)
@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.7))
def test_det_recursion_matches_factorization(q):
    s = BlockPartition.unit(32)
    dets = det_sequence(geometric(q), s, 32)
    signs, logabs = logdet_corners(geometric(q), s, 32)
    np.testing.assert_allclose(dets, signs * np.exp(logabs), rtol=1e-12)


def test_det_block_diagonal_product():
    # block-diagonal symbol: dets of corners multiply across blocks
    entries = {(1, 1): 2.0, (2, 2): 3.0, (1, 2): 1.0, (2, 1): 1.0,
               (3, 3): 4.0, (4, 4): 5.0, (3, 4): 2.0, (4, 3): 2.0}
    a = BandedSymbol.from_entries(1, entries)
    s = BlockPartition((2, 4))
    dets = det_sequence(a, s, 2)
    d1 = np.linalg.det([[2.0, 1.0], [1.0, 3.0]])
    d2 = np.linalg.det([[4.0, 2.0], [2.0, 5.0]])
    np.testing.assert_allclose(dets, [d1, d1 * d2], rtol=1e-12)


@seed(4)
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 3), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_logdet_corners_match_dense_slogdet(eta, widths, s_seed):
    # each corner's slice of a_K against a_p rebuilt from the symbol
    n = sum(widths)
    rng = np.random.default_rng(s_seed)
    mat = rng.standard_normal((n, n))
    mat[np.abs(np.subtract.outer(range(n), range(n))) > eta] = 0.0
    a = BandedSymbol.from_dense(mat, eta=eta)
    s = BlockPartition(np.cumsum(widths))
    signs, logabs = logdet_corners(a, s, len(widths))
    for p in range(1, len(widths) + 1):
        sg, la = np.linalg.slogdet(truncate(a, s, p))
        assert signs[p - 1] == sg and logabs[p - 1] == la


def test_det_singular_corner_reported():
    a = BandedSymbol.diagonal([1.0, 0.0, 2.0])
    signs, logabs = logdet_corners(a, BlockPartition.unit(3), 3)
    assert signs[1] == 0.0 and logabs[1] == -math.inf


# -- powers ----------------------------------------------------------------

def test_power_diagonal():
    a = BandedSymbol.diagonal([0.5, 0.25])
    pw = power(a, 3, 2)
    np.testing.assert_allclose(pw.window(2), np.diag([0.125, 0.015625]))


def test_power_geometric_squared_entries():
    q = 0.5
    bhat = BandedSymbol.geometric_tridiagonal(q, diag=0.0)
    pw = power(bhat, 2, 4).window(4)
    assert pw[0, 0] == pytest.approx(q**2)
    assert pw[0, 2] == pytest.approx(q**3)  # q^1 * q^2


@seed(11)
@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.69),
       st.integers(min_value=1, max_value=5))
def test_power_matches_naive_product(q, k):
    window = 8
    pw = power(geometric(q), k, window).window(window)
    big = geometric(q).window(window + k)
    naive = np.eye(window + k)
    for _ in range(k):
        naive = naive @ big
    np.testing.assert_allclose(pw, naive[:window, :window], atol=1e-13)


def test_power_band_growth():
    pw = power(geometric(0.5), 3, 12)
    assert pw.eta == 3
    assert pw.entry(1, 5) == 0.0


def test_power_entry_bound_geometric():
    b = PerturbedIdentity.geometric(0.5)
    for k in range(1, 5):
        ok, worst = power_entry_bound(b, k, 12)
        assert ok and worst <= 1.0 + 1e-12


# -- decay certificates ----------------------------------------------------

def test_decay_certificate_geometric():
    a = BandedSymbol.geometric_tridiagonal(0.5)
    assert a.decay is not None
    assert decay_certificate_check(a, 24)


def test_decay_certificate_violation():
    a = BandedSymbol.from_entries(
        3, {(1, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0},
        decay=DecayCertificate(1.0, 0.5))
    assert not decay_certificate_check(a, 4)


def test_decay_certificate_missing():
    a = BandedSymbol.diagonal([1.0, 1.0])
    with pytest.raises(ValueError):
        decay_certificate_check(a, 2)


# -- perturbed identity ----------------------------------------------------

def test_perturbed_identity_preconditions():
    good = PerturbedIdentity.geometric(0.5)
    assert all(ok for _, ok in good.preconditions)
    bad = PerturbedIdentity.geometric(0.8)
    assert any(not ok for _, ok in bad.preconditions)


def test_perturbed_identity_symbol_diagonal():
    b = PerturbedIdentity.geometric(0.5)
    assert b.symbol.entry(3, 3) == 1.0
    assert b.symbol.entry(2, 3) == 0.25


def test_perturbed_identity_rejects_asymmetry():
    base = BandedSymbol.from_entries(1, {(1, 2): 0.5, (2, 1): 0.4})
    with pytest.raises(ValueError):
        PerturbedIdentity(base=base, alpha=lambda j: 1.0,
                          weights=lambda j: 0.5**j, m=0.25, M=0.75,
                          alpha_sum=10.0, weight_sum=1.0)


def test_perturbed_identity_rejects_row_bound_violation():
    base = BandedSymbol.geometric_tridiagonal(0.5, diag=0.0)
    with pytest.raises(ValueError):
        PerturbedIdentity(base=base, alpha=lambda j: 0.5**j * 0.1,
                          weights=lambda j: 0.5**j, m=0.25, M=0.75,
                          alpha_sum=0.2, weight_sum=1.0)


def test_validate_window_checks_each_coordinate_once():
    calls = []

    def alpha(j):
        calls.append(j)
        return 0.5 ** (j - 1)

    b = PerturbedIdentity(base=BandedSymbol.geometric_tridiagonal(0.5, 0.0),
                          alpha=alpha, weights=lambda j: 0.5 ** j, m=0.25,
                          M=0.75, alpha_sum=2.0, weight_sum=1.0)
    assert b.validated_window == 16 and calls == list(range(1, 17))
    calls.clear()
    b.validate_window(10)
    b.validate_window(16)
    assert calls == []
    b.validate_window(40)
    # only rows whose band reaches past the old window 16 are checked again
    assert b.validated_window == 40 and calls == list(range(16, 41))


@pytest.mark.parametrize("eta,i,j", [(1, 16, 17), (2, 16, 17), (2, 15, 17)])
def test_validate_window_growth_checks_the_old_edge(eta, i, j):
    # an entry in a row inside the validated window [1, 16] whose column
    # lies past it is first seen when the window grows
    asym = BandedSymbol.from_entries(eta, {(i, j): 0.5, (j, i): 0.4})
    b = PerturbedIdentity(base=asym, alpha=lambda k: 1.0,
                          weights=lambda k: 0.5 ** k, m=0.25, M=0.75,
                          alpha_sum=40.0, weight_sum=1.0)
    assert b.validated_window == 16
    with pytest.raises(ValueError, match=rf"not symmetric at \({i}, {j}\)"):
        b.validate_window(40)
    assert b.validated_window == 16
    # row j's own bound is loose, so only row i can see the violation
    big = BandedSymbol.from_entries(eta, {(i, j): 2.0, (j, i): 2.0})
    b = PerturbedIdentity(base=big, alpha=lambda k: 3.0 if k == j else 1.0,
                          weights=lambda k: 0.5 ** k, m=0.25, M=0.75,
                          alpha_sum=40.0, weight_sum=1.0)
    with pytest.raises(ValueError, match=rf"\|bhat_\({i},{j}\)\| = 2.0 "):
        b.validate_window(40)


def test_validate_window_growth_checks_the_new_weight_ratios():
    b = PerturbedIdentity(base=BandedSymbol.geometric_tridiagonal(0.5, 0.0),
                          alpha=lambda k: 1.0,
                          weights=lambda k: 0.5 ** k if k <= 16 else 0.1 ** k,
                          m=0.25, M=0.75, alpha_sum=40.0, weight_sum=1.0)
    with pytest.raises(ValueError, match=r"p_17/p_16"):
        b.validate_window(40)


def test_validated_window_is_not_an_argument():
    with pytest.raises(TypeError):
        PerturbedIdentity(base=BandedSymbol.from_entries(1, {}),
                          alpha=lambda j: 1.0, weights=lambda j: 0.5 ** j,
                          m=0.25, M=0.75, alpha_sum=1.0, weight_sum=1.0,
                          validated_window=100)


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition([2, 2, 3])
    with pytest.raises(ValueError):
        BlockPartition([0, 1])
    s = BlockPartition((2, 5, 9))
    assert s.cut(0) == 0
    assert s.block_rows(2) == (3, 5)
