import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausscomp import banded
from gausscomp.banded import (
    BandedSymbol,
    BlockPartition,
    PerturbedIdentity,
    _band_power,
    _band_product,
    _corner_commutators,
    _cut_logdets,
    _dense,
    _transpose,
    block,
    det_sequence,
    in_class_F,
    power,
    power_entry_bound,
    truncate,
)


def geometric(q):
    return BandedSymbol.geometric_tridiagonal(q)


def halves(j):
    """log p_j of the weights p_j = 0.5**j."""
    return j * math.log(0.5)


def log_one(j):
    """log alpha_j of the row bounds alpha_j = 1."""
    return np.zeros(j.shape)


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


def _svd_ranks(ab, eta, n, r0, r1, c0, c1):
    """The `_RANK_TOL` ranks of the slices, one np.linalg.svd each."""
    dense, want = _dense(ab, eta, n), []
    for i0, i1, j0, j1 in zip(r0, r1, c0, c1):
        sv = np.linalg.svd(dense[i0:i1, j0:j1], compute_uv=False)
        want.append(int((sv > banded._RANK_TOL * sv[:1]).sum()))
    return want


@seed(44)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(1, 30), st.data())
def test_band_blocks_are_the_dense_windows(eta, w, data):
    # blocks on and off the band, starting before the corner (as
    # `_corner_commutators` asks) or past it, each padded to `size`; the band
    # holds entries at rows past the corner too, which no block may read
    ab = np.random.default_rng(w).standard_normal((2 * eta + 1, w))
    ends = st.tuples(st.integers(-6, w + 5), st.integers(0, 8))
    blocks = data.draw(st.lists(st.tuples(ends, ends), min_size=1,
                                max_size=5))
    (r0, nr), (c0, nc) = (np.array(x).T for x in zip(*blocks))
    size = max(*nr, *nc, 1) + data.draw(st.integers(0, 2))
    got = banded._band_blocks(ab, eta, r0, r0 + nr, c0, c0 + nc, size)
    pad = size + 6  # zeros around the corner: every window lies inside
    dense = np.pad(_dense(ab, eta, w), pad)
    for blk, i, h, j, k in zip(got, r0 + pad, nr, c0 + pad, nc):
        want = np.zeros((size, size))
        want[:h, :k] = dense[i:i + h, j:j + k]
        assert np.array_equal(blk, want)


@pytest.mark.parametrize("budgets", [2, 6])
def test_band_ranks_run_in_bounded_memory(budgets):
    # every slice is 64 x 64, so the one size's stack alone is `budgets`
    # budgets in size; the chunked peak, the stack filled in place one
    # diagonal at a time, stays under one bound whatever the slice count
    rng, eta, size, n = np.random.default_rng(budgets), 2, 64, 600
    m = budgets * banded._RANK_BYTES // (8 * size * size)
    ab = rng.standard_normal((2 * eta + 1, n))
    r0, c0 = rng.integers(0, n - size, (2, m))
    r1, c1 = r0 + size, c0 + size
    tracemalloc.start()
    try:
        ranks = banded._band_ranks(ab, eta, r0, r1, c0, c1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * banded._RANK_BYTES
    assert ranks.tolist() == _svd_ranks(ab, eta, n, r0, r1, c0, c1)


def test_band_ranks_pad_each_slice_to_its_own_size(monkeypatch):
    # one 300-wide slice among narrow ones, one of them off the band (rank
    # 0): no narrow slice is padded to its width, and the widest go first
    rng, eta, n = np.random.default_rng(5), 2, 400
    ab = rng.standard_normal((2 * eta + 1, n))
    r0, c0 = np.array([0, 10, 40, 90, 50]), np.array([3, 8, 41, 200, 60])
    r1, c1 = r0 + [3, 4, 2, 5, 300], c0 + [2, 4, 3, 1, 300]
    calls, blocks = [], banded._band_blocks

    def recorded(ab, eta, r0, r1, c0, c1, size):
        calls.append((size, np.maximum(r1 - r0, c1 - c0).tolist()))
        return blocks(ab, eta, r0, r1, c0, c1, size)

    monkeypatch.setattr(banded, "_band_blocks", recorded)
    ranks = banded._band_ranks(ab, eta, r0, r1, c0, c1)
    assert calls == [(300, [300]), (5, [5]), (4, [4]), (3, [3, 3])]
    assert ranks.tolist() == _svd_ranks(ab, eta, n, r0, r1, c0, c1)
    assert ranks[3] == 0


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
    # the three-term minor recursion against the elimination on the band
    a = geometric(q)
    minors = walk_minors(a.entry, 1, 32)
    np.testing.assert_allclose(det_sequence(a, BlockPartition.unit(32), 32),
                               minors[1:], rtol=1e-12)


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


def assert_dets_match_slogdet(a, s, K):
    """det_sequence and _cut_logdets against dense slogdet of every corner,
    to 1e-10 of the corner's Hadamard bound (prod of its row norms), with
    the same sign wherever the dense determinant clears that band."""
    signs, logabs = _cut_logdets(a.bands(1, s.cut(K)), a.eta, s.s[:K])
    dets = det_sequence(a, s, K)
    for p in range(1, K + 1):
        corner = truncate(a, s, p)
        sg, la = np.linalg.slogdet(corner)
        band = 1e-10 * np.prod(np.linalg.norm(corner, axis=1))
        assert dets[p - 1] == signs[p - 1] * np.exp(logabs[p - 1])
        assert abs(dets[p - 1] - sg * math.exp(la)) <= band
        if abs(sg * math.exp(la)) > band:
            assert signs[p - 1] == sg
            assert logabs[p - 1] == pytest.approx(la, abs=1e-12 * max(1, K))


@seed(4)
@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 3), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "zero", "sparse", "tiny"]))
def test_cut_logdets_match_dense_slogdet(eta, widths, s_seed, diag):
    # random bands, a quarter each with a zero diagonal, with half their
    # entries zero and with one diagonal entry of 1e-12, so exchanges,
    # corners read before an exchange and exactly singular cuts all occur
    n = sum(widths)
    rng = np.random.default_rng(s_seed)
    mat = rng.standard_normal((n, n))
    mat[np.abs(np.subtract.outer(range(n), range(n))) > eta] = 0.0
    if diag == "zero":
        np.fill_diagonal(mat, 0.0)
    elif diag == "sparse":
        mat[rng.random((n, n)) < 0.5] = 0.0
    elif diag == "tiny":
        i = rng.integers(n)
        mat[i, i] = 1e-12
    assert_dets_match_slogdet(BandedSymbol.from_dense(mat, eta=eta),
                              BlockPartition(np.cumsum(widths)), len(widths))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_dets_of_the_zero_diagonal_perturbation(q):
    # bhat of ex59: the odd corners are exactly singular, D_2 = -q^2, and
    # every later even corner is still exact
    a = PerturbedIdentity.geometric(q).base
    dets = det_sequence(a, BlockPartition.unit(12), 12)
    assert np.all(dets[::2] == 0.0)
    assert dets[1] == pytest.approx(-q * q, rel=1e-15)
    assert_dets_match_slogdet(a, BlockPartition.unit(12), 12)


def test_dets_of_a_permutation_symbol_exchange_within_a_block():
    # blocks [[0, 1], [1, 0]]: every cut corner is invertible, although the
    # first pivot of an unexchanged elimination is zero
    a = BandedSymbol.from_dense(np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]]))
    s = BlockPartition((2, 4, 6))
    np.testing.assert_array_equal(det_sequence(a, s, 3), [-1.0, 1.0, -1.0])
    assert_dets_match_slogdet(a, s, 3)


@seed(5)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 3), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1), st.sampled_from(["normal", "symmetric",
                                                    "sparse"]))
def test_band_commutator_matches_the_dense_corners(eta, widths, s_seed, kind):
    # |A_n A_n^T - A_n^T A_n|_F and |A_n|_F^2 at every cut, against dense
    # products of the corner; a symmetric band gives an exact zero
    s = BlockPartition(np.cumsum(widths))
    n, rng = s.cut(len(s)), np.random.default_rng(s_seed)
    mat = rng.standard_normal((n + 2 * eta, n + 2 * eta))
    mat[np.abs(np.subtract.outer(*2 * [range(len(mat))])) > eta] = 0.0
    if kind == "symmetric":
        mat += mat.T
    elif kind == "sparse":
        mat[rng.random(mat.shape) < 0.5] = 0.0
    a = BandedSymbol.from_dense(mat, eta=eta)
    comm, scale = _corner_commutators(a.bands(1, n + eta), eta, s.s)
    for p in range(1, len(s) + 1):
        A = truncate(a, s, p)
        band = 1e-13 * np.linalg.norm(a.window(s.cut(p) + eta)) ** 2
        assert abs(comm[p - 1] - np.linalg.norm(A @ A.T - A.T @ A)) <= band
        assert scale[p - 1] == pytest.approx(np.linalg.norm(A) ** 2,
                                             rel=1e-13)
        if kind == "symmetric":
            assert comm[p - 1] == 0.0


@seed(19)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 30),
       st.integers(0, 2**32 - 1))
def test_band_products_match_the_dense_corner_products(eta, i, n, s_seed):
    # P A, P^T P at w = i eta and A A^T - A^T A from the bands, against
    # dense products of the n x n corners on every corner entry, to 1e-13
    # of the largest entry of the product of the absolute values; A's band
    # reaches past the corner, which must change none of them
    rng = np.random.default_rng(s_seed)
    ab = rng.standard_normal((2 * eta + 1, n))
    ab[rng.random(ab.shape) < 0.3] = 0.0
    for d in range(1, eta + 1):
        ab[eta - d, :d] = 0.0  # above row 1
    A, w, abt = _dense(ab, eta, n), i * eta, _transpose(ab, eta)
    P, p = np.linalg.matrix_power(A, i), _band_power(ab, eta, i)
    assert_same_bits(_dense(abt, eta, n), A.T)
    comm = _band_product(ab, eta, abt, eta) - _band_product(abt, eta, ab, eta)
    for band, bw, want, scale in (
            (_band_product(p, w, ab, eta), w + eta, P @ A,
             np.abs(P) @ np.abs(A)),
            (_band_product(_transpose(p, w), w, p, w), 2 * w, P.T @ P,
             np.abs(P.T) @ np.abs(P)),
            (comm, 2 * eta, A @ A.T - A.T @ A, 2 * np.abs(A) @ np.abs(A.T))):
        assert band.shape == (2 * bw + 1, n)
        np.testing.assert_allclose(_dense(band, bw, n), want, rtol=0.0,
                                   atol=1e-13 * scale.max())


def band_with_tiny_minor(eta, n, p, tiny, seed):
    """A dense n x n band of U(-1, 1) entries whose leading p x p minor is
    `tiny` times the product of that corner's row norms: det A_p is affine
    in a_pp, which is solved for."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    mat = np.where(abs(i - j) <= eta, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    mat[p - 1, p - 1] = 0.0
    rest = np.linalg.det(mat[:p, :p])
    scale = np.prod(np.linalg.norm(mat[:p, :p], axis=1))
    mat[p - 1, p - 1] = (tiny * scale - rest) / np.linalg.det(
        mat[:p - 1, :p - 1])
    return mat


def test_cut_logdets_after_a_tiny_leading_minor_at_eta_2():
    # det A_2 = 1e-12 of its scale and A_4 has condition number about 3; an
    # elimination through the tiny pivot would miss its log|det| by ~1e-4
    mat = band_with_tiny_minor(2, 8, 2, 1e-12, seed=0)
    cuts = tuple(range(1, 9))
    signs, logabs = _cut_logdets(
        BandedSymbol.from_dense(mat, eta=2).bands(1, 8), 2, cuts)
    checked = 0
    for p in cuts:
        corner = mat[:p, :p]
        if np.linalg.cond(corner) < 1e6:
            sg, la = np.linalg.slogdet(corner)
            checked += 1
            assert signs[p - 1] == sg
            assert abs(logabs[p - 1] - la) <= 1e-8
    assert checked >= 4


def test_cut_logdets_leading_minors_match_mpmath():
    # every corner to 1e-14 of its Hadamard bound, with the 40-digit sign;
    # log|det| to 1e-13 wherever the corner is well conditioned, which is
    # every corner but the tiny A_2
    import mpmath as mp
    mat = band_with_tiny_minor(2, 12, 2, 1e-12, seed=0)
    cuts = tuple(range(1, 13))
    signs, logabs = _cut_logdets(
        BandedSymbol.from_dense(mat, eta=2).bands(1, 12), 2, cuts)
    with mp.workdps(40):
        exact = [mp.det(mp.matrix(mat[:p, :p].tolist())) for p in cuts]
        refs = [(int(mp.sign(d)), float(mp.log(abs(d)))) for d in exact]
    checked = 0
    for p, (sg, la) in zip(cuts, refs):
        corner = mat[:p, :p]
        band = 1e-14 * np.prod(np.linalg.norm(corner, axis=1))
        assert signs[p - 1] == sg
        assert abs(signs[p - 1] * math.exp(logabs[p - 1])
                   - sg * math.exp(la)) <= band
        if np.linalg.cond(corner) < 1e6:
            checked += 1
            assert abs(logabs[p - 1] - la) <= 1e-13
    assert checked == 11


def test_cut_logdets_past_a_tiny_first_pivot_is_one_call(monkeypatch):
    # a first pivot of 1e-9 below a unit diagonal: one pass gives every
    # corner, with no call per corner past it
    L, calls, cut_logdets = 400, [], banded._cut_logdets

    def counted(*args):
        calls.append(args)
        return cut_logdets(*args)

    monkeypatch.setattr(banded, "_cut_logdets", counted)
    rng = np.random.default_rng(1)
    i, j = np.indices((L, L))
    mat = np.where(abs(i - j) <= 2, rng.uniform(-0.2, 0.2, (L, L)), 0.0)
    np.fill_diagonal(mat, 1.0)
    mat[0, 0] = 1e-9
    signs, logabs = banded._cut_logdets(
        BandedSymbol.from_dense(mat, eta=2).bands(1, L), 2,
        tuple(range(1, L + 1)))
    assert len(calls) == 1
    for p in (1, 2, 3, 10, 100, L):
        sg, la = np.linalg.slogdet(mat[:p, :p])
        assert signs[p - 1] == sg
        assert logabs[p - 1] == pytest.approx(la, abs=1e-11)


def cut_logdets_in_chunks(ab, eta, cuts, rows):
    """`_cut_logdets` turning `rows` band rows into lists at a time."""
    saved, banded._CHUNK_ROWS = banded._CHUNK_ROWS, rows
    try:
        return _cut_logdets(ab, eta, cuts)
    finally:
        banded._CHUNK_ROWS = saved


@seed(6)
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.integers(1, 4), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1),
       st.sampled_from(["normal", "zero", "sparse", "tiny"]))
def test_cut_logdets_chunks_leave_every_bit(eta, widths, s_seed, diag):
    # rows converted 1, 2, 3 or 5 at a time, exchanges and corner reads
    # across the chunk edges: the same bits as one chunk of every row
    n = sum(widths)
    rng = np.random.default_rng(s_seed)
    ab = rng.standard_normal((2 * eta + 1, n + eta))
    if diag == "zero":
        ab[eta] = 0.0
    elif diag == "sparse":
        ab[rng.random(ab.shape) < 0.5] = 0.0
    elif diag == "tiny":
        ab[eta, rng.integers(n)] = 1e-12
    cuts = tuple(np.cumsum(widths).tolist())
    want = cut_logdets_in_chunks(ab, eta, cuts, n + eta)
    for rows in (1, 2, 3, 5):
        got = cut_logdets_in_chunks(ab, eta, cuts, rows)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_det_sequence_runs_in_bounded_memory():
    # step j of the elimination reads rows j..j + eta only, so rows become
    # lists a chunk at a time and leave once eliminated: with the pivots
    # and the per-corner arrays, the peak stays under three bands' bytes
    L, b = 200_000, PerturbedIdentity.geometric(0.5)
    ab = b.symbol.bands(1, L)
    a = BandedSymbol(1, lambda lo, hi: ab[:, lo - 1:hi])
    s = BlockPartition.unit(L)
    tracemalloc.start()
    try:
        dets = det_sequence(a, s, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ab.nbytes
    assert len(dets) == L and dets.min() > b.det_floor


def test_det_singular_corner_reported():
    # the corners past a singular one are their own determinants
    a = BandedSymbol.from_entries(1, {(1, 1): 1.0, (2, 2): 0.0, (3, 3): 2.0,
                                      (2, 3): 1.0, (3, 2): 1.0})
    signs, logabs = _cut_logdets(a.bands(1, 3), 1, (1, 2, 3))
    assert signs[1] == 0.0 and logabs[1] == -math.inf
    np.testing.assert_array_equal(det_sequence(a, BlockPartition.unit(3), 3),
                                  [1.0, 0.0, -1.0])
    dets = det_sequence(BandedSymbol.diagonal([1.0, 0.0, 2.0]),
                        BlockPartition.unit(3), 3)
    np.testing.assert_array_equal(dets, [1.0, 0.0, 0.0])


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


@seed(17)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.integers(1, 10), st.data())
def test_power_of_explicit_bands_matches_the_dense_corner(eta, k, window,
                                                          data):
    # entries reach past the (window + k eta) corner, which they must not
    # change; the result's band is clipped where window - 1 < k eta
    n = window + k * eta
    cells = [(i, j) for i in range(1, n + eta + 1)
             for j in range(1, n + eta + 1) if abs(i - j) <= eta]
    a = BandedSymbol.from_entries(eta, data.draw(st.dictionaries(
        st.sampled_from(cells), st.floats(-1.0, 1.0), max_size=len(cells))))
    pw = power(a, k, window)
    naive = np.eye(n)
    for _ in range(k):
        naive = naive @ a.window(n)
    np.testing.assert_allclose(
        pw.window(window), naive[:window, :window], rtol=0.0,
        atol=1e-13 * max(1.0, np.abs(naive).max()))
    assert pw.eta == min(k * eta, max(window - 1, 0))
    assert pw.entry(window + 1, window) == 0.0
    assert not pw.bands(window + 1, window + 2).any()
    if k == 1:
        assert_same_bits(pw.window(window), a.window(window))


def test_power_entry_bound_geometric():
    b = PerturbedIdentity.geometric(0.5)
    for k in range(1, 5):
        ok, worst = power_entry_bound(b, k, 12)
        assert ok and worst <= 1.0 + 1e-12


def rounding_up(q, j):
    """How far the float q**j lies above the real q^j, relative to it."""
    import mpmath as mp
    with mp.workdps(40):
        return float(mp.mpf(q ** j) / mp.mpf(q) ** j) - 1.0


@pytest.mark.parametrize("q,j,up", [(0.3, 617, 0.02), (0.41, 833, 0.05),
                                    (0.6, 1458, 0.41)])
def test_every_row_to_the_underflow_depth_passes_the_row_bound(q, j, up):
    # entry (j + 1, j) is the float q**j and alpha_(j + 1) the real q^j,
    # in log space; just before q**j underflows it rounds up by `up` of
    # itself, which half an ulp of the entry allows for
    assert rounding_up(q, j) > up
    depth = next(k for k in range(1, 2000) if q ** k == 0.0)
    b = PerturbedIdentity.geometric(q)
    b.validate_window(depth + 1)
    assert b.validated_window == depth + 1
    for k in (1, 2):
        ok, worst = power_entry_bound(b, k, depth + 1)
        assert ok and worst <= 1.0 + 1e-12


def test_log_least_is_half_an_ulp_below():
    # 2^-53 of a normal |x|; 2^-1075 of 3 and 1 times 2^-1074
    tiny, sub, rel = np.finfo(float).tiny, 2.0 ** -1074, 1.0 - 2.0 ** -53
    x = np.array([0.0, -1.0, 0.75, tiny, 3 * sub, sub])
    want = [-np.inf, math.log(rel), math.log(0.75 * rel),
            math.log(tiny * rel), math.log(2.5) - 1074 * math.log(2),
            -1075 * math.log(2)]
    np.testing.assert_allclose(banded._log_least(x), want, rtol=1e-15)


# -- perturbed identity ----------------------------------------------------

def test_perturbed_identity_preconditions():
    good = PerturbedIdentity.geometric(0.5)
    assert all(ok for _, ok in good.preconditions)
    bad = PerturbedIdentity.geometric(0.8)
    assert any(not ok for _, ok in bad.preconditions)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_geometric_det_floor_bounds_the_corners(q):
    b = PerturbedIdentity.geometric(q)
    assert b.det_floor == 1.0 - q * q / (1.0 - q * q)
    dets = det_sequence(b.symbol, BlockPartition.unit(64), 64)
    assert dets.min() > b.det_floor


def test_perturbed_identity_symbol_diagonal():
    b = PerturbedIdentity.geometric(0.5)
    assert b.symbol.entry(3, 3) == 1.0
    assert b.symbol.entry(2, 3) == 0.25


def test_perturbed_identity_rejects_asymmetry():
    base = BandedSymbol.from_entries(1, {(1, 2): 0.5, (2, 1): 0.4})
    with pytest.raises(ValueError):
        PerturbedIdentity(base=base, log_alpha=log_one,
                          log_weights=halves, m=0.25, M=0.75,
                          alpha_sum=10.0, weight_sum=1.0)


def test_perturbed_identity_rejects_row_bound_violation():
    base = BandedSymbol.geometric_tridiagonal(0.5, diag=0.0)
    with pytest.raises(ValueError):
        PerturbedIdentity(base=base,
                          log_alpha=lambda j: halves(j) + math.log(0.1),
                          log_weights=halves, m=0.25, M=0.75,
                          alpha_sum=0.2, weight_sum=1.0)


def test_validate_window_checks_each_coordinate_once():
    calls = []

    def log_alpha(j):
        calls.extend(j.tolist())
        return halves(j - 1)

    b = PerturbedIdentity(base=BandedSymbol.geometric_tridiagonal(0.5, 0.0),
                          log_alpha=log_alpha, log_weights=halves, m=0.25,
                          M=0.75, alpha_sum=2.0, weight_sum=1.0)
    assert b.validated_window == 16 and calls == list(range(1, 17))
    calls.clear()
    b.validate_window(10)
    b.validate_window(16)
    assert calls == []
    b.validate_window(40)
    # row 16, whose band reaches past the old window, is checked again from
    # the alpha_16 read before: each coordinate is read once
    assert b.validated_window == 40 and calls == list(range(17, 41))


def test_validate_window_reads_each_weight_once():
    calls = []

    def log_weights(j):
        calls.extend(j.tolist())
        return halves(j)

    b = PerturbedIdentity(base=BandedSymbol.geometric_tridiagonal(0.5, 0.0),
                          log_alpha=lambda j: halves(j - 1),
                          log_weights=log_weights, m=0.25, M=0.75,
                          alpha_sum=2.0, weight_sum=1.0)
    assert b.validated_window == 16 and calls == list(range(1, 17))
    calls.clear()
    b.validate_window(10)
    b.validate_window(16)
    assert calls == []
    b.validate_window(40)
    # the first new ratio p_17 / p_16 takes the old edge weight as read
    assert b.validated_window == 40 and calls == list(range(17, 41))


@pytest.mark.parametrize("eta,i,j", [(1, 16, 17), (2, 16, 17), (2, 15, 17)])
def test_validate_window_growth_checks_the_old_edge(eta, i, j):
    # an entry in a row inside the validated window [1, 16] whose column
    # lies past it is first seen when the window grows
    asym = BandedSymbol.from_entries(eta, {(i, j): 0.5, (j, i): 0.4})
    b = PerturbedIdentity(base=asym, log_alpha=log_one,
                          log_weights=halves, m=0.25, M=0.75,
                          alpha_sum=40.0, weight_sum=1.0)
    assert b.validated_window == 16
    with pytest.raises(ValueError, match=rf"not symmetric at \({i}, {j}\)"):
        b.validate_window(40)
    assert b.validated_window == 16
    # row j's own bound is loose, so only row i can see the violation
    big = BandedSymbol.from_entries(eta, {(i, j): 2.0, (j, i): 2.0})
    b = PerturbedIdentity(base=big,
                          log_alpha=lambda k: np.where(k == j, math.log(3), 0),
                          log_weights=halves, m=0.25, M=0.75,
                          alpha_sum=40.0, weight_sum=1.0)
    with pytest.raises(ValueError, match=rf"\|bhat_\({i},{j}\)\| = 2.0 "):
        b.validate_window(40)


def test_validate_window_growth_checks_the_new_weight_ratios():
    b = PerturbedIdentity(base=BandedSymbol.geometric_tridiagonal(0.5, 0.0),
                          log_alpha=log_one,
                          log_weights=lambda k: k * np.log(np.where(
                              k <= 16, 0.5, 0.1)),
                          m=0.25, M=0.75, alpha_sum=40.0, weight_sum=1.0)
    with pytest.raises(ValueError, match=r"p_17/p_16"):
        b.validate_window(40)


def test_validated_window_is_not_an_argument():
    with pytest.raises(TypeError):
        PerturbedIdentity(base=BandedSymbol.from_entries(1, {}),
                          log_alpha=log_one, log_weights=halves,
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


# -- the band against the rule's own formula --------------------------------

def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same_bits(x, y):
    assert np.shape(x) == np.shape(y)
    assert np.array_equal(bits(x), bits(y))


def walk_window(f, eta, n):
    """The dense corner a walk over f(i, j) writes, zero outside the band."""
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(max(1, i - eta), min(n, i + eta) + 1):
            out[i - 1, j - 1] = f(i, j)
    return out


def walk_minors(f, eta, n):
    """The three-term minor recursion, each entry read through f."""
    def e(i, j):
        return float(f(i, j)) if abs(i - j) <= eta else 0.0

    minors = [1.0]
    for i in range(1, n + 1):
        d = e(i, i) * minors[i - 1]
        if i >= 2:
            d -= e(i, i - 1) * e(i - 1, i) * minors[i - 2]
        minors.append(d)
    return minors


@st.composite
def rule_symbols(draw):
    """(symbol, its entry formula f(i, j) on the band, eta, n)."""
    n = draw(st.integers(1, 40))
    q = draw(st.floats(min_value=0.01, max_value=0.99))
    kind = draw(st.sampled_from(["identity", "diagonal", "sequence",
                                 "geometric", "entries"]))
    if kind == "identity":
        a, eta = BandedSymbol.identity(), 0
        f = lambda i, j: 1.0 if i == j else 0.0
    elif kind in ("diagonal", "sequence"):
        rule = lambda j: 1.0 - q ** j
        alpha = rule if kind == "diagonal" else [rule(j) for j in
                                                 range(1, n + 1)]
        a, eta = BandedSymbol.diagonal(alpha), 0
        f = lambda i, j: rule(i) if i == j else 0.0
    elif kind == "geometric":
        diag = draw(st.sampled_from([1.0, 0.0, -2.5]))
        a, eta = BandedSymbol.geometric_tridiagonal(q, diag), 1

        def f(i, j):
            if i == j:
                return diag
            return q ** min(i, j) if abs(i - j) == 1 else 0.0
    else:
        eta = draw(st.integers(0, 3))
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if abs(i - j) <= eta]
        values = st.sampled_from([0.0, -0.0, 1.0, -0.5, q, -q ** 3, 7.25])
        table = draw(st.dictionaries(st.sampled_from(cells), values,
                                     max_size=len(cells)))
        a = BandedSymbol.from_entries(eta, table)
        f = lambda i, j: table.get((i, j), 0.0)
    chain = draw(st.sampled_from(["none", "scaled", "plus_identity",
                                  "from_dense"]))
    if chain == "scaled":
        c = draw(st.sampled_from([-1.5, 0.3, 2.0]))
        a, g = a.scaled(c), f
        f = lambda i, j: c * g(i, j)
    elif chain == "plus_identity":
        a, g = a.plus_identity(), f
        f = lambda i, j: g(i, j) + (1.0 if i == j else 0.0)
    elif chain == "from_dense":
        # a dense corner stores its nonzero entries only: -0.0 reads 0.0
        a, g = BandedSymbol.from_dense(a.window(n)), f
        f = lambda i, j: (g(i, j) or 0.0) if max(i, j) <= n else 0.0
    return a, f, eta, n


@seed(13)
@settings(max_examples=300, deadline=None)
@given(rule_symbols(), st.data())
def test_every_view_reads_the_rule_bit_for_bit(case, data):
    a, f, eta, n = case
    # a from_dense chain infers its own, possibly smaller, bandwidth
    assert a.eta <= eta
    W = walk_window(f, eta, n)
    assert_same_bits(a.window(n), W)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert_same_bits(a.entry(i, j), W[i - 1, j - 1])
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo, n))
    ab = a.bands(lo, hi)
    assert ab.shape == (2 * a.eta + 1, hi - lo + 1)
    for k in range(2 * a.eta + 1):
        for j in range(lo, hi + 1):
            i = j + k - a.eta  # outside the matrix where i < 1
            if i >= 1:
                assert_same_bits(ab[k, j - lo], f(i, j))
            else:
                assert ab[k, j - lo] == 0.0
    # the band of the transpose of the corner on columns lo..hi, exactly
    m = hi - lo + 1
    assert_same_bits(_dense(_transpose(ab, a.eta), a.eta, m),
                     W[lo - 1:hi, lo - 1:hi].T)
    s = BlockPartition(np.cumsum(data.draw(st.lists(
        st.integers(1, 4), min_size=1, max_size=n))))
    K = len(s) if s.cut(len(s)) <= n else int(np.searchsorted(s.s, n,
                                                              "right"))
    for p in range(1, K + 1):
        for q in range(max(1, p - 2), min(K, p + 2) + 1):
            (rlo, rhi), (clo, chi) = s.block_rows(p), s.block_rows(q)
            want = (W[rlo - 1:rhi, clo - 1:chi] if abs(p - q) <= 1
                    else np.zeros((rhi - rlo + 1, chi - clo + 1)))
            assert_same_bits(block(a, s, p, q), want)
    if eta <= 1 and K:
        # the elimination, not this walk, gives det_sequence: the same to
        # 1e-12, and an exact zero wherever the walk gives one
        minors = walk_minors(f, eta, n)
        want = np.array([minors[s.cut(p)] for p in range(1, K + 1)])
        dets = det_sequence(a, s, K)
        np.testing.assert_allclose(dets, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(dets == 0.0, want == 0.0)


def first_violation_by_rows(base, log_alpha, w, n):
    """The row loop `validate_window` replaced: the first symmetry or row
    bound message on rows max(1, w - eta + 1)..n, else None."""
    for i in range(max(1, w - base.eta + 1), n + 1):
        ai = math.exp(log_alpha(np.array([i]))[0])
        if not ai > 0:
            return f"alpha_{i} must be positive"
        for j in range(max(1, i - base.eta), min(n, i + base.eta) + 1):
            if base.entry(i, j) != base.entry(j, i):
                return f"perturbation not symmetric at ({i}, {j})"
            if abs(base.entry(i, j)) > ai * (1 + 1e-12):
                return (f"|bhat_({i},{j})| = {abs(base.entry(i, j))} "
                        f"exceeds alpha_{i} = {ai}")
    return None


@st.composite
def perturbations(draw):
    eta = draw(st.integers(0, 3))
    n = draw(st.integers(17, 40))
    values = st.sampled_from([0.25, -0.25, 0.5, 1.0, 2.0, 1e-300])
    cells = [(i, j) for i in range(1, n + eta + 1)
             for j in range(i, min(n + eta, i + eta) + 1)]
    table = {}
    for (i, j), v in draw(st.dictionaries(st.sampled_from(cells), values,
                                          max_size=12)).items():
        table[(i, j)] = table[(j, i)] = v
    # break symmetry at a few cells; alpha breaks the row bound elsewhere
    for (i, j), v in draw(st.dictionaries(st.sampled_from(cells), values,
                                          max_size=2)).items():
        table[(j, i)] = v
    alphas = draw(st.lists(st.sampled_from([1.0, 0.5, 2, 0.3]),
                           min_size=n, max_size=n))
    bad = draw(st.none() | st.tuples(st.integers(1, n),
                                      st.sampled_from([0.0, -1.0])))
    if bad:
        alphas[bad[0] - 1] = bad[1]
    return BandedSymbol.from_entries(eta, table), alphas, n


@seed(17)
@settings(max_examples=400, deadline=None)
@given(perturbations())
def test_validate_window_reports_the_row_walks_first_violation(case):
    base, alphas, n = case
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(alphas)  # -inf at 0, nan below

    def log_alpha(k):
        return logs[k - 1]

    def make():
        return PerturbedIdentity(base=base, log_alpha=log_alpha,
                                 log_weights=halves, m=0.25, M=0.75,
                                 alpha_sum=100.0, weight_sum=1.0)

    want = first_violation_by_rows(base, log_alpha, 0, 16)
    if want is not None:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == want
        return
    b = make()
    want = first_violation_by_rows(base, log_alpha, 16, n)
    if want is None:
        b.validate_window(n)
        assert b.validated_window == n
    else:
        with pytest.raises(ValueError) as err:
            b.validate_window(n)
        assert str(err.value) == want and b.validated_window == 16


def test_validate_window_and_minors_read_each_rule_value_once():
    calls = []

    def rule(j):
        calls.append(j)
        return 0.5 ** j

    b = PerturbedIdentity(base=BandedSymbol.diagonal(rule),
                          log_alpha=log_one, log_weights=halves,
                          m=0.25, M=0.75, alpha_sum=100.0, weight_sum=1.0)
    assert sorted(calls) == list(range(1, 17))
    calls.clear()
    b.validate_window(40)
    assert sorted(calls) == list(range(17, 41))  # once per new coordinate
    calls.clear()
    det_sequence(b.symbol, BlockPartition.unit(40), 40)
    assert sorted(calls) == list(range(1, 41))


def test_validate_window_names_asymmetry_before_the_row_bound():
    # (17, 18) is both asymmetric and over its row bound: the symmetry
    # check comes first, as in the row walk
    base = BandedSymbol.from_entries(1, {(17, 18): 2.0, (18, 17): 1.0})
    b = PerturbedIdentity(base=base, log_alpha=log_one,
                          log_weights=halves, m=0.25, M=0.75,
                          alpha_sum=100.0, weight_sum=1.0)
    with pytest.raises(ValueError) as err:
        b.validate_window(40)
    assert str(err.value) == "perturbation not symmetric at (17, 18)"
    assert first_violation_by_rows(base, log_one, 16, 40) == \
        str(err.value)
