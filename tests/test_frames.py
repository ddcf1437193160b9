import json
import pickle

import numpy as np
import pytest

from ffsparse import (
    BlockSupport,
    BlockVector,
    FusionFrame,
    IncoherenceMatrix,
    frame_bounds,
    frame_from_json,
    frame_to_json,
    incoherence,
    lambda_eff,
    lambda_max,
    orthogonal_frame,
    random_frame,
    restricted_norms,
)


def two_lines(angle):
    """Two 1-d subspaces of R^2 spanned by (1,0) and (cos a, sin a)."""
    bases = np.zeros((2, 2, 1))
    bases[0, :, 0] = [1.0, 0.0]
    bases[1, :, 0] = [np.cos(angle), np.sin(angle)]
    return FusionFrame(bases)


# -- construction and invariants ----------------------------------------------

def test_random_frame_invariants():
    fr = random_frame(10, 5, 2, seed=7)
    for j in range(10):
        u = fr.basis(j)
        assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-10
        p = fr.projector(j)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p - p.T).max() <= 1e-10
        assert np.linalg.matrix_rank(p) == 2


def test_random_frame_full_dimensional():
    fr = random_frame(1, 2, 2, seed=11)
    assert np.abs(fr.projector(0) - np.eye(2)).max() <= 1e-10


def test_random_frame_deterministic():
    a = random_frame(6, 4, 2, seed=42)
    b = random_frame(6, 4, 2, seed=42)
    assert np.array_equal(a.bases, b.bases)
    c = random_frame(6, 4, 2, seed=43)
    assert not np.array_equal(a.bases, c.bases)


def _sequential_frame_bases(n, d, k, seed):
    """random_frame's bases drawn and factored one subspace at a time."""
    rng = np.random.default_rng(seed)
    bases = np.empty((n, d, k))
    for j in range(n):
        q, r = np.linalg.qr(rng.standard_normal((k, d)).T)
        bases[j] = q * np.sign(np.diag(r))[None, :]
    return bases


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_frame_matches_sequential_draws(k):
    for n, d, seed in [(100, 12, 1), (60, 6, 2), (7, 3, 3)]:
        assert np.array_equal(random_frame(n, d, k, seed).bases,
                              _sequential_frame_bases(n, d, k, seed))


def test_random_frame_stays_orthonormal_on_a_rank_deficient_draw(monkeypatch):
    # a stacked QR that reports a zero diagonal of R (a rank-deficient draw)
    # still gives an orthonormal frame; every other basis keeps its bits
    real_qr = np.linalg.qr
    stacked_calls = []

    def qr_with_a_deficient_stack(a, *args, **kwargs):
        q, r = real_qr(a, *args, **kwargs)
        if a.ndim == 3:
            stacked_calls.append(a.shape)
            r = r.copy()
            r[2, 0, 0] = 0.0
        return q, r

    monkeypatch.setattr(np.linalg, "qr", qr_with_a_deficient_stack)
    fr = random_frame(6, 4, 2, seed=9)
    assert stacked_calls == [(6, 4, 2)]
    monkeypatch.undo()
    gram = np.einsum("jdk,jdl->jkl", fr.bases, fr.bases)
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(fr.bases[others], _sequential_frame_bases(6, 4, 2, 9)[others])


def test_random_frame_rejects_bad_dims():
    with pytest.raises(ValueError):
        random_frame(5, 2, 3, seed=0)
    with pytest.raises(ValueError):
        random_frame(0, 3, 1, seed=0)


def test_frame_rejects_non_orthonormal_basis():
    bases = np.ones((1, 3, 2))
    with pytest.raises(ValueError):
        FusionFrame(bases)


def test_frame_names_the_first_non_orthonormal_basis():
    bases = orthogonal_frame(4, 1).bases.copy()
    bases[3, 3, 0] = 2.0
    bases[1, 1, 0] = 1.5
    with pytest.raises(ValueError, match=r"^basis 1 is not orthonormal \(deviation 1\.25e\+00\)$"):
        FusionFrame(bases)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["basis", "weight"])
def test_frame_rejects_non_finite_input(where, bad):
    bases = orthogonal_frame(3, 1).bases.copy()
    weights = np.ones(3)
    if where == "basis":
        bases[1, 0, 0] = bad
    else:
        weights[1] = bad
    with pytest.raises(ValueError):
        FusionFrame(bases, weights=weights)


# -- frame bounds --------------------------------------------------------------

def test_frame_bounds_orthogonal_resolution():
    fr = orthogonal_frame(2, 1)  # two orthogonal lines in R^2
    lo, hi = frame_bounds(fr)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_frame_bounds_single_full_subspace():
    fr = random_frame(1, 3, 3, seed=5)
    lo, hi = frame_bounds(fr)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_frame_bounds_match_stacked_singular_values():
    # independent route: eigenvalues of sum_j v_j^2 P_j are the squared
    # singular values of the stacked weighted bases [v_1 U_1 ... v_N U_N]
    fr = random_frame(20, 5, 2, seed=9)
    lo, hi = frame_bounds(fr)
    stacked = np.hstack([fr.basis(j) for j in range(20)])
    svals = np.linalg.svd(stacked, compute_uv=False)
    assert hi == pytest.approx(float(svals[0] ** 2), abs=1e-8)
    expected_lo = float(svals[-1] ** 2) if stacked.shape[1] >= 5 else 0.0
    assert lo == pytest.approx(expected_lo, abs=1e-8)


def test_frame_bound_sandwich():
    fr = random_frame(15, 6, 2, seed=13)
    lo, hi = frame_bounds(fr)
    rng = np.random.default_rng(14)
    for _ in range(1000):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        energy = sum(np.linalg.norm(fr.projector(j) @ v) ** 2 for j in range(15))
        assert lo - 1e-9 <= energy <= hi + 1e-9


# -- incoherence -----------------------------------------------------------------

def test_incoherence_orthogonal_is_zero():
    fr = orthogonal_frame(3, 2)
    assert np.all(incoherence(fr).entries == 0.0)


def test_incoherence_two_lines_is_cosine():
    angle = 0.73
    fr = two_lines(angle)
    entry = incoherence(fr).entries[0, 1]
    assert entry == pytest.approx(abs(np.cos(angle)), abs=1e-12)


def test_incoherence_identical_subspaces():
    base = random_frame(1, 4, 2, seed=3).basis(0)
    fr = FusionFrame(np.stack([base, base]))
    assert incoherence(fr).entries[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_incoherence_matches_dense_projector_svd():
    fr = random_frame(8, 5, 2, seed=21)
    incoh = incoherence(fr)
    for i in range(8):
        for j in range(i + 1, 8):
            dense = np.linalg.svd(fr.projector(i) @ fr.projector(j), compute_uv=False)[0]
            assert incoh.entries[i, j] == pytest.approx(float(dense), abs=1e-8)


@pytest.mark.parametrize("shape", [(1, 4, 2), (2, 4, 2), (30, 5, 3), (60, 6, 2), (40, 3, 1)])
def test_incoherence_matches_pairwise_loop(shape):
    # the batched rows give the bits of one k x k SVD per pair
    fr = random_frame(*shape, seed=sum(shape))
    n = fr.n_subspaces
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = np.linalg.svd(fr.basis(i).T @ fr.basis(j), compute_uv=False)
            entries[i, j] = entries[j, i] = min(float(s[0]), 1.0)
    assert np.array_equal(incoherence(fr).entries, entries)


def test_pickled_frame_keeps_incoherence():
    fr = random_frame(10, 4, 2, seed=5)
    incoh = incoherence(fr)
    copy = pickle.loads(pickle.dumps(fr))
    assert copy._incoherence_cache is not None
    assert np.array_equal(incoherence(copy).entries, incoh.entries)


def test_cross_gram_blocks_and_pickle():
    fr = random_frame(10, 4, 2, seed=5)
    cross = fr.cross_gram()
    assert cross.shape == (20, 20)
    assert not cross.flags.writeable
    assert fr.cross_gram() is cross
    assert np.abs(cross[2:4, 6:8] - fr.basis(1).T @ fr.basis(3)).max() <= 1e-15
    copy = pickle.loads(pickle.dumps(fr))
    assert copy._cross_gram_cache is not None
    assert np.array_equal(copy.cross_gram(), cross)


def test_incoherence_matrix_validation():
    with pytest.raises(ValueError):
        IncoherenceMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        IncoherenceMatrix(np.array([[0.1, 0.5], [0.5, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        IncoherenceMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range


def test_lambda_max_brute_force():
    fr = random_frame(12, 6, 2, seed=33)
    incoh = incoherence(fr)
    brute = max(
        incoh.entries[i, j] for i in range(12) for j in range(12) if i != j
    )
    assert lambda_max(incoh) == pytest.approx(brute, abs=0.0)
    assert lambda_max(IncoherenceMatrix(np.zeros((4, 4)))) == 0.0
    entries = np.zeros((3, 3))
    entries[0, 2] = entries[2, 0] = 0.7
    assert lambda_max(IncoherenceMatrix(entries)) == pytest.approx(0.7)


# -- restricted norms -------------------------------------------------------------

def test_restricted_norms_zero_matrix():
    incoh = IncoherenceMatrix(np.zeros((5, 5)))
    norms = restricted_norms(incoh, BlockSupport([0, 2]))
    assert norms == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_restricted_norms_hand_enumeration():
    entries = np.zeros((3, 3))
    entries[0, 1] = entries[1, 0] = 0.5
    entries[0, 2] = entries[2, 0] = 0.2
    entries[1, 2] = entries[2, 1] = 0.1
    incoh = IncoherenceMatrix(entries)
    support = BlockSupport([0, 1])
    norms = restricted_norms(incoh, support)
    # row sums over columns {0,1}: row0 = 0.5, row1 = 0.5, row2 = 0.2+0.1 = 0.3
    assert norms.row_sum == pytest.approx(0.5)
    assert norms.row_sum_sub == pytest.approx(0.5)
    assert norms.row_rms == pytest.approx(0.5)
    assert norms.row_rms_sub == pytest.approx(0.5)
    # support submatrix [[0, .5], [.5, 0]] has spectral norm 0.5
    assert norms.spectral_sub == pytest.approx(0.5)


def test_restricted_norms_inequality_chain():
    rng = np.random.default_rng(55)
    for _ in range(200):
        fr = random_frame(10, int(rng.integers(4, 9)), 2, seed=int(rng.integers(1e6)))
        incoh = incoherence(fr)
        s = int(rng.integers(1, 6))
        support = BlockSupport(rng.choice(10, size=s, replace=False))
        norms = restricted_norms(incoh, support)
        lam = lambda_max(incoh)
        assert norms.row_rms <= norms.row_sum + 1e-12
        assert norms.row_sum <= lam * s + 1e-12
        assert norms.row_sum_sub <= norms.row_sum + 1e-12
        assert norms.spectral_sub <= norms.row_sum_sub + 1e-12


def test_restricted_norms_empty_support():
    incoh = IncoherenceMatrix(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        restricted_norms(incoh, BlockSupport([]))


# -- effective incoherence ---------------------------------------------------------

def test_lambda_eff_zero_matrix():
    incoh = IncoherenceMatrix(np.zeros((6, 6)))
    assert lambda_eff(incoh, BlockSupport([1, 3])) == 0.0


def test_lambda_eff_equi_incoherent():
    lam = 0.37
    n, s = 8, 3
    entries = np.full((n, n), lam)
    np.fill_diagonal(entries, 0.0)
    incoh = IncoherenceMatrix(entries)
    # off-support rows sum to s*lam, so the normalized row sum is exactly lam
    assert lambda_eff(incoh, BlockSupport(range(s))) == pytest.approx(lam)


def test_lambda_eff_near_point_six_for_lines_in_r3():
    # the reference full-scale setting: 200 random one-dimensional subspaces
    # of R^3 give an effective incoherence of about 0.6
    fr = random_frame(200, 3, 1, seed=17)
    incoh = incoherence(fr)
    rng = np.random.default_rng(18)
    values = []
    for _ in range(5):
        support = BlockSupport(rng.choice(200, size=20, replace=False))
        values.append(lambda_eff(incoh, support))
    assert 0.5 <= float(np.median(values)) <= 0.7


@pytest.mark.parametrize("shape", [(40, 3, 1), (30, 6, 2), (25, 7, 3)])
def test_lambda_eff_from_support_columns_matches_full_matrix(shape):
    # from a frame, lambda_eff reads only the support's columns, cached on the
    # frame, and gives the bits of the full matrix's row sums
    n = shape[0]
    rng = np.random.default_rng(n)
    supports = [[0], [n - 1], [0, n - 1], list(range(n)),
                *(rng.choice(n, size=s, replace=False) for s in (2, 7, 10, 17))]
    full = incoherence(random_frame(*shape, seed=n))
    fr = random_frame(*shape, seed=n)
    for indices in supports:
        support = BlockSupport(indices)
        assert lambda_eff(fr, support) == lambda_eff(full, support)
    assert fr._incoherence_cache is None
    assert sorted(fr._coherence_columns) == list(range(n))
    for j, column in fr._coherence_columns.items():
        assert np.array_equal(column, full.entries[:, j])
    with pytest.raises(ValueError):
        lambda_eff(fr, BlockSupport([]))
    with pytest.raises(IndexError):
        lambda_eff(fr, BlockSupport([n]))


def test_lambda_decreases_with_ambient_dimension():
    # medians over 50 seeds: d = 2k packs subspaces tighter than d = 10k
    k = 2
    tight, loose = [], []
    for seed in range(50):
        tight.append(lambda_max(incoherence(random_frame(8, 2 * k, k, seed))))
        loose.append(lambda_max(incoherence(random_frame(8, 10 * k, k, seed))))
    assert np.median(tight) > np.median(loose)


# -- coefficient maps ----------------------------------------------------------------

def test_expand_coefficients_roundtrip():
    fr = random_frame(7, 5, 2, seed=71)
    rng = np.random.default_rng(72)
    c = BlockVector(rng.standard_normal((7, 2)))
    x = fr.expand(c)
    back = fr.coefficients(x)
    assert np.abs(back.blocks - c.blocks).max() <= 1e-12
    # expanded blocks lie in their subspaces: projecting changes nothing
    projected = fr.project_blocks(x.blocks)
    assert np.abs(projected - x.blocks).max() <= 1e-12


# -- serialization ---------------------------------------------------------------------

def test_frame_json_roundtrip_exact():
    fr = random_frame(5, 4, 2, seed=99)
    text = frame_to_json(fr)
    back = frame_from_json(text)
    assert np.array_equal(back.bases, fr.bases)
    assert back.seed == 99
    doc = json.loads(text)
    assert doc["N"] == 5 and doc["d"] == 4 and doc["k"] == 2
