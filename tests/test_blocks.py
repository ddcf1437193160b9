import itertools
import math

import numpy as np
import pytest

from ffsparse import (
    BlockSupport,
    BlockVector,
    best_s_term_error,
    block_sgn,
    norm_l0_block,
    norm_l21,
    norm_l2inf,
    restrict,
)


def random_block_vector(rng, n=None, d=None):
    n = n or int(rng.integers(1, 9))
    d = d or int(rng.integers(1, 6))
    return BlockVector(rng.standard_normal((n, d)))


# -- independent scalar-loop oracles ---------------------------------------

def oracle_l21(x):
    total = 0.0
    for j in range(x.n_blocks):
        sq = 0.0
        for v in x.block(j):
            sq += float(v) * float(v)
        total += math.sqrt(sq)
    return total


def oracle_l2inf(x):
    best = 0.0
    for j in range(x.n_blocks):
        sq = 0.0
        for v in x.block(j):
            sq += float(v) * float(v)
        best = max(best, math.sqrt(sq))
    return best


def oracle_best_s_term(x, s):
    """Exhaustive minimum over all supports of size s of the residual norm."""
    n = x.n_blocks
    best = math.inf
    for keep in itertools.combinations(range(n), s):
        resid = 0.0
        for j in range(n):
            if j not in keep:
                resid += float(np.linalg.norm(x.block(j)))
        best = min(best, resid)
    return best


# -- construction ------------------------------------------------------------

def test_blockvector_validation():
    with pytest.raises(ValueError):
        BlockVector(np.zeros(3))  # not 2-d
    x = BlockVector(np.ones((2, 3)))
    with pytest.raises(ValueError):
        x.blocks[0, 0] = 5.0  # immutable


def test_blocksupport_validation():
    s = BlockSupport([4, 1, 2])
    assert list(s) == [1, 2, 4]
    assert list(s.complement(6)) == [0, 3, 5]
    with pytest.raises(ValueError):
        BlockSupport([1, 1])
    with pytest.raises(ValueError):
        BlockSupport([-1, 2])


# -- norms -------------------------------------------------------------------

def test_norm_l21_zero_vector():
    assert norm_l21(BlockVector.zeros(3, 2)) == 0.0


def test_norm_l21_pythagorean_block():
    x = BlockVector([[3.0, 4.0], [0.0, 0.0]])
    assert norm_l21(x) == 5.0


def test_norm_l21_matches_scalar_loop():
    rng = np.random.default_rng(101)
    x = BlockVector(rng.standard_normal((5, 3)))
    assert norm_l21(x) == pytest.approx(oracle_l21(x), abs=1e-12)


def test_norm_l2inf_zero_and_simple():
    assert norm_l2inf(BlockVector.zeros(4, 3)) == 0.0
    assert norm_l2inf(BlockVector([[3.0, 4.0], [1.0, 0.0]])) == 5.0


def test_norm_l2inf_matches_scalar_loop():
    rng = np.random.default_rng(102)
    for _ in range(50):
        x = random_block_vector(rng)
        assert norm_l2inf(x) == pytest.approx(oracle_l2inf(x), abs=1e-12)


def test_norm_l0_block():
    assert norm_l0_block(BlockVector.zeros(3, 2), 0.0) == 0
    x = BlockVector(np.vstack([np.full((2, 4), 10.0), np.zeros((3, 4))]))
    assert norm_l0_block(x, 0.0) == 2
    tiny = BlockVector([[1e-12, 0.0], [0.5, 0.5]])
    assert norm_l0_block(tiny, 1e-9) == 1
    assert norm_l0_block(tiny, 0.0) == 2
    with pytest.raises(ValueError):
        norm_l0_block(tiny, -1.0)


# -- block sign map ----------------------------------------------------------

def test_block_sgn_zero_and_normalization():
    z = block_sgn(BlockVector.zeros(3, 2))
    assert np.all(z.blocks == 0.0)
    s = block_sgn(BlockVector([[3.0, 4.0]]))
    assert s.blocks[0] == pytest.approx([0.6, 0.8], abs=1e-15)


def test_block_sgn_norms_zero_or_one():
    rng = np.random.default_rng(103)
    for _ in range(100):
        x = random_block_vector(rng)
        x = BlockVector(np.vstack([x.blocks, np.zeros((1, x.block_len))]))
        norms = block_sgn(x).block_norms()
        assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-12))


# -- best s-term approximation ----------------------------------------------

def test_best_s_term_boundary_cases():
    rng = np.random.default_rng(104)
    x = random_block_vector(rng, n=5, d=3)
    assert best_s_term_error(x, 5) == 0.0
    assert best_s_term_error(x, 0) == pytest.approx(norm_l21(x))
    with pytest.raises(ValueError):
        best_s_term_error(x, 6)


def test_best_s_term_hand_case():
    # block norms 4, 3, 2, 1; dropping the two largest leaves 2 + 1 = 3
    x = BlockVector([[4.0, 0.0], [0.0, 3.0], [2.0, 0.0], [0.0, 1.0]])
    assert best_s_term_error(x, 2) == pytest.approx(3.0)


def test_best_s_term_matches_enumeration():
    rng = np.random.default_rng(105)
    for _ in range(50):
        x = random_block_vector(rng, n=int(rng.integers(2, 8)))
        s = int(rng.integers(0, x.n_blocks + 1))
        assert best_s_term_error(x, s) == pytest.approx(oracle_best_s_term(x, s), abs=1e-10)


def test_best_s_term_ties_lower_index():
    x = BlockVector([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    # value is tie-independent; just pin it
    assert best_s_term_error(x, 1) == pytest.approx(2.0)
    assert best_s_term_error(x, 2) == pytest.approx(1.0)


# -- restriction -------------------------------------------------------------

def test_restrict():
    rng = np.random.default_rng(106)
    x = random_block_vector(rng, n=3, d=4)
    full = restrict(x, BlockSupport(range(3)))
    assert np.array_equal(full.blocks, x.blocks)
    empty = restrict(x, BlockSupport([]))
    assert empty.n_blocks == 0
    single = restrict(x, BlockSupport([1]))
    assert np.array_equal(single.blocks, x.blocks[1:2])
    with pytest.raises(IndexError):
        restrict(x, BlockSupport([3]))


# -- invariants over random instances ----------------------------------------

def test_invariants_random_instances():
    rng = np.random.default_rng(107)
    for _ in range(300):
        x = random_block_vector(rng)
        euclid = float(np.linalg.norm(x.blocks))
        assert norm_l2inf(x) <= euclid + 1e-12
        assert euclid <= norm_l21(x) + 1e-12
        assert norm_l21(x) <= math.sqrt(x.n_blocks) * euclid + 1e-12

        sgn = block_sgn(x)
        twice = block_sgn(sgn)
        assert np.abs(twice.blocks - sgn.blocks).max() <= 1e-12

        inner = float(np.sum(sgn.blocks * x.blocks))
        assert inner == pytest.approx(norm_l21(x), abs=1e-10)

        errors = [best_s_term_error(x, s) for s in range(x.n_blocks + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        for s in range(x.n_blocks + 1):
            assert (errors[s] <= 1e-12) == (norm_l0_block(x, 0.0) <= s)
