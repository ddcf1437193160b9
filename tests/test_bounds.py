import math

import pytest

from ffsparse import (
    bernstein_matrix_tail,
    bernstein_rect_tail,
    bernstein_vector_tail,
    complexity_table,
    m_corollary,
    m_cross_gram,
    m_gaussian,
    m_nonuniform_bernoulli,
    m_submatrix,
)
from ffsparse.bounds import (
    THEOREM_IDS,
    _exp_tail,
    cross_gram_tail,
    cross_image_tail,
    gram_deviation_tail,
    gram_error_blockmax_tail,
    gram_error_l2_tail,
)


# -- required-m formulas ------------------------------------------------------

def test_bernoulli_fixed_support_orthogonal_case():
    value = m_nonuniform_bernoulli(0.0, n=100, s=4, k=2, eps=0.1, const=1.0)
    assert value == pytest.approx(math.log(100) * math.log(8) * math.log(10))


def test_bernoulli_fixed_support_row_sum_scaling():
    lo = m_nonuniform_bernoulli(1.0, n=50, s=3, k=2, eps=0.05)
    hi = m_nonuniform_bernoulli(2.0, n=50, s=3, k=2, eps=0.05)
    assert hi / lo == pytest.approx(1.5)


def test_bernoulli_fixed_support_domain():
    with pytest.raises(ValueError):
        m_nonuniform_bernoulli(0.0, n=1, s=4, k=2, eps=0.1)
    with pytest.raises(ValueError):
        m_nonuniform_bernoulli(0.0, n=10, s=1, k=1, eps=0.1)
    with pytest.raises(ValueError):
        m_nonuniform_bernoulli(0.0, n=10, s=4, k=2, eps=1.5)
    with pytest.raises(ValueError):
        m_nonuniform_bernoulli(-0.1, n=10, s=4, k=2, eps=0.1)


@pytest.mark.parametrize("call", [
    lambda: m_nonuniform_bernoulli(math.nan, n=10, s=4, k=2, eps=0.1),
    lambda: m_nonuniform_bernoulli(0.0, n=10, s=4, k=2, eps=0.1, const=math.nan),
    lambda: m_gaussian(0.0, n=10, s=4, k=2, eps=0.1, const=math.nan),
    lambda: m_corollary(0.0, n=10, s=4, k=2, eps=0.1, const=math.nan),
    lambda: _exp_tail(1.0, math.nan, 1.0),
    lambda: bernstein_vector_tail(math.nan, 1.0, 1.0, 1.0),
], ids=["bernoulli_row_sum", "bernoulli_const", "gaussian_const", "corollary_const",
        "exp_tail", "vector_tail_mean_sq"])
def test_nan_inputs_rejected(call):
    # a NaN fails every comparison, so each guard must be written to fail on it
    with pytest.raises(ValueError):
        call()


def test_gaussian_independent_of_s_when_orthogonal():
    a = m_gaussian(0.0, n=40, s=2, k=3, eps=0.1)
    b = m_gaussian(0.0, n=40, s=30, k=3, eps=0.1)
    assert a == b == pytest.approx(math.log(6 * 40 * 3) ** 2 * math.log(10) ** 2)


def test_gaussian_aligned_scaling_and_invariance():
    base = m_gaussian(0.0, n=40, s=7, k=3, eps=0.1)
    aligned = m_gaussian(1.0, n=40, s=7, k=3, eps=0.1)
    assert aligned / base == pytest.approx(8.0)  # (1 + s) factor
    # dependence only through lambda * s
    assert m_gaussian(0.5, n=40, s=8, k=3, eps=0.1) == pytest.approx(
        m_gaussian(0.25, n=40, s=16, k=3, eps=0.1))


def test_corollary_formula():
    value = m_corollary(0.0, n=30, s=5, k=2, eps=0.2)
    assert value == pytest.approx(math.log(300) * math.log(5))
    # fully aligned pair: no improvement over the (1 + s) block regime
    aligned = m_corollary(1.0, n=30, s=5, k=2, eps=0.2)
    assert aligned / value == pytest.approx(6.0)


def test_corollary_matches_fixed_support_for_equiangular():
    # equiangular frames make the row sum equal lambda * s, so the two
    # incoherence factors coincide and only log factors differ
    lam, n, s, k, eps = 0.4, 50, 6, 2, 0.1
    fixed = m_nonuniform_bernoulli(lam * s, n, s, k, eps)
    corol = m_corollary(lam, n, s, k, eps)
    expected_ratio = math.log(n) * math.log(s * k) / math.log(n * s * k)
    assert fixed / corol == pytest.approx(expected_ratio)


def test_submatrix_formula():
    value = m_submatrix(0.0, 0.0, s=4, k=2, delta=0.5, eps=0.1)
    assert value == pytest.approx(4.0 * (2.0 / 3.0) * math.log(2 * 8 / 0.1))
    # delta^-2 scaling: halving delta quadruples the requirement
    assert m_submatrix(1.0, 2.0, 4, 2, 0.25, 0.1) == pytest.approx(
        4.0 * m_submatrix(1.0, 2.0, 4, 2, 0.5, 0.1))
    with pytest.raises(ValueError):
        m_submatrix(1.0, 1.0, 4, 2, 1.0, 0.1)


def test_cross_gram_requirement():
    value = m_cross_gram(1.5, n=60, s=4, k=2, eps=0.1)
    assert value == pytest.approx(6.0 * 2.25 * math.log(60 * 5 * 2 / 0.1))


# -- Bernstein tails -----------------------------------------------------------

def test_matrix_tail_cap_and_value():
    assert bernstein_matrix_tail(1.0, 1.0, 0.0, 1) == 1.0
    assert bernstein_matrix_tail(1.0, 0.0, 2.0, 1) == pytest.approx(2 * math.exp(-2.0))


def test_matrix_tail_rank_improvement():
    loose = bernstein_matrix_tail(0.5, 0.2, 3.0, 20)
    tight = bernstein_matrix_tail(0.5, 0.2, 3.0, 4)
    assert tight < loose < 1.0
    assert tight == pytest.approx(loose * 4 / 20)


def test_rect_tail():
    assert bernstein_rect_tail(1.0, 1.0, 0.0, 2, 3) == 1.0
    # at sigma^2 = K = t = 1 the raw expression 2 exp(-3/8) exceeds 1, so the
    # probability cap applies
    assert bernstein_rect_tail(1.0, 1.0, 1.0, 1, 1) == 1.0
    assert bernstein_rect_tail(1.0, 1.0, 3.0, 1, 1) == pytest.approx(
        2 * math.exp(-4.5 / 2.0))
    # symmetric case matches the self-adjoint tail with r = d1 = d2
    assert bernstein_rect_tail(0.7, 0.3, 3.0, 5, 5) == pytest.approx(
        bernstein_matrix_tail(0.7, 0.3, 3.0, 5))


def test_vector_tail():
    assert bernstein_vector_tail(1.0, 1.0, 1.0, 1e9) == pytest.approx(0.0, abs=1e-300)
    assert bernstein_vector_tail(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        math.exp(-0.5 / (1.0 + 2.0 + 1.0 / 3.0)))


def test_tails_vanish_at_infinite_deviation():
    # inf / inf in the exponent is NaN; an infinite deviation has probability 0
    assert bernstein_matrix_tail(1.0, 1.0, math.inf, 1) == 0.0
    assert bernstein_vector_tail(1.0, 1.0, 1.0, math.inf) == 0.0
    assert bernstein_rect_tail(1.0, 1.0, math.inf, 2, 3) == 0.0


def test_tail_monotonicity():
    ts = [0.5, 1.0, 2.0, 4.0]
    vals = [bernstein_matrix_tail(1.0, 0.5, t, 3) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    sig = [0.1, 0.5, 1.0, 5.0]
    vals = [bernstein_matrix_tail(s, 0.5, 2.0, 3) for s in sig]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    vals = [bernstein_vector_tail(1.0, s, 0.5, 2.0) for s in sig]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_lemma_tails_zero_incoherence():
    # orthogonal subspaces: events are impossible for positive thresholds
    assert cross_image_tail(10, 0.5, 1.0, 0.0, 0.0, 30) == 0.0
    assert cross_gram_tail(10, 1.0, 0.0, 30, 4, 2) == 0.0
    assert gram_error_blockmax_tail(10, 0.5, 0.0, 0.0, 4) == 0.0
    # the l2 Gram error keeps an incoherence-free term in its denominator
    assert 0.0 < gram_error_l2_tail(10, 0.5, 0.0, 0.0) < 1.0


def test_lemma_tails_decrease_in_m():
    ms = [10, 40, 160]
    for fn in (
        lambda m: gram_deviation_tail(m, 0.5, 1.0, 1.2, 4, 2),
        lambda m: cross_image_tail(m, 0.5, 1.0, 1.0, 2.0, 30),
        lambda m: gram_error_l2_tail(m, 0.5, 1.0, 2.0),
        lambda m: gram_error_blockmax_tail(m, 0.5, 1.0, 2.0, 4),
        lambda m: cross_gram_tail(m, 1.0, 1.0, 30, 4, 2),
    ):
        vals = [fn(m) for m in ms]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_deviation_tail_at_submatrix_requirement():
    # at the required m the tail evaluates to exactly eps (up to rounding)
    rms, spec_norm, s, k, delta, eps = 1.1, 1.4, 5, 2, 0.5, 0.1
    m = m_submatrix(rms, spec_norm, s, k, delta, eps)
    assert gram_deviation_tail(m, delta, rms, spec_norm, s, k) == pytest.approx(eps)


def test_monotone_in_problem_size():
    base = dict(n=50, s=4, k=2, eps=0.1)
    assert m_nonuniform_bernoulli(1.0, **base) < m_nonuniform_bernoulli(2.0, **base)
    assert m_nonuniform_bernoulli(1.0, 50, 4, 2, 0.1) < m_nonuniform_bernoulli(1.0, 100, 4, 2, 0.1)
    assert m_nonuniform_bernoulli(1.0, 50, 4, 2, 0.1) < m_nonuniform_bernoulli(1.0, 50, 8, 2, 0.1)
    assert m_nonuniform_bernoulli(1.0, 50, 4, 2, 0.1) < m_nonuniform_bernoulli(1.0, 50, 4, 2, 0.01)
    assert m_gaussian(0.3, 50, 4, 2, 0.1) < m_gaussian(0.6, 50, 4, 2, 0.1)
    assert m_corollary(0.3, 50, 4, 2, 0.1) < m_corollary(0.3, 50, 4, 3, 0.1)


def test_complexity_table_covers_all_statements():
    rows = complexity_table(
        60, 4, 2, 0.1,
        incoh_row_sum=2.0, max_coherence=0.8, incoh_row_rms=1.2,
        incoh_row_rms_sub=1.0, incoh_spectral_sub=1.1)
    assert tuple(r.theorem_id for r in rows) == THEOREM_IDS
    assert all(r.m_required > 0 for r in rows)
    by_id = {r.theorem_id: r for r in rows}
    # the noisy statements reuse the noiseless sample-size conditions
    assert by_id["bernoulli_noisy"].m_required == by_id["bernoulli_fixed_support"].m_required
    assert by_id["gaussian_noisy"].m_required == by_id["gaussian_fixed_support"].m_required
