import math

import numpy as np
import pytest

from ffsparse import (
    BlockSupport,
    GramConditionReport,
    compressible_signal,
    default_partition,
    draw_matrix,
    empirical_tail,
    golfing_build,
    gram_conditions,
    incoherence,
    m_cross_gram,
    m_nonuniform_bernoulli,
    m_submatrix,
    orthogonal_frame,
    random_frame,
    random_support,
    relative_error,
    restricted_norms,
    solve_l1_equality,
    sparse_signal,
    verify_inexact,
    verify_robust,
)


def desk_instance():
    frame = random_frame(60, 6, 2, seed=5)
    rng = np.random.default_rng(7)
    support = random_support(60, 4, rng)
    x = sparse_signal(frame, support, rng)
    return frame, support, x


# -- gram conditions -----------------------------------------------------------

def test_gram_exact_for_orthogonal_bernoulli():
    # orthogonal subspaces and +-1 entries make the restricted Gram the
    # identity exactly, for any m including a single measurement
    frame = orthogonal_frame(5, 1)
    support = BlockSupport([0, 2, 4])
    for m in (1, 3, 8):
        e = draw_matrix("bernoulli", m, 5, seed=m, frame=frame)
        report = gram_conditions(e, support)
        assert report.deviation <= 1e-12
        assert report.inv_norm == pytest.approx(1.0, abs=1e-12)
        assert report.cross_max <= 1e-12


def test_gram_single_block_support_bernoulli():
    frame = random_frame(8, 5, 2, seed=1)
    e = draw_matrix("bernoulli", 4, 8, seed=2, frame=frame)
    report = gram_conditions(e, BlockSupport([3]))
    assert report.deviation <= 1e-12


def test_gram_requires_nonempty_support():
    frame = random_frame(5, 4, 1, seed=3)
    e = draw_matrix("bernoulli", 3, 5, seed=4, frame=frame)
    with pytest.raises(ValueError):
        gram_conditions(e, BlockSupport([]))


def test_gram_singular_reports_infinite_inverse():
    # s*k = 4 coefficient directions cannot be resolved by m*d = 2 rows
    frame = random_frame(6, 2, 2, seed=5)
    e = draw_matrix("bernoulli", 1, 6, seed=6, frame=frame)
    report = gram_conditions(e, BlockSupport([0, 1]))
    assert math.isinf(report.inv_norm)


def test_gram_deviation_implies_inverse_bound():
    frame, support, _ = desk_instance()
    for t in range(30):
        e = draw_matrix("bernoulli", 60, 60, seed=100 + t, frame=frame)
        report = gram_conditions(e, support)
        if report.deviation < 1.0:
            assert report.inv_norm <= 1.0 / (1.0 - report.deviation) + 1e-9


def test_gram_gaussian_deviation_frequency_below_tail():
    frame, support, _ = desk_instance()
    norms = restricted_norms(incoherence(frame), support)
    m = math.ceil(m_submatrix(norms.row_rms_sub, norms.spectral_sub, 4, 2, 0.5, 0.1))
    audit = empirical_tail("gram_deviation", frame, support, m, 0.5, trials=500,
                           seed=11, kind="gaussian")
    stderr = math.sqrt(audit.bound * (1 - audit.bound) / 500)
    assert audit.frequency <= audit.bound + 3 * stderr


# -- golfing construction --------------------------------------------------------

def test_golfing_single_step_orthogonal_exact():
    frame = orthogonal_frame(4, 1)
    rng = np.random.default_rng(1)
    x = sparse_signal(frame, BlockSupport([0, 2]), rng)
    e = draw_matrix("bernoulli", 6, 4, seed=3, frame=frame)
    cert = golfing_build(e, x, partition=[6])
    assert cert.partition == (6,)
    assert cert.on_support_gap <= 1e-12
    assert cert.off_support_max <= 1e-12
    assert cert.residual_norms_l2[0] == pytest.approx(math.sqrt(2))
    assert cert.residual_norms_l2[-1] <= 1e-12


@pytest.mark.parametrize("m, compressible", [
    (3, False), (12, False), (60, False), (350, False), (60, True),
], ids=["m=3", "m=12", "m=60", "m=350", "compressible-m=60"])
def test_golfing_preimage_identity(m, compressible):
    # the desk_audit shape: the dual vector u must equal M* h for the
    # assembled preimage h, whichever regime m puts golfing in
    frame, support, x = desk_instance()
    if compressible:
        x = compressible_signal(frame, support, 0.2, np.random.default_rng(8))
    e = draw_matrix("bernoulli", m, 60, seed=9, frame=frame)
    cert = golfing_build(e, x, support=support if compressible else None)
    rebuilt = e.adjoint(cert.h)
    assert np.abs(rebuilt.blocks - cert.u.blocks).max() <= 1e-9
    assert sum(cert.partition) == m
    assert len(cert.residual_norms_l2) == len(cert.partition) + 1
    assert cert.residual_norms_l2[0] == pytest.approx(2.0)  # sqrt(s), s = 4
    assert cert.residual_norms_l2inf[0] == pytest.approx(1.0)
    assert cert.on_support_gap == cert.residual_norms_l2[-1]


def test_default_partition_shape():
    # group count is ceil(ln s / ln ln N) + 3 with the first group getting an
    # L-times-larger share
    part = default_partition(40, 4, 60)
    assert part == [23, 6, 6, 5]
    assert sum(part) == 40
    part = default_partition(100, 10, 100)
    assert len(part) == 5
    assert sum(part) == 100
    # s = 1: ln s = 0 so three groups
    assert default_partition(12, 1, 60) == [7, 3, 2]
    # m too small for the nominal group count: shrink until feasible
    assert default_partition(2, 8, 200) == [1, 1]
    assert default_partition(1, 8, 200) == [1]
    assert all(v >= 1 for v in default_partition(5, 8, 200))
    assert sum(default_partition(5, 8, 200)) == 5


def test_golfing_partition_validation():
    frame, support, x = desk_instance()
    e = draw_matrix("bernoulli", 10, 60, seed=13, frame=frame)
    with pytest.raises(ValueError):
        golfing_build(e, x, partition=[5, 4])  # sums to 9, not 10
    from ffsparse import BlockVector

    with pytest.raises(ValueError):
        golfing_build(e, BlockVector.zeros(60, 6))  # empty support


def test_golfing_residual_contraction_at_theory_sample_size():
    # per-step contraction below 1/(2 sqrt(ln N)) in at least 90% of 200
    # trials, at the fixed-support Bernoulli sample size with the empirical
    # stand-in constant 4 for the unspecified universal constant
    frame, support, _ = desk_instance()
    norms = restricted_norms(incoherence(frame), support)
    m = math.ceil(m_nonuniform_bernoulli(norms.row_sum, 60, 4, 2, eps=0.1, const=4.0))
    target = 1.0 / (2.0 * math.sqrt(math.log(60)))
    steps = len(default_partition(m, 4, 60))
    hits = np.zeros(steps)
    trials = 200
    for t in range(trials):
        x = sparse_signal(frame, support, np.random.default_rng(900 + t))
        e = draw_matrix("bernoulli", m, 60, seed=10_000 + t, frame=frame)
        cert = golfing_build(e, x)
        r = cert.residual_norms_l2
        for n in range(steps):
            if r[n] == 0.0 or r[n + 1] <= target * r[n]:
                hits[n] += 1
    assert (hits / trials >= 0.9).all(), hits / trials


def test_golfing_preimage_norm_scales_with_sqrt_s():
    # report the measured constant in ||h||_2 <= c * sqrt(s) over instances
    # that pass the exact-recovery conditions
    frame, support, _ = desk_instance()
    ratios = []
    for t in range(20):
        x = sparse_signal(frame, support, np.random.default_rng(600 + t))
        e = draw_matrix("bernoulli", 350, 60, seed=20_000 + t, frame=frame)
        cert = golfing_build(e, x)
        report = gram_conditions(e, support)
        ok, _ = verify_inexact(cert, report)
        if ok:
            ratios.append(cert.h_norm / 2.0)  # sqrt(s) = 2
    assert len(ratios) >= 10
    measured = max(ratios)
    print(f"measured preimage-norm constant: {measured:.3f}")
    assert measured <= 5.0


# -- condition checks ---------------------------------------------------------------

def test_verify_inexact_all_zero_passes():
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(2)
    x = sparse_signal(frame, BlockSupport([1]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=3, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    report = gram_conditions(e, BlockSupport([1]))
    ok, reasons = verify_inexact(cert, report)
    assert ok and reasons == ()


def test_verify_inexact_reports_on_support_gap():
    report = GramConditionReport(inv_norm=1.0, cross_max=0.0, deviation=0.0)
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(4)
    x = sparse_signal(frame, BlockSupport([0]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=5, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    bad = type(cert)(
        u=cert.u, h=cert.h, support=cert.support, partition=cert.partition,
        residual_norms_l2=cert.residual_norms_l2,
        residual_norms_l2inf=cert.residual_norms_l2inf,
        on_support_gap=0.26, off_support_max=cert.off_support_max, h_norm=cert.h_norm)
    ok, reasons = verify_inexact(bad, report)
    assert not ok
    assert "on-support dual gap" in reasons


def test_verify_inexact_threshold_boundaries():
    report_bad_inv = GramConditionReport(inv_norm=2.5, cross_max=0.0, deviation=0.0)
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(6)
    x = sparse_signal(frame, BlockSupport([0]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=7, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    ok, reasons = verify_inexact(cert, report_bad_inv)
    assert not ok and "restricted gram inverse norm" in reasons


def test_verify_robust_trivial_constants():
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(8)
    x = sparse_signal(frame, BlockSupport([2]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=9, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    report = gram_conditions(e, BlockSupport([2]))
    # zero constants plug into the formulas as b = 0, c1 = 2, c3 = 2 tau
    check = verify_robust(cert, report, delta=0.0, beta=0.0, gamma=0.0, theta=0.0, tau=1.5)
    assert check.b == 0.0
    assert check.c1 == pytest.approx(2.0)
    assert check.c3 == pytest.approx(3.0)  # 2 * tau
    # roundoff-sized measurements verify once the constants have any slack
    slack = verify_robust(cert, report, delta=1e-9, beta=1e-9, gamma=1e-9,
                          theta=1e-9, tau=1.5)
    assert slack.valid


def test_verify_robust_infinite_beta_without_gamma():
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(8)
    x = sparse_signal(frame, BlockSupport([2]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=9, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    report = gram_conditions(e, BlockSupport([2]))
    # b = theta + inf * 0 / (1 - delta) is NaN: no finite error bound follows
    check = verify_robust(cert, report, delta=0.0, beta=math.inf, gamma=0.0, theta=0.0, tau=1.5)
    assert not check.valid
    assert "b >= 1" in check.reasons
    assert all(math.isnan(c) for c in (check.c1, check.c2, check.c3))


@pytest.mark.parametrize("name", ["delta", "beta", "gamma", "theta", "tau"])
def test_verify_robust_rejects_nan_constant(name):
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(8)
    x = sparse_signal(frame, BlockSupport([2]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=9, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    report = gram_conditions(e, BlockSupport([2]))
    constants = dict(delta=0.1, beta=0.1, gamma=0.1, theta=0.1, tau=1.5)
    constants[name] = math.nan
    with pytest.raises(ValueError, match=name):
        verify_robust(cert, report, **constants)


def test_verify_robust_arithmetic():
    frame = orthogonal_frame(3, 1)
    rng = np.random.default_rng(10)
    x = sparse_signal(frame, BlockSupport([2]), rng)
    e = draw_matrix("bernoulli", 2, 3, seed=11, frame=frame)
    cert = golfing_build(e, x, partition=[2])
    report = gram_conditions(e, BlockSupport([2]))
    check = verify_robust(cert, report, delta=0.5, beta=1.0, gamma=0.25, theta=0.25, tau=1.0)
    assert check.b == pytest.approx(0.75)
    assert check.c1 == pytest.approx(24.0)  # (1 + 1/(1/2)) * 2 / (1/4)
    assert check.valid  # measured values are all zero here

    invalid = verify_robust(cert, report, delta=0.5, beta=1.0, gamma=0.25, theta=1.0, tau=1.0)
    assert not invalid.valid
    assert "b >= 1" in invalid.reasons


def test_verify_robust_flags_measured_violations():
    frame, support, x = desk_instance()
    e = draw_matrix("bernoulli", 20, 60, seed=12, frame=frame)
    cert = golfing_build(e, x)
    report = gram_conditions(e, support)
    check = verify_robust(cert, report, delta=1e-6, beta=1e-6, gamma=1e-6,
                          theta=1e-6, tau=1e-6)
    assert not check.valid
    assert len(check.reasons) >= 1


# -- empirical tails ------------------------------------------------------------------

def test_empirical_tail_large_threshold():
    frame, support, _ = desk_instance()
    audit = empirical_tail("cross_image", frame, support, 30, t=50.0, trials=50, seed=19)
    assert audit.frequency == 0.0
    assert audit.bound <= 1e-100


def test_empirical_tail_orthogonal_gram_error():
    frame = orthogonal_frame(5, 1)
    support = BlockSupport([0, 2, 4])
    audit = empirical_tail("gram_error_l2", frame, support, 4, t=0.3, trials=100, seed=17)
    assert audit.frequency == 0.0


def test_empirical_tail_cross_gram_at_required_m():
    frame, support, _ = desk_instance()
    norms = restricted_norms(incoherence(frame), support)
    m = math.ceil(m_cross_gram(norms.row_rms, 60, 4, 2, eps=0.1))
    audit = empirical_tail("cross_gram", frame, support, m, t=1.0, trials=500, seed=13)
    assert audit.frequency <= 0.1
    assert audit.bound <= 0.1


def test_empirical_tail_validation():
    frame, support, _ = desk_instance()
    with pytest.raises(ValueError):
        empirical_tail("nonsense", frame, support, 10, 0.5, 10, 1)
    with pytest.raises(ValueError):
        empirical_tail("gram_deviation", frame, support, 10, 0.5, 0, 1)


# -- soundness against the solver ------------------------------------------------------

def test_certificate_pass_implies_recovery():
    frame, support, _ = desk_instance()
    passes = 0
    for m in (3, 12, 60, 350):
        for t in range(15):
            rng = np.random.default_rng(40_000 + 100 * m + t)
            s_t = random_support(60, 4, rng)
            x = sparse_signal(frame, s_t, rng)
            e = draw_matrix("bernoulli", m, 60, seed=50_000 + 100 * m + t, frame=frame)
            cert = golfing_build(e, x)
            report = gram_conditions(e, s_t)
            ok, _ = verify_inexact(cert, report)
            if ok:
                passes += 1
                solved = solve_l1_equality(e, e.measure(x))
                assert relative_error(solved.x_hat, x) <= 1e-4
    assert passes >= 5  # the m-grid top is chosen inside the validity regime
