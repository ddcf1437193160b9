import itertools
from pathlib import Path

import numpy as np
import pytest

from ffsparse import (
    BlockSupport,
    BlockVector,
    MeasurementEnsemble,
    SolverConfig,
    draw_matrix,
    norm_l0_block,
    norm_l21,
    orthogonal_closed_form,
    orthogonal_frame,
    random_frame,
    random_support,
    relative_error,
    solve_block_baseline,
    solve_l1_equality,
    solve_l1_noisy,
    sparse_signal,
)

TIGHT = SolverConfig(tol=1e-11)


def test_import_leaves_scipy_unloaded():
    # scipy.linalg is imported at the first factorization, so the commands
    # that never solve start without it
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, ffsparse, ffsparse.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(tol=bad)


# -- equality program -----------------------------------------------------------

def test_equality_zero_measurements():
    fr = random_frame(5, 4, 2, seed=1)
    e = draw_matrix("bernoulli", 3, 5, seed=2, frame=fr)
    report = solve_l1_equality(e, BlockVector.zeros(3, 4))
    assert np.all(report.x_hat.blocks == 0.0)
    assert report.converged


def test_equality_matches_orthogonal_closed_form():
    fr = orthogonal_frame(4, 1)
    rng = np.random.default_rng(3)
    x = sparse_signal(fr, BlockSupport(range(4)), rng)
    e = draw_matrix("bernoulli", 1, 4, seed=4, frame=fr)
    y = e.measure(x)
    closed = orthogonal_closed_form(e, y)
    report = solve_l1_equality(e, y)
    assert np.abs(report.x_hat.blocks - closed.blocks).max() <= 1e-6


def test_equality_one_sparse_high_success():
    # 1-sparse signals in a mild regime recover in at least 99 of 100 trials
    failures = 0
    for t in range(100):
        fr = random_frame(6, 4, 1, seed=t)
        rng = np.random.default_rng(1000 + t)
        x = sparse_signal(fr, random_support(6, 1, rng), rng)
        e = draw_matrix("bernoulli", 4, 6, seed=2000 + t, frame=fr)
        report = solve_l1_equality(e, e.measure(x))
        if relative_error(report.x_hat, x) > 1e-4:
            failures += 1
    assert failures <= 1


def test_equality_feasibility_on_convergence():
    rng = np.random.default_rng(5)
    for t in range(10):
        fr = random_frame(8, 5, 2, seed=50 + t)
        x = sparse_signal(fr, random_support(8, 3, rng), rng)
        e = draw_matrix("gaussian", 6, 8, seed=60 + t, frame=fr)
        report = solve_l1_equality(e, e.measure(x))
        assert report.converged
        assert report.constraint_residual <= 1e-8


def test_equality_scaling_equivariance():
    fr = random_frame(7, 5, 2, seed=6)
    rng = np.random.default_rng(7)
    x = sparse_signal(fr, random_support(7, 2, rng), rng)
    e = draw_matrix("bernoulli", 5, 7, seed=8, frame=fr)
    y = e.measure(x)
    base = solve_l1_equality(e, y, TIGHT)
    scaled = solve_l1_equality(e, 3.7 * y, TIGHT)
    assert np.abs(scaled.x_hat.blocks - 3.7 * base.x_hat.blocks).max() <= 1e-8


# the three programs share the ensemble's one check on the measurements
PROGRAMS = {
    "equality": solve_l1_equality,
    "block": solve_block_baseline,
    "noisy": lambda e, y: solve_l1_noisy(e, y, 0.1),
}


def test_equality_rejects_bad_shapes():
    fr = random_frame(5, 4, 2, seed=9)
    e = draw_matrix("bernoulli", 3, 5, seed=10, frame=fr)
    for program in PROGRAMS.values():
        with pytest.raises(ValueError, match="do not match"):
            program(e, BlockVector.zeros(4, 4))
        with pytest.raises(ValueError, match="do not match"):
            program(e, BlockVector.zeros(3, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_programs_reject_non_finite_measurements(program, bad):
    fr = random_frame(5, 4, 2, seed=9)
    e = draw_matrix("bernoulli", 3, 5, seed=10, frame=fr)
    blocks = np.ones((3, 4))
    blocks[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        PROGRAMS[program](e, BlockVector(blocks))


# -- noisy program -----------------------------------------------------------------

def test_noisy_zero_eta_matches_equality():
    worst = 0.0
    for t in range(10):
        fr = random_frame(8, 5, 2, seed=100 + t)
        rng = np.random.default_rng(200 + t)
        x = sparse_signal(fr, random_support(8, 2, rng), rng)
        e = draw_matrix("bernoulli", 6, 8, seed=300 + t, frame=fr)
        y = e.measure(x)
        a = solve_l1_equality(e, y)
        b = solve_l1_noisy(e, y, 0.0)
        worst = max(worst, float(np.abs(a.x_hat.blocks - b.x_hat.blocks).max()))
    assert worst <= 1e-6


def test_noisy_huge_eta_returns_zero():
    fr = random_frame(5, 3, 2, seed=11)
    rng = np.random.default_rng(12)
    x = sparse_signal(fr, random_support(5, 2, rng), rng)
    e = draw_matrix("gaussian", 3, 5, seed=13, frame=fr)
    y = e.measure(x)
    # a ball of radius 2 ||y||, and one of infinite radius: zero is optimal
    for eta in (2.0 * float(np.linalg.norm(y.blocks)) / np.sqrt(3) / e.scale, np.inf):
        report = solve_l1_noisy(e, y, eta)
        assert report.converged and report.iterations == 0
        assert report.objective <= 1e-8
        assert float(np.linalg.norm(report.x_hat.blocks)) <= 1e-8


def test_noisy_ball_feasibility():
    fr = random_frame(10, 6, 2, seed=14)
    rng = np.random.default_rng(15)
    x = sparse_signal(fr, random_support(10, 2, rng), rng)
    e = draw_matrix("gaussian", 8, 10, seed=16, frame=fr)
    from ffsparse import add_noise

    sample = add_noise(e.measure(x), 0.05, seed=17)
    report = solve_l1_noisy(e, sample.y, 0.05)
    assert report.converged
    assert report.constraint_residual <= 1e-8
    # noise-aware program cannot beat the noise floor but stays near it
    assert relative_error(report.x_hat, x) <= 1.0


def test_noisy_rejects_negative_eta():
    fr = random_frame(4, 3, 1, seed=18)
    e = draw_matrix("bernoulli", 2, 4, seed=19, frame=fr)
    for eta in (-0.1, np.nan):  # NaN fails the same test
        with pytest.raises(ValueError, match="eta"):
            solve_l1_noisy(e, BlockVector.zeros(2, 3), eta)


# -- block-sparsity baseline ----------------------------------------------------------

def test_baseline_zero():
    fr = random_frame(5, 3, 1, seed=20)
    e = draw_matrix("bernoulli", 3, 5, seed=21, frame=fr)
    report = solve_block_baseline(e, BlockVector.zeros(3, 3))
    assert np.all(report.x_hat.blocks == 0.0)


def test_baseline_coincides_with_subspace_program_when_k_equals_d():
    fr = random_frame(5, 2, 2, seed=22)
    rng = np.random.default_rng(23)
    x = sparse_signal(fr, random_support(5, 1, rng), rng)
    e = draw_matrix("bernoulli", 3, 5, seed=24, frame=fr)
    y = e.measure(x)
    a = solve_l1_equality(e, y, TIGHT)
    b = solve_block_baseline(e, y, TIGHT)
    assert np.abs(a.x_hat.blocks - b.x_hat.blocks).max() <= 1e-8


def test_baseline_recovers_with_many_measurements():
    fr = random_frame(8, 3, 1, seed=25)
    rng = np.random.default_rng(26)
    x = sparse_signal(fr, random_support(8, 1, rng), rng)
    e = draw_matrix("bernoulli", 7, 8, seed=27, frame=fr)
    report = solve_block_baseline(e, e.measure(x))
    assert relative_error(report.x_hat, x) <= 1e-4


# -- orthogonal closed form -------------------------------------------------------------

def test_closed_form_zero():
    fr = orthogonal_frame(4, 1)
    e = draw_matrix("bernoulli", 1, 4, seed=28, frame=fr)
    out = orthogonal_closed_form(e, BlockVector.zeros(1, 4))
    assert np.all(out.blocks == 0.0)


def test_closed_form_exact_recovery():
    rng = np.random.default_rng(29)
    for t in range(25):
        fr = orthogonal_frame(4, 1)
        x = sparse_signal(fr, BlockSupport(range(4)), rng)
        e = draw_matrix("bernoulli", 1, 4, seed=40 + t, frame=fr)
        out = orthogonal_closed_form(e, e.measure(x))
        assert np.abs(out.blocks - x.blocks).max() <= 1e-12


def test_closed_form_uniform_coefficient():
    fr = orthogonal_frame(3, 1)
    rng = np.random.default_rng(30)
    x = sparse_signal(fr, BlockSupport([1]), rng)
    e = MeasurementEnsemble(np.full((1, 3), 2.0), "gaussian", fr)
    out = orthogonal_closed_form(e, e.measure(x))
    assert np.abs(out.blocks - x.blocks).max() <= 1e-12


def test_closed_form_preconditions():
    fr = orthogonal_frame(3, 1)
    bad = MeasurementEnsemble(np.array([[1.0, 0.0, -1.0]]), "gaussian", fr)
    with pytest.raises(ValueError):
        orthogonal_closed_form(bad, BlockVector.zeros(1, 3))
    two_rows = draw_matrix("bernoulli", 2, 3, seed=31, frame=fr)
    with pytest.raises(ValueError):
        orthogonal_closed_form(two_rows, BlockVector.zeros(2, 3))
    coherent = random_frame(3, 2, 1, seed=32)
    e = draw_matrix("bernoulli", 1, 3, seed=33, frame=coherent)
    with pytest.raises(ValueError):
        orthogonal_closed_form(e, BlockVector.zeros(1, 2))


# -- exhaustive oracle -----------------------------------------------------------------

_ORACLE_MAX_N = 12
_ORACLE_MAX_S = 3
_ORACLE_RESIDUAL = 1e-8


def solve_l0_oracle(ensemble, y, max_s):
    """Exhaustive sparsest-solution search for tiny instances.

    Enumerates supports of size 0..max_s in lexicographic order, solves the
    least-squares fit in coefficient space on each, and returns the first
    consistent solution (residual <= 1e-8) of minimal support size.  Returns
    None when no support fits.
    """
    if ensemble.n > _ORACLE_MAX_N or max_s > _ORACLE_MAX_S:
        raise ValueError(
            f"enumeration guard: need N <= {_ORACLE_MAX_N} and max_s <= {_ORACLE_MAX_S}"
        )
    ensemble.check_measurements(y)
    matrix = ensemble.coefficient_matrix()
    b = y.to_flat()
    n, k = ensemble.n, ensemble.frame.dim_subspace

    if float(np.linalg.norm(b)) <= _ORACLE_RESIDUAL:
        return BlockVector.zeros(n, ensemble.frame.dim_ambient)

    for size in range(1, min(max_s, n) + 1):
        for combo in itertools.combinations(range(n), size):
            cols = np.concatenate([np.arange(j * k, (j + 1) * k) for j in combo])
            sub = matrix[:, cols]
            fit, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if float(np.linalg.norm(sub @ fit - b)) <= _ORACLE_RESIDUAL:
                c = np.zeros(n * k)
                c[cols] = fit
                return ensemble.frame.expand(BlockVector(c.reshape(n, k)))
    return None


def test_oracle_recovers_one_sparse():
    fr = random_frame(6, 4, 2, seed=34)
    rng = np.random.default_rng(35)
    x = sparse_signal(fr, random_support(6, 1, rng), rng)
    e = draw_matrix("bernoulli", 2, 6, seed=36, frame=fr)
    out = solve_l0_oracle(e, e.measure(x), max_s=2)
    assert out is not None
    assert np.abs(out.blocks - x.blocks).max() <= 1e-8
    assert norm_l0_block(out, 1e-10) == 1


def test_oracle_zero_measurements():
    fr = random_frame(5, 3, 1, seed=37)
    e = draw_matrix("bernoulli", 2, 5, seed=38, frame=fr)
    out = solve_l0_oracle(e, BlockVector.zeros(2, 3), max_s=2)
    assert out is not None
    assert np.all(out.blocks == 0.0)


def test_oracle_infeasible_returns_none():
    fr = orthogonal_frame(4, 1)  # d = 4
    e = draw_matrix("bernoulli", 1, 4, seed=39, frame=fr)
    # a ones block on 4 orthogonal lines lies on none of them
    y = BlockVector(np.ones((1, 4)))
    assert solve_l0_oracle(e, y, max_s=1) is None
    # orthogonal lines: a two-direction mixture cannot be 1-sparse
    y2 = BlockVector(np.array([[1.0, 1.0, 0.0, 0.0]]))
    assert solve_l0_oracle(e, y2, max_s=1) is None


def test_oracle_guards():
    fr = random_frame(13, 4, 1, seed=41)
    e = draw_matrix("bernoulli", 2, 13, seed=42, frame=fr)
    with pytest.raises(ValueError):
        solve_l0_oracle(e, BlockVector.zeros(2, 4), max_s=1)
    fr2 = random_frame(6, 4, 1, seed=43)
    e2 = draw_matrix("bernoulli", 2, 6, seed=44, frame=fr2)
    with pytest.raises(ValueError):
        solve_l0_oracle(e2, BlockVector.zeros(2, 4), max_s=4)


def test_l1_objective_matches_oracle_on_tiny_instances():
    # when the exhaustive oracle recovers the planted signal, the convex
    # program attains the same objective value
    hits = 0
    for t in range(10):
        fr = random_frame(8, 5, 1, seed=60 + t)
        rng = np.random.default_rng(70 + t)
        x = sparse_signal(fr, random_support(8, 2, rng), rng)
        e = draw_matrix("bernoulli", 6, 8, seed=80 + t, frame=fr)
        y = e.measure(x)
        oracle = solve_l0_oracle(e, y, max_s=2)
        if oracle is None or relative_error(oracle, x) > 1e-6:
            continue
        report = solve_l1_equality(e, y)
        if relative_error(report.x_hat, x) <= 1e-4:
            hits += 1
            assert abs(report.objective - norm_l21(x)) <= 1e-6
    assert hits >= 5  # the regime is chosen so most instances recover


# -- feasible-set parametrization ----------------------------------------------------------

def _distinct_subspaces():
    """An ensemble whose two subspaces differ, so that a matrix passed with
    it to _equality_parametrization takes the route of its own shape."""
    return draw_matrix("gaussian", 1, 2, seed=0, frame=random_frame(2, 2, 1, seed=0))


@pytest.mark.parametrize("shape,duplicate",
                         [((6, 15), 0), ((20, 8), 0), ((12, 9), 4), ((10, 15), 3)])
def test_affine_step_matches_pinv_projection(shape, duplicate):
    # wide full-rank, tall full-rank, and rank-deficient (repeated rows) tall
    # and wide: {c0 + B w} is {c : M c = b}, and c0 + B B^T v its projection
    # of v; a wide M also runs through the equality program's routes, where
    # full rank takes the QR route and repeated rows the SVD, bit for bit
    from ffsparse.solver import (
        _affine_parametrization, _equality_parametrization, _qr_parametrization,
    )

    rng = np.random.default_rng(sum(shape) + duplicate)
    rows, cols = shape
    matrix = rng.standard_normal((rows - duplicate, cols)) / np.sqrt(rows)
    matrix = np.vstack([matrix, matrix[:duplicate]])
    b = rng.standard_normal(rows)
    v = rng.standard_normal(cols)
    pinv = np.linalg.pinv(matrix)
    expected = (np.eye(cols) - pinv @ matrix) @ v + pinv @ b
    svd = _affine_parametrization(matrix, b)
    results = [svd]
    if rows < cols:
        results.append(_equality_parametrization(_distinct_subspaces(), None, matrix, b)[:2])
        qr = _qr_parametrization(matrix, b)
        if duplicate:
            assert qr is None
            assert all(np.array_equal(x, y) for x, y in zip(results[1], svd))
        else:
            assert all(np.array_equal(x, y) for x, y in zip(results[1], qr[:2]))
    for c0, basis in results:
        assert basis.shape == (cols, cols - min(rows - duplicate, cols))
        assert np.abs(c0 - pinv @ b).max() <= 1e-12
        assert np.abs(matrix @ basis).max(initial=0.0) <= 1e-12
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(c0 + basis @ (basis.T @ v) - expected).max() <= 1e-12


@pytest.mark.parametrize("shape", [(5, 6), "desk_noisy"])
def test_qr_route_from_reflectors(shape):
    # q = 1, and the 192 x 200 coefficient matrix of the desk_noisy benchmark
    # (N = 100, d = 12, k = 2, m = 16, Gaussian): c0 and B come from applying
    # the reflectors of geqrf(M^T) to [R1^-T b, 0; 0, I_q], and the upper
    # triangle R1 that the route returns factors M M^T = R1^T R1
    from ffsparse.solver import _qr_parametrization

    rng = np.random.default_rng(79)
    if shape == "desk_noisy":
        fr = random_frame(100, 12, 2, seed=80)
        matrix = draw_matrix("gaussian", 16, 100, seed=81, frame=fr).coefficient_matrix()
    else:
        matrix = rng.standard_normal(shape)
    rows, cols = matrix.shape
    b = rng.standard_normal(rows)
    c0, basis, r1 = _qr_parametrization(matrix, b)
    expected = np.linalg.pinv(matrix) @ b
    r1 = np.triu(r1)
    assert np.abs(r1.T @ r1 - matrix @ matrix.T).max() <= 1e-12 * np.abs(matrix @ matrix.T).max()
    assert basis.shape == (cols, cols - rows) and basis.flags.c_contiguous
    assert np.abs(c0 - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(matrix @ basis).max() <= 1e-12 * np.abs(matrix).max()
    assert np.abs(basis.T @ basis - np.eye(cols - rows)).max() <= 1e-12


def test_ill_conditioned_wide_equality_falls_back_to_the_svd():
    # two rows 1e-10 apart: M has full rank for the SVD's cutoff, but the
    # condition estimate of R1 is below 1e-8, so the SVD's result comes back,
    # with no polish
    import scipy.linalg

    from ffsparse.solver import _affine_parametrization, _equality_parametrization

    rng = np.random.default_rng(75)
    matrix = rng.standard_normal((8, 15))
    matrix[7] = matrix[0] + 1e-10 * rng.standard_normal(15)
    b = rng.standard_normal(8)
    r1 = np.linalg.qr(matrix.T)[1]
    assert scipy.linalg.get_lapack_funcs("trcon", (r1,))(r1)[0] < 1e-8
    c0, basis, polish = _equality_parametrization(_distinct_subspaces(), None, matrix, b)
    c_ref, basis_ref = _affine_parametrization(matrix, b)
    assert basis.shape == (15, 7) and polish is None
    assert np.array_equal(c0, c_ref) and np.array_equal(basis, basis_ref)


def test_tall_equality_takes_the_gram_route():
    from ffsparse.solver import _equality_parametrization

    fr = random_frame(20, 5, 2, seed=64)
    e = draw_matrix("bernoulli", 30, 20, seed=65, frame=fr)
    rng = np.random.default_rng(66)
    y = e.measure(sparse_signal(fr, random_support(20, 3, rng), rng))
    matrix, b = e.coefficient_matrix(), y.to_flat()
    assert matrix.shape == (150, 40)
    c0, basis, polish = _equality_parametrization(e, y, matrix, b)
    assert basis.shape == (40, 0) and polish is None  # no steps, so no polish
    expected = np.linalg.pinv(matrix) @ b
    assert np.abs(c0 - expected).max() <= 1e-12 * np.abs(expected).max()


def _twin_block_ensemble(gap):
    """A tall ensemble (40 x 12 coefficient matrix) whose column blocks 0
    and 1 differ by about ``gap``: subspaces 0 and 1 coincide, and column 1
    of A is column 0 plus ``gap`` times a Gaussian vector."""
    from ffsparse import FusionFrame

    base = random_frame(6, 5, 2, seed=67).bases.copy()
    base[1] = base[0]
    a = draw_matrix("gaussian", 8, 6, seed=68).matrix.copy()
    a[:, 1] = a[:, 0] + gap * np.random.default_rng(1).standard_normal(8)
    e = MeasurementEnsemble(a, "gaussian", FusionFrame(base))
    y = BlockVector(np.random.default_rng(69).standard_normal((8, 5)))
    return e, y, e.coefficient_matrix(), y.to_flat()


def test_rank_deficient_tall_equality_falls_back_to_the_svd():
    # equal column blocks: the Gram is singular, M has a null space of
    # dimension k = 2, and b is not in its range
    from ffsparse.solver import _equality_parametrization

    e, y, matrix, b = _twin_block_ensemble(0.0)
    c0, basis, _ = _equality_parametrization(e, y, matrix, b)
    expected = np.linalg.pinv(matrix) @ b
    assert np.abs(c0 - expected).max() <= 1e-12 * np.abs(expected).max()
    assert basis.shape == (12, 2)
    assert np.abs(matrix @ basis).max() <= 1e-12
    report = solve_l1_equality(e, e.measure(e.frame.expand(BlockVector(
        np.random.default_rng(70).standard_normal((6, 2))))))
    assert report.converged


def test_ill_conditioned_tall_equality_falls_back_to_the_svd():
    # M has full rank (condition ~3e5) and its Gram factors, but the
    # condition estimate sends the solve to the SVD, whose result comes back
    # unchanged
    import scipy.linalg

    from ffsparse.solver import _affine_parametrization, _equality_parametrization

    e, y, matrix, b = _twin_block_ensemble(1e-5)
    assert scipy.linalg.get_lapack_funcs("potrf", (e.gram(),))(e.gram())[1] == 0
    c0, basis, _ = _equality_parametrization(e, y, matrix, b)
    assert np.array_equal(c0, _affine_parametrization(matrix, b)[0])
    assert basis.shape == (12, 0)


def _one_subspace_frame(name, d=3):
    """Seven copies of one basis U, or (``N=1``) a random frame with one
    subspace."""
    from ffsparse import FusionFrame

    if name == "N=1":
        return random_frame(1, d, 2, seed=74)
    if name == "identity":
        u = np.eye(d)
    elif name == "rotation":
        u = np.linalg.qr(np.random.default_rng(75).standard_normal((d, d)))[0]
    else:  # "k=1", "k=2": a random d x k basis
        u = random_frame(1, d, int(name[2:]), seed=76).basis(0)
    return FusionFrame(np.broadcast_to(u, (7,) + u.shape))


@pytest.mark.parametrize("m", [2, 4, 9])
@pytest.mark.parametrize("name", ["k=1", "k=2", "identity", "rotation", "N=1"])
def test_baseline_parametrization_matches_dense_svd(name, m, monkeypatch):
    # every subspace has the basis U, so M = scale (A kron U) and the one
    # SVD, of the m x N matrix scale A, gives pinv(M) b and B = null(A) kron
    # I_k.  At N = 7, m = 2 makes M wide, m = 9 makes A (and M) tall, and
    # m = 4 makes A wide but, at k = 1, M tall and rank-deficient; the N = 1
    # frame is tall at every m
    from ffsparse import solver

    fr = _one_subspace_frame(name)
    e = draw_matrix("bernoulli", m, fr.n_subspaces, seed=72, frame=fr)
    y = BlockVector(np.random.default_rng(73).standard_normal((m, 3)))
    matrix, b = e.coefficient_matrix(), y.to_flat()
    svd, calls = solver._svd_parts, []
    monkeypatch.setattr(solver, "_svd_parts",
                        lambda mat: calls.append((mat.shape, svd(mat))) or calls[-1][1])
    c0, basis, _ = solver._equality_parametrization(e, y, matrix, b)
    assert [shape for shape, _ in calls] == [(m, fr.n_subspaces)]
    null = calls[0][1][3].T
    assert np.array_equal(basis, np.kron(null, np.eye(fr.dim_subspace)))
    monkeypatch.undo()
    c_ref, basis_ref = solver._affine_parametrization(matrix, b)
    assert np.abs(c0 - c_ref).max() <= 1e-12 * np.abs(c_ref).max()
    assert basis.shape == basis_ref.shape
    assert np.abs(basis @ basis.T - basis_ref @ basis_ref.T).max(initial=0.0) <= 1e-12
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12


def _noisy_instance(n_sub, m):
    """Frame, ensemble and clean and noisy (sigma = 0.03) measurements of a
    2-sparse signal; (10, 3) gives a 15 x 20 coefficient matrix (wide),
    (6, 4) a 20 x 12 one (tall)."""
    from ffsparse import add_noise

    fr = random_frame(n_sub, 5, 2, seed=45 + n_sub)
    rng = np.random.default_rng(46)
    x = sparse_signal(fr, random_support(n_sub, 2, rng), rng)
    e = draw_matrix("gaussian", m, n_sub, seed=47, frame=fr)
    y = e.measure(x)
    return fr, e, y, add_noise(y, 0.03, seed=48)


@pytest.mark.parametrize("n_sub,m", [(10, 3), (6, 4)])
def test_noisy_matches_tight_solve_wide_and_tall(n_sub, m):
    fr, e, _, sample = _noisy_instance(n_sub, m)
    rows, cols = e.coefficient_matrix().shape
    assert (cols > rows) == (n_sub == 10)
    report = solve_l1_noisy(e, sample.y, 0.03)
    tight = solve_l1_noisy(e, sample.y, 0.03, TIGHT)
    assert report.converged and tight.converged
    assert abs(report.objective - tight.objective) <= 1e-8
    assert report.constraint_residual <= 1e-8
    assert tight.constraint_residual <= 1e-8
    matrix, b = e.coefficient_matrix(), sample.y.to_flat()
    c = np.stack([fr.basis(j).T @ tight.x_hat.block(j) for j in range(n_sub)])
    c_norms = np.linalg.norm(c, axis=1)
    _assert_ball_optimal(matrix, b, 0.03 * np.sqrt(m) * e.scale, c, c_norms > 1e-6 * c_norms.max())


def test_ball_newton_matrix_matches_dense():
    # a random iterate at the desk_noisy shape: NT scaling points wb with
    # wb^T J wb = 1 and positive scales; potrf(out.T, lower=1) reads the
    # upper triangle
    import scipy.linalg

    from ffsparse.solver import _ball_newton_matrix

    fr = random_frame(100, 12, 2, seed=76)
    e = draw_matrix("gaussian", 16, 100, seed=77, frame=fr)
    matrix = e.coefficient_matrix()
    rng = np.random.default_rng(78)
    w1 = rng.standard_normal((100, 2))
    norm2 = 1.0 + 2.0 * np.einsum("ij,ij->i", w1, w1)  # ||wb_j||^2 with w0^2 = 1 + ||w1||^2
    bg2 = rng.uniform(0.1, 10.0, 100) ** 2
    blocks = (np.eye(2) - 2.0 * w1[:, :, None] * w1[:, None, :] / norm2[:, None, None]) \
        / bg2[:, None, None]
    g = matrix.T @ rng.standard_normal(matrix.shape[0])
    beta2 = 0.37
    dense = (matrix.T @ matrix + 2.0 * np.outer(g, g)) / beta2 \
        + scipy.linalg.block_diag(*blocks)
    out = _ball_newton_matrix(100, 2)(e.gram(), g, beta2, blocks)
    assert np.abs(np.triu(out) - np.triu(dense)).max() <= 1e-13 * np.abs(dense).max()


def test_gram_solution_matches_dense_least_squares():
    # the lower Cholesky factor of the Gram, with its refinement step, gives
    # the least-squares point of a tall, inconsistent, well-conditioned system
    from ffsparse.solver import _gram_solution

    e, y, matrix, b = _twin_block_ensemble(1.0)
    c = _gram_solution(e.gram(), e.coefficient_adjoint(y), matrix, b)
    expected = np.linalg.lstsq(matrix, b, rcond=None)[0]
    assert np.abs(c - expected).max() <= 1e-12 * np.abs(expected).max()


def test_ball_start_matches_dense_solve(monkeypatch):
    # the ball program's start is the least-squares point of M c = b with the
    # Gram's diagonal shifted by 1e-10 of its mean: the first potrs result
    import scipy.linalg

    _, e, _, sample = _noisy_instance(6, 4)
    real = scipy.linalg.get_lapack_funcs
    solutions = []

    def recording_funcs(names, arrays=()):
        funcs = real(names, arrays)
        if names != ("potrf", "potrs"):
            return funcs
        potrf, potrs = funcs

        def recording_potrs(*args, **kwargs):
            result = potrs(*args, **kwargs)
            solutions.append(result[0].copy())
            return result

        return potrf, recording_potrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording_funcs)
    solve_l1_noisy(e, sample.y, 0.03)
    gram, matrix, b = e.gram(), e.coefficient_matrix(), sample.y.to_flat()
    n = gram.shape[0]
    shifted = gram + 1e-10 * np.trace(gram) / n * np.eye(n)
    expected = np.linalg.solve(shifted, matrix.T @ b)
    assert np.abs(solutions[0] - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n_sub,m", [(10, 3), (6, 4)])
def test_ball_start_balances_the_ball_cone(n_sub, m, monkeypatch):
    # the start lies strictly inside every cone and is dual feasible: z_j =
    # (1, 0) per group and z_ball = (zeta, 0), so G^T z = (0, 1).  zeta sets
    # the smaller eigenvalue zeta (s0 - ||s1||) of the ball cone's s o z to
    # sum_j t_j, the total of the group cones' s_j^T z_j = t_j.  Wide (10, 3):
    # the least-squares start fits b, so s0 = radius.  Tall (6, 4): the
    # least-squares residual is over half the radius, so s0 = 2 ||M c - b||,
    # past the ball's radius.  The first two Jordan norms a step takes are
    # those of s and z
    import ffsparse.solver as solver
    from ffsparse.measurement import noise_radius

    _, e, _, sample = _noisy_instance(n_sub, m)
    real, points = solver._Cones.jnorm, []

    def recording(self, u):
        points.append((self, u.copy()))
        return real(self, u)

    monkeypatch.setattr(solver._Cones, "jnorm", recording)
    assert solve_l1_noisy(e, sample.y, 0.03).converged
    (cones, s), (_, z) = points[:2]
    assert (real(cones, s) > 0).all() and (real(cones, z) > 0).all()
    heads, ng = cones.starts[:n_sub], cones.starts[-1]
    assert (z[heads] == 1.0).all() and not np.delete(z, cones.starts).any()
    t, radius = s[heads], noise_radius(0.03, m)
    head, off = s[ng], float(np.linalg.norm(s[ng + 1:]))
    if n_sub == 10:
        assert off < 0.5 * radius and head == radius
    else:
        assert 0.5 * radius <= off < radius and head == 2.0 * off
    assert abs(z[ng] * (head - off) - t.sum()) <= 1e-12 * t.sum()


def test_ball_solves_match_tight_solves_on_random_instances():
    # wide (15 x 24) and tall (25 x 12) coefficient matrices, Gaussian and
    # Bernoulli, sigma from 0.005 to 1: every ball solve converges to the
    # objective of a TIGHT solve within 1e-9
    from ffsparse import add_noise

    for trial, sigma in enumerate(np.geomspace(0.005, 1.0, 10)):
        n_sub, m = ((12, 3), (6, 5))[trial % 2]
        fr = random_frame(n_sub, 5, 2, seed=90 + trial)
        rng = np.random.default_rng(100 + trial)
        x = sparse_signal(fr, random_support(n_sub, 2, rng), rng)
        e = draw_matrix(("gaussian", "bernoulli")[trial // 2 % 2], m, n_sub, seed=110 + trial,
                        frame=fr)
        y = add_noise(e.measure(x), sigma, seed=120 + trial).y
        report, tight = solve_l1_noisy(e, y, sigma), solve_l1_noisy(e, y, sigma, TIGHT)
        assert report.converged and tight.converged
        assert abs(report.objective - tight.objective) <= 1e-9 * tight.objective


def test_ball_solve_recovers_from_failed_factorizations(monkeypatch):
    # every step's first Cholesky reports failure, so every step factors the
    # diagonally shifted Newton matrix, which must still be the one built
    import scipy.linalg

    _, e, _, sample = _noisy_instance(10, 3)
    expected = solve_l1_noisy(e, sample.y, 0.03)
    real = scipy.linalg.get_lapack_funcs

    def flaky_funcs(names, arrays=()):
        funcs = real(names, arrays)
        if names != ("potrf", "potrs"):
            return funcs
        potrf, potrs = funcs
        calls = itertools.count()

        def potrf_failing_every_other(a, **kwargs):
            chol, info = potrf(a, **kwargs)
            return chol, (1 if next(calls) % 2 else info)  # call 0 is the start's

        return potrf_failing_every_other, potrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", flaky_funcs)
    report = solve_l1_noisy(e, sample.y, 0.03)
    assert report.converged
    assert abs(report.iterations - expected.iterations) <= 1
    assert abs(report.objective - expected.objective) <= 1e-8 * expected.objective


def _factor_steps(monkeypatch):
    """Record the Newton factorizations of every later solve: a list, one
    entry per interior-point step (the ball start's factor included), of
    [max L_ii / min L_ii of the factor used, whether a diagonal-shift
    retry made it, number of solves with it].  Only the factors of
    ``_group_socp`` count, not those of the equality polish."""
    import sys

    import scipy.linalg

    real = scipy.linalg.get_lapack_funcs
    steps = []

    def counting_funcs(names, arrays=()):
        funcs = real(names, arrays)
        if names != ("potrf", "potrs") or sys._getframe(1).f_code.co_name != "_group_socp":
            return funcs
        potrf, potrs = funcs

        def counting_potrf(a, **kwargs):
            chol, info = potrf(a, **kwargs)
            diagonal = chol.diagonal()
            entry = [diagonal.max() / diagonal.min(), False, 0]
            if steps and steps[-1][2] == 0:  # a retry within the same step
                steps[-1][:2] = [entry[0], True]
            else:
                steps.append(entry)
            return chol, info

        def counting_potrs(*args, **kwargs):
            steps[-1][2] += 1
            return potrs(*args, **kwargs)

        return counting_potrf, counting_potrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting_funcs)
    return steps


def test_corrector_is_refined_only_for_a_wide_factor_diagonal(monkeypatch):
    # every step solves twice with its factor, the predictor and the
    # corrector, and a third time to refine the corrector when the factor's
    # diagonal spreads by 1e4 or more (kappa >= 1e8) or a shift made it.
    # The block-baseline solve of desk_ff_vs_block trial seed 1000041 has
    # steps on both sides of the gate
    steps = _factor_steps(monkeypatch)
    e, y, cfg = _ff_vs_block_instance(41)
    report = solve_block_baseline(e, y, cfg)
    assert len(steps) == report.iterations
    _, e, _, sample = _noisy_instance(10, 3)
    report = solve_l1_noisy(e, sample.y, 0.03)
    assert len(steps) == 13 + 1 + report.iterations
    assert steps.pop(13)[2] == 1  # the ball start: one solve
    assert all(solves == 2 + (shifted or spread >= 1e4) for spread, shifted, solves in steps)
    assert sum(solves == 3 for *_, solves in steps) >= 2
    assert sum(solves == 2 for *_, solves in steps) >= 2


def _assert_ball_optimal(matrix, b, radius, c, active):
    """Optimality of c, independent of the solver, to 1e-8: 0 lies outside
    the ball, so the residual r sits on its boundary, and g_j = M_j^T r is
    antiparallel to every active block c_j with one common norm that no
    other g_j exceeds."""
    r = matrix @ c.ravel() - b
    assert abs(float(np.linalg.norm(r)) - radius) <= 1e-8
    g = (matrix.T @ r).reshape(c.shape)
    c_norms, g_norms = np.linalg.norm(c, axis=1), np.linalg.norm(g, axis=1)
    directions = c[active] / c_norms[active, None] + g[active] / g_norms[active, None]
    assert np.abs(directions).max() <= 1e-8
    assert g_norms[active].max() - g_norms[active].min() <= 1e-8 * g_norms.max()
    assert g_norms[~active].max() <= g_norms[active].min()


@pytest.mark.parametrize("base_seed,cell_index,trial", [(1, 4, 19), (8001, 1, 0)])
def test_noisy_polish_recovers_from_a_wrong_start(base_seed, cell_index, trial):
    # desk_noisy_sigma trial seed 1004019 (sigma 0.08): at every attempt the
    # 1e-6 norm cut, the retry's set, keeps inactive groups, so the certified
    # point comes from the set read from the dual scores, at the last attempt
    # of the four.  Trial seed 8001001000 (sigma 0.02, base seed 8001): at
    # the certifying attempt the set is right, but the first Newton step
    # raises the residual (less than tenfold) before the next ones converge.
    frame, e, sample, sigma = _desk_noisy_trial(base_seed, cell_index, trial)
    report = solve_l1_noisy(e, sample.y, sigma)
    assert report.converged
    c = np.stack([frame.basis(j).T @ report.x_hat.block(j) for j in range(frame.n_subspaces)])
    active = np.linalg.norm(c, axis=1) > 0
    assert not active.all()  # the polished point: inactive groups are exactly 0
    _assert_ball_optimal(e.coefficient_matrix(), sample.y.to_flat(),
                         sigma * np.sqrt(e.m) * e.scale, c, active)


def _desk_noisy_trial(base_seed, cell_index, trial):
    """(frame, ensemble, noisy sample, sigma) of one trial of
    desk_noisy_sigma at the given base seed, built by the experiment's own
    helpers."""
    import json

    from ffsparse import add_noise
    from ffsparse.experiments import (
        _NOISE_SEED_OFFSET, _cell_signal, _cells, _group_frame, _trial_seed, spec_from_dict,
    )

    doc = json.loads((Path(__file__).resolve().parent.parent / "specs"
                      / "desk_noisy_sigma.json").read_text())
    spec = spec_from_dict(dict(doc, base_seed=base_seed))
    cell = _cells(spec)[cell_index]
    seed = _trial_seed(spec.base_seed, cell["index"], trial)
    frame = _group_frame(spec, cell)
    e = draw_matrix(spec.kind, cell["m"], spec.N, seed, frame)
    sample = add_noise(e.measure(_cell_signal(spec, cell, frame)), cell["sigma"],
                       seed + _NOISE_SEED_OFFSET)
    return frame, e, sample, cell["sigma"]


@pytest.mark.parametrize("n_sub,m", [(10, 3), (6, 4)])
def test_ball_solve_ends_at_the_first_certified_polish(n_sub, m, monkeypatch):
    # a ball step tries the polish once the gap is below sqrt(tol) of the
    # objective and ends the solve when it certifies optimality; a solve
    # whose in-loop attempts fail until its converging step polishes only
    # there, and one whose every attempt fails returns its own iterate
    import ffsparse.solver as solver

    _, e, _, sample = _noisy_instance(n_sub, m)
    early = solve_l1_noisy(e, sample.y, 0.03)
    real = solver._polish_ball
    attempts = []

    def failing(*args):
        attempts.append(args)
        return None

    monkeypatch.setattr(solver, "_polish_ball", failing)
    unpolished = solve_l1_noisy(e, sample.y, 0.03)
    assert len(attempts) >= 2
    calls = itertools.count()
    monkeypatch.setattr(solver, "_polish_ball", lambda *args: (
        real(*args) if next(calls) == len(attempts) - 1 else None))
    late = solve_l1_noisy(e, sample.y, 0.03)
    assert early.converged and late.converged and unpolished.converged
    assert early.iterations < late.iterations == unpolished.iterations
    assert np.abs(early.x_hat.blocks - late.x_hat.blocks).max() <= 1e-9
    assert not np.array_equal(late.x_hat.blocks, unpolished.x_hat.blocks)
    assert abs(unpolished.objective - early.objective) <= 1e-8 * early.objective


def _recording_newton_on_active(monkeypatch):
    """Record every later call of ``_newton_on_active`` as [np.linalg.solve
    calls made, whether it returned a point]."""
    import ffsparse.solver as solver

    real_solve, real_newton = np.linalg.solve, solver._newton_on_active
    log = []

    def counting_solve(*args):
        log[-1][0] += 1
        return real_solve(*args)

    def recording_newton(*args):
        log.append([0, False])
        point = real_newton(*args)
        log[-1][1] = point is not None
        return point

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(solver, "_newton_on_active", recording_newton)
    return log


def test_polish_gives_up_on_a_diverging_active_set(monkeypatch):
    # desk_noisy_sigma trial seed 1003000 (sigma 0.06): at the first in-loop
    # polish the set from the dual scores is right and converges, while
    # every group above 1e-6 of the largest norm (the retry's set) includes
    # inactive ones, and that set's residual grows tenfold at the first
    # Newton step
    import ffsparse.solver as solver

    _, e, sample, sigma = _desk_noisy_trial(1, 3, 0)
    real, attempts = solver._polish_ball, []

    def recording(*args):
        attempts.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_polish_ball", recording)
    log = _recording_newton_on_active(monkeypatch)
    report = solve_l1_noisy(e, sample.y, sigma)
    assert report.converged
    assert log[0][1] is True and log[0][0] <= 5
    c, matrix, b, radius, k, nu = attempts[0]
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    cut = norms > 1e-6 * norms.max()
    assert solver._newton_on_active(c, matrix, b, radius, k, nu, cut) is None
    assert log[-1][0] <= 2


def test_polish_stops_at_rounding(monkeypatch):
    # from a point 1e-4 off the minimizer on the right active set, Newton
    # converges quadratically and stops one step after its residual first
    # falls below 1e-10, well before its step cap, whatever the rounding
    # noise of that last step
    import ffsparse.solver as solver

    fr, e, _, sample = _noisy_instance(10, 3)
    report = solve_l1_noisy(e, sample.y, 0.03)
    matrix, b, radius = e.coefficient_matrix(), sample.y.to_flat(), 0.03 * np.sqrt(3) * e.scale
    c = np.concatenate([fr.basis(j).T @ report.x_hat.block(j) for j in range(10)])
    active = np.linalg.norm(c.reshape(10, 2), axis=1) > 0
    g = (matrix.T @ (matrix @ c - b)).reshape(10, 2)[active]
    nu = 1.01 / np.linalg.norm(g, axis=1).mean()
    start = c + 1e-4 * np.abs(c).max() * np.repeat(active, 2) \
        * np.random.default_rng(0).standard_normal(20)
    log = _recording_newton_on_active(monkeypatch)
    polished = solver._newton_on_active(start, matrix, b, radius, 2, nu, active)
    assert log[0][1] is True and log[0][0] <= 5 < solver._POLISH_STEPS - 1
    assert np.abs(polished - c).max() <= 1e-12 * np.abs(c).max()


# -- equality polish ---------------------------------------------------------------------

def _wide_instance(kind, n_sub, d, k, m, s, seed):
    """A wide equality program: ensemble and clean measurements of an
    s-sparse signal on a random frame."""
    fr = random_frame(n_sub, d, k, seed=seed)
    e = draw_matrix(kind, m, n_sub, seed=seed + 1, frame=fr)
    rng = np.random.default_rng(seed + 2)
    assert m * d < n_sub * k
    return e, e.measure(sparse_signal(fr, random_support(n_sub, s, rng), rng))


def _record_equality_polish(monkeypatch):
    """Record what every call of ``_polish_equality`` returns."""
    import ffsparse.solver as solver

    real, log = solver._polish_equality, []
    monkeypatch.setattr(solver, "_polish_equality",
                        lambda *args: log.append(real(*args)) or log[-1])
    return log


def _assert_equality_kkt(matrix, b, k, c, lam):
    """Optimality of c for min sum_j ||c_j|| s.t. M c = b, from the
    multiplier lam and the dense M, to 1e-10: M c = b, M_j^T lam is the
    unit block c_j / ||c_j|| on the support and at most 1 in norm off it."""
    assert np.abs(matrix @ c - b).max() <= 1e-10
    blocks, duals = c.reshape(-1, k), (matrix.T @ lam).reshape(-1, k)
    norms = np.linalg.norm(blocks, axis=1)
    on = norms > 0
    assert on.any()
    assert np.abs(duals[on] - blocks[on] / norms[on, None]).max() <= 1e-10
    assert (np.linalg.norm(duals[~on], axis=1) <= 1.0).all()


@pytest.mark.parametrize("kind,shape", [
    ("gaussian", (30, 4, 1, 5, 3)), ("bernoulli", (30, 4, 1, 5, 3)),
    ("gaussian", (20, 6, 2, 4, 2)), ("bernoulli", (60, 6, 2, 3, 2)),
    ("bernoulli", (60, 6, 2, 12, 4)), ("bernoulli", (20, 6, 3, 6, 3)),
    ("gaussian", (20, 5, 3, 8, 4))])
def test_equality_polish_is_optimal_on_random_instances(kind, shape, monkeypatch):
    # every solve ends at a certified polish whose point and multiplier
    # meet the optimality conditions, checked on the dense M, and whose
    # objective is at most that of the same solve with every polish failing
    import ffsparse.solver as solver

    k = shape[2]
    for seed in (3, 40, 77):
        e, y = _wide_instance(kind, *shape, seed)
        log = _record_equality_polish(monkeypatch)
        report = solve_l1_equality(e, y)
        assert report.converged and report.polish_attempts == len(log) >= 1
        assert log[-1] is not None and all(point is None for point in log[:-1])
        c, lam = log[-1]
        _assert_equality_kkt(e.coefficient_matrix(), y.to_flat(), k, c, lam)
        assert np.array_equal(report.x_hat.blocks, e.frame.expand(
            BlockVector(c.reshape(-1, k))).blocks)
        monkeypatch.setattr(solver, "_polish_equality", lambda *args: None)
        unpolished = solve_l1_equality(e, y)
        monkeypatch.undo()
        assert unpolished.converged and report.iterations <= unpolished.iterations
        assert report.objective <= unpolished.objective * (1.0 + 1e-12)


def test_equality_polish_on_a_singular_active_gram(monkeypatch):
    # Bernoulli m = 3: A has only four distinct columns up to sign, so the
    # active 18 x 12 operator M_S has rank 8 and M_S^T M_S is singular; the
    # one SVD of M_S still gives a point and multiplier, which are either
    # certified, with every residual at most 1e-10 on the dense M, or refused
    import ffsparse.solver as solver

    real, attempts = solver._equality_on_active, []

    def recording(c, b, k, restrict, adjoint, lam0, active):
        attempts.append((restrict(active), real(c, b, k, restrict, adjoint, lam0, active)))
        return attempts[-1][1]

    monkeypatch.setattr(solver, "_equality_on_active", recording)
    fr = random_frame(60, 6, 2, seed=2)
    e = draw_matrix("bernoulli", 3, 60, seed=1002, frame=fr)
    rng = np.random.default_rng(2)
    y = e.measure(sparse_signal(fr, random_support(60, 3, rng), rng))
    report = solve_l1_equality(e, y)
    assert report.converged
    singular = [(sub, out) for sub, out in attempts
                if sub.shape[0] >= sub.shape[1] > np.linalg.matrix_rank(sub)]
    assert singular
    for sub, out in singular:
        if out is not None:
            _assert_equality_kkt(e.coefficient_matrix(), y.to_flat(), 2, *out)


@pytest.mark.parametrize("kind,shape", [("bernoulli", (60, 6, 2, 3, 2)),
                                        ("gaussian", (20, 6, 2, 4, 2))])
def test_equality_solve_ends_at_the_first_certified_polish(kind, shape, monkeypatch):
    # an equality step tries the polish once the gap is below sqrt(tol) of
    # the objective and ends the solve at the first certified point; a solve
    # whose attempts fail until its converging step polishes only there, and
    # one whose every attempt fails returns its own iterate
    import ffsparse.solver as solver

    e, y = _wide_instance(kind, *shape, 5)
    early = solve_l1_equality(e, y)
    real, attempts = solver._polish_equality, []
    monkeypatch.setattr(solver, "_polish_equality", lambda *args: attempts.append(args))
    unpolished = solve_l1_equality(e, y)
    assert len(attempts) >= 2 and unpolished.polish_attempts == len(attempts)
    calls = itertools.count()
    monkeypatch.setattr(solver, "_polish_equality", lambda *args: (
        real(*args) if next(calls) == len(attempts) - 1 else None))
    late = solve_l1_equality(e, y)
    assert early.converged and late.converged and unpolished.converged
    assert early.polish_attempts < late.polish_attempts == len(attempts)
    assert early.iterations < late.iterations == unpolished.iterations
    assert np.abs(early.x_hat.blocks - late.x_hat.blocks).max() <= 1e-9
    assert not np.array_equal(late.x_hat.blocks, unpolished.x_hat.blocks)
    assert abs(unpolished.objective - early.objective) <= 1e-8 * early.objective


@pytest.mark.parametrize("shape", [(100, 12, 2, 16, 4), (60, 6, 2, 12, 3), (200, 3, 1, 50, 5)])
def test_noisy_solve_with_a_tiny_ball_converges(shape):
    # a radius of 1e-9 or less is lost in the rounding of M c - b: the
    # ball's own steps ran to the iteration cap, with objectives up to 281
    # times the optimum on the first shape and about twice it on the
    # others at eta <= 3e-10.  The equality optimum, moved into the ball,
    # is within tol of the ball's optimum by the duality bound
    e, y = _wide_instance("gaussian", *shape, 11)
    equality = solve_l1_equality(e, y)
    for eta in (1e-9, 3e-10, 1e-10, 1e-12):
        report = solve_l1_noisy(e, y, eta)
        assert report.converged and report.iterations == equality.iterations
        assert report.constraint_residual <= 1e-15
        assert equality.objective * (1.0 - 1e-8) <= report.objective
        assert report.objective <= equality.objective * (1.0 + 1e-12)


def test_desk_noise_never_takes_the_tiny_ball_route(monkeypatch):
    # sigma >= 0.02 makes the radius far larger than sqrt(tol) ||b||, so the
    # desk's noisy solves run the ball program alone
    import ffsparse.solver as solver

    def unused(*args):
        raise AssertionError("equality program run for a ball")

    monkeypatch.setattr(solver, "_equality_parametrization", unused)
    for trial in range(3):
        _, e, sample, sigma = _desk_noisy_trial(1, 1, trial)
        assert sigma == 0.02
        assert solve_l1_noisy(e, sample.y, sigma).converged


# -- stopping rule -----------------------------------------------------------------------

def test_tolerances_govern_both_programs(monkeypatch):
    # a looser tolerance stops earlier, a tighter one later, in both
    # programs' stopping tests.  A ball solve ends instead at its first
    # certified polish, whose 1e-10 accuracy does not depend on the
    # tolerance, so there a looser tolerance stops no later; with every
    # polish failing, the stopping test orders the ball solves strictly
    import ffsparse.solver as solver

    _, e, y, sample = _noisy_instance(10, 3)
    configs = (SolverConfig(tol=1e-5), SolverConfig(), TIGHT)

    def ball(cfg):
        return solve_l1_noisy(e, sample.y, 0.03, cfg)

    equality = [solve_l1_equality(e, y, cfg) for cfg in configs]
    polished = [ball(cfg) for cfg in configs]
    monkeypatch.setattr(solver, "_polish_ball", lambda *args: None)
    unpolished = [ball(cfg) for cfg in configs]
    assert all(r.converged for r in equality + polished + unpolished)
    for reports in (equality, unpolished):
        assert reports[0].iterations < reports[1].iterations < reports[2].iterations
    assert polished[0].iterations <= polished[1].iterations <= polished[2].iterations
    assert all(p.iterations <= u.iterations for p, u in zip(polished, unpolished))


def _ff_vs_block_instance(trial):
    """desk_ff_vs_block, m = 6 (an 18 x 60 coefficient matrix, k = 1), trial
    seed 1000000 + trial, built from the experiment's own frame, signal and
    ensemble."""
    from ffsparse.experiments import _cell_signal, _cells, _group_frame, _trial_seed, spec_from_json

    spec = spec_from_json((Path(__file__).resolve().parent.parent / "specs"
                           / "desk_ff_vs_block.json").read_text())
    cell = _cells(spec)[0]
    seed = _trial_seed(spec.base_seed, cell["index"], trial)
    assert cell["m"] == 6 and seed == 1_000_000 + trial
    frame = _group_frame(spec, cell)
    x = _cell_signal(spec, cell, frame)
    e = draw_matrix(spec.kind, cell["m"], spec.N, seed, frame)
    return e, e.measure(x), SolverConfig()


def test_block_baseline_converges_on_an_ill_conditioned_trial():
    # trial seed 1000041: its last Newton factors are well conditioned
    # enough to need no diagonal shift, but spread their diagonals past
    # 1e4, and refining the corrector only after a shift left this
    # block-baseline solve unconverged after 16 steps
    e, y, cfg = _ff_vs_block_instance(41)
    report = solve_block_baseline(e, y, cfg)
    assert report.converged and report.iterations < cfg.max_iter
    assert report.constraint_residual <= 1e-12


def test_block_baseline_never_builds_the_coefficient_matrix(monkeypatch):
    # the baseline takes the identical-subspace route, whose polish applies
    # M_S and M^T lam from A, and its residual is scale A X - Y of the
    # estimate X
    e, y, cfg = _ff_vs_block_instance(3)

    def unbuilt(self):
        raise AssertionError("coefficient_matrix built")

    monkeypatch.setattr(MeasurementEnsemble, "coefficient_matrix", unbuilt)
    report = solve_block_baseline(e, y, cfg)
    monkeypatch.undo()
    dense = np.kron(e.scale * e.matrix, np.eye(3))
    assert report.converged and report.polish_attempts >= 1
    assert abs(report.constraint_residual
               - np.linalg.norm(dense @ report.x_hat.to_flat() - y.to_flat())) <= 1e-14


def test_penalty_cycle_reproducer_converges():
    # trial 0 cycled an ADMM penalty until its iteration cap, trials 3, 18,
    # 27, 34, 46 and 47 reached the cap with the penalty frozen.  With
    # k = 1 the program is a linear program: min 1^T (c+ + c-) subject to
    # M (c+ - c-) = b and c+, c- >= 0, which HiGHS solves independently.
    from scipy.optimize import linprog

    for trial in (0, 3, 18, 27, 34, 46, 47):
        e, y, cfg = _ff_vs_block_instance(trial)
        report = solve_l1_equality(e, y, cfg)
        assert report.converged and report.iterations < cfg.max_iter
        matrix, b = e.coefficient_matrix(), y.to_flat()
        n = matrix.shape[1]
        lp = linprog(np.ones(2 * n), A_eq=np.hstack([matrix, -matrix]), b_eq=b,
                     bounds=(0, None), method="highs")
        assert lp.status == 0
        assert abs(report.objective - lp.fun) <= 1e-7 * lp.fun
