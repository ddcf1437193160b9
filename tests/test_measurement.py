import math

import numpy as np
import pytest

from ffsparse import (
    BlockSupport,
    BlockVector,
    MeasurementEnsemble,
    add_noise,
    draw_matrix,
    random_frame,
    random_support,
)


def signal_in_subspaces(frame, rng):
    c = BlockVector(rng.standard_normal((frame.n_subspaces, frame.dim_subspace)))
    return frame.expand(c)


# -- drawing -------------------------------------------------------------------

def test_bernoulli_entries():
    e = draw_matrix("bernoulli", 4, 4, seed=1)
    assert np.isin(e.matrix, (-1.0, 1.0)).all()


def test_gaussian_moments():
    e = draw_matrix("gaussian", 1000, 1, seed=2)
    assert abs(e.matrix.mean()) < 0.1
    assert abs(e.matrix.var() - 1.0) < 0.1


def test_draw_deterministic():
    a = draw_matrix("bernoulli", 6, 9, seed=5)
    b = draw_matrix("bernoulli", 6, 9, seed=5)
    assert np.array_equal(a.matrix, b.matrix)


def test_draw_validation():
    with pytest.raises(ValueError):
        draw_matrix("bernoulli", 0, 3, seed=1)
    with pytest.raises(ValueError):
        draw_matrix("rademacher", 2, 3, seed=1)
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.array([[0.5, 1.0]]), "bernoulli")


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_rejected(kind, bad):
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.array([[1.0, bad], [-1.0, 1.0]]), kind)


def test_normalization_flag():
    # every ensemble measures with A / sqrt(m)
    fr = random_frame(5, 4, 2, seed=3)
    e = draw_matrix("bernoulli", 9, 5, seed=4, frame=fr)
    assert e.scale == 1.0 / 3.0
    rng = np.random.default_rng(6)
    x = signal_in_subspaces(fr, rng)
    assert np.abs(e.measure(x).blocks * 3.0 - e.matrix @ x.blocks).max() <= 1e-12


# -- operators -----------------------------------------------------------------

def test_measure_zero():
    fr = random_frame(4, 4, 1, seed=7)
    e = draw_matrix("bernoulli", 3, 4, seed=8, frame=fr)
    y = e.measure(BlockVector.zeros(4, 4))
    assert np.all(y.blocks == 0.0)


def test_measure_single_passthrough():
    fr = random_frame(1, 3, 2, seed=9)
    e = MeasurementEnsemble(np.array([[1.0]]), "bernoulli", fr)
    rng = np.random.default_rng(10)
    x = signal_in_subspaces(fr, rng)
    y = e.measure(x)
    assert np.abs(y.blocks[0] - x.blocks[0]).max() <= 1e-12


def test_projected_equals_plain_on_subspace_signals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        fr = random_frame(n, d, k, seed=int(rng.integers(1e6)))
        e = draw_matrix("bernoulli", int(rng.integers(1, 7)), n,
                        seed=int(rng.integers(1e6)), frame=fr)
        x = signal_in_subspaces(fr, rng)
        diff = e.measure(x).blocks - e.measure_blockwise(x).blocks
        assert np.abs(diff).max() <= 1e-10


def test_adjoint_zero_and_scalar_case():
    fr = random_frame(1, 2, 2, seed=12)
    e = MeasurementEnsemble(np.array([[2.0]]), "gaussian", fr)
    assert np.all(e.adjoint(BlockVector.zeros(1, 2)).blocks == 0.0)
    rng = np.random.default_rng(13)
    h = BlockVector(rng.standard_normal((1, 2)))
    # k = d so the projector is the identity: adjoint is plain scaling by 2
    assert np.abs(e.adjoint(h).blocks - 2.0 * h.blocks).max() <= 1e-12


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        m = int(rng.integers(1, 8))
        fr = random_frame(n, d, k, seed=int(rng.integers(1e6)))
        e = draw_matrix("gaussian", m, n, seed=int(rng.integers(1e6)), frame=fr)
        x = BlockVector(rng.standard_normal((n, d)))
        h = BlockVector(rng.standard_normal((m, d)))
        lhs = float(np.sum(e.measure(x).blocks * h.blocks))
        rhs = float(np.sum(x.blocks * e.adjoint(h).blocks))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_dimension_mismatch_errors():
    fr = random_frame(4, 3, 1, seed=15)
    e = draw_matrix("bernoulli", 2, 4, seed=16, frame=fr)
    with pytest.raises(ValueError):
        e.measure(BlockVector.zeros(5, 3))
    with pytest.raises(ValueError):
        e.measure(BlockVector.zeros(4, 2))
    with pytest.raises(ValueError):
        e.adjoint(BlockVector.zeros(3, 3))


def test_measure_blockwise_rejects_wrong_block_length():
    # a (4, 5) signal on a d = 3 frame used to come back as (2, 5)
    # "measurements"
    fr = random_frame(4, 3, 1, seed=15)
    e = draw_matrix("bernoulli", 2, 4, seed=16, frame=fr)
    with pytest.raises(ValueError, match="does not match"):
        e.measure_blockwise(BlockVector.zeros(4, 5))
    with pytest.raises(ValueError, match="does not match"):
        e.measure_blockwise(BlockVector.zeros(5, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("operator", ["check_measurements", "adjoint", "coefficient_adjoint"])
def test_non_finite_measurements_rejected(operator, bad):
    fr = random_frame(4, 3, 1, seed=15)
    e = draw_matrix("bernoulli", 2, 4, seed=16, frame=fr)
    h = np.ones((2, 3))
    h[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        getattr(e, operator)(BlockVector(h))


# -- coefficient matrix -----------------------------------------------------------

def test_coefficient_matrix_zero():
    fr = random_frame(4, 5, 2, seed=17)
    e = draw_matrix("bernoulli", 3, 4, seed=18, frame=fr)
    assert np.all(e.coefficient_matrix() @ np.zeros(8) == 0.0)


def test_coefficient_matrix_matches_operator():
    rng = np.random.default_rng(19)
    fr = random_frame(4, 5, 2, seed=20)
    e = draw_matrix("gaussian", 3, 4, seed=21, frame=fr)
    c = BlockVector(rng.standard_normal((4, 2)))
    via_matrix = e.coefficient_matrix() @ c.to_flat()
    via_operator = e.measure(fr.expand(c)).to_flat()
    assert np.abs(via_matrix - via_operator).max() <= 1e-10


def test_coefficient_matrix_full_subspaces_reduces_to_blockwise():
    # k = d with identity bases: the coefficient matrix is the plain
    # block-sparsity operator
    d = 3
    bases = np.stack([np.eye(d) for _ in range(4)])
    from ffsparse import FusionFrame

    fr = FusionFrame(bases)
    e = draw_matrix("bernoulli", 2, 4, seed=22, frame=fr)
    assert np.abs(e.coefficient_matrix() - e.blockwise_matrix()).max() <= 1e-14


def test_three_way_agreement():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        m = int(rng.integers(1, 8))
        if m * d > 50 or n * k > 50:
            continue
        fr = random_frame(n, d, k, seed=int(rng.integers(1e6)))
        e = draw_matrix("bernoulli", m, n, seed=int(rng.integers(1e6)), frame=fr)
        c = BlockVector(rng.standard_normal((n, k)))
        x = fr.expand(c)
        y_op = e.measure(x).to_flat()
        y_plain = e.measure_blockwise(x).to_flat()
        y_mat = e.coefficient_matrix() @ c.to_flat()
        assert np.abs(y_op - y_plain).max() <= 1e-9
        assert np.abs(y_op - y_mat).max() <= 1e-9
        h = BlockVector(rng.standard_normal((m, d)))
        adj_op = fr.coefficients(e.adjoint(h)).to_flat()
        adj_mat = e.coefficient_matrix().T @ h.to_flat()
        assert np.abs(adj_op - adj_mat).max() <= 1e-9


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_gram_matches_dense_product(kind):
    fr = random_frame(9, 5, 2, seed=61)
    e = draw_matrix(kind, 7, 9, seed=62, frame=fr)
    matrix = e.coefficient_matrix()
    dense = matrix.T @ matrix
    gram = e.gram()
    assert gram.shape == dense.shape
    assert np.abs(gram - dense).max() <= 1e-13 * np.abs(dense).max()
    assert not gram.flags.writeable
    assert e.gram() is gram
    h = BlockVector(np.random.default_rng(63).standard_normal((7, 5)))
    rhs = matrix.T @ h.to_flat()
    assert np.abs(e.coefficient_adjoint(h) - rhs).max() <= 1e-13 * np.abs(rhs).max()


def _operator_shapes():
    """(frame, m) pairs: desk_audit's tallest shape, a k = 1 frame (whose
    transposed bases are a strided view), a k = d identity frame, m = 1 and
    N = 1."""
    from ffsparse import FusionFrame

    return [
        (random_frame(60, 6, 2, seed=64), 350),
        (random_frame(200, 3, 1, seed=65), 30),
        (FusionFrame(np.broadcast_to(np.eye(4), (9, 4, 4))), 5),
        (random_frame(7, 5, 3, seed=66), 1),
        (random_frame(1, 4, 2, seed=67), 6),
    ]


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("case", range(5), ids=["desk_audit", "k=1", "identity", "m=1", "N=1"])
def test_operators_match_reference_forms_bit_for_bit(case, kind):
    # every entry of M and of M^T M is one product, so the assembly order
    # cannot change a bit: compare with the einsum and 4-D broadcast forms.
    # The einsum adds each product to +0.0, so where a_ij < 0 meets a zero
    # basis entry it writes +0.0 and the product -0.0: its values are
    # compared, and the signs against the 4-D broadcast of the same products
    fr, m = _operator_shapes()[case]
    n, d, k = fr.n_subspaces, fr.dim_ambient, fr.dim_subspace
    e = draw_matrix(kind, m, n, seed=68, frame=fr)
    einsum = e.scale * np.einsum("ij,jdk->idjk", e.matrix, fr.bases).reshape(m * d, n * k)
    products = e.matrix[:, None, :, None] * fr.bases.transpose(1, 0, 2)
    coeff = (products * e.scale).reshape(m * d, n * k)
    outer = e.scale**2 * (e.matrix.T @ e.matrix)
    gram = (outer[:, None, :, None] * fr.cross_gram().reshape(n, k, n, k)).reshape(n * k, n * k)
    assert np.array_equal(e.coefficient_matrix(), einsum)
    for built, reference in ((e.coefficient_matrix(), coeff), (e.gram(), gram)):
        assert np.array_equal(built, reference)
        assert np.array_equal(np.signbit(built), np.signbit(reference))
        # read-only, and C-contiguous: the Cholesky reads gram.T as a
        # Fortran-ordered matrix and would otherwise copy it
        assert not built.flags.writeable
        assert built.flags.c_contiguous


def test_restricted_gram_matches_block_assembly():
    # coefficient-space Gram restricted to support columns equals the
    # basis-conjugated explicit block Gram of the rescaled operator
    rng = np.random.default_rng(24)
    for _ in range(10):
        n, d, k, m, s = 5, 4, 2, 3, 2
        fr = random_frame(n, d, k, seed=int(rng.integers(1e6)))
        e = draw_matrix("bernoulli", m, n, seed=int(rng.integers(1e6)), frame=fr)
        support = random_support(n, s, rng)
        idx = support.indices
        cols = np.concatenate([np.arange(j * k, (j + 1) * k) for j in idx])
        sub = e.coefficient_matrix()[:, cols]
        gram_coeff = sub.T @ sub
        blocks = np.zeros((s * k, s * k))
        for a, i in enumerate(idx):
            for bidx, j in enumerate(idx):
                block = sum(
                    e.matrix[r, i] * e.matrix[r, j] * fr.projector(i) @ fr.projector(j)
                    for r in range(m)
                ) / m
                blocks[a * k:(a + 1) * k, bidx * k:(bidx + 1) * k] = (
                    fr.basis(i).T @ block @ fr.basis(j)
                )
        assert np.abs(gram_coeff - blocks).max() <= 1e-10


def test_expected_isometry_over_bernoulli_draws():
    # the average restricted Gram over many draws approaches the identity in
    # coefficient space, with deviation shrinking roughly like 1/sqrt(trials)
    fr = random_frame(8, 5, 2, seed=25)
    support = BlockSupport([1, 4, 6])
    k = 2
    cols = np.concatenate([np.arange(j * k, (j + 1) * k) for j in support.indices])

    def avg_deviation(trials):
        acc = np.zeros((6, 6))
        for t in range(trials):
            e = draw_matrix("bernoulli", 4, 8, seed=1000 + t, frame=fr)
            sub = e.coefficient_matrix()[:, cols]
            acc += sub.T @ sub
        acc /= trials
        return float(np.abs(np.linalg.eigvalsh(acc - np.eye(6))).max())

    few, many = avg_deviation(20), avg_deviation(500)
    assert many < few / 2.0
    assert many < 0.1


# -- noise --------------------------------------------------------------------------

def test_add_noise_zero_level():
    rng = np.random.default_rng(26)
    y = BlockVector(rng.standard_normal((5, 3)))
    sample = add_noise(y, 0.0, seed=1)
    assert np.array_equal(sample.y.blocks, y.blocks)
    assert np.all(sample.noise.blocks == 0.0)


def test_add_noise_exact_boundary():
    rng = np.random.default_rng(27)
    for eta in (0.06, 0.5, 2.0):
        y = BlockVector(rng.standard_normal((7, 4)))
        sample = add_noise(y, eta, seed=int(rng.integers(1e6)))
        norm = float(np.linalg.norm(sample.noise.blocks))
        assert norm == pytest.approx(eta * math.sqrt(7) / math.sqrt(7), abs=1e-12)
        assert np.abs(sample.y.blocks - y.blocks - sample.noise.blocks).max() <= 1e-12


def test_add_noise_respects_scale():
    # the noise sits on the ball of the 1 / sqrt(m) scale: eta * sqrt(m) / sqrt(m)
    rng = np.random.default_rng(28)
    y = BlockVector(rng.standard_normal((9, 2)))
    sample = add_noise(y, 0.06, seed=5)
    assert float(np.linalg.norm(sample.noise.blocks)) == pytest.approx(0.06, abs=1e-12)


@pytest.mark.parametrize("eta", [-0.1, math.nan, math.inf])
def test_add_noise_rejects_bad_level(eta):
    with pytest.raises(ValueError):
        add_noise(BlockVector(np.ones((3, 2))), eta, seed=1)
