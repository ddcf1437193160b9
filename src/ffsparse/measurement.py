"""Random block measurement operators and the noise model.

An ensemble holds a scalar m x N matrix A (Bernoulli +-1 or standard
Gaussian) together with a fusion frame.  Two block operators share this
matrix: the projected one, whose (i, j) block is a_ij P_j, and the plain
blockwise one with blocks a_ij I_d.  They agree on signals whose blocks lie
in their subspaces, which is why the projected operator can stand in for the
plain one throughout; over the identity frame (every U_j = I_d) the two are
the same operator.  Every operator is the rescaled one, A / sqrt(m), the
scale in which the recovery, conditioning and golfing statements are made;
``scale`` is that 1 / sqrt(m).  The dense coefficient operator is built on
first use, already in this scale, and every later call returns that same
read-only array.

The coefficient operator is M = scale (A kron I_d) blockdiag(U_j), so its
Gram M^T M has k x k block (i, j) equal to scale^2 (A^T A)_ij U_i^T U_j: an
N x N product times the frame's cross-Gram, never a product with the
(m*d)-row dense matrix.  ``gram`` holds it, built once like the dense
operators, and ``coefficient_adjoint`` gives the matching right-hand side
M^T h, block j = U_j^T (scale A^T H)_j.

Every entry of M is one product, a_ij (U_j)_dk then times scale, and every
entry of the Gram is one product, scale^2 (A^T A)_ij times (U_i^T U_j)_kk',
so the order of assembly changes no bit; M holds -0.0 where a negative a_ij
meets a basis entry that is exactly zero.

Noise lives on the same scale: ``add_noise`` puts it exactly on the boundary
of the ball of radius ``noise_radius(eta, m)`` that ``solve_l1_noisy``
constrains the residual to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockVector
from .frames import FusionFrame

__all__ = ["MeasurementEnsemble", "NoisySample", "draw_matrix", "add_noise", "noise_radius"]

_KINDS = ("bernoulli", "gaussian")


class MeasurementEnsemble:
    """Scalar measurement matrix plus the block operators it induces, all in
    the scale 1 / sqrt(m)."""

    __slots__ = ("_matrix", "_kind", "_frame", "_seed", "_coeff_cache", "_gram_cache")

    def __init__(self, matrix, kind: str, frame: Optional[FusionFrame] = None,
                 seed: Optional[int] = None):
        arr = np.array(matrix, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be (m, N) with m, N >= 1, got {arr.shape}")
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        if kind == "bernoulli" and not np.isin(arr, (-1.0, 1.0)).all():
            raise ValueError("bernoulli entries must be +-1")
        if frame is not None and frame.n_subspaces != arr.shape[1]:
            raise ValueError("frame subspace count must match matrix columns")
        arr.setflags(write=False)
        self._matrix = arr
        self._kind = kind
        self._frame = frame
        self._seed = seed
        self._coeff_cache: Optional[np.ndarray] = None
        self._gram_cache: Optional[np.ndarray] = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def frame(self) -> FusionFrame:
        if self._frame is None:
            raise ValueError("no frame attached to this ensemble")
        return self._frame

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    @property
    def m(self) -> int:
        return self._matrix.shape[0]

    @property
    def n(self) -> int:
        return self._matrix.shape[1]

    @property
    def scale(self) -> float:
        """1 / sqrt(m), the factor every operator applies to A."""
        return 1.0 / math.sqrt(self.m)

    def check_measurements(self, y: BlockVector) -> None:
        """Raise ValueError unless y is m finite blocks of length d: the one
        check on measurement-domain input, for the adjoints and the solvers."""
        d = self.frame.dim_ambient
        if y.n_blocks != self.m or y.block_len != d:
            raise ValueError(
                f"measurements of shape ({y.n_blocks}, {y.block_len}) do not match "
                f"ensemble (m={self.m}, d={d})"
            )
        if not np.isfinite(y.blocks).all():
            raise ValueError("measurements must be finite")

    def _check_signal(self, x: BlockVector) -> None:
        """Raise ValueError unless x has N blocks of length d."""
        if x.n_blocks != self.n or x.block_len != self.frame.dim_ambient:
            raise ValueError(
                f"signal shape ({x.n_blocks}, {x.block_len}) does not match "
                f"ensemble (N={self.n}, d={self.frame.dim_ambient})"
            )

    def measure(self, x: BlockVector) -> BlockVector:
        """Projected block operator: output block i = scale * sum_j a_ij P_j x_j."""
        self._check_signal(x)
        projected = self.frame.project_blocks(x.blocks)
        return BlockVector(self.scale * (self._matrix @ projected))

    def measure_blockwise(self, x: BlockVector) -> BlockVector:
        """Plain block operator: output block i = scale * sum_j a_ij x_j."""
        self._check_signal(x)
        return BlockVector(self.scale * (self._matrix @ x.blocks))

    def _mix_adjoint(self, h: BlockVector) -> np.ndarray:
        """Rows scale * sum_i a_ij h_i, j = 1..N, of the adjoints below."""
        self.check_measurements(h)
        return self.scale * (self._matrix.T @ h.blocks)

    def adjoint(self, h: BlockVector) -> BlockVector:
        """Adjoint of ``measure``: output block j = scale * P_j sum_i a_ij h_i."""
        return BlockVector(self.frame.project_blocks(self._mix_adjoint(h)))

    def coefficient_adjoint(self, h: BlockVector) -> np.ndarray:
        """M^T h for M = ``coefficient_matrix``, flat: block j is
        U_j^T (scale * sum_i a_ij h_i)."""
        mixed = BlockVector(self._mix_adjoint(h))
        return self.frame.coefficients(mixed).blocks.ravel()

    def coefficient_matrix(self) -> np.ndarray:
        """Dense (m*d, N*k) matrix of the projected operator in subspace
        coordinates: column block j is (scale * a_ij U_j) stacked over i.

        Applying it to coefficients c equals measuring the expanded signal;
        the subspace-membership constraint becomes unconstrained coefficients.
        Built once, in the ensemble's scale, as a_ij (U_j)_dk times scale with
        the N*k axis innermost; every call returns the same read-only,
        C-contiguous array.
        """
        if self._coeff_cache is None:
            frame = self.frame
            m, n = self._matrix.shape
            d, k = frame.dim_ambient, frame.dim_subspace
            # side[r, j*k + c] = (U_j)_rc, copied so that the N*k axis is
            # contiguous (at k = 1 the reshaped transpose is a strided view)
            side = np.ascontiguousarray(frame.bases.transpose(1, 0, 2)).reshape(d, n * k)
            mat = np.repeat(self._matrix, k, axis=1)[:, None, :] * side
            mat *= self.scale
            mat = mat.reshape(m * d, n * k)
            mat.setflags(write=False)
            self._coeff_cache = mat
        return self._coeff_cache

    def gram(self) -> np.ndarray:
        """The (N*k, N*k) Gram M^T M of ``coefficient_matrix``, assembled from
        A^T A and the frame's cross-Gram.  Built once and shared read-only,
        like ``coefficient_matrix``."""
        if self._gram_cache is None:
            frame = self.frame
            n, k = self.n, frame.dim_subspace
            outer = self.scale**2 * (self._matrix.T @ self._matrix)
            cross = frame.cross_gram().reshape(n, k, n, k)
            gram = (outer[:, None, :, None] * cross).reshape(n * k, n * k)
            gram.setflags(write=False)
            self._gram_cache = gram
        return self._gram_cache

    def blockwise_matrix(self) -> np.ndarray:
        """Dense (m*d, N*d) matrix of the plain block operator, blocks
        scale * a_ij I_d: ``coefficient_matrix`` over the identity frame,
        kept as the reference form of ``measure_blockwise``."""
        return self.scale * np.kron(self._matrix, np.eye(self.frame.dim_ambient))

    def __repr__(self) -> str:
        return (
            f"MeasurementEnsemble(kind={self._kind!r}, m={self.m}, N={self.n}, "
            f"seed={self._seed})"
        )


def draw_matrix(kind: str, m: int, n: int, seed: int,
                frame: Optional[FusionFrame] = None) -> MeasurementEnsemble:
    """Draw an i.i.d. measurement matrix, reproducible from the seed.

    ``bernoulli`` entries are +-1 with equal probability; ``gaussian``
    entries are standard normal.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and N >= 1")
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "bernoulli":
        arr = rng.integers(0, 2, size=(m, n)).astype(float) * 2.0 - 1.0
    else:
        arr = rng.standard_normal((m, n))
    return MeasurementEnsemble(arr, kind, frame, seed)


@dataclass(frozen=True)
class NoisySample:
    """Measurements perturbed by noise sitting exactly on the feasible-ball
    boundary of the noisy recovery program."""

    y: BlockVector
    noise: BlockVector
    eta: float
    seed: int


def noise_radius(eta: float, m: int) -> float:
    """Radius of the noise ball on m measurement blocks: eta * sqrt(m) in
    the units of A, times the operators' scale 1 / sqrt(m).  ``add_noise``
    draws on its boundary and ``solve_l1_noisy`` bounds the residual by it.

    eta must be nonnegative, so NaN is rejected; eta = inf gives a ball in
    which zero is the optimal signal.
    """
    if not eta >= 0:
        raise ValueError("eta must be nonnegative")
    return eta * math.sqrt(m) * (1.0 / math.sqrt(m))


def add_noise(y: BlockVector, eta: float, seed: int) -> NoisySample:
    """Perturb measurements with a Gaussian-direction noise vector rescaled
    to norm ``noise_radius(eta, m)`` exactly (the worst feasible case).
    """
    m = y.n_blocks
    radius = noise_radius(eta, m)
    if radius == math.inf:
        raise ValueError("eta must be finite")
    if eta == 0.0:
        zero = BlockVector.zeros(m, y.block_len)
        return NoisySample(y=y, noise=zero, eta=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    while True:
        e = rng.standard_normal((m, y.block_len))
        norm = np.linalg.norm(e)
        if norm > 0:  # zero draw has probability zero
            break
    e *= radius / norm
    noise = BlockVector(e)
    return NoisySample(y=y + noise, noise=noise, eta=float(eta), seed=seed)
