"""Random block measurement operators and the noise model.

An ensemble holds a scalar m x N matrix A (Bernoulli +-1 or standard
Gaussian) together with a fusion frame.  Two block operators share this
matrix: the projected one, whose (i, j) block is a_ij P_j, and the plain
blockwise one with blocks a_ij I_d.  They agree on signals whose blocks lie
in their subspaces, which is why the projected operator can stand in for the
plain one throughout.  A ``normalized`` flag selects the rescaled operator
A / sqrt(m) used by all conditioning statements; there is a single stored
matrix either way.  The dense block operators are built on first use,
already in the ensemble's scale, and every later call returns that same
read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockVector
from .frames import FusionFrame

__all__ = ["MeasurementEnsemble", "NoisySample", "draw_matrix", "add_noise"]

_KINDS = ("bernoulli", "gaussian")


class MeasurementEnsemble:
    """Scalar measurement matrix plus the block operators it induces."""

    __slots__ = ("_matrix", "_kind", "_frame", "_normalized", "_seed", "_coeff_cache", "_plain_cache")

    def __init__(self, matrix, kind: str, frame: Optional[FusionFrame] = None,
                 normalized: bool = False, seed: Optional[int] = None):
        arr = np.asarray(matrix, dtype=float)
        if arr.flags.writeable:  # share already-frozen arrays (renormalized copies)
            arr = np.array(arr, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be (m, N) with m, N >= 1, got {arr.shape}")
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if kind == "bernoulli" and not np.isin(arr, (-1.0, 1.0)).all():
            raise ValueError("bernoulli entries must be +-1")
        if frame is not None and frame.n_subspaces != arr.shape[1]:
            raise ValueError("frame subspace count must match matrix columns")
        arr.setflags(write=False)
        self._matrix = arr
        self._kind = kind
        self._frame = frame
        self._normalized = bool(normalized)
        self._seed = seed
        self._coeff_cache: Optional[np.ndarray] = None
        self._plain_cache: Optional[np.ndarray] = None

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
    def normalized(self) -> bool:
        return self._normalized

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
        """1/sqrt(m) when normalized, else 1."""
        return 1.0 / math.sqrt(self.m) if self._normalized else 1.0

    def with_normalization(self, normalized: bool = True) -> "MeasurementEnsemble":
        """Same matrix and frame under the other scaling convention."""
        if normalized == self._normalized:
            return self
        return MeasurementEnsemble(self._matrix, self._kind, self._frame, normalized, self._seed)

    def measure(self, x: BlockVector) -> BlockVector:
        """Projected block operator: output block i = scale * sum_j a_ij P_j x_j."""
        frame = self.frame
        if x.n_blocks != self.n or x.block_len != frame.dim_ambient:
            raise ValueError(
                f"signal shape ({x.n_blocks}, {x.block_len}) does not match "
                f"ensemble (N={self.n}, d={frame.dim_ambient})"
            )
        projected = frame.project_blocks(x.blocks)
        return BlockVector(self.scale * (self._matrix @ projected), "ambient")

    def measure_blockwise(self, x: BlockVector) -> BlockVector:
        """Plain block operator: output block i = scale * sum_j a_ij x_j."""
        if x.n_blocks != self.n:
            raise ValueError(f"signal has {x.n_blocks} blocks, ensemble expects {self.n}")
        return BlockVector(self.scale * (self._matrix @ x.blocks), "ambient")

    def adjoint(self, h: BlockVector) -> BlockVector:
        """Adjoint of ``measure``: output block j = scale * P_j sum_i a_ij h_i."""
        frame = self.frame
        if h.n_blocks != self.m or h.block_len != frame.dim_ambient:
            raise ValueError(
                f"input shape ({h.n_blocks}, {h.block_len}) does not match "
                f"ensemble (m={self.m}, d={frame.dim_ambient})"
            )
        mixed = self.scale * (self._matrix.T @ h.blocks)
        return BlockVector(frame.project_blocks(mixed), "ambient")

    def coefficient_matrix(self) -> np.ndarray:
        """Dense (m*d, N*k) matrix of the projected operator in subspace
        coordinates: column block j is (scale * a_ij U_j) stacked over i.

        Applying it to coefficients c equals measuring the expanded signal;
        the subspace-membership constraint becomes unconstrained coefficients.
        Built once, in the ensemble's scale; every call returns the same
        read-only array.
        """
        if self._coeff_cache is None:
            frame = self.frame
            m, n = self._matrix.shape
            d, k = frame.dim_ambient, frame.dim_subspace
            mat = np.einsum("ij,jdk->idjk", self._matrix, frame.bases).reshape(m * d, n * k)
            mat = self.scale * mat
            mat.setflags(write=False)
            self._coeff_cache = mat
        return self._coeff_cache

    def blockwise_matrix(self) -> np.ndarray:
        """Dense (m*d, N*d) matrix of the plain block operator, blocks
        scale * a_ij I_d.  Built once and shared read-only, like
        ``coefficient_matrix``."""
        if self._plain_cache is None:
            d = self.frame.dim_ambient
            mat = self.scale * np.kron(self._matrix, np.eye(d))
            mat.setflags(write=False)
            self._plain_cache = mat
        return self._plain_cache

    def __repr__(self) -> str:
        return (
            f"MeasurementEnsemble(kind={self._kind!r}, m={self.m}, N={self.n}, "
            f"normalized={self._normalized}, seed={self._seed})"
        )


def draw_matrix(kind: str, m: int, n: int, seed: int, frame: Optional[FusionFrame] = None,
                normalized: bool = False) -> MeasurementEnsemble:
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
    return MeasurementEnsemble(arr, kind, frame, normalized, seed)


@dataclass(frozen=True)
class NoisySample:
    """Measurements perturbed by noise sitting exactly on the feasible-ball
    boundary of the noisy recovery program."""

    y: BlockVector
    noise: BlockVector
    eta: float
    seed: int


def add_noise(y: BlockVector, eta: float, seed: int, scale: float = 1.0) -> NoisySample:
    """Perturb measurements with a Gaussian-direction noise vector rescaled
    to norm eta * sqrt(m) * scale exactly (the worst feasible case).

    ``scale`` must match the scaling convention of the measurements: pass
    the ensemble's ``scale`` so that eta means the same thing the recovery
    program assumes.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    m = y.n_blocks
    if eta == 0.0:
        zero = BlockVector.zeros(m, y.block_len, y.form)
        return NoisySample(y=y, noise=zero, eta=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    while True:
        e = rng.standard_normal((m, y.block_len))
        norm = np.linalg.norm(e)
        if norm > 0:  # zero draw has probability zero
            break
    e *= eta * math.sqrt(m) * scale / norm
    noise = BlockVector(e, y.form)
    return NoisySample(y=y + noise, noise=noise, eta=float(eta), seed=seed)
