"""Block vectors, block supports, and the mixed norms used throughout.

A block vector is a signal made of N equally sized vector blocks.  Sparsity
is counted in blocks: a vector is s-sparse when at most s blocks are nonzero.
The convex surrogate for that count is the mixed (2,1)-norm, the sum of the
per-block Euclidean norms.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "BlockVector",
    "BlockSupport",
    "norm_l21",
    "norm_l2inf",
    "norm_l0_block",
    "block_sgn",
    "best_s_term_error",
    "restrict",
]


class BlockVector:
    """Immutable stack of equal-length vector blocks.

    Blocks are stored as an ``(n_blocks, block_len)`` array.  The same class
    holds ambient blocks (length d) and subspace coefficients (length k);
    which one a vector is follows from where it came from, and every
    consumer checks the block length it needs.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks):
        arr = np.array(blocks, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"blocks must be 2-d (n_blocks, block_len), got shape {arr.shape}")
        if arr.shape[0] > 0 and arr.shape[1] < 1:
            raise ValueError("block length must be >= 1")
        arr.setflags(write=False)
        self._blocks = arr

    @classmethod
    def zeros(cls, n_blocks: int, block_len: int) -> "BlockVector":
        return cls(np.zeros((n_blocks, block_len)))

    @property
    def blocks(self) -> np.ndarray:
        return self._blocks

    @property
    def n_blocks(self) -> int:
        return self._blocks.shape[0]

    @property
    def block_len(self) -> int:
        return self._blocks.shape[1]

    def block(self, j: int) -> np.ndarray:
        return self._blocks[j]

    def block_norms(self) -> np.ndarray:
        """Per-block Euclidean norms, shape (n_blocks,)."""
        return np.linalg.norm(self._blocks, axis=1)

    def to_flat(self) -> np.ndarray:
        return self._blocks.ravel().copy()

    def __add__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self._blocks + other._blocks)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self._blocks - other._blocks)

    def __mul__(self, scalar: float) -> "BlockVector":
        return BlockVector(self._blocks * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"BlockVector(n_blocks={self.n_blocks}, block_len={self.block_len})"


class BlockSupport:
    """A sorted set of block indices S subset of {0, ..., N-1}."""

    __slots__ = ("_indices",)

    def __init__(self, indices: Iterable[int]):
        idx = np.asarray(sorted(int(i) for i in indices), dtype=int)
        if idx.size and (np.diff(idx) <= 0).any():
            raise ValueError("support indices must be distinct")
        if idx.size and idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        idx.setflags(write=False)
        self._indices = idx

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def size(self) -> int:
        return int(self._indices.size)

    def complement(self, n: int) -> np.ndarray:
        """Indices of {0..n-1} not in the support."""
        mask = np.ones(n, dtype=bool)
        mask[self._indices] = False
        return np.nonzero(mask)[0]

    def validate_for(self, x: BlockVector) -> None:
        if self.size and int(self._indices[-1]) >= x.n_blocks:
            raise IndexError(
                f"support index {int(self._indices[-1])} out of range for {x.n_blocks} blocks"
            )

    def __contains__(self, i: int) -> bool:
        return bool(np.isin(i, self._indices))

    def __iter__(self):
        return iter(self._indices.tolist())

    def __repr__(self) -> str:
        return f"BlockSupport({self._indices.tolist()})"


def norm_l21(x: BlockVector) -> float:
    """Mixed (2,1)-norm: sum over blocks of per-block Euclidean norms."""
    return float(x.block_norms().sum())


def norm_l2inf(x: BlockVector) -> float:
    """Largest per-block Euclidean norm."""
    if x.n_blocks == 0:
        return 0.0
    return float(x.block_norms().max())


def norm_l0_block(x: BlockVector, tol: float = 0.0) -> int:
    """Number of blocks with Euclidean norm strictly above ``tol``.

    ``tol`` exists because iterative solvers return near-zero blocks; pass 0
    for the exact count.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return int((x.block_norms() > tol).sum())


def block_sgn(x: BlockVector) -> BlockVector:
    """Blockwise sign map: x_j / ||x_j||_2 for nonzero blocks, else zero.

    Every output block has Euclidean norm exactly 0 or (numerically) 1.
    Zero blocks are detected by exact comparison, matching the definition.
    """
    norms = x.block_norms()
    scale = np.where(norms == 0.0, 0.0, 1.0 / np.where(norms == 0.0, 1.0, norms))
    return BlockVector(x.blocks * scale[:, None])


def best_s_term_error(x: BlockVector, s: int) -> float:
    """Residual (2,1)-norm after zeroing the s largest-norm blocks.

    Equals the distance of x to the set of s-block-sparse vectors in the
    (2,1)-norm.  Ties in block norms are broken toward the lower index, so
    the result is deterministic (the value itself is tie-independent).
    """
    n = x.n_blocks
    if not 0 <= s <= n:
        raise ValueError(f"s must lie in [0, {n}], got {s}")
    norms = x.block_norms()
    # stable argsort on -norms keeps lower indices first among ties
    order = np.argsort(-norms, kind="stable")
    return float(norms[order[s:]].sum())


def restrict(x: BlockVector, support: BlockSupport) -> BlockVector:
    """The |S|-block vector of the selected blocks, in index order."""
    support.validate_for(x)
    return BlockVector(x.blocks[support.indices])
