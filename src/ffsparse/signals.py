"""Seeded signal generators used by the experiments and tests."""

from __future__ import annotations

import numpy as np

from .blocks import BlockSupport, BlockVector, norm_l21
from .frames import FusionFrame

__all__ = [
    "random_support",
    "sparse_signal",
    "compressible_signal",
    "power_law_signal",
]


def random_support(n_subspaces: int, s: int, rng: np.random.Generator) -> BlockSupport:
    """Support of size s drawn uniformly at random."""
    if not 0 <= s <= n_subspaces:
        raise ValueError(f"s must lie in [0, {n_subspaces}]")
    return BlockSupport(rng.choice(n_subspaces, size=s, replace=False))


def _gaussian_on_support(frame: FusionFrame, support: BlockSupport,
                         rng: np.random.Generator) -> np.ndarray:
    """Coefficient array (N, k) with standard Gaussian entries on the support."""
    coeff = np.zeros((frame.n_subspaces, frame.dim_subspace))
    if support.size:
        while True:
            draw = rng.standard_normal((support.size, frame.dim_subspace))
            if np.linalg.norm(draw) > 0:
                break
        coeff[support.indices] = draw
    return coeff


def sparse_signal(frame: FusionFrame, support: BlockSupport,
                  rng: np.random.Generator) -> BlockVector:
    """Exact block-sparse signal: a Gaussian vector in each supported
    subspace, normalized to unit Euclidean norm (zero when the support is
    empty)."""
    coeff = _gaussian_on_support(frame, support, rng)
    norm = np.linalg.norm(coeff)
    if norm > 0:
        coeff /= norm
    return frame.expand(BlockVector(coeff))


def compressible_signal(frame: FusionFrame, support: BlockSupport, theta: float,
                        rng: np.random.Generator) -> BlockVector:
    """Compressible signal: on-support and off-support parts each normalized
    to unit (2,1)-norm, combined as x_S + theta * z_off."""
    if not 0 <= theta < np.inf:  # NaN fails
        raise ValueError("theta must be a finite nonnegative number")
    head_coeff = _gaussian_on_support(frame, support, rng)
    head = frame.expand(BlockVector(head_coeff))
    head_norm = norm_l21(head)
    if head_norm > 0:
        head = head * (1.0 / head_norm)
    off = BlockSupport(support.complement(frame.n_subspaces))
    if off.size == 0 or theta == 0.0:
        return head
    tail_coeff = _gaussian_on_support(frame, off, rng)
    tail = frame.expand(BlockVector(tail_coeff))
    tail_norm = norm_l21(tail)
    if tail_norm > 0:
        tail = tail * (1.0 / tail_norm)
    return head + theta * tail


def power_law_signal(frame: FusionFrame, q: float, rng: np.random.Generator) -> BlockVector:
    """Signal whose sorted block norms decay as c * j^(-1/q), scaled so the
    whole vector has unit Euclidean norm; block directions are uniform in
    their subspaces."""
    if not q > 0:  # NaN fails
        raise ValueError("q must be positive")
    n, k = frame.n_subspaces, frame.dim_subspace
    profile = np.arange(1, n + 1, dtype=float) ** (-1.0 / q)
    profile /= np.linalg.norm(profile)
    while True:
        coeff = rng.standard_normal((n, k))
        row_norms = np.linalg.norm(coeff, axis=1)
        if (row_norms > 0).all():
            break
    coeff = coeff / row_norms[:, None] * profile[:, None]
    return frame.expand(BlockVector(coeff))
