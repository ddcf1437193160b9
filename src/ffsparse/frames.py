"""Fusion frames: subspace collections, projectors, and incoherence data.

A fusion frame here is N subspaces of R^d, each of dimension k, stored via
orthonormal bases.  The incoherence matrix collects the pairwise spectral
norms of projector products, which equal the largest cosines of principal
angles between the subspaces; its restricted row sums drive every sample
complexity bound in this package.  The cross-Gram holds the products
U_i^T U_j themselves; the measurement layer builds the Gram of its
coefficient operator from it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .blocks import BlockSupport, BlockVector

__all__ = [
    "FusionFrame",
    "IncoherenceMatrix",
    "RestrictedNorms",
    "random_frame",
    "orthogonal_frame",
    "frame_bounds",
    "incoherence",
    "lambda_max",
    "restricted_norms",
    "lambda_eff",
    "frame_to_json",
    "frame_from_json",
    "save_frame",
    "load_frame",
]

_ORTHO_TOL = 1e-10


class FusionFrame:
    """N subspaces of R^d with orthonormal bases U_j of shape (d, k).

    Projectors are P_j = U_j U_j^T.  ``weights`` are positive per-subspace
    weights (default 1); they enter only the frame-bound diagnostics.
    """

    __slots__ = ("_bases", "_weights", "_seed", "_incoherence_cache", "_cross_gram_cache",
                 "_coherence_columns")

    def __init__(self, bases, weights: Optional[Sequence[float]] = None, seed: Optional[int] = None):
        arr = np.array(bases, dtype=float, copy=True)
        if arr.ndim != 3:
            raise ValueError(f"bases must have shape (N, d, k), got {arr.shape}")
        n, d, k = arr.shape
        if n < 1 or not 1 <= k <= d:
            raise ValueError(f"need N >= 1 and 1 <= k <= d, got N={n}, d={d}, k={k}")
        deviation = np.abs(arr.transpose(0, 2, 1) @ arr - np.eye(k)).max(axis=(1, 2))
        bad = np.flatnonzero(~(deviation <= _ORTHO_TOL))  # NaN fails
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"basis {j} is not orthonormal (deviation {deviation[j]:.2e})")
        if weights is None:
            w = np.ones(n)
        else:
            w = np.array(weights, dtype=float, copy=True)
            if w.shape != (n,) or not ((w > 0) & np.isfinite(w)).all():
                raise ValueError("weights must be N positive reals")
        arr.setflags(write=False)
        w.setflags(write=False)
        self._bases = arr
        self._weights = w
        self._seed = seed
        self._incoherence_cache: Optional["IncoherenceMatrix"] = None
        self._cross_gram_cache: Optional[np.ndarray] = None
        self._coherence_columns: dict[int, np.ndarray] = {}

    @property
    def n_subspaces(self) -> int:
        return self._bases.shape[0]

    @property
    def dim_ambient(self) -> int:
        return self._bases.shape[1]

    @property
    def dim_subspace(self) -> int:
        return self._bases.shape[2]

    @property
    def bases(self) -> np.ndarray:
        return self._bases

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    def basis(self, j: int) -> np.ndarray:
        return self._bases[j]

    def projector(self, j: int) -> np.ndarray:
        u = self._bases[j]
        return u @ u.T

    def project_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Apply P_j to row j of an (N, d) array."""
        coeff = np.einsum("jdk,jd->jk", self._bases, blocks)
        return np.einsum("jdk,jk->jd", self._bases, coeff)

    def cross_gram(self) -> np.ndarray:
        """The (N*k, N*k) matrix with k x k block (i, j) equal to U_i^T U_j:
        the Gram of all basis vectors side by side.  Built once, kept
        read-only, and pickled with the frame."""
        if self._cross_gram_cache is None:
            n, d, k = self._bases.shape
            side = self._bases.transpose(1, 0, 2).reshape(d, n * k)
            gram = side.T @ side
            gram.setflags(write=False)
            self._cross_gram_cache = gram
        return self._cross_gram_cache

    def expand(self, c: BlockVector) -> BlockVector:
        """Map coefficient blocks c_j to ambient blocks U_j c_j."""
        if c.n_blocks != self.n_subspaces or c.block_len != self.dim_subspace:
            raise ValueError("coefficient vector does not match frame shape")
        amb = np.einsum("jdk,jk->jd", self._bases, c.blocks)
        return BlockVector(amb)

    def coefficients(self, x: BlockVector) -> BlockVector:
        """Map ambient blocks to subspace coefficients U_j^T x_j."""
        if x.n_blocks != self.n_subspaces or x.block_len != self.dim_ambient:
            raise ValueError("ambient vector does not match frame shape")
        coeff = np.einsum("jdk,jd->jk", self._bases, x.blocks)
        return BlockVector(coeff)

    def __repr__(self) -> str:
        return (
            f"FusionFrame(N={self.n_subspaces}, d={self.dim_ambient}, "
            f"k={self.dim_subspace}, seed={self._seed})"
        )


class IncoherenceMatrix:
    """Symmetric N x N matrix of pairwise subspace coherences, zero diagonal.

    Entry (i, j) is the spectral norm of P_i P_j, i.e. the largest cosine of
    the principal angles between subspaces i and j; all entries lie in [0, 1].
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.abs(arr - arr.T).max() > 1e-12:
            raise ValueError("entries must be symmetric")
        if np.abs(np.diag(arr)).max() > 1e-12:
            raise ValueError("diagonal must be zero")
        if arr.min() < -1e-12 or arr.max() > 1 + 1e-12:
            raise ValueError("entries must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        np.fill_diagonal(arr, 0.0)
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"IncoherenceMatrix(n={self.n}, max={self._entries.max():.4f})"


class RestrictedNorms(NamedTuple):
    """Support-restricted norms of the incoherence matrix.

    row_sum       max over all rows of the sum over support columns
    row_sum_sub   same, rows restricted to the support
    row_rms       max over all rows of the root-sum-square over support columns
    row_rms_sub   same, rows restricted to the support
    spectral_sub  spectral norm of the support principal submatrix
    """

    row_sum: float
    row_sum_sub: float
    row_rms: float
    row_rms_sub: float
    spectral_sub: float


def random_frame(n_subspaces: int, dim_ambient: int, dim_subspace: int, seed: int) -> FusionFrame:
    """Draw a random fusion frame: per subspace, k standard Gaussian vectors
    in R^d orthonormalized by QR.  Deterministic given the seed.

    All N draws are factored by one stacked Householder QR, whose Q is
    orthonormal even for a rank-deficient draw (a probability-zero event).
    Each Q is sign-fixed (columns flipped where the diagonal of R is
    negative) so the bases are reproducible across platforms; they equal a
    subspace-by-subspace loop's whenever no diagonal of R is exactly zero.
    """
    if not 1 <= dim_subspace <= dim_ambient:
        raise ValueError(f"need 1 <= k <= d, got k={dim_subspace}, d={dim_ambient}")
    if n_subspaces < 1:
        raise ValueError("need at least one subspace")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_subspaces, dim_subspace, dim_ambient)).transpose(0, 2, 1)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return FusionFrame(q * np.where(diag < 0, -1.0, 1.0)[:, None, :], seed=seed)


def orthogonal_frame(n_subspaces: int, dim_subspace: int = 1) -> FusionFrame:
    """Mutually orthogonal subspaces from standard basis vectors.

    Requires d = N * k; incoherence is exactly zero.
    """
    d = n_subspaces * dim_subspace
    eye = np.eye(d)
    bases = np.stack(
        [eye[:, j * dim_subspace : (j + 1) * dim_subspace] for j in range(n_subspaces)]
    )
    return FusionFrame(bases)


def frame_bounds(frame: FusionFrame) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the weighted frame operator
    sum_j v_j^2 P_j.  The frame property holds iff the lower bound is > 0."""
    d = frame.dim_ambient
    op = np.zeros((d, d))
    for j in range(frame.n_subspaces):
        u = frame.basis(j)
        op += frame.weights[j] ** 2 * (u @ u.T)
    ev = np.linalg.eigvalsh(op)
    return float(max(ev[0], 0.0)), float(ev[-1])


def incoherence(frame: FusionFrame) -> IncoherenceMatrix:
    """Pairwise coherences ||P_i P_j|| computed from the k x k products
    U_i^T U_j (equivalent because the bases are orthonormal).  Cached.

    Row i takes the products with all later bases in one batched matmul and
    their largest singular values in one batched SVD, so temporaries stay
    O(N k^2) per row."""
    if frame._incoherence_cache is not None:
        return frame._incoherence_cache
    n = frame.n_subspaces
    bases = frame.bases
    entries = np.zeros((n, n))
    for i in range(n - 1):
        products = np.matmul(bases[i].T, bases[i + 1:])
        top = np.minimum(np.linalg.svd(products, compute_uv=False)[:, 0], 1.0)
        entries[i, i + 1:] = entries[i + 1:, i] = top
    result = IncoherenceMatrix(entries)
    frame._incoherence_cache = result
    return result


def _coherence_column(frame: FusionFrame, j: int) -> np.ndarray:
    """Column j of ``incoherence(frame)`` with the same bits: entry (i, j)
    comes from the lower index's basis transposed times the higher's, as in
    the full matrix, through one batched matmul per side and one batched
    SVD."""
    bases = frame.bases
    products = np.concatenate((np.matmul(bases[:j].transpose(0, 2, 1), bases[j]),
                               np.matmul(bases[j].T, bases[j + 1:])))
    top = np.minimum(np.linalg.svd(products, compute_uv=False)[:, 0], 1.0)
    column = np.zeros(top.size + 1)
    column[:j], column[j + 1:] = top[:j], top[j:]
    return column


def lambda_max(incoh: IncoherenceMatrix) -> float:
    """Largest entry of the incoherence matrix."""
    return float(incoh.entries.max())


def _support_indices(support: BlockSupport, n: int) -> np.ndarray:
    """The support's indices, checked to be nonempty and below n."""
    if support.size == 0:
        raise ValueError("support must be nonempty")
    idx = support.indices
    if int(idx[-1]) >= n:
        raise IndexError("support index out of range")
    return idx


def restricted_norms(incoh: IncoherenceMatrix, support: BlockSupport) -> RestrictedNorms:
    """All support-restricted norms of the incoherence matrix.

    The diagonal is zero, so plain row sums over the support columns already
    exclude the self term.
    """
    idx = _support_indices(support, incoh.n)
    cols = incoh.entries[:, idx]
    row_sums = cols.sum(axis=1)
    row_rms = np.sqrt((cols**2).sum(axis=1))
    sub = incoh.entries[np.ix_(idx, idx)]
    ev = np.linalg.eigvalsh(sub)
    spectral = max(abs(float(ev[0])), abs(float(ev[-1])))
    return RestrictedNorms(
        row_sum=float(row_sums.max()),
        row_sum_sub=float(row_sums[idx].max()),
        row_rms=float(row_rms.max()),
        row_rms_sub=float(row_rms[idx].max()),
        spectral_sub=spectral,
    )


def lambda_eff(source: IncoherenceMatrix | FusionFrame, support: BlockSupport) -> float:
    """Normalized incoherence of a support: max row sum over S divided by |S|.

    ``source`` is an IncoherenceMatrix or a FusionFrame.  From a frame, only
    the support's columns of its incoherence matrix are computed (and cached
    on the frame), and they are summed column by column, the order of the
    row sums over a full matrix, so both give the same bits."""
    if isinstance(source, FusionFrame):
        idx = _support_indices(support, source.n_subspaces).tolist()
        columns = source._coherence_columns
        for j in idx:
            if j not in columns:
                columns[j] = _coherence_column(source, j)
        row_sums = np.stack([columns[j] for j in idx]).sum(axis=0)
    else:
        row_sums = source.entries[:, _support_indices(support, source.n)].sum(axis=1)
    return float(row_sums.max()) / support.size


def frame_to_json(frame: FusionFrame) -> str:
    """Serialize to JSON: {N, d, k, seed, weights, bases row-major}.

    Floats are written as shortest round-trip decimals, so the round trip is
    lossless.
    """
    doc = {
        "N": frame.n_subspaces,
        "d": frame.dim_ambient,
        "k": frame.dim_subspace,
        "seed": frame.seed,
        "weights": frame.weights.tolist(),
        "bases": [frame.basis(j).ravel().tolist() for j in range(frame.n_subspaces)],
    }
    return json.dumps(doc)


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _json_floats(value, name: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{name} must hold numbers ({exc})") from exc


def frame_from_json(text: str) -> FusionFrame:
    """Parse ``frame_to_json`` output.  A malformed document raises
    ValueError naming the field (KeyError for a missing one)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a frame document must be a JSON object")
    n, d, k = (_json_int(doc, key) for key in ("N", "d", "k"))
    if not isinstance(doc["bases"], list):
        raise ValueError("bases must be a list")
    bases = np.array([_json_floats(b, "bases").reshape(d, k) for b in doc["bases"]])
    if bases.shape[0] != n:
        raise ValueError("basis count does not match N")
    weights = doc.get("weights")
    weights = None if weights is None else _json_floats(weights, "weights")
    return FusionFrame(bases, weights=weights, seed=doc.get("seed"))


def save_frame(frame: FusionFrame, path) -> None:
    Path(path).write_text(frame_to_json(frame), encoding="utf-8")


def load_frame(path) -> FusionFrame:
    return frame_from_json(Path(path).read_text(encoding="utf-8"))
