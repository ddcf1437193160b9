"""Dual-certificate recovery conditions and the golfing construction.

Recovery of a fixed block-sparse signal is certified by four measured
quantities: the restricted Gram on the signal space must be well conditioned
(inverse norm at most 2), every off-support cross-Gram column norm at most 1,
and an approximate dual vector u in the row space of the measurement
operator must match the block sign pattern on the support to within 1/4 in
Euclidean norm while staying below 1/4 blockwise off the support.  When all
four hold, the signal is the unique minimizer of the equality-constrained
program.

The dual vector is built by the golfing iteration: the measurement rows are
partitioned into disjoint groups, and each group pulls the on-support
residual toward zero,

    u(n) = (1/m_n) A(n)* A(n)_S (sgn(x_S) - u_S(n-1)) + u(n-1),

so the residual w(n) = sgn(x_S) - u_S(n) contracts geometrically while each
group is used only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .blocks import BlockSupport, BlockVector
from .frames import FusionFrame, incoherence, restricted_norms
from .measurement import MeasurementEnsemble, draw_matrix

__all__ = [
    "GramConditionReport",
    "DualCertificate",
    "RobustCheck",
    "TailAudit",
    "default_partition",
    "gram_conditions",
    "golfing_build",
    "verify_inexact",
    "verify_robust",
    "empirical_tail",
    "TAIL_QUANTITIES",
]

_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class GramConditionReport:
    """Measured conditioning of the restricted measurement operator.

    inv_norm    spectral norm of the inverse restricted Gram (inf if singular)
    cross_max   largest off-support cross-Gram column norm
    deviation   spectral distance of the restricted Gram from the identity
    """

    inv_norm: float
    cross_max: float
    deviation: float


@dataclass(frozen=True)
class DualCertificate:
    """Golfing output with everything needed to check the dual conditions.

    ``residual_norms_l2``/``residual_norms_l2inf`` hold the residual norms
    per golfing step, entries 0..L starting from the sign vector itself.
    """

    u: BlockVector
    h: BlockVector
    support: BlockSupport
    partition: tuple[int, ...]
    residual_norms_l2: tuple[float, ...]
    residual_norms_l2inf: tuple[float, ...]
    on_support_gap: float
    off_support_max: float
    h_norm: float

    @property
    def steps(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class RobustCheck:
    """Outcome of checking the noisy-recovery conditions at given constants."""

    valid: bool
    b: float
    c1: float
    c2: float
    c3: float
    reasons: tuple[str, ...]


def _support_columns(support: BlockSupport, k: int) -> np.ndarray:
    return np.concatenate([np.arange(j * k, (j + 1) * k) for j in support.indices])


def gram_conditions(ensemble: MeasurementEnsemble, support: BlockSupport) -> GramConditionReport:
    """Measure the restricted Gram conditioning in coefficient space.

    The restricted Gram on the signal space is the sk x sk matrix of basis-
    conjugated blocks; its deviation from the identity, the norm of its
    inverse, and the largest off-support cross column norm are computed
    exactly with dense linear algebra.  Both the restricted Gram G[S, S] and
    the cross rows G[S, :] are read from the ensemble's Gram G = M^T M.  The
    cross column norms are the largest singular values of the off-support
    sk x k blocks of G[S, :], taken in one batched SVD.  The two helpers
    below are the one place each quantity is computed; ``empirical_tail``
    calls the one it needs.
    """
    if support.size < 1:
        raise ValueError("support must be nonempty")
    cols = _support_columns(support, ensemble.frame.dim_subspace)
    deviation, inv_norm = _restricted_spectrum(ensemble, cols)
    return GramConditionReport(inv_norm=inv_norm, cross_max=_cross_max(ensemble, support, cols),
                               deviation=deviation)


def _restricted_spectrum(ensemble: MeasurementEnsemble, cols: np.ndarray) -> tuple[float, float]:
    """(deviation, inv_norm): the largest distance of an eigenvalue of the
    restricted Gram G[S, S] from 1, and the norm of its inverse (inf when
    its smallest eigenvalue is at most 1e-14)."""
    ev = np.linalg.eigvalsh(ensemble.gram()[np.ix_(cols, cols)])
    deviation = float(max(abs(ev[0] - 1.0), abs(ev[-1] - 1.0)))
    inv_norm = float("inf") if ev[0] <= 1e-14 else 1.0 / float(ev[0])
    return deviation, inv_norm


def _cross_max(ensemble: MeasurementEnsemble, support: BlockSupport, cols: np.ndarray) -> float:
    """The largest spectral norm of an off-support sk x k block of G[S, :],
    from one batched SVD (0 for a full support)."""
    frame = ensemble.frame
    n, k = frame.n_subspaces, frame.dim_subspace
    cross = ensemble.gram()[cols].reshape(-1, n, k)[:, support.complement(n)]
    top = np.linalg.svd(cross.transpose(1, 0, 2), compute_uv=False)[:, 0]
    return float(top.max(initial=0.0))


def default_partition(m: int, s: int, n: int) -> list[int]:
    """Row-group sizes for the golfing iteration.

    The number of groups is L = ceil(ln s / ln ln N) + 3 and the first group
    receives an L-times-larger share than the rest, the shape that also keeps
    the norm of the assembled dual preimage of order sqrt(s).  Shares are
    rounded to sum to m; L shrinks if m is too small for one row per group.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if s >= 2 and n >= 3 and math.log(math.log(n)) > 0:
        steps = math.ceil(math.log(s) / math.log(math.log(n))) + 3
    else:
        steps = 3
    steps = max(1, min(steps, m))
    while steps > 1:
        weights = np.array([float(steps)] + [1.0] * (steps - 1))
        raw = m * weights / weights.sum()
        sizes = np.floor(raw).astype(int)
        remainder = m - int(sizes.sum())
        # largest fractional parts get the leftover rows, ties to lower index
        order = np.argsort(-(raw - sizes), kind="stable")
        for idx in order[:remainder]:
            sizes[idx] += 1
        if sizes.min() >= 1:
            return sizes.tolist()
        steps -= 1
    return [m]


def golfing_build(ensemble: MeasurementEnsemble, x: BlockVector,
                  partition: Optional[Sequence[int]] = None,
                  support: Optional[BlockSupport] = None) -> DualCertificate:
    """Run the golfing iteration for the support of ``x`` and assemble the
    candidate dual vector together with its measurement-domain preimage.

    ``support`` defaults to the nonzero blocks of ``x``; pass the index set
    of the s largest blocks explicitly when certifying a compressible signal.
    Verifies the step recursion to 1e-9 at every step: the residual taken
    from the assembled u agrees with the one-step update up to roundoff.
    """
    frame = ensemble.frame
    norms = x.block_norms()
    if support is None:
        support = BlockSupport(np.nonzero(norms > 0)[0])
    elif support.size and (norms[support.indices] == 0.0).any():
        raise ValueError("support selects a zero block, its sign is undefined")
    if support.size == 0:
        raise ValueError("signal has empty support")
    if x.n_blocks != frame.n_subspaces or x.block_len != frame.dim_ambient:
        raise ValueError("signal does not match frame shape")

    m = ensemble.m
    if partition is None:
        sizes = default_partition(m, support.size, frame.n_subspaces)
    else:
        sizes = [int(v) for v in partition]
        if sum(sizes) != m or any(v < 1 for v in sizes):
            raise ValueError("partition must be positive sizes summing to m")

    k = frame.dim_subspace
    d = frame.dim_ambient
    cols = _support_columns(support, k)
    # golfing rescales the raw (unscaled) rows of group n by 1/m_n; on the
    # ensemble's matrix, whose rows are raw / sqrt(m), that is the factor m/m_n
    matrix = ensemble.coefficient_matrix()

    sgn_coeff = frame.coefficients(x).blocks[support.indices]
    sgn_coeff = (sgn_coeff / norms[support.indices][:, None]).ravel()

    u_coeff = np.zeros(frame.n_subspaces * k)
    w = sgn_coeff.copy()
    res_l2 = [float(np.linalg.norm(w))]
    res_l2inf = [float(np.linalg.norm(w.reshape(-1, k), axis=1).max())]
    h_rows = np.zeros((m, d))

    offset = 0
    for m_n in sizes:
        rows = slice(offset * d, (offset + m_n) * d)
        group = matrix[rows]
        group_s = group[:, cols]
        factor = m / m_n
        image = group_s @ w  # A(n)_S w(n-1) / sqrt(m), length m_n * d
        u_coeff = u_coeff + factor * (group.T @ image)
        w_next = sgn_coeff - u_coeff[cols]
        # step recursion: w(n) = [I - (1/m_n) A(n)_S* A(n)_S] w(n-1)
        w_check = w - factor * (group_s.T @ image)
        if float(np.linalg.norm(w_next - w_check)) > _IDENTITY_TOL:
            raise RuntimeError("golfing step recursion violated beyond 1e-9")
        h_rows[offset : offset + m_n] = factor * image.reshape(m_n, d)
        w = w_next
        res_l2.append(float(np.linalg.norm(w)))
        res_l2inf.append(float(np.linalg.norm(w.reshape(-1, k), axis=1).max()))
        offset += m_n

    u = frame.expand(BlockVector(u_coeff.reshape(-1, k)))
    h = BlockVector(h_rows)
    off_idx = support.complement(frame.n_subspaces)
    off_max = float(u.block_norms()[off_idx].max()) if off_idx.size else 0.0
    return DualCertificate(
        u=u,
        h=h,
        support=support,
        partition=tuple(sizes),
        residual_norms_l2=tuple(res_l2),
        residual_norms_l2inf=tuple(res_l2inf),
        on_support_gap=res_l2[-1],
        off_support_max=off_max,
        h_norm=float(np.linalg.norm(h_rows)),
    )


def verify_inexact(cert: DualCertificate, report: GramConditionReport) -> tuple[bool, tuple[str, ...]]:
    """Check the four exact-recovery conditions; reasons name any failures."""
    reasons = []
    if not report.inv_norm <= 2.0:
        reasons.append("restricted gram inverse norm")
    if not report.cross_max <= 1.0:
        reasons.append("cross gram norm")
    if not cert.on_support_gap <= 0.25:
        reasons.append("on-support dual gap")
    if not cert.off_support_max <= 0.25:
        reasons.append("off-support dual gap")
    return (len(reasons) == 0, tuple(reasons))


def verify_robust(cert: DualCertificate, report: GramConditionReport, *,
                  delta: float, beta: float, gamma: float, theta: float,
                  tau: float) -> RobustCheck:
    """Check the noisy-recovery conditions at the given constants and
    evaluate the error-bound coefficients.

    Valid iff deviation <= delta, cross_max <= beta, the on/off dual gaps
    are within gamma/theta, the preimage norm is within tau*sqrt(s), and
    b = theta + beta*gamma/(1-delta) < 1.  The reconstruction-error bound is
    then c1 * (best s-term error) + (c2 + c3 sqrt(s)) * eta.
    """
    for name, value in (("delta", delta), ("beta", beta), ("gamma", gamma), ("theta", theta),
                        ("tau", tau)):
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative")

    reasons = []
    if delta >= 1.0:
        reasons.append("delta >= 1")
        return RobustCheck(False, float("inf"), float("nan"), float("nan"), float("nan"),
                           tuple(reasons))
    b = theta + beta * gamma / (1.0 - delta)
    amp = 1.0 + beta / (1.0 - delta)
    if not b < 1.0:  # NaN (inf * 0) fails
        reasons.append("b >= 1")
        c1 = c2 = c3 = float("nan")
    else:
        c1 = amp * 2.0 / (1.0 - b)
        c2 = 2.0 * math.sqrt(1.0 + delta) / (1.0 - delta) \
            + amp * 2.0 * gamma * math.sqrt(1.0 + delta) / ((1.0 - delta) * (1.0 - b))
        c3 = amp * 2.0 * tau / (1.0 - b)
    if report.deviation > delta:
        reasons.append("gram deviation above delta")
    if report.cross_max > beta:
        reasons.append("cross gram norm above beta")
    if cert.on_support_gap > gamma:
        reasons.append("on-support dual gap above gamma")
    if cert.off_support_max > theta:
        reasons.append("off-support dual gap above theta")
    if cert.h_norm > tau * math.sqrt(cert.support.size):
        reasons.append("dual preimage norm above tau*sqrt(s)")
    return RobustCheck(valid=(len(reasons) == 0), b=b, c1=c1, c2=c2, c3=c3,
                       reasons=tuple(reasons))


TAIL_QUANTITIES = (
    "gram_deviation",
    "cross_image",
    "gram_error_l2",
    "gram_error_blockmax",
    "cross_gram",
)


@dataclass(frozen=True)
class TailAudit:
    """Monte-Carlo exceedance frequency next to its closed-form bound."""

    quantity: str
    frequency: float
    bound: float
    threshold: float
    trials: int


def empirical_tail(quantity: str, frame: FusionFrame, support: BlockSupport, m: int,
                   t: float, trials: int, seed: int, kind: str = "bernoulli",
                   kappa: float = 1.0) -> TailAudit:
    """Estimate how often a concentration event exceeds its threshold over
    fresh measurement draws, next to the matching closed-form bound.

    For ``gram_deviation`` and ``cross_gram`` the parameter ``t`` is the
    threshold itself, and each trial's value is the ``deviation`` or
    ``cross_max`` that ``gram_conditions`` reports, from the one helper that
    computes it (the other one is skipped); the other quantities use
    the threshold built from the support-restricted incoherence norms plus
    ``t`` and apply the restricted operator to a fixed direction, drawn once
    from the seed.  Each trial redraws the matrix.
    """
    if quantity not in TAIL_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    norms = restricted_norms(incoherence(frame), support)
    s = support.size
    k = frame.dim_subspace
    n = frame.n_subspaces
    cols = _support_columns(support, k)
    off_idx = support.complement(n)
    v = np.random.default_rng(seed).standard_normal((s, k))
    top = np.linalg.norm(v, axis=1).max()

    if quantity == "gram_deviation":
        threshold = t
        bound = bounds.gram_deviation_tail(m, t, norms.row_rms_sub, norms.spectral_sub, s, k)

        def value(ensemble):
            return _restricted_spectrum(ensemble, cols)[0]
    elif quantity == "cross_gram":
        threshold = t
        bound = bounds.cross_gram_tail(m, t, norms.row_rms, n, s, k)

        def value(ensemble):
            return _cross_max(ensemble, support, cols)
    elif quantity == "cross_image":
        v = (v * (kappa / top)).ravel()
        threshold = kappa * norms.row_rms / math.sqrt(m) + t
        bound = bounds.cross_image_tail(m, t, kappa, norms.row_rms, norms.row_sum, n)

        def value(ensemble):
            matrix = ensemble.coefficient_matrix()
            cross = (matrix.T @ (matrix[:, cols] @ v)).reshape(n, k)[off_idx]
            return float(np.linalg.norm(cross, axis=1).max(initial=0.0))
    else:  # gram_error_l2, gram_error_blockmax: (sub^T sub - I) v
        l2 = quantity == "gram_error_l2"
        v = (v / (np.linalg.norm(v) if l2 else top)).ravel()
        threshold = norms.row_rms_sub / math.sqrt(m) + t
        if l2:
            bound = bounds.gram_error_l2_tail(m, t, norms.row_rms_sub, norms.row_sum_sub)
        else:
            bound = bounds.gram_error_blockmax_tail(m, t, norms.row_rms_sub, norms.row_sum_sub, s)

        def value(ensemble):
            sub = ensemble.coefficient_matrix()[:, cols]
            err = (sub.T @ (sub @ v) - v).reshape(-1, k)
            return float(np.linalg.norm(err) if l2 else np.linalg.norm(err, axis=1).max())

    exceed = sum(
        value(draw_matrix(kind, m, n, seed * 1_000_000 + trial, frame)) >= threshold
        for trial in range(trials))
    return TailAudit(quantity=quantity, frequency=exceed / trials, bound=bound,
                     threshold=threshold, trials=trials)
