"""Convex recovery programs for block-sparse signals over fusion frames.

All programs minimize the mixed (2,1)-norm.  The subspace-membership
constraint is eliminated by working in coefficient space (x_j = U_j c_j with
orthonormal U_j), where the norm of a coefficient block equals the norm of
its ambient block, so group basis pursuit on the coefficient matrix solves
the constrained program exactly.

The solvers are ADMM-style operator splittings whose proximal step is block
soft-thresholding: block j is scaled by max(0, 1 - tau / ||c_j||_2).  The
equality-constrained program alternates that prox with an exact affine
projection; the noisy program replaces the affine projection with the
projection onto the residual ball.  The contract is the returned minimizer,
not the iteration.

Each solve factors its linear operator once, before the loop: the equality
program takes one thin SVD of the coefficient matrix and projects through
its row-space basis; the noisy program forms the dense inverse of
I + M^T M, so its c-update is a single matvec.  The loops themselves make
plain array operations only.

Both loops stop when the primal residual r and the dual residual s fall
below eps_pri = tol_primal * (primal scale) and eps_dual = tol_dual * rho *
(dual scale), plus an absolute floor (Boyd et al. 2011, section 3.3).  The
dual scale is the norm of the scaled dual variable; in the noisy program its
two parts u_z and M^T u_w are measured separately, because their sum is the
stationarity residual and vanishes at the optimum.  Both loops share one
penalty rule: every 50 iterations rho is doubled or halved when r / eps_pri
and s / eps_dual differ tenfold (residual balancing on tolerance-normalized
residuals, Wohlberg 2017), and after 10 changes rho stays fixed, so the
convergence theory for a constant penalty applies to the rest of the solve.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .blocks import BlockVector, norm_l21
from .frames import incoherence, lambda_max
from .measurement import MeasurementEnsemble

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_l1_equality",
    "solve_l1_noisy",
    "solve_block_baseline",
    "orthogonal_closed_form",
    "solve_l0_oracle",
    "relative_error",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.  Tolerances are relative residual thresholds."""

    max_iter: int = 50000
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9
    penalty: float = 1.0
    success_rel_err: float = 1e-4

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")


@dataclass
class SolveReport:
    """Outcome of one solve."""

    x_hat: BlockVector
    objective: float
    constraint_residual: float
    iterations: int
    converged: bool
    wall_time: float = 0.0


def relative_error(x_hat: BlockVector, x_true: BlockVector) -> float:
    """||x_hat - x||_2 / ||x||_2, falling back to ||x_hat||_2 for x = 0."""
    diff = float(np.linalg.norm(x_hat.blocks - x_true.blocks))
    denom = float(np.linalg.norm(x_true.blocks))
    return diff / denom if denom > 0 else float(np.linalg.norm(x_hat.blocks))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array; same bits as np.linalg.norm."""
    return math.sqrt(v @ v)


def _block_soft_threshold(v: np.ndarray, block_len: int, tau: float) -> np.ndarray:
    """Prox of tau * ||.||_{2,1} on a flat vector split into blocks: block j
    is scaled by 1 - tau / max(||v_j||, tau), which is 0 when ||v_j|| <= tau."""
    blocks = v.reshape(-1, block_len)
    norms = np.sqrt(np.add.reduce(blocks * blocks, axis=1))
    factor = 1.0 - tau / np.maximum(norms, tau)
    return (blocks * factor[:, None]).ravel()


# residual balancing is checked only every so often, and rho changes at most
# _MAX_PENALTY_CHANGES times per solve: unbounded switching can lock the
# iteration into a penalty limit cycle
_BALANCE_EVERY = 50
_MAX_PENALTY_CHANGES = 10


def _balance_penalty(rho, changes, r_ratio, s_ratio):
    """Residual balancing on r / eps_pri and s / eps_dual: double/halve rho
    when one ratio dominates 10x, unless ``changes`` penalty changes were
    already made.  Returns (rho, u_factor); dual variables are stored scaled,
    so they are multiplied by u_factor (1.0 when rho is unchanged)."""
    if changes < _MAX_PENALTY_CHANGES:
        if r_ratio > 10.0 * s_ratio and rho < 1e8:
            return 2.0 * rho, 0.5
        if s_ratio > 10.0 * r_ratio and rho > 1e-8:
            return 0.5 * rho, 2.0
    return rho, 1.0


def _affine_projector(matrix: np.ndarray, b: np.ndarray):
    """(V_r, V_r^T, beta) for the projection onto {c : M c = b} (onto its
    least-squares set when b is inconsistent): V_r (n x r) spans the row
    space of M and beta = S_r^-1 U_r^T b, from one thin SVD with
    np.linalg.pinv's rank cutoff (singular values above 1e-15 * sigma_max)."""
    u, sing, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.count_nonzero(sing > 1e-15 * sing.max()))
    vt_r = np.ascontiguousarray(vt[:rank])
    beta = (u[:, :rank].T @ b) / sing[:rank]
    return np.ascontiguousarray(vt_r.T), vt_r, beta


def _project_affine(v: np.ndarray, v_r: np.ndarray, vt_r: np.ndarray,
                    beta: np.ndarray) -> np.ndarray:
    """(I - pinv(M) M) v + pinv(M) b as v - V_r (V_r^T v - beta)."""
    return v - v_r @ (vt_r @ v - beta)


def _group_bp_equality(matrix: np.ndarray, b: np.ndarray, block_len: int, cfg: SolverConfig):
    """min sum_j ||c_j||_2  s.t.  matrix @ c = b, via ADMM with an exact
    affine projection.  Returns (c, iterations, converged).

    The affine projection costs two n x r matvecs (r = rank of M).
    """
    n = matrix.shape[1]
    v_r, vt_r, beta = _affine_projector(matrix, b)
    rho = cfg.penalty
    tau = 1.0 / rho
    floor = 1e-15 * math.sqrt(n)

    c = v_r @ beta  # least-norm feasible start
    z = _block_soft_threshold(c, block_len, tau)
    u = c - z

    converged = False
    iters = changes = 0
    for it in range(1, cfg.max_iter + 1):
        iters = it
        v = z - u
        c = _project_affine(v, v_r, vt_r, beta)
        z_old = z
        cu = c + u
        z = _block_soft_threshold(cu, block_len, tau)
        u = cu - z

        r_norm = _norm(c - z)
        s_norm = rho * _norm(z - z_old)
        eps_pri = floor + cfg.tol_primal * max(_norm(c), _norm(z))
        eps_dual = floor + cfg.tol_dual * rho * _norm(u)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

        if it % _BALANCE_EVERY == 0:
            rho, u_factor = _balance_penalty(rho, changes, r_norm / eps_pri, s_norm / eps_dual)
            if u_factor != 1.0:
                changes += 1
                tau = 1.0 / rho
                u = u * u_factor
    return c, iters, converged


def _inverse_identity_plus_gram(matrix: np.ndarray, mt: np.ndarray) -> np.ndarray:
    """(I + M^T M)^-1 as a dense symmetric matrix, factored and inverted in
    place with LAPACK potrf + potri."""
    n = matrix.shape[1]
    gram = mt @ matrix
    gram.flat[:: n + 1] += 1.0
    # gram is symmetric: its transpose is the same matrix in Fortran order,
    # which LAPACK can overwrite without a copy
    potrf, potri = scipy.linalg.get_lapack_funcs(("potrf", "potri"), (gram,))
    chol, info = potrf(gram.T, lower=0, clean=1, overwrite_a=1)
    if info == 0:
        inv, info = potri(chol, lower=0, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"factoring I + M^T M failed (info={info})")
    # potri filled the upper triangle; clean=1 zeroed the strict lower one
    np.add(inv, inv.T, out=inv)
    inv.flat[:: n + 1] *= 0.5
    return inv.T


def _group_bp_ball(matrix: np.ndarray, b: np.ndarray, radius: float, block_len: int,
                   cfg: SolverConfig):
    """min sum_j ||c_j||_2  s.t.  ||matrix @ c - b||_2 <= radius.

    Splitting with copies z = c and w = matrix @ c; the w-step projects onto
    the radius-ball around b (a point when radius = 0).  The c-update
    operator (I + M^T M)^-1 is formed once, so each c-step is one matvec.
    M^T w and M^T u_w are carried along: both follow from one product
    M^T (M c + u_w - b) per iteration, because the ball projection scales
    that offset by a single factor.

    The dual tolerance is scaled by hypot(||u_z||, ||M^T u_w||), the two
    terms of the dual variable measured separately.  Their sum u_z + M^T u_w
    is the stationarity residual, which tends to 0 at the optimum; scaled by
    it, eps_dual would shrink to its absolute floor and every solve would run
    to machine precision whatever tol_primal and tol_dual are.
    """
    n_rows, n_cols = matrix.shape
    rho = cfg.penalty
    tau = 1.0 / rho
    floor = 1e-15 * math.sqrt(n_cols + n_rows)
    mt = np.ascontiguousarray(matrix.T)
    h_inv = _inverse_identity_plus_gram(matrix, mt)
    mt_b = mt @ b

    c = h_inv @ mt_b  # ridge start
    mc = matrix @ c
    z = _block_soft_threshold(c, block_len, tau)
    dq = mc - b
    norm_dq = _norm(dq)
    w = mc if norm_dq <= radius else b + dq * (radius / norm_dq)
    uz = np.zeros(n_cols)
    uw = zero_rows = np.zeros(n_rows)
    mt_uw = zero_cols = np.zeros(n_cols)
    mt_w = mt @ w

    converged = False
    iters = changes = 0
    for it in range(1, cfg.max_iter + 1):
        iters = it
        c = h_inv @ ((z - uz) + (mt_w - mt_uw))
        mc = matrix @ c
        z_old, mt_w_old = z, mt_w
        cu = c + uz
        z = _block_soft_threshold(cu, block_len, tau)
        uz = cu - z
        q = mc + uw
        dq = q - b
        mt_dq = mt @ dq
        norm_dq = _norm(dq)
        if norm_dq <= radius:  # inside the ball: w = q and u_w = 0
            w, uw, mt_uw = q, zero_rows, zero_cols
            mt_w = mt_b + mt_dq
        else:
            alpha = radius / norm_dq
            w = b + dq * alpha
            uw = q - w
            mt_w = mt_b + mt_dq * alpha
            mt_uw = mt_dq * (1.0 - alpha)

        r_norm = math.hypot(_norm(c - z), _norm(mc - w))
        s_norm = rho * _norm((z_old - z) + (mt_w_old - mt_w))
        ax = math.hypot(_norm(c), _norm(mc))
        bz = math.hypot(_norm(z), _norm(w))
        eps_pri = floor + cfg.tol_primal * max(ax, bz)
        eps_dual = floor + cfg.tol_dual * rho * math.hypot(_norm(uz), _norm(mt_uw))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

        if it % _BALANCE_EVERY == 0:
            rho, u_factor = _balance_penalty(rho, changes, r_norm / eps_pri, s_norm / eps_dual)
            if u_factor != 1.0:
                changes += 1
                tau = 1.0 / rho
                uz = uz * u_factor
                uw = uw * u_factor
                mt_uw = mt_uw * u_factor
    return c, iters, converged


def _check_measurements(ensemble: MeasurementEnsemble, y: BlockVector) -> None:
    d = ensemble.frame.dim_ambient
    if y.n_blocks != ensemble.m or y.block_len != d:
        raise ValueError(
            f"measurements of shape ({y.n_blocks}, {y.block_len}) do not match "
            f"ensemble (m={ensemble.m}, d={d})"
        )
    if y.n_blocks == 0 or y.block_len == 0:
        raise ValueError("zero-dimension measurements")


def _solve(ensemble: MeasurementEnsemble, y: BlockVector, config: Optional[SolverConfig],
           blockwise: bool = False, radius: Optional[float] = None) -> SolveReport:
    """Check and time one solve, run the equality program (the ball program
    when a ``radius`` is given) on the coefficient matrix (on the blockwise
    matrix, with blocks over all of R^d, when ``blockwise``) and report it."""
    cfg = config or SolverConfig()
    _check_measurements(ensemble, y)
    t0 = time.perf_counter()
    frame = ensemble.frame
    if blockwise:
        matrix, block_len = ensemble.blockwise_matrix(), frame.dim_ambient
    else:
        matrix, block_len = ensemble.coefficient_matrix(), frame.dim_subspace
    b = y.to_flat()
    if radius is None:
        c, iters, converged = _group_bp_equality(matrix, b, block_len, cfg)
        residual = float(np.linalg.norm(matrix @ c - b))
    else:
        c, iters, converged = _group_bp_ball(matrix, b, radius, block_len, cfg)
        residual = max(0.0, float(np.linalg.norm(matrix @ c - b)) - radius)
    blocks = c.reshape(ensemble.n, block_len)
    if blockwise:
        x_hat = BlockVector(blocks, "ambient")
    else:
        x_hat = frame.expand(BlockVector(blocks, "coefficient"))
    return SolveReport(
        x_hat=x_hat,
        objective=norm_l21(x_hat),
        constraint_residual=residual,
        iterations=iters,
        converged=converged,
        wall_time=time.perf_counter() - t0,
    )


def solve_l1_equality(ensemble: MeasurementEnsemble, y: BlockVector,
                      config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the (2,1)-norm subject to exact agreement with the projected
    measurements, over signals with blocks in their subspaces."""
    return _solve(ensemble, y, config)


def solve_l1_noisy(ensemble: MeasurementEnsemble, y: BlockVector, eta: float,
                   config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the (2,1)-norm subject to the measurement residual staying
    within the noise ball of radius eta * sqrt(m) (in the ensemble's scale)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return _solve(ensemble, y, config, radius=eta * math.sqrt(ensemble.m) * ensemble.scale)


def solve_block_baseline(ensemble: MeasurementEnsemble, y: BlockVector,
                         config: Optional[SolverConfig] = None) -> SolveReport:
    """Block-sparsity baseline: same objective and measurements but blocks
    range over all of R^d, with no subspace knowledge."""
    return _solve(ensemble, y, config, blockwise=True)


def orthogonal_closed_form(ensemble: MeasurementEnsemble, y: BlockVector) -> BlockVector:
    """Exact one-measurement reconstruction for mutually orthogonal
    subspaces: block i is recovered as P_i y / a_i.

    Requires a single measurement block, zero incoherence, and no zero
    coefficients in the measurement row.
    """
    frame = ensemble.frame
    if ensemble.m != 1:
        raise ValueError("closed form needs exactly one measurement block")
    if lambda_max(incoherence(frame)) > 1e-10:
        raise ValueError("closed form requires mutually orthogonal subspaces")
    coeffs = ensemble.matrix[0] * ensemble.scale
    if (coeffs == 0.0).any():
        raise ValueError("closed form requires all measurement coefficients nonzero")
    if y.n_blocks != 1 or y.block_len != frame.dim_ambient:
        raise ValueError("measurement must be a single ambient block")
    projected = np.stack([frame.projector(j) @ y.block(0) for j in range(frame.n_subspaces)])
    return BlockVector(projected / coeffs[:, None], "ambient")


_ORACLE_MAX_N = 12
_ORACLE_MAX_S = 3
_ORACLE_RESIDUAL = 1e-8


def solve_l0_oracle(ensemble: MeasurementEnsemble, y: BlockVector,
                    max_s: int) -> Optional[BlockVector]:
    """Exhaustive sparsest-solution search for tiny instances (test oracle).

    Enumerates supports of size 0..max_s in lexicographic order, solves the
    least-squares fit in coefficient space on each, and returns the first
    consistent solution (residual <= 1e-8) of minimal support size.  Returns
    None when no support fits.
    """
    if ensemble.n > _ORACLE_MAX_N or max_s > _ORACLE_MAX_S:
        raise ValueError(
            f"enumeration guard: need N <= {_ORACLE_MAX_N} and max_s <= {_ORACLE_MAX_S}"
        )
    _check_measurements(ensemble, y)
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
                return ensemble.frame.expand(BlockVector(c.reshape(n, k), "coefficient"))
    return None
