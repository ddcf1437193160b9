"""Convex recovery programs for block-sparse signals over fusion frames.

All programs minimize the mixed (2,1)-norm.  The subspace-membership
constraint is eliminated by working in coefficient space (x_j = U_j c_j with
orthonormal U_j), where the norm of a coefficient block equals the norm of
its ambient block, so group basis pursuit on the coefficient matrix solves
the constrained program exactly.

Every program is the second-order cone program min sum_j t_j subject to
||c_j|| <= t_j, and all of them run through one primal-dual interior-point
method with Nesterov-Todd scaling and Mehrotra's predictor-corrector (Lobo,
Vandenberghe, Boyd & Lebret 1998; Vandenberghe 2010, "The CVXOPT linear and
quadratic cone program solvers").  The feasible set is written as
c = c0 + B w:

- equality program (M c = b): one SVD of M gives c0 = pinv(M) b (with
  np.linalg.pinv's rank cutoff) and an orthonormal basis B of the null space
  of M, so every iterate satisfies M c = b as exactly as c0 does.  With an
  empty null space c0 is the only feasible point and no iteration runs;
- ball program (||M c - b|| <= radius): c0 = 0 and B = I, plus the one cone
  of the residual ball.  Radius 0 is the equality program.

When ||b|| <= radius, c = 0 is feasible and optimal and no iteration runs.

Each Newton step eliminates every group's epigraph variable t_j in closed
form, factors one symmetric positive definite q x q matrix (q = columns of
B), B^T D B plus M^T E M for the ball, with one Cholesky, and corrects each
solve with one step of iterative refinement.  A solve has converged when the
primal residual relative to the norm of the cone constraints' constant part
is at most tol_primal, and the dual residual relative to the norm of the
objective vector and the duality gap relative to the primal objective are
at most tol_dual.  ``iterations`` counts these interior-point steps.  A
failed Cholesky factorization or a non-finite step ends the solve with the
last finite iterate and converged=False.

Along the curved boundary of the ball an interior-point iterate lies only
about sqrt(gap) from the minimizer, so a converged ball solve ends with a
few Newton steps on the optimality conditions over its active groups, whose
result is kept only when it meets every one of them; when it does not, the
steps are retried once on the active set read from the iterate's dual
scores.
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
    """Iteration controls: tol_primal bounds the relative primal residual,
    tol_dual the relative dual residual and the relative duality gap."""

    max_iter: int = 100
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")


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


def _affine_parametrization(matrix: np.ndarray, b: np.ndarray):
    """(c0, B) with {c0 + B w} = {c : M c = b} (the least-squares set when b
    is inconsistent): c0 = pinv(M) b and B (n x q) an orthonormal basis of
    the null space of M, from one SVD with np.linalg.pinv's rank cutoff
    (singular values above 1e-15 * sigma_max)."""
    rows, cols = matrix.shape
    u, sing, vt = np.linalg.svd(matrix, full_matrices=rows < cols)
    rank = int(np.count_nonzero(sing > 1e-15 * sing.max()))
    c0 = vt[:rank].T @ ((u[:, :rank].T @ b) / sing[:rank])
    return c0, np.ascontiguousarray(vt[rank:].T)


class _Cones:
    """A product of second-order cones {(u0, u1) : u0 >= ||u1||}, stored
    as one flat vector, cone after cone.  Per-cone scalars come from one
    np.add.reduceat over the cone starts."""

    def __init__(self, dims: np.ndarray):
        self.starts = np.concatenate(([0], np.cumsum(dims[:-1])))
        self.owner = np.repeat(np.arange(dims.size), dims)
        self.e = np.zeros(int(dims.sum()))
        self.e[self.starts] = 1.0  # the identity (1, 0, ..., 0) of every cone
        self.tail = 1.0 - self.e
        self.sign = self.e - self.tail  # the diagonal of J = diag(1, -1, ..., -1)

    def dot(self, u, v):
        return np.add.reduceat(u * v, self.starts)

    def jdot(self, u, v):
        return np.add.reduceat(self.sign * u * v, self.starts)

    def jnorm(self, u):
        """sqrt(u0^2 - ||u1||^2) per cone, as sqrt((u0 - ||u1||)(u0 + ||u1||))
        to keep its digits near the boundary; NaN outside the cone."""
        u0 = u[self.starts]
        r = np.sqrt(np.add.reduceat(self.tail * u * u, self.starts))
        return np.sqrt((u0 - r) * (u0 + r))

    def circ(self, u, v):
        """Jordan product: (u^T v, u0 v1 + v0 u1) per cone."""
        own = self.owner
        prod = (u[self.starts][own] * v + v[self.starts][own] * u) * self.tail
        prod[self.starts] = self.dot(u, v)
        return prod

    def inverse_circ(self, lam, r):
        """x with lam o x = r, for lam inside the cone."""
        x0 = self.jdot(lam, r) / self.jdot(lam, lam)
        x = (r - x0[self.owner] * lam) / lam[self.starts][self.owner]
        x[self.starts] = x0
        return x

    def max_step(self, lam, d):
        """The largest alpha with lam + alpha d in the cones (inf if none
        bounds it), for lam inside them: a Lorentz transformation takes
        lam / jnorm(lam) to the identity, where the step to the boundary
        is 1 / (||y1|| - y0) for the transformed direction y."""
        own, starts = self.owner, self.starts
        scale = self.jnorm(lam)
        unit = lam / scale[own]
        y0 = self.jdot(unit, d)
        y1 = (d - ((y0 + d[starts]) / (unit[starts] + 1.0))[own] * unit) * self.tail
        worst = float(np.max((np.sqrt(np.add.reduceat(y1 * y1, starts)) - y0) / scale))
        return 1.0 / worst if worst > 0 else math.inf


# Mehrotra's centering exponent and the share of the step to the cone
# boundary that is taken
_CENTERING_EXPONENT = 3
_STEP_SHARE = 0.99


def _group_socp(c0: np.ndarray, basis: Optional[np.ndarray], block_len: int,
                cfg: SolverConfig, matrix: Optional[np.ndarray] = None,
                b: Optional[np.ndarray] = None, radius: float = 0.0):
    """min sum_j ||c_j||_2 over c = c0 + basis @ w, or, given a matrix (the
    ball program, basis None for B = I), subject to ||matrix @ c - b||_2 <=
    radius.  Returns (c, iterations, converged).

    Variables x = (w, t); the cone constraints are s = h - G x in the cone
    product, s_j = (t_j, c_j) per group and s_ball = (radius, M c - b).
    The dual variables z_j have first entry 1 at every dual-feasible point.
    """
    n, k = c0.size, block_len
    n_groups = n // k
    q = n if basis is None else basis.shape[1]
    if q == 0:
        return c0, 0, True
    ball = matrix is not None
    ng = n_groups * (k + 1)  # length of the group cones' part
    cones = _Cones(np.array([k + 1] * n_groups + ([matrix.shape[0] + 1] if ball else [])))
    own, sign, e = cones.owner, cones.sign, cones.e
    heads = cones.starts[:n_groups]
    tails = np.arange(ng).reshape(n_groups, k + 1)[:, 1:].ravel()
    n_cones = cones.starts.size
    if ball:
        mt = matrix.T
        gram = mt @ matrix
        idx = np.arange(n).reshape(n_groups, k)
        diagonal_blocks = (idx[:, :, None], idx[:, None, :])
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (c0,))

    def lift(dc, dt):
        """-G x for the direction x = (w, t) with B w = dc."""
        v = np.zeros(e.size)
        v[heads] = dt
        v[tails] = dc
        if ball:
            v[ng + 1:] = matrix @ dc
        return v

    def lift_t(y):
        """-G^T y, as its (w, t) parts."""
        yc = y[tails]
        if ball:
            yc = yc + mt @ y[ng + 1:]
        return (yc if basis is None else basis.T @ yc), y[heads]

    def expand(dw):
        return dw if basis is None else basis @ dw

    h = lift(c0, np.zeros(n_groups))
    if ball:
        h[ng] = radius
        h[ng + 1:] -= b
    h_norm, q_norm = _norm(h), math.sqrt(n_groups)

    # start: the least-norm point of the affine set (least squares for the
    # ball), t_j = ||c_j|| + nu with nu the largest block norm, z_j = (1, 0)
    # and z_ball = (zeta, 0): dual feasible, every eigenvalue of s o z in
    # [nu, 3 nu], and primal feasible unless the start is not inside the ball
    w = np.zeros(q)
    if ball:
        chol = gram.copy()
        chol.flat[:: n + 1] += 1e-10 * max(float(np.trace(gram)) / n, 1e-300)
        chol, info = potrf(chol.T, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            w = potrs(chol, mt @ (b - matrix @ c0), lower=0)[0]
    c = c0 + expand(w)
    norms = np.sqrt(np.add.reduce(c.reshape(n_groups, k) ** 2, axis=1))
    nu = max(float(norms.max()), 1e-300)
    t = norms + nu
    s = h + lift(c - c0, t)
    z = e.copy()
    if ball:
        off = _norm(s[ng + 1:])
        s[ng] = radius if off < 0.5 * radius else 2.0 * off
        z[ng] = nu / (s[ng] - off)

    converged = False
    for it in range(cfg.max_iter + 1):
        c = c0 + expand(w)
        r_z = s - h - lift(c - c0, t)
        zw, zt = lift_t(z)
        r_w, r_t = -zw, 1.0 - zt
        gap = float(s @ z)
        if (_norm(r_z) <= cfg.tol_primal * h_norm
                and math.hypot(_norm(r_w), _norm(r_t)) <= cfg.tol_dual * q_norm
                and gap <= cfg.tol_dual * float(t.sum())):
            converged = True
            break
        if it == cfg.max_iter:
            break

        # Nesterov-Todd scaling W (W z = W^-1 s = lam), one cone at a time:
        # W = beta (2 v v^T - J) with v^T J v = 1, W^-2 = (2 J wb wb^T J - J) / beta^2
        with np.errstate(divide="ignore", invalid="ignore"):  # checked below
            ns, nz = cones.jnorm(s), cones.jnorm(z)
            sb, zb = s / ns[own], z / nz[own]
            gamma = np.sqrt(0.5 * (1.0 + cones.dot(sb, zb)))
            wb = (sb + sign * zb) / (2.0 * gamma)[own]
            beta = np.sqrt(ns / nz)
        if not (np.isfinite(beta) & (beta > 0.0)).all() or not np.isfinite(wb).all():
            break  # rounding left s or z on or outside a cone's boundary
        v = (wb + e) / np.sqrt(2.0 * (wb[cones.starts] + 1.0))[own]
        jv = sign * v
        beta_e = beta[own]

        def unscale(x):
            return (2.0 * jv * cones.dot(jv, x)[own] - sign * x) / beta_e

        lam = beta_e * (2.0 * v * cones.dot(v, z)[own] - sign * z)

        # reduced Newton matrix: t_j is eliminated through the Schur
        # complement D_j = (I - 2 w1 w1^T / ||wb||^2) / beta^2 of W_j^-2
        wg = wb[:ng].reshape(n_groups, k + 1)
        w0, w1 = wg[:, 0], wg[:, 1:]
        norm2 = np.add.reduce(wg * wg, axis=1)
        bg2 = beta[:n_groups] ** 2
        q00 = norm2 / bg2
        rho = (-2.0 * w0 / norm2)[:, None] * w1
        if ball:  # B = I: M^T W_ball^-2 M = (M^T M + 2 g g^T) / beta^2 plus the D_j blocks
            g = mt @ wb[ng + 1:]
            hess = np.outer(g, g)
            hess *= 2.0
            hess += gram
            hess /= beta[-1] ** 2
            blocks = (-2.0 / (norm2 * bg2))[:, None, None] * (w1[:, :, None] * w1[:, None, :])
            blocks += np.eye(k) / bg2[:, None, None]
            hess[diagonal_blocks] += blocks
        else:
            b3 = basis.reshape(n_groups, k, q)
            a = 2.0 / (np.sqrt(norm2) * (np.sqrt(norm2) + 1.0))
            sbasis = (b3 - (a[:, None] * w1)[:, :, None] * (w1[:, None, :] @ b3)) \
                / beta[:n_groups, None, None]
            sbasis = sbasis.reshape(n, q)
            hess = sbasis.T @ sbasis
        chol, info = potrf(hess.T, lower=0, clean=0)
        if info != 0:
            # near the optimum the scales of D_j drift apart until rounding
            # makes the matrix indefinite: shift its diagonal by the size of
            # that rounding and leave the rest to the refinement step
            hess.flat[:: q + 1] += q * np.finfo(float).eps * hess.diagonal().max()
            chol, info = potrf(hess.T, lower=0, clean=0)
        if info != 0:
            break

        def newton(r_z, r_w, r_t, xi):
            """One Newton solve, returned as (dw, dt, W^-1 ds, W dz)."""
            uw, ut = lift_t(unscale(unscale(r_z) + xi))
            rhs_t = ut - r_t
            rhs_w = uw - r_w
            rhs_c = (rho * rhs_t[:, None]).ravel()
            rhs_w = rhs_w - (rhs_c if basis is None else basis.T @ rhs_c)
            dw = potrs(chol, rhs_w, lower=0)[0]
            dc = expand(dw)
            dt = rhs_t / q00 - np.add.reduce(rho * dc.reshape(n_groups, k), axis=1)
            ds = unscale(lift(dc, dt) - r_z)
            return dw, dt, ds, xi - ds

        def refined(r_z, r_w, r_t, xi):
            """newton() plus one step of iterative refinement on G^T dz = -r_x."""
            dw, dt, ds, dz = newton(r_z, r_w, r_t, xi)
            gw, gt = lift_t(unscale(dz))
            cw, ct, cs, cz = newton(np.zeros_like(r_z), r_w - gw, r_t - gt, np.zeros_like(xi))
            return dw + cw, dt + ct, ds + cs, dz + cz

        _, _, ds_a, dz_a = refined(r_z, r_w, r_t, -lam)
        step = min(1.0, cones.max_step(lam, ds_a), cones.max_step(lam, dz_a))
        sigma = (1.0 - step) ** _CENTERING_EXPONENT
        mu = gap / n_cones
        xi = cones.inverse_circ(lam, sigma * mu * e - cones.circ(ds_a, dz_a)) - lam
        dw, dt, ds, dz = refined(r_z, r_w, r_t, xi)
        step = min(1.0, _STEP_SHARE * min(cones.max_step(lam, ds), cones.max_step(lam, dz)))
        w_new = w + step * dw
        t_new = t + step * dt
        s_new = s + step * (lift(expand(dw), dt) - r_z)
        z_new = z + step * unscale(dz)
        if not (np.isfinite(w_new).all() and np.isfinite(s_new).all()
                and np.isfinite(z_new).all() and np.isfinite(t_new).all()):
            break
        w, t, s, z = w_new, t_new, s_new, z_new
    if ball and converged:
        # the ball multiplier: z_ball = (zeta, -zeta (M c - b) / radius) at the optimum
        polished = _polish_ball(c, matrix, b, radius, k, z[ng] / radius)
        if polished is not None:
            c = polished
    return c, it, converged


_POLISH_STEPS = 8


def _polish_ball(c: np.ndarray, matrix: np.ndarray, b: np.ndarray, radius: float,
                 block_len: int, nu: float) -> Optional[np.ndarray]:
    """Newton's method on the optimality conditions of the ball program over
    the groups active at c: c_j / ||c_j|| + nu M_j^T r = 0 and ||r|| = radius,
    with r = M c - b and the multiplier nu > 0.

    An interior-point iterate lies only about sqrt(gap) from the minimizer
    along the curved boundary of the ball, while these conditions are smooth
    wherever ||c_j|| > 0, so a few steps reach the minimizer to rounding.
    The active groups are those above 1e-6 of the largest block norm.  When
    that set fails, a group just above the cut may be inactive, or one
    below it active; the one retry reads the set from the iterate's dual
    scores instead, keeping a group when its relative block norm exceeds its
    dual slack 1 - nu ||M_j^T r||.  Returns the polished point, with
    inactive groups exactly 0, when it meets every optimality condition
    (nu ||M_j^T r|| <= 1 off the active groups included), else None."""
    k = block_len
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    active = norms > 1e-6 * norms.max()
    polished = _newton_on_active(c, matrix, b, radius, k, nu, active)
    if polished is None:
        slack = 1.0 - nu * np.linalg.norm((matrix.T @ (matrix @ c - b)).reshape(-1, k), axis=1)
        polished = _newton_on_active(c, matrix, b, radius, k, nu, norms / norms.max() > slack)
    return polished


def _newton_on_active(c: np.ndarray, matrix: np.ndarray, b: np.ndarray, radius: float,
                      k: int, nu: float, active: np.ndarray) -> Optional[np.ndarray]:
    """The Newton iteration of ``_polish_ball`` on the given active groups."""
    cols = np.flatnonzero(np.repeat(active, k))
    sub = matrix[:, cols]
    gram = sub.T @ sub
    idx = np.arange(cols.size).reshape(-1, k)
    x = np.append(c[cols], nu)
    best, best_x = math.inf, None
    for _ in range(_POLISH_STEPS):
        blocks = x[:-1].reshape(-1, k)
        block_norms = np.linalg.norm(blocks, axis=1)
        unit = blocks / block_norms[:, None]
        r = sub @ x[:-1] - b
        g = sub.T @ r
        f = np.append(unit.ravel() + x[-1] * g, 0.5 * (r @ r / radius**2 - 1.0))
        size = float(np.abs(f).max())
        if size < best:
            best, best_x = size, x
        elif best <= 1e-10:
            break  # converged to rounding; before that a step may overshoot
        jac = np.zeros((x.size, x.size))
        jac[:-1, :-1] = x[-1] * gram
        jac[idx[:, :, None], idx[:, None, :]] += (
            np.eye(k) - unit[:, :, None] * unit[:, None, :]) / block_norms[:, None, None]
        jac[:-1, -1] = g
        jac[-1, :-1] = g / radius**2
        try:
            x = x - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
    if best_x is None or not best <= 1e-10 or best_x[-1] <= 0:
        return None
    polished = np.zeros(c.size)
    polished[cols] = best_x[:-1]
    r = matrix @ polished - b
    off = np.linalg.norm((matrix.T @ r).reshape(-1, k)[~active], axis=1)
    if not (best_x[-1] * off <= 1.0).all():
        return None
    return polished


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
    when a positive ``radius`` is given) on the coefficient matrix (on the blockwise
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
    radius = radius or 0.0
    if _norm(b) <= radius:  # c = 0 is feasible, so it is optimal
        c, iters, converged = np.zeros(matrix.shape[1]), 0, True
    elif radius > 0.0:
        c, iters, converged = _group_socp(np.zeros(matrix.shape[1]), None, block_len, cfg,
                                          matrix, b, radius)
    else:
        c0, basis = _affine_parametrization(matrix, b)
        c, iters, converged = _group_socp(c0, basis, block_len, cfg)
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
