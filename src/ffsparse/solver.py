"""Convex recovery programs for block-sparse signals over fusion frames.

All programs minimize the mixed (2,1)-norm in coefficient space (x_j = U_j
c_j with orthonormal U_j, so a coefficient block has the norm of its
ambient block) as the second-order cone program min sum_j t_j subject to
||c_j|| <= t_j, over c = c0 + B w (the equality program M c = b) or in
the noise ball ||M c - b|| <= radius, with one primal-dual interior-point
method (``_group_socp``).  Every solve that takes steps ends at a certified
active-set polish, its program's ``polish(c, z)`` hook.  The README's
Solver section describes the feasible-set routes, the start, the step, the
stopping test and the polish, with the conditions each relies on.

Every Cholesky factor here is potrf(a.T, lower=1) with potrs(..., lower=1),
and scipy.linalg is imported at the first factorization, so ``import
ffsparse`` does not load scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .blocks import BlockVector, norm_l21
from .frames import FusionFrame, incoherence, lambda_max
from .measurement import MeasurementEnsemble, noise_radius

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_l1_equality",
    "solve_l1_noisy",
    "solve_block_baseline",
    "orthogonal_closed_form",
    "relative_error",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls: tol bounds the relative primal residual, the
    relative dual residual and the relative duality gap."""

    max_iter: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.tol < math.inf:  # NaN fails
            raise ValueError("tol must be a finite positive number")


@dataclass
class SolveReport:
    """Outcome of one solve."""

    x_hat: BlockVector
    objective: float
    constraint_residual: float
    iterations: int
    converged: bool
    wall_time: float = 0.0
    polish_attempts: int = 0  # polishes tried, the certified one included


def relative_error(x_hat: BlockVector, x_true: BlockVector) -> float:
    """||x_hat - x||_2 / ||x||_2, falling back to ||x_hat||_2 for x = 0."""
    diff = float(np.linalg.norm(x_hat.blocks - x_true.blocks))
    denom = float(np.linalg.norm(x_true.blocks))
    return diff / denom if denom > 0 else float(np.linalg.norm(x_hat.blocks))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array; same bits as np.linalg.norm."""
    return math.sqrt(v @ v)


def _svd_parts(matrix: np.ndarray, cutoff: float = 1e-15):
    """(U_r, sigma_r, V_r^T, null) from one SVD of ``matrix``, r the number
    of singular values above cutoff * sigma_max (by default np.linalg.pinv's
    cutoff), and the rows of ``null`` an orthonormal basis of the null space:
    V^T is square, with full U only when the matrix is wide."""
    rows, cols = matrix.shape
    u, sing, vt = np.linalg.svd(matrix, full_matrices=rows < cols)
    rank = int(np.count_nonzero(sing > cutoff * sing.max()))
    return u[:, :rank], sing[:rank], vt[:rank], vt[rank:]


# the smallest reciprocal condition estimate of a factor that gives c0 in
# place of the SVD: the Gram squares the condition number of M, so the Gram
# route admits M up to a condition number of about 1e4, where one refinement
# step brings c0 to the accuracy of the SVD route; the QR route, whose R1 has
# the condition number of M, admits it up to about 1e8, well clear of the
# SVD's rank cutoff
_MIN_RCOND = 1e-8


def _gram_solution(gram: np.ndarray, rhs: np.ndarray, matrix: np.ndarray,
                   b: np.ndarray) -> Optional[np.ndarray]:
    """pinv(M) b for a tall M of full column rank, from a Cholesky factor of
    its Gram M^T M and rhs = M^T b, with one step of iterative refinement on
    the residual b - M c.  None when the factorization fails or LAPACK's
    condition estimate of the Gram is below _MIN_RCOND."""
    import scipy.linalg

    potrf, potrs, pocon = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "pocon"), (gram,))
    chol, info = potrf(gram.T, lower=1, clean=0)
    if info != 0:
        return None
    rcond, info = pocon(chol, float(np.abs(gram).sum(axis=0).max()), uplo="L")
    if info != 0 or not rcond >= _MIN_RCOND:
        return None
    c = potrs(chol, rhs, lower=1)[0]
    return c + potrs(chol, matrix.T @ (b - matrix @ c), lower=1)[0]


def _qr_parametrization(matrix: np.ndarray, b: np.ndarray):
    """(c0, B, R1) for a wide M of full row rank, from a Householder QR M^T
    = Q [R1; 0]: M = R1^T Q1^T, so c0 = Q [R1^-T b; 0] = pinv(M) b and B =
    Q [0; I] spans the null space, both from one application of the
    reflectors; R1 is returned as the leading rows of geqrf's output, whose
    upper triangle is R1.  None when LAPACK's reciprocal condition estimate
    of R1 (that of M) is below _MIN_RCOND, rank-deficient M included."""
    import scipy.linalg

    rows, cols = matrix.shape
    geqrf, ormqr, trcon, trtrs = scipy.linalg.get_lapack_funcs(
        ("geqrf", "ormqr", "trcon", "trtrs"), (matrix,))
    qr, tau = geqrf(matrix.T, lwork=int(geqrf(matrix.T, lwork=-1)[2][0]))[:2]
    r1 = qr[:rows]
    rcond, info = trcon(r1)
    if info != 0 or not rcond >= _MIN_RCOND:
        return None
    coords = np.zeros((cols, cols - rows + 1), order="F")  # [c0, B] in the basis Q
    coords[:rows, 0] = trtrs(r1, b, trans=1)[0]
    coords[rows:, 1:] = np.eye(cols - rows)
    lwork = int(ormqr("L", "N", qr, tau, coords, -1)[1][0])
    c0_basis = ormqr("L", "N", qr, tau, coords, lwork, overwrite_c=1)[0]
    return c0_basis[:, 0], np.ascontiguousarray(c0_basis[:, 1:]), r1


def _equality_parametrization(ensemble: MeasurementEnsemble, y: BlockVector, b: np.ndarray):
    """(c0, B, polish) of the equality program's feasible set by the first
    route that applies: the SVD of scale A when all subspaces share one
    basis, the guarded Gram route for a tall coefficient matrix M, the
    guarded QR route for a wide one, and the SVD of M.  ``polish`` is
    ``_equality_polish`` on the route's own operator and factor, None on the
    Gram route, which takes no steps."""
    bases, k = ensemble.frame.bases, ensemble.frame.dim_subspace
    if (bases == bases[0]).all():
        # M = scale (A kron U): M_S and M^T lam from A, and the least-squares
        # lam0 with M^T lam0 = -zeta from the SVD of scale A, since
        # pinv(scale A^T kron U^T) = pinv(scale A^T) kron U
        basis, scaled = bases[0], ensemble.scale * ensemble.matrix
        u, sing, vt, null = _svd_parts(scaled)
        c0 = vt.T @ ((u.T @ (y.blocks @ basis)).T / sing).T
        return c0.ravel(), np.kron(null.T, np.eye(k)), _equality_polish(
            b, k, lambda active: np.kron(scaled[:, active], basis),
            lambda lam: (scaled.T @ lam.reshape(-1, basis.shape[0]) @ basis).ravel(),
            lambda zeta: -(u @ ((vt @ zeta.reshape(-1, k)).T / sing).T @ basis.T).ravel())
    matrix = ensemble.coefficient_matrix()

    def dense_polish(fit):
        return _equality_polish(b, k, lambda active: matrix[:, np.repeat(active, k)],
                                lambda lam: matrix.T @ lam, fit)

    if matrix.shape[0] >= matrix.shape[1]:
        c0 = _gram_solution(ensemble.gram(), ensemble.coefficient_adjoint(y), matrix, b)
        if c0 is not None:
            return c0, np.empty((c0.size, 0)), None
    else:
        parametrization = _qr_parametrization(matrix, b)
        if parametrization is not None:
            import scipy.linalg

            c0, basis, r1 = parametrization
            trtrs = scipy.linalg.get_lapack_funcs("trtrs", (r1,))
            # M M^T = R1^T R1: lam0 = -(M M^T)^-1 M zeta by two triangular solves
            return c0, basis, dense_polish(
                lambda zeta: -trtrs(r1, trtrs(r1, matrix @ zeta, trans=1)[0])[0])
    # c0 = pinv(M) b, and lam0 = -pinv(M^T) zeta as on the first route
    u, sing, vt, null = _svd_parts(matrix)
    return (vt.T @ ((u.T @ b) / sing), np.ascontiguousarray(null.T),
            dense_polish(lambda zeta: -(u @ ((vt @ zeta) / sing))))


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

    def max_step(self, lam, scale):
        """The function d -> the largest alpha with lam + alpha d in the
        cones (inf if none bounds it), for lam inside them with Jordan norms
        ``scale``: a Lorentz transformation takes lam / scale to the
        identity, where the step to the boundary is 1 / (||y1|| - y0) for
        the transformed direction y.  What depends on lam alone is computed
        here, once for every direction."""
        own, starts, tail = self.owner, self.starts, self.tail
        unit = lam / scale[own]
        junit = self.sign * unit
        inv_head = 1.0 / (unit[starts] + 1.0)

        def to_boundary(d):
            y0 = np.add.reduceat(junit * d, starts)
            y1 = (d - ((y0 + d[starts]) * inv_head)[own] * unit) * tail
            worst = float(((np.sqrt(np.add.reduceat(y1 * y1, starts)) - y0) / scale).max())
            return 1.0 / worst if worst > 0 else math.inf

        return to_boundary


# Mehrotra's centering exponent, the share of the step to the boundary taken,
# and the factor spread max L_ii / min L_ii from which the corrector is refined
_CENTERING_EXPONENT = 3
_STEP_SHARE = 0.99
_REFINE_SPREAD = 1e4


class _Solution(NamedTuple):
    """What ``_group_socp`` returns: the point, the interior-point steps
    taken, whether it converged, the polish attempts, and the multiplier of
    a certified polish (lam of an equality polish, None otherwise)."""

    c: np.ndarray
    iterations: int
    converged: bool
    polish_attempts: int = 0
    multiplier: Optional[np.ndarray] = None


def _group_socp(c0: np.ndarray, basis: Optional[np.ndarray], block_len: int,
                cfg: SolverConfig, polish, matrix: Optional[np.ndarray] = None,
                b: Optional[np.ndarray] = None, radius: float = 0.0,
                gram: Optional[np.ndarray] = None) -> _Solution:
    """min sum_j ||c_j||_2 over c = c0 + basis @ w, or, given a matrix and
    its Gram matrix^T matrix (the ball program, basis None for B = I),
    subject to ||matrix @ c - b||_2 <= radius.  ``polish(c, z)``, z the
    dual point, returns a certified (point, multiplier) or None: the
    program's ``_equality_polish`` or ``_ball_polish``.

    Variables x = (w, t); the cone constraints are s = h - G x in the cone
    product, s_j = (t_j, c_j) per group and s_ball = (radius, M c - b).
    The dual variables z_j have first entry 1 at every dual-feasible point.
    """
    import scipy.linalg

    n, k = c0.size, block_len
    n_groups = n // k
    q = n if basis is None else basis.shape[1]
    if q == 0:
        return _Solution(c0, 0, True)
    ball = matrix is not None
    ng = n_groups * (k + 1)  # length of the group cones' part
    cones = _Cones(np.array([k + 1] * n_groups + ([matrix.shape[0] + 1] if ball else [])))
    own, sign, e = cones.owner, cones.sign, cones.e
    heads = cones.starts[:n_groups]
    tails = np.arange(ng).reshape(n_groups, k + 1)[:, 1:].ravel()
    n_cones = cones.starts.size
    if ball:
        mt = matrix.T
        newton_matrix = _ball_newton_matrix(n_groups, k)
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
    # and z_ball = (zeta, 0): dual feasible, with every eigenvalue of a group
    # cone's s o z in [nu, 3 nu].  The ball's slack head is the radius, or
    # twice the residual norm once that reaches half the radius (primal
    # infeasible then); zeta sets the smaller eigenvalue of the ball cone's
    # s o z to sum_j t_j, the group cones' total s^T z, and its larger one
    # to at most 3 sum_j t_j
    w = np.zeros(q)
    if ball:
        chol = gram.copy()
        chol.flat[:: n + 1] += 1e-10 * max(float(np.trace(gram)) / n, 1e-300)
        chol, info = potrf(chol.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            w = potrs(chol, mt @ (b - matrix @ c0), lower=1)[0]
    c = c0 + expand(w)
    norms = np.sqrt(np.add.reduce(c.reshape(n_groups, k) ** 2, axis=1))
    nu = max(float(norms.max()), 1e-300)
    t = norms + nu
    s = h + lift(c - c0, t)
    z = e.copy()
    if ball:
        off = _norm(s[ng + 1:])
        s[ng] = radius if off < 0.5 * radius else 2.0 * off
        z[ng] = float(t.sum()) / (s[ng] - off)

    converged, attempts = False, 0
    # a step tries the polish once the gap is below sqrt(tol) of the
    # objective, never later than the step that meets the stopping test
    polish_gap = max(math.sqrt(cfg.tol), cfg.tol)
    for it in range(cfg.max_iter + 1):
        c = c0 + expand(w)
        r_z = s - h - lift(c - c0, t)
        zw, zt = lift_t(z)
        r_w, r_t = -zw, 1.0 - zt
        gap = float(s @ z)
        if gap <= polish_gap * float(t.sum()):
            attempts += 1
            certified = polish(c, z)
            if certified is not None:
                return _Solution(certified[0], it, True, attempts, certified[1])
        if (_norm(r_z) <= cfg.tol * h_norm
                and math.hypot(_norm(r_w), _norm(r_t)) <= cfg.tol * q_norm
                and gap <= cfg.tol * float(t.sum())):
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
        jv_scaled, sign_scaled = 2.0 * jv / beta_e, sign / beta_e

        def unscale(x):
            return jv_scaled * cones.dot(jv, x)[own] - sign_scaled * x

        lam = beta_e * (2.0 * v * cones.dot(v, z)[own] - sign * z)
        # the Jordan norm of lam = W z is sqrt(jnorm(s) jnorm(z))
        max_step = cones.max_step(lam, np.sqrt(ns * nz))

        # reduced Newton matrix: t_j is eliminated through the Schur
        # complement D_j = (I - 2 w1 w1^T / ||wb||^2) / beta^2 of W_j^-2
        wg = wb[:ng].reshape(n_groups, k + 1)
        w0, w1 = wg[:, 0], wg[:, 1:]
        norm2 = np.add.reduce(wg * wg, axis=1)
        bg2 = beta[:n_groups] ** 2
        q00 = norm2 / bg2
        rho = (-2.0 * w0 / norm2)[:, None] * w1
        if ball:  # B = I: M^T W_ball^-2 M = (M^T M + 2 g g^T) / beta^2 plus the D_j blocks
            blocks = (-2.0 / (norm2 * bg2))[:, None, None] * (w1[:, :, None] * w1[:, None, :])
            blocks += np.eye(k) / bg2[:, None, None]
            g = mt @ wb[ng + 1:]
        else:
            b3 = basis.reshape(n_groups, k, q)
            a = 2.0 / (np.sqrt(norm2) * (np.sqrt(norm2) + 1.0))
            sbasis = (b3 - (a[:, None] * w1)[:, :, None] * (w1[:, None, :] @ b3)) \
                / beta[:n_groups, None, None]
            sbasis = sbasis.reshape(n, q)

        def build():
            return newton_matrix(gram, g, beta[-1] ** 2, blocks) if ball else sbasis.T @ sbasis

        chol, info = potrf(build().T, lower=1, clean=0, overwrite_a=1)
        shifted = info != 0
        if shifted:
            # near the optimum the scales of D_j drift apart until rounding
            # makes the matrix indefinite: rebuild it, shift its diagonal by
            # the size of that rounding and leave the rest to the refinement
            hess = build()
            hess.flat[:: q + 1] += q * np.finfo(float).eps * hess.diagonal().max()
            chol, info = potrf(hess.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            break
        diagonal = chol.diagonal()
        refine = shifted or diagonal.max() >= _REFINE_SPREAD * diagonal.min()

        def solve_reduced(rhs_w, rhs_t, r_z=None):
            """(dw, dt, W^-1 ds, -G dx) from the right-hand sides of the
            reduced system, with ds = -G dx - r_z (-G dx when r_z is None)."""
            rhs_c = (rho * rhs_t[:, None]).ravel()
            rhs_w = rhs_w - (rhs_c if basis is None else basis.T @ rhs_c)
            dw = potrs(chol, rhs_w, lower=1)[0]
            dc = expand(dw)
            dt = rhs_t / q00 - np.add.reduce(rho * dc.reshape(n_groups, k), axis=1)
            lifted = lift(dc, dt)
            return dw, dt, unscale(lifted if r_z is None else lifted - r_z), lifted

        scaled_r_z = unscale(r_z)  # W^-1 r_z, shared by the predictor and the corrector

        def newton(xi, refine=False):
            """One Newton solve on the step's residuals, returned as (dw, dt,
            W^-1 ds, W dz, -G dx), with ``refine`` one step of iterative
            refinement on G^T dz = -r_x, whose residuals r_z and xi are zero,
            so it enters after the lift."""
            uw, ut = lift_t(unscale(scaled_r_z + xi))
            dw, dt, ds, lifted = solve_reduced(uw - r_w, ut - r_t, r_z)
            dz = xi - ds
            if not refine:
                return dw, dt, ds, dz, lifted
            gw, gt = lift_t(unscale(dz))
            cw, ct, cs, c_lifted = solve_reduced(gw - r_w, gt - r_t)
            return dw + cw, dt + ct, ds + cs, dz - cs, lifted + c_lifted

        # the predictor only sets the step length, hence sigma, and the
        # second-order term, so it goes unrefined, and so does the corrector
        # unless the factor may be inaccurate; the residuals are recomputed
        # from the iterate at every step
        _, _, ds_a, dz_a, _ = newton(-lam)
        step = min(1.0, max_step(ds_a), max_step(dz_a))
        sigma = (1.0 - step) ** _CENTERING_EXPONENT
        mu = gap / n_cones
        xi = cones.inverse_circ(lam, sigma * mu * e - cones.circ(ds_a, dz_a)) - lam
        dw, dt, ds, dz, lifted = newton(xi, refine)
        step = min(1.0, _STEP_SHARE * min(max_step(ds), max_step(dz)))
        w_new = w + step * dw
        t_new = t + step * dt
        s_new = s + step * (lifted - r_z)
        z_new = z + step * unscale(dz)
        if not (np.isfinite(w_new).all() and np.isfinite(s_new).all()
                and np.isfinite(z_new).all() and np.isfinite(t_new).all()):
            break
        w, t, s, z = w_new, t_new, s_new, z_new
    return _Solution(c, it, converged, attempts)


def _ball_newton_matrix(n_groups: int, k: int):
    """The writer of the ball program's Newton matrix into a C-ordered n x n
    buffer (n = n_groups k) allocated once per solve.  write(gram, g, beta2,
    blocks) puts D + (M^T M + 2 g g^T) / beta2, D the block diagonal of the
    (n_groups, k, k) ``blocks``, into the buffer's upper triangle (the one
    potrf(out.T, lower=1) factors) and returns the buffer: one pass writes
    gram / beta2, BLAS syr adds the rank-one term and a strided view of the
    diagonal blocks adds D."""
    import scipy.linalg

    n = n_groups * k
    out = np.empty((n, n))
    syr = scipy.linalg.get_blas_funcs("syr", (out,))
    step = out.itemsize
    diagonal = np.lib.stride_tricks.as_strided(
        out, (n_groups, k, k), ((n + 1) * k * step, n * step, step), writeable=True)

    def write(gram: np.ndarray, g: np.ndarray, beta2: float, blocks: np.ndarray) -> np.ndarray:
        np.multiply(gram, 1.0 / beta2, out=out)
        syr(2.0 / beta2, g, lower=1, a=out.T, overwrite_a=1)
        diagonal[...] += blocks
        return out

    return write


_POLISH_STEPS = 8


def _newton(x: np.ndarray, system) -> Optional[np.ndarray]:
    """Newton's method from x on system(x) = (f, step), ``step()`` giving
    the Newton step J^-1 f at x, or None when the Jacobian J is singular.
    It stops one step after the residual max |f| first falls below 1e-10,
    where quadratic convergence reaches rounding and any later step only
    reshuffles it, and gives up once the residual grows tenfold past its
    first value (a wrong active set), at a singular Jacobian, or at the last
    of _POLISH_STEPS points.  Returns the point with the smallest residual
    when that is at most 1e-10, else None."""
    best, best_x = math.inf, None
    for step in range(_POLISH_STEPS):
        f, newton_step = system(x)
        size = float(np.abs(f).max())
        if step == 0:
            first = size
        done = best <= 1e-10
        if size < best:
            best, best_x = size, x
        if done or not size <= 10.0 * first or step == _POLISH_STEPS - 1:
            break
        dx = newton_step()
        if dx is None:
            break
        x = x - dx
    return best_x if best <= 1e-10 else None


def _norm_hessian(unit: np.ndarray, block_norms: np.ndarray) -> np.ndarray:
    """The diagonal blocks (I - u_j u_j^T) / ||c_j|| of the Hessian of
    sum_j ||c_j||, from the unit blocks u_j and the norms, as (groups, k, k)."""
    k = unit.shape[1]
    return (np.eye(k) - unit[:, :, None] * unit[:, None, :]) / block_norms[:, None, None]


def _polish(c: np.ndarray, k: int, slack: np.ndarray, on_active):
    """The active-set rule of both polishes: ``on_active(active)`` on the
    groups whose block norm, relative to the largest, exceeds their dual
    slack, so a small block whose dual score is clearly below 1 is dropped
    and one whose score is above 1 kept; when that fails and the groups
    above 1e-6 of the largest block norm differ from it, the one retry takes
    them.  Returns a certified (point, multiplier) or None."""
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    active = norms / norms.max() > slack
    certified = on_active(active)
    retry = norms > 1e-6 * norms.max()
    if certified is None and (retry != active).any():
        certified = on_active(retry)
    return certified


def _ball_polish(matrix: np.ndarray, b: np.ndarray, radius: float, k: int):
    """The ball program's polish hook: ``_newton_on_active`` on the groups
    of ``_polish``, with the multiplier nu read from the ball cone's dual
    head, z_ball = (nu radius, -nu r) at the optimum (r = M c - b), and
    group j's dual slack 1 - nu ||M_j^T r||."""

    def polish(c, z):
        nu = z[c.size // k * (k + 1)] / radius  # the head of z_ball, after the N group cones
        slack = 1.0 - nu * np.linalg.norm((matrix.T @ (matrix @ c - b)).reshape(-1, k), axis=1)
        return _polish(c, k, slack,
                       lambda active: _newton_on_active(c, matrix, b, radius, k, nu, active))

    return polish


def _newton_on_active(c: np.ndarray, matrix: np.ndarray, b: np.ndarray, radius: float,
                      k: int, nu: float, active: np.ndarray):
    """Newton's method (``_newton``) on the optimality conditions of the
    ball program over the given active groups: c_j / ||c_j|| + nu M_j^T r
    = 0 and ||r|| = radius, with r = M c - b and the multiplier nu > 0.
    Returns (point, None), inactive groups exactly 0, when the point meets
    every condition, nu ||M_j^T r|| <= 1 off the active groups included,
    else None."""
    cols = np.flatnonzero(np.repeat(active, k))
    sub = matrix[:, cols]
    gram = sub.T @ sub
    idx = np.arange(cols.size).reshape(-1, k)
    jac = np.zeros((cols.size + 1, cols.size + 1))  # rewritten in place but its 0 corner

    def system(x):
        blocks = x[:-1].reshape(-1, k)
        block_norms = np.linalg.norm(blocks, axis=1)
        unit = blocks / block_norms[:, None]
        r = sub @ x[:-1] - b
        g = sub.T @ r

        f = np.append(unit.ravel() + x[-1] * g, 0.5 * (r @ r / radius**2 - 1.0))

        def newton_step():
            np.multiply(gram, x[-1], out=jac[:-1, :-1])
            jac[idx[:, :, None], idx[:, None, :]] += _norm_hessian(unit, block_norms)
            jac[:-1, -1] = g
            jac[-1, :-1] = g / radius**2
            try:
                return np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                return None

        return f, newton_step

    best_x = _newton(np.append(c[cols], nu), system)
    if best_x is None or best_x[-1] <= 0:
        return None
    polished = np.zeros(c.size)
    polished[cols] = best_x[:-1]
    r = matrix @ polished - b
    off = np.linalg.norm((matrix.T @ r).reshape(-1, k)[~active], axis=1)
    if not (best_x[-1] * off <= 1.0).all():
        return None
    return polished, None


def _equality_polish(b: np.ndarray, k: int, restrict, adjoint, fit):
    """The equality program's polish hook on a route's operator:
    ``_equality_on_active`` on the groups of ``_polish``, with zeta the
    group cones' dual tails, group j's dual slack 1 - ||zeta_j||, and lam0
    = ``fit(zeta)``, the least-squares fit of M^T lam0 = -zeta from the
    factor the route holds.  ``restrict(active)`` is M_S and
    ``adjoint(lam)`` is M^T lam."""

    def polish(c, z):
        zeta = z.reshape(-1, k + 1)[:, 1:].ravel()
        lam0 = fit(zeta)
        return _polish(c, k, 1.0 - np.linalg.norm(zeta.reshape(-1, k), axis=1),
                       lambda active: _equality_on_active(c, b, k, restrict, adjoint, lam0, active))

    return polish


def _equality_on_active(c: np.ndarray, b: np.ndarray, k: int, restrict, adjoint,
                        lam0: np.ndarray, active: np.ndarray):
    """The minimizer of sum_j ||c_j|| subject to M_S c_S = b over the
    given active groups S, and a multiplier lam that certifies it optimal
    for the whole program.

    One SVD of M_S (rank cutoff max(shape) eps sigma_max, as
    np.linalg.matrix_rank) gives the least-norm c_p, the consistency check
    ||M_S c_p - b|| and an orthonormal basis N of null(M_S), so tall, wide
    and rank-deficient M_S take one path.  Newton's method (``_newton``)
    minimizes sum_S ||c_j|| over c_S = c_p + N v from the iterate's
    projection: gradient N^T u and Hessian N^T H N, u the unit blocks and H
    the blocks of ``_norm_hessian``, factored by Cholesky; a failed factor
    (at k = 1, where H = 0) ends the iteration.  The multiplier is lam0
    plus the least change with M_S^T lam = u.  The point is certified from
    what is returned, every residual recomputed: ||u - M_S^T lam||_inf and
    ||M_S c_S - b||_inf at most 1e-10, every block on S nonzero and
    ||M_j^T lam|| <= 1 off S; then it is optimal, as lam is a dual point
    with M_j^T lam = c_j / ||c_j|| on S."""
    if not active.any():
        return None
    cols = np.flatnonzero(np.repeat(active, k))
    sub = restrict(active)
    u, sing, vt, null = _svd_parts(sub, max(sub.shape) * np.finfo(float).eps)
    c_p = vt.T @ ((u.T @ b) / sing)
    if not np.abs(sub @ c_p - b).max() <= 1e-10:
        return None
    c_s = c_p
    if null.shape[0]:
        import scipy.linalg

        q = null.shape[0]
        null3 = null.T.reshape(-1, k, q)
        potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (null,))

        def system(v):
            blocks = (c_p + null.T @ v).reshape(-1, k)
            block_norms = np.linalg.norm(blocks, axis=1)
            unit = blocks / block_norms[:, None]
            gradient = null @ unit.ravel()

            def newton_step():  # the Hessian is symmetric positive semidefinite
                hess = null @ (_norm_hessian(unit, block_norms) @ null3).reshape(-1, q)
                chol, info = potrf(hess.T, lower=1, clean=0, overwrite_a=1)
                return potrs(chol, gradient, lower=1)[0] if info == 0 else None

            return gradient, newton_step

        v = _newton(null @ c[cols], system)
        if v is None:
            return None
        c_s = c_p + null.T @ v
    block_norms = np.linalg.norm(c_s.reshape(-1, k), axis=1)
    if not (block_norms > 0).all():
        return None
    unit = (c_s.reshape(-1, k) / block_norms[:, None]).ravel()
    lam = lam0 + u @ ((vt @ (unit - sub.T @ lam0)) / sing)
    if not (np.abs(unit - sub.T @ lam).max() <= 1e-10 and np.abs(sub @ c_s - b).max() <= 1e-10):
        return None
    polished = np.zeros(c.size)
    polished[cols] = c_s
    if not (np.linalg.norm(adjoint(lam).reshape(-1, k)[~active], axis=1) <= 1.0).all():
        return None
    return polished, lam


def _solve(ensemble: MeasurementEnsemble, y: BlockVector, config: Optional[SolverConfig],
           radius: Optional[float] = None) -> SolveReport:
    """Check and time one solve, run the equality program (the ball program
    when a positive ``radius`` is given) on the coefficient matrix and
    report it, with the residual of the expanded estimate, scale A X - Y.
    The block baseline is this equality program over the identity frame."""
    cfg = config or SolverConfig()
    ensemble.check_measurements(y)
    t0 = time.perf_counter()
    frame, block_len = ensemble.frame, ensemble.frame.dim_subspace
    size, b = ensemble.n * block_len, y.to_flat()
    radius = radius or 0.0
    # c = 0 is optimal when it is feasible; radius 0 is the equality program,
    # and a ball of radius at most sqrt(tol) ||b|| starts from its optimum
    solution = _Solution(np.zeros(size), 0, _norm(b) <= radius)
    if not solution.converged and radius <= math.sqrt(cfg.tol) * _norm(b):
        c0, basis, polish = _equality_parametrization(ensemble, y, b)
        solution = _group_socp(c0, basis, block_len, cfg, polish)
        if radius > 0.0:
            solution = _tiny_ball(ensemble, b, radius, cfg, solution)
    if radius > 0.0 and not solution.converged:  # the ball program, counting the steps spent above
        matrix = ensemble.coefficient_matrix()
        ball = _group_socp(np.zeros(size), None, block_len, cfg,
                           _ball_polish(matrix, b, radius, block_len), matrix, b, radius,
                           ensemble.gram())
        solution = ball._replace(
            iterations=solution.iterations + ball.iterations,
            polish_attempts=solution.polish_attempts + ball.polish_attempts)
    x_hat = frame.expand(BlockVector(solution.c.reshape(ensemble.n, block_len)))
    misfit = ensemble.scale * (ensemble.matrix @ x_hat.blocks) - y.blocks
    return SolveReport(
        x_hat=x_hat,
        objective=norm_l21(x_hat),
        constraint_residual=max(0.0, float(np.linalg.norm(misfit)) - radius),
        iterations=solution.iterations,
        converged=solution.converged,
        wall_time=time.perf_counter() - t0,
        polish_attempts=solution.polish_attempts,
    )


def _tiny_ball(ensemble: MeasurementEnsemble, b: np.ndarray, radius: float, cfg: SolverConfig,
               solution: _Solution) -> _Solution:
    """The equality program's ``solution`` moved into a ball whose radius is
    at most sqrt(tol) ||b||, where the rounding of M c - b is a sizeable
    part of the radius and the ball's own steps stall.

    For every dual point lam (||M_j^T lam|| <= 1 for all j), every c' in the
    ball has sum_j ||c'_j|| >= lam^T M c' >= lam^T b - radius ||lam||, so a
    point of the ball whose objective exceeds that bound by at most tol of
    itself is tol-optimal.  From the certified equality optimum c on its
    groups S, two such pairs are tried: c moved into the ball along
    -lam_S, lam_S = pinv(M_S^T) u the least-norm multiplier on S (u the unit
    blocks), which the ball optimum follows to first order in the radius,
    so the bound holds to second order; then c itself with the polish's
    multiplier.  Each multiplier is scaled into the dual set and every
    quantity is recomputed.  The returned solution is converged only when a
    pair passes; otherwise it carries the steps and attempts spent, and the
    ball program runs."""
    if solution.multiplier is None:
        return solution._replace(converged=False)
    k, matrix = ensemble.frame.dim_subspace, ensemble.coefficient_matrix()
    c = solution.c
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    cols = np.flatnonzero(np.repeat(norms > 0, k))
    u, sing, vt, _ = _svd_parts(matrix[:, cols])
    lam = u @ ((vt @ (c[cols] / np.repeat(norms[norms > 0], k))) / sing)
    target = -(1.0 - 1e-6) * radius / _norm(lam) * lam  # the moved point's residual
    moved = c.copy()
    moved[cols] += vt.T @ ((u.T @ (target - (matrix @ c - b))) / sing)
    for point, multiplier in ((moved, lam), (c, solution.multiplier)):
        multiplier = multiplier / max(1.0, float(np.linalg.norm(
            (matrix.T @ multiplier).reshape(-1, k), axis=1).max()))
        objective = float(np.linalg.norm(point.reshape(-1, k), axis=1).sum())
        bound = float(multiplier @ b) - radius * _norm(multiplier)
        if _norm(matrix @ point - b) <= radius and objective - bound <= cfg.tol * objective:
            return solution._replace(c=point)
    return solution._replace(converged=False)


def solve_l1_equality(ensemble: MeasurementEnsemble, y: BlockVector,
                      config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the (2,1)-norm subject to exact agreement with the projected
    measurements, over signals with blocks in their subspaces."""
    return _solve(ensemble, y, config)


def solve_l1_noisy(ensemble: MeasurementEnsemble, y: BlockVector, eta: float,
                   config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the (2,1)-norm subject to the measurement residual staying
    within the noise ball of radius ``noise_radius(eta, m)``."""
    return _solve(ensemble, y, config, radius=noise_radius(eta, ensemble.m))


def solve_block_baseline(ensemble: MeasurementEnsemble, y: BlockVector,
                         config: Optional[SolverConfig] = None) -> SolveReport:
    """Block-sparsity baseline: same objective and measurements but blocks
    range over all of R^d, with no subspace knowledge: the equality program
    on the same matrix over the identity frame (every U_j = I_d)."""
    d = ensemble.frame.dim_ambient
    identity = FusionFrame(np.broadcast_to(np.eye(d), (ensemble.n, d, d)))
    plain = MeasurementEnsemble(ensemble.matrix, ensemble.kind, identity, ensemble.seed)
    return _solve(plain, y, config)


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
    return BlockVector(projected / coeffs[:, None])
