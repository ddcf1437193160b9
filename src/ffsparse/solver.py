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

- equality program (M c = b): c0 = pinv(M) b and an orthonormal basis B of
  the null space of M, so every iterate satisfies M c = b as exactly as c0
  does; with an empty null space no iteration runs.  When every subspace
  has the same basis U, M = scale (A kron U) and one SVD of scale A gives
  both, with M's rank cutoff; the block baseline, the equality program over
  the identity frame (U_j = I_d), takes this route and never builds M.
  Otherwise a tall M (m d >= N k) takes c0 from a Cholesky factor of its
  Gram and B empty, and a wide one a Householder QR M^T = Q [R1; 0] whose
  reflectors, applied to [R1^-T b, 0; 0, I], give c0 and B without forming
  Q; each factor is used only when LAPACK's reciprocal condition estimate
  of it is at least 1e-8 (Bjorck 1996, "Numerical Methods for Least Squares
  Problems").  Otherwise, rank-deficient operators included, one SVD of M
  gives c0 and B with np.linalg.pinv's rank cutoff;
- ball program (||M c - b|| <= radius): c0 = 0 and B = I, plus the one cone
  of the residual ball, whose Newton matrices read M^T M from
  ``ensemble.gram()``.  Radius 0 is the equality program.  The start
  gives the ball cone the complementarity of all group cones together:
  the smaller eigenvalue of its s o z is sum_j t_j = sum_j s_j^T z_j.
  A radius of at most sqrt(tol) ||b|| is mostly rounding of M c - b, so
  such a ball is first solved through the equality program, whose
  certified optimum, moved into the ball, is returned when the duality
  bound shows it tol-optimal (``_tiny_ball``).

Both programs end at a certified polish (Ye 1992, "On the finite
convergence of interior-point algorithms for linear programming"; Mehrotra
& Ye 1993): once the duality gap is at most sqrt(tol) of the objective,
every step first tries Newton steps on the optimality conditions over the
iterate's active groups, read from its dual.  A polished point that meets
every condition to 1e-10, recomputed from the point, is optimal, so it ends
the solve, converged, at that step.  The ball polish (``_polish_ball``)
solves for the point and the ball multiplier.  The equality polish
(``_polish_equality``) minimizes sum_j ||c_j|| over M_S c_S = b, S the
active groups, by one SVD of M_S and Newton steps in its null space, and
certifies the point with a multiplier lam, M_j^T lam = c_j / ||c_j|| on S
and ||M_j^T lam|| <= 1 off it, fitted to the iterate's dual through the
factor its route holds: R1 on the QR route, the SVD of scale A on the
identical-subspace route.  The Gram route takes no steps and the SVD of M
has no polish.  A solve whose every attempt fails stops by the test below
and returns its iterate.

When ||b|| <= radius, c = 0 is feasible and optimal and no iteration runs.

Each Newton step eliminates every group's epigraph variable t_j in closed
form and factors one symmetric positive definite q x q matrix (q = columns
of B), B^T D B plus M^T E M for the ball, in place with one Cholesky; a
failed factorization rebuilds the matrix and retries with its diagonal
shifted.  Of its two solves, the predictor only sets the step length and
the second-order term and goes unrefined; the corrector gets one step of
iterative refinement only after that shift or when the factor's diagonal
spreads by 1e4 or more: then kappa >= 1e8 and kappa eps reaches the 1e-9
tolerance (Higham 2002, "Accuracy and Stability of Numerical Algorithms",
ch. 12).  A solve has converged when the primal residual relative to the
norm of the cone constraints' constant part, the dual residual relative to
the norm of the objective vector and the duality gap relative to the primal
objective are all at most one tolerance, ``SolverConfig.tol``.  ``iterations``
counts these interior-point steps.  A failed Cholesky factorization or a
non-finite step ends the solve with the last finite iterate and
converged=False.

Every Cholesky factor here is potrf(a.T, lower=1) with potrs(..., lower=1),
the triangle that single-threaded OpenBLAS factors faster (see README), and
scipy.linalg is imported at the first factorization, so ``import ffsparse``
does not load scipy.
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


def _affine_parametrization(matrix: np.ndarray, b: np.ndarray):
    """(c0, B) with {c0 + B w} = {c : M c = b} (the least-squares set when b
    is inconsistent): c0 = pinv(M) b and B (n x q) an orthonormal basis of
    the null space of M, from one SVD (``_svd_parts``).  ``b`` is one
    right-hand side or a matrix with one per column."""
    u, sing, vt, null = _svd_parts(matrix)
    return vt.T @ ((u.T @ b).T / sing).T, np.ascontiguousarray(null.T)


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


def _equality_parametrization(ensemble: MeasurementEnsemble, y: BlockVector,
                              matrix: Optional[np.ndarray], b: np.ndarray):
    """(c0, B, polish) of the equality program's feasible set by the first
    route that applies: the SVD of scale A when all subspaces share one
    basis, the guarded Gram route for a tall coefficient matrix M, the
    guarded QR route for a wide one, and the SVD of M.  ``polish(c, zeta)``
    is ``_polish_equality`` on the route's own operator and factor, None on
    the Gram route (no steps) and the SVD of M.  A ``matrix`` of None is the
    ensemble's M, built only when a route after the first needs it."""
    bases = ensemble.frame.bases
    if (bases == bases[0]).all():
        # M = scale (A kron U): M_S and M^T lam from A, and the least-squares
        # lam0 with M^T lam0 = -zeta from the SVD of scale A, since
        # pinv(scale A^T kron U^T) = pinv(scale A^T) kron U
        basis, scaled = bases[0], ensemble.scale * ensemble.matrix
        u, sing, vt, null = _svd_parts(scaled)
        c0 = vt.T @ ((u.T @ (y.blocks @ basis)).T / sing).T

        def polish(c, zeta):
            return _polish_equality(
                c, zeta, b, basis.shape[1],
                lambda active: np.kron(scaled[:, active], basis),
                lambda lam: (scaled.T @ lam.reshape(-1, basis.shape[0]) @ basis).ravel(),
                -(u @ ((vt @ zeta.reshape(-1, basis.shape[1])).T / sing).T @ basis.T).ravel())

        return c0.ravel(), np.kron(null.T, np.eye(basis.shape[1])), polish
    if matrix is None:
        matrix = ensemble.coefficient_matrix()
    if matrix.shape[0] >= matrix.shape[1]:
        c0 = _gram_solution(ensemble.gram(), ensemble.coefficient_adjoint(y), matrix, b)
        if c0 is not None:
            return c0, np.empty((c0.size, 0)), None
    else:
        parametrization = _qr_parametrization(matrix, b)
        if parametrization is not None:
            import scipy.linalg

            c0, basis, r1 = parametrization
            trtrs, k = scipy.linalg.get_lapack_funcs("trtrs", (r1,)), ensemble.frame.dim_subspace

            def polish(c, zeta):
                # M M^T = R1^T R1: lam0 = -(M M^T)^-1 M zeta by two triangular solves
                lam0 = -trtrs(r1, trtrs(r1, matrix @ zeta, trans=1)[0])[0]
                return _polish_equality(c, zeta, b, k,
                                        lambda active: matrix[:, np.repeat(active, k)],
                                        lambda lam: matrix.T @ lam, lam0)

            return c0, basis, polish
    return (*_affine_parametrization(matrix, b), None)


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
    taken, whether it converged, the polish attempts, and the multiplier
    lam of a certified equality polish (None otherwise)."""

    c: np.ndarray
    iterations: int
    converged: bool
    polish_attempts: int = 0
    multiplier: Optional[np.ndarray] = None


def _group_socp(c0: np.ndarray, basis: Optional[np.ndarray], block_len: int,
                cfg: SolverConfig, matrix: Optional[np.ndarray] = None,
                b: Optional[np.ndarray] = None, radius: float = 0.0,
                gram: Optional[np.ndarray] = None, polish=None) -> _Solution:
    """min sum_j ||c_j||_2 over c = c0 + basis @ w, or, given a matrix and
    its Gram matrix^T matrix (the ball program, basis None for B = I),
    subject to ||matrix @ c - b||_2 <= radius.  ``polish(c, zeta)`` is the
    equality program's ``_polish_equality`` on its route's operator, zeta
    the group cones' dual tails; the ball program polishes with
    ``_polish_ball``.

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
        if (ball or polish is not None) and gap <= polish_gap * float(t.sum()):
            attempts += 1
            if ball:
                # the ball multiplier: z_ball = (zeta, -zeta (M c - b) / radius) at the optimum
                polished = _polish_ball(c, matrix, b, radius, k, z[ng] / radius)
                if polished is not None:
                    return _Solution(polished, it, True, attempts)
            else:
                certified = polish(c, z[tails])
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


def _polish_ball(c: np.ndarray, matrix: np.ndarray, b: np.ndarray, radius: float,
                 block_len: int, nu: float) -> Optional[np.ndarray]:
    """Newton's method on the optimality conditions of the ball program over
    the groups active at c: c_j / ||c_j|| + nu M_j^T r = 0 and ||r|| = radius,
    with r = M c - b and the multiplier nu > 0.

    An interior-point iterate lies only about sqrt(gap) from the minimizer
    along the curved boundary of the ball, while these conditions are smooth
    wherever ||c_j|| > 0, so a few steps (``_newton``) reach the minimizer
    to rounding.  The active groups are read from the iterate's dual scores:
    a group is kept when its relative block norm exceeds its dual slack
    1 - nu ||M_j^T r||, so a small block whose score is clearly below 1 is
    dropped and one whose score is above 1 kept.  When that set fails, the
    one retry takes the groups above 1e-6 of the largest block norm.
    Returns the polished point, with inactive groups exactly 0, when it
    meets every optimality condition (nu ||M_j^T r|| <= 1 off the active
    groups included), else None."""
    k = block_len
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    slack = 1.0 - nu * np.linalg.norm((matrix.T @ (matrix @ c - b)).reshape(-1, k), axis=1)
    polished = _newton_on_active(c, matrix, b, radius, k, nu, norms / norms.max() > slack)
    if polished is None:
        polished = _newton_on_active(c, matrix, b, radius, k, nu, norms > 1e-6 * norms.max())
    return polished


def _newton_on_active(c: np.ndarray, matrix: np.ndarray, b: np.ndarray, radius: float,
                      k: int, nu: float, active: np.ndarray) -> Optional[np.ndarray]:
    """The Newton iteration of ``_polish_ball`` on the given active groups."""
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
    return polished


def _polish_equality(c: np.ndarray, zeta: np.ndarray, b: np.ndarray, block_len: int,
                     restrict, adjoint, lam0: np.ndarray):
    """The equality program's polish: the minimizer of sum_j ||c_j|| subject
    to M_S c_S = b over the groups S active at the iterate c, and a
    multiplier lam that certifies it optimal for the whole program.

    ``restrict(active)`` is M_S, ``adjoint(lam)`` is M^T lam, ``zeta`` the
    group cones' dual tails and ``lam0`` the least-squares fit of M^T lam0
    = -zeta, from the factor the route holds.  S is read from the dual
    scores as in ``_polish_ball``: group j is kept when ||c_j|| / max ||c||
    exceeds its dual slack 1 - ||zeta_j||; when that set fails, the one
    retry, if it differs, takes the groups above 1e-6 of the largest block
    norm.  Returns (c, lam) when ``_equality_on_active`` certifies the
    point, else None."""
    k = block_len
    norms = np.linalg.norm(c.reshape(-1, k), axis=1)
    active = norms / norms.max() > 1.0 - np.linalg.norm(zeta.reshape(-1, k), axis=1)
    certified = _equality_on_active(c, b, k, restrict, adjoint, lam0, active)
    retry = norms > 1e-6 * norms.max()
    if certified is None and (retry != active).any():
        certified = _equality_on_active(c, b, k, restrict, adjoint, lam0, retry)
    return certified


def _equality_on_active(c: np.ndarray, b: np.ndarray, k: int, restrict, adjoint,
                        lam0: np.ndarray, active: np.ndarray):
    """The polish of ``_polish_equality`` on the given active groups.

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
    if _norm(b) <= radius:  # c = 0 is feasible, so it is optimal
        solution = _Solution(np.zeros(size), 0, True)
    elif radius > 0.0:
        solution = _tiny_ball(ensemble, y, b, radius, cfg)
        if not solution.converged:  # the ball program, counting the steps spent above
            ball = _group_socp(np.zeros(size), None, block_len, cfg,
                               ensemble.coefficient_matrix(), b, radius, ensemble.gram())
            solution = ball._replace(
                iterations=solution.iterations + ball.iterations,
                polish_attempts=solution.polish_attempts + ball.polish_attempts)
    else:
        c0, basis, polish = _equality_parametrization(ensemble, y, None, b)
        solution = _group_socp(c0, basis, block_len, cfg, polish=polish)
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


def _tiny_ball(ensemble: MeasurementEnsemble, y: BlockVector, b: np.ndarray, radius: float,
               cfg: SolverConfig) -> _Solution:
    """The ball program through the equality program when the radius is at
    most sqrt(tol) ||b||, where the rounding of M c - b is a sizeable part
    of the radius and the ball's own steps stall.

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
    if not radius <= math.sqrt(cfg.tol) * _norm(b):
        return _Solution(None, 0, False)
    k, matrix = ensemble.frame.dim_subspace, ensemble.coefficient_matrix()
    c0, basis, polish = _equality_parametrization(ensemble, y, matrix, b)
    solution = _group_socp(c0, basis, k, cfg, polish=polish)
    if solution.multiplier is None:
        return solution._replace(converged=False)
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
