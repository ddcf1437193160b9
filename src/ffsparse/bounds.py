"""Closed-form sample-complexity conditions and concentration tails.

Every recovery guarantee in this package has the shape "m measurements
suffice with probability 1 - eps provided m exceeds an incoherence-weighted
product of logarithms, up to an unspecified universal constant".  The
constant is always an explicit input defaulting to 1; experiments calibrate
it empirically.  Tail evaluators return probabilities capped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ComplexityEstimate",
    "m_nonuniform_bernoulli",
    "m_gaussian",
    "m_corollary",
    "m_submatrix",
    "m_cross_gram",
    "bernstein_matrix_tail",
    "bernstein_rect_tail",
    "bernstein_vector_tail",
    "gram_deviation_tail",
    "cross_image_tail",
    "gram_error_l2_tail",
    "gram_error_blockmax_tail",
    "cross_gram_tail",
    "complexity_table",
    "THEOREM_IDS",
]

@dataclass(frozen=True)
class ComplexityEstimate:
    """A required-m evaluation for one recovery statement."""

    theorem_id: str
    m_required: float
    inputs: dict = field(default_factory=dict)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def m_nonuniform_bernoulli(incoh_row_sum: float, n: int, s: int, k: int,
                           eps: float, const: float = 1.0) -> float:
    """Bernoulli fixed-support condition:
    const * (1 + row_sum) * ln(N) * ln(s k) * ln(1/eps)."""
    if n < 2 or s * k < 2:
        raise ValueError("need N >= 2 and s*k >= 2")
    _check_eps(eps)
    if not (const > 0 and incoh_row_sum >= 0):
        raise ValueError("const must be positive and the row sum nonnegative")
    return const * (1.0 + incoh_row_sum) * math.log(n) * math.log(s * k) * math.log(1.0 / eps)


def m_gaussian(max_coherence: float, n: int, s: int, k: int,
               eps: float, const: float = 1.0) -> float:
    """Gaussian fixed-support condition:
    const * (1 + lambda s) * ln^2(6 N k) * ln^2(1/eps)."""
    if n < 1 or s < 1 or k < 1:
        raise ValueError("need N, s, k >= 1")
    _check_eps(eps)
    if not (const > 0 and 0.0 <= max_coherence <= 1.0):
        raise ValueError("const must be positive and the coherence in [0, 1]")
    return const * (1.0 + max_coherence * s) * math.log(6 * n * k) ** 2 * math.log(1.0 / eps) ** 2


def m_corollary(max_coherence: float, n: int, s: int, k: int,
                eps: float, const: float = 1.0) -> float:
    """Max-coherence Bernoulli condition:
    const * (1 + lambda s) * ln(N s k) * ln(1/eps)."""
    if n * s * k < 2:
        raise ValueError("need N*s*k >= 2")
    _check_eps(eps)
    if not (const > 0 and 0.0 <= max_coherence <= 1.0):
        raise ValueError("const must be positive and the coherence in [0, 1]")
    return const * (1.0 + max_coherence * s) * math.log(n * s * k) * math.log(1.0 / eps)


def m_submatrix(incoh_row_rms_sub: float, incoh_spectral_sub: float, s: int, k: int,
                delta: float, eps: float) -> float:
    """Measurements ensuring the restricted Gram deviates from the identity
    by at most delta (with probability 1 - eps):
    delta^-2 * (2 rms^2 + (2/3) max(spectral, 1)) * ln(2 s k / eps)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_eps(eps)
    if s < 1 or k < 1:
        raise ValueError("need s, k >= 1")
    factor = 2.0 * incoh_row_rms_sub**2 + (2.0 / 3.0) * max(incoh_spectral_sub, 1.0)
    return factor * math.log(2 * s * k / eps) / delta**2


def m_cross_gram(incoh_row_rms: float, n: int, s: int, k: int, eps: float) -> float:
    """Measurements keeping every off-support cross-Gram column norm below 1
    (with probability 1 - eps): 6 * rms^2 * ln(N (s+1) k / eps)."""
    _check_eps(eps)
    if n < 1 or s < 1 or k < 1:
        raise ValueError("need N, s, k >= 1")
    return 6.0 * incoh_row_rms**2 * math.log(n * (s + 1) * k / eps)


def _exp_tail(prefactor: float, numerator: float, denominator: float) -> float:
    """prefactor * exp(-numerator / denominator), capped at 1; an infinite
    numerator, or a zero denominator with positive numerator, means a
    zero-probability event."""
    if not (numerator >= 0 and denominator >= 0 and prefactor >= 0):
        raise ValueError("tail inputs must be nonnegative")
    if numerator == math.inf:
        return 0.0
    if denominator == 0.0:
        return 0.0 if numerator > 0 else min(prefactor, 1.0)
    return min(prefactor * math.exp(-numerator / denominator), 1.0)


def bernstein_matrix_tail(sigma_sq: float, k_bound: float, t: float, rank: int) -> float:
    """Self-adjoint matrix Bernstein tail with rank-improved prefactor:
    2 r exp(-t^2/2 / (sigma^2 + K t / 3))."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return _exp_tail(2.0 * rank, t**2 / 2.0, sigma_sq + k_bound * t / 3.0)


def bernstein_rect_tail(sigma_sq: float, k_bound: float, t: float, d1: int, d2: int) -> float:
    """Rectangular matrix Bernstein tail:
    (d1 + d2) exp(-t^2/2 / (sigma^2 + K t / 3))."""
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be >= 1")
    return _exp_tail(float(d1 + d2), t**2 / 2.0, sigma_sq + k_bound * t / 3.0)


def bernstein_vector_tail(mean_sq: float, sigma_sq_sum: float, k_bound: float, t: float) -> float:
    """Vector Bernstein tail for the deviation above sqrt(E Z^2):
    exp(-t^2/2 / (M sigma^2 + 2 K sqrt(E Z^2) + t K / 3))."""
    if not mean_sq >= 0:
        raise ValueError("mean square must be nonnegative")
    denom = sigma_sq_sum + 2.0 * k_bound * math.sqrt(mean_sq) + t * k_bound / 3.0
    return _exp_tail(1.0, t**2 / 2.0, denom)


def gram_deviation_tail(m: int, delta: float, incoh_row_rms_sub: float,
                        incoh_spectral_sub: float, s: int, k: int) -> float:
    """Tail probability that the restricted Gram deviates from the identity
    by more than delta:
    2 s k exp(-delta^2 m / (2 rms^2 + (2/3) max(spectral, 1)))."""
    denom = 2.0 * incoh_row_rms_sub**2 + (2.0 / 3.0) * max(incoh_spectral_sub, 1.0)
    return _exp_tail(2.0 * s * k, delta**2 * m, denom)


def cross_image_tail(m: int, t: float, kappa: float, incoh_row_rms: float,
                     incoh_row_sum: float, n: int) -> float:
    """Tail for the largest off-support correlation with a fixed support
    image (blockwise norms of the input bounded by kappa):
    N exp(-t^2 m / (2 kappa^2 rms^2 + 4 kappa^2 row_sum + t kappa row_sum))."""
    denom = 2.0 * kappa**2 * incoh_row_rms**2 + 4.0 * kappa**2 * incoh_row_sum \
        + t * kappa * incoh_row_sum
    return _exp_tail(float(n), t**2 * m, denom)


def gram_error_l2_tail(m: int, t: float, incoh_row_rms_sub: float,
                       incoh_row_sum_sub: float) -> float:
    """Tail for the Euclidean norm of the restricted Gram error applied to a
    fixed unit vector, beyond rms/sqrt(m) + t:
    exp(-m t^2 / (8 + 4 row_sum + 2 rms^2 + t (4/3 + (2/3) row_sum)))."""
    denom = 8.0 + 4.0 * incoh_row_sum_sub + 2.0 * incoh_row_rms_sub**2 \
        + t * (4.0 / 3.0 + (2.0 / 3.0) * incoh_row_sum_sub)
    return _exp_tail(1.0, m * t**2, denom)


def gram_error_blockmax_tail(m: int, t: float, incoh_row_rms_sub: float,
                             incoh_row_sum_sub: float, s: int) -> float:
    """Blockwise-max version of the Gram error tail:
    s exp(-m t^2 / (4 row_sum + 2 rms^2 + (2/3) t row_sum))."""
    denom = 4.0 * incoh_row_sum_sub + 2.0 * incoh_row_rms_sub**2 \
        + (2.0 / 3.0) * t * incoh_row_sum_sub
    return _exp_tail(float(s), m * t**2, denom)


def cross_gram_tail(m: int, t: float, incoh_row_rms: float, n: int, s: int, k: int) -> float:
    """Tail for the largest off-support cross-Gram column norm (t < 3/2):
    2 (s+1) N k exp(-t^2 m / (3 rms^2))."""
    if not 0.0 < t < 1.5:
        raise ValueError("t must lie in (0, 3/2)")
    return _exp_tail(2.0 * (s + 1) * n * k, t**2 * m, 3.0 * incoh_row_rms**2)


# (id, required-m function, the incoherence input it reads) for the five
# statements of the form f(incoherence, N, s, k, eps, const); the noisy
# statements reuse the noiseless sample-size conditions
_STATEMENTS = (
    ("bernoulli_fixed_support", m_nonuniform_bernoulli, "incoh_row_sum"),
    ("gaussian_fixed_support", m_gaussian, "max_coherence"),
    ("bernoulli_max_coherence", m_corollary, "max_coherence"),
    ("bernoulli_noisy", m_nonuniform_bernoulli, "incoh_row_sum"),
    ("gaussian_noisy", m_gaussian, "max_coherence"),
)

THEOREM_IDS = tuple(sid for sid, _, _ in _STATEMENTS) + ("gram_conditioning", "cross_gram")


def complexity_table(n: int, s: int, k: int, eps: float, *, incoh_row_sum: float,
                     max_coherence: float, incoh_row_rms: float, incoh_row_rms_sub: float,
                     incoh_spectral_sub: float, const: float = 1.0,
                     delta: float = 0.5) -> list[ComplexityEstimate]:
    """Evaluate every required-m condition for one (frame, support) setting,
    in ``THEOREM_IDS`` order."""
    common = {"N": n, "s": s, "k": k, "eps": eps, "const": const}
    incoh = {"incoh_row_sum": incoh_row_sum, "max_coherence": max_coherence}
    rows = [ComplexityEstimate(sid, required(incoh[name], n, s, k, eps, const),
                               {**common, name: incoh[name]})
            for sid, required, name in _STATEMENTS]
    rows.append(ComplexityEstimate(
        "gram_conditioning",
        m_submatrix(incoh_row_rms_sub, incoh_spectral_sub, s, k, delta, eps),
        {**common, "incoh_row_rms_sub": incoh_row_rms_sub,
         "incoh_spectral_sub": incoh_spectral_sub, "delta": delta}))
    rows.append(ComplexityEstimate(
        "cross_gram", m_cross_gram(incoh_row_rms, n, s, k, eps),
        {**common, "incoh_row_rms": incoh_row_rms}))
    return rows
