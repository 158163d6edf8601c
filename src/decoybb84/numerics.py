"""Scalar kernels shared by the whole toolkit.

Entropy functions, concentration deviations (Hoeffding / sampling-without-
replacement), Poisson photon-number statistics and the intensity posterior.
All functions are pure and operate on plain floats; everything else in the
package builds on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import ConfigError

# Type aliases; validation happens at the call sites that own the values.
Probability = float
Intensity = float


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances (double precision throughout)."""

    intensity_prob_sum: float = 1e-12  # sum of intensity probabilities vs 1
    distribution_sum: float = 1e-9     # generic probability vector vs 1
    posterior_sum: float = 1e-12       # posterior normalization check
    detection_sum: float = 1e-9        # detections vs block size, relative
    term_breakdown: float = 1e-9       # key-length term bookkeeping


TOL = Tolerances()

# Photon-number support truncation. The Poisson tail above 30 is < 1e-30 for
# mu <= 1; residual mass is folded into the top bin wherever spectra are built.
MAX_PHOTON_NUMBER = 30

# Above this occupancy the Poisson pmf is evaluated in log space to avoid
# factorial overflow (the simulator needs tails).
_LOG_SPACE_M = 20


def binary_entropy(x: float) -> float:
    r"""Truncated binary entropy.

    .. math::

        h(x) = -x \log_2 x - (1 - x)\log_2(1 - x) \quad (0 \le x \le 0.5),
        \qquad h(x) = 1 \quad (x > 0.5),

    with the convention :math:`0 \log 0 := 0`, so ``h(0) = 0``.
    """
    if x < 0.0:
        raise ValueError(f"binary entropy needs x >= 0, got {x}")
    if x > 0.5:
        return 1.0
    if x == 0.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def hoeffding_delta(n: float, eps: float) -> float:
    r"""Deviation radius :math:`\delta(n, \epsilon) = \sqrt{(n/2)\ln(1/\epsilon)}`.

    A sum of ``n`` independent [0, 1] variables deviates from its expectation
    by more than this radius with probability at most ``eps`` (one-sided).
    """
    if n <= 0:
        raise ValueError(f"hoeffding_delta needs n >= 1, got {n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"hoeffding_delta needs 0 < eps < 1, got {eps}")
    return math.sqrt(0.5 * n * math.log(1.0 / eps))


def serfling_gamma(a: float, b: float, c: float) -> float:
    r"""Sampling-without-replacement correction

    .. math::

        \gamma(a, b, c) = \sqrt{\frac{b + c}{b c}\,\frac{c + 1}{c}\,\ln\frac{1}{a}} ,

    relating an error rate observed on a ``c``-sized sample to the rate on the
    disjoint ``b``-sized remainder; the true rate exceeds the observed one by
    more than gamma with probability at most ``a``. Decreasing in ``b`` and ``c``.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"serfling_gamma needs 0 < a < 1, got {a}")
    if b <= 0 or c <= 0:
        raise ValueError(f"serfling_gamma needs positive sample sizes, got b={b}, c={c}")
    return math.sqrt((b + c) / (b * c) * (c + 1.0) / c * math.log(1.0 / a))


def poisson_pmf(k: Intensity, m: int) -> Probability:
    r"""Poisson occupancy probability :math:`e^{-k} k^m / m!` for mean ``k``."""
    if m < 0:
        raise ValueError(f"photon number must be >= 0, got {m}")
    if k < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {k}")
    if k == 0.0:
        return 1.0 if m == 0 else 0.0
    if m > _LOG_SPACE_M:
        return math.exp(-k + m * math.log(k) - math.lgamma(m + 1.0))
    return math.exp(-k) * k**m / math.factorial(m)


IntensityList = Sequence[Tuple[Probability, Intensity]]


def _check_intensity_probs(intensities: IntensityList) -> None:
    total = math.fsum(p for p, _ in intensities)
    if abs(total - 1.0) > TOL.intensity_prob_sum:
        raise ConfigError(f"intensity probabilities sum to {total}, expected 1")


def tau_m(intensities: IntensityList, m: int) -> Probability:
    r"""Average probability of emitting exactly ``m`` photons,
    :math:`\tau_m = \sum_k p_k e^{-k} k^m / m!`, over the intensity choices."""
    _check_intensity_probs(intensities)
    return math.fsum(p * poisson_pmf(k, m) for p, k in intensities)


def intensity_posterior(intensities: IntensityList, m: int, k: Intensity) -> Probability:
    r"""Probability that intensity ``k`` was chosen given an ``m``-photon emission:
    :math:`p_{k|m} = p_k e^{-k} k^m / (m!\, \tau_m)`."""
    tau = tau_m(intensities, m)
    if tau == 0.0:
        raise ValueError(f"posterior undefined: tau_{m} = 0 for these intensities")
    for p, kk in intensities:
        if kk == k:
            return p * poisson_pmf(kk, m) / tau
    raise ValueError(f"intensity {k} not in the configured set")


def entropy_comparison(dist: Sequence[float]) -> Tuple[float, float]:
    """Shannon entropy and min-entropy (bits) of a discrete distribution.

    Returns ``(-sum p log2 p, -log2 max p)``. The min-entropy only sees the
    most likely outcome and is never larger than the Shannon entropy.
    """
    if len(dist) == 0:
        raise ValueError("empty distribution")
    if any(p < 0.0 for p in dist):
        raise ValueError("probabilities must be nonnegative")
    total = math.fsum(dist)
    if abs(total - 1.0) > TOL.distribution_sum:
        raise ValueError(f"distribution sums to {total}, expected 1")
    shannon = -math.fsum(p * math.log2(p) for p in dist if p > 0.0)
    min_entropy = -math.log2(max(dist))
    return shannon, min_entropy


def spiked_uniform_entropies(top_mass: float, num_outcomes: float) -> Tuple[float, float]:
    """Closed form of ``entropy_comparison`` for a spiked distribution: one
    outcome carries ``top_mass``, the remaining ``num_outcomes - 1`` share the
    rest uniformly. Evaluates analytically so huge supports (e.g. 2**64
    outcomes) never get materialized.
    """
    if not 0.0 < top_mass <= 1.0:
        raise ValueError(f"top mass must be in (0, 1], got {top_mass}")
    if num_outcomes < 2:
        raise ValueError("need at least two outcomes")
    rest = 1.0 - top_mass
    if rest == 0.0:
        return 0.0, 0.0
    tail_p = rest / (num_outcomes - 1.0)
    shannon = -top_mass * math.log2(top_mass) - rest * math.log2(tail_p)
    min_entropy = -math.log2(max(top_mass, tail_p))
    return shannon, min_entropy
