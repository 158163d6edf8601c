"""Decoy-state bound engine.

Converts observed per-intensity detection and error counts into statistical
bounds on the unobservable photon-number-resolved quantities: lower/upper
bounds on vacuum events, a lower bound on single-photon events, an upper
bound on single-photon errors and an upper bound on the single-photon QBER.
Two intensity levels give the 1-decoy variant, three give the 2-decoy
variant. Both take the vacuum lower bound and the single-photon error upper
bound from one formula each, on their two weakest intensities. Each has its
own single-photon lower bound: 1-decoy consumes a vacuum upper bound (a
formula of its own), 2-decoy the vacuum lower bound. Every bound's budget is
the sum of the ledger entries it rests on. ``decoy_bounds`` is the entry
point: it picks the bound set of the mode.

Bounds are computed in real arithmetic and never rounded. Lower count
intervals are clipped at zero before entering composite expressions and every
final bound is clipped to its physical range again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigError, EstimateUnavailable
from .numerics import TOL, hoeffding_delta, tau_m

BASES = ("Z", "X")


@dataclass(frozen=True)
class Intensities:
    """Ordered intensity levels mu_1 > mu_2 (> mu_3) with their emission
    probabilities. Two levels: requires mu_1 > mu_2 > 0. Three levels:
    requires mu_1 > mu_2 + mu_3 and mu_2 > mu_3 >= 0."""

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) not in (2, 3):
            raise ConfigError(f"need 2 or 3 intensity levels, got {len(self.values)}")
        if len(self.probabilities) != len(self.values):
            raise ConfigError("one probability per intensity level required")
        if any(not 0.0 < p < 1.0 for p in self.probabilities):
            raise ConfigError("intensity probabilities must lie in (0, 1)")
        if abs(math.fsum(self.probabilities) - 1.0) > TOL.intensity_prob_sum:
            raise ConfigError("intensity probabilities must sum to 1")
        mus = self.values
        if len(mus) == 2:
            if not mus[0] > mus[1] > 0.0:
                raise ConfigError(f"need mu1 > mu2 > 0, got {mus}")
        else:
            if not mus[1] > mus[2] >= 0.0:
                raise ConfigError(f"need mu2 > mu3 >= 0, got {mus}")
            if not mus[0] > mus[1] + mus[2]:
                raise ConfigError(f"need mu1 > mu2 + mu3, got {mus}")

    @property
    def mode(self) -> str:
        return "1decoy" if len(self.values) == 2 else "2decoy"

    def pairs(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self.probabilities, self.values))

    @cached_property
    def tau(self) -> Tuple[float, float]:
        """(tau_0, tau_1), computed once per instance."""
        return tau_m(self.pairs(), 0), tau_m(self.pairs(), 1)


@dataclass(frozen=True)
class BasisStats:
    """Per-basis block statistics: detections and errors per intensity.

    ``detections[i]`` and ``errors[i]`` refer to the i-th configured intensity.
    ``block_size`` is the number of block rounds (detections sum to it).
    ``errors_post_ec`` records that the error counts were taken by comparing
    the verified key against the sifted key, i.e. after error correction
    succeeded; key-basis bounds that consume error counts require it.
    """

    basis: str
    block_size: float
    detections: Tuple[float, ...]
    errors: Tuple[float, ...]
    errors_post_ec: bool = False

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise ConfigError(f"basis must be one of {BASES}, got {self.basis!r}")
        if len(self.detections) != len(self.errors):
            raise ConfigError("detections and errors must cover the same intensities")
        if any(c < 0 or n < 0 for c, n in zip(self.errors, self.detections)):
            raise ConfigError("counts must be nonnegative")
        if any(c > n for c, n in zip(self.errors, self.detections)):
            raise ConfigError("per-intensity errors cannot exceed detections")
        mismatch = abs(math.fsum(self.detections) - self.block_size)
        if mismatch > TOL.detection_sum * max(self.block_size, 1.0):
            raise ConfigError("per-intensity detections must sum to the block size")

    @property
    def total_errors(self) -> float:
        return math.fsum(self.errors)


def _uniform_map(eps: float, n: int) -> Dict[str, Tuple[float, ...]]:
    return {b: (eps,) * n for b in BASES}


@dataclass(frozen=True)
class EpsilonLedger:
    """Named failure probabilities for every concentration inequality used.

    Indexed like the intensity list: ``n_plus['Z'][i]`` is the failure budget
    for the upper detection-count deviation of the i-th intensity in the key
    basis. ``v_plus`` holds the vacuum-error deviation budget per basis.
    """

    n_minus: Dict[str, Tuple[float, ...]]
    n_plus: Dict[str, Tuple[float, ...]]
    c_minus: Dict[str, Tuple[float, ...]]
    c_plus: Dict[str, Tuple[float, ...]]
    v_plus: Dict[str, float]

    def __post_init__(self) -> None:
        for group in (self.n_minus, self.n_plus, self.c_minus, self.c_plus):
            for basis in BASES:
                if basis not in group:
                    raise ConfigError(f"ledger missing basis {basis}")
                if any(not 0.0 < e < 1.0 for e in group[basis]):
                    raise ConfigError("ledger entries must lie in (0, 1)")
        if any(not 0.0 < self.v_plus[b] < 1.0 for b in BASES):
            raise ConfigError("ledger entries must lie in (0, 1)")

    @classmethod
    def uniform(cls, eps: float, num_intensities: int) -> "EpsilonLedger":
        """All entries set to the same failure probability."""
        return cls(
            n_minus=_uniform_map(eps, num_intensities),
            n_plus=_uniform_map(eps, num_intensities),
            c_minus=_uniform_map(eps, num_intensities),
            c_plus=_uniform_map(eps, num_intensities),
            v_plus={b: eps for b in BASES},
        )


@dataclass(frozen=True)
class DecoyBounds:
    """Computed bounds with their failure budgets.

    ``s0_lower``/``s0_upper``/``s1_lower`` refer to the key basis,
    ``x_s1_lower``/``v1_upper``/``lambda_upper`` to the monitoring basis.
    ``s0_upper`` and the k_min choices only exist in 1-decoy mode.
    ``lambda_upper`` is None (with ``abort_reason`` set) when no single-photon
    estimate survives in the monitoring basis.
    """

    mode: str
    s0_lower: float
    s0_upper: Optional[float]
    s1_lower: float
    x_s0_upper: Optional[float]
    x_s1_lower: float
    v1_upper: float
    lambda_upper: Optional[float]
    delta_ci: float
    k_min_z: Optional[float] = None
    k_min_x: Optional[float] = None
    budgets: Dict[str, float] = field(default_factory=dict)
    abort_reason: Optional[str] = None


def _delta(n: float, eps: float) -> float:
    # Lenient wrapper for composite bounds: delta(0, eps) = 0 and
    # delta(n, 1) = 0 are the exact mathematical limits, but the strict kernel
    # rejects those inputs.
    if n <= 0 or eps >= 1.0:
        return 0.0
    return hoeffding_delta(n, eps)


def _clip(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def count_interval(
    n: float, total: float, eps_plus: float, eps_minus: float
) -> Tuple[float, float]:
    """Two-sided deviation interval for an observed count ``n`` out of a block
    of ``total`` rounds: ``(n - delta(total, eps_minus), n + delta(total,
    eps_plus))`` with the lower edge clipped at zero."""
    if n > total:
        raise ConfigError(f"count {n} exceeds block size {total}")
    lower = max(n - _delta(total, eps_minus), 0.0)
    upper = n + _delta(total, eps_plus)
    return lower, upper


def _n_bounds(stats: BasisStats, ledger: EpsilonLedger, idx: int) -> Tuple[float, float]:
    return count_interval(
        stats.detections[idx],
        stats.block_size,
        ledger.n_plus[stats.basis][idx],
        ledger.n_minus[stats.basis][idx],
    )


def _c_plus(stats: BasisStats, ledger: EpsilonLedger, idx: int) -> float:
    return stats.errors[idx] + _delta(stats.total_errors, ledger.c_plus[stats.basis][idx])


def _c_minus(stats: BasisStats, ledger: EpsilonLedger, idx: int) -> float:
    return max(stats.errors[idx] - _delta(stats.total_errors, ledger.c_minus[stats.basis][idx]), 0.0)


def _require_post_ec(stats: BasisStats, what: str) -> None:
    # Key-basis error counts are only meaningful once the verified key exists.
    if stats.basis == "Z" and not stats.errors_post_ec:
        raise ConfigError(
            f"{what} consumes key-basis error counts; stats must be flagged errors_post_ec"
        )


def _weakest_pair(intens: Intensities) -> Tuple[int, int]:
    # Indices (a, b) of the two weakest intensities, mu_a > mu_b.
    n = len(intens.values)
    return n - 2, n - 1


def vacuum_lower(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""Lower bound on the number of vacuum events in the block, taken on the
    two weakest intensities mu_a > mu_b,

    .. math::

        s_0^- = \frac{\tau_0}{\mu_a - \mu_b}
            \left( \frac{\mu_a e^{\mu_b} n_{\mu_b}^-}{p_{\mu_b}}
                 - \frac{\mu_b e^{\mu_a} n_{\mu_a}^+}{p_{\mu_a}} \right),

    clipped to [0, block size]. (mu_a, mu_b) is (mu_1, mu_2) in 1-decoy mode
    and (mu_2, mu_3) in 2-decoy mode. Failure budget: eps_n_minus(mu_b) +
    eps_n_plus(mu_a).
    """
    a, b = _weakest_pair(intens)
    mu_a, mu_b = intens.values[a], intens.values[b]
    p_a, p_b = intens.probabilities[a], intens.probabilities[b]
    _, na_plus = _n_bounds(stats, ledger, a)
    nb_minus, _ = _n_bounds(stats, ledger, b)
    tau0 = intens.tau[0]
    raw = tau0 / (mu_a - mu_b) * (
        mu_a * math.exp(mu_b) * nb_minus / p_b - mu_b * math.exp(mu_a) * na_plus / p_a
    )
    return _clip(raw, 0.0, stats.block_size)


def _vacuum_lower_terms(ledger: EpsilonLedger, basis: str, intens: Intensities) -> Tuple[float, ...]:
    a, b = _weakest_pair(intens)
    return ledger.n_minus[basis][b], ledger.n_plus[basis][a]


def vacuum_upper_1decoy(
    stats: BasisStats, intens: Intensities, ledger: EpsilonLedger
) -> Tuple[float, int]:
    r"""Upper bound on the number of vacuum events,

    .. math::

        s_0^+ = 2\left( \frac{c_k^+ \tau_0 e^{k}}{p_k}
                        + \delta(N_b, \epsilon^{v,+}) \right),

    clipped to [0, block size], where k is the intensity that gives the
    smaller bound. Returns the bound and the index of k. Budget: eps_v_plus +
    eps_c_plus(k).
    """
    if intens.mode != "1decoy":
        raise ConfigError("vacuum_upper_1decoy needs exactly two intensities")
    _require_post_ec(stats, "vacuum upper bound")
    tau0 = intens.tau[0]
    delta_v = _delta(stats.block_size, ledger.v_plus[stats.basis])

    def bound_for(idx: int) -> float:
        mu = intens.values[idx]
        p = intens.probabilities[idx]
        raw = 2.0 * (_c_plus(stats, ledger, idx) * tau0 * math.exp(mu) / p + delta_v)
        return _clip(raw, 0.0, stats.block_size)

    return min((bound_for(i), i) for i in range(2))


def single_lower_1decoy(
    stats: BasisStats, intens: Intensities, ledger: EpsilonLedger, s0_upper: float
) -> float:
    r"""Lower bound on the number of single-photon events,

    .. math::

        s_1^- = \frac{\mu_1 \tau_1}{\mu_2(\mu_1 - \mu_2)}
            \left( \frac{e^{\mu_2} n_{\mu_2}^-}{p_{\mu_2}}
                 - \frac{\mu_2^2}{\mu_1^2}\frac{e^{\mu_1} n_{\mu_1}^+}{p_{\mu_1}}
                 - \frac{\mu_1^2 - \mu_2^2}{\mu_1^2}\frac{s_0^+}{\tau_0} \right),

    clipped to [0, block size]. Monotone non-increasing in ``s0_upper``.
    Budget: eps_n_minus(mu2) + eps_n_plus(mu1) + budget(s0_upper).
    """
    if intens.mode != "1decoy":
        raise ConfigError("single_lower_1decoy needs exactly two intensities")
    if s0_upper < 0:
        raise ConfigError(f"s0_upper must be >= 0, got {s0_upper}")
    _require_post_ec(stats, "single-photon lower bound")
    mu1, mu2 = intens.values
    p1, p2 = intens.probabilities
    _, n1_plus = _n_bounds(stats, ledger, 0)
    n2_minus, _ = _n_bounds(stats, ledger, 1)
    tau0, tau1 = intens.tau
    raw = mu1 * tau1 / (mu2 * (mu1 - mu2)) * (
        math.exp(mu2) * n2_minus / p2
        - (mu2**2 / mu1**2) * math.exp(mu1) * n1_plus / p1
        - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / tau0
    )
    return _clip(raw, 0.0, stats.block_size)


def single_lower_2decoy(
    stats: BasisStats, intens: Intensities, ledger: EpsilonLedger, s0_lower: float
) -> float:
    r"""2-decoy single-photon lower bound,

    .. math::

        s_1^- = \frac{\mu_1 \tau_1}{\mu_1(\mu_2-\mu_3) - (\mu_2^2-\mu_3^2)}
            \left( \frac{e^{\mu_2} n_{\mu_2}^-}{p_{\mu_2}}
                 - \frac{e^{\mu_3} n_{\mu_3}^+}{p_{\mu_3}}
                 + \frac{\mu_2^2-\mu_3^2}{\mu_1^2}
                   \left( \frac{s_0^-}{\tau_0}
                        - \frac{e^{\mu_1} n_{\mu_1}^+}{p_{\mu_1}} \right) \right).

    Monotone non-decreasing in ``s0_lower``. Budget: the five detection-count
    deviations appearing above.
    """
    if intens.mode != "2decoy":
        raise ConfigError("single_lower_2decoy needs exactly three intensities")
    mu1, mu2, mu3 = intens.values
    p1, p2, p3 = intens.probabilities
    _, n1_plus = _n_bounds(stats, ledger, 0)
    n2_minus, _ = _n_bounds(stats, ledger, 1)
    _, n3_plus = _n_bounds(stats, ledger, 2)
    tau0, tau1 = intens.tau
    denom = mu1 * (mu2 - mu3) - (mu2**2 - mu3**2)
    raw = mu1 * tau1 / denom * (
        math.exp(mu2) * n2_minus / p2
        - math.exp(mu3) * n3_plus / p3
        + (mu2**2 - mu3**2) / mu1**2 * (s0_lower / tau0 - math.exp(mu1) * n1_plus / p1)
    )
    return _clip(raw, 0.0, stats.block_size)


def error_upper(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""Upper bound on the number of single-photon errors, taken on the two
    weakest intensities mu_a > mu_b,

    .. math::

        v_1^+ = \frac{\tau_1}{\mu_a - \mu_b}
            \left( \frac{e^{\mu_a} c_{\mu_a}^+}{p_{\mu_a}}
                 - \frac{e^{\mu_b} c_{\mu_b}^-}{p_{\mu_b}} \right),

    clipped to [0, block size]. (mu_a, mu_b) is (mu_1, mu_2) in 1-decoy mode
    and (mu_2, mu_3) in 2-decoy mode. Budget: eps_c_plus(mu_a) +
    eps_c_minus(mu_b).
    """
    _require_post_ec(stats, "single-photon error upper bound")
    a, b = _weakest_pair(intens)
    mu_a, mu_b = intens.values[a], intens.values[b]
    p_a, p_b = intens.probabilities[a], intens.probabilities[b]
    tau1 = intens.tau[1]
    raw = tau1 / (mu_a - mu_b) * (
        math.exp(mu_a) * _c_plus(stats, ledger, a) / p_a
        - math.exp(mu_b) * _c_minus(stats, ledger, b) / p_b
    )
    return _clip(raw, 0.0, stats.block_size)


def _error_upper_terms(ledger: EpsilonLedger, basis: str, intens: Intensities) -> Tuple[float, ...]:
    a, b = _weakest_pair(intens)
    return ledger.c_plus[basis][a], ledger.c_minus[basis][b]


def phase_error_upper(v1_upper: float, s1_lower_x: float) -> float:
    """Upper bound on the single-photon QBER in the monitoring basis,
    ``v1_upper / s1_lower_x`` clipped to [0, 1]. A vanished single-photon
    estimate leaves the ratio undefined and the protocol must abort."""
    if s1_lower_x <= 0.0:
        raise EstimateUnavailable("abort: no single-photon estimate")
    return _clip(v1_upper / s1_lower_x, 0.0, 1.0)


# One basis' bounds by name, with the k_min index chosen (None if the mode
# has no choice to make).
_BasisBounds = Tuple[Dict[str, float], Optional[int]]
_BasisTerms = Dict[str, Tuple[float, ...]]


def _basis_1decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> _BasisBounds:
    # The single-photon bound rests on s0_upper; _bound_set adds the key
    # basis' vacuum lower bound, the only one reported.
    s0_upper, k = vacuum_upper_1decoy(stats, intens, ledger)
    s1_lower = single_lower_1decoy(stats, intens, ledger, s0_upper)
    return {"s0_upper": s0_upper, "s1_lower": s1_lower}, k


def _terms_1decoy(
    ledger: EpsilonLedger, basis: str, intens: Intensities, k: Optional[int]
) -> _BasisTerms:
    s0_lower = _vacuum_lower_terms(ledger, basis, intens)
    s0_upper = (ledger.v_plus[basis], ledger.c_plus[basis][k])
    # single_lower_1decoy reads the same two detection counts as vacuum_lower.
    return {"s0_lower": s0_lower, "s0_upper": s0_upper, "s1_lower": s0_lower + s0_upper}


def _basis_2decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> _BasisBounds:
    s0_lower = vacuum_lower(stats, intens, ledger)
    s1_lower = single_lower_2decoy(stats, intens, ledger, s0_lower)
    return {"s0_lower": s0_lower, "s1_lower": s1_lower}, None


def _terms_2decoy(
    ledger: EpsilonLedger, basis: str, intens: Intensities, k: Optional[int]
) -> _BasisTerms:
    s0_lower = _vacuum_lower_terms(ledger, basis, intens)
    n_plus, n_minus = ledger.n_plus[basis], ledger.n_minus[basis]
    return {"s0_lower": s0_lower, "s1_lower": (n_plus[0], n_minus[1], n_plus[2]) + s0_lower}


def _bound_set(
    mode: str,
    stats_z: BasisStats,
    stats_x: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
    basis_bounds: Callable[[BasisStats, Intensities, EpsilonLedger], _BasisBounds],
    basis_terms: Callable[[EpsilonLedger, str, Intensities, Optional[int]], _BasisTerms],
) -> DecoyBounds:
    """A mode's full bound set: ``basis_bounds`` gives each basis' vacuum and
    single-photon bounds, ``basis_terms`` the ledger entries each of them
    rests on. A bound's budget is the sum of its entries. ``delta_ci`` is the
    sum of the entries behind s1_lower and lambda_upper: every other reported
    bound rests on a subset of them, and an inequality that holds, holds
    everywhere it appears."""
    if stats_z.basis == stats_x.basis:
        raise ConfigError("bounds need one Z-basis and one X-basis statistic")
    empty = stats_z.block_size <= 0 or stats_x.block_size <= 0
    if empty:
        # No estimate; Delta_ci is charged as if k_min were index 0.
        z, kz, x, kx = {}, 0, {}, 0
    else:
        z, kz = basis_bounds(stats_z, intens, ledger)
        x, kx = basis_bounds(stats_x, intens, ledger)
        if "s0_lower" not in z:
            z["s0_lower"] = vacuum_lower(stats_z, intens, ledger)

    terms = basis_terms(ledger, stats_z.basis, intens, kz)
    x_terms = basis_terms(ledger, stats_x.basis, intens, kx)
    if "s0_upper" in x_terms:
        terms["x_s0_upper"] = x_terms["s0_upper"]
    terms["x_s1_lower"] = x_terms["s1_lower"]
    terms["v1_upper"] = _error_upper_terms(ledger, stats_x.basis, intens)
    terms["lambda_upper"] = terms["v1_upper"] + terms["x_s1_lower"]
    delta_ci = math.fsum(terms["s1_lower"] + terms["lambda_upper"])

    if empty:
        s0_upper = 0.0 if "s0_upper" in terms else None
        return DecoyBounds(
            mode=mode, s0_lower=0.0, s0_upper=s0_upper, s1_lower=0.0,
            x_s0_upper=s0_upper, x_s1_lower=0.0, v1_upper=0.0, lambda_upper=None,
            delta_ci=delta_ci, abort_reason="abort: empty block",
        )
    v1_upper = error_upper(stats_x, intens, ledger)
    try:
        lambda_upper, abort_reason = phase_error_upper(v1_upper, x["s1_lower"]), None
    except EstimateUnavailable as exc:
        lambda_upper, abort_reason = None, str(exc)
    return DecoyBounds(
        mode=mode,
        s0_lower=z["s0_lower"],
        s0_upper=z.get("s0_upper"),
        s1_lower=z["s1_lower"],
        x_s0_upper=x.get("s0_upper"),
        x_s1_lower=x["s1_lower"],
        v1_upper=v1_upper,
        lambda_upper=lambda_upper,
        delta_ci=delta_ci,
        k_min_z=None if kz is None else intens.values[kz],
        k_min_x=None if kx is None else intens.values[kx],
        budgets={name: math.fsum(entries) for name, entries in terms.items()},
        abort_reason=abort_reason,
    )


def bounds_1decoy(
    stats_z: BasisStats,
    stats_x: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
) -> DecoyBounds:
    """Full 1-decoy bound set from both bases' observed statistics.

    The monitoring-basis single-photon lower bound reuses the key-basis
    formulas with the bases swapped. The total failure budget ``delta_ci`` is
    the ten-term ledger sum.
    """
    return _bound_set("1decoy", stats_z, stats_x, intens, ledger, _basis_1decoy, _terms_1decoy)


def bounds_2decoy(
    stats_z: BasisStats,
    stats_x: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
) -> DecoyBounds:
    """Full 2-decoy bound set. No vacuum upper bound is needed (the
    single-photon bound consumes the vacuum lower bound instead) and key-basis
    error counts are never used, so acceptance may precede error correction.
    The total failure budget ``delta_ci`` is the twelve-term ledger sum."""
    return _bound_set("2decoy", stats_z, stats_x, intens, ledger, _basis_2decoy, _terms_2decoy)


def decoy_bounds(
    stats_z: BasisStats,
    stats_x: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
) -> DecoyBounds:
    """The full bound set of the intensities' mode: ``bounds_1decoy`` for two
    levels, ``bounds_2decoy`` for three."""
    if intens.mode == "1decoy":
        return bounds_1decoy(stats_z, stats_x, intens, ledger)
    return bounds_2decoy(stats_z, stats_x, intens, ledger)
