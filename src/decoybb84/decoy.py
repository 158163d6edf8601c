"""Decoy-state bound engine.

Converts observed per-intensity detection and error counts into statistical
bounds on the unobservable photon-number-resolved quantities: lower/upper
bounds on vacuum events, a lower bound on single-photon events, an upper
bound on single-photon errors and an upper bound on the single-photon QBER.
Two intensity levels give the 1-decoy variant, three give the 2-decoy
variant; the two differ only in the bound formulas and the epsilon ledger.
``decoy_bounds`` is the entry point: it picks the bound set of the mode.

Bounds are computed in real arithmetic and never rounded. Lower count
intervals are clipped at zero before entering composite expressions and every
final bound is clipped to its physical range again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from .errors import ConfigError, EstimateUnavailable
from .numerics import TOL, hoeffding_delta, tau_m

BASES = ("Z", "X")

# Sentinel for letting the engine pick the vacuum-upper-bound intensity.
AUTO = "auto"


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

    def tau(self, m: int) -> float:
        return tau_m(self.pairs(), m)


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


def vacuum_lower_1decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""Lower bound on the number of vacuum events in the block,

    .. math::

        s_0^- = \frac{\tau_0}{\mu_1 - \mu_2}
            \left( \frac{\mu_1 e^{\mu_2} n_{\mu_2}^-}{p_{\mu_2}}
                 - \frac{\mu_2 e^{\mu_1} n_{\mu_1}^+}{p_{\mu_1}} \right),

    clipped to [0, block size]. Failure budget: eps_n_minus(mu2) + eps_n_plus(mu1).
    """
    if intens.mode != "1decoy":
        raise ConfigError("vacuum_lower_1decoy needs exactly two intensities")
    mu1, mu2 = intens.values
    p1, p2 = intens.probabilities
    _, n1_plus = _n_bounds(stats, ledger, 0)
    n2_minus, _ = _n_bounds(stats, ledger, 1)
    tau0 = intens.tau(0)
    raw = tau0 / (mu1 - mu2) * (
        mu1 * math.exp(mu2) * n2_minus / p2 - mu2 * math.exp(mu1) * n1_plus / p1
    )
    return _clip(raw, 0.0, stats.block_size)


def vacuum_upper_1decoy(
    stats: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
    k_choice: Union[str, int] = AUTO,
) -> Tuple[float, int]:
    r"""Upper bound on the number of vacuum events,

    .. math::

        s_0^+ = 2\left( \frac{c_k^+ \tau_0 e^{k}}{p_k}
                        + \delta(N_b, \epsilon^{v,+}) \right),

    clipped to [0, block size], where k is either intensity. ``k_choice`` is
    an intensity index or ``"auto"`` to keep the smaller bound. Returns the
    bound and the index actually used. Budget: eps_v_plus + eps_c_plus(k).
    """
    if intens.mode != "1decoy":
        raise ConfigError("vacuum_upper_1decoy needs exactly two intensities")
    _require_post_ec(stats, "vacuum upper bound")
    tau0 = intens.tau(0)
    delta_v = _delta(stats.block_size, ledger.v_plus[stats.basis])

    def bound_for(idx: int) -> float:
        mu = intens.values[idx]
        p = intens.probabilities[idx]
        raw = 2.0 * (_c_plus(stats, ledger, idx) * tau0 * math.exp(mu) / p + delta_v)
        return _clip(raw, 0.0, stats.block_size)

    if k_choice == AUTO:
        candidates = [(bound_for(i), i) for i in range(2)]
        return min(candidates)
    idx = int(k_choice)
    if idx not in (0, 1):
        raise ConfigError(f"k_choice must be an intensity index or 'auto', got {k_choice!r}")
    return bound_for(idx), idx


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
    tau0 = intens.tau(0)
    tau1 = intens.tau(1)
    raw = mu1 * tau1 / (mu2 * (mu1 - mu2)) * (
        math.exp(mu2) * n2_minus / p2
        - (mu2**2 / mu1**2) * math.exp(mu1) * n1_plus / p1
        - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / tau0
    )
    return _clip(raw, 0.0, stats.block_size)


def error_upper_1decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""Upper bound on the number of single-photon errors,

    .. math::

        v_1^+ = \frac{\tau_1}{\mu_1 - \mu_2}
            \left( \frac{e^{\mu_1} c_{\mu_1}^+}{p_{\mu_1}}
                 - \frac{e^{\mu_2} c_{\mu_2}^-}{p_{\mu_2}} \right),

    clipped to [0, block size]. Budget: eps_c_plus(mu1) + eps_c_minus(mu2).
    """
    if intens.mode != "1decoy":
        raise ConfigError("error_upper_1decoy needs exactly two intensities")
    _require_post_ec(stats, "single-photon error upper bound")
    mu1, mu2 = intens.values
    p1, p2 = intens.probabilities
    tau1 = intens.tau(1)
    raw = tau1 / (mu1 - mu2) * (
        math.exp(mu1) * _c_plus(stats, ledger, 0) / p1
        - math.exp(mu2) * _c_minus(stats, ledger, 1) / p2
    )
    return _clip(raw, 0.0, stats.block_size)


def phase_error_upper(v1_upper: float, s1_lower_x: float) -> float:
    """Upper bound on the single-photon QBER in the monitoring basis,
    ``v1_upper / s1_lower_x`` clipped to [0, 1]. A vanished single-photon
    estimate leaves the ratio undefined and the protocol must abort."""
    if s1_lower_x <= 0.0:
        raise EstimateUnavailable("abort: no single-photon estimate")
    return _clip(v1_upper / s1_lower_x, 0.0, 1.0)


def _lambda_bound(v1_upper: float, s1_lower_x: float) -> Tuple[Optional[float], Optional[str]]:
    """(lambda_upper, abort_reason): the phase-error bound, or None with the
    reason when no single-photon estimate survives."""
    try:
        return phase_error_upper(v1_upper, s1_lower_x), None
    except EstimateUnavailable as exc:
        return None, str(exc)


def delta_ci_1decoy(ledger: EpsilonLedger, k_min_z: int, k_min_x: int) -> float:
    """Total failure budget of the 1-decoy bound set: the ten-term sum over
    every concentration inequality used, duplicates across bounds already
    coalesced (an inequality that holds, holds everywhere it appears)."""
    terms = (
        ledger.n_minus["Z"][1],
        ledger.n_plus["Z"][0],
        ledger.c_plus["Z"][k_min_z],
        ledger.v_plus["Z"],
        ledger.c_plus["X"][k_min_x],
        ledger.v_plus["X"],
        ledger.n_minus["X"][1],
        ledger.n_plus["X"][0],
        ledger.c_plus["X"][0],
        ledger.c_minus["X"][1],
    )
    return math.fsum(terms)


def delta_ci_2decoy(ledger: EpsilonLedger) -> float:
    """Total failure budget of the 2-decoy bound set (twelve-term sum)."""
    terms = (
        ledger.n_minus["Z"][1],
        ledger.n_plus["Z"][2],
        ledger.n_plus["Z"][0],
        ledger.n_minus["Z"][2],
        ledger.n_plus["Z"][1],
        ledger.n_minus["X"][1],
        ledger.n_plus["X"][2],
        ledger.n_plus["X"][0],
        ledger.n_minus["X"][2],
        ledger.n_plus["X"][1],
        ledger.c_plus["X"][1],
        ledger.c_minus["X"][2],
    )
    return math.fsum(terms)


def _basis_bounds_1decoy(
    stats: BasisStats, intens: Intensities, ledger: EpsilonLedger
) -> Tuple[float, float, float, int]:
    """(s0_lower, s0_upper, s1_lower, k_min index) for one basis."""
    s0_lower = vacuum_lower_1decoy(stats, intens, ledger)
    s0_upper, k_idx = vacuum_upper_1decoy(stats, intens, ledger)
    s1_lower = single_lower_1decoy(stats, intens, ledger, s0_upper)
    return s0_lower, s0_upper, s1_lower, k_idx


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
    if stats_z.basis == stats_x.basis:
        raise ConfigError("bounds need one Z-basis and one X-basis statistic")
    b = ledger
    if stats_z.block_size <= 0 or stats_x.block_size <= 0:
        return DecoyBounds(
            mode="1decoy", s0_lower=0.0, s0_upper=0.0, s1_lower=0.0,
            x_s0_upper=0.0, x_s1_lower=0.0, v1_upper=0.0, lambda_upper=None,
            delta_ci=delta_ci_1decoy(b, 0, 0),
            abort_reason="abort: empty block",
        )

    s0l, s0u, s1l, kz = _basis_bounds_1decoy(stats_z, intens, ledger)
    xs0l, xs0u, xs1l, kx = _basis_bounds_1decoy(stats_x, intens, ledger)
    v1u = error_upper_1decoy(stats_x, intens, ledger)
    lam, abort_reason = _lambda_bound(v1u, xs1l)

    bz = stats_z.basis
    bx = stats_x.basis
    budget_s0u = b.v_plus[bz] + b.c_plus[bz][kz]
    budget_s1l = b.n_minus[bz][1] + b.n_plus[bz][0] + budget_s0u
    budget_xs0u = b.v_plus[bx] + b.c_plus[bx][kx]
    budget_xs1l = b.n_minus[bx][1] + b.n_plus[bx][0] + budget_xs0u
    budget_v1u = b.c_plus[bx][0] + b.c_minus[bx][1]
    budgets = {
        "s0_lower": b.n_minus[bz][1] + b.n_plus[bz][0],
        "s0_upper": budget_s0u,
        "s1_lower": budget_s1l,
        "x_s0_upper": budget_xs0u,
        "x_s1_lower": budget_xs1l,
        "v1_upper": budget_v1u,
        "lambda_upper": budget_v1u + budget_xs1l,
    }
    return DecoyBounds(
        mode="1decoy",
        s0_lower=s0l,
        s0_upper=s0u,
        s1_lower=s1l,
        x_s0_upper=xs0u,
        x_s1_lower=xs1l,
        v1_upper=v1u,
        lambda_upper=lam,
        delta_ci=delta_ci_1decoy(ledger, kz, kx),
        k_min_z=intens.values[kz],
        k_min_x=intens.values[kx],
        budgets=budgets,
        abort_reason=abort_reason,
    )


def vacuum_lower_2decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""2-decoy vacuum lower bound, built from the two weakest intensities:

    .. math::

        s_0^- = \frac{\tau_0}{\mu_2 - \mu_3}
            \left( \frac{\mu_2 e^{\mu_3} n_{\mu_3}^-}{p_{\mu_3}}
                 - \frac{\mu_3 e^{\mu_2} n_{\mu_2}^+}{p_{\mu_2}} \right).

    Budget: eps_n_minus(mu3) + eps_n_plus(mu2).
    """
    if intens.mode != "2decoy":
        raise ConfigError("vacuum_lower_2decoy needs exactly three intensities")
    _, mu2, mu3 = intens.values
    _, p2, p3 = intens.probabilities
    _, n2_plus = _n_bounds(stats, ledger, 1)
    n3_minus, _ = _n_bounds(stats, ledger, 2)
    tau0 = intens.tau(0)
    raw = tau0 / (mu2 - mu3) * (
        mu2 * math.exp(mu3) * n3_minus / p3 - mu3 * math.exp(mu2) * n2_plus / p2
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
    tau0 = intens.tau(0)
    tau1 = intens.tau(1)
    denom = mu1 * (mu2 - mu3) - (mu2**2 - mu3**2)
    raw = mu1 * tau1 / denom * (
        math.exp(mu2) * n2_minus / p2
        - math.exp(mu3) * n3_plus / p3
        + (mu2**2 - mu3**2) / mu1**2 * (s0_lower / tau0 - math.exp(mu1) * n1_plus / p1)
    )
    return _clip(raw, 0.0, stats.block_size)


def error_upper_2decoy(stats: BasisStats, intens: Intensities, ledger: EpsilonLedger) -> float:
    r"""2-decoy single-photon error upper bound,

    .. math::

        v_1^+ = \frac{\tau_1}{\mu_2 - \mu_3}
            \left( \frac{e^{\mu_2} c_{\mu_2}^+}{p_{\mu_2}}
                 - \frac{e^{\mu_3} c_{\mu_3}^-}{p_{\mu_3}} \right).

    Budget: eps_c_plus(mu2) + eps_c_minus(mu3).
    """
    if intens.mode != "2decoy":
        raise ConfigError("error_upper_2decoy needs exactly three intensities")
    _, mu2, mu3 = intens.values
    _, p2, p3 = intens.probabilities
    tau1 = intens.tau(1)
    raw = tau1 / (mu2 - mu3) * (
        math.exp(mu2) * _c_plus(stats, ledger, 1) / p2
        - math.exp(mu3) * _c_minus(stats, ledger, 2) / p3
    )
    return _clip(raw, 0.0, stats.block_size)


def bounds_2decoy(
    stats_z: BasisStats,
    stats_x: BasisStats,
    intens: Intensities,
    ledger: EpsilonLedger,
) -> DecoyBounds:
    """Full 2-decoy bound set. No vacuum upper bound is needed (the
    single-photon bound consumes the vacuum lower bound instead) and key-basis
    error counts are never used, so acceptance may precede error correction."""
    if stats_z.basis == stats_x.basis:
        raise ConfigError("bounds need one Z-basis and one X-basis statistic")
    b = ledger
    if stats_z.block_size <= 0 or stats_x.block_size <= 0:
        return DecoyBounds(
            mode="2decoy", s0_lower=0.0, s0_upper=None, s1_lower=0.0,
            x_s0_upper=None, x_s1_lower=0.0, v1_upper=0.0, lambda_upper=None,
            delta_ci=delta_ci_2decoy(b),
            abort_reason="abort: empty block",
        )

    s0l = vacuum_lower_2decoy(stats_z, intens, ledger)
    s1l = single_lower_2decoy(stats_z, intens, ledger, s0l)
    xs0l = vacuum_lower_2decoy(stats_x, intens, ledger)
    xs1l = single_lower_2decoy(stats_x, intens, ledger, xs0l)
    v1u = error_upper_2decoy(stats_x, intens, ledger)
    lam, abort_reason = _lambda_bound(v1u, xs1l)

    bz, bx = stats_z.basis, stats_x.basis

    def n_budget(basis: str) -> float:
        return (
            b.n_minus[basis][1] + b.n_plus[basis][2] + b.n_plus[basis][0]
            + b.n_minus[basis][2] + b.n_plus[basis][1]
        )

    budget_v1u = b.c_plus[bx][1] + b.c_minus[bx][2]
    budgets = {
        "s0_lower": b.n_minus[bz][2] + b.n_plus[bz][1],
        "s1_lower": n_budget(bz),
        "x_s0_lower": b.n_minus[bx][2] + b.n_plus[bx][1],
        "x_s1_lower": n_budget(bx),
        "v1_upper": budget_v1u,
        "lambda_upper": budget_v1u + n_budget(bx),
    }
    return DecoyBounds(
        mode="2decoy",
        s0_lower=s0l,
        s0_upper=None,
        s1_lower=s1l,
        x_s0_upper=None,
        x_s1_lower=xs1l,
        v1_upper=v1u,
        lambda_upper=lam,
        delta_ci=delta_ci_2decoy(ledger),
        budgets=budgets,
        abort_reason=abort_reason,
    )


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
