"""Protocol-parameter search for maximal key rate.

The inner objective is fully analytic and deterministic: expected statistics
for the channel model (no Monte Carlo), acceptance thresholds placed a
configurable safety margin below the expected decoy bounds, then the key
length on the simplified budget split (or the best of several splits when
the split is tuned). Grid search and coordinate descent share the same
objective; Monte Carlo validation of a chosen operating point is a separate
step (see the simulator module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from .decoy import BasisStats, EpsilonLedger, Intensities, decoy_bounds
from .errors import ConfigError, EstimateUnavailable, NoAdmissibleKey
from .keylength import (
    BUDGET_GEOMETRY,
    AcceptanceSet,
    EpsilonBudget,
    key_length,
    leak_ec_estimate,
)
from .protocol import ObservedStats, ProtocolParams
from .simulator import ChannelModel

# Parameters a search space may expose, in the fixed sweep order.
SEARCHABLE = ("mu1", "mu2", "mu3", "p_mu1", "p_mu2", "p_z")


@dataclass(frozen=True)
class ParamRange:
    lower: float
    upper: float
    points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError(f"range endpoints must be finite, got [{self.lower}, {self.upper}]")
        if self.points < 1:
            raise ConfigError("grid needs at least one point")
        if self.upper < self.lower:
            raise ConfigError(f"empty range [{self.lower}, {self.upper}]")

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lower])
        return np.linspace(self.lower, self.upper, self.points)


@dataclass(frozen=True)
class SearchSpace:
    """Per-parameter ranges plus fixed values for everything not searched."""

    ranges: Dict[str, ParamRange]
    fixed: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in list(self.ranges) + list(self.fixed):
            if name not in SEARCHABLE:
                raise ConfigError(f"unknown search parameter {name!r}")
        if not self.ranges and not self.fixed:
            raise ConfigError("empty search space")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name in SEARCHABLE if name in self.ranges)


@dataclass(frozen=True)
class OptimizerSettings:
    """Fixed context of a search: signal budget, security targets and the
    margins that derive an acceptance set from expected statistics.

    ``tune_epsilon_split`` additionally searches the free budget split of the
    key-length formula (what fraction of eps_sec' the concentration ledger,
    the smoothing terms and privacy amplification each get) instead of
    locking everything to the simplified eps0 geometry. Off by default.
    """

    num_signals: int
    eps_cor: float
    eps_sec_prime: float
    mode: str = "1decoy"
    f_ec: float = 1.16
    margin: float = 0.1         # acceptance thresholds vs expected bounds
    block_margin: float = 0.1   # block sizes vs expected sifted sizes
    leak_margin: float = 0.1    # leak allowance vs expected leak estimate
    min_block: int = 16
    tune_epsilon_split: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("1decoy", "2decoy"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name in ("margin", "block_margin", "leak_margin"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")


def expected_stats(params: ProtocolParams, channel: ChannelModel) -> ObservedStats:
    """Deterministic expected sifted statistics: per basis b and intensity k,
    detections N p_b^A p_b^B p_k P[detect|k] and errors with P[error and
    detect|k] from the channel's detector law, where no photon arrives with
    probability exp(-mu eta). Linear in the number of signals."""
    n = params.num_signals
    probs = params.intensities.probabilities
    darks = [math.exp(-mu * channel.survival) for mu in params.intensities.values]
    laws = [channel.detection_and_error(1.0 - dark, dark) for dark in darks]
    out = {}
    for basis, p_basis in (
        ("Z", params.p_z_alice * params.p_z_bob),
        ("X", (1.0 - params.p_z_alice) * (1.0 - params.p_z_bob)),
    ):
        detections = tuple(n * p_basis * p_k * det for p_k, (det, _) in zip(probs, laws))
        errors = tuple(n * p_basis * p_k * err for p_k, (_, err) in zip(probs, laws))
        out[basis] = BasisStats(
            basis=basis,
            block_size=math.fsum(detections),
            detections=detections,
            errors=errors,
            errors_post_ec=(basis == "Z"),
        )
    return ObservedStats(
        z=out["Z"],
        x=out["X"],
        sifted_z=out["Z"].block_size,
        sifted_x=out["X"].block_size,
    )


def _scaled(stats: BasisStats, block_size: float) -> BasisStats:
    scale = block_size / stats.block_size
    return replace(
        stats,
        block_size=block_size,
        detections=tuple(v * scale for v in stats.detections),
        errors=tuple(v * scale for v in stats.errors),
    )


@dataclass(frozen=True)
class OperatingPoint:
    """A fully derived candidate: protocol parameters, its key rate and the
    budget split that rate was computed on."""

    params: ProtocolParams
    key_rate: float
    key_length: int
    budget: EpsilonBudget


def _split_candidates(eps_cor: float, eps_sec_prime: float, mode: str):
    """Free budget splits of the mode: fraction of eps_sec' assigned to the
    concentration ledger (w_ci) and, of the remainder, to privacy
    amplification (pa_frac). The simplified geometry (10/15 or 12/17, then
    1/5) is always among the candidates, so tuning can never lose to it."""
    constant, terms = BUDGET_GEOMETRY[mode]
    for w_ci in (0.45, 0.55, terms / constant, 0.75, 0.85):
        for pa_frac in (0.08, 0.2, 0.4):
            delta_ci = w_ci * eps_sec_prime
            rest = eps_sec_prime - delta_ci
            pa = pa_frac * rest
            nu = alpha2 = (rest - pa) / 4.0
            yield EpsilonBudget(
                eps_cor=eps_cor, eps_sec_prime=eps_sec_prime,
                nu=nu, alpha2=alpha2, delta_ci=delta_ci,
            )


def derive_operating_point(
    intens: Intensities,
    p_z: float,
    channel: ChannelModel,
    settings: OptimizerSettings,
) -> Optional[OperatingPoint]:
    """Build the full parameter set for one candidate: expected statistics,
    margin-derived acceptance thresholds and leak allowance, then the key
    length. Returns None when no key is possible at this point."""
    base = ProtocolParams(
        intensities=intens,
        p_z_alice=p_z,
        p_z_bob=p_z,
        num_signals=settings.num_signals,
        eps_cor=settings.eps_cor,
        eps_sec_prime=settings.eps_sec_prime,
        acceptance=AcceptanceSet(n_z=1, n_x=1, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.5),
        leak_ec=0.0,
        f_ec=settings.f_ec,
    )
    stats = expected_stats(base, channel)
    n_z = math.floor((1.0 - settings.block_margin) * stats.sifted_z)
    n_x = math.floor((1.0 - settings.block_margin) * stats.sifted_x)
    if n_z < settings.min_block or n_x < settings.min_block:
        return None
    z_stats = _scaled(stats.z, float(n_z))
    x_stats = _scaled(stats.x, float(n_x))
    # An expected error rate above 1/2 is charged the maximal leak, h = 1.
    qber_z = min(z_stats.total_errors / z_stats.block_size, 0.5)
    leak = (1.0 + settings.leak_margin) * leak_ec_estimate(n_z, qber_z, settings.f_ec)

    _, n_ci_terms = BUDGET_GEOMETRY[intens.mode]

    def candidate(budget: EpsilonBudget) -> Optional[OperatingPoint]:
        # The simplified budget keeps its exact eps0 entries; a tuned split
        # spreads Delta_ci evenly over the ledger.
        entry = budget.eps0 if budget.eps0 is not None else budget.delta_ci / n_ci_terms
        ledger = EpsilonLedger.uniform(entry, len(intens.values))
        bounds = decoy_bounds(z_stats, x_stats, intens, ledger)
        if bounds.lambda_upper is None:
            return None
        relax = 1.0 - settings.margin
        s_z0 = relax * bounds.s0_lower
        s_z1 = min(relax * bounds.s1_lower, n_z - s_z0)
        s_x1 = min(relax * bounds.x_s1_lower, float(n_x))
        lambda_u = min((1.0 + settings.margin) * bounds.lambda_upper, 0.5)
        acceptance = AcceptanceSet(
            n_z=n_z, n_x=n_x, s_z0=s_z0, s_z1=s_z1, s_x1=s_x1, lambda_u=lambda_u
        )
        try:
            report = key_length(acceptance, budget, leak)
        except (NoAdmissibleKey, EstimateUnavailable):
            # no key, or too few single-photon events for the sampling correction
            return None
        return OperatingPoint(
            params=replace(base, acceptance=acceptance, leak_ec=leak),
            key_rate=report.length / settings.num_signals,
            key_length=report.length,
            budget=budget,
        )

    best = candidate(base.budget())
    if settings.tune_epsilon_split:
        for budget in _split_candidates(settings.eps_cor, settings.eps_sec_prime, intens.mode):
            point = candidate(budget)
            if point is not None and (best is None or point.key_length > best.key_length):
                best = point
    return best


def _candidate_intensities(values: Dict[str, float], mode: str) -> Optional[Intensities]:
    try:
        if mode == "1decoy":
            p1 = values["p_mu1"]
            return Intensities(
                values=(values["mu1"], values["mu2"]),
                probabilities=(p1, 1.0 - p1),
            )
        p1, p2 = values["p_mu1"], values["p_mu2"]
        p3 = 1.0 - p1 - p2
        if p3 <= 0.0:
            return None
        return Intensities(
            values=(values["mu1"], values["mu2"], values["mu3"]),
            probabilities=(p1, p2, p3),
        )
    except (ConfigError, KeyError):
        return None


def evaluate(
    values: Dict[str, float],
    channel: ChannelModel,
    settings: OptimizerSettings,
) -> Tuple[float, Optional[OperatingPoint]]:
    """Objective l/N at one parameter vector; infeasible points score 0."""
    intens = _candidate_intensities(values, settings.mode)
    if intens is None:
        return 0.0, None
    p_z = values.get("p_z", 0.5)
    if not 0.0 < p_z < 1.0:
        return 0.0, None
    point = derive_operating_point(intens, p_z, channel, settings)
    if point is None:
        return 0.0, None
    return point.key_rate, point


@dataclass
class OptimizationResult:
    best_values: Dict[str, float]
    best_rate: float
    best_point: Optional[OperatingPoint]
    trace: List[Tuple[Dict[str, float], float]]
    method: str

    def trace_csv(self) -> str:
        """Evaluation trace as CSV (header + one row per evaluation)."""
        names = sorted(self.best_values)
        lines = [",".join(names + ["key_rate"])]
        for values, rate in self.trace:
            row = [f"{values[n]:.12g}" for n in names] + [f"{rate:.12g}"]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _merge(space: SearchSpace, assignment: Dict[str, float]) -> Dict[str, float]:
    values = dict(space.fixed)
    values.update(assignment)
    return values


def _better(rate: float, values: Dict[str, float], best_rate: float, best_values) -> bool:
    if best_values is None or rate > best_rate:
        return True
    if rate < best_rate:
        return False
    # Deterministic tie break: lexicographically smallest vector.
    key = tuple(values[n] for n in sorted(values))
    best_key = tuple(best_values[n] for n in sorted(best_values))
    return key < best_key


def optimize(
    space: SearchSpace,
    channel: ChannelModel,
    settings: OptimizerSettings,
    method: str = "grid",
) -> OptimizationResult:
    """Maximize l/N over the search space.

    'grid' exhaustively evaluates the product grid; 'coordinate' sweeps one
    parameter at a time over its grid in a fixed order until a full sweep
    improves the objective by less than 1e-6 relative. Both are deterministic
    and every evaluated point respects the feasibility constraints (infeasible
    combinations score zero and are kept in the trace)."""
    if method == "grid":
        return _optimize_grid(space, channel, settings)
    if method == "coordinate":
        return _optimize_coordinate(space, channel, settings)
    raise ConfigError(f"unknown optimization method {method!r}")


def _optimize_grid(
    space: SearchSpace, channel: ChannelModel, settings: OptimizerSettings
) -> OptimizationResult:
    names = space.names
    grids = [space.ranges[n].grid() for n in names]
    trace: List[Tuple[Dict[str, float], float]] = []
    best_rate = -1.0
    best_values: Optional[Dict[str, float]] = None
    best_point: Optional[OperatingPoint] = None
    iterator = product(*grids) if names else [()]
    for combo in iterator:
        assignment = {n: float(v) for n, v in zip(names, combo)}
        values = _merge(space, assignment)
        rate, point = evaluate(values, channel, settings)
        trace.append((values, rate))
        if _better(rate, values, best_rate, best_values):
            best_rate, best_values, best_point = rate, values, point
    return OptimizationResult(best_values, max(best_rate, 0.0), best_point, trace, "grid")


def _optimize_coordinate(
    space: SearchSpace, channel: ChannelModel, settings: OptimizerSettings, max_sweeps: int = 25
) -> OptimizationResult:
    names = space.names
    trace: List[Tuple[Dict[str, float], float]] = []
    current = {n: float(np.median(space.ranges[n].grid())) for n in names}

    def score(assignment: Dict[str, float]) -> Tuple[float, Optional[OperatingPoint], Dict[str, float]]:
        values = _merge(space, assignment)
        rate, point = evaluate(values, channel, settings)
        trace.append((values, rate))
        return rate, point, values

    best_rate, best_point, best_values = score(current)
    for _ in range(max_sweeps):
        sweep_start = best_rate
        for name in names:
            for candidate in space.ranges[name].grid():
                trial = dict(current)
                trial[name] = float(candidate)
                rate, point, values = score(trial)
                if _better(rate, values, best_rate, best_values):
                    best_rate, best_point, best_values = rate, point, values
                    current = trial
        if best_rate <= sweep_start * (1.0 + 1e-6) and best_rate != -1.0:
            break
    return OptimizationResult(
        best_values, max(best_rate, 0.0), best_point, trace, "coordinate"
    )
