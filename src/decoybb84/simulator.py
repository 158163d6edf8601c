"""Photon-number-tagged Monte Carlo source/channel/detector model.

Generates raw protocol rounds together with ground truth the real parties can
never observe: the emitted photon number of every round. Block-aligned truth
tallies (vacuum/single/multi-photon detection and error counts) validate every
decoy bound empirically; coverage trials draw those tallies directly from
their closed-form multinomial law instead of generating every round. The
detector model is the canonical threshold pair: two detectors per basis,
independent dark counts, per-photon channel survival, misalignment as an
independent bit flip after detection and random assignment of double clicks.

Channel defaults and the detector parameterization are engineering choices of
this artifact, not prescribed values.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .decoy import (
    BasisStats,
    DecoyBounds,
    EpsilonLedger,
    Intensities,
    count_interval,
    decoy_bounds,
)
from .errors import ConfigError
from .numerics import MAX_PHOTON_NUMBER, intensity_posterior, poisson_pmf
from .protocol import ObservedStats, ProtocolParams, RunRecord, counted_stats, sift

# Numeric guard when comparing real-valued bounds against integer truth;
# exact ties are not violations.
_VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Honest lossy channel with parametric noise, identical for both bases
    and both detectors (basis-independent losses by construction), and the
    one owner of the detector law. A double click gets a random bit under the
    'random' policy (the proof's assumption); 'discard' drops it, a negative
    control that breaks basis independence."""

    transmittance: float
    detector_efficiency: float = 1.0
    dark_count_prob: float = 0.0
    misalignment: float = 0.0
    double_click_policy: str = "random"

    def __post_init__(self) -> None:
        for name in ("transmittance", "detector_efficiency", "dark_count_prob", "misalignment"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.double_click_policy not in ("random", "discard"):
            raise ConfigError(f"unknown double-click policy {self.double_click_policy!r}")

    @property
    def survival(self) -> float:
        """Per-photon survival probability (channel times detector)."""
        return self.transmittance * self.detector_efficiency

    def detection_and_error(self, arrived, dark):
        """Matched-basis (P[detect], P[detect and wrong bit]) when at least
        one photon reaches Bob with probability ``arrived`` and none with
        probability ``dark``: generate_rounds' detector algebra, elementwise
        on floats and numpy arrays."""
        p = self.dark_count_prob
        e = self.misalignment
        if self.double_click_policy == "random":
            dark_any = 1.0 - (1.0 - p) ** 2
            det_sig, err_sig = 1.0, (1.0 - p) * e + 0.5 * p
            det_dark, err_dark = dark_any, 0.5 * dark_any
        else:
            # Only single clicks count: the other detector must stay dark.
            det_sig, err_sig = 1.0 - p, (1.0 - p) * e
            det_dark, err_dark = 2.0 * p * (1.0 - p), p * (1.0 - p)
        return arrived * det_sig + dark * det_dark, arrived * err_sig + dark * err_dark


@dataclass
class Rounds:
    """Structure-of-arrays round storage (one protocol run's N rounds)."""

    photon_number: np.ndarray
    intensity_idx: np.ndarray
    alice_basis: np.ndarray
    alice_bits: np.ndarray
    bob_basis: np.ndarray
    detected: np.ndarray
    bob_bits: np.ndarray
    double_click: np.ndarray

    def __len__(self) -> int:
        return len(self.photon_number)


def generate_rounds(
    params: ProtocolParams,
    channel: ChannelModel,
    n: int,
    rng: np.random.Generator,
) -> Rounds:
    """Vectorized generation of n rounds.

    Per round: draw basis/bit/intensity, photon number from the Poisson law
    of the chosen intensity, per-photon survival (binomial thinning),
    independent dark counts per detector. Click processing: no click -> no
    detection; both detectors -> random bit with the double-click flag set
    (or, under the channel's 'discard' negative-control policy, no
    detection); single click -> bit flipped with the misalignment probability.
    """
    probs = np.asarray(params.intensities.probabilities)
    mus = np.asarray(params.intensities.values)

    intensity_idx = rng.choice(len(mus), size=n, p=probs)
    alice_basis = rng.random(n) < params.p_z_alice
    bob_basis = rng.random(n) < params.p_z_bob
    alice_bits = rng.integers(0, 2, size=n, dtype=np.uint8)

    m = rng.poisson(mus[intensity_idx])
    arrived = rng.binomial(m, channel.survival)
    dark0 = rng.random(n) < channel.dark_count_prob
    dark1 = rng.random(n) < channel.dark_count_prob

    match = alice_basis == bob_basis
    has_signal = arrived > 0

    # Matched bases: every surviving photon lands on the encoded-bit detector.
    sig0 = match & has_signal & (alice_bits == 0)
    sig1 = match & has_signal & (alice_bits == 1)
    # Mismatched bases: photons split 50/50 between the detectors.
    mm = ~match & has_signal
    to_one = np.zeros(n, dtype=np.int64)
    if mm.any():
        to_one[mm] = rng.binomial(arrived[mm], 0.5)
    sig1 = sig1 | (mm & (to_one > 0))
    sig0 = sig0 | (mm & (arrived - to_one > 0))

    click0 = sig0 | dark0
    click1 = sig1 | dark1
    double = click0 & click1
    detected = click0 | click1

    bob_bits = np.zeros(n, dtype=np.uint8)
    bob_bits[click1 & ~click0] = 1
    single = detected & ~double
    flip = single & (rng.random(n) < channel.misalignment)
    bob_bits[flip] ^= 1
    n_double = int(double.sum())
    if n_double:
        bob_bits[double] = rng.integers(0, 2, size=n_double, dtype=np.uint8)
    if channel.double_click_policy == "discard":
        detected = detected & ~double

    return Rounds(
        photon_number=m,
        intensity_idx=intensity_idx,
        alice_basis=alice_basis,
        alice_bits=alice_bits,
        bob_basis=bob_basis,
        detected=detected,
        bob_bits=bob_bits,
        double_click=double,
    )


@dataclass(frozen=True)
class OracleTruth:
    """Ground-truth per-photon-number tallies over the sampled blocks, so the
    oracle and the observed statistics share one sample space. Index m holds
    m-photon emissions; the top bin absorbs everything above."""

    s_z: np.ndarray
    v_z: np.ndarray
    s_x: np.ndarray
    v_x: np.ndarray
    z_detections_per_intensity: Tuple[int, ...]
    x_detections_per_intensity: Tuple[int, ...]

    def spectrum(self, basis: str) -> Tuple[np.ndarray, np.ndarray]:
        if basis == "Z":
            return self.s_z, self.v_z
        if basis == "X":
            return self.s_x, self.v_x
        raise ConfigError(f"unknown basis {basis!r}")

    @property
    def lambda_x(self) -> Optional[float]:
        """True single-photon QBER in the monitoring basis (None if no
        single-photon events landed in the block)."""
        if self.s_x[1] == 0:
            return None
        return float(self.v_x[1]) / float(self.s_x[1])

    def expected_detections(self, intens: Intensities, basis: str, k_idx: int) -> float:
        """Expected per-intensity detections sum_m p(k|m) s_m; the quantity
        the detection-count concentration intervals bound."""
        s, _ = self.spectrum(basis)
        pairs = intens.pairs()
        k = intens.values[k_idx]
        return math.fsum(
            intensity_posterior(pairs, m, k) * float(s[m]) for m in range(len(s)) if s[m]
        )


def _tally_block(rounds: Rounds, selected: np.ndarray, m_max: int) -> Tuple[np.ndarray, np.ndarray]:
    m = np.minimum(rounds.photon_number[selected], m_max)
    s = np.bincount(m, minlength=m_max + 1)
    errors = rounds.alice_bits[selected] != rounds.bob_bits[selected]
    v = np.bincount(m[errors], minlength=m_max + 1)
    return s, v


def tally_truth(
    rounds: Rounds,
    gamma_z: np.ndarray,
    gamma_x: np.ndarray,
    n_levels: int,
    m_max: int = MAX_PHOTON_NUMBER,
) -> OracleTruth:
    """Photon-number tallies restricted to the sampled blocks."""
    s_z, v_z = _tally_block(rounds, gamma_z, m_max)
    s_x, v_x = _tally_block(rounds, gamma_x, m_max)
    z_per_k = np.bincount(rounds.intensity_idx[gamma_z], minlength=n_levels)[:n_levels]
    x_per_k = np.bincount(rounds.intensity_idx[gamma_x], minlength=n_levels)[:n_levels]
    return OracleTruth(
        s_z=s_z,
        v_z=v_z,
        s_x=s_x,
        v_x=v_x,
        z_detections_per_intensity=tuple(int(c) for c in z_per_k),
        x_detections_per_intensity=tuple(int(c) for c in x_per_k),
    )


def simulate_rounds(
    params: ProtocolParams,
    channel: ChannelModel,
    n: int,
    rng: np.random.Generator,
) -> Tuple[Rounds, Optional[OracleTruth], Optional[ObservedStats]]:
    """Generate rounds, sift/sample blocks and tally block-aligned truth.

    Returns (rounds, truth, observed stats); truth and stats are None when
    sifting aborts. The observed error counts are the true ones (ideal
    reconciliation), flagged as post-verification.
    """
    rounds = generate_rounds(params, channel, n, rng)
    sifted = sift(rounds, params, rng)
    if sifted.aborted:
        return rounds, None, None
    n_levels = len(params.intensities.values)
    truth = tally_truth(rounds, sifted.z_block.indices, sifted.x_block.indices, n_levels)
    return rounds, truth, counted_stats(sifted, sifted.z_block.alice_bits)


def _poisson_tail(lam: float, m_min: int) -> float:
    """P[Poisson(lam) >= m_min] for m_min >= 1. Below the mean the tail is
    summed term by term, so a tail far below one ulp of 1 keeps its relative
    accuracy; terms beyond lam + 40 sqrt(lam) + 40 are below double precision."""
    if lam >= m_min:
        return 1.0 - math.fsum(poisson_pmf(lam, m) for m in range(m_min))
    m_hi = m_min + int(lam + 40.0 * math.sqrt(lam)) + 40
    return math.fsum(poisson_pmf(lam, m) for m in range(m_min, m_hi + 1))


def cell_probabilities(params: ProtocolParams, channel: ChannelModel) -> np.ndarray:
    """Closed-form probability that one round is sifted into a cell.

    Axis 0 is the basis (Z, X), axis 1 the intensity, axis 2 the photon
    number m and axis 3 the error flag (0 = Bob's bit correct). The top bin
    holds every m >= M = MAX_PHOTON_NUMBER, as in tally_truth, through
    sum_{m >= M} pmf(m) (1 - eta)^m = exp(-mu eta) P[Poisson(mu (1 - eta)) >= M].
    The cells of a basis sum to its sifting probability; the rest of the
    probability is 'not sifted'.
    """
    m_max = MAX_PHOTON_NUMBER
    eta = channel.survival
    intens = params.intensities
    cells = np.zeros((2, len(intens.values), m_max + 1, 2))
    for k_idx, (p_k, mu) in enumerate(zip(intens.probabilities, intens.values)):
        # Mass of each photon-number bin, and of it with no photon arriving.
        total = [poisson_pmf(mu, m) for m in range(m_max)] + [_poisson_tail(mu, m_max)]
        dark = [total[m] * (1.0 - eta) ** m for m in range(m_max)]
        dark.append(math.exp(-mu * eta) * _poisson_tail(mu * (1.0 - eta), m_max))
        total, dark = np.array(total), np.array(dark)
        detected, errors = channel.detection_and_error(np.maximum(total - dark, 0.0), dark)
        detected, errors = p_k * detected, p_k * errors
        cells[:, k_idx, :, 1] = errors
        cells[:, k_idx, :, 0] = np.maximum(detected - errors, 0.0)
    cells[0] *= params.p_z_alice * params.p_z_bob
    cells[1] *= (1.0 - params.p_z_alice) * (1.0 - params.p_z_bob)
    return cells


def _block_tallies(
    basis: str, block: np.ndarray, post_ec: bool
) -> Tuple[BasisStats, np.ndarray, np.ndarray]:
    """A block's statistics plus its per-photon-number tallies s and v."""
    errors = block[:, :, 1]
    stats = BasisStats(
        basis=basis,
        block_size=int(block.sum()),
        detections=tuple(int(c) for c in block.sum(axis=(1, 2))),
        errors=tuple(int(c) for c in errors.sum(axis=1)),
        errors_post_ec=post_ec,
    )
    return stats, block.sum(axis=(0, 2)), errors.sum(axis=0)


def sample_block_tallies(
    params: ProtocolParams,
    cells: np.ndarray,
    rng: np.random.Generator,
) -> Optional[Tuple[OracleTruth, ObservedStats]]:
    """Count-level draw of one run's block tallies, exact in law.

    Draws the sifted Z and X counts of N = params.num_signals rounds as one
    multinomial over (Z, X, not sifted) and aborts (None) exactly where sift
    does. Given which rounds are sifted their cells are i.i.d., so a uniform
    block is an i.i.d. sample too: each block is one multinomial over its
    basis' normalized cells. The cost does not depend on N. Returns the same
    (truth, observed stats) as simulate_rounds, with ideal reconciliation.
    """
    q = params.acceptance
    p_z, p_x = float(cells[0].sum()), float(cells[1].sum())
    sifted_z, sifted_x, _ = rng.multinomial(
        params.num_signals, [p_z, p_x, max(1.0 - p_z - p_x, 0.0)]
    )
    if sifted_z < q.n_z or sifted_x < q.n_x:
        return None
    # An empty basis (p = 0) can only meet an empty block here.
    block_z = rng.multinomial(q.n_z, cells[0].ravel() / (p_z or 1.0)).reshape(cells[0].shape)
    block_x = rng.multinomial(q.n_x, cells[1].ravel() / (p_x or 1.0)).reshape(cells[1].shape)
    z, s_z, v_z = _block_tallies("Z", block_z, post_ec=True)
    x, s_x, v_x = _block_tallies("X", block_x, post_ec=False)
    truth = OracleTruth(
        s_z=s_z,
        v_z=v_z,
        s_x=s_x,
        v_x=v_x,
        z_detections_per_intensity=z.detections,
        x_detections_per_intensity=x.detections,
    )
    return truth, ObservedStats(z=z, x=x, sifted_z=int(sifted_z), sifted_x=int(sifted_x))


def bound_violations(bounds: DecoyBounds, truth: OracleTruth) -> Dict[str, bool]:
    """Which computed bounds the ground truth escaped (strictly, beyond the
    numeric guard). An undefined QBER bound (abort) cannot be violated."""
    s_z0 = float(truth.s_z[0])
    s_z1 = float(truth.s_z[1])
    s_x1 = float(truth.s_x[1])
    v_x1 = float(truth.v_x[1])
    out = {
        "s0_lower": s_z0 < bounds.s0_lower - _VIOLATION_TOL,
        "s1_lower": s_z1 < bounds.s1_lower - _VIOLATION_TOL,
        "x_s1_lower": s_x1 < bounds.x_s1_lower - _VIOLATION_TOL,
        "v1_upper": v_x1 > bounds.v1_upper + _VIOLATION_TOL,
    }
    if bounds.s0_upper is not None:
        out["s0_upper"] = s_z0 > bounds.s0_upper + _VIOLATION_TOL
    if bounds.x_s0_upper is not None:
        out["x_s0_upper"] = float(truth.s_x[0]) > bounds.x_s0_upper + _VIOLATION_TOL
    lam_true = truth.lambda_x
    if bounds.lambda_upper is not None and lam_true is not None:
        out["lambda_upper"] = lam_true > bounds.lambda_upper + _VIOLATION_TOL
    else:
        out["lambda_upper"] = False
    return out


def interval_violations(
    stats: ObservedStats,
    truth: OracleTruth,
    intens: Intensities,
    ledger: EpsilonLedger,
) -> Dict[str, bool]:
    """Raw detection-count concentration checks: did the expected count
    sum_m p(k|m) s_m escape [n_k - delta, n_k + delta]? These are the
    individual inequalities every composite bound is built from."""
    out: Dict[str, bool] = {}
    for basis, bstats in (("Z", stats.z), ("X", stats.x)):
        for k_idx in range(len(intens.values)):
            lo, hi = count_interval(
                bstats.detections[k_idx],
                bstats.block_size,
                ledger.n_plus[basis][k_idx],
                ledger.n_minus[basis][k_idx],
            )
            expected = truth.expected_detections(intens, basis, k_idx)
            name = f"n_{basis}_k{k_idx}"
            out[f"{name}_lower"] = expected < lo - _VIOLATION_TOL
            out[f"{name}_upper"] = expected > hi + _VIOLATION_TOL
    return out


@dataclass
class BoundCoverage:
    name: str
    violations: int
    trials: int
    budget: float

    @property
    def rate(self) -> float:
        return self.violations / self.trials if self.trials else 0.0

    def tolerance(self, eps: float) -> float:
        return eps + 3.0 * math.sqrt(eps / self.trials) if self.trials else 1.0


@dataclass
class CoverageReport:
    """Per-bound empirical violation rates vs their failure budgets."""

    mode: str
    trials: int
    aborted_trials: int
    lambda_undefined: int
    entries: Dict[str, BoundCoverage] = field(default_factory=dict)
    joint: Optional[BoundCoverage] = None
    interval_entries: Dict[str, BoundCoverage] = field(default_factory=dict)

    def to_table(self) -> str:
        defined = self.trials - self.lambda_undefined
        lines = [
            f"coverage report ({self.mode}): {self.trials} trials, "
            f"{self.aborted_trials} sift aborts",
            f"lambda_upper defined in {defined} of {self.trials} trials",
        ]
        if defined < 0.9 * self.trials:
            # lambda_upper sets secrecy; where it is undefined it cannot be
            # violated, so its coverage row says little.
            lines.append(
                "WARNING: lambda_upper undefined in more than 10% of trials; "
                "its coverage is vacuous"
            )
        lines.append(f"{'bound':<16}{'violations':>12}{'rate':>12}{'budget':>12}")

        def row(e: "BoundCoverage") -> str:
            return f"{e.name:<16}{e.violations:>12}{e.rate:>12.4g}{e.budget:>12.4g}"

        for name in sorted(self.entries):
            lines.append(row(self.entries[name]))
        if self.joint is not None:
            lines.append(row(self.joint))
        for name in sorted(self.interval_entries):
            lines.append(row(self.interval_entries[name]))
        return "\n".join(lines)


def _coverage_chunk(
    params: ProtocolParams,
    cells: np.ndarray,
    ledger: EpsilonLedger,
    seeds: Sequence[np.random.SeedSequence],
) -> Dict[str, int]:
    counts: Dict[str, int] = {"_aborted": 0, "_lambda_undefined": 0, "_joint": 0, "_done": 0}
    intens = params.intensities
    for seed_seq in seeds:
        rng = np.random.Generator(np.random.Philox(seed_seq))
        sample = sample_block_tallies(params, cells, rng)
        if sample is None:
            counts["_aborted"] += 1
            continue
        truth, observed = sample
        bounds = decoy_bounds(observed.z, observed.x, intens, ledger)
        if bounds.lambda_upper is None:
            counts["_lambda_undefined"] += 1
        flags = bound_violations(bounds, truth)
        for name, violated in flags.items():
            counts[name] = counts.get(name, 0) + int(violated)
        for name, violated in interval_violations(observed, truth, intens, ledger).items():
            key = f"interval:{name}"
            counts[key] = counts.get(key, 0) + int(violated)
        counts["_joint"] += int(any(flags.values()))
        counts["_done"] += 1
    return counts


def validate_bounds(
    params: ProtocolParams,
    channel: ChannelModel,
    trials: int,
    ledger: EpsilonLedger,
    rng: np.random.Generator,
    workers: int = 1,
) -> CoverageReport:
    """Empirical coverage of every decoy bound over independent simulated
    runs, each drawn at count level by sample_block_tallies, so a trial costs
    the same at any N. Each trial owns a counter-based substream, so the
    outcome is deterministic for a given generator state regardless of worker
    count."""
    if trials < 1:
        raise ConfigError("need at least one trial")
    cells = cell_probabilities(params, channel)
    base = int(rng.integers(0, 2**63 - 1))
    seeds = np.random.SeedSequence(base).spawn(trials)

    if workers <= 1:
        counts = _coverage_chunk(params, cells, ledger, seeds)
    else:
        chunks = [seeds[i::workers] for i in range(workers)]
        counts = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_coverage_chunk, params, cells, ledger, chunk)
                for chunk in chunks
                if chunk
            ]
            for future in futures:
                for key, value in future.result().items():
                    counts[key] = counts.get(key, 0) + value

    done = counts.pop("_done", 0)
    aborted = counts.pop("_aborted", 0)
    lambda_undefined = counts.pop("_lambda_undefined", 0)
    joint_count = counts.pop("_joint", 0)

    # Budgets for the composite bounds come from one representative bound
    # set; synthetic balanced statistics keep the probe independent of
    # whether any simulated trial completed.
    n_levels = len(params.intensities.values)
    probe_stats = {
        basis: BasisStats(
            basis=basis,
            block_size=float(100 * n_levels),
            detections=(100.0,) * n_levels,
            errors=(0.0,) * n_levels,
            errors_post_ec=True,
        )
        for basis in ("Z", "X")
    }
    probe = decoy_bounds(probe_stats["Z"], probe_stats["X"], params.intensities, ledger)
    budgets = probe.budgets
    delta_ci = probe.delta_ci

    report = CoverageReport(
        mode=params.mode,
        trials=done,
        aborted_trials=aborted,
        lambda_undefined=lambda_undefined,
    )
    for name, count in sorted(counts.items()):
        if name.startswith("interval:"):
            short = name.split(":", 1)[1]
            side = "n_plus" if short.endswith("upper") else "n_minus"
            basis = short.split("_")[1]
            k_idx = int(short.split("_k")[1].split("_")[0])
            budget = getattr(ledger, side)[basis][k_idx]
            report.interval_entries[short] = BoundCoverage(short, count, done, budget)
        else:
            report.entries[name] = BoundCoverage(name, count, done, budgets.get(name, math.nan))
    report.joint = BoundCoverage("joint", joint_count, done, delta_ci)
    return report


def attach_oracle(record: RunRecord, rounds: Rounds, params: ProtocolParams) -> Optional[OracleTruth]:
    """Fill a protocol run record's omega_b flag (all decoy bounds hold
    against ground truth) from the simulator's photon tags. Returns the truth
    tallies, or None when the run aborted before blocks existed."""
    if record.gamma_z is None or record.bounds is None:
        return None
    truth = tally_truth(
        rounds, record.gamma_z, record.gamma_x, len(params.intensities.values)
    )
    flags = bound_violations(record.bounds, truth)
    record.omega_b = not any(flags.values())
    return truth


@dataclass
class PosteriorCheck:
    m: int
    samples: int
    skipped: bool
    max_sigma: float
    empirical: Dict[float, float]
    expected: Dict[float, float]


@dataclass
class BayesReport:
    """Empirical intensity posterior among detected rounds vs the analytic
    posterior (they coincide for an honest channel: detections carry no
    intensity information beyond the photon number)."""

    checks: List[PosteriorCheck]
    passed: bool          # every tested m within 3 sigma
    gross_failure: bool   # any tested m beyond 5 sigma

    def to_table(self) -> str:
        lines = [f"{'m':>3}{'samples':>10}{'max sigma':>12}  note"]
        for c in self.checks:
            note = "skipped (insufficient samples)" if c.skipped else ""
            lines.append(f"{c.m:>3}{c.samples:>10}{c.max_sigma:>12.3f}  {note}")
        lines.append(f"passed: {self.passed}")
        return "\n".join(lines)


def bayes_equivalence_test(
    params: ProtocolParams,
    channel: ChannelModel,
    n: int,
    rng: np.random.Generator,
    max_m: int = 5,
    min_samples: int = 50,
    chunk: int = 1_000_000,
) -> BayesReport:
    """Tally p(intensity | emitted photon number) among detected rounds and
    compare with the Bayes posterior, per photon number up to max_m."""
    intens = params.intensities
    n_levels = len(intens.values)
    counts = np.zeros((max_m + 1, n_levels), dtype=np.int64)
    remaining = n
    while remaining > 0:
        batch = min(chunk, remaining)
        rounds = generate_rounds(params, channel, batch, rng)
        sel = rounds.detected & (rounds.photon_number <= max_m)
        np.add.at(counts, (rounds.photon_number[sel], rounds.intensity_idx[sel]), 1)
        remaining -= batch

    pairs = intens.pairs()
    checks: List[PosteriorCheck] = []
    all_within_3 = True
    any_beyond_5 = False
    for m in range(max_m + 1):
        total = int(counts[m].sum())
        if total < min_samples:
            checks.append(PosteriorCheck(m, total, True, math.nan, {}, {}))
            continue
        empirical: Dict[float, float] = {}
        expected: Dict[float, float] = {}
        max_sigma = 0.0
        for k_idx, k in enumerate(intens.values):
            p = intensity_posterior(pairs, m, k)
            p_hat = counts[m, k_idx] / total
            sigma = math.sqrt(p * (1.0 - p) / total)
            deviation = abs(p_hat - p) / sigma if sigma > 0 else 0.0
            max_sigma = max(max_sigma, deviation)
            empirical[k] = p_hat
            expected[k] = p
        checks.append(PosteriorCheck(m, total, False, max_sigma, empirical, expected))
        all_within_3 &= max_sigma <= 3.0
        any_beyond_5 |= max_sigma > 5.0
    return BayesReport(checks=checks, passed=all_within_3, gross_failure=any_beyond_5)


def detection_rates_by_basis(rounds: Rounds) -> Tuple[float, float, float]:
    """(rate given Bob chose the key basis, rate given the other basis,
    z-score of the difference). Guards the basis-independent-loss assumption."""
    z_sel = np.asarray(rounds.bob_basis, dtype=bool)
    det = np.asarray(rounds.detected, dtype=bool)
    n_z, n_x = int(z_sel.sum()), int((~z_sel).sum())
    if n_z == 0 or n_x == 0:
        raise ConfigError("need rounds in both bases")
    r_z = float(det[z_sel].mean())
    r_x = float(det[~z_sel].mean())
    pooled = float(det.mean())
    denom = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_z + 1.0 / n_x))
    z_score = (r_z - r_x) / denom if denom > 0 else 0.0
    return r_z, r_x, z_score
