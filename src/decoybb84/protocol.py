"""Fixed-length protocol state machine.

Sifting, modeled error correction, error verification, the acceptance test
and privacy amplification, executed in that order. The key length is a pure
function of the pre-agreed parameters and is fixed before any round is
consumed; a run either delivers a key of exactly that length on both sides or
aborts with both key registers empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import hashing
from .decoy import BasisStats, DecoyBounds, EpsilonLedger, Intensities, decoy_bounds
from .errors import ConfigError
from .keylength import (
    AcceptanceSet,
    EpsilonBudget,
    KeyLengthReport,
    key_length_for_mode,
    leak_ec_estimate,
)


@dataclass(frozen=True)
class ProtocolParams:
    """Everything agreed before the run: intensities, basis probabilities,
    round count, security targets, the acceptance set, the pre-agreed
    error-correction disclosure allowance and the reconciliation model.
    Reconciliation is forward (Bob corrects towards Alice) by construction."""

    intensities: Intensities
    p_z_alice: float
    p_z_bob: float
    num_signals: int
    eps_cor: float
    eps_sec_prime: float
    acceptance: AcceptanceSet
    leak_ec: float
    f_ec: float = 1.16
    ec_success_prob: float = 1.0
    gamma_override: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p_z_alice < 1.0 or not 0.0 < self.p_z_bob < 1.0:
            raise ConfigError("basis probabilities must lie strictly inside (0, 1)")
        if self.num_signals < 1:
            raise ConfigError("need at least one signal")
        if not 0.0 < self.eps_cor < 1.0 or not 0.0 < self.eps_sec_prime < 1.0:
            raise ConfigError("security parameters must lie in (0, 1)")
        if self.leak_ec < 0:
            raise ConfigError("leak allowance must be nonnegative")
        if self.f_ec < 1.0:
            raise ConfigError("error-correction inefficiency must be >= 1")
        if not 0.0 <= self.ec_success_prob <= 1.0:
            raise ConfigError("ec_success_prob must lie in [0, 1]")

    @property
    def mode(self) -> str:
        return self.intensities.mode

    def budget(self) -> EpsilonBudget:
        return EpsilonBudget.simplified(self.eps_cor, self.eps_sec_prime, self.mode)

    def ledger(self) -> EpsilonLedger:
        """Concentration ledger of the simplified budget: every entry eps0."""
        eps0 = self.budget().eps0
        return EpsilonLedger.uniform(eps0, len(self.intensities.values))


def precompute_key_length(params: ProtocolParams) -> KeyLengthReport:
    """Key length from pre-agreed parameters only; never reads run statistics."""
    return key_length_for_mode(
        params.acceptance,
        params.eps_cor,
        params.eps_sec_prime,
        params.leak_ec,
        params.mode,
        gamma=params.gamma_override,
    )


@dataclass(frozen=True)
class Block:
    """One sampled block: original round indices plus the per-round data the
    post-processing needs."""

    indices: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    intensity_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ObservedStats:
    """Both bases' block statistics plus the sifted-set sizes."""

    z: BasisStats
    x: BasisStats
    sifted_z: int
    sifted_x: int


@dataclass(frozen=True)
class SiftResult:
    aborted: bool
    reason: Optional[str]
    z_block: Optional[Block]
    x_block: Optional[Block]
    observed: Optional[ObservedStats]


def _intensity_counts(idx: np.ndarray, n_levels: int) -> Tuple[int, ...]:
    return tuple(int(c) for c in np.bincount(idx, minlength=n_levels)[:n_levels])


def _make_block(rounds, selected: np.ndarray) -> Block:
    return Block(
        indices=selected,
        alice_bits=np.asarray(rounds.alice_bits)[selected].astype(np.uint8),
        bob_bits=np.asarray(rounds.bob_bits)[selected].astype(np.uint8),
        intensity_idx=np.asarray(rounds.intensity_idx)[selected],
    )


def sift(rounds, params: ProtocolParams, rng: np.random.Generator) -> SiftResult:
    """Keep detected rounds with matching bases, abort if either sifted set is
    smaller than its block size, otherwise sample uniform blocks of exactly
    N_Z and N_X rounds and partition them by intensity.

    ``rounds`` needs array attributes alice_basis/bob_basis (True = key
    basis), detected, alice_bits, bob_bits and intensity_idx.
    """
    alice_z = np.asarray(rounds.alice_basis)
    bob_z = np.asarray(rounds.bob_basis)
    detected = np.asarray(rounds.detected)
    keep = (alice_z == bob_z) & detected
    z_sifted = np.flatnonzero(keep & alice_z)
    x_sifted = np.flatnonzero(keep & ~alice_z)

    q = params.acceptance
    if len(z_sifted) < q.n_z or len(x_sifted) < q.n_x:
        return SiftResult(
            aborted=True,
            reason=(
                f"sifted sets too small: |Z|={len(z_sifted)} (need {q.n_z}), "
                f"|X|={len(x_sifted)} (need {q.n_x})"
            ),
            z_block=None,
            x_block=None,
            observed=None,
        )

    gamma_z = rng.permutation(z_sifted)[: q.n_z]
    gamma_x = rng.permutation(x_sifted)[: q.n_x]
    z_block = _make_block(rounds, gamma_z)
    x_block = _make_block(rounds, gamma_x)

    n_levels = len(params.intensities.values)
    zeros = (0,) * n_levels
    observed = ObservedStats(
        z=BasisStats(
            basis="Z",
            block_size=q.n_z,
            detections=_intensity_counts(z_block.intensity_idx, n_levels),
            errors=zeros,
            errors_post_ec=False,
        ),
        x=BasisStats(
            basis="X",
            block_size=q.n_x,
            detections=_intensity_counts(x_block.intensity_idx, n_levels),
            errors=zeros,
            errors_post_ec=False,
        ),
        sifted_z=len(z_sifted),
        sifted_x=len(x_sifted),
    )
    return SiftResult(False, None, z_block, x_block, observed)


def error_correct(
    z_a: np.ndarray,
    z_b: np.ndarray,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, bool]:
    """Modeled forward reconciliation.

    Bob's key becomes a copy of Alice's when the pre-agreed disclosure
    allowance covers the leak estimate for the realized error rate (scaled by
    ``ec_success_prob`` to model imperfect correctors); otherwise it stays
    uncorrected. A realized error rate above 1/2 is charged the maximal leak,
    h = 1. Returns (corrected key, leak estimate in bits, succeeded).
    """
    if len(z_a) != len(z_b):
        raise ConfigError("keys must have equal length")
    n = len(z_a)
    qber = float(np.count_nonzero(z_a != z_b)) / n if n else 0.0
    leak_estimate = leak_ec_estimate(n, min(qber, 0.5), params.f_ec)
    succeeds = params.leak_ec >= leak_estimate
    if succeeds and params.ec_success_prob < 1.0:
        succeeds = bool(rng.random() < params.ec_success_prob)
    corrected = z_a.copy() if succeeds else z_b.copy()
    omega_ec = bool(np.array_equal(corrected, z_a))
    return corrected, leak_estimate, omega_ec


def count_block_errors(block: Block, reference: np.ndarray, n_levels: int) -> Tuple[int, ...]:
    """Per-intensity Hamming distance between the block's stored bits and a
    reference string of equal length."""
    mismatch = block.bob_bits != reference
    counts = np.bincount(block.intensity_idx[mismatch], minlength=n_levels)
    return tuple(int(c) for c in counts[:n_levels])


def counted_stats(sifted: SiftResult, z_reference: np.ndarray) -> ObservedStats:
    """The sifted statistics with error counts filled in: key-block errors
    against ``z_reference`` (the verified key, or Alice's bits under ideal
    reconciliation), flagged post-verification, and monitoring-block errors
    against Alice's bits."""
    observed = sifted.observed
    n_levels = len(observed.z.detections)
    z_errors = count_block_errors(sifted.z_block, z_reference, n_levels)
    x_errors = count_block_errors(sifted.x_block, sifted.x_block.alice_bits, n_levels)
    return replace(
        observed,
        z=replace(observed.z, errors=z_errors, errors_post_ec=True),
        x=replace(observed.x, errors=x_errors),
    )


def acceptance_test(stats: ObservedStats, bounds: DecoyBounds, q: AcceptanceSet) -> bool:
    """All four conditions, with non-strict comparisons (ties accept):
    s0_lower >= s_z0, s1_lower >= s_z1, x_s1_lower >= s_x1 and
    lambda_upper <= lambda_u. A bound-level abort fails the test."""
    if bounds.abort_reason is not None or bounds.lambda_upper is None:
        return False
    return (
        bounds.s0_lower >= q.s_z0
        and bounds.s1_lower >= q.s_z1
        and bounds.x_s1_lower >= q.s_x1
        and bounds.lambda_upper <= q.lambda_u
    )


@dataclass
class RunRecord:
    """Everything one protocol run produced: event flags, register sizes,
    observed statistics, bounds and the outcome. ``omega_b`` (all decoy
    bounds hold against ground truth) is filled by the simulator, never by
    the protocol itself."""

    key_length: int
    outcome: str = "abort"
    key_alice: Optional[np.ndarray] = None
    key_bob: Optional[np.ndarray] = None
    omega_ec: Optional[bool] = None
    omega_ev: Optional[bool] = None
    omega_at: Optional[bool] = None
    omega_b: Optional[bool] = None
    c_ec_bits: float = 0.0
    c_ev_bits: int = 0
    leak_estimate: Optional[float] = None
    stats: Optional[ObservedStats] = None
    bounds: Optional[DecoyBounds] = None
    gamma_z: Optional[np.ndarray] = None
    gamma_x: Optional[np.ndarray] = None
    stages: List[str] = field(default_factory=list)
    abort_stage: Optional[str] = None

    @property
    def omega_top(self) -> bool:
        return bool(self.omega_ev) and bool(self.omega_at)

    def to_line(self) -> str:
        """Line-delimited serialization (JSON object per run)."""
        payload = {
            "outcome": self.outcome,
            "key_length": self.key_length,
            "omega_ec": self.omega_ec,
            "omega_ev": self.omega_ev,
            "omega_at": self.omega_at,
            "omega_b": self.omega_b,
            "c_ec_bits": self.c_ec_bits,
            "c_ev_bits": self.c_ev_bits,
            "leak_estimate": self.leak_estimate,
            "abort_stage": self.abort_stage,
            "stages": self.stages,
            "key_alice": hashing.bits_to_hex(self.key_alice) if self.key_alice is not None else None,
            "key_bob": hashing.bits_to_hex(self.key_bob) if self.key_bob is not None else None,
        }
        return json.dumps(payload, sort_keys=True)


def run_protocol(
    rounds,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> RunRecord:
    """Execute one fixed-length run.

    Stage order is part of the security argument and is recorded in the
    returned record: parameter agreement (key length fixed before any round
    is consumed), sifting, error correction, error verification, error
    counting (key-basis errors only exist after verification), decoy bounds,
    acceptance test, privacy amplification.
    """
    report = precompute_key_length(params)
    length = report.length
    record = RunRecord(key_length=length, stages=["parameter_agreement"])

    sifted = sift(rounds, params, rng)
    record.stages.append("sifting")
    if sifted.aborted:
        record.omega_at = False
        record.abort_stage = "sifting"
        return record
    record.gamma_z = sifted.z_block.indices
    record.gamma_x = sifted.x_block.indices
    record.stats = sifted.observed

    z_a = sifted.z_block.alice_bits
    z_b = sifted.z_block.bob_bits
    corrected, leak_estimate, omega_ec = error_correct(z_a, z_b, params, rng)
    record.omega_ec = omega_ec
    record.leak_estimate = leak_estimate
    record.c_ec_bits = params.leak_ec
    record.stages.append("error_correction")

    ev_pass, disclosed = hashing.verify_keys(z_a, corrected, params.eps_cor, rng)
    record.omega_ev = ev_pass
    record.c_ev_bits = disclosed
    record.stages.append("error_verification")
    if not ev_pass:
        record.abort_stage = "error_verification"
        return record

    # Key-basis errors: sifted key vs verified key, only known post-verification.
    stats = counted_stats(sifted, corrected)
    record.stages.append("error_counting")
    record.stats = stats

    bounds = decoy_bounds(stats.z, stats.x, params.intensities, params.ledger())
    record.bounds = bounds
    record.stages.append("decoy_bounds")

    accepted = acceptance_test(stats, bounds, params.acceptance)
    record.omega_at = accepted
    record.stages.append("acceptance_test")
    if not accepted:
        record.abort_stage = "acceptance_test"
        return record

    key_a, seed = hashing.privacy_amplify(z_a, length, rng)
    key_b = hashing.hash_bits(seed, corrected)
    record.stages.append("privacy_amplification")
    record.key_alice = key_a
    record.key_bob = key_b
    record.outcome = "key"
    return record
