"""The three benchmark workloads.

Each workload is built from a seed (``__init__`` is the timed set-up: it builds
every parameter the ops need) and then runs in batches. ``batch(k)`` returns
the k-th batch of ops as zero-argument callables; calling one twice runs the
same inputs twice, which the traced run relies on to compare traced and plain
wall time on identical work. ``check(outputs)`` takes the batch's outputs (an
exception object for an op that raised) and returns one ``Verdict`` per op.

All calls go through the package's public functions, looked up on their
modules at call time so that the tracer's wrappers see them, in one process,
with ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from decoybb84 import hashing, optimizer, protocol, simulator
from decoybb84.decoy import EpsilonLedger, Intensities
from decoybb84.optimizer import OptimizerSettings, ParamRange, SearchSpace
from decoybb84.simulator import ChannelModel

EPS_COR = 1e-12
EPS_SEC_PRIME = 1e-9

# Margins that place block sizes, acceptance thresholds and the leak
# allowance below the expected values, shared by every workload.
MARGINS = dict(margin=0.2, block_margin=0.12, leak_margin=0.35)


@dataclass
class Verdict:
    ok: bool
    work: float  # units of work completed; counted only when ok
    note: str = ""
    raised: bool = False


def _raised(exc: Exception) -> Verdict:
    return Verdict(False, 0, f"{type(exc).__name__}: {exc}", raised=True)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _operating_point(num_signals, channel, values, probabilities, p_z):
    settings = OptimizerSettings(
        num_signals=num_signals, eps_cor=EPS_COR, eps_sec_prime=EPS_SEC_PRIME,
        mode="1decoy", **MARGINS,
    )
    intensities = Intensities(values, probabilities)
    point = optimizer.derive_operating_point(intensities, p_z, channel, settings)
    if point is None:
        raise RuntimeError("workload operating point admits no key")
    return point.params


class Coverage:
    """Repeated Monte Carlo validation of the 1-decoy bounds.

    Why: the simulator layer does almost all the work (round generation
    dominates, then sifting and truth tallies; the bounds are a small share),
    and the lambda bound is defined in every trial, unlike the vacuous regime.
    A count-level sampler should move this workload and no other.
    """

    name = "coverage"
    unit = "trials"
    ledger_eps = 1e-2
    trials_per_op = 20  # about 1.4 s per op on a 2-core Xeon

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.channel = ChannelModel(transmittance=0.3, dark_count_prob=1e-5, misalignment=0.01)
        self.params = _operating_point(300_000, self.channel, (0.8, 0.25), (0.5, 0.5), 0.6)
        self.ledger = EpsilonLedger.uniform(self.ledger_eps, 2)

    def batch(self, k: int) -> List[Callable]:
        def op():
            return simulator.validate_bounds(
                self.params, self.channel, self.trials_per_op, self.ledger,
                _rng(self.seed, k), workers=1,
            )

        op.label = f"validate_bounds[{k}]"
        return [op]

    def check(self, outputs: Sequence) -> List[Verdict]:
        verdicts = []
        for report in outputs:
            if isinstance(report, Exception):
                verdicts.append(_raised(report))
                continue
            problems = []
            if report.trials + report.aborted_trials != self.trials_per_op:
                problems.append("trial count mismatch")
            if report.trials == 0:
                problems.append("no completed trial")
            for name, entry in {**report.entries, **report.interval_entries}.items():
                if entry.rate > entry.tolerance(self.ledger_eps):
                    problems.append(f"{name} violation rate {entry.rate:.4g}")
            if report.trials - report.lambda_undefined < 0.9 * report.trials:
                problems.append(f"lambda undefined in {report.lambda_undefined} trials")
            verdicts.append(Verdict(not problems, report.trials, "; ".join(problems)))
        return verdicts


# Grid endpoints of the scan. With these endpoints the 2-decoy grid at 20 dB
# holds the point (mu1 0.829, mu2 0.186, p_mu1 0.578, p_z 0.85) whose expected
# x_s1_lower is about 0.74, so its acceptance threshold s_x1 is about 0.59 < 1:
# keylength.gamma_for_acceptance raises EstimateUnavailable, which
# derive_operating_point does not catch, and that optimize call fails. This is
# a known defect the benchmark shows as a failed op on every seed.
SCAN_RANGES = {
    "mu1": (0.4, 0.9),
    "mu2": (0.1, 0.4),
    "p_mu1": (0.3, 0.78631),
    "p_z": (0.5, 0.85),
}
SCAN_FIXED = {"1decoy": {}, "2decoy": {"mu3": 0.01, "p_mu2": 0.1}}
SCAN_LOSSES_DB = (0.0, 10.0, 20.0, 30.0)
# Relative jitter drawn per batch, so that no exact input repeats and a cache
# keyed on one exact grid cannot pass for a speed-up. The endpoint jitter is
# kept this small because the known-defect point above sits in a window about
# 1e-5 wide in p_z; a larger jitter would show the defect on some seeds only.
GRID_JITTER = 1e-7
NOISE_JITTER = 1e-4


class Scan:
    """Grid search of protocol parameters against channel loss.

    Why: scalar Python in optimizer, decoy, numerics and keylength, with no
    Monte Carlo and no hashing. Feasible points run from nearly all at 0 dB to
    none at 30 dB, so both the full path and the early-return path are timed.
    An array-native bound engine should move this workload.
    """

    name = "scan"
    unit = "grid points"
    points_per_axis = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.settings = {
            mode: OptimizerSettings(
                num_signals=10**9, eps_cor=EPS_COR, eps_sec_prime=EPS_SEC_PRIME,
                mode=mode, **MARGINS,
            )
            for mode in SCAN_FIXED
        }
        self.cases = [(mode, loss) for mode in SCAN_FIXED for loss in SCAN_LOSSES_DB]

    def _inputs(self, k: int):
        rng = _rng(self.seed, k)

        def jitter(value, scale):
            return value * (1.0 + scale * rng.uniform(-1.0, 1.0))

        ranges = {
            name: ParamRange(jitter(lo, GRID_JITTER), jitter(hi, GRID_JITTER), self.points_per_axis)
            for name, (lo, hi) in SCAN_RANGES.items()
        }
        dark = jitter(1e-6, NOISE_JITTER)
        misalignment = jitter(0.01, NOISE_JITTER)
        return ranges, dark, misalignment

    def batch(self, k: int) -> List[Callable]:
        ranges, dark, misalignment = self._inputs(k)
        ops = []
        for mode, loss in self.cases:
            space = SearchSpace(ranges, SCAN_FIXED[mode])
            channel = ChannelModel(
                transmittance=10.0 ** (-loss / 10.0), detector_efficiency=0.5,
                dark_count_prob=dark, misalignment=misalignment,
            )

            def op(space=space, channel=channel, settings=self.settings[mode]):
                return optimizer.optimize(space, channel, settings, method="grid")

            op.label = f"optimize[{k}] {mode} {loss:g} dB"
            ops.append(op)
        return ops

    def check(self, outputs: Sequence) -> List[Verdict]:
        verdicts = [
            _raised(r) if isinstance(r, Exception)
            else Verdict(True, len(r.trace))
            for r in outputs
        ]
        for mode in SCAN_FIXED:
            previous = None
            for i, (case_mode, loss) in enumerate(self.cases):
                if case_mode != mode or not verdicts[i].ok:
                    continue
                rate = outputs[i].best_rate
                if loss == 0.0 and not rate > 0.0:
                    verdicts[i] = Verdict(False, 0, "no key at 0 dB")
                elif previous is not None and rate > previous:
                    verdicts[i] = Verdict(False, 0, f"rate {rate:.6g} rises with loss")
                previous = rate
        return verdicts


class Keyrun:
    """One large fixed-length protocol run through privacy amplification.

    Why: one huge run whose bits are kept and sent through hashing (two
    verification and two privacy-amplification Toeplitz products on the FFT
    path) after round generation. Hashing does no work in the other
    workloads, and a count-level sampler made only for coverage must leave
    this workload unchanged.
    """

    name = "keyrun"
    unit = "key bits"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.channel = ChannelModel(transmittance=0.8, dark_count_prob=1e-6, misalignment=0.01)
        self.params = _operating_point(4_000_000, self.channel, (0.6, 0.2), (0.7, 0.3), 0.8)
        self.key_length = protocol.precompute_key_length(self.params).length

    def batch(self, k: int) -> List[Callable]:
        def op():
            rng = _rng(self.seed, k)
            n = self.params.num_signals
            rounds = simulator.generate_rounds(self.params, self.channel, n, rng)
            return protocol.run_protocol(rounds, self.params, rng)

        op.label = f"run_protocol[{k}]"
        return [op]

    def check(self, outputs: Sequence) -> List[Verdict]:
        verdicts = []
        for record in outputs:
            if isinstance(record, Exception):
                verdicts.append(_raised(record))
            elif record.outcome != "key":
                verdicts.append(Verdict(True, 0, f"aborted at {record.abort_stage}"))
            elif len(record.key_alice) != self.key_length:
                verdicts.append(Verdict(False, 0, f"key has {len(record.key_alice)} bits"))
            elif not np.array_equal(record.key_alice, record.key_bob):
                verdicts.append(Verdict(False, 0, "keys differ"))
            else:
                verdicts.append(Verdict(True, len(record.key_alice)))
        return verdicts


WORKLOADS = {w.name: w for w in (Coverage, Scan, Keyrun)}


def check_hashing(vector_text: str, rng: np.random.Generator) -> List[str]:
    """Pre-timing checks of the hashing layer; returns the problems found.

    The FFT path (in_len * out_len > 2**22) must equal the explicit Toeplitz
    matrix times x mod 2, and the test vectors in ``vector_text`` (the
    committed tests/data/toeplitz_vectors.txt) must reproduce bit-exactly.
    """
    try:
        return _hashing_problems(vector_text, rng)
    except Exception as exc:  # a raising hash is a failed check, not a crash
        return [f"hashing check raised {type(exc).__name__}: {exc}"]


def _hashing_problems(vector_text: str, rng: np.random.Generator) -> List[str]:
    problems = []
    in_len, out_len = 3000, 1500
    seed = hashing.sample_hash(in_len, out_len, rng)
    x = hashing.random_bits(in_len, rng)
    # Rows i..i+rows-1 of the matrix are the matrix of the seed window
    # bits[i : i + in_len + rows - 1]; building it in row blocks keeps this
    # check from setting the process's peak memory.
    rows = 100
    x32 = x.astype(np.int32)
    reference = np.concatenate([
        (hashing.toeplitz_matrix(
            hashing.ToeplitzSeed(seed.bits[i : i + in_len + rows - 1], in_len, rows)
        ).astype(np.int32) @ x32) & 1
        for i in range(0, out_len, rows)
    ])
    if not np.array_equal(hashing.hash_bits(seed, x), reference):
        problems.append("hash_bits FFT path differs from the Toeplitz matrix product")
    vectors = hashing.load_test_vectors(vector_text)
    if not vectors:
        problems.append("no Toeplitz test vectors")
    for i, (bits, vseed, expected) in enumerate(vectors):
        if not np.array_equal(hashing.hash_bits(vseed, bits), expected):
            problems.append(f"Toeplitz test vector {i} does not reproduce")
    return problems
