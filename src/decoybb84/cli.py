"""Batch front-end.

Subcommands: keylength (term-by-term secure-key-length breakdown), simulate
(full protocol runs with oracle-checked bounds), validate (bound-coverage
Monte Carlo), optimize (parameter search trace) and scan (key rate vs channel
loss table). All outputs are deterministic under a fixed seed; exit codes are
0 for success/key, 2 for no admissible key, 1 for errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import simulator
from .config import Config
from .decoy import EpsilonLedger
from .errors import ConfigError, EstimateUnavailable, NoAdmissibleKey
from .keylength import key_length_for_mode
from .optimizer import optimize
from .protocol import ProtocolParams, precompute_key_length, run_protocol
from .simulator import generate_rounds, validate_bounds

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_KEY = 2


def _write_out(out: Optional[str], text: str) -> None:
    if out:
        Path(out).write_text(text)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _resolve_mode(cfg: Config, flag: Optional[str]) -> str:
    inferred = "2decoy" if cfg.has("protocol.mu3") else "1decoy"
    return flag or inferred


def _protocol_params(cfg: Config, args: argparse.Namespace) -> ProtocolParams:
    params = cfg.protocol_params()
    mode = _resolve_mode(cfg, args.mode)
    if mode != params.mode:
        raise ConfigError(f"--mode {mode} does not match the configured intensities")
    return params


def cmd_keylength(cfg: Config, args: argparse.Namespace) -> int:
    mode = _resolve_mode(cfg, args.mode)
    gamma = cfg.get_float("keylength.gamma_override") if cfg.has("keylength.gamma_override") else None
    try:
        report = key_length_for_mode(
            cfg.acceptance(),
            cfg.get_float("security.eps_cor"),
            cfg.get_float("security.eps_sec_prime"),
            cfg.get_float("protocol.leak_ec"),
            mode,
            gamma=gamma,
        )
    except NoAdmissibleKey as exc:
        print(f"no admissible key: {exc}")
        return EXIT_NO_KEY
    lines = [f"mode = simplified-{mode}", f"gamma = {report.gamma:.10g}"]
    for name in ("vacuum", "single_photon", "leak_ec", "correctness", "secrecy"):
        lines.append(f"{name:<16} {report.terms[name]:+.6f}")
    lines.append(f"{'pre_floor':<16} {report.pre_floor:.6f}")
    lines.append(f"{'key_length':<16} {report.length}")
    for note in report.notes:
        lines.append(f"note: {note}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_out(args.out, text)
    return EXIT_OK if report.secure and report.length > 0 else EXIT_NO_KEY


def cmd_simulate(cfg: Config, args: argparse.Namespace) -> int:
    params = _protocol_params(cfg, args)
    channel = cfg.channel()
    trials = args.trials or cfg.get_int("run.trials", 10)
    seed = args.seed if args.seed is not None else cfg.get_int("run.seed", 0)
    rng = _rng(seed)
    seeds = np.random.SeedSequence(int(rng.integers(0, 2**63 - 1))).spawn(trials)

    accepted = 0
    ev_pass_keys_differ = 0
    bound_violation_counts: dict = {}
    oracle_runs = 0
    record_lines: List[str] = []
    for seed_seq in seeds:
        trial_rng = np.random.Generator(np.random.Philox(seed_seq))
        rounds = generate_rounds(params, channel, params.num_signals, trial_rng)
        record = run_protocol(rounds, params, trial_rng)
        truth = simulator.attach_oracle(record, rounds)
        if truth is not None and record.bounds is not None:
            oracle_runs += 1
            for name, violated in simulator.bound_violations(record.bounds, truth).items():
                bound_violation_counts[name] = bound_violation_counts.get(name, 0) + int(violated)
        if record.outcome == "key":
            accepted += 1
            if record.omega_ev and not np.array_equal(record.key_alice, record.key_bob):
                ev_pass_keys_differ += 1
        record_lines.append(record.to_line())

    fixed_l = precompute_key_length(params).length
    out_lines = [
        f"trials = {trials}",
        f"seed = {seed}",
        f"key_length = {fixed_l}",
        f"accept_rate = {accepted / trials:.6f}",
        f"mean_delivered_bits = {accepted * fixed_l / trials:.6f}",
        f"ev_pass_and_keys_differ = {ev_pass_keys_differ / trials:.8f} (eps_cor bound {params.eps_cor:.3g})",
    ]
    if oracle_runs:
        out_lines.append(f"bound violation rates over {oracle_runs} oracle-checked runs:")
        for name in sorted(bound_violation_counts):
            rate = bound_violation_counts[name] / oracle_runs
            out_lines.append(f"  {name:<16} {rate:.6f}")
    text = "\n".join(out_lines) + "\n"
    print(text, end="")
    _write_out(args.out, text + "".join(line + "\n" for line in record_lines))
    return EXIT_OK


def cmd_validate(cfg: Config, args: argparse.Namespace) -> int:
    params = _protocol_params(cfg, args)
    channel = cfg.channel()
    trials = args.trials or cfg.get_int("run.trials", 1000)
    seed = args.seed if args.seed is not None else cfg.get_int("run.seed", 0)
    if cfg.has("ledger.eps"):
        ledger = EpsilonLedger.uniform(cfg.get_float("ledger.eps"), len(params.intensities.values))
    else:
        ledger = params.ledger()
    report = validate_bounds(
        params, channel, trials, ledger, _rng(seed),
        workers=args.workers or cfg.get_int("run.workers", 1),
    )
    text = report.to_table() + "\n"
    print(text, end="")
    _write_out(args.out, text)
    return EXIT_OK


def cmd_optimize(cfg: Config, args: argparse.Namespace) -> int:
    mode = _resolve_mode(cfg, args.mode)
    settings = cfg.optimizer_settings(mode)
    space = cfg.search_space()
    channel = cfg.channel()
    method = cfg.get_str("optimizer.method", "grid")
    result = optimize(space, channel, settings, method)
    lines = [f"method = {result.method}", f"best_rate = {result.best_rate:.12g}"]
    for name in sorted(result.best_values):
        lines.append(f"best.{name} = {result.best_values[name]:.12g}")
    if result.best_point is None:
        lines.append("no key anywhere in the searched space")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_out(args.out, result.trace_csv())
    if result.best_point is None or result.best_rate <= 0.0:
        return EXIT_NO_KEY
    return EXIT_OK


SCAN_HEADER = "loss_db,key_rate,accept_margin"


def cmd_scan(cfg: Config, args: argparse.Namespace) -> int:
    """Key rate vs added channel loss; eta scales by 10**(-dB/10)."""
    mode = _resolve_mode(cfg, args.mode)
    settings = cfg.optimizer_settings(mode)
    space = cfg.search_space()
    base_channel = cfg.channel()
    method = cfg.get_str("optimizer.method", "grid")
    rows = [SCAN_HEADER]
    for loss_db in cfg.scan_losses_db():
        eta = base_channel.transmittance * 10.0 ** (-loss_db / 10.0)
        channel = replace(base_channel, transmittance=eta)
        result = optimize(space, channel, settings, method)
        rows.append(f"{loss_db:.12g},{result.best_rate:.12g},{settings.margin:.12g}")
    text = "\n".join(rows) + "\n"
    print(text, end="")
    _write_out(args.out, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoybb84",
        description="Finite-size decoy-state BB84 analysis: key lengths, "
        "protocol simulation, bound validation, parameter optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("keylength", cmd_keylength),
        ("simulate", cmd_simulate),
        ("validate", cmd_validate),
        ("optimize", cmd_optimize),
        ("scan", cmd_scan),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the key = value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides run.seed)")
        p.add_argument("--trials", type=int, default=None, help="trial count (overrides run.trials)")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--mode", choices=("1decoy", "2decoy"), default=None)
        p.set_defaults(handler=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config.from_text(Path(args.config).read_text())
        return args.handler(cfg, args)
    except NoAdmissibleKey as exc:
        print(f"no admissible key: {exc}", file=sys.stderr)
        return EXIT_NO_KEY
    except (ConfigError, OSError, ValueError, EstimateUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
