"""Line-oriented configuration: ``section.key = value`` per line.

Chosen for diff-friendliness and zero-dependency parsing. '#' starts a
comment, blank lines are ignored, keys are unique. Serialization is canonical
(sorted keys, repr-exact floats), so parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .decoy import Intensities
from .errors import ConfigError
from .keylength import AcceptanceSet
from .optimizer import OptimizerSettings, ParamRange, SearchSpace
from .protocol import ProtocolParams
from .simulator import ChannelModel


def parse_config(text: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys use dotted section names, got {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def serialize_config(values: Dict[str, str]) -> str:
    return "\n".join(f"{key} = {values[key]}" for key in sorted(values)) + "\n"


class Config:
    """Typed access over the raw key/value mapping, with field-path errors."""

    def __init__(self, values: Dict[str, str]):
        self.values = dict(values)

    @classmethod
    def from_text(cls, text: str) -> "Config":
        return cls(parse_config(text))

    def to_text(self) -> str:
        return serialize_config(self.values)

    def get_float(self, key: str, default: Optional[float] = None) -> float:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing config key {key!r}")
            return default
        try:
            value = float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {self.values[key]!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {self.values[key]!r}")
        return value

    def get_int(self, key: str, default: Optional[int] = None) -> int:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing config key {key!r}")
            return default
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {self.values[key]!r}") from exc

    def get_str(self, key: str, default: Optional[str] = None) -> str:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing config key {key!r}")
            return default
        return self.values[key]

    def get_bool(self, key: str, default: bool) -> bool:
        if key not in self.values:
            return default
        value = self.values[key].lower()
        if value in ("true", "yes", "1", "on"):
            return True
        if value in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {self.values[key]!r}")

    def has(self, key: str) -> bool:
        return key in self.values

    # -- builders -----------------------------------------------------------

    def intensities(self) -> Intensities:
        mu1 = self.get_float("protocol.mu1")
        mu2 = self.get_float("protocol.mu2")
        p1 = self.get_float("protocol.p_mu1")
        if self.has("protocol.mu3"):
            mu3 = self.get_float("protocol.mu3")
            p2 = self.get_float("protocol.p_mu2")
            p3 = 1.0 - p1 - p2
            return Intensities(values=(mu1, mu2, mu3), probabilities=(p1, p2, p3))
        p2 = self.get_float("protocol.p_mu2", 1.0 - p1)
        return Intensities(values=(mu1, mu2), probabilities=(p1, p2))

    def acceptance(self) -> AcceptanceSet:
        return AcceptanceSet(
            n_z=self.get_int("acceptance.n_z"),
            n_x=self.get_int("acceptance.n_x"),
            s_z0=self.get_float("acceptance.s_z0"),
            s_z1=self.get_float("acceptance.s_z1"),
            s_x1=self.get_float("acceptance.s_x1"),
            lambda_u=self.get_float("acceptance.lambda_u"),
        )

    def protocol_params(self) -> ProtocolParams:
        # Reconciliation is forward by construction; the key is accepted only
        # with that value so that a config asking for another fails loudly.
        if self.get_str("protocol.ec_direction", "forward") != "forward":
            raise ConfigError("protocol.ec_direction: only forward error correction is supported")
        gamma = self.get_float("keylength.gamma_override") if self.has("keylength.gamma_override") else None
        return ProtocolParams(
            intensities=self.intensities(),
            p_z_alice=self.get_float("protocol.p_z_alice"),
            p_z_bob=self.get_float("protocol.p_z_bob"),
            num_signals=self.get_int("protocol.num_signals"),
            eps_cor=self.get_float("security.eps_cor"),
            eps_sec_prime=self.get_float("security.eps_sec_prime"),
            acceptance=self.acceptance(),
            leak_ec=self.get_float("protocol.leak_ec"),
            f_ec=self.get_float("protocol.f_ec", 1.16),
            ec_success_prob=self.get_float("protocol.ec_success_prob", 1.0),
            gamma_override=gamma,
        )

    def channel(self) -> ChannelModel:
        if self.has("channel.loss_db"):
            if self.has("channel.eta"):
                raise ConfigError("give channel.eta or channel.loss_db, not both")
            eta = 10.0 ** (-self.get_float("channel.loss_db") / 10.0)
        else:
            eta = self.get_float("channel.eta")
        return ChannelModel(
            transmittance=eta,
            detector_efficiency=self.get_float("channel.eta_det", 1.0),
            dark_count_prob=self.get_float("channel.dark_count_prob", 0.0),
            misalignment=self.get_float("channel.misalignment", 0.0),
            double_click_policy=self.get_str("simulate.double_click_policy", "random"),
        )

    def optimizer_settings(self, mode: str) -> OptimizerSettings:
        return OptimizerSettings(
            num_signals=self.get_int("protocol.num_signals"),
            eps_cor=self.get_float("security.eps_cor"),
            eps_sec_prime=self.get_float("security.eps_sec_prime"),
            mode=mode,
            f_ec=self.get_float("protocol.f_ec", 1.16),
            margin=self.get_float("optimizer.margin", 0.1),
            block_margin=self.get_float("optimizer.block_margin", 0.1),
            leak_margin=self.get_float("optimizer.leak_margin", 0.1),
            min_block=self.get_int("optimizer.min_block", 16),
            tune_epsilon_split=self.get_bool("optimizer.tune_epsilon_split", False),
        )

    def search_space(self) -> SearchSpace:
        ranges: Dict[str, ParamRange] = {}
        fixed: Dict[str, float] = {}
        for key, value in self.values.items():
            if not key.startswith("space."):
                continue
            name = key.split(".", 1)[1]
            if ":" in value:
                parts = value.split(":")
                if len(parts) != 3:
                    raise ConfigError(f"{key}: expected 'lower:upper:points', got {value!r}")
                ranges[name] = ParamRange(float(parts[0]), float(parts[1]), int(parts[2]))
            else:
                fixed[name] = float(value)
        if not ranges and not fixed:
            raise ConfigError("no space.* entries configured")
        return SearchSpace(ranges=ranges, fixed=fixed)

    def scan_losses_db(self) -> List[float]:
        raw = self.get_str("scan.losses_db")
        losses = [float(part) for part in raw.split(",") if part.strip()]
        if not losses:
            raise ConfigError("scan.losses_db is empty")
        if any(b < a for a, b in zip(losses, losses[1:])):
            raise ConfigError("scan.losses_db must be monotone non-decreasing")
        return losses
