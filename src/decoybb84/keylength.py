"""Secure-key-length calculator and epsilon-budget ledger.

Given an acceptance set (the agreed worst-case statistics) and a security
budget, computes the extractable key length

    l = floor( s_Z0_l + s_Z1_l (1 - h(lambda_u + gamma))
               - leak_EC - correctness_term - secrecy_term ),

clipped at zero. One formula, ``key_length``, serves both protocol modes: the
mode enters only through the concentration budget Delta_ci of the split.
``key_length_for_mode`` evaluates it on the simplified budget, where all
slack variables collapse onto a single eps0 (eps_sec' / 15 for 1-decoy,
eps_sec' / 17 for 2-decoy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import ConfigError, EstimateUnavailable, NoAdmissibleKey
from .numerics import TOL, binary_entropy, serfling_gamma

# Budget geometry of the simplified modes, per mode: (budget constant, number
# of delta_ci terms). Every slack variable is set to eps0 = eps_sec' / constant;
# the constant counts 2*nu + 2*alpha2 + delta_pa + delta_ci contributions, with
# delta_ci the 10-term (1-decoy) or 12-term (2-decoy) concentration ledger.
BUDGET_GEOMETRY = {"1decoy": (15, 10), "2decoy": (17, 12)}

@dataclass(frozen=True)
class EpsilonBudget:
    """Free budget split for the key-length formula.

    ``nu`` is the sampling-correction failure scale, ``alpha2`` the chain-rule
    smoothing parameter, ``delta_ci`` the total concentration-inequality
    budget. The privacy-amplification slack is whatever remains:
    ``eps_sec_prime - 2*(alpha2 + nu) - delta_ci``, which must be positive for
    a key to exist. The first smoothing parameter is fixed to zero.
    """

    eps_cor: float
    eps_sec_prime: float
    nu: float
    alpha2: float
    delta_ci: float
    eps0: Optional[float] = None  # set in simplified modes

    def __post_init__(self) -> None:
        for name in ("eps_cor", "eps_sec_prime", "nu", "alpha2", "delta_ci"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")

    @property
    def zeta_prime(self) -> float:
        return self.alpha2 + self.nu

    @property
    def pa_slack(self) -> float:
        return self.eps_sec_prime - 2.0 * self.zeta_prime - self.delta_ci

    @classmethod
    def simplified(cls, eps_cor: float, eps_sec_prime: float, mode: str) -> "EpsilonBudget":
        """Collapse every slack variable onto eps0 = eps_sec' / (15 or 17)."""
        if mode not in BUDGET_GEOMETRY:
            raise ConfigError(f"unknown mode {mode!r}")
        constant, terms = BUDGET_GEOMETRY[mode]
        eps0 = eps_sec_prime / constant
        return cls(
            eps_cor=eps_cor,
            eps_sec_prime=eps_sec_prime,
            nu=eps0,
            alpha2=eps0,
            delta_ci=terms * eps0,
            eps0=eps0,
        )


@dataclass(frozen=True)
class AcceptanceSet:
    """Pre-agreed acceptance thresholds: block sizes, worst-case vacuum and
    single-photon counts and the worst-case single-photon QBER."""

    n_z: int
    n_x: int
    s_z0: float
    s_z1: float
    s_x1: float
    lambda_u: float

    def __post_init__(self) -> None:
        if self.n_z < 0 or self.n_x < 0:
            raise ConfigError("block sizes must be nonnegative")
        if min(self.s_z0, self.s_z1, self.s_x1) < 0:
            raise ConfigError("acceptance counts must be nonnegative")
        if self.s_z0 + self.s_z1 > self.n_z:
            raise ConfigError("vacuum + single-photon thresholds exceed the key block")
        if self.s_x1 > self.n_x:
            raise ConfigError("single-photon threshold exceeds the monitoring block")
        if not 0.0 <= self.lambda_u <= 0.5:
            raise ConfigError(f"lambda_u must lie in [0, 0.5], got {self.lambda_u}")


@dataclass(frozen=True)
class KeyLengthReport:
    """Key length with its term breakdown.

    ``terms`` holds the signed contributions (vacuum, single_photon, leak_ec,
    correctness, secrecy); their sum reproduces ``pre_floor`` to within the
    central bookkeeping tolerance. ``length`` is the floored value clipped at
    zero; ``secure`` is False when the pre-floor value was negative.
    """

    length: int
    pre_floor: float
    gamma: float
    terms: Dict[str, float]
    secure: bool
    notes: List[str] = field(default_factory=list)


def leak_ec_estimate(n_z: float, qber: float, f_ec: float = 1.16) -> float:
    """Bits disclosed by error correction, modeled as N_Z * f_EC * h(QBER).
    ``f_ec`` is the reconciliation inefficiency (>= 1)."""
    if f_ec < 1.0:
        raise ConfigError(f"error-correction inefficiency must be >= 1, got {f_ec}")
    if not 0.0 <= qber <= 0.5:
        raise ConfigError(f"QBER must lie in [0, 0.5], got {qber}")
    return n_z * f_ec * binary_entropy(qber)


def gamma_for_acceptance(nu: float, q: AcceptanceSet) -> float:
    """Sampling correction evaluated at the acceptance thresholds,
    gamma(nu, s_z1, s_x1). Shrinks as either acceptance count grows."""
    if q.s_z1 < 1 or q.s_x1 < 1:
        raise EstimateUnavailable("abort: zero single-photon acceptance counts")
    return serfling_gamma(nu, q.s_z1, q.s_x1)


def correctness_hash_length(eps_cor: float) -> int:
    """Verification-hash length ceil(log2(2 / eps_cor)): one bit beyond the
    bare ceil(log2(1/eps_cor)) so the collision probability stays at or below
    eps_cor / 2 without rounding concerns."""
    if not 0.0 < eps_cor < 1.0:
        raise ConfigError(f"eps_cor must lie in (0, 1), got {eps_cor}")
    return math.ceil(math.log2(2.0 / eps_cor))


def key_length(
    q: AcceptanceSet,
    budget: EpsilonBudget,
    leak_ec: float,
    gamma: Optional[float] = None,
) -> KeyLengthReport:
    r"""Secure key length of either mode on the budget split ``budget``
    (general form after Lim et al., PRA 89, 022307 (2014)),

    .. math::

        l = \Big\lfloor s_{Z,0}^l + s_{Z,1}^l (1 - h(\Lambda^u + \gamma))
            - \mathrm{leak}_{EC} - \log_2\frac{2}{\epsilon_{cor}}
            - 2 \log_2\frac{1}{2\epsilon_{PA}} - \log_2\frac{2}{\alpha_2^2}
            \Big\rfloor ,

    with the privacy-amplification slack
    eps_PA = eps_sec' - 2 zeta' - Delta_ci (``budget.pa_slack``). The mode
    enters only through Delta_ci. The last two logarithms form the secrecy
    term; together with the correctness term log2(2/eps_cor) they sum to the
    general form's log2(4/(eps_cor alpha_2^2)) + 2 log2(1/(2 eps_PA)).

    Simplified budgets (``EpsilonBudget.simplified``) set nu = alpha_2 = eps0
    and Delta_ci = t eps0, with t = 10 (1-decoy) or 12 (2-decoy) ledger
    terms and eps0 = eps_sec'/c, c = t + 5. Then eps_PA = eps_sec' - 4 eps0
    - t eps0 = eps0, and the secrecy term is
    2 log2(1/(2 eps0)) + log2(2/eps0^2) = -1 - 4 log2(eps0)
    = 4 log2(c / (eps_sec' 2^(1/4))), the closed form of the simplified key
    length (c = 15 or 17).

    ``gamma`` defaults to the sampling correction at the acceptance counts
    with scale ``budget.nu``; pass an explicit value to study limiting cases.
    The first smoothing parameter is zero, and the formula also covers the
    no-smoothing regime where the implicit smoothing parameter reaches one:
    the trace-distance bound holds directly there, so no branching is needed.
    """
    slack = budget.pa_slack
    if slack <= 0.0:
        raise NoAdmissibleKey(
            f"no admissible key: eps_sec' leaves no privacy-amplification slack ({slack})"
        )
    notes: List[str] = []
    if q.s_z1 <= 0:
        single, gamma = 0.0, 0.0
        notes.append("single-photon threshold is zero; term dropped")
    else:
        if gamma is None:
            gamma = gamma_for_acceptance(budget.nu, q)
        single = q.s_z1 * (1.0 - binary_entropy(q.lambda_u + gamma))
    secrecy = 2.0 * math.log2(1.0 / (2.0 * slack)) + math.log2(2.0 / budget.alpha2**2)
    terms = {
        "vacuum": q.s_z0,
        "single_photon": single,
        "leak_ec": -leak_ec,
        "correctness": -math.log2(2.0 / budget.eps_cor),
        "secrecy": -secrecy,
    }
    pre_floor = math.fsum(terms.values())
    secure = pre_floor >= 0.0
    if not secure:
        notes.append("abort: no key (negative pre-floor length)")
    return KeyLengthReport(
        length=max(math.floor(pre_floor), 0),
        pre_floor=pre_floor,
        gamma=gamma,
        terms=terms,
        secure=secure,
        notes=notes,
    )


def key_length_for_mode(
    q: AcceptanceSet,
    eps_cor: float,
    eps_sec_prime: float,
    leak_ec: float,
    mode: str,
    gamma: Optional[float] = None,
) -> KeyLengthReport:
    """Key length of the protocol mode ('1decoy' / '2decoy') on its
    simplified budget, where every slack variable is eps0 = eps_sec'/15 or
    eps_sec'/17 (see ``key_length``)."""
    return key_length(q, EpsilonBudget.simplified(eps_cor, eps_sec_prime, mode), leak_ec, gamma)


def check_term_breakdown(report: KeyLengthReport) -> bool:
    """Bookkeeping invariant: the term breakdown reproduces the pre-floor
    value within the central tolerance."""
    return abs(math.fsum(report.terms.values()) - report.pre_floor) <= TOL.term_breakdown
