"""Scenario files: INI-style sections describing one reproducible run.

Sections: ``[scenario]`` (name, seed), ``[protocol]`` (variant, rounds,
transmission, detectors, policy, caps), ``[source]`` (pulse-size
probabilities), ``[strengthening]`` (the cross-basis and extra-state
fractions), ``[attack]`` (name plus the attack's parameters),
``[expectations]`` (one ``metric = analytic mode value`` line each).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import attacks as attacks_mod
from .protocol import ConfigError, ProtocolConfig
from .report import Expectation


class ScenarioError(ValueError):
    """A scenario file could not be parsed or validated."""


#: each attack's parameter keys in ``[attack]``, besides ``name``
ATTACK_KEYS: Dict[str, Tuple[str, ...]] = {
    "identity": ("probe_dim",),
    "pns": (),
    "usd-b92": (),
    "tagging": (),
    "constrained-random": ("seed", "probe_dim", "violation",
                           "violation_level"),
    "general": ("probe_dim", "outbound_file", "return_file"),
}

ATTACK_SUMMARIES: Dict[str, str] = {
    "identity": (
        "Eve does nothing: both passes are the identity, the channel keeps "
        "its natural loss, and no information leaks."),
    "pns": (
        "Nondemolition splitting of two-photon pulses: Eve keeps one photon "
        "in a matching mode of her own two-mode register and forwards the "
        "other, an operation invisible in both measurement bases; she reads "
        "her photon after the basis announcement.  Pulse selection forwards "
        "split photons until the receiver's expected count is met and blocks "
        "everything else over a lossless substitute channel.  Parameters: "
        "none (two-photon rules; other pulse sizes pass through)."),
    "usd-b92": (
        "Intercept-resend on the two-state protocol: Eve measures each pulse "
        "in one of the receiver's two bases; an unambiguous outcome "
        "identifies the state, which she resends over a lossless channel, "
        "otherwise she sends vacuum.  Only worth attempting when the loss "
        "rate reaches (1+overlap^2)/2, for the configured signal-state "
        "overlap.  Parameters: none."),
    "tagging": (
        "Photon-number tag: the outbound pulse is replaced by "
        "(|0,2>+|2,0>)/sqrt(2); the return map folds the tag back into a "
        "single photon so reflected rounds look untouched.  Against "
        "destructive measure-and-resend detectors, the returned photon "
        "count alone decodes the classical party's action with certainty, "
        "though it yields no key information either way.  Parameters: none."),
    "constrained-random": (
        "Random attack satisfying every undetectability rule: the outbound "
        "pulse spreads over single-mode occupations only and the return leg "
        "attaches one common probe component to both key bits.  Used to "
        "exercise the robustness statement numerically.  Parameters: seed, "
        "probe_dim (default 4), optional violation in "
        "{single-photon-mismatch, multi-photon-return} with violation_level."),
    "general": (
        "User-supplied dense outbound/return maps over probe x channel, "
        "validated as isometries.  Parameters: probe_dim, outbound_file, "
        "return_file (row-major re/im float pairs)."),
}


@dataclass
class Scenario:
    name: str
    config: ProtocolConfig
    attack_name: str
    attack_params: Dict[str, str] = field(default_factory=dict)
    expectations: List[Expectation] = field(default_factory=list)

    def build_attack(self) -> attacks_mod.AttackSpec:
        return build_attack(self.attack_name, self.attack_params, self.config)


def _suggest(name: str) -> str:
    close = [n for n in ATTACK_KEYS
             if n.startswith(name[:3]) or name in n or n in name]
    return f" (did you mean {close[0]!r}?)" if close else ""


def list_attacks() -> List[str]:
    return list(ATTACK_KEYS)


def describe_attack(name: str) -> str:
    if name not in ATTACK_SUMMARIES:
        raise ScenarioError(f"unknown attack {name!r}{_suggest(name)}")
    return f"{name}: {ATTACK_SUMMARIES[name]}"


def build_attack(name: str, params: Dict[str, str],
                 config: ProtocolConfig) -> attacks_mod.AttackSpec:
    if name not in ATTACK_KEYS:
        raise ScenarioError(f"unknown attack {name!r}{_suggest(name)}")
    for key in params:
        if key not in ATTACK_KEYS[name]:
            takes = ", ".join(ATTACK_KEYS[name]) or "no keys"
            raise ScenarioError(f"[attack] {key}: unknown key; the {name} "
                                f"attack takes {takes}")
    if name == "identity":
        return attacks_mod.identity_attack(
            probe_dim=int(params.get("probe_dim", 1)))
    if name == "pns":
        return attacks_mod.pns_attack(n_max=config.channel_n_max())
    if name == "tagging":
        return attacks_mod.tagging_attack()
    if name == "usd-b92":
        return attacks_mod.usd_attack_b92()
    if name == "constrained-random":
        violation = params.get("violation") or None
        return attacks_mod.constrained_random_attack(
            seed=int(params.get("seed", config.rng_seed + 1)),
            probe_dim=int(params.get("probe_dim", 4)),
            n_max=config.channel_n_max(),
            violation=violation,
            violation_level=int(params.get("violation_level", 2)))
    # general
    for key in ("outbound_file", "return_file", "probe_dim"):
        if key not in params:
            raise ScenarioError(f"general attack needs {key!r}")
    matrices = []
    for key in ("outbound_file", "return_file"):
        try:
            matrices.append(attacks_mod.load_matrix_file(params[key]))
        except OSError as exc:
            raise ScenarioError(
                f"{params[key]}: {exc.strerror or exc}") from None
    return attacks_mod.general_attack(
        *matrices,
        probe_dim=int(params["probe_dim"]),
        n_max=config.channel_n_max())


Setter = Callable[[ProtocolConfig, str], None]


def _field(name: str, convert: Callable[[str], object] = str) -> Setter:
    """Setter of config field ``name`` from its converted text."""
    return lambda cfg, raw: setattr(cfg, name, convert(raw))


def _pulse(size: int) -> Setter:
    """Setter of the probability of a pulse of ``size`` photons."""
    return lambda cfg, raw: setattr(cfg, "source_stats", tuple(
        float(raw) if i == size else p for i, p in enumerate(cfg.source_stats)))


#: each config section's keys, in the order the sections apply, with the
#: setter each applies to the config; the scenario name is read on its own
_SETTERS: Dict[str, Dict[str, Optional[Setter]]] = {
    "scenario": {"name": None, "seed": _field("rng_seed", int)},
    "protocol": {
        "variant": _field("variant"),
        "rounds": _field("rounds", int),
        "transmission": _field("transmission", float),
        "detector_model": _field("detector_model"),
        "residual_policy": _field("residual_policy"),
        "test_fraction": _field("test_fraction", float),
        "n_max": _field("n_max", int),
        "b92_overlap": _field("b92_overlap", float),
    },
    "source": {"p0": _pulse(0), "p1": _pulse(1), "p2": _pulse(2)},
    "strengthening": {
        "cross_basis_fraction": _field("cross_basis_fraction", float),
        "extra_state_fraction": _field("extra_state_fraction", float),
    },
}


def load_scenario(path: str) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError:
        raise ScenarioError(f"cannot read scenario file {path!r}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in (*_SETTERS, "attack", "expectations"):
            raise ScenarioError(f"{path}: unknown section [{section}]")

    def get(section: str, key: str, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    name = get("scenario", "name") or path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    cfg = ProtocolConfig()
    for section, setters in _SETTERS.items():
        for key in parser.options(section) if section in parser else ():
            where = f"{path}: [{section}] {key}"
            if key not in setters:
                raise ScenarioError(f"{where}: unknown key")
            try:
                if setters[key] is not None:
                    setters[key](cfg, parser.get(section, key).strip())
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc

    attack_name = get("attack", "name", "identity")
    attack_params = {}
    if parser.has_section("attack"):
        attack_params = {k: parser.get("attack", k).strip()
                         for k in parser.options("attack") if k != "name"}

    expectations: List[Expectation] = []
    if parser.has_section("expectations"):
        for metric in parser.options("expectations"):
            raw = parser.get("expectations", metric).strip()
            parts = raw.split()
            if len(parts) != 3 or parts[1] not in ("abs", "sigma"):
                raise ScenarioError(
                    f"{path}: [expectations] {metric} must read "
                    f"'<analytic> abs|sigma <value>', got {raw!r}")
            try:
                analytic, band = float(parts[0]), float(parts[2])
            except ValueError as exc:
                raise ScenarioError(f"{path}: [expectations] {metric}: {exc}")
            if not (math.isfinite(analytic) and 0.0 <= band < math.inf):
                raise ScenarioError(
                    f"{path}: [expectations] {metric}: the analytic value "
                    f"must be finite and the band finite and non-negative, "
                    f"got {raw!r}")
            expectations.append(Expectation(metric=metric, analytic=analytic,
                                            mode=parts[1], value=band))

    try:
        cfg.validate()
    except ConfigError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return Scenario(name=name, config=cfg, attack_name=attack_name,
                    attack_params=attack_params, expectations=expectations)
