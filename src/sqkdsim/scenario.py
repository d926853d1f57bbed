"""Scenario files: INI-style sections describing one reproducible run.

Sections: ``[scenario]`` (name, seed), ``[protocol]`` (variant, rounds,
transmission, detectors, policy, caps), ``[source]`` (pulse-size
probabilities), ``[strengthening]`` (the cross-basis and extra-state
fractions), ``[attack]`` (name plus the keys ``ATTACKS`` gives that attack),
``[expectations]`` (one ``metric = analytic mode value`` line each).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import attacks as attacks_mod
from .protocol import ConfigError, ProtocolConfig, check_runs_on
from .report import Expectation


class ScenarioError(ValueError):
    """A scenario file could not be parsed or validated."""


#: the default of an ``[attack]`` key that must be given
REQUIRED = object()


class FromConfig(NamedTuple):
    """A default computed from the run's config, described as ``text``."""
    text: str
    value: Callable[[ProtocolConfig], object]


class Key(NamedTuple):
    """One ``[attack]`` key: the converter of its text, its default, and
    the only values it takes, if it takes only a few."""
    convert: Callable[[str], object]
    default: object = REQUIRED
    choices: Tuple[str, ...] = ()

    def about(self) -> str:
        """What ``attacks describe`` prints of the key in parentheses."""
        if self.default is REQUIRED:
            default = "required"
        elif isinstance(self.default, FromConfig):
            default = f"default: {self.default.text}"
        else:
            shown = "none" if self.default is None else self.default
            default = f"default {shown}"
        if self.choices:
            return f"{' or '.join(self.choices)}; {default}"
        return default


class Attack(NamedTuple):
    """An attack a scenario can name: ``factory(config, **values)`` builds
    it from the values of its ``keys``."""
    factory: Callable[..., attacks_mod.AttackSpec]
    keys: Dict[str, Key]
    summary: str


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


#: every attack ``[attack] name`` can name, in the order ``attacks list``
#: prints them
ATTACKS: Dict[str, Attack] = {
    "identity": Attack(
        lambda config: attacks_mod.identity_attack(), {},
        "Eve does nothing: both passes are the identity, the channel keeps "
        "its natural loss, and no information leaks."),
    "pns": Attack(
        lambda config: attacks_mod.pns_attack(n_max=config.channel_n_max()),
        {},
        "Nondemolition splitting of two-photon pulses: Eve keeps one photon "
        "in a matching mode of her own two-mode register and forwards the "
        "other, an operation invisible in both measurement bases; she reads "
        "her photon after the basis announcement.  Pulse selection forwards "
        "split photons until the receiver's expected count is met and blocks "
        "everything else over a lossless substitute channel.  Other pulse "
        "sizes pass through."),
    "usd-b92": Attack(
        lambda config: attacks_mod.usd_attack_b92(),
        {},
        "Intercept-resend on the two-state protocol: Eve measures each pulse "
        "in one of the receiver's two bases; an unambiguous outcome "
        "identifies the state, which she resends over a lossless channel, "
        "otherwise she sends vacuum.  Only worth attempting when the loss "
        "rate reaches (1+overlap^2)/2, for the signal-state overlap "
        "[protocol] b92_overlap."),
    "tagging": Attack(
        lambda config: attacks_mod.tagging_attack(config.channel_n_max()),
        {},
        "Photon-number tag: the outbound pulse is replaced by "
        "(|0,2>+|2,0>)/sqrt(2); the return map folds the tag back into a "
        "single photon so reflected rounds look untouched.  Against "
        "destructive measure-and-resend detectors, the returned photon "
        "count alone decodes the classical party's action with certainty, "
        "though it yields no key information either way."),
    "constrained-random": Attack(
        lambda config, **values: attacks_mod.constrained_random_attack(
            n_max=config.channel_n_max(), **values),
        {"seed": Key(int, FromConfig("the scenario's seed + 1",
                                     lambda config: config.rng_seed + 1)),
         "probe_dim": Key(_positive_int, 4),
         "violation": Key(str, None, attacks_mod.VIOLATIONS),
         "violation_level": Key(int, 2)},
        "Random attack satisfying every undetectability rule: the outbound "
        "pulse spreads over single-mode occupations only and the return leg "
        "attaches one common probe component to both key bits.  Used to "
        "exercise the robustness statement numerically.  A violation breaks "
        "exactly one rule; a multi-photon return leaks at violation_level "
        "photons."),
    "general": Attack(
        lambda config, probe_dim, outbound_file, return_file:
            attacks_mod.general_attack(
                attacks_mod.load_matrix_file(outbound_file),
                attacks_mod.load_matrix_file(return_file),
                probe_dim=probe_dim, n_max=config.channel_n_max()),
        {"probe_dim": Key(_positive_int), "outbound_file": Key(str),
         "return_file": Key(str)},
        "User-supplied dense outbound/return maps over probe x channel, "
        "validated as isometries; each file holds row-major re/im float "
        "pairs."),
}


@dataclass
class Scenario:
    path: str
    name: str
    config: ProtocolConfig
    attack_name: str
    attack_params: Dict[str, str] = field(default_factory=dict)
    expectations: List[Expectation] = field(default_factory=list)

    def build_attack(self) -> attacks_mod.AttackSpec:
        try:
            attack = build_attack(self.attack_name, self.attack_params,
                                  self.config)
            check_runs_on(attack, self.config.variant)
        except ValueError as exc:
            # the factory and the rule check the values with the config
            raise ScenarioError(f"{self.path}: [attack]: {exc}") from exc
        return attack


def _suggest(name: str) -> str:
    close = [n for n in ATTACKS
             if n.startswith(name[:3]) or name in n or n in name]
    return f" (did you mean {close[0]!r}?)" if close else ""


def list_attacks() -> List[str]:
    return list(ATTACKS)


def describe_attack(name: str) -> str:
    if name not in ATTACKS:
        raise ScenarioError(f"unknown attack {name!r}{_suggest(name)}")
    attack = ATTACKS[name]
    keys = ", ".join(f"{key} ({spec.about()})"
                     for key, spec in attack.keys.items()) or "none"
    return f"{name}: {attack.summary}  Keys: {keys}."


def _convert(name: str, params: Dict[str, str]) -> Dict[str, object]:
    """The ``[attack]`` text values ``params`` of attack ``name``, converted
    and with the defaults of the keys not given; a ScenarioError names the
    key that is unknown, malformed or missing."""
    if name not in ATTACKS:
        raise ScenarioError(
            f"[attack] name: unknown attack {name!r}{_suggest(name)}")
    keys = ATTACKS[name].keys
    values = {}
    for key, raw in params.items():
        if key not in keys:
            takes = ", ".join(keys) or "no keys"
            raise ScenarioError(f"[attack] {key}: unknown key; the {name} "
                                f"attack takes {takes}")
        try:
            values[key] = keys[key].convert(raw)
        except ValueError as exc:
            raise ScenarioError(f"[attack] {key}: {exc}") from exc
        if keys[key].choices and values[key] not in keys[key].choices:
            raise ScenarioError(f"[attack] {key}: {raw!r} is not one of "
                                f"{', '.join(keys[key].choices)}")
    for key, spec in keys.items():
        if spec.default is REQUIRED and key not in values:
            raise ScenarioError(f"[attack] {key}: required by the {name} "
                                f"attack")
        values.setdefault(key, spec.default)
    return values


def build_attack(name: str, params: Dict[str, str],
                 config: ProtocolConfig) -> attacks_mod.AttackSpec:
    """Attack ``name`` from its ``[attack]`` text values ``params``; a
    default computed from the config reads it as it is now."""
    values = _convert(name, params)
    return ATTACKS[name].factory(config, **{
        key: value.value(config) if isinstance(value, FromConfig) else value
        for key, value in values.items()})


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
    # values are read as written, and [DEFAULT] is a section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError:
        raise ScenarioError(f"cannot read scenario file {path!r}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    except configparser.Error as exc:
        # a repeated section or key, a key before any section header or a
        # line that is no key: configparser's message spans lines
        raise ScenarioError(f"{path}: {' '.join(str(exc).split())}") from None

    for section in parser.sections():
        if section not in (*_SETTERS, "attack", "expectations"):
            raise ScenarioError(f"{path}: unknown section [{section}]")

    name = (parser.get("scenario", "name", fallback="").strip()
            or path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
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

    attack_params = ({k: v.strip() for k, v in parser.items("attack")}
                     if "attack" in parser else {})
    attack_name = attack_params.pop("name", "identity")
    try:
        _convert(attack_name, attack_params)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

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
    return Scenario(path=path, name=name, config=cfg, attack_name=attack_name,
                    attack_params=attack_params, expectations=expectations)
