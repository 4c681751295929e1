"""Configuration files: one TOML table per module, strictly validated.

Files are read with tomllib; a syntax error keeps its line and column.
Each section's keys and their types come from the fields of its dataclass,
so unknown sections or keys are rejected and range violations name the
offending key. An empty file yields the defaults. serialize/parse
round-trips exactly.
"""

from __future__ import annotations

import math
import tomllib
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigurationError
from .network import Connection, NetworkConfig
from .neuron import NeuronParams
from .reservoir import FeedbackParams, TargetSpec, TrainConfig
from .synapse import SynapseParams
from .weight import WeightParams


def parse_sections(text: str) -> dict:
    """Raw parse into {section: {key: value}}; every key must be in a section."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"invalid TOML: {exc}") from None
    for key, value in doc.items():
        if not isinstance(value, dict):
            raise ConfigurationError(f"key {key!r} outside of any [section] "
                                     f"(at line {_line_of(text, key)})")
    return doc


def _line_of(text: str, key: str) -> int:
    """The line on which a top-level key's value ends: the shortest prefix
    of the text that parses and holds the key."""
    lines = text.splitlines()
    for n in range(1, len(lines) + 1):
        try:
            if key in tomllib.loads("\n".join(lines[:n])):
                return n
        except tomllib.TOMLDecodeError:  # the prefix ends inside a value
            pass
    return len(lines)


@dataclass
class SimulationConfig:
    """Everything a run needs: topology, module parameters, training setup."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    feedback: FeedbackParams = field(default_factory=FeedbackParams)


_PARAM_SECTIONS = {
    "neuron": NeuronParams,
    "synapse": SynapseParams,
    "weight": WeightParams,
    "feedback": FeedbackParams,
}

# The target is flattened into [reservoir] under these key names.
_RENAMES = {TargetSpec: {"frequency": "target_freq_hz",
                         "amplitude": "target_amplitude"}}


def _keys(cls) -> dict:
    """Config key -> (field name, default) of each field with a typed default.

    A default_factory marks a nested section and a default of None has no
    type to check (connections); neither is listed.
    """
    renames = _RENAMES.get(cls, {})
    return {renames.get(f.name, f.name): (f.name, f.default) for f in fields(cls)
            if f.default is not MISSING and f.default is not None}


def coerce_number(section, key, value):
    """A finite float from a parsed number, else a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"[{section}] {key} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"[{section}] {key} must be finite")
    return number


def _coerce(section, key, default, value):
    """Check a parsed value against the type of its field's default."""
    kind = type(default)
    if kind is float:
        return coerce_number(section, key, value)
    if kind is tuple:
        if not (isinstance(value, list) and len(value) == len(default)):
            raise ConfigurationError(f"[{section}] {key} must be [f_min, f_max]")
        return tuple(coerce_number(section, key, x) for x in value)
    expected = {bool: "true/false", int: "an integer"}[kind]
    if type(value) is not kind:  # type, not isinstance: true is not an integer
        raise ConfigurationError(f"[{section}] {key} must be {expected}")
    return value


def _read_section(section, given, *classes, extra=()) -> list[dict]:
    """Check a section's keys; return the constructor kwargs of each class."""
    keys = [_keys(cls) for cls in classes]
    unknown = set(given).difference(*keys, extra)
    if unknown:
        raise ConfigurationError(
            f"[{section}] unknown key(s): {', '.join(sorted(unknown))}")
    return [{name: _coerce(section, key, default, given[key])
             for key, (name, default) in cls_keys.items() if key in given}
            for cls_keys in keys]


def _parse_connections(raw) -> list[Connection]:
    if not isinstance(raw, list):
        raise ConfigurationError(
            "[network] connections must be a list of [pre, post, polarity, code]")
    conns = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 4:
            raise ConfigurationError(
                f"[network] connections[{i}] must be [pre, post, polarity, code]")
        pre, post, pol, code = item
        if not (type(pre) is type(post) is type(code) is int and isinstance(pol, str)):
            raise ConfigurationError(
                f"[network] connections[{i}] must be [int, int, string, int]")
        conns.append(Connection(pre=pre, post=post, polarity=pol, code=code))
    return conns


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a config file into a SimulationConfig."""
    sections = parse_sections(text)
    unknown = set(sections) - {"network", "reservoir", *_PARAM_SECTIONS}
    if unknown:
        raise ConfigurationError(f"unknown section(s): {', '.join(sorted(unknown))}")

    params = {}
    for name, cls in _PARAM_SECTIONS.items():
        [kwargs] = _read_section(name, sections.get(name, {}), cls)
        try:
            params[name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigurationError(f"[{name}] {exc}") from None

    net = sections.get("network", {})
    [net_kwargs] = _read_section("network", net, NetworkConfig, extra=["connections"])
    if "connections" in net:
        net_kwargs["connections"] = _parse_connections(net["connections"])
    try:
        network = NetworkConfig(neuron=params["neuron"], synapse=params["synapse"],
                                weight=params["weight"], **net_kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[network] {exc}") from None

    train_kwargs, tgt_kwargs = _read_section(
        "reservoir", sections.get("reservoir", {}), TrainConfig, TargetSpec)
    try:
        train = TrainConfig(target=TargetSpec(**tgt_kwargs), **train_kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[reservoir] {exc}") from None

    return SimulationConfig(network=network, train=train,
                            feedback=params["feedback"])


def _fmt(value, default) -> str:
    """A TOML literal for value, written as the type of its field's default."""
    kind = type(default)
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    if kind is tuple:
        return "[" + ", ".join(repr(float(x)) for x in value) + "]"
    return str(value)


def section_lines(name: str, *objs) -> list[str]:
    """The [name] table of the typed fields of objs, in field order."""
    return [f"[{name}]"] + [
        f"{key} = {_fmt(getattr(obj, field_name), default)}"
        for obj in objs for key, (field_name, default) in _keys(type(obj)).items()]


def serialize_config(cfg: SimulationConfig) -> str:
    """Full explicit dump; parse_config(serialize_config(c)) equals c."""
    net, tr = cfg.network, cfg.train
    lines = section_lines("network", net)
    if net.connections is not None:
        items = ", ".join(
            f'[{c.pre}, {c.post}, "{c.polarity}", {c.code}]'
            for c in net.connections)
        lines.append(f"connections = [{items}]")
    for name, *objs in (("neuron", net.neuron), ("synapse", net.synapse),
                        ("weight", net.weight), ("reservoir", tr.target, tr),
                        ("feedback", cfg.feedback)):
        lines += ["", *section_lines(name, *objs)]
    return "\n".join(lines) + "\n"
