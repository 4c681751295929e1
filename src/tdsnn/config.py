"""Configuration files: TOML-style sections per module, strictly validated.

Unknown sections or keys are rejected with line context; range violations
name the offending key. An empty file yields the defaults. serialize/parse
round-trips exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .network import Connection, NetworkConfig
from .neuron import NeuronParams
from .reservoir import FeedbackParams, TargetSpec, TrainConfig
from .synapse import SynapseParams
from .weight import WeightParams

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.+)$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigurationError(f"line {lineno}: missing value")
    if text.startswith("["):
        return _parse_array(text, lineno)
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            raise ConfigurationError(f"line {lineno}: unterminated string")
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"line {lineno}: cannot parse value {text!r}") from None


def _parse_array(text: str, lineno: int):
    # single-line arrays, one level of nesting (enough for connection lists)
    items, depth, buf, out = [], 0, "", None
    for ch in text:
        if ch == "[":
            depth += 1
            if depth == 1:
                out = items
                continue
        if ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigurationError(f"line {lineno}: unbalanced brackets")
            if depth == 0:
                if buf.strip():
                    items.append(_parse_value(buf, lineno))
                buf = ""
                continue
        if ch == "," and depth == 1:
            if buf.strip():
                items.append(_parse_value(buf, lineno))
            buf = ""
            continue
        if depth >= 1:
            buf += ch
    if depth != 0:
        raise ConfigurationError(f"line {lineno}: unterminated array")
    return items


def parse_sections(text: str) -> dict:
    """Raw parse into {section: {key: value}} with strict syntax checking."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in sections:
                raise ConfigurationError(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        m = _KEY_RE.match(line)
        if m:
            if current is None:
                raise ConfigurationError(
                    f"line {lineno}: key outside of any [section]")
            key, value = m.group(1), m.group(2)
            if key in current:
                raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
            current[key] = _parse_value(value, lineno)
            continue
        raise ConfigurationError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return sections


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

_NETWORK_KEYS = ("n_neurons", "connection_probability", "excitatory_fraction",
                 "code_min", "code_max", "seed", "dt", "sample_interval",
                 "connections")
_RESERVOIR_KEYS = ("target_kind", "target_freq_hz", "target_amplitude",
                   "train_periods", "eval_periods", "learn_interval",
                   "rls_init_alpha", "frequency_range", "teacher_forcing",
                   "init_w_scale")


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"[{section}] unknown key(s): {', '.join(sorted(unknown))}")


def _coerce_number(section, key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"[{section}] {key} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"[{section}] {key} must be finite")
    return number


def _coerce_int(section, key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"[{section}] {key} must be an integer")
    return value


def _parse_connections(raw) -> list[Connection]:
    conns = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 4:
            raise ConfigurationError(
                f"[network] connections[{i}] must be [pre, post, polarity, code]")
        pre, post, pol, code = item
        if not isinstance(pre, int) or not isinstance(post, int) \
                or not isinstance(code, int) or not isinstance(pol, str):
            raise ConfigurationError(
                f"[network] connections[{i}] must be [int, int, string, int]")
        conns.append(Connection(pre=pre, post=post, polarity=pol, code=code))
    return conns


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a config file into a SimulationConfig."""
    sections = parse_sections(text)
    known = {"network", "reservoir"} | set(_PARAM_SECTIONS)
    unknown = set(sections) - known
    if unknown:
        raise ConfigurationError(f"unknown section(s): {', '.join(sorted(unknown))}")

    params = {}
    for name, cls in _PARAM_SECTIONS.items():
        given = sections.get(name, {})
        allowed = [f.name for f in fields(cls)]
        _check_keys(name, given, allowed)
        kwargs = {}
        for key, value in given.items():
            kwargs[key] = _coerce_number(name, key, value)
        try:
            params[name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigurationError(f"[{name}] {exc}") from None

    net = sections.get("network", {})
    _check_keys("network", net, _NETWORK_KEYS)
    net_kwargs = {}
    for key in ("n_neurons", "code_min", "code_max", "seed"):
        if key in net:
            net_kwargs[key] = _coerce_int("network", key, net[key])
    for key in ("connection_probability", "excitatory_fraction", "dt",
                "sample_interval"):
        if key in net:
            net_kwargs[key] = _coerce_number("network", key, net[key])
    if "connections" in net:
        net_kwargs["connections"] = _parse_connections(net["connections"])
    try:
        network = NetworkConfig(neuron=params["neuron"], synapse=params["synapse"],
                                weight=params["weight"], **net_kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[network] {exc}") from None

    res = sections.get("reservoir", {})
    _check_keys("reservoir", res, _RESERVOIR_KEYS)
    tgt_kwargs = {}
    if "target_kind" in res:
        if not isinstance(res["target_kind"], str):
            raise ConfigurationError("[reservoir] target_kind must be a string")
        tgt_kwargs["kind"] = res["target_kind"]
    if "target_freq_hz" in res:
        tgt_kwargs["frequency"] = _coerce_number("reservoir", "target_freq_hz",
                                                 res["target_freq_hz"])
    if "target_amplitude" in res:
        tgt_kwargs["amplitude"] = _coerce_number("reservoir", "target_amplitude",
                                                 res["target_amplitude"])
    train_kwargs = {}
    for key in ("train_periods", "eval_periods"):
        if key in res:
            train_kwargs[key] = _coerce_int("reservoir", key, res[key])
    for key in ("learn_interval", "rls_init_alpha", "init_w_scale"):
        if key in res:
            train_kwargs[key] = _coerce_number("reservoir", key, res[key])
    if "teacher_forcing" in res:
        if not isinstance(res["teacher_forcing"], bool):
            raise ConfigurationError("[reservoir] teacher_forcing must be true/false")
        train_kwargs["teacher_forcing"] = res["teacher_forcing"]
    if "frequency_range" in res:
        fr = res["frequency_range"]
        if not (isinstance(fr, list) and len(fr) == 2):
            raise ConfigurationError(
                "[reservoir] frequency_range must be [f_min, f_max]")
        train_kwargs["frequency_range"] = tuple(
            _coerce_number("reservoir", "frequency_range", x) for x in fr)
    try:
        train = TrainConfig(target=TargetSpec(**tgt_kwargs), **train_kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[reservoir] {exc}") from None

    return SimulationConfig(network=network, train=train,
                            feedback=params["feedback"])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f'"{value}"'
    raise TypeError(f"cannot serialize {value!r}")


def serialize_config(cfg: SimulationConfig) -> str:
    """Full explicit dump; parse_config(serialize_config(c)) equals c."""
    net = cfg.network
    lines = ["[network]"]
    lines.append(f"n_neurons = {net.n_neurons}")
    lines.append(f"connection_probability = {_fmt(float(net.connection_probability))}")
    lines.append(f"excitatory_fraction = {_fmt(float(net.excitatory_fraction))}")
    lines.append(f"code_min = {net.code_min}")
    lines.append(f"code_max = {net.code_max}")
    lines.append(f"seed = {net.seed}")
    lines.append(f"dt = {_fmt(float(net.dt))}")
    lines.append(f"sample_interval = {_fmt(float(net.sample_interval))}")
    if net.connections is not None:
        items = ", ".join(
            f'[{c.pre}, {c.post}, "{c.polarity}", {c.code}]'
            for c in net.connections)
        lines.append(f"connections = [{items}]")

    for name in ("neuron", "synapse", "weight"):
        obj = getattr(net, name)
        lines.append("")
        lines.append(f"[{name}]")
        for f in fields(obj):
            lines.append(f"{f.name} = {_fmt(getattr(obj, f.name))}")

    tr = cfg.train
    lines.append("")
    lines.append("[reservoir]")
    lines.append(f'target_kind = "{tr.target.kind}"')
    lines.append(f"target_freq_hz = {_fmt(float(tr.target.frequency))}")
    lines.append(f"target_amplitude = {_fmt(float(tr.target.amplitude))}")
    lines.append(f"train_periods = {tr.train_periods}")
    lines.append(f"eval_periods = {tr.eval_periods}")
    lines.append(f"learn_interval = {_fmt(float(tr.learn_interval))}")
    lines.append(f"rls_init_alpha = {_fmt(float(tr.rls_init_alpha))}")
    lines.append(f"frequency_range = [{_fmt(float(tr.frequency_range[0]))}, "
                 f"{_fmt(float(tr.frequency_range[1]))}]")
    lines.append(f"teacher_forcing = {_fmt(tr.teacher_forcing)}")
    lines.append(f"init_w_scale = {_fmt(float(tr.init_w_scale))}")

    fbp = cfg.feedback
    lines.append("")
    lines.append("[feedback]")
    for f in fields(fbp):
        lines.append(f"{f.name} = {_fmt(getattr(fbp, f.name))}")
    return "\n".join(lines) + "\n"
