"""Command-line surface.

Subcommands: simulate-neuron, simulate-synapse, network run, reservoir
train, reservoir eval, calibrate. Exit codes: 0 success, 1 validation
error, 2 runtime or calibration failure. All randomness is seeded through
flags or config files, so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (SimulationConfig, coerce_number, parse_config,
                     parse_sections, section_lines, serialize_config)
from .errors import CalibrationError, ConfigurationError
from .measure import (ANCHOR_TOLERANCES, PAPER_ANCHORS, calibrate,
                      run_synapse, weighted_drive)
from .network import NetworkConfig, TraceSet, build_network, sample_stride, simulate
from .reservoir import autonomous_metrics, train_force
from .pulses import check_duration, regular_times
from .traceio import Stopwatch, write_run
from .weight import N_CODES


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (validation failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path) -> SimulationConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _check_rate(option: str, rate: float, dt: float) -> None:
    """Reject a drive rate that is nan, infinite, negative or above 1/dt.

    0 means no drive; nan and a negative rate would read as no drive too.
    A step resolves at most one event, and a faster train would be built
    in full before anything else rejected it.
    """
    if not math.isfinite(rate):
        raise ConfigurationError(f"{option} must be finite, got {rate}")
    if rate < 0:
        raise ConfigurationError(f"{option} must not be negative, got {rate}")
    if rate * dt > 1:
        raise ConfigurationError(
            f"{option} must be at most 1/--dt = {1 / dt:g} Hz, got {rate:g}")


def cmd_simulate_neuron(args) -> int:
    _check_rate("--input-freq", args.input_freq, args.dt)
    with Stopwatch() as sw:
        cfg = NetworkConfig(n_neurons=1, dt=args.dt)
        net = build_network(cfg)
        ext = None
        if args.input_freq > 0:
            check_duration(args.duration)  # before the drive is built
            drive = weighted_drive(args.input_freq, args.weight_code,
                                   args.duration, cfg.weight)
            ext = {0: (drive, None)} if args.polarity == "exc" else {0: (None, drive)}
        traces = simulate(net, ext, args.duration)
    n_spikes = len(traces.spikes[0])
    rate = n_spikes / args.duration
    print(f"neuron: {n_spikes} spikes in {args.duration:g} s ({rate:.2f} Hz)")
    if args.trace:
        write_run(args.trace, traces, "simulate-neuron", 0,
                  {"spikes": n_spikes, "rate_hz": rate}, sw.elapsed)
    return 0


def cmd_simulate_synapse(args) -> int:
    from .synapse import SynapseParams

    _check_rate("--spike-rate", args.spike_rate, args.dt)
    with Stopwatch() as sw:
        params = SynapseParams()
        check_duration(args.duration)
        spike_times = regular_times(args.spike_rate, args.duration)
        edges, trace = run_synapse(params, spike_times, args.duration, args.dt,
                                   record=True)
        rate = len(edges) / args.duration
    print(f"synapse: {len(edges)} rising edges in {args.duration:g} s "
          f"({rate:.2f} Hz)")
    if args.trace:
        times, v_syn, freq = trace
        sel = slice(None, None, sample_stride(NetworkConfig().sample_interval, args.dt,
                                              len(times) - 1))
        traces = TraceSet(dt=args.dt, duration=args.duration, n_neurons=1,
                          spikes=[edges], sample_times=times[sel],
                          v_mem=np.zeros((len(times[sel]), 1)),
                          v_syn=v_syn[sel, None], freq_hz=freq[sel, None])
        write_run(args.trace, traces, "simulate-synapse", 0,
                  {"edges": len(edges), "rate_hz": rate}, sw.elapsed)
    return 0


def cmd_network_run(args) -> int:
    cfg = _load_config(args.config)
    net_cfg = cfg.network
    if args.seed is not None:
        net_cfg = replace(net_cfg, seed=args.seed)
    with Stopwatch() as sw:
        net = build_network(net_cfg)
        traces = simulate(net, None, args.duration)
    counts = traces.spike_counts()
    print(f"network: {net_cfg.n_neurons} neurons, {net.n_connections} connections, "
          f"{int(counts.sum())} spikes in {args.duration:g} s")
    if args.out:
        write_run(args.out, traces, "network run", net_cfg.seed,
                  {"total_spikes": int(counts.sum()),
                   "mean_rate_hz": counts.mean() / args.duration},
                  sw.elapsed, serialize_config(replace(cfg, network=net_cfg)))
    return 0


def cmd_reservoir_train(args) -> int:
    cfg = _load_config(args.config)
    net_cfg = cfg.network
    if args.seed is not None:
        net_cfg = replace(net_cfg, seed=args.seed)
    with Stopwatch() as sw:
        net = build_network(net_cfg)
        rls, traces = train_force(net, cfg.train, cfg.feedback)
        metrics = autonomous_metrics(traces)
    lo, hi = cfg.train.frequency_range
    score = (f"autonomous NRMSE = {metrics['nrmse']:.4f}" if metrics
             else "no autonomous periods to score")
    print(f"reservoir train: range {lo:g}-{hi:g} Hz, {score}")
    cfg_echo = serialize_config(replace(cfg, network=net_cfg))
    write_run(args.out, traces, "reservoir train", net_cfg.seed, metrics,
              sw.elapsed, cfg_echo)
    weights = {
        "w": [float(x) for x in rls.w],
        "config": cfg_echo,
        "seed": net_cfg.seed,
    }
    try:
        with open(Path(args.out) / "weights.json", "w") as fh:
            json.dump(weights, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write weights file: {exc}") from exc
    return 0


def _load_weights(path) -> tuple[np.ndarray, str]:
    """The readout weights and the config text of a weights.json file."""
    def invalid(reason):
        return ConfigurationError(f"cannot load weights {path}: {reason}")

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise invalid(exc) from exc
    if not isinstance(payload, dict):
        raise invalid("top level must be a JSON object")
    for key in ("w", "config"):
        if key not in payload:
            raise invalid(f"missing key {key!r}")
    w = payload["w"]
    try:
        finite = isinstance(w, list) and all(
            type(x) in (int, float) and math.isfinite(x) for x in w)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise invalid("w must be a 1-D list of finite numbers")
    if not isinstance(payload["config"], str):
        raise invalid("config must be a string")
    return np.array(w, dtype=float), payload["config"]


def cmd_reservoir_eval(args) -> int:
    w, config_text = _load_weights(args.weights)
    cfg = parse_config(config_text)
    if len(w) != cfg.network.n_neurons:
        raise ConfigurationError(
            f"weights length {len(w)} does not match n_neurons "
            f"{cfg.network.n_neurons}")
    train_cfg = replace(cfg.train, train_periods=0,
                        eval_periods=args.periods)
    with Stopwatch() as sw:
        net = build_network(cfg.network)
        _, traces = train_force(net, train_cfg, cfg.feedback, init_w=w)
        metrics = autonomous_metrics(traces)
    print(f"reservoir eval: NRMSE = {metrics['nrmse']:.4f} over "
          f"{args.periods} periods")
    if args.out:
        write_run(args.out, traces, "reservoir eval", cfg.network.seed, metrics,
                  sw.elapsed, config_text)
    return 0


def _load_anchors(spec: str) -> dict:
    if spec == "paper":
        return dict(PAPER_ANCHORS)
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read anchors file {spec}: {exc}") from exc
    sections = parse_sections(text)
    if set(sections) != {"anchors"}:
        raise ConfigurationError("anchors file must contain one [anchors] section")
    anchors = sections["anchors"]
    if not anchors:
        raise ConfigurationError("[anchors] section is empty: give at least one anchor")
    return {key: coerce_number("anchors", key, value) for key, value in anchors.items()}


def cmd_calibrate(args) -> int:
    anchors = _load_anchors(args.targets)
    with Stopwatch() as sw:
        result = calibrate(anchors)
    for key in sorted(result.achieved):
        print(f"{key}: achieved {result.achieved[key]:.2f} Hz "
              f"(target {anchors[key]:g}, residual {100 * result.residuals[key]:+.1f}%, "
              f"tolerance +-{100 * ANCHOR_TOLERANCES[key]:.0f}%)")
    print(f"calibration done in {sw.elapsed:.1f} s")
    if args.out:
        lines = ["# fitted parameters", *section_lines("neuron", result.neuron), "",
                 *section_lines("synapse", result.synapse), ""]
        for key in sorted(result.residuals):
            lines.append(f"# residual {key}: {100 * result.residuals[key]:+.2f}%")
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tdsnn",
                     description="Time-domain spiking network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-neuron", help="single neuron under pulse drive")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--input-freq", type=float, default=0.0,
                   help="source square-wave frequency in Hz (0 = free run)")
    p.add_argument("--weight-code", type=int, default=12, choices=range(N_CODES),
                   metavar=f"0-{N_CODES - 1}")
    p.add_argument("--polarity", choices=("exc", "inh"), default="exc")
    p.add_argument("--dt", type=float, default=1e-5)
    p.add_argument("--trace", metavar="DIR", default=None)
    p.set_defaults(func=cmd_simulate_neuron)

    p = sub.add_parser("simulate-synapse",
                       help="single synapse under a constant spike rate")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--spike-rate", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=1e-5)
    p.add_argument("--trace", metavar="DIR", default=None)
    p.set_defaults(func=cmd_simulate_synapse)

    p_net = sub.add_parser("network", help="network-level commands")
    net_sub = p_net.add_subparsers(dest="subcommand", required=True)
    p = net_sub.add_parser("run", help="simulate a configured network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--out", metavar="DIR", default=None)
    p.set_defaults(func=cmd_network_run)

    p_res = sub.add_parser("reservoir", help="reservoir-computing commands")
    res_sub = p_res.add_subparsers(dest="subcommand", required=True)
    p = res_sub.add_parser("train", help="train the readout online")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="DIR", required=True)
    p.set_defaults(func=cmd_reservoir_train)
    p = res_sub.add_parser("eval", help="run autonomously with fixed weights")
    p.add_argument("--weights", required=True, metavar="FILE")
    p.add_argument("--periods", type=int, default=2)
    p.add_argument("--out", metavar="DIR", default=None)
    p.set_defaults(func=cmd_reservoir_eval)

    p = sub.add_parser("calibrate", help="fit parameters to anchor frequencies")
    p.add_argument("--targets", default="paper",
                   help="'paper' or a file with an [anchors] section")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, MemoryError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
