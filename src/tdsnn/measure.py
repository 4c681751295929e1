"""Measurement-protocol utilities: single-unit drivers and calibration
against the measured anchor frequencies.

The drivers mirror the bench setup: a square-wave source stands in for a
pre-stage synapse, a weight module shapes it into pulses, and the neuron or
the synapse under test is stepped at a fixed dt. run_neuron and run_synapse
(from the neuron and synapse modules) take the steps of the per-step
references neuron_step(v, params, exc_high, inh_high, dt) -> (v, fired)
and synapse_step(v_syn, phase, params, spike_in, dt) -> (v_syn, phase,
edges), bit for bit, but pay per event, not per step. A neuron feeding its
synapse is a one-neuron NetworkSim.

SciPy's optimizer loads on the first calibration fit, not on import, so
runs that never calibrate do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CalibrationError
# neuron_step and synapse_step are the per-step references that the run_*
# functions reproduce. bench/tracing.py wraps them here, so they stay
# importable from this module.
from .neuron import (NeuronParams, free_run_period, neuron_step,  # noqa: F401
                     run_neuron)
from .pulses import PulseTrain, regular_times
from .synapse import (SynapseParams, run_synapse,  # noqa: F401
                      steady_state_frequency, synapse_step)
from .weight import WeightParams, shape_pulses


def weighted_drive(input_freq: float, code: int, duration: float,
                   weight: WeightParams = WeightParams()) -> PulseTrain:
    """Pulse train a weight module produces from a square source.

    The source contributes one rising edge per period; the weight code sets
    the pulse width.
    """
    if not math.isfinite(input_freq):
        raise ValueError("input_freq must be finite")
    return shape_pulses(regular_times(input_freq, duration), code, weight)


PAPER_ANCHORS = {
    "free_run_hz": 200.0,
    "syn_inhibited_hz": 41.0,
    "syn_free_hz": 90.0,
    "syn_excited_hz": 98.0,
}

ANCHOR_TOLERANCES = {
    "free_run_hz": 0.02,
    "syn_inhibited_hz": 0.15,
    "syn_free_hz": 0.05,
    "syn_excited_hz": 0.05,
}

# Fig. 3c drive: 100 Hz source through weight code 12 (binary 1100).
DRIVE_FREQ_HZ = 100.0
DRIVE_CODE = 12


@dataclass
class CalibrationResult:
    neuron: NeuronParams
    synapse: SynapseParams
    drive_rates_hz: dict
    achieved: dict
    residuals: dict  # relative error per anchor


def _fit_synapse(rates, targets, base: SynapseParams) -> SynapseParams:
    """Least-squares fit of (delta_up, tau_leak, v_osc) to the anchor map.

    scipy.optimize is imported here, on the first fit: it takes longer to
    load than the rest of the package, and nothing else uses it.
    """
    from scipy.optimize import least_squares

    def resid(x):
        p = replace(base, delta_up=x[0], tau_leak=x[1], v_osc=x[2])
        return [(steady_state_frequency(r, p) - t) / t
                for r, t in zip(rates, targets)]

    best = None
    for x0 in [(0.08, 0.05, 0.2), (0.3, 0.02, 0.4), (0.15, 0.1, 0.3),
               (0.5, 0.01, 0.5), (0.05, 0.2, 0.1)]:
        sol = least_squares(resid, x0,
                            bounds=([1e-3, 1e-4, 0.0],
                                    [1.0, 2.0, 0.95 * base.v_max]))
        if best is None or sol.cost < best.cost:
            best = sol
    d, tau, c = best.x
    return replace(base, delta_up=float(d), tau_leak=float(tau), v_osc=float(c))


def calibrate(anchors: dict = None, neuron: NeuronParams = NeuronParams(),
              synapse: SynapseParams = SynapseParams(),
              weight: WeightParams = WeightParams(), dt: float = 1e-5,
              sim_duration: float = 5.0,
              tolerances: dict = None) -> CalibrationResult:
    """Fit behavioral parameters to the measured anchor frequencies.

    First the neuron baseline rate is set in closed form from the free-run
    anchor. If synapse anchors are present, the three measurement drive
    cases (inhibited / no input / excited) are simulated to get the actual
    presynaptic rates, and (delta_up, tau_leak, v_osc) are fit so the
    steady-state synapse frequencies hit the anchors. Each fitted anchor is
    then re-simulated; residuals outside tolerance raise CalibrationError.
    """
    anchors = dict(PAPER_ANCHORS) if anchors is None else dict(anchors)
    tolerances = dict(ANCHOR_TOLERANCES) if tolerances is None else dict(tolerances)
    unknown = set(anchors) - set(PAPER_ANCHORS)
    if unknown:
        raise ValueError(f"unknown anchor(s): {', '.join(sorted(unknown))}")
    for key, value in anchors.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"[anchors] {key} must be positive")

    achieved = {}
    residuals = {}
    if "free_run_hz" in anchors:
        neuron = replace(neuron, r_base=neuron.v_th * anchors["free_run_hz"])
        achieved["free_run_hz"] = 1.0 / free_run_period(neuron)
        residuals["free_run_hz"] = (achieved["free_run_hz"] / anchors["free_run_hz"]) - 1.0

    syn_keys = [k for k in ("syn_inhibited_hz", "syn_free_hz", "syn_excited_hz")
                if k in anchors]
    drive_rates = {}
    if syn_keys:
        drive = weighted_drive(DRIVE_FREQ_HZ, DRIVE_CODE, sim_duration, weight)
        cases = {
            "syn_inhibited_hz": (None, drive),
            "syn_free_hz": (None, None),
            "syn_excited_hz": (drive, None),
        }
        spike_trains = {}
        for key in syn_keys:
            exc, inh = cases[key]
            spikes, _ = run_neuron(neuron, sim_duration, dt, exc, inh)
            spike_trains[key] = spikes
            drive_rates[key] = len(spikes) / sim_duration

        synapse = _fit_synapse([drive_rates[k] for k in syn_keys],
                               [anchors[k] for k in syn_keys], synapse)

        for key in syn_keys:
            edges, _ = run_synapse(synapse, spike_trains[key], sim_duration, dt)
            achieved[key] = len(edges) / sim_duration
            residuals[key] = (achieved[key] / anchors[key]) - 1.0

    result = CalibrationResult(neuron=neuron, synapse=synapse,
                               drive_rates_hz=drive_rates, achieved=achieved,
                               residuals=residuals)
    bad = {k: r for k, r in residuals.items()
           if abs(r) > tolerances.get(k, 0.05)}
    if bad:
        raise CalibrationError(
            "calibration residuals exceed tolerance: "
            + ", ".join(f"{k}: {100 * r:+.1f}%" for k, r in sorted(bad.items())),
            residuals=residuals)
    return result
