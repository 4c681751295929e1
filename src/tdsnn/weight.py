"""Behavioral model of the delay-line weight module.

The module turns the synapse square wave into a pulse train: one pulse per
rising edge, with the pulse width selected by a 4-bit code from a 16-tap
delay line. Wider pulses charge (or discharge) the downstream membrane for
longer, so the width is the coupling weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import PulseTrain

N_CODES = 16


@dataclass(frozen=True)
class WeightParams:
    """Delay-line tap spacing and base width.

    Width law: w0 + (code + 1) * tau_unit, codes 0..15. Code 0 keeps one tap
    of width so every code transmits activity.
    """

    tau_unit: float = 50e-6
    w0: float = 0.0

    def __post_init__(self):
        if not self.tau_unit > 0:
            raise ValueError("tau_unit must be positive")
        if not self.w0 >= 0:
            raise ValueError("w0 must be nonnegative")


def pulse_width(code: int, params: WeightParams = WeightParams()) -> float:
    """Output pulse width for a 4-bit weight code; strictly increasing."""
    if not isinstance(code, (int, np.integer)) or isinstance(code, bool):
        raise ValueError("weight code must be an integer")
    if not 0 <= code < N_CODES:
        raise ValueError(f"weight code must be in [0, {N_CODES - 1}], got {code}")
    return params.w0 + (code + 1) * params.tau_unit


def shape_pulses(rising_edges, code: int,
                 params: WeightParams = WeightParams()) -> PulseTrain:
    """One pulse per rising edge, truncated at the next edge if needed.

    Truncation rather than dropping keeps the duty cycle monotone in the
    code even when the input period is shorter than the selected width.
    """
    edges = np.asarray(rising_edges, dtype=float)
    if edges.ndim != 1:
        raise ValueError("rising_edges must be a 1-D sequence")
    if len(edges) == 0:
        return PulseTrain()
    if np.any(np.diff(edges) <= 0):
        raise ValueError("rising_edges must be strictly increasing")
    width = pulse_width(code, params)
    widths = np.full(len(edges), width)
    gaps = np.diff(edges)
    widths[:-1] = np.minimum(widths[:-1], gaps)
    return PulseTrain(edges, widths)
