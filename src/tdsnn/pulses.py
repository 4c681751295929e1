"""Digital pulse trains.

A pulse train is the wire format between circuit modules: an ordered list of
(rise time, width) pairs. Pulse frequency carries activity, pulse width
carries coupling strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def check_duration(duration: float) -> None:
    """Reject a run length that is not positive and finite."""
    if not duration > 0:
        raise ValueError("duration must be positive")
    if not math.isfinite(duration):
        raise ValueError("duration must be finite")


@dataclass
class PulseTrain:
    """Ordered, non-overlapping digital pulses.

    rises and widths are parallel arrays in seconds. Rise times are strictly
    increasing and each pulse must end at or before the next one rises
    (adjacent pulses are allowed, overlapping ones are not).
    """

    rises: np.ndarray = field(default_factory=lambda: np.empty(0))
    widths: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.rises = np.asarray(self.rises, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        if self.rises.shape != self.widths.shape or self.rises.ndim != 1:
            raise ValueError("rises and widths must be 1-D arrays of equal length")
        if len(self.rises) == 0:
            return
        # nan compares False, so the checks below would let it by
        for name, values in (("rise times", self.rises), ("widths", self.widths)):
            if not np.isfinite(values).all():
                raise ValueError(f"pulse {name} must be finite")
        if np.any(self.widths <= 0):
            raise ValueError("pulse widths must be positive")
        if np.any(np.diff(self.rises) <= 0):
            raise ValueError("pulse rise times must be strictly increasing")
        ends = self.rises + self.widths
        if np.any(ends[:-1] > self.rises[1:]):
            raise ValueError("pulses within one train must not overlap")

    def __len__(self) -> int:
        return len(self.rises)

    @property
    def ends(self) -> np.ndarray:
        return self.rises + self.widths

    def step_levels(self, dt: float, n_steps: int) -> np.ndarray:
        """Boolean level per simulation step, sampled at step start times.

        A pulse covers the half-open interval [rise, rise + width).
        """
        times = np.arange(n_steps) * dt
        if len(self.rises) == 0:
            return np.zeros(times.shape, dtype=bool)
        idx = np.searchsorted(self.rises, times, side="right") - 1
        valid = idx >= 0
        idx = np.clip(idx, 0, None)
        return valid & (times < self.rises[idx] + self.widths[idx])


def regular_times(freq_hz: float, duration: float,
                  start: float = 0.0) -> np.ndarray:
    """Instants start + k/freq_hz (k = 0, 1, ...) in [start, duration).

    A rate of 0 or below gives none.
    """
    for name, value in (("freq_hz", freq_hz), ("duration", duration),
                        ("start", start)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if freq_hz <= 0:
        return np.empty(0)
    n = int(np.ceil((duration - start) * freq_hz))
    times = start + np.arange(max(n, 0)) / freq_hz
    return times[times < duration]


def periodic_train(freq_hz: float, width: float, duration: float,
                   start: float = 0.0) -> PulseTrain:
    """Regular pulse train at a fixed frequency, pulses within [start, duration)."""
    if not math.isfinite(width):
        raise ValueError("width must be finite")
    rises = regular_times(freq_hz, duration, start)
    if freq_hz > 0 and width >= 1.0 / freq_hz:
        raise ValueError("pulse width must be shorter than the pulse period")
    return PulseTrain(rises, np.full(len(rises), width))
