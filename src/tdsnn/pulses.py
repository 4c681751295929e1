"""Digital pulse trains.

A pulse train is the wire format between circuit modules: an ordered list of
(rise time, width) pairs. Pulse frequency carries activity, pulse width
carries coupling strength.

Step k covers [k*dt, (k+1)*dt). An instant t, such as a spike, lands in step
step_search(t, dt, "right") - 1, and a pulse drives the steps whose start it
covers: step_search(rise, dt) up to, not including, step_search(end, dt).
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
        """Boolean level per step, high on the steps a pulse drives (module docstring)."""
        # first, stop of each pulse in turn: ordered, as the pulses do not overlap
        bounds = np.minimum(step_search([self.rises, self.ends], dt).T.ravel(), n_steps)
        return np.repeat(np.arange(len(bounds) + 1) % 2 == 1,
                         np.diff(bounds, prepend=0, append=n_steps))


def step_search(t, dt: float, side: str = "left") -> np.ndarray:
    """np.searchsorted(np.arange(n) * dt, t, side) for an n past every t,
    without that array: ceil(t / dt), moved by at most one step."""
    t = np.asarray(t, dtype=float)
    before = np.less_equal if side == "right" else np.less  # the starts k * dt it counts
    k = np.ceil(t / dt)
    k -= ~before((k - 1) * dt, t)
    k += before(k * dt, t)
    return np.maximum(k, 0).astype(np.intp)


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

