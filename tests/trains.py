"""Regular pulse trains of any width for the tests.

The package builds regular trains only through measure.weighted_drive,
whose widths come from the 4-bit weight codes.
"""

import numpy as np

from tdsnn import PulseTrain
from tdsnn.pulses import regular_times


def periodic_train(freq_hz, width, duration, start=0.0):
    """Pulses of one width rising at start + k/freq_hz within [start, duration)."""
    rises = regular_times(freq_hz, duration, start)
    return PulseTrain(rises, np.full(len(rises), width))
