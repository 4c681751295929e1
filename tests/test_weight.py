import numpy as np
import pytest

from tdsnn import PulseTrain, WeightParams, pulse_width, shape_pulses


def test_pulse_width_taps():
    assert pulse_width(0) == pytest.approx(50e-6)
    assert pulse_width(15) == pytest.approx(800e-6)
    assert pulse_width(12) == pytest.approx(650e-6)  # code 1100, the bench setting


def test_pulse_width_monotone_distinct():
    widths = [pulse_width(c) for c in range(16)]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    assert len(set(widths)) == 16


def test_pulse_width_rejects_bad_codes():
    for bad in (-1, 16, 100):
        with pytest.raises(ValueError):
            pulse_width(bad)
    with pytest.raises(ValueError):
        pulse_width(1.5)


def test_shape_pulses_direct():
    train = shape_pulses([0.0, 10e-3], 12)
    assert np.allclose(train.rises, [0.0, 10e-3])
    assert np.allclose(train.widths, [650e-6, 650e-6])


def test_shape_pulses_empty():
    assert len(shape_pulses([], 5)) == 0


def test_shape_pulses_truncates_at_next_edge():
    # 200 Hz edges, request 6 ms pulses > 5 ms gap
    edges = np.arange(10) * 5e-3
    params = WeightParams(tau_unit=50e-6, w0=5.95e-3)  # code 0 -> 6 ms
    train = shape_pulses(edges, 0, params)
    assert np.allclose(train.widths[:-1], 5e-3)
    assert train.widths[-1] == pytest.approx(6e-3)
    # non-overlap holds by construction; a direct scan agrees
    assert np.all(train.ends[:-1] <= train.rises[1:] + 1e-15)


def test_shape_pulses_preserves_edge_count():
    rng = np.random.default_rng(0)
    edges = np.sort(rng.uniform(0, 1, 50))
    train = shape_pulses(edges, 9)
    assert len(train) == len(edges)


def test_shape_pulses_rejects_unsorted():
    with pytest.raises(ValueError):
        shape_pulses([0.0, 2e-3, 1e-3], 3)


def test_pulse_train_validation():
    with pytest.raises(ValueError):
        PulseTrain(np.array([0.0, 1e-3]), np.array([2e-3, 1e-3]))  # overlap
    with pytest.raises(ValueError):
        PulseTrain(np.array([1e-3, 0.0]), np.array([1e-4, 1e-4]))  # unsorted
    with pytest.raises(ValueError):
        PulseTrain(np.array([0.0]), np.array([0.0]))  # zero width


@pytest.mark.parametrize("rises, widths, name", [
    ([0.01], [np.nan], "widths"),
    ([0.01], [np.inf], "widths"),
    ([0.0, 0.01], [1e-3, -np.inf], "widths"),
    ([np.nan], [1e-3], "rise times"),
    ([0.0, np.inf], [1e-3, 1e-3], "rise times"),
    ([-np.inf, 0.0], [1e-3, 1e-3], "rise times"),
])
def test_pulse_train_rejects_values_that_are_not_finite(rises, widths, name):
    # nan compares False, so the positivity and order checks alone let it by
    with pytest.raises(ValueError, match=f"^pulse {name} must be finite$"):
        PulseTrain(rises, widths)
