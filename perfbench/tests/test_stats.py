"""Tail percentiles keep at least ten samples beyond them."""

import pytest

from flbbench.stats import MIN_BEYOND, percentile, tail_samples_needed
from flbbench.speed import REFERENCE_MS, SpeedIndex


@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_reported_tail_keeps_ten_beyond(q):
    for n in range(1, 400):
        values = [float(i) for i in range(n)]
        try:
            v = percentile(values, q)
        except ValueError:
            assert n < tail_samples_needed(q)
            continue
        assert sum(1 for x in values if x > v) >= MIN_BEYOND
        assert n >= tail_samples_needed(q)


def test_p90_needs_one_hundred_samples():
    assert tail_samples_needed(0.9) == 100
    assert percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 30
    assert percentile(values, 0.5) == percentile(sorted(values), 0.5) == 3.0


def test_reference_speed_scales_by_the_neighbouring_calibration():
    assert SpeedIndex.at_reference(0.010, REFERENCE_MS) == 0.010
    # A calibration sample twice as slow as the reference halves the time.
    assert SpeedIndex.at_reference(0.010, 2 * REFERENCE_MS) == 0.005


def test_calibration_pairs_average_the_samples_around_an_operation():
    speed = SpeedIndex()
    first = speed.pair(3)
    assert len(speed.samples) == 3 and first == sorted(speed.samples)[1] > 0
    second = speed.pair(3)
    assert second == (first + sorted(speed.samples[3:])[1]) / 2
