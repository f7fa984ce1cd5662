"""The calibrated clock subtracts probe slices and rescales by their speed."""

import math
import time

import pytest

from clock import REFERENCE_SLICE_S, CalibratedClock, probe_slice


def _clock_with(slices):
    clock = CalibratedClock()
    for t0, t1 in slices:
        clock.starts.append(t0)
        clock.ends.append(t1)
    return clock


def test_probe_slices_inside_a_span_are_subtracted():
    # slices of 4 ms every 20 ms; the span cuts the first and last one
    clock = _clock_with([(0.020 * k, 0.020 * k + 0.004) for k in range(10)])
    t0, t1 = 0.002, 0.162
    assert math.isclose(clock.probe_time(t0, t1), 0.002 + 7 * 0.004 + 0.002)
    assert math.isclose(clock.work_seconds(t0, t1), 0.160 - 0.032)


def test_reference_seconds_scale_by_the_mean_slice_time():
    slow = _clock_with([(0.1 * k, 0.1 * k + 2 * REFERENCE_SLICE_S) for k in range(10)])
    ref, raw = slow.reference_seconds(0.05, 0.95)
    work = 0.9 - 9 * 2 * REFERENCE_SLICE_S
    assert raw == pytest.approx(0.9)
    assert ref == pytest.approx(work / 2)


def test_short_spans_borrow_the_nearest_slices():
    clock = _clock_with([(k, k + 0.001 * (k + 1)) for k in range(10)])
    # no slice starts inside [4.5, 4.6]; the five nearest are 2..6 or 3..7
    assert clock.slice_mean(4.5, 4.6) in (
        pytest.approx(0.001 * sum(range(3, 8)) / 5),
        pytest.approx(0.001 * sum(range(4, 9)) / 5),
    )


def test_live_probe_slices_are_taken_out_of_busy_work():
    with CalibratedClock(period=0.005, slice_fn=lambda: probe_slice(500)) as clock:
        time.sleep(0.05)
        t0 = clock.now()
        end = t0 + 0.3
        while clock.now() < end:
            probe_slice(200)
        t1 = clock.now()
        time.sleep(0.05)
    assert clock.probe_time(t0, t1) > 0
    inside = sum(min(e, t1) - max(s, t0) for s, e in zip(clock.starts, clock.ends)
                 if e > t0 and s < t1)
    assert clock.work_seconds(t0, t1) == pytest.approx(t1 - t0 - inside)
