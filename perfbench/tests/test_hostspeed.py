"""Host-speed sampling and the scaling of a pass to the reference speed.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from run import SHRINK, scaled, unit_slowdowns  # noqa: E402


def test_sampling_samples_while_busy_and_restores_the_handler():
    host = HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 3
    assert host.spent == pytest.approx(sum(host.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_slowdown_is_mean_sample_over_reference():
    host = HostSpeed()
    host.samples = [REFERENCE_S, 3 * REFERENCE_S]
    assert host.slowdown() == pytest.approx(2.0)
    assert host.slowdown(1) == pytest.approx(3.0)


def table1_pass():
    # units: [key, wall s, CPU s, samples during the unit, summed slowdown]
    return {
        "slowdown": 2.0,
        "units": [
            ["a/phase2", 4.0, 4.0, 10, 40.0],
            ["a/normal", 1.0, 1.0, 0, 0],
        ],
        "rows": {"a": {}},
        "row_trials": {"a": [0, 2]},
        "trials": [(0.4, 0, 0, 0, 0, 0), (0.8, 0, 0, 0, 0, 0)],
        "normal": {"a": [(0.2, 0, False)]},
        "confirm_at": [0, 1.2],
    }


def test_unit_slowdown_shrinks_toward_the_pass():
    slow = unit_slowdowns(table1_pass())
    assert slow["a/phase2"] == pytest.approx((40.0 + SHRINK * 2) / (10 + SHRINK))
    assert slow["a/normal"] == pytest.approx(2.0)


def test_scaled_divides_by_the_slowdown_of_the_enclosing_unit():
    one = table1_pass()
    phase2 = unit_slowdowns(one)["a/phase2"]
    out = scaled([one])[0]
    assert out["units"][0][1] == pytest.approx(4.0 / phase2)
    assert out["units"][1][1] == pytest.approx(0.5)
    assert out["rows"]["a"]["trials"] == pytest.approx([0.4 / phase2,
                                                        0.8 / phase2])
    assert out["rows"]["a"]["normal"] == pytest.approx([0.1])
    assert out["confirm_all_s"] == pytest.approx(1.2 / phase2)
