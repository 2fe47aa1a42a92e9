"""Runtime prediction: Figure 2's shape, as assertions."""

import pytest

from repro.oocs.api import analytic_trace
from repro.simulate.hardware import BEOWULF_2003, MODERN_NVME
from repro.simulate.predict import (
    buffers_per_round,
    max_inflight_for,
    predict_run,
    predict_seconds_per_gb,
)

GB = 2**30
REC = 64


def n_for(gb):
    return gb * GB // REC


class TestCalibration:
    def test_baseline_3pass_anchor(self):
        """The calibration anchor: the 3-pass baseline sits near 300 s
        per (GB/processor) — the paper's Figure 2 baseline line."""
        v = predict_seconds_per_gb("baseline-io", n_for(4), 4, 2**25, REC,
                                   BEOWULF_2003, passes=3)
        assert 280 <= v <= 330

    def test_baseline_ratio_is_passes_ratio(self):
        b3 = predict_seconds_per_gb("baseline-io", n_for(4), 4, 2**25, REC,
                                    BEOWULF_2003, passes=3)
        b4 = predict_seconds_per_gb("baseline-io", n_for(4), 4, 2**25, REC,
                                    BEOWULF_2003, passes=4)
        assert b4 / b3 == pytest.approx(4 / 3, rel=0.02)

    def test_threaded_is_io_bound_at_big_buffer(self):
        t = predict_seconds_per_gb("threaded", n_for(4), 4, 2**25, REC, BEOWULF_2003)
        b = predict_seconds_per_gb("baseline-io", n_for(4), 4, 2**25, REC,
                                   BEOWULF_2003, passes=3)
        assert b <= t <= 1.05 * b

    def test_subblock_is_four_thirds_of_threaded(self):
        t = predict_seconds_per_gb("threaded", n_for(4), 4, 2**24, REC, BEOWULF_2003)
        s = predict_seconds_per_gb("subblock", n_for(4), 4, 2**24, REC, BEOWULF_2003)
        assert s / t == pytest.approx(4 / 3, rel=0.05)

    def test_m_between_threaded_and_subblock(self):
        for buf in (2**24, 2**25):
            for gb, p in [(8, 8), (32, 16)]:
                m = predict_seconds_per_gb("m", n_for(gb), p, buf, REC, BEOWULF_2003)
                b3 = predict_seconds_per_gb("baseline-io", n_for(gb), p, buf, REC,
                                            BEOWULF_2003, passes=3)
                b4 = predict_seconds_per_gb("baseline-io", n_for(gb), p, buf, REC,
                                            BEOWULF_2003, passes=4)
                assert m > 1.03 * b3  # well above 3-pass baseline…
                assert m <= 1.01 * b4  # …but not slower than subblock's regime

    def test_smaller_buffer_slower_for_threaded(self):
        t24 = predict_seconds_per_gb("threaded", n_for(4), 4, 2**24, REC, BEOWULF_2003)
        t25 = predict_seconds_per_gb("threaded", n_for(4), 4, 2**25, REC, BEOWULF_2003)
        assert t24 > t25

    def test_time_scales_with_data_per_processor(self):
        """§5: secs per (GB/proc) is nearly flat across problem sizes."""
        vals = [
            predict_seconds_per_gb("m", n_for(gb), p, 2**24, REC, BEOWULF_2003)
            for gb, p in [(4, 4), (8, 8), (16, 8), (32, 16)]
        ]
        assert max(vals) <= 1.12 * min(vals)

    def test_modern_hardware_is_much_faster(self):
        old = predict_seconds_per_gb("threaded", n_for(4), 4, 2**25, REC, BEOWULF_2003)
        new = predict_seconds_per_gb("threaded", n_for(4), 4, 2**25, REC, MODERN_NVME)
        assert new < old / 50


class TestMechanics:
    def test_predict_run_totals_passes(self):
        run = analytic_trace("threaded", n_for(4), 4, 2**25 // REC, REC)
        timing = predict_run(run, BEOWULF_2003)
        assert timing.total_seconds == pytest.approx(
            sum(p.makespan for p in timing.per_pass)
        )
        assert len(timing.per_pass) == 3
        assert timing.gb_per_proc == pytest.approx(1.0)

    def test_seconds_per_gb_normalization(self):
        run = analytic_trace("threaded", n_for(8), 8, 2**25 // REC, REC)
        timing = predict_run(run, BEOWULF_2003)
        assert timing.seconds_per_gb_per_proc == pytest.approx(
            timing.total_seconds / 1.0
        )

    def test_buffers_per_round_shapes(self):
        thr = analytic_trace("threaded", n_for(4), 4, 2**25 // REC, REC)
        m = analytic_trace("m", n_for(4), 4, 2**19, REC)
        # 5-stage: 4 threads; 11-stage: 4 threads + in-core surcharge.
        assert buffers_per_round(thr.passes[0]) == 4
        assert buffers_per_round(m.passes[0]) == 5
        assert buffers_per_round(m.passes[2]) == 8  # 7 threads + 1

    def test_max_inflight_floors_at_one(self):
        sub = analytic_trace("subblock", n_for(4) * 4, 16, 2**24 // REC, REC)
        tiny_ram = BEOWULF_2003.__class__(
            **{**BEOWULF_2003.__dict__, "ram_bytes": 2**20}
        )
        assert max_inflight_for(sub.passes[0], tiny_ram, 2**24) == 1

    def test_io_bound_passes_report_io_bottleneck(self):
        run = analytic_trace("baseline-io", n_for(4), 4, 2**25 // REC, REC, passes=3)
        timing = predict_run(run, BEOWULF_2003)
        for pt in timing.per_pass:
            assert pt.bottleneck_thread == "io"
            assert pt.utilization("io") > 0.95
