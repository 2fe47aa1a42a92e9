"""Runtime prediction: Figure 2's shape, as assertions."""

import pytest

from repro.errors import DimensionError
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

    @pytest.mark.parametrize("buf,gb", [(2**24, 4), (2**25, 8)])
    def test_pass_counts_order_the_programs(self, buf, gb):
        """§5 at P = 4, where every program is eligible: subblock ≈ 4/3
        × threaded, each is within 5 % of its baseline, and M-columnsort
        sits above the 3-pass baseline but not above the 4-pass one."""
        n, p = n_for(gb), 4

        def t(algorithm, **kw):
            return predict_seconds_per_gb(algorithm, n, p, buf, REC,
                                          BEOWULF_2003, **kw)

        b3, b4 = t("baseline-io", passes=3), t("baseline-io", passes=4)
        thr, sub, m = t("threaded"), t("subblock"), t("m")
        assert abs(sub / thr - 4 / 3) < 0.05
        assert thr <= 1.05 * b3
        assert sub <= 1.05 * b4
        assert 1.01 * b3 < m <= 1.01 * b4

    def test_hybrid_pays_about_one_extra_pass_over_m(self):
        """§6: the hybrid costs M-columnsort's time plus its fourth pass
        (16 GB, P = 16, buffer 2^24, where s is a power of 4)."""
        n, p, buf = n_for(16), 16, 2**24
        m = predict_seconds_per_gb("m", n, p, buf, REC, BEOWULF_2003)
        hybrid = predict_seconds_per_gb("hybrid", n, p, buf, REC, BEOWULF_2003)
        assert 1.2 < hybrid / m < 1.45


class TestBufferSweep:
    """§5's buffer-size effect swept beyond the paper's 2^24 and 2^25."""

    @staticmethod
    def sweep(algorithm, n, p, exps=range(21, 28), **kw):
        out = {}
        for exp in exps:
            try:
                out[exp] = predict_seconds_per_gb(
                    algorithm, n, p, 2**exp, REC, BEOWULF_2003, **kw
                )
            except DimensionError:
                continue
        return out

    def test_threaded_needs_big_buffers(self):
        """At 4 GB on P = 4, r ≥ 2s² admits only buffers of 2^24 bytes
        and up, and the bigger buffer is faster."""
        values = self.sweep("threaded", n_for(4), 4)
        assert sorted(values) == [24, 25, 26, 27]
        assert values[24] > values[25]

    def test_m_stays_in_band(self):
        values = self.sweep("m", n_for(32), 16)
        assert len(values) >= 4
        assert values[min(values)] < values[max(values)] * 1.3

    def test_overhead_halves_with_each_doubling(self):
        """Halving the buffer doubles the round count: the per-round
        overhead doubles while the transfer time stays, so each doubling
        of the buffer saves about half what the previous one did."""
        values = self.sweep("baseline-io", n_for(4), 4, range(22, 26),
                            passes=3)
        gaps = [values[e] - values[e + 1] for e in (22, 23, 24)]
        assert gaps[0] > gaps[1] > gaps[2] > 0


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
