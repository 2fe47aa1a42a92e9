"""Structural traces: every trace — a live run's or a priced
configuration's — is derived from the program's one pass list, so what
is checked here is the live witness of that derivation (a pass really
reads rounds × P columns) and the contents of the traces themselves."""

import pytest

from repro.cluster import available_backends
from repro.cluster.config import ClusterConfig
from repro.errors import Cancellation, ConfigError, DimensionError
from repro.governor import CancelToken
from repro.oocs.api import (
    ALGORITHMS,
    analytic_trace,
    run_baseline_io,
    sort_out_of_core,
)
from repro.oocs.baseline_io import baseline_program
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.simulate.trace import RunTrace

FMT = RecordFormat("u8", 64)


def assert_traces_equal(analytic: RunTrace, functional: RunTrace) -> None:
    assert analytic.algorithm == functional.algorithm
    assert analytic.buffer_bytes == functional.buffer_bytes
    assert len(analytic.passes) == len(functional.passes)
    for a, f in zip(analytic.passes, functional.passes):
        assert a.name == f.name
        assert [s.name for s in a.stages] == [s.name for s in f.stages]
        assert [s.thread for s in a.stages] == [s.thread for s in f.stages]
        assert len(a.rounds) == len(f.rounds)
        for ra, rf in zip(a.rounds, f.rounds):
            assert ra.work == rf.work
            assert ra.messages == rf.messages


def assert_live_witness(algorithm, p, buffer, n, seed, group_size=None, passes=3):
    """On both backends: the run's trace is the analytic trace of its
    job plus measured walls, and each pass read one column (or portion)
    per rank per round — the round structure, measured."""
    recs = generate("uniform", FMT, n, seed=seed)
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    expected = analytic_trace(
        algorithm, n, p, buffer, 64, passes=passes, group_size=group_size
    )
    for backend in available_backends():
        if algorithm == "baseline-io":
            res = run_baseline_io(
                recs, cluster, FMT, buffer, passes=passes, backend=backend
            )
        else:
            res = sort_out_of_core(
                algorithm, recs, cluster, FMT, buffer_records=buffer,
                backend=backend, group_size=group_size,
            )
        assert_traces_equal(expected, res.trace)
        assert len(res.io_per_pass) == len(res.trace.passes)
        for io, pass_trace in zip(res.io_per_pass, res.trace.passes):
            assert io["reads"] == len(pass_trace.rounds) * p
            assert pass_trace.wall


class TestAnalyticMatchesFunctional:
    def test_threaded(self):
        assert_live_witness("threaded", 4, 512, 512 * 16, seed=1)

    def test_subblock(self):
        assert_live_witness("subblock", 8, 256, 256 * 16, seed=2)

    def test_m(self):
        assert_live_witness("m", 4, 256, 4 * 256 * 16, seed=3)

    def test_hybrid(self):
        assert_live_witness("hybrid", 4, 256, 4 * 256 * 16, seed=4)

    def test_g(self):
        assert_live_witness("g", 4, 512, 8192, seed=5, group_size=2)

    def test_baseline(self):
        assert_live_witness("baseline-io", 4, 512, 8192, seed=6, passes=4)

    def test_resumed_run_traces_the_passes_it_executed(self, tmp_path):
        recs = generate("uniform", FMT, 8192, seed=7)
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        kwargs = dict(
            buffer_records=512, workdir=tmp_path / "w",
            checkpoint_dir=tmp_path / "ck",
        )
        with pytest.raises(Cancellation):
            sort_out_of_core(
                "threaded", recs, cluster, FMT,
                cancel=CancelToken(cancel_at_pass=1), **kwargs,
            )
        res = sort_out_of_core(
            "threaded", recs, cluster, FMT, resume=True, **kwargs
        )
        names = [spec.name for spec in ALGORITHMS["threaded"].passes]
        assert [pt.name for pt in res.trace.passes] == names[1:]
        assert len(res.io_per_pass) == 2
        assert all(pt.wall for pt in res.trace.passes)


class TestTraceContents:
    def test_io_totals_per_pass(self):
        run = analytic_trace("threaded", 2**20, 4, 2**14, 64)
        nbytes = 2**20 * 64
        for pt in run.passes:
            assert pt.total("read") == nbytes / 4  # per processor
            assert pt.total("write") == nbytes / 4

    def test_run_trace_metadata(self):
        run = analytic_trace("subblock", 2**20, 16, 2**14, 64)
        assert run.gb_total == pytest.approx(2**20 * 64 / 2**30)
        assert run.gb_per_proc == pytest.approx(run.gb_total / 16)
        assert run.buffer_bytes == 2**14 * 64

    def test_subblock_has_one_more_pass(self):
        thr = analytic_trace("threaded", 2**19, 4, 2**13, 64)
        sub = analytic_trace("subblock", 2**19, 4, 2**13, 64)
        assert len(sub.passes) == len(thr.passes) + 1

    def test_subblock_pass_no_network_when_sqrt_s_geq_p(self):
        run = analytic_trace("subblock", 2**17 * 16, 4, 2**17, 64)  # s=16, √s=4=P
        sub_pass = run.passes[1]
        assert sub_pass.total("comm") == 0

    def test_m_trace_has_incore_stages(self):
        run = analytic_trace("m", 2**18, 4, 2**12, 64)
        names = [s.name for s in run.passes[0].stages]
        assert "ic-s1" in names and "ic-c8" in names
        assert len(run.passes[0].stages) == 11
        assert len(run.passes[2].stages) == 20

    def test_baseline_trace(self):
        run = analytic_trace("baseline-io", 2**16, 4, 2**12, 64, passes=4)
        assert len(run.passes) == 4
        assert run.total("comm") == 0
        assert run.total("sort") == 0

    def test_builders_registry(self):
        """Every program prices from its own pass list."""
        programs = {**ALGORITHMS, "baseline-io": baseline_program(3)}
        for name, program in programs.items():
            run = analytic_trace(name, 2**14, 4, 2**10, 64)
            assert [pt.name for pt in run.passes] == [
                spec.name for spec in program.passes
            ]


class TestShapeErrors:
    def test_threaded_bound(self):
        with pytest.raises(DimensionError):
            analytic_trace("threaded", 2**24, 4, 2**12, 64)

    def test_subblock_power_of_4(self):
        with pytest.raises(DimensionError):
            analytic_trace("subblock", 2**18 * 32, 4, 2**18, 64)

    def test_m_needs_p2(self):
        with pytest.raises(ConfigError):
            analytic_trace("m", 2**16, 1, 2**12, 64)

    def test_baseline_needs_enough_columns(self):
        with pytest.raises(ConfigError):
            analytic_trace("baseline-io", 2**12, 8, 2**12, 64)
