"""Baseline I/O passes and the one-call API."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError, DimensionError
from repro.oocs.api import ALGORITHMS, run_baseline_io, sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


class TestBaselineIo:
    @pytest.mark.parametrize("passes", [1, 3, 4])
    def test_io_volume_scales_with_passes(self, passes):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 512 * 16, seed=1)
        res = run_baseline_io(recs, cluster, FMT, buffer_records=512, passes=passes)
        nbytes = len(recs) * FMT.record_size
        assert res.io["bytes_read"] == passes * nbytes
        assert res.io["bytes_written"] == passes * nbytes
        assert res.passes == passes

    def test_no_network_traffic(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 512 * 16, seed=1)
        res = run_baseline_io(recs, cluster, FMT, buffer_records=512)
        assert res.comm_total["network_bytes"] == 0

    def test_output_equals_input(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=2)
        res = run_baseline_io(recs, cluster, FMT, buffer_records=128, passes=2)
        assert np.array_equal(res.output.to_records(), recs)

    def test_zero_passes_rejected(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=2)
        with pytest.raises(ConfigError):
            run_baseline_io(recs, cluster, FMT, buffer_records=128, passes=0)

    def test_no_height_restriction(self):
        """§5 runs "just the I/O portions": the baseline must accept the
        geometries subblock exists for (here r=256 < 2s²=512) and still
        refuse a layout with fewer columns than processors."""
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 4096, seed=3)
        sort_out_of_core("subblock", recs, cluster, FMT, buffer_records=256)
        res = run_baseline_io(recs, cluster, FMT, buffer_records=256, passes=4)
        assert res.io["bytes_read"] == res.io["bytes_written"] == 4 * 4096 * 64
        with pytest.raises(ConfigError):
            run_baseline_io(recs[:256], cluster, FMT, buffer_records=256, passes=4)

    def test_trace_shape(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=2)
        res = run_baseline_io(recs, cluster, FMT, buffer_records=128, passes=3)
        assert len(res.trace.passes) == 3
        for pt in res.trace.passes:
            assert [st.kind for st in pt.stages] == ["read", "write"]
            assert len(pt.rounds) == 2  # s/P = 4/2


#: program → (P, buffer, group size): N = 128 is a 32 × 4 matrix at
#: *equality* of each one's height restriction, 32 = 2s² = 4·s^(3/2)
BOUNDARY = {
    "threaded": (2, 32, None),
    "subblock": (2, 32, None),
    "m": (2, 16, None),
    "hybrid": (2, 16, None),
    "g": (4, 16, 2),
}


@pytest.mark.parametrize("algorithm", sorted(BOUNDARY))
class TestHeightBoundary:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sorts_at_equality(self, algorithm, backend):
        p, buffer, g = BOUNDARY[algorithm]
        cluster = ClusterConfig(p=p, mem_per_proc=buffer)
        recs = generate("duplicates", FMT, 128, seed=7)
        res = sort_out_of_core(
            algorithm, recs, cluster, FMT, buffer, group_size=g, backend=backend
        )  # verify=True: sorted, a permutation, keys intact
        assert (res.workspace.input.r, res.workspace.input.s) == (32, 4)

    def test_one_step_inside_is_refused_before_any_io(self, algorithm, tmp_path):
        p, buffer, g = BOUNDARY[algorithm]
        cluster = ClusterConfig(p=p, mem_per_proc=buffer)
        recs = generate("duplicates", FMT, 256, seed=7)
        with pytest.raises(DimensionError):
            sort_out_of_core(
                algorithm, recs, cluster, FMT, buffer, group_size=g,
                workdir=tmp_path / "disks",
            )
        assert not (tmp_path / "disks").exists()


class TestApi:
    def test_algorithm_registry(self):
        assert set(ALGORITHMS) == {"threaded", "subblock", "m", "hybrid", "g"}

    def test_every_program_runs_the_same_four_bodies(self):
        from repro.oocs.base import (
            pass_final_windows,
            pass_step2_deal,
            pass_step4_deal,
        )
        from repro.oocs.subblock import pass_subblock

        bodies = {
            spec.body for program in ALGORITHMS.values() for spec in program.passes
        }
        assert bodies == {
            pass_step2_deal, pass_subblock, pass_step4_deal, pass_final_windows
        }

    def test_group_size_is_refused_off_layout(self):
        """``group_size`` is g-columnsort's knob: a program whose stores
        have another group size (or none) must not silently ignore it."""
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 512 * 16, seed=1)
        with pytest.raises(ConfigError, match="threaded does not run at group"):
            sort_out_of_core("threaded", recs, cluster, FMT, 512, group_size=2)

    def test_unknown_algorithm(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128, seed=1)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            sort_out_of_core("quicksort", recs, cluster, FMT, buffer_records=64)

    def test_verify_false_skips_checks(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=1)
        res = sort_out_of_core(
            "threaded", recs, cluster, FMT, buffer_records=128, verify=False
        )
        assert res.output_records() is not None

    def test_explicit_workdir(self, tmp_path):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=1)
        res = sort_out_of_core(
            "threaded", recs, cluster, FMT, buffer_records=128,
            workdir=tmp_path / "work",
        )
        assert (tmp_path / "work" / "disk000").exists()
        assert res.workspace.workdir == tmp_path / "work"

    def test_collect_trace_false(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        recs = generate("uniform", FMT, 128 * 4, seed=1)
        res = sort_out_of_core(
            "threaded", recs, cluster, FMT, buffer_records=128,
            collect_trace=False,
        )
        assert res.trace is None

    def test_all_algorithms_one_config_each(self):
        """Smoke: every registered algorithm through the same API."""
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        cases = {
            "threaded": (generate("uniform", FMT, 512 * 16, seed=1), 512),
            "subblock": (generate("uniform", FMT, 256 * 16, seed=1), 256),
            "m": (generate("uniform", FMT, 4 * 256 * 16, seed=1), 256),
            "hybrid": (generate("uniform", FMT, 4 * 256 * 16, seed=1), 256),
            "g": (generate("uniform", FMT, 4 * 256 * 16, seed=1), 256),
        }
        assert set(cases) == set(ALGORITHMS)
        for algorithm, (recs, buf) in cases.items():
            res = sort_out_of_core(
                algorithm, recs, cluster, FMT, buffer_records=buf
            )
            assert res.algorithm in (algorithm, "m-columnsort",
                                     "g-columnsort(g=4)")
