"""Hybrid (subblock + M) columnsort — the §6 future-work algorithm."""

import pytest

from repro.bounds.restrictions import (
    max_n_hybrid,
    max_n_m_columnsort,
    max_n_subblock,
)
from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError, DimensionError
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
derive_shape = ALGORITHMS["hybrid"].derive_shape


def run(p, portion, s, workload="uniform", seed=0):
    cluster = ClusterConfig(p=p, mem_per_proc=max(portion, 8))
    n = p * portion * s
    recs = generate(workload, FMT, n, seed=seed)
    return (
        sort_out_of_core("hybrid", recs, cluster, FMT, buffer_records=portion),
        recs,
    )


class TestEndToEnd:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_cluster_sizes(self, p):
        # M = P·portion must satisfy M ≥ 4·s^(3/2) = 256 at s = 16.
        portion = max(2 * p * p, 256 // p)
        res, _ = run(p, portion, 16)
        assert res.passes == 4

    @pytest.mark.parametrize("workload", ["uniform", "duplicates", "zipf"])
    def test_workloads(self, workload):
        run(4, 64, 16, workload=workload)

    def test_io_is_exactly_four_passes(self):
        res, recs = run(4, 64, 16)
        nbytes = len(recs) * FMT.record_size
        assert res.io["bytes_read"] == 4 * nbytes
        assert res.io["bytes_written"] == 4 * nbytes

    def test_sorts_beyond_m_columnsort_bound(self):
        """The hybrid's reason to exist: a shape legal for it but not
        for M-columnsort (M < 2s² yet M ≥ 4·s^(3/2))."""
        # The regimes separate at larger scale; verify via the bounds:
        assert max_n_hybrid(2**23) > max_n_m_columnsort(2**23)
        # and functionally at a feasible in-between point:
        p, portion, s = 2, 128, 16
        m = p * portion  # 256; 2s² = 512 (M-columnsort illegal),
        assert m < 2 * s * s
        assert m * m >= 16 * s**3  # 4·s^(3/2) = 256 (hybrid legal)
        res, _ = run(p, portion, s, seed=4)
        assert res.passes == 4

    def test_bound_ordering(self):
        """Hybrid ≥ M-columnsort ≥ subblock for realistic shapes."""
        for a in range(16, 30, 2):
            m = 1 << a
            assert max_n_hybrid(m) >= max_n_m_columnsort(m)
            assert max_n_m_columnsort(m) >= max_n_subblock(m // 16) or a < 20


class TestValidation:
    def test_shape_derivation(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        job = OocJob(cluster=cluster, fmt=FMT, n=4 * 256 * 16, buffer_records=256)
        assert derive_shape(job) == (1024, 16)

    def test_s_power_of_4_required(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        job = OocJob(cluster=cluster, fmt=FMT, n=4 * 256 * 8, buffer_records=256)
        with pytest.raises(DimensionError, match="power of 4"):
            derive_shape(job)

    def test_relaxed_height_enforced(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**6)
        # M = 128, s = 64: 4·s^(3/2) = 2048 > 128.
        job = OocJob(cluster=cluster, fmt=FMT, n=128 * 64, buffer_records=64)
        with pytest.raises((DimensionError, ConfigError)):
            derive_shape(job)

    def test_p1_rejected(self):
        cluster = ClusterConfig(p=1, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=2**12, buffer_records=2**10)
        with pytest.raises(ConfigError):
            derive_shape(job)
