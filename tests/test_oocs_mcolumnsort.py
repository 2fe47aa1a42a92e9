"""M-columnsort, end to end — the r = M height interpretation."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError, DimensionError
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
derive_shape = ALGORITHMS["m"].derive_shape


def run(p, portion, s, workload="uniform", fmt=FMT, seed=0):
    cluster = ClusterConfig(p=p, mem_per_proc=max(portion, 8))
    n = p * portion * s
    recs = generate(workload, fmt, n, seed=seed)
    return (
        sort_out_of_core("m", recs, cluster, fmt, buffer_records=portion),
        recs,
    )


class TestEndToEnd:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_cluster_sizes(self, p):
        res, _ = run(p, max(2 * p * p, 64), 8)
        assert res.passes == 3

    @pytest.mark.parametrize(
        "workload", ["uniform", "sorted", "reverse", "duplicates",
                     "all-equal", "zipf", "organ-pipe"]
    )
    def test_workloads(self, workload):
        run(4, 64, 8, workload=workload)

    @pytest.mark.parametrize("key", ["u8", "i8", "f8"])
    def test_key_dtypes(self, key):
        run(4, 64, 8, fmt=RecordFormat(key, 32))

    def test_single_column(self):
        """s = 1: the whole dataset is one M-high column; one round per
        pass."""
        run(4, 64, 1)

    def test_io_is_exactly_three_passes(self):
        res, recs = run(4, 64, 8)
        nbytes = len(recs) * FMT.record_size
        assert res.io["bytes_read"] == 3 * nbytes
        assert res.io["bytes_written"] == 3 * nbytes

    def test_exceeds_threaded_columnsort_bound(self):
        """A problem size no threaded-columnsort configuration with the
        same per-processor memory could sort: restriction (1) caps
        threaded at (M/P)^(3/2)/√2 records, but M-columnsort's bound
        scales with total memory (restriction (3))."""
        from repro.bounds.restrictions import max_n_threaded

        p, portion, s = 8, 256, 16
        n = p * portion * s  # 32768 records
        assert n > max_n_threaded(portion)  # 256^1.5/√2 ≈ 2896
        res, _ = run(p, portion, s)
        assert res.passes == 3

    def test_communication_far_exceeds_threaded(self):
        """§4/§5: M-columnsort's distributed sort stage incurs
        substantially more communication than threaded columnsort."""
        p, r, s = 4, 512, 8  # threaded shape: N = 4096
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=1)
        thr = sort_out_of_core("threaded", recs, cluster, FMT, buffer_records=r)
        m = sort_out_of_core("m", recs, cluster, FMT, buffer_records=128)
        assert (
            m.comm_total["network_bytes"] > 1.5 * thr.comm_total["network_bytes"]
        )


def _overlap(lo, hi, ranges):
    """Records of ``[lo, hi)`` inside the union of ``ranges``."""
    return sum(max(0, min(b, hi) - max(a, lo)) for a, b in ranges)


def _rank0_sort_sends(p, rr, ranges):
    """Rank 0's sends in one distributed columnsort of ``r' = rr``
    records per rank: ``(op, dest, records)`` per message. Steps 2 and 4
    are full all-to-alls (``rr/P`` records to every rank); steps 6-8
    send the bottom half to rank 1; the delivery sends rank 0's held
    range ``[0, rr/2)`` to each destination whose target ranges it
    meets."""
    sends = [("alltoallv", q, rr // p) for q in range(p)] * 2
    sends.append(("send", 1, rr // 2))
    for q in range(p):
        n = _overlap(0, rr // 2, ranges[q])
        if n:
            sends.append(("alltoallv", q, n))
    return sends


def _closed_form_per_pass(p, portion, s, record_size):
    """Rank 0's ``comm_per_pass`` of M-columnsort (``g = P``, so the
    in-core sort is the whole pass's communication but for the last
    pass's PDM routing), with ``by_op``. Every pass plans once (one
    ``allgather`` of ``P`` payload-free messages); a pass boundary is a
    metered ``barrier`` on either side of the counters' snapshot, so
    pass 1 counts one and every later pass two. Pass 1 sorts each of the ``s`` columns with the
    balanced delivery; pass 2 with step 4's scattered one (member ``m``
    gets the ``m``-th ``portion/s`` band of each ``r/s`` chunk); pass 3
    sorts ``2s − 1`` times (step 5 per column, step 7 per window but
    window 0) and routes each of rank 0's ``s`` window pieces to the
    ``P`` PDM owners, ``portion/P`` records each."""
    r = p * portion
    balanced = [[(q * portion, (q + 1) * portion)] for q in range(p)]
    chunk, band = r // s, portion // s
    dealt = [
        [(k * chunk + m * band, k * chunk + (m + 1) * band) for k in range(s)]
        for m in range(p)
    ]
    plan = [("allgather", q, 0) for q in range(p)]
    barrier = [("barrier", q, 0) for q in range(p)]
    routing = [("alltoallv", q, portion // p) for q in range(p)] * s
    per_pass = [
        plan + barrier + _rank0_sort_sends(p, portion, balanced) * s,
        plan + barrier * 2 + _rank0_sort_sends(p, portion, dealt) * s,
        plan + barrier * 2
        + _rank0_sort_sends(p, portion, balanced) * (2 * s - 1) + routing,
    ]
    out = []
    for sends in per_pass:
        net = [(op, n) for op, q, n in sends if q != 0]
        by_op = {}
        for op, _q, _n in sends:
            by_op[op] = by_op.get(op, 0) + 1
        out.append({
            "messages": len(sends),
            "bytes": sum(n for _op, _q, n in sends) * record_size,
            "network_messages": len(net),
            "network_bytes": sum(n for _op, n in net) * record_size,
            "by_op": by_op,
        })
    return out


class TestMetering:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("p,portion,s", [(2, 1024, 2), (4, 256, 8)])
    def test_comm_per_pass_is_the_in_core_sorts_exchanges(
        self, backend, p, portion, s
    ):
        """Every message M-columnsort sends is one of its distributed
        in-core sorts' (two full all-to-alls, the neighbour half, the
        delivery's non-empty parts) or the last pass's PDM routing —
        counted, sized and split by network exactly."""
        cluster = ClusterConfig(p=p, mem_per_proc=2 * portion)
        recs = generate("zipf", FMT, p * portion * s, seed=3)
        res = sort_out_of_core(
            "m", recs, cluster, FMT, buffer_records=portion, backend=backend
        )
        assert res.comm_per_pass == _closed_form_per_pass(
            p, portion, s, FMT.record_size
        )


class TestValidation:
    def test_shape_derivation(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        job = OocJob(cluster=cluster, fmt=FMT, n=4 * 256 * 16, buffer_records=256)
        assert derive_shape(job) == (1024, 16)

    def test_p1_rejected(self):
        cluster = ClusterConfig(p=1, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=2**12, buffer_records=2**10)
        with pytest.raises(ConfigError, match="P ≥ 2"):
            derive_shape(job)

    def test_outer_height_restriction(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        # M = 1024, s = 32: 1024 < 2·32² = 2048.
        job = OocJob(cluster=cluster, fmt=FMT, n=4 * 256 * 32, buffer_records=256)
        with pytest.raises(DimensionError, match="height restriction"):
            derive_shape(job)

    def test_inner_height_restriction(self):
        cluster = ClusterConfig(p=8, mem_per_proc=2**6)
        # M/P = 64 < 2P² = 128.
        job = OocJob(cluster=cluster, fmt=FMT, n=8 * 64 * 2, buffer_records=64)
        with pytest.raises(DimensionError, match="in-core height"):
            derive_shape(job)

    def test_s_divides_portion(self):
        cluster = ClusterConfig(p=2, mem_per_proc=2**5)
        # portion=32, s=64 > portion — M=64, s = n/M; pick n = 64·64.
        job = OocJob(cluster=cluster, fmt=FMT, n=64 * 64, buffer_records=32)
        with pytest.raises((ConfigError, DimensionError)):
            derive_shape(job)

    def test_m_divides_n(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**8)
        job = OocJob(cluster=cluster, fmt=FMT, n=512, buffer_records=256)
        with pytest.raises(ConfigError, match="divide"):
            derive_shape(job)
