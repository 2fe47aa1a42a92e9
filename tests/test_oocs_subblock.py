"""Subblock columnsort, end to end — including §3's message-count
properties, metered on live runs."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.matrixfile import ColumnStore
from repro.errors import ConfigError, DimensionError
from repro.matrix.bits import sqrt_pow4
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob, make_workspace
from repro.oocs.subblock import (
    expected_messages_per_round,
    pass_subblock,
    subblock_round_routing,
)
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
derive_shape = ALGORITHMS["subblock"].derive_shape


def run(p, r, s, workload="uniform", fmt=FMT, seed=0):
    cluster = ClusterConfig(p=p, mem_per_proc=max(r, 8))
    recs = generate(workload, fmt, r * s, seed=seed)
    return sort_out_of_core("subblock", recs, cluster, fmt, buffer_records=r), recs


class TestEndToEnd:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_cluster_sizes_spanning_sqrt_s(self, p):
        # s=16, √s=4: covers P < √s, P = √s, and P > √s.
        run(p, 256, 16)

    def test_sorts_below_basic_columnsort_bound(self):
        """The headline capability: r=256, s=16 violates r ≥ 2s² = 512
        but subblock columnsort handles it (bound (2))."""
        res, _ = run(4, 256, 16, workload="duplicates")
        assert res.passes == 4

    @pytest.mark.parametrize(
        "workload", ["uniform", "reverse", "duplicates", "all-equal", "zipf"]
    )
    def test_workloads(self, workload):
        run(4, 256, 16, workload=workload)

    def test_io_is_exactly_four_passes(self):
        res, recs = run(4, 256, 16)
        nbytes = len(recs) * FMT.record_size
        assert res.io["bytes_read"] == 4 * nbytes
        assert res.io["bytes_written"] == 4 * nbytes
        assert len(res.io_per_pass) == 4

    def test_larger_s(self):
        run(4, 2048, 64, seed=3)  # √s = 8 > P


class TestMessageCounts:
    """Paper §3 properties 1 and 2, against live communication stats."""

    def test_no_network_traffic_when_sqrt_s_geq_p(self):
        for p in (2, 4):  # √16 = 4 ≥ P
            res, _ = run(p, 256, 16)
            assert res.comm_per_pass[1]["network_bytes"] == 0, p

    def test_network_bytes_when_p_exceeds_sqrt_s(self):
        p, r, s = 8, 256, 16
        res, _ = run(p, r, s)
        msgs = expected_messages_per_round(s, p)  # ⌈8/4⌉ = 2
        assert msgs == 2
        rounds = s // p
        per_round = (msgs - 1) * (r // msgs) * FMT.record_size
        assert res.comm_per_pass[1]["network_bytes"] == rounds * per_round

    def test_deal_pass_sends_more(self):
        """The subblock pass communicates strictly less than the deal
        passes around it whenever √s > 1."""
        res, _ = run(8, 256, 16)
        assert (
            res.comm_per_pass[1]["network_bytes"]
            < res.comm_per_pass[0]["network_bytes"]
        )

    def test_exact_message_count_metered(self, tmp_path):
        """Run just the subblock pass and count network messages: each
        processor sends exactly ⌈P/√s⌉−1 messages per round over the
        network (the remaining one is its self-message)."""
        p, r, s = 8, 256, 16
        cluster = ClusterConfig(p=p, mem_per_proc=2**10)
        recs = generate("uniform", FMT, r * s, seed=2)
        ws = make_workspace(cluster, FMT, recs, r, s, workdir=tmp_path)
        dst = ColumnStore(cluster, FMT, r, s, ws.disks, name="dst")

        def prog(comm):
            pass_subblock(comm, ws.input, dst, FMT)
            return comm.stats.snapshot()

        res = run_spmd(p, prog)
        rounds = s // p
        expected_net = rounds * (expected_messages_per_round(s, p) - 1)
        for snap in res.returns:
            assert snap["network_messages"] == expected_net

    @pytest.mark.parametrize("p,s", [(2, 16), (4, 16), (8, 16), (16, 16),
                                     (4, 64), (16, 64), (32, 64)])
    def test_expected_messages_formula(self, p, s):
        t = sqrt_pow4(s)
        assert expected_messages_per_round(s, p) == -(-p // t)

    @pytest.mark.parametrize("p,s", [(2, 16), (8, 16), (16, 16), (16, 64),
                                     (32, 64), (4, 256), (32, 256)])
    def test_routing_table_has_exactly_that_many_destinations(self, p, s):
        for c in range(s):
            routing = subblock_round_routing(c, s, p)
            assert len(routing) == expected_messages_per_round(s, p)
            # Every subblock row class appears exactly once.
            xs = sorted(x for lst in routing.values() for x in lst)
            assert xs == list(range(sqrt_pow4(s)))

    def test_self_message_always_present(self):
        """Property 2's core: the sender's own rank is always among the
        destinations (so ⌈P/√s⌉ = 1 means zero network messages)."""
        for p in (2, 4, 8, 16):
            for c in range(16):
                routing = subblock_round_routing(c, 16, p)
                assert (c % p) in routing


class TestValidation:
    def test_shape_derivation(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=256 * 16, buffer_records=256)
        assert derive_shape(job) == (256, 16)

    def test_s_must_be_power_of_4(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**12)
        job = OocJob(cluster=cluster, fmt=FMT, n=2048 * 32, buffer_records=2048)
        with pytest.raises(DimensionError, match="power of 4"):
            derive_shape(job)

    def test_relaxed_height_enforced(self):
        cluster = ClusterConfig(p=4, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=128 * 16, buffer_records=128)
        with pytest.raises(DimensionError, match="relaxed height"):
            derive_shape(job)

    def test_p_divides_s(self):
        cluster = ClusterConfig(p=8, mem_per_proc=2**10)
        job = OocJob(cluster=cluster, fmt=FMT, n=256 * 4, buffer_records=256)
        with pytest.raises(ConfigError, match="at least P"):
            derive_shape(job)
