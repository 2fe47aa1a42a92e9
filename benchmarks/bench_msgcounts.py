"""T-msgcount — §3 properties 1-3: the subblock pass's communication.

Checks the analytic table (⌈P/√s⌉ messages per round, optimality) and
meters a live subblock pass to confirm the implementation achieves the
bound exactly.
"""

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.disks.matrixfile import ColumnStore
from repro.experiments.tables import msgcount_table, render_table
from repro.matrix.bits import sqrt_pow4
from repro.oocs.base import make_workspace
from repro.oocs.subblock import (
    expected_messages_per_round,
    pass_subblock,
    subblock_round_routing,
)
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


def test_t_msgcount_table(benchmark, show):
    rows = benchmark(msgcount_table)
    for row in rows:
        t = row["sqrt_s"]
        p = row["P"]
        assert row["messages/round (⌈P/√s⌉)"] == -(-p // t)
        assert row["network-free"] == (t >= p)
    show("T-msgcount", render_table(rows))


def test_live_subblock_pass_achieves_bound(benchmark, show):
    """Run the actual subblock pass at P=8, s=16 (√s=4 < P) and meter
    per-rank network messages: exactly (⌈P/√s⌉−1) per round."""
    p, r, s = 8, 256, 16
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    recs = generate("uniform", FMT, r * s, seed=1)

    def run_pass():
        ws = make_workspace(cluster, FMT, recs, r, s)
        dst = ColumnStore(cluster, FMT, r, s, ws.disks, name="dst")

        def prog(comm):
            pass_subblock(comm, ws.input, dst, FMT)
            return comm.stats.snapshot()["network_messages"]

        return run_spmd(p, prog).returns

    counts = benchmark(run_pass)
    rounds = s // p
    expected = rounds * (expected_messages_per_round(s, p) - 1)
    assert all(c == expected for c in counts)
    show(
        "Live subblock pass (P=8, s=16)",
        f"per-rank network messages: {counts} (expected {expected} = "
        f"{rounds} rounds × (⌈P/√s⌉−1))",
    )


def test_optimality_lower_bound(benchmark):
    """Property 3: any permutation with the subblock property sends at
    least ⌈P/√s⌉ messages per round. Our routing achieves exactly that
    — verified by enumerating destinations for every source column."""

    def check():
        for s in (16, 64, 256):
            t = sqrt_pow4(s)
            for p in (2, 4, 8, 16, 32):
                if p > s:
                    continue  # more processors than columns: not a shape
                bound = -(-p // t)
                for c in range(s):
                    routing = subblock_round_routing(c, s, p)
                    assert len(routing) == bound
        return True

    assert benchmark(check)


def test_deal_vs_subblock_network_volume(benchmark, show):
    """The subblock pass moves strictly less over the network than a
    deal pass whenever s > 1 — measured on live runs."""
    from repro.oocs.api import sort_out_of_core

    p, r, s = 8, 256, 16
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    recs = generate("uniform", FMT, r * s, seed=2)

    def run_sort():
        res = sort_out_of_core("subblock", recs, cluster, FMT, buffer_records=r)
        return [c["network_bytes"] for c in res.comm_per_pass]

    volumes = benchmark(run_sort)
    assert volumes[1] < volumes[0]  # subblock pass < deal pass
    show(
        "Per-pass network bytes (subblock columnsort, P=8, s=16)",
        f"pass1(deal)={volumes[0]:,}  pass2(subblock)={volumes[1]:,}  "
        f"pass3(deal)={volumes[2]:,}  pass4(windows)={volumes[3]:,}",
    )
