"""Ablation — the adjustable height interpretation (§6 future work).

Sweeps the group size ``g`` of g-columnsort from 1 (threaded) to P
(M-columnsort) on live runs, quantifying the paper's predicted trade:
sort-stage communication grows with ``g`` while the reachable problem
size grows as ``(g·M/P)^(3/2)``. Also exercises the run-time policy of
picking the smallest feasible ``g`` for a given ``N``.
"""

import pytest

from repro.bounds.restrictions import max_n_threaded, max_pow2_n
from repro.cluster.config import ClusterConfig
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)
P = 4
BUFFER = 512
N = 8192  # feasible at every g so the sweep compares like with like


@pytest.mark.parametrize("g", [1, 2, 4])
def test_g_sweep_timing(benchmark, g):
    """Wall time of the real implementation at each group size."""
    cluster = ClusterConfig(p=P, mem_per_proc=BUFFER)
    recs = generate("uniform", FMT, N, seed=1)
    benchmark.group = "g-columnsort"
    benchmark.extra_info["bound_records"] = max_n_threaded(g * BUFFER)
    benchmark(
        lambda: sort_out_of_core(
            "g", recs, cluster, FMT, BUFFER, group_size=g, verify=False
        )
    )


def test_g_sweep_tradeoff(benchmark, show):
    """The §6 trade, in one table: communication up, reachable N up."""
    cluster = ClusterConfig(p=P, mem_per_proc=BUFFER)
    recs = generate("uniform", FMT, N, seed=2)

    def measure():
        rows = []
        for g in (1, 2, 4):
            res = sort_out_of_core(
                "g", recs, cluster, FMT, BUFFER, group_size=g, verify=False
            )
            rows.append(
                {
                    "g": g,
                    "net_bytes": res.comm_total["network_bytes"],
                    "bound": max_pow2_n(max_n_threaded(g * BUFFER)),
                }
            )
        return rows

    rows = benchmark(measure)
    net = [row["net_bytes"] for row in rows]
    bounds = [row["bound"] for row in rows]
    assert net == sorted(net) and net[0] < net[-1]
    assert bounds == sorted(bounds) and bounds[0] < bounds[-1]
    show(
        f"g-columnsort trade (P={P}, N={N}, buffer={BUFFER} records)",
        "\n".join(
            f"g={row['g']}: network {row['net_bytes']:>10,} B   "
            f"max N {row['bound']:>8,} records"
            for row in rows
        ),
    )


def test_policy_picks_minimal_g(benchmark):
    """The run-time policy: smallest feasible g per problem size."""

    cluster = ClusterConfig(p=P, mem_per_proc=BUFFER)

    def policy_sweep():
        return {
            n: ALGORITHMS["g"].layout(
                OocJob(cluster=cluster, fmt=FMT, n=n, buffer_records=BUFFER)
            )[2]
            for n in (4096, 8192, 16384, 32768, 65536)
        }

    picks = benchmark(policy_sweep)
    assert picks == {4096: 1, 8192: 1, 16384: 2, 32768: 4, 65536: 4}


def test_endpoints_match_published_algorithms(benchmark, show):
    """g=1 and g=P reproduce threaded and M-columnsort exactly —
    identical sorted output and identical disk I/O volume."""
    cluster = ClusterConfig(p=P, mem_per_proc=BUFFER)
    recs = generate("uniform", FMT, N, seed=3)

    def run_all():
        thr = sort_out_of_core("threaded", recs, cluster, FMT, buffer_records=BUFFER)
        g1 = sort_out_of_core("g", recs, cluster, FMT, BUFFER, group_size=1)
        gp = sort_out_of_core("g", recs, cluster, FMT, BUFFER, group_size=P)
        return thr, g1, gp

    thr, g1, gp = benchmark.pedantic(run_all, rounds=1, iterations=1)
    import numpy as np

    assert np.array_equal(thr.output_records(), g1.output_records())
    assert thr.io["bytes_read"] == g1.io["bytes_read"] == gp.io["bytes_read"]
    show(
        "Endpoints",
        f"threaded == g-columnsort(g=1): identical output; "
        f"g=P I/O matches ({gp.io['bytes_read']:,} B read)",
    )
