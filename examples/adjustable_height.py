#!/usr/bin/env python3
"""The adjustable height interpretation (§6 future work), live.

g-columnsort interpolates between threaded columnsort (g=1) and
M-columnsort (g=P): columns are r = g·M/P records tall, owned by
groups of g processors, and the sort stages are distributed sorts over
group sub-communicators. This script sweeps g on a live cluster and
shows the §6 trade — the reachable problem size grows with g, and so
does sort-stage communication — then lets the built-in policy pick the
smallest feasible g for a problem threaded columnsort cannot configure.

Run:  python examples/adjustable_height.py
"""

from repro import ClusterConfig, RecordFormat, generate, sort_out_of_core
from repro.bounds.restrictions import max_n_threaded, max_pow2_n
from repro.oocs import ALGORITHMS, OocJob

fmt = RecordFormat("u8", 64)
P, buffer_records = 4, 512
cluster = ClusterConfig(p=P, mem_per_proc=buffer_records)

print(f"cluster: P={P}, buffer={buffer_records} records "
      f"({buffer_records * 64 // 1024} KiB)\n")

print("the §6 trade, measured on live runs (N = 8192 so every g is legal):")
records = generate("uniform", fmt, 8192, seed=1)
print(f"{'g':>3} {'r = g·M/P':>10} {'bound (records)':>16} "
      f"{'network bytes':>14}  role")
roles = {1: "= threaded columnsort", 2: "intermediate", 4: "= M-columnsort"}
for g in (1, 2, 4):
    result = sort_out_of_core("g", records, cluster, fmt, buffer_records,
                              group_size=g)
    print(f"{g:>3} {g * buffer_records:>10} "
          f"{max_pow2_n(max_n_threaded(g * buffer_records)):>16,} "
          f"{result.comm_total['network_bytes']:>14,}  {roles[g]}")

n_big = 32768  # beyond g=1's bound of 8192 and g=2's 16384
print(f"\nnow N = {n_big:,} — too large for g ∈ {{1, 2}} at this buffer:")
job = OocJob(cluster=cluster, fmt=fmt, n=n_big, buffer_records=buffer_records)
_, _, g_pick = ALGORITHMS["g"].layout(job)
print(f"policy picks the smallest feasible group size: g = {g_pick}")
big = generate("uniform", fmt, n_big, seed=2)
result = sort_out_of_core("g", big, cluster, fmt, buffer_records)  # auto
print(f"ran {result.algorithm}: {result.passes} passes, verified; "
      f"network {result.comm_total['network_bytes']:,} B")
