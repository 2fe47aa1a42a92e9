#!/usr/bin/env python3
"""From a real run to a wall-clock prediction.

Runs M-columnsort functionally on the simulated cluster, prints the
per-pass I/O and communication it actually performed, then feeds the
run's own structural trace to the discrete-event pipeline model under
two hardware profiles: the paper's 2003 Beowulf and a modern NVMe
machine. The functional run and the Figure 2 numbers are connected by
exactly this trace — both derive it from the program's one pass list.

Run:  python examples/cluster_trace.py
"""

from repro import ClusterConfig, RecordFormat, generate, sort_out_of_core
from repro.simulate.hardware import BEOWULF_2003, MODERN_NVME
from repro.simulate.predict import predict_run

fmt = RecordFormat("u8", 64)
cluster = ClusterConfig(p=4, mem_per_proc=2**10)
records = generate("uniform", fmt, 4 * 256 * 16, seed=1)  # 16 columns of M=1024

result = sort_out_of_core("m", records, cluster, fmt, buffer_records=256)

print(f"M-columnsort, N={len(records):,} records on P={cluster.p} "
      f"(r = M = {cluster.p * 256}, s = 16)\n")

print("what the run actually did, per pass (rank 0's view):")
for k, (io, comm) in enumerate(zip(result.io_per_pass, result.comm_per_pass)):
    print(f"  pass {k + 1}: read {io['bytes_read']:>9,} B  "
          f"wrote {io['bytes_written']:>9,} B  "
          f"sent {comm['network_bytes']:>9,} B over the network")

print("\nfeeding the run's own trace to the pipeline DES:")
for hw in (BEOWULF_2003, MODERN_NVME):
    timing = predict_run(result.trace, hw)
    per_pass = "  ".join(
        f"p{k + 1}={t.makespan * 1000:.1f}ms" for k, t in enumerate(timing.per_pass)
    )
    print(f"  {hw.name:13s} total {timing.total_seconds * 1000:8.1f} ms   {per_pass}")

print("\nbottleneck threads per pass (BEOWULF_2003):")
for k, t in enumerate(predict_run(result.trace, BEOWULF_2003).per_pass):
    print(f"  pass {k + 1}: {t.bottleneck_thread:9s} "
          f"({t.utilization(t.bottleneck_thread) * 100:.0f}% busy, "
          f"{t.rounds} rounds, pipeline depth {t.max_inflight})")
