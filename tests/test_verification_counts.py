"""Every read verifies what it reads, and a column read verifies one
extent: a portion written by cursor appends is one chained checksum
extent, so ``extents_verified`` equals ``reads`` for every program, and
every byte read or written went through the CRC once."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.oocs.api import sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)

#: (N, buffer records, P) per program; g at its smallest feasible group
#: size.
SHAPES = {
    "threaded": (2**14, 1024, 2),
    "subblock": (2**17, 2048, 2),
    "m": (2**14, 512, 2),
    "hybrid": (2**14, 256, 4),
    "g": (2**14, 256, 4),
}


@pytest.mark.parametrize("algorithm,depth,backend", [
    *((name, depth, "thread") for name in SHAPES for depth in (0, 2)),
    ("threaded", 2, "process"),
])
def test_each_read_verifies_one_extent_and_every_byte(algorithm, depth, backend):
    n, buf, p = SHAPES[algorithm]
    records = generate("zipf", FMT, n, seed=3)
    res = sort_out_of_core(
        algorithm, records, ClusterConfig(p=p, mem_per_proc=2**12), FMT,
        buffer_records=buf, pipeline_depth=depth, backend=backend,
    )
    res.output.delete()
    io = res.io
    assert io["reads"] > 0
    assert io["extents_verified"] == io["reads"]
    assert io["bytes_hashed"] == io["bytes_read"] + io["bytes_written"]
    assert io["checksum_failures"] == 0


@pytest.mark.parametrize("algorithm", SHAPES)
def test_audit_reads_verify_every_byte(algorithm):
    """An audit's output samples start on a block boundary, so they read
    whole stored extents and verify every byte they read."""
    n, buf, p = SHAPES[algorithm]
    records = generate("zipf", FMT, n, seed=3)
    res = sort_out_of_core(
        algorithm, records, ClusterConfig(p=p, mem_per_proc=2**12), FMT,
        buffer_records=buf, audit=True,
    )
    res.output.delete()
    io = res.io
    assert res.durability["audited_passes"] == res.passes
    assert io["bytes_hashed"] == io["bytes_read"] + io["bytes_written"]
    assert io["checksum_failures"] == 0
