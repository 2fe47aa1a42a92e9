"""One scratch lifecycle: every intermediate store is deleted at the
pass boundary after its last reader, so a run keeps at most three times
its input on disk (the paper's disk budget, footnote 7) and a full disk
fails the run at once, naming the disk."""

import re

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import DiskFullError, SpmdError
from repro.oocs.api import ALGORITHMS, sort_out_of_core
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.oocs.baseline_io import baseline_program
from repro.oocs.verify import verify_output
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import FaultPlan, FaultSpec

FMT = RecordFormat("u8", 16)

#: (N, buffer records, P) per program; g at its smallest feasible group
#: size.
SHAPES = {
    "threaded": (2**14, 1024, 2),
    "subblock": (2**17, 2048, 2),
    "m": (2**14, 512, 2),
    "hybrid": (2**14, 256, 4),
    "g": (2**14, 256, 4),
}

PROGRAMS = {
    **ALGORITHMS,
    "baseline-io-3": baseline_program(3),
    "baseline-io-4": baseline_program(4),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_intermediate_dies_once_right_after_its_last_reader(name):
    program = PROGRAMS[name]
    passes = program.passes
    schedule = program.deletions()
    scheduled = [key for keys in schedule.values() for key in keys]
    intermediates = {spec.dst for spec in passes} - {"output"}
    assert sorted(scheduled) == sorted(intermediates)
    assert "input" not in scheduled and "output" not in scheduled
    for index, keys in schedule.items():
        for key in keys:
            readers = [i for i, spec in enumerate(passes, start=1) if spec.src == key]
            writer = next(i for i, spec in enumerate(passes, start=1) if spec.dst == key)
            assert index == max(readers)
            # The pass after the writer resumes from it: it lives
            # through that pass's boundary.
            assert index > writer


@pytest.mark.parametrize("algorithm,depth,backend", [
    *((name, depth, "thread") for name in SHAPES for depth in (0, 2)),
    ("threaded", 2, "process"),
    ("subblock", 2, "process"),
])
def test_each_disk_capped_at_three_times_its_input(
    algorithm, depth, backend, tmp_path
):
    n, buf, p = SHAPES[algorithm]
    program = ALGORITHMS[algorithm]
    records = generate("zipf", FMT, n, seed=3)
    job = OocJob(
        cluster=ClusterConfig(p=p, mem_per_proc=2**12), fmt=FMT, n=n,
        buffer_records=buf, pipeline_depth=depth, backend=backend,
    )
    r, s, g = program.layout(job)
    ws = make_workspace(job.cluster, FMT, records, r, s, tmp_path, group_size=g)
    for disk in ws.disks:
        disk.capacity_bytes = 3 * sum(disk.size(name) for name in disk.files())
    res = run_pass_program(program, job, ws.input)
    verify_output(res.output, records)
    assert res.io["write_retries"] == 0
    left = {name.split(".")[0] for disk in ws.disks for name in disk.files()}
    assert left == {"input", "output"}  # the last boundary deleted the rest


@pytest.mark.parametrize("depth", [0, 2])
def test_disk_full_in_the_last_pass_fails_naming_the_disk(depth):
    """ENOSPC in the last pass, when every earlier intermediate but the
    last pass's source is already gone: nothing is retried, and the run
    fails naming the disk."""
    records = generate("uniform", FMT, 512, seed=7)
    kwargs = dict(
        cluster=ClusterConfig(p=2, mem_per_proc=2**10), fmt=FMT,
        buffer_records=128, pipeline_depth=depth,
    )
    clean = sort_out_of_core("threaded", records, **kwargs)
    writes_per_pass = [io["writes"] for io in clean.io_per_pass]
    clean.output.delete()

    nth = sum(writes_per_pass[:-1]) + max(2, writes_per_pass[-1] // 2)
    plan = FaultPlan(
        [FaultSpec(op="write", kind="disk_full", nth=nth, count=1,
                   transient=False)]
    )
    with pytest.raises(SpmdError) as err:
        sort_out_of_core("threaded", records, fault_plan=plan, **kwargs)
    assert isinstance(err.value.cause, DiskFullError)
    assert re.search(r"on disk \d+", str(err.value.cause))
