"""The columnsort grid: any (group size, relaxed) point is a program.

The named programs are five points of :mod:`repro.oocs.grid`; these
tests run the points between them — above all subblock columnsort at an
intermediate height interpretation, whose subblock pass at
``1 < g < P`` no named program reaches.
"""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.oocs.base import OocJob, make_workspace, run_pass_program
from repro.oocs.grid import columnsort_program
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 64)


def _sort(p, n, buffer, g, relaxed, backend, depth=2):
    cluster = ClusterConfig(p=p, mem_per_proc=2**12)
    recs = generate("uniform", FMT, n, seed=11)
    job = OocJob(
        cluster=cluster, fmt=FMT, n=n, buffer_records=buffer,
        pipeline_depth=depth, backend=backend, group_size=g,
    )
    program = columnsort_program(f"grid(g={g})", "grid", g, relaxed)
    r, s, g_store = program.layout(job)
    assert g_store == g
    ws = make_workspace(cluster, FMT, recs, r, s, group_size=g)
    res = run_pass_program(program, job, ws.input)
    got = res.output.read_global(0, n).tobytes()
    assert got == recs[np.argsort(recs["key"], kind="stable")].tobytes()
    nbytes = res.passes * n * FMT.record_size
    assert res.io["bytes_read"] == res.io["bytes_written"] == nbytes
    return res, (r, s)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("g", [1, 2, 4])
def test_relaxed_sorts_at_every_group_size(backend, g):
    # r = 1024, s = 16 at every g: the relaxed restriction with room.
    res, shape = _sort(4, 16384, 1024 // g, g, True, backend)
    assert shape == (1024, 16)
    assert res.passes == 4


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_relaxed_at_equality(backend):
    # s = 64, r = 2048 = 4·s^(3/2): the relaxed restriction's boundary.
    _, shape = _sort(4, 131072, 1024, 2, True, backend)
    assert shape == (2048, 64)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_subblock_pass_crosses_groups(backend):
    # P = 8, g = 2: four groups and √s = 2, so a column's row classes
    # land in two groups — the subblock pass's network path.
    res, shape = _sort(8, 512, 64, 2, True, backend, depth=0)
    assert shape == (128, 4)
    assert res.comm_per_pass[1]["network_bytes"] > 0


@pytest.mark.parametrize("g", [2, 4])
def test_basic_sorts_between_the_ends(g):
    _, shape = _sort(8, 8192, 2048 // g, g, False, "thread")
    assert shape == (2048, 4)
