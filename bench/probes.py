"""Layer probes: each layer's public functions, timed from outside at the
workload's sizes (column = r records, segment = what one deal-pass
``write_at`` carries).

A probe runs 5 batches of at least ``MIN_BATCH_S`` of work and reports
the median batch. A probe whose symbol a later refactor removed reports
``None`` with the reason and never touches an end-to-end metric.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bench.protocol import Session, fresh_workdir, run_sort
from bench.trace import Tracer
from bench.workloads import P

BATCHES = 5
MIN_BATCH_S = 0.06
MB = 1e6


def per_call_s(fn, before_batch=None) -> float:
    """Median seconds per ``fn()`` over ``BATCHES`` batches, each sized to
    last ``MIN_BATCH_S``; ``before_batch()`` resets state untimed."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0  # also the warm-up call
    calls = max(1, math.ceil(MIN_BATCH_S / max(once, 1e-7)))
    batches = []
    for _ in range(BATCHES):
        if before_batch is not None:
            before_batch()
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return statistics.median(batches)


class FreshNames:
    """Object names for a write probe: every call writes a new object,
    and ``reset`` (untimed, between batches) deletes the ones made."""

    def __init__(self, delete) -> None:
        self._delete = delete
        self._made: list[str] = []
        self._count = 0

    def next(self) -> str:
        self._count += 1
        self._made.append(f"o{self._count}")
        return self._made[-1]

    def reset(self) -> None:
        for name in self._made:
            self._delete(name)
        self._made.clear()


class Probes:
    """The probes of one session; every public method named after its
    metric's last component returns that metric's value."""

    def __init__(self, session: Session) -> None:
        wl = session.workload
        self.session = session
        self.wl = wl
        self.fmt = session.fmt
        self.r = wl.column_records
        self.s = wl.columns
        self.column = np.ascontiguousarray(session.records[: self.r])
        self.col_bytes = self.column.nbytes
        self.segment = np.ascontiguousarray(
            session.records[: wl.segment_records]
        )
        self.root = session.scratch / "probes"
        self.root.mkdir()
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _dir(self) -> Path:
        self._n += 1
        path = self.root / f"d{self._n}"
        path.mkdir()
        return path

    # -- disks --------------------------------------------------------------

    def raw_write_mbps(self) -> float:
        root = self._dir()
        view = memoryview(self.column).cast("B")
        names = FreshNames(lambda name: (root / name).unlink())

        def write():
            with open(root / names.next(), "wb") as fh:
                fh.write(view)

        return self.col_bytes / per_call_s(write, names.reset) / MB

    def raw_read_mbps(self) -> float:
        path = self._dir() / "c"
        path.write_bytes(memoryview(self.column).cast("B"))
        out = memoryview(np.empty_like(self.column)).cast("B")

        def read():
            with open(path, "rb") as fh:
                if fh.readinto(out) != self.col_bytes:
                    raise OSError(f"short read of {path}")

        return self.col_bytes / per_call_s(read) / MB

    def _disk(self):
        from repro.disks.virtual_disk import VirtualDisk

        return VirtualDisk(self._dir())

    def write_col_mbps(self) -> float:
        disk = self._disk()
        view = memoryview(self.column).cast("B")
        names = FreshNames(disk.delete)
        return self.col_bytes / per_call_s(
            lambda: disk.write_at(names.next(), 0, view), names.reset
        ) / MB

    def read_col_mbps(self) -> float:
        disk = self._disk()
        disk.write_at("c", 0, memoryview(self.column).cast("B"))
        out = np.empty_like(self.column)

        def read():
            disk.read_at("c", 0, self.col_bytes, out=out)

        return self.col_bytes / per_call_s(read) / MB

    def write_seg_us(self) -> float:
        """One call = one object filled with the deal pass's extents."""
        disk = self._disk()
        return self._fill_objects_us(disk.write_at, disk.delete)

    def _fill_objects_us(self, put, delete) -> float:
        """Per-call µs of ``put(name, offset, segment)`` when one call of
        the batch fills one object with the deal pass's extents."""
        view = memoryview(self.segment).cast("B")
        extents = self.wl.segment_extents
        names = FreshNames(delete)

        def fill_object():
            name = names.next()
            for k in range(extents):
                put(name, k * view.nbytes, view)

        return per_call_s(fill_object, names.reset) / extents * 1e6

    # -- durability ---------------------------------------------------------

    def crc_mbps(self) -> float:
        from repro.durability.hashing import block_checksum

        view = memoryview(self.column).cast("B")
        return self.col_bytes / per_call_s(lambda: block_checksum(view)) / MB

    def checksum_record_us(self) -> float:
        from repro.durability.checksums import BlockChecksums

        catalog = BlockChecksums(self._dir())
        return self._fill_objects_us(catalog.record, catalog.drop)

    # -- membuf / pipeline --------------------------------------------------

    def lease_recycle_us(self) -> float:
        from repro.membuf import get_pool

        pool, dtype, rows = get_pool(), self.fmt.dtype, self.wl.buffer_records
        return per_call_s(lambda: pool.recycle(pool.lease(dtype, rows))) * 1e6

    def readahead_item_us(self) -> float:
        from repro.pipeline import PipelinePlan, ReadAhead

        plan, items = PipelinePlan(depth=self.wl.depth), 256
        tasks = [lambda: None] * items

        def run():
            with ReadAhead(tasks, plan) as reader:
                for _ in range(items):
                    reader.get()

        return per_call_s(run) / items * 1e6

    def writebehind_item_us(self) -> float:
        from repro.pipeline import PipelinePlan, WriteBehind

        plan, items = PipelinePlan(depth=self.wl.depth), 256

        def run():
            with WriteBehind(plan) as writer:
                for _ in range(items):
                    writer.put(lambda: None)

        return per_call_s(run) / items * 1e6

    # -- cluster ------------------------------------------------------------

    def launch_s(self) -> float:
        from repro.cluster import run_spmd

        backend = self.wl.backend
        return per_call_s(lambda: run_spmd(P, _noop, backend=backend))

    def _in_ranks(self, program, *args) -> float:
        """Median of the batch times rank 0 measured inside one launch."""
        from repro.cluster import run_spmd

        res = run_spmd(P, program, *args, backend=self.wl.backend)
        return statistics.median(res.returns[0])

    def alltoallv_mbps(self) -> float:
        part = np.ascontiguousarray(self.session.records[: self.r // P])
        per_round = P * P * part.nbytes  # every rank sends P parts
        return per_round / self._in_ranks(_alltoallv_rounds, part) / MB

    def dist_sort_mrps(self) -> float:
        rows = self.wl.buffer_records
        locals_ = [self.session.records[q * rows : (q + 1) * rows] for q in range(P)]
        return P * rows / self._in_ranks(_dist_sort_rounds, locals_, self.fmt) / 1e6

    # -- records / oocs kernels / matrix ------------------------------------

    def sort_mrps(self) -> float:
        fmt, column = self.fmt, self.column
        return self.r / per_call_s(lambda: fmt.sort(column)) / 1e6

    def merge_mrps(self) -> float:
        from repro.oocs.runs import merge_sorted_runs, predict_runs

        _count, run_length = predict_runs("after-deal", self.r, self.s)
        runs = self.column.copy().reshape(-1, run_length)
        runs = np.take_along_axis(
            runs, np.argsort(runs["key"], axis=1, kind="stable"), axis=1
        ).reshape(-1)
        return self.r / per_call_s(
            lambda: merge_sorted_runs(runs, run_length)
        ) / 1e6

    def perm_target_mrps(self) -> float:
        from repro.matrix import permutations

        target = (
            permutations.subblock_target_bitwise
            if self.wl.algorithm == "subblock"
            else permutations.step2_target
        )
        i, r, s = np.arange(self.r), self.r, self.s
        return self.r / per_call_s(lambda: target(i, 1, r, s)) / 1e6

    def tiny_sort_s(self) -> float:
        """Not batched: one call is a whole (tiny) run."""
        from repro import ClusterConfig

        wl = self.wl.reduced()
        tiny = replace(
            self.session,
            workload=wl,
            records=np.ascontiguousarray(self.session.records[: wl.n]),
            cluster=ClusterConfig(p=P, mem_per_proc=wl.mem_per_proc),
            scratch=self.root,
        )
        walls = []
        for _ in range(BATCHES + 1):
            workdir = fresh_workdir(tiny)
            t0 = time.perf_counter()
            run_sort(tiny, workdir)
            walls.append(time.perf_counter() - t0)
            shutil.rmtree(workdir)
        return statistics.median(walls[1:])  # the first call warms up


def _noop(comm) -> None:
    return None


def _timed_rounds(comm, one_round) -> list[float]:
    """Inside a rank: size a batch on rank 0, then time ``BATCHES``
    batches between barriers (all ranks run the same count)."""
    comm.barrier()
    t0 = time.perf_counter()
    one_round()
    comm.barrier()
    once = time.perf_counter() - t0
    rounds = comm.bcast(max(1, math.ceil(MIN_BATCH_S / max(once, 1e-7))))
    batches = []
    for _ in range(BATCHES):
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(rounds):
            one_round()
        comm.barrier()
        batches.append((time.perf_counter() - t0) / rounds)
    return batches


def _alltoallv_rounds(comm, part) -> list[float]:
    parts = [part] * comm.size
    return _timed_rounds(comm, lambda: comm.alltoallv(parts))


def _dist_sort_rounds(comm, locals_, fmt) -> list[float]:
    from repro.oocs.incore.columnsort_dist import distributed_columnsort

    local = locals_[comm.rank]
    return _timed_rounds(
        comm, lambda: distributed_columnsort(comm, local, fmt)
    )


#: metric name -> Probes method
PROBES = {
    "disks.raw_write_mbps": Probes.raw_write_mbps,
    "disks.raw_read_mbps": Probes.raw_read_mbps,
    "disks.write_col_mbps": Probes.write_col_mbps,
    "disks.read_col_mbps": Probes.read_col_mbps,
    "disks.write_seg_us": Probes.write_seg_us,
    "durability.crc_mbps": Probes.crc_mbps,
    "durability.checksum_record_us": Probes.checksum_record_us,
    "membuf.lease_recycle_us": Probes.lease_recycle_us,
    "pipeline.readahead_item_us": Probes.readahead_item_us,
    "pipeline.writebehind_item_us": Probes.writebehind_item_us,
    "cluster.launch_s": Probes.launch_s,
    "cluster.alltoallv_mbps": Probes.alltoallv_mbps,
    "records.sort_mrps": Probes.sort_mrps,
    "oocs.incore.dist_sort_mrps": Probes.dist_sort_mrps,
    "oocs.runs.merge_mrps": Probes.merge_mrps,
    "matrix.perm_target_mrps": Probes.perm_target_mrps,
    "oocs.tiny_sort_s": Probes.tiny_sort_s,
}


def run_probes(session: Session, tracer: Tracer) -> tuple[dict, dict]:
    """Run every probe; returns (values, reasons) where a probe whose
    symbol is gone has value ``None`` and a reason."""
    probes = Probes(session)
    values: dict = {}
    reasons: dict = {}
    try:
        for name, method in PROBES.items():
            with tracer.span(f"probe.{name}"):
                try:
                    values[name] = float(method(probes))
                except (ImportError, AttributeError, TypeError) as exc:
                    values[name] = None
                    reasons[name] = repr(exc)
    finally:
        probes.close()
    return values, reasons
