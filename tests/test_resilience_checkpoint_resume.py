"""Pass-boundary checkpointing: kill a run after every boundary, resume,
and get byte-identical output.

The kill is simulated at the exact pass boundary: rank 0 persists the
manifest for pass ``k`` and then dies, which is the worst honest crash
point (the checkpoint exists but nothing after it ran). The conftest
lease-leak hook independently asserts every killed run returned its
buffer-pool leases.
"""

import json

import numpy as np
import pytest

from repro.cluster import available_backends
from repro.cluster.config import ClusterConfig
from repro.errors import CheckpointError, ConfigError, SpmdError
from repro.oocs.api import run_baseline_io, sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import CheckpointStore

FMT = RecordFormat("u8", 16)

#: algorithm → (p, buffer_records, s, total passes, g: r = g·buffer)
CONFIGS = {
    "threaded": (2, 128, 4, 3, 1),
    "subblock": (2, 128, 4, 4, 1),
    "m": (2, 64, 4, 3, 2),
    "hybrid": (2, 64, 4, 4, 2),
    "g": (4, 512, 8, 3, 2),
}


class SimulatedKill(RuntimeError):
    """Stands in for SIGKILL right after a manifest hits disk."""


def records_for(algorithm):
    _, buf, s, _, g = CONFIGS[algorithm]
    return generate("uniform", FMT, g * buf * s, seed=7)


def run_sort(algorithm, recs, depth, workdir=None, **kwargs):
    p, buf, _, _, g = CONFIGS[algorithm]
    if algorithm == "g":
        kwargs["group_size"] = g
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    return sort_out_of_core(
        algorithm, recs, cluster, FMT, buffer_records=buf,
        pipeline_depth=depth, workdir=workdir, **kwargs,
    )


#: both entry points that take ``resume=``, on the threaded shape
RESUMABLE = (
    lambda recs, **kw: run_sort("threaded", recs, 0, **kw),
    lambda recs, **kw: run_baseline_io(
        recs, ClusterConfig(p=2, mem_per_proc=2**10), FMT, buffer_records=128,
        **kw,
    ),
)


def kill_after_pass(kill_at):
    """A ``CheckpointStore.save_pass`` that dies right after persisting
    the manifest for pass ``kill_at``."""
    real = CheckpointStore.save_pass

    def killing(self, job, algorithm, pass_index, total, store):
        manifest = real(self, job, algorithm, pass_index, total, store)
        if pass_index == kill_at:
            raise SimulatedKill(f"killed after pass {pass_index} manifest")
        return manifest

    return killing


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
class TestKillAndResume:
    """Kill/resume honesty must hold on every transport backend: the
    ``save_pass`` monkeypatch is fork-inherited by worker processes, and
    ``SimulatedKill`` (a one-arg RuntimeError) pickles across the result
    pipe with its type intact."""

    def test_resume_is_byte_identical_at_every_boundary(
        self, algorithm, depth, backend, tmp_path
    ):
        recs = records_for(algorithm)
        baseline = run_sort(algorithm, recs, depth, backend=backend)
        expected = baseline.output_records().tobytes()
        total = CONFIGS[algorithm][3]

        for kill_at in range(1, total + 1):
            workdir = tmp_path / f"w{kill_at}"
            ckdir = tmp_path / f"ck{kill_at}"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(CheckpointStore, "save_pass", kill_after_pass(kill_at))
                with pytest.raises(SpmdError) as err:
                    run_sort(
                        algorithm, recs, depth, backend=backend,
                        workdir=workdir, checkpoint_dir=ckdir,
                    )
            assert isinstance(err.value.cause, SimulatedKill)
            # exactly the manifests for passes 1..kill_at survived the kill
            assert len(sorted(ckdir.glob("pass_*.json"))) == kill_at

            resumed = run_sort(
                algorithm, recs, depth, backend=backend,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )
            assert resumed.output_records().tobytes() == expected, (
                f"{algorithm} depth={depth}: resume after pass {kill_at} "
                f"diverged from the uninterrupted run"
            )
            # the resume really skipped the completed passes
            assert resumed.io["reads"] < baseline.io["reads"]
            # a finished run's checkpoints are garbage
            assert list(ckdir.glob("pass_*.json")) == []

    def test_scratch_of_checkpointed_pass_survives_the_kill(
        self, algorithm, depth, backend, tmp_path
    ):
        """Failure cleanup must keep the store the manifest points at —
        deleting it would make every resume a digest mismatch."""
        recs = records_for(algorithm)
        workdir = tmp_path / "w"
        ckdir = tmp_path / "ck"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CheckpointStore, "save_pass", kill_after_pass(1))
            with pytest.raises(SpmdError):
                run_sort(
                    algorithm, recs, depth, backend=backend,
                    workdir=workdir, checkpoint_dir=ckdir,
                )
        manifest = json.loads(next(iter(ckdir.glob("pass_*.json"))).read_text())
        kept = [
            path
            for path in workdir.rglob("*")
            if path.is_file() and path.name.startswith(manifest["store"] + ".")
        ]
        assert kept, f"scratch files of {manifest['store']!r} were deleted"


class TestResumeValidation:
    def make_killed_run(self, tmp_path, algorithm="threaded"):
        recs = records_for(algorithm)
        workdir = tmp_path / "w"
        ckdir = tmp_path / "ck"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CheckpointStore, "save_pass", kill_after_pass(1))
            with pytest.raises(SpmdError):
                run_sort(algorithm, recs, 0, workdir=workdir, checkpoint_dir=ckdir)
        return recs, workdir, ckdir

    def test_empty_manifest_rejected(self, tmp_path):
        """A crash between open and fsync can leave a zero-byte
        manifest; resume must refuse it with a message naming the file
        rather than crash on a JSON parse."""
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        victim = next(iter(sorted(ckdir.glob("pass_*.json"))))
        victim.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_torn_manifest_rejected(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        victim = next(iter(sorted(ckdir.glob("pass_*.json"))))
        victim.write_text(victim.read_text()[:10])
        with pytest.raises(CheckpointError, match="truncated or torn"):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_algorithm_mismatch_rejected(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        with pytest.raises(CheckpointError, match="algorithm"):
            run_sort(
                "subblock", recs, 0,
                workdir=tmp_path / "w2", checkpoint_dir=ckdir, resume=True,
            )

    def test_job_shape_mismatch_rejected(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        with pytest.raises(CheckpointError, match="buffer_records"):
            sort_out_of_core(
                "threaded", recs, cluster, FMT, buffer_records=256,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    @staticmethod
    def tamper_scratch(workdir, ckdir):
        """Flip one byte of the checkpointed store's first data file
        (skipping the ``.meta`` checksum sidecars); returns the file."""
        manifest = json.loads(next(iter(ckdir.glob("pass_*.json"))).read_text())
        victim = next(
            path
            for path in sorted(workdir.rglob("*"))
            if path.is_file()
            and ".meta" not in path.parts
            and path.name.startswith(manifest["store"] + ".")
        )
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        return victim

    def test_tampered_scratch_rejected_by_block_checksum(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        victim = self.tamper_scratch(workdir, ckdir)
        with pytest.raises(
            CheckpointError, match=rf"checksum failure in '{victim.name}'"
        ):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_tampered_scratch_rejected_by_digest(self, tmp_path):
        # With the checksum sidecars gone the CRC audit has nothing to
        # check, so the tamper must still be caught by the store digest.
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        self.tamper_scratch(workdir, ckdir)
        for sidecar in workdir.rglob(".meta/*.json"):
            sidecar.unlink()
        with pytest.raises(CheckpointError, match="digest"):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_torn_manifest_rejected(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        next(iter(ckdir.glob("pass_*.json"))).write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_version_mismatch_rejected(self, tmp_path):
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        path = next(iter(ckdir.glob("pass_*.json")))
        manifest = json.loads(path.read_text())
        manifest["version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            run_sort(
                "threaded", recs, 0,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )

    def test_version_1_checkpoint_refused(self, tmp_path):
        """A checkpoint from before the one column store names whole-column
        files (``thr-t1.colNNNNNN``) that no run writes any more: the
        version check must refuse it, not resume into missing files."""
        recs = records_for("threaded")
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        (ckdir / "pass_0001.json").write_text(json.dumps({
            "version": 1, "algorithm": "threaded", "pass_index": 1,
            "total_passes": 3, "n": len(recs), "r": 128, "s": 4,
            "buffer_records": 128, "record_size": 16, "key": "u8",
            "store": "thr-t1", "store_kind": "ColumnStore", "digest": "0" * 64,
        }))
        with pytest.raises(CheckpointError, match="version 1, expected 2"):
            run_sort(
                "threaded", recs, 0,
                workdir=tmp_path / "w", checkpoint_dir=ckdir, resume=True,
            )

    def test_manifest_records_the_layout(self, tmp_path):
        """Column stores record ``(r, s, g)``; the PDM output has none."""
        recs = records_for("m")
        ckdir = tmp_path / "ck"
        run_sort(
            "m", recs, 0, workdir=tmp_path / "w", checkpoint_dir=ckdir,
            keep_checkpoints=True,
        )
        layouts = [(m["r"], m["s"], m["g"]) for m in CheckpointStore(ckdir).manifests()]
        assert layouts == [(128, 4, 2), (128, 4, 2), (None, None, None)]

    def test_resume_needs_workdir(self, tmp_path):
        recs = records_for("threaded")
        for run in RESUMABLE:
            with pytest.raises(ConfigError, match="workdir"):
                run(recs, checkpoint_dir=tmp_path / "ck", resume=True)

    def test_resume_needs_checkpoint_dir(self, tmp_path):
        recs = records_for("threaded")
        for run in RESUMABLE:
            with pytest.raises(ConfigError, match="checkpoint_dir"):
                run(recs, workdir=tmp_path / "w", resume=True)

    def test_resume_from_empty_checkpoint_dir_runs_fresh(self, tmp_path):
        recs = records_for("threaded")
        res = run_sort(
            "threaded", recs, 0,
            workdir=tmp_path / "w", checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert np.array_equal(
            res.output_records()["key"], np.sort(recs["key"], kind="stable")
        )

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        """Without resume=True, a leftover checkpoint directory must not
        poison the new run — it is cleared up front."""
        recs, workdir, ckdir = self.make_killed_run(tmp_path)
        assert list(ckdir.glob("pass_*.json"))
        res = run_sort(
            "threaded", recs, 0, workdir=tmp_path / "w3", checkpoint_dir=ckdir,
        )
        assert np.array_equal(
            res.output_records()["key"], np.sort(recs["key"], kind="stable")
        )
        assert list(ckdir.glob("pass_*.json")) == []


class TestCheckpointLifecycle:
    """A successful run retires its checkpoint directory; failures (and
    ``keep_checkpoints=True``) preserve it."""

    def test_clear_removes_tmp_leftovers(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save({"version": 1, "pass_index": 1})
        (store.root / "pass_0002.json.tmp").write_text("torn half-write")
        store.clear()
        assert list(store.root.glob("pass_*")) == []
        assert store.root.exists()

    def test_prune_removes_the_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save({"version": 1, "pass_index": 1})
        store.save({"version": 1, "pass_index": 2})
        store.prune()
        assert not store.root.exists()

    def test_prune_spares_a_directory_with_foreign_files(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save({"version": 1, "pass_index": 1})
        foreign = store.root / "notes.txt"
        foreign.write_text("mine")
        store.prune()
        assert store.root.exists() and foreign.exists()
        assert list(store.root.glob("pass_*.json")) == []

    def test_successful_run_prunes_checkpoint_dir(self, tmp_path):
        recs = records_for("threaded")
        ckdir = tmp_path / "ck"
        run_sort(
            "threaded", recs, 0, workdir=tmp_path / "w", checkpoint_dir=ckdir,
        )
        assert not ckdir.exists()

    def test_keep_checkpoints_preserves_manifests(self, tmp_path):
        recs = records_for("threaded")
        ckdir = tmp_path / "ck"
        run_sort(
            "threaded", recs, 0, workdir=tmp_path / "w",
            checkpoint_dir=ckdir, keep_checkpoints=True,
        )
        manifests = sorted(p.name for p in ckdir.glob("pass_*.json"))
        assert manifests  # every completed pass left its manifest
        data = json.loads((ckdir / manifests[-1]).read_text())
        assert data["algorithm"] == "threaded"
