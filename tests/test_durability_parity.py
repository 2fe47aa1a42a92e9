"""XOR parity: maintenance, in-place repair, reconstruction, and the
single-disk-loss recovery property."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.disks.matrixfile import ColumnStore
from repro.disks.virtual_disk import VirtualDisk, make_disk_array
from repro.durability import attach_durability
from repro.durability.parity import ParityLayer
from repro.errors import ConfigError, CorruptionError, DiskError
from repro.records.format import RecordFormat
from repro.records.generators import generate
from repro.resilience import DiskQuarantine
from repro.resilience.retry import RetryPolicy


def kill_disk(disk: VirtualDisk) -> None:
    """Physically destroy a disk's primary data (the dot-dirs — parity,
    spare, checksum sidecars — live on 'other media' in this model) and
    declare it dead."""
    for path in disk.root.iterdir():
        if path.is_file():
            path.unlink()
    disk.quarantine.mark_dead(disk.disk_id)


@pytest.fixture
def array(tmp_path):
    disks = make_disk_array(tmp_path, 4)
    quarantine, layer = attach_durability(disks, parity=True)
    yield disks, quarantine, layer
    quarantine.release()


class TestLayerBasics:
    def test_needs_two_disks(self, tmp_path):
        disk = VirtualDisk(tmp_path / "d0", disk_id=0)
        with pytest.raises(ConfigError, match="at least 2 disks"):
            ParityLayer([disk], DiskQuarantine())

    def test_attach_is_idempotent(self, tmp_path):
        disks = make_disk_array(tmp_path, 2)
        q1, l1 = attach_durability(disks, parity=True)
        q2, l2 = attach_durability(disks, parity=True)
        assert q1 is q2 and l1 is l2
        q1.release()

    def test_parity_io_not_metered_as_data_io(self, array):
        disks, _, layer = array
        disks[0].write_at("obj", 0, b"x" * 64)
        snap = disks[0].stats.snapshot()
        assert (snap["writes"], snap["bytes_written"]) == (1, 64)
        assert layer.counters.snapshot()["parity_bytes_written"] >= 64

    def test_delete_folds_parity_rows_away(self, array):
        disks, _, layer = array
        disks[0].write_at("obj", 0, b"x" * 32)
        disks[0].delete("obj")
        assert layer.counters.snapshot()["folds"] == 1
        for disk in disks:
            pdir = disk.root / ".parity"
            assert not pdir.is_dir() or not list(pdir.iterdir())


class TestRepairInPlace:
    def test_corrupt_block_repaired_and_read_retried(self, array):
        disks, _, layer = array
        payload = bytes(range(256))
        disks[1].write_at("obj", 0, payload)
        victim = disks[1].root / "obj"
        blob = bytearray(victim.read_bytes())
        blob[7] ^= 0xFF
        victim.write_bytes(bytes(blob))
        disks[1].retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        assert disks[1].read_at("obj", 0, 256) == payload
        snap = disks[1].stats.snapshot()
        assert snap["checksum_failures"] == 1
        assert snap["read_retries"] == 1  # the post-repair re-read
        assert layer.counters.snapshot()["repaired_blocks"] == 1
        # the medium itself was healed, not just the returned bytes
        assert victim.read_bytes() == payload

    def test_double_loss_in_one_row_is_structural(self, tmp_path):
        # D=2 stripes every row as (member, parity): corrupt the member
        # AND its parity and the repair must fail structurally.
        disks = make_disk_array(tmp_path, 2)
        quarantine, layer = attach_durability(disks, parity=True)
        disks[0].write_at("obj", 0, b"a" * 16)
        (disks[0].root / "obj").write_bytes(b"b" * 16)
        parity_file = next((disks[1].root / ".parity").iterdir())
        parity_file.write_bytes(b"\0" * 8)  # torn parity: wrong length
        disks[0].retry_policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(DiskError, match="cannot reconstruct"):
            disks[0].read_at("obj", 0, 16)
        quarantine.release()

    def test_reconstruction_output_is_crc_verified(self, array):
        disks, quarantine, layer = array
        disks[2].write_at("obj", 0, b"q" * 32)
        # rot a *surviving* peer of the row after the fact: parity no
        # longer matches, so the rebuilt bytes must fail verification
        ext = layer._extents[(2, "obj")][0]
        parity = layer._parity_path(ext.row)
        blob = bytearray(parity.read_bytes())
        blob[0] ^= 0xFF
        parity.write_bytes(bytes(blob))
        kill_disk(disks[2])
        try:
            with pytest.raises(CorruptionError):
                disks[2].read_at("obj", 0, 32)
        finally:
            quarantine.release()


class TestDegradedMode:
    def test_dead_disk_reads_served_from_spare(self, array):
        disks, quarantine, layer = array
        payload = b"columnsort" * 10
        disks[3].write_at("obj", 0, payload)
        kill_disk(disks[3])
        assert disks[3].read_at("obj", 0, len(payload)) == payload
        assert layer.counters.snapshot()["reconstructed_blocks"] >= 1
        assert (disks[3].root / ".spare" / "obj").exists()
        quarantine.release()

    def test_dead_disk_writes_rerouted_to_spare(self, array):
        disks, quarantine, _ = array
        disks[3].write_at("obj", 0, b"a" * 16)
        kill_disk(disks[3])
        disks[3].write_at("obj", 16, b"b" * 16)
        assert disks[3].read_at("obj", 0, 32) == b"a" * 16 + b"b" * 16
        assert quarantine.snapshot()["spare_writes"] == 1
        quarantine.release()

    def test_degraded_fingerprint_matches_original(self, array):
        disks, quarantine, _ = array
        disks[0].write_at("obj", 0, b"stable bytes here")
        before = disks[0].fingerprint("obj")
        kill_disk(disks[0])
        assert disks[0].fingerprint("obj") == before
        quarantine.release()

    def test_dead_disk_without_parity_fails_fast(self, tmp_path):
        disks = make_disk_array(tmp_path, 2)
        quarantine, _ = attach_durability(disks, parity=False)
        disks[0].write_at("obj", 0, b"abcd")
        quarantine.mark_dead(0)
        with pytest.raises(DiskError, match="quarantined dead"):
            disks[0].read_at("obj", 0, 4)
        # fail-fast must be classified structural, never retried
        assert disks[0].stats.snapshot()["read_retries"] == 0
        quarantine.release()


class TestSingleDiskLossProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.sampled_from([1, 2]),
        d=st.sampled_from([2, 4]),
        r=st.sampled_from([8, 16, 32]),
        s=st.sampled_from([2, 4]),
        key=st.sampled_from(["u8", "i8", "f8"]),
        record_size=st.sampled_from([16, 32, 48]),
        victim_seed=st.integers(min_value=0, max_value=10**6),
        striped=st.booleans(),
    )
    def test_any_single_lost_disk_recovers_byte_identically(
        self, p, d, r, s, key, record_size, victim_seed, striped
    ):
        g = p if striped else 1  # whole columns, or each spanning the cluster
        fmt = RecordFormat(key, record_size)
        cluster = ClusterConfig(p=p, d=d, mem_per_proc=2**12)
        records = generate("uniform", fmt, r * s, seed=victim_seed)
        with tempfile.TemporaryDirectory(prefix="repro-parity-") as workdir:
            disks = make_disk_array(Path(workdir), cluster.virtual_disks)
            store = ColumnStore.from_records(
                cluster, fmt, records, r, s, disks, name="m", parity=True,
                group_size=g,
            )
            victim = disks[victim_seed % len(disks)]
            try:
                held = any(
                    store._disk_for(j, store.rank_of(j, m)) is victim
                    for j in range(s)
                    for m in range(g)
                )
                kill_disk(victim)
                assert store.to_records().tobytes() == records.tobytes()
                if held:
                    snap = victim.parity_layer.counters.snapshot()
                    assert snap["reconstructed_blocks"] >= 1
            finally:
                victim.quarantine.release()
