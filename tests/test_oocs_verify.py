"""The verification oracle catches every class of corruption."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.oocs.verify import verify_output, verify_permutation, verify_sorted
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 32)


@pytest.fixture
def data():
    recs = generate("uniform", FMT, 256, seed=1)
    return recs, FMT.sort(recs)


class TestSortedCheck:
    def test_accepts_sorted(self, data):
        _, out = data
        verify_sorted(out)

    def test_rejects_single_inversion(self, data):
        _, out = data
        bad = out.copy()
        bad[10], bad[11] = out[11], out[10]
        with pytest.raises(VerificationError, match="not sorted"):
            verify_sorted(bad)

    def test_accepts_ties(self):
        recs = FMT.make(np.zeros(10, dtype=np.uint64))
        verify_sorted(recs)

    def test_accepts_empty_and_singleton(self):
        verify_sorted(FMT.empty(0))
        verify_sorted(FMT.make(np.array([7])))


class TestPermutationCheck:
    def test_accepts_permutation(self, data):
        recs, out = data
        verify_permutation(out, recs)

    def test_rejects_lost_record(self, data):
        recs, out = data
        with pytest.raises(VerificationError, match="records"):
            verify_permutation(out[:-1], recs)

    def test_rejects_duplicated_record(self, data):
        recs, out = data
        bad = out.copy()
        bad[0] = bad[1]  # uid 0 lost, some uid duplicated
        with pytest.raises(VerificationError, match="permutation"):
            verify_permutation(bad, recs)

    def test_rejects_corrupted_key(self, data):
        recs, out = data
        bad = out.copy()
        bad["key"][5] = bad["key"][5] + 1 if bad["key"][5] < 2**63 else 0
        # Keep it sorted-looking by re-sorting; the uid→key binding breaks.
        bad = FMT.sort(bad)
        with pytest.raises(VerificationError, match="key changed"):
            verify_permutation(bad, recs)


class TestFullVerify:
    def test_returns_records(self, data):
        recs, out = data
        got = verify_output(out, recs)
        assert np.array_equal(got, out)

    def test_catches_unsorted_first(self, data):
        recs, _ = data
        with pytest.raises(VerificationError, match="not sorted"):
            verify_output(recs.copy(), recs)

    def test_works_on_pdm_store(self, tmp_path):
        from repro.cluster.config import ClusterConfig
        from repro.disks.matrixfile import PdmStore
        from repro.disks.virtual_disk import make_disk_array

        cfg = ClusterConfig(p=2, mem_per_proc=2**10)
        disks = make_disk_array(tmp_path, 2)
        recs = generate("uniform", FMT, 64, seed=2)
        out = FMT.sort(recs)
        pdm = PdmStore(cfg, FMT, 64, disks, block_records=8)
        for rank, pieces in pdm.split_by_owner(0, 64).items():
            for _d, _o, rel, n in pieces:
                pdm.write_pieces(rank, [(rel, out[rel : rel + n])])
        verify_output(pdm, recs)


FMT64 = RecordFormat("u8", 64)


def _pdm(tmp_path, records):
    """``records`` written as a 2-processor PDM output store."""
    from repro.cluster.config import ClusterConfig
    from repro.disks.matrixfile import PdmStore
    from repro.disks.virtual_disk import make_disk_array

    cfg = ClusterConfig(p=2, mem_per_proc=2**12)
    n = len(records)
    pdm = PdmStore(cfg, FMT64, n, make_disk_array(tmp_path, 2), block_records=1024)
    for rank, pieces in pdm.split_by_owner(0, n).items():
        pdm.write_pieces(rank, [(rel, records[rel : rel + k])
                                for _d, _o, rel, k in pieces])
    for disk in pdm.disks:
        disk.close_handles()
    return pdm


class TestStreamedStore:
    """A stored output is verified chunk by chunk (``PdmStore.chunks``);
    every failure class is still caught, seams between chunks included.
    The store spans more than three chunks and ends in a partial one."""

    N = 3 * 65536 + 4099

    @pytest.fixture(scope="class")
    def data(self):
        recs = generate("uniform", FMT64, self.N, seed=4)
        return recs, FMT64.sort(recs)

    @pytest.fixture(scope="class")
    def seams(self, data, tmp_path_factory):
        starts = [s for s, _ in _pdm(tmp_path_factory.mktemp("seams"),
                                     data[1]).chunks()]
        assert len(starts) >= 4
        return starts[1:]

    def test_accepts_a_sorted_permutation(self, tmp_path, data):
        recs, out = data
        assert verify_output(_pdm(tmp_path, out), recs) is None

    def test_inversion_across_a_chunk_seam(self, tmp_path, data, seams):
        recs, out = data
        bad, seam = out.copy(), seams[1]
        bad[seam - 1], bad[seam] = out[seam], out[seam - 1]
        with pytest.raises(VerificationError, match=f"key\\[{seam - 1}\\]"):
            verify_output(_pdm(tmp_path, bad), recs)

    def test_lost_record(self, tmp_path, data):
        recs, out = data
        with pytest.raises(VerificationError, match="records"):
            verify_output(_pdm(tmp_path, out[:-1]), recs)

    def test_duplicated_uid_across_a_seam(self, tmp_path, data, seams):
        """The record before a seam overwritten by the one after it:
        still sorted, keys intact, one uid twice and one uid lost."""
        recs, out = data
        bad, seam = out.copy(), seams[0]
        bad[seam - 1] = out[seam]
        with pytest.raises(
            VerificationError,
            match=f"not a permutation.*uid {out['uid'][seam - 1]} is missing",
        ):
            verify_output(_pdm(tmp_path, bad), recs)

    def test_uid_beyond_n(self, tmp_path, data):
        recs, out = data
        bad = out.copy()
        bad["uid"][self.N - 5] = self.N
        with pytest.raises(VerificationError, match=f"uid {self.N} ≥ N"):
            verify_output(_pdm(tmp_path, bad), recs)

    def test_corrupted_key(self, tmp_path, data, seams):
        recs, out = data
        bad = out.copy()
        at = seams[1] + 17
        bad["key"][at] = bad["key"][at - 1]  # still nondecreasing
        with pytest.raises(VerificationError, match=f"key changed.*key\\[{at}\\]"):
            verify_output(_pdm(tmp_path, bad), recs)

    @pytest.mark.parametrize("shift", ["offset", "duplicate"])
    def test_reference_uids_must_be_0_to_n(self, tmp_path, data, shift):
        recs, out = data
        ref = recs.copy()
        if shift == "offset":
            ref["uid"] += 1  # 1..N
        else:
            ref["uid"][1] = ref["uid"][0]
        with pytest.raises(
            VerificationError, match="reference uids are not a permutation of 0..N-1"
        ):
            verify_output(_pdm(tmp_path, out), ref)

    def test_memory_is_one_chunk_plus_9_bytes_per_record(self, tmp_path):
        """2^19 64-byte records (a 32 MiB output): the reference index
        is 4.5 MiB, a chunk 4 MiB; a whole read-back would be 32."""
        n = 1 << 19
        recs = generate("uniform", FMT64, n, seed=6)
        pdm = _pdm(tmp_path, FMT64.sort(recs))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            verify_output(pdm, recs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
