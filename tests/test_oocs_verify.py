"""The verification oracle catches every class of corruption."""

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
