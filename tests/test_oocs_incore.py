"""Distributed in-core sorts: the M-columnsort sort stage and its §4
competitors."""

import numpy as np
import pytest

from repro.cluster.spmd import run_spmd
from repro.errors import ConfigError, DimensionError, SpmdError
from repro.membuf import LeaseScope, copy_stats, get_pool
from repro.oocs.incore.bitonic import bitonic_exchange_count, distributed_bitonic_sort
from repro.oocs.incore.columnsort_dist import ColumnsortPlan, distributed_columnsort
from repro.oocs.incore.common import balanced_ranges, validate_ranges
from repro.oocs.incore.radix import distributed_radix_sort, sortable_uint_keys
from repro.oocs.incore.sample import distributed_sample_sort
from repro.records.format import RecordFormat
from repro.records.generators import WORKLOADS, generate

FMT = RecordFormat("u8", 32)

SORTS = {
    "columnsort": distributed_columnsort,
    "bitonic": distributed_bitonic_sort,
    "radix": distributed_radix_sort,
    "sample": distributed_sample_sort,
}


def sort_distributed(fn, recs, p, fmt=FMT, **kw):
    n_local = len(recs) // p

    def prog(comm):
        local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
        return fn(comm, local, fmt, **kw)

    return np.concatenate(run_spmd(p, prog).returns)


class TestAllSorts:
    @pytest.mark.parametrize("name", sorted(SORTS))
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_sorts_uniform(self, name, p):
        recs = generate("uniform", FMT, p * max(2 * p * p, 64), seed=1)
        got = sort_distributed(SORTS[name], recs, p)
        expected = FMT.sort(recs)
        assert np.array_equal(got["key"], expected["key"])
        assert np.array_equal(np.sort(got["uid"]), np.sort(recs["uid"]))

    @pytest.mark.parametrize("name", sorted(SORTS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_sorts_every_workload(self, name, workload):
        p = 4
        recs = generate(workload, FMT, p * 64, seed=2)
        got = sort_distributed(SORTS[name], recs, p)
        assert np.array_equal(got["key"], np.sort(recs["key"]))

    @pytest.mark.parametrize("name", sorted(SORTS))
    @pytest.mark.parametrize("key", ["u8", "i8", "f8"])
    def test_key_dtypes_with_negatives(self, name, key):
        fmt = RecordFormat(key, 32)
        p = 4
        recs = generate("gaussian", fmt, p * 64, seed=3)
        got = sort_distributed(SORTS[name], recs, p, fmt=fmt)
        assert np.array_equal(got["key"], np.sort(recs["key"]))

    @pytest.mark.parametrize("name", sorted(SORTS))
    def test_single_rank(self, name):
        if name == "columnsort":
            recs = generate("uniform", FMT, 64, seed=4)
            got = sort_distributed(SORTS[name], recs, 1)
            assert np.array_equal(got["key"], np.sort(recs["key"]))

    @pytest.mark.parametrize("name", sorted(SORTS))
    def test_unequal_lengths_rejected(self, name):
        def prog(comm):
            local = FMT.make(np.arange(comm.rank + 4, dtype=np.uint64))
            return SORTS[name](comm, local, FMT)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=5)
        assert isinstance(exc_info.value.cause, ConfigError)


class TestTargetRanges:
    def test_piecewise_delivery(self):
        p, n_local = 4, 64
        recs = generate("uniform", FMT, p * n_local, seed=5)
        expected = FMT.sort(recs)
        # Interleaved 16-record pieces: rank q gets piece q of each 64-chunk.
        ranges = [
            [(m * 64 + q * 16, m * 64 + (q + 1) * 16) for m in range(4)]
            for q in range(p)
        ]
        def prog(comm):
            local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
            return distributed_columnsort(comm, local, FMT, target_ranges=ranges)

        res = run_spmd(p, prog)
        for q, arr in enumerate(res.returns):
            want = np.concatenate(
                [expected[m * 64 + q * 16 : m * 64 + (q + 1) * 16] for m in range(4)]
            )
            assert np.array_equal(arr["key"], want["key"])

    def test_empty_share_allowed(self):
        p, n_local = 2, 32
        recs = generate("uniform", FMT, p * n_local, seed=6)
        ranges = [[(0, 64)], []]

        def prog(comm):
            local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
            return distributed_columnsort(comm, local, FMT, target_ranges=ranges)

        res = run_spmd(p, prog)
        assert len(res.returns[0]) == 64
        assert len(res.returns[1]) == 0

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError, match="tile"):
            validate_ranges([[(0, 10)], [(12, 20)]], 20, 2)  # gap
        with pytest.raises(ConfigError, match="tile"):
            validate_ranges([[(0, 12)], [(10, 20)]], 20, 2)  # overlap
        with pytest.raises(ConfigError):
            validate_ranges([[(0, 20)]], 20, 2)  # wrong rank count

    def test_balanced_ranges(self):
        assert balanced_ranges(12, 3) == [[(0, 4)], [(4, 8)], [(8, 12)]]
        with pytest.raises(ConfigError):
            balanced_ranges(10, 3)


def m_pass2_ranges(p, rr, s):
    """M-columnsort's pass-2 delivery: rank q gets the q-th 1/P slice of
    each of the s chunks of the sorted column."""
    chunk = p * rr // s
    piece = chunk // p
    return [
        [(m * chunk + q * piece, m * chunk + (q + 1) * piece) for m in range(s)]
        for q in range(p)
    ]


#: name -> (P, group size, r', target_ranges or None for balanced)
PLAN_CASES = {
    "balanced": (4, 4, 64, None),
    "m-pass2-scattered": (4, 4, 64, m_pass2_ranges(4, 64, 8)),
    "empty-share": (2, 2, 32, [[(0, 64)], []]),
    "unordered-slices": (2, 2, 32, [[(40, 64), (0, 8)], [(8, 40)]]),
    "single-rank": (1, 1, 64, [[(0, 16), (16, 64)]]),
    "subcomm-g2-on-p4": (4, 2, 32, m_pass2_ranges(2, 32, 4)),
}


class TestColumnsortPlan:
    ROUNDS = 3

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_reused_plan_matches_one_shot_and_reference(self, case, backend):
        """One plan over three rounds returns what three one-shot calls
        return — the ``fmt.sort`` slices of ``target_ranges`` — and a
        round costs three alltoallv and at most one send per rank."""
        p, g, rr, ranges = PLAN_CASES[case]
        rounds = [
            generate("zipf", FMT, p * rr, seed=40 + t) for t in range(self.ROUNDS)
        ]

        def prog(comm):
            gcomm = comm.split(color=comm.rank // g, key=comm.rank % g)
            mine = slice(comm.rank * rr, (comm.rank + 1) * rr)
            plan = ColumnsortPlan(gcomm, rr, ranges)
            planned, ops = [], []
            for recs in rounds:
                before = comm.stats.snapshot()["by_op"]
                planned.append(plan.sort(recs[mine], FMT))
                after = comm.stats.snapshot()["by_op"]
                ops.append({op: n - before.get(op, 0) for op, n in after.items()})
            one_shot = [
                distributed_columnsort(gcomm, recs[mine], FMT, target_ranges=ranges)
                for recs in rounds
            ]
            return planned, one_shot, ops

        res = run_spmd(p, prog, backend=backend)
        want_ranges = ranges if ranges is not None else balanced_ranges(g * rr, g)
        for rank, (planned, one_shot, ops) in enumerate(res.returns):
            group, member = divmod(rank, g)
            for t, recs in enumerate(rounds):
                column = FMT.sort(recs[group * g * rr : (group + 1) * g * rr])
                want = np.concatenate(
                    [column[a:b] for a, b in sorted(want_ranges[member])]
                    + [FMT.empty(0)]
                )
                # Keys against the reference (columnsort is not stable, and
                # zipf keys repeat); bytes against the one-shot.
                assert np.array_equal(planned[t]["key"], want["key"])
                assert planned[t].tobytes() == one_shot[t].tobytes()
                moved = {op: n for op, n in ops[t].items() if n}
                assert set(moved) <= {"alltoallv", "send"}, moved
                assert moved.get("send", 0) <= 1
                # one message per non-empty part; never more than g per round
                assert moved.get("alltoallv", 0) <= 3 * g
                if g > 1:
                    assert moved["alltoallv"] >= 2 * g

    def test_round_is_three_alltoallv_rounds(self):
        """Collective *rounds* per sort, counted at the communicator:
        three alltoallv, no allgather, no object alltoall."""
        p, rr = 4, 64
        recs = generate("uniform", FMT, p * rr, seed=7)
        calls = []

        def prog(comm):
            plan = ColumnsortPlan(comm, rr)
            for op in ("alltoallv", "allgather", "alltoall"):
                real = getattr(comm, op)
                setattr(
                    comm, op,
                    lambda *a, _real=real, _op=op: (
                        calls.append((comm.rank, _op)), _real(*a)
                    )[1],
                )
            plan.sort(recs[comm.rank * rr : (comm.rank + 1) * rr], FMT)

        run_spmd(p, prog)
        for rank in range(p):
            assert [op for q, op in calls if q == rank] == ["alltoallv"] * 3

    def test_wrong_length_names_the_planned_height(self, hard_timeout):
        """A rank whose ``local`` is not the planned r' fails on its own,
        before any communication — the world aborts instead of hanging."""
        def prog(comm):
            plan = ColumnsortPlan(comm, 32)
            n = 32 if comm.rank else 24
            return plan.sort(FMT.make(np.arange(n, dtype=np.uint64)), FMT)

        with hard_timeout(30, "a mis-sized round hung the world"):
            with pytest.raises(SpmdError) as exc_info:
                run_spmd(2, prog, timeout=5)
        assert isinstance(exc_info.value.cause, ConfigError)
        assert "r'=32" in str(exc_info.value.cause)
        assert "rank 0" in str(exc_info.value.cause)

    def test_construction_checks_once(self):
        def unequal(comm):
            ColumnsortPlan(comm, 32 + comm.rank)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, unequal, timeout=5)
        assert isinstance(exc_info.value.cause, ConfigError)

        def gap(comm):
            ColumnsortPlan(comm, 32, [[(0, 30)], [(32, 64)]])

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, gap, timeout=5)
        assert isinstance(exc_info.value.cause, ConfigError)

        def short(comm):
            ColumnsortPlan(comm, 8)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(4, short, timeout=5)
        assert isinstance(exc_info.value.cause, DimensionError)


class TestPlanWorkingSet:
    """A plan leases its working set once per scope: a warm round under
    ``leases`` leases only the slice it returns."""

    ROUNDS = 3

    @pytest.mark.parametrize("case", ["balanced", "m-pass2-scattered", "empty-share"])
    def test_a_warm_round_leases_only_its_result(self, case):
        # The process backend gives every rank its own copy meter and pool.
        p, g, rr, ranges = PLAN_CASES[case]
        rounds = [
            generate("uniform", FMT, p * rr, seed=60 + t) for t in range(self.ROUNDS)
        ]

        def prog(comm):
            pool, meter = get_pool(), copy_stats()
            mine = slice(comm.rank * rr, (comm.rank + 1) * rr)
            plan = ColumnsortPlan(comm, rr, ranges)
            before = pool.outstanding()
            scope = LeaseScope()
            kept, leased = [], []
            for recs in rounds:
                local = scope.lease(FMT.dtype, rr)
                local[:] = recs[mine]
                start = meter.leases
                kept.append(plan.sort(local, FMT, scope))
                leased.append(meter.leases - start)
            kept = [out.tobytes() for out in kept]  # read after the last round
            scope.close()
            after_pass = pool.outstanding()
            one_shot = [
                distributed_columnsort(comm, recs[mine], FMT, target_ranges=ranges)
                .tobytes()
                for recs in rounds
            ]
            return leased, kept == one_shot, before, after_pass, pool.outstanding()

        res = run_spmd(p, prog, backend="process")
        for rank, (leased, same, before, after_pass, after) in enumerate(res.returns):
            assert leased[1:] == [1] * (self.ROUNDS - 1), (rank, leased)
            assert same, rank
            assert after_pass == before == after, rank


class TestColumnsortSpecifics:
    def test_height_restriction_enforced(self):
        def prog(comm):
            local = generate("uniform", FMT, 16, seed=1)  # 16 < 2·4² = 32
            return distributed_columnsort(comm, local, FMT)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(4, prog, timeout=5)
        assert isinstance(exc_info.value.cause, DimensionError)

    def test_check_false_skips_restriction(self):
        recs = generate("uniform", FMT, 4 * 16, seed=7)
        got = sort_distributed(distributed_columnsort, recs, 4, check=False)
        # May be unsorted in principle, but the multiset is preserved.
        assert np.array_equal(np.sort(got["key"]), np.sort(recs["key"]))


class TestRadixSpecifics:
    def test_uint_encoding_preserves_order_u8(self):
        keys = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        enc = sortable_uint_keys(keys)
        assert np.all(np.diff(enc.astype(object)) > 0)

    def test_uint_encoding_preserves_order_i8(self):
        keys = np.array([-(2**62), -1, 0, 1, 2**62], dtype=np.int64)
        enc = sortable_uint_keys(keys)
        assert np.all(np.diff(enc.astype(object)) > 0)

    def test_uint_encoding_preserves_order_f8(self):
        keys = np.array([-np.inf, -1e300, -1.5, -0.0, 0.0, 1.5, 1e300, np.inf])
        enc = sortable_uint_keys(np.sort(keys))
        assert np.all(np.diff(enc.astype(object)) >= 0)

    def test_unsupported_dtype(self):
        with pytest.raises(ConfigError):
            sortable_uint_keys(np.array(["a"], dtype="U1"))

    def test_digit_bits_validated(self):
        def prog(comm):
            return distributed_radix_sort(
                comm, FMT.make(np.arange(8, dtype=np.uint64)), FMT, digit_bits=0
            )

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=5)

    def test_wide_digit_bits(self):
        recs = generate("uniform", FMT, 4 * 32, seed=8)
        got = sort_distributed(distributed_radix_sort, recs, 4, digit_bits=11)
        assert np.array_equal(got["key"], np.sort(recs["key"]))


class TestBitonicSpecifics:
    def test_exchange_count_formula(self):
        assert bitonic_exchange_count(2) == 1
        assert bitonic_exchange_count(4) == 3
        assert bitonic_exchange_count(16) == 10

    def test_bitonic_communication_exceeds_columnsort(self):
        """§4: bitonic moves more data once P grows — count real bytes."""
        p = 8
        recs = generate("uniform", FMT, p * 2 * p * p, seed=9)
        n_local = len(recs) // p

        def run_and_measure(fn):
            def prog(comm):
                local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
                fn(comm, local, FMT)
                return comm.stats.snapshot()["network_bytes"]

            return sum(run_spmd(p, prog).returns)

        assert run_and_measure(distributed_bitonic_sort) > run_and_measure(
            distributed_columnsort
        )


def network_bytes(fn, recs, p=8):
    """Total network bytes of one distributed sort of ``recs``."""
    n_local = len(recs) // p

    def prog(comm):
        local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
        fn(comm, local, FMT)
        return comm.stats.snapshot()["network_bytes"]

    return sum(run_spmd(p, prog).returns)


class TestKeyDependence:
    """§4's reason for in-core columnsort: its communication does not
    depend on the keys; sample sort's and radix sort's do."""

    N = 8 * 4096

    def test_columnsort_traffic_is_oblivious_to_skew(self):
        uniform = generate("uniform", FMT, self.N, seed=3)
        skewed = generate("zipf", FMT, self.N, seed=3)
        assert network_bytes(distributed_columnsort, uniform) == network_bytes(
            distributed_columnsort, skewed
        )
        assert network_bytes(distributed_sample_sort, uniform) != network_bytes(
            distributed_sample_sort, skewed
        )

    def test_radix_traffic_grows_with_key_width(self):
        rng = np.random.default_rng(4)
        narrow = FMT.make(rng.integers(0, 2**16, size=self.N, dtype=np.uint64))
        wide = FMT.make(rng.integers(0, 2**63, size=self.N, dtype=np.uint64))
        assert network_bytes(distributed_radix_sort, wide) > 2 * network_bytes(
            distributed_radix_sort, narrow
        )
        assert network_bytes(distributed_columnsort, narrow) == network_bytes(
            distributed_columnsort, wide
        )


class TestSampleSpecifics:
    def test_skewed_input_still_sorts(self):
        recs = generate("zipf", FMT, 4 * 128, seed=10)
        got = sort_distributed(distributed_sample_sort, recs, 4)
        assert np.array_equal(got["key"], np.sort(recs["key"]))

    def test_oversample_validated(self):
        def prog(comm):
            return distributed_sample_sort(
                comm, FMT.make(np.arange(8, dtype=np.uint64)), FMT, oversample=0
            )

        with pytest.raises(SpmdError):
            run_spmd(2, prog, timeout=5)

    def test_all_equal_keys_degenerate_splitters(self):
        recs = generate("all-equal", FMT, 4 * 64, seed=11)
        got = sort_distributed(distributed_sample_sort, recs, 4)
        assert np.array_equal(np.sort(got["uid"]), np.sort(recs["uid"]))
