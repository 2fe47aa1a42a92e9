"""Property-based tests (hypothesis) on the core invariants.

Strategies draw random legal configurations *and* random data, so these
cover corners the parametrized tests don't enumerate: extreme keys,
degenerate shapes, every (r, s, P) interaction.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import available_backends
from repro.cluster.spmd import run_spmd
from repro.columnsort.basic import columnsort
from repro.columnsort.subblock import subblock_columnsort
from repro.matrix.layout import from_columns, is_sorted_column_major, to_columns
from repro.oocs.api import sort_out_of_core
from repro.oocs.incore.columnsort_dist import ColumnsortPlan, distributed_columnsort
from repro.records.format import RecordFormat

FMT = RecordFormat("u8", 16)

# -- strategies -------------------------------------------------------------

#: Legal basic-columnsort shapes: s | r, r ≥ 2s².
basic_shapes = st.sampled_from(
    [(2, 1), (8, 2), (18, 3), (32, 4), (50, 5), (128, 8), (512, 16)]
)

#: Legal subblock shapes (s a power of 4, r ≥ 4·s^(3/2)); several are
#: illegal for basic columnsort.
subblock_shapes = st.sampled_from([(4, 1), (32, 4), (64, 4), (256, 16), (320, 16)])

#: Random key arrays are drawn via a (seed, key-space) pair rather than
#: element-by-element lists — hypothesis shrinks the seed and the key
#: alphabet size, which is what matters for columnsort (duplicates and
#: degenerate alphabets are the adversarial regime).
key_params = st.tuples(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([2, 3, 5, 257, 2**32, 2**64]),
)


def make_keys(n, params):
    seed, space = params
    rng = np.random.default_rng(seed)
    return rng.integers(0, space, size=n, dtype=np.uint64)


# -- in-core ----------------------------------------------------------------


@given(shape=basic_shapes, params=key_params)
@settings(max_examples=40, deadline=None)
def test_basic_columnsort_sorts_anything(shape, params):
    r, s = shape
    flat = make_keys(r * s, params)
    out = columnsort(to_columns(flat, r, s))
    assert is_sorted_column_major(out)
    assert np.array_equal(from_columns(out), np.sort(flat))


@given(shape=subblock_shapes, params=key_params)
@settings(max_examples=40, deadline=None)
def test_subblock_columnsort_sorts_anything(shape, params):
    r, s = shape
    flat = make_keys(r * s, params)
    out = subblock_columnsort(to_columns(flat, r, s), check=(s != 1))
    assert is_sorted_column_major(out)
    assert np.array_equal(from_columns(out), np.sort(flat))


@given(seed=st.integers(min_value=0, max_value=2**31),
       alphabet=st.sampled_from([2, 3, 4]))
@settings(max_examples=25, deadline=None)
def test_small_key_spaces_below_basic_bound(seed, alphabet):
    """The adversarial regime: r = 4·s^(3/2) exactly, keys from a tiny
    alphabet — where a buggy subblock step would actually fail."""
    r, s = 256, 16
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, alphabet, size=r * s, dtype=np.uint64)
    out = subblock_columnsort(to_columns(flat, r, s))
    assert is_sorted_column_major(out)


# -- distributed ------------------------------------------------------------

# The spmd properties run on every transport backend. A process-backend
# example pays a fork per rank, so its profile draws fewer examples —
# the thread profile keeps the original breadth, the process profile
# checks the invariant survives the address-space boundary.
def _spmd_examples(backend):
    return 15 if backend == "thread" else 4


@pytest.mark.parametrize("backend", available_backends())
def test_distributed_columnsort_matches_local_sort(backend):
    @given(p=st.sampled_from([2, 4]), params=key_params)
    @settings(max_examples=_spmd_examples(backend), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def prop(p, params):
        n_local = 2 * p * p * 2
        ks = make_keys(p * n_local, params)
        recs = FMT.make(ks)

        def prog(comm):
            local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
            return distributed_columnsort(comm, local, FMT)

        got = np.concatenate(run_spmd(p, prog, backend=backend).returns)
        assert np.array_equal(got["key"], np.sort(ks))

    prop()


@pytest.mark.parametrize("backend", available_backends())
def test_distributed_columnsort_arbitrary_target_ranges(backend):
    """Any tiling of [0, N') into per-rank slices is honored.

    (n_local = 128/P satisfies the height restriction 2P² for every P
    drawn — running below it genuinely mis-sorts, as another test's
    falsifying example once demonstrated.)"""

    @given(
        p=st.sampled_from([1, 2, 4]),
        splits=st.lists(st.integers(0, 127), min_size=0, max_size=5),
        params=key_params,
    )
    @settings(max_examples=_spmd_examples(backend), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def prop(p, splits, params):
        total = 128
        n_local = total // p
        assert n_local >= 2 * p * p
        ks = make_keys(total, params)
        recs = FMT.make(ks)
        cuts = sorted(set(splits) | {0, total})
        pieces = list(zip(cuts, cuts[1:]))
        ranges = [[] for _ in range(p)]
        for idx, piece in enumerate(pieces):
            ranges[idx % p].append(piece)

        def prog(comm):
            local = recs[comm.rank * n_local : (comm.rank + 1) * n_local]
            return distributed_columnsort(comm, local, FMT,
                                          target_ranges=ranges)

        res = run_spmd(p, prog, backend=backend)
        expected = np.sort(ks)
        for q, arr in enumerate(res.returns):
            want = np.concatenate(
                [expected[a:b] for (a, b) in ranges[q]]
            ) if ranges[q] else np.empty(0, dtype=np.uint64)
            assert np.array_equal(arr["key"], want)

    prop()


@pytest.mark.parametrize("backend", available_backends())
def test_columnsort_plan_reused_over_rounds(backend):
    """One plan, three rounds of unrelated data, any tiling (slices
    dealt to ranks round-robin and listed in descending order): every
    round returns the ascending slices, and byte for byte what a fresh
    one-shot call returns."""

    @given(
        p=st.sampled_from([1, 2, 4]),
        splits=st.lists(st.integers(0, 127), min_size=0, max_size=9),
        params=key_params,
    )
    @settings(max_examples=_spmd_examples(backend), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def prop(p, splits, params):
        total = 128
        n_local = total // p
        seed, space = params
        rounds = [FMT.make(make_keys(total, (seed + t, space))) for t in range(3)]
        cuts = sorted(set(splits) | {0, total})
        ranges = [[] for _ in range(p)]
        for idx, piece in enumerate(zip(cuts, cuts[1:])):
            ranges[idx % p].insert(0, piece)

        def prog(comm):
            mine = slice(comm.rank * n_local, (comm.rank + 1) * n_local)
            plan = ColumnsortPlan(comm, n_local, ranges)
            planned = [plan.sort(recs[mine], FMT) for recs in rounds]
            one_shot = [
                distributed_columnsort(comm, recs[mine], FMT, target_ranges=ranges)
                for recs in rounds
            ]
            return planned, one_shot

        res = run_spmd(p, prog, backend=backend)
        for q, (planned, one_shot) in enumerate(res.returns):
            for t, recs in enumerate(rounds):
                expected = np.sort(recs["key"])
                want = np.concatenate(
                    [expected[a:b] for (a, b) in sorted(ranges[q])]
                    + [np.empty(0, dtype=np.uint64)]
                )
                assert np.array_equal(planned[t]["key"], want)
                assert planned[t].tobytes() == one_shot[t].tobytes()

    prop()


# -- full out-of-core -------------------------------------------------------

OOC_CONFIGS = [
    ("threaded", 2, 32, 128),  # P, r(buffer), N
    ("threaded", 4, 128, 1024),
    ("subblock", 2, 32, 128),
    ("subblock", 4, 256, 4096),
    ("m", 2, 32, 256),
    ("m", 4, 64, 2048),
    ("hybrid", 2, 128, 4096),
]


@given(
    config=st.sampled_from(OOC_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31),
    workload=st.sampled_from(["uniform", "duplicates", "sorted", "all-equal"]),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_out_of_core_sorts_random_configs(config, seed, workload):
    """Any algorithm, any seed, any workload: the output verifies."""
    from repro.cluster.config import ClusterConfig
    from repro.records.generators import generate

    algorithm, p, buf, n = config
    fmt = RecordFormat("u8", 16)
    cluster = ClusterConfig(p=p, mem_per_proc=max(buf, 2 * p * p))
    recs = generate(workload, fmt, n, seed=seed)
    res = sort_out_of_core(algorithm, recs, cluster, fmt, buffer_records=buf)
    assert res.passes in (3, 4)


#: Small legal configs for the depth-equivalence property (one per
#: algorithm family; the subblock/hybrid variants ride the same pools).
PIPELINE_CONFIGS = [
    ("threaded", 2, 32, 128),
    ("subblock", 2, 32, 128),
    ("m", 2, 32, 256),
]


@given(
    config=st.sampled_from(PIPELINE_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31),
    key=st.sampled_from(["u8", "f8"]),
    record_size=st.sampled_from([16, 32]),
    depth=st.sampled_from([1, 2, 4]),
    workload=st.sampled_from(["uniform", "duplicates", "all-equal"]),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pipeline_depth_never_changes_output(
    config, seed, key, record_size, depth, workload
):
    """The tentpole's core property: pipelining only reorders I/O in
    time — the PDM output is byte-identical at any depth, for any
    algorithm, shape, record format, and workload."""
    import tempfile

    from repro.cluster.config import ClusterConfig
    from repro.records.generators import generate

    algorithm, p, buf, n = config
    fmt = RecordFormat(key, record_size)
    cluster = ClusterConfig(p=p, mem_per_proc=max(buf, 2 * p * p))
    recs = generate(workload, fmt, n, seed=seed)
    with tempfile.TemporaryDirectory() as td:
        blobs = []
        for d in (0, depth):
            res = sort_out_of_core(
                algorithm, recs, cluster, fmt, buffer_records=buf,
                workdir=f"{td}/depth{d}", verify=False, collect_trace=False,
                pipeline_depth=d,
            )
            blobs.append(fmt.to_bytes(res.output.read_all()))
    assert blobs[0] == blobs[1]
