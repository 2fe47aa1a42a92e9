"""In-run supervised recovery: kill a rank, get the sorted output anyway.

The acceptance bar (ISSUE 8): a run whose rank dies — really dies, by
SIGKILL on the process backend — at any pass boundary or mid-pass must
complete byte-identically to an unkilled run *without re-invocation*,
on both backends, with ``SupervisorStats.restarts >= 1`` and nothing
leaked. The conftest teardown independently enforces the "nothing
leaked" half (leases, pipeline threads, child processes,
``/dev/shm`` segments) after every test here.
"""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import available_backends
from repro.cluster.config import ClusterConfig
from repro.cluster.spmd import run_spmd
from repro.errors import (
    AdmissionRejected,
    AuditError,
    BudgetExceeded,
    CancelledError,
    CheckpointError,
    CommError,
    ConfigError,
    CorruptionError,
    DiskError,
    DiskFullError,
    RankKilled,
    SpmdError,
    WatchdogTimeout,
)
from repro.governor import CancelToken, JobGovernor
from repro.oocs.api import sort_out_of_core
from repro.records.format import RecordFormat
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    RestartPolicy,
    RunSupervisor,
)
from repro.records.generators import generate

FMT = RecordFormat("u8", 16)

#: algorithm → (p, buffer_records, s, total passes, g: r = g·buffer)
CONFIGS = {
    "threaded": (2, 128, 4, 3, 1),
    "m": (2, 64, 4, 3, 2),
    "g": (4, 512, 8, 3, 2),
}

WATCHDOG = 15.0


def records_for(algorithm):
    _, buf, s, _, g = CONFIGS[algorithm]
    return generate("uniform", FMT, g * buf * s, seed=7)


def expected_bytes(recs):
    return np.sort(recs, order="key", kind="stable").tobytes()


def run_sort(algorithm, recs, depth, **kwargs):
    p, buf, _, _, g = CONFIGS[algorithm]
    if algorithm == "g":
        kwargs["group_size"] = g
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    return sort_out_of_core(
        algorithm, recs, cluster, FMT, buffer_records=buf,
        pipeline_depth=depth, **kwargs,
    )


def quick_policy(max_restarts=3):
    return RestartPolicy(
        max_restarts=max_restarts, base_backoff_s=0.001, max_backoff_s=0.01
    )


# ---------------------------------------------------------------------------
# RestartPolicy classification
# ---------------------------------------------------------------------------


class TestRestartPolicyClassification:
    POLICY = RestartPolicy()

    @pytest.mark.parametrize(
        "exc",
        [
            RankKilled("injected rank_kill"),
            WatchdogTimeout(1, 5.0, 1.0),
            RuntimeError("unhandled bug"),
            CommError("mailbox shut down"),
            DiskError("injected read fault (transient)"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_restartable_classes(self, exc):
        assert self.POLICY.restartable(exc)
        # the launcher's wrapper must not change the verdict
        assert self.POLICY.restartable(SpmdError(1, exc))

    @pytest.mark.parametrize(
        "exc",
        [
            CancelledError("operator stop"),
            AdmissionRejected("queue full"),
            BudgetExceeded(1, 1, 1, "backpressure"),
            CheckpointError("digest mismatch"),
            AuditError("invariant violated"),
            ConfigError("bad shape"),
            DiskFullError("out of space"),
            CorruptionError(0, "x", [(0, 8)]),
            KeyboardInterrupt(),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_fatal_classes(self, exc):
        assert not self.POLICY.restartable(exc)
        assert not self.POLICY.restartable(SpmdError(1, exc))

    def test_explicitly_permanent_fault_is_fatal(self):
        exc = DiskError("injected write fault (permanent)")
        exc.transient = False
        assert not self.POLICY.restartable(exc)
        exc.transient = True
        assert self.POLICY.restartable(exc)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ConfigError):
            RestartPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RestartPolicy(base_backoff_s=-0.1)


# ---------------------------------------------------------------------------
# RunSupervisor loop
# ---------------------------------------------------------------------------


class TestRunSupervisorLoop:
    def test_clean_first_attempt_records_nothing(self):
        sup = RunSupervisor(quick_policy())
        assert sup.run(lambda: 42) == 42
        assert sup.stats.restarts == 0
        assert sup.stats.attempts == []

    def test_restarts_until_success(self):
        failures = [RankKilled("k1"), RuntimeError("k2")]
        swept = []

        def attempt():
            if failures:
                raise failures.pop(0)
            return "done"

        sup = RunSupervisor(quick_policy())
        out = sup.run(attempt, on_restart=lambda n, exc: swept.append((n, type(exc))))
        assert out == "done"
        assert sup.stats.restarts == 2
        assert swept == [(1, RankKilled), (2, RuntimeError)]
        assert [a["cause"] for a in sup.stats.attempts] == [
            "RankKilled", "RuntimeError",
        ]
        assert all(a["restarted"] for a in sup.stats.attempts)
        assert sup.stats.restart_wall > 0.0

    def test_fatal_cause_reraises_immediately(self):
        calls = []

        def attempt():
            calls.append(1)
            raise CancelledError("stop")

        sup = RunSupervisor(quick_policy())
        with pytest.raises(CancelledError):
            sup.run(attempt)
        assert len(calls) == 1
        assert sup.stats.restarts == 0
        [entry] = sup.stats.attempts
        assert entry["restartable"] is False and entry["restarted"] is False

    def test_budget_exhaustion_reraises_the_last_failure(self):
        def attempt():
            raise RankKilled("again")

        sup = RunSupervisor(quick_policy(max_restarts=2))
        with pytest.raises(RankKilled):
            sup.run(attempt)
        assert sup.stats.restarts == 2
        assert len(sup.stats.attempts) == 3
        assert sup.stats.attempts[-1]["restartable"] is True
        assert sup.stats.attempts[-1]["restarted"] is False

    def test_cancellation_during_backoff_wins_over_the_restart(self):
        cancel = CancelToken()
        cancel.cancel("operator stop")

        def attempt():
            raise RankKilled("crash")

        sup = RunSupervisor(quick_policy(), cancel=cancel)
        with pytest.raises(CancelledError):
            sup.run(attempt)

    def test_spmd_wrapper_rank_lands_in_stats(self):
        def attempt():
            raise SpmdError(3, RankKilled("boom"))

        sup = RunSupervisor(RestartPolicy(max_restarts=0))
        with pytest.raises(SpmdError):
            sup.run(attempt)
        [entry] = sup.stats.attempts
        assert entry["rank"] == 3 and entry["cause"] == "RankKilled"

    def test_backoff_is_seeded_and_bounded(self):
        policy = RestartPolicy(
            max_restarts=5, base_backoff_s=0.01, max_backoff_s=0.03, seed=9
        )
        import random

        a = [policy.delay_s(k, random.Random(9)) for k in range(1, 6)]
        b = [policy.delay_s(k, random.Random(9)) for k in range(1, 6)]
        assert a == b  # same seed, same schedule
        assert all(d <= 0.03 * (1 + policy.jitter) for d in a)


FATAL_EXAMPLES = [
    CancelledError("stop"),
    AdmissionRejected("queue full"),
    BudgetExceeded(1, 1, 1, "x"),
    CheckpointError("untrusted"),
    DiskFullError("full"),
    CorruptionError(0, "x", [(0, 8)]),
]
RESTARTABLE_EXAMPLES = [
    RankKilled("killed"),
    WatchdogTimeout(0, 2.0, 1.0),
    RuntimeError("bug"),
    SpmdError(1, RankKilled("killed")),
]


class TestRestartBoundsProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seq=st.lists(
            st.sampled_from(FATAL_EXAMPLES + RESTARTABLE_EXAMPLES), max_size=6
        ),
        max_restarts=st.integers(min_value=0, max_value=4),
    )
    def test_restarts_never_exceed_budget_and_fatal_never_restarts(
        self, seq, max_restarts
    ):
        policy = RestartPolicy(
            max_restarts=max_restarts, base_backoff_s=0.0, max_backoff_s=0.0
        )
        calls = {"n": 0}

        def attempt():
            i = calls["n"]
            calls["n"] += 1
            if i < len(seq):
                raise seq[i]
            return "ok"

        sup = RunSupervisor(policy)
        try:
            out = sup.run(attempt)
        except BaseException as exc:
            idx = calls["n"] - 1
            assert exc is seq[idx]
            # every failure that *was* restarted had to be restartable
            assert all(policy.restartable(e) for e in seq[:idx])
            # the run only gave up for a legal reason
            assert (not policy.restartable(exc)) or idx == max_restarts
        else:
            assert out == "ok"
            assert len(seq) <= max_restarts
            assert all(policy.restartable(e) for e in seq)
        assert sup.stats.restarts <= max_restarts
        assert sup.stats.restarts == max(0, calls["n"] - 1)


# ---------------------------------------------------------------------------
# A bare run_spmd under the supervisor (transport conformance for
# supervision: every backend tears its cohort down before it raises)
# ---------------------------------------------------------------------------


def _killable_program(comm, plan):
    plan.check("comm", "in killable program")
    comm.barrier()
    return comm.rank


@pytest.mark.parametrize("backend", available_backends())
class TestRunSpmdSeam:
    def test_rank_kill_without_policy_fails_the_run(self, backend):
        plan = FaultPlan([FaultSpec(op="comm", nth=1, count=1, kind="rank_kill")])
        with pytest.raises(SpmdError):
            run_spmd(2, _killable_program, plan, backend=backend, timeout=10.0)

    def test_rank_kill_with_policy_recovers(self, backend):
        plan = FaultPlan([FaultSpec(op="comm", nth=1, count=1, kind="rank_kill")])
        sup = RunSupervisor(quick_policy())
        res = sup.run(lambda: run_spmd(
            2, _killable_program, plan, backend=backend, timeout=10.0,
        ))
        assert res.returns == [0, 1]
        assert sup.stats.restarts == 1
        assert plan.snapshot()["rank_kills"] == 1
        [entry] = sup.stats.attempts
        assert entry["restarted"] is True

    def test_rank_exit_with_policy_recovers(self, backend):
        plan = FaultPlan([FaultSpec(op="comm", nth=1, count=1, kind="rank_exit")])
        sup = RunSupervisor(quick_policy())
        res = sup.run(lambda: run_spmd(
            2, _killable_program, plan, backend=backend, timeout=10.0,
        ))
        assert res.returns == [0, 1]
        assert sup.stats.restarts == 1


# ---------------------------------------------------------------------------
# Kill-and-auto-recover byte identity (the acceptance matrix)
# ---------------------------------------------------------------------------


class BoundaryKill(RankKilled):
    """Raised right after the manifest for the target pass hits disk —
    the worst honest crash point at a pass boundary. A one-arg
    ResilienceError, so it pickles home intact from forked ranks."""


def kill_after_pass(kill_at):
    real = CheckpointStore.save_pass

    def killing(self, job, algorithm, pass_index, total, store):
        manifest = real(self, job, algorithm, pass_index, total, store)
        if pass_index == kill_at:
            raise BoundaryKill(f"killed at pass {pass_index} boundary")
        return manifest

    return killing


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
class TestKillAndAutoRecover:
    def test_boundary_kill_recovers_at_every_pass(
        self, algorithm, depth, backend, tmp_path
    ):
        """The supervised run relaunches from the just-written manifest:
        the re-run resumes *after* the killed boundary's pass, so the
        killing monkeypatch never re-fires."""
        recs = records_for(algorithm)
        expected = expected_bytes(recs)
        total = CONFIGS[algorithm][3]
        for kill_at in range(1, total + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(CheckpointStore, "save_pass", kill_after_pass(kill_at))
                res = run_sort(
                    algorithm, recs, depth, backend=backend,
                    workdir=tmp_path / f"w{kill_at}",
                    checkpoint_dir=tmp_path / f"ck{kill_at}",
                    watchdog_deadline=WATCHDOG,
                    restart_policy=quick_policy(),
                )
            assert res.output_records().tobytes() == expected, (
                f"{algorithm} depth={depth} {backend}: recovery from a kill "
                f"at pass {kill_at}'s boundary diverged"
            )
            assert res.supervisor["restarts"] >= 1
            assert res.supervisor["attempts"][0]["resumed_from_pass"] == kill_at

    def test_midpass_sigkill_recovers(self, algorithm, depth, backend, tmp_path):
        """A rank really dies mid-pass on its nth disk write (SIGKILL,
        then ``os._exit``, on the process backend); the run must still
        complete byte-identically within the same call."""
        recs = records_for(algorithm)
        expected = expected_bytes(recs)
        p = CONFIGS[algorithm][0]
        # Calibrate: total write-op checks seen by a clean run (global
        # count — the thread backend shares one plan across ranks).
        counting = FaultPlan()
        res = run_sort(
            algorithm, recs, depth, workdir=tmp_path / "cal",
            fault_plan=counting,
        )
        writes = counting.snapshot()["ops"]["write"]
        for frac, kind in ((0.35, "rank_kill"), (0.85, "rank_exit")):
            nth = max(1, int(writes * frac))
            if backend == "process":
                # forked ranks count their own ops; scale to one rank's
                # share of the run
                nth = max(1, nth // p)
            plan = FaultPlan(
                [FaultSpec(op="write", nth=nth, count=1, kind=kind)]
            )
            res = run_sort(
                algorithm, recs, depth, backend=backend,
                workdir=tmp_path / f"w{frac}",
                checkpoint_dir=tmp_path / f"ck{frac}",
                fault_plan=plan, watchdog_deadline=WATCHDOG,
                restart_policy=quick_policy(),
            )
            assert res.output_records().tobytes() == expected, (
                f"{algorithm} depth={depth} {backend}: recovery from a "
                f"mid-pass kill at write {nth} diverged"
            )
            assert res.supervisor["restarts"] >= 1
            assert plan.snapshot()["rank_kills"] >= 1


class TestSupervisedRunWithoutCheckpoints:
    def test_restart_from_scratch_when_no_checkpoint_dir(self, tmp_path):
        recs = records_for("threaded")
        plan = FaultPlan([FaultSpec(op="write", nth=3, count=1, kind="rank_kill")])
        res = run_sort(
            "threaded", recs, 0, workdir=tmp_path / "w",
            fault_plan=plan, watchdog_deadline=WATCHDOG,
            restart_policy=quick_policy(),
        )
        assert res.output_records().tobytes() == expected_bytes(recs)
        assert res.supervisor["restarts"] == 1
        assert res.supervisor["attempts"][0]["resumed_from_pass"] == 0

    def test_unsupervised_result_has_empty_record(self, tmp_path):
        recs = records_for("threaded")
        res = run_sort("threaded", recs, 0, workdir=tmp_path / "w")
        assert res.supervisor == {}


# ---------------------------------------------------------------------------
# Interaction with the governor
# ---------------------------------------------------------------------------


class TestGovernorInteraction:
    def test_admission_charged_once_across_attempts(self, tmp_path):
        governor = JobGovernor(max_concurrent=1, max_queue=1)
        recs = records_for("threaded")
        plan = FaultPlan([FaultSpec(op="write", nth=3, count=1, kind="rank_kill")])
        res = run_sort(
            "threaded", recs, 0, workdir=tmp_path / "w",
            fault_plan=plan, watchdog_deadline=WATCHDOG,
            restart_policy=quick_policy(), governor=governor,
        )
        assert res.supervisor["restarts"] == 1
        snap = governor.snapshot()
        assert snap["admitted"] == 1  # the restart was not re-admitted
        assert snap["completed"] == 1
        assert snap["running"] == 0

    def test_cancellation_is_fatal_and_leaks_nothing(self, tmp_path):
        recs = records_for("threaded")
        cancel = CancelToken(cancel_at_pass=1)
        with pytest.raises(CancelledError):
            run_sort(
                "threaded", recs, 0, workdir=tmp_path / "w",
                cancel=cancel, restart_policy=quick_policy(),
            )
        # conftest teardown asserts no leases/threads leaked


# ---------------------------------------------------------------------------
# Satellites: rank-kill plan hygiene, error pickling
# ---------------------------------------------------------------------------


class TestRankKillFaultSpecs:
    def test_kill_kinds_require_finite_count(self):
        with pytest.raises(Exception, match="finite count"):
            FaultSpec(kind="rank_kill", count=None)
        with pytest.raises(Exception, match="finite count"):
            FaultSpec(kind="rank_exit", count=None)

    def test_thread_side_kill_raises_rank_killed(self):
        plan = FaultPlan([FaultSpec(op="read", nth=2, count=1, kind="rank_kill")])
        plan.check("read", "op 1")
        with pytest.raises(RankKilled, match="injected rank_kill"):
            plan.check("read", "op 2")
        # spent: the same plan never kills a relaunched attempt again
        for _ in range(20):
            plan.check("read", "later op")
        snap = plan.snapshot()
        assert snap["rank_kills"] == 1
        assert snap["fired_total"] == 1

    def test_add_registers_kill_cell(self):
        plan = FaultPlan()
        plan.check("write")
        plan.add(FaultSpec(op="write", nth=2, count=1, kind="rank_kill"))
        with pytest.raises(RankKilled):
            plan.check("write")


class TestErrorPickling:
    def test_rank_killed_round_trips(self):
        exc = pickle.loads(pickle.dumps(RankKilled("injected rank_kill here")))
        assert isinstance(exc, RankKilled)
        assert "injected rank_kill" in str(exc)

    def test_watchdog_timeout_round_trips_with_stalled_ranks(self):
        original = WatchdogTimeout(
            2, 7.5, 1.0, stalled=[(2, 7.5), (0, 6.1), (1, 5.0)]
        )
        exc = pickle.loads(pickle.dumps(original))
        assert exc.rank == 2
        assert exc.stalled == [(2, 7.5), (0, 6.1), (1, 5.0)]
        assert "all stalled ranks" in str(exc)
        assert "0 (6.1s idle)" in str(exc)
