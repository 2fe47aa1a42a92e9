"""Error taxonomy and SPMD failure attribution.

The headline property: when several ranks fail concurrently,
:class:`~repro.errors.SpmdError` names the *lowest-numbered* rank whose
failure is not shutdown collateral — so a chaos run's error report is
deterministic no matter which thread lost the race.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spmd import run_spmd
from repro.errors import (
    CheckpointError,
    CommError,
    ReproError,
    ResilienceError,
    SpmdError,
    WatchdogTimeout,
)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ResilienceError, ReproError)
        assert issubclass(CheckpointError, ResilienceError)
        assert issubclass(WatchdogTimeout, ResilienceError)
        # catchable as stdlib RuntimeError, like the rest of the family
        assert issubclass(ResilienceError, RuntimeError)

    def test_watchdog_timeout_carries_context(self):
        exc = WatchdogTimeout(rank=3, idle_s=2.5, deadline_s=2.0)
        assert exc.rank == 3
        assert exc.idle_s == 2.5
        assert exc.deadline_s == 2.0
        assert "rank 3" in str(exc)
        assert "2.0" in str(exc)

    def test_spmd_error_carries_rank_and_cause(self):
        cause = ValueError("boom")
        exc = SpmdError(2, cause)
        assert exc.rank == 2
        assert exc.cause is cause
        assert "rank 2" in str(exc)


# world sizes 2-6, with a non-empty failing subset
@st.composite
def failing_worlds(draw):
    size = draw(st.integers(min_value=2, max_value=6))
    failing = draw(
        st.sets(st.integers(min_value=0, max_value=size - 1), min_size=1)
    )
    return size, sorted(failing)


class TestLowestRankProperty:
    @given(failing_worlds())
    @settings(max_examples=25, deadline=None)
    def test_lowest_failing_rank_reported(self, world):
        size, failing = world
        barrier = threading.Barrier(len(failing), timeout=10.0)

        def program(comm):
            if comm.rank in failing:
                barrier.wait()  # all failures in flight concurrently
                raise ValueError(f"planned failure on rank {comm.rank}")
            return comm.rank

        with pytest.raises(SpmdError) as err:
            run_spmd(size, program)
        assert err.value.rank == failing[0]
        assert isinstance(err.value.cause, ValueError)
        assert f"rank {failing[0]}" in str(err.value.cause)

    @given(failing_worlds())
    @settings(max_examples=10, deadline=None)
    def test_collateral_comm_errors_not_blamed(self, world):
        """Ranks that die of shutdown collateral (CommError while the
        world closes around them) must never outrank the true cause,
        even when the collateral rank has a lower number."""
        size, failing = world
        genuine = failing[-1]  # highest-numbered rank is the real culprit

        def program(comm):
            if comm.rank == genuine:
                raise ValueError("the real failure")
            # everyone else blocks in a receive that the shutdown breaks
            comm.recv(source=genuine, tag=99)  # never sent

        with pytest.raises(SpmdError) as err:
            run_spmd(size, program)
        assert err.value.rank == genuine
        assert isinstance(err.value.cause, ValueError)

    def test_all_collateral_still_reports_lowest(self):
        """If only collateral failures exist (no genuine cause was
        recorded), the lowest-numbered collateral rank is reported
        rather than nothing."""
        failures = [
            (2, CommError("communicator has been shut down")),
            (1, CommError("communicator has been shut down")),
        ]
        # mirror of run_spmd's ranking
        from repro.cluster.transport import is_collateral

        ranked = sorted(
            failures,
            key=lambda f: (
                0
                if not (is_collateral(f[1]) or isinstance(f[1], WatchdogTimeout))
                else 1
                if isinstance(f[1], WatchdogTimeout)
                else 2,
                f[0],
            ),
        )
        assert ranked[0][0] == 1
