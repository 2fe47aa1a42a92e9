"""Cooperative cancellation: token semantics, structured unwinding of
every pass program, and byte-identical resume after a cancel.

The cancel-then-resume matrix mirrors the kill-and-resume checkpoint
tests, but the interruption is a :class:`~repro.governor.CancelToken`
instead of a simulated crash: the run must stop with a *bare*
:class:`~repro.errors.Cancellation` (not an ``SpmdError`` wrapper),
leak no pool leases / pipeline threads (the conftest teardown asserts
both), and leave the last pass-boundary
checkpoint valid.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.errors import (
    Cancellation,
    CancelledError,
    DeadlineExceeded,
    SpmdError,
)
from repro.governor import CancelToken, maybe_sleep
from repro.membuf import get_pool
from repro.oocs.api import run_baseline_io, sort_out_of_core
from repro.records.format import RecordFormat
from repro.records.generators import generate

FMT = RecordFormat("u8", 16)

#: program → (p, buffer_records, s, total passes, striped input?)
CONFIGS = {
    "threaded": (2, 128, 4, 3, False),
    "subblock": (2, 128, 4, 4, False),
    "m": (2, 64, 4, 3, True),
    "hybrid": (2, 64, 4, 4, True),
    "baseline-io": (2, 128, 4, 3, False),
}

PROGRAMS = sorted(CONFIGS)


class PollCancelToken(CancelToken):
    """Cancels itself on its nth ``cancelled()`` poll — a deterministic
    stand-in for an operator cancel arriving mid-pass at an arbitrary
    seam (disk attempt, pipeline wait, mailbox slice)."""

    def __init__(self, nth=None):
        super().__init__()
        self.nth = nth
        self.polls = 0
        self.fired_at = None
        self._poll_lock = threading.Lock()

    def cancelled(self):
        with self._poll_lock:
            self.polls += 1
            hit = self.nth is not None and self.polls == self.nth
        if hit:
            self.fired_at = time.monotonic()
            self.cancel(f"poll #{self.nth}")
        return super().cancelled()


def records_for(program):
    p, buf, s, _, striped = CONFIGS[program]
    n = p * buf * s if striped else buf * s
    return generate("uniform", FMT, n, seed=7)


def run_program(program, records, depth, **kwargs):
    p, buf, _, _, _ = CONFIGS[program]
    cluster = ClusterConfig(p=p, mem_per_proc=2**10)
    if program == "baseline-io":
        return run_baseline_io(
            records, cluster, FMT, buffer_records=buf,
            pipeline_depth=depth, **kwargs,
        )
    return sort_out_of_core(
        program, records, cluster, FMT, buffer_records=buf,
        pipeline_depth=depth, **kwargs,
    )


def output_bytes(res):
    out = res.output
    if hasattr(out, "read_all"):
        return out.read_all().tobytes()
    return out.to_records().tobytes()


class TestCancelToken:
    def test_fresh_token_is_quiet(self):
        token = CancelToken()
        assert not token.cancelled()
        token.check()  # does not raise
        assert token.checks == 1

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        exc = token.exception()
        assert isinstance(exc, CancelledError)
        assert exc.reason == "first"
        with pytest.raises(CancelledError, match="first"):
            token.check()

    def test_deadline_flips_lazily(self):
        token = CancelToken(deadline_s=0.01)
        time.sleep(0.02)
        assert token.cancelled()
        with pytest.raises(DeadlineExceeded) as err:
            token.check()
        assert err.value.deadline_s == 0.01

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            CancelToken(deadline_s=0.0)

    def test_cancel_after_checks_trigger(self):
        token = CancelToken(cancel_after_checks=3)
        token.check()
        token.check()
        with pytest.raises(CancelledError, match="after 3 checks"):
            token.check()

    def test_pass_boundary_trigger(self):
        token = CancelToken(cancel_at_pass=2)
        token.pass_boundary(1)
        assert not token.cancelled()
        token.pass_boundary(2)
        assert token.cancelled()
        with pytest.raises(CancelledError, match="boundary 2"):
            token.check()

    def test_sleep_wakes_early_on_cancel(self):
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        t0 = time.monotonic()
        with pytest.raises(CancelledError):
            token.sleep(10.0)
        assert time.monotonic() - t0 < 5.0
        timer.join()

    def test_maybe_helpers_accept_none(self):
        maybe_sleep(None, 0.0)
        token = CancelToken()
        token.cancel()
        with pytest.raises(CancelledError):
            maybe_sleep(token, 0.01)


class TestApiValidation:
    def test_expired_deadline_raises_structured(self):
        records = records_for("threaded")
        cluster = ClusterConfig(p=2, mem_per_proc=2**10)
        with pytest.raises(DeadlineExceeded):
            sort_out_of_core(
                "threaded", records, cluster, FMT, buffer_records=128,
                cancel=CancelToken(deadline_s=1e-6),
            )


class TestStructuredUnwind:
    def test_cancellation_is_reraised_bare_not_wrapped(self):
        """A cancelled run raises CancelledError itself — callers catch
        Cancellation, not SpmdError-with-a-cause."""
        records = records_for("threaded")
        token = CancelToken(cancel_at_pass=1)
        try:
            run_program("threaded", records, 2, cancel=token)
        except Cancellation as exc:
            assert isinstance(exc, CancelledError)
            assert not isinstance(exc, SpmdError)
        else:
            pytest.fail("cancelled run did not raise")

    def test_governor_counters_report_cancel_checks(self):
        records = records_for("threaded")
        token = CancelToken()
        res = run_program("threaded", records, 0, cancel=token)
        assert res.governor["cancel_checks"] == token.checks > 0
        assert res.governor["deadline_s"] is None
        res.output.delete()


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("program", PROGRAMS)
class TestCancelThenResume:
    def test_boundary_cancel_resumes_byte_identical(
        self, program, depth, tmp_path
    ):
        """Cancel at every pass boundary; resume must reproduce the
        uninterrupted output byte for byte."""
        records = records_for(program)
        expected = output_bytes(run_program(program, records, depth))
        total = CONFIGS[program][3]

        for boundary in range(1, total + 1):
            workdir = tmp_path / f"w{boundary}"
            ckdir = tmp_path / f"ck{boundary}"
            token = CancelToken(cancel_at_pass=boundary)
            with pytest.raises(Cancellation):
                run_program(
                    program, records, depth,
                    cancel=token, workdir=workdir, checkpoint_dir=ckdir,
                )
            # the checkpoint of the completed pass survived the cancel
            assert len(list(ckdir.glob("pass_*.json"))) == boundary
            resumed = run_program(
                program, records, depth,
                workdir=workdir, checkpoint_dir=ckdir, resume=True,
            )
            assert output_bytes(resumed) == expected, (
                f"{program} depth={depth}: resume after boundary "
                f"{boundary} diverged"
            )
            resumed.output.delete()

    def test_midpass_cancel_resumes_byte_identical(
        self, program, depth, tmp_path
    ):
        """Cancel mid-pass (on the nth poll of any seam); the run must
        unwind promptly and resume byte-identically from the last
        completed boundary."""
        records = records_for(program)
        expected = output_bytes(run_program(program, records, depth))
        probe = PollCancelToken()
        run_program(program, records, depth, cancel=probe).output.delete()

        workdir = tmp_path / "w"
        ckdir = tmp_path / "ck"
        token = PollCancelToken(nth=max(2, probe.polls // 2))
        t0 = time.monotonic()
        with pytest.raises(Cancellation):
            run_program(
                program, records, depth,
                cancel=token, workdir=workdir, checkpoint_dir=ckdir,
            )
        assert time.monotonic() - t0 < 30.0  # prompt, not a hang
        # every rank unwinds within a few poll intervals of the cancel
        assert time.monotonic() - token.fired_at < 5.0
        resumed = run_program(
            program, records, depth,
            workdir=workdir, checkpoint_dir=ckdir, resume=True,
        )
        assert output_bytes(resumed) == expected
        resumed.output.delete()


class TestCancellationNeverLeaks:
    @settings(max_examples=12, deadline=None)
    @given(nth=st.integers(min_value=2, max_value=600))
    def test_cancel_at_any_poll_leaks_nothing(self, nth):
        """Property: wherever a cancel lands — any poll of any seam, or
        after the run already finished — no pool lease or pipeline worker
        thread survives the unwind. (The
        conftest teardown re-asserts the same invariants after the
        whole test.)"""
        records = records_for("threaded")
        token = PollCancelToken(nth=nth)
        try:
            res = run_program("threaded", records, 2, cancel=token)
        except Cancellation:
            pass
        else:
            res.output.delete()
        assert get_pool().outstanding() == 0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            lingering = [
                t.name for t in threading.enumerate()
                if t.name.startswith("pipeline-")
            ]
            if not lingering:
                break
            time.sleep(0.02)
        assert lingering == []
