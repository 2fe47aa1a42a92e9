"""Crash-consistency sweeps: the real recovery paths survive every
enumerated power-loss state — and regression proofs that the harness
catches the bugs this PR fixed.

The regression tests re-introduce each pre-fix behavior (no journal
parent-dir fsync, no sidecar durability barrier, non-atomic manifest
writes) via monkeypatch and assert the sweep *flags* it. A harness that
passes broken code is worse than no harness.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.service.journal as journal_mod
from repro.crashsim import run_sweep
from repro.crashsim.harness import (
    SCENARIOS,
    scenario_appends,
    scenario_checkpoint_save,
    scenario_journal_append,
    scenario_sidecar,
)
from repro.crashsim.invariants import check_disk_reads
from repro.disks.virtual_disk import VirtualDisk


def _violations(summary: dict) -> list[str]:
    return [
        f"{name}: {v['state']}: {v['message']}"
        for name, sc in summary["scenarios"].items()
        for v in sc["violations"]
    ]


# ---------------------------------------------------------------------------
# the sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        "journal_append",
        "journal_compact",
        "checkpoint_save",
        "checkpoint_prune",
        "daemon_restart",
    ],
)
def test_metadata_scenarios_have_zero_violations(scenario, tmp_path):
    summary = run_sweep(tmp_path, scenarios=[scenario], quick=True)
    assert summary["violations_total"] == 0, _violations(summary)
    assert summary["states_total"] > 0


@pytest.mark.parametrize("scenario", ["sidecar", "appends"])
def test_data_plane_scenarios_have_zero_violations(scenario, tmp_path):
    summary = run_sweep(tmp_path, scenarios=[scenario], quick=True)
    assert summary["violations_total"] == 0, _violations(summary)
    assert summary["states_total"] > 0


def test_resume_e2e_quick_sweep(tmp_path):
    summary = run_sweep(tmp_path, scenarios=["resume_e2e"], quick=True)
    assert summary["violations_total"] == 0, _violations(summary)
    assert summary["states_total"] > 0


def test_quick_sweep_covers_the_state_floor(tmp_path):
    """All scenarios together, sampled: at least 200 enumerated
    power-loss states, every one recovered."""
    summary = run_sweep(tmp_path, quick=True)
    assert list(summary["scenarios"]) == list(SCENARIOS)
    assert summary["violations_total"] == 0, _violations(summary)
    assert summary["states_total"] >= 200


def test_sweep_summary_shape(tmp_path):
    summary = run_sweep(tmp_path, scenarios=["checkpoint_prune"], quick=True)
    assert set(summary) == {
        "quick", "scenarios", "states_total", "violations_total"
    }
    json.dumps(summary)  # must stay JSON-serializable for the CI artifact
    assert list(summary["scenarios"]) == ["checkpoint_prune"]


def test_scenario_registry_is_complete():
    assert list(SCENARIOS) == [
        "journal_append",
        "journal_compact",
        "checkpoint_save",
        "checkpoint_prune",
        "sidecar",
        "appends",
        "daemon_restart",
        "resume_e2e",
    ]


# ---------------------------------------------------------------------------
# regression: the harness must catch each pre-fix bug
# ---------------------------------------------------------------------------


def test_harness_catches_missing_journal_dir_fsync(tmp_path, monkeypatch):
    """Pre-fix, a brand-new journal's directory entry was never fsynced:
    power loss after the first acknowledged append could drop the whole
    file. Re-introduce that and the sweep must flag lost events."""
    monkeypatch.setattr(journal_mod, "fsync_dir", lambda path: None)
    states, violations = scenario_journal_append(tmp_path, quick=True)
    assert states > 0
    assert any("match no legal generation" in v.message for v in violations)


def test_harness_catches_unfsynced_sidecar_barrier(tmp_path, monkeypatch):
    """Pre-fix, sidecars (and store data) had no durability barrier at
    checkpoint time. A no-op ``sync`` leaves everything in the page
    cache, and the sweep must flag barriered extents that fail to
    survive."""
    monkeypatch.setattr(VirtualDisk, "sync", lambda self: 0)
    states, violations = scenario_sidecar(tmp_path, quick=True)
    assert states > 0
    assert any("barriered extent" in v.message for v in violations)


def test_harness_catches_unbarriered_appends(tmp_path, monkeypatch):
    """The same teeth for a chained portion: with ``sync`` a no-op the
    appended portion is not crash-proof, and the sweep must say so."""
    monkeypatch.setattr(VirtualDisk, "sync", lambda self: 0)
    states, violations = scenario_appends(tmp_path, quick=True)
    assert states > 0
    assert any("barriered extent" in v.message for v in violations)


def test_a_chained_extent_is_checked_piece_by_piece(tmp_path):
    """A chained extent is no single write: each piece between write
    boundaries is matched against the writes that covered it — a legal
    portion passes, a piece no write put there is flagged."""
    disk = VirtualDisk(tmp_path / "d0", disk_id=0)
    pieces = [(0, b"A" * 64), (64, b"B" * 32), (96, b"C" * 100)]
    disk.write_extents([("obj", at, data) for at, data in pieces], append=True)
    assert [e[:2] for e in disk.checksums.extents("obj")] == [(0, 196)]
    written = {(0, "obj", at, len(data)): [data] for at, data in pieces}
    assert check_disk_reads([disk], written, "appends", "s0") == []
    written[(0, "obj", 64, 32)] = [b"X" * 32]  # B never landed there
    flagged = check_disk_reads([disk], written, "appends", "s0")
    assert len(flagged) == 1 and "never" in flagged[0].message


def test_harness_catches_non_atomic_manifest_writes(tmp_path, monkeypatch):
    """Write manifests with a bare ``write_text`` instead of the
    fsync+replace discipline and the sweep must surface torn or lost
    manifests."""
    import repro.resilience.checkpoint as checkpoint_mod

    def naive(path, doc, indent=None, durable=True):
        Path(path).write_text(json.dumps(doc, indent=indent, sort_keys=True))

    monkeypatch.setattr(checkpoint_mod, "atomic_write_json", naive)
    states, violations = scenario_checkpoint_save(tmp_path, quick=True)
    assert states > 0
    assert any(
        "torn manifest" in v.message or "save() was acknowledged" in v.message
        for v in violations
    )
