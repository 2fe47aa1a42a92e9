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
    scenario_checkpoint_save,
    scenario_journal_append,
    scenario_sidecar,
)
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


@pytest.mark.parametrize("scenario", ["sidecar"])
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
