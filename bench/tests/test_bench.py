"""Self-tests of the benchmark. Not tier-1 (which collects ``tests/``):

    python -m pytest bench/tests -q

Every workload is driven through its Python entry at a reduced geometry
(N = 8192, buffer 512, 1 rep).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, run
from bench.metrics import END_TO_END, KINDS, PER_LAYER, WALLS
from bench.probes import PROBES
from bench.workloads import (
    P,
    RECORD_SIZE,
    WORKLOADS,
    smallest_threaded_buffer,
)

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
SPANS = {
    "setup.import", "setup.generate", "warmup.baseline", "warmup.sort",
    "rep.baseline", "rep.sort", "rep.verify", "rep.cleanup", "traced.sort",
}


def test_contract_is_the_catalogue():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.match(m.name) and UNIT.match(m.unit), m
        assert m.better in ("lower", "higher") and m.kind in KINDS
    for m in END_TO_END:
        assert 0 < m.bound <= 0.25
    for m in PER_LAYER:  # a layer is a real subpackage of the program
        assert m.layer == "bench" or (ROOT / "src/repro" / m.layer).is_dir(), m
    setup = END_TO_END[0]
    assert setup.name == "setup_s"
    assert all(setup.bound > m.bound for m in END_TO_END[1:])
    for w in WORKLOADS.values():
        assert NAME.match(w.name) and len(w.why) <= 200 and "\n" not in w.why


def test_workload_geometry():
    assert {w.name: w.n for w in WORKLOADS.values()} == {
        "threaded-thread": 2_097_152, "threaded-process": 2_097_152,
        "subblock-beyond-bound": 262_144, "mcol-small-buffer": 524_288,
    }
    for w in WORKLOADS.values():
        for wl in (w, w.reduced()):
            # the baseline runs at the smallest threaded-legal buffer
            assert wl.baseline_buffer_records == smallest_threaded_buffer(wl.n)
            assert wl.mem_per_proc >= wl.buffer_records
        assert w.reduced().n == 8192 and w.reduced().buffer_records == 512
    a, b = WORKLOADS["threaded-thread"], WORKLOADS["threaded-process"]
    assert (a.n, a.buffer_records, a.keys, a.depth) == (
        b.n, b.buffer_records, b.keys, b.depth)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """{workload: (untraced doc, traced doc)} at the reduced geometry."""
    out = {}
    base = tmp_path_factory.mktemp("bench")
    for name, w in WORKLOADS.items():
        out[name] = tuple(
            run.measure(w.reduced(), seed=7, seconds=0.0, trace=trace,
                        scratch_base=base / "scratch", out_dir=base,
                        min_reps=1)
            for trace in (False, True)
        )
    out["_dir"] = base
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported(docs, name):
    untraced, traced = docs[name]
    for doc in (untraced, traced):
        assert doc["correct"] and doc["failed"] == 0 and doc["failed_share"] == 0
        assert doc["attempted"] == 3 and doc["reps"] == {"sort": 1, "baseline": 2}
    assert set(untraced["end_to_end"]) == {m.name for m in END_TO_END}
    assert untraced["per_layer"] == {}
    assert set(untraced["walls"]) == set(WALLS) < set(traced["per_layer"])
    sort_wall, baseline_wall = (untraced["walls"][w]["value"] for w in WALLS)
    assert untraced["end_to_end"]["io_ratio"]["value"] == sort_wall / baseline_wall
    assert set(traced["per_layer"]) == {m.name for m in PER_LAYER}
    for metric in END_TO_END + PER_LAYER:
        group = "end_to_end" if metric in END_TO_END else "per_layer"
        entry = (untraced if group == "end_to_end" else traced)[group][metric.name]
        assert entry["unit"] == metric.unit
        assert entry["value"] is not None, entry.get("reason")
        assert math.isfinite(entry["value"]), metric.name
    for metric in END_TO_END:  # the driver refuses a metric that reads 0
        assert untraced["end_to_end"][metric.name]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_match_the_closed_forms(docs, name):
    wl = WORKLOADS[name].reduced()
    layer = {k: e["value"] for k, e in docs[name][1]["per_layer"].items()}
    moved = wl.passes * wl.n * RECORD_SIZE
    assert layer["oocs.passes"] == wl.passes
    assert layer["disks.bytes_read"] == layer["disks.bytes_written"] == moved
    assert layer["disks.bytes_hashed"] == 2 * moved  # write side + read side
    portions = P if wl.algorithm == "m" else 1
    assert layer["disks.reads"] == wl.passes * wl.columns * portions
    assert layer["disks.retries"] == layer["cluster.comm_retries"] == 0
    if wl.algorithm != "m":
        assert layer["oocs.stage.incore_s"] == 0


def test_transport_pair_counts_are_identical(docs):
    thread, process = (
        {k: e["value"] for k, e in docs[n][1]["per_layer"].items()}
        for n in ("threaded-thread", "threaded-process")
    )
    counts = [m.name for m in PER_LAYER if m.kind == "count"]
    assert {"disks.writes", "cluster.messages", "cluster.network_bytes"} <= set(counts)
    assert {k: thread[k] for k in counts} == {k: process[k] for k in counts}


def test_trace_file_has_every_span(docs):
    for name in WORKLOADS:
        events = json.loads(
            (docs["_dir"] / f"trace-{name}.json").read_text()
        )["traceEvents"]
        seen = {e["name"] for e in events}
        assert SPANS <= seen
        assert {f"probe.{m}" for m in PROBES} <= seen
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        assert {e["args"]["workload"] for e in events} == {name}
        assert set(docs[name][1]["span_self_s"]) == seen
    assert docs["threaded-thread"][0]["span_self_s"] == {}  # untraced: no spans


def write_results(docs, path: Path, scale: float = 1.0) -> Path:
    merged = {"workloads": {
        name: run.merge_runs(*docs[name]) for name in WORKLOADS
    }}
    merged = json.loads(json.dumps(merged))  # deep copy
    for doc in merged["workloads"].values():
        doc["end_to_end"]["io_ratio"]["value"] *= scale
    path.write_text(json.dumps(merged))
    return path


def test_compare(docs, tmp_path, capsys):
    a = write_results(docs, tmp_path / "a.json")
    assert run.main(["--compare", str(a), str(a)]) == 0
    table = capsys.readouterr().out
    assert table.count(" ok") == len(WORKLOADS) * len(END_TO_END)
    assert table.count(" ungated") == len(WORKLOADS) * len(WALLS)
    worse = write_results(docs, tmp_path / "b.json", scale=1.5)
    assert run.main(["--compare", str(a), str(worse)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.main(["--compare", str(worse), str(a)]) == 0  # better is fine


def test_walls_are_first_quartiles_that_bursts_do_not_move():
    clean = [2.00, 2.05, 2.10, 2.15, 2.20]
    burst = [2.00, 2.05, 4.40, 5.10, 6.30]  # three of five reps hit
    assert run.quiet_wall(clean) == run.quiet_wall(burst) == 2.05
    assert run.quartiles([1.5]) == (1.5, 1.5, 1.5)
    q1, median, q3 = run.quartiles([1.0, 2.0])  # never beyond the samples
    assert 1.0 <= q1 < median == 1.5 < q3 <= 2.0
    e = run.entry("oocs.sort_wall_s", run.quiet_wall(burst), burst)
    assert e["value"] == e["q1"] and e["median"] == 4.40 and e["n"] == 5


def test_compare_flags_spread_counts_and_failures():
    metric = END_TO_END[1]  # io_ratio
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "n": 5, "samples": [1.0] * 5}
    noisy = {"value": 1.0, "q1": 0.8, "q3": 1.2, "n": 5,
             "samples": [0.7, 0.8, 1.0, 1.2, 1.3]}
    assert compare.verdict(metric, steady, steady)[0] == compare.OK
    assert compare.verdict(metric, steady, noisy)[0] == compare.UNRESOLVED
    faster = {**noisy, "value": 0.5, "samples": [0.4, 0.5, 0.6]}
    assert compare.verdict(metric, steady, faster)[0] == compare.OK
    row = {"failed": 0, "attempted": 3, "correct": True,
           "end_to_end": {m.name: steady for m in END_TO_END},
           "per_layer": {"disks.writes": {"value": 10},
                         **{w: steady for w in WALLS}}}
    other = {**row, "failed": 1,
             "per_layer": {**row["per_layer"], "disks.writes": {"value": 11}}}
    _rows, problems = compare.compare(
        {"workloads": {"w": row}}, {"workloads": {"w": other}})
    assert any("failed 1 of 3" in p for p in problems)
    assert any("disks.writes differs" in p for p in problems)


@pytest.fixture
def reduced_cli(monkeypatch, tmp_path):
    """``run.main`` for one reduced workload, one run in this process."""
    monkeypatch.setattr(
        run, "WORKLOADS", {n: w.reduced() for n, w in WORKLOADS.items()})

    def call(name="subblock-beyond-bound"):
        return run.main([
            "--workload", name, "--trace", "0", "--seconds", "0",
            "--scratch", str(tmp_path / "scratch"),
            "--out", str(tmp_path / "run.json"),
        ])

    call.doc = lambda: json.loads((tmp_path / "run.json").read_text())
    return call


def test_result_line_is_the_contract(reduced_cli, capsys):
    assert reduced_cli() == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 3 * run.MIN_REPS
    assert set(last["metrics"]) == {m.name for m in END_TO_END}
    for value in last["metrics"].values():
        assert set(value) == {"value", "unit"}
    fingerprint = reduced_cli.doc()["fingerprint"]
    assert {"cpu_count", "platform", "python", "numpy", "checksum_algo",
            "git_sha", "scratch_fs", "seed", "run_seconds"} <= set(fingerprint)


def test_corrupted_output_fails_the_run(reduced_cli, monkeypatch, capsys):
    from bench import protocol

    real_sort = protocol.sort_out_of_core
    calls = []

    def corrupting_sort(*args, workdir, **kwargs):
        result = real_sort(*args, workdir=workdir, **kwargs)
        calls.append(workdir)
        if len(calls) == 2:  # call 1 is the warm-up; this is the first rep
            victim = sorted(Path(workdir).glob("disk*/output.pdm*"))[0]
            data = bytearray(victim.read_bytes())
            data[len(data) // 2] ^= 0xFF
            victim.write_bytes(data)
        return result

    monkeypatch.setattr(protocol, "sort_out_of_core", corrupting_sort)
    assert reduced_cli() != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    doc = reduced_cli.doc()
    assert doc["failed_share"] == 1 / (3 * run.MIN_REPS)
    assert doc["reps"]["sort"] == run.MIN_REPS - 1  # a failed rep times nothing
    assert "rep.sort rep 0" in doc["failures"][0]


def test_io_identity_violation_fails_the_run(reduced_cli, monkeypatch):
    from bench import protocol

    real_baseline = protocol.run_baseline_io
    calls = []

    def short_baseline(*args, **kwargs):
        result = real_baseline(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:  # call 1 is the warm-up
            result.io["bytes_read"] -= RECORD_SIZE
        return result

    monkeypatch.setattr(protocol, "run_baseline_io", short_baseline)
    assert reduced_cli() != 0
    assert any("I/O identity" in line for line in reduced_cli.doc()["failures"])


@pytest.mark.parametrize("name", run.FORBIDDEN_ENV)
def test_second_code_paths_are_refused(reduced_cli, monkeypatch, name):
    monkeypatch.setenv(name, "1")
    assert reduced_cli() == 2


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "threaded-thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
