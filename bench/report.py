"""What surrounds the numbers: the machine fingerprint, the stage-vs-probe
model table, and the printed summary."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

from bench.metrics import BY_NAME
from bench.workloads import P, Workload


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix in
    /proc/mounts)."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if (
                    (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/"))
                    and len(mount) > len(best)
                ):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' (the driver's checkout is not a
    git repository)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(root: Path, scratch: Path, seed: int, seconds: float) -> dict:
    import numpy
    from repro.durability.hashing import CHECKSUM_ALGO

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # crc32c vs the zlib.crc32 fallback changes every disk number
        "checksum_algo": CHECKSUM_ALGO,
        "git_sha": git_sha(root),
        "scratch": str(scratch),
        "scratch_fs": fs_type(scratch),
        "seed": seed,
        "run_seconds": seconds,
    }


def model_rows(wl: Workload, v: dict) -> list[dict]:
    """The traced run's stage seconds beside what the probes predict.

    Predictions are computed, not measured: per-rank work (the stage
    clock is rank 0's) at the probe's isolated rate, no overlap, no GIL
    contention. The remainder is ungated; it is the next issue's to-do
    list.
    """

    def row(stage, measured_key, predict, formula):
        measured = v.get(measured_key)
        try:
            predicted = predict()
        except (TypeError, ZeroDivisionError):  # a probe reported null
            predicted = None
        both = measured is not None and predicted is not None
        return {
            "stage": stage,
            "measured_s": measured,
            "predicted_s": predicted,
            "remainder_s": measured - predicted if both else None,
            "formula": formula,
        }

    rows = [
        row("write_wait", "oocs.stage.write_wait_s",
            lambda: v["disks.writes"] / P * v["disks.write_seg_us"] / 1e6,
            "disks.writes / P x disks.write_seg_us"),
        row("read_wait", "oocs.stage.read_wait_s",
            lambda: v["disks.bytes_read"] / P / (v["disks.read_col_mbps"] * 1e6),
            "disks.bytes_read / P / disks.read_col_mbps"),
    ]
    if wl.algorithm == "m":
        # Column sorts and collectives run inside the incore stage:
        # s + s + (2s - 1) distributed sorts over the three passes.
        rows.append(row(
            "incore", "oocs.stage.incore_s",
            lambda: (4 * wl.columns - 1) * wl.column_records
            / (v["oocs.incore.dist_sort_mrps"] * 1e6),
            "(4s - 1) x M / oocs.incore.dist_sort_mrps"))
    else:
        rows.append(row(
            "compute", "oocs.stage.compute_s",
            lambda: wl.passes * wl.n / P / (v["records.sort_mrps"] * 1e6),
            "passes x N / P / records.sort_mrps"))
        rows.append(row(
            "comm", "oocs.stage.comm_s",
            lambda: v["cluster.network_bytes"] * P / (P - 1)
            / (v["cluster.alltoallv_mbps"] * 1e6),
            "cluster.network_bytes x P/(P-1) / cluster.alltoallv_mbps"))
    rows.append(row("unattributed", "oocs.unattributed_s",
                    lambda: v["oocs.tiny_sort_s"], "oocs.tiny_sort_s"))
    return rows


def print_metric(name: str, entry: dict) -> None:
    value = entry["value"]
    shown = "null" if value is None else f"{value:.6g}"
    extra = ""
    if entry.get("n", 1) > 1:
        extra = (f"  [q1 {entry['q1']:.6g}  median {entry['median']:.6g}  "
                 f"q3 {entry['q3']:.6g}, n={entry['n']}]")
    if entry.get("reason"):
        extra = f"  ({entry['reason']})"
    print(f"  {name:34s} {shown:>14s} {BY_NAME[name].unit}{extra}")


def print_model(rows: list[dict], traced_wall: float) -> None:
    def fmt(x):
        return "     n/a" if x is None else f"{x:8.3f}"

    print("  stage          measured_s predicted_s remainder_s  predicted as")
    for r in rows:
        print(f"  {r['stage']:13s} {fmt(r['measured_s'])}    {fmt(r['predicted_s'])}"
              f"    {fmt(r['remainder_s'])}  {r['formula']}")
    predicted = sum(r["predicted_s"] or 0.0 for r in rows)
    print(f"  {'total':13s} {fmt(traced_wall)}    {fmt(predicted)}"
          f"    {fmt(traced_wall - predicted)}  (traced wall; ungated)")
