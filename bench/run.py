#!/usr/bin/env python3
"""The repo's one benchmark command.

    python3 bench/run.py                       all four workloads -> results file
    python3 bench/run.py --workload W          one workload, untraced + traced
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
                                               one run in this process (the
                                               driver's contract); last stdout
                                               line is the result JSON
    python3 bench/run.py --compare A.json B.json

See bench/README.md for the metrics, the workloads and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    # As a script sys.path[0] is bench/, where trace.py would shadow the
    # stdlib's; import the files as the `bench` package instead.
    sys.path[0] = str(ROOT)
if str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))

from bench.metrics import BY_NAME, END_TO_END, PER_LAYER, WALLS  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import RECORD_SIZE, WORKLOADS, Workload  # noqa: E402

#: These select second code paths; the benchmark measures the shipped default.
FORBIDDEN_ENV = ("REPRO_LEGACY_COPIES", "REPRO_SHM_ARENA", "REPRO_MMAP_READS")
MIN_REPS = 3
#: A traced run spends this share of its seconds on untraced reps (for
#: bench.trace_overhead_x); the rest is the traced sort and the probes.
TRACED_REP_SHARE = 0.4
TRACED_MIN_REPS = 2
IMPORT_REPLICAS = 4
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t0)"
)


def contract_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json: what the driver passes."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["run_seconds"]


def timed_import() -> float:
    """Wall of ``import repro`` (NumPy included: nothing has imported it
    yet in a fresh interpreter)."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - t0


def import_replicas() -> list[float]:
    """``import repro`` again in fresh interpreters, so that setup_s is
    a median and not one reading. Run after ru_maxrss is read: a waited-for
    child would otherwise set the children's peak on the thread backend."""
    walls = []
    for _ in range(IMPORT_REPLICAS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        walls.append(float(out.stdout))
    return walls


def quartiles(samples) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the samples and never
    beyond them; one sample is all three."""
    if len(samples) < 2:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def quiet_wall(samples) -> float:
    """The first quartile of a run's walls: what oocs.sort_wall_s and
    oocs.baseline_wall_s report and io_ratio divides. Other tenants of a shared host only ever add
    time, in bursts that hit a third of the reps by +30 % and more, and a
    median over the 4-7 sort reps a run has room for follows them (README,
    "Steadiness"); the first quartile stays put while two reps are clean."""
    return quartiles(samples)[0]


def entry(name: str, value, samples=None, **extra) -> dict:
    """One metric of a run document; with reps, their quartiles too."""
    out = {"value": value, "unit": BY_NAME[name].unit, **extra}
    if samples and len(samples) > 1:
        q1, median, q3 = quartiles(samples)
        out.update(q1=q1, median=median, q3=q3, n=len(samples),
                   samples=list(samples))
    return out


def measure(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch_base: Path | None,
    out_dir: Path,
    min_reps: int | None = None,
) -> dict:
    """Run the protocol for one workload in this process; returns the
    run document (see README, "results file")."""
    tracer = Tracer(wl.name, enabled=trace)
    with tracer.span("setup.import"):
        import_s = [timed_import()]
    from bench import probes, protocol, report

    session = protocol.Session(wl, seed)
    shm_before = protocol.shm_segments()
    protocol.setup(session, scratch_base, ROOT / ".bench_scratch", tracer)
    layer: dict = {}
    reasons: dict = {}
    model, traced_wall = [], None
    try:
        protocol.warm_up(session, tracer)
        if min_reps is None:
            min_reps = TRACED_MIN_REPS if trace else MIN_REPS
        protocol.timed_reps(
            session, tracer,
            seconds * TRACED_REP_SHARE if trace else seconds, min_reps,
        )
        if not (session.sort_s and session.baseline_s):
            raise SystemExit(
                "no rep succeeded:\n  " + "\n  ".join(session.failures)
            )
        protocol.read_peak_rss(session)
        if trace:
            layer, traced_wall = protocol.traced_run(session, tracer)
            probed, reasons = probes.run_probes(session, tracer)
            layer.update(probed)
        protocol.check_hygiene(session, shm_before)
    finally:
        protocol.teardown(session)
    import_s += import_replicas()

    sort_wall = quiet_wall(session.sort_s)
    base_wall = quiet_wall(session.baseline_s)
    generate_med = statistics.median(session.generate_s)
    ratios = None  # per rep: the sort over the mean of its two baselines
    if len(session.baseline_s) == 2 * len(session.sort_s):
        pairs = zip(session.baseline_s[::2], session.baseline_s[1::2])
        ratios = [s / ((a + b) / 2) for s, (a, b) in zip(session.sort_s, pairs)]
    walls = {
        "oocs.sort_wall_s": entry("oocs.sort_wall_s", sort_wall, session.sort_s),
        "oocs.baseline_wall_s": entry(
            "oocs.baseline_wall_s", base_wall, session.baseline_s),
    }
    end_to_end = {
        "setup_s": entry(
            "setup_s",
            statistics.median(import_s) + generate_med + session.scratch_s,
            parts={"import_s": import_s, "generate_s": session.generate_s,
                   "scratch_s": session.scratch_s},
        ),
        "io_ratio": entry("io_ratio", sort_wall / base_wall, ratios),
        "peak_rss_mb": entry(
            "peak_rss_mb", session.rss_self_mb + session.rss_children_mb,
            parts={"self_mb": session.rss_self_mb,
                   "children_mb": session.rss_children_mb},
        ),
    }
    per_layer = {}
    if trace:
        layer["records.generate_mrps"] = wl.n / generate_med / 1e6
        layer["oocs.verify_s"] = statistics.median(session.verify_s)
        layer["bench.warmup_s"] = session.warmup_s
        samples = {"oocs.verify_s": session.verify_s}
        for metric in PER_LAYER:
            name = metric.name
            if name in walls:
                per_layer[name] = walls[name]
                continue
            extra = {"reason": reasons[name]} if name in reasons else {}
            per_layer[name] = entry(name, layer[name], samples.get(name), **extra)
        model = report.model_rows(wl, layer)
        tracer.write_chrome(out_dir / f"trace-{wl.name}.json")

    failed = len(session.failures)
    spans = tracer.self_times()
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": session.attempted,
        "failed": failed,
        "failed_share": failed / session.attempted,
        "correct": failed == 0 and not session.hygiene,
        "failures": session.failures,
        "hygiene": session.hygiene,
        "reps": {"sort": len(session.sort_s), "baseline": len(session.baseline_s)},
        "input_mib": wl.n * RECORD_SIZE / 2**20,
        "records_per_s": wl.n / sort_wall,
        "mb_per_s": wl.n * RECORD_SIZE / sort_wall / 1e6,
        "end_to_end": end_to_end,
        "walls": walls,
        "per_layer": per_layer,
        "model": model,
        "traced_wall_s": traced_wall,
        "span_self_s": {name: total for name, (_n, total) in spans.items()},
        "span_counts": {name: n for name, (n, _total) in spans.items()},
        "fingerprint": report.fingerprint(
            ROOT, session.scratch_base, seed, seconds
        ),
    }


def print_run(doc: dict) -> None:
    from bench import report

    print(f"== {doc['workload']}  seed {doc['seed']}  "
          f"{'traced' if doc['trace'] else 'untraced'}  "
          f"reps sort/baseline {doc['reps']['sort']}/{doc['reps']['baseline']}  "
          f"input {doc['input_mib']:.0f} MiB  scratch "
          f"{doc['fingerprint']['scratch_fs']}")
    print(" end to end" + (" (from the traced run's few reps; ungated)"
                           if doc["trace"] else ""))
    for name, e in doc["end_to_end"].items():
        report.print_metric(name, e)
    print(f"  {'failed_share':34s} {doc['failed_share']:>14.6g} share"
          f"  [{doc['failed']} of {doc['attempted']} timed operations]")
    print(" walls (ungated: host weather moves them 1.4-2x)")
    for name, e in doc["walls"].items():
        report.print_metric(name, e)
    print(f"  (derived: {doc['records_per_s']:.4g} records/s, "
          f"{doc['mb_per_s']:.4g} MB/s sorted)")
    if doc["trace"]:
        print(" per layer")
        for name, e in doc["per_layer"].items():
            report.print_metric(name, e)
        print(" stage seconds of the traced run vs what the probes predict")
        report.print_model(doc["model"], doc["traced_wall_s"])
        print(" self time per span name")
        for name, total in sorted(doc["span_self_s"].items()):
            print(f"  {name:44s} {total:9.4f} s  x{doc['span_counts'][name]}")
    for line in doc["failures"] + doc["hygiene"]:
        print(f" FAILED {line}")


def single_run(args) -> int:
    """The driver's contract: one workload, one process, result JSON as
    the last stdout line."""
    out_dir = Path(args.out).parent if args.out else ROOT / ".bench_out"
    doc = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        Path(args.scratch) if args.scratch else None, out_dir,
    )
    print_run(doc)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1))
    chosen = doc["per_layer"] if args.trace else doc["end_to_end"]
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": e["value"], "unit": e["unit"]}
            for name, e in chosen.items()
        },
    }))
    return 0 if doc["correct"] else 1


def merge_runs(untraced: dict, traced: dict) -> dict:
    """One workload's row of the results file: end-to-end numbers from
    the untraced run, the ledger from the traced one."""
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return {
        **untraced,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        # the walls from the run with the most reps
        "per_layer": {**traced["per_layer"], **untraced["walls"]},
        "model": traced["model"],
        "traced_wall_s": traced["traced_wall_s"],
        "span_self_s": traced["span_self_s"],
        "span_counts": traced["span_counts"],
        "correct": untraced["correct"] and traced["correct"],
        "failures": untraced["failures"] + traced["failures"],
        "hygiene": untraced["hygiene"] + traced["hygiene"],
    }


def run_all(args) -> int:
    """Each workload in its own fresh subprocesses (untraced, then
    traced), one after another; merge into one results file."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = Path(args.out) if args.out else (
        ROOT / ".bench_out" / f"results-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    merged: dict = {"workloads": {}}
    status = 0
    for name in names:
        docs = []
        for trace in (0, 1):
            part = out.parent / f".run-{name}-{trace}.json"
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(part)]
                + (["--scratch", args.scratch] if args.scratch else []),
            ).returncode
            status = status or code
            if part.exists():
                docs.append(json.loads(part.read_text()))
                part.unlink()
        if len(docs) < 2:
            print(f"{name}: a run produced no result", file=sys.stderr)
            status = status or 1
            continue
        merged.setdefault("fingerprint", docs[0]["fingerprint"])
        merged["workloads"][name] = merge_runs(*docs)
    out.write_text(json.dumps(merged, indent=1))
    print(f"\n== this machine's seed row (seed {args.seed}) -> {out}")
    shown = {m.name: "end_to_end" for m in END_TO_END}
    shown.update({name: "walls" for name in WALLS})
    print(f"{'workload':24s} " + " ".join(f"{n.split('.')[-1]:>15s}" for n in shown)
          + "  failed")
    for name, doc in merged["workloads"].items():
        print(f"{name:24s} " + " ".join(
            f"{doc[group][n]['value']:15.4g}" for n, group in shown.items()
        ) + f"  {doc['failed']}/{doc['attempted']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 = end-to-end "
                             "metrics, 1 = traced run + layer probes")
    parser.add_argument("--scratch",
                        help="scratch root (default: /dev/shm/oocs-bench "
                             "when tmpfs is there, else .bench_scratch/ in "
                             "the checkout); removed when the run ends")
    parser.add_argument("--out", help="results file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from bench import compare

        return compare.main(*args.compare)
    set_env = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_env:
        print(f"refusing to run with {set_env} set: they select second code "
              "paths, and the benchmark measures the shipped default",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract_seconds()
    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
