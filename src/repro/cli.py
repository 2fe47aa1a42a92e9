"""Command-line interface.

``repro-columnsort <command>`` (or ``python -m repro.cli``):

* ``figure2`` — regenerate the paper's Figure 2 from the calibrated model;
* ``report`` — Figure 2 plus every table and the claim checklist;
* ``bounds`` / ``crossover`` / ``msgcount`` / ``coverage`` — individual tables;
* ``sort`` — run a real (laptop-scale) out-of-core sort on the simulated
  cluster and verify the output (``--json`` for the machine-readable
  result schema);
* ``serve`` / ``client`` — the crash-safe sort-as-a-service daemon and
  its line-protocol client (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError
from repro.records.generators import generate


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import figure2_series, render_figure2

    print(render_figure2(figure2_series(record_size=args.record_size)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import full_report

    print(full_report())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    fn = {
        "bounds": tables.bounds_table,
        "crossover": tables.crossover_table,
        "msgcount": tables.msgcount_table,
        "coverage": tables.coverage_table,
    }[args.command]
    print(tables.render_table(fn()))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.simulate.hardware import BEOWULF_2003, MODERN_NVME
    from repro.simulate.predict import predict_seconds_per_gb

    hw = {"beowulf-2003": BEOWULF_2003, "modern-nvme": MODERN_NVME}[args.hardware]
    n = args.gb * 2**30 // args.record_size
    try:
        value = predict_seconds_per_gb(
            args.algorithm, n, args.processors, args.buffer_bytes,
            args.record_size, hw, passes=args.passes,
        )
    except Exception as exc:
        print(f"configuration not runnable: {exc}")
        return 1
    print(
        f"{args.algorithm} on {args.gb} GB, P={args.processors}, buffer "
        f"{args.buffer_bytes:,} B ({hw.name}): "
        f"{value:.1f} s per (GB/processor) — "
        f"{value * args.gb / args.processors:.1f} s total"
    )
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.oocs.api import SPEC_FIELDS, job_from_spec, run_job
    from repro.oocs.base import OocJob
    from repro.oocs.report import render_report, result_summary

    given = vars(args)
    spec = {name: given[name] for name in SPEC_FIELDS if name in given}
    if args.group_size is not None:
        spec["algorithm"] = "g"
    # Every other OocJob field the parser has, under its own name; the
    # policies and the cancel token are built from CLI-only inputs.
    run_fields = {
        f.name: given[f.name]
        for f in dataclasses.fields(OocJob)
        if f.name in given and f.name not in spec
    }
    if args.retries > 1:
        from repro.resilience import RetryPolicy

        run_fields["retry_policy"] = RetryPolicy(
            max_attempts=args.retries, seed=args.seed
        )
    if args.deadline is not None:
        from repro.governor import CancelToken

        run_fields["cancel"] = CancelToken(deadline_s=args.deadline)
    if args.max_restarts > 0:
        from repro.resilience import RestartPolicy

        run_fields["restart_policy"] = RestartPolicy(
            max_restarts=args.max_restarts,
            base_backoff_s=args.restart_backoff,
            seed=args.seed,
        )
    program, job = job_from_spec(spec, **run_fields)
    if args.mem_budget is not None:
        from repro.membuf import get_pool

        get_pool().set_budget(args.mem_budget)
    records = generate(args.workload, job.fmt, job.n, seed=args.seed)
    result = run_job(program, job, records, workdir=args.workdir)
    summary = result_summary(result, verified=True)
    print(
        json.dumps(summary, indent=2, sort_keys=True)
        if args.json
        else render_report(summary)
    )
    return 0


def _at_least(minimum: int):
    """argparse type for an integer field with a least legal value
    (NumPy rejects a negative ``--seed``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def _parse_tenant(spec: str):
    """``name=priority[:max_running[:max_queued]]`` → (name, TenantPolicy)."""
    from repro.service import TenantPolicy

    name, sep, rest = spec.partition("=")
    if not name or not sep:
        raise argparse.ArgumentTypeError(
            f"tenant spec {spec!r} is not name=priority[:max_running[:max_queued]]"
        )
    parts = rest.split(":")
    try:
        numbers = [int(part) for part in parts if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tenant spec {spec!r} has non-integer fields"
        ) from None
    defaults = TenantPolicy()
    priority = numbers[0] if len(numbers) > 0 else defaults.priority
    max_running = numbers[1] if len(numbers) > 1 else defaults.max_running
    max_queued = numbers[2] if len(numbers) > 2 else defaults.max_queued
    return name, TenantPolicy(
        max_running=max_running, max_queued=max_queued, priority=priority
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SortService

    restart_policy = None
    if args.max_restarts > 0:
        from repro.resilience import RestartPolicy

        restart_policy = RestartPolicy(max_restarts=args.max_restarts)
    log = (
        (lambda line: print(f"[serve] {line}", file=sys.stderr, flush=True))
        if args.verbose
        else None
    )
    service = SortService(
        root=args.root,
        socket_path=args.socket,
        workers=args.workers,
        max_concurrent=args.max_concurrent,
        mem_quota_bytes=args.mem_quota,
        scratch_quota_bytes=args.scratch_quota,
        tenants=dict(args.tenant or []),
        restart_policy=restart_policy,
        drain_timeout_s=args.drain_timeout,
        compact_min_bytes=args.compact_bytes if args.compact_bytes > 0 else None,
        compact_min_events=(
            args.compact_events if args.compact_events > 0 else None
        ),
        log=log,
    )
    service.start()
    service.install_signal_handlers()
    print(f"serving on {service.socket_path} (pid {service.health()['pid']})",
          flush=True)
    # Poll-wait so SIGTERM/SIGINT handlers run promptly on the main thread.
    while not service.stopped.wait(0.2):
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient

    with ServiceClient(
        args.socket, request_timeout_s=args.timeout, retries=args.retries
    ) as client:
        if args.op == "submit":
            spec = json.loads(args.spec) if args.spec else {}
            response = client.submit(spec, tenant=args.tenant, key=args.key)
            if args.wait:
                response = client.wait(response["job"], timeout_s=args.timeout)
        elif args.op in ("status", "result", "cancel"):
            if not args.job:
                print("error: --job is required for this op", file=sys.stderr)
                return 2
            response = getattr(client, args.op)(args.job)
        elif args.op == "health":
            response = client.health()
        else:  # drain
            response = client.drain(args.deadline)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.oocs.api import ALGORITHMS, SPEC_FIELDS
    from repro.service.protocol import OPS

    parser = argparse.ArgumentParser(
        prog="repro-columnsort",
        description="Out-of-core columnsort with relaxed problem-size bounds "
        "(Chaudhry, Hamon & Cormen, SPAA 2003) on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure2", help="regenerate the paper's Figure 2")
    fig.add_argument("--record-size", type=int, default=64)
    fig.set_defaults(fn=_cmd_figure2)

    rep = sub.add_parser("report", help="full experiment report")
    rep.set_defaults(fn=_cmd_report)

    for name, help_text in (
        ("bounds", "problem-size bound table"),
        ("crossover", "M vs subblock crossover table"),
        ("msgcount", "subblock-pass message counts"),
        ("coverage", "eligible problem sizes per algorithm"),
    ):
        t = sub.add_parser(name, help=help_text)
        t.set_defaults(fn=_cmd_table)

    srt = sub.add_parser("sort", help="run and verify a real out-of-core sort")
    # One option per job-spec field (the service's vocabulary); `sort`
    # always verifies.
    for name, (default, legal, help_text) in SPEC_FIELDS.items():
        if name == "verify":
            continue
        flags = ["--" + name.replace("_", "-")]
        if name == "processors":
            flags.append("-p")
        if isinstance(legal, tuple):
            srt.add_argument(*flags, default=default, choices=legal, help=help_text)
        else:
            srt.add_argument(
                *flags, default=default, help=help_text,
                type=int if legal is None else _at_least(legal),
            )
    srt.add_argument("--workdir", default=None)
    srt.add_argument(
        "--group-size", "-g", type=int, default=None,
        help="adjustable height interpretation: selects algorithm g "
             "(g-columnsort) with column height r = g·buffer; with "
             "--algorithm g alone, g is the smallest feasible",
    )
    srt.add_argument(
        "--checkpoint-dir", default=None,
        help="persist a pass-boundary checkpoint manifest here after every "
             "completed pass (enables --resume)",
    )
    srt.add_argument(
        "--keep-checkpoints", action="store_true",
        help="keep the --checkpoint-dir manifests after a successful run "
             "(default: a success prunes them — checkpoints exist to "
             "survive failures)",
    )
    srt.add_argument(
        "--json", action="store_true",
        help="print a machine-readable result summary (the same "
             "repro.sort-result/1 schema the service daemon returns) "
             "instead of the human report",
    )
    srt.add_argument(
        "--resume", action="store_true",
        help="restart after the last completed pass recorded in "
             "--checkpoint-dir (requires --workdir so scratch files "
             "survived the kill); output is byte-identical to an "
             "uninterrupted run",
    )
    srt.add_argument(
        "--retries", type=int, default=1,
        help="max attempts per disk/comm operation (1 = no retry); "
             "transient faults are retried with seeded exponential backoff",
    )
    srt.add_argument(
        "--audit", action="store_true",
        help="verify sampled columnsort invariants of every pass's output "
             "at the pass boundary, before its checkpoint is trusted",
    )
    srt.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for the whole sort; on expiry every rank "
             "unwinds within one poll interval into DeadlineExceeded, and "
             "the last pass-boundary checkpoint stays valid for --resume",
    )
    srt.add_argument(
        "--mem-budget", type=int, default=None, metavar="BYTES",
        help="byte ceiling on the buffer pool's reservations: a run whose "
             "declared buffers do not fit fails before it starts",
    )
    srt.add_argument(
        "--max-restarts", type=int, default=0, metavar="N",
        help="supervised recovery: automatically relaunch the run up to N "
             "times from its last pass-boundary checkpoint when a rank "
             "dies or hangs (0 = off); fatal classes — cancellation, "
             "admission, budget, corruption — never restart",
    )
    srt.add_argument(
        "--restart-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base backoff before the first supervised restart (doubles "
             "per restart, seeded jitter; only with --max-restarts)",
    )
    srt.set_defaults(fn=_cmd_sort)

    prd = sub.add_parser(
        "predict", help="predicted runtime for a configuration (no data moved)"
    )
    prd.add_argument(
        "--algorithm",
        choices=(*ALGORITHMS, "baseline-io"),
        default="threaded",
    )
    prd.add_argument("--gb", type=int, default=4, help="total data, GB")
    prd.add_argument("--processors", "-p", type=int, default=4)
    prd.add_argument("--buffer-bytes", type=int, default=2**25)
    prd.add_argument("--record-size", type=int, default=64)
    prd.add_argument("--passes", type=int, default=3,
                     help="baseline-io pass count")
    prd.add_argument(
        "--hardware", choices=("beowulf-2003", "modern-nvme"),
        default="beowulf-2003",
    )
    prd.set_defaults(fn=_cmd_predict)

    srv = sub.add_parser(
        "serve",
        help="run the sort-as-a-service daemon (crash-safe job journal, "
             "per-tenant quotas, graceful drain on SIGTERM)",
    )
    srv.add_argument("--root", required=True,
                     help="service root: journal, lock, and per-job dirs")
    srv.add_argument("--socket", default=None,
                     help="unix socket path (default: <root>/service.sock)")
    srv.add_argument("--workers", type=int, default=2,
                     help="executor threads (concurrent jobs)")
    srv.add_argument("--max-concurrent", type=int, default=None,
                     help="governor concurrency cap (default: --workers)")
    srv.add_argument("--mem-quota", type=int, default=None, metavar="BYTES",
                     help="governor memory quota over running jobs")
    srv.add_argument("--scratch-quota", type=int, default=None, metavar="BYTES",
                     help="governor scratch quota over running jobs")
    srv.add_argument(
        "--tenant", action="append", type=_parse_tenant, metavar="SPEC",
        help="per-tenant policy, name=priority[:max_running[:max_queued]] "
             "(repeatable; unnamed tenants get the defaults)",
    )
    srv.add_argument("--max-restarts", type=int, default=2, metavar="N",
                     help="supervised in-run recovery per job (0 = off)")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="SIGTERM drain deadline before in-flight jobs are "
                          "checkpoint-interrupted for the next start to resume")
    srv.add_argument("--compact-bytes", type=int, default=1 << 20,
                     metavar="BYTES",
                     help="compact the journal on boot once it exceeds this "
                          "size (0 = never by size)")
    srv.add_argument("--compact-events", type=int, default=4096, metavar="N",
                     help="compact the journal on boot once replay exceeds "
                          "this many events (0 = never by count)")
    srv.add_argument("--verbose", action="store_true",
                     help="log job lifecycle events to stderr")
    srv.set_defaults(fn=_cmd_serve)

    cli = sub.add_parser(
        "client", help="talk to a running serve daemon (JSON in, JSON out)"
    )
    cli.add_argument("op", choices=OPS)
    cli.add_argument("--socket", required=True, help="daemon socket path")
    cli.add_argument("--job", default=None, help="job id (status/result/cancel)")
    cli.add_argument("--spec", default=None,
                     help="submit: job spec as a JSON object (sort-CLI "
                          "vocabulary: algorithm, records, buffer, ...)")
    cli.add_argument("--tenant", default="default", help="submit: tenant name")
    cli.add_argument("--key", default=None,
                     help="submit: idempotency key (default: generated)")
    cli.add_argument("--wait", action="store_true",
                     help="submit: block until the job finishes and print "
                          "its final record")
    cli.add_argument("--deadline", type=float, default=None,
                     help="drain: seconds to let in-flight jobs finish")
    cli.add_argument("--timeout", type=float, default=300.0,
                     help="request timeout seconds")
    cli.add_argument("--retries", type=int, default=5,
                     help="transport retries (exponential backoff reconnect)")
    cli.set_defaults(fn=_cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import DimensionError, GovernorError, ServiceError, SpmdError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        GovernorError, SpmdError, ServiceError, ConfigError, DimensionError
    ) as exc:
        # An orderly outcome, not a crash: a bad shape or setting, a
        # refused service call, a run its governance stopped (a cancel
        # or deadline, whose last pass-boundary checkpoint is valid for
        # --resume, or a memory budget below its reservation), or a
        # rank that failed — named with its cause.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
