"""The command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.disks.matrixfile import ColumnStore
from repro.errors import DiskError
from repro.membuf import get_pool


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("figure2", "report", "bounds", "crossover", "msgcount",
                    "coverage", "sort"):
            args = parser.parse_args([cmd] if cmd != "sort" else ["sort"])
            assert args.command == cmd

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.algorithm == "threaded"
        assert args.records == 8192
        assert args.buffer == 512

    def test_negative_seed_is_a_usage_error(self):
        """NumPy refuses a negative seed; the parser says so first."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--seed", "-1"])

    def test_sort_defaults_are_the_service_spec_defaults(self):
        """One default table: the ten fields a daemon job spec shares
        with ``sort`` default to SPEC_FIELDS, not to a restatement."""
        from repro.oocs.api import SPEC_FIELDS
        from repro.service.protocol import validate_spec

        args = vars(build_parser().parse_args(["sort"]))
        shared = set(SPEC_FIELDS) & set(args)
        assert shared == set(SPEC_FIELDS) - {"verify"}
        defaults = validate_spec({})
        assert {k: args[k] for k in shared} == {k: defaults[k] for k in shared}


class TestCommands:
    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "M-columnsort" in out and "Baseline I/O" in out

    def test_tables(self, capsys):
        for cmd, marker in (
            ("bounds", "subblock"),
            ("crossover", "32·P^10" if False else "crossover"),
            ("msgcount", "messages/round"),
            ("coverage", "eligible sizes"),
        ):
            assert main([cmd]) == 0
            assert marker in capsys.readouterr().out

    def test_sort_threaded(self, capsys, tmp_path):
        rc = main([
            "sort", "--records", "2048", "--buffer", "256", "-p", "2",
            "--workdir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "3 passes" in out

    def test_sort_subblock_below_basic_bound(self, capsys, tmp_path):
        rc = main([
            "sort", "--algorithm", "subblock", "--records", "4096",
            "--buffer", "256", "-p", "4", "--workload", "duplicates",
            "--workdir", str(tmp_path),
        ])
        assert rc == 0
        assert "4 passes" in capsys.readouterr().out

    def test_sort_m(self, capsys, tmp_path):
        rc = main([
            "sort", "--algorithm", "m", "--records", "16384",
            "--buffer", "256", "-p", "4", "--workdir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 passes" in out and "network" in out


class TestBadShape:
    """An illegal shape is the user's mistake, not a crash: one
    ``error:`` line on stderr and exit status 1, no traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["--records", "1000"], "N must be a power of 2"),
        (["--buffer", "0"], "must be a power of 2"),
        (["--algorithm", "subblock", "--records", "4096", "--buffer", "64"],
         "relaxed height restriction violated"),
        # --buffer sets mem_per_proc to twice its value; a bad one is
        # still named as the buffer, with the value the user gave.
        (["--buffer", "3"], "error: buffer must be a power of 2 records, got 3"),
        (["--buffer", "96"], "error: buffer must be a power of 2 records, got 96"),
    ])
    def test_sort_reports_a_bad_shape_in_one_line(self, capsys, argv, message):
        assert main(["sort", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestFailedRun:
    """A run that fails is one ``error:`` line naming what failed and
    exit status 1, no traceback."""

    def test_a_budget_below_the_reservation_fails_before_any_rank(self, capsys):
        try:
            rc = main(["sort", "--records", "2048", "--buffer", "256", "-p", "2",
                       "--mem-budget", "1000"])
        finally:
            get_pool().set_budget(None)  # the CLI's budget is process-wide
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: buffer-pool budget exceeded")
        assert "reserved buffers" in err and err.count("\n") == 1

    def test_a_failure_inside_a_rank_names_the_rank(self, capsys, monkeypatch):
        def refuse(store, rank, segments):
            raise DiskError(f"injected write failure on rank {rank}")

        monkeypatch.setattr(ColumnStore, "append_segments", refuse)
        rc = main(["sort", "--records", "2048", "--buffer", "256", "-p", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.match(r"error: rank \d failed: DiskError\(", err)
        assert "injected write failure" in err and err.count("\n") == 1


class TestCopyStats:
    """Plain ``sort`` renders ``OocResult.copy`` (the README's example
    run): copies and pool on every backend, the arena on the process
    backend only."""

    ARGS = ["sort", "--algorithm", "subblock", "--records", "4096",
            "--buffer", "256", "-p", "2"]
    COPIES = r"  copies: [\d,]+ B copied / [\d,]+ B zero-copy \(\d+\.\d% copied\)"
    POOL = r"  pool: \d+ hits, \d+ misses, peak \d+ leases outstanding"
    ARENA = (r"  arena: \d+ slab reuses / \d+ creates \(\d+\.\d% hit\), "
             r"\d+ attaches, [\d,]+ B landed zero-extra-copy")

    def _report(self, capsys, tmp_path, backend):
        rc = main(self.ARGS + ["--backend", backend, "--workdir", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        return {line.split(":")[0].strip(): line for line in lines[1:]}

    def test_thread_backend_prints_copies_and_pool(self, capsys, tmp_path):
        lines = self._report(capsys, tmp_path, "thread")
        assert re.fullmatch(self.COPIES, lines["copies"])
        assert re.fullmatch(self.POOL, lines["pool"])
        assert "arena" not in lines  # no shared-memory segments

    def test_process_backend_adds_the_arena_line(self, capsys, tmp_path):
        lines = self._report(capsys, tmp_path, "process")
        assert re.fullmatch(self.COPIES, lines["copies"])
        assert re.fullmatch(self.ARENA, lines["arena"])


class TestDurabilityReport:
    """Plain ``sort`` prints the checksums of every run — block CRCs
    are always on — and the audit when audited."""

    ARGS = ["sort", "--records", "2048", "--buffer", "256", "-p", "2"]
    CHECKSUMS = (r"  checksums: ([\d,]+) bytes hashed \(\w+ over writes \+ "
                 r"read verification\), ([\d,]+) extents verified in "
                 r"([\d,]+) reads, (\d+) failures")
    AUDIT = r"  audit: (\d+) audited passes, \d+ sampled units verified"

    def _rows(self, capsys, argv) -> dict:
        assert main(self.ARGS + argv) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            if match := re.fullmatch(self.CHECKSUMS, line):
                rows["bytes hashed"] = int(match[1].replace(",", ""))
                rows["extents verified"] = int(match[2].replace(",", ""))
                rows["reads"] = int(match[3].replace(",", ""))
                rows["checksum failures"] = int(match[4])
            if match := re.fullmatch(self.AUDIT, line):
                rows["audited passes"] = int(match[1])
        return rows

    def test_without_audit_reports_the_checksums(self, capsys, tmp_path):
        rows = self._rows(capsys, ["--workdir", str(tmp_path)])
        # each of the 3 passes hashes what it writes and verifies what
        # it reads: 2 x 3 x N x 64 B; each reads s = 8 columns, each
        # column one verified extent
        assert rows == {"bytes hashed": 2 * 3 * 2048 * 64,
                        "extents verified": 3 * 8, "reads": 3 * 8,
                        "checksum failures": 0}

    def test_audit_adds_the_audited_passes(self, capsys, tmp_path):
        rows = self._rows(capsys, ["--workdir", str(tmp_path), "--audit"])
        assert rows["audited passes"] == 3
        assert rows["checksum failures"] == 0

    def test_byte_counts_print_in_full(self, capsys, tmp_path):
        """Counts of 2^20 and more print exactly, not as ``2^k`` or in
        e-notation: 4 passes hash 2 x 4 x N x 64 B = 2^21, and the
        audit's 8 sampled units 114,688 B more."""
        argv = ["--algorithm", "subblock", "--records", "4096", "--audit",
                "--workdir", str(tmp_path)]
        rows = self._rows(capsys, argv)
        assert rows["bytes hashed"] == 2_211_840
        assert rows["audited passes"] == 4


class TestJsonOutput:
    def test_sort_json_emits_result_schema(self, capsys, tmp_path):
        import json

        rc = main([
            "sort", "--records", "2048", "--buffer", "256", "-p", "2",
            "--workdir", str(tmp_path), "--json",
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.sort-result/1"
        assert summary["verified"] is True
        assert summary["n"] == 2048
        assert summary["passes"] == 3
        assert len(summary["output_digest"]) == 64
        assert summary["digest_algo"]

    def test_sort_json_digest_is_deterministic(self, capsys, tmp_path):
        import json

        digests = []
        for sub in ("a", "b"):
            rc = main([
                "sort", "--records", "2048", "--buffer", "256", "-p", "2",
                "--workdir", str(tmp_path / sub), "--json",
            ])
            assert rc == 0
            digests.append(json.loads(capsys.readouterr().out)["output_digest"])
        assert digests[0] == digests[1]

    def test_streamed_digest_is_the_whole_output_digest(self, tmp_path):
        """``output_digest`` hashes a PDM output chunk by chunk; the
        digest is the one of the whole output's bytes (16 MiB here,
        four chunks)."""
        from repro.cluster.config import ClusterConfig
        from repro.durability.hashing import hexdigest
        from repro.oocs.api import sort_out_of_core
        from repro.oocs.report import output_digest
        from repro.records import RecordFormat, generate

        fmt = RecordFormat("u8", 64)
        records = generate("uniform", fmt, 1 << 18, seed=9)
        result = sort_out_of_core(
            "threaded", records, ClusterConfig(p=2, mem_per_proc=2**14), fmt,
            buffer_records=8192, workdir=tmp_path, verify=False,
        )
        chunks = list(result.output.chunks())
        assert len(chunks) >= 3
        whole = hexdigest(result.output.read_all().tobytes())
        assert output_digest(result) == whole


class TestGroupSize:
    """``--group-size`` selects algorithm g and nothing else: every other
    ``sort`` flag keeps its effect (the pre-runner special case dropped
    them all silently)."""

    ARGS = ["sort", "--records", "8192", "--buffer", "512", "-p", "4",
            "--group-size", "2"]

    def test_other_flags_take_effect(self, capsys, tmp_path):
        import json

        rc = main(self.ARGS + [
            "--backend", "process", "--pipeline-depth", "2",
            "--workdir", str(tmp_path), "--json",
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["algorithm"] == "g-columnsort(g=2)"
        assert summary["backend"] == "process"
        assert summary["pipeline_depth"] == 2
        assert summary["stage_wall_s"]
        assert summary["comm"]["retries"] == 0


class TestCheckpointFlags:
    def test_sort_prunes_checkpoints_by_default(self, capsys, tmp_path):
        ckdir = tmp_path / "ck"
        rc = main([
            "sort", "--records", "2048", "--buffer", "256", "-p", "2",
            "--workdir", str(tmp_path / "w"), "--checkpoint-dir", str(ckdir),
        ])
        assert rc == 0
        assert not ckdir.exists()

    def test_keep_checkpoints_flag(self, capsys, tmp_path):
        ckdir = tmp_path / "ck"
        rc = main([
            "sort", "--records", "2048", "--buffer", "256", "-p", "2",
            "--workdir", str(tmp_path / "w"), "--checkpoint-dir", str(ckdir),
            "--keep-checkpoints",
        ])
        assert rc == 0
        assert list(ckdir.glob("pass_*.json"))


class TestGovernanceFlags:
    """``--deadline`` arms the run's cancel token and ``--mem-budget``
    sets the buffer pool's budget: the one way each is set."""

    ARGS = ["sort", "--records", "2048", "--buffer", "256", "-p", "2"]

    def test_expired_deadline_exits_1(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--workdir", str(tmp_path), "--deadline", "1e-6"])
        assert rc == 1
        assert "deadline" in capsys.readouterr().err

    def test_mem_budget_reaches_the_governance_report(self, capsys, tmp_path):
        from repro.membuf import get_pool

        try:
            rc = main(self.ARGS + [
                "--workdir", str(tmp_path), "--mem-budget", "268435456",
            ])
        finally:
            get_pool().set_budget(None)
        assert rc == 0
        assert "budget 268,435,456 B" in capsys.readouterr().out

class TestServiceCommands:
    def test_serve_parser(self):
        args = build_parser().parse_args([
            "serve", "--root", "/tmp/x", "--workers", "3",
            "--tenant", "vip=10:4:32", "--tenant", "batch=0",
        ])
        assert args.workers == 3
        tenants = dict(args.tenant)
        assert tenants["vip"].priority == 10
        assert tenants["vip"].max_running == 4
        assert tenants["vip"].max_queued == 32
        assert tenants["batch"].priority == 0

    def test_serve_rejects_bad_tenant_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--root", "/tmp/x",
                                       "--tenant", "no-equals-sign"])

    def test_client_parser(self):
        args = build_parser().parse_args([
            "client", "submit", "--socket", "/tmp/s.sock",
            "--spec", '{"records": 4096}', "--wait",
        ])
        assert args.op == "submit" and args.wait

    def test_client_requires_job_for_status(self, capsys):
        rc = main(["client", "status", "--socket", "/tmp/nonexistent.sock"])
        assert rc == 2
        assert "--job is required" in capsys.readouterr().err

    def test_client_unreachable_daemon_is_structured_error(self, capsys):
        rc = main([
            "client", "health", "--socket", "/tmp/definitely-not-there.sock",
            "--retries", "0", "--timeout", "1",
        ])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().err

    def test_serve_and_client_round_trip(self, capsys):
        import json
        import tempfile
        import threading

        from repro.service import SortService

        with tempfile.TemporaryDirectory(prefix="svc-", dir="/tmp") as root:
            service = SortService(root, workers=1)
            service.start()
            try:
                sock = str(service.socket_path)
                rc = main([
                    "client", "submit", "--socket", sock,
                    "--spec", '{"records": 4096, "buffer": 512}', "--wait",
                ])
                assert rc == 0
                final = json.loads(capsys.readouterr().out)
                assert final["state"] == "done"
                assert final["result"]["schema"] == "repro.sort-result/1"
                rc = main(["client", "health", "--socket", sock])
                assert rc == 0
                health = json.loads(capsys.readouterr().out)
                assert health["jobs"] == {"done": 1}
            finally:
                service.stop()
