"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


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


    def test_sort_defaults_are_the_service_spec_defaults(self):
        """One default table: the ten fields a daemon job spec shares
        with ``sort`` default to SPEC_DEFAULTS, not to a restatement."""
        from repro.service.protocol import SPEC_DEFAULTS

        args = vars(build_parser().parse_args(["sort"]))
        shared = set(SPEC_DEFAULTS) & set(args)
        assert shared == set(SPEC_DEFAULTS) - {"verify"}
        assert {k: args[k] for k in shared} == {
            k: SPEC_DEFAULTS[k] for k in shared
        }


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

    def test_parity_on_the_process_backend_is_refused(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="parity=True requires the thread"):
            main(self.ARGS + ["--parity", "--backend", "process"])


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
