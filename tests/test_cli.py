"""Command-line driver tests (python -m repro ...)."""

import pytest

from repro.__main__ import main

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "fig2.loop"
    path.write_text(FIG2)
    return str(path)


class TestCLI:
    def test_analyze(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "last write trees" in out
        assert "level 2" in out

    def test_compile_c(self, program_file, capsys):
        assert main(["compile", program_file, "--block", "i=32"]) == 0
        out = capsys.readouterr().out
        assert "send" in out and "receive" in out

    def test_compile_python(self, program_file, capsys):
        assert (
            main(
                ["compile", program_file, "--block", "i=32",
                 "--emit", "python"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "def node(proc):" in out

    def test_run(self, program_file, capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "validated against sequential execution: OK" in out
        assert "messages:  4" in out

    def test_backend_flag_is_gone(self, program_file):
        """One scheduler drives every run: no command takes --backend."""
        for argv in (
            ["run", program_file, "--block", "i=32", "-D", "N=70",
             "-D", "T=1", "-D", "P=3", "--backend", "event"],
            ["chaos", "--workload", "fig2", "--backend", "event"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_recovery_mode_flag_is_gone(self, program_file):
        """One crash-recovery mode: neither run nor chaos takes
        --recovery-mode."""
        for argv in (
            ["run", program_file, "--block", "i=32", "-D", "N=70",
             "-D", "T=1", "-D", "P=3", "--recovery-mode", "local"],
            ["chaos", "--workload", "fig2", "--recovery-mode", "both"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_run_crash_restarts_only_the_crashed_rank(
        self, program_file, capsys
    ):
        assert main(
            ["run", program_file, "--block", "i=32", "-D", "N=70",
             "-D", "T=2", "-D", "P=3", "--crash-at", "1@1500",
             "--checkpoint-every-ops", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "validated against sequential execution: OK" in out
        assert "resilience: 1 crash(es), 1 restart(s)" in out
        assert "sender message log peak" in out

    def test_compile_poly_stats(self, program_file, capsys):
        assert (
            main(
                ["compile", program_file, "--block", "i=32",
                 "--poly-stats"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "send" in captured.out
        assert "polyhedral engine statistics" in captured.err
        assert "FM eliminations" in captured.err
        assert "projection cache" in captured.err
        assert "compile time" in captured.err

    def test_missing_block_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["compile", program_file])

    @pytest.mark.parametrize("item, reason", [
        ("i=0", "must be a positive integer, not 0"),
        ("i=-4", "must be a positive integer, not -4"),
        ("i", "expected VAR=SIZE"),
    ])
    def test_bad_block_item_exits_with_one_line(self, program_file, item,
                                                reason):
        """A malformed or non-positive --block item is refused by the
        same checks the compile server applies, as a one-line message
        rather than a traceback."""
        with pytest.raises(SystemExit) as info:
            main(["compile", program_file, "--block", item])
        message = str(info.value.code)
        assert reason in message and "\n" not in message

    def test_no_aggregate_flag(self, program_file, capsys):
        assert (
            main(
                ["compile", program_file, "--block", "i=32",
                 "--no-aggregate"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "send" in out

    def test_run_with_fault_injection(self, program_file, capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3",
                 "--drop-rate", "0.2", "--dup-rate", "0.1",
                 "--reorder-rate", "0.1", "--fault-seed", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "injecting faults" in out
        assert "validated against sequential execution: OK" in out
        assert "retransmissions" in out

    def test_run_unreliable_reports_deadlock(self, program_file, capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3",
                 "--drop-rate", "0.9", "--reliability", "unreliable"]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "run FAILED: DeadlockError" in out
        assert "deadlock audit" in out
        assert "dropped by the network" in out

    def test_run_trace_writes_chrome_json(self, program_file, tmp_path,
                                          capsys):
        import json

        out_file = tmp_path / "trace.json"
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3",
                 "--trace", str(out_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "events written to" in out
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M"} <= phases

    def test_run_trace_summary_prints_analyses(self, program_file, capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3",
                 "--trace-summary"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "communication matrix" in out
        assert "makespan decomposition:" in out
        assert "critical path:" in out

    def test_run_without_trace_flags_records_nothing(self, program_file,
                                                     capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace" not in out

    def test_run_trace_with_faults(self, program_file, tmp_path, capsys):
        out_file = tmp_path / "faulty.json"
        assert (
            main(
                ["run", program_file, "--block", "i=32",
                 "-D", "N=70", "-D", "T=1", "-D", "P=3",
                 "--drop-rate", "0.2", "--fault-seed", "3",
                 "--trace", str(out_file), "--trace-summary"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "retransmit" in out
        assert out_file.exists()


class TestCacheCLI:
    def test_compile_cache_dir_prints_cache_line(self, program_file,
                                                 tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                ["compile", program_file, "--block", "i=32",
                 "--cache-dir", cache_dir]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "send" in captured.out
        assert captured.err.count("cache: ") == 1
        assert "entries" in captured.err and "hit rate" in captured.err

    def test_warm_compile_is_served_from_cache(self, program_file,
                                               tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["compile", program_file, "--block", "i=32",
                "--cache-dir", cache_dir, "--poly-stats"]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "(cached result)" not in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # emitted C identical
        assert "(cached result)" in warm.err
        assert "whole-result cache:" in warm.err
        assert "1 hits / 0 misses" in warm.err
        assert "disk cache:" in warm.err

    def test_poly_stats_without_cache_has_no_disk_lines(
        self, program_file, capsys
    ):
        assert (
            main(["compile", program_file, "--block", "i=32",
                  "--poly-stats"])
            == 0
        )
        err = capsys.readouterr().err
        assert "projection cache" in err
        assert "disk cache:" not in err
        assert "cache: " not in err.splitlines()[-1]

    def test_cache_stats_clear_gc(self, program_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(["compile", program_file, "--block", "i=32",
                  "--cache-dir", cache_dir])
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "fingerprint:" in out
        assert " 0" not in out.splitlines()[1]  # some entries exist
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:     0" in out

    def test_cache_gc_enforces_byte_cap(self, program_file, tmp_path,
                                        capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(["compile", program_file, "--block", "i=32",
                  "--cache-dir", cache_dir])
            == 0
        )
        capsys.readouterr()
        assert (
            main(["cache", "gc", "--cache-dir", cache_dir,
                  "--max-bytes", "1"])
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:     0" in out


class TestServeCLI:
    def test_serve_stdio_session(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        reqs = [
            {"id": 1, "program": FIG2, "blocks": {"i": 16},
             "emit": "none"},
            {"id": 2, "program": FIG2, "blocks": {"i": 16},
             "emit": "none"},
            {"id": 3, "op": "stats"},
            {"id": 4, "op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("\n".join(json.dumps(r) for r in reqs) + "\n"),
        )
        assert (
            main(["serve", "--cache-dir", str(tmp_path / "cache")]) == 0
        )
        out = capsys.readouterr().out
        replies = [json.loads(l) for l in out.splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        assert replies[0]["from_cache"] is False
        assert replies[1]["from_cache"] is True
        assert replies[2]["result_cache_hits"] == 1
        assert replies[3]["bye"] is True


class TestCorruptionCLI:
    def test_run_with_corruption_recovers(self, program_file, capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=16",
                 "-D", "N=70", "-D", "T=2", "-D", "P=3",
                 "--corrupt-rate", "0.4", "--fault-seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "validated against sequential execution: OK" in out
        assert "integrity:" in out
        assert "discarded by checksum" in out

    def test_run_corrupt_at_direct_fails_structurally(self, program_file,
                                                      capsys):
        assert (
            main(
                ["run", program_file, "--block", "i=16",
                 "-D", "N=70", "-D", "T=2", "-D", "P=3",
                 "--corrupt-at", "1>2:0", "--reliability", "direct"]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "run FAILED: CorruptionError" in out
        assert "failed checksum verification" in out

    @pytest.mark.parametrize("flags", [
        ["--max-delay", "-1"],
        ["--stall-time", "-5"],
        ["--checkpoint-interval", "0"],
        ["--checkpoint-every-ops", "0"],
        ["--max-retries", "-1"],
        ["--max-restarts", "-2"],
        ["--corrupt-rate", "1.5"],
        ["--corrupt-at", "nonsense"],
        ["--checkpoint-corrupt-rate", "-0.1"],
        ["--checkpoint-corrupt-at", "0"],
        ["--crash-at", "zero@"],
    ])
    def test_invalid_knob_values_rejected_at_parse(self, program_file,
                                                   flags):
        with pytest.raises(SystemExit) as info:
            main(["run", program_file, "--block", "i=16",
                  "-D", "N=70", "-D", "T=1", "-D", "P=3"] + flags)
        assert info.value.code == 2


class TestChaosCLI:
    def test_clean_exploration_exits_zero(self, capsys):
        assert (
            main(
                ["chaos", "--workload", "fig2",
                 "--seeds", "1", "--no-targeted"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_injected_bug_found_written_and_replayed(self, tmp_path,
                                                     capsys):
        out_dir = tmp_path / "repros"
        assert (
            main(
                ["chaos", "--workload", "fig2",
                 "--seeds", "0", "--inject-bug", "--out", str(out_dir)]
            )
            == 3
        )
        out = capsys.readouterr().out
        assert "FINDING" in out
        written = sorted(out_dir.glob("chaos-*.json"))
        assert written
        # chaos-<scenario>-<transport>-<index>.json: no backend part
        for path in written:
            _, scenario, transport, index = path.stem.split("-")
            assert scenario == "fig2" and index.isdigit()
            assert transport in ("reliable", "onesided", "direct")
        assert main(["chaos", "--replay", str(written[0])]) == 0
        out = capsys.readouterr().out
        assert "replays deterministically" in out
