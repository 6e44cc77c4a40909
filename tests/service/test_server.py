"""The compile server (python -m repro serve).

Exercises the transport-agnostic request handler directly (compile /
batch / control ops, error isolation, per-request accounting), the
stdio loop, and one real TCP round-trip.  Served artifacts must be
bit-identical to direct compiles.
"""

import io
import json
import socket
import threading

import pytest

from repro.core import compile_distributed
from repro.runtime.chaos import WORKLOADS
from repro.service import CompileServer, serve_stdio, serve_tcp
from repro.service.server import comps_from_blocks, options_from_dict
from repro.lang import parse

FIG2 = WORKLOADS["fig2"].source


def _compile_req(**extra):
    return {"program": FIG2, "blocks": {"i": 16}, **extra}


@pytest.fixture
def server():
    return CompileServer()


class TestRequests:
    def test_ping(self, server):
        assert server.handle_request({"op": "ping"}) == {
            "ok": True, "pong": True,
        }

    def test_compile_returns_c_by_default(self, server):
        resp = server.handle_request(_compile_req(id=7))
        assert resp["ok"] and resp["id"] == 7
        assert "send" in resp["code"]
        assert resp["schema_version"] == 3
        assert resp["from_cache"] is False

    def test_served_code_matches_direct_compile(self, server):
        resp = server.handle_request(_compile_req())
        program = parse(FIG2, name="<request>")
        comps = comps_from_blocks(program, {"i": 16})
        direct = compile_distributed(program, comps)
        assert resp["code"] == direct.c_text

    def test_emit_python_and_none(self, server):
        assert "def node" in server.handle_request(
            _compile_req(emit="python")
        )["code"]
        assert "code" not in server.handle_request(
            _compile_req(emit="none")
        )

    def test_batched_line(self, server):
        line = json.dumps(
            [_compile_req(id=1, emit="none"), {"id": 2, "op": "ping"}]
        )
        replies = json.loads(server.handle_line(line))
        assert [r["id"] for r in replies] == [1, 2]
        assert all(r["ok"] for r in replies)

    def test_errors_do_not_kill_the_server(self, server):
        bad = [
            "this is not json",
            json.dumps({"op": "no-such-op"}),
            json.dumps({"op": "compile"}),  # no program
            json.dumps(_compile_req(blocks={})),
            json.dumps(_compile_req(blocks={"zz": 4})),
            json.dumps(_compile_req(options={"bogus_flag": 1})),
            json.dumps({"program": "for (", "blocks": {"i": 4}}),
            json.dumps(_compile_req(emit="fortran")),
        ]
        for line in bad:
            resp = json.loads(server.handle_line(line))
            assert resp["ok"] is False and "error" in resp
        # and the server still compiles fine afterwards
        assert server.handle_request(_compile_req(emit="none"))["ok"]

    def test_stats_accounting(self, server):
        server.handle_request(_compile_req(emit="none"))
        server.handle_request(_compile_req(emit="none"))
        server.handle_request({"op": "compile"})  # error
        stats = server.stats()
        assert stats["requests"] == 2
        assert stats["errors"] == 1
        assert stats["latency_p50"] > 0
        assert stats["latency_p95"] >= stats["latency_p50"]

    def test_bad_emit_is_refused_before_compiling(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server as server_mod

        server = CompileServer(cache_dir=str(tmp_path / "cache"))
        assert server.handle_request(_compile_req(emit="none"))["ok"]
        assert server.handle_request(_compile_req(emit="none"))["ok"]
        compiles = []
        monkeypatch.setattr(
            server_mod._compiler, "compile_distributed",
            lambda *a, **k: compiles.append(a),
        )
        resp = server.handle_request(_compile_req(emit="bogus"))
        assert not resp["ok"] and "bogus" in resp["error"]
        assert compiles == []
        stats = server.stats()
        assert (
            stats["requests"], stats["result_cache_hits"],
            stats["errors"], stats["latency_window"],
        ) == (2, 1, 1, 2)

    def test_disk_cache_shared_across_requests(self, tmp_path):
        server = CompileServer(cache_dir=str(tmp_path / "cache"))
        first = server.handle_request(_compile_req(emit="none"))
        second = server.handle_request(_compile_req(emit="none"))
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        stats = server.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["disk"]["entries"] > 0

    def test_unknown_option_lists_valid_ones(self, server):
        resp = server.handle_request(
            _compile_req(options={"nope": True})
        )
        assert not resp["ok"] and "aggregate" in resp["error"]

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_bool_option_is_refused(self, server, value):
        with pytest.raises(ValueError, match="'vectorize'"):
            options_from_dict({"vectorize": value})
        resp = server.handle_request(
            _compile_req(options={"vectorize": value})
        )
        assert not resp["ok"] and "vectorize" in resp["error"]
        assert server.stats()["requests"] == 0

    @pytest.mark.parametrize("size", [8.7, True, 0, -4, "8"])
    def test_block_size_must_be_a_positive_int(self, server, size):
        program = parse(FIG2, name="<request>")
        with pytest.raises(ValueError, match="loop 'i'"):
            comps_from_blocks(program, {"i": size})
        resp = server.handle_request(_compile_req(blocks={"i": size}))
        assert not resp["ok"] and "loop 'i'" in resp["error"]
        assert server.stats()["requests"] == 0

    def test_options_round_trip(self):
        opts = options_from_dict({"aggregate": False, "vectorize": True})
        assert opts.aggregate is False and opts.vectorize is True


class TestConcurrency:
    """The threaded TCP transport shares one CompileServer across
    connection threads; compiles must serialize (fresh-name counters
    are process-global) and per-request cache activation must never
    leak across threads.  These hammer handle_request from many
    threads -- exactly what _Handler does -- and assert every artifact
    is bit-identical to its sequential compile."""

    BLOCKS = (8, 16, 32)

    def _expected(self):
        expected = {}
        for b in self.BLOCKS:
            program = parse(FIG2, name="<request>")
            comps = comps_from_blocks(program, {"i": b})
            expected[b] = compile_distributed(program, comps).c_text
        return expected

    def test_concurrent_compiles_are_bit_identical(self, tmp_path):
        expected = self._expected()
        server = CompileServer(cache_dir=str(tmp_path / "cache"))
        results = {}
        failures = []

        def client(tid):
            try:
                for b in self.BLOCKS:
                    resp = server.handle_request(
                        _compile_req(blocks={"i": b})
                    )
                    assert resp["ok"], resp
                    results[(tid, b)] = resp["code"]
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(tid,))
            for tid in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not failures
        assert server.stats()["errors"] == 0
        for (tid, b), code in results.items():
            assert code == expected[b], (tid, b)
        # the store was never poisoned: a fresh server on the same
        # cache dir serves the same artifacts as whole-result hits
        fresh = CompileServer(cache_dir=str(tmp_path / "cache"))
        for b in self.BLOCKS:
            resp = fresh.handle_request(_compile_req(blocks={"i": b}))
            assert resp["from_cache"] is True
            assert resp["code"] == expected[b]

    def test_state_stays_bounded(self, monkeypatch):
        from repro.service import server as server_mod

        monkeypatch.setattr(server_mod, "LATENCY_WINDOW", 4)
        monkeypatch.setattr(server_mod, "PARSE_MEMO_SIZE", 2)
        server = CompileServer()
        for i in range(5):
            # distinct names -> distinct parse-memo keys
            resp = server.handle_request(
                _compile_req(name=f"p{i}", emit="none")
            )
            assert resp["ok"], resp
        assert len(server.latencies) == 4
        assert len(server._parse_memo) == 2
        stats = server.stats()
        assert stats["requests"] == 5
        assert stats["latency_window"] == 4


class TestStdio:
    def test_stdio_loop_until_shutdown(self, server):
        lines = [
            json.dumps({"id": 1, "op": "ping"}),
            "",  # blank lines are skipped
            json.dumps(_compile_req(id=2, emit="none")),
            json.dumps({"id": 3, "op": "shutdown"}),
            json.dumps({"id": 4, "op": "ping"}),  # never reached
        ]
        out = io.StringIO()
        rc = serve_stdio(
            server, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out
        )
        assert rc == 0
        replies = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert replies[-1]["bye"] is True

    def test_stdio_loop_until_eof(self, server):
        out = io.StringIO()
        serve_stdio(
            server,
            stdin=io.StringIO(json.dumps({"op": "ping"}) + "\n"),
            stdout=out,
        )
        assert json.loads(out.getvalue())["pong"] is True


class TestTCP:
    def test_tcp_round_trip_and_shutdown(self, server):
        ports = []
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_tcp,
            args=(server, "127.0.0.1", 0),
            kwargs={"announce": lambda p: (ports.append(p), ready.set())},
            daemon=True,
        )
        thread.start()
        assert ready.wait(30)
        with socket.create_connection(
            ("127.0.0.1", ports[0]), timeout=120
        ) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            for req, check in [
                (_compile_req(id=1, emit="none"),
                 lambda r: r["ok"] and not r["from_cache"]),
                ({"id": 2, "op": "stats"},
                 lambda r: r["requests"] == 1),
                ({"id": 3, "op": "shutdown"}, lambda r: r["bye"]),
            ]:
                fh.write(json.dumps(req) + "\n")
                fh.flush()
                resp = json.loads(fh.readline())
                assert check(resp), resp
        thread.join(timeout=30)
        assert not thread.is_alive()
