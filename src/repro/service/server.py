"""``python -m repro serve`` -- a long-lived compile server.

One process keeps every cache tier warm across requests: the in-memory
projection cache and feasibility memo, the parse memo below, and (when
started with ``--cache-dir``) the persistent content-addressed store.
Amortizing those over a session is the whole point -- the first compile
of a program pays cold cost, every later request for the same job is a
whole-result cache hit.

Protocol: JSON lines.  Each request is one JSON object per line (or a
JSON *array* of objects, answered by an array in the same order -- the
batched form).  A compile request::

    {"id": 7, "program": "<loop source>", "blocks": {"i": 32},
     "options": {"aggregate": true}, "emit": "c"}

answers::

    {"id": 7, "ok": true, "code": "...", "from_cache": false,
     "seconds": 0.41, "schema_version": 2}

Control requests: ``{"op": "ping"}``, ``{"op": "stats"}`` (per-request
latency percentiles, hit rates, disk cache occupancy) and
``{"op": "shutdown"}``.  Malformed or failing requests answer
``{"ok": false, "error": ...}`` on their line; they never kill the
server.  Transports: stdio (default) or a local TCP socket
(``--port``), one connection per client, same line protocol.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from collections import OrderedDict, deque
from dataclasses import fields as dc_fields
from typing import Dict, List, Optional

from ..codegen import SPMDOptions
from ..core import compiler as _compiler
from ..decomp import block_loop
from ..lang import parse
from ..polyhedra import diskcache


def comps_from_blocks(program, blocks: Dict[str, int]):
    """Block-distribute the named loops of every statement (the same
    decomposition ``repro compile --block`` builds)."""
    if not blocks:
        raise ValueError("request needs a non-empty 'blocks' mapping")
    comps = {}
    space = None
    for stmt in program.statements():
        vars_ = [v for v in blocks if v in stmt.iter_vars]
        if len(vars_) != len(blocks):
            missing = [v for v in blocks if v not in stmt.iter_vars]
            raise ValueError(
                f"statement {stmt.name} lacks blocked loop(s) {missing}"
            )
        sizes = [int(blocks[v]) for v in vars_]
        comp = block_loop(stmt, vars_, sizes, space=space)
        space = comp.space
        comps[stmt.name] = comp
    return comps


def options_from_dict(overrides: Optional[Dict]) -> SPMDOptions:
    """Build SPMDOptions from a request's ``options`` object."""
    overrides = overrides or {}
    valid = {f.name for f in dc_fields(SPMDOptions)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ValueError(f"unknown option(s) {unknown}; valid: "
                         f"{sorted(valid)}")
    return SPMDOptions(**overrides)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


#: how many recent request latencies stats() percentiles cover, and how
#: many distinct programs the parse memo retains -- both bounded so a
#: long-lived server's memory stays flat no matter how many requests
#: it has answered.
LATENCY_WINDOW = 2048
PARSE_MEMO_SIZE = 256


class CompileServer:
    """Transport-agnostic request handler (stdio and TCP share it)."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ):
        self.disk = (
            diskcache.DiskCache(cache_dir, max_bytes=max_bytes)
            if cache_dir is not None else None
        )
        self._lock = threading.Lock()
        # one compile at a time: generate_spmd resets process-global
        # fresh-name counters at entry, so two compiles interleaving in
        # the threaded TCP transport could hand out duplicate "fresh"
        # names and publish a corrupt artifact into the persistent
        # cache.  Serializing compiles keeps every artifact
        # bit-identical to a sequential compile of the same request.
        self._compile_lock = threading.Lock()
        self._parse_memo: "OrderedDict[tuple, object]" = OrderedDict()
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self.closing = False

    # -- request handling -------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One protocol line in, one protocol line out."""
        try:
            obj = json.loads(line)
        except ValueError as exc:
            return json.dumps({"ok": False, "error": f"bad JSON: {exc}"})
        if isinstance(obj, list):  # batched form
            return json.dumps([self.handle_request(r) for r in obj])
        return json.dumps(self.handle_request(obj))

    def handle_request(self, obj) -> Dict:
        if not isinstance(obj, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        reply = {"ok": True}
        if "id" in obj:
            reply["id"] = obj["id"]
        op = obj.get("op", "compile")
        try:
            if op == "ping":
                reply["pong"] = True
            elif op == "stats":
                reply.update(self.stats())
            elif op == "shutdown":
                self.closing = True
                reply["bye"] = True
            elif op == "compile":
                reply.update(self._compile(obj))
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # a bad request never kills the server
            with self._lock:
                self.errors += 1
            return {
                **({"id": obj["id"]} if "id" in obj else {}),
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return reply

    def _parse(self, source: str, name: str):
        key = (source, name)
        with self._lock:
            program = self._parse_memo.get(key)
            if program is not None:
                self._parse_memo.move_to_end(key)  # LRU touch
        if program is None:
            program = parse(source, name=name)
            with self._lock:
                self._parse_memo[key] = program
                self._parse_memo.move_to_end(key)
                while len(self._parse_memo) > PARSE_MEMO_SIZE:
                    self._parse_memo.popitem(last=False)
        return program

    def _compile(self, obj: Dict) -> Dict:
        if "program" not in obj:
            raise ValueError("compile request needs a 'program' field")
        start = time.perf_counter()
        program = self._parse(obj["program"], obj.get("name", "<request>"))
        comps = comps_from_blocks(program, obj.get("blocks") or {})
        options = options_from_dict(obj.get("options"))
        # scoped activation: the server's store serves this request
        # without repointing other contexts.  The compile lock
        # serializes compile_distributed across connection threads --
        # see __init__ -- while cheap ops (ping, stats) stay unblocked.
        with self._compile_lock, diskcache.activated(self.disk):
            result = _compiler.compile_distributed(
                program, comps, options=options
            )
        elapsed = time.perf_counter() - start
        with self._lock:
            self.requests += 1
            self.latencies.append(elapsed)
            if result.from_cache:
                self.cache_hits += 1
        # every field below is in a cached artifact's served record: a
        # warm hit never decodes the analysis or builds the node function
        out = {
            "from_cache": result.from_cache,
            "seconds": round(elapsed, 6),
            "schema_version": result.schema_version,
            "commsets": result.spmd.commset_count,
        }
        emit = obj.get("emit", "c")
        if emit == "c":
            out["code"] = result.c_text
        elif emit == "python":
            out["code"] = result.spmd.source
        elif emit not in (None, "none"):
            raise ValueError(f"unknown emit {emit!r}")
        return out

    # -- accounting -------------------------------------------------------

    def stats(self) -> Dict:
        with self._lock:
            # percentiles cover a bounded window of recent requests, so
            # a long-lived server's stats calls stay O(window), not
            # O(lifetime requests)
            lat = sorted(self.latencies)
            requests = self.requests
            hits = self.cache_hits
            errors = self.errors
        info = {
            "requests": requests,
            "errors": errors,
            "result_cache_hits": hits,
            "hit_rate": (hits / requests) if requests else 0.0,
            "latency_p50": _percentile(lat, 0.50),
            "latency_p95": _percentile(lat, 0.95),
            "latency_window": len(lat),
        }
        if self.disk is not None:
            info["disk"] = self.disk.stats()
        return info


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def serve_stdio(server: CompileServer, stdin=None, stdout=None) -> int:
    """JSON lines on stdin/stdout until EOF or a shutdown request."""
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        if not line.strip():
            continue
        stdout.write(server.handle_line(line) + "\n")
        stdout.flush()
        if server.closing:
            break
    return 0


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        server: CompileServer = self.server.compile_server
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            self.wfile.write(
                (server.handle_line(line) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if server.closing:
                # stop accepting; must run off the serving thread
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return


class TCPCompileServer(socketserver.ThreadingTCPServer):
    """One thread per connection; all share one CompileServer (and so
    one set of warm caches).  Compiles themselves are serialized by the
    CompileServer's compile lock; concurrency buys pipelining of
    parse/IO against compute, not parallel codegen."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, compile_server: CompileServer):
        super().__init__(address, _Handler)
        self.compile_server = compile_server

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_tcp(
    server: CompileServer, host: str, port: int, announce=None
) -> int:
    """Serve the line protocol on a local TCP socket (``port=0`` binds
    an ephemeral port; the bound port is announced)."""
    with TCPCompileServer((host, port), server) as tcp:
        if announce is not None:
            announce(tcp.port)
        tcp.serve_forever(poll_interval=0.1)
    return 0
