"""Compiler-as-a-service layer: the long-lived ``repro serve``
entrypoint.

It builds on the persistent content-addressed cache
(:mod:`repro.polyhedra.diskcache`): the server amortizes in-memory
caches across requests and serves whole results from the store.
"""

from .server import CompileServer, serve_stdio, serve_tcp

__all__ = [
    "CompileServer",
    "serve_stdio",
    "serve_tcp",
]
