"""Persistent, content-addressed compile cache (DESIGN.md section 15).

PR 2's projection cache and feasibility memo die with the process; this
module gives them -- and whole ``CompileResult`` artifacts -- a shared
on-disk tier, so repeated compiles of overlapping loop nests across
processes and server requests pay cold cost once.

Layout and invariants:

* Entries live under ``<root>/objects/<hh>/<digest>.bin``; the digest is
  BLAKE2b over ``(kind, pipeline fingerprint, canonical key text)``, so
  the store is content-addressed: the same question always lands on the
  same file, different pipeline versions never collide.
* Each file is ``MAGIC + BLAKE2b(body) + body`` with the fingerprint
  repeated *inside* the body; loads verify magic, digest, fingerprint
  and kind, and treat any mismatch, truncation or unpickling error as a
  miss (the bad file is unlinked).  A cache can corrupt silently on
  disk; it must never crash a compile.
* Writers write a private temp file in the same directory and
  ``os.replace`` it into place -- atomic on POSIX -- so concurrent
  writers (several processes warming one cache) can only ever publish
  whole entries.  Two writers racing on one key publish identical
  content, so either winner is correct.
* ``max_bytes`` caps the store; eviction is LRU on file mtimes (reads
  touch their entry).  Eviction is advisory hygiene: evicting never
  changes results, only future hit rates.

Trust model: cache bodies are unpickled on load, and a whole-result
artifact executes its stored node source when its node function is
first read (``serialize.load_result`` defers it).
The BLAKE2b digest is computed *from the body itself*, so it detects
accidental corruption only, never tampering -- anyone who can write to
the cache directory can run arbitrary code in every process that reads
it.  A cache directory is therefore as trusted as the code you run:
share it between your own processes, never across privilege
boundaries.  Cache roots this module creates get mode ``0o700``; if
you point ``--cache-dir`` at a pre-existing directory, its permissions
are your responsibility.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import tempfile
from hashlib import blake2b
from typing import Dict, Optional, Tuple

from .stats import STATS

#: bump to invalidate every existing cache entry (part of the
#: fingerprint below, alongside the artifact schema version).
CACHE_FORMAT = 1

_MAGIC = b"RPDC1\n"
_DIGEST_SIZE = 16

#: default size cap: plenty for tens of thousands of compile artifacts.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def pipeline_fingerprint() -> str:
    """Version stamp mixed into every content address.

    Derived from the cache format, the artifact schema version and the
    default FM pruning level: changing any of them silently invalidates
    all previous entries (they become unreachable addresses) instead of
    serving stale artifacts from an older pipeline.
    """
    from ..core.serialize import SCHEMA_VERSION  # lazy: core imports us
    from .simplify import DEFAULT_LEVEL

    return (
        f"repro/{CACHE_FORMAT}/schema{SCHEMA_VERSION}/"
        f"prune{DEFAULT_LEVEL}"
    )


class DiskCache:
    """One on-disk cache root (safe to share between processes)."""

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        fingerprint: Optional[str] = None,
    ):
        self.path = os.path.abspath(path)
        self.max_bytes = (
            DEFAULT_MAX_BYTES if max_bytes is None else int(max_bytes)
        )
        self.fingerprint = (
            pipeline_fingerprint() if fingerprint is None else fingerprint
        )
        self._objects = os.path.join(self.path, "objects")
        # 0o700: loads unpickle (and result loads exec) cache bodies,
        # so the store must not be writable by other principals (see
        # the module docstring's trust model).  Best-effort -- an
        # existing directory keeps whatever permissions it has.
        os.makedirs(self.path, mode=0o700, exist_ok=True)
        os.makedirs(self._objects, mode=0o700, exist_ok=True)
        #: bytes written since the last cap check (puts between checks)
        self._unchecked_bytes = 0

    # -- addressing -------------------------------------------------------

    def _address(self, kind: str, key_text: str) -> str:
        h = blake2b(digest_size=20)
        h.update(kind.encode("utf-8"))
        h.update(b"\0")
        h.update(self.fingerprint.encode("utf-8"))
        h.update(b"\0")
        h.update(key_text.encode("utf-8"))
        digest = h.hexdigest()
        return os.path.join(self._objects, digest[:2], digest + ".bin")

    # -- raw entries ------------------------------------------------------

    def get_bytes(self, kind: str, key_text: str) -> Optional[bytes]:
        """The stored payload, or None on miss/corruption/version skew."""
        target = self._address(kind, key_text)
        try:
            with open(target, "rb") as fh:
                raw = fh.read()
        except OSError:
            STATS.disk_cache_misses += 1
            return None
        payload = self._decode(raw, kind)
        if payload is None:
            STATS.disk_cache_misses += 1
            try:  # corrupt or stale entry: degrade to a miss, drop it
                os.unlink(target)
            except OSError:
                pass
            return None
        STATS.disk_cache_hits += 1
        try:  # LRU touch; best-effort (another process may have evicted)
            os.utime(target)
        except OSError:
            pass
        return payload

    def _decode(self, raw: bytes, kind: str) -> Optional[bytes]:
        if not raw.startswith(_MAGIC):
            return None
        digest = raw[len(_MAGIC) : len(_MAGIC) + _DIGEST_SIZE]
        body = raw[len(_MAGIC) + _DIGEST_SIZE :]
        if blake2b(body, digest_size=_DIGEST_SIZE).digest() != digest:
            return None
        try:
            fingerprint, stored_kind, payload = pickle.loads(body)
        except Exception:
            return None
        if fingerprint != self.fingerprint or stored_kind != kind:
            return None
        if not isinstance(payload, bytes):
            return None
        return payload

    def put_bytes(self, kind: str, key_text: str, payload: bytes) -> None:
        """Publish an entry atomically (write-temp-then-rename)."""
        target = self._address(kind, key_text)
        body = pickle.dumps(
            (self.fingerprint, kind, bytes(payload)), protocol=4
        )
        raw = _MAGIC + blake2b(body, digest_size=_DIGEST_SIZE).digest() + body
        directory = os.path.dirname(target)
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return  # a full disk must not fail the compile
        self._unchecked_bytes += len(raw)
        # check the cap only every ~1/64th of the budget written, so
        # puts stay O(1) and eviction scans stay rare
        if self._unchecked_bytes >= max(self.max_bytes // 64, 1 << 20):
            self._unchecked_bytes = 0
            entries, total = self._scan()
            if total > self.max_bytes:
                self._evict(entries, total)

    # -- typed helpers ----------------------------------------------------

    def get_object(self, kind: str, key_text: str):
        """Unpickle a stored object; ``(False, None)`` on miss."""
        payload = self.get_bytes(kind, key_text)
        if payload is None:
            return False, None
        try:
            return True, pickle.loads(payload)
        except Exception:
            return False, None

    def put_object(self, kind: str, key_text: str, value) -> None:
        try:
            payload = pickle.dumps(value, protocol=4)
        except Exception:
            return  # unpicklable value: simply not cached
        self.put_bytes(kind, key_text, payload)

    # -- maintenance ------------------------------------------------------

    def _scan(self):
        """All entry files as ``[(mtime, size, path)]`` plus total bytes."""
        entries = []
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                if not name.endswith(".bin"):
                    continue
                full = os.path.join(dirpath, name)
                try:
                    st = os.stat(full)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, full))
                total += st.st_size
        return entries, total

    def _evict(self, entries, total: int) -> None:
        entries.sort()  # oldest mtime first
        for _mtime, size, full in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(full)
            except OSError:
                continue
            total -= size
            STATS.disk_cache_evictions += 1

    def gc(self) -> Dict[str, int]:
        """Enforce the byte cap now; returns post-gc stats."""
        entries, total = self._scan()
        if total > self.max_bytes:
            self._evict(entries, total)
        return self.stats()

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        entries, _total = self._scan()
        removed = 0
        for _mtime, _size, full in entries:
            try:
                os.unlink(full)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        entries, total = self._scan()
        return {
            "path": self.path,
            "entries": len(entries),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "fingerprint": self.fingerprint,
        }


# ---------------------------------------------------------------------------
# activation (per thread / context, not process-global)
# ---------------------------------------------------------------------------

#: The active cache lives in a ContextVar rather than a module global:
#: each thread (and each asyncio task) sees its own activation, so the
#: threaded TCP server's per-request ``activated`` scopes cannot
#: interleave -- one connection's exit can never null out or repoint
#: the cache another connection is compiling against.
_ACTIVE: contextvars.ContextVar[Optional[DiskCache]] = (
    contextvars.ContextVar("repro_diskcache_active", default=None)
)


def activate(
    path: str,
    max_bytes: Optional[int] = None,
    fingerprint: Optional[str] = None,
) -> DiskCache:
    """Open (creating if needed) and activate a cache for this context.

    While active, FM projections, feasibility verdicts and whole
    compile results flow through it (see ``fourier_motzkin.eliminate``,
    ``omega.integer_feasible``, ``core.compiler.compile_distributed``).
    Activation is per thread/context: threads started *after* this call
    do not inherit it (use ``activated``/``using`` inside them instead).
    """
    cache = DiskCache(path, max_bytes=max_bytes, fingerprint=fingerprint)
    _ACTIVE.set(cache)
    return cache


def deactivate() -> None:
    _ACTIVE.set(None)


def active() -> Optional[DiskCache]:
    return _ACTIVE.get()


class activated:
    """``with diskcache.activated(cache):`` -- scoped activation of an
    existing :class:`DiskCache` (``None`` leaves the current one).

    Restores the previously active cache (if any) on exit.  The scope
    is confined to the current thread/context, so concurrent server
    requests activating the same store never disturb each other.
    """

    def __init__(self, cache: Optional[DiskCache]):
        self.cache = cache
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[DiskCache]:
        target = self.cache if self.cache is not None else _ACTIVE.get()
        self._token = _ACTIVE.set(target)
        return target

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


class using(activated):
    """``with diskcache.using(path):`` -- scoped activation by path
    (``None`` leaves the current cache active)."""

    def __init__(self, path: Optional[str], max_bytes: Optional[int] = None):
        super().__init__(
            DiskCache(path, max_bytes=max_bytes)
            if path is not None else None
        )


def summarize_cache(info: Dict[str, int]) -> str:
    """One ``cache:`` line for the CLI (hit rate, bytes, entries)."""
    mem_hits = STATS.projection_cache_hits + STATS.feasibility_cache_hits
    mem_miss = STATS.projection_cache_misses + STATS.feasibility_cache_misses
    disk_total = STATS.disk_cache_hits + STATS.disk_cache_misses
    disk_rate = (
        100.0 * STATS.disk_cache_hits / disk_total if disk_total else 0.0
    )
    mem_total = mem_hits + mem_miss
    mem_rate = 100.0 * mem_hits / mem_total if mem_total else 0.0
    return (
        f"cache: {info['entries']} entries, {info['bytes']} bytes "
        f"(cap {info['max_bytes']}), disk {disk_rate:.1f}% hit rate, "
        f"memory {mem_rate:.1f}% hit rate, at {info['path']}"
    )
