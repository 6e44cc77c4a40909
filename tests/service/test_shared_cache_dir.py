"""Two processes publishing into one persistent cache directory.

Each writer compiles the five conformance workloads under
``diskcache.using(shared_dir)``, the two in opposite orders and released
together, so they race on every key.  The store's atomic publish (a
private temp file ``os.replace``-d into place) means neither can expose
a torn entry: afterwards every workload loads from the directory as a
whole-result hit equal to a fresh, uncached compile.
"""

import multiprocessing

from repro.core import compile_distributed, results_equal
from repro.polyhedra import diskcache
from repro.runtime.chaos import WORKLOADS

from .conftest import conformance_job

NAMES = sorted(WORKLOADS)


def _writer(cache_dir, order, barrier):
    """Child process: compile ``order`` into the shared store."""
    barrier.wait(timeout=120)
    with diskcache.using(cache_dir):
        for name in order:
            program, comps = conformance_job(name)
            compile_distributed(program, comps)


def test_two_processes_share_one_cache_dir(tmp_path):
    cache_dir = str(tmp_path / "shared")
    # spawn, not fork: the children start from a clean interpreter even
    # when an earlier test left threads running in this one
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=_writer, args=(cache_dir, order, barrier))
        for order in (NAMES, NAMES[::-1])
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=600)
    stuck = [proc for proc in writers if proc.is_alive()]
    for proc in stuck:
        proc.kill()
    assert not stuck, "writers deadlocked on the shared cache directory"
    assert [proc.exitcode for proc in writers] == [0, 0]

    for name in NAMES:
        program, comps = conformance_job(name)
        cached = compile_distributed(program, comps, cache_dir=cache_dir)
        assert cached.from_cache, f"{name} missed the shared store"
        fresh = compile_distributed(program, comps)
        assert not fresh.from_cache
        assert results_equal(fresh, cached), (
            f"{name} was corrupted by concurrent writers"
        )
