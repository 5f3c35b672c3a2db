"""Fork-safety of the HPDT compile cache.

The worker pool forks while the parent may be compiling on another
thread; these tests prove a fork taken at the worst moment — the cache
lock held — leaves the child with a usable cache, pre-warmed with the
parent's entries.
"""

import os
import signal
import threading
import time
import traceback

import pytest

from repro.xsq.compile_cache import HpdtCache

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")

QUERY = "/pub/book/name/text()"
OTHER = "/pub/book/price/text()"


def _fork_and_check(child_fn, timeout=30.0):
    """Run ``child_fn`` in a forked child; True iff it returned truthy.

    The parent polls with a deadline instead of blocking in waitpid, so
    a deadlocked child turns into a clean assertion (after a SIGKILL)
    rather than a hung test session.
    """
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = bool(child_fn())
        except BaseException:  # noqa: BLE001 - must not escape the child
            traceback.print_exc()
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status) == 0
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError("forked child timed out — cache deadlock?")


class TestForkSafety:
    def test_fork_while_lock_held_does_not_deadlock(self):
        cache = HpdtCache(maxsize=8)
        from repro.xsq.compile_cache import compile_hpdt
        compile_hpdt(QUERY, cache=cache)
        grabbed = threading.Event()
        release = threading.Event()

        def hold_lock():
            with cache._lock:
                grabbed.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold_lock, daemon=True)
        holder.start()
        assert grabbed.wait(timeout=10)
        try:
            # The child inherits a locked lock it can never unlock —
            # unless the at-fork handler swapped in a fresh one.
            assert _fork_and_check(
                lambda: cache.get(QUERY) is not None
                and compile_hpdt(OTHER, cache=cache) is not None)
        finally:
            release.set()
            holder.join(timeout=10)
        # Parent's lock still works after the holder lets go.
        assert cache.get(QUERY) is not None

    def test_child_inherits_prewarmed_entries_by_default(self):
        cache = HpdtCache(maxsize=8)
        from repro.xsq.compile_cache import compile_hpdt
        hpdt = compile_hpdt(QUERY, cache=cache)
        assert _fork_and_check(lambda: cache.get(QUERY) is hpdt)
