"""One order-preserving map over independent items, on up to two processes.

`map(fn, items)` returns `[fn(x) for x in items]` and raises what that loop
raises.  With at least `FORK_MIN_ITEMS` items and two CPUs, this process and
one `os.fork` child take the items from the last one back, and the child
pipes its results back pickled, so items return rows of numbers.  The
ladders list their scales lightest first, so the heaviest start first; the
all-cuts audits list their blocks last-first, so block 0 starts first.
Otherwise the items run in turn in this process.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Sequence

__all__ = ["map"]

# Fewest items worth a forked child.  A bare fork, pipe and wait take about
# 2 ms in a 45 MB process, and two busy processes slow each other on a
# 2-core host.  There (best of 15 per route), at 2 audit blocks (n = 254)
# the ODE-block and skew audits took 5.5 -> 7.2 and 4.9 -> 7.0 ms forked
# while the other four gained 25-28%; at 3 blocks (n = 381) those two lost
# under 1 ms (8.7 -> 9.3, 8.3 -> 9.3) and the other four gained 22-33%.
FORK_MIN_ITEMS = 3

# Most items past the first two that the shared queue holds: 4-byte records
# in one write of at most PIPE_BUF bytes, which an empty pipe takes whole
# (1024 on Linux); with more items the map runs serially.
QUEUE_MAX = getattr(select, "PIPE_BUF", 512) // 4


def map(fn, items: Sequence) -> list:
    """[fn(x) for x in items], raising what that loop raises."""
    return _forked(fn, items) if _two_processes(len(items)) else [fn(x) for x in items]


def _two_processes(items: int) -> bool:
    if not FORK_MIN_ITEMS <= items <= QUEUE_MAX + 2:
        return False
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) >= 2


def _forked(fn, items: Sequence) -> list:
    """`map` on two processes.  This one runs the last item and the child the
    one before it; then each takes the next item from a shared queue, so a
    process that the host slows takes fewer items.  Each runs all of its
    items, and the lowest-index item's `Exception` is raised, as the loop
    would raise it.  The child's `BaseException` is re-raised here; one here
    kills the child, which is reaped before this returns.  The child leaves
    by `os._exit`, running none of the parent's exit handlers."""
    order = range(len(items) - 1, -1, -1)
    parent = os.getpid()
    fds = [_block_queue(range(2, len(order)))]
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    queue_fd, read_fd, write_fd = fds
    if pid == 0:
        try:
            os.close(read_fd)
            payload = _child_payload(fn, items, _taken(order, 1, queue_fd), parent)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = [_attempt(fn, items, i) for i in _taken(order, 0, queue_fd)]
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            os.close(queue_fd)
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"the map's forked worker ended without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    attempts = sorted(mine + pickle.loads(payload), key=lambda attempt: attempt[0])
    for _, _, error in attempts:
        if error is not None:
            raise error
    return [value for _, value, _ in attempts]


def _attempt(fn, items: Sequence, i: int) -> tuple:
    """(i, fn(items[i]), None), or (i, None, exception) when it raises one."""
    try:
        return i, fn(items[i]), None
    except Exception as exc:  # raised by the map once every item has run
        return i, None, exc


def _block_queue(numbers: range) -> int:
    """The read end of a pipe that holds `numbers` as 4-byte records, its
    write end closed.  An empty pipe takes a write of at most PIPE_BUF
    bytes whole, and a read of 4 bytes takes one whole record, so two
    processes reading the pipe take each number once."""
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"".join(i.to_bytes(4, "little") for i in numbers))
    except OSError:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return read_fd


def _taken(order, first: int, queue_fd: int):
    """order[first], then the entries of order at the numbers read from the
    queue until it is empty."""
    yield order[first]
    while record := os.read(queue_fd, 4):
        yield order[int.from_bytes(record, "little")]


def _child_payload(fn, items: Sequence, indices, parent: int) -> bytes:
    """The pickled attempts of the child's items, or [(-1, None, exception)]
    for a `BaseException`, which ends it and is raised first; the child ends
    at once if its parent has gone."""
    try:
        attempts = []
        for i in indices:
            if os.getppid() != parent:
                os._exit(1)
            attempts.append(_attempt(fn, items, i))
        return pickle.dumps(attempts)
    except BaseException as exc:  # sent to the parent, which re-raises it
        try:
            return pickle.dumps([(-1, None, exc)])
        except Exception:  # an exception pickle cannot carry
            return pickle.dumps([(-1, None, RuntimeError(f"{type(exc).__name__}: {exc}"))])
