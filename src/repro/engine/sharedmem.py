"""Shared-memory data plane for the persistent worker pool.

A pooled stage does not pickle trace data into its tasks.  The coordinator
publishes a matrix once into a POSIX shared-memory segment
(:class:`SharedMatrix`), and each task carries only a :class:`MatrixHandle`
— segment name, shape, dtype — plus its row indices and parameters.
Workers attach by name and build zero-copy numpy views.  The suite-sharded
remap (:meth:`repro.core.remapping.RemappingEngine.run` with ``workers >
1``) publishes the fleet's trace matrix this way, so each of its shard
tasks moves a few hundred bytes of descriptors, not the traces.

Lifecycle is explicit and leak-proof:

* every segment created in this process is tracked in a module registry and
  unlinked by an ``atexit`` hook, so a crashed caller cannot strand blocks
  in ``/dev/shm``;
* :class:`SharedMatrix` is a context manager — ``with`` blocks unlink on
  normal exit, on worker death (``BrokenProcessPool`` propagates through),
  and on ``KeyboardInterrupt`` alike;
* a mapping, the owner's or an attachment's, is closed when the last array
  viewing it goes: numpy holds no buffer export on a segment, so unmapping
  it under a live view would leave that view dangling.  Unlinking drops
  the name at once; the memory goes with the last mapping;
* workers attach read-only and *never* unlink; on Python 3.13+ attachments
  opt out of resource tracking (``track=False``).  On older interpreters a
  worker's attach registers the segment with its resource tracker, which
  is harmless only when that tracker is the owner's: the pool starts the
  owner's tracker before it forks, so workers inherit it and registration
  is set-idempotent.  A worker forked before the owner's tracker existed
  would start a private one, and that tracker unlinks the segment when
  the worker dies;
* ``atexit`` does not run on SIGTERM/SIGINT-by-default, so the first
  segment created also installs *chained* signal handlers: the sweep runs,
  then the previously installed disposition (another handler, or the
  default kill) proceeds.  The registry records the creator's pid, and
  both sweeps skip entries registered by another process — a forked worker
  that inherits the parent's handler (and registry) must never unlink the
  parent's live segments.  A pool worker closes the mappings it inherited
  that way when it starts (:func:`close_inherited`).

Segment names carry the :data:`SEGMENT_PREFIX` so tests (and operators) can
audit ``/dev/shm`` for leaks attributable to this package.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

#: Every segment this package creates is named ``smoothop_<hex>`` so leak
#: audits can attribute blocks in ``/dev/shm`` to us.
SEGMENT_PREFIX = "smoothop_"

#: Segments created (not merely attached) by this process, by name.  The
#: atexit sweep unlinks whatever is still here, so even a caller that never
#: reaches its ``finally`` cannot leak a block past interpreter exit.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}

#: The pid that registered each owned segment.  ``fork`` children inherit
#: the registry (and the signal handlers below) by copy; the pid guard
#: keeps their sweeps away from segments the *parent* still owns.
_OWNED_PIDS: Dict[str, int] = {}


def _register_owned(shm: shared_memory.SharedMemory) -> None:
    _OWNED[shm.name] = shm
    _OWNED_PIDS[shm.name] = os.getpid()
    _install_signal_handlers()
    _update_shm_gauges(created=True)


def _forget_owned(name: str) -> None:
    _OWNED.pop(name, None)
    _OWNED_PIDS.pop(name, None)
    _update_shm_gauges()


def _update_shm_gauges(*, created: bool = False) -> None:
    """Publish the live-segment gauges.

    ``shm.segments_live`` / ``shm.bytes_live`` track what this process
    currently owns in ``/dev/shm``; ``shm.segments_created`` counts
    publications over the process lifetime.
    """
    from ..obs import metrics as obs_metrics

    if created:
        obs_metrics.count("shm.segments_created")
    obs_metrics.set_gauge("shm.segments_live", len(_OWNED))
    obs_metrics.set_gauge(
        "shm.bytes_live", float(sum(shm.size for shm in _OWNED.values()))
    )


def _sweep_owned() -> None:
    """Unlink every segment *this process* still owns.

    Shared by the atexit hook and the termination-signal handlers.  The
    pid guard matters for the signal path: a ``fork`` child inherits both
    the handlers and a copy of the registry, and a SIGTERM delivered to
    the child must not unlink segments its parent is still serving.  The
    mappings stay until their arrays go (a SIGINT the application turns
    into ``KeyboardInterrupt`` lets the process go on reading them).
    """
    pid = os.getpid()
    for name in list(_OWNED):
        if _OWNED_PIDS.get(name, pid) != pid:
            continue
        shm = _OWNED.pop(name)
        _OWNED_PIDS.pop(name, None)
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # already gone: fine
            pass


def close_inherited() -> None:
    """Close and forget the segments this process inherited at ``fork``.

    A process forked while its parent owns a segment inherits the parent's
    mapping and descriptor of it with its copy of the registry, and would
    keep both for life.  This closes them and drops the entries, and never
    unlinks: the segment is the parent's.  The pool's worker initializer
    calls it, before any task runs.
    """
    pid = os.getpid()
    for name in list(_OWNED):
        if _OWNED_PIDS.get(name) == pid:
            continue
        shm = _OWNED.pop(name)
        _OWNED_PIDS.pop(name, None)
        try:
            shm.close()
        except OSError:  # pragma: no cover - already closed
            pass


@atexit.register
def _cleanup_owned_segments() -> None:
    """Unlink every segment this process still owns (crash safety net)."""
    _sweep_owned()


#: Previously installed dispositions for the signals we chain, by signum.
#: Present only after :func:`_install_signal_handlers` hooked that signal.
_SIGNAL_CHAIN: Dict[int, object] = {}
_HANDLERS_INSTALLED = False


def _terminate_handler(signum: int, frame: object) -> None:
    """Sweep owned segments, then defer to whatever was installed before.

    ``atexit`` hooks do not run when a signal's default disposition kills
    the process, so SIGTERM (and a SIGINT the application chose not to turn
    into ``KeyboardInterrupt``) would strand every live segment in
    ``/dev/shm``.  This handler closes that hole without changing the
    process's observable death: after the sweep the previous disposition
    proceeds — a callable previous handler is invoked (Python's default
    SIGINT handler raises ``KeyboardInterrupt`` from here, exactly as it
    would have), ``SIG_IGN`` returns, and ``SIG_DFL``/unknown re-raises the
    signal under its default disposition so the exit status still says
    "killed by signal".
    """
    _sweep_owned()
    previous = _SIGNAL_CHAIN.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    if previous is signal.SIG_IGN:
        return
    try:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    except (ValueError, OSError):  # pragma: no cover - teardown races
        pass


def _install_signal_handlers() -> None:
    """Hook SIGTERM/SIGINT once, from the main thread, chaining politely.

    Called on every segment registration but a no-op after the first
    success.  Signal handlers can only be installed from the main thread —
    a pool stage driven from a worker thread simply keeps relying on the
    atexit sweep, as before.
    """
    global _HANDLERS_INSTALLED
    if _HANDLERS_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous = signal.getsignal(signum)
            if previous is _terminate_handler:  # pragma: no cover - paranoia
                continue
            signal.signal(signum, _terminate_handler)
            _SIGNAL_CHAIN[signum] = previous
    except (ValueError, OSError):  # pragma: no cover - exotic embedding
        return
    _HANDLERS_INSTALLED = True


def owned_segment_names() -> Tuple[str, ...]:
    """Names of the segments currently owned (and not yet unlinked) here."""
    return tuple(_OWNED)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership of it.

    On Python 3.13+ the attach opts out of resource tracking outright
    (``track=False``): a reader must never be the reason a segment gets
    unlinked.  On older interpreters a plain attach re-registers the name
    with this process's resource tracker.  That is harmless only when the
    tracker is the owner's, inherited across ``fork`` — registration is
    set-idempotent, so the owner's unlink still deregisters exactly once.
    :class:`~repro.engine.parallel.WorkerPool` starts the owner's tracker
    before forking for that reason: a worker forked without one starts a
    private tracker here, which unlinks the segment when the worker dies.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class MatrixHandle:
    """A picklable descriptor of one shared matrix: name + shape + dtype.

    This — not the matrix — is what crosses the process boundary.  Workers
    pass it to :func:`attach_matrix` to get a zero-copy read-only view.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize


def shard_ranges(n_rows: int, n_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``n_rows`` into ``n_shards`` contiguous near-equal ranges.

    Early shards take the remainder, every row lands in exactly one shard,
    and empty ranges are dropped (fewer rows than shards).
    """
    if n_rows < 0:
        raise ValueError("n_rows cannot be negative")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    base, remainder = divmod(n_rows, n_shards)
    ranges = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < remainder else 0)
        if size == 0:
            continue
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


class SharedMatrix:
    """A 2-D numpy matrix published into POSIX shared memory.

    Created by the parent (:meth:`create`), attached by workers
    (:func:`attach_matrix` via the :attr:`handle`).  The creating process
    owns the segment: it must :meth:`unlink` when done (the context manager
    and the atexit sweep both do).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)
        # Every view keeps ``array`` alive, so the mapping outlives them all.
        weakref.finalize(self.array, shm.close)
        if not owner:
            self.array.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, matrix: np.ndarray, dtype: Optional[object] = None) -> "SharedMatrix":
        """Copy ``matrix`` into a fresh shared segment (optionally casting)."""
        source = np.asarray(matrix)
        target_dtype = np.dtype(dtype) if dtype is not None else source.dtype
        nbytes = max(1, int(source.size) * target_dtype.itemsize)
        shm = shared_memory.SharedMemory(
            create=True,
            size=nbytes,
            name=SEGMENT_PREFIX + secrets.token_hex(8),
        )
        _register_owned(shm)
        shared = cls(shm, source.shape, target_dtype, owner=True)
        shared.array[...] = source
        return shared

    @property
    def handle(self) -> MatrixHandle:
        return MatrixHandle(
            name=self._shm.name, shape=self.shape, dtype=self.dtype.str
        )

    @property
    def name(self) -> str:
        return self._shm.name

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop :attr:`array`; the mapping goes once no array views it.

        The segment itself survives.  A view taken before the close keeps
        reading the mapping until it is dropped.
        """
        self.array = None  # type: ignore[assignment]

    def unlink(self) -> None:
        """Destroy the segment (owner only).  Safe to call twice.

        The name and the registry entry go at once; the memory goes with
        the last mapping (see :meth:`close`).
        """
        if not self._owner:
            raise RuntimeError("only the creating process may unlink a segment")
        self.close()
        _forget_owned(self._shm.name)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Covers normal exit, exceptions, BrokenProcessPool bubbling out of
        # a dead worker pool, and KeyboardInterrupt equally.
        if self._owner:
            self.unlink()
        else:
            self.close()


def attach_matrix(handle: MatrixHandle) -> SharedMatrix:
    """Attach to a published matrix by handle (worker side, read-only).

    The mapping goes when the last array viewing it does, as the owner's
    does (see :meth:`SharedMatrix.close`).
    """
    shm = _attach_segment(handle.name)
    return SharedMatrix(shm, handle.shape, np.dtype(handle.dtype), owner=False)


# ----------------------------------------------------------------------
# worker-side attachment cache
# ----------------------------------------------------------------------
#: Segments attached in this process since the last :func:`detach_all`,
#: by name, so that one task attaches each segment it reads once.
_ATTACHED: Dict[str, SharedMatrix] = {}


def attached_view(handle: MatrixHandle) -> np.ndarray:
    """The cached read-only view of ``handle`` in this process."""
    shared = _ATTACHED.get(handle.name)
    if shared is None or shared.array is None:
        shared = attach_matrix(handle)
        _ATTACHED[handle.name] = shared
    return shared.array


def detach_all() -> None:
    """Forget every cached attachment.

    Each segment is unmapped when no array views it any more: at once, or
    when the last view (say, a task's result) is dropped.  The pool calls
    this after every task, so a worker maps a segment only while a task
    that reads it runs, although each stage publishes a fresh one.
    """
    _ATTACHED.clear()


@atexit.register
def _cleanup_attachments() -> None:
    detach_all()


def attach_rows(handle: MatrixHandle, start: int, stop: int) -> np.ndarray:
    """The ``[start, stop)`` row block of a shared matrix (worker side)."""
    if not 0 <= start <= stop <= handle.shape[0]:
        raise ValueError(
            f"row range [{start}, {stop}) outside matrix of {handle.shape[0]} rows"
        )
    return attached_view(handle)[start:stop]


__all__ = [
    "MatrixHandle",
    "SEGMENT_PREFIX",
    "SharedMatrix",
    "attach_matrix",
    "attach_rows",
    "attached_view",
    "close_inherited",
    "detach_all",
    "owned_segment_names",
    "shard_ranges",
]
