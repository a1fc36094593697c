"""Per-task hard deadlines for the worker pool.

The parallel data plane (:mod:`repro.engine.parallel`) survives worker
*death* — a killed worker breaks the executor, the pool rebuilds, tasks
retry.  It did not survive worker *hangs*: every ``wait()`` was unbounded,
so one stuck worker stalled ``map_shards`` / ``run_many`` forever.  For a
continuous control loop (the paper's system ran 24/7 against a production
fleet) bounded reaction time is a correctness property, not a tuning knob.

:class:`TaskDeadline` carries the one number that bounds it: a task older
than ``hard_timeout_s`` is declared dead.  The dispatch driver in
:mod:`repro.engine.parallel` then kills the worker processes outright (a
hung worker never honours a graceful shutdown), fails the attempt with
:class:`TaskTimeoutError`, and retries on a rebuilt pool; a task that times
out on every attempt raises (or becomes a ``RunFailure``).  The watchdog
checks task ages every :data:`POLL_INTERVAL_S`.

A deadline reaches the pool three ways, most specific first: the
``deadline=`` parameter on :meth:`~repro.engine.parallel.WorkerPool.map_shards`
/ :func:`~repro.engine.parallel.run_many`, the ambient default installed by
:func:`deadline_scope` (this is what the CLI ``--task-timeout`` flag uses),
and the ``REPRO_TASK_TIMEOUT`` environment variable.  With none of them set
the data plane behaves exactly as before: no watchdog.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "HARD_TIMEOUT_ENV",
    "POLL_INTERVAL_S",
    "TaskDeadline",
    "TaskTimeoutError",
    "deadline_from_env",
    "deadline_scope",
    "get_default_deadline",
]

#: Environment variable naming the hard per-task timeout in seconds.
HARD_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Watchdog poll interval in seconds — the granularity at which hard
#: deadlines are checked.
POLL_INTERVAL_S = 0.05


class TaskTimeoutError(RuntimeError):
    """A pooled task exceeded its hard deadline and was killed.

    Raised coordinator-side by the watchdog (the hung worker never raises
    anything — it is SIGKILLed), so it carries the dispatch context the
    worker could not report: the stage label, the shard id, which attempt
    timed out, and the deadline that was missed.
    """

    def __init__(
        self, label: str, shard_id: int, attempt: int, timeout_s: float
    ) -> None:
        super().__init__(
            f"task {label!r} shard {shard_id} attempt {attempt} exceeded "
            f"its hard deadline of {timeout_s:g}s"
        )
        self.label = label
        self.shard_id = shard_id
        self.attempt = attempt
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class TaskDeadline:
    """The hard per-task deadline for one pooled stage (or a whole process)."""

    #: Hard per-task deadline in seconds: past this the watchdog kills the
    #: worker processes and fails the attempt with :class:`TaskTimeoutError`.
    hard_timeout_s: float

    def __post_init__(self) -> None:
        if not self.hard_timeout_s > 0:  # also rejects NaN
            raise ValueError("hard_timeout_s must be positive")


# ----------------------------------------------------------------------
# the ambient default
# ----------------------------------------------------------------------
def deadline_from_env() -> Optional[TaskDeadline]:
    """The deadline ``REPRO_TASK_TIMEOUT`` configures, if any.

    Unset or empty means no deadline.  Anything else must be a positive
    number of seconds: a malformed value raises ``ValueError`` naming the
    variable, because an operator who asked for a watchdog must not
    silently run without one.
    """
    raw = os.environ.get(HARD_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        return TaskDeadline(hard_timeout_s=float(raw))
    except ValueError:
        raise ValueError(
            f"{HARD_TIMEOUT_ENV}={raw!r} is not a positive number of seconds"
        ) from None


#: The deadline installed by the innermost active :func:`deadline_scope`.
_DEFAULT: Optional[TaskDeadline] = None


def get_default_deadline() -> Optional[TaskDeadline]:
    """The deadline pooled stages use when no ``deadline=`` is passed.

    The innermost :func:`deadline_scope` wins; otherwise the environment
    variable is consulted at call time, so tests and operators can flip it
    without touching code.
    """
    if _DEFAULT is not None:
        return _DEFAULT
    return deadline_from_env()


@contextmanager
def deadline_scope(
    deadline: Optional[TaskDeadline],
) -> Iterator[Optional[TaskDeadline]]:
    """Install a default deadline for the duration of a ``with`` block.

    ``deadline_scope(None)`` is a transparent no-op (the surrounding
    default, if any, keeps applying), so a caller with an optional
    deadline can thread it through without branching.
    """
    global _DEFAULT
    saved = _DEFAULT
    if deadline is not None:
        _DEFAULT = deadline
    try:
        yield deadline
    finally:
        _DEFAULT = saved
