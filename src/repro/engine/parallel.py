"""Parallel execution: a persistent worker pool.

The pool has two callers.  :func:`run_many` drives
:class:`~repro.engine.spec.ScenarioSpec` / :class:`~repro.engine.spec.ChaosSpec`
lists (the chaos suite, the CLI's ``chaos`` and ``report --run``), and
:meth:`WorkerPool.map_shards` runs the shards of a suite-sharded remap
(:meth:`repro.core.remapping.RemappingEngine.run` with ``workers > 1``).
Everything else runs in the calling process.

* **persistent pools** — :func:`get_pool` keeps one :class:`WorkerPool`
  alive per worker count for the life of the process, so workers are
  spawned once and reused by every later batch (``fork`` start method
  where available: workers inherit warm dataset caches instead of
  re-synthesizing them);
* **pinned worker threads** — each worker's initializer pins the BLAS /
  OpenMP thread-pool environment (``OMP_NUM_THREADS`` etc.) to
  :data:`WORKER_THREADS`, so N workers do not oversubscribe the host with
  N × M library threads;
* **shared-memory shards** — :meth:`WorkerPool.map_shards` tasks carry a
  :mod:`repro.engine.sharedmem` handle of a matrix the coordinator
  published once, plus row indices and parameters, never the data.

Worker death does not sink a suite.  A killed worker breaks the whole
executor (every outstanding future raises ``BrokenProcessPool``), so the
pool is rebuilt and the unfinished specs are retried — with decorrelated-
jitter backoff between rounds so resubmission storms after a rebuild do not
synchronize — up to ``max_attempts`` tries per spec; the backoff sleep only
ever runs when another attempt follows — a spec out of attempts fails
immediately as a :class:`RunFailure` in its slot of the result list.
``workers <= 1`` or a single spec runs through the same retry loop inline,
never touching a pool.

Worker *hangs* do not sink a suite either.  When a
:class:`~repro.engine.deadline.TaskDeadline` is in force (per-call
``deadline=``, the ambient default installed by
:func:`repro.engine.deadline.deadline_scope`, or the
``REPRO_TASK_TIMEOUT`` environment variable) the dispatch loop becomes a
watchdog: it polls instead of blocking, SIGKILLs the pool when a task
exceeds its hard deadline (a hung worker never honours a graceful
shutdown) and retries on a rebuilt executor.  With no deadline configured
the dispatch loop blocks on its futures.  Pooled work never runs in
the coordinator: a task that hangs, exits its process, or raises on every
attempt raises from ``map_shards`` or becomes a :class:`RunFailure` in
``run_many``, and cannot take the coordinator down with it.

The pool is not an observability boundary: every pooled task runs under
worker-side telemetry capture (:mod:`repro.obs.remote`) and ships its
metric deltas and its execution time back with its result, plus its spans
when the dispatching thread has a tracer and its events when an event log
is live; a worker observes nothing the coordinator does not.  The
coordinator merges what ships into its live tracer, registry, and event
log, and records pool health metrics (dispatch/completion counters,
roundtrip/execution/queue latency histograms, worker deaths and rebuilds,
timeouts).  Under a live tracer each stage opens one ``pool.stage`` span
that the merged task spans hang under; the run report
(:mod:`repro.obs.report`) is read off those spans.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from . import sharedmem
from . import deadline as deadline_mod
from .deadline import TaskDeadline, TaskTimeoutError
from .spec import ChaosSpec, ScenarioSpec
from .state import RunArtifacts

#: Tries per spec before it is written off as a :class:`RunFailure`.
DEFAULT_MAX_ATTEMPTS = 3

#: Base delay between retry rounds (the floor of the jittered sleep).
DEFAULT_RETRY_BACKOFF_S = 0.25

#: Ceiling on a single decorrelated-jitter backoff sleep.
MAX_RETRY_BACKOFF_S = 30.0

#: Thread-pool size pinned into every worker.  The pool already owns the
#: cores, and letting each worker's BLAS spin up ``os.cpu_count()`` threads
#: of its own oversubscribes the host N×M.
WORKER_THREADS = 1

#: Environment knobs the worker initializer pins.  Covers OpenMP, the
#: common BLAS builds numpy links against, and numexpr — the libraries
#: that auto-size their pools to the whole machine.
WORKER_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Workers are forked where the platform allows it, so they inherit the
#: coordinator's warm dataset caches instead of re-synthesizing them.
try:
    _START_CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - fork unavailable (non-POSIX)
    _START_CONTEXT = multiprocessing.get_context()


@dataclass
class RunFailure:
    """One spec's structured failure after every retry was exhausted.

    Occupies the spec's slot in :func:`run_many`'s result list, so callers
    always get one entry per spec, in spec order — filter with
    ``isinstance(entry, RunFailure)`` (or check :attr:`RunArtifacts.result`)
    to separate the casualties from the survivors.
    """

    spec: Any
    error_type: str
    error: str
    attempts: int

    @property
    def result(self) -> None:
        """Mirror of :attr:`RunArtifacts.result`, always ``None``."""
        return None


def execute(spec: Any) -> RunArtifacts:
    """Run one spec (scenario, chaos-harness, or callable) and wrap it.

    Module-level so it pickles for worker processes.  Zero-argument
    callables are the escape hatch for custom workloads (and for
    fault-injection tests): the callable runs as-is, and its return value
    is wrapped in :class:`RunArtifacts` unless it already is one.
    """
    if isinstance(spec, ScenarioSpec):
        from .core import Engine

        return Engine.from_spec(spec).run(spec)
    if isinstance(spec, ChaosSpec):
        # Lazy: the chaos harness imports the engine, not vice versa.
        from ..faults.harness import run_chaos_scenario

        outcome = run_chaos_scenario(spec.resolved_scenario(), **spec.run_kwargs())
        return RunArtifacts(spec=spec, result=outcome)
    if callable(spec):
        outcome = spec()
        if isinstance(outcome, RunArtifacts):
            return outcome
        return RunArtifacts(spec=spec, result=outcome)
    raise TypeError(f"cannot execute spec of type {type(spec).__name__}")


# ----------------------------------------------------------------------
# worker-side plumbing
# ----------------------------------------------------------------------
def _init_worker() -> None:
    """Pool initializer: pin library thread pools inside the worker.

    Runs once per worker process, before any task.  Sets the standard
    thread-count environment variables so any library initialised after
    this point sizes itself to :data:`WORKER_THREADS`, and asks
    already-loaded pools to shrink via ``threadpoolctl`` when that package
    is available (forked workers inherit the parent's BLAS state, which env
    vars alone cannot retroactively change).

    A worker forked while the coordinator holds a shared segment (a cold
    pool's first stage, or a rebuild after a worker death) inherits its
    mapping; the worker closes it here, so it maps only what its tasks
    attach.
    """
    for name in WORKER_THREAD_ENV_VARS:
        os.environ[name] = str(WORKER_THREADS)
    sharedmem.close_inherited()
    try:  # best-effort: not a baked-in dependency
        import threadpoolctl

        threadpoolctl.threadpool_limits(WORKER_THREADS)
    except Exception:
        pass


def _run_task(
    fn: Callable[..., Any],
    args: Sequence[Any],
    index: int,
    attempt: int,
    label: str,
    trace: bool,
    record: bool,
) -> Any:
    """The worker side of every pooled task: ``fn(*args)`` under capture.

    Returns ``(result, bundle)`` (see :func:`repro.obs.remote.run_captured`),
    the bundle's root span named ``label``.  ``trace`` and ``record`` say
    whether the coordinator has a tracer and an event log; the task opens
    a fresh one of each only where it does, and runs with none installed
    otherwise, so a tracer or log the worker inherited at fork (a pool
    warmed under ``obs.tracing()``) records nothing.
    """
    from ..obs import remote as obs_remote

    try:
        return obs_remote.run_captured(
            fn, index, label, attempt, args, trace=trace, record=record
        )
    finally:
        # Each stage publishes a fresh segment and unlinks it when done, so
        # a worker that kept its attachments would keep every stage's
        # memory mapped for its lifetime.
        sharedmem.detach_all()


def _decorrelated_backoff(
    base: float,
    previous: float,
    rng: random.Random,
    cap: float = MAX_RETRY_BACKOFF_S,
) -> float:
    """One decorrelated-jitter retry delay: uniform in ``[base, 3·prev]``.

    The classic "decorrelated jitter" schedule: each sleep is drawn from
    ``[base, previous * 3]`` and capped, so concurrent retriers that broke
    at the same instant (every task in flight when an executor dies breaks
    at once) spread out instead of resubmitting in lockstep, while the
    expected delay still grows geometrically with consecutive failures.
    ``base <= 0`` disables the backoff entirely (returns ``0.0``).
    """
    if base <= 0:
        return 0.0
    return min(cap, rng.uniform(base, max(base, previous * 3)))


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A process pool spawned once and reused across calls.

    Wraps a ``ProcessPoolExecutor`` whose workers pin their thread pools at
    startup (:func:`_init_worker`).  The executor is created lazily on
    first submit and rebuilt on demand after a ``BrokenProcessPool`` —
    :attr:`generation` counts executor builds, so callers (and tests) can
    observe that back-to-back batches reused one set of workers.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Number of executors built over this pool's lifetime.
        self.generation = 0

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Forked workers must share this process's resource tracker.
            # Below Python 3.13 a worker's shared-memory attach registers
            # the segment; a worker forked before the tracker existed
            # starts a private one, which unlinks the coordinator's
            # segment when that worker dies.
            resource_tracker.ensure_running()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_START_CONTEXT,
                initializer=_init_worker,
            )
            self.generation += 1
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any):
        """Submit one task, building the executor on first use."""
        return self._ensure_executor().submit(fn, *args, **kwargs)

    def submit_resilient(
        self,
        fn: Callable[..., Any],
        /,
        *args: Any,
        on_rebuild: Optional[Callable[[], None]] = None,
    ):
        """Submit, rebuilding first when a prior task's death broke the pool.

        A worker death breaks the whole executor *asynchronously*, so a
        submit racing that death raises ``BrokenProcessPool`` synchronously
        instead of returning a future.  The task never reached a worker —
        nothing ran, nothing can run twice — so the right response is to
        rebuild and resubmit on the fresh executor rather than let the
        exception escape and strand a broken executor in the persistent
        pool.  Still bounded: every break burns an attempt for each task
        that was in flight on the dead executor, so a persistent killer
        exhausts ``max_attempts`` like any other failure.
        """
        from concurrent.futures.process import BrokenProcessPool

        while True:
            try:
                return self.submit(fn, *args)
            except BrokenProcessPool:
                if on_rebuild is not None:
                    on_rebuild()
                self.rebuild()

    def warm(self) -> None:
        """Spawn the workers now and wait for every initializer to finish.

        One no-op barrier task per worker forces the executor to actually
        fork/spawn, so the first real batch is not charged the startup
        cost.  Forking *after* the parent has warmed its dataset caches
        also hands every worker those caches for free.
        """
        futures = [self.submit(_worker_barrier, index) for index in range(self.workers)]
        wait(futures)

    def rebuild(self) -> None:
        """Discard a (possibly broken) executor; the next submit re-forks."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def rebuild_if_broken(self) -> bool:
        """Rebuild only when the live executor really is broken.

        A resilient submit may already have swapped in a fresh executor
        this round; tearing that one down again would cancel the healthy
        tasks it is running.  Returns whether a rebuild happened.
        """
        executor = self._executor
        if executor is None or not getattr(executor, "_broken", False):
            return False
        self.rebuild()
        return True

    def kill(self) -> None:
        """SIGKILL the workers and discard the executor without waiting.

        :meth:`rebuild`'s graceful ``shutdown(wait=True)`` joins the
        workers — which never returns when one of them is *hung* rather
        than dead.  The deadline watchdog therefore uses this path: kill
        every worker process outright, then tear the executor down without
        waiting on anything.  The next submit re-forks as usual.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-reaped worker
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the workers.  The pool object stays reusable (lazy respawn)."""
        self.rebuild()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def map_shards(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Sequence[Any]],
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_s: float = 0.0,
        label: str = "shard",
        deadline: Optional[TaskDeadline] = None,
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task, in task order, with retries.

        The sharded-stage workhorse: ``tasks`` are lightweight argument
        tuples (shared-memory handles, row ranges, parameters — see
        :mod:`repro.engine.sharedmem`), never bulk data.  A broken pool is
        rebuilt and unfinished tasks retried like :func:`run_many` does for
        specs; a task that exhausts its attempts re-raises its last error,
        because a missing shard (unlike a missing scenario) poisons the
        whole result matrix.

        ``deadline`` arms the hang watchdog (see
        :class:`~repro.engine.deadline.TaskDeadline`): a shard past its
        hard deadline is killed with the pool and retried, and one that
        times out on every attempt raises
        :class:`~repro.engine.deadline.TaskTimeoutError`.  When ``None``
        the process default
        (:func:`repro.engine.deadline.get_default_deadline`) applies, and
        with no default either the loop blocks unbounded exactly as
        before.

        Every task runs under worker-side telemetry capture
        (:mod:`repro.obs.remote`): its metric deltas ship back with the
        result, with its spans when this thread has a tracer and its events
        when an event log is live, and are merged into this process's live
        registry/tracer/log — sorted by shard id, so the merged state is
        independent of completion order.  ``label`` names the per-task root
        span (tagged with shard id, worker pid and attempt) and the stage's
        ``pool.stage`` span, which the run report (:mod:`repro.obs.report`)
        reads; the pool also records its own health metrics
        (dispatch/completion/retry counters, roundtrip/execution/queue
        latency histograms).
        """
        driver = _StageDriver(
            self,
            fn,
            [tuple(task) for task in tasks],
            label=label,
            max_attempts=max_attempts,
            retry_backoff_s=retry_backoff_s,
            deadline=deadline,
        )
        return driver.run()

    def _finish_stage(self, bundles: Sequence[Any]) -> None:
        """Observe task latencies, merge shipped telemetry, stamp the stage.

        Runs inside the stage's ``pool.stage`` span, so the merge grafts the
        task spans under it.  Latencies are observed in ``(shard, attempt)``
        order, the order the merge folds in, so the histograms are a
        function of the work rather than of completion order.
        """
        from ..obs import metrics as obs_metrics
        from ..obs import remote as obs_remote
        from ..obs import spans as obs_spans

        bundles = sorted(bundles, key=lambda bundle: (bundle.shard_id, bundle.attempt))
        for bundle in bundles:
            if bundle.failed:
                continue
            obs_metrics.observe("pool.task_roundtrip_s", bundle.roundtrip_s)
            obs_metrics.observe("pool.task_exec_s", bundle.wall_s)
            obs_metrics.observe(
                "pool.task_queue_s", max(0.0, bundle.roundtrip_s - bundle.wall_s)
            )
        obs_remote.merge_bundles(bundles)
        obs_metrics.set_gauge("pool.workers", self.workers)
        obs_metrics.set_gauge("pool.generation", self.generation)
        stage = obs_spans.current_span()
        if stage is not None:
            stage.meta["generation"] = self.generation


# ----------------------------------------------------------------------
# the dispatch/retry driver
# ----------------------------------------------------------------------
class _StageDriver:
    """The one dispatch loop behind ``map_shards`` and ``run_many``.

    One instance drives one stage of ``fn(*task)`` calls: it owns the
    per-task attempt counts, the retry rounds (with decorrelated-jitter
    backoff and one-at-a-time isolation after an executor break), the
    telemetry bookkeeping, and — when a
    :class:`~repro.engine.deadline.TaskDeadline` is in force — the hard
    deadline watchdog: the wait loop polls every
    :data:`~repro.engine.deadline.POLL_INTERVAL_S`, and a task older than
    ``hard_timeout_s`` (counted from its submission; no more tasks are in
    flight than the pool has workers, so none of that is spent queueing)
    gets the whole pool SIGKILLed (a hung worker never
    honours a graceful shutdown), fails with :class:`TaskTimeoutError`,
    and retries on a rebuilt executor.  Tasks that were merely in flight
    on the killed pool fail too and burn an attempt, as any executor break
    does.

    The two callers differ only in what an exhausted task does:
    ``map_shards`` re-raises its error, ``run_many`` passes ``on_failure``
    to record a :class:`RunFailure` in the task's slot.  Pooled tasks only
    ever run in pool workers, never in this process; the driver notes
    whether the dispatching thread has a tracer and whether an event log
    is live, and each task observes exactly that much.  With ``pool=None``
    every task runs inline in this process — no pool is built, no
    telemetry is captured, no pool metric or ``pool.stage`` span is
    recorded, no watchdog runs — with the same retry rounds and backoff.
    With ``deadline=None`` (and no process default) the wait loop blocks
    unbounded.
    """

    def __init__(
        self,
        pool: Optional[WorkerPool],
        fn: Callable[..., Any],
        tasks: Sequence[Sequence[Any]],
        *,
        label: str,
        max_attempts: int,
        retry_backoff_s: float,
        deadline: Optional[TaskDeadline] = None,
        task_label: Optional[str] = None,
        on_failure: Optional[Callable[[int, BaseException, int], Any]] = None,
    ) -> None:
        from ..obs import events as obs_events
        from ..obs import spans as obs_spans

        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s cannot be negative")
        self.pool = pool
        self.fn = fn
        self.tasks = tasks
        self.n_tasks = n_tasks = len(tasks)
        self.label = label
        self.task_label = task_label if task_label is not None else label
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.on_failure = on_failure
        self.trace = obs_spans.get_tracer() is not None
        self.record = obs_events.get_event_log() is not None
        if pool is not None and deadline is None:
            deadline = deadline_mod.get_default_deadline()
        self.deadline = deadline

        self.results: List[Any] = [None] * n_tasks
        self.attempts = [0] * n_tasks
        self.errors: Dict[int, BaseException] = {}
        self.failed: List[int] = []
        self.bundles: List[Any] = []
        self._rng = random.Random()
        self._backoff_prev = retry_backoff_s

    # ------------------------------------------------------------------
    def run(self) -> List[Any]:
        """Settle every task; pooled, inside one ``pool.stage`` span.

        The span covers dispatch and the final merge, so the task spans
        graft under it and the stage's ``pool.*`` counters attribute to it.
        It is a no-op without a tracer.
        """
        if self.pool is None:
            return self._run_rounds()
        from ..obs import report as obs_report
        from ..obs import spans as obs_spans

        with obs_spans.span(
            obs_report.POOL_STAGE, label=self.label, workers=self.pool.workers
        ):
            return self._run_rounds()

    def _run_rounds(self) -> List[Any]:
        pending = list(range(self.n_tasks))
        round_index = 0
        isolate = False
        while pending:
            self.failed = []
            if self.pool is None:
                for index in pending:
                    self._run_one_inline(index)
            else:
                # After a round in which the executor died, retry the
                # survivors one at a time: a repeat killer then only breaks
                # its own attempt, so an innocent task can lose at most one
                # attempt as collateral however persistent the killer is.
                groups = [[index] for index in pending] if isolate else [pending]
                round_broken = False
                for group in groups:
                    round_broken = self._run_group(group, round_index) or round_broken
                isolate = round_broken
            ordered_failed = sorted(set(self.failed))
            exhausted = [
                index
                for index in ordered_failed
                if self.attempts[index] >= self.max_attempts
            ]
            if exhausted and self.on_failure is None:
                # The stage is lost, but its telemetry is not: merge what
                # shipped (including failed attempts' bundles) before
                # re-raising, so the failure is diagnosable from the
                # coordinator's own span tree and event log.
                self.finish()
                raise self.errors[exhausted[0]]
            pending = [
                index
                for index in ordered_failed
                if self.attempts[index] < self.max_attempts
            ]
            if pending:
                # Only sleep when a retry round actually follows: a task out
                # of attempts has already been settled and waiting would
                # delay the caller for nothing.
                time.sleep(self._next_backoff())
                round_index += 1
        self.finish()
        return self.results

    def finish(self) -> None:
        if self.pool is not None:
            self.pool._finish_stage(self.bundles)

    # ------------------------------------------------------------------
    def _run_one_inline(self, index: int) -> None:
        """One task in this process (a stage with no pool)."""
        self.attempts[index] += 1
        try:
            self.results[index] = self.fn(*self.tasks[index])
        except Exception as error:  # noqa: BLE001
            self.failed.append(index)
            self.errors[index] = error
            if self.on_failure is not None:
                self.results[index] = self.on_failure(
                    index, error, self.attempts[index]
                )

    def _run_group(self, group: List[int], round_index: int) -> bool:
        """Dispatch one group of pooled tasks and settle every one of them.

        At most ``pool.workers`` tasks are in flight: the next one is
        submitted as one settles.  So a task's age, which the watchdog
        holds against ``hard_timeout_s`` and the capture reports as its
        roundtrip, starts when a worker is free to take it rather than
        while it queues behind other shards.  A task still waiting here
        when the executor breaks has lost nothing: it is submitted to the
        rebuilt executor with its attempts intact.

        Returns whether the executor broke (worker death or watchdog kill)
        while the group ran, so the next round can isolate.
        """
        from ..obs import metrics as obs_metrics

        def on_submit_rebuild() -> None:
            obs_metrics.count("pool.worker_deaths")
            obs_metrics.count("pool.rebuilds")

        waiting = deque(group)
        index_of: Dict[Any, int] = {}
        dispatched_at: Dict[int, float] = {}
        outstanding: Set[Any] = set()
        poll_s = deadline_mod.POLL_INTERVAL_S if self.deadline is not None else None
        broken = False
        while waiting or outstanding:
            while waiting and len(outstanding) < self.pool.workers:
                index = waiting.popleft()
                self.attempts[index] += 1
                future = self.pool.submit_resilient(
                    _run_task,
                    self.fn,
                    self.tasks[index],
                    index,
                    self.attempts[index],
                    self.task_label,
                    self.trace,
                    self.record,
                    on_rebuild=on_submit_rebuild,
                )
                index_of[future] = index
                dispatched_at[index] = time.perf_counter()
                outstanding.add(future)
                obs_metrics.count("pool.tasks_dispatched")
                if round_index > 0:
                    obs_metrics.count("pool.tasks_retried")
            done, outstanding = wait(
                outstanding, timeout=poll_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                index = index_of[future]
                try:
                    outcome = future.result()
                except BaseException as error:  # noqa: BLE001
                    # BrokenProcessPool lands here for *every* future that
                    # shared the dead executor; record the attempt and let
                    # the retry rounds sort survivors out.  A task that
                    # raised still ships its telemetry, attached to the
                    # exception itself.
                    broken = broken or _pool_is_broken(error)
                    self._record_failure(index, error, dispatched_at[index])
                    continue
                self._record_success(index, outcome, dispatched_at[index])
            if outstanding and self.deadline is not None:
                if self._enforce_hard_deadline(outstanding, index_of, dispatched_at):
                    # The pool is dead and every outstanding task has been
                    # failed; nothing left can ever be collected.
                    broken = True
                    outstanding = set()
            # No early exit on ``broken``: a dead executor resolves every
            # future it still holds (with BrokenProcessPool), and the next
            # submit rebuilds it, so the tasks still waiting run on a fresh
            # executor rather than burning attempts they never used.
        if broken and self.pool.rebuild_if_broken():
            obs_metrics.count("pool.worker_deaths")
            obs_metrics.count("pool.rebuilds")
        return broken

    # ------------------------------------------------------------------
    def _record_success(
        self, index: int, outcome: Any, dispatched_time: float
    ) -> None:
        from ..obs import metrics as obs_metrics

        result, bundle = outcome
        self.results[index] = result
        self._keep_bundle(bundle, dispatched_time)
        obs_metrics.count("pool.tasks_completed")

    def _record_failure(
        self, index: int, error: BaseException, dispatched_time: float
    ) -> None:
        from ..obs import metrics as obs_metrics
        from ..obs import remote as obs_remote

        self.failed.append(index)
        self.errors[index] = error
        if self.on_failure is not None:
            self.results[index] = self.on_failure(
                index, error, self.attempts[index]
            )
        obs_metrics.count("pool.tasks_failed")
        bundle = obs_remote.bundle_from_error(error)
        if bundle is not None:
            self._keep_bundle(bundle, dispatched_time)

    def _keep_bundle(self, bundle: Any, dispatched_time: float) -> None:
        """Stamp the task's coordinator-side roundtrip on the bundle (and on
        its root span, where it shipped one, for the run report) and keep
        the bundle for the stage's final merge."""
        bundle.roundtrip_s = time.perf_counter() - dispatched_time
        if bundle.spans:
            bundle.spans[0]["meta"]["roundtrip_s"] = bundle.roundtrip_s
        self.bundles.append(bundle)

    def _enforce_hard_deadline(
        self,
        outstanding: Set[Any],
        index_of: Dict[Any, int],
        dispatched_at: Dict[int, float],
    ) -> bool:
        """Kill the pool when any task has blown its hard deadline.

        ``ProcessPoolExecutor`` offers no per-task cancellation once a task
        is on a worker, and a *hung* worker never honours a graceful
        shutdown — so enforcement is pool-wide: SIGKILL every worker, fail
        the overdue tasks with :class:`TaskTimeoutError`, and fail the
        innocents that were merely in flight with a collateral error.  All
        of them retry on the rebuilt executor, subject to their remaining
        attempts.  Returns whether enforcement happened.
        """
        from ..obs import events as obs_events
        from ..obs import metrics as obs_metrics

        hard = self.deadline.hard_timeout_s
        now = time.perf_counter()
        indices = sorted(index_of[future] for future in outstanding)
        overdue = {index for index in indices if now - dispatched_at[index] > hard}
        if not overdue:
            return False
        for index in indices:
            if index in overdue:
                error: BaseException = TaskTimeoutError(
                    self.label, index, self.attempts[index], hard
                )
                obs_metrics.count("pool.task_timeouts")
                obs_events.emit(
                    obs_events.TASK_TIMEOUT,
                    severity="critical",
                    source=self.label,
                    shard=index,
                    attempt=self.attempts[index],
                    timeout_s=hard,
                )
            else:
                error = RuntimeError(
                    f"task {self.label!r} shard {index} was in flight when the "
                    f"deadline watchdog killed the worker pool"
                )
            self._record_failure(index, error, dispatched_at[index])
        self.pool.kill()
        obs_metrics.count("pool.worker_deaths")
        obs_metrics.count("pool.rebuilds")
        return True

    # ------------------------------------------------------------------
    def _next_backoff(self) -> float:
        delay = _decorrelated_backoff(
            self.retry_backoff_s, self._backoff_prev, self._rng
        )
        self._backoff_prev = max(delay, self.retry_backoff_s)
        return delay


# ----------------------------------------------------------------------
# the process-wide persistent pools
# ----------------------------------------------------------------------
_POOLS: Dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``workers`` worker processes.

    Created on first request and kept for the life of the process (one
    pool per distinct worker count), so repeated ``run_many`` calls and
    sharded stages reuse warm workers instead of re-spawning.
    """
    if workers < 1:
        raise ValueError("a pool needs at least one worker")
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def warm_pool(workers: int) -> WorkerPool:
    """Spawn (or re-spawn) the persistent pool's workers right now."""
    pool = get_pool(workers)
    pool.warm()
    return pool


@atexit.register
def shutdown_pools() -> None:
    """Stop every persistent pool (atexit hook; callable from tests)."""
    for pool in _POOLS.values():
        pool.shutdown()


def _worker_barrier(index: int) -> int:
    """No-op task used by :meth:`WorkerPool.warm` to force spawning."""
    return index


# ----------------------------------------------------------------------
# run_many
# ----------------------------------------------------------------------
def run_many(
    specs: Sequence[Any],
    *,
    workers: int = 1,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    pool: Optional[WorkerPool] = None,
    deadline: Optional[TaskDeadline] = None,
) -> List[Any]:
    """Execute many specs, optionally across persistent worker processes.

    Results come back in spec order, one entry per spec: a
    :class:`RunArtifacts` on success, a :class:`RunFailure` once a spec has
    failed ``max_attempts`` times.  ``workers <= 1`` — or a batch of one —
    runs every spec inline in this process, through the same retry rounds
    and capped backoff, and creates no pool at all (cheapest for small
    batches and the only option on single-CPU hosts); otherwise the batch
    runs on the process-wide persistent pool for ``workers`` (or the
    explicit ``pool``), spawning workers only on first use.

    A dead worker breaks the whole executor, so every spec still in flight
    counts one failed attempt, the executor is rebuilt, and the survivors
    are resubmitted after a decorrelated-jitter backoff — an innocent spec
    sharing a pool with a crashing one is retried, not condemned.  The
    retry round after a break runs its survivors one at a time, so a repeat
    killer burns only its own remaining attempts, never an innocent's.  A
    break that races the submission loop itself costs nothing: the submit
    raises instead of returning a future, and the spec — which never
    reached a worker — is resubmitted on a rebuilt executor without burning
    an attempt.  The backoff never runs after a final failure: once no spec
    has attempts left there is nothing to wait for.

    ``deadline`` (or the process default — see
    :mod:`repro.engine.deadline`) additionally bounds a pooled batch under
    hangs: hung workers are killed at ``hard_timeout_s`` and the spec fails
    that attempt with :class:`TaskTimeoutError`.  With no deadline in force
    the loop blocks unbounded, exactly as before; an inline batch runs no
    watchdog.  A pooled spec never runs in this process, so one that hangs
    or exits its worker on every attempt ends as a :class:`RunFailure`
    without taking this process with it.

    Pooled batches run under worker-side telemetry capture: each spec's
    metric deltas ship back with its artifacts, with its span subtree under
    a live tracer and its events under a live event log, and merge into
    this process's live observability surfaces; the pool records its
    health metrics, and under a live tracer the batch is a ``pool.stage``
    span labelled ``run.many``, which the run report
    (:mod:`repro.obs.report`) reads.  An inline batch records nothing —
    in-process runs are already fully observable.
    """
    specs = list(specs)
    if workers <= 1 or len(specs) <= 1:
        pool = None
    elif pool is None:
        pool = get_pool(workers)
    driver = _StageDriver(
        pool,
        execute,
        [(spec,) for spec in specs],
        label="run.many",
        task_label="run.spec",
        max_attempts=max_attempts,
        retry_backoff_s=retry_backoff_s,
        deadline=deadline,
        on_failure=lambda index, error, attempts_used: _failure(
            specs[index], error, attempts_used
        ),
    )
    return driver.run()


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _failure(spec: Any, error: BaseException, attempts: int) -> RunFailure:
    return RunFailure(
        spec=spec,
        error_type=type(error).__name__,
        error=str(error) or repr(error),
        attempts=attempts,
    )


def _pool_is_broken(error: BaseException) -> bool:
    """Did this exception take the whole executor down with it?"""
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(error, BrokenProcessPool)
