"""Deterministic infrastructure fault injection for the worker pool.

:mod:`repro.faults` injects faults into the *telemetry* the system reasons
about; this module injects faults into the *infrastructure* the system
runs on — the worker processes of the parallel data plane.  It exists so
the failure-domain layer (:mod:`repro.engine.deadline`,
:mod:`repro.engine.parallel`) can be proven against every failure mode the
paper's production environment exhibits, deterministically and in CI:

============== =====================================================
kind           worker-side effect
============== =====================================================
``hang``       sleep past any plausible deadline (watchdog territory)
``slow``       sleep ``duration_s`` then complete (under the deadline)
``kill``       ``os._exit`` — the worker dies without cleanup
``exception``  raise :class:`InjectedFault`
``oversized_bundle``  emit ``payload_events`` events so the telemetry
               bundle shipped home is pathologically large
``shm_exhaust``  raise ``OSError(ENOSPC)`` as a ``/dev/shm``-full
               allocation would
============== =====================================================

Faults are configured by the ``REPRO_INFRA_FAULTS`` environment variable —
a JSON object or list of objects, e.g.::

    REPRO_INFRA_FAULTS='{"kind": "kill", "shards": [1], "times": 2}'

— and **activated only inside pool workers**: the pool's worker
initializer calls :func:`activate`, which both parses the spec and flips
the worker-process flag.  The coordinator never activates, and pooled work
never runs in the coordinator, so every injected fault lands in a worker,
where the retry rounds and the hard-deadline watchdog must contain it.  The
recovery guarantee the scenario suite asserts is that they do: results
bit-identical to a fault-free serial run, or a clean failure once a fault
outlasts every attempt.

Injection is a pure function of ``(fault spec, shard_id, attempt)``:
a fault fires on attempts ``1..times`` of its matching shards (plus an
optional deterministic per-``(seed, shard, attempt)`` coin flip when
``probability < 1``), so every run of a scenario injects exactly the same
faults in exactly the same places.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "InfraFault",
    "InjectedFault",
    "activate",
    "call_with_faults",
    "configured",
    "deactivate",
    "faults_from_env",
    "inject",
    "parse_faults",
]

#: Environment variable carrying the JSON fault spec(s).
FAULTS_ENV = "REPRO_INFRA_FAULTS"

#: Every failure mode the injector knows how to produce.
FAULT_KINDS = (
    "hang",
    "slow",
    "kill",
    "exception",
    "oversized_bundle",
    "shm_exhaust",
)

#: Exit status of a ``kill``-faulted worker (distinct from real crashes).
KILL_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """The exception raised by an ``exception``-kind infra fault."""


@dataclass(frozen=True)
class InfraFault:
    """One deterministic fault: what to do, where, and how many times."""

    #: One of :data:`FAULT_KINDS`.
    kind: str

    #: Shard ids the fault applies to; ``None`` means every shard.
    shards: Optional[Tuple[int, ...]] = None

    #: The fault fires on attempts ``1..times`` of a matching shard, so a
    #: ``times=1`` fault is recovered by the first retry and a
    #: ``times >= max_attempts`` fault is a permanent casualty.
    times: int = 1

    #: Sleep length for ``hang`` / ``slow`` faults.  A hang should dwarf
    #: the hard deadline under test; a slow should stay under it.
    duration_s: float = 30.0

    #: Events emitted by an ``oversized_bundle`` fault.
    payload_events: int = 5000

    #: Fire probability, decided by a deterministic per-(seed, shard,
    #: attempt) draw — ``1.0`` always fires.
    probability: float = 1.0

    #: Seed for the probability draw (and nothing else).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown infra fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be at least 1")
        if self.duration_s < 0:
            raise ValueError("duration_s cannot be negative")
        if self.payload_events < 0:
            raise ValueError("payload_events cannot be negative")
        if not 0 < self.probability <= 1:
            raise ValueError("probability must be in (0, 1]")

    # ------------------------------------------------------------------
    def matches(self, shard_id: int, attempt: int) -> bool:
        """Does this fault fire for ``shard_id``'s ``attempt``-th try?"""
        if self.shards is not None and shard_id not in self.shards:
            return False
        if attempt > self.times:
            return False
        if self.probability < 1.0:
            # mix (seed, shard, attempt) into one int — random.Random only
            # seeds from scalars, and this stays stable across processes
            mixed = (self.seed * 1_000_003 + shard_id) * 1_000_003 + attempt
            draw = random.Random(mixed).random()
            if draw >= self.probability:
                return False
        return True

    def apply(self, shard_id: int, attempt: int) -> None:
        """Produce the failure (worker side)."""
        from ..obs import events as obs_events

        obs_events.emit(
            obs_events.FAULT_INJECTION,
            severity="warning",
            source="chaos_infra",
            fault=self.kind,
            shard=shard_id,
            attempt=attempt,
        )
        if self.kind == "hang":
            time.sleep(self.duration_s)
        elif self.kind == "slow":
            time.sleep(self.duration_s)
        elif self.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        elif self.kind == "exception":
            raise InjectedFault(
                f"injected worker exception (shard {shard_id}, attempt {attempt})"
            )
        elif self.kind == "oversized_bundle":
            for index in range(self.payload_events):
                obs_events.emit(
                    obs_events.FAULT_INJECTION,
                    source="chaos_infra.payload",
                    shard=shard_id,
                    index=index,
                )
        elif self.kind == "shm_exhaust":
            raise OSError(
                errno.ENOSPC,
                f"injected shared-memory exhaustion (shard {shard_id}, "
                f"attempt {attempt})",
            )


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def parse_faults(text: str) -> Tuple[InfraFault, ...]:
    """Parse the ``REPRO_INFRA_FAULTS`` JSON: one object or a list."""
    text = (text or "").strip()
    if not text:
        return ()
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ValueError("infra fault spec must be a JSON object or list")
    faults = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise ValueError("each infra fault must be a JSON object")
        entry = dict(entry)
        shards = entry.get("shards")
        if shards is not None:
            entry["shards"] = tuple(int(s) for s in shards)
        faults.append(InfraFault(**entry))
    return tuple(faults)


def faults_from_env() -> Tuple[InfraFault, ...]:
    """The faults the environment configures (empty when unset)."""
    return parse_faults(os.environ.get(FAULTS_ENV, ""))


def configured() -> bool:
    """Is a fault spec present in the environment?

    Coordinator-side gate: the dispatch loop only routes tasks through the
    injection wrapper when this is true, so the fault-free fast path pays
    nothing.  Raises on an unparsable spec — a chaos run with a typoed
    spec must fail loudly, not silently run fault-free.
    """
    return bool(faults_from_env())


# ----------------------------------------------------------------------
# worker-side activation and injection
# ----------------------------------------------------------------------
#: Faults active in THIS process.  Only :func:`activate` — called from the
#: pool's worker initializer — populates it, so the coordinator never
#: injects.
_ACTIVE: Tuple[InfraFault, ...] = ()


def activate() -> Tuple[InfraFault, ...]:
    """Arm the injectors from the environment (worker initializer hook)."""
    global _ACTIVE
    _ACTIVE = faults_from_env()
    return _ACTIVE


def deactivate() -> None:
    """Disarm the injectors in this process (test isolation hook)."""
    global _ACTIVE
    _ACTIVE = ()


def inject(shard_id: int, attempt: int) -> None:
    """Apply every armed fault matching ``(shard_id, attempt)``.

    Near-free no-op when nothing is armed (the coordinator, fault-free
    runs).
    """
    if not _ACTIVE:
        return
    for fault in _ACTIVE:
        if fault.matches(shard_id, attempt):
            fault.apply(shard_id, attempt)


def call_with_faults(fn, shard_id: int, attempt: int, *args):
    """Run ``fn(*args)`` with armed faults applied first (worker side).

    The dispatch loop routes tasks through this wrapper only when a fault
    spec is configured; it is module-level so it pickles into workers.
    """
    inject(shard_id, attempt)
    return fn(*args)
