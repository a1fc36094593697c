"""Service instances and instance power traces (I-traces).

A *service instance* is one process of a service running on its own physical
server (Sec. 3.1: Facebook deploys instances as native processes, one major
service per machine).  Its *instance power trace* is the 7-day per-machine
power log of Eq. 3; Eq. 4 averages 2-3 weeks of those logs into the averaged
I-trace that drives placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .series import PowerTrace


class ServiceKind:
    """Coarse service classes used by the reshaping runtime (Sec. 4)."""

    LATENCY_CRITICAL = "latency_critical"
    BATCH = "batch"
    STORAGE = "storage"
    OTHER = "other"

    ALL = (LATENCY_CRITICAL, BATCH, STORAGE, OTHER)


@dataclass(frozen=True)
class ServiceInstance:
    """One service instance pinned to one physical server.

    Attributes
    ----------
    instance_id:
        Globally unique id, e.g. ``"web-0042"``.
    service:
        Name of the owning service (``"web"``, ``"db"``, ``"hadoop"``, ...).
    kind:
        One of :class:`ServiceKind` — drives conversion eligibility.
    """

    instance_id: str
    service: str
    kind: str = ServiceKind.OTHER

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise ValueError("instance_id cannot be empty")
        if not self.service:
            raise ValueError("service cannot be empty")
        if self.kind not in ServiceKind.ALL:
            raise ValueError(f"unknown service kind: {self.kind!r}")


def average_instance_trace(weekly_traces: Sequence[PowerTrace]) -> PowerTrace:
    """Average multiple single-week I-traces into one averaged I-trace (Eq. 4).

    Each input must be a whole-week trace on the same grid shape; the output
    element at time-of-week *t* is the mean of the inputs at *t*.
    """
    if not weekly_traces:
        raise ValueError("need at least one weekly trace")
    first = weekly_traces[0]
    total = first.values.copy()
    for trace in weekly_traces[1:]:
        if trace.grid.n_samples != first.grid.n_samples or (
            trace.grid.step_minutes != first.grid.step_minutes
        ):
            raise ValueError("weekly traces must share sampling shape")
        total = total + trace.values
    return PowerTrace(first.grid, total / len(weekly_traces))


def training_week_count(n_weeks: int, test_weeks: int) -> int:
    """Weeks left for Eq. 4 averaging once the last ``test_weeks`` are held out."""
    if test_weeks < 0:
        raise ValueError("test_weeks cannot be negative")
    if n_weeks <= test_weeks:
        raise ValueError(
            f"need more than {test_weeks} weeks of telemetry, got {n_weeks}"
        )
    return n_weeks - test_weeks


@dataclass
class InstanceRecord:
    """An instance together with its telemetry.

    ``training_trace`` is the averaged I-trace (Eq. 4) built from the first
    weeks of telemetry; ``test_trace`` is the held-out evaluation week
    (Sec. 5.1's train/test split).
    """

    instance: ServiceInstance
    training_trace: PowerTrace
    test_trace: Optional[PowerTrace] = None

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id

    @property
    def service(self) -> str:
        return self.instance.service

    @property
    def kind(self) -> str:
        return self.instance.kind

    @classmethod
    def from_weeks(
        cls,
        instance: ServiceInstance,
        weekly_traces: Sequence[PowerTrace],
        *,
        test_weeks: int = 1,
    ) -> "InstanceRecord":
        """Split weekly telemetry into training average + held-out test week.

        The last ``test_weeks`` weeks are reserved for evaluation; the
        remainder is averaged per Eq. 4.  With ``test_weeks=0`` all weeks
        train and ``test_trace`` is ``None``.
        """
        n_train = training_week_count(len(weekly_traces), test_weeks)
        training_weeks = list(weekly_traces[:n_train])
        training = average_instance_trace(training_weeks)
        test = weekly_traces[-1] if test_weeks else None
        return cls(instance=instance, training_trace=training, test_trace=test)


def group_by_service(
    records: Iterable[InstanceRecord],
) -> Dict[str, List[InstanceRecord]]:
    """Bucket instance records by owning service (insertion order kept)."""
    grouped: Dict[str, List[InstanceRecord]] = {}
    for record in records:
        grouped.setdefault(record.service, []).append(record)
    return grouped
