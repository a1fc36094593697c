"""Service power traces (S-traces) — Eq. 5 of the paper.

For a service *Y*, the S-trace is the mean of the averaged I-traces of all of
*Y*'s instances.  The S-traces of the top power-consumer services form the
basis against which every instance's asynchrony-score vector is computed
(Sec. 3.3-3.4).

:class:`ServiceRows` holds the one implementation of the top-consumer
ranking and of Eq. 5.  It works on row indices of a stacked trace matrix,
which is how the placer asks for a basis at every node of the power tree;
the record-based functions here are thin wrappers over it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .grid import TimeGrid
from .instance import InstanceRecord, group_by_service
from .series import PowerTrace
from .synthesis import fleet_trace_set
from .traceset import TraceSet, sum_rows


class ServiceRows:
    """A stacked ``(n, T)`` trace matrix whose rows are tagged by service.

    Each row's facts are computed once: a service code (codes number the
    services in order of first appearance, ``names[code]`` is the service)
    and its energy, ``matrix.sum(axis=1) * step``, which equals that row's
    :meth:`PowerTrace.energy` bit for bit.  Every query then takes an
    optional index array ``rows`` (all rows by default) and answers for
    those rows in that order, with the same bits as a loop over the
    matching records: ``np.bincount`` adds the energies in row order, like
    a running per-service total, and :func:`~repro.traces.traceset.sum_rows`
    adds a service's rows in order, like ``total += values``.  (A plain
    axis-0 sum does not on a one-sample grid, where numpy adds the
    contiguous column pairwise.)
    """

    __slots__ = ("grid", "matrix", "names", "codes", "energy")

    def __init__(
        self, grid: TimeGrid, matrix: np.ndarray, services: Sequence[str]
    ) -> None:
        if matrix.shape != (len(services), grid.n_samples):
            raise ValueError(
                f"matrix shape {matrix.shape} inconsistent with "
                f"{len(services)} services x {grid.n_samples} samples"
            )
        code_of: Dict[str, int] = {}
        self.codes = np.array(
            [code_of.setdefault(service, len(code_of)) for service in services],
            dtype=np.intp,
        )
        self.names = list(code_of)
        self.grid = grid
        self.matrix = matrix
        self.energy = matrix.sum(axis=1) * grid.step_minutes

    @classmethod
    def from_records(cls, records: Sequence[InstanceRecord]) -> "ServiceRows":
        """The records' training traces as rows (one grid for all, checked).

        A :class:`~repro.traces.synthesis.Fleet` lends its own training
        matrix; other records are copied
        (:func:`~repro.traces.synthesis.fleet_trace_set`).
        """
        if not records:
            raise ValueError("no records to stack")
        traces = fleet_trace_set(records)
        return cls(traces.grid, traces.matrix, [record.service for record in records])

    def top_services(
        self, top_m: int, rows: Optional[np.ndarray] = None
    ) -> List[str]:
        """The ``top_m`` services of ``rows`` by total energy, largest first.

        Ties break by service name, and ``top_m`` is clamped to the number
        of services present.
        """
        return [self.names[code] for code in self._ranked(top_m, rows)]

    def basis(self, top_m: int, rows: Optional[np.ndarray] = None) -> TraceSet:
        """S-traces of the ``top_m`` services of ``rows`` (Eq. 5), ranked.

        The set's ids are service names in :meth:`top_services` order — the
        basis *{PS_1 .. PS_m}* of Figure 7.
        """
        ranked = self._ranked(top_m, rows)
        rows = np.arange(len(self.codes)) if rows is None else rows
        codes = self.codes[rows]
        matrix = np.empty((len(ranked), self.grid.n_samples))
        for k, code in enumerate(ranked):
            members = rows[codes == code]
            matrix[k] = sum_rows(self.matrix[members]) / len(members)
        return TraceSet(self.grid, [self.names[code] for code in ranked], matrix)

    def _ranked(self, top_m: int, rows: Optional[np.ndarray]) -> List[int]:
        if top_m <= 0:
            raise ValueError(f"top_m must be positive, got {top_m}")
        codes = self.codes if rows is None else self.codes[rows]
        energy = self.energy if rows is None else self.energy[rows]
        size = len(self.names)
        totals = np.bincount(codes, weights=energy, minlength=size)
        present = np.flatnonzero(np.bincount(codes, minlength=size))
        ranked = sorted(
            present.tolist(), key=lambda code: (-totals[code], self.names[code])
        )
        return ranked[:top_m]


def service_power_trace(records: Sequence[InstanceRecord]) -> PowerTrace:
    """The S-trace of one service: mean of its instances' averaged I-traces."""
    if not records:
        raise ValueError("service has no instances")
    services = {record.service for record in records}
    if len(services) > 1:
        raise ValueError(f"records span multiple services: {sorted(services)}")
    return ServiceRows.from_records(records).basis(1)[records[0].service]


def build_service_traces(
    records: Iterable[InstanceRecord],
) -> Dict[str, PowerTrace]:
    """S-traces for every service present in ``records``."""
    return {
        service: service_power_trace(service_records)
        for service, service_records in group_by_service(records).items()
    }


def total_energy_by_service(records: Iterable[InstanceRecord]) -> Dict[str, float]:
    """Total training-trace energy per service (watt-minutes).

    This is the quantity behind Figure 5's "30-day average power consumption"
    breakdown: the share of each service in the datacenter's energy.
    """
    energy: Dict[str, float] = {}
    for record in records:
        energy[record.service] = energy.get(record.service, 0.0) + record.training_trace.energy()
    return energy


def top_power_consumers(
    records: Sequence[InstanceRecord], top_m: int
) -> List[str]:
    """Names of the ``top_m`` services by total power, largest first.

    These are the services whose S-traces span the asynchrony-score space
    (the set *B* of Sec. 3.5).  Ties break by service name for determinism.
    """
    if top_m <= 0:
        raise ValueError(f"top_m must be positive, got {top_m}")
    if not records:
        return []
    return ServiceRows.from_records(records).top_services(top_m)


def extract_basis_traces(
    records: Sequence[InstanceRecord], top_m: int
) -> "TraceSet":
    """S-traces of the top-``top_m`` power consumers as a :class:`TraceSet`.

    The returned set's ids are service names, ordered by descending power —
    the basis *{PS_1 .. PS_m}* of Figure 7.  ``top_m`` is clamped to the
    number of distinct services.
    """
    return ServiceRows.from_records(records).basis(top_m)
