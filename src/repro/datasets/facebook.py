"""Facebook-like datacenter datasets (DC1, DC2, DC3).

The paper evaluates on three production Facebook datacenters.  We cannot use
those; instead each DC here is a synthetic fleet whose *structure* mirrors
what the paper reports about them:

* **service mix** — reconstructed from the Figure 5 top-10 power-consumer
  breakdowns (DC1 dominated by frontend+cache, DC2 by hadoop and lab/dev
  machines, DC3 heavily latency-critical);
* **instance heterogeneity** — Sec. 5.2.1: "the degree of heterogeneity
  among instance power traces found in DC1 is much smaller than that in
  DC3"; we scale per-instance jitter accordingly (DC1 < DC2 < DC3);
* **original placement balance** — Sec. 5.2.1: DC1's baseline placement is
  "more balanced compared to DC3"; the oblivious baseline's ``mixing`` knob
  encodes that (DC1 highest, DC3 zero).

Together these drive the Figure 10 ordering (RPP peak reduction:
DC1 < DC2 < DC3) and the Figure 13/14 ordering (reshaping gains smallest in
DC3, which has the smallest Batch share).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..baselines.oblivious import oblivious_placement
from ..infra.assignment import Assignment
from ..infra.builder import TopologySpec, build_topology, ocp_spec
from ..infra.topology import PowerTopology
from ..traces.profiles import (
    ServiceProfile,
    cache_profile,
    db_profile,
    dev_profile,
    hadoop_profile,
    media_profile,
    search_profile,
    storage_profile,
    web_profile,
)
from ..traces.synthesis import Fleet, TraceSynthesizer, fleet_trace_set
from ..traces.traceset import TraceSet


@dataclass(frozen=True)
class DatacenterSpec:
    """Everything needed to synthesise one datacenter reproducibly."""

    name: str
    composition: Tuple[Tuple[ServiceProfile, float], ...]
    heterogeneity: float
    baseline_mixing: float
    topology: TopologySpec
    n_instances: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_instances <= 0:
            raise ValueError("n_instances must be positive")
        if self.heterogeneity < 0:
            raise ValueError("heterogeneity cannot be negative")
        if not 0 <= self.baseline_mixing <= 1:
            raise ValueError("baseline_mixing must be in [0, 1]")
        total = sum(fraction for _, fraction in self.composition)
        if total <= 0:
            raise ValueError("composition fractions must sum to a positive value")
        capacity = self.topology.total_capacity()
        if capacity is not None and self.n_instances > capacity:
            raise ValueError(
                f"{self.n_instances} instances exceed topology capacity {capacity}"
            )

    def instance_counts(self) -> List[Tuple[ServiceProfile, int]]:
        """Integer instance counts via largest-remainder apportionment.

        Composition fractions are *power* shares (Figure 5 reports the
        breakdown of average power, not machine counts), so each service's
        instance weight is its share divided by the expected mean draw of
        one of its servers.
        """
        weights = [
            (profile, fraction / profile.expected_mean_watts())
            for profile, fraction in self.composition
        ]
        total_weight = sum(weight for _, weight in weights)
        raw = [
            (profile, weight / total_weight * self.n_instances)
            for profile, weight in weights
        ]
        counts = [int(share) for _, share in raw]
        remainders = sorted(
            range(len(raw)), key=lambda i: raw[i][1] - counts[i], reverse=True
        )
        shortfall = self.n_instances - sum(counts)
        for i in remainders[:shortfall]:
            counts[i] += 1
        return [
            (profile, count)
            for (profile, _), count in zip(raw, counts)
            if count > 0
        ]


@dataclass
class Datacenter:
    """A materialised datacenter: fleet, topology, and original placement.

    ``records`` is the synthesized :class:`~repro.traces.synthesis.Fleet`;
    :meth:`training_traces` and :meth:`test_traces` return its read-only
    sets, not copies.
    """

    spec: DatacenterSpec
    records: Fleet
    topology: PowerTopology
    baseline: Assignment

    @property
    def name(self) -> str:
        return self.spec.name

    def training_traces(self) -> TraceSet:
        return fleet_trace_set(self.records)

    def test_traces(self) -> TraceSet:
        return fleet_trace_set(self.records, test=True)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts


def build_datacenter(
    spec: DatacenterSpec, *, weeks: int = 3, step_minutes: int = 10
) -> Datacenter:
    """Synthesise the fleet, build the tree, lay the oblivious baseline."""
    synthesizer = TraceSynthesizer(
        weeks=weeks, step_minutes=step_minutes, seed=spec.seed
    )
    composition = [
        (profile.with_heterogeneity(spec.heterogeneity), count)
        for profile, count in spec.instance_counts()
    ]
    records = synthesizer.fleet(composition)
    topology = build_topology(spec.topology)
    baseline = oblivious_placement(
        records, topology, mixing=spec.baseline_mixing, seed=spec.seed
    )
    return Datacenter(
        spec=spec, records=records, topology=topology, baseline=baseline
    )


# ----------------------------------------------------------------------
# The three datacenters under study
# ----------------------------------------------------------------------
def _scaled_topology(
    name: str, n_instances: int, *, target_fill: float = 0.9375
) -> TopologySpec:
    """A four-level OCP tree (4 suites x 2 MSB x 2 SB x 3 RPP) whose rack
    count and rack size scale with the fleet so occupancy stays near
    ``target_fill``.

    A fixed tree with a small fleet would leave most racks empty and let
    the service-grouped baseline pack densely while the optimiser spreads
    thinly -- an artifact, not a result.  At the default 1440-instance scale
    this yields the familiar 4/8/16/48/192-node tree.
    """
    n_rpps = 4 * 2 * 2 * 3
    slots_per_rpp = n_instances / target_fill / n_rpps
    racks_per_rpp = max(1, round(slots_per_rpp / 8))
    servers_per_rack = max(1, math.ceil(slots_per_rpp / racks_per_rpp))
    return ocp_spec(
        name,
        suites=4,
        msbs_per_suite=2,
        sbs_per_msb=2,
        rpps_per_sb=3,
        racks_per_rpp=racks_per_rpp,
        servers_per_rack=servers_per_rack,
    )


def dc1_spec(*, n_instances: int = 1440, seed: int = 101, scale: int = 1) -> DatacenterSpec:
    """DC1: frontend/cache-heavy, low heterogeneity, fairly balanced baseline.

    Figure 5 (DC1): frontend 20.8%, cache 20.1%, db A 8.3%, batchjob 8.3%,
    dev 7.8%, searchindex 7.8%, labserver 5.7%, mobiledev 5.2%, ...
    """
    composition = (
        (web_profile("frontend"), 0.208),
        (cache_profile("cache"), 0.201),
        (db_profile("db_a"), 0.083),
        (hadoop_profile("batchjob"), 0.083),
        (search_profile("searchindex"), 0.078),
        (dev_profile("dev"), 0.078),
        (dev_profile("labserver"), 0.057),
        (media_profile("mobiledev"), 0.052),
        (storage_profile("photostorage"), 0.047),
        (replace(db_profile("db_b"), peak_hour=4.0), 0.045),
        (storage_profile("misc"), 0.068),
    )
    return DatacenterSpec(
        name="DC1",
        composition=composition,
        heterogeneity=0.5,
        baseline_mixing=0.55,
        topology=_scaled_topology("dc1", n_instances * scale),
        n_instances=n_instances * scale,
        seed=seed,
    )


def dc2_spec(*, n_instances: int = 1440, seed: int = 202, scale: int = 1) -> DatacenterSpec:
    """DC2: hadoop/lab-heavy with a sizable db tier; moderate heterogeneity.

    Figure 5 (DC2): hadoop 25.9%, labserver 15.3%, db A 13.1%, batch 8.3%,
    dev 7.8%, frontend 7.2%, ...
    """
    composition = (
        (hadoop_profile("hadoop"), 0.259),
        (dev_profile("labserver"), 0.153),
        (db_profile("db_a"), 0.131),
        (hadoop_profile("batchjob"), 0.083),
        (dev_profile("dev"), 0.078),
        (web_profile("frontend"), 0.072),
        (storage_profile("photostorage"), 0.054),
        (search_profile("search"), 0.051),
        (cache_profile("cache"), 0.049),
        (media_profile("service_x"), 0.047),
        (storage_profile("misc"), 0.023),
    )
    return DatacenterSpec(
        name="DC2",
        composition=composition,
        heterogeneity=1.0,
        baseline_mixing=0.15,
        topology=_scaled_topology("dc2", n_instances * scale),
        n_instances=n_instances * scale,
        seed=seed,
    )


def dc3_spec(*, n_instances: int = 1440, seed: int = 303, scale: int = 1) -> DatacenterSpec:
    """DC3: strongly latency-critical mix, high heterogeneity, fully
    service-grouped original placement — the biggest placement win and the
    smallest reshaping win (few Batch instances to borrow budget from).

    Figure 5 (DC3): frontend 21.5%, cache 19.0%, hadoop 16.9%, db A 13.5%,
    mobiledev 13.1%, search 12.8%, ...
    """
    composition = (
        (web_profile("frontend"), 0.215),
        (cache_profile("cache"), 0.190),
        (hadoop_profile("hadoop"), 0.169),
        (db_profile("db_a"), 0.135),
        (media_profile("mobiledev"), 0.131),
        (search_profile("search"), 0.128),
        (replace(web_profile("instagram"), peak_hour=16.5), 0.046),
        (replace(db_profile("db_b"), peak_hour=4.0), 0.047),
        (dev_profile("labserver"), 0.042),
    )
    return DatacenterSpec(
        name="DC3",
        composition=composition,
        heterogeneity=1.5,
        baseline_mixing=0.0,
        topology=_scaled_topology("dc3", n_instances * scale),
        n_instances=n_instances * scale,
        seed=seed,
    )


def small_demo_spec(
    *, name: str = "demo", n_instances: int = 120, seed: int = 7
) -> DatacenterSpec:
    """A small, fast datacenter for examples and tests.

    Two suites, 16 racks, a representative five-service mix.  Builds in
    well under a second; placement gains are visible but less dramatic than
    the full DC1-3 fleets.
    """
    topology = ocp_spec(
        name,
        suites=2,
        msbs_per_suite=1,
        sbs_per_msb=2,
        rpps_per_sb=2,
        racks_per_rpp=2,
        servers_per_rack=10,
    )
    composition = (
        (web_profile("web"), 0.30),
        (cache_profile("cache"), 0.20),
        (db_profile("db"), 0.20),
        (hadoop_profile("hadoop"), 0.20),
        (search_profile("search"), 0.10),
    )
    return DatacenterSpec(
        name=name,
        composition=composition,
        heterogeneity=1.0,
        baseline_mixing=0.0,
        topology=topology,
        n_instances=n_instances,
        seed=seed,
    )


def all_datacenter_specs(
    *, n_instances: int = 1440, scale: int = 1
) -> List[DatacenterSpec]:
    """Specs for the three datacenters under study, in paper order."""
    return [
        dc1_spec(n_instances=n_instances, scale=scale),
        dc2_spec(n_instances=n_instances, scale=scale),
        dc3_spec(n_instances=n_instances, scale=scale),
    ]
