"""The simulation core: one run loop for every scenario mode.

:class:`Engine` owns the fleet models, the trace assembly step, the
conversion planner, and the emergency capping fallback.  :meth:`Engine.run`
executes one declarative :class:`~repro.engine.spec.ScenarioSpec` by its
mode: it plans the per-step fleet (extra LC servers, the conversion plan,
throttle/boost, and for the ``*_chaos`` modes the fault models), assembles
the :class:`~repro.engine.state.ScenarioResult`, routes the chaos modes
through :meth:`Engine.recover`, and returns
:class:`~repro.engine.state.RunArtifacts`.  The golden parity suite in
``tests/engine/`` pins its results bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..obs import telemetry as obs_telemetry
from ..infra.assignment import Assignment
from ..infra.breaker import BreakerModel
from ..infra.topology import PowerNode, PowerTopology
from ..reshaping.throttling import ThrottleBoostPolicy
from ..sim.batch import batch_throughput
from ..sim.demand import DemandTrace
from ..sim.loadbalancer import dispatch
from ..sim.power_model import DVFSModel
from ..traces.instance import ServiceKind
from ..traces.series import PowerTrace
from ..traces.traceset import TraceSet
from .capping import CappingPolicy, CappingReport, CappingSimulator
from .faults import (
    BATCH_POOL,
    LC_POOL,
    ChaosRunResult,
    ConversionFaultModel,
    ConversionLog,
    RecoveryReport,
    ServerFailureSchedule,
)
from .spec import ScenarioSpec
from .state import FleetDescription, RunArtifacts, ScenarioResult

#: Spec fields that configure the engine; a spec that sets one (not
#: ``None``) must agree with the engine it runs on.
_ENGINE_FIELDS = (
    "fleet",
    "conversion",
    "throttle",
    "dvfs",
    "failures",
    "conversion_faults",
    "breaker",
    "capping_policy",
    "seed",
)


class Engine:
    """Runs declarative scenarios for one datacenter fleet."""

    def __init__(
        self,
        fleet: FleetDescription,
        conversion,
        *,
        throttle: Optional[ThrottleBoostPolicy] = None,
        dvfs: Optional[DVFSModel] = None,
        failures: Optional[ServerFailureSchedule] = None,
        conversion_faults: Optional[ConversionFaultModel] = None,
        breaker: Optional[BreakerModel] = None,
        capping_policy: Optional[CappingPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.fleet = fleet
        self.conversion = conversion
        self.throttle = throttle if throttle is not None else ThrottleBoostPolicy()
        self.dvfs = dvfs if dvfs is not None else DVFSModel()
        self.failures = failures if failures is not None else ServerFailureSchedule()
        self.conversion_faults = (
            conversion_faults if conversion_faults is not None else ConversionFaultModel()
        )
        self.breaker = breaker if breaker is not None else BreakerModel()
        self.capping_policy = (
            capping_policy if capping_policy is not None else CappingPolicy()
        )
        self.seed = seed

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Engine":
        return cls(
            spec.fleet,
            spec.conversion,
            throttle=spec.throttle,
            dvfs=spec.dvfs,
            failures=spec.failures,
            conversion_faults=spec.conversion_faults,
            breaker=spec.breaker,
            capping_policy=spec.capping_policy,
            seed=spec.seed,
        )

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self, spec: ScenarioSpec) -> RunArtifacts:
        """Execute one spec's mode; the ``*_chaos`` modes end in :meth:`recover`."""
        for name in _ENGINE_FIELDS:
            value = getattr(spec, name)
            mine = getattr(self, name)
            if value is not None and value is not mine and value != mine:
                raise ValueError(
                    f"spec.{name} differs from the engine's; "
                    "run the spec on Engine.from_spec(spec)"
                )
        mode = spec.mode
        n = spec.demand.grid.n_samples
        logs = None
        if mode in ("throttle_boost", "throttle_boost_chaos"):
            result = self._throttle_boost(spec)
        else:
            n_lc_active = np.full(n, float(self.fleet.n_lc))
            n_batch_active = np.full(n, float(self.fleet.n_batch))
            parked = None
            if mode == "lc_only":
                n_lc_active = n_lc_active + float(spec.extra_servers)
            elif mode in ("conversion", "conversion_chaos"):
                _, n_lc_active, n_batch_active, parked = self.conversion_plan(
                    spec.demand, spec.extra_servers
                )
            if mode == "conversion_chaos":
                n_lc_active, n_batch_active, parked, logs = self._conversion_faults(
                    spec.extra_servers, n_lc_active, n_batch_active
                )
                n_lc_active, n_batch_active = self._server_failures(
                    n, n_lc_active, n_batch_active
                )
            result = self.assemble(
                spec.scenario_name,
                spec.demand,
                n_lc_active=n_lc_active,
                n_batch_active=n_batch_active,
                batch_freq=np.ones(n),
                parked=parked,
            )
        if mode.endswith("_chaos"):
            result = self.recover(result)
        if logs is not None:
            recovery = result.recovery
            recovery.conversion_lc, recovery.conversion_batch = logs
            recovery.failure_downtime_server_steps = (
                self.failures.downtime_server_steps(n)
            )
        return RunArtifacts(
            spec=spec, result=result, events=obs_events.get_event_log()
        )

    def _throttle_boost(self, spec: ScenarioSpec) -> ScenarioResult:
        """Conversion plus proactive batch DVFS (Sec. 4.3).

        Nominal run → boost against the nominal slack → re-fit wherever
        the boosted run still exceeds its budget.
        """
        fleet = self.fleet
        demand = spec.demand
        funded = spec.extra_throttle_funded
        if funded is None:
            funded = self.throttle.extra_conversion_servers(
                fleet.n_batch,
                fleet.batch_model,
                fleet.lc_model,
                n_lc=fleet.n_lc,
            )
        if funded < 0:
            raise ValueError("extra_throttle_funded cannot be negative")
        lc_heavy, n_lc_active, n_batch_active, parked = self.conversion_plan(
            demand, spec.extra_servers + funded
        )

        def assemble(batch_freq: np.ndarray) -> ScenarioResult:
            return self.assemble(
                spec.scenario_name,
                demand,
                n_lc_active=n_lc_active,
                n_batch_active=n_batch_active,
                batch_freq=batch_freq,
                parked=parked,
            )

        # LC-heavy: batch throttled.  Batch-heavy: boost into the slack left
        # by the nominal-frequency power draw.
        freq = np.where(lc_heavy, self.throttle.throttle_freq, 1.0)
        nominal = assemble(freq)
        boost = self.throttle.boost_schedule(
            nominal.power_slack(), n_batch_active, fleet.batch_model, self.dvfs
        )
        freq = np.where(~lc_heavy, np.maximum(boost, 1.0), freq)
        boosted = assemble(freq)
        # Regression guard: the boost schedule is solved against the
        # *nominal* run's slack.  Wherever the realised scenario still
        # exceeds budget (pre-existing overload, full-safety rounding),
        # re-solve the batch frequency against the actual non-batch draw so
        # the boosted scenario never trades throughput for a breaker trip.
        if boosted.overload_steps():
            boosted = assemble(self.fit_freq_to_budget(boosted, freq))
        throttled_steps = int(np.count_nonzero(boosted.batch_freq < 1.0 - 1e-12))
        if throttled_steps:
            obs_events.emit(
                obs_events.THROTTLE,
                source="reshaping.throttle_boost",
                steps=throttled_steps,
                min_freq=float(boosted.batch_freq.min()),
                throttle_freq=float(self.throttle.throttle_freq),
            )
        boosted_steps = int(np.count_nonzero(boosted.batch_freq > 1.0 + 1e-12))
        if boosted_steps:
            obs_events.emit(
                obs_events.BOOST,
                source="reshaping.throttle_boost",
                steps=boosted_steps,
                max_freq=float(boosted.batch_freq.max()),
            )
        return boosted

    def _conversion_faults(
        self,
        extra_servers: int,
        n_lc_active: np.ndarray,
        n_batch_active: np.ndarray,
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, Tuple[ConversionLog, ConversionLog]
    ]:
        """Realise the conversion plan through the conversion fault model.

        Returns ``(n_lc_active, n_batch_active, parked, (lc_log,
        batch_log))``: what latency, retries and aborts actually deliver.
        Extras neither serving LC nor running batch idle mid-conversion.
        """
        fleet = self.fleet
        rng = np.random.default_rng([self.seed, 0xC0])
        realized_lc, log_lc = self.conversion_faults.realize(
            n_lc_active - fleet.n_lc, rng
        )
        realized_batch, log_batch = self.conversion_faults.realize(
            n_batch_active - fleet.n_batch, rng
        )
        parked = np.maximum(extra_servers - realized_lc - realized_batch, 0.0)
        for pool, log in ((LC_POOL, log_lc), (BATCH_POOL, log_batch)):
            obs_events.emit(
                obs_events.CONVERSION,
                severity="warning" if log.n_aborted else "info",
                source="faults.conversion",
                pool=pool,
                transitions=log.n_transitions,
                failed_attempts=log.n_failed_attempts,
                aborted=log.n_aborted,
                delayed_server_steps=log.delayed_server_steps,
            )
        return (
            fleet.n_lc + realized_lc,
            fleet.n_batch + realized_batch,
            parked,
            (log_lc, log_batch),
        )

    def _server_failures(
        self, n: int, n_lc_active: np.ndarray, n_batch_active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Subtract the failure schedule's offline servers from the plan."""
        lc_lost, batch_lost = self.failures.lost_servers(n)
        if self.failures.events:
            obs_events.emit(
                obs_events.FAULT_INJECTION,
                severity="warning",
                source="faults.failures",
                fault="server_failures",
                events=len(self.failures.events),
                downtime_server_steps=self.failures.downtime_server_steps(n),
            )
        return (
            np.maximum(n_lc_active - lc_lost, 0.0),
            np.maximum(n_batch_active - batch_lost, 0.0),
        )

    # ------------------------------------------------------------------
    # conversion planning (Sec. 4.2)
    # ------------------------------------------------------------------
    def conversion_plan(
        self, demand: DemandTrace, total_extra: int
    ) -> "tuple":
        """Per-step fleet plan for ``total_extra`` conversion servers.

        Returns ``(lc_heavy, n_lc_active, n_batch_active, parked)``: during
        LC-heavy Phase every extra runs LC; during Batch-heavy Phase at most
        ``batch_convertible`` extras run batch and the remainder sit parked
        at idle, OS up, ready to convert (Sec. 4.2).
        """
        lc_heavy = self.conversion.lc_heavy_mask(demand, self.fleet.n_lc)
        convertible = self.conversion.batch_convertible(
            total_extra, self.fleet.n_batch
        )
        batch_heavy_f = (~lc_heavy).astype(np.float64)
        n_lc_active = self.fleet.n_lc + total_extra * lc_heavy.astype(np.float64)
        n_batch_active = self.fleet.n_batch + convertible * batch_heavy_f
        parked = (total_extra - convertible) * batch_heavy_f
        obs_events.emit(
            obs_events.CONVERSION,
            source="reshaping.conversion_plan",
            phase_changes=int(np.count_nonzero(np.diff(lc_heavy))),
            total_extra=int(total_extra),
            batch_convertible=int(convertible),
            parked_peak=float(parked.max()) if len(parked) else 0.0,
        )
        return lc_heavy, n_lc_active, n_batch_active, parked

    def fit_freq_to_budget(
        self, result: ScenarioResult, freq: np.ndarray
    ) -> np.ndarray:
        """Lower the batch frequency wherever ``result`` exceeds its budget.

        Solves ``n x (idle + swing x f^gamma) <= budget - non_batch_power``
        per step and clamps into the DVFS range; steps already within budget
        keep their schedule.  Overload that batch throttling alone cannot
        cure (non-batch draw above budget even at ``min_freq``) is left for
        the emergency capping fallback (:meth:`recover`).
        """
        over = result.total_power > result.budget_watts + 1e-9
        if not np.any(over):
            return freq
        model = self.fleet.batch_model
        n_batch = result.n_batch_active
        batch_power = n_batch * model.power(1.0, result.batch_freq)
        non_batch = result.total_power - batch_power
        allowed = result.budget_watts - non_batch - 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            per_server = np.where(
                n_batch > 0, allowed / np.maximum(n_batch, 1e-12), np.inf
            )
        ratio = np.maximum((per_server - model.idle_watts) / model.swing_watts, 0.0)
        safe = np.power(ratio, 1.0 / model.gamma)
        safe = np.clip(safe, self.dvfs.min_freq, self.dvfs.max_freq)
        return np.where(over, np.minimum(freq, safe), freq)

    # ------------------------------------------------------------------
    # trace assembly
    # ------------------------------------------------------------------
    def assemble(
        self,
        name: str,
        demand: DemandTrace,
        *,
        n_lc_active: np.ndarray,
        n_batch_active: np.ndarray,
        batch_freq: np.ndarray,
        parked: Optional[np.ndarray] = None,
    ) -> ScenarioResult:
        """Assemble a :class:`ScenarioResult` from one per-step fleet plan."""
        with obs.span("reshape.assemble", scenario=name):
            return self._assemble_traced(
                name,
                demand,
                n_lc_active=n_lc_active,
                n_batch_active=n_batch_active,
                batch_freq=batch_freq,
                parked=parked,
            )

    def _assemble_traced(
        self,
        name: str,
        demand: DemandTrace,
        *,
        n_lc_active: np.ndarray,
        n_batch_active: np.ndarray,
        batch_freq: np.ndarray,
        parked: Optional[np.ndarray] = None,
    ) -> ScenarioResult:
        obs.count("reshape.scenarios_assembled")
        obs.count("reshape.steps_simulated", demand.grid.n_samples)
        outcome = dispatch(
            demand.values, n_lc_active, self.conversion.conversion_threshold
        )
        batch = batch_throughput(n_batch_active, batch_freq, self.dvfs)

        lc_power = n_lc_active * self.fleet.lc_model.power(outcome.per_server_load)
        batch_power = n_batch_active * self.fleet.batch_model.power(1.0, batch.freq)
        total = lc_power + batch_power
        if parked is not None:
            # Parked conversion servers idle with the OS up (no reboot on
            # conversion, Sec. 4.2), drawing the LC idle floor.
            total = total + np.asarray(parked, dtype=np.float64) * self.fleet.lc_model.power(0.0)
        if self.fleet.other_power is not None:
            demand.grid.require_same(self.fleet.other_power.grid)
            total = total + self.fleet.other_power.values

        # Flight-recorder hook: per-step utilization/slack/headroom against
        # the scenario budget, plus violation/advisory events.  No-op unless
        # a recorder or event log is installed.
        obs_telemetry.record_power(
            f"reshape/{name}",
            total,
            self.fleet.budget_watts,
            step_minutes=demand.grid.step_minutes,
            source=f"reshaping.{name}",
        )

        load_on_original = demand.values / self.fleet.n_lc
        return ScenarioResult(
            name=name,
            grid=demand.grid,
            budget_watts=self.fleet.budget_watts,
            demand=demand.values.copy(),
            lc_served=outcome.served,
            lc_dropped=outcome.dropped,
            load_on_original=load_on_original,
            per_server_load=outcome.per_server_load,
            n_lc_active=np.asarray(n_lc_active, dtype=np.float64).copy(),
            n_batch_active=np.asarray(n_batch_active, dtype=np.float64).copy(),
            batch_throughput=batch.throughput,
            batch_freq=batch.freq,
            total_power=total,
            parked=(
                np.asarray(parked, dtype=np.float64).copy()
                if parked is not None
                else np.zeros(demand.grid.n_samples)
            ),
        )

    # ------------------------------------------------------------------
    # emergency fallback
    # ------------------------------------------------------------------
    def recover(self, scenario: ScenarioResult) -> ChaosRunResult:
        """Route an over-budget scenario through the capping fallback.

        Decomposes ``total_power`` into LC / batch / other components,
        invokes the hierarchical capping loop on a one-node tree carrying
        the scenario budget, and rebuilds the scenario from the capped
        components.  Any residual the class floors cannot shed is removed
        by forced shutdown (recorded, never silent), so the recovered
        scenario satisfies ``overload_steps() == 0`` by construction.
        """
        trace = PowerTrace(scenario.grid, np.maximum(scenario.total_power, 0.0))
        trips_before = self.breaker.trips(trace, scenario.budget_watts, "dc")
        overload_before = scenario.overload_steps()
        if overload_before == 0:
            return ChaosRunResult(
                scenario=scenario,
                raw=scenario,
                recovery=RecoveryReport(
                    engaged=False,
                    trips_before=trips_before,
                    overload_steps_before=0,
                ),
            )

        for trip in trips_before:
            obs_events.emit(
                obs_events.BREAKER_TRIP,
                severity="critical",
                source="faults.recover",
                node=trip.node_name,
                scenario=scenario.name,
                start_index=trip.start_index,
                duration_samples=trip.duration_samples,
                peak_overload_watts=trip.peak_overload_watts,
            )
        lc_power, batch_power, other_power = self._components(scenario)
        report, capped = self._run_capping(
            scenario, lc_power, batch_power, other_power
        )
        capped_lc = capped.row("lc").copy()
        capped_batch = capped.row("batch").copy()
        capped_other = capped.row("other").copy()

        total = capped_lc + capped_batch + capped_other
        # Forced shutdown: whatever the floors protect beyond the budget is
        # powered off outright (the breaker would take it anyway).
        forced = np.maximum(total - scenario.budget_watts, 0.0)
        if np.any(forced > 0):
            for component in (capped_batch, capped_other, capped_lc):
                shed = np.minimum(component, forced)
                component -= shed
                forced -= shed
            total = capped_lc + capped_batch + capped_other
        forced_total = float(
            np.maximum(
                capped.row("lc") + capped.row("batch") + capped.row("other")
                - scenario.budget_watts,
                0.0,
            ).sum()
        ) * scenario.grid.step_minutes
        if forced_total < 1e-6:  # numerical crumbs, not real shutdowns
            forced_total = 0.0

        recovered = self._rebuild(
            scenario, lc_power, batch_power, capped_lc, capped_batch, total
        )
        trips_after = self.breaker.trips(
            PowerTrace(scenario.grid, np.maximum(recovered.total_power, 0.0)),
            scenario.budget_watts,
            "dc",
        )
        obs_events.emit(
            obs_events.CAPPING,
            severity="warning",
            source="faults.recover",
            scenario=scenario.name,
            overload_steps_before=overload_before,
            overload_steps_after=recovered.overload_steps(),
            trips_before=len(trips_before),
            trips_after=len(trips_after),
            lc_energy_shed=report.lc_energy_shed,
            forced_shutdown_watt_minutes=forced_total,
        )
        return ChaosRunResult(
            scenario=recovered,
            raw=scenario,
            recovery=RecoveryReport(
                engaged=True,
                trips_before=trips_before,
                trips_after=trips_after,
                overload_steps_before=overload_before,
                overload_steps_after=recovered.overload_steps(),
                capping=report,
                forced_shutdown_watt_minutes=forced_total,
            ),
        )

    # ------------------------------------------------------------------
    def _components(
        self, scenario: ScenarioResult
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a scenario's total power into LC / batch / other draw."""
        lc_power = scenario.n_lc_active * self.fleet.lc_model.power(
            scenario.per_server_load
        )
        batch_power = scenario.n_batch_active * self.fleet.batch_model.power(
            1.0, scenario.batch_freq
        )
        other_power = scenario.total_power - lc_power - batch_power
        return lc_power, batch_power, np.maximum(other_power, 0.0)

    def _run_capping(
        self,
        scenario: ScenarioResult,
        lc_power: np.ndarray,
        batch_power: np.ndarray,
        other_power: np.ndarray,
    ) -> Tuple[CappingReport, TraceSet]:
        root = PowerNode(
            "dc", level="datacenter", budget_watts=scenario.budget_watts
        )
        topology = PowerTopology(root)
        assignment = Assignment(
            topology, {"lc": "dc", "batch": "dc", "other": "dc"}
        )
        traces = TraceSet(
            scenario.grid,
            ["lc", "batch", "other"],
            np.vstack(
                [
                    np.maximum(lc_power, 0.0),
                    np.maximum(batch_power, 0.0),
                    other_power,
                ]
            ),
        )
        kinds = {
            "lc": ServiceKind.LATENCY_CRITICAL,
            "batch": ServiceKind.BATCH,
            "other": ServiceKind.OTHER,
        }
        simulator = CappingSimulator(
            topology, assignment, traces, kinds, policy=self.capping_policy
        )
        return simulator.run_capped()

    def _rebuild(
        self,
        scenario: ScenarioResult,
        lc_before: np.ndarray,
        batch_before: np.ndarray,
        lc_after: np.ndarray,
        batch_after: np.ndarray,
        total: np.ndarray,
    ) -> ScenarioResult:
        """A copy of ``scenario`` with throughput scaled to the capped power."""
        with np.errstate(divide="ignore", invalid="ignore"):
            lc_ratio = np.where(lc_before > 0, lc_after / lc_before, 1.0)
            batch_ratio = np.where(
                batch_before > 0, batch_after / batch_before, 1.0
            )
        lc_served = scenario.lc_served * lc_ratio
        return ScenarioResult(
            name=scenario.name,
            grid=scenario.grid,
            budget_watts=scenario.budget_watts,
            demand=scenario.demand.copy(),
            lc_served=lc_served,
            lc_dropped=np.maximum(scenario.demand - lc_served, 0.0),
            load_on_original=scenario.load_on_original.copy(),
            per_server_load=scenario.per_server_load * lc_ratio,
            n_lc_active=scenario.n_lc_active.copy(),
            n_batch_active=scenario.n_batch_active.copy(),
            batch_throughput=scenario.batch_throughput * batch_ratio,
            batch_freq=scenario.batch_freq.copy(),
            total_power=total,
            parked=(
                scenario.parked.copy() if scenario.parked is not None else None
            ),
        )
