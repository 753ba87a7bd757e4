"""Fault injection & resilience: deterministic chaos for fleet simulations.

This package owns the *what* and *when* of failure — typed
:class:`FaultEvent`\\ s (replica crash, recovery/rejoin, slow-node
degradation, interconnect brownout, cluster-store outage, spot preemption
with a drain warning) compiled into a
deterministic :class:`FaultSchedule` from a JSON ``"faults"`` block or from
seeded exponential MTBF/MTTR processes.  The *how* lives where the state is:
:meth:`repro.cluster.fleet.Fleet.apply_fault` executes the failure lifecycle
(evacuate + re-route queued and in-flight requests, drop the crashed
replica's radix tree, rebuild and warm-restore on rejoin), and
:func:`repro.simulation.simulator.simulate_fleet` merges the schedule into
its event loop.  Resilience accounting flows through
:class:`~repro.simulation.metrics.ResilienceSummary`.

The standing invariant, pinned by tests: with faults absent or disabled,
every simulation result is byte-identical to a build without this package;
with a fixed seed, chaos runs are bit-reproducible across processes.

See ``docs/FAULTS.md`` for the fault model, the JSON schema, and the
determinism contract.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.faults.schedule": (
        "DEFAULT_WARM_RESTORE_BLOCKS", "FAULT_KINDS", "FaultEvent", "FaultSchedule",
        "ResilienceCounters", "fault_schedule_from_dict", "fault_schedule_from_model",
        "generate_crash_schedule",
    ),
})
