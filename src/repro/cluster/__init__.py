"""Cluster fleet layer: multi-replica serving behind one entry point.

The paper deploys PrefillOnly as one engine instance per GPU with user-id
routing on top; this package grows that deployment rule into a fleet
abstraction suitable for production-scale simulation:

* :mod:`repro.cluster.fleet` — :class:`Fleet`, N (optionally heterogeneous)
  engine replicas with lazily advanced per-replica clocks;
* :mod:`repro.cluster.admission` — queue-depth admission control with load
  shedding;
* :mod:`repro.cluster.autoscaler` — reactive autoscaling from the observed
  arrival rate, with hysteresis and cooldown.

The fleet also executes the failure lifecycle of the fault-injection
subsystem (:mod:`repro.faults`): :meth:`Fleet.apply_fault` handles replica
crashes (evacuate + re-route queued and in-flight work, drop the dead
replica's caches), recovery (rebuild, warm-restore hot prefixes from the
cluster-shared KV store), slow-node windows, interconnect brownouts, and
cluster-store outages — see ``docs/FAULTS.md``.

Routing policies live in :mod:`repro.simulation.routing` (the fleet accepts
any :class:`~repro.simulation.routing.Router`, including the prefix-affinity
router added for this layer), and the driving event loop is
:func:`repro.simulation.simulator.simulate_fleet`.
"""

from repro.cluster.admission import (
    ADMIT,
    AdmissionDecision,
    AdmissionPolicy,
    QueueDepthAdmission,
)
from repro.cluster.autoscaler import ReactiveAutoscaler, ScaleEvent
from repro.cluster.fleet import Fleet, FleetStats, ReplicaSpec

__all__ = [
    "ADMIT",
    "AdmissionDecision",
    "AdmissionPolicy",
    "QueueDepthAdmission",
    "ReactiveAutoscaler",
    "ScaleEvent",
    "Fleet",
    "FleetStats",
    "ReplicaSpec",
]
