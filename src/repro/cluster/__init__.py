"""Cluster fleet layer: multi-replica serving behind one entry point.

The paper deploys PrefillOnly as one engine instance per GPU with user-id
routing on top; this package grows that deployment rule into a fleet
abstraction suitable for production-scale simulation:

* :mod:`repro.cluster.fleet` — :class:`Fleet`, N (optionally heterogeneous)
  engine replicas with lazily advanced per-replica clocks;
* :mod:`repro.cluster.admission` — :class:`AdmissionPolicy`, queue-depth
  admission control with load shedding;
* :mod:`repro.cluster.autoscaler` — :class:`ReactiveAutoscaler`, reactive
  autoscaling from the observed arrival rate, with hysteresis and cooldown.

The fleet builds both from plain values — ``max_queue_depth`` and an
:class:`~repro.spec.models.AutoscaleSpec` — as it builds its cluster store
from a :class:`~repro.spec.models.KVTiersSpec`.

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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.admission": ("AdmissionPolicy",),
    "repro.cluster.autoscaler": ("ReactiveAutoscaler", "ScaleEvent"),
    "repro.cluster.fleet": ("Fleet", "FleetStats", "ReplicaSpec"),
})
