"""The paper's serving system: a fleet preset for one engine on one cluster.

The paper's deployment rule (§7.1, "Routing"): parallelisation-based engines
(TP / PP) occupy both GPUs of a setup with a single instance, while PrefillOnly
and the non-parallel baselines launch one instance per GPU and route requests
by user id.  :class:`ServingSystem` is the :class:`~repro.cluster.fleet.Fleet`
that rule yields from an engine spec and a cluster description; it adds no
serving logic of its own, so :func:`~repro.simulation.simulator.simulate`
replays it through the fleet loop.
"""

from __future__ import annotations

from repro.cluster.fleet import Fleet, ReplicaSpec
from repro.core.engine import EngineInstance, EngineSpec
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec, HardwareSetup
from repro.model.config import ModelConfig, get_model
from repro.simulation.routing import Router


class ServingSystem(Fleet):
    """One engine instance per ``spec.gpus_per_instance`` GPUs, behind a router.

    Args:
        spec: Engine flavour to deploy.
        model: Model to serve.
        cluster: GPUs available; their count must be a multiple of
            ``spec.gpus_per_instance``.
        max_input_length: MIL every instance is provisioned for (usually the
            workload's longest request).
        router: Routing policy; defaults to the paper's user-id router.
    """

    def __init__(self, spec: EngineSpec, model: ModelConfig, cluster: ClusterSpec, *,
                 max_input_length: int, router: Router | None = None) -> None:
        if cluster.num_gpus % spec.gpus_per_instance != 0:
            raise ConfigurationError(
                f"engine {spec.name!r} needs {spec.gpus_per_instance} GPUs per instance, "
                f"which does not divide the cluster's {cluster.num_gpus} GPUs"
            )
        replica = ReplicaSpec(engine=spec, gpu=cluster.gpu,
                              interconnect=cluster.interconnect)
        super().__init__(
            [replica] * (cluster.num_gpus // spec.gpus_per_instance), model,
            max_input_length=max_input_length, router=router, name=spec.name,
        )

    @classmethod
    def for_setup(cls, spec: EngineSpec, setup: HardwareSetup, *,
                  max_input_length: int, router: Router | None = None) -> "ServingSystem":
        """Build a serving system for one of the paper's hardware setups."""
        return cls(
            spec, get_model(setup.model_name), setup.cluster,
            max_input_length=max_input_length, router=router,
        )

    # perfbench/tracer.py wraps this method by its ServingSystem name.
    cache_stats = Fleet.cache_stats

    @property
    def instances(self) -> list[EngineInstance]:
        """The engine instances, in router index order."""
        return self.replicas

    @property
    def num_instances(self) -> int:
        return self.num_replicas
