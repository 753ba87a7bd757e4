"""A serving system: engine instances plus a router on top of one hardware setup.

The paper's deployment rule (§7.1, "Routing"): parallelisation-based engines
(TP / PP) occupy both GPUs of a setup with a single instance, while PrefillOnly
and the non-parallel baselines launch one instance per GPU and route requests
by user id.  :class:`ServingSystem` applies that rule automatically from the
engine spec and the cluster description.
"""

from __future__ import annotations

from repro.core.engine import EngineInstance, EngineSpec, FinishedRequest
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec, HardwareSetup
from repro.model.config import ModelConfig, get_model
from repro.simulation.routing import Router, UserIdRouter
from repro.workloads.trace import Request


class ServingSystem:
    """Router + one or more engine instances over a cluster.

    Args:
        spec: Engine flavour to deploy.
        model: Model to serve.
        cluster: GPUs available.
        max_input_length: MIL every instance is provisioned for (usually the
            workload's longest request).
        router: Routing policy; defaults to the paper's user-id router.

    :func:`~repro.simulation.simulator.simulate` drives the instances
    directly, through its own event queue over :attr:`instances`.
    """

    def __init__(self, spec: EngineSpec, model: ModelConfig, cluster: ClusterSpec, *,
                 max_input_length: int, router: Router | None = None) -> None:
        if cluster.num_gpus % spec.gpus_per_instance != 0:
            raise ConfigurationError(
                f"engine {spec.name!r} needs {spec.gpus_per_instance} GPUs per instance, "
                f"which does not divide the cluster's {cluster.num_gpus} GPUs"
            )
        self.spec = spec
        self.model = model
        self.cluster = cluster
        num_instances = cluster.num_gpus // spec.gpus_per_instance
        self.instances: list[EngineInstance] = [
            EngineInstance(
                spec, model, cluster.gpu,
                interconnect=cluster.interconnect,
                max_input_length=max_input_length,
                name=f"{spec.name}-{index}",
            )
            for index in range(num_instances)
        ]
        self.router: Router = router if router is not None else UserIdRouter(num_instances)

    @classmethod
    def for_setup(cls, spec: EngineSpec, setup: HardwareSetup, *,
                  max_input_length: int, router: Router | None = None) -> "ServingSystem":
        """Build a serving system for one of the paper's hardware setups."""
        return cls(
            spec, get_model(setup.model_name), setup.cluster,
            max_input_length=max_input_length, router=router,
        )

    # ---------------------------------------------------------------- state

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def max_input_length(self) -> int:
        """MIL shared by every instance."""
        return self.instances[0].max_input_length

    def queue_depths(self) -> list[int]:
        return [instance.num_waiting for instance in self.instances]

    def is_idle(self) -> bool:
        return all(instance.is_idle() for instance in self.instances)

    # --------------------------------------------------------------- events

    def submit(self, request: Request, now: float) -> EngineInstance:
        """Route and submit one request; return the instance it landed on."""
        depths = self.queue_depths() if self.router.needs_queue_depths else []
        index = self.router.route(request, depths)
        instance = self.instances[index]
        instance.submit(request, now)
        return instance

    # -------------------------------------------------------------- results

    def finished_requests(self) -> list[FinishedRequest]:
        records: list[FinishedRequest] = []
        for instance in self.instances:
            records.extend(instance.finished_requests)
        return records

    def rejected_requests(self) -> list[FinishedRequest]:
        records: list[FinishedRequest] = []
        for instance in self.instances:
            records.extend(instance.rejected_requests)
        return records

    def cache_stats(self) -> list[dict]:
        """Per-instance prefix-cache statistics."""
        stats = []
        for instance in self.instances:
            entry = {"instance": instance.name}
            cache = instance.kv.stats()
            entry.update({
                "requests": cache.requests,
                "request_hit_rate": round(cache.request_hit_rate, 3),
                "token_hit_rate": round(cache.token_hit_rate, 3),
            })
            stats.append(entry)
        return stats
