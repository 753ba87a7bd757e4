"""Multi-tenant workload mixing.

Production fleets rarely serve one workload: the paper's two applications
(post recommendation, credit verification) would share a deployment, each with
its own traffic shape and its own latency SLO.  :func:`mix_tenants` builds that
combined stream from per-tenant specs:

* each tenant generates its own workload trace with its own generator and
  assigns arrival times with its own arrival process;
* ``weight`` subsamples a tenant's trace, so one tenant can be a sliver of the
  traffic without shrinking its generator parameters;
* tenant streams are *namespaced* — user ids get a ``"tenant:"`` prefix and
  token content ids are offset per tenant — so two tenants running the same
  workload never share prefix-cache entries (they are different customers);
* the streams are merged into one request list sorted by arrival time, with
  ``metadata["tenant"]`` set on every request and globally unique request ids.

Every request carries its tenant in ``metadata["tenant"]`` — the durable
channel that survives trace record/replay and is what the scenario engine
groups per-tenant summaries by.  The result also carries a ``tenant_of``
map (request id → tenant name) as a convenience for callers holding the
in-memory mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.trace import Request, TokenSegment, TokenSequence, WorkloadTrace

if TYPE_CHECKING:  # avoid a runtime workloads -> simulation import cycle
    from repro.simulation.arrival import ArrivalProcess

__all__ = ["CONTENT_ID_STRIDE", "TenantSpec", "MixedTrace", "mix_tenants"]

#: Content-id offset between tenants; larger than any id a built-in workload
#: generator emits, so namespaced tenants can never collide in the prefix cache.
CONTENT_ID_STRIDE = 100_000_000


class WorkloadGenerator(Protocol):
    """What a tenant draws its requests from (a registered generator)."""

    def generate(self) -> WorkloadTrace: ...


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a mixed workload.

    Attributes:
        name: Tenant name (used in reports, user-id prefixes, and metadata).
        generator: Built workload generator, e.g. a
            :class:`~repro.workloads.post_recommendation.PostRecommendationWorkload`.
        arrival: Arrival process that stamps this tenant's request times.
        weight: Fraction of the tenant's generated trace to include, in
            ``(0, 1]``; subsampling is deterministic given the mix seed.
        slo_latency_s: Optional per-tenant latency SLO (seconds); consumed by
            the scenario engine's per-tenant summaries.
    """

    name: str
    generator: WorkloadGenerator
    arrival: "ArrivalProcess"
    weight: float = 1.0
    slo_latency_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tenant name must be non-empty")
        if not 0 < self.weight <= 1:
            raise WorkloadError(f"tenant {self.name!r}: weight must be in (0, 1]")
        if self.slo_latency_s is not None and self.slo_latency_s <= 0:
            raise WorkloadError(f"tenant {self.name!r}: slo_latency_s must be positive")


@dataclass
class MixedTrace:
    """A merged multi-tenant request stream plus its bookkeeping.

    Attributes:
        name: Mix name (for reports).
        requests: All tenants' requests, sorted by arrival time, with globally
            unique request ids and ``metadata["tenant"]`` set.
        tenants: The specs the mix was built from, in declaration order.
        tenant_of: Request id → tenant name (for post-simulation grouping).
    """

    name: str
    requests: list[Request]
    tenants: tuple[TenantSpec, ...]
    tenant_of: dict[int, str]

    def __len__(self) -> int:
        return len(self.requests)

    def per_tenant_counts(self) -> dict[str, int]:
        """Number of requests each tenant contributed."""
        counts = {tenant.name: 0 for tenant in self.tenants}
        for tenant_name in self.tenant_of.values():
            counts[tenant_name] += 1
        return counts


def _namespace(request: Request, tenant: TenantSpec, offset: int) -> Request:
    """Copy a request into a tenant's namespace (user ids, content ids, metadata)."""
    return Request(
        request_id=request.request_id,
        user_id=f"{tenant.name}:{request.user_id}",
        sequence=TokenSequence([
            TokenSegment(segment.content_id + offset, segment.length)
            for segment in request.sequence.segments
        ]),
        allowed_outputs=request.allowed_outputs,
        metadata={**request.metadata, "tenant": tenant.name},
    )


def mix_tenants(tenants: list[TenantSpec] | tuple[TenantSpec, ...], *,
                name: str = "mix", seed: int = 0) -> MixedTrace:
    """Generate, weight, namespace, time-stamp, and merge the tenants' traffic.

    Args:
        tenants: At least one :class:`TenantSpec`; names must be unique.
        name: Name of the resulting mix.
        seed: Seed for the (deterministic) weight subsampling.  Arrival-time
            randomness is owned by each tenant's arrival process and its own
            seed, so the same spec always produces the same mix.

    Raises:
        WorkloadError: on duplicate tenant names or an empty tenant list.
    """
    if not tenants:
        raise WorkloadError("a mix needs at least one tenant")
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise WorkloadError(f"duplicate tenant names in mix: {names}")

    merged: list[tuple[float, int, int, Request]] = []
    for tenant_index, tenant in enumerate(tenants):
        requests = list(tenant.generator.generate().requests)
        if tenant.weight < 1.0:
            keep = max(1, round(tenant.weight * len(requests)))
            # Salted entropy keeps this stream independent of the tenant's
            # arrival process, whose default seed is also derived from the
            # scenario seed and tenant index.
            rng = np.random.default_rng([seed, tenant_index, 0x5EED])
            indices = sorted(rng.choice(len(requests), size=keep, replace=False))
            requests = [requests[i] for i in indices]
        offset = (tenant_index + 1) * CONTENT_ID_STRIDE
        namespaced = [_namespace(request, tenant, offset) for request in requests]
        assigned = tenant.arrival.assign(namespaced)
        merged.extend(
            (request.arrival_time, tenant_index, request.request_id, request)
            for request in assigned
        )

    merged.sort(key=lambda entry: entry[:3])
    requests = [entry[3] for entry in merged]
    tenant_of: dict[int, str] = {}
    for new_id, request in enumerate(requests):
        request.request_id = new_id
        tenant_of[new_id] = request.metadata["tenant"]
    return MixedTrace(
        name=name,
        requests=requests,
        tenants=tuple(tenants),
        tenant_of=tenant_of,
    )
