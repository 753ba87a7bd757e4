"""Request routing across engine instances.

For PrefillOnly and the non-parallel baselines, the paper launches one engine
instance per GPU and performs *user-id-based routing*: all requests from the
same user go to the same instance (so the user's shared prefix stays in one
prefix cache), and users are assigned to instances round-robin.  A
least-loaded router is also provided for comparison / ablation, and a
prefix-affinity router that consults the per-replica prefix trees directly is
provided for the fleet layer (:mod:`repro.cluster`).

Routers are sized for a fixed number of instances but can be resized by an
autoscaling fleet through :meth:`Router.resize`; routers that inspect instance
state additionally receive the live instance list through
:meth:`Router.observe_instances` whenever the replica set changes.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.workloads.trace import Request


class Router(abc.ABC):
    """Chooses an instance index for every request.

    Args:
        num_instances: Number of routable instances.  Kept current by the
            owning :class:`~repro.cluster.Fleet`, which calls :meth:`resize`
            when it is built and on every change of its replica set.
    """

    #: Whether :meth:`route` reads ``queue_depths``.  Routers that ignore them
    #: (e.g. :class:`UserIdRouter`) set this False, letting the owning fleet
    #: skip the O(instances) depth collection on every submit.
    needs_queue_depths: bool = True

    #: Whether :meth:`route` reads live instance state captured through
    #: :meth:`observe_instances` (e.g. :class:`PrefixAffinityRouter` walking
    #: replica prefix trees).  Conservative default: True.  Routers whose
    #: decisions depend only on the request stream itself set this False —
    #: together with ``needs_queue_depths = False`` that makes routing a pure
    #: function of the arrival sequence, which is what lets
    #: :mod:`repro.simulation.sharded` pre-route arrivals and run shards in
    #: parallel worker processes.
    consults_instances: bool = True

    def __init__(self, num_instances: int) -> None:
        if num_instances <= 0:
            raise ValueError("num_instances must be positive")
        self.num_instances = num_instances

    @abc.abstractmethod
    def route(self, request: Request, queue_depths: list[int]) -> int:
        """Return the index of the instance that should serve ``request``.

        Args:
            request: The request to place.
            queue_depths: Current waiting-queue depth of every instance
                (``len(queue_depths) == num_instances``).
        """

    def resize(self, num_instances: int) -> None:
        """Adjust the router to a new instance count (fleet scale event).

        Subclasses that keep per-instance state (sticky assignments, bound
        instances) override this to drop state that points past the new count.
        """
        if num_instances <= 0:
            raise ValueError("num_instances must be positive")
        self.num_instances = num_instances

    def observe_instances(self, instances: Sequence) -> None:
        """Hook called by a fleet when the replica set changes.

        ``instances`` are the live, routable engine instances in index order.
        The default implementation ignores them; routers that consult instance
        state (e.g. :class:`PrefixAffinityRouter`) keep a reference.
        """


class UserIdRouter(Router):
    """Round-robin assignment of *users* to instances (the paper's routing)."""

    needs_queue_depths = False
    consults_instances = False

    def __init__(self, num_instances: int) -> None:
        super().__init__(num_instances)
        self._assignments: dict[str, int] = {}
        self._next_instance = 0

    def route(self, request: Request, queue_depths: list[int]) -> int:
        """Send the request to its user's instance, assigning new users round-robin."""
        user = request.user_id
        if user not in self._assignments:
            self._assignments[user] = self._next_instance
            self._next_instance = (self._next_instance + 1) % self.num_instances
        return self._assignments[user]

    def resize(self, num_instances: int) -> None:
        """Keep in-range user assignments; users on removed instances reassign lazily."""
        super().resize(num_instances)
        self._assignments = {
            user: index for user, index in self._assignments.items()
            if index < num_instances
        }
        self._next_instance %= num_instances

    @property
    def assignments(self) -> dict[str, int]:
        """User-to-instance mapping decided so far."""
        return dict(self._assignments)


class LeastLoadedRouter(Router):
    """Send every request to the instance with the shortest waiting queue."""

    consults_instances = False

    def route(self, request: Request, queue_depths: list[int]) -> int:
        """Return the index with the smallest queue depth (lowest index on ties)."""
        return min(range(self.num_instances), key=lambda index: queue_depths[index])


class PrefixAffinityRouter(Router):
    """Route to the replica whose prefix tree already holds the request's prefix.

    For every routable instance the router asks that instance's KV-cache
    manager how many leading tokens of the request are currently cached (a
    read-only radix-tree walk that does not perturb LRU state), subtracts a
    queue-depth penalty so a hot cache cannot win against an overloaded
    replica, and picks the best score.  When no replica holds any of the
    prefix — the first request of a new user — it falls back to sticky
    round-robin user assignment, which seeds the prefix on one replica so
    later requests develop affinity.

    Args:
        num_instances: Number of routable instances.
        queue_penalty_tokens: Cached-token equivalent charged per queued
            request; higher values make the router behave more like
            :class:`LeastLoadedRouter`, ``0`` makes it follow caches blindly.
    """

    def __init__(self, num_instances: int, *, queue_penalty_tokens: float = 512.0) -> None:
        super().__init__(num_instances)
        if queue_penalty_tokens < 0:
            raise ValueError("queue_penalty_tokens must be non-negative")
        self.queue_penalty_tokens = queue_penalty_tokens
        self._instances: tuple = ()
        self._sticky: dict[str, int] = {}
        self._next_instance = 0

    def observe_instances(self, instances: Sequence) -> None:
        """Bind the live instance list (called by the fleet on scale events)."""
        self._instances = tuple(instances)

    def resize(self, num_instances: int) -> None:
        """Drop sticky assignments that point past the new instance count."""
        super().resize(num_instances)
        self._sticky = {
            user: index for user, index in self._sticky.items() if index < num_instances
        }
        self._next_instance %= num_instances

    def _sticky_route(self, user_id: str) -> int:
        index = self._sticky.get(user_id)
        if index is None:
            index = self._next_instance
            self._sticky[user_id] = index
            self._next_instance = (self._next_instance + 1) % self.num_instances
        return index

    def estimated_hits(self, request: Request) -> list[int]:
        """Per-instance estimate of the request's cached leading tokens."""
        hits: list[int] = []
        for instance in self._instances[: self.num_instances]:
            block_hashes = request.block_hashes(instance.spec.kv_block_size)
            hits.append(instance.kv.lookup(block_hashes))
        return hits

    def route(self, request: Request, queue_depths: list[int]) -> int:
        """Pick the instance with the best cache-affinity-minus-load score."""
        if not self._instances:
            # Never bound to a fleet (used standalone): degrade gracefully to
            # sticky user routing.
            return self._sticky_route(request.user_id)
        hits = self.estimated_hits(request)
        if not any(hits):
            index = self._sticky_route(request.user_id)
            return min(index, self.num_instances - 1)
        scores = [
            hit - self.queue_penalty_tokens * queue_depths[index]
            for index, hit in enumerate(hits)
        ]
        best = max(
            range(len(scores)),
            key=lambda index: (scores[index], -queue_depths[index], -index),
        )
        self._sticky[request.user_id] = best
        return best


#: Registry of router factories by CLI name.
ROUTER_FACTORIES = {
    "user-id": UserIdRouter,
    "least-loaded": LeastLoadedRouter,
    "prefix-affinity": PrefixAffinityRouter,
}


def make_router(name: str, num_instances: int) -> Router:
    """Construct a router by registry name (``user-id``, ``least-loaded``,
    ``prefix-affinity``)."""
    try:
        factory = ROUTER_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTER_FACTORIES))
        raise ValueError(f"unknown router {name!r}; known routers: {known}") from None
    return factory(num_instances)
