"""Workload registry: look up workload generators by name.

Ships with the paper's two datasets and accepts additional generators through
:func:`register_workload` (the scenario engine uses the same registry, so a
registered generator is immediately usable from scenario config files).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import UnknownWorkloadError
from repro.workloads.credit_verification import CreditVerificationWorkload
from repro.workloads.post_recommendation import PostRecommendationWorkload
from repro.workloads.trace import WorkloadTrace

#: Workload name -> generator factory.  When a dataclass factory declares its
#: fields with :func:`~repro.spec.core.spec_field`, a scenario's
#: ``workload_params`` are checked against them at parse time.
WORKLOAD_FACTORIES: dict[str, Callable] = {
    "post-recommendation": PostRecommendationWorkload,
    "credit-verification": CreditVerificationWorkload,
}


def list_workloads() -> list[str]:
    """Names of the registered workloads (the paper's two datasets by default)."""
    return sorted(WORKLOAD_FACTORIES)


def register_workload(name: str, factory: Callable) -> None:
    """Register ``factory`` under ``name``.

    Args:
        name: Registry key (kebab-case by convention).
        factory: Callable accepting the generator's keyword parameters and
            returning an object with a ``generate() -> WorkloadTrace`` method.
    """
    WORKLOAD_FACTORIES[name] = factory


def get_workload(name: str, **overrides) -> WorkloadTrace:
    """Generate a registered workload, optionally overriding its parameters.

    Args:
        name: A registered workload name (see :func:`list_workloads`).
        **overrides: Generator parameters (e.g. ``num_users=4`` for fast tests).

    Raises:
        UnknownWorkloadError: if ``name`` is not registered; the exception
            carries the valid names in its ``available`` attribute.
    """
    try:
        factory = WORKLOAD_FACTORIES[name]
    except KeyError:
        raise UnknownWorkloadError(name, list_workloads()) from None
    return factory(**overrides).generate()
