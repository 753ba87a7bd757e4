"""Workload registry: look up workload generators by name.

Ships with the paper's two datasets.  Every generator is a spec model
(:mod:`repro.spec.core`), built from its parameters with
:func:`~repro.spec.core.from_dict`: :func:`get_workload` builds one at the
generator's own ``workload_params`` path, and the scenario engine builds a
tenant's at ``tenants[i].workload_params``.
"""

from __future__ import annotations

from repro.errors import UnknownWorkloadError
from repro.spec.core import from_dict
from repro.workloads.credit_verification import CreditVerificationWorkload
from repro.workloads.post_recommendation import PostRecommendationWorkload
from repro.workloads.trace import WorkloadTrace

#: Workload name -> generator spec model.
WORKLOAD_FACTORIES: dict[str, type] = {
    "post-recommendation": PostRecommendationWorkload,
    "credit-verification": CreditVerificationWorkload,
}


def list_workloads() -> list[str]:
    """Names of the registered workloads (the paper's two datasets by default)."""
    return sorted(WORKLOAD_FACTORIES)


def workload_factory(name: str) -> type:
    """The generator registered under ``name``.

    Raises:
        UnknownWorkloadError: if ``name`` is not registered; the exception
            carries the valid names in its ``available`` attribute.
    """
    try:
        return WORKLOAD_FACTORIES[name]
    except KeyError:
        raise UnknownWorkloadError(name, list_workloads()) from None


def get_workload(name: str, **overrides) -> WorkloadTrace:
    """Generate a registered workload, optionally overriding its parameters.

    Args:
        name: A registered workload name (see :func:`list_workloads`).
        **overrides: Generator parameters (e.g. ``num_users=4`` for fast tests).

    Raises:
        UnknownWorkloadError: if ``name`` is not registered.
        WorkloadSpecError: if ``overrides`` name an unknown parameter or fail
            the generator's declaration, at ``workload_params.<key>``.
    """
    return from_dict(workload_factory(name), overrides).generate()
