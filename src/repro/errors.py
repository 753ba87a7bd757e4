"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so that
applications embedding the library can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An engine, model, or hardware configuration is invalid or inconsistent."""


class CapacityError(ReproError):
    """A request cannot be admitted because it exceeds the engine's capacity.

    The most common cause is a request whose token count exceeds the engine's
    maximum input length (MIL) for the configured hardware.
    """

    def __init__(self, message: str, *, required: int | None = None,
                 available: int | None = None) -> None:
        super().__init__(message)
        self.required = required
        self.available = available


class AllocationError(ReproError):
    """The KV-cache block allocator could not satisfy an allocation."""


class SchedulingError(ReproError):
    """The scheduler was asked to do something inconsistent with its state."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A system-wide invariant failed to hold over a finished simulation run.

    Raised by :mod:`repro.simulation.invariants` — the checks the scenario
    fuzzer asserts over every generated config (request conservation, goodput
    bounds, single KV residency, tenant-sum consistency, reproducibility).

    Attributes:
        invariant: Machine-readable name of the violated invariant.
    """

    def __init__(self, invariant: str, message: str) -> None:
        self.invariant = invariant
        super().__init__(f"invariant {invariant!r} violated: {message}")


class WorkloadError(ReproError):
    """A workload generator was configured with invalid parameters."""


class UnknownNameError(ReproError):
    """A registry lookup used a name that is not registered.

    Raised by the name-based registries (workloads, arrival processes,
    routers, ...) so callers can distinguish a typo from a misconfigured
    generator, and can present the valid choices to the user.

    Attributes:
        kind: What was being looked up (``"workload"``, ``"arrival process"``, ...).
        name: The name that failed to resolve.
        available: The registered names, sorted.
    """

    def __init__(self, kind: str, name: str, available: list[str] | tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.available = sorted(available)
        super().__init__(
            f"unknown {kind} {name!r}; available: {', '.join(self.available)}"
        )


class UnknownWorkloadError(UnknownNameError, WorkloadError):
    """A workload registry lookup used an unregistered name.

    Subclasses :class:`WorkloadError` as well, so existing ``except
    WorkloadError`` handlers keep working.
    """

    def __init__(self, name: str, available: list[str] | tuple[str, ...]) -> None:
        super().__init__("workload", name, available)


class SpecError(ReproError):
    """A declarative spec config is invalid (see :mod:`repro.spec`).

    The uniform base of every config-parsing failure in the spec layer:
    unknown keys, missing required keys, type mismatches, out-of-range
    values, and failed cross-field validators all derive from it.

    Attributes:
        path: Dotted JSON path of the offending config value
            (``"faults.events[2].kind"``); empty for document-level errors.
    """

    def __init__(self, message: str, *, path: str = "") -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SpecVersionError(SpecError):
    """A spec config declared a ``"version"`` this build does not support.

    Attributes:
        version: The unsupported version the config asked for.
        supported: The versions this build can parse, ascending.
    """

    def __init__(self, version, supported: tuple[int, ...], *, path: str = "") -> None:
        self.version = version
        self.supported = tuple(sorted(supported))
        names = ", ".join(str(v) for v in self.supported)
        super().__init__(
            f"unsupported spec version {version!r}; supported: {names}",
            path=path,
        )


class ScenarioError(ReproError):
    """A scenario configuration is invalid, or a trace file is malformed."""


class ScenarioSpecError(SpecError, ScenarioError):
    """A scenario config failed spec-layer validation.

    Subclasses :class:`ScenarioError` as well, so existing ``except
    ScenarioError`` handlers keep catching config typos.
    """


class TierError(ReproError):
    """A tiered prefix-cache configuration or operation is invalid."""


class TierSpecError(SpecError, TierError):
    """A ``"kv_tiers"`` config block failed spec-layer validation.

    Subclasses :class:`TierError` as well, so existing ``except TierError``
    handlers keep catching configuration typos.
    """


class UnknownTierError(UnknownNameError, TierError):
    """A tier configuration referenced a tier name that does not exist.

    Subclasses :class:`TierError` as well, so ``except TierError`` handlers
    catch configuration typos alongside capacity problems.

    Attributes:
        path: Dotted JSON path of the offending key (``"kv_tiers.tiers.hots"``),
            so scenario-config errors point at the exact config location.
    """

    def __init__(self, name: str, available: list[str] | tuple[str, ...], *,
                 path: str = "kv_tiers.tiers") -> None:
        self.path = path
        super().__init__("tier", name, available)
        # UnknownNameError fixes args in __init__; re-raise with the path prefixed.
        self.args = (f"{path}: {self.args[0]}",)


class FaultError(ReproError):
    """A fault-injection configuration or operation is invalid."""


class UnknownFaultError(UnknownNameError, FaultError):
    """A fault config used a fault kind that does not exist.

    Subclasses :class:`FaultError` as well, so ``except FaultError`` handlers
    catch configuration typos alongside schedule problems.

    Attributes:
        path: Dotted JSON path of the offending key
            (``"faults.events[2].kind"``), so scenario-config errors point at
            the exact config location.
    """

    def __init__(self, name: str, available: list[str] | tuple[str, ...], *,
                 path: str = "faults.events") -> None:
        self.path = path
        super().__init__("fault kind", name, available)
        # UnknownNameError fixes args in __init__; re-raise with the path prefixed.
        self.args = (f"{path}: {self.args[0]}",)


class FaultScheduleError(SpecError, FaultError):
    """A fault schedule is malformed (bad keys, times, targets, or magnitudes).

    Carries the spec layer's dotted JSON ``path`` of the offending value and
    is catchable both as a :class:`SpecError` (uniform config handling) and
    as a :class:`FaultError` (domain handling).
    """

    def __init__(self, message: str, *, path: str = "faults") -> None:
        super().__init__(message, path=path)


class ResilienceError(ReproError):
    """A resilience-policy configuration or operation is invalid."""


class ResilienceSpecError(SpecError, ResilienceError):
    """A resilience policy block is malformed (bad keys, times, or budgets).

    Carries the spec layer's dotted JSON ``path`` of the offending value and
    is catchable both as a :class:`SpecError` (uniform config handling) and
    as a :class:`ResilienceError` (domain handling).
    """

    def __init__(self, message: str, *, path: str = "resilience") -> None:
        super().__init__(message, path=path)


class TierCapacityError(TierError):
    """A tier was configured with an invalid capacity.

    Attributes:
        tier: The tier the capacity belongs to (``"host"``, ``"cluster"``).
        path: Dotted JSON path of the offending config value.
    """

    def __init__(self, message: str, *, tier: str, path: str = "kv_tiers") -> None:
        self.tier = tier
        self.path = path
        super().__init__(f"{path}: {message}")


class ObsError(ReproError):
    """An observability recording, export, or parse operation is invalid."""


class TraceSchemaError(ObsError):
    """A JSON document failed validation against a checked-in trace schema.

    Attributes:
        path: JSON-pointer-style path of the offending value
            (``"traceEvents[3].ph"``); empty for document-level failures.
    """

    def __init__(self, message: str, *, path: str = "") -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
