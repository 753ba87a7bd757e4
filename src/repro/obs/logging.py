"""Structured stdlib logging for the CLI and scripts.

One root logger (``repro``), one line format, and two context fields every
record carries: the scenario seed and the shard id, injected by a logging
filter from a module-level context the scenario runner and the shard engines
update as they run (a shard restores the previous context when it returns).
``prefillonly --log-level`` and the scripts' ``--log-level`` flags call
:func:`configure`; library code only ever calls :func:`get_logger` and logs —
no handler is installed unless configured, so embedding applications keep
full control.
"""

from __future__ import annotations

import logging

__all__ = ["configure", "get_logger", "set_context", "LOG_LEVELS"]

#: The ``--log-level`` choices, mapped onto the stdlib levels.
LOG_LEVELS = ("debug", "info", "warning", "error")

_FORMAT = (
    "%(levelname)s %(name)s [seed=%(scenario_seed)s shard=%(shard_id)s] %(message)s"
)

_context = {"seed": "-", "shard": "-"}


class _ContextFilter(logging.Filter):
    """Injects the scenario seed and shard id into every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.scenario_seed = _context["seed"]
        record.shard_id = _context["shard"]
        return True


def set_context(*, seed=None, shard=None) -> dict:
    """Update the logging context; None leaves a field unchanged.

    Returns the previous context: ``set_context(**previous)`` restores it.
    """
    previous = dict(_context)
    if seed is not None:
        _context["seed"] = seed
    if shard is not None:
        _context["shard"] = shard
    return previous


def get_logger(name: str) -> logging.Logger:
    """A logger under the shared ``repro`` hierarchy."""
    return logging.getLogger(f"repro.{name}" if not name.startswith("repro") else name)


def configure(level: str = "warning") -> None:
    """Install the CLI handler on the ``repro`` root logger.

    Idempotent: reconfiguring replaces the previous handler instead of
    stacking duplicates.
    """
    if level not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LOG_LEVELS}"
        )
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter(_FORMAT))
    handler.addFilter(_ContextFilter())
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False
