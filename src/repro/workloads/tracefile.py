"""Trace recording and bit-for-bit replay (the ``repro-trace/v1`` JSONL format).

Any request list the simulator can consume — a generated workload, a
multi-tenant mix, or the arrival-time-stamped output of an arrival process —
can be written to a JSONL file and loaded back **identically**: the same
request ids, user ids, token segments, metadata, and (crucially) the exact
IEEE-754 arrival times, because JSON serialises Python floats via ``repr`` and
``repr`` round-trips every finite double.  Replaying a recorded trace through
the simulator therefore reproduces the original run event for event.

File format (one JSON object per line):

* **Line 1 — header**::

      {"schema": "repro-trace/v1", "name": "...", "seed": 0,
       "num_requests": 120, "description": {...}}

  ``name``/``seed``/``description`` are free-form provenance (the scenario
  engine stores the scenario name and seed here); ``num_requests`` is checked
  on load.

* **Every further line — one request**::

      {"request_id": 3, "user_id": "tenant-a:user-0007",
       "arrival_time": 1.2500000000000002,
       "allowed_outputs": ["Yes", "No"],
       "segments": [[1, 128], [10007, 14213], [1000351, 150]],
       "metadata": {"tenant": "tenant-a", "post_index": 1}}

  ``segments`` is the request's token content as ``[content_id, length]``
  pairs (see :class:`repro.workloads.trace.TokenSegment`); requests appear in
  arrival-time order.

The format is line-oriented so traces stream, diff, and concatenate cleanly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ScenarioError, WorkloadError
from repro.workloads.trace import Request, TokenSegment, TokenSequence

__all__ = ["TRACE_SCHEMA", "save_trace", "load_trace"]

#: Schema identifier written to (and required in) every trace header.
TRACE_SCHEMA = "repro-trace/v1"


def _request_to_dict(request: Request) -> dict:
    return {
        "request_id": request.request_id,
        "user_id": request.user_id,
        "arrival_time": request.arrival_time,
        "allowed_outputs": list(request.allowed_outputs),
        "segments": [
            [segment.content_id, segment.length]
            for segment in request.sequence.segments
        ],
        "metadata": request.metadata,
    }


def _request_from_dict(row: dict, *, line: int) -> Request:
    try:
        request = Request(
            request_id=int(row["request_id"]),
            user_id=str(row["user_id"]),
            sequence=TokenSequence([
                TokenSegment(int(content_id), int(length))
                for content_id, length in row["segments"]
            ]),
            allowed_outputs=tuple(row["allowed_outputs"]),
            arrival_time=float(row["arrival_time"]),
            metadata=dict(row.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError, WorkloadError) as exc:
        raise ScenarioError(f"trace line {line}: malformed request record ({exc})") from None
    # A NaN or infinite arrival never fires, and a negative one stretches the
    # run back before time zero.
    if not (math.isfinite(request.arrival_time) and request.arrival_time >= 0):
        raise ScenarioError(
            f"trace line {line}: arrival_time must be a finite non-negative "
            f"number, got {request.arrival_time!r}"
        )
    return request


def save_trace(path: str | Path, requests: list[Request], *,
               name: str = "trace", seed: int | None = None,
               description: dict | None = None) -> Path:
    """Write ``requests`` (with arrival times already assigned) as JSONL.

    Args:
        path: Destination file (parent directories are created).
        requests: The request list, in the order the simulator will see it.
        name / seed / description: Provenance stored in the header line.

    Returns:
        The path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": TRACE_SCHEMA,
        "name": name,
        "seed": seed,
        "num_requests": len(requests),
        "description": description or {},
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for request in requests:
            handle.write(json.dumps(_request_to_dict(request)) + "\n")
    return path


def load_trace(path: str | Path) -> tuple[dict, list[Request]]:
    """Load a ``repro-trace/v1`` JSONL file.

    Returns:
        ``(header, requests)`` — the header dict and the request list in file
        order (which is arrival order for traces written by :func:`save_trace`).

    Raises:
        ScenarioError: if the file is missing, has the wrong schema, is
            malformed, or its request count disagrees with the header.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"trace file not found: {path}")
    requests: list[Request] = []
    header: dict | None = None
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"trace line {line_number}: invalid JSON ({exc})") from None
            if header is None:
                if not isinstance(row, dict):
                    raise ScenarioError(
                        f"trace line {line_number}: header must be a JSON object, "
                        f"got {type(row).__name__}"
                    )
                if row.get("schema") != TRACE_SCHEMA:
                    raise ScenarioError(
                        f"{path}: expected schema {TRACE_SCHEMA!r}, "
                        f"got {row.get('schema')!r}"
                    )
                header = row
                continue
            requests.append(_request_from_dict(row, line=line_number))
    if header is None:
        raise ScenarioError(f"{path}: empty trace file")
    expected = header.get("num_requests")
    if expected is not None and expected != len(requests):
        raise ScenarioError(
            f"{path}: header declares {expected} requests, file has {len(requests)}"
        )
    return header, requests
