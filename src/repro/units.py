"""Unit helpers and constants shared across the repro package.

All byte quantities in the package are plain integers (bytes), all times are
floats in seconds, and all rates are floats in the natural SI unit (bytes per
second, FLOP per second).  These helpers exist so that call sites read as the
paper does ("24 GB GPU", "450 GB/s NVLink") instead of as raw powers of ten.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

MILLISECONDS = 1e-3
MICROSECONDS = 1e-6

TERA = 1e12
GIGA = 1e9


def gib(value: float) -> int:
    """Convert a value in GiB to bytes (rounded to an integer byte count)."""
    return int(value * GIB)


def tflops(value: float) -> float:
    """Convert a value in TFLOP/s to FLOP/s."""
    return value * TERA


def gbps(value: float) -> float:
    """Convert a value in GB/s to bytes/s."""
    return value * GB


def ms(value: float) -> float:
    """Convert a value in milliseconds to seconds."""
    return value * MILLISECONDS


def to_gib(num_bytes: float) -> float:
    """Convert bytes to GiB as a float (for reporting)."""
    return num_bytes / GIB


def to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds as a float (for reporting)."""
    return seconds / MILLISECONDS
