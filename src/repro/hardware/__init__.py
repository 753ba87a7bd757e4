"""Hardware substrate: GPU specifications, interconnects, and cluster descriptions.

The paper evaluates on 2x NVIDIA L4, 2x A100 40GB PCIe, and 2x H100 80GB with
and without NVLink.  This package models those devices with their published
memory capacity, memory bandwidth, compute throughput, and interconnect
bandwidth, which is all the serving simulator needs to reproduce the paper's
latency / throughput / capacity trade-offs.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.hardware.gpu": (
        "GPUSpec", "GPU_REGISTRY", "get_gpu", "list_gpus", "L4", "A100_40GB", "H100_80GB",
    ),
    "repro.hardware.interconnect": (
        "Interconnect", "PCIE_GEN4", "NVLINK", "allreduce_time", "point_to_point_time",
    ),
    "repro.hardware.cluster": (
        "ClusterSpec", "HardwareSetup", "HARDWARE_SETUPS", "get_hardware_setup",
        "list_hardware_setups",
    ),
})
