"""Numerical execution substrate.

The paper implements hybrid prefilling by rewriting the torch.compile graph of
the model: consecutive position-wise (linear) operations are grouped into a
virtual layer that is evaluated chunk-by-chunk, while attention runs over the
whole sequence.  This package reproduces that execution at a scale that runs on
a CPU; the memory it needs at full scale is modelled once, by
:class:`repro.model.memory.MemoryModel`:

* :mod:`repro.execution.memory_tracker` — an allocation ledger that records the
  live-tensor byte count over time (the Figure 3 traces, at micro scale);
* :mod:`repro.execution.chunked_linear` — chunk-by-chunk evaluation of
  position-wise functions with output preallocation and in-place reuse;
* :mod:`repro.execution.numeric` — a NumPy micro-transformer whose full,
  chunked, and hybrid prefill paths are numerically identical, which is the
  correctness argument behind hybrid prefilling.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.execution.memory_tracker": ("MemoryTracker", "MemorySample"),
    "repro.execution.chunked_linear": ("chunked_positionwise", "ChunkedExecutionOptions"),
    "repro.execution.numeric": ("MicroTransformer", "MicroTransformerConfig", "PrefillResult"),
})
