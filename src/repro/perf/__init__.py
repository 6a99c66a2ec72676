"""Performance model: per-operator compute weights and the projection to
the paper's scale (720x360x30, 10 model years, up to 1024 ranks)."""
from repro.perf.costs import ComputeWeights, DEFAULT_WEIGHTS
from repro.perf.model import (
    ALGORITHMS,
    AlgorithmTiming,
    PAPER_PROC_SWEEP,
    PerformanceModel,
)

__all__ = [
    "ComputeWeights",
    "DEFAULT_WEIGHTS",
    "ALGORITHMS",
    "AlgorithmTiming",
    "PAPER_PROC_SWEEP",
    "PerformanceModel",
]
