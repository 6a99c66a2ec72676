"""Per-operator compute weights and the halo-message sizes.

The weights express each operator's cost per point-update relative to the
machine model's ``seconds_per_point`` baseline: the cores charge them to
the logical clock (:class:`repro.core.distributed.RankContext`) and the
paper-scale projection (:mod:`repro.perf.model`) charges the same ones.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComputeWeights:
    """Relative cost (in ``seconds_per_point`` units) of one point-update
    of each operator.  Values approximate the flop/byte mix of the
    vectorized NumPy kernels; absolute scale is carried by the machine
    model's ``seconds_per_point`` (see calibration)."""

    adaptation: float = 10.0
    advection: float = 8.0
    vertical: float = 3.0
    smoothing: float = 4.0
    #: per (row-point x log2 nx) unit of the FFT filter
    filter_fft: float = 1.0
    update: float = 1.0


DEFAULT_WEIGHTS = ComputeWeights()

#: number of prognostic field arrays exchanged per halo message group
N_FIELDS = 4
#: bytes per float64 value
B = 8
