"""The kernel object every core evaluates its operators through.

``kernel_tier="fused"`` routes the smoothing, advection, adaptation, and
vertical-diagnostic operators through single fused passes (compiled C via
ctypes, or fused numpy over wrap-padded pooled buffers) that reproduce
the reference tier bit for bit.  The reference implementations in
:mod:`repro.operators` stay the oracle; every :class:`KernelSet` method
runs them itself when it cannot fuse a call.

See ``docs/kernels.md`` for the tier system, the atomic-stage
decomposition, and the exactness guarantees.
"""
from repro.kernels.cbackend import c_available
from repro.kernels.dispatch import (
    BACKENDS,
    TIERS,
    KernelSet,
    available_backends,
    kernel_set,
    resolve_backend,
)
from repro.kernels.plans import (
    KernelPlan,
    clear_plan_cache,
    kernel_plan,
    plan_cache_stats,
    registered_plans,
)

__all__ = [
    "BACKENDS",
    "TIERS",
    "KernelPlan",
    "KernelSet",
    "available_backends",
    "c_available",
    "clear_plan_cache",
    "kernel_plan",
    "kernel_set",
    "plan_cache_stats",
    "registered_plans",
]
