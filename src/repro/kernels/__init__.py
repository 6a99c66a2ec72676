"""The kernel object every core evaluates its operators through.

``kernel_tier="fused"`` routes the smoothing, advection, adaptation, and
vertical-diagnostic operators through single fused passes of compiled C
(via ctypes) that reproduce the reference tier bit for bit.  The
reference implementations in :mod:`repro.operators` stay the oracle;
every :class:`KernelSet` method runs them itself when it cannot fuse a
call — on the reference tier, without a compiler, or outside the kernels'
array contract.

See ``docs/kernels.md`` for the tier system, the atomic-stage
decomposition, and the exactness guarantees.
"""
from repro.kernels.cbackend import c_available
from repro.kernels.dispatch import TIERS, KernelSet, resolve_backend

__all__ = ["TIERS", "KernelSet", "c_available", "resolve_backend"]
