"""Memoised per-shape kernel plans (the ``filter_plan`` pattern).

A *plan* freezes everything a fused kernel needs that depends only on the
working-array shape and the operator parameters: the resolved low-level
entry point, scratch-buffer shapes, and the atomic-stage metadata the
property tests introspect.  Plans are memoised process-wide on their exact
inputs — mirroring :func:`repro.operators.filter.filter_plan` — so rank
programs and benchmark sweeps build each plan once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class KernelPlan:
    """One fused kernel resolved for a specific operator + shape.

    Attributes
    ----------
    op:
        Operator name (``smoothing``/``advection``/``adaptation``/
        ``vertical``).
    backend:
        Resolved backend (``c``/``numpy``).
    shape:
        Working-array shape the plan was built for.
    stages:
        Names of the atomic stages the fused pass merges, in application
        order (introspected by the stage-algebra property tests).
    fn:
        The fused entry point (backend-specific signature).
    meta:
        Backend-specific extras (scratch shapes, ctypes handles, ...).
    """

    op: str
    backend: str
    shape: tuple[int, ...]
    stages: tuple[str, ...]
    fn: Callable = field(compare=False)
    meta: Any = field(default=None, compare=False)


_PLAN_CACHE: dict[tuple, KernelPlan] = {}
_PLAN_STATS = {"hits": 0, "misses": 0}


def kernel_plan(
    op: str,
    backend: str,
    shape: tuple[int, ...],
    key_extra: tuple,
    build: Callable[[], KernelPlan],
) -> KernelPlan:
    """Memoised plan lookup: build once per (op, backend, shape, extras)."""
    key = (op, backend, tuple(shape), key_extra)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        _PLAN_STATS["hits"] += 1
        return cached
    _PLAN_STATS["misses"] += 1
    plan = build()
    _PLAN_CACHE[key] = plan
    return plan


def registered_plans() -> list[KernelPlan]:
    """All plans built so far (the property tests sweep these shapes)."""
    return list(_PLAN_CACHE.values())


def plan_cache_stats() -> dict[str, int]:
    """Current kernel-plan cache counters (``hits``, ``misses``, ``size``)."""
    return {**_PLAN_STATS, "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    """Drop all cached kernel plans and reset the counters."""
    _PLAN_CACHE.clear()
    _PLAN_STATS["hits"] = 0
    _PLAN_STATS["misses"] = 0
