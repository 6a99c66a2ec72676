"""Property-based tests of the fused-kernel stage algebra.

Two claims, checked with hypothesis-drawn fields:

1. *Stage algebra*: fusing the atomic smoothing stages and applying them
   in one pass equals applying the stages sequentially (the unfused
   schedule) — to rounding, since the sequential schedule reassociates
   across stages.
2. *Exactness*: every fused backend equals the reference operator **bit
   for bit** — the stronger guarantee the kernel tier ships with.

Both are swept over every stencil-plan shape registered by real fused
runs (``registered_plans()``), so the shapes the model actually uses are
always among the tested ones.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.constants import ModelParameters
from repro.core.integrator import SerialCore
from repro.core.workspace import Workspace
from repro.grid.latlon import LatLonGrid
from repro.kernels import available_backends, registered_plans
from repro.kernels.stages import (
    apply_stages_sequential,
    smooth_field_fused_numpy,
    smoother_stages,
)
from repro.operators.smoothing import FieldSmoother
from repro.physics import balanced_random_state

betas = st.floats(0.0, 1.0, allow_nan=False)

fields = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(5, 12), st.integers(6, 12)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
)


def _seed_plans() -> list:
    """Run a short fused step on every backend so plans are registered."""
    grid = LatLonGrid(nx=16, ny=8, nz=4)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    for backend in available_backends():
        core = SerialCore(grid, kernel_tier="fused", kernel_backend=backend)
        core.step(core.pad(s0))
    plans = registered_plans()
    assert plans
    return plans


_PLANS = _seed_plans()
_STENCIL_SHAPES = sorted(
    {p.shape for p in _PLANS if p.op == "smoothing" and len(p.shape) == 3}
)


@settings(max_examples=25, deadline=None)
@given(bx=betas, by=betas, cross=st.booleans(), data=st.data())
def test_fused_equals_sequential_stages_on_plan_shapes(bx, by, cross, data):
    """Fuse-then-apply == apply-stages-sequentially (to rounding)."""
    shape = data.draw(st.sampled_from(_STENCIL_SHAPES))
    a = data.draw(
        hnp.arrays(
            np.float64, shape,
            elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
        )
    )
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    out = np.empty_like(a)
    smooth_field_fused_numpy(sm, a, out, Workspace())
    seq = apply_stages_sequential(sm, a)
    assert np.allclose(out, seq, rtol=1e-12, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_fused_numpy_bit_identical_to_reference(a, bx, by, cross):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    ref = sm.full_into(a, np.empty_like(a), Workspace())
    out = np.empty_like(a)
    smooth_field_fused_numpy(sm, a, out, Workspace())
    assert np.array_equal(ref, out)
    assert np.array_equal(np.signbit(ref), np.signbit(out))


@pytest.mark.skipif(
    "c" not in available_backends(), reason="no C compiler on this host"
)
@settings(max_examples=15, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_c_backend_bit_identical_to_reference(a, bx, by, cross):
    from repro.kernels.cbackend import load_library, smooth_full_c

    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    ref = sm.full_into(a, np.empty_like(a), Workspace())
    out = np.empty_like(a)
    smooth_full_c(load_library(), a, out, np.empty_like(a), bx, by, cross)
    assert np.array_equal(ref, out)
    assert np.array_equal(np.signbit(ref), np.signbit(out))


def test_every_registered_plan_declares_its_stages():
    x_only = smoother_stages(FieldSmoother(beta_x=0.1, beta_y=0.0, cross=False))
    for plan in _PLANS:
        assert plan.stages, f"plan {plan.op}@{plan.shape} lists no stages"
        if plan.op == "smoothing":
            # every smoother fuses at least the x-direction stages
            assert plan.stages[: len(x_only)] == x_only
