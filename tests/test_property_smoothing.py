"""Property-based tests: the smoothing offset split is exact for any
coefficients and fields — the identity behind the former/later fusion."""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.workspace import Workspace
from repro.operators.smoothing import (
    FieldSmoother,
    OFFSETS_FULL,
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
)

fields = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(5, 12), st.integers(5, 12)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
)

betas = st.floats(0.0, 1.0, allow_nan=False)


def partial(sm, a, offsets):
    """``sm``'s partial stage over ``offsets`` into a fresh array."""
    return sm.partial_into(a, offsets, np.empty_like(a), Workspace())


@settings(max_examples=40, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_offset_decomposition_exact(a, bx, by, cross):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    total = partial(sm, a, OFFSETS_FULL)
    full = sm.full(a)
    assert np.allclose(total, full, rtol=1e-12, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(a=fields, bx=betas, by=betas)
def test_former_plus_later_is_full(a, bx, by):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=True)
    full = sm.full(a)
    for former, later in (
        (OFFSETS_L, OFFSETS_L_PRIME),
        (OFFSETS_R, OFFSETS_R_PRIME),
    ):
        split = partial(sm, a, former) + partial(sm, a, later)
        assert np.allclose(split, full, rtol=1e-12, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(a=fields, bx=betas, by=betas, cross=st.booleans())
def test_constant_fields_invariant(a, bx, by, cross):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    const = np.full_like(a, 3.25)
    out = sm.full(const)
    # delta^4 of a constant is zero everywhere (periodic roll included)
    assert np.allclose(out, const, rtol=1e-12, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(a=fields, bx=st.floats(0.01, 0.5), by=st.floats(0.01, 0.5))
def test_smoothing_is_linear(a, bx, by):
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=True)
    out2 = sm.full(2.0 * a)
    assert np.allclose(out2, 2.0 * sm.full(a), rtol=1e-12, atol=1e-8)
