"""Property-based tests of the fused-kernel stage algebra.

Three claims, checked with hypothesis-drawn fields:

1. *Stage algebra*: fusing the atomic smoothing stages and applying them
   in one pass equals applying the stages sequentially (the unfused
   schedule) — to rounding, since the sequential schedule reassociates
   across stages.
2. *Exactness*: the fused C smoother equals the reference operator **bit
   for bit** — the stronger guarantee the kernel tier ships with.
3. *Exactness of the stencil kernels*: ``A``, ``L`` and ``C`` through the
   C backend — in both expansions of its division primitive — equal the
   reference tier in every output, value and sign bit, on drawn meshes,
   row windows, field magnitudes and identically-zero fields.

The first is swept over drawn shapes and the 3-D working shape of a real
16x8x4 serial run, so a shape the model actually uses is always among the
tested ones.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import constants
from repro.constants import ModelParameters
from repro.core.integrator import SerialCore
from repro.core.tendencies import TendencyEngine
from repro.core.workspace import Workspace
from repro.grid.latlon import LatLonGrid
from repro.kernels import KernelSet, c_available, cbackend
from repro.operators.smoothing import OFFSETS_FULL, FieldSmoother
from repro.physics import balanced_random_state
from repro.state.variables import FIELD_NAMES, ModelState

betas = st.floats(0.0, 1.0, allow_nan=False)

elements = st.floats(-1e3, 1e3, allow_nan=False, width=64)
drawn_shapes = st.tuples(st.integers(1, 3), st.integers(5, 12), st.integers(6, 12))
fields = hnp.arrays(np.float64, drawn_shapes, elements=elements)

#: what ``SerialCore(LatLonGrid(nx=16, ny=8, nz=4))`` smooths: the mesh
#: plus two ghost rows a side
SEED_RUN_SHAPE = (4, 12, 16)


@settings(max_examples=25, deadline=None)
@given(bx=betas, by=betas, cross=st.booleans(), data=st.data())
def test_fused_equals_sequential_stages_on_plan_shapes(bx, by, cross, data):
    """Fuse-then-apply == apply-stages-sequentially (to rounding): one pass
    of the fused tier's smoother against the per-offset atomic stages
    summed one by one, which reassociate across stages."""
    shape = data.draw(st.just(SEED_RUN_SHAPE) | drawn_shapes)
    a = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    sm = FieldSmoother(beta_x=bx, beta_y=by, cross=cross)
    ks = KernelSet("fused")
    out = ks.smooth_field(sm, a, np.empty_like(a), Workspace())
    assert ks.calls["smoothing"]["fused"] == c_available()
    seq = sm.partial(a, OFFSETS_FULL)
    assert np.allclose(out, seq, rtol=1e-12, atol=1e-8)


@pytest.mark.skipif(not c_available(), reason="no C compiler on this host")
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


# ---------------------------------------------------------------------------
# A, L, C: the C backend == the reference tier, in both division expansions
# ---------------------------------------------------------------------------
def fused_on(cflags: tuple) -> KernelSet:
    """A fused C kernel set bound to the library of one flag set."""
    lib = cbackend.load_library(cflags)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbackend, "load_library", lambda: lib)
        ks = KernelSet("fused")
        assert ks._library() is lib
    return ks


def _same_bits(want, got, names, rows, label):
    for name in names:
        a = getattr(want, name)[..., rows, :]
        b = getattr(got, name)[..., rows, :]
        assert np.array_equal(a, b), (
            f"{label}: {name} differs (max |diff| = {np.abs(a - b).max():.3e})"
        )
        assert np.array_equal(np.signbit(a), np.signbit(b)), (
            f"{label}: {name} differs in signed zeros"
        )


scales = st.floats(1e-3, 1e3)
stencil_cases = st.fixed_dictionaries({
    "nx": st.integers(4, 72).map(lambda h: 2 * h),      # 8 .. 144, even
    "ny": st.integers(6, 14),
    "nz": st.integers(1, 5),     # 1: the fields carry no plane stride
    "seed": st.integers(0, 2**32 - 1),
    "scale": st.fixed_dictionaries({f: scales for f in FIELD_NAMES}),
    "zeroed": st.sets(st.sampled_from(["U", "V", "psa"])),
    # None: the whole working array; else a row window as fractions
    "window": st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
})


@pytest.mark.skipif(not c_available(), reason="no C compiler on this host")
@settings(max_examples=40, deadline=None)
@given(case=stencil_cases)
@example(case=dict(
    nx=16, ny=8, nz=1, seed=0, scale=dict.fromkeys(FIELD_NAMES, 1.0),
    zeroed={"U", "V", "psa"}, window=(0.3, 0.5),
))
@example(case=dict(
    nx=144, ny=6, nz=2, seed=1, scale=dict(U=1e3, V=1e-3, Phi=1e3, psa=1e-3),
    zeroed=set(), window=None,
))
def test_stencil_kernels_bit_identical_to_reference(case):
    grid = LatLonGrid(nx=case["nx"], ny=case["ny"], nz=case["nz"])
    core = SerialCore(grid)
    s = core.pad(
        balanced_random_state(grid, np.random.default_rng(case["seed"]))
    )
    for name in FIELD_NAMES:
        field = getattr(s, name)
        field *= 0.0 if name in case["zeroed"] else case["scale"][name]
    assume(np.all(s.psa + constants.P_REFERENCE - constants.P_TOP > 0))
    geom, params = core.engine.geom, core.params

    def outputs(ks):
        """C, then A and L of one tier, on the window (or everywhere)."""
        eng = TendencyEngine(geom, params, kernels=ks)
        sl, rows = None, slice(None)
        if case["window"] is not None:
            ny_w, (f0, f1) = geom.shape2d[0], case["window"]
            lo = 1 + int(f0 * (ny_w - 3))
            sl = eng.slab(lo, lo + 1 + int(f1 * (ny_w - 2 - lo)))
            rows = sl.view
        vd = eng.vertical(s, sl)
        return (
            vd, eng.adaptation(s, vd, sl).copy(), eng.advection(s, vd, sl).copy(),
            rows,
        )

    want_vd, want_a, want_l, rows = outputs(KernelSet("reference"))
    for cflags in cbackend.CFLAGS_SETS:
        try:
            ks = fused_on(cflags)
        except cbackend.KernelBuildError:
            continue  # e.g. a compiler without -march=native
        label = ks.describe()["division"]
        vd, a, l, _ = outputs(ks)
        _same_bits(want_vd, vd, vars(want_vd), rows, f"C[{label}]")
        _same_bits(want_a, a, FIELD_NAMES, rows, f"A[{label}]")
        _same_bits(want_l, l, FIELD_NAMES, rows, f"L[{label}]")
        for op in ("vertical", "adaptation", "advection"):
            assert ks.describe()["calls"][op] == {"fused": 1, "fallback": 0}, op


# ---------------------------------------------------------------------------
# the update door: engine.update == tendency -> F -> axpy (-> midpoint)
# ---------------------------------------------------------------------------
def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """``[lo, hi)`` of every run of True."""
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _update_window(eng, shape: str, fracs):
    """Target rows of one ``shape`` of window on ``eng``'s working rows
    (``None``: the whole array), placed by the two fractions."""
    ny_w = eng.geom.shape2d[0]
    polar = eng.polar_filter.mask_c | eng.polar_filter.mask_v
    if shape == "whole":
        return None
    if shape in ("in-polar-band", "no-polar-row"):
        # the northern band / the longest run the filter leaves alone
        a, b = (
            _runs(polar)[0] if shape == "in-polar-band"
            else max(_runs(~polar), key=lambda r: r[1] - r[0])
        )
        lo = a + int(fracs[0] * (b - a - 1))
        return lo, lo + 1 + int(fracs[1] * (b - lo - 1))
    lo = 1 + int(fracs[0] * (ny_w - 3))
    if shape == "one-row":
        return lo, lo + 1
    return lo, lo + 1 + int(fracs[1] * (ny_w - 2 - lo))


update_cases = st.fixed_dictionaries({
    "nx": st.integers(4, 72).map(lambda h: 2 * h),
    "ny": st.integers(8, 20),
    "nz": st.integers(1, 4),
    "seed": st.integers(0, 2**32 - 1),
    "zeroed": st.sets(st.sampled_from(["U", "V", "psa"])),
    "kind": st.sampled_from(["adaptation", "advection"]),
    "midpoint": st.booleans(),
    "dt": st.floats(1.0, 600.0),
    "window": st.sampled_from(
        ["whole", "any", "one-row", "no-polar-row", "in-polar-band"]
    ),
    "fracs": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
})


@settings(max_examples=60, deadline=None)
@given(case=update_cases)
@example(case=dict(
    nx=16, ny=8, nz=1, seed=0, zeroed={"U", "V", "psa"}, kind="advection",
    midpoint=True, dt=60.0, window="in-polar-band", fracs=(0.0, 1.0),
))
@example(case=dict(
    nx=144, ny=12, nz=2, seed=1, zeroed=set(), kind="adaptation",
    midpoint=True, dt=600.0, window="whole", fracs=(0.0, 0.0),
))
def test_update_door_equals_tendency_filter_axpy_midpoint(case):
    """``engine.update`` — on the reference tier, and through the C
    kernels' store modes in both division expansions — ``==`` the
    reference operators' tendency -> ``apply_filter`` -> ``axpy_into``
    (-> ``midpoint_into``), bit for bit including the sign of zero, on
    the window's target rows; no other row of ``out`` is touched."""
    grid = LatLonGrid(nx=case["nx"], ny=case["ny"], nz=case["nz"])
    core = SerialCore(grid)
    rng = np.random.default_rng(case["seed"])
    psi = core.pad(balanced_random_state(grid, rng))
    base = core.pad(balanced_random_state(grid, rng))
    for name in case["zeroed"]:
        getattr(psi, name)[...] = 0.0
        getattr(base, name)[...] = 0.0 if name != "psa" else -0.0
    geom, params = core.engine.geom, core.params
    kind, dt, midpoint = case["kind"], case["dt"], case["midpoint"]

    ref = TendencyEngine(geom, params)
    win = _update_window(ref, case["window"], case["fracs"])
    sl = None if win is None else ref.slab(*win)
    rows = slice(None) if sl is None else sl.rows
    vd = ref.vertical(psi)
    tend = ref.apply_filter(getattr(ref, kind)(psi, vd, sl), sl)
    want = base.axpy_into(dt, tend, ModelState.zeros(geom.shape3d))
    if midpoint:
        ModelState.midpoint_into(base, want, want)

    engines = {"reference": ref}
    if c_available():
        for cflags in cbackend.CFLAGS_SETS:
            try:
                ks = fused_on(cflags)
            except cbackend.KernelBuildError:
                continue  # e.g. a compiler without -march=native
            engines[ks.describe()["division"]] = TendencyEngine(
                geom, params, kernels=ks
            )
    for label, eng in engines.items():
        out = ModelState.zeros(geom.shape3d)
        for f in out.fields().values():
            f.fill(7.0)
        got = eng.update(
            kind, psi, base, vd, dt, out,
            None if win is None else eng.slab(*win), midpoint,
        )
        assert got is out
        _same_bits(want, out, FIELD_NAMES, rows, f"update[{label}]")
        if sl is not None:
            for f in out.fields().values():
                assert (f[..., : sl.lo, :] == 7.0).all(), label
                assert (f[..., sl.hi:, :] == 7.0).all(), label
        if label != "reference":
            assert eng.kernels.calls[kind] == {"fused": 1, "fallback": 0}


def test_update_refuses_to_overwrite_its_inputs():
    grid = LatLonGrid(nx=16, ny=8, nz=2)
    core = SerialCore(grid)
    s = core.pad(balanced_random_state(grid, np.random.default_rng(0)))
    vd = core.engine.vertical(s)
    with pytest.raises(ValueError, match="overwrite"):
        core.engine.update("adaptation", s, s, vd, 60.0, s)


@pytest.mark.skipif(not c_available(), reason="no C compiler on this host")
def test_fused_kernels_reject_pressure_below_the_model_top():
    """The guard of the reference ``P`` moved into the table pass with it."""
    grid = LatLonGrid(nx=16, ny=8, nz=3)
    core = SerialCore(grid, kernel_tier="fused")
    s = core.pad(balanced_random_state(grid, np.random.default_rng(0)))
    vd = core.engine.vertical(s)
    s.psa[3, 5] = constants.P_TOP - constants.P_REFERENCE
    for call in (
        lambda: core.engine.vertical(s),
        lambda: core.engine.adaptation(s, vd),
        lambda: core.engine.advection(s, vd),
    ):
        with pytest.raises(ValueError, match="model-top"):
            call()
    assert core.kernels.calls["vertical"]["fallback"] == 0
