"""Workspace pool unit tests + bit-identity of the pooled operators.

The cores evaluate ``A``, ``L``, ``C`` and ``S`` only through
:class:`repro.kernels.KernelSet`, on pooled buffers.  The allocating
functions of :mod:`repro.operators` are the readable mathematical oracle;
the contract is *exact* reproducibility, so these tests assert ``==``
(not ``allclose``) between the two, operator by operator, on
hypothesis-drawn meshes, ghost widths (the serial ``gy = 2`` and the CA
``gy = 3M + 2``) and seeds.  The same contract one level up: an operator
evaluated on a *row window* (the CA core's shrinking-halo sweeps) equals
the whole-array evaluation on the window's target rows and reads nothing
beyond window +- stencil reach.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constants import ModelParameters
from repro.core.comm_avoiding import STRIP, strip_partial
from repro.core.integrator import SerialCore
from repro.core.tendencies import TendencyEngine
from repro.core.workspace import StateRing, Workspace
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.kernels import KernelSet
from repro.operators.adaptation import AdaptationGeomCache, adaptation_tendency
from repro.operators.advection import AdvectionGeomCache, advection_tendency
from repro.operators.geometry import WorkingGeometry
from repro.operators.shifts import roll_into
from repro.operators.smoothing import (
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
    smooth_state,
    smoothers_for,
)
from repro.operators.vertical import (
    VerticalGeomCache,
    compute_vertical_diagnostics,
    compute_vertical_diagnostics_scan,
)
from repro.physics.initial import balanced_random_state
from repro.state.variables import FIELD_NAMES, ModelState


# ---------------------------------------------------------------------------
# Workspace pool mechanics
# ---------------------------------------------------------------------------
class TestWorkspacePool:
    def test_take_give_recycles_by_shape(self):
        ws = Workspace()
        a = ws.take((3, 4))
        ws.give(a)
        b = ws.take((3, 4))
        assert b is a
        assert ws.fresh_allocations == 1
        assert ws.reuses == 1

    def test_distinct_shapes_do_not_mix(self):
        ws = Workspace()
        a = ws.take((3, 4))
        ws.give(a)
        b = ws.take((4, 3))
        assert b is not a
        assert ws.fresh_allocations == 2

    def test_dtype_keys_separate(self):
        ws = Workspace()
        a = ws.take((5,), np.float64)
        ws.give(a)
        b = ws.take((5,), np.float32)
        assert b.dtype == np.float32
        assert b is not a

    def test_double_give_rejected(self):
        ws = Workspace()
        a = ws.take((2, 2))
        ws.give(a)
        with pytest.raises(ValueError, match="double give"):
            ws.give(a)

    def test_view_rejected(self):
        ws = Workspace()
        a = ws.take((4, 4))
        with pytest.raises(ValueError, match="view"):
            ws.give(a[1:])

    def test_pooled_bytes_counts_parked_buffers(self):
        ws = Workspace()
        a = ws.take((10, 10))
        assert ws.pooled_bytes == 0
        ws.give(a)
        assert ws.pooled_bytes == a.nbytes

    def test_state_round_trip(self):
        ws = Workspace()
        s = ws.take_state((2, 3, 4))
        assert s.U.shape == (2, 3, 4) and s.psa.shape == (3, 4)
        ws.give_state(s)
        t = ws.take_state((2, 3, 4))
        # the pool is LIFO per (shape, dtype): the same buffers come back,
        # though not necessarily in the same field slots
        assert {id(t.U), id(t.V), id(t.Phi)} == {id(s.U), id(s.V), id(s.Phi)}
        assert t.psa is s.psa


class TestStateRing:
    def test_scratch_skips_live_states(self):
        ws = Workspace()
        ring = StateRing(ws, (2, 3, 4), size=3)
        a = ring.scratch()
        b = ring.scratch(a)
        c = ring.scratch(a, b)
        assert len({id(a), id(b), id(c)}) == 3

    def test_ring_over_ready_made_states(self):
        states = [ModelState.zeros((2, 3, 4)) for _ in range(2)]
        ring = StateRing.of(states)
        assert ring.scratch(states[0]) is states[1]

    def test_exhaustion_raises(self):
        ws = Workspace()
        ring = StateRing(ws, (2, 3, 4), size=2)
        a = ring.scratch()
        b = ring.scratch(a)
        with pytest.raises(RuntimeError, match="exhausted"):
            ring.scratch(a, b)


class TestRollInto:
    @pytest.mark.parametrize("shift", [-3, -1, 0, 1, 2, 5, 7])
    @pytest.mark.parametrize("axis", [-1, -2, 0])
    def test_matches_np_roll(self, shift, axis):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5, 7))
        out = np.empty_like(a)
        roll_into(a, shift, out, axis=axis)
        np.testing.assert_array_equal(out, np.roll(a, shift, axis=axis))


# ---------------------------------------------------------------------------
# pooled operators == allocating oracle, bit for bit
# ---------------------------------------------------------------------------
VD_FIELDS = (
    "div_p", "column_sum", "pw_iface", "w_iface", "sdot_iface",
    "phi_prime", "p_fac",
)

#: mesh x ghost width x seed; gy = 2 is the serial core's working array,
#: gy = 3M + 2 (M = 1..3) the communication-avoiding core's
cases = st.tuples(
    st.sampled_from([8, 12, 16]),   # nx
    st.integers(6, 12),             # ny
    st.integers(1, 4),              # nz (1: the fields carry no plane stride)
    st.sampled_from([2, 5, 8, 11]),  # gy
    st.integers(0, 2**32 - 1),      # seed
)


def _working_case(nx, ny, nz, gy, seed):
    """A working geometry and a random (finite, P > 0) working state."""
    grid = LatLonGrid(nx=nx, ny=ny, nz=nz)
    geom = WorkingGeometry.build_global(
        grid, SigmaLevels.uniform(nz), gy=gy, gz=0
    )
    rng = np.random.default_rng(seed)
    shape3d = geom.shape3d
    state = ModelState(
        U=10.0 * rng.standard_normal(shape3d),
        V=10.0 * rng.standard_normal(shape3d),
        Phi=100.0 * rng.standard_normal(shape3d),
        psa=100.0 * rng.standard_normal(shape3d[1:]),
    )
    return geom, state


def _assert_identical(want, got, names, label):
    for name in names:
        a, b = getattr(want, name), getattr(got, name)
        assert np.array_equal(a, b), (
            f"{label}: {name} differs (max |diff| = {np.abs(a - b).max():.3e})"
        )


@settings(max_examples=20, deadline=None)
@given(case=cases, identity_gather=st.booleans())
def test_vertical_pooled_equals_allocating(case, identity_gather):
    """``C`` through the kernel object, without and with the allgather
    hook (one z-rank: the gathered column is the rank's own)."""
    geom, s = _working_case(*case)
    gather = (lambda stack: stack) if identity_gather else None
    want = compute_vertical_diagnostics(s.U, s.V, s.Phi, s.psa, geom, gather)
    got = KernelSet("reference").vertical(
        s.U, s.V, s.Phi, s.psa, geom, gather, Workspace(),
        VerticalGeomCache(geom),
    )
    _assert_identical(want, got, VD_FIELDS, "C")


@settings(max_examples=10, deadline=None)
@given(case=cases)
def test_vertical_scan_goes_through_the_same_door(case):
    geom, s = _working_case(*case)
    scan = (lambda x: np.zeros_like(x), lambda x: x.copy())
    want = compute_vertical_diagnostics_scan(
        s.U, s.V, s.Phi, s.psa, geom, *scan
    )
    got = KernelSet("reference").vertical(
        s.U, s.V, s.Phi, s.psa, geom, None, Workspace(),
        VerticalGeomCache(geom), scan=scan,
    )
    _assert_identical(want, got, VD_FIELDS, "C(scan)")


@settings(max_examples=20, deadline=None)
@given(case=cases)
def test_adaptation_pooled_equals_allocating(case):
    geom, s = _working_case(*case)
    params = ModelParameters()
    vd = compute_vertical_diagnostics(s.U, s.V, s.Phi, s.psa, geom)
    want = adaptation_tendency(s, vd, geom, params)
    got = KernelSet("reference").adaptation(
        s, vd, geom, params, Workspace(), ModelState.zeros(geom.shape3d),
        AdaptationGeomCache(geom),
    )
    _assert_identical(want, got, FIELD_NAMES, "A")


@settings(max_examples=20, deadline=None)
@given(case=cases)
def test_advection_pooled_equals_allocating(case):
    geom, s = _working_case(*case)
    vd = compute_vertical_diagnostics(s.U, s.V, s.Phi, s.psa, geom)
    want = advection_tendency(s, vd, geom)
    got = KernelSet("reference").advection(
        s, vd, geom, Workspace(), ModelState.zeros(geom.shape3d),
        AdvectionGeomCache(geom),
    )
    _assert_identical(want, got, FIELD_NAMES, "L")


@settings(max_examples=20, deadline=None)
@given(case=cases, beta_y_uv=st.sampled_from([0.0, 0.06]))
def test_smoothing_pooled_equals_allocating(case, beta_y_uv):
    geom, s = _working_case(*case)
    params = ModelParameters(smoothing_beta_y_uv=beta_y_uv)
    want = smooth_state(s, params)
    got = KernelSet("reference").smooth_state_into(
        s, params, ModelState.zeros(geom.shape3d), Workspace(),
        smoothers_for(params),
    )
    _assert_identical(want, got, FIELD_NAMES, "S")


@settings(max_examples=20, deadline=None)
@given(
    case=cases.filter(lambda c: c[3] > 2),  # the CA ghost widths
    offsets=st.sampled_from(
        [OFFSETS_R, OFFSETS_L, OFFSETS_R_PRIME, OFFSETS_L_PRIME]
    ),
    south=st.booleans(),
)
def test_strip_window_partial_equals_whole_array_partial(case, offsets, south):
    """The former/later smoothing evaluates its strip partials on the
    strip's row window; the two kept rows equal the whole-array ones."""
    geom, s = _working_case(*case)
    gy, ny_i = geom.gy, geom.extent.ny
    lo = gy + ny_i - STRIP if south else gy
    rows = slice(lo, lo + STRIP)
    sm = smoothers_for(ModelParameters(smoothing_beta_y_uv=0.06))
    for name in FIELD_NAMES:
        a = getattr(s, name)
        want = sm[name].partial(a, offsets)[..., rows, :]
        got = strip_partial(sm[name], a, rows, offsets)
        assert np.array_equal(want, got), name


# ---------------------------------------------------------------------------
# row windows == whole array on the window, reading nothing beyond the reach
# ---------------------------------------------------------------------------
def _poisoned(obj, names, view):
    """Copy of a state / C bundle with every row outside ``view`` NaN."""
    out = {}
    for name in names:
        a = getattr(obj, name)
        b = np.full_like(a, np.nan)
        b[..., view, :] = a[..., view, :]
        out[name] = b
    return type(obj)(**out)


#: interior windows (as every production window is: the outermost
#: ``STRIP`` working rows are never targets) as fractions of the rows
windows = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _window(geom, fracs, margin):
    ny_w = geom.shape2d[0]
    lo = margin + int(fracs[0] * (ny_w - 2 * margin - 1))
    hi = lo + 1 + int(fracs[1] * (ny_w - margin - lo - 1))
    return lo, hi


@settings(max_examples=30, deadline=None)
@given(
    case=cases, fracs=windows,
    tier=st.sampled_from(["reference", "fused"]),
)
@example(case=(16, 12, 1, 5, 0), fracs=(0.3, 0.5), tier="fused")
def test_windowed_tendencies_equal_whole_array_on_the_window(case, fracs, tier):
    """``C``, ``A``, ``L``, the polar filter and the update on a row window:
    ``==`` the whole-array result on the target rows, with every input row
    outside window +- stencil reach NaN-poisoned (nothing beyond the reach
    is read) and every tendency row outside it untouched."""
    geom, s = _working_case(*case)
    params = ModelParameters()
    eng = TendencyEngine(geom, params, kernels=KernelSet(tier))
    lo, hi = _window(geom, fracs, 1)
    sl = eng.slab(lo, hi)
    rows, view = sl.rows, sl.view

    vd = eng.vertical(s)
    want_a = eng.apply_filter(eng.adaptation(s, vd)).copy()
    want_l = eng.apply_filter(eng.advection(s, vd)).copy()

    sp = _poisoned(s, FIELD_NAMES, view)
    got_vd = eng.vertical(sp, sl)
    for name in VD_FIELDS:
        assert np.array_equal(
            getattr(vd, name)[..., rows, :], getattr(got_vd, name)[..., rows, :]
        ), f"C[{tier}]: {name}"
    # phi' is column-local: valid on the margin row A's P_theta reads
    assert np.array_equal(vd.phi_prime[:, hi], got_vd.phi_prime[:, hi])

    vdp = _poisoned(vd, VD_FIELDS, view)
    for op, want in ((eng.adaptation, want_a), (eng.advection, want_l)):
        for f in eng._tend.fields().values():
            f.fill(7.0)
        tend = eng.apply_filter(op(sp, vdp, sl), sl).copy()
        out = ModelState.zeros(geom.shape3d)
        eng.update(op.__name__, sp, s, vdp, 0.5, out, sl)
        full = s.axpy_into(0.5, want, ModelState.zeros(geom.shape3d))
        for name in FIELD_NAMES:
            t, w = getattr(tend, name), getattr(want, name)
            assert np.array_equal(t[..., rows, :], w[..., rows, :]), (
                f"{op.__name__}[{tier}]: {name}"
            )
            assert (t[..., : view.start, :] == 7.0).all()
            assert (t[..., view.stop:, :] == 7.0).all()
            o = getattr(out, name)
            assert np.array_equal(o[..., rows, :], getattr(full, name)[..., rows, :])
            assert not o[..., : lo, :].any() and not o[..., hi:, :].any()


@settings(max_examples=30, deadline=None)
@given(
    case=cases, fracs=windows,
    tier=st.sampled_from(["reference", "fused"]),
)
@example(case=(16, 12, 1, 5, 0), fracs=(0.3, 0.5), tier="fused")
def test_windowed_smoothing_equals_whole_array_on_the_window(case, fracs, tier):
    geom, s = _working_case(*case)
    params = ModelParameters(smoothing_beta_y_uv=0.06)
    ks = KernelSet(tier)
    eng = TendencyEngine(geom, params, kernels=ks)
    sm = smoothers_for(params)
    lo, hi = _window(geom, fracs, STRIP)
    sl = eng.slab(lo, hi, STRIP)
    want = ks.smooth_state_into(
        s, params, ModelState.zeros(geom.shape3d), Workspace(), sm
    )
    got = ModelState.zeros(geom.shape3d)
    sl.smooth(ks, eng.ws, sm, _poisoned(s, FIELD_NAMES, sl.view), got)
    for name in FIELD_NAMES:
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g[..., sl.rows, :], w[..., sl.rows, :]), name
        assert not g[..., :lo, :].any() and not g[..., hi:, :].any(), name


def test_window_scratch_reuses_the_whole_array_pool_entries():
    """Windows of different heights share one set of working-height pool
    buffers instead of parking one set per height."""
    geom, s = _working_case(16, 12, 3, 5, 0)
    eng = TendencyEngine(geom, ModelParameters(), kernels=KernelSet("fused"))
    vd = eng.vertical(s)
    eng.adaptation(s, vd), eng.advection(s, vd)
    parked = eng.ws.pooled_bytes
    for lo, hi in ((3, 9), (4, 15), (6, 18), (5, 7)):
        sl = eng.slab(lo, hi)
        eng.adaptation(s, vd, sl), eng.advection(s, vd, sl)
    ny_w, nx = geom.shape2d
    assert eng.ws.pooled_bytes <= parked + 4 * 8 * ny_w * nx


@pytest.mark.parametrize("nz", [1, 3])
def test_slab_inputs_with_a_pooled_c_bundle_stay_correct(nz):
    """``C`` of row-slab views *without* ``out``: the pooled bundle is
    plane-contiguous, so unless the inputs are single planes the call
    breaks the one-plane-stride contract and must run (and count) the
    numpy operator instead of the C kernel."""
    geom, s = _working_case(16, 12, nz, 5, 0)
    sl = TendencyEngine(geom, ModelParameters()).slab(4, 11)
    v = ModelState(**{
        name: getattr(s, name)[..., sl.view, :] for name in FIELD_NAMES
    })
    want = compute_vertical_diagnostics(
        *(np.ascontiguousarray(a) for a in (v.U, v.V, v.Phi, v.psa)), sl.geom
    )
    ks = KernelSet("fused")
    got = ks.vertical(
        v.U, v.V, v.Phi, v.psa, sl.geom, None, Workspace(),
        VerticalGeomCache(sl.geom),
    )
    _assert_identical(want, got, VD_FIELDS, "C")
    if ks.backend == "c":
        assert ks.calls["vertical"]["fallback"] == (nz > 1)


# ---------------------------------------------------------------------------
# buffer ownership and steady-state allocation
# ---------------------------------------------------------------------------
def test_engine_tendencies_share_one_engine_owned_buffer():
    """A tendency is valid until the next evaluation: hold two, copy one."""
    geom, s = _working_case(8, 8, 2, 2, 0)
    eng = TendencyEngine(geom, ModelParameters())
    vd = eng.vertical(s)
    first = eng.adaptation(s, vd)
    kept = first.copy()
    second = eng.advection(s, vd)
    assert second is first
    assert not np.array_equal(kept.U, second.U)


def test_serial_pool_converges():
    """Steady state performs zero heap allocations on the step hot path."""
    grid = LatLonGrid(nx=24, ny=12, nz=4)
    core = SerialCore(grid)
    w = core.pad(balanced_random_state(grid, np.random.default_rng(1234)))
    w = core.step(w)
    w = core.step(w)
    fresh_before = core.ws.fresh_allocations
    w = core.step(w)
    assert core.ws.fresh_allocations == fresh_before
    assert core.ws.reuses > 0
