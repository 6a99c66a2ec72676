"""A step's fixed cost, as counts: what one model step asks of pocketfft
and of ctypes, and that the C-call bindings behind it are safe.

* The polar filter transforms the masked rows of all four fields as one
  stack: one ``rfft`` and one ``irfft`` per application, 24 calls per
  step at ``M = 3`` (12 applications) — on the serial core and on every
  CA rank.  The serial core's updates run on its owned rows, so no ghost
  row reaches the stack.  That rests on pocketfft transforming each row
  of a stack exactly as it transforms the row alone, which
  :func:`test_batched_rows_equal_single_row_transforms` checks
  generatively: a numpy that vectorised across rows would fail here
  before it could change a trajectory.
* Every C kernel call is bound on first use (pointers and stride check
  once), the filter's store pass included; a steady step builds no
  pointer and adds no binding.  The ring alternates the member a step
  lands in, so the schedule repeats every two steps.  Without a compiler
  nothing is bound and every call counts as a fallback.
* A binding keeps the arrays it points into alive, so results after a
  restart, on a second core of the same grid and after pool churn are
  ``==`` a fresh core's.

Counts, not speed-ups: the wall-clock side is the benchmark's.
"""
from __future__ import annotations

import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_program
from repro.core.distributed import DistributedConfig
from repro.core.driver import DynamicalCore
from repro.core.integrator import SerialCore
from repro.core.workspace import Workspace
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.kernels import KernelSet, c_available, cbackend
from repro.operators.smoothing import FieldSmoother
from repro.physics import balanced_random_state
from repro.simmpi import run_spmd
from repro.state.variables import FIELD_NAMES, ModelState

#: pocketfft calls per step: rfft + irfft per filter application, 3M + 3
#: applications at the default M = 3
FFT_CALLS_PER_STEP = 2 * (3 * 3 + 3)


@pytest.fixture(params=["native", "portable", "no-compiler"])
def library(request, monkeypatch):
    """Pin every kernel set the test builds to one flag set's library, or
    act a host without a compiler; returns whether C kernels run."""
    if request.param == "no-compiler":
        def fail():
            raise cbackend.KernelBuildError("forced by the test")

        monkeypatch.setattr(cbackend, "load_library", fail)
        monkeypatch.setattr("repro.kernels.dispatch._WARNED", {"c-build"})
        return False
    if not c_available():
        pytest.skip("no C compiler on this host")
    cflags = cbackend.CFLAGS_SETS[request.param == "portable"]
    try:
        lib = cbackend.load_library(cflags)
    except cbackend.KernelBuildError as exc:
        pytest.skip(f"flag set does not build here: {exc}")
    monkeypatch.setattr(cbackend, "load_library", lambda: lib)
    return True


class Counter:
    """Counts calls of ``np.fft.rfft`` / ``irfft``, the rows handed to
    ``rfft`` and calls of the pointer builder ``cbackend._p`` while
    active."""

    def __init__(self) -> None:
        self.n = {"fft": 0, "rfft_rows": 0, "pointers": 0}

    def _wrap(self, fn, what, rows=False):
        def counted(*args, **kwargs):
            self.n[what] += 1
            if rows:
                self.n["rfft_rows"] += len(args[0])
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        self._patches = [
            mock.patch.object(
                np.fft, "rfft", self._wrap(np.fft.rfft, "fft", rows=True)
            ),
            mock.patch.object(np.fft, "irfft", self._wrap(np.fft.irfft, "fft")),
            mock.patch.object(
                cbackend, "_p", self._wrap(cbackend._p, "pointers")
            ),
        ]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self._patches:
            p.stop()

    def take(self) -> dict:
        n, self.n = self.n, dict.fromkeys(self.n, 0)
        return n


def _check_calls(ks: KernelSet, c: bool) -> None:
    for op, n in ks.calls.items():
        assert n["fused" if c else "fallback"] > 0, (op, n)
        assert n["fallback" if c else "fused"] == 0, (op, n)


# ---------------------------------------------------------------------------
# count gates
# ---------------------------------------------------------------------------
def test_serial_step_fft_pointer_and_binding_counts(library):
    grid = LatLonGrid(nx=32, ny=16, nz=4)
    core = SerialCore(grid, kernel_tier="fused")
    w = core.pad(
        balanced_random_state(grid, np.random.default_rng(0)),
        core._ring.scratch(),
    )
    per_step, bindings = [], {}
    with Counter() as count:
        for k in range(1, 21):
            w = core.step(w)
            per_step.append(count.take())
            bindings[k] = len(core.kernels._bindings)
    assert all(n["fft"] == FFT_CALLS_PER_STEP for n in per_step)
    # the stack holds the masked rows [gy, ny_w - gy) of U, Phi, p'_sa (c)
    # and V (v): the ghost rows are masked too, but no longer transformed
    pf, gy, nz = core.engine.polar_filter, core.geom.gy, grid.nz
    owned = (2 * nz + 1) * pf.mask_c[gy:-gy].sum() + nz * pf.mask_v[gy:-gy].sum()
    assert owned < (2 * nz + 1) * pf.mask_c.sum() + nz * pf.mask_v.sum()
    assert all(
        n["rfft_rows"] == FFT_CALLS_PER_STEP // 2 * owned for n in per_step
    )
    if library:
        assert per_step[0]["pointers"] > 0
    assert [n["pointers"] for n in per_step[2:]] == [0] * 18
    assert bindings[2] == bindings[20]
    assert (bindings[20] > 0) == library
    # the store pass is one of the bound calls
    assert any(key[0] == "F" for key in core.kernels._bindings) == library
    _check_calls(core.kernels, library)


def test_ca_rank_fft_pointer_and_binding_counts(library, monkeypatch):
    """One CA rank of two (thread backend): a second call of the rank's
    program — a restart, 20 steps — builds no pointer and no binding
    beyond the first call's two steps."""
    from repro.core import distributed

    grid = LatLonGrid(nx=16, ny=24, nz=4)  # 12-row blocks > 3M + 2
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=180.0, m_iterations=3
    )
    decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 1)
    cfg = DistributedConfig(
        grid=grid, decomp=decomp, params=params, kernel_tier="fused"
    )
    state0 = balanced_random_state(grid, np.random.default_rng(3))
    made = {}

    def recording(tier):
        ks = KernelSet(tier)
        made.setdefault("ks", ks)  # the first rank to build its context
        return ks

    monkeypatch.setattr(distributed, "KernelSet", recording)
    counts = []

    def program(comm, cfg):
        advance = ca_program(comm, cfg)
        out = ModelState.zeros(grid.shape3d)
        for nsteps in (2, 20):
            comm.barrier()
            advance(state0, nsteps, out)
            comm.barrier()  # both ranks done; neither starts before the next
            if comm.rank == 0:
                counts.append((count.take(), len(made["ks"]._bindings)))

    with Counter() as count:  # patches are process-wide: both ranks count
        run_spmd(2, program, cfg)
    (two, bound2), (twenty, bound20) = counts
    # both ranks filter: the counter sees both, and each owns a polar cap
    assert twenty["fft"] == 2 * 20 * FFT_CALLS_PER_STEP
    assert twenty["pointers"] == 0
    assert bound20 == bound2
    assert (two["pointers"] > 0) == (bound2 > 0) == library
    _check_calls(made["ks"], library)


# ---------------------------------------------------------------------------
# pocketfft transforms each row of a stack as it transforms it alone
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    nx=st.sampled_from([32, 48, 72, 96, 144, 288]),
    nrows=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_equal_single_row_transforms(nx, nrows, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((nrows, nx)) * 10.0 ** rng.integers(-3, 4)
    factors = rng.random((nrows, nx // 2 + 1))
    spec = np.empty((nrows, nx // 2 + 1), np.complex128)
    np.fft.rfft(stack, axis=-1, out=spec)
    np.multiply(spec, factors, out=spec)
    out = np.empty_like(stack)
    np.fft.irfft(spec, n=nx, axis=-1, out=out)
    for r in range(nrows):
        alone = np.fft.irfft(np.fft.rfft(stack[r]) * factors[r], n=nx)
        assert out[r].tobytes() == alone.tobytes(), (nx, nrows, r)


# ---------------------------------------------------------------------------
# a binding never outlives its buffers
# ---------------------------------------------------------------------------
def _params():
    return ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)


def _fresh(grid, s0, nsteps):
    return SerialCore(grid, params=_params(), kernel_tier="fused").run(s0, nsteps)


def _assert_equal(a: ModelState, b: ModelState) -> None:
    for name in FIELD_NAMES:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_bindings_survive_restart_new_cores_and_pool_churn(library):
    grid = LatLonGrid(nx=32, ny=16, nz=4)
    rng = np.random.default_rng(11)
    s0, s1 = (balanced_random_state(grid, rng) for _ in range(2))
    want0, want1 = _fresh(grid, s0, 3), _fresh(grid, s1, 2)

    core = SerialCore(grid, params=_params(), kernel_tier="fused")
    _assert_equal(core.run(s0, 3), want0)
    _assert_equal(core.run(s1, 2), want1)  # restart, other state
    # the pool hands its buffers out in another order: new roles, new keys
    for bucket in core.ws._pool.values():
        random.Random(5).shuffle(bucket)
    _assert_equal(core.run(s0, 3), want0)

    # a second (and third) core of the same grid, the first ones dropped
    for _ in range(2):
        dyn = DynamicalCore(grid, params=_params(), kernel_tier="fused")
        _assert_equal(dyn.run(s1, 2)[0], want1)
        del dyn
        gc.collect()
        _assert_equal(core.run(s0, 3), want0)


def test_a_binding_keeps_its_arrays_alive(library):
    ks = KernelSet("fused")
    sm = FieldSmoother(beta_x=0.05, beta_y=0.05, cross=True)
    a = np.random.default_rng(2).standard_normal((3, 8, 16))
    out = np.empty_like(a)
    ks.smooth_field(sm, a, out, Workspace())
    want = out.copy()
    refs = weakref.ref(a), weakref.ref(out)
    del a, out
    gc.collect()
    assert all(r() is not None for r in refs) == library
    if library:  # the bound call still points at live memory
        (call, _), = ks._bindings.values()
        call()
        assert refs[1]().tobytes() == want.tobytes()


def test_fresh_arrays_every_call_keep_the_table_bounded(library, monkeypatch):
    monkeypatch.setattr(KernelSet, "MAX_BINDINGS", 8)
    ks = KernelSet("fused")
    sm = FieldSmoother(beta_x=0.05, beta_y=0.0, cross=False)
    a = np.random.default_rng(4).standard_normal((2, 6, 16))
    want = sm.full_into(a, np.empty_like(a), Workspace())
    for _ in range(30):
        out = ks.smooth_field(sm, a.copy(), np.empty_like(a), Workspace())
        assert out.tobytes() == want.tobytes()
        assert len(ks._bindings) <= 8

