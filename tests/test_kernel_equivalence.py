"""Kernel-equivalence harness: the fused tier must be a bitwise no-op.

The fused kernel tier (compiled C, or the reference operators call by
call where the library does not build) reproduces the reference operators
bit for bit — same IEEE binary-operation sequence, only the scheduling
differs.  These tests pin that guarantee at three levels: per-operator
against the reference workspace implementations, per-trajectory on the
serial core, and per-trajectory across the thread and process SPMD
backends.
"""
from __future__ import annotations

import os
import sys
import warnings

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.integrator import SerialCore
from repro.core.tendencies import TendencyEngine
from repro.core.workspace import Workspace
from repro.grid.latlon import LatLonGrid
from repro.kernels import (
    TIERS,
    KernelSet,
    c_available,
    cbackend,
    resolve_backend,
)
from repro.operators.smoothing import smoothers_for
from repro.physics import balanced_random_state
from repro.state.variables import ModelState

FIELDS = ("U", "V", "Phi", "psa")


def _assert_states_equal(a, b, context: str) -> None:
    for f in FIELDS:
        fa, fb = getattr(a, f), getattr(b, f)
        assert np.array_equal(fa, fb), (
            f"{context}: field {f} diverges "
            f"(max |delta| = {np.max(np.abs(fa - fb))})"
        )
        # array_equal treats -0.0 == 0.0; the tier contract is bitwise
        assert np.array_equal(np.signbit(fa), np.signbit(fb)), (
            f"{context}: field {f} differs in signed zeros"
        )


def _serial_trajectory(grid, s0, tier, nsteps=3, params=None):
    core = SerialCore(
        grid, params=params or ModelParameters(), kernel_tier=tier
    )
    w = core.pad(s0)
    for _ in range(nsteps):
        w = core.step(w)
    return w  # ghost-extended working state: compared in full


# ---------------------------------------------------------------------------
# tier plumbing
# ---------------------------------------------------------------------------
def test_reference_tier_is_the_same_class_with_nothing_covered():
    ks = KernelSet("reference")
    assert ks._library() is None  # ... and it never asks for the library
    d = ks.describe()
    assert sorted(d) == ["backend", "calls", "division", "tier"]
    assert (d["tier"], d["backend"], d["division"]) == (
        "reference", "numpy", "divide",
    )


def test_unknown_tier_and_backend_rejected():
    with pytest.raises(ValueError, match="kernel tier"):
        KernelSet("turbo")
    with pytest.raises(TypeError):
        KernelSet()  # one constructor, and it takes its tier explicitly
    # "auto" is the only request: what fused means is the host's to say
    for backend in ("fortran", "c", "numpy"):
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_backend(backend)


def test_resolve_auto_prefers_compiled():
    resolved = resolve_backend("auto")
    assert resolved == resolve_backend() == KernelSet("fused").backend
    assert resolved == ("c" if c_available() else "numpy")


def test_tiers_tuple_is_the_public_contract():
    assert TIERS == ("reference", "fused")


# ---------------------------------------------------------------------------
# serial trajectories: fused == reference, bit for bit
# ---------------------------------------------------------------------------
def test_serial_trajectory_bit_identical(small_grid, rng):
    s0 = balanced_random_state(small_grid, rng)
    ref = _serial_trajectory(small_grid, s0, "reference")
    fused = _serial_trajectory(small_grid, s0, "fused")
    _assert_states_equal(ref, fused, "serial fused")


def test_serial_trajectory_with_y_smoothing_and_cross(small_grid, rng):
    """The beta_y / cross smoothing stages must fuse bit-exactly too."""
    params = ModelParameters(smoothing_beta_y_uv=0.06)
    s0 = balanced_random_state(small_grid, rng)
    ref = _serial_trajectory(small_grid, s0, "reference", params=params)
    fused = _serial_trajectory(small_grid, s0, "fused", params=params)
    _assert_states_equal(ref, fused, "serial fused with beta_y")


# ---------------------------------------------------------------------------
# SPMD trajectories: tier equivalence across execution backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spmd_backend", ["thread", "process"])
def test_distributed_trajectory_bit_identical(spmd_backend, one_iter_params):
    grid = LatLonGrid(nx=32, ny=16, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    finals = {}
    for tier in ("reference", "fused"):
        core = DynamicalCore(
            grid,
            algorithm="original-yz",
            nprocs=2,
            params=one_iter_params,
            backend=spmd_backend,
            kernel_tier=tier,
        )
        finals[tier], _ = core.run(s0, 2)
    _assert_states_equal(
        finals["reference"], finals["fused"], f"{spmd_backend} backend"
    )


def test_ca_algorithm_trajectory_bit_identical(one_iter_params):
    grid = LatLonGrid(nx=32, ny=32, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    finals = {}
    for tier in ("reference", "fused"):
        core = DynamicalCore(
            grid,
            algorithm="ca",
            nprocs=2,
            params=one_iter_params,
            kernel_tier=tier,
        )
        finals[tier], _ = core.run(s0, 2)
    _assert_states_equal(finals["reference"], finals["fused"], "ca algorithm")


def test_thread_ranks_share_no_kernel_scratch(one_iter_params):
    """Thread-backend ranks are threads of one process calling the
    GIL-released C kernels concurrently; every table and temporary of a
    call comes from the calling rank's own workspace, so three ranks of two
    different shapes — more than this suite's hosts have cores, switching
    often, on a mesh wide enough that their kernel calls overlap — still
    reproduce the serial oracle bit for bit.  (A ``static`` table inside
    the library fails this test most of the time.)"""
    grid = LatLonGrid(nx=144, ny=49, nz=8)  # 3 ranks: 17 + 16 + 16 rows
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    want = SerialCore(grid, params=one_iter_params).run(s0, 5)
    core = DynamicalCore(
        grid, algorithm="original-yz", nprocs=3, params=one_iter_params,
        backend="thread", kernel_tier="fused",
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got, _ = core.run(s0, 5)
    finally:
        sys.setswitchinterval(interval)
    _assert_states_equal(want, got, "3 fused thread ranks vs serial")


# ---------------------------------------------------------------------------
# both expansions of the division primitive: FMA form and portable '/'
# ---------------------------------------------------------------------------
@pytest.fixture(params=cbackend.CFLAGS_SETS, ids=["native", "portable"])
def c_library(request, monkeypatch):
    """Pin every kernel set the test builds to the library of one flag set
    (``load_library(cflags)`` is the seam: ``_build_so`` alone returns the
    first set that compiles, so the portable one would never run here)."""
    if not c_available():
        pytest.skip("no C compiler on this host")
    try:
        lib = cbackend.load_library(request.param)
    except cbackend.KernelBuildError as exc:
        pytest.skip(f"flag set does not build here: {exc}")
    monkeypatch.setattr(cbackend, "load_library", lambda: lib)
    return request.param


def test_describe_says_which_division_ran(c_library):
    mode = cbackend.division_mode(cbackend.load_library())
    assert mode in ("reciprocal-fma", "divide")
    assert KernelSet("fused").describe()["division"] == mode
    if c_library == cbackend.CFLAGS:
        assert mode == "divide"  # the portable set never reports fast FMA
    assert KernelSet("reference").describe()["division"] == "divide"


def test_operators_bit_identical_on_both_expansions(c_library, small_grid, rng):
    oracle = SerialCore(small_grid)
    w = oracle.pad(balanced_random_state(small_grid, rng))
    ks = KernelSet("fused")
    engines = [
        TendencyEngine(oracle.engine.geom, oracle.params, kernels=k)
        for k in (oracle.kernels, ks)
    ]
    vds = [eng.vertical(w) for eng in engines]
    for f in vars(vds[0]):
        a, b = getattr(vds[0], f), getattr(vds[1], f)
        assert np.array_equal(a, b), f
        assert np.array_equal(np.signbit(a), np.signbit(b)), f
    for op in ("adaptation", "advection"):
        want, got = (getattr(eng, op)(w, vds[0]) for eng in engines)
        _assert_states_equal(want, got, op)
    smooth = [
        k.smooth_state_into(
            w, oracle.params, ModelState.zeros(w.U.shape), Workspace(),
            smoothers_for(oracle.params),
        )
        for k in (oracle.kernels, ks)
    ]
    _assert_states_equal(*smooth, "smoothing")
    assert all(n["fallback"] == 0 for n in ks.describe()["calls"].values())


def test_trajectories_bit_identical_on_both_expansions(
    c_library, small_grid, rng, one_iter_params
):
    s0 = balanced_random_state(small_grid, rng)
    ref = _serial_trajectory(small_grid, s0, "reference")
    fused = _serial_trajectory(small_grid, s0, "fused")
    _assert_states_equal(ref, fused, "serial")
    grid = LatLonGrid(nx=32, ny=32, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    finals = []
    for tier in ("reference", "fused"):
        core = DynamicalCore(
            grid, algorithm="ca", nprocs=2, params=one_iter_params,
            kernel_tier=tier,
        )
        finals.append(core.run(s0, 2)[0])
    _assert_states_equal(*finals, "ca")


# ---------------------------------------------------------------------------
# the build cache: one shared object per build, keyed by what it depends on
# ---------------------------------------------------------------------------
@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """An empty cache directory and a source that compiles in no time."""
    if not c_available():
        pytest.skip("no C compiler on this host")
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setattr(cbackend, "C_SOURCE", "int one(void) { return 1; }")
    return tmp_path


def test_builds_leave_one_shared_object_and_no_directory(empty_cache):
    tmp_path = empty_cache
    first = cbackend._build_so()
    assert cbackend._build_so() == first  # the second call is a cache hit
    assert os.listdir(tmp_path) == [os.path.basename(first)]
    os.remove(first)  # ... and a rebuild leaves the same single file
    assert cbackend._build_so() == first
    assert os.listdir(tmp_path) == [os.path.basename(first)]


def test_build_tag_covers_compiler_and_native_cpu():
    native, portable = cbackend.CFLAGS_SETS
    tag = cbackend.build_tag(native, "cc 12.2.0", "flags: fma avx2 avx512f")
    assert tag == cbackend.build_tag(native, "cc 12.2.0", "flags: fma avx2 avx512f")
    # -march=native code is only valid on the CPU it was built on
    assert tag != cbackend.build_tag(native, "cc 12.2.0", "flags: sse2")
    assert tag != cbackend.build_tag(native, "cc 13.1.0", "flags: fma avx2 avx512f")
    assert tag != cbackend.build_tag(portable, "cc 12.2.0", "flags: fma avx2 avx512f")
    # the portable build runs anywhere: one tag whatever the host
    assert cbackend.build_tag(portable, "cc 12.2.0", "a") == cbackend.build_tag(
        portable, "cc 12.2.0", "b"
    )


def test_a_travelled_cache_is_not_reused_on_another_cpu(empty_cache, monkeypatch):
    """The path ``_build_so`` looks up changes with the host's CPU identity,
    so a native build restored onto a different machine is rebuilt."""
    tmp_path = empty_cache
    try:
        here = cbackend._build_so((cbackend.CFLAGS_SETS[0],))
    except cbackend.KernelBuildError as exc:
        pytest.skip(f"no -march=native here: {exc}")
    monkeypatch.setattr(cbackend, "_cpu_identity", lambda: "flags: another cpu")
    elsewhere = cbackend._build_so((cbackend.CFLAGS_SETS[0],))
    assert elsewhere != here
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(p) for p in (here, elsewhere)
    )


# ---------------------------------------------------------------------------
# the fallback lives inside the kernel object: no method returns None
# ---------------------------------------------------------------------------
def _broken_c_build(monkeypatch) -> KernelSet:
    def fail():
        raise cbackend.KernelBuildError("forced by the test")

    monkeypatch.setattr(cbackend, "load_library", fail)
    monkeypatch.setattr("repro.kernels.dispatch._WARNED", set())
    ks = KernelSet("fused")
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert ks._library() is None
    return ks


def _strided(state: ModelState) -> ModelState:
    """Same values, non-contiguous storage (every other x of a 2x buffer)."""
    def spread(a):
        buf = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        buf[..., ::2] = a
        return buf[..., ::2]

    return ModelState(**{f: spread(getattr(state, f)) for f in FIELDS})


def test_plane_stride_is_the_array_contract():
    """One plane stride per call, whole rows apart; single planes and 2-D
    arrays adopt whatever the multi-plane arrays of the call fix."""
    tall, nx = np.zeros((3, 10, 8)), 8
    assert cbackend.plane_stride(tall, tall[0]) == 10 * nx
    slab, plane = tall[:, 2:7], np.zeros((1, 10, 8))[:, 2:7]
    assert cbackend.plane_stride(plane, slab) == 10 * nx
    assert cbackend.plane_stride(plane) == 5 * nx
    assert cbackend.plane_stride(slab, np.zeros((3, 5, 8))) is None
    assert cbackend.plane_stride(slab, np.zeros((3, 12, 8))[:, 2:7]) is None
    assert cbackend.plane_stride(np.zeros((3, 10, 16))[..., ::2]) is None
    assert cbackend.plane_stride(tall.astype(np.float32)) is None


@pytest.mark.parametrize("case", ["reference", "strided", "broken-c-build"])
def test_every_kernel_method_returns_a_result(
    case, small_grid, rng, monkeypatch
):
    """Reference tier, non-contiguous inputs, unbuildable C library: each
    ``KernelSet`` method still returns the oracle's result, never ``None``."""
    oracle = SerialCore(small_grid)  # the reference tier on contiguous input
    eng = oracle.engine
    w = oracle.pad(balanced_random_state(small_grid, rng))
    want_vd = eng.vertical(w)
    want = {
        "adaptation": eng.adaptation(w, want_vd).copy(),
        "advection": eng.advection(w, want_vd).copy(),
        "smoothing": oracle.kernels.smooth_state_into(
            w, oracle.params, ModelState.zeros(w.U.shape), oracle.ws,
            oracle._smoothers,
        ),
    }

    if case == "broken-c-build":
        ks = _broken_c_build(monkeypatch)
    else:
        ks = KernelSet("reference" if case == "reference" else "fused")
    state = _strided(w) if case == "strided" else w
    ws = Workspace()
    geom, params = eng.geom, oracle.params
    blank = lambda: ModelState.zeros(w.U.shape)  # noqa: E731

    vd = ks.vertical(
        state.U, state.V, state.Phi, state.psa, geom, None, ws,
        eng._whole.cache("vertical"),
    )
    assert vd is not None
    for f in ("div_p", "column_sum", "pw_iface", "sdot_iface", "phi_prime"):
        assert np.array_equal(getattr(vd, f), getattr(want_vd, f)), f
    got = {
        "adaptation": ks.adaptation(
            state, vd, geom, params, ws, blank(), eng._whole.cache("adaptation")
        ),
        "advection": ks.advection(
            state, vd, geom, ws, blank(), eng._whole.cache("advection")
        ),
        "smoothing": ks.smooth_state_into(
            state, params, blank(), ws, smoothers_for(params)
        ),
    }
    for op, res in got.items():
        assert res is not None, f"{case}: {op} returned None"
        _assert_states_equal(want[op], res, f"{case}: {op}")
    # ... and none of it silently: x-strided arrays break the kernels'
    # array contract (row-slab views do not — tests/test_core_ca.py), so
    # every call here is counted as a fallback
    for op, n in ks.describe()["calls"].items():
        assert n["fused"] == 0 and n["fallback"] > 0, (case, op, n)
    one = ks.smooth_field(
        smoothers_for(params)["Phi"], state.Phi, np.empty(w.Phi.shape), ws
    )
    assert np.array_equal(one, want["smoothing"].Phi)


def test_fused_tier_without_the_library_is_the_reference_tier(
    small_grid, rng, one_iter_params, monkeypatch
):
    """The host the fallback exists for: no working compiler.  Serial and
    2-rank CA trajectories ``==`` the reference tier, every call of every
    operator is counted as a fallback, and the process says so once — the
    warning ``_broken_c_build`` caught is the only one."""
    from repro.core import distributed

    _broken_c_build(monkeypatch)
    assert resolve_backend() == "numpy"
    made = []

    def recording(tier):
        made.append(KernelSet(tier))
        return made[-1]

    monkeypatch.setattr(distributed, "KernelSet", recording)
    s0 = balanced_random_state(small_grid, rng)
    ca_grid = LatLonGrid(nx=32, ny=32, nz=6)
    ca0 = balanced_random_state(ca_grid, np.random.default_rng(20180813))
    finals = {}
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*falling back")
        for tier in TIERS:
            serial = SerialCore(small_grid, kernel_tier=tier)
            made.append(serial.kernels)
            ca = DynamicalCore(
                ca_grid, algorithm="ca", nprocs=2, params=one_iter_params,
                backend="thread", kernel_tier=tier,
            )
            finals[tier] = serial.run(s0, 3), ca.run(ca0, 2)[0]
    for ref, fused in zip(finals["reference"], finals["fused"]):
        _assert_states_equal(ref, fused, "fused tier, no library")
    fused = [ks.describe() for ks in made if ks.tier == "fused"]
    assert len(fused) == 3  # the serial core's and one per CA rank
    for d in fused:
        assert (d["backend"], d["division"]) == ("numpy", "divide")
        for op, n in d["calls"].items():
            assert n["fused"] == 0 and n["fallback"] > 0, (op, n)


def test_default_tier_is_fused_for_the_user_facing_core(small_grid, monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
    assert DynamicalCore(grid=small_grid).config.kernel_tier == "fused"
    # the low-level oracle objects keep the reference tier
    assert SerialCore(small_grid).kernel_tier == "reference"


def _assert_option_is_gone(g, **option):
    from repro.core.distributed import DistributedConfig
    from repro.grid.decomposition import Decomposition

    with pytest.raises(TypeError):
        SerialCore(g, **option)
    with pytest.raises(TypeError):
        DynamicalCore(grid=g, **option)
    with pytest.raises(TypeError):
        DistributedConfig(
            grid=g, decomp=Decomposition(g.nx, g.ny, g.nz, 1, 1, 1), **option
        )


def test_use_workspace_is_gone(small_grid):
    _assert_option_is_gone(small_grid, use_workspace=True)


def test_kernel_backend_is_gone(small_grid, monkeypatch):
    _assert_option_is_gone(small_grid, kernel_backend="auto")
    # ... and its env override is read by nothing
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
    assert not hasattr(DynamicalCore(grid=small_grid).config, "kernel_backend")


def test_env_override_selects_tier(small_grid, rng, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "fused")
    core = DynamicalCore(grid=small_grid, algorithm="serial")
    assert core.config.kernel_tier == "fused"
    monkeypatch.setenv("REPRO_KERNEL_TIER", "warp")
    with pytest.raises(ValueError, match="kernel_tier"):
        DynamicalCore(grid=small_grid, algorithm="serial")


# ---------------------------------------------------------------------------
# observability: fused calls appear as kernel-category spans
# ---------------------------------------------------------------------------
def test_fused_runs_emit_kernel_spans(tmp_path, one_iter_params):
    import json

    from repro.obs import ObsConfig

    grid = LatLonGrid(nx=32, ny=16, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(7))
    trace = tmp_path / "fused_trace.json"
    core = DynamicalCore(
        grid,
        algorithm="serial",
        params=one_iter_params,
        kernel_tier="fused",
        observe=ObsConfig(chrome_trace=trace),
    )
    core.run(s0, 1)
    events = json.loads(trace.read_text())
    events = events["traceEvents"] if isinstance(events, dict) else events
    kernel_spans = [
        e for e in events
        if isinstance(e, dict) and e.get("cat") == "kernel"
    ]
    assert kernel_spans, "no kernel-category spans in the fused trace"
    names = {e["name"] for e in kernel_spans}
    assert any(n.startswith("smoothing-fused[") for n in names), names
