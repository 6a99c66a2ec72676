"""Guard bands around every C entry point.

Every array a kernel call receives — inputs, outputs, the table block and
the row buffers its dispatch takes from the workspace — is carved out of a
larger buffer filled with a canary pattern, and after the call every word
the kernel had no business writing must still hold it: the bands before
and after each array, every row of a working-height array outside the
row-slab view of the call, every row of an updated state outside the
target rows, and the whole of every input.  ``smooth_full``, ``vertical``,
``adaptation`` and ``advection`` (the latter two in every store mode) run
on whole arrays and on row-slab views, ``nz == 1`` included; the store
modes as the cores call them — working arrays and a row view — twice, the
second call through the binding the first one made.  So does
``store_rows``, the filter's store pass, on the filtered rows of each
window: only those rows of ``out`` may change.

:func:`check_library` is the whole sweep for one compiled library: the
test runs it on both flag sets, CI's ``kernels`` job once more on an
AddressSanitizer build (which also sees a stray *read*).
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.integrator import SerialCore
from repro.core.rowslab import FIELD_FAMILY, FilterRows, RowSlab
from repro.grid.latlon import LatLonGrid
from repro.kernels import KernelSet, c_available, cbackend
from repro.kernels.dispatch import Store
from repro.operators.adaptation import AdaptationGeomCache
from repro.operators.advection import AdvectionGeomCache
from repro.operators.filter import PolarFilter
from repro.operators.smoothing import smoothers_for
from repro.operators.vertical import (
    VerticalDiagnostics,
    VerticalGeomCache,
    vd_rows,
)
from repro.physics import balanced_random_state
from repro.state.variables import FIELD_NAMES, ModelState, state_rows

#: canary words either side of every array
BAND = 96
#: a quiet NaN no kernel computes: any arithmetic on it would also poison
#: the results the sweep checks for finiteness
CANARY = np.uint64(0x7FF8_DEAD_BEEF_CAFE)


class Guarded:
    """Arrays inside canary-filled buffers, and where a call may write."""

    def __init__(self) -> None:
        #: (buffer, its contents when handed out, where a call may write)
        self._items: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def array(self, shape, fill: np.ndarray | None = None) -> np.ndarray:
        """A C-contiguous float64 array of ``shape`` with a band either
        side, holding ``fill`` or — scratch and outputs — canaries."""
        n = int(np.prod(shape))
        buf = np.full(n + 2 * BAND, CANARY, dtype=np.uint64)
        arr = buf[BAND: BAND + n].view(np.float64).reshape(shape)
        if fill is not None:
            arr[...] = fill
        self._items.append((buf, buf.copy(), np.zeros(buf.shape, dtype=bool)))
        return arr

    def allow(self, view: np.ndarray) -> None:
        """The call may write the elements of ``view`` (a view of one of
        this object's arrays)."""
        lo = view.__array_interface__["data"][0]
        for buf, _, allowed in self._items:
            base = buf.__array_interface__["data"][0]
            if base <= lo < base + buf.nbytes:
                idx = np.zeros(buf.shape, dtype=bool)
                probe = np.lib.stride_tricks.as_strided(
                    idx[(lo - base) // 8:], view.shape,
                    tuple(s // 8 for s in view.strides),
                )
                probe[...] = True
                allowed |= idx
                return
        raise AssertionError("not a view of a guarded array")

    def check(self, label: str) -> None:
        for buf, old, allowed in self._items:
            moved = np.flatnonzero((buf != old) & ~allowed)
            assert not len(moved), (
                f"{label}: wrote {len(moved)} words it does not own "
                f"(first at {moved[0] - BAND} of an array of "
                f"{len(buf) - 2 * BAND})"
            )


class GuardedWorkspace:
    """A pool that hands every scratch buffer out of a guarded block.

    A windowed call takes working-height scratch and uses its leading
    ``rows`` rows (``dispatch.RowWindowPool``): only those may change."""

    def __init__(self, guarded: Guarded, cap: int, rows: int) -> None:
        self.guarded, self.cap, self.rows = guarded, cap, rows

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        arr = self.guarded.array(shape)
        windowed = len(shape) >= 2 and shape[-2] == self.cap
        self.guarded.allow(arr[..., : self.rows, :] if windowed else arr)
        return arr

    def give(self, *arrays) -> None:
        pass


def _finite(arrays, rows: slice, label: str) -> None:
    for a in arrays:
        assert np.isfinite(a[..., rows, :]).all(), f"{label}: read a canary"


def check_mesh(lib, nx: int, ny: int, nz: int, window) -> None:
    """Every kernel on one mesh: on the whole working array
    (``window=None``) or on the row window ``(lo, hi)``."""
    grid = LatLonGrid(nx=nx, ny=ny, nz=nz)
    core = SerialCore(grid)
    params = ModelParameters(smoothing_beta_y_uv=0.06)
    geom = core.engine.geom
    ny_w = geom.shape2d[0]
    rng = np.random.default_rng(nx + ny + nz)
    s = core.pad(balanced_random_state(grid, rng))
    base = core.pad(balanced_random_state(grid, rng))
    vd = core.engine.vertical(s)
    pf = PolarFilter(geom, params)
    ks = KernelSet("fused")
    ks._lib = lib

    for margin in (1, 2):  # the tendencies' read radius, the smoother's
        if window is None:
            view, rows, g = slice(0, ny_w), slice(0, ny_w), geom
            polar = FilterRows(pf, 0, ny_w, view)
        else:
            sl = RowSlab(geom, *window, margin, pf)
            view, rows, g, polar = sl.view, sl.rows, sl.geom, sl.polar
        inner = (rows.start - view.start, rows.stop - view.start)
        label = f"{nx}x{ny}x{nz} rows {window} margin {margin}"

        def call(fn, writes):
            """``fn(ws, state, bundle, tendency, base, out)`` on guarded
            copies; ``writes`` names what it may write and where."""
            gd = Guarded()
            state = ModelState(**{
                n: gd.array(a.shape, a) for n, a in s.fields().items()
            })
            bundle = VerticalDiagnostics(**{
                n: gd.array(a.shape, a if "vd" not in writes else None)
                for n, a in vars(vd).items()
            })
            b = ModelState(**{
                n: gd.array(a.shape, a) for n, a in base.fields().items()
            })
            tend, out = (
                ModelState(**{n: gd.array(a.shape) for n, a in s.fields().items()})
                for _ in range(2)
            )
            for name, where in writes.items():
                target = {"vd": bundle, "tend": tend, "out": out}[name]
                for a in vars(target).values():
                    gd.allow(a[..., where, :])
            ws = GuardedWorkspace(gd, ny_w, view.stop - view.start)
            fn(ws, state, bundle, tend, b, out)
            gd.check(f"{label}: {fn.__name__}")
            return bundle, tend, out

        def rows_of(state, bundle=None):
            if bundle is None:
                return state_rows(state, view)
            return state_rows(state, view), vd_rows(bundle, view)

        if margin == 2:
            sm = smoothers_for(params)

            def smooth_full(ws, state, bundle, tend, b, out):
                for n in FIELD_NAMES:
                    ks.smooth_field(
                        sm[n], getattr(rows_of(state), n),
                        getattr(rows_of(out), n), ws, rows=inner,
                    )

            _, _, out = call(smooth_full, {"out": rows})
            _finite(out.fields().values(), rows, label)
            continue

        def vertical(ws, state, bundle, tend, b, out):
            v, o = rows_of(state, bundle)
            ks.vertical(
                v.U, v.V, v.Phi, v.psa, g, None, ws, VerticalGeomCache(g),
                out=o,
            )

        bundle, _, _ = call(vertical, {"vd": view})
        _finite(vars(bundle).values(), rows, label)

        for midpoint in (None, False, True):  # the three store modes
            def store(b, out):
                if midpoint is None:
                    return None
                return Store(
                    b, out, 30.0, midpoint, inner,
                    polar.subset["c"][0], polar.subset["v"][0],
                )

            def twice(method, state, bundle, tend, b, out, *head):
                """Without a store on views of the pass's rows; with one
                as the cores call: working arrays and the row ``view``,
                twice on the same buffers — the second call runs through
                the binding the first one made."""
                cache = (
                    AdaptationGeomCache(g) if method == ks.adaptation
                    else AdvectionGeomCache(g)
                )
                if midpoint is None:
                    v, bd = rows_of(state, bundle)
                    method(v, bd, g, *head, rows_of(tend), cache)
                    return
                args = (state, bundle, g, *head, tend, cache)
                method(*args, store(b, out), view)
                bound = len(ks._bindings)
                method(*args, store(b, out), view)
                assert len(ks._bindings) == bound, label

            def adaptation(ws, state, bundle, tend, b, out):
                twice(ks.adaptation, state, bundle, tend, b, out, params, ws)

            def advection(ws, state, bundle, tend, b, out):
                twice(ks.advection, state, bundle, tend, b, out, ws)

            for fn in (adaptation, advection):
                writes = {"tend": view}
                if midpoint is not None:
                    writes["out"] = rows
                _, tend, out = call(fn, writes)
                if midpoint is None:
                    _finite(tend.fields().values(), rows, label)
                    continue
                for name in ("U", "V", "Phi"):
                    flag = polar.subset["v" if name == "V" else "c"][0]
                    flag = flag[inner[0]: inner[1]]
                    t = getattr(tend, name)[..., rows, :]
                    o = getattr(out, name)[..., rows, :]
                    # a row lands raw in the tendency or updated in out
                    assert np.isfinite(t[:, flag]).all(), label
                    assert np.isfinite(o[:, ~flag]).all(), label

        # the filter's store pass: each field's filtered rows from a stack
        # with a canary row either side, into those rows of out alone —
        # twice, the second call through the binding the first one made
        for name, midpoint in itertools.product(FIELD_NAMES, (False, True)):
            idx = polar._index[FIELD_FAMILY[name]]
            gd = Guarded()
            b, o = (
                ModelState(**{
                    n: gd.array(a.shape, a if fill else None)
                    for n, a in base.fields().items()
                })
                for fill in (True, False)
            )
            field = getattr(o, name)
            nl = field.shape[0] if field.ndim == 3 else 1
            filled = np.full((nl * len(idx) + 2, nx), CANARY).view(np.float64)
            filled[1:-1] = rng.standard_normal((nl * len(idx), nx))
            stack = gd.array(filled.shape, filled)
            for r in idx:
                gd.allow(field[..., r, :])
            st = Store(b, o, 30.0, midpoint, (0, 0), None, None)
            ks.store_rows("adaptation", st, stack, name, 1, idx)
            bound = len(ks._bindings)
            ks.store_rows("adaptation", st, stack, name, 1, idx)
            assert len(ks._bindings) == bound, label
            gd.check(f"{label}: store_rows {name}")
            assert np.isfinite(field[..., idx, :]).all(), f"{label}: read a canary"

    for op, n in ks.calls.items():
        assert n["fallback"] == 0 and n["fused"] > 0, (label, op, n)


def check_library(lib) -> None:
    """The sweep of this module on one compiled kernel library."""
    for nx, ny, nz in ((16, 12, 3), (8, 10, 1), (144, 16, 2)):
        ny_w = ny + 4
        for window in (
            None,
            (1, ny_w - 1),      # all but the edge rows
            (ny_w // 2, ny_w // 2 + 1),  # one target row
            (1, 3),             # inside the north polar band
            (0, ny_w),          # the view clipped at both edges
        ):
            check_mesh(lib, nx, ny, nz, window)


@pytest.mark.skipif(
    not c_available(), reason="no C compiler on this host"
)
@pytest.mark.parametrize(
    "cflags", cbackend.CFLAGS_SETS, ids=["native", "portable"]
)
def test_no_kernel_writes_outside_its_arrays(cflags):
    try:
        lib = cbackend.load_library(cflags)
    except cbackend.KernelBuildError as exc:
        pytest.skip(f"flag set does not build here: {exc}")
    check_library(lib)


def test_the_guard_catches_a_stray_write():
    """The harness itself: one word past an array, and one in a row of a
    tall array outside the allowed view, are both reported."""
    for stray in ("band", "row"):
        gd = Guarded()
        a = gd.array((2, 6, 4))
        gd.allow(a[:, 2:4, :])
        a[:, 2:4, :] = 1.0
        gd.check("in bounds")
        if stray == "band":
            np.lib.stride_tricks.as_strided(a, (a.size + 1,), (8,))[-1] = 0.0
        else:
            a[1, 4, 0] = 0.0
        with pytest.raises(AssertionError, match="does not own"):
            gd.check(stray)
