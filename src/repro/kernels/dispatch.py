"""Kernel-tier dispatch: route operator calls to the C kernels or numpy.

A :class:`KernelSet` is the single door through which the cores evaluate
``A``, ``L``, ``C`` and ``S``.  Each operator method tries its fused C
kernel and otherwise runs the pooled numpy operator of
:mod:`repro.operators` itself, so every call returns a result.  Fallback
is therefore transparent and per-call: a missing compiler, an array that
breaks the kernels' array contract, or an unsupported decomposition never
changes results, only speed — and never silently: :attr:`KernelSet.calls`
counts fused and fallback calls per operator.  The reference tier is the
same class with no library.

Array contract of the fused C kernels: float64, unit x-stride, row stride
``nx``, one plane stride shared by all 3-D arrays of a call
(:func:`repro.kernels.cbackend.plane_stride`).  C-contiguous working
arrays satisfy it, and so do the *row-slab views* ``a[:, lo:hi, :]`` of
the windowed sweeps of the CA core, which pass the working arrays and the
window's rows (``view``).

Every fused call is wrapped in a ``repro.obs`` span with category
``"kernel"`` so kernel-level timings appear next to the operator spans in
traces.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro import constants
from repro.kernels import cbackend
from repro.kernels.csrc import ROW_BUFFERS, TABLE_PLANES
from repro.obs.spans import span
from repro.operators.adaptation import adaptation_tendency
from repro.operators.advection import advection_tendency
from repro.operators.smoothing import smooth_state_into
from repro.operators.vertical import (
    DEFAULT_REFERENCE,
    compute_vertical_diagnostics,
    vd_rows,
)
from repro.state.variables import ModelState, state_rows

TIERS = ("reference", "fused")
_OPERATORS = ("smoothing", "advection", "adaptation", "vertical")

_WARNED: set[str] = set()

#: every row (or level): the default window of a kernel call
_ALL = slice(None)


def _warn_once(key: str, message: str) -> None:
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def resolve_backend(backend: str = "auto") -> str:
    """What ``kernel_tier="fused"`` runs on this host: ``"c"`` where the
    kernel library builds and loads, ``"numpy"`` (the reference operators,
    call by call) where it does not.  ``"auto"`` is the only request."""
    if backend != "auto":
        raise ValueError(f"unknown kernel backend {backend!r}; use 'auto'")
    return "c" if cbackend.c_available() else "numpy"


@dataclass
class Store:
    """An internal update for a tendency kernel to fold into its store.

    ``out = base + dt * tendency`` — with ``midpoint`` the mean of that and
    ``base`` — on rows ``rows`` of the call's arrays.  The kernel's store
    writes every such row of ``out`` but those whose flag (``polar_c`` for
    ``U`` / ``Phi`` / ``p'_sa``, ``polar_v`` for ``V``) says the polar
    filter still has to rewrite the tendency: those get the raw tendency,
    and the filter's store pass (:meth:`KernelSet.store_rows`) writes
    their ``out`` rows.  ``base`` and ``out`` are laid out like the state
    of the call (its row ``view`` cuts them alike) and alias neither it
    nor each other.  A kernel that folded the update names those fields
    in ``done``; every row of any other field is the caller's to update.
    """

    base: ModelState
    out: ModelState
    dt: float
    midpoint: bool
    rows: tuple[int, int]
    polar_c: np.ndarray
    polar_v: np.ndarray
    done: tuple[str, ...] = ()


def update_into(base, t, dt: float, midpoint: bool, out):
    """``out = base + dt * t`` — with ``midpoint`` the mean of that and
    ``base`` — in the ufunc order every store of the kernels rounds like."""
    np.multiply(t, dt, out=out)
    np.add(base, out, out=out)
    if midpoint:
        np.add(base, out, out=out)
        np.multiply(out, 0.5, out=out)
    return out


class RowWindowPool:
    """A :class:`repro.core.workspace.Workspace` seen through one row window.

    The windowed sweeps evaluate the operators on row-slab views whose
    height changes from update to update; pooling their temporaries by
    exact shape would park one set of buffers per window height.  This
    facade hands out every buffer whose trailing dims are the window's
    ``(rows, nx)`` as the leading ``rows`` rows of a pooled buffer of the
    *working* height ``cap_rows`` — the same pool entries the whole-array
    sweeps use, and the same plane stride as the slab views themselves —
    so the pool stays as small as it was before windows existed.  Other
    shapes pass through.
    """

    def __init__(self, ws, cap_rows: int, rows: int, nx: int):
        self._ws = ws
        self._cap = cap_rows
        self._tail = (rows, nx)

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if len(shape) >= 2 and tuple(shape[-2:]) == self._tail:
            buf = self._ws.take((*shape[:-2], self._cap, shape[-1]), dtype)
            return buf[..., : shape[-2], :]
        return self._ws.take(shape, dtype)

    def give(self, *arrays: np.ndarray | None) -> None:
        self._ws.give(
            *(a if a is None or a.base is None else a.base for a in arrays)
        )


def _window_ws(ws, like: np.ndarray):
    """``ws`` for a numpy operator on ``like``: itself for a C-contiguous
    ``like``, else a :class:`RowWindowPool` of the height ``like``'s plane
    stride implies, which keeps the pool small."""
    rows, nx = like.shape[-2:]
    if like.ndim != 3 or like.shape[0] == 1:
        return ws
    cap = like.strides[0] // 8 // nx
    return RowWindowPool(ws, cap, rows, nx) if cap > rows else ws


class KernelSet:
    """One kernel tier: fused entry points with built-in fallback.

    Every method returns its result — from the C kernel when the tier is
    ``"fused"``, the library loads and the call meets the array contract,
    from the pooled numpy operator otherwise.  ``tier="reference"`` never
    loads the library, so it *is* the pooled numpy path.

    A C call is *bound* on first use — stride check, scratch and every
    pointer of its argument tuple taken once — under a key of the
    identities of the arrays it reads and writes, its row window and its
    scalars.  The cores hand in the same owning buffers every step (ring
    members, pooled ``C`` bundles, the engine's tendency) with a row
    ``view`` instead of fresh views, so a steady step binds nothing.  A
    binding holds its arrays, so no address under a key is ever reused.
    """

    #: bindings kept before the table is dropped and rebuilt on demand —
    #: the bound on callers that hand in fresh arrays on every call
    MAX_BINDINGS = 4096

    def __init__(self, tier: str) -> None:
        if tier not in TIERS:
            raise ValueError(f"unknown kernel tier {tier!r}; use {TIERS}")
        self.tier = tier
        self._lib = None
        #: ``{operator: {"fused": n, "fallback": m}}`` — how many calls ran
        #: the C kernel and how many the numpy operator (on the reference
        #: tier every call is a fallback)
        self.calls = {op: {"fused": 0, "fallback": 0} for op in _OPERATORS}
        #: key -> (bound call, or None: runs numpy; what the key names)
        self._bindings: dict[tuple, tuple] = {}
        #: (id(ws), shape) -> (ws, a block bound calls point into)
        self._scratch: dict[tuple, tuple] = {}

    @property
    def backend(self) -> str:
        """What this tier runs on this host (see :func:`resolve_backend`)."""
        return resolve_backend() if self.tier == "fused" else "numpy"

    # ---- library plumbing -------------------------------------------------

    def _library(self):
        """The C library of the fused tier, or ``None`` — on the reference
        tier, and (with a one-shot warning) where it cannot be built."""
        if self._lib is None:
            self._lib = False
            if self.tier == "fused":
                try:
                    self._lib = cbackend.load_library()
                except cbackend.KernelBuildError as exc:
                    _warn_once(
                        "c-build",
                        f"fused C kernels unavailable ({exc}); falling back",
                    )
        return self._lib or None

    def _bound(self, op: str, key: tuple, keep: tuple, bind):
        """The call of ``op`` bound under ``key`` (made by ``bind(lib)`` on
        first use; ``keep`` holds what ``key`` names), or ``None`` where it
        runs numpy — counted either way."""
        entry = self._bindings.get(key)
        if entry is None:
            lib = self._library()
            if lib is not None:
                if len(self._bindings) >= self.MAX_BINDINGS:
                    self._bindings.clear()
                entry = self._bindings[key] = (bind(lib), keep)
        call = entry and entry[0]
        self.calls[op]["fused" if call else "fallback"] += 1
        return call

    def _scratch_for(self, ws, shape: tuple[int, ...]) -> np.ndarray:
        """A block of ``shape`` taken from ``ws`` once and kept for the
        bound calls to point into (calls of one kernel set never nest)."""
        hit = self._scratch.get((id(ws), shape))
        if hit is None:
            hit = self._scratch[(id(ws), shape)] = (ws, ws.take(shape))
        return hit[1]

    def _table(self, ws, ps: int, ny: int, nx: int, lead=(TABLE_PLANES,)):
        """Scratch ``lead + (ny, nx)`` of plane stride ``ps``: the leading
        ``ny`` rows of a block ``ps // nx`` rows tall."""
        return self._scratch_for(ws, (*lead, ps // nx, nx))[..., :ny, :]

    # ---- smoothing --------------------------------------------------------

    def smooth_field(
        self, sm, a, out, ws, rows=None, view=_ALL, levels=_ALL
    ) -> np.ndarray:
        """``S`` of one field into ``out`` (which must not alias ``a``).

        ``view`` (rows) and ``levels`` cut the pass out of ``a`` and
        ``out``: it sees only those, wrapping within them.  With ``rows =
        (j0, j1)`` (view coordinates) only those rows of ``out`` are
        written (the view's edge rows would come out of in-view wraps).
        """
        key = ("S", sm, rows, _ends(view), _ends(levels), id(ws), id(a), id(out))

        def bind(lib):
            a_v, o_v = _cut(a, view, levels), _cut(out, view, levels)
            ps = cbackend.plane_stride(a_v, o_v)
            if ps is None:
                return None
            scratch = self._table(ws, ps, *a_v.shape[-2:], lead=a_v.shape[:-2])
            return partial(lib.smooth_full, *cbackend.smooth_args(
                a_v, o_v, scratch, sm.beta_x, sm.beta_y, sm.cross, ps, rows
            ))

        call = self._bound("smoothing", key, (ws, a, out), bind)
        if call is not None:
            call()
            return out
        a, o = _cut(a, view, levels), _cut(out, view, levels)
        ws = _window_ws(ws, a)
        if not rows:
            sm.full_into(a, o, ws)
            return out
        tmp = sm.full_into(a, ws.take(a.shape), ws)
        np.copyto(o[..., rows[0]:rows[1], :], tmp[..., rows[0]:rows[1], :])
        ws.give(tmp)
        return out

    def smooth_state_into(self, state, params, out, ws, smoothers):
        """``S`` over a whole state into ``out``."""
        if self._library() is None:
            self.calls["smoothing"]["fallback"] += 4
            return smooth_state_into(state, params, out, ws, smoothers)
        with span("smoothing-fused[c]", "kernel"):
            for name in ("U", "V", "Phi", "psa"):
                self.smooth_field(
                    smoothers[name], getattr(state, name), getattr(out, name), ws
                )
        return out

    # ---- the stencil tendencies -------------------------------------------

    def advection(self, state, vd, geom, ws, out, cache, store=None, view=_ALL):
        """The ``L``-tendency into ``out``; with ``store`` (a
        :class:`Store`) the kernel folds that update into its store and
        says so in ``store.done`` (``p'_sa``, whose ``L``-tendency is
        zero, stays the caller's).  ``view`` is the working rows of the
        pass (default: all), whose geometry ``geom`` and ``cache`` are."""
        arrays = (*_fields(state), vd.sdot_iface, *_fields(out), *_store_arrays(store))
        key = (
            "L", store and (store.midpoint, store.rows, store.dt), _ends(view),
            id(cache), id(ws), *map(id, arrays),
        )

        def bind(lib):
            s, o = state_rows(state, view), state_rows(out, view)
            st, sdot = _cut_store(store, view), _cut(vd.sdot_iface, view)
            ps = cbackend.plane_stride(
                s.U, s.V, s.Phi, s.psa, sdot, o.U, o.V, o.Phi,
                *_store_arrays(st)[:8],
            )
            if ps is None:
                return None
            rows = _kernel_rows(cache, lambda: {
                "sin_c": cache.sin_c3, "sin_v": cache.sin_v3,
                "pre_c": cache.pre_c3, "pre_v": cache.pre_v3,
                "tas_c": cache.two_a_sin_c3, "tas_v": cache.two_a_sin_v3,
                "dsig": cache.dsig3,
            })
            nz, ny, nx = s.U.shape
            args = cbackend.advection_args(
                s.U, s.V, s.Phi, s.psa, sdot, rows,
                geom.grid.dlambda, geom.grid.dtheta, self._table(ws, ps, ny, nx),
                self._scratch_for(ws, (ROW_BUFFERS * nx,)),
                o.U, o.V, o.Phi, ps, st,
            )
            fn, psa_out = lib.advection, o.psa

            def call():
                cbackend.check_pressure(fn(*args))
                psa_out[...] = 0.0

            return call

        call = self._bound("advection", key, (cache, ws, *arrays), bind)
        if call is None:
            s = state_rows(state, view)
            advection_tendency(
                s, vd_rows(vd, view), geom, ws=_window_ws(ws, s.U),
                out=state_rows(out, view), cache=cache,
            )
            return out
        with span("advection-fused[c]", "kernel"):
            call()
        if store is not None:
            store.done = ("U", "V", "Phi")
        return out

    def adaptation(
        self, state, vd, geom, params, ws, out, cache, store=None, view=_ALL
    ):
        """The ``C-hat + A-hat``-tendency into ``out``; ``store`` and
        ``view`` as in :meth:`advection`."""
        coeff = constants.B_GRAVITY_WAVE * (1.0 + params.delta_c)
        arrays = (
            *_fields(state), vd.phi_prime, vd.w_iface, vd.column_sum,
            *_fields(out), *_store_arrays(store),
        )
        key = (
            "A", coeff, store and (store.midpoint, store.rows, store.dt),
            _ends(view), id(cache), id(ws), *map(id, arrays),
        )

        def bind(lib):
            s, o = state_rows(state, view), state_rows(out, view)
            st = _cut_store(store, view)
            phi_p, w_if, col_sum = (
                _cut(a, view) for a in (vd.phi_prime, vd.w_iface, vd.column_sum)
            )
            ps = cbackend.plane_stride(
                s.U, s.V, s.Phi, s.psa, phi_p, w_if, col_sum,
                o.U, o.V, o.Phi, o.psa, *_store_arrays(st)[:8],
            )
            if ps is None:
                return None
            rows = _kernel_rows(cache, lambda: {
                "sin_v": geom.sin_v, "a_sin_c": cache.a_sin_c3,
                # the row divisors of surface_dissipation, by its expressions
                "a2_sin_c": geom.grid.radius**2 * geom.row2(geom.sin_c),
                "a2_sin2_c": geom.grid.radius**2 * geom.row2(geom.sin_c)**2,
                "cot_c": cache.cot_c3, "omcos_c": cache.two_omega_cos_c3,
                "cot_v": cache.cot_v3, "omcos_v": cache.two_omega_cos_v3,
                "sig_mid": cache.sig_mid3,
            })
            nz, ny, nx = s.U.shape
            t_ref = self._table(ws, ps, ny, nx, lead=())
            args = cbackend.adaptation_args(
                s.U, s.V, s.Phi, s.psa, t_ref, phi_p, w_if, col_sum, rows,
                geom.grid.radius, geom.grid.dlambda, geom.grid.dtheta, coeff,
                self._table(ws, ps, ny, nx), self._scratch_for(ws, (nx,)),
                o.U, o.V, o.Phi, o.psa, ps, st,
            )
            fn, psa = lib.adaptation, s.psa

            def call():
                # The reference-temperature profile uses a non-integer
                # power, whose numpy SIMD routine libm does not reproduce
                # bitwise — it stays in numpy, as the reference computes it.
                np.add(psa, constants.P_REFERENCE, out=t_ref)
                DEFAULT_REFERENCE.temperature(t_ref, out=t_ref)
                cbackend.check_pressure(fn(*args))

            return call

        call = self._bound("adaptation", key, (cache, ws, *arrays), bind)
        if call is None:
            s = state_rows(state, view)
            adaptation_tendency(
                s, vd_rows(vd, view), geom, params, ws=_window_ws(ws, s.U),
                out=state_rows(out, view), cache=cache,
            )
            return out
        with span("adaptation-fused[c]", "kernel"):
            call()
        if store is not None:
            store.done = ("U", "V", "Phi", "psa")
        return out

    def store_rows(self, op, store, stack, name, at, rows):
        """``store``'s update of field ``name`` on working rows ``rows``
        (int64) by the rows of ``stack`` from ``at`` on, level-major, in C,
        after a fused kernel's store took them (``store.done``); a call of
        ``op``, the tendency it ends."""
        base, out, dt = getattr(store.base, name), getattr(store.out, name), store.dt
        t = stack[at: at + len(rows) * (base.shape[0] if base.ndim == 3 else 1)]
        key = ("F", at, dt, store.midpoint, *map(id, (stack, base, out, rows)))

        def bind(lib):
            ps = cbackend.plane_stride(base, out)
            return ps and partial(lib.store_rows, *cbackend.store_rows_args(
                t, base, out, rows, ps, dt, store.midpoint
            ))

        call = self._bound(op, key, (stack, base, out, rows), bind)
        assert call, "a store pass follows a fused kernel's store only"
        call()

    def vertical(
        self, U, V, Phi, psa, geom, gather, ws, cache, out=None, view=_ALL
    ):
        """The ``C`` diagnostics bundle (recycle it with ``ws.give_vd``).

        Only the serial / full-column case is fused (no z-collective, no ghost
        levels, identity interface and level maps); everything else runs
        the numpy operators.  With ``out`` (a bundle of the inputs' shapes)
        the results are written there instead of into fresh pool buffers;
        ``view`` cuts the rows of the pass out of inputs and ``out`` (which
        it then requires) alike.
        """
        full_column = (
            gather is None
            and geom.gz == 0
            and cache.k_if_identity
            and cache.k_lev_identity
            and U.shape[0] == geom.grid.nz
        )
        if full_column and out is None and self._library() is not None:
            out = ws.take_vd(U.shape)
        call = None
        if full_column and out is not None:
            arrays = (U, V, Phi, psa, *vars(out).values())
            key = ("C", _ends(view), id(cache), id(ws), *map(id, arrays))

            def bind(lib):
                # the outputs take part in the stride check: a pooled
                # bundle for row-slab inputs would not share their stride
                u, v, phi, p = (_cut(a, view) for a in (U, V, Phi, psa))
                o = vd_rows(out, view)
                ps = cbackend.plane_stride(u, v, phi, p, *vars(o).values())
                if ps is None:
                    return None
                rows = _kernel_rows(cache, lambda: {
                    "sin_v": geom.sin_v, "a_sin_c": cache.a_sin_c3,
                    "dsig": cache.dsig_own3, "ratio": cache.ratio_own3,
                    "sig_if": cache.sig_if3,
                })
                args = cbackend.vertical_args(
                    u, v, phi, p, rows, geom.grid.dlambda, geom.grid.dtheta,
                    o.p_fac, o.div_p, o.column_sum, o.pw_iface,
                    o.w_iface, o.sdot_iface, o.phi_prime,
                    self._table(ws, ps, *u.shape[-2:]), ps,
                )
                fn = lib.vertical
                return lambda: cbackend.check_pressure(fn(*args))

            call = self._bound("vertical", key, (cache, ws, *arrays), bind)
        else:
            self.calls["vertical"]["fallback"] += 1
        if call is None:
            u = _cut(U, view)
            vd = compute_vertical_diagnostics(
                u, *(_cut(a, view) for a in (V, Phi, psa)), geom, gather,
                ws=_window_ws(ws, u), cache=cache,
                out=out and vd_rows(out, view),
            )
            return out or vd
        with span("vertical-fused[c]", "kernel"):
            call()
        return out

    def describe(self) -> dict:
        """Summary for traces / bench reports; ``division`` says which
        expansion of ``rdiv`` the stencil kernels run (``"divide"``: the
        portable C build, a host without the library and the reference
        tier)."""
        lib = self._library()
        return {
            "tier": self.tier,
            "backend": self.backend,
            "division": cbackend.division_mode(lib) if lib else "divide",
            "calls": {op: dict(n) for op, n in self.calls.items()},
        }


def _ends(s: slice) -> tuple:
    """A window's key part (slices are unhashable before Python 3.12)."""
    return (s.start, s.stop)


def _cut(a: np.ndarray, view: slice, levels: slice = _ALL):
    """Rows ``view`` (and levels ``levels``) of a working array."""
    return a[levels][..., view, :]


def _cut_store(store, view: slice):
    """``store`` with its base and out cut to the call's rows."""
    return store and replace(
        store, base=state_rows(store.base, view), out=state_rows(store.out, view)
    )


def _fields(state) -> tuple:
    return (state.U, state.V, state.Phi, state.psa)


def _store_arrays(store) -> tuple:
    """The arrays a store points a kernel at: its base and out fields (the
    stride check's), then its polar flags."""
    if store is None:
        return ()
    return (*_fields(store.base), *_fields(store.out), store.polar_c, store.polar_v)


def _kernel_rows(cache, build) -> dict[str, np.ndarray]:
    """The flat per-row / per-level metric arrays a C kernel takes,
    built once per geometry cache (one cache type per operator)."""
    rows = getattr(cache, "_kernel_rows", None)
    if rows is None:
        rows = cache._kernel_rows = {
            name: np.ascontiguousarray(
                np.asarray(a, dtype=np.float64).ravel()
            )
            for name, a in build().items()
        }
    return rows
