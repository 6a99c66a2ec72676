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
arrays satisfy it, and so do the *row-slab views* ``a[:, lo:hi, :]`` the
windowed sweeps of the CA core pass in; their scratch comes from the same
pool entries as whole-array calls (:class:`RowWindowPool`).

Every fused call is wrapped in a ``repro.obs`` span with category
``"kernel"`` so kernel-level timings appear next to the operator spans in
traces.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    compute_vertical_diagnostics_scan,
)
from repro.state.variables import ModelState

TIERS = ("reference", "fused")
_OPERATORS = ("smoothing", "advection", "adaptation", "vertical")

_WARNED: set[str] = set()


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
    ``base`` — on rows ``rows`` of the call's arrays, except where the
    row's flag (``polar_c`` for ``U`` / ``Phi`` / ``p'_sa``, ``polar_v``
    for ``V``) says the polar filter still has to rewrite the tendency:
    those rows get the raw tendency, as every row does without a store.
    ``base`` and ``out`` are laid out like the state of the call and alias
    neither it nor each other.  A kernel that folded the update names the
    fields it did that for in ``done``; every other field's rows are
    still the caller's to update.
    """

    base: ModelState
    out: ModelState
    dt: float
    midpoint: bool
    rows: tuple[int, int]
    polar_c: np.ndarray
    polar_v: np.ndarray
    done: tuple[str, ...] = ()


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


def _window_ws(ws, like: np.ndarray, ps: int | None = None):
    """``ws`` for a call on ``like``: itself when scratch of ``like``'s
    height already has plane stride ``ps``, else a :class:`RowWindowPool`
    of the height ``ps`` implies.

    ``ps`` is the plane stride :meth:`KernelSet._c_call` validated; every
    scratch plane the C kernel indexes must be that far apart.  The numpy
    fallback (``ps=None``) has no such need — there the window pool only
    keeps the pool small, so ``like``'s own stride decides.
    """
    rows, nx = like.shape[-2:]
    if ps is None:
        if like.ndim != 3 or like.shape[0] == 1:
            return ws
        ps = like.strides[0] // 8
    cap = ps // nx
    return RowWindowPool(ws, cap, rows, nx) if cap > rows else ws


class KernelSet:
    """One kernel tier: fused entry points with built-in fallback.

    Every method returns its result — from the C kernel when the tier is
    ``"fused"``, the library loads and the call meets the array contract,
    from the pooled numpy operator otherwise.  ``tier="reference"`` never
    loads the library, so it *is* the pooled numpy path.
    """

    def __init__(self, tier: str) -> None:
        if tier not in TIERS:
            raise ValueError(f"unknown kernel tier {tier!r}; use {TIERS}")
        self.tier = tier
        self._lib = None
        #: ``{operator: {"fused": n, "fallback": m}}`` — how many calls ran
        #: the C kernel and how many the numpy operator (on the reference
        #: tier every call is a fallback)
        self.calls = {op: {"fused": 0, "fallback": 0} for op in _OPERATORS}

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

    def _c_call(self, *arrays: np.ndarray):
        """``(lib, plane stride)`` iff a call on ``arrays`` can run its C
        kernel, else ``(None, None)``."""
        lib = self._library()
        if lib is not None:
            ps = cbackend.plane_stride(*arrays)
            if ps is not None:
                return lib, ps
        return None, None

    def _count(self, op: str, fused: bool) -> None:
        self.calls[op]["fused" if fused else "fallback"] += 1

    # ---- smoothing --------------------------------------------------------

    def smooth_field(
        self,
        sm,
        a: np.ndarray,
        out: np.ndarray,
        ws,
        rows: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """``S`` of one field into ``out`` (which must not alias ``a``).

        With ``rows = (j0, j1)`` only those rows of ``out`` are written
        (``a`` then is typically a row-slab view ``rows`` +- the smoother
        radius, whose edge rows would come out of in-slab wraps).
        """
        lib, ps = self._c_call(a, out)
        ws = _window_ws(ws, a, ps)
        self._count("smoothing", lib is not None)
        if lib is not None:
            scratch = ws.take(a.shape)
            cbackend.smooth_full_c(
                lib, a, out, scratch, sm.beta_x, sm.beta_y, sm.cross,
                ps, rows,
            )
            ws.give(scratch)
            return out
        if not rows:
            return sm.full_into(a, out, ws)
        tmp = sm.full_into(a, ws.take(a.shape), ws)
        np.copyto(out[..., rows[0]:rows[1], :], tmp[..., rows[0]:rows[1], :])
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

    def advection(self, state, vd, geom, ws, out, cache, store=None):
        """The ``L``-tendency into ``out``; with ``store`` (a
        :class:`Store`) the kernel folds that update into its store and
        says so in ``store.done`` (``p'_sa``, whose ``L``-tendency is
        zero, stays the caller's)."""
        U, V, Phi = state.U, state.V, state.Phi
        sdot = vd.sdot_iface
        lib, ps = self._c_call(
            U, V, Phi, state.psa, sdot, out.U, out.V, out.Phi,
            *_store_fields(store, ("U", "V", "Phi")),
        )
        ws = _window_ws(ws, U, ps)
        self._count("advection", lib is not None)
        if lib is None:
            return advection_tendency(
                state, vd, geom, ws=ws, out=out, cache=cache
            )
        rows = _kernel_rows(cache, lambda: {
            "sin_c": cache.sin_c3, "sin_v": cache.sin_v3,
            "pre_c": cache.pre_c3, "pre_v": cache.pre_v3,
            "tas_c": cache.two_a_sin_c3, "tas_v": cache.two_a_sin_v3,
            "dsig": cache.dsig3,
        })
        with span("advection-fused[c]", "kernel"):
            nz, ny, nx = U.shape
            tab = ws.take((TABLE_PLANES, ny, nx))
            rowbuf = ws.take((ROW_BUFFERS * nx,))
            cbackend.advection_c(
                lib, U, V, Phi, state.psa, sdot, rows,
                geom.grid.dlambda, geom.grid.dtheta,
                tab, rowbuf, out.U, out.V, out.Phi, ps, store,
            )
            out.psa[...] = 0.0
            ws.give(tab, rowbuf)
        if store is not None:
            store.done = ("U", "V", "Phi")
        return out

    def adaptation(self, state, vd, geom, params, ws, out, cache, store=None):
        """The ``C-hat + A-hat``-tendency into ``out``; ``store`` as in
        :meth:`advection`."""
        U, V, Phi, psa = state.U, state.V, state.Phi, state.psa
        phi_p = vd.phi_prime
        w_if = vd.w_iface
        col_sum = vd.column_sum
        lib, ps = self._c_call(
            U, V, Phi, psa, phi_p, w_if, col_sum, out.U, out.V, out.Phi, out.psa,
            *_store_fields(store, ("U", "V", "Phi", "psa")),
        )
        ws = _window_ws(ws, U, ps)
        self._count("adaptation", lib is not None)
        if lib is None:
            return adaptation_tendency(
                state, vd, geom, params, ws=ws, out=out, cache=cache
            )
        rows = _kernel_rows(cache, lambda: {
            "sin_v": geom.sin_v, "a_sin_c": cache.a_sin_c3,
            # the row divisors of surface_dissipation, by its expressions
            "a2_sin_c": geom.grid.radius**2 * geom.row2(geom.sin_c),
            "a2_sin2_c": geom.grid.radius**2 * geom.row2(geom.sin_c)**2,
            "cot_c": cache.cot_c3, "omcos_c": cache.two_omega_cos_c3,
            "cot_v": cache.cot_v3, "omcos_v": cache.two_omega_cos_v3,
            "sig_mid": cache.sig_mid3,
        })
        with span("adaptation-fused[c]", "kernel"):
            # The reference-temperature profile uses a non-integer power,
            # whose numpy SIMD routine libm does not reproduce bitwise —
            # it stays in numpy, exactly as the reference computes it.
            t_ref_surf = DEFAULT_REFERENCE.temperature(
                psa + constants.P_REFERENCE
            )
            tab = ws.take((TABLE_PLANES,) + psa.shape)
            rowbuf = ws.take((psa.shape[-1],))
            cbackend.adaptation_c(
                lib, U, V, Phi, psa, t_ref_surf, phi_p, w_if, col_sum,
                rows, geom.grid.radius,
                geom.grid.dlambda, geom.grid.dtheta,
                constants.B_GRAVITY_WAVE * (1.0 + params.delta_c),
                tab, rowbuf, out.U, out.V, out.Phi, out.psa, ps, store,
            )
            ws.give(tab, rowbuf)
        if store is not None:
            store.done = ("U", "V", "Phi", "psa")
        return out

    def vertical(
        self, U, V, Phi, psa, geom, gather, ws, cache, scan=None, out=None
    ):
        """The ``C`` diagnostics bundle (recycle it with ``ws.give_vd``).

        ``scan`` is the ``(exscan, allreduce)`` pair of the volume-optimal
        z-collective; it takes precedence over ``gather``.  Only the
        serial / full-column case is fused (no z-collective, no ghost
        levels, identity interface and level maps); everything else runs
        the numpy operators.  With ``out`` (a bundle of the inputs' shapes,
        e.g. row-slab views of a working-height bundle) the results are
        written there instead of into fresh pool buffers.
        """
        if scan is not None:
            self._count("vertical", False)
            vd = compute_vertical_diagnostics_scan(
                U, V, Phi, psa, geom, *scan
            )
            if out is None:
                return vd
            for name in vars(vd):
                np.copyto(getattr(out, name), getattr(vd, name))
            return out
        nz = geom.grid.nz
        full_column = (
            gather is None
            and geom.gz == 0
            and cache.k_if_identity
            and cache.k_lev_identity
            and U.shape[0] == nz
        )
        lib = ps = None
        if full_column and self._library() is not None:
            # the outputs take part in the stride check: a pooled bundle
            # for row-slab inputs would not share their plane stride
            if out is None:
                out = ws.take_vd(U.shape)
            lib, ps = self._c_call(
                U, V, Phi, psa,
                out.div_p, out.column_sum, out.pw_iface, out.w_iface,
                out.sdot_iface, out.phi_prime, out.p_fac,
            )
        self._count("vertical", lib is not None)
        if lib is None:
            return compute_vertical_diagnostics(
                U, V, Phi, psa, geom, gather, ws=_window_ws(ws, U),
                cache=cache, out=out,
            )
        rows = _kernel_rows(cache, lambda: {
            "sin_v": geom.sin_v, "a_sin_c": cache.a_sin_c3,
            "dsig": cache.dsig_own3, "ratio": cache.ratio_own3,
            "sig_if": cache.sig_if3,
        })
        with span("vertical-fused[c]", "kernel"):
            ws = _window_ws(ws, U, ps)
            tab = ws.take((TABLE_PLANES,) + psa.shape)
            cbackend.vertical_c(
                lib, U, V, Phi, psa, rows,
                geom.grid.dlambda, geom.grid.dtheta,
                out.p_fac, out.div_p, out.column_sum, out.pw_iface,
                out.w_iface, out.sdot_iface, out.phi_prime, tab, ps,
            )
            ws.give(tab)
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


def _store_fields(store, names) -> list[np.ndarray]:
    """The arrays of ``store`` a kernel would touch (for the stride check)."""
    if store is None:
        return []
    return [getattr(s, n) for s in (store.base, store.out) for n in names]


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
