"""The original distributed algorithm (Algorithm 1) on any decomposition.

One rank program, ``original_rank_program``, runs Algorithm 1 with the
communication schedule of Sec. 3/4.2: a full halo refresh before *every*
internal update (``3M + 3 + 1 = 13`` exchanges per step for ``M = 3``), a
fresh z-collective for every ``C`` application (3 per nonlinear
iteration), and — when longitude is decomposed — an x-line collective for
every Fourier-filter application.

The rank programs are written against :class:`repro.simmpi.SimComm`; the
same code runs serially (``nranks = 1``) and must then agree with
:class:`repro.core.integrator.SerialCore` to round-off, which is what the
integration tests assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import DEFAULT_PARAMETERS, ModelParameters
from repro.core.halo import AntipodalPoleExchanger, HaloExchanger
from repro.core.tendencies import TendencyEngine
from repro.core.workspace import StateRing, Workspace
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.kernels import KernelSet
from repro.obs.spans import span
from repro.operators.filter import filter_plan
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import smoothers_for
from repro.operators.vertical import VerticalDiagnostics
from repro.perf.costs import ComputeWeights, DEFAULT_WEIGHTS
from repro.simmpi.comm import SimComm, SubComm
from repro.state.variables import ModelState

#: phase labels used for the paper's time breakdown
PHASE_STENCIL = "stencil_comm"
PHASE_COLLECTIVE = "collective_comm"
PHASE_COMPUTE = "compute"


@dataclass
class DistributedConfig:
    """Everything a rank needs to run a distributed experiment."""

    grid: LatLonGrid
    decomp: Decomposition
    params: ModelParameters = DEFAULT_PARAMETERS
    sigma: SigmaLevels | None = None
    nsteps: int = 1
    forcing: Callable | None = None
    weights: ComputeWeights = DEFAULT_WEIGHTS
    #: set False to skip logical-clock compute charging (pure numerics tests)
    charge_compute: bool = True
    #: CA ablation switches (Sec. 4.2.2 / 4.3.1): disable to isolate the
    #: contribution of the approximate nonlinear iteration or of the
    #: computation-communication overlap
    ca_approximate_c: bool = True
    ca_overlap: bool = True
    #: z-collective implementation of the C operator: "allgather" (each
    #: rank reconstructs the full column) or "scan" (exscan + allreduce,
    #: the volume-optimal variant matching Theorem 4.2's ring constant)
    c_method: str = "allgather"
    #: distributed polar-filter implementation (X-Y / 3-D only):
    #: "allgather" (every rank assembles and FFTs the full circles,
    #: replicated work) or "transpose" (alltoall row redistribution, the
    #: work-sharing method of parallel FFT libraries; needs equal x-blocks)
    filter_method: str = "allgather"
    #: kernel tier per rank: ``"reference"`` or ``"fused"`` (bit-identical
    #: fused kernels with per-call fallback inside the kernel object)
    kernel_tier: str = "reference"
    #: record per-step physics-telemetry partials (local sums/maxes only —
    #: no extra communication; the driver combines them after the run)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.c_method not in ("allgather", "scan"):
            raise ValueError(f"unknown c_method {self.c_method!r}")
        if self.filter_method not in ("allgather", "transpose"):
            raise ValueError(f"unknown filter_method {self.filter_method!r}")
        if self.sigma is None:
            self.sigma = SigmaLevels.uniform(self.grid.nz)
        d, g = self.decomp, self.grid
        if (d.nx, d.ny, d.nz) != (g.nx, g.ny, g.nz):
            raise ValueError("decomposition does not match the grid")


class RankContext:
    """Shared per-rank plumbing of the distributed cores."""

    def __init__(
        self,
        comm: SimComm,
        cfg: DistributedConfig,
        gy: int,
        gz: int,
        gx: int,
    ) -> None:
        self.comm = comm
        self.cfg = cfg
        decomp = cfg.decomp
        if comm.size != decomp.nranks:
            raise ValueError(
                f"{decomp.nranks} ranks required, got {comm.size}"
            )
        self.extent = decomp.extent(comm.rank)
        if self.extent.ny <= gy or (gz and self.extent.nz <= gz):
            raise ValueError(
                f"rank {comm.rank}: block {self.extent.shape3d} too small "
                f"for ghost widths gy={gy} gz={gz}"
            )
        self.geom = WorkingGeometry.build(
            cfg.grid, cfg.sigma, self.extent, gy=gy, gz=gz, gx=gx
        )
        self.halo = HaloExchanger(comm, decomp, self.geom)
        self.antipodal = (
            AntipodalPoleExchanger(comm, decomp, self.geom)
            if not self.geom.full_x
            and (self.geom.touches_north or self.geom.touches_south)
            else None
        )
        # z-line sub-communicator for the C collectives
        self.zsub: SubComm | None = None
        if decomp.pz > 1:
            self.zsub = comm.subcomm(decomp.ranks_along("z", comm.rank))
        # x-line sub-communicator for the distributed polar filter
        self.xsub: SubComm | None = None
        if decomp.px > 1:
            self.xsub = comm.subcomm(decomp.ranks_along("x", comm.rank))

        self.ws = Workspace()
        self.kernels = KernelSet(cfg.kernel_tier)
        self.smoothers = smoothers_for(cfg.params)
        self._vd_last: VerticalDiagnostics | None = None
        z_hook = (
            {"scan_z": self._make_scan()}
            if cfg.c_method == "scan" and decomp.pz > 1
            else {"gather_z": self._make_gather()}
        )
        self.engine = TendencyEngine(
            self.geom, cfg.params, ws=self.ws, kernels=self.kernels,
            filter_x=None if self.geom.full_x else self._filter_distributed,
            **z_hook,
        )
        # distributed-filter factors (X-Y / 3-D case): full-circle cutoffs
        if not self.geom.full_x:
            nx = cfg.grid.nx
            profile = cfg.params.filter_profile
            self.fmask_c, self.ffactors_c = filter_plan(
                self.geom.sin_c, nx, cfg.params.filter_latitude, profile
            )
            self.fmask_v, self.ffactors_v = filter_plan(
                self.geom.sin_v, nx, cfg.params.filter_latitude, profile
            )
        self._ws_seen = (0, 0)  # pool counters at the last result()
        self.restart()

    def restart(self) -> None:
        """Zero what a :class:`RankResult` counts; every ``advance`` starts
        here (geometry, pools and kernels outlive a command, counters not)."""
        self.exchanges = 0
        self.c_calls = 0
        #: ``(step, partials)`` pairs when ``cfg.telemetry`` is on
        self.telemetry_partials: list[tuple[int, dict]] = []

    # ---- cost charging ----------------------------------------------------
    def charge(self, weight: float, npoints: int) -> None:
        if self.cfg.charge_compute:
            self.comm.compute(
                weight * npoints * self.comm.machine.seconds_per_point,
                phase=PHASE_COMPUTE,
            )

    @property
    def _wpoints(self) -> int:
        """Points of one working 3-D array."""
        nz_w, ny_w, nx_w = self.geom.shape3d
        return nz_w * ny_w * nx_w

    # ---- the z-collective hook ------------------------------------------------
    def _make_gather(self):
        if self.cfg.decomp.pz == 1:
            return None
        zsub = None

        def gather(stack: np.ndarray) -> np.ndarray:
            self.comm.set_phase(PHASE_COLLECTIVE)
            pieces = self._zsub().allgather(stack)
            self.comm.set_phase(None)
            return np.concatenate(pieces, axis=1)

        return gather

    def _make_scan(self):
        """The (exscan, allreduce) pair of the scan-based C variant."""

        def exscan(x: np.ndarray) -> np.ndarray:
            self.comm.set_phase(PHASE_COLLECTIVE)
            out = self._zsub().exscan(x)
            self.comm.set_phase(None)
            return out

        def allreduce(x: np.ndarray) -> np.ndarray:
            self.comm.set_phase(PHASE_COLLECTIVE)
            out = self._zsub().allreduce(x)
            self.comm.set_phase(None)
            return out

        return exscan, allreduce

    def _zsub(self) -> SubComm:
        assert self.zsub is not None
        return self.zsub

    # ---- boundary conditions -----------------------------------------------------
    def fill_bc(self, state: ModelState) -> None:
        """Physical boundary fill (pole mirror / z edges), local part."""
        if self.geom.full_x:
            self.engine.fill_physical_ghosts(state)
        else:
            from repro.operators.shifts import fill_z_edge_ghosts

            if self.geom.gz > 0:
                for f in (state.U, state.V, state.Phi):
                    fill_z_edge_ghosts(
                        f, self.geom.gz,
                        top=self.geom.touches_top,
                        bottom=self.geom.touches_bottom,
                    )
            if self.geom.touches_south and self.geom.gy == 0:
                state.V[..., -1, :] = 0.0

    def refresh_halos(self, state: ModelState) -> None:
        """One full halo refresh: plane exchange, antipodal pole fill, BC."""
        with span("halo-exchange", "comm"):
            self.comm.set_phase(PHASE_STENCIL)
            self.halo.exchange([state.U, state.V, state.Phi, state.psa])
            if self.antipodal is not None:
                self.antipodal.fill(
                    [
                        (state.U, "vector"),
                        (state.V, "vrow"),
                        (state.Phi, "scalar"),
                        (state.psa, "scalar"),
                    ]
                )
            self.comm.set_phase(None)
            self.fill_bc(state)
        self.exchanges += 1

    # ---- operators with charging ----------------------------------------------------
    def vertical_fresh(
        self, state: ModelState, slab=None
    ) -> VerticalDiagnostics:
        """A fresh ``C`` bundle of ``state`` — on the rows of ``slab`` (an
        ``engine.slab`` row window) when given, else on the whole array."""
        self.charge(
            self.cfg.weights.vertical,
            self._wpoints if slab is None else slab.npoints,
        )
        # every rank program consumes a C bundle before requesting the
        # next fresh one, so the previous bundle is dead here: recycle
        last, self._vd_last = self._vd_last, None
        self.ws.give_vd(last)
        vd = self._vd_last = self.engine.vertical(state, slab)
        self.c_calls += 1
        return vd

    def update(
        self,
        kind: str,
        psi: ModelState,
        base: ModelState,
        vd: VerticalDiagnostics,
        dt: float,
        out: ModelState,
        midpoint: bool = False,
    ) -> ModelState:
        """One charged internal update on the whole working array
        (:meth:`TendencyEngine.update`): ``base + dt * F(T(psi))``, ``F``
        local under full x and the x-line collective otherwise."""
        W = self.cfg.weights
        self.charge(getattr(W, kind), self._wpoints)
        pf = self.engine.polar_filter
        if pf is not None and pf.active:
            g = self.geom
            self.charge(
                W.filter_fft * math.log2(g.grid.nx) * pf.n_filtered_rows,
                g.shape3d[0] * g.grid.nx,
            )
        self.engine.update(kind, psi, base, vd, dt, out, midpoint=midpoint)
        self.charge(W.update, self._wpoints)
        return out

    def _filter_distributed(self, tend: ModelState) -> None:
        """Gather full latitude circles along the x line, filter, scatter.

        Every rank of an x line reconstructs the full filtered rows (the
        allgather makes the circle available everywhere) and keeps its own
        columns.  Lines without polar rows skip the collective entirely —
        the polar load imbalance of the X-Y decomposition is real and is
        what Figure 6 shows.
        """
        if not (self.fmask_c.any() or self.fmask_v.any()):
            return
        assert self.xsub is not None or self.cfg.decomp.px == 1
        if (
            self.cfg.filter_method == "transpose"
            and self.cfg.decomp.px > 1
        ):
            self._filter_transpose(tend)
            return
        for arr, fam in (
            (tend.U, "c"), (tend.V, "v"), (tend.Phi, "c"), (tend.psa, "c"),
        ):
            mask, factors = (
                (self.fmask_c, self.ffactors_c)
                if fam == "c"
                else (self.fmask_v, self.ffactors_v)
            )
            if mask.any():
                self._filter_field_allgather(arr, mask, factors)

    def _filter_field_allgather(
        self, arr: np.ndarray, mask: np.ndarray, factors: np.ndarray
    ) -> None:
        """Allgather the circles along the x line and FFT them (replicated)."""
        g = self.geom
        gx, nx_i = g.gx, g.extent.nx
        nx = g.grid.nx
        x0 = g.extent.x0
        rows = np.ascontiguousarray(arr[..., mask, gx: gx + nx_i])
        if self.cfg.decomp.px > 1:
            self.comm.set_phase(PHASE_COLLECTIVE)
            pieces = self.xsub.allgather(rows)
            self.comm.set_phase(None)
            full = np.concatenate(pieces, axis=-1)
        else:
            full = rows
        nrows = int(mask.sum()) * (arr.shape[0] if arr.ndim == 3 else 1)
        self.charge(
            self.cfg.weights.filter_fft * math.log2(nx), nrows * nx
        )
        spec = np.fft.rfft(full, axis=-1)
        spec *= factors
        full = np.fft.irfft(spec, n=nx, axis=-1)
        arr[..., mask, gx: gx + nx_i] = full[..., x0: x0 + nx_i]

    def _filter_transpose(self, tend: ModelState) -> None:
        """Transpose (alltoall) distributed filter: redistribute the
        filtered row-slots over the x line so each rank FFTs only its
        share, then transpose back.  Halves neither the total volume nor
        the latency of the allgather method, but divides the FFT *work*
        by p_x — the classic parallel-FFT layout trade."""
        from repro.grid.decomposition import balanced_partition

        decomp = self.cfg.decomp
        g = self.geom
        gx, nx_i = g.gx, g.extent.nx
        nx = g.grid.nx
        if nx % decomp.px != 0:
            raise ValueError("transpose filter needs equal x-blocks")
        cx = decomp.coords(self.comm.rank)[0]
        for arr, fam in (
            (tend.U, "c"), (tend.V, "v"), (tend.Phi, "c"), (tend.psa, "c"),
        ):
            mask, factors = (
                (self.fmask_c, self.ffactors_c)
                if fam == "c"
                else (self.fmask_v, self.ffactors_v)
            )
            if not mask.any():
                continue
            rows = np.ascontiguousarray(arr[..., mask, gx: gx + nx_i])
            R = int(mask.sum())
            nlev = rows.shape[0] if rows.ndim == 3 else 1
            slots = rows.reshape(nlev * R, nx_i)
            S = slots.shape[0]
            if S < decomp.px:
                # too few row-slots to share: the whole x line falls back
                # to the replicated method for this field (S is identical
                # line-wide, so the branch is collectively consistent)
                self._filter_field_allgather(arr, mask, factors)
                continue
            bounds = balanced_partition(S, decomp.px)
            # forward transpose: send member i its slots (my columns)
            self.comm.set_phase(PHASE_COLLECTIVE)
            received = self.xsub.alltoall(
                [np.ascontiguousarray(slots[a:b]) for a, b in bounds]
            )
            self.comm.set_phase(None)
            a, b = bounds[cx]
            mine = np.concatenate(
                [blk.reshape(b - a, nx_i) for blk in received], axis=-1
            )
            # FFT only my share of the slots
            self.charge(
                self.cfg.weights.filter_fft * math.log2(nx), (b - a) * nx
            )
            slot_rows = np.arange(a, b) % R  # row family index per slot
            spec = np.fft.rfft(mine, axis=-1)
            spec *= factors[slot_rows]
            mine = np.fft.irfft(spec, n=nx, axis=-1)
            # backward transpose: return each member its columns
            col_blocks = [
                np.ascontiguousarray(mine[:, i * nx_i: (i + 1) * nx_i])
                for i in range(decomp.px)
            ]
            self.comm.set_phase(PHASE_COLLECTIVE)
            back = self.xsub.alltoall(col_blocks)
            self.comm.set_phase(None)
            for (a2, b2), blk in zip(bounds, back):
                slots[a2:b2] = blk.reshape(b2 - a2, nx_i)
            arr[..., mask, gx: gx + nx_i] = slots.reshape(rows.shape)

    # ---- state scatter/gather -----------------------------------------------
    def pad_local(self, global_state: ModelState) -> ModelState:
        """Scatter this rank's block of a global state into working arrays."""
        g = self.geom
        w = ModelState.zeros(g.shape3d)
        gz, gy, gx = g.gz, g.gy, g.gx
        sl3 = (
            slice(gz, gz + g.extent.nz),
            slice(gy, gy + g.extent.ny),
            slice(gx, gx + g.extent.nx),
        )
        # straight from the slice views: one copy per block, not two
        ext = self.extent
        for name in ("U", "V", "Phi"):
            getattr(w, name)[sl3] = getattr(global_state, name)[ext.slices3d()]
        w.psa[sl3[1:]] = global_state.psa[ext.slices2d()]
        return w

    def record_telemetry(self, step: int, w: ModelState) -> None:
        """Record this block's physics partials after step ``step``.

        Purely local sums/maxes over the interior block — deliberately no
        communication, so the exchange/collective counts the paper argues
        about are unchanged whether telemetry is on or off.
        """
        if not self.cfg.telemetry:
            return
        from repro.obs.telemetry import block_partials

        self.telemetry_partials.append(
            (
                step,
                block_partials(
                    self.strip_local(w), self.cfg.grid, self.cfg.sigma,
                    extent=self.extent,
                ),
            )
        )

    def result(self, w: ModelState) -> "RankResult":
        """What an ``advance`` that ended on working state ``w`` returns
        (pool counters count since the previous result)."""
        fresh, reuses = self._ws_seen
        self._ws_seen = (self.ws.fresh_allocations, self.ws.reuses)
        return RankResult(
            state=self.strip_local(w),
            c_calls=self.c_calls,
            exchanges=self.exchanges,
            telemetry=self.telemetry_partials if self.cfg.telemetry else None,
            ws_counters={
                "fresh_allocations": self.ws.fresh_allocations - fresh,
                "reuses": self.ws.reuses - reuses,
                "pooled_bytes": self.ws.pooled_bytes,
            },
        )

    def strip_local(self, w: ModelState) -> ModelState:
        """Interior block of a working state."""
        g = self.geom
        gz, gy, gx = g.gz, g.gy, g.gx
        sl3 = (
            slice(gz, gz + g.extent.nz),
            slice(gy, gy + g.extent.ny),
            slice(gx, gx + g.extent.nx),
        )
        return ModelState(
            U=w.U[sl3].copy(),
            V=w.V[sl3].copy(),
            Phi=w.Phi[sl3].copy(),
            psa=w.psa[sl3[1:]].copy(),
        )


@dataclass
class RankResult:
    """What each rank program returns."""

    state: ModelState
    c_calls: int
    exchanges: int
    #: per-step local telemetry partials (``cfg.telemetry`` only)
    telemetry: list[tuple[int, dict]] | None = None
    #: workspace pool counters of this rank
    ws_counters: dict | None = None


def original_program(comm: SimComm, cfg: DistributedConfig):
    """Build Algorithm 1 under ``cfg.decomp`` (X-Y, Y-Z or 3-D) on one rank.

    Returns ``advance(initial, nsteps) -> RankResult``: ``initial`` is the
    *global* interior state (shared read-only across rank threads), the
    result the local interior block ``nsteps`` steps later plus counters.
    Every call restarts from ``initial`` on the context built here.
    """
    decomp = cfg.decomp
    gy = 2
    gz = 1 if decomp.pz > 1 else 0
    gx = 2 if decomp.px > 1 else 0
    ctx = RankContext(comm, cfg, gy=gy, gz=gz, gx=gx)
    params = cfg.params
    dt1, dt2, M = params.dt_adaptation, params.dt_advection, params.m_iterations
    scr = StateRing(ctx.ws, ctx.geom.shape3d).scratch

    def advance(initial: ModelState, nsteps: int) -> RankResult:
        ctx.restart()
        psi = ctx.pad_local(initial)
        ctx.refresh_halos(psi)
        for step_no in range(nsteps):
            psi = step(psi)
            ctx.record_telemetry(step_no + 1, psi)
        return ctx.result(psi)

    def step(psi: ModelState) -> ModelState:
        with span("step", "step"):
            # ---- adaptation: M iterations x 3 internal updates ----
            for _i in range(M):
                vd = ctx.vertical_fresh(psi)
                eta1 = ctx.update("adaptation", psi, psi, vd, dt1, scr(psi))
                ctx.refresh_halos(eta1)

                # the second update lands as the midpoint (psi + eta2) / 2,
                # the state the third one evaluates
                vd = ctx.vertical_fresh(eta1)
                mid = ctx.update(
                    "adaptation", eta1, psi, vd, dt1, scr(psi, eta1),
                    midpoint=True,
                )
                ctx.refresh_halos(mid)

                vd = ctx.vertical_fresh(mid)
                psi = ctx.update(
                    "adaptation", mid, psi, vd, dt1, scr(psi, mid)
                )
                ctx.refresh_halos(psi)
            vd_frozen = vd

            # ---- advection: one iteration, 3 internal updates ----
            zeta1 = ctx.update(
                "advection", psi, psi, vd_frozen, dt2, scr(psi)
            )
            ctx.refresh_halos(zeta1)
            mid = ctx.update(
                "advection", zeta1, psi, vd_frozen, dt2, scr(psi, zeta1),
                midpoint=True,
            )
            ctx.refresh_halos(mid)
            psi = ctx.update(
                "advection", mid, psi, vd_frozen, dt2, scr(psi, mid)
            )
            ctx.refresh_halos(psi)

            # ---- smoothing (the 13th exchange already happened above) ----
            ctx.charge(cfg.weights.smoothing, ctx._wpoints)
            psi = ctx.kernels.smooth_state_into(
                psi, params, scr(psi), ctx.ws, ctx.smoothers
            )

            if cfg.forcing is not None:
                cfg.forcing(psi, ctx.geom, dt2)
            ctx.refresh_halos(psi)
        return psi

    return advance


def original_rank_program(
    comm: SimComm, cfg: DistributedConfig, initial: ModelState
) -> RankResult:
    """Algorithm 1 as a one-shot rank program: build, then advance
    ``cfg.nsteps`` steps from ``initial``."""
    return original_program(comm, cfg)(initial, cfg.nsteps)


def resident(build, cfg: DistributedConfig):
    """The rank function ``program(comm, initial, nsteps)`` of a world that
    advances one program by commands: ``build(comm, cfg)`` runs on a rank's
    first command and stays on its communicator — once per world on a
    persistent (process) rank, once per run on a thread rank."""

    def program(comm: SimComm, initial: ModelState, nsteps: int) -> RankResult:
        if comm.resident is None:
            comm.resident = build(comm, cfg)
        return comm.resident(initial, nsteps)

    return program
