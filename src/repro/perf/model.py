"""Projection of the three algorithms to paper scale.

The executable simulated-MPI cores give exact event counts and
logical-clock times at small scale; this module evaluates the same
per-step schedules with an alpha-beta(+synchronization-overhead) machine
model at the paper's scale — 720 x 360 x 30, 10 model years, 128..1024
ranks — to regenerate Figures 1, 6, 7 and 8.

Model structure (per step, busiest rank):

* **compute** — point-updates x per-operator weight x ``seconds_per_point``.
  The CA core's redundant halo computation is accounted exactly by the
  trapezoidal shrink the executed core itself follows: update ``u`` of a
  batch of ``H`` runs on the block extended by ``H - u`` rows on each side
  that has a y-neighbour (pole sides contribute nothing).
* **stencil communication** — per exchange round: a round overhead (the
  rendezvous with up-to-8 neighbours, incl. jitter), per-message software
  cost, and payload bytes / bandwidth.  The CA core has 2 rounds per step
  instead of 13, pays more bytes (wide halos + the stale-C bundle), and
  earns an overlap credit bounded by the inner-block update time
  (Sec. 4.3.1).
* **collective communication** — ring-allgather cost plus a per-collective
  synchronization overhead representing the bulk-synchronous imbalance
  (polar load imbalance, OS jitter) that dominates measured collective
  times at scale; it grows logarithmically with the job size.

The free constants are calibrated so the model lands near the paper's
anchor numbers (17,400 -> 2,800 s stencil time at p = 1024; 54% total
reduction vs X-Y at p = 512; 46,300 s saved vs Y-Z at p = 1024); the
*shape* claims are asserted in the benchmark suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import ModelParameters
from repro.grid.decomposition import (
    Decomposition,
    xy_decomposition,
    yz_decomposition,
)
from repro.grid.latlon import LatLonGrid
from repro.operators.stencil_meta import row_window_schedule
from repro.perf.costs import B, ComputeWeights, DEFAULT_WEIGHTS, N_FIELDS

#: model seconds in 10 model years with the paper-scale advection step
SECONDS_PER_YEAR = 365.0 * 86400.0


@dataclass(frozen=True)
class Calibration:
    """Free constants of the projection model (see module docstring)."""

    #: per point-update per unit weight [s] (optimized Fortran-like rate)
    seconds_per_point: float = 1.2e-9
    #: effective per-rank bandwidth [s/B] for halo payloads
    beta: float = 1.7e-10
    #: per-message software/injection cost [s]
    alpha_msg: float = 4.0e-6
    #: per-exchange-round rendezvous/jitter overhead [s]
    round_overhead: float = 2.2e-3
    #: per-collective synchronization overhead at the reference job size
    sync_base: float = 1.2e-2
    #: growth of the sync overhead per doubling of the job size
    sync_per_doubling: float = 6.0e-3
    #: reference job size for ``sync_base``
    sync_ref_procs: int = 128

    def __post_init__(self) -> None:
        for name in (
            "seconds_per_point", "beta", "alpha_msg", "round_overhead",
            "sync_base", "sync_per_doubling",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.sync_ref_procs < 1:
            raise ValueError("sync_ref_procs must be >= 1")

    def sync_overhead(self, nprocs: int) -> float:
        """Effective per-collective synchronization cost for a job of
        ``nprocs`` ranks."""
        doublings = max(0.0, math.log2(max(1, nprocs) / self.sync_ref_procs))
        return self.sync_base + self.sync_per_doubling * doublings


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class AlgorithmTiming:
    """10-year (or ``nsteps``-step) timing decomposition of one algorithm."""

    algorithm: str
    nprocs: int
    decomp: Decomposition
    nsteps: int
    compute_time: float
    stencil_comm_time: float
    collective_comm_time: float

    @property
    def comm_time(self) -> float:
        return self.stencil_comm_time + self.collective_comm_time

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time

    @property
    def comm_fraction(self) -> float:
        return self.comm_time / self.total_time


class PerformanceModel:
    """Evaluate the per-step schedules of the three algorithms at scale."""

    #: paper-scale advection time step [s] (50 km mesh)
    PAPER_DT = 600.0

    def __init__(
        self,
        grid: LatLonGrid,
        params: ModelParameters | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        weights: ComputeWeights = DEFAULT_WEIGHTS,
        model_years: float = 10.0,
        dt_step: float | None = None,
    ) -> None:
        self.grid = grid
        self.params = params or ModelParameters()
        self.cal = calibration
        self.weights = weights
        self.dt_step = dt_step if dt_step is not None else self.PAPER_DT
        self.nsteps = int(round(model_years * SECONDS_PER_YEAR / self.dt_step))

    # ---- decomposition selection ------------------------------------------------
    def decomposition(self, algorithm: str, nprocs: int) -> Decomposition:
        g = self.grid
        if algorithm in ("original-yz", "ca"):
            return yz_decomposition(g.nx, g.ny, g.nz, nprocs)
        if algorithm == "original-xy":
            return xy_decomposition(g.nx, g.ny, g.nz, nprocs)
        if algorithm == "original-3d":
            # modest pz, the rest over the x-y plane (both collectives live)
            from repro.grid.decomposition import best_2d_factorization

            pz = 2 if nprocs % 2 == 0 and g.nz >= 4 else 1
            px, py = best_2d_factorization(nprocs // pz, g.nx, g.ny)
            return Decomposition(g.nx, g.ny, g.nz, px, py, pz)
        raise ValueError(f"unknown algorithm {algorithm!r}")

    # ---- per-step compute -------------------------------------------------
    def _block_points(self, decomp: Decomposition) -> float:
        return (
            (decomp.nx / decomp.px)
            * (decomp.ny / decomp.py)
            * (decomp.nz / decomp.pz)
        )

    def _ca_window_points(
        self, decomp: Decomposition, batch: int
    ) -> list[float]:
        """Points swept by each update of a CA batch of ``batch`` updates
        on the busiest rank.

        The rows come from the executed core's own schedule
        (:func:`repro.operators.stencil_meta.row_window_schedule`): update
        ``u`` (1-based) targets the block plus ``batch - u`` rows on every
        side with a y-neighbour and nothing beyond the block towards a
        pole — the busiest rank has two neighbour sides once ``p_y >= 3``,
        one at ``p_y = 2``, none at ``p_y = 1``.  Under ``p_z > 1`` the
        level count keeps the calibrated shrinking-z form (``batch - u +
        1`` levels on each side); the executed core windows y only and
        sweeps all its ghost levels."""
        ny_l = decomp.ny / decomp.py
        nz_l = decomp.nz / decomp.pz
        windows = row_window_schedule(
            0, ny_l, batch, north=decomp.py >= 3, south=decomp.py >= 2
        )
        return [
            decomp.nx
            * (hi - lo)
            * ((nz_l + 2 * (batch - u + 1)) if decomp.pz > 1 else nz_l)
            for u, (lo, hi) in enumerate(windows, start=1)
        ]

    def _ca_trapezoid_points(self, decomp: Decomposition, batch: int) -> float:
        """Mean working points per update of a CA batch (see
        :meth:`_ca_window_points`)."""
        return sum(self._ca_window_points(decomp, batch)) / batch

    def ca_compute_work(self, decomp: Decomposition) -> float:
        """Weighted point-updates of one steady-state CA step on the
        busiest rank, polar filter excluded — term for term what the
        executed core charges to its logical clock (the tests pin the two
        to each other): ``3M`` adaptation updates of which ``2M`` evaluate
        a fresh ``C`` (the first of each iteration reuses the stale
        bundle), 3 advection updates, one axpy/midpoint per update, ``S1``
        on the block and ``S2`` on the ``3M + 2`` strip + received rows of
        every neighbour side."""
        M = self.params.m_iterations
        W = self.weights
        adapt = self._ca_window_points(decomp, 3 * M)
        advec = self._ca_window_points(decomp, 3)
        fresh_c = sum(p for u, p in enumerate(adapt) if u % 3)
        sides = min(2, decomp.py - 1)
        nz_w = decomp.nz / decomp.pz + (6 * M if decomp.pz > 1 else 0)
        smooth_rows = decomp.ny / decomp.py + sides * (3 * M + 2)
        return (
            W.adaptation * sum(adapt)
            + W.vertical * fresh_c
            + W.advection * sum(advec)
            + W.update * (sum(adapt) + sum(advec))
            + W.smoothing * decomp.nx * nz_w * smooth_rows
        )

    def _compute_per_step(self, algorithm: str, decomp: Decomposition) -> float:
        M = self.params.m_iterations
        W, cal = self.weights, self.cal
        nx = decomp.nx
        block = self._block_points(decomp)
        # filter work: polar ranks FFT their filtered rows (worst rank)
        filter_zone = 2.0 * (math.pi / 2 - self.params.filter_latitude) / math.pi
        rows_local = decomp.ny / decomp.py
        filt_rows = min(rows_local, decomp.ny * filter_zone / 2.0)
        filt_points = filt_rows * (decomp.nz / decomp.pz) * nx
        n_updates = 3 * M + 3
        filter_work = (
            n_updates * W.filter_fft * math.log2(nx) * filt_points
        )
        if algorithm == "ca":
            work = self.ca_compute_work(decomp) + filter_work
        else:
            work = (
                3 * M * (W.adaptation + W.vertical + W.update) * block
                + 3 * (W.advection + W.update) * block
                + W.smoothing * block
                + filter_work
            )
        return work * cal.seconds_per_point

    # ---- per-step stencil communication ----------------------------------------------
    def _halo_bytes(
        self, decomp: Decomposition, wy: float, wz: float, wx: float
    ) -> float:
        """Bytes sent per rank for one exchange with the given widths."""
        nx_l = decomp.nx / decomp.px
        ny_l = decomp.ny / decomp.py
        nz_l = decomp.nz / decomp.pz
        if decomp.kind in ("yz", "serial"):
            per3d = decomp.nx * (
                2 * wy * nz_l + 2 * wz * ny_l + 4 * wy * wz
            )
            per2d = decomp.nx * 2 * wy
        elif decomp.kind == "xy":
            per3d = decomp.nz * (
                2 * wx * ny_l + 2 * wy * nx_l + 4 * wx * wy
            )
            per2d = 2 * (wx * ny_l + wy * nx_l + 2 * wx * wy)
        else:  # 3d: faces in all three directions
            per3d = (
                2 * wx * ny_l * nz_l + 2 * wy * nx_l * nz_l
                + 2 * wz * nx_l * ny_l
                + 4 * (wx * wy * nz_l + wx * wz * ny_l + wy * wz * nx_l)
            )
            per2d = 2 * (wx * ny_l + wy * nx_l + 2 * wx * wy)
        return B * (3 * per3d + per2d)

    def _stencil_per_step(
        self, algorithm: str, decomp: Decomposition, compute_per_step: float
    ) -> float:
        M = self.params.m_iterations
        cal = self.cal
        n_neigh = 8
        if algorithm == "ca":
            wy_a, wz_a = 3 * M + 2, (3 * M if decomp.pz > 1 else 0)
            wy_l, wz_l = 3, (3 if decomp.pz > 1 else 0)
            bytes_a = self._halo_bytes(decomp, wy_a, wz_a, 0) * 2.0  # + C bundle
            bytes_l = self._halo_bytes(decomp, wy_l, wz_l, 0) * 2.0
            ny_l = decomp.ny / decomp.py
            rings_a = max(1.0, wy_a / max(1.0, ny_l))
            rings_l = max(1.0, wy_l / max(1.0, ny_l))
            msgs = n_neigh * N_FIELDS * (rings_a + rings_l)
            raw = (
                2 * cal.round_overhead
                + msgs * cal.alpha_msg
                + (bytes_a + bytes_l) * cal.beta
            )
            # overlap credit: one inner-block update hides part of each round
            inner_update = (
                (self.weights.adaptation + self.weights.advection)
                / 2.0
                * self._block_points(decomp)
                * cal.seconds_per_point
            )
            credit = min(2 * inner_update, 0.6 * raw)
            return raw - credit
        # original: 3M + 3 + 1 rounds with unit-radius halos
        n_rounds = 3 * M + 4
        if decomp.kind == "xy":
            bytes_per = self._halo_bytes(decomp, 2, 0, 2)
        elif decomp.kind == "3d":
            bytes_per = self._halo_bytes(
                decomp, 2, 1 if decomp.pz > 1 else 0, 2
            )
            n_neigh = 26
        else:
            bytes_per = self._halo_bytes(decomp, 2, 1 if decomp.pz > 1 else 0, 0)
        msgs = n_neigh * N_FIELDS
        per_round = (
            cal.round_overhead + msgs * cal.alpha_msg + bytes_per * cal.beta
        )
        return n_rounds * per_round

    # ---- per-step collective communication ---------------------------------
    def _collective_per_step(
        self, algorithm: str, decomp: Decomposition, nprocs: int
    ) -> float:
        M = self.params.m_iterations
        cal = self.cal
        sync = cal.sync_overhead(nprocs)
        total = 0.0
        # z-collectives of the C operator
        if decomp.pz > 1 and algorithm != "original-xy":
            n_c = 2 * M if algorithm == "ca" else 3 * M
            ny_w = decomp.ny / decomp.py + (
                2 * (3 * M + 2) if algorithm == "ca" else 4
            )
            bytes_each = 2 * (decomp.nz / decomp.pz) * ny_w * decomp.nx * B
            ring = (decomp.pz - 1) * (cal.alpha_msg + bytes_each * cal.beta)
            total += n_c * (ring + sync)
        # x-collectives of the Fourier filter
        if decomp.px > 1:
            n_f = 3 * M + 3
            filter_zone = 2.0 * (math.pi / 2 - self.params.filter_latitude) / math.pi
            rows_local = min(
                decomp.ny / decomp.py, decomp.ny * filter_zone / 2.0
            )
            bytes_each = (
                3 * rows_local * (decomp.nz / decomp.pz)
                * (decomp.nx / decomp.px) * B
            )
            ring = (decomp.px - 1) * (cal.alpha_msg + bytes_each * cal.beta)
            total += n_f * (ring + sync)
        return total

    # ---- ablation: halo batching depth -----------------------------------------------
    def ca_stencil_time_batched(self, nprocs: int, batch: int) -> float:
        """Projected 10-year stencil-communication time of a CA variant
        that exchanges every ``batch`` adaptation updates (redundant-work
        vs message-frequency trade-off; ``batch = 3M`` is Algorithm 2,
        ``batch = 1`` is the original exchange-per-update schedule with
        fused smoothing)."""
        M = self.params.m_iterations
        if not 1 <= batch <= 3 * M:
            raise ValueError(f"batch must be in [1, {3 * M}]")
        decomp = self.decomposition("ca", nprocs)
        cal = self.cal
        rounds_adapt = math.ceil(3 * M / batch)
        adv_batch = min(batch, 3)
        rounds_adv = math.ceil(3 / adv_batch)
        wz = batch if decomp.pz > 1 else 0
        bytes_total = (
            self._halo_bytes(decomp, batch + 2, wz, 0) * 2.0  # + C bundle
            + (rounds_adapt - 1) * self._halo_bytes(decomp, batch, wz, 0) * 2.0
            + rounds_adv * self._halo_bytes(
                decomp, adv_batch, adv_batch if decomp.pz > 1 else 0, 0
            ) * 2.0
        )
        rounds = rounds_adapt + rounds_adv
        ny_l = decomp.ny / decomp.py
        rings = max(1.0, batch / max(1.0, ny_l))
        msgs = 8 * N_FIELDS * rings * rounds
        raw = (
            rounds * cal.round_overhead
            + msgs * cal.alpha_msg
            + bytes_total * cal.beta
        )
        inner_update = (
            self.weights.adaptation
            * self._block_points(decomp)
            * cal.seconds_per_point
        )
        credit = min(rounds * inner_update, 0.6 * raw)
        return (raw - credit) * self.nsteps

    # ---- public API ---------------------------------------------------------
    def timing(self, algorithm: str, nprocs: int) -> AlgorithmTiming:
        """Projected timing of ``algorithm`` on ``nprocs`` ranks."""
        decomp = self.decomposition(algorithm, nprocs)
        compute = self._compute_per_step(algorithm, decomp)
        stencil = self._stencil_per_step(algorithm, decomp, compute)
        collective = self._collective_per_step(algorithm, decomp, nprocs)
        K = self.nsteps
        return AlgorithmTiming(
            algorithm=algorithm,
            nprocs=nprocs,
            decomp=decomp,
            nsteps=K,
            compute_time=compute * K,
            stencil_comm_time=stencil * K,
            collective_comm_time=collective * K,
        )

    def sweep(
        self, algorithms: list[str], procs: list[int]
    ) -> dict[str, list[AlgorithmTiming]]:
        """Timings for every (algorithm, nprocs) pair."""
        return {
            alg: [self.timing(alg, p) for p in procs] for alg in algorithms
        }


#: the process counts of the paper's evaluation figures
PAPER_PROC_SWEEP = [128, 256, 512, 1024]

#: the three algorithm labels used across figures and benches
ALGORITHMS = ["original-xy", "original-yz", "ca"]
