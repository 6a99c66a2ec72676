"""High-level facade: run any of the three cores with one call.

This is the entry point the examples and most downstream users want:

>>> core = DynamicalCore(grid, algorithm="ca", nprocs=4)
>>> final, report = core.run(initial_state, nsteps=10)

``algorithm``:

* ``"serial"`` — the reference core on one rank (no simulated cluster);
* ``"original-yz"`` / ``"original-xy"`` / ``"original-3d"`` — Algorithm 1
  on the simulated cluster under the respective decomposition;
* ``"ca"`` — the communication-avoiding Algorithm 2 (Y-Z decomposition).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.constants import DEFAULT_PARAMETERS, ModelParameters
from repro.core.comm_avoiding import ca_program
from repro.core.distributed import DistributedConfig, original_program, resident
from repro.core.integrator import SerialCore
from repro.kernels import TIERS, resolve_backend
from repro.obs.config import ObsConfig, Observation
from repro.obs.metrics import (
    absorb_comm_stats,
    absorb_workspace_counters,
)
from repro.obs.spans import active_tracer, set_active
from repro.grid.decomposition import (
    Decomposition,
    best_2d_factorization,
    xy_decomposition,
    yz_decomposition,
)
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.simmpi import MachineModel, run_spmd
from repro.simmpi.launcher import RankWorld
from repro.simmpi.machine import LAPTOP_LIKE
from repro.simmpi.shm import shared_zeros
from repro.simmpi.transport import TransportConfig
from repro.state.variables import ModelState

ALGORITHMS = ("serial", "original-yz", "original-xy", "original-3d", "ca")

#: sentinel distinguishing "use the config's transport" from "explicitly None"
_UNSET = object()


@dataclass
class StepDiagnostics:
    """Summary of one distributed run (from the simulated cluster)."""

    makespan: float = 0.0
    compute_time: float = 0.0
    stencil_comm_time: float = 0.0
    collective_comm_time: float = 0.0
    p2p_messages: int = 0
    p2p_bytes: int = 0
    collective_ops: int = 0
    synchronizations: int = 0
    c_calls: int = 0
    exchanges: int = 0
    #: failed wire attempts healed by the reliable transport (sum over ranks)
    retransmits: int = 0

    @property
    def comm_time(self) -> float:
        return self.stencil_comm_time + self.collective_comm_time

    @property
    def comm_fraction(self) -> float:
        total = self.comm_time + self.compute_time
        return self.comm_time / total if total > 0 else 0.0

    def accumulate(self, other: "StepDiagnostics") -> None:
        """Add another run's counters in place (chunked/resilient runs)."""
        self.makespan += other.makespan
        self.compute_time += other.compute_time
        self.stencil_comm_time += other.stencil_comm_time
        self.collective_comm_time += other.collective_comm_time
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.collective_ops += other.collective_ops
        self.synchronizations += other.synchronizations
        self.c_calls += other.c_calls
        self.exchanges += other.exchanges
        self.retransmits += other.retransmits


def state_area(
    shape3d: tuple[int, int, int],
) -> tuple[ModelState, ModelState]:
    """The two global-state areas of one process rank world, which every
    rank writes its interior block into (command *k* of the world writes
    area *k* mod 2): zero states in one anonymous shared mapping the
    forked ranks inherit.  Untouched pages cost nothing, so a world of
    one command pays for one area."""
    nz, ny, nx = shape3d
    arrays = shared_zeros(*([(nz, ny, nx)] * 3 + [(ny, nx)]) * 2)
    return ModelState(*arrays[:4]), ModelState(*arrays[4:])


def area_command(program, areas: tuple[ModelState, ModelState]):
    """The rank function of a world over ``areas``: command ``k`` advances
    ``program`` from ``initial`` — or, given ``None``, from the area the
    previous command wrote — into area ``k`` mod 2."""

    def command(comm, initial: ModelState | None, nsteps: int, k: int):
        if initial is None:
            initial = areas[(k - 1) % 2]
        return program(comm, initial, nsteps, areas[k % 2])

    return command


def default_spmd_timeout(nsteps: int) -> float:
    """Wall-clock deadlock timeout scaled with the requested work.

    ``run_spmd``'s default of 120 s is tuned for a handful of steps; long
    integrations on loaded hosts can exceed it and be misdiagnosed as
    deadlocks.  The driver therefore passes ``max(120, 5 * nsteps)``
    seconds unless :attr:`CoreConfig.timeout` overrides it.
    """
    return max(120.0, 5.0 * float(nsteps))


@dataclass
class CoreConfig:
    """Configuration of a :class:`DynamicalCore`."""

    grid: LatLonGrid
    algorithm: str = "serial"
    nprocs: int = 1
    params: ModelParameters = DEFAULT_PARAMETERS
    sigma: SigmaLevels | None = None
    forcing: Callable | None = None
    machine: MachineModel = LAPTOP_LIKE
    decomp: Decomposition | None = None
    #: wall-clock deadlock timeout for run_spmd; None → scale with nsteps
    timeout: float | None = None
    #: kernel tier: ``"fused"`` (the default: the compiled C kernels
    #: of :mod:`repro.kernels`, bit-identical, with per-call fallback to
    #: numpy inside the kernel object — safe without a compiler) or
    #: ``"reference"`` (the oracle).  Env override: ``REPRO_KERNEL_TIER``.
    kernel_tier: str | None = None
    #: SPMD execution backend: ``"thread"`` (default; deterministic fault
    #: injection) or ``"process"`` (one OS process per rank over
    #: shared-memory rings — true multicore, bit-identical numerics).
    #: Fault-injected attempts always run on the thread backend.
    backend: str = "thread"
    #: reliable-transport policy for plain runs (``None`` = raw network;
    #: the resilient driver supplies its own default, see
    #: :class:`repro.core.resilience.ResilienceConfig`)
    transport: TransportConfig | None = None
    #: observability: ``True``/:class:`~repro.obs.config.ObsConfig` turns
    #: on span tracing, metrics and physics telemetry (``None`` = off,
    #: near-zero overhead)
    observe: ObsConfig | bool | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}"
            )
        if self.algorithm == "serial" and self.nprocs != 1:
            raise ValueError("the serial core runs on one rank")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "pick 'thread' or 'process'"
            )
        import os

        if self.kernel_tier is None:
            self.kernel_tier = os.environ.get("REPRO_KERNEL_TIER", "fused")
        if self.kernel_tier not in TIERS:
            raise ValueError(
                f"unknown kernel_tier {self.kernel_tier!r}; pick from {TIERS}"
            )
        self.observe = ObsConfig.coerce(self.observe)

    def resolve_decomposition(self) -> Decomposition:
        g = self.grid
        if self.decomp is not None:
            return self.decomp
        if self.algorithm in ("serial",):
            return Decomposition(g.nx, g.ny, g.nz, 1, 1, 1)
        if self.algorithm in ("original-yz", "ca"):
            return yz_decomposition(g.nx, g.ny, g.nz, self.nprocs)
        if self.algorithm == "original-xy":
            return xy_decomposition(g.nx, g.ny, g.nz, self.nprocs)
        # 3-D: split the procs over (x, y) then z with a modest pz
        pz = 2 if self.nprocs % 2 == 0 and g.nz >= 4 else 1
        px, py = best_2d_factorization(self.nprocs // pz, g.nx, g.ny)
        return Decomposition(g.nx, g.ny, g.nz, px, py, pz)


class DynamicalCore:
    """User-facing runner over all algorithm variants."""

    def __init__(self, grid: LatLonGrid, **kwargs) -> None:
        self.config = CoreConfig(grid=grid, **kwargs)
        self._observation: Observation | None = None
        #: telemetry records of the in-flight (uncommitted) run; the
        #: resilient driver commits or discards them per chunk
        self._staged_telemetry: list = []
        #: "step" spans already folded into the step_wall_seconds histogram
        self._steps_metered = 0
        #: the process-backend rank world of the call in progress and what
        #: it was forked for (see _world_scope); worlds forked so far
        self._world: RankWorld | None = None
        self._world_key: tuple = ()
        #: that world's two global-state areas and the commands it ran
        self._areas: tuple[ModelState, ModelState] | None = None
        self._commands = 0
        self._in_call = False
        self.rank_launches = 0
        #: the serial core, built by the first serial call and restarted
        #: by every later one (its pools and ring outlive a call)
        self._serial: SerialCore | None = None

    # ---- observation lifecycle -----------------------------------------------
    @property
    def observation(self) -> Observation | None:
        """The live observation bundle, or ``None`` when ``observe`` is off."""
        return self._ensure_observation()

    def _ensure_observation(self) -> Observation | None:
        if self.config.observe is None:
            return None
        if self._observation is None:
            self._observation = Observation(config=self.config.observe)
        return self._observation

    @contextmanager
    def _obs_scope(self):
        """Activate this core's span tracer for the duration of one run.

        Reentrant: a no-op when the tracer is already active, so the
        resilient driver's chunk runs compose with an outer scope.
        """
        obs = self._ensure_observation()
        if obs is None or obs.tracer is None or active_tracer() is obs.tracer:
            yield obs
            return
        prev = set_active(obs.tracer)
        try:
            yield obs
        finally:
            set_active(prev)

    @contextmanager
    def _world_scope(self):
        """One call of ``run`` / ``run_resilient`` / a bare ``_run_once``:
        the rank world opened inside serves every chunk of the call and is
        closed when it returns or raises — no child process, shared
        memory or checkpoint directory outlives a call.  The serial core's
        pooled buffers live as long as this object; a core serves one
        call at a time.  Reentrant like :meth:`_obs_scope`."""
        if self._in_call:
            yield
            return
        self._in_call = True
        try:
            yield
        finally:
            self._in_call = False
            if self._world is not None:
                self._world.close()
                self._world = None
            self._areas = None

    def _commit_observation(self) -> None:
        """Move staged telemetry into the committed series."""
        obs = self._observation
        if obs is not None and self._staged_telemetry:
            obs.telemetry.extend(self._staged_telemetry)
        self._staged_telemetry = []

    def _discard_observation(self) -> None:
        """Drop staged telemetry of a rolled-back / failed run."""
        self._staged_telemetry = []

    def run(
        self, state0: ModelState, nsteps: int
    ) -> tuple[ModelState, StepDiagnostics]:
        """Advance ``nsteps`` from the global interior ``state0``.

        Returns the global final state plus run diagnostics from the
        simulated cluster (zeros for the serial core).
        """
        try:
            state, diag, _ = self._run_once(state0, nsteps)
        except BaseException:
            self._discard_observation()
            raise
        self._commit_observation()
        obs = self._observation
        if obs is not None:
            obs.finalize_outputs()
        return state, diag

    def run_resilient(
        self, state0: ModelState, nsteps: int, resilience
    ) -> tuple[ModelState, StepDiagnostics, "object"]:
        """Advance ``nsteps`` with checkpoint/restart fault tolerance.

        ``resilience`` is a :class:`repro.core.resilience.ResilienceConfig`;
        returns ``(final_state, accumulated_diagnostics, report)``.  See
        :mod:`repro.core.resilience` for the recovery semantics.
        """
        from repro.core.resilience import run_resilient

        return run_resilient(self, state0, nsteps, resilience)

    def _run_once(
        self,
        state0: ModelState,
        nsteps: int,
        *,
        faults=None,
        verify_checksums: bool = False,
        transport=_UNSET,
        timeout: float | None = None,
        step0: int = 0,
    ) -> tuple[ModelState, StepDiagnostics, list | None]:
        """One uninterrupted run; raises on any injected/organic failure.

        Returns ``(state, diagnostics, per_rank_stats_or_None)``; the
        stats list (None for the serial core) lets the resilient driver
        harvest fault events from successful chunks.  ``step0`` offsets
        the step numbers of telemetry records (chunked resilient runs).
        ``transport`` overrides :attr:`CoreConfig.transport` when given
        (the resilient driver passes its own policy, including an
        explicit ``None`` for the raw network).

        On the process backend the returned state is not a copy: it is the
        world's state area the command just filled, and it stays valid
        until the world runs two more commands (each call of ``run``
        forks its own world, so a plain run's result stays valid for
        good).  A command that starts from the previous result reads it
        in place.  Only ``run_resilient`` sends a second command, and it
        is done with a chunk's state once the next chunk commits: the
        deferred checkpoint runs during that next chunk, which writes the
        other area, and a rewind starts from a copy it makes of the
        committed state when it recovers.
        """
        if transport is _UNSET:
            transport = self.config.transport
        with self._obs_scope() as obs, self._world_scope():
            out = self._run_once_observed(
                state0, nsteps, obs,
                faults=faults, verify_checksums=verify_checksums,
                transport=transport, timeout=timeout, step0=step0,
            )
            self._meter_step_walls(obs)
            return out

    def _meter_step_walls(self, obs: Observation | None) -> None:
        """Fold new "step" span durations into the wall-clock histogram.

        Each observation carries the span's trace id as an exemplar, so
        a p99 outlier in a scrape links back to the causal trace of the
        run that produced it.
        """
        if obs is None or obs.tracer is None or not obs.config.metrics:
            return
        steps = obs.tracer.named("step")
        new = steps[self._steps_metered:]
        if not new:
            return
        self._steps_metered = len(steps)
        hist = obs.registry.histogram(
            "step_wall_seconds", "wall-clock seconds per model step"
        )
        for s in new:
            hist.observe(s.duration, trace_id=s.trace_id or None)

    def _run_once_observed(
        self,
        state0: ModelState,
        nsteps: int,
        obs: Observation | None,
        *,
        faults,
        verify_checksums: bool,
        transport,
        timeout: float | None,
        step0: int,
    ) -> tuple[ModelState, StepDiagnostics, list | None]:
        cfg = self.config
        want_telemetry = obs is not None and obs.config.telemetry
        if cfg.algorithm == "serial":
            if self._serial is None:
                self._serial = SerialCore(
                    cfg.grid,
                    sigma=cfg.sigma,
                    params=cfg.params,
                    forcing=cfg.forcing,
                    kernel_tier=cfg.kernel_tier,
                )
            core = self._serial
            monitor = None
            if want_telemetry:
                from repro.obs.telemetry import record_for_state

                def monitor(k: int, interior: ModelState) -> None:
                    self._staged_telemetry.append(
                        record_for_state(
                            step0 + k, interior, cfg.grid, core.sigma
                        )
                    )

            out = core.run(state0, nsteps, monitor=monitor)
            diag = StepDiagnostics(c_calls=core.c_calls)
            if obs is not None and obs.config.metrics:
                absorb_workspace_counters(obs.registry, core.ws.counters(), rank=0)
            return out, diag, None

        decomp = cfg.resolve_decomposition()
        dcfg = DistributedConfig(
            grid=cfg.grid,
            decomp=decomp,
            params=cfg.params,
            sigma=cfg.sigma,
            forcing=cfg.forcing,
            kernel_tier=cfg.kernel_tier,
            telemetry=want_telemetry,
        )
        program = resident(
            ca_program if cfg.algorithm == "ca" else original_program, dcfg
        )
        if timeout is None:
            timeout = (
                cfg.timeout
                if cfg.timeout is not None
                else default_spmd_timeout(nsteps)
            )
        trace = obs is not None and obs.config.logical_trace
        # fault-injected attempts need the thread backend's deterministic
        # in-process delivery; clean runs honour the configured backend.
        # Node-loss-only plans are the exception: the process backend
        # supports them natively (the victim's OS process is killed), and
        # the rank-kill tests exercise exactly that path.
        plan = getattr(faults, "plan", faults)
        if (
            cfg.backend == "process"
            and decomp.nranks > 1
            and (faults is None or getattr(plan, "node_loss_only", False))
        ):
            # everything a world is forked with; the rest goes per command
            key = (decomp, want_telemetry, verify_checksums, transport)
            world, initial, k = self._world, None, self._commands
            if world is None or not world.is_open or key != self._world_key:
                if world is not None:
                    world.close()
                # load the kernel library before the fork: ranks inherit
                # it instead of each asking the compiler for its banner,
                # hashing the source and dlopening the hit
                if cfg.kernel_tier == "fused":
                    resolve_backend()
                self._areas = state_area(cfg.grid.shape3d)
                world = self._world = RankWorld(
                    decomp.nranks, area_command(program, self._areas),
                    machine=cfg.machine,
                    verify_checksums=verify_checksums, transport=transport,
                )
                self._world_key = key
                self.rank_launches += 1
                if obs is not None and obs.config.metrics:
                    obs.registry.counter(
                        "spmd_launches_total", "rank worlds forked"
                    ).inc()
                # the first command reads state0 through fork inheritance
                initial, k = state0, 0
            elif state0 is not self._areas[(k - 1) % 2]:
                # a reused world starting from a state other than the
                # previous result (a rewind): the parent writes it into
                # the area the command reads
                state0.copy_into(self._areas[(k - 1) % 2])
            self._commands = k + 1
            result = world.call(
                initial, nsteps, k, timeout=timeout, trace=trace, faults=faults
            )
            final = self._areas[k % 2]
        else:
            final = ModelState.zeros(cfg.grid.shape3d)
            result = run_spmd(
                decomp.nranks, program, state0, nsteps, final,
                machine=cfg.machine, timeout=timeout, trace=trace,
                faults=faults, verify_checksums=verify_checksums,
                transport=transport,
            )
        crit = result.critical_stats()
        diag = StepDiagnostics(
            makespan=result.makespan,
            compute_time=crit.compute_time,
            stencil_comm_time=max(
                s.tagged_time.get("stencil_comm", 0.0) for s in result.stats
            ),
            collective_comm_time=max(
                s.collective_time for s in result.stats
            ),
            p2p_messages=sum(s.p2p_messages_sent for s in result.stats),
            p2p_bytes=sum(s.p2p_bytes_sent for s in result.stats),
            collective_ops=crit.collective_ops,
            synchronizations=crit.synchronizations,
            c_calls=result.results[0].c_calls,
            exchanges=result.results[0].exchanges,
            retransmits=sum(s.retransmits for s in result.stats),
        )
        if obs is not None:
            self._absorb_distributed(obs, result, step0)
        return final, diag, result.stats

    def _absorb_distributed(self, obs: Observation, result, step0: int) -> None:
        """Fold one SPMD run's observables into the observation bundle."""
        if obs.config.telemetry and result.results[0].telemetry is not None:
            from repro.obs.telemetry import combine_partials

            by_step: dict[int, list[dict]] = {}
            for r in result.results:
                for s, partials in r.telemetry:
                    by_step.setdefault(s, []).append(partials)
            for s in sorted(by_step):
                self._staged_telemetry.append(
                    combine_partials(step0 + s, by_step[s], self.config.grid)
                )
        if obs.config.metrics:
            for rank, stats in enumerate(result.stats):
                absorb_comm_stats(obs.registry, stats, rank)
            for rank, r in enumerate(result.results):
                if r.ws_counters is not None:
                    absorb_workspace_counters(
                        obs.registry, r.ws_counters, rank
                    )
        if obs.config.logical_trace and result.traces:
            obs.logical_traces.extend(result.traces)
