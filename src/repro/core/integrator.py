"""The serial reference core: Algorithm 1 and its approximate-C variant.

This is the ground truth the distributed cores are validated against.
It runs the full nonlinear time integration of Sec. 3:

* ``M`` nonlinear iterations of the adaptation process per step, each with
  3 internal updates (an RK3-like strong-stability scheme over ``dt_1``);
* one nonlinear iteration of the advection process over ``dt_2``
  (consistency of the process splitting wants ``dt_2 = M * dt_1``);
* the smoothing operator ``S`` at the end of the step.

With ``approximate_c=True`` it runs the approximate nonlinear iteration of
Sec. 4.2.2 instead: the first internal update of every iteration reuses
the *stale* ``C`` bundle cached from the previous iteration — the paper's
``C(psi^{i-2})``; the only bundles a 2-collective schedule ever has
available are ``C(eta_1)`` and ``C((psi+eta_2)/2)`` of the previous
iteration, and the latter equals ``C(psi^{i-2}) + O(dt_1)``, so that is
what is cached.  The ``c_calls`` counter lets tests assert the 3-vs-2
frequency claim directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.constants import DEFAULT_PARAMETERS, ModelParameters
from repro.core.tendencies import TendencyEngine
from repro.core.workspace import StateRing, Workspace
from repro.kernels import KernelSet
from repro.obs.spans import traced
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import smoothers_for
from repro.operators.vertical import VerticalDiagnostics
from repro.state.variables import ModelState, state_rows

#: Ghost width of the serial working arrays: the smoothing radius (2)
#: dominates the unit stencil radius of the tendency terms.
SERIAL_GHOST_Y = 2

#: A forcing hook: called as ``forcing(state, geom, dt)`` after the
#: dynamics of each step, mutating the state in place (e.g. Held-Suarez).
ForcingFn = Callable[[ModelState, WorkingGeometry, float], None]


@dataclass
class SerialCore:
    """Reference implementation of the dynamical core on one rank."""

    grid: LatLonGrid
    sigma: SigmaLevels | None = None
    params: ModelParameters = DEFAULT_PARAMETERS
    approximate_c: bool = False
    forcing: ForcingFn | None = None
    #: kernel tier: ``"reference"`` (the oracle) or ``"fused"`` (the
    #: compiled C kernels of :mod:`repro.kernels`; bit-identical with
    #: per-call fallback inside the kernel object)
    kernel_tier: str = "reference"

    engine: TendencyEngine = field(init=False, repr=False)
    c_calls: int = field(init=False, default=0)
    steps_taken: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.sigma is None:
            self.sigma = SigmaLevels.uniform(self.grid.nz)
        geom = WorkingGeometry.build_global(
            self.grid, self.sigma, gy=SERIAL_GHOST_Y, gz=0
        )
        self.ws = Workspace()
        self.kernels = KernelSet(self.kernel_tier)
        self.engine = TendencyEngine(
            geom, self.params, ws=self.ws, kernels=self.kernels
        )
        #: an update writes the owned rows; the pole fill after it the rest
        owned = self.engine.slab(geom.gy, geom.shape2d[0] - geom.gy)
        self._update = partial(self.engine.update, slab=owned)
        self._vd_stale: VerticalDiagnostics | None = None
        self._ring = StateRing(self.ws, geom.shape3d)
        self._smoothers = smoothers_for(self.params)

    # ---- working-array padding ----------------------------------------------
    @property
    def geom(self) -> WorkingGeometry:
        return self.engine.geom

    def pad(self, state: ModelState, out: ModelState | None = None) -> ModelState:
        """Interior (physical) state -> ghost-extended working state, in
        ``out`` if given (every cell is written) or a new one."""
        g = self.geom
        w = ModelState.zeros(g.shape3d) if out is None else out
        state.copy_into(state_rows(w, slice(g.gy, -g.gy)))
        self.engine.fill_physical_ghosts(w)
        return w

    def strip(self, wstate: ModelState) -> ModelState:
        """Working state -> interior copy."""
        gy = self.geom.gy
        return state_rows(wstate, slice(gy, -gy)).copy()

    def restart(self) -> None:
        """Zero what a run counts and drop the stale ``C`` bundle (a run
        has no previous step); geometry, kernels, pools and ring are kept.
        Every :meth:`run` starts here, as a rank program's ``advance``
        starts at ``RankContext.restart``."""
        self.ws.give_vd(self._vd_stale)
        self._vd_stale = None
        self.c_calls = 0
        self.steps_taken = 0

    # ---- the C operator with frequency accounting ------------------------------
    def _vertical_fresh(self, state: ModelState) -> VerticalDiagnostics:
        self.c_calls += 1
        # the previously cached bundle is dead by the time a fresh C is
        # requested (verified for both the exact and approximate
        # schedules): recycle its buffers before taking new ones
        stale, self._vd_stale = self._vd_stale, None
        self.ws.give_vd(stale)
        vd = self.engine.vertical(state)
        self._vd_stale = vd
        return vd

    # ---- one nonlinear adaptation iteration --------------------------------------
    @traced("adaptation-iteration", "tendency")
    def _adaptation_iteration(self, psi: ModelState) -> ModelState:
        """One nonlinear iteration: three internal updates over ``dt_1``.

        The iterates rotate through the state ring (``scratch`` never
        returns a live state, so no update reads a buffer it is writing).
        """
        eng = self.engine
        ring = self._ring
        dt1 = self.params.dt_adaptation

        if self.approximate_c and self._vd_stale is not None:
            vd1 = self._vd_stale  # the stale bundle: C(psi^{i-2}) + O(dt1)
        else:
            vd1 = self._vertical_fresh(psi)
        eta1 = self._update("adaptation", psi, psi, vd1, dt1, ring.scratch(psi))
        eng.fill_physical_ghosts(eta1)

        # the second update lands as the midpoint (psi + eta2) / 2 — the
        # state the third one evaluates; eta2 itself is never needed
        vd2 = self._vertical_fresh(eta1)
        mid = self._update(
            "adaptation", eta1, psi, vd2, dt1, ring.scratch(psi, eta1),
            midpoint=True,
        )
        eng.fill_physical_ghosts(mid)

        vd3 = self._vertical_fresh(mid)
        eta3 = self._update(
            "adaptation", mid, psi, vd3, dt1, ring.scratch(psi, mid)
        )
        eng.fill_physical_ghosts(eta3)
        return eta3

    # ---- one full model step ----------------------------------------------------
    @traced("step", "step")
    def step(self, xi: ModelState) -> ModelState:
        """Advance one step of Algorithm 1 on a *working* state."""
        eng = self.engine
        ring = self._ring
        dt2 = self.params.dt_advection

        psi = xi
        for _ in range(self.params.m_iterations):
            psi = self._adaptation_iteration(psi)

        # advection with the sigma-dot bundle frozen from the adaptation
        vd = self._vd_stale
        zeta1 = self._update("advection", psi, psi, vd, dt2, ring.scratch(psi))
        eng.fill_physical_ghosts(zeta1)
        mid = self._update(
            "advection", zeta1, psi, vd, dt2, ring.scratch(psi, zeta1),
            midpoint=True,
        )
        eng.fill_physical_ghosts(mid)
        zeta3 = self._update(
            "advection", mid, psi, vd, dt2, ring.scratch(psi, mid)
        )
        eng.fill_physical_ghosts(zeta3)

        out = self.kernels.smooth_state_into(
            zeta3, self.params, ring.scratch(zeta3), self.ws, self._smoothers
        )
        eng.fill_physical_ghosts(out)

        if self.forcing is not None:
            self.forcing(out, self.geom, dt2)
            eng.fill_physical_ghosts(out)

        self.steps_taken += 1
        return out

    # ---- multi-step driver --------------------------------------------------------
    def run(
        self,
        state0: ModelState,
        nsteps: int,
        monitor: Callable[[int, ModelState], None] | None = None,
    ) -> ModelState:
        """Run ``nsteps`` from the interior state ``state0``; returns the
        interior final state.  ``monitor(step, interior_state)`` is called
        after every step if given.  Counters count this run only."""
        self.restart()
        w = self.pad(state0, self._ring.scratch())
        for k in range(nsteps):
            w = self.step(w)
            if not np.isfinite(w.U).all():
                raise FloatingPointError(f"core blew up at step {k + 1}")
            if monitor is not None:
                monitor(k + 1, self.strip(w))
        return self.strip(w)
