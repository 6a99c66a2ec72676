"""Per-rank preallocated scratch buffers for the numerical hot path.

The seed implementation of the cores is functional: every internal update
allocates fresh temporaries (``np.zeros`` / ``np.empty_like`` / binary
ufuncs without ``out=``), which at production step rates makes the
allocator — not the floating-point units — the bottleneck of the serial
core and of every rank program.  A :class:`Workspace` replaces those
per-step allocations with a reusable buffer pool:

* :meth:`Workspace.take` / :meth:`Workspace.give` recycle arrays by
  ``(shape, dtype)``; steady state performs **zero** heap allocations on
  the step hot path (the ``fresh_allocations`` / ``reuses`` counters make
  this measurable, and the benchmark harness reports them);
* :class:`StateRing` manages the handful of whole-:class:`ModelState`
  buffers an integrator rotates through one model step, with explicit
  liveness lists so a buffer is never handed out while its data is still
  needed;
* :func:`roll_into` is the allocation-free, bit-identical replacement for
  the ``np.roll`` calls that dominate the stencil operators.

Every workspace code path is required to be **bit-identical** to the seed
numerics: the same floating-point operations in the same order, only with
preallocated output buffers.  ``tests/test_workspace.py`` asserts exact
(``==``) equality of multi-step trajectories against the seed path for
the serial, original-yz, original-xy and CA cores.
"""
from __future__ import annotations

import numpy as np

from repro.operators.shifts import roll_into  # noqa: F401  (re-export)
from repro.operators.vertical import VerticalDiagnostics
from repro.state.variables import ModelState


class Workspace:
    """Reusable scratch-buffer pool keyed by ``(shape, dtype)``.

    One workspace per rank (or per serial core); buffers are taken for the
    duration of one kernel evaluation and given back when dead, so the
    pool size converges to the peak concurrent working set of a step.
    """

    def __init__(self) -> None:
        self._pool: dict[tuple, list[np.ndarray]] = {}
        self._pooled_ids: set[int] = set()
        self.fresh_allocations = 0
        self.reuses = 0

    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple:
        return (tuple(shape), np.dtype(dtype).str)

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A buffer of the given shape; recycled when one is free."""
        bucket = self._pool.get(self._key(shape, dtype))
        if bucket:
            arr = bucket.pop()
            self._pooled_ids.discard(id(arr))
            self.reuses += 1
            return arr
        self.fresh_allocations += 1
        return np.empty(shape, dtype)

    def give(self, *arrays: np.ndarray | None) -> None:
        """Return buffers to the pool.  ``None`` entries are skipped."""
        for arr in arrays:
            if arr is None:
                continue
            if arr.base is not None:
                raise ValueError("only owning arrays may be pooled (got a view)")
            if id(arr) in self._pooled_ids:
                raise ValueError("double give of the same buffer")
            self._pooled_ids.add(id(arr))
            self._pool.setdefault(self._key(arr.shape, arr.dtype), []).append(arr)

    # ---- whole-state helpers ------------------------------------------------
    def take_state(self, shape3d: tuple[int, int, int]) -> ModelState:
        """A pooled :class:`ModelState` of working shape ``shape3d``."""
        nz, ny, nx = shape3d
        return ModelState(
            U=self.take((nz, ny, nx)),
            V=self.take((nz, ny, nx)),
            Phi=self.take((nz, ny, nx)),
            psa=self.take((ny, nx)),
        )

    def give_state(self, state: ModelState) -> None:
        self.give(state.U, state.V, state.Phi, state.psa)

    def take_vd(self, shape3d: tuple[int, int, int]):
        """A pooled ``C`` bundle of working shape ``shape3d`` (contents
        undefined); the counterpart of :meth:`give_vd`."""
        nz, ny, nx = shape3d
        return VerticalDiagnostics(
            div_p=self.take((nz, ny, nx)),
            column_sum=self.take((ny, nx)),
            pw_iface=self.take((nz + 1, ny, nx)),
            w_iface=self.take((nz + 1, ny, nx)),
            sdot_iface=self.take((nz + 1, ny, nx)),
            phi_prime=self.take((nz, ny, nx)),
            p_fac=self.take((ny, nx)),
        )

    def give_vd(self, vd) -> None:
        """Recycle a dead :class:`VerticalDiagnostics` bundle's buffers.

        Tolerates bundles produced by the allocating paths (e.g. the scan
        variant of ``C``), whose members may be views: only owning arrays
        are pooled.
        """
        if vd is None:
            return
        for arr in (
            vd.div_p, vd.column_sum, vd.pw_iface, vd.w_iface,
            vd.sdot_iface, vd.phi_prime, vd.p_fac,
        ):
            if arr.base is None:
                self.give(arr)

    @property
    def pooled_bytes(self) -> int:
        """Total bytes currently parked in the pool."""
        return sum(a.nbytes for bucket in self._pool.values() for a in bucket)


class StateRing:
    """A fixed rotation of working :class:`ModelState` buffers.

    The integrators' internal updates need at most four concurrently live
    states (base, two iterates, output); ``scratch(*live)`` returns a ring
    member that is not among the live ones, so the rotation reuses dead
    iterates' storage with no allocation and no aliasing.
    """

    def __init__(self, ws: Workspace, shape3d: tuple[int, int, int], size: int = 6):
        self._states = [ws.take_state(shape3d) for _ in range(size)]

    @classmethod
    def of(cls, states) -> "StateRing":
        """A ring over ready-made states (instead of pooled buffers)."""
        ring = cls.__new__(cls)
        ring._states = list(states)
        return ring

    def scratch(self, *live: ModelState | None) -> ModelState:
        for s in self._states:
            if all(s is not l for l in live):
                return s
        raise RuntimeError("state ring exhausted; widen the ring")
