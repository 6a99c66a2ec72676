"""The smoothing operator ``S`` and its former/later split (Sec. 4.3.2).

``S(xi) = (P1(U), P1(V), P2(Phi), P2(p'_sa))`` with the 4th-difference
smoothers

.. math::

    P_1(\\varphi) = \\varphi - \\frac{\\beta}{2^4} \\delta_\\lambda^4 \\varphi,
    \\qquad
    P_2(\\varphi) = \\varphi - \\frac{\\beta}{2^4}
        (\\delta_\\lambda^4 + \\delta_\\theta^4) \\varphi
        + \\frac{\\beta^2}{2^8} \\delta_\\theta^4 \\delta_\\lambda^4 \\varphi .

Both are linear in the contributions of the five y-offsets ``m = -2..2``
(Eq. 14), which is what enables the split ``S = S2 o S1``: *former
smoothing* applies, before the halo exchange, the offsets whose rows are
locally available; *later smoothing* adds the deferred offsets once the
exchanged rows arrive.  :class:`FieldSmoother` provides the full operator
and arbitrary offset subsets; the communication-avoiding core composes the
two stages from them.

Stability extension (documented in DESIGN.md): the paper's ``P1`` damps
``U``/``V`` along longitude only, which leaves meridional 2-grid noise in
the winds undamped; with our (non-IAP) advection discretization that noise
grows in long Held-Suarez runs.  ``FieldSmoother`` therefore supports an
optional ``beta_y`` 4th-difference term for the wind family
(``ModelParameters.smoothing_beta_y_uv``; set it to 0 for the paper-exact
operator).  The stencil extent stays within +-2 in x and y, so halo sizing
and the communication model are unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import ModelParameters
from repro.obs.spans import traced
from repro.operators.shifts import sx, sx_into, sy, sy_into
from repro.state.variables import ModelState

#: 4th-difference weights for offsets -2..+2.
DELTA4_COEFFS = (1.0, -4.0, 6.0, -4.0, 1.0)

#: Offset subsets of the split (paper notation; ``m`` = contribution of
#: row ``j + m``):  S_L needs only north (smaller-j) rows, S_R only south.
OFFSETS_FULL = (-2, -1, 0, 1, 2)
OFFSETS_L = (0, -1, -2)       # S~_L:  own + north rows
OFFSETS_L_PRIME = (1, 2)      # S~'_L: the deferred south rows
OFFSETS_R = (0, 1, 2)         # S~_R:  own + south rows
OFFSETS_R_PRIME = (-1, -2)    # S~'_R: the deferred north rows


def delta4_x(a: np.ndarray) -> np.ndarray:
    """4th difference along longitude."""
    return sx(a, -2) - 4.0 * sx(a, -1) + 6.0 * a - 4.0 * sx(a, 1) + sx(a, 2)


def delta4_y(a: np.ndarray) -> np.ndarray:
    """4th difference along latitude."""
    return sy(a, -2) - 4.0 * sy(a, -1) + 6.0 * a - 4.0 * sy(a, 1) + sy(a, 2)


def _delta4_into(a: np.ndarray, out: np.ndarray, tmp: np.ndarray, shift) -> np.ndarray:
    """``delta4_x`` / ``delta4_y`` into ``out`` using scratch ``tmp``.

    Same binary-operation sequence as the allocating form, hence
    bit-identical; ``shift`` is :func:`~repro.operators.shifts.sx_into` or
    :func:`~repro.operators.shifts.sy_into`.
    """
    shift(a, -2, out)
    shift(a, -1, tmp)
    np.multiply(tmp, 4.0, out=tmp)
    np.subtract(out, tmp, out=out)
    np.multiply(a, 6.0, out=tmp)
    np.add(out, tmp, out=out)
    shift(a, 1, tmp)
    np.multiply(tmp, 4.0, out=tmp)
    np.subtract(out, tmp, out=out)
    shift(a, 2, tmp)
    np.add(out, tmp, out=out)
    return out


def delta4_x_into(a: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`delta4_x` (bit-identical)."""
    return _delta4_into(a, out, tmp, sx_into)


def delta4_y_into(a: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`delta4_y` (bit-identical)."""
    return _delta4_into(a, out, tmp, sy_into)


@dataclass(frozen=True)
class FieldSmoother:
    """One field family's smoother, decomposable by y-offset.

    ``cross=True`` gives the paper's ``P2`` (with the
    ``beta^2/2^8 delta_theta^4 delta_lambda^4`` cross term); ``cross=False``
    with ``beta_y=0`` gives the paper's ``P1``.
    """

    beta_x: float
    beta_y: float
    cross: bool

    def full(self, a: np.ndarray) -> np.ndarray:
        """Apply the complete smoother."""
        out = a - (self.beta_x / 16.0) * delta4_x(a)
        if self.beta_y:
            out = out - (self.beta_y / 16.0) * delta4_y(a)
        if self.cross:
            out = out + (
                self.beta_x * self.beta_y / 256.0
            ) * delta4_y(delta4_x(a))
        return out

    def full_into(self, a: np.ndarray, out: np.ndarray, ws) -> np.ndarray:
        """Allocation-free :meth:`full` into ``out`` (bit-identical).

        Reuses the ``delta4_x`` evaluation for the cross term — the seed
        path computes it twice; the value (and therefore the result) is
        identical, only the redundant work is dropped.
        """
        dx = ws.take(a.shape)
        tmp = ws.take(a.shape)
        t2 = ws.take(a.shape)
        delta4_x_into(a, dx, tmp)
        np.multiply(dx, self.beta_x / 16.0, out=out)
        np.subtract(a, out, out=out)
        if self.beta_y:
            delta4_y_into(a, t2, tmp)
            np.multiply(t2, self.beta_y / 16.0, out=t2)
            np.subtract(out, t2, out=out)
        if self.cross:
            delta4_y_into(dx, t2, tmp)
            np.multiply(t2, self.beta_x * self.beta_y / 256.0, out=t2)
            np.add(out, t2, out=out)
        ws.give(dx, tmp, t2)
        return out

    def partial_into(
        self, a: np.ndarray, offsets: tuple[int, ...], out: np.ndarray, ws
    ) -> np.ndarray:
        """``sum_{m in offsets} S~_m(a)`` into ``out`` — one partial
        smoothing stage, scratch from ``ws``.

        ``S~_m`` is the contribution of row ``j + m`` (Eq. 14), each built
        from zero and summed in ``offsets`` order; over all five offsets
        the sum reproduces :meth:`full` (the x-operator commutes with row
        shifts).
        """
        if not offsets:
            raise ValueError("offsets must be non-empty")
        term, shifted, t, tmp = (ws.take(a.shape) for _ in range(4))
        for i, m in enumerate(offsets):
            c, acc = DELTA4_COEFFS[m + 2], term if i else out
            a_m = sy_into(a, m, shifted) if m else a
            acc.fill(0.0)
            if self.beta_y:
                np.multiply(a_m, (self.beta_y / 16.0) * c, out=t)
                np.subtract(acc, t, out=acc)
            if self.cross:
                delta4_x_into(a_m, t, tmp)
                np.multiply(t, (self.beta_x * self.beta_y / 256.0) * c, out=t)
                np.add(acc, t, out=acc)
            if m == 0:
                np.add(acc, a, out=acc)
                delta4_x_into(a, t, tmp)
                np.multiply(t, self.beta_x / 16.0, out=t)
                np.subtract(acc, t, out=acc)
            if i:
                np.add(out, term, out=out)
        ws.give(term, shifted, t, tmp)
        return out

    @property
    def has_y_stencil(self) -> bool:
        """Whether any deferred (non-zero-offset) contribution exists."""
        return bool(self.beta_y)


def smoothers_for(params: ModelParameters) -> dict[str, FieldSmoother]:
    """Per-field smoothers matching ``S`` (plus the stability extension)."""
    beta = params.smoothing_beta
    beta_uv = getattr(params, "smoothing_beta_y_uv", 0.0)
    wind = FieldSmoother(beta_x=beta, beta_y=beta_uv, cross=False)
    scalar = FieldSmoother(beta_x=beta, beta_y=beta, cross=True)
    return {"U": wind, "V": wind, "Phi": scalar, "psa": scalar}


# ---- convenience for the paper-exact standalone operators ------------------

def p1(a: np.ndarray, beta: float) -> np.ndarray:
    """The paper's zonal-only smoother (``U``/``V`` family)."""
    return FieldSmoother(beta_x=beta, beta_y=0.0, cross=False).full(a)


def p2(a: np.ndarray, beta: float) -> np.ndarray:
    """The paper's full smoother (``Phi``/``p'_sa`` family)."""
    return FieldSmoother(beta_x=beta, beta_y=beta, cross=True).full(a)


def smooth_full(
    state: ModelState, beta: float, beta_y_uv: float = 0.0
) -> ModelState:
    """The whole operator ``S`` applied to a state.

    ``beta_y_uv = 0`` reproduces the paper's definition exactly.
    """
    wind = FieldSmoother(beta_x=beta, beta_y=beta_y_uv, cross=False)
    scalar = FieldSmoother(beta_x=beta, beta_y=beta, cross=True)
    return ModelState(
        U=wind.full(state.U),
        V=wind.full(state.V),
        Phi=scalar.full(state.Phi),
        psa=scalar.full(state.psa),
    )


@traced("smoothing", "operator")
def smooth_state(state: ModelState, params: ModelParameters) -> ModelState:
    """``S`` with the per-field smoothers of ``params``."""
    sm = smoothers_for(params)
    return ModelState(
        U=sm["U"].full(state.U),
        V=sm["V"].full(state.V),
        Phi=sm["Phi"].full(state.Phi),
        psa=sm["psa"].full(state.psa),
    )


@traced("smoothing", "operator")
def smooth_state_into(
    state: ModelState,
    params: ModelParameters,
    out: ModelState,
    ws,
    smoothers: dict[str, FieldSmoother] | None = None,
) -> ModelState:
    """Allocation-free :func:`smooth_state` into ``out`` (bit-identical).

    ``out`` must not alias ``state`` (the smoother stencils read
    neighbours of every point they write).
    """
    sm = smoothers or smoothers_for(params)
    sm["U"].full_into(state.U, out.U, ws)
    sm["V"].full_into(state.V, out.V, ws)
    sm["Phi"].full_into(state.Phi, out.Phi, ws)
    sm["psa"].full_into(state.psa, out.psa, ws)
    return out
