"""The prognostic state container ``xi = (U, V, Phi, p'_sa)``.

``U``, ``V``, ``Phi`` are 3-D fields of shape ``(nz, ny, nx)``; ``p'_sa``
is the 2-D surface-pressure perturbation of shape ``(ny, nx)``.  The
container supports exactly the linear-space operations Algorithm 1 /
Algorithm 2 need (``psi + dt * tendency``, midpoint averaging) plus
packing helpers for the simulated-MPI halo exchanges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_NAMES = ("U", "V", "Phi", "psa")


@dataclass
class ModelState:
    """One instant of the transformed prognostic variables.

    The arithmetic operators create new states (functional style used by
    the serial reference core); the ``*_inplace`` methods mutate, used on
    the hot paths of the distributed cores.
    """

    U: np.ndarray
    V: np.ndarray
    Phi: np.ndarray
    psa: np.ndarray

    def __post_init__(self) -> None:
        if self.U.ndim != 3 or self.V.ndim != 3 or self.Phi.ndim != 3:
            raise ValueError("U, V, Phi must be 3-D (nz, ny, nx)")
        if self.psa.ndim != 2:
            raise ValueError("p'_sa must be 2-D (ny, nx)")
        if not (self.U.shape == self.V.shape == self.Phi.shape):
            raise ValueError(
                f"inconsistent 3-D shapes: "
                f"{self.U.shape} {self.V.shape} {self.Phi.shape}"
            )
        if self.psa.shape != self.U.shape[1:]:
            raise ValueError(
                f"p'_sa shape {self.psa.shape} != horizontal shape {self.U.shape[1:]}"
            )

    # ---- constructors --------------------------------------------------
    @classmethod
    def zeros(cls, shape3d: tuple[int, int, int], dtype=np.float64) -> "ModelState":
        """All-zero state for a ``(nz, ny, nx)`` shape."""
        nz, ny, nx = shape3d
        return cls(
            U=np.zeros((nz, ny, nx), dtype),
            V=np.zeros((nz, ny, nx), dtype),
            Phi=np.zeros((nz, ny, nx), dtype),
            psa=np.zeros((ny, nx), dtype),
        )

    @classmethod
    def random(
        cls,
        shape3d: tuple[int, int, int],
        rng: np.random.Generator,
        amplitude: float = 1.0,
    ) -> "ModelState":
        """Smooth-ish random state (useful for operator tests)."""
        nz, ny, nx = shape3d
        def f3():
            return amplitude * rng.standard_normal((nz, ny, nx))
        return cls(U=f3(), V=f3(), Phi=f3(),
                   psa=amplitude * rng.standard_normal((ny, nx)))

    # ---- shape ----------------------------------------------------------
    @property
    def shape3d(self) -> tuple[int, int, int]:
        return self.U.shape

    def copy(self) -> "ModelState":
        return ModelState(
            self.U.copy(), self.V.copy(), self.Phi.copy(), self.psa.copy()
        )

    # ---- linear-space operations -----------------------------------------
    def __add__(self, other: "ModelState") -> "ModelState":
        return ModelState(
            self.U + other.U, self.V + other.V,
            self.Phi + other.Phi, self.psa + other.psa,
        )

    def __sub__(self, other: "ModelState") -> "ModelState":
        return ModelState(
            self.U - other.U, self.V - other.V,
            self.Phi - other.Phi, self.psa - other.psa,
        )

    def __mul__(self, scalar: float) -> "ModelState":
        return ModelState(
            self.U * scalar, self.V * scalar,
            self.Phi * scalar, self.psa * scalar,
        )

    __rmul__ = __mul__

    def axpy(self, alpha: float, other: "ModelState") -> "ModelState":
        """``self + alpha * other`` as a new state."""
        return ModelState(
            self.U + alpha * other.U,
            self.V + alpha * other.V,
            self.Phi + alpha * other.Phi,
            self.psa + alpha * other.psa,
        )

    def axpy_inplace(self, alpha: float, other: "ModelState") -> "ModelState":
        """``self += alpha * other`` (mutating); returns self."""
        self.U += alpha * other.U
        self.V += alpha * other.V
        self.Phi += alpha * other.Phi
        self.psa += alpha * other.psa
        return self

    def axpy_into(
        self, alpha: float, other: "ModelState", out: "ModelState"
    ) -> "ModelState":
        """Allocation-free :meth:`axpy` into the preallocated ``out``.

        Bit-identical to ``self + alpha * other``; ``out`` may alias
        ``other`` but not ``self``.
        """
        for name in FIELD_NAMES:
            s, o, t = getattr(self, name), getattr(other, name), getattr(out, name)
            np.multiply(o, alpha, out=t)
            np.add(s, t, out=t)
        return out

    def copy_into(self, out: "ModelState") -> "ModelState":
        """Copy this state's fields into the preallocated ``out``."""
        for name in FIELD_NAMES:
            np.copyto(getattr(out, name), getattr(self, name))
        return out

    @staticmethod
    def midpoint(a: "ModelState", b: "ModelState") -> "ModelState":
        """``(a + b) / 2`` — the third internal update of Algorithm 1."""
        return ModelState(
            0.5 * (a.U + b.U), 0.5 * (a.V + b.V),
            0.5 * (a.Phi + b.Phi), 0.5 * (a.psa + b.psa),
        )

    @staticmethod
    def midpoint_into(
        a: "ModelState", b: "ModelState", out: "ModelState"
    ) -> "ModelState":
        """Allocation-free :meth:`midpoint`; ``out`` may alias ``a`` or ``b``."""
        for name in FIELD_NAMES:
            x, y, t = getattr(a, name), getattr(b, name), getattr(out, name)
            np.add(x, y, out=t)
            np.multiply(t, 0.5, out=t)
        return out

    # ---- field access ------------------------------------------------------
    def fields(self) -> dict[str, np.ndarray]:
        """Name -> array mapping over all four components."""
        return {"U": self.U, "V": self.V, "Phi": self.Phi, "psa": self.psa}

    # ---- metrics -------------------------------------------------------------
    def max_abs(self) -> float:
        """Max absolute value over all components (stability check)."""
        return max(
            float(np.max(np.abs(self.U))),
            float(np.max(np.abs(self.V))),
            float(np.max(np.abs(self.Phi))),
            float(np.max(np.abs(self.psa))),
        )

    def allclose(
        self, other: "ModelState", rtol: float = 1e-10, atol: float = 1e-12
    ) -> bool:
        return (
            np.allclose(self.U, other.U, rtol=rtol, atol=atol)
            and np.allclose(self.V, other.V, rtol=rtol, atol=atol)
            and np.allclose(self.Phi, other.Phi, rtol=rtol, atol=atol)
            and np.allclose(self.psa, other.psa, rtol=rtol, atol=atol)
        )

    def max_difference(self, other: "ModelState") -> float:
        """Max absolute componentwise difference."""
        return max(
            float(np.max(np.abs(self.U - other.U))),
            float(np.max(np.abs(self.V - other.V))),
            float(np.max(np.abs(self.Phi - other.Phi))),
            float(np.max(np.abs(self.psa - other.psa))),
        )

    def isfinite(self) -> bool:
        """Whether every entry of every component is finite."""
        return bool(
            np.isfinite(self.U).all()
            and np.isfinite(self.V).all()
            and np.isfinite(self.Phi).all()
            and np.isfinite(self.psa).all()
        )

    # ---- (de)serialization for message passing --------------------------------
    def pack(self) -> np.ndarray:
        """Flatten all components into one contiguous float64 vector."""
        return np.concatenate(
            [self.U.ravel(), self.V.ravel(), self.Phi.ravel(), self.psa.ravel()]
        )

    @classmethod
    def unpack(cls, buf: np.ndarray, shape3d: tuple[int, int, int]) -> "ModelState":
        """Inverse of :meth:`pack` for a known local shape."""
        nz, ny, nx = shape3d
        n3 = nz * ny * nx
        n2 = ny * nx
        if buf.size != 3 * n3 + n2:
            raise ValueError(f"buffer size {buf.size} != expected {3 * n3 + n2}")
        U = buf[:n3].reshape(nz, ny, nx).copy()
        V = buf[n3:2 * n3].reshape(nz, ny, nx).copy()
        Phi = buf[2 * n3:3 * n3].reshape(nz, ny, nx).copy()
        psa = buf[3 * n3:].reshape(ny, nx).copy()
        return cls(U, V, Phi, psa)

    @property
    def nbytes(self) -> int:
        """Total payload size of the four components in bytes."""
        return self.U.nbytes + self.V.nbytes + self.Phi.nbytes + self.psa.nbytes


def state_rows(state: ModelState, rows: slice) -> ModelState:
    """Row-slab view of a state (no copies)."""
    return ModelState(**{n: a[..., rows, :] for n, a in state.fields().items()})
