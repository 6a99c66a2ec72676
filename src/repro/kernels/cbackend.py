"""Build and drive the compiled C kernels via ctypes.

The C source (:mod:`repro.kernels.csrc`) is compiled at first use with the
system C compiler into a shared object cached under a content-addressed
path (sha256 of source + flags), written with an atomic rename so
concurrent ranks / process-backend children race safely.  No third-party
packages are involved: ``cc``/``gcc`` + ``ctypes`` only.  When no working
compiler exists, :func:`load_library` raises :class:`KernelBuildError` and
the dispatch layer falls back to the next backend.

``-ffp-contract=off`` is mandatory: FMA contraction would change rounding
and break the bit-identity contract with the reference tier.  The first
flag set adds ``-march=native`` so the division-bound stencil loops get
the widest SIMD divides the host has; since every generated op is still a
plain IEEE ``+ - * /``/``sqrt`` (FMA stays disabled), results do not
depend on the vector width.  Hosts whose compiler rejects the flag fall
through to the portable set.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

from repro.kernels.csrc import C_SOURCE

#: flag sets tried in order; each is content-addressed separately
CFLAGS_SETS = (
    ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off"),
    ("-O3", "-fPIC", "-shared", "-ffp-contract=off"),
)
#: the portable flags (kept as the stable name for tests/docs)
CFLAGS = CFLAGS_SETS[-1]


class KernelBuildError(RuntimeError):
    """The C kernel library could not be built or loaded."""


_LIB: ctypes.CDLL | None = None
_LIB_ERROR: Exception | None = None


def _cache_dir() -> str:
    d = os.environ.get("REPRO_KERNELS_CACHE")
    if not d:
        d = os.path.join(tempfile.gettempdir(), "repro-kernels")
    os.makedirs(d, exist_ok=True)
    return d


def _build_so() -> str:
    """Compile the kernel library (or reuse the content-addressed cache)."""
    last_err: Exception | None = None
    for cflags in CFLAGS_SETS:
        tag = hashlib.sha256(
            (C_SOURCE + "|" + " ".join(cflags)).encode()
        ).hexdigest()[:16]
        so_path = os.path.join(_cache_dir(), f"repro_kernels_{tag}.so")
        if os.path.exists(so_path):
            return so_path
        workdir = tempfile.mkdtemp(dir=_cache_dir())
        c_path = os.path.join(workdir, "kernels.c")
        tmp_so = os.path.join(workdir, "kernels.so")
        with open(c_path, "w") as fh:
            fh.write(C_SOURCE)
        for cc in ("cc", "gcc", "clang"):
            try:
                subprocess.run(
                    [cc, *cflags, c_path, "-o", tmp_so, "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                last_err = exc
                continue
            os.replace(tmp_so, so_path)  # atomic: concurrent builders converge
            return so_path
    raise KernelBuildError(f"no working C compiler: {last_err}")


_VP = ctypes.c_void_p
_L = ctypes.c_long
_D = ctypes.c_double
_I = ctypes.c_int

#: argtypes per exported kernel (pointers are passed as raw addresses)
_SIGNATURES = {
    "smooth_full": [_VP] * 3 + [_L] * 6 + [_D] * 3 + [_I] * 2,
    "advection": [_VP] * 12 + [_D] * 2 + [_L] * 4 + [_VP] * 9,
    "adaptation": [_VP] * 15 + [_D] * 5 + [_L] * 4 + [_VP] * 3,
    "vertical": [_VP] * 9 + [_D] * 3 + [_L] * 4 + [_VP] * 7,
}


def load_library() -> ctypes.CDLL:
    """The compiled kernel library (memoised; raises KernelBuildError)."""
    global _LIB, _LIB_ERROR
    if _LIB is not None:
        return _LIB
    if _LIB_ERROR is not None:
        raise KernelBuildError(str(_LIB_ERROR))
    try:
        lib = ctypes.CDLL(_build_so())
    except (KernelBuildError, OSError) as exc:
        _LIB_ERROR = exc
        raise KernelBuildError(str(exc)) from exc
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
    _LIB = lib
    return lib


def c_available() -> bool:
    """Whether the C backend can be (or already was) built."""
    try:
        load_library()
        return True
    except KernelBuildError:
        return False


def _p(a: np.ndarray) -> int:
    if a.strides[-1] != 8 or a.dtype != np.float64:
        raise ValueError("kernel arrays must be unit-x-stride float64")
    return a.ctypes.data


def plane_stride(*arrays: np.ndarray) -> int | None:
    """The common plane stride (in elements) of a kernel call's arrays, or
    ``None`` when they break the array contract of :mod:`repro.kernels.csrc`.

    Accepted: float64, unit x-stride, row stride ``nx``, and one plane
    stride shared by every 3-D array — i.e. C-contiguous arrays and
    row-slab views ``a[:, lo:hi, :]`` of equally tall C-contiguous arrays.
    """
    ps = None
    for a in arrays:
        nx = a.shape[-1]
        if (
            a.dtype != np.float64
            or a.ndim not in (2, 3)
            or a.strides[-1] != 8
            or (a.shape[-2] > 1 and a.strides[-2] != 8 * nx)
        ):
            return None
        if a.ndim == 3 and a.shape[0] > 1:
            # whole rows apart, so that scratch sliced out of equally tall
            # buffers (dispatch.RowWindowPool) can share the stride
            if a.strides[0] % (8 * nx) or a.strides[0] < 8 * nx * a.shape[1]:
                return None
            if ps is None:
                ps = a.strides[0] // 8
            elif ps != a.strides[0] // 8:
                return None
    if ps is None:  # only 2-D / single-plane arrays: any stride will do
        a = arrays[0]
        ps = a.shape[-2] * a.shape[-1]
    return ps


def smooth_full_c(
    lib, a: np.ndarray, out: np.ndarray, scratch: np.ndarray,
    beta_x: float, beta_y: float, cross: bool,
    ps: int | None = None, rows: tuple[int, int] | None = None,
) -> None:
    """One field's full smoothing, bit-identical to ``full_into``.

    ``ps`` is the arrays' common plane stride (default: worked out here);
    only output rows ``rows`` (default: all) are written.
    """
    if ps is None:
        ps = plane_stride(a, scratch, out)
        if ps is None:
            raise ValueError("arrays break the kernel array contract")
    ny, nx = a.shape[-2], a.shape[-1]
    nl = 1 if a.ndim == 2 else a.shape[0]
    j0, j1 = rows or (0, ny)
    lib.smooth_full(
        _p(a), _p(scratch), _p(out),
        nl, ny, nx, ps, j0, j1,
        beta_x / 16.0, beta_y / 16.0, beta_x * beta_y / 256.0,
        1 if beta_y else 0, 1 if cross else 0,
    )


def advection_c(
    lib, U, V, Phi, pf, sdot, rows, dsig, dlam, dth, scratch, tU, tV, tPhi,
    ps: int,
) -> None:
    """The full advection tendency (negated), bit-identical to the ws path.

    ``rows`` is the dict of flat per-row metric arrays; ``scratch`` a dict
    of pooled buffers (vel/vs/flux 3-D, sstag/fbar interface-sized,
    p2d a (3, ny, nx) block for the k-invariant pf staggers); ``ps`` the
    plane stride shared by every 3-D array, scratch included.
    """
    nz, ny, nx = U.shape
    lib.advection(
        _p(U), _p(V), _p(Phi), _p(pf), _p(sdot),
        _p(rows["sin_c"]), _p(rows["sin_v"]),
        _p(rows["pre_c"]), _p(rows["pre_v"]),
        _p(rows["tas_c"]), _p(rows["tas_v"]),
        _p(dsig), dlam, dth,
        nz, ny, nx, ps,
        _p(scratch["vel"]),
        _p(scratch["vs"]), _p(scratch["flux"]),
        _p(scratch["sstag"]), _p(scratch["fbar"]),
        _p(scratch["p2d"]),
        _p(tU), _p(tV), _p(tPhi),
    )


def adaptation_c(
    lib, U, V, Phi, phi_p, w_if, col_sum, pf, pes, baro, rows,
    a, dlam, dth, b, coeff, tU, tV, tPhi, ps: int,
) -> None:
    """The U/V/Phi adaptation tendencies (psa part stays in numpy)."""
    nz, ny, nx = U.shape
    lib.adaptation(
        _p(U), _p(V), _p(Phi), _p(phi_p), _p(w_if), _p(col_sum),
        _p(pf), _p(pes), _p(baro),
        _p(rows["a_sin_c"]), _p(rows["cot_c"]), _p(rows["omcos_c"]),
        _p(rows["cot_v"]), _p(rows["omcos_v"]), _p(rows["sig_mid"]),
        a, dlam, dth, b, coeff,
        nz, ny, nx, ps,
        _p(tU), _p(tV), _p(tPhi),
    )


def vertical_c(
    lib, U, V, Phi, pf, rows, dlam, dth, bgrav,
    div_p, col_sum, pw, w, sdot, phi_prime, s2d, ps: int,
) -> None:
    """The ``C`` diagnostics (serial / identity-column case).

    ``s2d`` is a (3, ny, nx) scratch block for the k-invariant 2-D
    factors (staggered ``pf`` and ``bgrav/pf``).
    """
    nz, ny, nx = U.shape
    lib.vertical(
        _p(U), _p(V), _p(Phi), _p(pf),
        _p(rows["sin_v"]), _p(rows["a_sin_c"]),
        _p(rows["dsig"]), _p(rows["ratio"]), _p(rows["sig_if"]),
        dlam, dth, bgrav,
        nz, ny, nx, ps,
        _p(div_p), _p(col_sum), _p(pw), _p(w), _p(sdot), _p(phi_prime),
        _p(s2d),
    )
