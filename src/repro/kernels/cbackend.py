"""Build and drive the compiled C kernels via ctypes.

The C source (:mod:`repro.kernels.csrc`) is compiled at first use with the
system C compiler into a shared object cached under a content-addressed
path (:func:`build_tag`), written with an atomic rename so concurrent
ranks / process-backend children race safely.  No third-party packages
are involved: ``cc``/``gcc`` + ``ctypes`` only.  When no working compiler
exists, :func:`load_library` raises :class:`KernelBuildError` and the
dispatch layer runs the reference operators instead.

``-ffp-contract=off`` is mandatory: FMA *contraction* would change
rounding and break the bit-identity contract with the reference tier.
The first flag set adds ``-march=native``: it widens the SIMD lanes and,
where the host has hardware FMA, lets ``rdiv`` (the one sanctioned FMA
use, see :mod:`repro.kernels.csrc`) replace every inner-loop divide by a
multiply and two fused multiply-adds that return the same correctly
rounded quotient.  Hosts whose compiler rejects the flag fall through to
the portable set, where ``rdiv`` is a plain ``/``: same bits,
divider-bound speed.  ``-fno-math-errno`` only lets ``sqrt`` vectorize
(nothing reads ``errno``); ``-Werror=vla`` keeps scratch out of the
library's own stack — all of it comes from the caller's workspace.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile

import numpy as np

from repro import constants
from repro.kernels.csrc import C_SOURCE

_COMMON_FLAGS = (
    "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno", "-Werror=vla",
)
#: flag sets tried in order; each is content-addressed separately
CFLAGS_SETS = (
    ("-O3", "-march=native", *_COMMON_FLAGS),
    ("-O3", *_COMMON_FLAGS),
)
#: the portable flags (kept as the stable name for tests/docs)
CFLAGS = CFLAGS_SETS[-1]


class KernelBuildError(RuntimeError):
    """The C kernel library could not be built or loaded."""


#: loaded libraries (or the error that stopped the build) per requested
#: flag set; ``None`` keys the default "first set that compiles"
_LIBS: dict[tuple | None, ctypes.CDLL | Exception] = {}


def _cache_dir() -> str:
    d = os.environ.get("REPRO_KERNELS_CACHE")
    if not d:
        d = os.path.join(tempfile.gettempdir(), "repro-kernels")
    os.makedirs(d, exist_ok=True)
    return d


def _cpu_identity() -> str:
    """What ``-march=native`` resolves against on this host."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    return platform.machine() + "|" + platform.processor()


def _compiler_banner(cc: str) -> str:
    """First line of ``cc --version`` (raises if ``cc`` cannot run)."""
    out = subprocess.run(
        [cc, "--version"], check=True, capture_output=True, text=True,
        timeout=30,
    ).stdout
    return out.splitlines()[0] if out else ""


def build_tag(cflags: tuple, banner: str, cpu: str) -> str:
    """Cache key of one build: source, flags, compiler and — for a
    ``-march=native`` build, whose code is only valid on CPUs with the
    same features — the host CPU identity, so a cache that travels
    between hosts never loads instructions the new host lacks."""
    parts = [C_SOURCE, " ".join(cflags), banner]
    if "-march=native" in cflags:
        parts.append(cpu)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _build_so(cflags_sets=None) -> str:
    """Compile the kernel library with the first of ``cflags_sets``
    (default: :data:`CFLAGS_SETS`) that builds, or reuse the cache."""
    last_err: Exception | None = None
    cache = _cache_dir()
    cpu = _cpu_identity()
    banners: dict[str, str] = {}
    for cflags in cflags_sets or CFLAGS_SETS:
        for cc in ("cc", "gcc", "clang"):
            try:
                if cc not in banners:
                    banners[cc] = _compiler_banner(cc)
                tag = build_tag(cflags, banners[cc], cpu)
                so_path = os.path.join(cache, f"repro_kernels_{tag}.so")
                if os.path.exists(so_path):
                    return so_path
                with tempfile.TemporaryDirectory(dir=cache) as workdir:
                    c_path = os.path.join(workdir, "kernels.c")
                    tmp_so = os.path.join(workdir, "kernels.so")
                    with open(c_path, "w") as fh:
                        fh.write(C_SOURCE)
                    subprocess.run(
                        [cc, *cflags, c_path, "-o", tmp_so, "-lm"],
                        check=True, capture_output=True, timeout=120,
                    )
                    os.replace(tmp_so, so_path)  # atomic: builders converge
                return so_path
            except (OSError, subprocess.SubprocessError) as exc:
                last_err = exc
    raise KernelBuildError(f"no working C compiler: {last_err}")


_VP = ctypes.c_void_p
_L = ctypes.c_long
_D = ctypes.c_double
_I = ctypes.c_int

#: the store-mode arguments of a tendency kernel, up to its base and out
#: fields: mode, j0, j1, polar_c, polar_v, dt
_STORE = [_I, _L, _L, _VP, _VP, _D]

#: ``(restype, argtypes)`` per exported function (pointers are passed as
#: raw addresses); the stencil kernels return nonzero for a surface
#: pressure at or below the model top
_SIGNATURES = {
    "smooth_full": (None, [_VP] * 3 + [_L] * 6 + [_D] * 3 + [_I] * 2),
    "advection": (
        _I, [_VP] * 12 + [_D] * 4 + [_L] * 4 + [_VP] * 6 + _STORE + [_VP] * 6,
    ),
    "adaptation": (
        _I, [_VP] * 17 + [_D] * 11 + [_L] * 4 + [_VP] * 6 + _STORE + [_VP] * 8,
    ),
    "vertical": (_I, [_VP] * 9 + [_D] * 5 + [_L] * 4 + [_VP] * 8),
    "rdiv_array": (None, [_VP] * 3 + [_L]),
    "division_is_reciprocal_fma": (_I, []),
}


def load_library(cflags: tuple | None = None) -> ctypes.CDLL:
    """The compiled kernel library (memoised; raises KernelBuildError).

    ``cflags`` pins one flag set of :data:`CFLAGS_SETS` instead of "the
    first that compiles" — the seam through which the tests run the
    portable expansion on hosts that accept ``-march=native``.
    """
    lib = _LIBS.get(cflags)
    if lib is None:
        try:
            lib = ctypes.CDLL(_build_so(cflags and (cflags,)))
        except (KernelBuildError, OSError) as exc:
            lib = exc
        else:
            for name, (restype, argtypes) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.restype = restype
                fn.argtypes = argtypes
        _LIBS[cflags] = lib
    if isinstance(lib, Exception):
        raise KernelBuildError(str(lib)) from lib
    return lib


def division_mode(lib: ctypes.CDLL) -> str:
    """Which expansion of ``rdiv`` ``lib`` was compiled with."""
    return "reciprocal-fma" if lib.division_is_reciprocal_fma() else "divide"


def c_available() -> bool:
    """Whether the kernel library can be (or already was) built."""
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


def _check_pressure(bad: int) -> None:
    if bad:
        raise ValueError("surface pressure must exceed the model-top pressure")


def _store_args(store, ny: int, names: tuple[str, ...]) -> list:
    """The store-mode tail of a tendency kernel's argument list: the plain
    tendency on every row without ``store`` (a
    :class:`repro.kernels.dispatch.Store`), else its update on rows
    ``store.rows``."""
    if store is None:
        return [0, 0, ny, None, None, 0.0] + [None] * (2 * len(names))
    j0, j1 = store.rows
    flags = (store.polar_c, store.polar_v)
    if not 0 <= j0 <= j1 <= ny or any(
        f.dtype != np.bool_ or f.shape != (ny,) or not f.flags.c_contiguous
        for f in flags
    ):
        raise ValueError("store rows / polar flags do not fit the arrays")
    return [
        2 if store.midpoint else 1, j0, j1,
        flags[0].ctypes.data, flags[1].ctypes.data, store.dt,
        *(_p(getattr(store.base, n)) for n in names),
        *(_p(getattr(store.out, n)) for n in names),
    ]


def advection_c(
    lib, U, V, Phi, psa, sdot, rows, dlam, dth, tab, rowbuf,
    tU, tV, tPhi, ps: int, store=None,
) -> None:
    """The full advection tendency (negated), bit-identical to the ws path
    — or, with ``store``, the update it feeds (the caller finishes the
    polar rows and ``p'_sa``).

    ``rows`` is the dict of flat per-row metric arrays; ``tab`` the
    ``(TABLE_PLANES, ny, nx)`` table block and ``rowbuf`` the flat
    ``ROW_BUFFERS * nx`` row-buffer block, both pooled scratch; ``ps`` the
    plane stride shared by every 3-D array, the table block included.
    """
    nz, ny, nx = U.shape
    _check_pressure(lib.advection(
        _p(U), _p(V), _p(Phi), _p(psa), _p(sdot),
        _p(rows["sin_c"]), _p(rows["sin_v"]),
        _p(rows["pre_c"]), _p(rows["pre_v"]),
        _p(rows["tas_c"]), _p(rows["tas_v"]),
        _p(rows["dsig"]), dlam, dth, constants.P_REFERENCE, constants.P_TOP,
        nz, ny, nx, ps,
        _p(tab), _p(rowbuf[nx:]), _p(rowbuf),
        _p(tU), _p(tV), _p(tPhi),
        *_store_args(store, ny, ("U", "V", "Phi")),
    ))


def adaptation_c(
    lib, U, V, Phi, psa, t_ref, phi_p, w_if, col_sum, rows,
    a, dlam, dth, coeff, tab, rowbuf, tU, tV, tPhi, tpsa, ps: int,
    store=None,
) -> None:
    """The whole adaptation tendency, ``p'_sa`` part included — or, with
    ``store``, the update it feeds (the caller finishes the polar rows).

    ``t_ref`` is the reference temperature at the surface pressure (the
    one non-integer ``pow``, which stays in numpy); ``tab`` and ``rowbuf``
    are the scratch blocks of :func:`advection_c`.
    """
    nz, ny, nx = U.shape
    _check_pressure(lib.adaptation(
        _p(U), _p(V), _p(Phi), _p(psa), _p(t_ref),
        _p(phi_p), _p(w_if), _p(col_sum),
        _p(rows["sin_v"]), _p(rows["a_sin_c"]),
        _p(rows["a2_sin_c"]), _p(rows["a2_sin2_c"]),
        _p(rows["cot_c"]), _p(rows["omcos_c"]),
        _p(rows["cot_v"]), _p(rows["omcos_v"]), _p(rows["sig_mid"]),
        a, dlam, dth, dlam**2, constants.B_GRAVITY_WAVE, coeff,
        constants.P_REFERENCE, constants.P_TOP, constants.R_DRY,
        constants.K_SA * constants.NU_SA / constants.P_REFERENCE,
        constants.KAPPA_STAR,
        nz, ny, nx, ps,
        _p(tab), _p(rowbuf), _p(tU), _p(tV), _p(tPhi), _p(tpsa),
        *_store_args(store, ny, ("U", "V", "Phi", "psa")),
    ))


def vertical_c(
    lib, U, V, Phi, psa, rows, dlam, dth,
    p_fac, div_p, col_sum, pw, w, sdot, phi_prime, tab, ps: int,
) -> None:
    """The ``C`` diagnostics (serial / identity-column case), ``P``
    included; ``tab`` is the ``(TABLE_PLANES, ny, nx)`` table block."""
    nz, ny, nx = U.shape
    _check_pressure(lib.vertical(
        _p(U), _p(V), _p(Phi), _p(psa),
        _p(rows["sin_v"]), _p(rows["a_sin_c"]),
        _p(rows["dsig"]), _p(rows["ratio"]), _p(rows["sig_if"]),
        dlam, dth, constants.B_GRAVITY_WAVE,
        constants.P_REFERENCE, constants.P_TOP,
        nz, ny, nx, ps,
        _p(p_fac), _p(div_p), _p(col_sum), _p(pw), _p(w), _p(sdot),
        _p(phi_prime), _p(tab),
    ))
