"""``rdiv``: exact division by an invariant divisor, tested where it can be wrong.

The stencil kernels divide with ``rdiv(x, b, y)``, ``y = 1.0 / b`` taken
once per divisor: one multiply and two fused multiply-adds that must
return the *correctly rounded* ``x / b`` — value and sign bit — or the
fused tier stops being bit-identical to the reference.  The library
exports the primitive alone as ``rdiv_array``; these tests compare it with
numpy's ``/`` on random operands, on the operands the rounding argument is
tightest for (quotients next to a power of two, divisors whose mantissa is
all ones), on signed zeros, and on every divisor the three kernels really
use on the benchmark meshes.  Both expansions of the macro are tested: the
FMA form (``-march=native`` with hardware FMA) and the plain ``/`` of the
portable build.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.core.integrator import SerialCore
from repro.grid.latlon import LatLonGrid
from repro.kernels import c_available, cbackend
from repro.operators.staggering import to_u, to_v
from repro.physics import balanced_random_state
from repro.state.transforms import p_factor

pytestmark = pytest.mark.skipif(
    not c_available(), reason="no C compiler on this host"
)

MANTISSA = (1 << 52) - 1


@pytest.fixture(
    scope="module", params=cbackend.CFLAGS_SETS, ids=["native", "portable"]
)
def lib(request):
    try:
        return cbackend.load_library(request.param)
    except cbackend.KernelBuildError as exc:
        pytest.skip(f"flag set does not build here: {exc}")


def rdiv(lib, x, b) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    assert x.shape == b.shape
    out = np.empty_like(x)
    lib.rdiv_array(x.ctypes.data, b.ctypes.data, out.ctypes.data, x.size)
    return out


def assert_same_bits(lib, x, b) -> None:
    """``rdiv(x, b) == x / b`` in value and sign bit, everywhere."""
    got = rdiv(lib, x, b)
    with np.errstate(all="ignore"):
        want = np.asarray(x, dtype=np.float64) / b
    wrong = got.view(np.uint64) != want.view(np.uint64)
    if wrong.any():
        i = np.flatnonzero(wrong.ravel())[0]
        xi, bi = np.ravel(x)[i], np.ravel(b)[i]
        raise AssertionError(
            f"{wrong.sum()} of {wrong.size} quotients differ, first: "
            f"{xi.hex()} / {bi.hex()} -> {got.ravel()[i].hex()}, "
            f"want {want.ravel()[i].hex()}"
        )


def random_operands(rng, n, emin=-60, emax=60) -> np.ndarray:
    """Full random mantissas, exponents uniform in 2^[emin, emax], both signs."""
    mag = np.ldexp(1.0 + rng.random(n), rng.integers(emin, emax + 1, n))
    return np.where(rng.random(n) < 0.5, -mag, mag)


def shifted(a: np.ndarray, ulps) -> np.ndarray:
    """``a`` moved by ``ulps`` units in the last place (away from zero for
    positive counts); broadcasting."""
    return (a.view(np.int64) + np.asarray(ulps, dtype=np.int64)).view(np.float64)


def test_which_expansion_was_built(lib):
    mode = cbackend.division_mode(lib)
    assert mode in ("reciprocal-fma", "divide")
    if lib is cbackend.load_library(cbackend.CFLAGS):
        assert mode == "divide"  # no -march=native: no hardware-FMA report


def test_random_pairs_over_120_binades(lib):
    rng = np.random.default_rng(20180813)
    for _ in range(10):  # 10^7 pairs, 10^6 at a time
        assert_same_bits(
            lib, random_operands(rng, 1_000_000), random_operands(rng, 1_000_000)
        )


@pytest.mark.parametrize("all_ones", [False, True], ids=["random-b", "ones-b"])
@pytest.mark.parametrize("power", [1.0, 2.0])
def test_quotients_within_64_ulp_of_a_power_of_two(lib, power, all_ones):
    """``x = power * b`` moved by -64 .. +64 ulp: the quotient sits next to
    1 or 2, where one ulp changes size and the residual is smallest."""
    rng = np.random.default_rng(7)
    b = random_operands(rng, 20_000, -40, 40)
    if all_ones:
        b = (b.view(np.uint64) | np.uint64(MANTISSA)).view(np.float64)
    x = shifted((power * b)[:, None], np.arange(-64, 65)[None, :])
    assert_same_bits(lib, x, np.broadcast_to(b[:, None], x.shape).copy())


def test_all_ones_mantissa_divisors_against_random_numerators(lib):
    rng = np.random.default_rng(11)
    b = random_operands(rng, 1_000_000)
    low = rng.integers(0, 12, b.size).astype(np.uint64)  # clear 0-11 low bits
    ones = (np.uint64(MANTISSA) >> low) << low
    b = (b.view(np.uint64) | ones).view(np.float64)
    assert_same_bits(lib, random_operands(rng, b.size), b)


def test_zero_numerators_keep_their_sign(lib):
    rng = np.random.default_rng(3)
    b = random_operands(rng, 4096)
    for zero in (0.0, -0.0):
        x = np.full(b.size, zero)
        assert_same_bits(lib, x, b)
        got = rdiv(lib, x, b)
        assert np.array_equal(np.signbit(got), np.signbit(x) ^ np.signbit(b))


def kernel_divisors(grid: LatLonGrid) -> np.ndarray:
    """Every divisor ``adaptation``, ``advection`` and ``vertical`` use on
    ``grid``: scalars, per-row and per-level metrics, surface factors."""
    core = SerialCore(grid)
    eng, geom = core.engine, core.engine.geom
    a, dlam, dth = grid.radius, grid.dlambda, grid.dtheta
    state = core.pad(balanced_random_state(grid, np.random.default_rng(1234)))
    pf = p_factor(state.psa + constants.P_REFERENCE)
    pes = pf**2 * constants.P_REFERENCE
    surface = [
        pf, pf**2, pes, to_u(pf), to_v(pf), to_u(to_v(pf)), to_u(pes), to_v(pes)
    ]
    rows = [
        eng._adapt_cache.a_sin_c3,
        eng._advec_cache.two_a_sin_c3,
        eng._advec_cache.two_a_sin_v3,
        a**2 * geom.sin_c,
        a**2 * geom.sin_c**2,
        geom.sigma_mid,
        geom.dsigma,
    ]
    scalars = [dlam, dth, 2.0 * dlam, 2.0 * dth, dlam**2, a, constants.P_REFERENCE]
    return np.concatenate(
        [np.ravel(v) for v in surface + rows] + [np.array(scalars)]
    )


@pytest.mark.parametrize("mesh", [(144, 96, 16), (72, 48, 12)], ids=str)
def test_every_divisor_the_kernels_use(lib, mesh):
    nx, ny, nz = mesh
    b = kernel_divisors(LatLonGrid(nx=nx, ny=ny, nz=nz))
    assert np.all(b > 0) and np.all(np.isfinite(b))
    rng = np.random.default_rng(99)
    per = 48  # numerators per divisor: all magnitudes the fields take
    x = random_operands(rng, b.size * per, -40, 40).reshape(b.size, per)
    x[:, 0], x[:, 1] = 0.0, -0.0
    assert_same_bits(lib, x, np.repeat(b[:, None], per, axis=1))
    # exact and almost exact divisions: x within 8 ulp of 3 b
    near = shifted((3.0 * b)[:, None], np.arange(-8, 9)[None, :])
    assert_same_bits(lib, near, np.repeat(b[:, None], near.shape[1], axis=1))


def test_documented_domain(lib):
    """Outside finite numerators / normal quotients the contract is weaker,
    and says so: a non-finite numerator gives a non-finite result (``inf``
    may come back as ``nan`` — ``SerialCore.run`` and ``BlowupError`` reject
    both), and a quotient in the subnormal range is only within one
    subnormal spacing of ``x / b``."""
    rng = np.random.default_rng(5)
    b = random_operands(rng, 1024)
    for bad in (np.inf, -np.inf, np.nan):
        assert not np.isfinite(rdiv(lib, np.full(b.size, bad), b)).any()
    tiny = random_operands(rng, 1024, -1070, -1030)
    b = random_operands(rng, 1024, 0, 20)
    got = rdiv(lib, tiny, b)
    assert np.all(np.abs(got - tiny / b) <= 5e-324)
