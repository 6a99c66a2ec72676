"""Per-operator compute weights and closed-form per-step event counts.

The weights express each operator's cost per point-update relative to the
machine model's ``seconds_per_point`` baseline; the event-count formulas
enumerate, exactly, the communication events of one model step of each
algorithm.  The formulas are validated against the instrumented counters
of the simulated-MPI runs in ``tests/test_perf_counts.py``, then evaluated
at paper scale by :mod:`repro.perf.model`.

Notation: ``M`` adaptation iterations per step; each iteration has 3
internal updates; the advection process has 3 updates; one smoothing per
step.  ``A`` = adaptation update, ``L`` = advection update, ``C`` =
z-collective, ``F`` = polar-filter application.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.grid.decomposition import Decomposition


@dataclass(frozen=True)
class ComputeWeights:
    """Relative cost (in ``seconds_per_point`` units) of one point-update
    of each operator.  Values approximate the flop/byte mix of the
    vectorized NumPy kernels; absolute scale is carried by the machine
    model's ``seconds_per_point`` (see calibration)."""

    adaptation: float = 10.0
    advection: float = 8.0
    vertical: float = 3.0
    smoothing: float = 4.0
    #: per (row-point x log2 nx) unit of the FFT filter
    filter_fft: float = 1.0
    update: float = 1.0


DEFAULT_WEIGHTS = ComputeWeights()


@dataclass(frozen=True)
class StepEvents:
    """Exact per-rank communication events of ONE model step.

    ``p2p_messages``/``p2p_bytes``: point-to-point halo traffic *sent* by
    the busiest rank.  ``collectives``: number of collective operations the
    busiest rank participates in.  ``collective_bytes``: modelled bytes it
    moves inside them.  ``syncs``: synchronization events (collectives +
    blocking-receive waits), the analogue of the paper's latency cost S.
    """

    p2p_messages: int
    p2p_bytes: int
    collectives: int
    collective_bytes: int
    syncs: int


#: number of prognostic field arrays exchanged per halo message group
N_FIELDS = 4
#: bytes per float64 value
B = 8


def _halo_bytes_yz(
    decomp: Decomposition, gy: int, gz: int, nz_l: int, ny_l: int
) -> int:
    """Bytes sent by an interior rank in one Y-Z plane halo exchange.

    Two y-faces (gy rows x nz_l levels), two z-faces (gz levels x ny_l
    rows), four corners (gy x gz) — full longitude (nx) wide; the 3-D
    fields dominate (the 2-D p'_sa field adds its y-faces).
    """
    nx = decomp.nx
    face_y = gy * nz_l * nx
    face_z = gz * ny_l * nx
    corner = gy * gz * nx
    per_3d_field = 2 * face_y + 2 * face_z + 4 * corner
    per_2d_field = 2 * gy * nx
    return B * (3 * per_3d_field + per_2d_field)


def _halo_bytes_xy(
    decomp: Decomposition, gx: int, gy: int, nx_l: int, ny_l: int
) -> int:
    """Bytes sent by an interior rank in one X-Y plane halo exchange."""
    nz = decomp.nz
    face_x = gx * ny_l * nz
    face_y = gy * nx_l * nz
    corner = gx * gy * nz
    per_3d_field = 2 * face_x + 2 * face_y + 4 * corner
    per_2d_field = 2 * (gx * ny_l + gy * nx_l + 2 * gx * gy)
    return B * (3 * per_3d_field + per_2d_field)


def step_events(
    algorithm: str,
    decomp: Decomposition,
    m_iterations: int = 3,
    gy: int = 2,
    gz: int = 1,
    gx: int = 2,
    filtered_row_fraction: float = 0.2,
) -> StepEvents:
    """Closed-form events of one step for ``algorithm`` in
    {"original", "ca"} under ``decomp``.

    The busiest rank is an interior rank (8 plane neighbours) that also
    owns filtered (polar) rows in the X-Y case.

    Updates per step: ``3 M`` adaptation + 3 advection; exchanges:
    ``3 M + 3 + 1`` (original; the +1 is the smoothing exchange) vs 2
    (communication-avoiding).  ``C`` collectives: ``3 M`` (original) vs
    ``2 M`` (approximate nonlinear iteration).  Filter collectives (X-Y
    only): one per F application = ``3 M + 3``.
    """
    M = m_iterations
    nz_l = max(1, decomp.nz // decomp.pz)
    ny_l = max(1, decomp.ny // decomp.py)
    nx_l = max(1, decomp.nx // decomp.px)

    if algorithm not in ("original", "ca"):
        raise ValueError(f"unknown algorithm {algorithm!r}")

    if algorithm == "ca":
        if decomp.kind not in ("yz", "serial"):
            raise ValueError("the communication-avoiding core runs on Y-Z")
        # wide halos: 3M rows (+2 for the fused smoothing) in y, 3M in z
        # for the adaptation exchange; 3 in y and z for the advection one.
        wy_a, wz_a = 3 * M + 2, 3 * M
        wy_l, wz_l = 3, 3
        # the CA exchange additionally carries the stale C bundle
        # (column_sum 2D + phi' 3D + sigma-dot 3D+1) ~ doubling 3D volume
        bundle_factor = 2.0
        bytes_a = _halo_bytes_yz(decomp, wy_a, wz_a, nz_l, ny_l) * bundle_factor
        bytes_l = _halo_bytes_yz(decomp, wy_l, wz_l, nz_l, ny_l) * bundle_factor
        neighbours = 8 if decomp.py > 2 and decomp.pz > 2 else min(
            8, decomp.py * decomp.pz - 1
        )
        msgs = 2 * neighbours * N_FIELDS
        p2p_bytes = int(bytes_a + bytes_l)
        n_c = 2 * M
        q_z = decomp.pz
        # allgather of the 2-field contribution stack over the working
        # (halo-extended) rows
        ny_w = ny_l + 2 * wy_a
        c_bytes_each = 2 * nz_l * ny_w * decomp.nx * B
        coll_bytes = n_c * (q_z - 1) * c_bytes_each if q_z > 1 else 0
        collectives = n_c if q_z > 1 else 0
        syncs = collectives + 2  # two exchange waits
        return StepEvents(
            p2p_messages=msgs,
            p2p_bytes=p2p_bytes,
            collectives=collectives,
            collective_bytes=int(coll_bytes),
            syncs=syncs,
        )

    # original algorithm
    n_exchanges = 3 * M + 3 + 1
    if decomp.kind in ("yz", "serial"):
        neighbours = min(8, max(0, decomp.py * decomp.pz - 1))
        per_exchange = _halo_bytes_yz(decomp, gy, gz if decomp.pz > 1 else 0,
                                      nz_l, ny_l)
        n_c = 3 * M
        q_z = decomp.pz
        ny_w = ny_l + 2 * gy
        c_bytes_each = 2 * nz_l * ny_w * decomp.nx * B
        coll = n_c if q_z > 1 else 0
        coll_bytes = coll * (q_z - 1) * c_bytes_each
        filter_coll = 0
        filter_bytes = 0
    elif decomp.kind == "xy":
        neighbours = min(8, max(0, decomp.px * decomp.py - 1))
        per_exchange = _halo_bytes_xy(decomp, gx, gy, nx_l, ny_l)
        coll = 0
        coll_bytes = 0
        # filter: one x-line allgather per F application for polar ranks
        n_f = 3 * M + 3
        q_x = decomp.px
        filtered_rows = max(1, int(filtered_row_fraction * ny_l))
        each = filtered_rows * nz_l * nx_l * B * 3  # 3 filtered 3-D fields
        filter_coll = n_f if q_x > 1 else 0
        filter_bytes = filter_coll * (q_x - 1) * each
    else:  # 3d
        neighbours = min(26, decomp.nranks - 1)
        per_exchange = _halo_bytes_yz(decomp, gy, gz, nz_l, ny_l) + _halo_bytes_xy(
            decomp, gx, gy, nx_l, ny_l
        )
        n_c = 3 * M
        coll = n_c if decomp.pz > 1 else 0
        ny_w = ny_l + 2 * gy
        coll_bytes = coll * (decomp.pz - 1) * 2 * nz_l * ny_w * nx_l * B
        n_f = 3 * M + 3
        filtered_rows = max(1, int(filtered_row_fraction * ny_l))
        each = filtered_rows * nz_l * nx_l * B * 3
        filter_coll = n_f if decomp.px > 1 else 0
        filter_bytes = filter_coll * (decomp.px - 1) * each

    msgs = n_exchanges * neighbours * N_FIELDS
    return StepEvents(
        p2p_messages=msgs,
        p2p_bytes=int(n_exchanges * per_exchange),
        collectives=coll + filter_coll,
        collective_bytes=int(coll_bytes + filter_bytes),
        syncs=coll + filter_coll + n_exchanges,
    )
