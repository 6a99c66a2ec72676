"""Row slabs: the geometry and filter subset a windowed pass runs on."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.constants import DEFAULT_PARAMETERS
from repro.core.rowslab import RowSlab
from repro.core.tendencies import TendencyEngine
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.kernels import KernelSet
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry
from repro.state.variables import FIELD_NAMES, ModelState

GRID = LatLonGrid(nx=32, ny=16, nz=8)


def working_geometry():
    return WorkingGeometry.build_global(
        GRID, SigmaLevels.uniform(GRID.nz), gy=2, gz=0
    )


def test_slab_metrics_match_parent_rows():
    """The slab geometry's per-row metric arrays are the same global rows
    as the parent's — elementwise identical, not just close."""
    g = working_geometry()
    slab = RowSlab(g, 3, 17, 1)
    assert np.array_equal(g.sin_c[slab.view], slab.geom.sin_c)
    assert np.array_equal(g.sin_v[slab.view], slab.geom.sin_v)


def test_filter_subset_partitions_mask():
    """Each slab filters mask ∩ its target rows: over slabs that cover
    ``[0, ny_w)`` every masked row is filtered, none twice."""
    g = working_geometry()
    pf = PolarFilter(g, DEFAULT_PARAMETERS)
    assert pf.active
    ny_w = g.shape2d[0]
    slabs = [
        RowSlab(g, lo, hi, 1, pf) for lo, hi in ((0, 3), (3, 17), (17, ny_w))
    ]
    for fam, mask in (("c", pf.mask_c), ("v", pf.mask_v)):
        total = np.zeros(mask.shape, dtype=int)
        for sl in slabs:
            sub, factors = sl.polar.subset[fam]
            assert len(factors) == sub.sum()
            total[sl.view] += sub
        assert np.array_equal(total.astype(bool), mask)
        assert total.max() <= 1


def test_bands_are_the_masked_target_rows():
    """``polar.bands`` lists, as slices of working rows, exactly the rows
    ``polar.subset`` flags: the rows an update leaves to the caller."""
    g = working_geometry()
    pf = PolarFilter(g, DEFAULT_PARAMETERS)
    for lo, hi in ((0, 3), (2, 3), (3, 17), (1, 19), (17, g.shape2d[0])):
        sl = RowSlab(g, lo, hi, 1, pf)
        for fam, mask in (("c", pf.mask_c), ("v", pf.mask_v)):
            rows = np.zeros(mask.shape, dtype=bool)
            for band in sl.polar.bands[fam]:
                assert not rows[band].any()
                rows[band] = True
            want = np.zeros_like(rows)
            want[lo:hi] = mask[lo:hi]
            assert np.array_equal(rows, want)
            assert np.array_equal(rows[sl.view], sl.polar.subset[fam][0])


@settings(max_examples=20, deadline=None)
@given(
    cuts=st.sets(st.integers(2, GRID.ny + 2), max_size=4),
    kind=st.sampled_from(["adaptation", "advection"]),
    midpoint=st.booleans(),
    tier=st.sampled_from(["reference", "fused"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_updates_over_a_partition_equal_the_whole_array_update(
    cuts, kind, midpoint, tier, seed
):
    """Updating slab by slab over a partition of the working rows writes,
    bit for bit, what one whole-array update writes (but for the two edge
    rows, whose y-neighbours a clipped view wraps differently)."""
    g = working_geometry()
    eng = TendencyEngine(g, DEFAULT_PARAMETERS, kernels=KernelSet(tier))
    rng = np.random.default_rng(seed)
    psi, base = (
        ModelState.random(g.shape3d, rng, amplitude=1e-3) for _ in range(2)
    )
    vd = eng.vertical(psi)
    whole = eng.update(
        kind, psi, base, vd, 90.0, ModelState.zeros(g.shape3d),
        midpoint=midpoint,
    )
    pieces = ModelState.zeros(g.shape3d)
    edges = [0, *sorted(cuts), g.shape2d[0]]
    for lo, hi in zip(edges, edges[1:]):
        eng.update(
            kind, psi, base, vd, 90.0, pieces, eng.slab(lo, hi), midpoint
        )
    for name in FIELD_NAMES:
        a, b = (getattr(s, name)[..., 1:-1, :] for s in (whole, pieces))
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
