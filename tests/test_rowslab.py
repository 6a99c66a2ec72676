"""Row slabs: the geometry and filter subset a windowed pass runs on."""
import numpy as np

from repro.constants import DEFAULT_PARAMETERS
from repro.core.rowslab import RowSlab
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry

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
            sub, factors = sl._filter[fam]
            assert len(factors) == sub.sum()
            total[sl.view] += sub
        assert np.array_equal(total.astype(bool), mask)
        assert total.max() <= 1
