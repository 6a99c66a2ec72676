"""The serial core outlives its call.

``DynamicalCore(algorithm="serial")`` builds one :class:`SerialCore` on its
first call and restarts it on every later one, as a resident rank program
restarts its context per command.  None of that may be visible in results:
every call equals a fresh core's, counters count the call, and a warm core
neither allocates pool buffers nor grows the heap.
"""
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.resilience import ResilienceConfig
from repro.grid.latlon import LatLonGrid
from repro.physics.initial import balanced_random_state

GRID = LatLonGrid(nx=32, ny=16, nz=8)
PARAMS = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)


def same(a, b) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.fields().values(), b.fields().values())
    )


def serial(tier: str, **kw) -> DynamicalCore:
    return DynamicalCore(
        GRID, algorithm="serial", params=PARAMS, kernel_tier=tier, **kw
    )


@pytest.mark.parametrize("tier", ["reference", "fused"])
def test_repeated_calls_equal_fresh_cores_and_allocate_nothing(tier, tmp_path):
    s0 = balanced_random_state(GRID, np.random.default_rng(35))
    core = serial(tier)
    fresh = []
    for n in (1, 6, 1, 3):
        got, diag = core.run(s0, n)
        want, want_diag = serial(tier).run(s0, n)
        assert same(got, want), n
        assert diag == want_diag, n
        assert diag.c_calls == 3 * PARAMS.m_iterations * n
        fresh.append(core._serial.ws.fresh_allocations)

    res = ResilienceConfig(checkpoint_dir=tmp_path / "a", checkpoint_interval=2)
    got, diag, _ = core.run_resilient(s0, 5, res)
    res = ResilienceConfig(checkpoint_dir=tmp_path / "b", checkpoint_interval=2)
    want, want_diag, _ = serial(tier).run_resilient(s0, 5, res)
    assert same(got, want)
    assert diag == want_diag
    fresh.append(core._serial.ws.fresh_allocations)
    # every call after the first takes its buffers from the pool
    assert fresh[0] > 0
    assert fresh == [fresh[0]] * len(fresh)


def test_workspace_counters_count_each_call_once():
    s0 = balanced_random_state(GRID, np.random.default_rng(35))
    core = serial("fused", observe=True)
    reg = core.observation.registry

    def totals():
        return [
            reg.counter(name, rank="0").value
            for name in (
                "workspace_fresh_allocations_total", "workspace_reuses_total"
            )
        ]

    core.run(s0, 2)
    fresh1, reuses1 = totals()
    core.run(s0, 2)
    fresh2, reuses2 = totals()
    assert fresh1 > 0
    assert fresh2 == fresh1
    # a warm call takes from the pool what the first call took fresh
    assert reuses2 - reuses1 > reuses1


RSS_SCRIPT = textwrap.dedent(
    """
    import json, resource
    import numpy as np
    from repro.core.driver import DynamicalCore
    from repro.grid.latlon import LatLonGrid
    from repro.physics.initial import balanced_random_state

    grid = LatLonGrid(nx=144, ny=96, nz=16)
    s0 = balanced_random_state(grid, np.random.default_rng(1))
    core = DynamicalCore(grid, algorithm="serial")
    rss = []
    for _ in range(6):
        # the previous result is dropped only when this call returns
        final, _ = core.run(s0, 1)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps({"rss_kb": rss, "state_kb": final.nbytes / 1024}))
    """
)


def test_heap_stays_flat_across_calls():
    """With no result kept, the peak RSS after six calls is that after the
    first plus the one result alive during a call (and 2 MB of slack)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    rss = got["rss_kb"]
    assert rss[-1] <= rss[0] + got["state_kb"] + 2048, rss
