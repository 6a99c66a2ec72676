"""The task-graph executor: bit-identity, determinism, and overlap.

The contract under test (see ``docs/taskgraph.md``): running a rank
program with ``executor="taskgraph"`` must produce *exactly* the sync
executor's trajectory (``==``, not allclose) and deterministic logical
clocks on every backend, under arbitrary fuzzed poll interleavings —
while genuinely executing inner-block compute inside open communication
windows.
"""
import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_rank_program
from repro.core.distributed import DistributedConfig, original_rank_program
from repro.core.driver import DynamicalCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.physics import HeldSuarezForcing, perturbed_rest_state
from repro.simmpi import run_spmd
from repro.state.variables import ModelState

#: py <= 2 splits on this grid; the original program at py = 4 degenerates
M1_GRID = LatLonGrid(nx=32, ny=16, nz=8)
#: tall enough for real splits (and CA ghost budgets) at py = 4
TALL_GRID = LatLonGrid(nx=32, ny=32, nz=8)
M1 = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)
M3_GRID = LatLonGrid(nx=16, ny=48, nz=8)
M3 = ModelParameters(dt_adaptation=60.0, dt_advection=180.0, m_iterations=3)

PROGRAMS = {"original-yz": original_rank_program, "ca": ca_rank_program}


def gather(decomp, results) -> ModelState:
    blocks = [r.state for r in results]
    return ModelState(
        U=decomp.gather([b.U for b in blocks]),
        V=decomp.gather([b.V for b in blocks]),
        Phi=decomp.gather([b.Phi for b in blocks]),
        psa=decomp.gather([b.psa for b in blocks]),
    )


def exactly_equal(a: ModelState, b: ModelState) -> bool:
    return all(
        np.array_equal(getattr(a, n), getattr(b, n))
        for n in ("U", "V", "Phi", "psa")
    )


def run_one(algorithm, grid, params, py, nsteps=2, *, executor="sync",
            backend="thread", forcing=None, fuzz=None):
    decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, py, 1)
    cfg = DistributedConfig(
        grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        forcing=forcing, executor=executor, taskgraph_fuzz_seed=fuzz,
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    res = run_spmd(
        decomp.nranks, PROGRAMS[algorithm], cfg, state0, backend=backend
    )
    return gather(decomp, res.results), res


class TestBitIdentity:
    """taskgraph trajectories == sync trajectories, rank for rank."""

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    @pytest.mark.parametrize("py", [1, 2, 4])
    def test_thread_backend(self, algorithm, py):
        grid = TALL_GRID if py == 4 else M1_GRID
        sync, _ = run_one(algorithm, grid, M1, py,
                          forcing=HeldSuarezForcing())
        tg, res = run_one(algorithm, grid, M1, py, executor="taskgraph",
                          forcing=HeldSuarezForcing())
        assert exactly_equal(sync, tg)
        assert res.results[0].overlap is not None
        assert res.results[0].overlap["windows"] > 0

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    @pytest.mark.parametrize("py", [1, 2, 4])
    def test_process_backend(self, algorithm, py):
        grid = TALL_GRID if py == 4 else M1_GRID
        sync, _ = run_one(algorithm, grid, M1, py, backend="process")
        tg, _ = run_one(algorithm, grid, M1, py, executor="taskgraph",
                        backend="process")
        assert exactly_equal(sync, tg)

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_multi_iteration_adaptation(self, algorithm):
        """M = 3: bundle exchanges (CA) / repeated refreshes (original)."""
        sync, _ = run_one(algorithm, M3_GRID, M3, 2)
        tg, _ = run_one(algorithm, M3_GRID, M3, 2, executor="taskgraph")
        assert exactly_equal(sync, tg)

    def test_degenerate_block_runs_plain_graph(self):
        """Blocks too small to split run an all-synchronous-shaped graph
        (zero windows) and still match the sync executor exactly."""
        sync, _ = run_one("original-yz", M1_GRID, M1, 4)
        tg, res = run_one("original-yz", M1_GRID, M1, 4,
                          executor="taskgraph")
        assert exactly_equal(sync, tg)
        assert all(r.overlap["windows"] == 0 for r in res.results)


class TestDeterminism:
    """Fuzzed poll interleavings cannot reach numerics or logical clocks."""

    def clocks(self, res):
        return [
            (
                round(s.compute_time, 12),
                round(s.p2p_time, 12),
                round(s.collective_time, 12),
                s.p2p_messages_sent,
                s.collective_ops,
            )
            for s in res.stats
        ]

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_fuzzed_polling_is_invisible(self, algorithm):
        base_state, base_res = run_one(
            algorithm, M1_GRID, M1, 2, executor="taskgraph"
        )
        for seed in (0, 1, 2):
            state, res = run_one(
                algorithm, M1_GRID, M1, 2, executor="taskgraph", fuzz=seed
            )
            assert exactly_equal(base_state, state)
            assert res.makespan == base_res.makespan
            assert self.clocks(res) == self.clocks(base_res)
            assert [r.exchanges for r in res.results] == [
                r.exchanges for r in base_res.results
            ]

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_clocks_identical_across_backends(self, algorithm):
        _, thread = run_one(algorithm, M1_GRID, M1, 2, executor="taskgraph")
        _, proc = run_one(algorithm, M1_GRID, M1, 2, executor="taskgraph",
                          backend="process")
        assert proc.makespan == thread.makespan
        assert self.clocks(proc) == self.clocks(thread)

    def test_serial_rank_matches_itself_under_fuzz(self):
        """py = 1: no messages at all, the graph still runs identically."""
        a, _ = run_one("ca", M1_GRID, M1, 2, executor="taskgraph", fuzz=5)
        b, _ = run_one("ca", M1_GRID, M1, 2, executor="taskgraph", fuzz=11)
        assert exactly_equal(a, b)


class TestOverlapObservability:
    def test_overlap_metrics_surface_in_result(self):
        _, res = run_one("ca", M1_GRID, M1, 2, executor="taskgraph")
        ov = res.results[0].overlap
        assert ov["tasks"] > 0
        assert ov["windows"] > 0
        assert ov["window_seconds"] >= ov["overlap_seconds"] >= 0.0
        assert 0.0 <= ov["overlap_fraction"] <= 1.0

    def test_sync_executor_reports_no_overlap(self):
        _, res = run_one("ca", M1_GRID, M1, 2)
        assert all(r.overlap is None for r in res.results)

    def test_trace_shows_compute_inside_comm_window(self):
        """The Chrome-trace claim: an inner compute span starts after the
        post returns and ends before the wait begins, on the same rank."""
        grid, params = M1_GRID, M1
        s0 = perturbed_rest_state(grid, amplitude_k=2.0)
        core = DynamicalCore(
            grid, algorithm="ca", nprocs=2, params=params,
            executor="taskgraph", observe=True,
        )
        core.run(s0, 2)
        spans = core.observation.tracer.spans
        posts = [s for s in spans if s.name.startswith("tg:post-")]
        waits = {
            (s.rank, s.name.removeprefix("tg:wait-")): s
            for s in spans
            if s.name.startswith("tg:wait-")
        }
        assert posts and waits
        inner = [s for s in spans if s.cat == "taskgraph"]
        found = False
        for p in posts:
            w = waits.get((p.rank, p.name.removeprefix("tg:post-")))
            if w is None:
                continue
            for s in inner:
                if (s.rank == p.rank
                        and s.t_start >= p.t_end
                        and s.t_end <= w.t_start):
                    found = True
        assert found, "no compute span inside any post->wait window"
        # and the wait spans agree: some window saw real overlapped work
        assert any(
            s.args and s.args.get("overlap_s", 0.0) > 0.0 for s in waits.values()
        )

    def test_driver_absorbs_overlap_metrics(self):
        grid, params = M1_GRID, M1
        s0 = perturbed_rest_state(grid, amplitude_k=2.0)
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=2, params=params,
            executor="taskgraph", observe=True,
        )
        _, diag = core.run(s0, 2)
        assert diag.overlap_windows > 0
        assert diag.overlap_seconds >= 0.0
        text = core.observation.registry.to_prometheus_text()
        assert "taskgraph_windows_total" in text
        assert "taskgraph_overlap_seconds_total" in text


class TestConfigSurface:
    def test_unknown_executor_rejected(self):
        decomp = Decomposition(32, 16, 8, 1, 1, 1)
        cfg = DistributedConfig(
            grid=M1_GRID, decomp=decomp, params=M1, nsteps=1,
            executor="fancy",
        )
        with pytest.raises(ValueError, match="executor"):
            cfg.validate_c_method()
        with pytest.raises(ValueError, match="executor"):
            DynamicalCore(M1_GRID, algorithm="ca", nprocs=1, params=M1,
                          executor="fancy")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "taskgraph")
        core = DynamicalCore(M1_GRID, algorithm="ca", nprocs=1, params=M1)
        assert core.config.executor == "taskgraph"
        monkeypatch.delenv("REPRO_EXECUTOR")
        core = DynamicalCore(M1_GRID, algorithm="ca", nprocs=1, params=M1)
        assert core.config.executor == "sync"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "taskgraph")
        core = DynamicalCore(M1_GRID, algorithm="ca", nprocs=1, params=M1,
                             executor="sync")
        assert core.config.executor == "sync"


class TestResilienceUnderTaskgraph:
    def test_chaos_run_is_bit_identical_to_sync_reference(self, tmp_path):
        """Link faults + one crash under the taskgraph executor: the
        deterministic fault schedule (keyed to comm-call counts the
        polling must not perturb) recovers to the sync fault-free state."""
        from repro.core.resilience import ResilienceConfig
        from repro.simmpi import CrashSpec, FaultPlan, LinkFault

        grid, params = M1_GRID, M1
        s0 = perturbed_rest_state(grid, amplitude_k=2.0)
        ref_core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=4, params=params,
        )
        ref, _ = ref_core.run(s0, 3)

        chaos = FaultPlan(
            seed=7,
            crashes=(CrashSpec(rank=1, at_attempt=2, at_call=5),),
            link_faults=(LinkFault(
                drop_probability=0.05, corrupt_probability=0.05,
            ),),
        )
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=4, params=params,
            executor="taskgraph",
        )
        recovered, _, report = core.run_resilient(
            s0, 3,
            ResilienceConfig(
                checkpoint_dir=tmp_path / "tg-chaos",
                checkpoint_interval=1,
                faults=chaos,
            ),
        )
        assert ref.max_difference(recovered) == 0.0
        assert report.nrestarts >= 1


class TestRowSlabUnit:
    def _geom(self, grid=M1_GRID, gy=2):
        from repro.grid.sigma import SigmaLevels
        from repro.operators.geometry import WorkingGeometry

        return WorkingGeometry.build_global(
            grid, SigmaLevels.uniform(grid.nz), gy=gy, gz=0
        )

    def test_slab_metrics_match_parent_rows(self):
        from repro.core.rowslab import RowSlab

        g = self._geom()
        slab = RowSlab(g, 3, 17, 1)
        # the slab geometry's per-row metric arrays are the same global
        # rows as the parent's — elementwise identical, not just close
        assert np.array_equal(g.sin_c[slab.view], slab.geom.sin_c)
        assert np.array_equal(g.sin_v[slab.view], slab.geom.sin_v)

    def test_split_rows_covers_every_row_once(self):
        from repro.core.taskgraph.subdomain import split_rows

        g = self._geom()
        inner, boundary = split_rows(g, 3, 17, 1)
        rows = sorted(
            r
            for sl in [inner, *boundary]
            for r in range(sl.lo, sl.hi)
        )
        assert rows == list(range(g.shape2d[0]))

    def test_split_rows_rejects_degenerate_ranges(self):
        from repro.core.taskgraph.subdomain import split_rows

        g = self._geom()
        with pytest.raises(ValueError):
            split_rows(g, 0, 17, 1)  # inner may not touch the edge
        with pytest.raises(ValueError):
            split_rows(g, 17, 3, 1)

    def test_filter_subset_partitions_mask(self):
        from repro.core.taskgraph.subdomain import split_rows
        from repro.operators.filter import PolarFilter

        g = self._geom()
        pf = PolarFilter(g, M1)
        if not pf.active:
            pytest.skip("polar filter inactive on this mesh")
        inner, boundary = split_rows(g, 3, 17, 1, pf)
        for fam, mask in (("c", pf.mask_c), ("v", pf.mask_v)):
            total = np.zeros_like(mask, dtype=int)
            for sl in [inner, *boundary]:
                sub, _factors = sl._filter[fam]
                full = np.zeros_like(mask, dtype=int)
                full[sl.view] += sub.astype(int)
                total += full
            assert np.array_equal(total.astype(bool), mask)
            assert total.max() <= 1  # no masked row filtered twice
