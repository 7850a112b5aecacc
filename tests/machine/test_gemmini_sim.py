"""Gemmini timing model: the mechanisms Fig. 4 turns on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.gemmini_matmul import (
    matmul_exo,
    matmul_exo_blocked,
    matmul_oldlib,
)
from repro.machine.gemmini_sim import PEAK_MACS_PER_CYCLE, GemminiParams, GemminiSim
from repro.machine.trace import trace_kernel


def _trace(p, N=64, M=64, K=64):
    return trace_kernel(
        p, N, M, K,
        np.zeros((N, K), np.int8), np.zeros((K, M), np.int8),
        np.zeros((N, M), np.int8),
    )


@pytest.fixture(scope="module")
def sim():
    return GemminiSim()


class TestModelMechanisms:
    def test_macs_counted_exactly(self, sim):
        ev = _trace(matmul_exo(), 64, 64, 64)
        r = sim.run(ev)
        assert r.macs == 64 * 64 * 64

    def test_utilization_bounded(self, sim):
        ev = _trace(matmul_exo_blocked(2, 2))
        r = sim.run(ev)
        assert 0.0 < r.utilization < 1.0

    def test_ideal_bound_dominates(self, sim):
        for p in (matmul_exo(), matmul_oldlib(), matmul_exo_blocked(2, 2)):
            ev = _trace(p)
            assert sim.ideal_bound(ev).cycles <= sim.run(ev).cycles + 1e-6

    def test_config_flush_costs(self, sim):
        """The fused (Old-lib) kernel flushes per DMA; the hoisted one
        flushes a handful of times in total."""
        ev_old = _trace(matmul_oldlib())
        ev_exo = _trace(matmul_exo())
        r_old = sim.run(ev_old)
        r_exo = sim.run(ev_exo)
        assert r_old.flushes > 10 * r_exo.flushes
        assert r_exo.utilization > r_old.utilization

    def test_blocking_amortizes_dma(self, sim):
        u = {}
        for t in (1, 2, 4):
            r = sim.run(_trace(matmul_exo_blocked(t, t), 128, 128, 64))
            u[t] = r.utilization
        assert u[1] < u[2] < u[4]

    def test_flush_cost_parameter(self):
        ev = _trace(matmul_oldlib())
        cheap = GemminiSim(GemminiParams(config_drain=0.0)).run(ev)
        dear = GemminiSim(GemminiParams(config_drain=100.0)).run(ev)
        assert dear.cycles > cheap.cycles

    def test_issue_bandwidth_is_the_hw_gap(self):
        """With free instruction issue, the software schedule approaches
        the hardware loop-unroller bound -- the issue cost *is* the gap."""
        ev = _trace(matmul_exo_blocked(4, 4), 128, 128, 128)
        free = GemminiSim(GemminiParams(issue_cost=0.0))
        r = free.run(ev)
        h = free.ideal_bound(ev)
        assert r.utilization > 0.9 * h.utilization

    def test_double_buffer_overlap(self):
        """Single-buffered staging serializes DMA against compute through
        WAR hazards on the scratchpad tile every ko iteration reuses; the
        ko%2 trick removes them."""
        sim = GemminiSim()
        ev_db = _trace(matmul_exo_blocked(2, 2, double_buffer=True))
        ev_sb = _trace(matmul_exo_blocked(2, 2, double_buffer=False))
        r_db = sim.run(ev_db)
        r_sb = sim.run(ev_sb)
        assert r_db.utilization > r_sb.utilization * 1.1

    def test_dma_cost_scales_with_bytes(self, sim):
        ev = _trace(matmul_exo(), 32, 32, 64)
        ev2 = _trace(matmul_exo(), 32, 32, 128)
        assert sim.run(ev2).dma_cycles > sim.run(ev).dma_cycles

    def test_peak_constant(self):
        assert PEAK_MACS_PER_CYCLE == 256


class TestAllocationIdentity:
    def test_utilization_independent_of_heap(self):
        """The interpreter frees every in-loop tile, so later tiles reuse
        their id(); hazards must follow Alloc statements, not addresses.
        Two runs with allocation churn in between, and a run that keeps
        every traced array alive, give the same utilization."""
        from repro.machine.trace import Tracer

        class KeepAlive(Tracer):
            def __init__(self):
                super().__init__()
                self.kept = []

            def hook(self, proc_ir, env):
                self.kept += [v for v in env.values() if isinstance(v, np.ndarray)]
                return super().hook(proc_ir, env)

        def utilization(tracer):
            n = 64
            ev = tracer.run(
                matmul_exo(), n, n, n,
                np.zeros((n, n), np.int8), np.zeros((n, n), np.int8),
                np.zeros((n, n), np.int8),
            )
            return GemminiSim().run(ev).utilization

        first = utilization(Tracer())
        churn = [np.zeros(64, np.int8) for _ in range(1000)]
        second = utilization(Tracer())
        del churn
        assert first == second == utilization(KeepAlive())
