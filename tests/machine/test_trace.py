"""Trace extraction: events, memory regions, and count validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.trace import Region, Tracer, count_by_name, trace_kernel


class TestRegions:
    def test_region_of_contiguous(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        r = _region_of(a[2:4, :], "dram", id)
        assert r.lo == 2 * 8 * 4
        assert r.hi == 4 * 8 * 4
        assert r.bytes == 2 * 8 * 4

    def test_region_of_strided_tile(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        r = _region_of(a[0:4, 0:4], "dram", id)
        assert r.pitch == 8 * 4
        assert r.col_lo == 0 and r.col_hi == 16

    def test_column_tiles_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        left = _region_of(a[0:8, 0:4], "dram", id)
        right = _region_of(a[0:8, 4:8], "dram", id)
        assert not left.overlaps(right)
        assert left.overlaps(_region_of(a[0:8, 3:5], "dram", id))

    def test_row_tiles_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros((8, 8), dtype=np.float32)
        top = _region_of(a[0:4, :], "dram", id)
        bot = _region_of(a[4:8, :], "dram", id)
        assert not top.overlaps(bot)

    def test_different_arrays_disjoint(self):
        from repro.machine.trace import _region_of

        a = np.zeros(16, dtype=np.float32)
        b = np.zeros(16, dtype=np.float32)
        assert not _region_of(a, "dram", id).overlaps(_region_of(b, "dram", id))


class TestTracing:
    def test_gemmini_event_counts(self):
        from repro.apps.gemmini_matmul import matmul_oldlib

        p = matmul_oldlib()
        N = M = K = 32
        ev = trace_kernel(
            p, N, M, K,
            np.zeros((N, K), np.int8), np.zeros((K, M), np.int8),
            np.zeros((N, M), np.int8),
        )
        counts = count_by_name(ev)
        tiles = (N // 16) * (M // 16)
        assert counts["zero_acc_i32"] == tiles
        assert counts["ld_i8"] == tiles * (K // 16)
        assert counts["matmul_acc_i8"] == tiles * (K // 16)
        assert counts["st_acc_i8_noact"] == tiles

    def test_functional_mode_computes(self):
        from repro.apps.gemmini_matmul import matmul_exo

        p = matmul_exo()
        N = M = K = 16
        rng = np.random.default_rng(0)
        A = rng.integers(0, 3, (N, K)).astype(np.int8)
        B = rng.integers(0, 3, (K, M)).astype(np.int8)
        C = np.zeros((N, M), np.int8)
        tracer = Tracer(functional=True)
        tracer.run(p, N, M, K, A, B, C)
        ref = (A.astype(np.int32) @ B.astype(np.int32)).astype(np.int8)
        np.testing.assert_array_equal(C, ref)
        assert tracer.events

    def test_timing_mode_skips_bodies(self):
        from repro.apps.gemmini_matmul import matmul_exo

        p = matmul_exo()
        N = M = K = 16
        A = np.ones((N, K), np.int8)
        B = np.ones((K, M), np.int8)
        C = np.zeros((N, M), np.int8)
        trace_kernel(p, N, M, K, A, B, C)
        assert C.sum() == 0  # bodies skipped: no data movement


class TestCountValidation:
    def test_sgemm_counts_match_model(self):
        """The analytic instruction-count formulas of the x86 cost model
        must agree exactly with a real trace of the scheduled kernel."""
        from repro.apps.x86_sgemm import sgemm_exo
        from repro.machine.x86_sim import sgemm_counts

        M, N, K = 12, 128, 8
        p = sgemm_exo(6, 4)
        ev = trace_kernel(
            p, M, N, K,
            np.zeros((M, K), np.float32), np.zeros((K, N), np.float32),
            np.zeros((M, N), np.float32),
        )
        got = count_by_name(ev)
        want, _calls = sgemm_counts(M, N, K, 6, 4)
        for name, n in want.items():
            assert got.get(name, 0) == n, f"{name}: trace {got.get(name)} vs model {n}"
