"""Provenance lattice: equivalence modulo config fields (§4.3, §6)."""

from __future__ import annotations

import pytest

from repro import SchedulingError
from repro.core.prelude import Sym
from repro.scheduling.eqv import EqvNode, eqv_pollution


class TestEqvLattice:
    def test_root_self(self):
        root = EqvNode()
        assert eqv_pollution(root, root) == frozenset()

    def test_chain_accumulates(self):
        g1, g2 = Sym("g1"), Sym("g2")
        root = EqvNode()
        a = EqvNode(root, frozenset([g1]))
        b = EqvNode(a, frozenset([g2]))
        assert eqv_pollution(root, b) == frozenset([g1, g2])
        assert eqv_pollution(b, root) == frozenset([g1, g2])

    def test_clean_derivation_no_pollution(self):
        root = EqvNode()
        a = EqvNode(root)
        b = EqvNode(a)
        assert eqv_pollution(root, b) == frozenset()

    def test_siblings_through_lca(self):
        g1, g2 = Sym("g1"), Sym("g2")
        root = EqvNode()
        left = EqvNode(root, frozenset([g1]))
        right = EqvNode(root, frozenset([g2]))
        assert eqv_pollution(left, right) == frozenset([g1, g2])

    def test_lca_excludes_shared_prefix(self):
        g0, g1 = Sym("g0"), Sym("g1")
        root = EqvNode()
        mid = EqvNode(root, frozenset([g0]))
        a = EqvNode(mid)
        b = EqvNode(mid, frozenset([g1]))
        # path a..mid..b never crosses the root edge carrying g0
        assert eqv_pollution(a, b) == frozenset([g1])

    def test_unrelated_roots_rejected(self):
        a = EqvNode(EqvNode())
        b = EqvNode(EqvNode())
        with pytest.raises(SchedulingError):
            eqv_pollution(a, b)


class TestReporting:
    def test_table(self):
        from repro.reporting import table

        out = table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        assert "T" in out and "a" in out and "2.50" in out
        lines = out.splitlines()
        assert len(lines) == 6

    def test_series(self):
        from repro.reporting import series

        out = series("S", "x", "y", {"one": [(1, 2.0)], "two": [(1, 3.0)]})
        assert "one (y)" in out and "3.00" in out


class TestIdReuse:
    def test_allocate_free_allocate(self):
        """Config field symbols and call_eqv provenance must not pass from
        a freed object to a later one that reuses its id().  The loop frees
        and reallocates; on top of whatever the allocator does, the dead
        proc's registry entry is planted under the live proc's id(), which
        forces the collision."""
        import dataclasses
        import gc

        from repro import DRAM, api, f32, size
        from repro.core import types as T
        from repro.core.configs import Config

        src = "@proc\ndef foo(n: size, x: f32[n] @ DRAM):\n    pass\n"
        env = {"DRAM": DRAM, "f32": f32, "size": size}
        base = api.procs_from_source(src, env)["foo"]._loopir_proc
        for i in range(20):
            dead = Config(f"CfgDead{i}", [("v", T.int_t)])
            dead.sym("v")
            del dead
            live = Config(f"CfgLive{i}", [("v", T.int_t)])
            assert live.sym("v").name == f"CfgLive{i}_v"

            ir = dataclasses.replace(base, name=f"dead{i}")
            api.Procedure(ir, _checked=True)
            stale = api._EQV_OF_IR[id(ir)]
            del ir
            gc.collect()  # a Procedure is its own _root: a reference cycle
            fresh = dataclasses.replace(base, name=f"live{i}")
            assert api._eqv_of(fresh) is None
            api._EQV_OF_IR[id(fresh)] = stale
            assert api._eqv_of(fresh) is None
            node = api.Procedure(fresh, _checked=True)._eqv
            assert api._eqv_of(fresh) is node
