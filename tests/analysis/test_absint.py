"""The interval/affine fast path (capped Fourier-Motzkin + box domain)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis import absint
from repro.analysis.absint import Box, refute, try_prove
from repro.core.prelude import InternalError, Sym
from repro.smt import terms as S
from repro.smt.omega import EQ, GEQ, Constraint, LinExpr, NonAffine, Purifier


def _v(name):
    return S.Var(Sym(name))


def _geq(const, coeffs):
    return Constraint(LinExpr.make(coeffs, const), GEQ)


class TestLinearizer:
    """Linearization by the solver's div/mod purifier, as the fast path
    uses it."""

    def test_affine_atom(self):
        pur = Purifier()
        x = _v("x")
        c = pur.atom("<", S.scale(3, x), S.IntC(7))
        # 3x < 7  ->  -3x + 6 >= 0
        assert c.kind == GEQ
        assert c.expr.const == 6 and [a for _v, a in c.expr.coeffs] == [-3]

    def test_shared_quotient_variable(self):
        # both occurrences of n/16 must purify to the SAME pseudo-variable
        pur = Purifier()
        n = _v("n")
        assert pur.lin(S.floordiv(n, 16)) == pur.lin(S.floordiv(n, 16))
        # two defining constraints for one quotient, not four
        assert len(pur.aux_cons) == 2

    def test_distinct_quotients_stay_distinct(self):
        pur = Purifier()
        n, m = _v("n"), _v("m")
        assert pur.lin(S.floordiv(n, 16)) != pur.lin(S.floordiv(m, 16))

    def test_mod_shares_quotient(self):
        # n % 16 rewrites to n - 16*(n/16) reusing the n/16 quotient
        pur = Purifier()
        n = _v("n")
        (qsym,) = pur.lin(S.floordiv(n, 16)).vars()
        assert pur.lin(S.Mod(n, 16)).coeff_of(qsym) == -16
        assert pur.aux_vars == [qsym]

    def test_non_affine_raises(self):
        pur = Purifier()
        with pytest.raises(NonAffine):
            pur.lin(S.Ite(S.lt(_v("x"), _v("y")), _v("x"), _v("y")))
        # the solver reports the same exception as an internal error
        assert issubclass(NonAffine, InternalError)


class TestRefute:
    def test_ground_contradiction(self):
        assert refute([_geq(-1, {})])

    def test_simple_bounds(self):
        x = Sym("x")
        # x >= 5 and x <= 3
        assert refute([_geq(-5, {x: 1}), _geq(3, {x: -1})])
        # x >= 3 and x <= 5: feasible
        assert not refute([_geq(-3, {x: 1}), _geq(5, {x: -1})])

    def test_gcd_tightening(self):
        x = Sym("x")
        # 2x >= 1 and 2x <= 1 has the rational solution x = 1/2 but no
        # integer one; gcd tightening must catch it
        assert refute([_geq(-1, {x: 2}), _geq(1, {x: -2})])

    def test_equality_rows(self):
        x = Sym("x")
        # x == 3 and x >= 4
        eq = Constraint(LinExpr.make({x: 1}, -3), EQ)
        assert refute([eq, _geq(-4, {x: 1})])
        assert not refute([eq, _geq(-3, {x: 1})])

    def test_var_cap_bails(self):
        syms = [Sym(f"v{i}") for i in range(absint.MAX_VARS + 1)]
        cons = [_geq(0, {s: 1}) for s in syms]
        assert not refute(cons)


class TestTryProve:
    def test_fig4a_tiled_bound(self):
        # 16*io + ii < N  under  0 <= io < N/16, 0 <= ii < 16
        N, io, ii = _v("N"), _v("io"), _v("ii")
        facts = [
            S.ge(io, S.IntC(0)),
            S.lt(io, S.floordiv(N, 16)),
            S.ge(ii, S.IntC(0)),
            S.lt(ii, S.IntC(16)),
            S.ge(N, S.IntC(0)),
        ]
        goal = S.lt(S.add(S.scale(16, io), ii), N)
        assert try_prove(facts, goal)
        assert try_prove(facts, S.ge(S.add(S.scale(16, io), ii), S.IntC(0)))

    def test_divisibility_connects(self):
        # N % 16 == 0 and i < N/16  implies  16*i + 15 < N
        N, i = _v("N"), _v("i")
        facts = [
            S.eq(S.Mod(N, 16), S.IntC(0)),
            S.ge(i, S.IntC(0)),
            S.lt(i, S.floordiv(N, 16)),
        ]
        goal = S.lt(S.add(S.scale(16, i), S.IntC(15)), N)
        assert try_prove(facts, goal)

    def test_never_disproves(self):
        # an actually-false goal must come back "unknown", not "disproved"
        N = _v("N")
        assert not try_prove([S.ge(N, S.IntC(0))], S.lt(N, S.IntC(0)))
        # and an unprovable-but-satisfiable one too
        assert not try_prove([], S.ge(N, S.IntC(0)))

    def test_conjunction_goal(self):
        x = _v("x")
        facts = [S.ge(x, S.IntC(2)), S.lt(x, S.IntC(5))]
        goal = S.conj(S.ge(x, S.IntC(0)), S.le(x, S.IntC(10)))
        assert try_prove(facts, goal)

    def test_equality_goal(self):
        x, y = _v("x"), _v("y")
        facts = [S.le(x, y), S.ge(x, y)]
        assert try_prove(facts, S.cmp("==", x, y))

    def test_negated_exists_goal(self):
        # not exists p: (p == 3 and p >= 5)  -- the Shadows-style query shape
        p = Sym("p")
        pv = S.Var(p)
        goal = S.negate(
            S.exists([pv], S.conj(S.cmp("==", pv, S.IntC(3)), S.ge(pv, S.IntC(5))))
        )
        assert try_prove([], goal)

    def test_false_context_proves_anything(self):
        x = _v("x")
        facts = [S.lt(x, S.IntC(0)), S.ge(x, S.IntC(0))]
        assert try_prove(facts, S.cmp("==", x, S.IntC(99)))

    def test_non_affine_fact_is_dropped_not_fatal(self):
        x, y = _v("x"), _v("y")
        facts = [S.Cmp("<", S.Ite(S.TRUE, x, y), S.IntC(0)), S.ge(x, S.IntC(1))]
        assert try_prove(facts, S.ge(x, S.IntC(0)))


class TestProveWrapper:
    def test_discharged_goal_skips_solver(self):
        from repro.smt.solver import Solver

        solver = Solver()
        x = _v("x")
        ok = absint.prove(
            [S.ge(x, S.IntC(0))], S.ge(x, S.IntC(-1)), solver=solver
        )
        assert ok
        assert solver.stats["prove_calls"] == 0

    def test_fellthrough_goal_reaches_solver(self):
        from repro.smt.solver import Solver

        solver = Solver()
        x = _v("x")
        # non-affine goal: the fast path cannot decide it
        goal = S.ge(S.Ite(S.ge(x, S.IntC(0)), x, S.neg(x)), S.IntC(0))
        assert absint.prove([], goal, solver=solver)
        assert solver.stats["prove_calls"] == 1

    def test_disabled_context_manager(self):
        from repro.smt.solver import Solver

        solver = Solver()
        x = _v("x")
        with absint.disabled():
            assert not absint.fastpath_enabled()
            absint.prove([S.ge(x, S.IntC(0))], S.ge(x, S.IntC(-1)),
                         solver=solver)
        assert absint.fastpath_enabled()
        assert solver.stats["prove_calls"] == 1

    def test_counters_flow(self):
        obs.reset()
        obs.enable()
        try:
            x = _v("x")
            absint.prove([S.ge(x, S.IntC(0))], S.ge(x, S.IntC(-1)),
                         category="bounds")
            counters = obs.profile_dict()["counters"]
            assert counters["analysis.absint.tried"] == 1
            assert counters["analysis.absint.discharged"] == 1
            assert counters["analysis.absint.bounds.tried"] == 1
            assert counters["analysis.absint.bounds.discharged"] == 1
        finally:
            obs.disable()
            obs.reset()


class TestBoxDomain:
    def _binders(self, *triples):
        return [(s, lo, hi) for s, lo, hi in triples]

    def test_dense_unit_stride(self):
        i = Sym("i")
        box = absint._dense_box(
            [S.Var(i)], [(i, S.IntC(0), S.IntC(16))], []
        )
        assert box == Box((S.IntC(0),), (S.IntC(16),))

    def test_tiled_two_binder_dim(self):
        # 16*io + ii over io in [0,4), ii in [0,16) covers [0,64) densely
        io, ii = Sym("io"), Sym("ii")
        box = absint._dense_box(
            [S.add(S.scale(16, S.Var(io)), S.Var(ii))],
            [(io, S.IntC(0), S.IntC(4)), (ii, S.IntC(0), S.IntC(16))],
            [],
        )
        assert box is not None
        assert box.lo == (S.IntC(0),)
        assert box.hi == (S.IntC(64),)

    def test_strided_write_not_dense(self):
        # 2*i over i in [0,8) writes only even points: no box
        i = Sym("i")
        box = absint._dense_box(
            [S.scale(2, S.Var(i))], [(i, S.IntC(0), S.IntC(8))], []
        )
        assert box is None

    def test_zero_trip_loop_covers_nothing(self):
        i, n = Sym("i"), Sym("n")
        # trip count not provably >= 1 under empty assumptions
        box = absint._dense_box(
            [S.Var(i)], [(i, S.IntC(0), S.Var(n))], []
        )
        assert box is None
        # with n >= 1 it is a box
        box = absint._dense_box(
            [S.Var(i)],
            [(i, S.IntC(0), S.Var(n))],
            [S.ge(S.Var(n), S.IntC(1))],
        )
        assert box is not None

    def test_diagonal_footprint_rejected(self):
        i = Sym("i")
        box = absint._dense_box(
            [S.Var(i), S.Var(i)], [(i, S.IntC(0), S.IntC(4))], []
        )
        assert box is None

    def test_box_covers(self):
        cover = Box((S.IntC(0),), (S.IntC(16),))
        inner = Box((S.IntC(2),), (S.IntC(10),))
        assert absint.box_covers([], cover, inner)
        assert not absint.box_covers([], inner, cover)
