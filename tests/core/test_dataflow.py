"""The symbolic configuration dataflow (ValG, §5.3)."""

from __future__ import annotations

import pytest

from repro.api import procs_from_source
from repro.core.configs import Config
from repro.core.dataflow import GlobalState, Walker, state_before
from repro.core import ast as IR
from repro.core import types as T
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size, stride\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


@pytest.fixture
def cfg():
    return Config("CfgDF", [("a", T.int_t), ("b", T.int_t)])


def _state_at_call(p):
    proc = p.ir()
    for path, *_rest in _positions(proc):
        s = IR.get_stmt(proc, path)
        if isinstance(s, IR.Call):
            return state_before(proc, path)
    raise AssertionError("no call found")


def _positions(proc):
    from repro.scheduling.pattern import _iter_positions

    for path, block, i in _iter_positions(proc):
        yield (path,)


class TestStraightLine:
    def test_write_tracked(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(x: f32 @ DRAM):
    CfgDF.a = 7
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _facts, state, _tenv = _state_at_call(p)
        assert state.get(cfg.sym("a")) == S.IntC(7)

    def test_dependent_write(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    CfgDF.a = n
    CfgDF.b = CfgDF.a + 1
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        n = p.ir().args[0].name
        assert state.get(cfg.sym("b")) == S.add(S.Var(n), S.IntC(1))

    def test_if_merge_equal(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    if n > 4:
        CfgDF.a = 2
    else:
        CfgDF.a = 2
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(cfg.sym("a")) == S.IntC(2)

    def test_if_merge_differs_havocs(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    if n > 4:
        CfgDF.a = 1
    else:
        CfgDF.a = 2
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        v = state.get(cfg.sym("a"))
        assert v not in (S.IntC(1), S.IntC(2))  # unknown


class TestLoops:
    def test_invariant_write_survives_loop(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
    g(x[0])
""",
            extra={"CfgDF": cfg},
        ) if False else _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(cfg.sym("a")) == S.IntC(3)

    def test_variant_write_havocs(self, cfg):
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        CfgDF.a = i
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(cfg.sym("a")) != S.IntC(3)

    def test_loop_constant_write_with_proven_trip(self, cfg):
        """A loop that writes the same constant every iteration, with a
        provably positive trip count, leaves a definite value (the §2.4
        hoisting pattern)."""
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    for i in seq(0, n):
        CfgDF.a = 5
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(cfg.sym("a")) == S.IntC(5)

    def test_zero_trip_possible_havocs(self, cfg):
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    for i in seq(0, n - 1):
        CfgDF.a = 5
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(cfg.sym("a")) != S.IntC(5)


class TestCalls:
    def test_callee_write_visible(self, cfg):
        p = _p(
            """
@proc
def setter(n: size, v: f32 @ DRAM):
    CfgDF.a = n
    v = 0.0

@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(v: f32 @ DRAM):
    setter(9, v)
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        proc = p.ir()
        # state before the *second* call
        calls = [
            path
            for (path,) in _positions(proc)
            if isinstance(IR.get_stmt(proc, path), IR.Call)
        ]
        _f, state, _t = state_before(proc, calls[1])
        assert state.get(cfg.sym("a")) == S.IntC(9)


class TestLoopConvergence:
    """The loop stabilization heuristic, observed *inside* the body."""

    def _body_state(self, p, lineno_pred):
        proc = p.ir()
        for (path,) in _positions(proc):
            s = IR.get_stmt(proc, path)
            if lineno_pred(s):
                _f, state, _t = state_before(proc, path)
                return state
        raise AssertionError("no matching statement")

    def test_invariant_field_stays_symbolic_in_body(self, cfg):
        # a field set before the loop and untouched by it keeps its exact
        # value at every point of the body -- no spurious havoc
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(cfg.sym("a")) == S.IntC(3)

    def test_mutated_field_is_unknown_in_body(self, cfg):
        # a field the loop overwrites with a loop-variant value must be
        # driven to an opaque unknown inside the body: iteration k observes
        # iteration k-1's write, not the pre-loop value
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = i
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        a = state.get(cfg.sym("a"))
        assert a != S.IntC(3)
        assert isinstance(a, S.Var)  # opaque unknown, not some stale term

    def test_mixed_fields_converge_independently(self, cfg):
        # stabilization havocs only the variant field; the invariant one
        # keeps its value through the same fixpoint rounds
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    CfgDF.b = 7
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.b = i
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(cfg.sym("a")) == S.IntC(3)
        assert state.get(cfg.sym("b")) != S.IntC(7)

    def test_self_referential_write_converges(self, cfg):
        # CfgDF.a = CfgDF.a inside the loop is a no-op: the fixpoint must
        # recognize it as invariant rather than havocking forever
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = CfgDF.a
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(cfg.sym("a")) == S.IntC(3)

    def test_iter_contexts_matches_state_before(self, cfg):
        # the bulk walk must agree with the per-path API at every statement
        from repro.core.dataflow import iter_contexts

        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = i
    x[0] = 1.0
""",
            extra={"CfgDF": cfg},
        )
        proc = p.ir()
        ctxs = iter_contexts(proc)
        assert len(ctxs) == 5  # write, for, assign, write, assign
        for s, path, facts, state, _tenv in ctxs:
            assert IR.get_stmt(proc, path) is s
            f2, st2, _t2 = state_before(proc, path)
            assert facts == f2
            a = cfg.sym("a")
            v1, v2 = state.get(a), st2.get(a)
            if isinstance(v1, S.Var) and v1.sym.name.endswith("_u"):
                # havoc unknowns are minted fresh per walk: equal up to name
                assert isinstance(v2, S.Var) and v2.sym.name.endswith("_u")
            else:
                assert v1 == v2
