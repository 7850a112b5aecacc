"""Lowering control expressions to SMT terms."""

from __future__ import annotations

import pytest

from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core import types as T
from repro.core.ir2smt import lower_expr, proc_assumptions, stride_sym
from repro.core.prelude import InternalError, Sym
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


def V(sym, typ=T.index_t):
    return IR.Read(sym, (), typ)


def C(v):
    return IR.Const(v, T.int_t)


class TestLowering:
    def test_arith(self):
        x = Sym("x")
        e = IR.BinOp("+", IR.BinOp("*", C(3), V(x), T.index_t), C(1), T.index_t)
        t = lower_expr(e)
        assert t == S.add(S.scale(3, S.Var(x)), S.IntC(1))

    def test_floor_div_mod(self):
        x = Sym("x")
        t = lower_expr(IR.BinOp("/", V(x), C(4), T.index_t))
        assert t == S.floordiv(S.Var(x), 4)
        t2 = lower_expr(IR.BinOp("%", V(x), C(4), T.index_t))
        assert t2 == S.mod(S.Var(x), 4)

    def test_comparison(self):
        x = Sym("x")
        t = lower_expr(IR.BinOp("<", V(x), C(4), T.bool_t))
        assert isinstance(t, S.Cmp) and t.op == "<"

    def test_bool_ops(self):
        x = Sym("x")
        a = IR.BinOp("<", V(x), C(4), T.bool_t)
        t = lower_expr(IR.BinOp("and", a, a, T.bool_t))
        # smart constructor dedups the conjunction
        assert isinstance(t, S.Cmp)

    def test_nonaffine_rejected(self):
        x, y = Sym("x"), Sym("y")
        e = IR.BinOp("*", V(x), V(y), T.index_t)
        with pytest.raises(InternalError):
            lower_expr(e)

    def test_config_sym_stable(self):
        from repro.core.configs import Config

        cfg = Config("CfgL", [("v", T.int_t)])
        assert cfg.sym("v") is cfg.sym("v")

    def test_stride_sym_stable(self):
        b = Sym("buf")
        assert stride_sym(b, 0) is stride_sym(b, 0)
        assert stride_sym(b, 0) is not stride_sym(b, 1)


class TestAssumptions:
    def test_size_positivity(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    x[0] = 0.0
"""
        )
        facts = proc_assumptions(p.ir())
        n = p.ir().args[0].name
        assert S.ge(S.Var(n), S.IntC(1)) in facts

    def test_preds_included(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    assert n % 4 == 0
    x[0] = 0.0
"""
        )
        facts = proc_assumptions(p.ir())
        n = p.ir().args[0].name
        assert S.eq(S.mod(S.Var(n), 4), S.IntC(0)) in facts

    def test_extent_positivity(self):
        p = _p(
            """
@proc
def f(n: size, x: f32[n - 0] @ DRAM):
    x[0] = 0.0
"""
        )
        facts = proc_assumptions(p.ir())
        assert any(isinstance(f, S.Cmp) for f in facts)
