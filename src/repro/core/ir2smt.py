"""Lowering of LoopIR *control* expressions into SMT terms.

Control expressions are quasi-affine by construction (enforced by the type
checker), so every one of them maps onto the solver's LIA term language:

* control variables map to integer/boolean SMT variables (sharing the same
  :class:`Sym`),
* config fields map to one SMT variable per ``(config, field)``, owned by
  the :class:`~repro.core.configs.Config`,
* ``stride(x, d)`` maps to one SMT variable per ``(buffer, dim)``, owned by
  the buffer's :class:`Sym`, unless the buffer's layout makes the stride
  statically known.

Booleans are encoded as integers 0/1 only where needed; boolean-sorted
control expressions lower directly to formulas.
"""

from __future__ import annotations

from ..smt import terms as S
from ..core.prelude import InternalError, Sym
from . import ast as IR
from . import types as T


def stride_sym(buf: Sym, dim: int) -> Sym:
    """The SMT variable standing for ``stride(buf, dim)``: one per
    dimension, owned by the buffer's symbol and minted on first use."""
    if buf.strides is None:
        buf.strides = {}
    s = buf.strides.get(dim)
    if s is None:
        s = buf.strides[dim] = Sym(f"{buf.name}_stride{dim}")
    return s


def lower_expr(e: IR.Expr, stride_env=None) -> S.Term:
    """Lower a control expression to an SMT term or formula.

    ``stride_env`` optionally maps ``(Sym, dim)`` to replacement terms (used
    when substituting call arguments through procedure boundaries).
    """
    if isinstance(e, IR.Read):
        if e.idx:
            raise InternalError("data reads cannot be lowered to control terms")
        sort = S.BOOL if e.type is not None and e.type.is_bool() else S.INT
        return S.Var(e.name, sort)
    if isinstance(e, IR.Const):
        if e.type.is_bool():
            return S.mk_bool(bool(e.val))
        return S.IntC(int(e.val))
    if isinstance(e, IR.USub):
        return S.neg(lower_expr(e.arg, stride_env))
    if isinstance(e, IR.BinOp):
        op = e.op
        if op in ("and", "or"):
            l = lower_expr(e.lhs, stride_env)
            r = lower_expr(e.rhs, stride_env)
            return S.conj(l, r) if op == "and" else S.disj(l, r)
        if op in ("==", "<", ">", "<=", ">="):
            l = lower_expr(e.lhs, stride_env)
            r = lower_expr(e.rhs, stride_env)
            if op == "==" and _is_bool_term(l):
                return S.iff(l, r)
            return S.cmp(op, l, r)
        l = lower_expr(e.lhs, stride_env)
        r = lower_expr(e.rhs, stride_env)
        if op == "+":
            return S.add(l, r)
        if op == "-":
            return S.sub(l, r)
        if op == "*":
            if isinstance(l, S.IntC):
                return S.scale(l.val, r)
            if isinstance(r, S.IntC):
                return S.scale(r.val, l)
            raise InternalError("non-affine multiplication reached lowering")
        if op == "/":
            if not isinstance(r, S.IntC):
                raise InternalError("non-literal divisor reached lowering")
            return S.floordiv(l, r.val)
        if op == "%":
            if not isinstance(r, S.IntC):
                raise InternalError("non-literal divisor reached lowering")
            return S.mod(l, r.val)
        raise InternalError(f"unknown control op {op}")
    if isinstance(e, IR.StrideExpr):
        if stride_env and (e.name, e.dim) in stride_env:
            return stride_env[(e.name, e.dim)]
        return S.Var(stride_sym(e.name, e.dim))
    if isinstance(e, IR.ReadConfig):
        sort = S.BOOL if e.config.field_type(e.field).is_bool() else S.INT
        return S.Var(e.config.sym(e.field), sort)
    raise InternalError(f"cannot lower {type(e).__name__} to a control term")


def _is_bool_term(t: S.Term) -> bool:
    if isinstance(t, S.BoolC):
        return True
    if isinstance(t, S.Var):
        return t.sort == S.BOOL
    return isinstance(t, (S.Cmp, S.Not, S.And, S.Or))


def dense_strides(shape_terms):
    """Row-major stride terms for a dense tensor with the given extents."""
    n = len(shape_terms)
    strides = [S.IntC(1)] * n
    for d in range(n - 2, -1, -1):
        nxt = shape_terms[d + 1]
        if isinstance(strides[d + 1], S.IntC) and isinstance(nxt, S.IntC):
            strides[d] = S.IntC(strides[d + 1].val * nxt.val)
        else:
            strides[d] = None  # symbolic product is non-affine; leave opaque
            # all outer strides are then opaque too
            for dd in range(d, -1, -1):
                strides[dd] = None
            break
    return strides


def proc_assumptions(proc: IR.Proc):
    """Facts the analysis may assume inside ``proc``:

    * every ``size``-typed argument is strictly positive,
    * every declared predicate (static assertion) holds,
    * tensor extents are strictly positive.
    """
    facts = []
    for a in proc.args:
        if a.type.is_sizeable():
            facts.append(S.ge(S.Var(a.name), S.IntC(1)))
        if a.type.is_tensor_or_window():
            for h in a.type.shape():
                facts.append(S.ge(lower_expr(h), S.IntC(1)))
    for p in proc.preds:
        facts.append(lower_expr(p))
    return facts
