"""Reference interpreter for LoopIR.

Executes a procedure on numpy buffers, following the denotational semantics
of §4 directly: stores map names to control values or buffers; windows are
aliasing numpy views; ``@instr`` procedures execute their Exo bodies (the
body *is* the semantic specification of the instruction, §3.2.2).

The interpreter is the ground truth that scheduled kernels are differential-
tested against, and the functional half of the machine simulators: a
simulator may register an ``instr_hook`` to intercept instruction calls
(e.g. to log a trace or to model the accelerator's own execution) while
everything else runs under the normal semantics, and an ``alloc_hook`` to
learn which ``Alloc`` statement created each buffer.
"""

from __future__ import annotations

import numpy as np

from .prelude import ExoError, InternalError
from . import ast as IR
from . import types as T


class InterpError(ExoError):
    pass


_DTYPES = {
    "R": np.float32,
    "f16": np.float16,
    "f32": np.float32,
    "f64": np.float64,
    "i8": np.int8,
    "i32": np.int32,
}


def dtype_of(typ: T.Type):
    return _DTYPES[str(typ.basetype())]


def run_proc(proc: IR.Proc, *args, config_state=None, instr_hook=None,
             alloc_hook=None):
    """Execute ``proc`` on the given arguments.

    Tensor arguments must be numpy arrays (modified in place); control
    arguments are Python ints/bools; scalar data arguments may be 0-d numpy
    arrays (mutable) or Python floats (read-only).

    ``config_state`` is a mutable dict holding configuration fields, keyed
    by ``(config, field)``.  ``instr_hook(proc, env_args)`` is called for
    every ``@instr`` call; if it returns True the body is skipped.
    ``alloc_hook(stmt, array)`` is called for every ``Alloc`` executed,
    with the fresh buffer.
    """
    config_state = config_state if config_state is not None else {}
    interp = _Interp(config_state, instr_hook, alloc_hook)
    interp.call(proc, list(args))
    return config_state


class _Interp:
    def __init__(self, config_state, instr_hook, alloc_hook):
        self.config = config_state
        self.instr_hook = instr_hook
        self.alloc_hook = alloc_hook

    # -- procedure calls ---------------------------------------------------

    def call(self, proc: IR.Proc, arg_values):
        if len(arg_values) != len(proc.args):
            raise InterpError(
                f"{proc.name}: expected {len(proc.args)} arguments, "
                f"got {len(arg_values)}"
            )
        env = {}
        for formal, val in zip(proc.args, arg_values):
            env[formal.name] = self._coerce_arg(formal, val)
        # the hook runs first: a timing-only tracer skips bodies (and hence
        # the dynamic precondition sanity checks, which need config state)
        if proc.instr is not None and self.instr_hook is not None:
            if self.instr_hook(proc, env):
                return
        for pred in proc.preds:
            if not self.eval(pred, env):
                raise InterpError(
                    f"{proc.name}: precondition failed: {pred}"
                )
        self.exec_block(proc.body, env)

    @staticmethod
    def _coerce_arg(formal: IR.FnArg, val):
        typ = formal.type
        if typ.is_numeric():
            if typ.is_real_scalar():
                if isinstance(val, (int, float)):
                    return np.asarray(val, dtype=dtype_of(typ))
                return val
            if not isinstance(val, np.ndarray):
                raise InterpError(
                    f"argument {formal.name} must be a numpy array"
                )
            return val
        if typ.is_bool():
            return bool(val)
        return int(val)

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts, env):
        for s in stmts:
            self.exec_stmt(s, env)

    def exec_stmt(self, s: IR.Stmt, env):
        if isinstance(s, IR.Assign):
            buf = env[s.name]
            idx = tuple(self.eval(i, env) for i in s.idx)
            val = self.eval(s.rhs, env)
            if idx:
                buf[idx] = val
            else:
                buf[()] = val
        elif isinstance(s, IR.Reduce):
            buf = env[s.name]
            idx = tuple(self.eval(i, env) for i in s.idx)
            val = self.eval(s.rhs, env)
            if idx:
                buf[idx] += val
            else:
                buf[()] += val
        elif isinstance(s, IR.WriteConfig):
            self.config[(s.config, s.field)] = self.eval(s.rhs, env)
        elif isinstance(s, IR.Pass):
            pass
        elif isinstance(s, IR.If):
            if self.eval(s.cond, env):
                self.exec_block(s.body, env)
            else:
                self.exec_block(s.orelse, env)
        elif isinstance(s, IR.For):
            lo = self.eval(s.lo, env)
            hi = self.eval(s.hi, env)
            for i in range(lo, hi):
                env[s.iter] = i
                self.exec_block(s.body, env)
            env.pop(s.iter, None)
        elif isinstance(s, IR.Alloc):
            if s.type.is_real_scalar():
                env[s.name] = np.zeros((), dtype=dtype_of(s.type))
            else:
                shape = tuple(self.eval(h, env) for h in s.type.shape())
                env[s.name] = np.zeros(shape, dtype=dtype_of(s.type))
            if self.alloc_hook is not None:
                self.alloc_hook(s, env[s.name])
        elif isinstance(s, IR.Call):
            args = [self.eval_arg(a, env) for a in s.args]
            self.call(s.proc, args)
        elif isinstance(s, IR.WindowStmt):
            env[s.name] = self.eval(s.rhs, env)
        else:
            raise InternalError(f"unknown statement {type(s).__name__}")

    def eval_arg(self, e: IR.Expr, env):
        # buffer arguments pass by reference (views); others by value
        if isinstance(e, IR.Read) and not e.idx:
            return env[e.name]
        return self.eval(e, env)

    # -- expressions ---------------------------------------------------------

    def eval(self, e: IR.Expr, env):
        if isinstance(e, IR.Read):
            val = env[e.name]
            if e.idx:
                return val[tuple(self.eval(i, env) for i in e.idx)]
            if isinstance(val, np.ndarray) and val.ndim == 0:
                return val[()]
            return val
        if isinstance(e, IR.Const):
            return e.val
        if isinstance(e, IR.USub):
            return -self.eval(e.arg, env)
        if isinstance(e, IR.BinOp):
            return self.eval_binop(e, env)
        if isinstance(e, IR.Extern):
            return e.f.interpret([self.eval(a, env) for a in e.args])
        if isinstance(e, IR.WindowExpr):
            buf = env[e.name]
            index = []
            for w in e.idx:
                if isinstance(w, IR.Interval):
                    index.append(slice(self.eval(w.lo, env), self.eval(w.hi, env)))
                else:
                    index.append(self.eval(w.pt, env))
            return buf[tuple(index)]
        if isinstance(e, IR.StrideExpr):
            buf = env[e.name]
            return buf.strides[e.dim] // buf.itemsize
        if isinstance(e, IR.ReadConfig):
            key = (e.config, e.field)
            if key not in self.config:
                raise InterpError(
                    f"read of uninitialized config {e.config.name()}.{e.field}"
                )
            return self.config[key]
        raise InternalError(f"unknown expression {type(e).__name__}")

    def eval_binop(self, e: IR.BinOp, env):
        op = e.op
        l = self.eval(e.lhs, env)
        if op == "and":
            return bool(l) and bool(self.eval(e.rhs, env))
        if op == "or":
            return bool(l) or bool(self.eval(e.rhs, env))
        r = self.eval(e.rhs, env)
        is_ctrl = e.type is not None and not e.type.is_numeric()
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if e.lhs.type is not None and e.lhs.type.is_indexable():
                return l // r
            return l / r
        if op == "%":
            return l % r
        if op == "==":
            return l == r
        if op == "<":
            return l < r
        if op == ">":
            return l > r
        if op == "<=":
            return l <= r
        if op == ">=":
            return l >= r
        raise InternalError(f"unknown operator {op}")
