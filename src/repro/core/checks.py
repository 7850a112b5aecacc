"""Front-end safety checks that ride on the SMT solver.

* **Bounds checking** (§3.1 item 3): every buffer access, window bound, and
  allocation extent is statically proven in-bounds / positive, under the
  procedure's assertions and the enclosing control-flow facts.  This gives
  memory safety with zero dynamic checks.

* **Assertion checking** (§3.1 item 6): every call site is proven to satisfy
  the callee's asserted preconditions, using the configuration dataflow to
  resolve config-field reads (so ``assert Config.src_stride == stride(src,
  0)`` is provable right after the corresponding config write).

* **Incremental re-checking**: when a scheduling rewrite supplies a precise
  :class:`~repro.scheduling.cursors.Forwarder`, :func:`check_proc_incremental`
  re-discharges only the obligations the rewrite could have invalidated —
  those inside a touched subtree, or (when config state moved) downstream
  of a touched path — and reuses the parent revision's verdicts for the
  rest.  ``analysis.incremental.{reused,rechecked,fallback}`` counters
  record the savings; set ``REPRO_INCREMENTAL=0`` (or
  :func:`set_incremental`) to force the full pipeline.
"""

from __future__ import annotations

import os

from ..analysis.absint import prove
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.solver import DEFAULT_SOLVER
from . import ast as IR
from . import types as T
from .buffers import TypeEnv
from .dataflow import GlobalState, Walker, _StrideEnv, _actual_stride, lower_ctrl
from .ir2smt import lower_expr, proc_assumptions
from .prelude import AssertCheckError, BoundsCheckError, Sym


def _counterexample(assumptions, goal, solver=None) -> str | None:
    """A satisfying assignment of ``assumptions /\\ not goal``, rendered
    ``"i = 4, n = 4"`` -- the concrete inputs under which the unproven
    obligation actually fails (best-effort; None when unavailable)."""
    solver = solver or DEFAULT_SOLVER
    model = solver.find_model(S.conj(*assumptions, S.negate(goal)))
    if not model:
        return None
    items = sorted(model.items(), key=lambda kv: (kv[0].name, kv[0].id))
    return ", ".join(f"{s.name} = {v}" for s, v in items[:8])


def bounds_check(proc: IR.Proc, solver=None, scope=None):
    """Prove every access in ``proc`` in-bounds; raise on failure.

    With a :class:`RecheckScope`, only obligations the scope marks dirty
    are re-proven (the walk still runs in full, maintaining dataflow
    state, but goal assembly and proving are skipped elsewhere)."""
    with _obs.span("effects.bounds_check"):
        _bounds_check(proc, solver, scope)


def _bounds_check(proc: IR.Proc, solver=None, scope=None):
    base = proc_assumptions(proc)
    errors = []

    def check(goal, facts, what, srcinfo, detail=""):
        if not prove(base + facts, goal, solver, category="bounds"):
            msg = f"{srcinfo}: cannot prove {what}"
            extras = [detail] if detail else []
            cex = _counterexample(base + facts, goal, solver)
            if cex:
                extras.append(f"counterexample: {cex}")
            if extras:
                msg += f" ({'; '.join(extras)})"
            errors.append(msg)

    def check_idx(name, idx_terms, shape, facts, srcinfo, tenv, state):
        for i_t, extent in zip(idx_terms, shape):
            ext_t = lower_ctrl(extent, tenv, state)
            ok = S.conj(S.ge(i_t, S.IntC(0)), S.lt(i_t, ext_t))
            check(
                ok,
                facts,
                f"access to {name} in bounds",
                srcinfo,
                detail=(
                    f"index {S.term_to_str(i_t)} vs extent "
                    f"{S.term_to_str(ext_t)}"
                ),
            )

    def check_expr(e, facts, tenv, state):
        for sub in IR.walk_exprs(e):
            if isinstance(sub, IR.Read) and sub.idx:
                typ = tenv.type_of(sub.name)
                idx_terms = [lower_ctrl(i, tenv, state) for i in sub.idx]
                check_idx(
                    sub.name, idx_terms, typ.shape(), facts, sub.srcinfo, tenv, state
                )
            elif isinstance(sub, IR.WindowExpr):
                typ = tenv.type_of(sub.name)
                for w, extent in zip(sub.idx, typ.shape()):
                    ext_t = lower_ctrl(extent, tenv, state)
                    if isinstance(w, IR.Interval):
                        lo = lower_ctrl(w.lo, tenv, state)
                        hi = lower_ctrl(w.hi, tenv, state)
                        ok = S.conj(
                            S.ge(lo, S.IntC(0)), S.le(lo, hi), S.le(hi, ext_t)
                        )
                        check(
                            ok,
                            facts,
                            f"window of {sub.name} in bounds",
                            sub.srcinfo,
                            detail=(
                                f"interval [{S.term_to_str(lo)}, "
                                f"{S.term_to_str(hi)}) vs extent "
                                f"{S.term_to_str(ext_t)}"
                            ),
                        )
                    else:
                        pt = lower_ctrl(w.pt, tenv, state)
                        ok = S.conj(S.ge(pt, S.IntC(0)), S.lt(pt, ext_t))
                        check(
                            ok,
                            facts,
                            f"window of {sub.name} in bounds",
                            sub.srcinfo,
                            detail=(
                                f"index {S.term_to_str(pt)} vs extent "
                                f"{S.term_to_str(ext_t)}"
                            ),
                        )

    def visit(s, path, facts, state, tenv):
        if scope is not None:
            if not scope.needs(path):
                _obs.incr("analysis.incremental.reused")
                return
            _obs.incr("analysis.incremental.rechecked")
        for e in IR.stmt_exprs(s):
            check_expr(e, facts, tenv, state)
        if isinstance(s, (IR.Assign, IR.Reduce)) and s.idx:
            typ = tenv.type_of(s.name)
            idx_terms = [lower_ctrl(i, tenv, state) for i in s.idx]
            check_idx(s.name, idx_terms, typ.shape(), facts, s.srcinfo, tenv, state)
        if isinstance(s, IR.Alloc) and s.type.is_tensor_or_window():
            for h in s.type.shape():
                check(
                    S.ge(lower_ctrl(h, tenv, state), S.IntC(1)),
                    facts,
                    f"allocation extent of {s.name} positive",
                    s.srcinfo,
                )

    Walker(proc, visit).run()
    if errors:
        raise BoundsCheckError("\n".join(errors))


def assert_check(proc: IR.Proc, solver=None, scope=None):
    """Prove every call's preconditions; raise on failure."""
    with _obs.span("effects.assert_check"):
        _assert_check(proc, solver, scope)


def _assert_check(proc: IR.Proc, solver=None, scope=None):
    base = proc_assumptions(proc)
    errors = []

    def visit(s, path, facts, state, tenv):
        if not isinstance(s, IR.Call):
            return
        if scope is not None:
            if not scope.needs(path):
                _obs.incr("analysis.incremental.reused")
                return
            _obs.incr("analysis.incremental.rechecked")
        callee = s.proc
        sub = {}
        stride_extra = {}
        shape_goals = []
        for formal, actual in zip(callee.args, s.args):
            if formal.type.is_numeric():
                if formal.type.is_tensor_or_window():
                    rank = len(formal.type.shape())
                    for d in range(rank):
                        stride_extra[(formal.name, d)] = _actual_stride(
                            actual, d, tenv
                        )
                    # callee's declared extents must equal the actual extents
                    for d, formal_ext in enumerate(formal.type.shape()):
                        act_ext = _actual_extent(actual, d, tenv, state)
                        if act_ext is None:
                            continue
                        fe = S.substitute(
                            state.subst_term(lower_expr(formal_ext)), sub
                        )
                        shape_goals.append(
                            (S.eq(fe, act_ext), f"extent {d} of {formal.name}")
                        )
            else:
                sub[formal.name] = lower_ctrl(actual, tenv, state)
                if formal.type.is_sizeable():
                    shape_goals.append(
                        (
                            S.ge(sub[formal.name], S.IntC(1)),
                            f"size argument {formal.name} positive",
                        )
                    )
        for goal, what in shape_goals:
            if not prove(base + facts, goal, solver, category="assert"):
                errors.append(
                    f"{s.srcinfo}: call to {callee.name}: cannot prove {what}"
                )
        for pred in callee.preds:
            t = lower_expr(pred, _StrideEnv(TypeEnv(callee), stride_extra))
            t = S.substitute(t, sub)
            t = state.subst_term(t)
            if not prove(base + facts, t, solver, category="assert"):
                errors.append(
                    f"{s.srcinfo}: call to {callee.name}: cannot prove "
                    f"precondition"
                )

    Walker(proc, visit).run()
    if errors:
        raise AssertCheckError("\n".join(errors))


def _actual_extent(actual, d, tenv, state):
    """SMT term for dimension ``d``'s extent of a buffer argument."""
    if isinstance(actual, IR.Read) and not actual.idx:
        typ = tenv.type_of(actual.name)
        return lower_ctrl(typ.shape()[d], tenv, state)
    if isinstance(actual, IR.WindowExpr):
        ivs = [w for w in actual.idx if isinstance(w, IR.Interval)]
        w = ivs[d]
        return S.sub(lower_ctrl(w.hi, tenv, state), lower_ctrl(w.lo, tenv, state))
    return None


def check_proc(proc: IR.Proc, solver=None):
    """Run the front-end pipeline: bounds, preconditions, and the race
    detector over any ``par`` loops (user-written or rewrite-preserved)."""
    bounds_check(proc, solver)
    assert_check(proc, solver)
    from ..analysis.parallel import check_par_loops  # deferred: avoids cycle

    check_par_loops(proc)


# ---------------------------------------------------------------------------
# Incremental re-checking (driven by rewrite forwarders)
# ---------------------------------------------------------------------------

_INCREMENTAL = [os.environ.get("REPRO_INCREMENTAL", "1") != "0"]


def incremental_enabled() -> bool:
    return _INCREMENTAL[0]


def set_incremental(on: bool) -> bool:
    """Toggle incremental re-checking; returns the previous setting."""
    prev = _INCREMENTAL[0]
    _INCREMENTAL[0] = bool(on)
    return prev


def _is_prefix(a, b) -> bool:
    return len(a) <= len(b) and tuple(b[: len(a)]) == tuple(a)


def _precedes(t, q) -> bool:
    """Does path ``t`` come strictly before ``q`` in program order, within
    the same control-flow branch?  (Divergence at an If's body/orelse means
    neither context can observe the other's config writes.)"""
    for (tf, ti), (qf, qi) in zip(t, q):
        if tf != qf:
            return False
        if ti != qi:
            return ti < qi
    return False


class RecheckScope:
    """Decides, per obligation path, whether a rewrite described by
    ``(touched, ctx_dirty)`` could have invalidated the parent revision's
    verdict for it.

    An obligation at ``q`` must be re-proven when a touched path is a
    prefix of ``q`` (the statement or an ancestor was rewritten), or —
    when the rewrite moved config state — when some touched path either
    precedes ``q`` in program order or shares an enclosing loop with it
    (loop entry joins the body's config writes, so even an *earlier*
    statement in the same loop can observe a later write)."""

    def __init__(self, proc: IR.Proc, touched, ctx_dirty: bool):
        self.touched = [tuple(t) for t in touched]
        self.ctx_dirty = ctx_dirty
        self._loop_prefixes = []
        if ctx_dirty:
            seen = set()
            for t in self.touched:
                for k in range(1, len(t)):
                    pre = t[:k]
                    if pre in seen:
                        continue
                    seen.add(pre)
                    try:
                        if isinstance(IR.get_stmt(proc, pre), IR.For):
                            self._loop_prefixes.append(pre)
                    except (IndexError, AttributeError):
                        pass

    def needs(self, path) -> bool:
        path = tuple(path)
        for t in self.touched:
            if _is_prefix(t, path):
                return True
            if self.ctx_dirty and _precedes(t, path):
                return True
        if self.ctx_dirty:
            for pre in self._loop_prefixes:
                if _is_prefix(pre, path):
                    return True
        return False

    def needs_subtree(self, path) -> bool:
        """``needs`` for whole-subtree obligations (par-loop race checks):
        also dirty when a touched path lies inside the subtree."""
        path = tuple(path)
        if self.needs(path):
            return True
        return any(_is_prefix(path, t) for t in self.touched)


def check_proc_incremental(proc: IR.Proc, fwd, solver=None):
    """Like :func:`check_proc`, but when ``fwd`` (the rewrite's Forwarder)
    is precise, reuse the parent revision's verdicts for every obligation
    outside the rewrite's blast radius.  ``fwd=None`` or an imprecise
    forwarder falls back to the full pipeline."""
    if (
        fwd is None
        or not getattr(fwd, "precise", False)
        or not _INCREMENTAL[0]
    ):
        _obs.incr("analysis.incremental.fallback")
        return check_proc(proc, solver)
    scope = RecheckScope(proc, fwd.touched, fwd.ctx_dirty)
    with _obs.span("analysis.incremental"):
        bounds_check(proc, solver, scope=scope)
        assert_check(proc, solver, scope=scope)
        from ..analysis.parallel import check_par_loops

        check_par_loops(proc, scope=scope)
