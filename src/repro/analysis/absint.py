"""Interval / affine-bounds abstract interpretation: the SMT fast path.

The §5 safety story discharges *every* obligation -- bounds, preconditions,
disjointness -- to the full LIA decision procedure, and compile profiles
show solver time dominating ``check_proc`` even with the canonical query
cache.  Yet the overwhelming majority of those goals are trivial affine
facts: ``0 <= 16*io + ii < n`` under ``0 <= io < n/16, 0 <= ii < 16``.

This module decides exactly that fragment with a capped Fourier-Motzkin
refutation engine (:func:`refute`, real shadows only) over the solver's
own linear constraints (:mod:`repro.smt.omega`):

* :func:`try_prove` -- can ``assumptions ⟹ goal`` be established by affine
  reasoning alone?  It only ever answers *proved* or *unknown*, never
  *disproved*, so callers fall through to the solver on unknown and no
  verdict can flip.  Soundness: the goal's negation is conjoined with the
  (weakened) context facts and refuted; infeasibility over the rationals
  (what FM decides, tightened with gcd normalization over the integers)
  implies integer infeasibility, which implies validity.

* Quasi-affine ``/`` and ``%`` are purified by the solver's
  :class:`~repro.smt.omega.Purifier`, which keys quotient variables by the
  *structural* ``FloorDiv`` term, so every occurrence of ``n / 16`` across
  facts and goal shares one variable and divisibility preconditions like
  ``n % 16 == 0`` connect to loop bounds like ``io < n / 16``.  Rows are
  gcd-tightened by :func:`repro.smt.omega.tighten`, as in the Omega test.

* :func:`prove` is the one entry point every checker uses for an
  obligation: the fast path first, ``Solver.prove`` on fall-through, with
  ``analysis.absint.*`` obs counters (goals tried / discharged /
  fell-through, per originating check category); fall-through solver calls
  are tagged with the category via :func:`repro.obs.smtstats.query_category`.

On top of the same linear engine sits the **write-coverage box domain**
used by the sanitizers (:mod:`repro.analysis.sanitize`): sets of
per-dimension ``[lo, hi)`` interval boxes over buffer points, the abstract
counterpart of §5's ``Locs`` location sets.  :func:`write_boxes`
under-approximates the definitely-written footprint of an effect (dense,
unguarded, provably-executed writes only) and :func:`covers_reads` checks
read footprints against it without any SMT call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.prelude import Sym
from ..obs import smtstats as _smtstats
from ..obs import trace as _obs
from ..smt import terms as S
from ..smt.omega import (
    DIV,
    EQ,
    GEQ,
    Constraint,
    Infeasible,
    LinExpr,
    NonAffine,
    Purifier,
    tighten,
)
from ..smt.solver import DEFAULT_SOLVER

#: give-up thresholds keeping the fast path strictly cheap: anything larger
#: falls through to the solver rather than risking FM's worst case
MAX_VARS = 24
MAX_CONS = 192
MAX_COMBOS = 96
MAX_COEF = 10**15

_FASTPATH = [True]


def fastpath_enabled() -> bool:
    return _FASTPATH[0]


# ---------------------------------------------------------------------------
# Capped Fourier-Motzkin refutation
# ---------------------------------------------------------------------------

#: ``not (l op r)`` as one atom; ``==`` has no conjunctive negation
_NEG_OP = {">=": "<", ">": "<=", "<=": ">", "<": ">="}
_FALSE = Constraint(LinExpr.constant(-1), GEQ)


def _tightest(rows: List[LinExpr]) -> List[LinExpr]:
    """gcd-tighten each ``row >= 0`` and keep the tightest (smallest
    constant) row per coefficient tuple; trivially true rows are dropped.
    Raises :class:`Infeasible` on a contradictory row."""
    best: Dict[tuple, LinExpr] = {}
    for e in rows:
        c = tighten(Constraint(e, GEQ))
        if c is None:
            continue
        old = best.get(c.expr.coeffs)
        if old is None or c.expr.const < old.const:
            best[c.expr.coeffs] = c.expr
    return list(best.values())


def refute(cons: List[Constraint]) -> bool:
    """Is the conjunction of ``cons`` infeasible?  ``True`` is a proof of
    infeasibility (over the rationals, with gcd tightening -- hence also
    over the integers); ``False`` only means *could not refute within the
    caps*.  ``DIV`` constraints are dropped, which only weakens."""
    rows: List[LinExpr] = []
    for c in cons:
        if c.kind != DIV:
            rows.append(c.expr)
        if c.kind == EQ:
            rows.append(c.expr.scale(-1))
    try:
        work = _tightest(rows)
        if len({v for e in work for v, _a in e.coeffs}) > MAX_VARS:
            return False
        while work:
            pos: Dict[Sym, int] = {}
            neg: Dict[Sym, int] = {}
            for e in work:
                for v, a in e.coeffs:
                    side = pos if a > 0 else neg
                    side[v] = side.get(v, 0) + 1
            # eliminate the variable with the fewest pos*neg pairings; ties
            # go to the oldest Sym, never to an object address
            cost, _id, var = min(
                (pos.get(v, 0) * neg.get(v, 0), v.id, v)
                for v in pos.keys() | neg.keys()
            )
            if cost > MAX_COMBOS:
                return False
            keep, lowers, uppers = [], [], []
            for e in work:
                a = e.coeff_of(var)
                if a > 0:
                    lowers.append((a, e))
                elif a < 0:
                    uppers.append((-a, e))
                else:
                    keep.append(e)
            work = _tightest(
                keep
                + [lo.scale(b).add(up.scale(a)) for a, lo in lowers for b, up in uppers]
            )
            if len(work) > MAX_CONS or any(
                abs(e.const) > MAX_COEF or any(abs(a) > MAX_COEF for _v, a in e.coeffs)
                for e in work
            ):
                return False
    except Infeasible:
        return True
    return False


# ---------------------------------------------------------------------------
# Goal decomposition
# ---------------------------------------------------------------------------


def _neg_atom(pur: Purifier, t: S.Cmp) -> Constraint:
    op = _NEG_OP.get(t.op)
    if op is None:
        raise NonAffine(f"no conjunctive negation of {t.op!r}")
    return pur.atom(op, t.lhs, t.rhs)


def _collect_fact(f: S.Term, out: List[Constraint], pur: Purifier):
    """Flatten a context fact into constraints, dropping anything outside
    the affine fragment.  Dropping facts only *weakens* the context, which
    is sound for proving."""
    if f == S.TRUE:
        return
    if f == S.FALSE:
        out.append(_FALSE)  # vacuous context: everything is provable
        return
    if isinstance(f, S.And):
        for a in f.args:
            _collect_fact(a, out, pur)
        return
    try:
        if isinstance(f, S.Cmp):
            out.append(pur.atom(f.op, f.lhs, f.rhs))
        elif isinstance(f, S.Not) and isinstance(f.arg, S.Cmp):
            out.append(_neg_atom(pur, f.arg))
    except NonAffine:
        pass
    # Or, quantifiers, boolean variables: drop (weakening)


def _pos_atoms(t: S.Term, out: List[Constraint], pur: Purifier) -> bool:
    """Flatten a positive conjunction (through ``Exists``) into constraints.
    Returns False when a non-conjunctive or non-affine subformula appears.

    Stripping ``Exists`` is sound here because the result is only ever
    *refuted* together with the facts: ``Sym``s are globally unique, so the
    bound variables occur nowhere else and refuting with them free proves
    the negation of the existential."""
    if t == S.TRUE:
        return True
    if t == S.FALSE:
        out.append(_FALSE)
        return True
    if isinstance(t, S.Exists):
        return _pos_atoms(t.body, out, pur)
    if isinstance(t, S.And):
        return all(_pos_atoms(a, out, pur) for a in t.args)
    if isinstance(t, S.Cmp):
        try:
            out.append(pur.atom(t.op, t.lhs, t.rhs))
        except NonAffine:
            return False
        return True
    return False


def _prove_goal(goal: S.Term, facts: List[Constraint], pur: Purifier) -> bool:
    if goal == S.TRUE:
        return True
    if isinstance(goal, S.And):
        return all(_prove_goal(a, facts, pur) for a in goal.args)
    if isinstance(goal, S.Cmp):
        try:
            if goal.op == "==":
                # prove both directions: refute facts ∧ (l > r), facts ∧ (l < r)
                negs = [
                    pur.atom(">", goal.lhs, goal.rhs),
                    pur.atom("<", goal.lhs, goal.rhs),
                ]
            else:
                negs = [_neg_atom(pur, goal)]
        except NonAffine:
            return False
        return all(refute(facts + pur.aux_cons + [n]) for n in negs)
    if isinstance(goal, S.Not):
        atoms: List[Constraint] = []
        if not _pos_atoms(goal.arg, atoms, pur):
            return False
        return refute(facts + pur.aux_cons + atoms)
    return False


def try_prove(assumptions, goal: S.Term) -> bool:
    """Can affine reasoning alone establish ``assumptions ⟹ goal``?

    Only ever answers ``True`` (proved) or ``False`` (unknown) -- it never
    claims a goal false, so callers can always fall through to the full
    solver on ``False``."""
    if goal == S.TRUE:
        return True
    try:
        pur = Purifier()
        facts: List[Constraint] = []
        for f in assumptions:
            _collect_fact(f, facts, pur)
        return _prove_goal(goal, facts, pur)
    except (NonAffine, RecursionError):
        return False


# ---------------------------------------------------------------------------
# The fast-path prove wrapper
# ---------------------------------------------------------------------------


def _count(event: str, category: str):
    _obs.incr(f"analysis.absint.{event}")
    _obs.incr(f"analysis.absint.{category}.{event}")


def prove(assumptions, goal: S.Term, solver=None, category: str = "other") -> bool:
    """Discharge ``assumptions ⟹ goal``: interval fast path first, the full
    SMT solver on fall-through.  Goals the fast path decides never reach
    the solver; fall-through queries are tagged with ``category`` so
    :mod:`repro.obs.smtstats` breaks solver load down per check."""
    if _FASTPATH[0]:
        _count("tried", category)
        with _obs.span("analysis.absint"):
            ok = try_prove(assumptions, goal)
        if ok:
            _count("discharged", category)
            return True
        _count("fellthrough", category)
    with _smtstats.query_category(category):
        return (solver or DEFAULT_SOLVER).prove(S.implies(S.conj(*assumptions), goal))


# ---------------------------------------------------------------------------
# Write-coverage interval boxes (the sanitizers' fast path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """A rectangular set of buffer points: per-dimension ``[lo, hi)`` bounds
    as SMT terms.  Rank 0 (scalars) is the single-point box ``()``."""

    lo: Tuple[S.Term, ...]
    hi: Tuple[S.Term, ...]


def _binder_split(t: S.Term, bsyms) -> Optional[Tuple[Dict[Sym, int], S.Term]]:
    """Split ``t`` into ``Σ c_b·b + rest`` over the binder syms; ``rest`` is
    binder-free.  ``None`` when ``t`` is non-affine in some binder."""
    if not (S.free_vars(t) & bsyms):
        return {}, t
    if isinstance(t, S.Var):
        return ({t.sym: 1}, S.IntC(0)) if t.sym in bsyms else ({}, t)
    if isinstance(t, S.Add):
        coeffs: Dict[Sym, int] = {}
        rest = []
        for a in t.args:
            split = _binder_split(a, bsyms)
            if split is None:
                return None
            ca, ra = split
            for k, v in ca.items():
                coeffs[k] = coeffs.get(k, 0) + v
            rest.append(ra)
        return coeffs, S.add(*rest) if rest else S.IntC(0)
    if isinstance(t, S.Scale):
        split = _binder_split(t.arg, bsyms)
        if split is None:
            return None
        ca, ra = split
        return {k: v * t.coeff for k, v in ca.items()}, S.scale(t.coeff, ra)
    return None  # FloorDiv / Mod / Ite over a binder: non-affine


def _dense_box(idx, binders, assumptions) -> Optional[Box]:
    """The box covered by a write ``buf[idx]`` iterated over ``binders``
    (``(sym, lo, hi)`` tuples, outermost first), or ``None`` when density
    cannot be established.

    Density per dimension: binders sorted by ascending \\|coeff\\| must
    satisfy ``|c_0| = 1`` and ``|c_k| <= reach_{k-1} + 1`` where ``reach``
    accumulates ``|c|*(extent-1)`` -- every intermediate extent must be a
    literal.  A binder may feed at most one dimension (otherwise only a
    diagonal is written), binder bounds must not depend on other binders
    (rectangular nests only), and every binder's loop must provably run."""
    bsyms = {b for b, _lo, _hi in binders}
    bounds = {b: (lo, hi) for b, lo, hi in binders}
    # rectangular check + provable trip for every enclosing binder
    for b, lo, hi in binders:
        if (S.free_vars(lo) | S.free_vars(hi)) & (bsyms - {b}):
            # bounds may reference *outer* binders only if unused below;
            # conservatively require full independence
            return None
        if not try_prove(assumptions, S.lt(lo, hi)):
            return None
    used: Dict[Sym, int] = {}
    dims: List[Tuple[Dict[Sym, int], S.Term]] = []
    for t in idx:
        split = _binder_split(t, bsyms)
        if split is None:
            return None
        coeffs, rest = split
        coeffs = {k: v for k, v in coeffs.items() if v}
        for b in coeffs:
            used[b] = used.get(b, 0) + 1
            if used[b] > 1:
                return None  # same binder in two dims: diagonal footprint
        dims.append((coeffs, rest))
    los, his = [], []
    for coeffs, rest in dims:
        ranked = sorted(coeffs.items(), key=lambda kv: abs(kv[1]))
        reach = 0
        for i, (b, c) in enumerate(ranked):
            if abs(c) > reach + 1:
                return None  # stride gap: footprint has holes
            if i + 1 < len(ranked):
                lo_b, hi_b = bounds[b]
                extent = S.sub(hi_b, lo_b)
                if not isinstance(extent, S.IntC) or extent.val < 1:
                    return None
                reach += abs(c) * (extent.val - 1)
        lo_t, hi_t = rest, rest
        for b, c in ranked:
            lo_b, hi_b = bounds[b]
            top = S.sub(hi_b, S.IntC(1))
            if c > 0:
                lo_t = S.add(lo_t, S.scale(c, lo_b))
                hi_t = S.add(hi_t, S.scale(c, top))
            else:
                lo_t = S.add(lo_t, S.scale(c, top))
                hi_t = S.add(hi_t, S.scale(c, lo_b))
        los.append(lo_t)
        his.append(S.add(hi_t, S.IntC(1)))
    return Box(tuple(los), tuple(his))


def write_boxes(eff, root: Sym, assumptions) -> List[Box]:
    """Boxes provably *covered* by the definite writes of ``root`` in
    ``eff`` -- the under-approximating abstraction of §5's write location
    sets.  Guarded writes contribute nothing; loop writes count only when
    dense and provably executed (see :func:`_dense_box`)."""
    from ..effects import effects as E

    out: List[Box] = []

    def walk(e, binders):
        if isinstance(e, E.EWrite) and e.buf is root:
            box = _dense_box(e.idx, binders, assumptions)
            if box is not None:
                out.append(box)
        elif isinstance(e, E.ESeq):
            for p in e.parts:
                walk(p, binders)
        elif isinstance(e, E.ELoop):
            walk(e.body, binders + [(e.iter, e.lo, e.hi)])
        # EGuard: a maybe-write covers nothing

    walk(eff, [])
    return out


def access_boxes(eff, root: Sym, kinds: str = "r+") -> Optional[List[Box]]:
    """One box *containing* each read/reduce leaf of ``root`` in ``eff``
    (over-approximate: guards are ignored, loop binders range over their
    full bounds).  ``None`` when any access resists affine bounding."""
    from ..effects import effects as E

    leaf_types = tuple(E._LEAF[k] for k in kinds)
    out: List[Box] = []

    def leaf_box(idx, binders) -> Optional[Box]:
        bsyms = {b for b, _lo, _hi in binders}
        bounds = {b: (lo, hi) for b, lo, hi in binders}
        for b, lo, hi in binders:
            if (S.free_vars(lo) | S.free_vars(hi)) & (bsyms - {b}):
                return None
        los, his = [], []
        for t in idx:
            split = _binder_split(t, bsyms)
            if split is None:
                return None
            coeffs, rest = split
            lo_t, hi_t = rest, rest
            for b, c in coeffs.items():
                if not c:
                    continue
                lo_b, hi_b = bounds[b]
                top = S.sub(hi_b, S.IntC(1))
                if c > 0:
                    lo_t = S.add(lo_t, S.scale(c, lo_b))
                    hi_t = S.add(hi_t, S.scale(c, top))
                else:
                    lo_t = S.add(lo_t, S.scale(c, top))
                    hi_t = S.add(hi_t, S.scale(c, lo_b))
            los.append(lo_t)
            his.append(S.add(hi_t, S.IntC(1)))
        return Box(tuple(los), tuple(his))

    ok = [True]

    def walk(e, binders):
        if not ok[0]:
            return
        if isinstance(e, leaf_types) and e.buf is root:
            box = leaf_box(e.idx, binders)
            if box is None:
                ok[0] = False
            else:
                out.append(box)
        elif isinstance(e, E.ESeq):
            for p in e.parts:
                walk(p, binders)
        elif isinstance(e, E.EGuard):
            walk(e.body, binders)
        elif isinstance(e, E.ELoop):
            walk(e.body, binders + [(e.iter, e.lo, e.hi)])

    walk(eff, [])
    return out if ok[0] else None


def box_covers(assumptions, cover: Box, target: Box) -> bool:
    """Does ``cover`` provably contain ``target`` (per-dimension bound
    comparisons, decided by the affine engine)?"""
    if len(cover.lo) != len(target.lo):
        return False
    goal = S.conj(
        *[
            S.conj(S.le(cl, tl), S.le(th, ch))
            for cl, ch, tl, th in zip(cover.lo, cover.hi, target.lo, target.hi)
        ]
    )
    return try_prove(assumptions, goal)


def covers_reads(assumptions, read_eff, root: Sym, cover_boxes, category="sanitize"):
    """Sanitizer fast path: is every read/reduce of ``root`` in ``read_eff``
    contained in some box of ``cover_boxes``?  Counts toward the
    ``analysis.absint.*`` counters like :func:`prove`'s fast path; a
    ``False`` only means the box domain could not decide it."""
    if not _FASTPATH[0]:
        return False
    _count("tried", category)
    with _obs.span("analysis.absint"):
        targets = access_boxes(read_eff, root)
        ok = targets is not None and all(
            any(box_covers(assumptions, c, t) for c in cover_boxes)
            for t in targets
        )
    if ok:
        _count("discharged", category)
        return True
    _count("fellthrough", category)
    return False


@contextmanager
def disabled():
    """Context manager running its body with the fast path off, so every
    obligation reaches the solver (tests use it to exercise the solver
    path and its counters)."""
    saved = _FASTPATH[0]
    _FASTPATH[0] = False
    try:
        yield
    finally:
        _FASTPATH[0] = saved
