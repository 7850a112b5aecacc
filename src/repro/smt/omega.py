"""Exact integer linear arithmetic: feasibility and projection.

Two complementary decision procedures over conjunctions of linear integer
constraints power the solver:

* :func:`feasible` -- Pugh's **Omega test** (CACM 1992): equality reduction
  (unit-coefficient substitution plus the symmetric-modulus trick), then
  integer Fourier-Motzkin with real/dark shadows and splinters.  Used when
  *every* variable is existential (the final satisfiability check), where
  Pugh's algorithm is exact and terminating.

* :func:`project` / :func:`project_var` -- **Cooper's algorithm** (1972):
  eliminates one existential variable from a conjunction while *preserving
  the formula over the remaining (free) variables*, emitting divisibility
  constraints.  Used for quantifier elimination, where free variables must
  not be substituted away.

Constraints are ``expr >= 0`` (GEQ), ``expr == 0`` (EQ), or ``d | expr``
(DIV) over :class:`LinExpr`.  :class:`Purifier` turns SMT terms into them
(quasi-affine ``/`` and ``%`` become quotient variables) and
:func:`tighten` gcd-normalizes one constraint; both are shared with the
capped Fourier-Motzkin fast path in :mod:`repro.analysis.absint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from ..core.prelude import InternalError, Sym
from ..obs.smtstats import STATS as _SMT_STATS
from . import terms as S

GEQ = ">="
EQ = "=="
DIV = "div"


@dataclass(frozen=True)
class LinExpr:
    """``const + sum(coeffs[v] * v)`` with integer coefficients."""

    coeffs: Tuple[Tuple[Sym, int], ...]  # sorted by sym id, zero-free
    const: int

    @staticmethod
    def make(coeffs: Dict[Sym, int], const: int) -> "LinExpr":
        items = tuple(
            sorted(((v, c) for v, c in coeffs.items() if c != 0), key=lambda p: p[0].id)
        )
        return LinExpr(items, int(const))

    @staticmethod
    def constant(c: int) -> "LinExpr":
        return LinExpr((), int(c))

    @staticmethod
    def var(v: Sym, coeff: int = 1) -> "LinExpr":
        if coeff == 0:
            return LinExpr((), 0)
        return LinExpr(((v, coeff),), 0)

    def coeff_of(self, v: Sym) -> int:
        for w, c in self.coeffs:
            if w is v:
                return c
        return 0

    def vars(self):
        return [v for v, _c in self.coeffs]

    def is_const(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinExpr") -> "LinExpr":
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinExpr.make(d, self.const + other.const)

    def scale(self, k: int) -> "LinExpr":
        if k == 0:
            return LinExpr((), 0)
        return LinExpr(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def drop(self, v: Sym) -> "LinExpr":
        return LinExpr(tuple((w, c) for w, c in self.coeffs if w is not v), self.const)

    def subst(self, v: Sym, repl: "LinExpr") -> "LinExpr":
        a = self.coeff_of(v)
        if a == 0:
            return self
        return self.drop(v).add(repl.scale(a))

    def __str__(self):
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class Constraint:
    """``expr >= 0`` (GEQ), ``expr == 0`` (EQ), or ``divisor | expr`` (DIV)."""

    expr: LinExpr
    kind: str
    divisor: int = 0

    def __post_init__(self):
        if (self.kind == DIV) != (self.divisor > 1):
            if self.kind == DIV and self.divisor <= 1:
                raise InternalError("DIV constraint needs divisor > 1")

    def subst(self, v: Sym, repl: LinExpr) -> "Constraint":
        return Constraint(self.expr.subst(v, repl), self.kind, self.divisor)

    def __str__(self):
        if self.kind == DIV:
            return f"{self.divisor} | {self.expr}"
        return f"{self.expr} {self.kind} 0"


class Infeasible(Exception):
    """Signals a conjunction with no integer solutions."""


class NonAffine(InternalError):
    """A term outside the quasi-affine fragment :class:`Purifier` accepts."""


class Purifier:
    """Turns SMT terms into :class:`LinExpr`, purifying ``/`` and ``%``.

    Each distinct ``t / d`` (keyed by the structural ``FloorDiv`` term, so
    every occurrence shares it) gets one quotient variable ``q`` with the
    defining constraints ``t - d*q >= 0`` and ``d*q + (d-1) - t >= 0``;
    ``t % d`` is ``t - d*q`` over the quotient of ``t / d``.  Quotients
    collect in :attr:`aux_vars`, their definitions in :attr:`aux_cons`."""

    def __init__(self):
        self._quot: Dict[S.FloorDiv, Tuple[Sym, LinExpr]] = {}
        self.aux_vars: List[Sym] = []
        self.aux_cons: List[Constraint] = []

    def _quotient(self, arg, d: int) -> Tuple[Sym, LinExpr]:
        key = S.FloorDiv(arg, d)
        found = self._quot.get(key)
        if found is None:
            la = self.lin(arg)
            q = Sym("q")
            found = self._quot[key] = (q, la)
            self.aux_vars.append(q)
            r = la.add(LinExpr.var(q, -d))
            self.aux_cons.append(Constraint(r, GEQ))
            self.aux_cons.append(
                Constraint(r.scale(-1).add(LinExpr.constant(d - 1)), GEQ)
            )
        return found

    def _acc(self, t, k: int, coeffs: Dict[Sym, int]) -> int:
        """Add ``k*t`` into ``coeffs``; return its constant part."""
        if isinstance(t, S.Var) and t.sort == S.INT:
            coeffs[t.sym] = coeffs.get(t.sym, 0) + k
            return 0
        if isinstance(t, S.IntC):
            return k * t.val
        if isinstance(t, int) and not isinstance(t, bool):
            return k * t  # raw literal in a Cmp operand
        if isinstance(t, S.Add):
            return sum(self._acc(a, k, coeffs) for a in t.args)
        if isinstance(t, S.Scale):
            return self._acc(t.arg, k * t.coeff, coeffs)
        if isinstance(t, (S.FloorDiv, S.Mod)):
            q, la = self._quotient(t.arg, t.divisor)
            if isinstance(t, S.FloorDiv):
                coeffs[q] = coeffs.get(q, 0) + k
                return 0
            for v, c in la.coeffs:
                coeffs[v] = coeffs.get(v, 0) + k * c
            coeffs[q] = coeffs.get(q, 0) - k * t.divisor
            return k * la.const
        raise NonAffine(f"not a quasi-affine integer term: {t!r}")

    def lin(self, t) -> LinExpr:
        coeffs: Dict[Sym, int] = {}
        const = self._acc(t, 1, coeffs)
        return LinExpr.make(coeffs, const)

    def atom(self, op: str, lhs, rhs) -> Constraint:
        """The constraint equivalent to ``lhs op rhs`` (``op`` one of
        ``== >= > <= <``; ``!=`` is a disjunction and raises)."""
        if op not in ("==", ">=", ">", "<=", "<"):
            raise NonAffine(f"no conjunctive form for {op!r}")
        sign = -1 if op in ("<=", "<") else 1
        coeffs: Dict[Sym, int] = {}
        const = self._acc(lhs, sign, coeffs) + self._acc(rhs, -sign, coeffs)
        if op in (">", "<"):
            const -= 1
        return Constraint(LinExpr.make(coeffs, const), EQ if op == "==" else GEQ)


def _mhat(a: int, m: int) -> int:
    """Pugh's symmetric modulus: ``a - m * floor(a/m + 1/2)``."""
    return a - m * ((2 * a + m) // (2 * m))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def tighten(c: Constraint) -> Optional[Constraint]:
    """GCD-tighten one constraint: ``None`` when it is trivially true; raise
    :class:`Infeasible` when it is a contradiction."""
    e = c.expr
    if e.is_const():
        if c.kind == GEQ and e.const < 0:
            raise Infeasible
        if c.kind == EQ and e.const != 0:
            raise Infeasible
        if c.kind == DIV and e.const % c.divisor != 0:
            raise Infeasible
        return None
    g = 0
    for _v, coef in e.coeffs:
        g = gcd(g, abs(coef))
    if c.kind != DIV and g == 1:
        return c
    if c.kind == EQ:
        if e.const % g != 0:
            raise Infeasible
        return Constraint(
            LinExpr(tuple((v, coef // g) for v, coef in e.coeffs), e.const // g), EQ
        )
    if c.kind == GEQ:
        # a.x + c >= 0 with gcd g: tighten const to floor(c/g)
        return Constraint(
            LinExpr(tuple((v, coef // g) for v, coef in e.coeffs), e.const // g), GEQ
        )
    d = c.divisor
    gg = gcd(g, d)
    if gg > 1 and e.const % gg == 0:
        e = LinExpr(tuple((v, coef // gg) for v, coef in e.coeffs), e.const // gg)
        d = d // gg
    if d == 1:
        return None
    # reduce coefficients into the symmetric range (-d/2, d/2] so that unit
    # coefficients stay unit (keeps Cooper's lcm small)
    e = LinExpr.make({v: _mhat(coef, d) for v, coef in e.coeffs}, e.const % d)
    if e.is_const():
        if e.const % d != 0:
            raise Infeasible
        return None
    return Constraint(e, DIV, d)


def normalize(cons: List[Constraint]) -> List[Constraint]:
    """GCD-tighten constraints; raise :class:`Infeasible` on contradiction."""
    out = []
    for c in cons:
        c2 = tighten(c)
        if c2 is not None and c2 not in out:
            out.append(c2)
    return out


# ---------------------------------------------------------------------------
# Feasibility (Pugh's Omega test; all variables existential)
# ---------------------------------------------------------------------------

_MAX_DEPTH = 400


def feasible(cons: List[Constraint]) -> bool:
    """Is this conjunction satisfiable over the integers?

    Every variable is treated as existentially quantified.
    """
    _SMT_STATS.omega_feasibility_checks += 1
    return _feasible(list(cons), 0)


def _feasible(cons, depth) -> bool:
    if depth > _MAX_DEPTH:
        raise InternalError("omega: feasibility recursion limit exceeded")
    try:
        cons = normalize(cons)
    except Infeasible:
        return False

    # convert divisibility constraints into equalities with fresh variables
    converted = []
    changed = False
    for c in cons:
        if c.kind == DIV:
            k = Sym("k")
            converted.append(
                Constraint(c.expr.add(LinExpr.var(k, -c.divisor)), EQ)
            )
            changed = True
        else:
            converted.append(c)
    cons = converted
    if changed:
        try:
            cons = normalize(cons)
        except Infeasible:
            return False

    # --- equality reduction ------------------------------------------------
    for i, c in enumerate(cons):
        if c.kind != EQ:
            continue
        # unit-coefficient variable: substitute it away (all vars existential)
        unit = None
        for v, coef in c.expr.coeffs:
            if abs(coef) == 1:
                unit = (v, coef)
                break
        if unit is not None:
            v, coef = unit
            repl = c.expr.drop(v).scale(-coef)  # coef in {1,-1}
            rest = [k.subst(v, repl) for j, k in enumerate(cons) if j != i]
            return _feasible(rest, depth + 1)
        # no unit coefficient: Pugh's symmetric-modulus reduction on the
        # variable with the smallest |coefficient|
        v, a = min(c.expr.coeffs, key=lambda p: abs(p[1]))
        m = abs(a) + 1
        sigma = Sym("w")
        coeffs = {w: _mhat(coef, m) for w, coef in c.expr.coeffs}
        coeffs[sigma] = -m
        new_eq = LinExpr.make(coeffs, _mhat(c.expr.const, m))
        av = new_eq.coeff_of(v)
        if abs(av) != 1:
            raise InternalError("omega: mod-reduction failed to produce unit coeff")
        repl = new_eq.drop(v).scale(-av)
        rest = [k.subst(v, repl) for k in cons]
        return _feasible(rest, depth + 1)

    # --- inequality elimination ---------------------------------------------
    var = None
    for c in cons:
        for v in c.expr.vars():
            var = v
            break
        if var is not None:
            break
    if var is None:
        return True  # only trivially-true constraints remained

    lowers = []  # (a, t): a*var + t >= 0, a > 0
    uppers = []  # (b, t): -b*var + t >= 0, b > 0
    rest = []
    for c in cons:
        a = c.expr.coeff_of(var)
        if a == 0:
            rest.append(c)
        elif a > 0:
            lowers.append((a, c.expr.drop(var)))
        else:
            uppers.append((-a, c.expr.drop(var)))

    if not lowers or not uppers:
        return _feasible(rest, depth + 1)

    exact = all(a == 1 for a, _t in lowers) or all(b == 1 for b, _t in uppers)

    def shadow(offset_fn):
        shadow_cons = list(rest)
        for a, tl in lowers:
            for b, tu in uppers:
                e = tu.scale(a).add(tl.scale(b))
                e = LinExpr(e.coeffs, e.const - offset_fn(a, b))
                shadow_cons.append(Constraint(e, GEQ))
        return shadow_cons

    if exact:
        return _feasible(shadow(lambda a, b: 0), depth + 1)

    if _feasible(shadow(lambda a, b: (a - 1) * (b - 1)), depth + 1):
        return True

    # splinters: solutions outside the dark shadow pin var near a lower bound
    bmax = max(b for b, _t in uppers)
    for a, tl in lowers:
        if a == 1:
            continue
        top = (a * bmax - a - bmax) // bmax
        for k in range(0, top + 1):
            eq_expr = LinExpr.var(var, a).add(tl).add(LinExpr.constant(-k))
            if _feasible(cons + [Constraint(eq_expr, EQ)], depth + 1):
                return True
    return False


# ---------------------------------------------------------------------------
# Projection (Cooper's algorithm; free variables preserved)
# ---------------------------------------------------------------------------


def project_var(x: Sym, cons: List[Constraint]) -> List[List[Constraint]]:
    """Eliminate existential ``x`` exactly, preserving other variables.

    Returns a disjunction (list) of conjunctions (constraint lists) over the
    remaining variables.  Divisibility constraints may appear in the output.
    """
    _SMT_STATS.omega_projections += 1
    try:
        cons = normalize(cons)
    except Infeasible:
        return []

    if not any(c.expr.coeff_of(x) for c in cons):
        return [cons]

    # --- equality rule ------------------------------------------------------
    for i, c in enumerate(cons):
        if c.kind != EQ:
            continue
        a = c.expr.coeff_of(x)
        if a == 0:
            continue
        rest = c.expr.drop(x)
        if abs(a) == 1:
            repl = rest.scale(-a)
            out = [k.subst(x, repl) for j, k in enumerate(cons) if j != i]
            try:
                return [normalize(out)]
            except Infeasible:
                return []
        # |a| > 1:  a*x = -rest  requires |a| divides rest; other constraints
        # are scaled by |a| so x can be replaced exactly.
        sign = 1 if a > 0 else -1
        out = [Constraint(rest, DIV, abs(a))]
        for j, k in enumerate(cons):
            if j == i:
                continue
            ck = k.expr.coeff_of(x)
            if ck == 0:
                out.append(k)
                continue
            # |a| * k.expr - ck*sign*(a*x + rest') where rest' = rest
            newexpr = k.expr.scale(abs(a)).add(c.expr.scale(-ck * sign))
            if newexpr.coeff_of(x) != 0:
                raise InternalError("cooper: equality elimination failed")
            if k.kind == DIV:
                out.append(Constraint(newexpr, DIV, k.divisor * abs(a)))
            else:
                out.append(Constraint(newexpr, k.kind))
        try:
            return [normalize(out)]
        except Infeasible:
            return []

    # --- Cooper's inequality/divisibility elimination -------------------------
    # Scale all x-atoms to a common coefficient delta, substitute x' = delta*x
    # (adding delta | x'), so x' has coefficient +-1 everywhere.
    delta = 1
    for c in cons:
        a = c.expr.coeff_of(x)
        if a:
            delta = _lcm(delta, abs(a))

    lowers = []  # t: x' + t >= 0  (i.e. x' >= -t)
    uppers = []  # t: -x' + t >= 0 (i.e. x' <= t)
    divs = [(LinExpr.constant(0), delta)]  # (t, d): d | x' + t
    rest = []
    for c in cons:
        a = c.expr.coeff_of(x)
        if a == 0:
            rest.append(c)
            continue
        k = delta // abs(a)
        scaled = c.expr.scale(k)  # coefficient of x is now +-delta
        t = scaled.drop(x)
        if c.kind == GEQ:
            if a > 0:
                lowers.append(t)
            else:
                uppers.append(t)
        elif c.kind == DIV:
            d = c.divisor * k
            if a > 0:
                divs.append((t, d))
            else:
                # d | -x' + t  <=>  d | x' - t
                divs.append((t.scale(-1), d))
        else:
            raise InternalError("cooper: equalities handled above")

    M = 1
    for _t, d in divs:
        M = _lcm(M, d)

    out = []

    def with_x(val: LinExpr):
        """Instantiate x' := val in all scaled atoms."""
        conj = list(rest)
        for t in lowers:
            conj.append(Constraint(val.add(t), GEQ))
        for t in uppers:
            conj.append(Constraint(val.scale(-1).add(t), GEQ))
        for t, d in divs:
            conj.append(Constraint(val.add(t), DIV, d) if d > 1 else None)
        conj = [c for c in conj if c is not None]
        try:
            out.append(normalize(conj))
        except Infeasible:
            pass

    if not lowers:
        # x' unbounded below: only divisibility matters
        for m in range(M):
            conj = list(rest)
            ok = True
            for t, d in divs:
                if d > 1:
                    conj.append(Constraint(t.add(LinExpr.constant(m)), DIV, d))
            try:
                out.append(normalize(conj))
            except Infeasible:
                pass
        return _dedup(out)

    for tl in lowers:
        base = tl.scale(-1)  # x' >= -tl: smallest candidate is -tl
        for m in range(M):
            with_x(base.add(LinExpr.constant(m)))
    return _dedup(out)


def _dedup(disjuncts):
    seen = []
    for d in disjuncts:
        key = frozenset(d)
        if key not in [frozenset(s) for s in seen]:
            seen.append(d)
    return seen


def project(cons: List[Constraint], elim_vars) -> List[List[Constraint]]:
    """Eliminate every variable in ``elim_vars``, preserving the rest."""
    pending = [v for v in elim_vars]
    disjuncts = [list(cons)]
    for v in pending:
        nxt = []
        for conj in disjuncts:
            nxt.extend(project_var(v, conj))
        disjuncts = nxt
        if not disjuncts:
            return []
    out = []
    for conj in disjuncts:
        try:
            out.append(normalize(conj))
        except Infeasible:
            pass
    return _dedup(out)
