"""Cursors & forwarding: durable references into a procedure (Exo 2).

A :class:`Cursor` points at a statement, block, gap, or expression inside
one :class:`~repro.api.Procedure` *revision*.  Every scheduling primitive
now computes a :class:`Forwarder` alongside its rewritten IR: a function
from pre-rewrite statement paths to post-rewrite paths.  Forwarders give
us two things at once:

* **Live cursors.**  ``p2.forward(cursor)`` composes the forwarders along
  the derivation chain from ``cursor.proc`` to ``p2``, so a cursor taken
  before a rewrite remains a valid handle afterwards — the prerequisite
  for composable user-defined scheduling operators.

* **Incremental re-checking.**  A forwarder also reports ``touched`` (the
  post-rewrite paths of the statements the rewrite inserted or rewrote)
  and ``ctx_dirty`` (whether config-state writes moved, which can change
  the dataflow facts of *later* statements).  :mod:`repro.core.checks`
  uses this to re-discharge only the safety obligations a rewrite could
  have invalidated, falling back to the full check whenever a forwarder
  is imprecise.

Paths are the same tuples of ``(field, index)`` steps used throughout
:mod:`repro.core.ast` (``get_stmt`` / ``replace_block``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Optional, Tuple

from ..core import ast as IR
from ..core.dataflow import writes_config
from ..core.prelude import SchedulingError


class InvalidCursorError(SchedulingError):
    """A cursor could not be forwarded to this procedure revision (the
    statement it pointed at was destroyed, or the cursor belongs to an
    unrelated derivation chain)."""


# ---------------------------------------------------------------------------
# Forwarders
# ---------------------------------------------------------------------------


class Forwarder:
    """Maps statement paths in the pre-rewrite proc to paths in the
    post-rewrite proc.

    ``touched`` — paths (in the *new* proc) of every statement the rewrite
    inserted or structurally rewrote; obligations outside these subtrees
    (and not downstream of a config-state change) keep their verdicts.

    ``ctx_dirty`` — True when the rewrite added, removed, or moved a
    config-state write, so the dataflow state of statements *after* the
    rewrite site may differ and their obligations must be re-proven.

    ``precise`` — False means ``map_path`` is unreliable and callers must
    fall back to full re-checking (cursor forwarding raises).
    """

    precise = True

    def __init__(self, touched=(), ctx_dirty: bool = False):
        self.touched = tuple(touched)
        self.ctx_dirty = ctx_dirty

    def map_path(self, path: tuple) -> tuple:
        raise NotImplementedError


class IdentityForwarder(Forwarder):
    """For rewrites that keep the statement tree's shape (rename, simplify,
    parallelize, set_memory, ...)."""

    def map_path(self, path):
        return path


class FallbackForwarder(Forwarder):
    """An imprecise forwarder: incremental checking falls back to the full
    pipeline and forwarding any cursor through it fails."""

    precise = False

    def __init__(self, why: str = "rewrite does not support forwarding"):
        super().__init__(touched=(), ctx_dirty=True)
        self.why = why

    def map_path(self, path):
        raise InvalidCursorError(f"cannot forward cursor: {self.why}")


class SpliceForwarder(Forwarder):
    """The workhorse: ``old_count`` statements at ``path`` were replaced by
    ``new_count`` statements.  Siblings after the region shift; paths into
    the region are mapped by ``interior`` — a function from region-relative
    paths (first step ``(field, offset)`` with ``0 <= offset < old_count``)
    to region-relative paths in the new region, or ``None`` when the
    statement was destroyed.  ``interior=None`` invalidates the whole
    region's interior."""

    def __init__(self, path, old_count: int, new_count: int,
                 interior: Optional[Callable] = None,
                 touched=None, ctx_dirty: bool = False):
        if touched is None:
            fld, idx = path[-1]
            touched = tuple(
                path[:-1] + ((fld, idx + k),) for k in range(new_count)
            )
        super().__init__(touched=touched, ctx_dirty=ctx_dirty)
        self.path = tuple(path)
        self.old_count = old_count
        self.new_count = new_count
        self.interior = interior

    def map_path(self, q):
        p = self.path
        n = len(p)
        fld, i = p[-1]
        if len(q) < n or q[: n - 1] != p[:-1] or q[n - 1][0] != fld:
            return q  # ancestor, or a disjoint subtree
        j = q[n - 1][1]
        if j < i:
            return q
        if j >= i + self.old_count:
            delta = self.new_count - self.old_count
            return q[: n - 1] + ((fld, j + delta),) + q[n:]
        if self.interior is None:
            raise InvalidCursorError(
                "cursor points into a region the rewrite destroyed"
            )
        rel = ((fld, j - i),) + q[n:]
        new_rel = self.interior(rel)
        if new_rel is None:
            raise InvalidCursorError(
                "cursor points at a statement the rewrite destroyed"
            )
        (rf, rj), rest = new_rel[0], tuple(new_rel[1:])
        return q[: n - 1] + ((rf, i + rj),) + rest


class MapForwarder(Forwarder):
    """An explicit old-path -> new-path dictionary (``None`` values mark
    deleted statements).  Used by whole-proc cleanups — ``delete_pass`` and
    the post-rewrite simplifier — whose effect is not a single splice."""

    def __init__(self, mapping: dict, touched=(), ctx_dirty: bool = False):
        super().__init__(touched=touched, ctx_dirty=ctx_dirty)
        self.mapping = mapping

    def map_path(self, q):
        q = tuple(q)
        if q in self.mapping:
            new = self.mapping[q]
            if new is None:
                raise InvalidCursorError(
                    "cursor points at a statement the rewrite deleted"
                )
            return new
        # unmapped statement paths are gone; expression-carrying callers
        # may probe ancestors themselves
        raise InvalidCursorError(
            "cursor points at a statement the rewrite destroyed"
        )


class OverrideForwarder(Forwarder):
    """Wrap a forwarder with exact-path overrides (e.g. lift_alloc knows
    precisely where the hoisted allocation landed, while the underlying
    removal splice would report it destroyed)."""

    def __init__(self, base: Forwarder, overrides: dict):
        super().__init__(touched=base.touched, ctx_dirty=base.ctx_dirty)
        self.base = base
        self.overrides = {tuple(k): tuple(v) for k, v in overrides.items()}
        self.precise = base.precise

    def map_path(self, q):
        q = tuple(q)
        if q in self.overrides:
            return self.overrides[q]
        return self.base.map_path(q)


class ChainForwarder(Forwarder):
    """Sequential composition of forwarders (first applied first)."""

    def __init__(self, parts):
        parts = tuple(parts)
        touched = []
        for k, part in enumerate(parts):
            for t in part.touched:
                for later in parts[k + 1:]:
                    try:
                        t = later.map_path(t)
                    except InvalidCursorError:
                        t = None
                        break
                if t is not None:
                    touched.append(t)
        super().__init__(
            touched=tuple(touched),
            ctx_dirty=any(p.ctx_dirty for p in parts),
        )
        self.parts = parts
        self.precise = all(p.precise for p in parts)

    def map_path(self, q):
        for part in self.parts:
            q = part.map_path(q)
        return q


def compose(*fwds) -> Forwarder:
    """Compose forwarders in application order, flattening chains and
    dropping identities."""
    flat = []
    for f in fwds:
        if f is None or (type(f) is IdentityForwarder and not f.touched
                         and not f.ctx_dirty):
            continue
        if isinstance(f, ChainForwarder):
            flat.extend(f.parts)
        else:
            flat.append(f)
    if not flat:
        return IdentityForwarder()
    if len(flat) == 1:
        return flat[0]
    return ChainForwarder(flat)


# -- interior-map helpers (region-relative paths) ---------------------------


def interior_identity(rel):
    return rel


def interior_insert(steps):
    """Each old region statement keeps its slot but its body moved down
    through ``steps`` extra levels (e.g. split wraps the body in a new
    inner loop: old body stmt ``(fld,0)(body,j)`` is now
    ``(fld,0)(body,0)(body,j)``)."""
    steps = tuple(steps)

    def go(rel):
        if len(rel) == 1:
            return rel
        return (rel[0],) + steps + tuple(rel[1:])

    return go


def interior_none(_rel):
    return None


def stmts_write_config(stmts) -> bool:
    """Does this block write config state, directly or through calls?"""
    return any(writes_config(s) for s in stmts)


def splice(proc_or_stmts_old, path, old_count, new_count,
           interior=interior_identity, new_stmts=None) -> SpliceForwarder:
    """Build the standard splice forwarder for replacing ``old_count``
    statements at ``path`` by ``new_count``.  ``ctx_dirty`` is derived
    from whether either side of the splice touches config state
    (``proc_or_stmts_old`` may be the old proc, the old block, or None)."""
    dirty = False
    if new_stmts is not None and stmts_write_config(new_stmts):
        dirty = True
    if not dirty and proc_or_stmts_old is not None:
        old = proc_or_stmts_old
        if isinstance(old, IR.Proc):
            fld, idx = path[-1]
            block = IR.get_block(
                IR.get_stmt(old, path[:-1]) if len(path) > 1 else old, fld
            )
            old = block[idx: idx + old_count]
        dirty = stmts_write_config(old)
    return SpliceForwarder(path, old_count, new_count, interior=interior,
                           ctx_dirty=dirty)


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cursor:
    """A reference into one Procedure revision.  Forward it to a derived
    revision with ``derived.forward(cursor)``."""

    proc: object = field(repr=False)
    path: tuple = ()

    @property
    def count(self) -> int:
        return 1

    def _resolve_stmts(self):
        ir = self.proc.ir()
        try:
            fld, idx = self.path[-1]
            block = (
                IR.get_block(IR.get_stmt(ir, self.path[:-1]), fld)
                if len(self.path) > 1 else IR.get_block(ir, fld)
            )
            stmts = block[idx: idx + self.count]
        except (IndexError, AttributeError, KeyError):
            raise InvalidCursorError(
                "cursor path does not resolve in this procedure"
            )
        if len(stmts) != self.count:
            raise InvalidCursorError(
                "cursor path does not resolve in this procedure"
            )
        return stmts

    def stmts(self) -> tuple:
        """The statements this cursor points at (in ``self.proc``)."""
        return tuple(self._resolve_stmts())

    def __str__(self):
        from ..core.pprint import stmt_to_lines

        lines = []
        for s in self.stmts():
            lines.extend(stmt_to_lines(s, 0))
        return "\n".join(lines)


@dataclass(frozen=True)
class StmtCursor(Cursor):
    """A single statement."""

    def stmt(self) -> IR.Stmt:
        return self._resolve_stmts()[0]

    def before(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=False)

    def after(self) -> "GapCursor":
        return GapCursor(self.proc, self.path, after=True)


@dataclass(frozen=True)
class BlockCursor(Cursor):
    """``n`` consecutive statements starting at ``path``."""

    n: int = 1

    @property
    def count(self) -> int:
        return self.n


@dataclass(frozen=True)
class GapCursor(Cursor):
    """The gap just before or after an anchor statement."""

    after: bool = False

    def anchor(self) -> StmtCursor:
        return StmtCursor(self.proc, self.path)


@dataclass(frozen=True)
class ExprCursor(Cursor):
    """An expression at ``expr_path`` within the statement at ``path``."""

    expr_path: tuple = ()

    def expr(self) -> IR.Expr:
        from .pattern import get_expr

        return get_expr(self._resolve_stmts()[0], self.expr_path)
