"""Instruction-trace extraction.

Because Exo programs are static control programs, the sequence of
``@instr`` calls a kernel issues is determined entirely by its control
arguments.  The tracer runs the reference interpreter over the kernel with
a hook that records one :class:`Event` per instruction call.  In
``functional=False`` mode instruction bodies are skipped, which makes
tracing a 12544x64x256 GEMM (~10^8 scalar operations, but only ~10^5
instructions) feasible in Python.

Each event records precise memory *intervals* for every buffer operand
(derived from the numpy views the interpreter passes around), which is what
lets the timing simulators resolve RAW/WAR hazards exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Tuple

import numpy as np


@dataclass
class Region:
    """A (possibly strided) byte region within one underlying allocation.

    Modeled as a rectangle: ``[lo, hi)`` bounds the whole span, while
    ``pitch`` (bytes between consecutive rows) and ``[col_lo, col_hi)``
    (byte range within a row, relative to the row start) distinguish
    column-disjoint tiles of the same array -- without this, adjacent
    accumulator tiles would appear to conflict and serialize the model.
    """

    base: Hashable  # the allocation the region lies in (see Tracer)
    lo: int
    hi: int  # exclusive
    bytes: int  # dense payload size (excludes stride gaps)
    space: str  # "dram" or the Memory class name of the buffer
    pitch: int = 0
    col_lo: int = 0
    col_hi: int = 0

    def overlaps(self, other: "Region") -> bool:
        if self.base != other.base:
            return False
        if self.lo >= other.hi or other.lo >= self.hi:
            return False
        if self.pitch and self.pitch == other.pitch:
            if self.col_hi <= other.col_lo or other.col_hi <= self.col_lo:
                return False
        return True


@dataclass
class Event:
    name: str
    ctrl: Dict[str, int]
    operands: Dict[str, Region]


def _region_of(view: np.ndarray, space: str, allocation: Callable) -> Region:
    base = view.base if view.base is not None else view
    while getattr(base, "base", None) is not None:
        base = base.base
    start = view.__array_interface__["data"][0]
    base_start = base.__array_interface__["data"][0]
    lo = start - base_start
    span = view.itemsize
    for extent, stride_b in zip(view.shape, view.strides):
        if extent > 0:
            span += (extent - 1) * abs(stride_b)
    pitch = 0
    col_lo = col_hi = 0
    if view.ndim >= 2 and view.strides[-1] == view.itemsize:
        pitch = view.strides[-2]
        if pitch > 0:
            col_lo = lo % pitch
            col_hi = col_lo + view.shape[-1] * view.itemsize
            if col_hi > pitch:  # row wider than the pitch: degenerate
                pitch = 0
                col_lo = col_hi = 0
    return Region(
        base=allocation(base),
        lo=lo,
        hi=lo + span,
        bytes=int(view.size * view.itemsize),
        space=space,
        pitch=pitch,
        col_lo=col_lo,
        col_hi=col_hi,
    )


class Tracer:
    """Collects the instruction trace of one kernel execution."""

    def __init__(self, functional: bool = False):
        self.functional = functional
        self.events: List[Event] = []
        #: ``id()`` of a buffer the interpreter allocated -> its ``Alloc``'s
        #: Sym.  The interpreter reports every allocation before the buffer
        #: can reach an instruction, so an entry a freed buffer left behind
        #: is overwritten before its ``id()`` is looked up again; buffers the
        #: caller passes in stay alive for the whole run.
        self._alloc_of: Dict[int, Hashable] = {}

    def alloc_hook(self, stmt, arr):
        # every execution of one Alloc is the same buffer, as the static
        # scratchpad allocation of the generated C is: a tile allocated in
        # a loop keeps its hazards from one iteration to the next
        self._alloc_of[id(arr)] = stmt.name

    def _allocation(self, root: np.ndarray) -> Hashable:
        return self._alloc_of.get(id(root), id(root))

    def hook(self, proc_ir, env) -> bool:
        ctrl = {}
        operands = {}
        for formal in proc_ir.args:
            val = env[formal.name]
            if isinstance(val, np.ndarray) and val.ndim > 0:
                space = formal.mem.name() if formal.mem is not None else "dram"
                operands[str(formal.name)] = _region_of(val, space, self._allocation)
            elif isinstance(val, np.ndarray):
                ctrl[str(formal.name)] = float(val[()])
            else:
                ctrl[str(formal.name)] = val
        self.events.append(Event(proc_ir.name, ctrl, operands))
        return not self.functional

    def run(self, procedure, *args):
        """Interpret ``procedure``, returning the recorded event list."""
        procedure.interpret(*args, instr_hook=self.hook,
                            alloc_hook=self.alloc_hook)
        return self.events


def trace_kernel(procedure, *args, functional: bool = False) -> List[Event]:
    tracer = Tracer(functional=functional)
    return tracer.run(procedure, *args)


def count_by_name(events) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for e in events:
        out[e.name] = out.get(e.name, 0) + 1
    return out
