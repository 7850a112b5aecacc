"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each compiler layer (the
table below) in timing shims.  A shim opens a *span* when control enters a
layer from a different layer (or from the benchmark itself); a call that
stays inside the layer it is already in only bumps the function's call
counter.  A layer's self time is its spans' duration minus the part of it
covered by child spans of other layers, so every second is booked to
exactly one layer or to "uncovered".

Modules import layer functions by name (``effects/api.py`` imports
``state_before`` from ``core.dataflow``, for example), so patching only
the defining module would miss those calls.  :meth:`LayerTracer.install`
therefore replaces every module-level alias of a wrapped function in every
loaded ``repro`` module.  Install after the layer modules are imported:
modules imported later bind the already-wrapped objects.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (layer, defining module, function patterns).  ``Cls.name`` patterns
#: select methods (``Cls.*`` = every method, subclasses in the module too);
#: bare patterns select module-level functions defined in that module.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("frontend", "repro.frontend.parser", ("parse_function",)),
    ("frontend", "repro.api", ("procs_from_source",)),
    ("typecheck", "repro.core.typecheck", ("typecheck_proc",)),
    ("dataflow", "repro.core.dataflow",
     ("Walker.run", "state_before", "iter_contexts")),
    ("effects", "repro.effects.api", ("check_*", "post_effect")),
    ("effects", "repro.effects.effects", ("EffectExtractor.*",)),
    ("checks", "repro.core.checks",
     ("check_proc", "check_proc_incremental", "bounds_check",
      "assert_check")),
    ("absint", "repro.analysis.absint", ("prove", "try_prove", "refute")),
    ("parallel", "repro.analysis.parallel",
     ("check_parallel_loop", "check_par_loops", "lint_proc")),
    ("smt", "repro.smt.solver",
     ("Solver.prove", "Solver.satisfiable", "Solver.find_model")),
    ("scheduling", "repro.scheduling.primitives", ("*",)),
    ("scheduling", "repro.scheduling.unify", ("replace_block",)),
    ("scheduling", "repro.scheduling.pattern", ("find_*",)),
    ("scheduling", "repro.scheduling.simplify", ("simplify_proc*",)),
    ("cgen", "repro.api", ("Procedure.c_code",)),
    ("interp", "repro.core.interp", ("run_proc",)),
    # cost_of is the machine model the tuner prices candidates with; it is
    # booked to machine (its span nests inside autotune's when searching)
    ("machine", "repro.machine.trace", ("trace_kernel",)),
    ("machine", "repro.machine.gemmini_sim", ("GemminiSim.run",)),
    ("machine", "repro.autotune.cost", ("cost_of",)),
    ("autotune", "repro.autotune.search", ("search",)),
    ("autotune", "repro.autotune.space", ("Space.build_candidate",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(l for l, _, _ in LAYERS))


def _module_functions(mod, pattern: str) -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, function)`` triples selected by ``pattern``."""
    out = []
    if "." in pattern:
        cls_name, meth_pat = pattern.split(".", 1)
        base = getattr(mod, cls_name)
        classes = [base] + [
            c for c in base.__subclasses__() if c.__module__ == mod.__name__
        ]
        for cls in classes:
            for name, fn in vars(cls).items():
                if (inspect.isfunction(fn) and not name.startswith("__")
                        and fnmatch.fnmatchcase(name, meth_pat)):
                    out.append((cls, name, fn))
        return out
    for name, fn in vars(mod).items():
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == mod.__name__
                and fnmatch.fnmatchcase(name, pattern)):
            out.append((mod, name, fn))
    return out


class _Layer:
    __slots__ = ("self_time", "raised")

    def __init__(self):
        self.self_time = 0.0
        self.raised = 0  # spans left by an ExoError (a rejection)


class LayerTracer:
    """Wraps layer entry points; see the module docstring."""

    def __init__(self):
        self.layers: Dict[str, _Layer] = {n: _Layer() for n in LAYER_NAMES}
        self.fn_calls: Dict[str, int] = {}
        self.key_layer: Dict[str, str] = {}
        self.top_level = 0.0  # time covered by outermost spans
        self._stack: List[list] = []  # [layer, child time]
        self._exo_error = None

    # -- installation -------------------------------------------------------

    def install(self):
        from repro.core.prelude import ExoError

        self._exo_error = ExoError
        wrapped = set()
        for layer, modname, patterns in LAYERS:
            mod = importlib.import_module(modname)
            for pat in patterns:
                found = _module_functions(mod, pat)
                if not found:
                    raise LookupError(f"{modname}: nothing matches {pat!r}")
                for owner, name, fn in found:
                    if id(fn) in wrapped:
                        continue
                    wrapped.add(id(fn))
                    owner_name = getattr(owner, "__name__", str(owner))
                    key = f"{owner_name}.{name}"
                    wrapper = self._wrap(layer, key, fn)
                    setattr(owner, name, wrapper)
                    self.fn_calls[key] = 0
                    self.key_layer[key] = layer
                    self._patch_aliases(fn, wrapper)

    @staticmethod
    def _patch_aliases(fn, wrapper):
        for mname, mod in list(sys.modules.items()):
            if not mname.startswith("repro") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    # -- the shims ------------------------------------------------------------

    def _enter(self, layer):
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, layer, frame, t0, err):
        dur = time.perf_counter() - t0
        self._stack.pop()
        acc = self.layers[layer]
        acc.self_time += dur - frame[1]
        if err is not None and isinstance(err, self._exo_error):
            acc.raised += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_level += dur

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        calls = self.fn_calls
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            # its span would end before the generator does any work
            raise TypeError(f"{key}: cannot time a generator function")

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame, t0 = self._enter(layer)
            err = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                err = e
                raise
            finally:
                self._leave(layer, frame, t0, err)

        return shim

    # -- read-out -------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        """Calls into any wrapped function of ``layer``, re-entrant ones
        included (a work count, unlike the span count)."""
        return sum(
            n for k, n in self.fn_calls.items() if self.key_layer[k] == layer
        )
