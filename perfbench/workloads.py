"""The three benchmark workloads.

A workload pass is made of parts (``PASSES``): functions ``part(rec, seed)``
that drive the compiler through its public API and record, in a
:class:`Recorder`, the time of each phase and the outcome of every checked
operation.  The seed decides the generated inputs (the Gemmini derivation
order and the random matrices); the program sees only those inputs.  The
catalogue order and the tuning seeds are fixed, because both change how
much work the program does: a rejection's latency depends on which entries
warmed the solver cache before it, and a search's on the order in which it
builds its candidates.

Every output is checked against the benchmark's own data
(``reference.json``, ``catalogue.json``) or against numpy, never against
the compiler under test.  A check that fails, or an operation that raises
unexpectedly, is a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: the modules whose import is the benchmark's set-up: the package, the
#: platform libraries (every @instr is parsed and typechecked here), the
#: apps, and the machine models and tuner the apps use
SETUP_MODULES = (
    "repro",
    "repro.platforms.gemmini",
    "repro.platforms.avx512",
    "repro.apps.gemmini_matmul",
    "repro.apps.gemmini_conv",
    "repro.apps.x86_sgemm",
    "repro.apps.x86_conv",
    "repro.autotune",
    "repro.machine.trace",
    "repro.machine.gemmini_sim",
)

# stated sizes
GEMMINI_MATMUL_SHAPE = (256, 256, 256)  # Fig. 4a (N, M, K)
GEMMINI_CONV_SHAPE = (1, 2, 32, 128, 128)  # Fig. 4b 28x128x128, 2 rows (B, OY, OX, OC, IC)
SGEMM_ORACLE = (48, 64, 48)  # (M, N, K)
XCONV_ORACLE = (1, 2, 8, 32, 16)  # (B, OY, OX, OC, IC)
SGEMM_MODEL_SIZES = {"M": 192, "N": 192, "K": 64}
# tiny sizes for running accepted catalogue rewrites on the interpreter
CATALOGUE_SIZES = {
    "sgemm_base": (16, 16, 8),
    "sgemm_exo": (6, 64, 8),
    "xconv_alg": (1, 2, 4, 32, 2),
}
#: every search uses this seed (see the module docstring)
TUNE_SEED = 0
ACTION_TUNE_SIZES = {
    "matmul_base": {"N": 64, "M": 64, "K": 64},
    "sgemm_base": {"M": 48, "N": 64, "K": 48},
}

def _load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """Phase times, directive latencies and checked outcomes of one pass."""

    def __init__(self):
        # raw (start, end) perf_counter intervals; finish() turns them into
        # phase_s, directive_ms and reject_ms on the corrected clock
        self.phase_iv: Dict[str, List[Tuple[float, float]]] = {
            "derive": [], "interp": [], "tune": []}
        self.directive_iv: List[Tuple[float, float]] = []
        self.reject_iv: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.hashes: Dict[str, str] = {}
        self.verdicts: Dict[str, str] = {}
        self.modeled_pct_peak: List[float] = []
        self.cgen_bytes = 0
        self.macs = 0
        self.machine_events = 0
        self.tune_candidates = 0
        self.tune_pruned = 0
        self._depth = 0

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_iv[name].append((t0, time.perf_counter()))

    def finish(self, clock):
        """Corrected times from the recorded intervals (see speed.py)."""
        self.phase_s = {name: sum(clock.duration(a, b) for a, b in ivs)
                        for name, ivs in self.phase_iv.items()}
        self.directive_ms = [clock.duration(a, b) * 1e3 for a, b in self.directive_iv]
        self.reject_ms = [clock.duration(a, b) * 1e3 for a, b in self.reject_iv]

    def op(self, name: str, fn: Callable[[], object]):
        """Run one checked operation: ``fn`` returns None when its output
        is right, or a message saying what is wrong; raising is a failure
        too.  Returns True when the op passed."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception:
            problem = "raised: " + traceback.format_exc(limit=3)
        if problem is not None:
            self.failures.append(f"{name}: {problem}")
            return False
        return True

    def check_c(self, key: str, proc):
        """Generate C for ``proc`` and compare its sha256 to the pinned one."""
        def check():
            code = proc.c_code()
            self.cgen_bytes += len(code)
            got = self.hashes[key] = sha256(code)
            want = REFERENCE["c_sha256"].get(key)
            if got != want:
                return f"C sha256 {got} != pinned {want}"
            return None

        self.op(f"c:{key}", check)

    # -- directive timing (installed on Procedure by install_directive_timer)

    def time_directive(self, fn, proc, args, kwargs):
        if self._depth:
            return fn(proc, *args, **kwargs)
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return fn(proc, *args, **kwargs)
        finally:
            self.directive_iv.append((t0, time.perf_counter()))
            self._depth -= 1


def install_directive_timer(rec: Recorder):
    """Time every outermost scheduling directive called on a Procedure."""
    import functools

    from repro import api

    for name in api._DIRECTIVES:
        fn = getattr(api.Procedure, name)

        def timed(self, *args, _fn=fn, **kwargs):
            return rec.time_directive(_fn, self, args, kwargs)

        setattr(api.Procedure, name, functools.wraps(fn)(timed))


REFERENCE = _load("reference.json")
CATALOGUE = _load("catalogue.json")["entries"]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _resolve(arg):
    if isinstance(arg, str) and arg.startswith("@"):
        import importlib

        lib, name = arg[1:].split(".")
        return getattr(importlib.import_module(f"repro.platforms.{lib}"), name)
    return arg


def _catalogue_kernels(names) -> Dict[str, object]:
    from repro.apps import gemmini_matmul as gm
    from repro.apps import x86_conv as xc
    from repro.apps import x86_sgemm as xs

    builders = {
        "sgemm_base": lambda: xs.sgemm_base,
        "sgemm_exo": xs.sgemm_exo,
        "matmul_base": lambda: gm.matmul_base,
        "matmul_tiled": gm.matmul_tiled,
        "matmul_exo": gm.matmul_exo,
        "xconv_alg": lambda: xc._conv_algorithm("xconv_alg", xc.XB, xc.OCV),
    }
    return {n: builders[n]() for n in names}


def _sgemm_inputs(rng, M, N, K):
    A = rng.standard_normal((M, K)).astype(np.float32)
    B = rng.standard_normal((K, N)).astype(np.float32)
    C = rng.standard_normal((M, N)).astype(np.float32)
    return A, B, C


def _xconv_inputs(rng, B, OY, OX, OC, IC):
    inp = rng.standard_normal((B, OY + 2, OX + 2, IC)).astype(np.float32)
    w = rng.standard_normal((3, 3, IC, OC)).astype(np.float32)
    out = np.zeros((B, OY, OX, OC), np.float32)
    return inp, w, out


def _xconv_reference(inp, w, OY, OX):
    acc = np.zeros(inp.shape[:1] + (OY, OX, w.shape[3]), np.float64)
    for ky in range(3):
        for kx in range(3):
            acc += np.einsum(
                "byxi,io->byxo",
                inp[:, ky:ky + OY, kx:kx + OX, :].astype(np.float64),
                w[ky, kx].astype(np.float64),
            )
    return np.maximum(acc, 0.0)


def _close(got, want, what: str):
    if np.allclose(got, want, rtol=1e-4, atol=1e-4):
        return None
    return f"{what}: max |interp - numpy| = {np.abs(got - want).max():.3g}"


def interp_check(rec: Recorder, kernel: str, proc, rng):
    """Run ``proc`` (an sgemm- or x86-conv-shaped kernel) on the
    interpreter at the sizes for ``kernel``; compare with numpy."""
    if kernel.startswith("sgemm"):
        M, N, K = CATALOGUE_SIZES.get(kernel, SGEMM_ORACLE)
        A, B, C = _sgemm_inputs(rng, M, N, K)
        want = C.astype(np.float64) + A.astype(np.float64) @ B
        with rec.phase("interp"):
            proc.interpret(M, N, K, A, B, C)
        rec.macs += M * N * K
        return _close(C, want, f"{proc.name()} {M}x{N}x{K}")
    Bn, OY, OX, OC, IC = CATALOGUE_SIZES.get(kernel, XCONV_ORACLE)
    inp, w, out = _xconv_inputs(rng, Bn, OY, OX, OC, IC)
    with rec.phase("interp"):
        proc.interpret(Bn, OY, OX, OC, IC, inp, w, out)
    rec.macs += Bn * OY * OX * OC * IC * 9
    return _close(out, _xconv_reference(inp, w, OY, OX), proc.name())


def run_catalogue(rec: Recorder, kernels: Dict[str, object], seed: int,
                  interp: bool):
    """Apply every catalogue entry on ``kernels``, in catalogue order, and
    compare each verdict with the hand-written one."""
    from repro.core.prelude import ExoError

    entries = [e for e in CATALOGUE if e["kernel"] in kernels]
    rng = np.random.default_rng(seed)
    for e in entries:
        base = kernels[e["kernel"]]
        args = [_resolve(a) for a in e["args"]]
        out = {}

        def apply(e=e, base=base, args=args, out=out):
            t0 = time.perf_counter()
            try:
                out["proc"] = getattr(base, e["directive"])(*args, **e["kwargs"])
                verdict = "ok"
            except ExoError as err:
                verdict = type(err).__name__
                out["error"] = str(err).splitlines()[0]
            t1 = time.perf_counter()
            rec.verdicts[e["id"]] = verdict
            if verdict != "ok":
                rec.reject_iv.append((t0, t1))
            if verdict != e["expect"]:
                return f"verdict {verdict} ({out.get('error', '')}), want {e['expect']}"
            return None

        if rec.op(f"verdict:{e['id']}", apply) and interp and e.get("interp"):
            rec.op(f"interp:{e['id']}",
                   lambda e=e, out=out: interp_check(rec, e["kernel"], out["proc"], rng))


def _tune_winner_check(rec: Recorder, key: str, result):
    def check():
        ref = REFERENCE["tune"].get(key, {})
        if result.best is None:
            return "no legal candidate"
        got = (result.best.describe(), result.stats["candidates"],
               result.stats["pruned"])
        want = (ref.get("winner"), ref.get("candidates"), ref.get("pruned"))
        if got != want:
            return f"(winner, candidates, pruned) = {got}, want {want}"
        return None

    rec.op(f"tune:{key}", check)
    rec.tune_candidates += result.stats["candidates"]
    rec.tune_pruned += result.stats["pruned"]
    if result.best is not None:
        rec.check_c(f"tune.{key}", result.best.proc)


def _action_tune_check(rec: Recorder, key: str, base, result, sizes):
    """Action-space search: the winner must be legal, model no worse than
    the untouched base, and replay byte-identically."""
    from repro.autotune import X86_MODEL, cost_of

    rec.tune_candidates += result.stats["candidates"]
    rec.tune_pruned += result.stats["pruned"]

    def check():
        best = result.best
        if best is None:
            return "no legal candidate"
        if best.cost.cycles > cost_of(base, sizes, X86_MODEL).cycles:
            return "winner models slower than the untransformed base"
        if best.proc.replay_schedule(base).c_code() != best.proc.c_code():
            return "winner does not replay byte-identically"
        return None

    rec.op(f"tune:{key}", check)


def _pct_peak(cost) -> float:
    """Modeled share of the machine model's peak instruction throughput."""
    m = cost.model
    return 100.0 * cost.flops / (cost.cycles * m.instr_flops_per_cycle)


def _trace_digest(events) -> str:
    """sha256 of an instruction trace: every event's name, control values
    and operand regions.  ``Region.base`` is left out: it is the ``id()`` of
    a numpy allocation, and the interpreter frees scratchpad and
    accumulator allocations during the trace, so which events share a base
    depends on where the Python heap puts the next one (see README)."""
    h = hashlib.sha256()
    for ev in events:
        regions = sorted((k, r.lo, r.hi, r.bytes, r.space, r.pitch, r.col_lo, r.col_hi)
                         for k, r in ev.operands.items())
        h.update(repr((ev.name, sorted(ev.ctrl.items()), regions)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# gemmini-derive
# ---------------------------------------------------------------------------


def gemmini_derive(rec: Recorder, seed: int):
    """Derive the three Gemmini kernels cold, in a seeded order; emit C;
    model each with the Gemmini cost model, and trace and simulate it, at
    one Fig. 4 shape."""
    from repro.apps import gemmini_conv as gc
    from repro.apps import gemmini_matmul as gm
    from repro.autotune import GEMMINI_MODEL, cost_of
    from repro.machine.gemmini_sim import GemminiSim
    from repro.machine.trace import trace_kernel

    kernels = {
        "matmul_exo": (gm.matmul_exo, "matmul"),
        "conv_oldlib": (gc.conv_oldlib, "conv"),
        "conv_exo_2x2": (lambda: gc.conv_exo(2, 2), "conv"),
    }
    order = sorted(kernels)
    random.Random(seed).shuffle(order)
    sim = GemminiSim()
    pcts = []
    for name in order:
        build, shape = kernels[name]
        out = {}

        def derive(build=build, out=out):
            with rec.phase("derive"):
                out["proc"] = build()

        if not rec.op(f"derive:{name}", derive):
            continue
        proc = out["proc"]
        rec.check_c(f"gemmini.{name}", proc)
        sizes = GEMMINI_MATMUL_SHAPE if shape == "matmul" else GEMMINI_CONV_SHAPE

        def model(name=name, proc=proc, sizes=sizes):
            formals = [str(a.name) for a in proc._loopir_proc.args]
            pct = _pct_peak(cost_of(proc, dict(zip(formals, sizes)), GEMMINI_MODEL))
            pcts.append(pct)
            want = REFERENCE["modeled_pct_peak"].get(f"gemmini.{name}")
            if want is None or abs(pct - want) >= 1e-9:
                return f"{pct!r} % of peak, want {want!r}"
            return None

        def simulate(name=name, proc=proc, shape=shape):
            if shape == "matmul":
                N, M, K = GEMMINI_MATMUL_SHAPE
                args = (N, M, K, np.zeros((N, K), np.int8),
                        np.zeros((K, M), np.int8), np.zeros((N, M), np.int8))
                rec.macs += N * M * K
            else:
                B, OY, OX, OC, IC = GEMMINI_CONV_SHAPE
                args = (B, OY, OX, OC, IC,
                        np.zeros((B, OY + 2, OX + 2, IC), np.int8),
                        np.zeros((3, 3, IC, OC), np.int8),
                        np.zeros((B, OY, OX, OC), np.int8))
                rec.macs += B * OY * OX * OC * IC * 9
            with rec.phase("interp"):
                events = trace_kernel(proc, *args)
            rec.machine_events += len(events)
            # only the utilization's range is checked: its value depends on
            # Region.base (see _trace_digest), so on heap addresses
            util = sim.run(events).utilization
            ref = REFERENCE["gemmini_trace"].get(name, {})
            got = {"events": len(events), "sha256": _trace_digest(events)}
            rec.hashes[f"trace.{name}"] = got["sha256"]
            if got != ref:
                return f"trace {got}, want {ref}"
            if not 0.0 < util <= 1.0:
                return f"utilization {util!r} outside (0, 1]"
            return None

        rec.op(f"model:{name}", model)
        rec.op(f"sim:{name}", simulate)
    if pcts:
        rec.modeled_pct_peak.append(sum(pcts) / len(pcts))


def gemmini_tune(rec: Recorder, seed: int):
    """Tune the Fig. 4a space (hoisted vs fused config writes) cold; then
    apply the Gemmini slice of the catalogue.  The catalogue runs here and
    not after the seeded derivations, because the derivation order changed
    its rejection latencies (median 27 to 45 ms across seeds)."""
    from repro.apps import gemmini_matmul as gm
    from repro.autotune import GEMMINI_MODEL, TuneConfig, search

    N, M, K = GEMMINI_MATMUL_SHAPE
    cfg = TuneConfig(seed=TUNE_SEED, budget=6, model=GEMMINI_MODEL,
                     sizes={"N": N, "M": M, "K": K})
    out = {}

    def tune():
        with rec.phase("tune"):
            out["r"] = search(gm.matmul_space(), cfg)

    if rec.op("tune:gemmini_matmul.search", tune):
        _tune_winner_check(rec, "gemmini_matmul", out["r"])

    cat = {}

    def catalogue_kernels():
        cat.update(_catalogue_kernels(["matmul_base", "matmul_tiled", "matmul_exo"]))

    if rec.op("derive:catalogue_kernels", catalogue_kernels):
        run_catalogue(rec, cat, seed, interp=False)


# ---------------------------------------------------------------------------
# x86-oracle
# ---------------------------------------------------------------------------


def x86_oracle(rec: Recorder, seed: int):
    """Derive the x86 kernels, then run each base algorithm and scheduled
    kernel on the interpreter on seeded random inputs, against numpy."""
    from repro.apps import x86_conv as xc
    from repro.apps import x86_sgemm as xs
    from repro.autotune import X86_MODEL, TuneConfig, cost_of, search

    rng = np.random.default_rng(seed)
    derived = {}
    for key, build in (("x86.sgemm_exo", xs.sgemm_exo),
                       ("x86.conv_exo", xc.conv_exo)):
        def derive(key=key, build=build):
            with rec.phase("derive"):
                derived[key] = build()

        if rec.op(f"derive:{key}", derive):
            rec.check_c(key, derived[key])

    def model():
        cost = cost_of(derived["x86.sgemm_exo"], SGEMM_MODEL_SIZES, X86_MODEL)
        pct = _pct_peak(cost)
        rec.modeled_pct_peak.append(pct)
        want = REFERENCE["modeled_pct_peak"].get("x86.sgemm_exo")
        return None if want is not None and abs(pct - want) < 1e-9 else f"{pct!r} % of peak, want {want!r}"

    if "x86.sgemm_exo" in derived:
        rec.op("model:x86.sgemm_exo", model)

    xconv_alg = xc._conv_algorithm("xconv_alg", xc.XB, xc.OCV)
    oracle = [("sgemm", xs.sgemm_base), ("xconv", xconv_alg)]
    if "x86.sgemm_exo" in derived:
        oracle.append(("sgemm", derived["x86.sgemm_exo"]))
    if "x86.conv_exo" in derived:
        oracle.append(("xconv", derived["x86.conv_exo"]))
    for kind, proc in oracle:
        rec.op(f"interp:{proc.name()}",
               lambda kind=kind, proc=proc: interp_check(rec, kind, proc, rng))

    M, N, K = SGEMM_ORACLE
    out = {}

    def tune():
        with rec.phase("tune"):
            out["r"] = search(xs.sgemm_space(M, N, K), TuneConfig(seed=TUNE_SEED, budget=30))

    if rec.op("tune:sgemm_48x64x48.search", tune):
        _tune_winner_check(rec, "sgemm_48x64x48", out["r"])


def x86_catalogue(rec: Recorder, seed: int):
    """Apply the x86 slice of the catalogue, running every accepted rewrite
    on the interpreter on seeded inputs.  A part of its own, repeated: its
    15 rejections are too few for one sample of their median to compare."""
    from repro.apps import x86_conv as xc
    from repro.apps import x86_sgemm as xs

    xconv_alg = xc._conv_algorithm("xconv_alg", xc.XB, xc.OCV)
    run_catalogue(rec, {"sgemm_base": xs.sgemm_base, "xconv_alg": xconv_alg},
                  seed, interp=True)


# ---------------------------------------------------------------------------
# tune-verdicts
# ---------------------------------------------------------------------------


def tune_verdicts(rec: Recorder, seed: int):
    """The SGEMM grid search, action-space searches on the two matmul
    algorithms, and the whole catalogue; accepted x86 rewrites run on the
    interpreter on seeded inputs."""
    from repro.apps import gemmini_matmul as gm
    from repro.apps import x86_sgemm as xs
    from repro.autotune import X86_MODEL, TuneConfig, search

    names = sorted({e["kernel"] for e in CATALOGUE})
    cat = {}

    def derive():
        with rec.phase("derive"):
            cat.update(_catalogue_kernels(names))

    if rec.op("derive:catalogue_kernels", derive):
        for key in ("sgemm_exo", "matmul_tiled", "matmul_exo"):
            rec.check_c(f"catalogue.{key}", cat[key])

    out = {}

    def grid():
        with rec.phase("tune"):
            out["r"] = search(xs.sgemm_space(), TuneConfig(seed=TUNE_SEED, budget=30))

    if rec.op("tune:sgemm_192x192x64.search", grid):
        r = out["r"]
        _tune_winner_check(rec, "sgemm_192x192x64", r)
        if r.best is not None:
            rec.modeled_pct_peak.append(_pct_peak(r.best.cost))

    for key, base in (("matmul_base", gm.matmul_base),
                      ("sgemm_base", xs.sgemm_base)):
        sizes = ACTION_TUNE_SIZES[key]

        def action(key=key, base=base, sizes=sizes):
            with rec.phase("tune"):
                out[key] = base.tune(seed=TUNE_SEED, budget=20, sizes=sizes,
                                     model=X86_MODEL)

        if rec.op(f"tune:{key}.action_search", action):
            _action_tune_check(rec, f"{key}.action", base, out[key], sizes)

    if cat:
        run_catalogue(rec, cat, seed, interp=True)


Part = Callable[[Recorder, int], None]

#: a pass of each workload: its parts, and how many times each part runs,
#: each time in a fresh process.  A part repeated n times counts once in the
#: pass, with the median of its n measurements: the Gemmini search and
#: catalogue are short next to the derivations, and one sample of them is
#: too noisy to compare.
PASSES: Dict[str, Tuple[Tuple[str, Part, int], ...]] = {
    "gemmini-derive": (("derive", gemmini_derive, 1),
                       ("tune", gemmini_tune, 2)),
    "x86-oracle": (("main", x86_oracle, 1),
                   ("catalogue", x86_catalogue, 2)),
    "tune-verdicts": (("main", tune_verdicts, 1),),
}
