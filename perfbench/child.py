"""One benchmark process: a set-up sample, or one part of a workload pass.

``run.py`` starts one of these per sample so that every part begins with
cold caches and its peak memory is its own.  The last line of standard
output is a JSON object with the measurements.

    python3 perfbench/child.py --setup
    python3 perfbench/child.py --workload x86-oracle --part main --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _coverage_checks(rec, tracer):
    """The traced call counts must equal the program's own counters where
    both exist; a shortfall means a call path the shims do not see."""
    from repro import obs
    from repro.scheduling import primitives

    counters = obs.TRACER.counter_totals()
    applied = sum(v for k, v in counters.items() if k.startswith("sched.applied."))
    pairs = {
        "Solver.prove": (tracer.fn_calls["Solver.prove"], obs.STATS.prove_calls),
        "absint.prove": (tracer.fn_calls["repro.analysis.absint.prove"],
                         counters.get("analysis.absint.tried", 0)),
        "primitives": (
            sum(tracer.fn_calls[f"repro.scheduling.primitives.{n}"]
                for n in primitives._PRIMITIVES),
            applied,
        ),
    }
    for name, (traced, program) in pairs.items():
        rec.op(f"coverage:{name}",
               lambda t=traced, p=program: None if t == p
               else f"traced {t} calls, program counted {p}")
    return counters


def _layer_report(tracer, counters, window_s):
    from repro import obs

    return {
        "layers": {
            name: {"calls": tracer.layer_calls(name), "self_s": acc.self_time,
                   "raised": acc.raised}
            for name, acc in tracer.layers.items()
        },
        "window_s": window_s,
        "covered_s": tracer.top_level,
        "counters": {
            "incremental_reused": counters.get("analysis.incremental.reused", 0),
            "incremental_rechecked": counters.get("analysis.incremental.rechecked", 0),
            "absint_tried": counters.get("analysis.absint.tried", 0),
            "absint_discharged": counters.get("analysis.absint.discharged", 0),
            "smt_cache_hits": obs.STATS.cache_hits,
            "smt_cache_misses": obs.STATS.cache_misses,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--part")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from speed import SpeedClock

    clock = SpeedClock()
    clock.start()
    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        from layers import LayerTracer

        from repro import obs

        obs.enable()
        obs.reset()
        tracer = LayerTracer()
        tracer.install()
    t_traced = time.perf_counter()
    import workloads

    for mod in workloads.SETUP_MODULES:
        importlib.import_module(mod)
    t_setup = time.perf_counter()
    if args.setup:
        clock.stop()
        print(json.dumps({"setup_s": clock.duration(t0, t_setup)}))
        return 0

    rec = workloads.Recorder()
    workloads.install_directive_timer(rec)
    t1 = time.perf_counter()
    part = {name: fn for name, fn, _ in workloads.PASSES[args.workload]}
    part[args.part](rec, args.seed)
    t_end = time.perf_counter()
    clock.stop()
    rec.finish(clock)
    out = {
        "wall_s": clock.duration(t1, t_end),
        "raw_wall_s": t_end - t1,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phase_s": rec.phase_s,
        "directive_ms": rec.directive_ms,
        "reject_ms": rec.reject_ms,
        "modeled_pct_peak": rec.modeled_pct_peak,
        "hashes": rec.hashes,
        "verdicts": rec.verdicts,
        "cgen_bytes": rec.cgen_bytes,
        "macs": rec.macs,
        "machine_events": rec.machine_events,
        "tune_candidates": rec.tune_candidates,
        "tune_pruned": rec.tune_pruned,
    }
    if tracer is not None:
        counters = _coverage_checks(rec, tracer)
        out["trace"] = _layer_report(tracer, counters, t_end - t_traced)
    out["attempted"] = rec.attempted
    out["failures"] = rec.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
