"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gemmini-derive --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each part of a pass (``workloads.PASSES``)
and each set-up sample runs in a fresh process (``child.py``), one at a
time, so caches are cold at the start of every part and nothing runs in
parallel.  Passes repeat until ``--seconds`` have passed; there is always
at least one.  With ``--trace 1`` each untraced pass is followed by a
traced one and the per-layer metrics are printed instead of the end-to-end
ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Without the program's sources (``src/repro``) it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYER_NAMES  # noqa: E402
from workloads import PASSES  # noqa: E402

WORKLOADS = tuple(PASSES)
SETUP_SAMPLES = 3
#: every process of one run must end within this many seconds, so that a
#: run reports within 180 s; a traced gemmini-derive run, the longest, took
#: 74 to 104 s
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def _child(args, seed: int, timeout: float, hash_seed: int = 0) -> dict:
    """Run child.py; measured passes share one ``PYTHONHASHSEED`` because
    the program's work varies with it (see README)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{' '.join(args)}: no result within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{' '.join(args)} exited {proc.returncode}:\n"
                       f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _merge_reps(reps: list):
    """One part's repetitions: the median of every number; for samples
    (lists), the element-wise median of the sorted samples, so a part keeps
    its weight in the pass; anything else (hashes, verdicts) must agree."""
    first = reps[0]
    if isinstance(first, dict):
        return {k: _merge_reps([r[k] for r in reps]) for k in first}
    if isinstance(first, list):
        if any(len(r) != len(first) for r in reps):
            raise ValueError(f"repetitions took {[len(r) for r in reps]} samples")
        return [statistics.median(xs) for xs in zip(*map(sorted, reps))]
    if isinstance(first, (int, float)):
        return statistics.median(reps)
    if any(r != first for r in reps):
        raise ValueError(f"repetitions disagree: {reps!r}")
    return first


def _merge_parts(a, b):
    """Two parts of one pass: numbers add, lists concatenate, dicts merge."""
    if isinstance(a, dict):
        return {k: _merge_parts(a[k], b[k]) if k in a and k in b
                else a.get(k, b.get(k)) for k in {**a, **b}}
    return a + b


def _pass(workload: str, seed: int, trace: bool, remaining,
          hash_seed: int = 0) -> dict:
    """One pass: each part of the workload, each repetition of a part in a
    fresh process, merged into one measurement."""
    merged, attempted, failures, rss = None, 0, [], 0.0
    for name, _fn, reps in PASSES[workload]:
        args = ["--workload", workload, "--part", name] + (["--trace"] if trace else [])
        runs = [_child(args, seed, remaining(), hash_seed) for _ in range(reps)]
        attempted += sum(r.pop("attempted") for r in runs)
        failures += [f for r in runs for f in r.pop("failures")]
        rss = max(rss, max(r.pop("rss_mb") for r in runs))
        try:
            part = _merge_reps(runs)
        except ValueError as e:
            failures.append(f"{name}: {e}")
            part = runs[0]
        merged = part if merged is None else _merge_parts(merged, part)
    merged.update(attempted=attempted, failures=failures, rss_mb=rss)
    return merged


def _pct(values, q: int) -> float:
    """The q-th percentile (inclusive method); q=50 is the median."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median_of(passes, get):
    return statistics.median(get(p) for p in passes)


def end_to_end(setups, passes) -> dict:
    """A metric with no samples is left out: that happens only to a broken
    program (every illegal directive accepted, no kernel derived), whose
    failed ops are counted in the result line."""
    directive = [ms for p in passes for ms in p["directive_ms"]]
    reject = [ms for p in passes for ms in p["reject_ms"]]
    modeled = [statistics.median(p["modeled_pct_peak"])
               for p in passes if p["modeled_pct_peak"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    out = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (_median_of(passes, lambda p: p["wall_s"]), "s"),
        "derive_s": (_median_of(passes, lambda p: p["phase_s"]["derive"]), "s"),
        "interp_s": (_median_of(passes, lambda p: p["phase_s"]["interp"]), "s"),
        "tune_s": (_median_of(passes, lambda p: p["phase_s"]["tune"]), "s"),
    }
    if len(directive) >= 2:
        out["directive_ms_p50"] = (_pct(directive, 50), "ms")
        out["directive_ms_p90"] = (_pct(directive, 90), "ms")
    if reject:
        out["reject_ms_p50"] = (_pct(reject, 50), "ms")
    out["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in passes), "MB")
    out["ops_ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    if modeled:
        out["modeled_pct_peak"] = (statistics.median(modeled), "%")
    return out


def per_layer(untraced, traced) -> dict:
    def med(get):
        return _median_of(traced, get)

    def ratio(num, den):
        return med(lambda p: p["trace"]["counters"][num] / (
            p["trace"]["counters"][num] + p["trace"]["counters"][den] or 1))

    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (
            med(lambda p: p["trace"]["layers"][name]["calls"]), "count")
        out[f"{name}.self_s"] = (
            med(lambda p: p["trace"]["layers"][name]["self_s"]), "s")
    out.update({
        "effects.rejects": (
            med(lambda p: p["trace"]["layers"]["effects"]["raised"]), "count"),
        "checks.incremental_reuse_ratio": (
            ratio("incremental_reused", "incremental_rechecked"), "ratio"),
        "absint.discharged_ratio": (
            med(lambda p: p["trace"]["counters"]["absint_discharged"]
                / (p["trace"]["counters"]["absint_tried"] or 1)), "ratio"),
        "smt.cache_hit_ratio": (
            ratio("smt_cache_hits", "smt_cache_misses"), "ratio"),
        "scheduling.rejects": (
            med(lambda p: p["trace"]["layers"]["scheduling"]["raised"]), "count"),
        "cgen.bytes": (med(lambda p: p["cgen_bytes"]), "B"),
        "interp.macs_per_s": (
            med(lambda p: p["macs"] / (p["trace"]["layers"]["interp"]["self_s"]
                                       or float("inf"))),
            "1/s"),
        "machine.events": (med(lambda p: p["machine_events"]), "count"),
        "autotune.pruned_ratio": (
            med(lambda p: p["tune_pruned"] / (p["tune_candidates"] or 1)), "ratio"),
        "trace.overhead_s": (
            med(lambda p: p["wall_s"]) - _median_of(untraced, lambda p: p["wall_s"]),
            "s"),
        "trace.uncovered_share": (
            med(lambda p: 1.0 - p["trace"]["covered_s"] / p["trace"]["window_s"]),
            "ratio"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    try:
        setups = [] if args.trace else [
            _child(["--setup"], args.seed, remaining())
            for _ in range(SETUP_SAMPLES)]
        untraced, traced = [], []
        t_measure = time.perf_counter()
        while time.perf_counter() - t_measure < args.seconds:
            untraced.append(_pass(args.workload, args.seed, False, remaining))
            if args.trace:
                traced.append(_pass(args.workload, args.seed, True, remaining))
    except RunError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    every = untraced + traced
    for p in every:
        for f in p["failures"]:
            print(f"FAILED {f}", file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(setups, untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    if not args.trace:  # for comparison with the speed-corrected wall_s
        print(f"{'wall_s uncorrected':34s} "
              f"{_median_of(untraced, lambda p: p['raw_wall_s']):>16.6g} s")
    failed = sum(len(p["failures"]) for p in every)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
