"""Determinism self-test of the benchmark and the program.

    python3 perfbench/selftest.py

For each workload, runs three traced passes: two with seed A and one with
seed B (``SEEDS``), each with ``PYTHONHASHSEED`` set to its seed; seed B
also draws other inputs and, on gemmini-derive, another derivation order.
It requires that

* each pass is correct, including the wrapper-coverage checks every
  traced pass makes (traced call counts equal the program's own counters);
* the two seed-A passes give identical per-layer call counts, C hashes
  and verdicts;
* the seed-B pass gives the same C hashes and verdicts.

Exits with code 1 if any requirement fails.
"""

from __future__ import annotations

import sys
import time

from run import RUN_LIMIT_S, WORKLOADS, RunError, _pass

#: (seed A, seed B).  They must give different Gemmini derivation orders:
#: seed 1 gives (conv_oldlib, matmul_exo, conv_exo_2x2) and seed 6 gives
#: (conv_oldlib, conv_exo_2x2, matmul_exo).
SEEDS = (1, 6)


def _calls(p) -> dict:
    return {k: v["calls"] for k, v in p["trace"]["layers"].items()}


def check_workload(workload: str, seed_a: int, seed_b: int) -> list:
    def traced(seed):
        t0 = time.perf_counter()
        return _pass(workload, seed, True,
                     lambda: RUN_LIMIT_S - (time.perf_counter() - t0),
                     hash_seed=seed)

    a1, a2, b = traced(seed_a), traced(seed_a), traced(seed_b)
    problems = []
    for tag, p in (("A1", a1), ("A2", a2), ("B", b)):
        problems += [f"pass {tag}: {f}" for f in p["failures"]]
    if _calls(a1) != _calls(a2):
        diff = {k: (v, _calls(a2)[k]) for k, v in _calls(a1).items()
                if _calls(a2)[k] != v}
        problems.append(f"same seed, different layer call counts: {diff}")
    for what in ("hashes", "verdicts"):
        if a1[what] != a2[what]:
            problems.append(f"same seed, different {what}")
        if a1[what] != b[what]:
            problems.append(f"seeds {seed_a} and {seed_b}: different {what}")
    return problems


def main() -> int:
    failed = False
    for w in WORKLOADS:
        try:
            problems = check_workload(w, *SEEDS)
        except RunError as e:
            problems = [str(e)]
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for msg in problems:
            print(f"  {msg}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
