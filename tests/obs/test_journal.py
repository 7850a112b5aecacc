"""Tests for the schedule provenance journal and the compile profile.

Includes the subsystem acceptance test: enable tracing, derive the
Fig. 4a Gemmini matmul schedule, and require (a) per-phase spans in the
profile, (b) at least one SMT cache hit on a repeated obligation, and
(c) that replaying the provenance journal regenerates an equivalent
procedure.
"""

from __future__ import annotations

import pytest

from repro import SchedulingError, obs, proc, set_check_mode
from repro.api import procs_from_source
from repro.obs import journal, trace

_GEMM_SRC = """
@proc
def gemm(M: size, N: size, K: size,
         A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    assert M % 4 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            for k in seq(0, K):
                C[i, j] += A[i, k] * B[k, j]
"""


def _gemm():
    from repro import DRAM, f32, size

    return procs_from_source(
        _GEMM_SRC, {"DRAM": DRAM, "f32": f32, "size": size}
    )["gemm"]


@pytest.fixture(autouse=True)
def _clean_obs():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


class TestJournal:
    def test_root_proc_has_empty_journal(self):
        g = _gemm()
        assert g.schedule_log() == []
        assert g._root is g

    def test_directives_append_records(self):
        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        fast = fast.reorder("for ii in _: _")
        log = fast.schedule_log()
        assert [r.op for r in log] == ["split", "reorder"]
        assert log[0].args == ("for i in _: _", 4, "io", "ii")
        assert log[0].kwargs == (("tail", "perfect"),)
        assert log[0].pattern == "for i in _: _"
        assert all(r.verdict == journal.VERDICT_OK for r in log)

    def test_journal_is_cumulative_and_immutable_per_proc(self):
        g = _gemm()
        a = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        b = a.reorder("for ii in _: _")
        assert len(a.schedule_log()) == 1
        assert len(b.schedule_log()) == 2
        assert g.schedule_log() == []

    def test_unchecked_verdict_when_checks_disabled(self):
        g = _gemm()
        set_check_mode(False)
        try:
            fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        finally:
            set_check_mode(True)
        (rec,) = fast.schedule_log()
        assert rec.verdict == journal.VERDICT_UNCHECKED

    def test_failed_rewrite_recorded_not_journaled(self):
        g = _gemm()
        del journal.FAILED_LOG[:]
        with pytest.raises(SchedulingError):
            g.remove_loop("for k in _: _")  # k is used in the loop body
        assert len(journal.FAILED_LOG) == 1
        name, op, _args, msg = journal.FAILED_LOG[0]
        assert (name, op) == ("gemm", "remove_loop")
        assert msg

    def test_record_to_dict_is_json_safe(self):
        import json

        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        d = journal.record_to_dict(fast.schedule_log()[0])
        assert json.loads(json.dumps(d)) == d
        assert d["op"] == "split"

    def test_replay_regenerates_identical_procedure(self):
        g = _gemm()
        fast = (
            g.split("for i in _: _", 4, "io", "ii", tail="perfect")
            .reorder("for ii in _: _")
            .unroll("for ii in _: _")
        )
        again = fast.replay_schedule()
        assert str(again) == str(fast)
        assert again.c_code() == fast.c_code()

    def test_replay_against_explicit_base(self):
        g = _gemm()
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        again = journal.replay(g, fast.schedule_log())
        assert str(again) == str(fast)


class TestJournalCursorCompat:
    """The cursor refactor must not disturb pattern-string journals, and
    cursor-steered directives must journal replayable PathRefs."""

    def test_pattern_string_journal_replays_byte_identically(self):
        """A pre-refactor-style schedule — every directive steered by a
        pattern string — journals those strings verbatim and replays to
        byte-identical C."""
        g = _gemm()
        fast = (
            g.split("for i in _: _", 4, "io", "ii", tail="perfect")
            .reorder("for ii in _: _")
            .bind_expr("a_ik", "A[_] * B[_]")
        )
        log = fast.schedule_log()
        # the journal holds the original strings, not cursors or PathRefs
        assert log[0].args[0] == "for i in _: _"
        assert log[1].args[0] == "for ii in _: _"
        assert all(
            not isinstance(a, journal.PathRef)
            for rec in log for a in rec.args
        )
        again = fast.replay_schedule()
        assert again.c_code() == fast.c_code()

    def test_cursor_directive_journals_pathref(self):
        g = _gemm()
        cur = g.find("for i in _: _")
        fast = g.split(cur, 4, "io", "ii", tail="perfect")
        (rec,) = fast.schedule_log()
        ref = rec.args[0]
        assert isinstance(ref, journal.PathRef)
        assert ref.path == cur.path
        assert ref.count == 1

    def test_cursor_journal_replays_identically(self):
        g = _gemm()
        cur = g.find("for j in _: _")
        fast = g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        fast = fast.split(cur, 4, "jo", "ji", tail="guard")
        again = fast.replay_schedule()
        assert str(again) == str(fast)
        assert again.c_code() == fast.c_code()

    def test_pathref_record_is_json_safe(self):
        import json

        g = _gemm()
        fast = g.split(g.find("for i in _: _"), 4, "io", "ii", tail="perfect")
        d = journal.record_to_dict(fast.schedule_log()[0])
        assert json.loads(json.dumps(d)) == d


class TestCompileProfile:
    def test_profile_dict_has_phase_spans(self):
        from repro.analysis import absint
        from repro.smt.solver import DEFAULT_SOLVER

        # cold canonical cache and the interval fast path off, so at least
        # one query reaches the solver and the smt phase appears in the
        # profile
        DEFAULT_SOLVER.qcache.clear()
        with absint.disabled():
            g = _gemm()
            g.split("for i in _: _", 4, "io", "ii", tail="perfect")
            g.c_code()
        prof = obs.profile_dict()
        for phase in ("typecheck", "effects", "smt", "sched", "codegen"):
            assert phase in prof["phases"], f"missing phase {phase}"
        assert prof["smt"]["prove_calls"] > 0

    def test_split_obligation_discharged_by_fast_path(self):
        # rewrite obligations go through the same prove() entry point as
        # bounds checks: the fast path tries them first
        g = _gemm()
        g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        counters = obs.profile_dict()["counters"]
        assert counters.get("analysis.absint.rewrite.discharged", 0) > 0

    def test_dataflow_walks_booked_to_dataflow_phase(self):
        # the config dataflow walk is its own phase, not self-time of the
        # enclosing effects/sched spans
        g = _gemm()
        g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        prof = obs.profile_dict()
        assert prof["phases"].get("dataflow", 0.0) > 0.0
        assert prof["spans"]["dataflow.walk"]["count"] > 0
        assert prof["counters"]["dataflow.loop_body_walks"] > 0
        assert "dataflow" in obs.compile_profile()

    def test_compile_profile_renders(self):
        g = _gemm()
        g.split("for i in _: _", 4, "io", "ii", tail="perfect")
        text = obs.compile_profile()
        assert "Compile profile" in text
        assert "SMT query stats" in text


class TestFig4aAcceptance:
    def test_fig4a_matmul_profile_cache_and_replay(self):
        from repro.analysis import absint
        from repro.apps import gemmini_matmul as gm
        from repro.smt.solver import DEFAULT_SOLVER

        obs.reset()
        DEFAULT_SOLVER.qcache.clear()  # cold cache: hits below are this run's
        # bypass the app module's lru_cache so the derivation is re-traced
        # even when another test already built the Fig. 4a schedule; disable
        # the interval fast path so the obligations actually reach the
        # solver and its canonical cache (what this test exercises)
        with absint.disabled():
            exo = gm.matmul_exo.__wrapped__()

        # (a) per-phase spans: every pipeline phase shows up in the profile
        prof = obs.profile_dict()
        for phase in ("typecheck", "effects", "smt", "sched"):
            assert phase in prof["phases"], f"missing phase {phase}"
        assert prof["spans"], "no spans recorded"

        # (b) repeated obligations were answered from the canonical cache
        assert DEFAULT_SOLVER.qcache.hits > 0

        # (c) the journal replays to an equivalent procedure
        log = exo.schedule_log()
        assert len(log) > 10  # the Fig. 4a derivation is a long rewrite chain
        again = exo.replay_schedule()
        assert str(again) == str(exo)
