"""The per-node "may write config" summary and the loop fixpoints it skips.

A loop whose body cannot write a config field starts and ends every
iteration in its entry state, so the dataflow walker and the effect
extractor walk its body once instead of probing it for a fixpoint.  These
tests pin the work saved, that the summary sees config writes hidden in
callees (``@instr`` included), and that a rewrite never inherits the
summary of the node it replaced.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import SchedulingError, obs
from repro.api import procs_from_source
from repro.core import ast as IR
from repro.core import types as T
from repro.core.buffers import TypeEnv
from repro.core.configs import Config
from repro.core.dataflow import Walker, state_before, writes_config
from repro.effects.effects import EffectExtractor
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, instr, DRAM, f32, size, index\n"
)


@pytest.fixture
def cfg():
    return Config("CfgCT", [("a", T.int_t), ("b", T.int_t), ("c", T.int_t)])


def _procs(body, cfg):
    return procs_from_source(HEADER + body, extra_globals={"CfgCT": cfg})


def _loops(proc):
    return [s for s in IR.walk_stmts(proc.body) if isinstance(s, IR.For)]


def _last_path(proc):
    return (("body", len(proc.body) - 1),)


@pytest.fixture
def traced():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


_NEST = """
@proc
def nest(n: size, x: f32[n, n, n, n] @ DRAM):
    CfgCT.a = 3
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                for l in seq(0, n):
                    x[i, j, k, l] = 0.0
"""

# callees that write config only inside an ``if`` or a ``for``
_CALLEES = """
@instr("cfg_if({n});")
def cfg_if(n: index, v: f32 @ DRAM):
    if n > 2:
        CfgCT.a = 0
    v = 0.0

@proc
def cfg_for(v: f32 @ DRAM):
    for j in seq(0, 4):
        CfgCT.a = 0
    v = 0.0

@instr("cfg_none({n});")
def cfg_none(n: index, v: f32 @ DRAM):
    if n > 2:
        v = 0.0
"""


def _caller(callee_call):
    return _CALLEES + f"""
@proc
def f(n: size, v: f32 @ DRAM):
    CfgCT.a = 1
    for i in seq(0, n):
        {callee_call}
    if CfgCT.a == 0:
        if CfgCT.b == 2:
            v = 1.0
"""


class TestSummary:
    def test_transparent_and_writing_nodes(self, cfg):
        procs = _procs(_caller("cfg_if(i, v)"), cfg)
        assert writes_config(procs["cfg_if"].ir())
        assert writes_config(procs["cfg_for"].ir())
        assert not writes_config(procs["cfg_none"].ir())
        f = procs["f"].ir()
        (loop,) = _loops(f)
        assert writes_config(loop)
        assert writes_config(f)
        nest = _procs(_NEST, cfg)["nest"].ir()
        assert not any(writes_config(l) for l in _loops(nest))
        assert writes_config(nest)  # its top-level config write

    def test_cache_is_not_a_field(self, cfg):
        loop = _loops(_procs(_NEST, cfg)["nest"].ir())[0]
        before = (repr(loop), hash(loop))
        assert not writes_config(loop)
        assert loop.__dict__["_writes_config"] is False
        assert "_writes_config" not in {f.name for f in dataclasses.fields(loop)}
        assert (repr(loop), hash(loop)) == before
        # a rebuilt node is equal to the old one but carries no summary
        twin = dataclasses.replace(loop)
        assert twin == loop and hash(twin) == hash(loop)
        assert "_writes_config" not in twin.__dict__


class TestWork:
    def test_transparent_nest_walks_each_body_once(self, cfg, traced):
        proc = _procs(_NEST, cfg)["nest"].ir()
        obs.reset()  # forget the walks of the definition-time checks
        seen = []
        Walker(proc, lambda s, *_: seen.append(s)).run()
        assert obs.TRACER.counter_totals()["dataflow.loop_body_walks"] == 4
        assert len(seen) == 1 + 4 + 1  # the write, four loops, the store
        obs.reset()
        Walker(proc).run()
        assert obs.TRACER.counter_totals().get("dataflow.loop_body_walks", 0) == 0

    def test_config_writing_loop_keeps_its_fixpoint(self, cfg, traced):
        proc = _procs(_caller("cfg_if(i, v)"), cfg)["f"].ir()
        obs.reset()
        Walker(proc, lambda *_: None).run()
        # probe (havocs a), probe (stable), visiting pass, exit probe
        assert obs.TRACER.counter_totals()["dataflow.loop_body_walks"] == 4

    def test_extractor_extracts_transparent_body_once(self, cfg, monkeypatch):
        proc = _procs(_NEST, cfg)["nest"].ir()
        bodies = {id(l.body): l for l in _loops(proc)}
        calls = []
        original = EffectExtractor.block_effect

        def counting(self, stmts):
            if id(stmts) in bodies:
                calls.append(id(stmts))
            return original(self, stmts)

        monkeypatch.setattr(EffectExtractor, "block_effect", counting)
        EffectExtractor(TypeEnv(proc)).block_effect(proc.body)
        assert sorted(calls) == sorted(bodies)


class TestCalleeWrites:
    """A config write inside an ``if`` or ``for`` of a callee still makes
    the calling loop config-writing."""

    @pytest.mark.parametrize("call", ["cfg_if(i, v)", "cfg_for(v)"])
    def test_exit_state_is_unknown(self, cfg, call):
        f = _procs(_caller(call), cfg)["f"].ir()
        _facts, state, _tenv = state_before(f, _last_path(f))
        a = state.get(cfg.sym("a"))
        assert a != S.IntC(1) and isinstance(a, S.Var)
        assert a.sym is not cfg.sym("a")

    def test_definite_callee_write_survives_loop(self, cfg):
        src = """
@instr("cfg_both({n});")
def cfg_both(n: index, v: f32 @ DRAM):
    if n > 2:
        CfgCT.a = 5
    else:
        CfgCT.a = 5
    v = 0.0

@proc
def f(n: size, v: f32 @ DRAM):
    CfgCT.a = 1
    for i in seq(0, n):
        cfg_both(i, v)
    v = 1.0
"""
        f = _procs(src, cfg)["f"].ir()
        _facts, state, _tenv = state_before(f, _last_path(f))
        assert state.get(cfg.sym("a")) == S.IntC(5)

    @pytest.mark.parametrize("call", ["cfg_if(i, v)", "cfg_for(v)"])
    def test_configwrite_root_rejected(self, cfg, call):
        # after the loop ``a`` may be 0, so the guarded read of ``b`` is
        # exposed to the polluting root write
        f = _procs(_caller(call), cfg)["f"]
        with pytest.raises(SchedulingError, match="polluted config"):
            f.configwrite_root(cfg, "b", "2")

    def test_configwrite_root_accepted_without_callee_write(self, cfg):
        # the same shape with a config-transparent callee: ``a`` stays 1,
        # the guard is false and the write is accepted
        f = _procs(_caller("cfg_none(i, v)"), cfg)["f"]
        g = f.configwrite_root(cfg, "b", "2")
        assert isinstance(g.ir().body[0], IR.WriteConfig)


class TestStaleness:
    def test_rewrite_that_adds_a_write_is_seen(self, cfg):
        src = """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgCT.b = 7
    for i in seq(0, n):
        x[i] = 0.0
    x[0] = 1.0
"""
        p = _procs(src, cfg)["f"]
        (old_loop,) = _loops(p.ir())
        assert not writes_config(old_loop)
        _facts, state, _tenv = state_before(p.ir(), _last_path(p.ir()))
        assert state.get(cfg.sym("b")) == S.IntC(7)

        q = p.configwrite_at("x[i] = _", cfg, "b", "i")
        (new_loop,) = _loops(q.ir())
        assert new_loop is not old_loop
        assert writes_config(new_loop)
        assert not writes_config(old_loop)
        _facts, state, _tenv = state_before(q.ir(), _last_path(q.ir()))
        b = state.get(cfg.sym("b"))
        assert b != S.IntC(7) and isinstance(b, S.Var)
        ex = EffectExtractor(TypeEnv(q.ir()))
        ex.block_effect(q.ir().body)
        assert ex.state.get(cfg.sym("b")) != S.IntC(7)


class TestHavocOrder:
    """Havoc symbols are minted in config-field id order, not heap order."""

    def test_fields_havoced_in_id_order(self, cfg):
        fields = [cfg.sym(f) for f in "abc"]  # ids ascend a, b, c
        src = """
@proc
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        CfgCT.c = i
        CfgCT.b = i
        CfgCT.a = i
        x[i] = 0.0
    if n > 3:
        CfgCT.c = 1
        CfgCT.b = 1
        CfgCT.a = 1
    x[0] = 1.0
"""
        f = _procs(src, cfg)["f"].ir()

        def havoc_ids(state):
            vals = [state.get(fs) for fs in fields]
            assert all(isinstance(v, S.Var) and v.sym not in fields for v in vals)
            return [v.sym.id for v in vals]

        # loop entry fixpoint, loop exit, and if-merge, in both analyses
        states = [
            state_before(f, path)[1]
            for path in ((("body", 0), ("body", 0)), (("body", 1),), _last_path(f))
        ]
        for n in (1, 2):
            ex = EffectExtractor(TypeEnv(f))
            ex.block_effect(f.body[:n])
            states.append(ex.state)
        for state in states:
            ids = havoc_ids(state)
            assert ids == sorted(ids)
