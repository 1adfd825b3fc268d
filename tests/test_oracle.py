import hashlib

import pytest

from ezcasp import engine, fd
from ezcasp.asp import Record, RuleP, lit_atom
from ezcasp.engine import SchemaConfig, denial_key, solve_ca, state_digest
from ezcasp.ground import ground_program
from ezcasp.lang import parse, pretty_print
from ezcasp import oracle
from ezcasp.oracle import (OracleBoundExceeded, answer_sets,
                           csp_feasible_exhaustive, is_entailed_denial,
                           validate_trace)

from conftest import (CONDITIONAL_DECLS, ENCODINGS, make_conflict_pair,
                      make_night, make_p1, make_p2, make_window)
from ground_gen import random_ez_source, random_program


# -- enumeration ------------------------------------------------------------------

def test_night_program_counts(night):
    weak = answer_sets(night, "weak")
    full = answer_sets(night, "full")
    assert len(weak) == 4 and len(full) == 3
    assert frozenset({"night", "|x < 6|"}) in weak
    assert set(full) == set(weak) - {frozenset({"night", "|x < 6|"})}


def test_window_program(window):
    assert answer_sets(window, "weak") == [frozenset()]
    assert answer_sets(window, "full") == []


def test_p1_unique_full_answer_set(p1):
    assert answer_sets(p1, "full") == [
        frozenset({"lightOn", "switch", "|x >= 12|"})]


def test_p2_unique_full_answer_set(p2):
    assert answer_sets(p2, "full") == [
        frozenset({"lightOn", "pm", "switch", "|x >= 12|"})]


def test_no_constraint_atoms_degenerates_to_answer_sets():
    P = ground_program("{a}. b :- a. :- not b.")
    weak = answer_sets(P, "weak")
    full = answer_sets(P, "full")
    assert weak == full == [frozenset({"a", "b"})]


def test_oracle_bounds(monkeypatch):
    P = ground_program("cspdomain(fd). cspvar(x,0,9). cspvar(y,0,9). "
                       "required(x < y).")
    monkeypatch.setattr(oracle, "ASSIGNMENT_BOUND", 10)
    with pytest.raises(OracleBoundExceeded,
                       match="100 assignments exceed oracle bound 10"):
        answer_sets(P, "weak")
    # past the bound, the validator's feasibility checks use the fd solver
    trace = _engine_trace(P, "weak", limit=0)
    calls = []
    feasible = fd.feasible
    monkeypatch.setattr(fd, "feasible",
                        lambda inst: calls.append(inst) or feasible(inst))
    assert validate_trace(trace, P) == (True, None)
    assert len(calls) == 1
    monkeypatch.undo()
    big = ground_program(" ".join("{a%d}." % i for i in range(17)))
    with pytest.raises(OracleBoundExceeded,
                       match="17 atoms exceeds oracle bound 16"):
        answer_sets(big, "weak")


def test_feasibility_exhaustive_uses_raw_enumeration(p1):
    lt = p1.pi.index["|x < 12|"]
    geq = p1.pi.index["|x >= 12|"]
    assert csp_feasible_exhaustive(p1, [geq + 1], "weak")
    assert not csp_feasible_exhaustive(p1, [geq + 1, lt + 1], "weak")
    assert not csp_feasible_exhaustive(p1, [-(geq + 1), -(lt + 1)], "full")


# -- trace building helpers ----------------------------------------------------------

class TraceBuilder:
    """Construct trace records with consistent state digests by replaying
    the edits alongside the record stream."""

    def __init__(self, program, run=0, blocking=(), semantics="weak"):
        self.program = program
        self.names = program.asp_abstraction().names
        self.index = program.asp_abstraction().index
        self.m = Record(len(self.names))
        self.gamma = []
        self.lam = []
        self.records = [{"run": run, "event": "start",
                         "semantics": semantics, "blocking": list(blocking)}]
        self.run = run

    def _digest(self):
        return state_digest(self.m, self.names,
                            [str(denial_key(d)) for d in self.gamma],
                            [str(denial_key(d)) for d in self.lam])

    def lit(self, s):
        if s.startswith("-"):
            return -(self.index[s[1:]] + 1)
        return self.index[s] + 1

    def lit_str(self, lit):
        return ("-" if lit < 0 else "") + self.names[lit_atom(lit)]

    def edge(self, rule, payload, apply):
        pre = self._digest()
        apply()
        self.records.append({"run": self.run, "rule": rule,
                             "payload": payload, "pre": pre,
                             "post": self._digest()})
        return self

    def decide(self, s):
        lit = self.lit(s)
        return self.edge("Decide", {"lit": s},
                         lambda: self.m.append(lit, decided=True))

    def asp_propagate(self, s):
        lit = self.lit(s)
        return self.edge("AspPropagate", {"lit": s},
                         lambda: self.m.append(lit))

    def unit_propagate(self, s, clause):
        lit = self.lit(s)
        return self.edge("UnitPropagate", {"lit": s, "clause": clause},
                         lambda: self.m.append(lit))

    def unfounded(self, s, atoms):
        lit = self.lit(s)
        return self.edge("Unfounded", {"lit": s, "unfounded": atoms},
                         lambda: self.m.append(lit))

    def cp_propagate(self):
        held = set(self.m.literals())
        projection = [self.lit_str(x) for c in self.program.constraint_order
                      for x in (c + 1, -(c + 1)) if x in held]
        return self.edge("CPPropagate", {"projection": projection},
                         lambda: self.m.append_bot())

    def learn(self, pos=(), neg=(), reason=None, rule="Learn"):
        """A Learn edge, or with rule "LearnT" a Learn_t edge, which adds the
        denial to the temporal store lambda."""
        d = RuleP(None, tuple(self.index[a] for a in pos),
                  tuple(self.index[a] for a in neg), ())
        payload = {"denial": {"pos": list(pos), "neg": list(neg)}}
        if reason is not None:
            payload["reason"] = reason
        store = self.gamma if rule == "Learn" else self.lam
        return self.edge(rule, payload, lambda: store.append(d))

    def backtrack(self, s):
        return self.edge("Backtrack", {"lit": s},
                         lambda: self.m.backjump_last_decision())

    def fail(self):
        return self.edge("Fail", {}, lambda: None)

    def restart(self, rule="Restart"):
        def apply():
            self.m.clear()
            if rule == "RestartT":
                self.lam.clear()
        return self.edge(rule, {}, apply)

    def end(self, status, model=None):
        rec = {"run": self.run, "event": "end", "status": status}
        if model is not None:
            rec["model"] = sorted(model)
        self.records.append(rec)
        return self.records


def test_fig4_sample_path_validates(p1):
    # a classic sample path: semantic propagation of lightOn, switch,
    # -am, -|x<12|; decide -|x>=12|; constraint conflict; backtrack
    tb = TraceBuilder(p1, semantics="full")
    tb.asp_propagate("lightOn")
    tb.asp_propagate("switch")
    tb.asp_propagate("-am")
    tb.asp_propagate("-|x < 12|")
    tb.decide("-|x >= 12|")
    tb.cp_propagate()
    tb.backtrack("|x >= 12|")
    records = tb.end("model", model=["lightOn", "switch", "|x >= 12|"])
    ok, why = validate_trace(records, p1)
    assert ok, why


def test_fig4_wrong_asp_propagation_rejected(p1):
    tb = TraceBuilder(p1, semantics="full")
    tb.asp_propagate("am")          # not entailed: answer sets have -am
    records = tb.end("budget")
    ok, why = validate_trace(records, p1)
    assert not ok and "asp-entailed" in why


def test_empty_trace_validates(p1):
    # only a program with an empty clause is solved without a run
    empty_clause = ground_program("3 { a; b }.")
    assert validate_trace([], empty_clause) == (True, None)
    assert validate_trace([], p1) == (False, "trace has no run")


def test_restart_without_learn_rejected(p1):
    # a non-restart-safe path: propagate then Restart with no
    # preceding Learn edge
    tb = TraceBuilder(p1, semantics="full")
    tb.asp_propagate("lightOn")
    tb.restart()
    records = tb.end("budget")
    ok, why = validate_trace(records, p1)
    assert not ok and "restart-safety" in why


def test_second_restart_sharing_learn_rejected(p1):
    # extends the restart-safe path by a second Restart whose Learn is used up
    tb = TraceBuilder(p1, semantics="full")
    tb.learn(neg=["switch"])
    tb.asp_propagate("lightOn")
    tb.restart()
    tb.asp_propagate("lightOn")
    tb.restart()
    records = tb.end("budget")
    ok, why = validate_trace(records, p1)
    assert not ok and "restart-safety" in why


def _engine_trace(program, semantics="full", schema="black", limit=1):
    res = solve_ca(program, SchemaConfig(schema=schema, semantics=semantics,
                                         limit=limit), collect_trace=True)
    return res.trace


def test_validator_accepts_all_engine_traces_for_paper_programs():
    for prog, sem in [(make_p1(), "full"), (make_p2(), "full"),
                      (make_night(), "weak"), (make_window(), "full"),
                      (make_conflict_pair(), "full")]:
        trace = _engine_trace(prog, sem, limit=0)
        ok, why = validate_trace(trace, prog)
        assert ok, why


@pytest.mark.parametrize("tamper", ["cp-propagate", "learn-reason"])
def test_projection_other_than_ms_is_rejected(tamper):
    # the projection of a CPPropagate payload and of a Learn reason must be
    # M's constraint literals; a rewritten one is rejected even though M's
    # csp-abstraction is infeasible and the learned denial is entailed
    prog = make_conflict_pair()
    trace = _engine_trace(prog)
    assert validate_trace(trace, prog) == (True, None)
    for rec in trace:
        if tamper == "cp-propagate" and rec.get("rule") == "CPPropagate":
            rec["payload"]["projection"] = ["b"]
        if tamper == "learn-reason" and rec.get("rule") == "Learn":
            rec["payload"]["reason"]["projection"] = []
    ok, why = validate_trace(trace, prog)
    assert not ok and "projection is not M's" in why, why


# -- tampered engine traces, one per validator guard ------------------------------

def _first(trace, pred):
    return next(k for k, rec in enumerate(trace) if pred(rec))


def _is(rule):
    return lambda rec: rec.get("rule") == rule


def _end(rec):
    return rec.get("event") == "end"


def _model_end(rec):
    return _end(rec) and rec["status"] == "model"


def _insert_copy(trace, k):
    trace.insert(k + 1, dict(trace[k]))


def _repeat_edge(trace, k):
    # the same edge again, from the state the edge left
    trace.insert(k + 1, dict(trace[k], pre=trace[k]["post"]))


def _drop_neg(trace, k):
    trace[k]["payload"]["denial"]["neg"] = []


def _block_model(trace, k):
    # a blocking denial of the run's own model, in the run's start record
    run = trace[k]["run"]
    start = _first(trace, lambda r: r.get("run") == run
                   and r.get("event") == "start")
    trace[start]["blocking"] = trace[start]["blocking"] + [
        {"pos": trace[k]["model"], "neg": []}]


def _full_semantics(trace, k):
    for rec in trace:
        if rec.get("event") == "start":
            rec["semantics"] = "full"


def _flip(trace, k):
    lit = trace[k]["payload"]["lit"]
    trace[k]["payload"]["lit"] = lit[1:] if lit.startswith("-") else "-" + lit


def _set(key, value):
    def tamper(trace, k):
        trace[k][key] = value
    return tamper


def _as_edge(rule, **payload):
    def tamper(trace, k):
        trace[k].update(rule=rule, payload=dict(trace[k]["payload"],
                                                **payload))
    return tamper


def _failstate_end(rec):
    return _end(rec) and rec["status"] == "failstate"


def _end_model(trace, k):
    # the run ends in a model in the state before edge k
    trace[k] = {"run": trace[k]["run"], "event": "end", "status": "model",
                "model": []}


def _start_of(run):
    return lambda rec: rec.get("event") == "start" and rec.get("run") == run


def _repeat_blocked_atom(trace, k):
    pos = trace[k]["blocking"][0]["pos"]
    pos.append(pos[0])


def _learn_repeating_an_atom(trace, k):
    # the first Learn is entailed and has no reason, so only its repeated
    # atom rejects it; the next Learn's entailment check would read it
    tb = TraceBuilder(make_p1(), semantics="full")
    tb.learn(pos=["am", "am"])
    tb.learn(neg=["switch"])
    trace[:] = tb.end("budget")


def _cut_denials(semantics):
    """An engine that is wrong on purpose: each denial it builds under
    `semantics` keeps only its first literal.  Under the weak semantics of
    these traces, "weak" cuts the learned denials and "full" the blocking
    denials.  The validator does not share the patched function."""
    build = engine._projection_denial

    def cut(projection, sem, *rest):
        d = build(projection, sem, *rest)
        if sem != semantics:
            return d
        return RuleP(None, d.pos[:1], () if d.pos else d.neg[:1], ())

    return lambda monkeypatch: monkeypatch.setattr(
        engine, "_projection_denial", cut)


def _short_core(monkeypatch):
    """An engine that is wrong on purpose: each core it learns leaves out
    its first constraint literal, so its csp-abstraction can be feasible,
    and its denial is that core's."""
    core = engine._Run._core

    def short(run):
        c = core(run)
        cons = [x for x in c if abs(x) - 1 in run.program.constraint_set]
        return tuple(x for x in c if x != cons[0])

    monkeypatch.setattr(engine._Run, "_core", short)


def _repeat_core_literal(trace, k):
    core = trace[k]["payload"]["reason"]["core"]
    core.append(core[0])


_TAMPERS = [
    ("light", _is("UnitPropagate"), _set("pre", "0" * 12),
     "pre-state digest mismatch"),
    ("light", _is("UnitPropagate"), _set("post", "0" * 12),
     "post-state digest mismatch"),
    ("conditional", _is("Learn"), _drop_neg, "learned denial not entailed"),
    ("light", _is("Fail"), _insert_copy, "edge after Failstate"),
    ("light", _end, lambda t, k: t.pop(k), "run has no end record"),
    ("light", _model_end, lambda t, k: t[k].update(model=t[k]["model"][1:]),
     "end record model differs from final record"),
    ("light", _is("UnitPropagate"), _set("rule", "Jump"), "unknown rule"),
    ("light", _is("Backtrack"), _flip, "Backtrack flipped wrong literal"),
    ("light", _is("Backtrack"), _set("rule", "Fail"),
     "Fail with decision literals"),
    ("light", _model_end, _block_model, "final record falsifies a clause"),
    ("night", _model_end, _full_semantics,
     "final csp-abstraction infeasible"),
    ("riddle", _is("CPPropagate"), _repeat_edge,
     "CPPropagate on inconsistent record"),
    # light's first Backtrack and its Fail follow an Unfounded edge that
    # makes M inconsistent
    ("light", _is("Backtrack"), _set("rule", "Decide"),
     "Decide on inconsistent record"),
    ("light", _is("Backtrack"), _as_edge("UnitPropagate", clause=[]),
     "UnitPropagate on inconsistent record"),
    ("light", _is("Unfounded"), _repeat_edge,
     "Unfounded on inconsistent record"),
    ("light", _is("Backtrack"),
     _as_edge("AspPropagate", lit="-cspdomain(fd)"),
     "AspPropagate on inconsistent record"),
    ("light", _is("UnitPropagate"), _repeat_edge,
     "literal already in record"),
    ("light", _is("Fail"), _as_edge("Backtrack", lit="switch"),
     "Backtrack without decision"),
    ("light", _is("Decide"), _set("rule", "Fail"),
     "Fail on consistent record"),
    ("light", _is("UnitPropagate"), _set("rule", "Restart"),
     "Restart on empty record"),
    ("light", _model_end, _set("status", "failstate"),
     "failstate end without Fail edge"),
    ("light", _failstate_end, _set("status", "model"),
     "model end after Fail edge"),
    ("light", _end, _set("status", "done"), "unknown end status"),
    ("light", _is("Backtrack"), _end_model,
     "final record inconsistent in a model run"),
    ("riddle", _is("Learn"), lambda t, k: t[k]["payload"].pop("reason"),
     "learned denial has no certificate"),
    ("light", _start_of(1), _repeat_blocked_atom, "denial repeats an atom"),
    ("p1", _end, _learn_repeating_an_atom, "denial repeats an atom"),
    ("riddle", _is("Learn"), _repeat_core_literal,
     "learned core is not within M's projection"),
    # engines that are wrong on purpose (`where` None), above the oracle's
    # atom bound; only the certificates reject them
    ("riddle", None, _cut_denials("weak"),
     "learned denial is not the core's"),
    ("rf_toy", None, _cut_denials("weak"),
     "learned denial is not the core's"),
    ("riddle", None, _short_core, "learned core is feasible"),
    ("wseq_toy", None, _cut_denials("full"),
     "blocking denials are not the earlier models'"),
]


@pytest.mark.parametrize("name,where,tamper,reason", _TAMPERS,
                         ids=[t[3] if t[1] else f"{t[0]}: {t[3]}"
                              for t in _TAMPERS])
def test_tampered_engine_trace_is_rejected(name, where, tamper, reason,
                                           monkeypatch):
    # the conditional-declaration program is small enough for the
    # entailment check; a denial without its declaration not-literal is the
    # unsound one that Learn once learned.  The night program has a weak
    # answer set that is not a full one, which its run reaches without a
    # Learn edge that the full semantics would judge first
    if name == "conditional":
        prog = ground_program(CONDITIONAL_DECLS[2], (0, 9))
    elif name == "night":
        prog = make_night()
    elif name == "p1":
        prog = make_p1()
    else:
        prog = ground_program((ENCODINGS / f"{name}.ez").read_text())
    trace = _engine_trace(prog, "weak", limit=0)
    assert validate_trace(trace, prog) == (True, None)
    if where is None:
        tamper(monkeypatch)
        trace = _engine_trace(prog, "weak", limit=0)
    else:
        tamper(trace, _first(trace, where))
    ok, why = validate_trace(trace, prog)
    assert not ok and reason in why, why


@pytest.mark.parametrize("seed", [4, 26, 43, 49])
def test_learn_entailment_is_checked_up_to_the_oracle_bound(seed,
                                                            monkeypatch):
    # programs of 15 atoms, inside the oracle's bound: each Learn edge is
    # checked for entailment, not only against its certificate
    prog = random_program(seed, n_regular=8, n_rules=10, n_constraint=3)
    assert prog.n_atoms == 15 <= oracle.ATOM_BOUND
    trace = _engine_trace(prog, "weak", limit=0)
    checked = []
    entailed = oracle.is_entailed_denial

    def counted(program, denial, semantics):
        checked.append(denial)
        return entailed(program, denial, semantics)

    monkeypatch.setattr(oracle, "is_entailed_denial", counted)
    assert validate_trace(trace, prog) == (True, None)
    learns = [r for r in trace if r.get("rule") == "Learn"]
    assert learns and len(checked) == len(learns)


@pytest.mark.parametrize("where,tamper,reason", [
    (_is("Decide"), lambda rec: dict(rec, payload={"lit": "nosuchatom"}),
     "step {k}: malformed record: KeyError('nosuchatom')"),
    (_is("Decide"), lambda rec: {k: v for k, v in rec.items() if k != "rule"},
     "step {k}: malformed record: KeyError('rule')"),
    (_is("Decide"), lambda rec: dict(rec, payload={}),
     "step {k}: malformed record: KeyError('lit')"),
    (_is("Decide"), lambda rec: list(rec.values()),
     "step {k}: malformed record: not an object with an integer run"),
    (lambda rec: rec.get("event") == "start",
     lambda rec: dict(rec, blocking=[{"pos": ["nosuchatom"], "neg": []}]),
     "step {k}: malformed record: KeyError('nosuchatom')"),
    (lambda rec: rec.get("event") == "start",
     lambda rec: dict(rec, semantics="strong"),
     "step {k}: unknown semantics 'strong'"),
    (lambda rec: rec.get("event") == "start",
     lambda rec: {k: v for k, v in rec.items() if k != "semantics"},
     "step {k}: run does not begin with a start record that names its "
     "semantics"),
    (lambda rec: rec.get("event") == "start",
     lambda rec: dict(rec, event="begin"),
     "step {k}: run does not begin with a start record that names its "
     "semantics"),
    (_model_end, lambda rec: dict(rec, model=[["lightOn"]]),
     "end record model differs from final record"),
], ids=["unknown atom", "no rule", "no lit", "list", "blocking",
        "semantics", "no semantics", "no start", "model"])
def test_malformed_record_is_rejected(where, tamper, reason):
    prog = ground_program((ENCODINGS / "light.ez").read_text())
    trace = _engine_trace(prog, "weak", limit=0)
    k = _first(trace, where)
    trace[k] = tamper(trace[k])
    assert validate_trace(trace, prog) == (False, reason.format(k=k))


def test_unfounded_true_atom_in_final_record_is_rejected():
    # only a positive loop keeps an unfounded atom true without falsifying
    # a clause, and no bundled program has one
    prog = ground_program("{a}. b :- a. b :- c. c :- b.")
    assert validate_trace(_engine_trace(prog, "weak"), prog) == (True, None)
    trace = TraceBuilder(prog).decide("-a").decide("b") \
        .unit_propagate("c", ["c", "-b"]).end("model", model=["b", "c"])
    ok, why = validate_trace(trace, prog)
    assert not ok and "unfounded atom true in final record" in why, why


def test_cp_conflict_learn_without_cp_propagate_is_rejected():
    # above the oracle's atom bound, the denial of M's projection is sound
    # only once a CPPropagate edge has found M's csp-abstraction infeasible
    prog = ground_program((ENCODINGS / "riddle.ez").read_text())
    c = prog.pi.names[prog.constraint_order[0]]
    trace = TraceBuilder(prog).decide(c).learn(
        pos=[c], reason={"kind": "cp-conflict", "projection": [c]}
    ).end("budget")
    ok, why = validate_trace(trace, prog)
    assert not ok and "cp-conflict Learn without CPPropagate" in why, why


def _asp_propagate_first(trace, prog):
    """trace with an AspPropagate edge before its first edge; returns the
    edge's step."""
    k = _first(trace, lambda rec: "rule" in rec)
    trace.insert(k, {"run": trace[k]["run"], "rule": "AspPropagate",
                     "payload": {"lit": prog.pi.names[0]},
                     "pre": trace[k]["pre"], "post": trace[k]["pre"]})
    return k


def test_asp_propagate_above_the_oracle_bound_is_rejected():
    # entailment is decided by exhaustion, which riddle's 33 atoms exceed
    prog = ground_program((ENCODINGS / "riddle.ez").read_text())
    trace = _engine_trace(prog, "weak", limit=0)
    k = _asp_propagate_first(trace, prog)
    assert validate_trace(trace, prog) == (
        False, f"step {k}: asp entailment not checked: 33 atoms exceeds "
               f"oracle bound 16")


# fd has no complement for a global constraint, which the csp-abstraction
# needs under full semantics once M holds the global's atom false
_NO_COMPLEMENT = ("cspdomain(fd). cspvar(x,0,2). {a}. "
                  "required(sum([x],eq,1)) :- a.")
_NOT_CHECKED = ("csp-abstraction not checked: complement of non-primitive "
                "constraint unsupported: |sum([x],eq,1)|")


def test_final_state_that_needs_a_missing_complement_is_rejected():
    prog = ground_program(_NO_COMPLEMENT)
    trace = _engine_trace(prog, "weak", limit=0)
    assert validate_trace(trace, prog) == (True, None)
    _full_semantics(trace, None)
    ok, why = validate_trace(trace, prog)
    assert not ok and why.startswith(_NOT_CHECKED), why


def test_cp_propagate_that_needs_a_missing_complement_is_rejected():
    prog = ground_program(_NO_COMPLEMENT)
    trace = TraceBuilder(prog, semantics="full") \
        .decide("-|sum([x],eq,1)|").cp_propagate().end("budget")
    ok, why = validate_trace(trace, prog)
    assert not ok and why.startswith("step 2: " + _NOT_CHECKED), why


def test_learn_rests_on_its_certificate_where_entailment_needs_a_complement():
    # the entailment check enumerates answer sets whose global atom is
    # false; it counts as not run, and the cp-conflict certificate decides
    prog = ground_program(_NO_COMPLEMENT + " required(x > 5) :- a.")
    c = ["|sum([x],eq,1)|", "|x > 5|"]
    tb = TraceBuilder(prog, semantics="full").decide(c[0]).decide(c[1]) \
        .cp_propagate()
    trace = tb.learn(pos=c, reason={"kind": "cp-conflict", "projection": c}) \
        .end("budget")
    assert validate_trace(trace, prog) == (True, None)
    trace[-2]["payload"]["reason"]["kind"] = "other"
    assert validate_trace(trace, prog) == (
        False, "step 4: learned denial has no certificate")


def test_temporal_store_justifies_unit_propagation_until_restart_t():
    # a LearnT clause justifies a UnitPropagate edge; RestartT drops it
    # from the clauses and Restart keeps it
    conflict = make_conflict_pair()
    denial = ["|x >= 12|", "|x < 5|"]
    clause = ["-|x >= 12|", "-|x < 5|"]

    def propagate(tb):
        return tb.decide("|x >= 12|").unit_propagate("-|x < 5|", clause) \
            .end("budget")

    tb = TraceBuilder(conflict).learn(pos=denial, rule="LearnT")
    assert tb.lam and not tb.gamma
    assert validate_trace(propagate(tb), conflict) == (True, None)
    for restart, want in [("Restart", (True, None)),
                          ("RestartT", (False, "step 5: clause not in "
                                                  "program"))]:
        tb = TraceBuilder(conflict).learn(pos=denial, rule="LearnT") \
            .decide("b").restart(restart)
        assert validate_trace(propagate(tb), conflict) == want, restart


def test_repeated_temporal_denial_is_not_fresh():
    conflict = make_conflict_pair()
    trace = TraceBuilder(conflict) \
        .learn(pos=["|x >= 12|", "|x < 5|"], rule="LearnT") \
        .learn(pos=["|x >= 12|", "|x < 5|"], rule="LearnT").end("budget")
    assert validate_trace(trace, conflict) == (
        False, "step 2: learned denial not fresh")


# -- the ten-trace hand-mutated negative suite -------------------------------------

def _negative_traces(p1, conflict):
    """Ten invalid traces: guard breaks, restart-safety breaks, and a
    non-semi-terminal finish."""
    traces = []

    # 1. Decide on an already-assigned literal
    tb = TraceBuilder(p1, semantics="full")
    tb.unit_propagate("lightOn", ["lightOn"])
    rec = dict(tb.records[-1])
    tb.records.append({"run": 0, "rule": "Decide", "payload": {"lit": "lightOn"},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("decide-assigned", tb.end("budget")))

    # 2. UnitPropagate with a clause not in the program
    tb = TraceBuilder(p1, semantics="full")
    tb.unit_propagate("am", ["am"])
    traces.append(("up-foreign-clause", tb.end("budget")))

    # 3. UnitPropagate whose clause remainder is not falsified
    tb = TraceBuilder(p1, semantics="full")
    tb.unit_propagate("lightOn", ["lightOn", "-switch", "am"])
    traces.append(("up-remainder-open", tb.end("budget")))

    # 4. Unfounded with a set that is not unfounded
    tb = TraceBuilder(p1, semantics="full")
    tb.unfounded("-switch", ["switch"])
    traces.append(("unfounded-supported", tb.end("budget")))

    # 5. CP-Propagate on a feasible csp-abstraction
    tb = TraceBuilder(p1, semantics="full")
    tb.cp_propagate()
    traces.append(("cp-feasible", tb.end("budget")))

    # 6. Learn a denial that is already present (freshness break)
    tb = TraceBuilder(conflict, semantics="full")
    tb.learn(pos=["|x >= 12|", "|x < 5|"])
    tb.learn(pos=["|x >= 12|", "|x < 5|"])
    traces.append(("learn-stale", tb.end("budget")))

    # 7. Backtrack on a consistent record
    tb = TraceBuilder(p1, semantics="full")
    tb.decide("switch")
    rec = tb.records[-1]
    tb.records.append({"run": 0, "rule": "Backtrack",
                       "payload": {"lit": "-switch"},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("backtrack-consistent", tb.end("budget")))

    # 8. Fail while a decision literal is still open
    tb = TraceBuilder(p1, semantics="full")
    tb.decide("am")
    tb.unit_propagate("-am", ["-am", "-|x >= 12|"])  # foreign but plausible
    rec = tb.records[-1]
    tb.records.append({"run": 0, "rule": "Fail", "payload": {},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("fail-with-decisions", tb.end("failstate")))

    # 9. Restart without a dedicated preceding Learn
    tb = TraceBuilder(p1, semantics="full")
    tb.asp_propagate("lightOn")
    tb.restart()
    traces.append(("restart-unsafe", tb.end("budget")))

    # 10. Completed model run stopping before a semi-terminal state
    tb = TraceBuilder(p1, semantics="full")
    tb.asp_propagate("lightOn")
    traces.append(("non-semi-terminal-stop",
                   tb.end("model", model=["lightOn"])))

    return traces


def test_negative_trace_suite_fully_rejected(p1):
    conflict = make_conflict_pair()
    suite = _negative_traces(p1, conflict)
    assert len(suite) == 10
    for name, records in suite:
        ok, why = validate_trace(records, conflict if name == "learn-stale"
                                 else p1)
        assert not ok, name


# -- random corpus ------------------------------------------------------------------

def test_random_program_deterministic():
    a = random_ez_source(0)
    b = random_ez_source(0)
    assert a == b
    digest = hashlib.sha1(a.encode()).hexdigest()
    # golden guard: frozen after first generation; regenerating seed 0 must
    # never change (9 rules: cspdomain, two cspvar facts, six program rules)
    assert digest == "07a3e056d13d96aff52de7a81c44010b12381901", digest
    P = random_program(0)
    assert len(P.constraint_order) == 1


def test_random_program_size_zero_is_empty():
    src = random_ez_source(0, n_regular=0, n_constraint=0, n_vars=0,
                           n_rules=0)
    P = ground_program(src)
    assert answer_sets(P, "weak") == [frozenset({"cspdomain(fd)"})]


def test_random_sources_parse_round_trip():
    for seed in range(1000):
        src = random_ez_source(seed)
        p = parse(src)
        assert parse(pretty_print(p)) == p, seed


def test_random_programs_reground_equivalently():
    # a random program rendered to text and reground yields the same answer
    # sets (ties the generator, parser, grounder and oracle together)
    for seed in range(30):
        src = random_ez_source(seed)
        P = ground_program(src)
        Q = ground_program(pretty_print(parse(src)))
        assert answer_sets(P, "weak") == answer_sets(Q, "weak")


def test_entailment_oracle(p2):
    pm = p2.pi.index["pm"]
    assert is_entailed_denial(p2, RuleP(None, (), (pm,), ()), "full")
    assert not is_entailed_denial(p2, RuleP(None, (pm,), (), ()), "full")


def test_weak_contains_full_projection_on_corpus():
    for seed in range(60):
        P = random_program(seed)
        try:
            weak = set(answer_sets(P, "weak"))
            full = set(answer_sets(P, "full"))
        except OracleBoundExceeded:
            continue
        assert full <= weak, seed
