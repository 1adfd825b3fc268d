import hashlib

import pytest

from ezcasp import engine
from ezcasp.asp import Record, RuleP, lit_atom
from ezcasp.engine import SchemaConfig, denial_key, solve_ca, state_digest
from ezcasp.ground import ground_program
from ezcasp.lang import parse, pretty_print
from ezcasp.oracle import (OracleBoundExceeded,
                           csp_feasible_exhaustive, enumerate_full_answer_sets,
                           enumerate_weak_answer_sets, is_entailed_denial,
                           random_ez_source, random_program, validate_trace)

from conftest import (CONDITIONAL_DECLS, ENCODINGS, make_conflict_pair,
                      make_night, make_p1, make_p2, make_window)


# -- enumeration ------------------------------------------------------------------

def test_night_program_counts(night):
    weak = enumerate_weak_answer_sets(night)
    full = enumerate_full_answer_sets(night)
    assert len(weak) == 4 and len(full) == 3
    assert frozenset({"night", "|x < 6|"}) in weak
    assert set(full) == set(weak) - {frozenset({"night", "|x < 6|"})}


def test_window_program(window):
    assert enumerate_weak_answer_sets(window) == [frozenset()]
    assert enumerate_full_answer_sets(window) == []


def test_p1_unique_full_answer_set(p1):
    assert enumerate_full_answer_sets(p1) == [
        frozenset({"lightOn", "switch", "|x >= 12|"})]


def test_p2_unique_full_answer_set(p2):
    assert enumerate_full_answer_sets(p2) == [
        frozenset({"lightOn", "pm", "switch", "|x >= 12|"})]


def test_no_constraint_atoms_degenerates_to_answer_sets():
    P = ground_program("{a}. b :- a. :- not b.")
    weak = enumerate_weak_answer_sets(P)
    full = enumerate_full_answer_sets(P)
    assert weak == full == [frozenset({"a", "b"})]


def test_oracle_bounds():
    P = ground_program("cspdomain(fd). cspvar(x,0,9). cspvar(y,0,9). "
                       "required(x < y).")
    with pytest.raises(OracleBoundExceeded):
        enumerate_weak_answer_sets(P, assignment_bound=10)
    big = ground_program(" ".join("{a%d}." % i for i in range(17)))
    with pytest.raises(OracleBoundExceeded):
        enumerate_weak_answer_sets(big)


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

    def __init__(self, program, run=0, blocking=()):
        self.program = program
        self.names = program.asp_abstraction().names
        self.index = program.asp_abstraction().index
        self.m = Record(len(self.names))
        self.gamma = []
        self.lam = []
        self.records = [{"run": run, "event": "start",
                         "blocking": list(blocking)}]
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

    def learn(self, pos=(), neg=(), reason=None):
        d = RuleP(None, tuple(self.index[a] for a in pos),
                  tuple(self.index[a] for a in neg), ())
        payload = {"denial": {"pos": list(pos), "neg": list(neg)}}
        if reason is not None:
            payload["reason"] = reason
        return self.edge("Learn", payload, lambda: self.gamma.append(d))

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
    tb = TraceBuilder(p1)
    tb.asp_propagate("lightOn")
    tb.asp_propagate("switch")
    tb.asp_propagate("-am")
    tb.asp_propagate("-|x < 12|")
    tb.decide("-|x >= 12|")
    tb.cp_propagate()
    tb.backtrack("|x >= 12|")
    records = tb.end("model", model=["lightOn", "switch", "|x >= 12|"])
    ok, why = validate_trace(records, p1, semantics="full")
    assert ok, why


def test_fig4_wrong_asp_propagation_rejected(p1):
    tb = TraceBuilder(p1)
    tb.asp_propagate("am")          # not entailed: answer sets have -am
    records = tb.end("budget")
    ok, why = validate_trace(records, p1, semantics="full")
    assert not ok and "asp-entailed" in why


def test_empty_trace_validates(p1):
    # only a program with an empty clause is solved without a run
    empty_clause = ground_program("3 { a; b }.")
    assert validate_trace([], empty_clause) == (True, None)
    assert validate_trace([], p1) == (False, "trace has no run")


def test_restart_without_learn_rejected(p1):
    # a non-restart-safe path: propagate then Restart with no
    # preceding Learn edge
    tb = TraceBuilder(p1)
    tb.asp_propagate("lightOn")
    tb.restart()
    records = tb.end("budget")
    ok, why = validate_trace(records, p1, semantics="full")
    assert not ok and "restart-safety" in why


def test_second_restart_sharing_learn_rejected(p1):
    # extends the restart-safe path by a second Restart whose Learn is used up
    tb = TraceBuilder(p1)
    tb.learn(neg=["switch"])
    tb.asp_propagate("lightOn")
    tb.restart()
    tb.asp_propagate("lightOn")
    tb.restart()
    records = tb.end("budget")
    ok, why = validate_trace(records, p1, semantics="full")
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
        ok, why = validate_trace(trace, prog, semantics=sem)
        assert ok, why


@pytest.mark.parametrize("tamper", ["cp-propagate", "learn-reason"])
def test_projection_other_than_ms_is_rejected(tamper):
    # the projection of a CPPropagate payload and of a Learn reason must be
    # M's constraint literals; a rewritten one is rejected even though M's
    # csp-abstraction is infeasible and the learned denial is entailed
    prog = make_conflict_pair()
    trace = _engine_trace(prog)
    assert validate_trace(trace, prog, semantics="full") == (True, None)
    for rec in trace:
        if tamper == "cp-propagate" and rec.get("rule") == "CPPropagate":
            rec["payload"]["projection"] = ["b"]
        if tamper == "learn-reason" and rec.get("rule") == "Learn":
            rec["payload"]["reason"]["projection"] = []
    ok, why = validate_trace(trace, prog, semantics="full")
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
    ("riddle", _is("Learn"), lambda t, k: t[k]["payload"].pop("reason"),
     "learned denial has no certificate"),
    # engines that are wrong on purpose (`where` None), above the oracle's
    # atom bound; only the certificates reject them
    ("riddle", None, _cut_denials("weak"),
     "learned denial is not the projection's"),
    ("rf_toy", None, _cut_denials("weak"),
     "learned denial is not the projection's"),
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


# -- the ten-trace hand-mutated negative suite -------------------------------------

def _negative_traces(p1, conflict):
    """Ten invalid traces: guard breaks, restart-safety breaks, and a
    non-semi-terminal finish."""
    traces = []

    # 1. Decide on an already-assigned literal
    tb = TraceBuilder(p1)
    tb.unit_propagate("lightOn", ["lightOn"])
    rec = dict(tb.records[-1])
    tb.records.append({"run": 0, "rule": "Decide", "payload": {"lit": "lightOn"},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("decide-assigned", tb.end("budget")))

    # 2. UnitPropagate with a clause not in the program
    tb = TraceBuilder(p1)
    tb.unit_propagate("am", ["am"])
    traces.append(("up-foreign-clause", tb.end("budget")))

    # 3. UnitPropagate whose clause remainder is not falsified
    tb = TraceBuilder(p1)
    tb.unit_propagate("lightOn", ["lightOn", "-switch", "am"])
    traces.append(("up-remainder-open", tb.end("budget")))

    # 4. Unfounded with a set that is not unfounded
    tb = TraceBuilder(p1)
    tb.unfounded("-switch", ["switch"])
    traces.append(("unfounded-supported", tb.end("budget")))

    # 5. CP-Propagate on a feasible csp-abstraction
    tb = TraceBuilder(p1)
    tb.cp_propagate()
    traces.append(("cp-feasible", tb.end("budget")))

    # 6. Learn a denial that is already present (freshness break)
    tb = TraceBuilder(conflict)
    tb.learn(pos=["|x >= 12|", "|x < 5|"])
    tb.learn(pos=["|x >= 12|", "|x < 5|"])
    traces.append(("learn-stale", tb.end("budget")))

    # 7. Backtrack on a consistent record
    tb = TraceBuilder(p1)
    tb.decide("switch")
    rec = tb.records[-1]
    tb.records.append({"run": 0, "rule": "Backtrack",
                       "payload": {"lit": "-switch"},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("backtrack-consistent", tb.end("budget")))

    # 8. Fail while a decision literal is still open
    tb = TraceBuilder(p1)
    tb.decide("am")
    tb.unit_propagate("-am", ["-am", "-|x >= 12|"])  # foreign but plausible
    rec = tb.records[-1]
    tb.records.append({"run": 0, "rule": "Fail", "payload": {},
                       "pre": rec["post"], "post": rec["post"]})
    traces.append(("fail-with-decisions", tb.end("failstate")))

    # 9. Restart without a dedicated preceding Learn
    tb = TraceBuilder(p1)
    tb.asp_propagate("lightOn")
    tb.restart()
    traces.append(("restart-unsafe", tb.end("budget")))

    # 10. Completed model run stopping before a semi-terminal state
    tb = TraceBuilder(p1)
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
                                 else p1, semantics="full")
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
    assert enumerate_weak_answer_sets(P) == [frozenset({"cspdomain(fd)"})]


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
        assert enumerate_weak_answer_sets(P) == enumerate_weak_answer_sets(Q)


def test_entailment_oracle(p2):
    pm = p2.pi.index["pm"]
    assert is_entailed_denial(p2, RuleP(None, (), (pm,), ()), "full")
    assert not is_entailed_denial(p2, RuleP(None, (pm,), (), ()), "full")


def test_weak_contains_full_projection_on_corpus():
    for seed in range(60):
        P = random_program(seed)
        try:
            weak = set(enumerate_weak_answer_sets(P))
            full = set(enumerate_full_answer_sets(P))
        except OracleBoundExceeded:
            continue
        assert full <= weak, seed
