import pytest

from ezcasp import fd
from ezcasp.asp import RuleP, is_answer_set
from ezcasp.engine import SchemaConfig, cp_entailed_denial, solve_ca
from ezcasp.ground import ground_program
from ezcasp import oracle

from conftest import ENCODINGS, RIDDLE_EZ, make_conflict_pair


def _rules(trace, run=None):
    return [r["rule"] for r in trace
            if "rule" in r and (run is None or r.get("run") == run)]


def _atom_sets(res):
    return {m.atoms for m in res.models}


# -- paper programs ---------------------------------------------------------------

def test_p1_twelve_extended_answer_sets(p1):
    res = solve_ca(p1, SchemaConfig(schema="black", semantics="full",
                                    limit=0))
    assert res.status == "sat"
    assert len(res.models) == 12
    assert all(m.atoms == frozenset({"switch", "lightOn", "|x >= 12|"})
               for m in res.models)
    values = [m.assignment_dict()["x"] for m in res.models]
    assert values == list(range(12, 24))


def test_window_program_weak_sat_full_unsat(window):
    weak = solve_ca(window, SchemaConfig(semantics="weak", limit=0,
                                         max_alphas_per_model=1))
    full = solve_ca(window, SchemaConfig(semantics="full", limit=0))
    assert weak.status == "sat" and [m.atoms for m in weak.models] == [
        frozenset()]
    assert full.status == "unsat" and full.models == []


def test_riddle_unique_extended_answer_set():
    P = ground_program(RIDDLE_EZ)
    for schema in ("black", "grey", "clear"):
        res = solve_ca(P, SchemaConfig(schema=schema, limit=0))
        assert len(res.models) == 1
        assert res.models[0].assignment_dict() == {
            "age(1)": 12, "age(2)": 9, "age(3)": 6}


def test_pure_asp_program_runs_without_csp():
    P = ground_program("{a}. b :- a. :- not b.")
    res = solve_ca(P, SchemaConfig(limit=0), collect_trace=True)
    assert _atom_sets(res) == {frozenset({"a", "b"})}
    assert res.stats.csp_checks == res.stats.candidates


# -- schema-specific behavior ------------------------------------------------------

def test_black_box_conflict_learns_and_restarts():
    P = make_conflict_pair()
    res = solve_ca(P, SchemaConfig(schema="black", semantics="full", limit=1),
                   collect_trace=True)
    rules = _rules(res.trace)
    i = rules.index("CPPropagate")
    assert rules[i:i + 3] == ["CPPropagate", "Learn", "RestartT"]
    assert "Backtrack" not in rules
    assert res.models and res.models[0].atoms == frozenset(
        {"b", "|x >= 12|"})
    ok, why = oracle.validate_trace(res.trace, P, semantics="full")
    assert ok, why


def test_grey_box_differs_only_in_restart_rule():
    P = make_conflict_pair()
    black = solve_ca(P, SchemaConfig(schema="black", semantics="full",
                                     limit=1), collect_trace=True)
    grey = solve_ca(P, SchemaConfig(schema="grey", semantics="full",
                                    limit=1), collect_trace=True)
    rb, rg = _rules(black.trace), _rules(grey.trace)
    assert ["Restart" if r == "RestartT" else r for r in rb] == rg
    assert "Restart" in rg and "RestartT" not in rg
    ok, why = oracle.validate_trace(grey.trace, P, semantics="full")
    assert ok, why


def test_clear_box_conflict_backtracks_without_restart():
    P = make_conflict_pair()
    res = solve_ca(P, SchemaConfig(schema="clear", semantics="full", limit=1),
                   collect_trace=True)
    rules = _rules(res.trace)
    i = rules.index("CPPropagate")
    assert rules[i:i + 3] == ["CPPropagate", "Learn", "Backtrack"]
    assert "Restart" not in rules and "RestartT" not in rules
    assert res.stats.restarts == 0
    ok, why = oracle.validate_trace(res.trace, P, semantics="full")
    assert ok, why


def test_decide_cp_backtrack_shape_only_under_clear_box():
    # the Fig.-4-style conflict path (Decide, CP-Propagate, Backtrack on a
    # partial record) appears under clear-box; black-box only consults the
    # CSP on complete records and restarts instead
    P = make_conflict_pair()
    clear = solve_ca(P, SchemaConfig(schema="clear", semantics="full",
                                     limit=1), collect_trace=True)
    black = solve_ca(P, SchemaConfig(schema="black", semantics="full",
                                     limit=1), collect_trace=True)
    rc = _rules(clear.trace)
    assert "Backtrack" in rc and "RestartT" not in rc
    rb = _rules(black.trace)
    assert "RestartT" in rb and "Backtrack" not in rb


def test_clear_box_check_freq_none_checks_complete_only():
    P = make_conflict_pair()
    eager = solve_ca(P, SchemaConfig(schema="clear", semantics="full",
                                     limit=1, check_freq=1))
    lazy = solve_ca(P, SchemaConfig(schema="clear", semantics="full",
                                    limit=1, check_freq=None),
                    collect_trace=True)
    assert lazy.stats.csp_checks <= eager.stats.csp_checks
    assert lazy.stats.csp_checks == lazy.stats.candidates
    assert {m.atoms for m in lazy.models} == {m.atoms for m in eager.models}


def test_clear_box_candidates_never_exceed_black():
    for seed in range(60):
        P = oracle.random_program(seed)
        black = solve_ca(P, SchemaConfig(schema="black", limit=0,
                                         max_alphas_per_model=1))
        clear = solve_ca(P, SchemaConfig(schema="clear", limit=0,
                                         max_alphas_per_model=1))
        assert clear.stats.candidates <= black.stats.candidates, seed


def test_grey_keeps_at_least_as_many_denials_as_black_at_each_restart():
    import pathlib
    src = (pathlib.Path(__file__).parent.parent / "src" / "ezcasp"
           / "encodings" / "rf_toy.ez").read_text()
    P = ground_program(src)
    black = solve_ca(P, SchemaConfig(schema="black", limit=1),
                     collect_trace=True)
    grey = solve_ca(P, SchemaConfig(schema="grey", limit=1),
                    collect_trace=True)

    def surviving(trace, restart_rule):
        counts, live = [], 0
        for rec in trace:
            if rec.get("rule") in ("Learn", "LearnT"):
                live += 1
            if rec.get("rule") == restart_rule:
                counts.append(live)
        return counts

    b = surviving(black.trace, "RestartT")
    g = surviving(grey.trace, "Restart")
    assert len(b) == len(g) >= 1
    assert all(x >= y for x, y in zip(g, b))


def test_restart_clears_lambda_only_for_black():
    from ezcasp.engine import _Run, _Trace, SolveStats
    for schema, expect_kept in (("black", 0), ("grey", 1)):
        cfg = SchemaConfig(schema=schema)
        P = make_conflict_pair()
        run = _Run(P, cfg, SolveStats(), _Trace(False, P.pi.names), 0, 10_000)
        run.m.append(1)
        run.lam.append(RuleP(None, (0,), (), ()))
        run.lam_keys.add(((0,), ()))
        run._restart()
        assert len(run.lam) == expect_kept, schema


# -- cp-entailed denials ---------------------------------------------------------

def test_cp_entailed_denial_projection(p1):
    lt = p1.pi.index["|x < 12|"]
    geq = p1.pi.index["|x >= 12|"]
    m = [1, 2, -(p1.pi.index["am"] + 1), -(lt + 1), -(geq + 1)]
    d = cp_entailed_denial(p1, m, "full")
    assert d.pos == () and set(d.neg) == {lt, geq}
    # the denial is entailed: every answer set satisfies it
    assert oracle.is_entailed_denial(p1, d, "full")
    # and each single branch is feasible, so the full projection is needed
    assert fd.feasible(fd.build_csp(p1, [-(geq + 1)], "full"))
    assert fd.feasible(fd.build_csp(p1, [-(lt + 1)], "full"))


def test_cp_entailed_denial_requires_infeasible(p1):
    with pytest.raises(ValueError):
        cp_entailed_denial(p1, [p1.pi.index["|x >= 12|"] + 1], "full")


def test_p2_denial_not_pm_is_cp_entailed(p2):
    pm = p2.pi.index["pm"]
    d = RuleP(None, (), (pm,), ())
    assert oracle.is_entailed_denial(p2, d, "full")
    masks = oracle.abstraction_answer_sets(p2)
    assert any(not (x >> pm) & 1 for x in masks)   # cp-, not asp-entailed


# -- enumeration -----------------------------------------------------------------

def test_enumeration_via_blocking_denials(night):
    res = solve_ca(night, SchemaConfig(semantics="weak", limit=0,
                                       max_alphas_per_model=1),
                   collect_trace=True)
    assert len(res.models) == 4
    assert res.stats.runs == 5          # 4 models + the exhausting run
    starts = [r for r in res.trace if r.get("event") == "start"]
    assert [len(s["blocking"]) for s in starts] == [0, 1, 2, 3, 4]
    ok, why = oracle.validate_trace(res.trace, night, semantics="weak")
    assert ok, why


def test_limit_caps_extended_answer_sets(p1):
    res = solve_ca(p1, SchemaConfig(semantics="full", limit=5))
    assert len(res.models) == 5
    res1 = solve_ca(p1, SchemaConfig(semantics="full", limit=1))
    assert len(res1.models) == 1
    assert res1.models[0].assignment_dict() == {"x": 12}


def test_max_alphas_per_model(p1):
    res = solve_ca(p1, SchemaConfig(semantics="full", limit=0,
                                    max_alphas_per_model=2))
    assert len(res.models) == 2


# -- budget ----------------------------------------------------------------------

def test_step_budget_reported_distinctly(p1):
    res = solve_ca(p1, SchemaConfig(semantics="full", limit=0, step_budget=3))
    assert res.status == "budget"
    assert res.models == []


def test_step_budget_env_override(p1, monkeypatch):
    monkeypatch.setenv("EZCASP_STEP_BUDGET", "3")
    res = solve_ca(p1, SchemaConfig(semantics="full", limit=0))
    assert res.status == "budget"


# -- config validation --------------------------------------------------------------

def test_schema_config_validation():
    with pytest.raises(ValueError):
        SchemaConfig(schema="pink")
    with pytest.raises(ValueError):
        SchemaConfig(semantics="soft")
    with pytest.raises(ValueError):
        SchemaConfig(check_freq=0)


# -- verification properties -------------------------------------------------------

def test_every_model_passes_answer_set_and_feasibility_checks():
    for seed in range(80):
        P = oracle.random_program(seed)
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1))
                ab = P.asp_abstraction()
                for m in res.models:
                    assert is_answer_set(ab, m.atoms)
                    assert fd.feasible(fd.build_csp(P, m.literals, sem))


def test_learned_denials_preserve_answer_sets():
    # Learned cp-denials are entailed, so appending them to the program
    # leaves the answer sets unchanged (checked by oracle enumeration)
    P = make_conflict_pair()
    res = solve_ca(P, SchemaConfig(schema="black", semantics="full", limit=0),
                   collect_trace=True)
    learned = []
    idx = P.pi.index
    for rec in res.trace:
        if rec.get("rule") in ("Learn", "LearnT"):
            d = rec["payload"]["denial"]
            learned.append(RuleP(None, tuple(idx[a] for a in d["pos"]),
                                 tuple(idx[a] for a in d["neg"]), ()))
    assert learned
    extended = P.with_extra_denials(learned)
    assert oracle.enumerate_full_answer_sets(P) == \
        oracle.enumerate_full_answer_sets(extended)


def test_full_answer_sets_project_into_weak():
    for seed in range(50):
        P = oracle.random_program(seed)
        full = solve_ca(P, SchemaConfig(semantics="full", limit=0,
                                        max_alphas_per_model=1))
        weak = solve_ca(P, SchemaConfig(semantics="weak", limit=0,
                                        max_alphas_per_model=1))
        assert _atom_sets(full) <= _atom_sets(weak), seed


def test_all_traces_validate():
    for seed in range(40):
        P = oracle.random_program(seed)
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1),
                               collect_trace=True)
                ok, why = oracle.validate_trace(res.trace, P, semantics=sem)
                assert ok, (seed, schema, sem, why)


def _wseq_four_leaves_tight() -> str:
    """wseq_unsat.ez with four leaves and budget 5: every one of the three
    colored positions costs at least 2, so no sequence fits."""
    text = (ENCODINGS / "wseq_unsat.ez").read_text()
    rules = text[text.index("% Give each leaf"):]
    return """
leaf(l1). leaf(l2). leaf(l3). leaf(l4).
location(0). location(1). location(2). location(3).
leafWeightCardinality(l1,1,2). leafCost(l1,1).
leafWeightCardinality(l2,2,1). leafCost(l2,2).
leafWeightCardinality(l3,1,2). leafCost(l3,1).
leafWeightCardinality(l4,2,1). leafCost(l4,2).
max_total_weight(5).
coloredPos(1). coloredPos(2). coloredPos(3).
""" + rules


def test_tight_wseq_four_leaves_unsat_under_every_schema():
    # a realistic search (thousands of edges, learning and restarts under
    # black and grey, backtracking under clear): every trace validates, and
    # turning the trace off changes neither the counters nor the models
    P = ground_program(_wseq_four_leaves_tight())
    for schema in ("black", "grey", "clear"):
        cfg = SchemaConfig(schema=schema)
        traced = solve_ca(P, cfg, collect_trace=True)
        assert traced.status == "unsat", schema
        assert traced.stats.learned > 0, schema
        ok, why = oracle.validate_trace(traced.trace, P)
        assert ok, (schema, why)
        plain = solve_ca(P, cfg)
        assert plain.trace is None
        assert plain.stats == traced.stats, schema
        assert plain.models == traced.models == []


def test_clear_box_check_frequency_two():
    P = make_conflict_pair()
    k1 = solve_ca(P, SchemaConfig(schema="clear", semantics="full", limit=1,
                                  check_freq=1))
    k2 = solve_ca(P, SchemaConfig(schema="clear", semantics="full", limit=1,
                                  check_freq=2))
    assert {m.atoms for m in k1.models} == {m.atoms for m in k2.models}
    assert k2.stats.csp_checks <= k1.stats.csp_checks


def test_full_semantics_negated_global_raises():
    P = ground_program("cspdomain(fd). cspvar(x,1,2). cspvar(y,1,2). "
                       "{ pick }. "
                       "required(all_different([x,y])) :- pick.")
    # weak semantics never needs complements
    res = solve_ca(P, SchemaConfig(semantics="weak", limit=0,
                                   max_alphas_per_model=1))
    assert res.status == "sat"
    with pytest.raises(fd.ComplementUnsupported):
        solve_ca(P, SchemaConfig(semantics="full", limit=0))
