import random

import pytest

from ezcasp import fd
from ezcasp.asp import Record, RuleP, is_answer_set
from ezcasp.engine import (SchemaConfig, SolveStats, _projection_denial,
                           denial_key, solve_ca)
from ezcasp.ground import ground_program
from ezcasp import oracle

from conftest import (CONDITIONAL_DECLS, ENCODINGS, RIDDLE_EZ,
                      make_conflict_pair)
from ground_gen import random_program


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


def test_declared_range_is_not_clamped_by_the_default_range():
    from ezcasp.cli import emit_clp
    P = ground_program("cspdomain(fd). cspvar(x,-4,4). required(x = -1). "
                       "cspvar(y). cspvar(z). cspvar(z,-9,-3).")
    res = solve_ca(P, SchemaConfig(limit=0, max_alphas_per_model=1))
    assert res.status == "sat"
    assert res.models[0].assignment_dict() == {"x": -1, "y": 0, "z": -9}
    inst = fd.build_csp(P, res.models[0].literals)
    # the default range applies only to a variable without a ranged
    # declaration; the CLP export uses the same ranges
    assert {v: (d.lo, d.hi) for v, d in inst.domains.items()} == {
        "x": (-4, 4), "y": P.domain, "z": (-9, -3)}
    clp = emit_clp(P, res.models[0].literals)
    assert "V_x >= -4, V_x =< 4" in clp and "V_z >= -9, V_z =< -3" in clp


def test_two_active_ranges_intersect():
    P = ground_program("cspdomain(fd). cspvar(x,0,5). cspvar(x,3,9).")
    res = solve_ca(P, SchemaConfig(limit=0))
    assert [m.assignment for m in res.models] == [
        (("x", 3),), (("x", 4),), (("x", 5),)]


def test_reverse_folding_four_points_one_pivot():
    # the chain (0,0) (1,0) (2,0) (3,0) turned clockwise at point 2 puts
    # points 3 and 4 at (1,-1) and (1,-2); no other pivot gives that goal
    text = (ENCODINGS / "rf_toy.ez").read_text()
    for old, new in (("index(3).", "index(3). index(4)."),
                     ("init(3,1,1).", "init(3,2,0). init(4,3,0)."),
                     ("goal(3,2,0).", "goal(3,1,-1). goal(4,1,-2).")):
        assert old in text
        text = text.replace(old, new)
    P = ground_program(text)
    for schema in ("black", "grey", "clear"):
        res = solve_ca(P, SchemaConfig(schema=schema, limit=0))
        assert len(res.models) == 1, schema
        m = res.models[0]
        assert {a for a in m.atoms if a.startswith("pivot")} == \
            {"pivot(1,2,clock)"}
        final = m.assignment_dict()
        assert [(final[f"tfoldx(2,{i})"], final[f"tfoldy(2,{i})"])
                for i in range(1, 5)] == [(0, 0), (1, 0), (1, -1), (1, -2)]


def test_pure_asp_program_runs_without_csp():
    P = ground_program("{a}. b :- a. :- not b.")
    res = solve_ca(P, SchemaConfig(limit=0), collect_trace=True)
    assert _atom_sets(res) == {frozenset({"a", "b"})}
    assert res.stats.csp_checks == res.stats.candidates


def test_one_fd_search_per_model(monkeypatch):
    calls = {"build_csp": 0, "solutions": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fd, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fd, name, counted)
    # twelve evaluations of one answer set come from its feasibility check
    P = ground_program((ENCODINGS / "light.ez").read_text())
    res = solve_ca(P, SchemaConfig(limit=0))
    assert len(res.models) == 12 and len(_atom_sets(res)) == 1
    assert res.stats.csp_checks == 1
    assert calls == {"build_csp": 1, "solutions": 1}
    # 22 answer sets after 2 failed checks: one search per check
    calls.update(build_csp=0, solutions=0)
    P = ground_program((ENCODINGS / "wseq_toy.ez").read_text())
    res = solve_ca(P, SchemaConfig(limit=0))
    assert len(_atom_sets(res)) == len(res.models) == 22
    assert res.stats.csp_checks == 22 + res.stats.learned
    assert calls == {"build_csp": res.stats.csp_checks,
                     "solutions": res.stats.csp_checks}


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
    ok, why = oracle.validate_trace(res.trace, P)
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
    ok, why = oracle.validate_trace(grey.trace, P)
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
    ok, why = oracle.validate_trace(res.trace, P)
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
        P = random_program(seed)
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


# -- cp-entailed denials ---------------------------------------------------------

def test_cp_entailed_denial_projection(p1):
    lt = p1.pi.index["|x < 12|"]
    geq = p1.pi.index["|x >= 12|"]
    m = [1, 2, -(p1.pi.index["am"] + 1), -(lt + 1), -(geq + 1)]
    inst = fd.build_csp(p1, m, "full")
    assert next(fd.solutions(inst), None) is None
    d = _projection_denial(inst.projection, "full")
    assert d.pos == () and set(d.neg) == {lt, geq}
    # the denial is entailed: every answer set satisfies it
    assert oracle.is_entailed_denial(p1, d, "full")
    # and each single branch is feasible, so the full projection is needed
    for lit in (geq, lt):
        branch = fd.build_csp(p1, [-(lit + 1)], "full")
        assert next(fd.solutions(branch), None) is not None


def test_p2_denial_not_pm_is_cp_entailed(p2):
    pm = p2.pi.index["pm"]
    d = RuleP(None, (), (pm,), ())
    assert oracle.is_entailed_denial(p2, d, "full")
    masks = oracle.abstraction_answer_sets(p2)
    assert any(not (x >> pm) & 1 for x in masks)   # cp-, not asp-entailed


def _projection_edges(P, trace):
    """Replay `trace` on P; for each CPPropagate edge, its projection, M's
    constraint literals, then the atoms of its active ranged declarations,
    then the negative literals of the false ranged declarations of each
    variable without an active one, each in declaration order, and the
    edge that follows."""
    index = P.pi.index

    def lit(s):
        return -(index[s[1:]] + 1) if s.startswith("-") else index[s] + 1

    out = []
    for k, rec in enumerate(trace):
        rule = rec.get("rule")
        if rec.get("event") == "start":
            m = Record(P.pi.n_atoms)
        elif rule == "Decide":
            m.append(lit(rec["payload"]["lit"]), decided=True)
        elif rule in ("UnitPropagate", "Unfounded"):
            m.append(lit(rec["payload"]["lit"]))
        elif rule == "Backtrack":
            m.backjump_last_decision()
        elif rule in ("Restart", "RestartT"):
            m.clear()
        elif rule == "CPPropagate":
            held = set(m.literals())
            expected = [x for c in P.constraint_order
                        for x in (c + 1, -(c + 1)) if x in held]
            expected += [d.atom + 1 for d in P.var_decls
                         if d.atom is not None and d.lo is not None
                         and d.atom + 1 in held]
            active = {d.var for d in P.var_decls if d.lo is not None
                      and (d.atom is None or d.atom + 1 in held)}
            expected += [-(d.atom + 1) for d in P.var_decls
                         if d.lo is not None and d.var not in active
                         and -(d.atom + 1) in held]
            out.append(([lit(s) for s in rec["payload"]["projection"]],
                        expected, trace[k + 1]))
            m.append_bot()
    return out


def test_projection_is_the_constraint_literals_of_m():
    programs = [ground_program(p.read_text())
                for p in sorted(ENCODINGS.glob("*.ez"))]
    programs += [random_program(seed) for seed in range(60)]
    programs += [ground_program(src, (0, 9)) for src in CONDITIONAL_DECLS]
    # per semantics: projections with a negative literal, Learn edges
    seen = {"weak": [0, 0], "full": [0, 0]}
    with_decls = weak_negs = 0
    for P in programs:
        index = P.pi.index

        def names_of(lits):
            return [("-" if x < 0 else "") + P.pi.names[abs(x) - 1]
                    for x in lits]
        for schema in ("black", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1),
                               collect_trace=True)
                for got, expected, nxt in _projection_edges(P, res.trace):
                    assert got == expected
                    seen[sem][0] += any(x < 0 for x in expected)
                    with_decls += any(x - 1 not in P.constraint_set
                                      for x in expected)
                    if nxt.get("rule") != "Learn":
                        continue
                    # the learned denial blocks exactly the core, which keeps
                    # every declaration literal of the projection and its
                    # negative constraint literals only under full semantics
                    reason = nxt["payload"]["reason"]
                    assert reason["projection"] == names_of(expected)
                    core = [x for x in expected
                            if names_of([x])[0] in reason["core"]]
                    assert names_of(core) == reason["core"]
                    cons = [x for x in core if abs(x) - 1 in P.constraint_set]
                    assert [x for x in core if x not in cons] == \
                        [x for x in expected
                         if abs(x) - 1 not in P.constraint_set]
                    assert sem == "full" or all(x > 0 for x in cons)
                    d = nxt["payload"]["denial"]
                    assert [index[a] + 1 for a in d["pos"]] == \
                        [x for x in core if x > 0]
                    assert [-(index[a] + 1) for a in d["neg"]] == \
                        [x for x in core if x < 0]
                    seen[sem][1] += 1
                    weak_negs += sem == "weak" and bool(d["neg"])
    assert all(a > 0 and b > 0 for a, b in seen.values()), seen
    assert with_decls > 0 and weak_negs > 0


# -- enumeration -----------------------------------------------------------------

def test_enumeration_via_blocking_denials(night):
    res = solve_ca(night, SchemaConfig(semantics="weak", limit=0,
                                       max_alphas_per_model=1),
                   collect_trace=True)
    assert len(res.models) == 4
    assert res.stats.runs == 5          # 4 models + the exhausting run
    starts = [r for r in res.trace if r.get("event") == "start"]
    assert [len(s["blocking"]) for s in starts] == [0, 1, 2, 3, 4]
    ok, why = oracle.validate_trace(res.trace, night)
    assert ok, why


@pytest.mark.parametrize("semantics", ["weak", "full"])
@pytest.mark.parametrize("schema", ["black", "grey", "clear"])
def test_enumeration_learns_no_denial_twice(schema, semantics):
    # Gamma is kept from run to run, so no run learns a denial again
    P = ground_program((ENCODINGS / "wseq_toy.ez").read_text())
    cfg = SchemaConfig(schema=schema, semantics=semantics, limit=0)
    res = solve_ca(P, cfg, collect_trace=True)
    index = P.pi.index
    keys = [denial_key(RuleP(None, tuple(index[a] for a in d["pos"]),
                             tuple(index[a] for a in d["neg"]), ()))
            for d in (r["payload"]["denial"] for r in res.trace
                      if r.get("rule") == "Learn")]
    assert res.stats.runs > 1 and keys
    assert len(set(keys)) == len(keys) == res.stats.learned
    assert res.models == solve_ca(P, cfg).models
    assert oracle.validate_trace(res.trace, P) == (True, None)


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


PIGEONHOLE = ("cspdomain(fd). i(1..6). cspvar(x(I),1,5) :- i(I). "
              "required(all_different([x/1])).")


def test_step_budget_covers_fd_labeling():
    # the edges fit the budget, the labeling that refutes the CSP does not
    P = ground_program(PIGEONHOLE)
    res = solve_ca(P, SchemaConfig(step_budget=100))
    assert res.status == "budget"
    assert res.stats.steps <= 35 and res.stats.fd_nodes > 0
    assert res.stats.steps + res.stats.fd_nodes == 101
    res = solve_ca(P, SchemaConfig())
    assert res.status == "unsat"
    assert (res.stats.steps, res.stats.fd_nodes) == (35, 239)
    assert solve_ca(P, SchemaConfig(step_budget=274)).status == "unsat"
    assert solve_ca(P, SchemaConfig(step_budget=273)).status == "budget"


def _budget_sweep(P, schema, sample=None):
    """Every budget below the edges plus fd nodes of the whole solve, or a
    seeded sample of `sample` of them, runs out at exactly one past it;
    that total is the first budget that completes, with the unbudgeted
    answer."""
    def solve(budget):
        return solve_ca(P, SchemaConfig(schema=schema, limit=0,
                                        max_alphas_per_model=1,
                                        step_budget=budget))

    full = solve(None)
    total = full.stats.steps + full.stats.fd_nodes
    budgets = range(1, total) if sample is None else \
        sorted(random.Random(7).sample(range(1, total), sample))
    for budget in budgets:
        res = solve(budget)
        assert res.status == "budget", (schema, budget)
        assert res.stats.steps + res.stats.fd_nodes == budget + 1, \
            (schema, budget)
    res = solve(total)
    assert (res.status, res.models) == (full.status, full.models)


@pytest.mark.parametrize("schema", ["black", "grey", "clear"])
def test_step_budget_is_exact_at_every_value(schema):
    _budget_sweep(ground_program(RIDDLE_EZ), schema)


@pytest.mark.parametrize("schema", ["black", "grey", "clear"])
def test_step_budget_is_exact_on_a_sample(schema):
    # a full sweep would cost about total**2 / 2 edges
    _budget_sweep(ground_program((ENCODINGS / "rf_toy.ez").read_text()),
                  schema, sample=50)


def test_learned_cores_are_infeasible_and_irreducible(monkeypatch):
    # the oracle finds each learned core's csp-abstraction infeasible, and
    # without any one of its constraint literals the constraints that the
    # others post are not refuted by one propagate call on the domains of
    # the checked instance
    from ezcasp import engine
    cores = []
    core = engine._Run._core

    def recorded(run):
        c = core(run)
        cores.append((run.program, run.cfg.semantics, run.inst, c))
        return c

    monkeypatch.setattr(engine._Run, "_core", recorded)
    for seed in range(40):
        P = random_program(seed)
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                         limit=0, max_alphas_per_model=1))
    shrunk = {"weak": 0, "full": 0}
    for P, sem, inst, c in cores:
        assert not oracle._feasibility(P, c, sem)
        posted = [inst.posts[x] for x in c if x in inst.posts]
        for i in range(len(posted)):
            assert not fd.refuted(inst, posted[:i] + posted[i + 1:])
        shrunk[sem] += len(posted) < len(inst.posts)
    assert all(shrunk.values()), shrunk


@pytest.mark.parametrize("source, fd_nodes, core", [
    # the root propagates and the leaf fails (x / y is undefined at y = 0):
    # no subset of the constraints is refuted by one call, so none is tested
    ("cspdomain(fd). cspvar(x,2,2). cspvar(y,0,0). {a}. "
     "required(x / y = 1) :- a. required(x >= 1) :- a. :- not a.", 1,
     ["|x / y = 1|", "|x >= 1|", "cspvar(x,2,2)", "cspvar(y,0,0)"]),
    # the declarations leave x no value: the core needs no constraint
    ("cspdomain(fd). cspvar(x,0,3). cspvar(x,5,9) :- a. {a}. {b}. "
     "required(x >= 0) :- b. :- not a. :- not b.", 1,
     ["cspvar(x,0,3)", "cspvar(x,5,9)"]),
], ids=["undefined-leaf", "empty-domain"])
@pytest.mark.parametrize("schema", ["black", "clear"])
def test_core_tests_only_a_failed_root_propagation(source, fd_nodes, core,
                                                   schema):
    res = solve_ca(ground_program(source), SchemaConfig(schema=schema),
                   collect_trace=True)
    (learn,) = [r["payload"] for r in res.trace if r.get("rule") == "Learn"]
    assert res.status == "unsat"
    assert (res.stats.fd_nodes, res.stats.core_checks) == (fd_nodes, 0)
    assert learn["reason"]["core"] == learn["denial"]["pos"] == core
    assert learn["denial"]["neg"] == []


def test_fd_nodes_count_the_propagate_calls(monkeypatch):
    calls = []
    propagate = fd.propagate

    def counted(*args):
        calls.append(1)
        return propagate(*args)

    monkeypatch.setattr(fd, "propagate", counted)
    for name in ("rf_toy", "wseq_unsat", "light"):
        P = ground_program((ENCODINGS / f"{name}.ez").read_text())
        for schema in ("black", "clear"):
            calls.clear()
            res = solve_ca(P, SchemaConfig(schema=schema, limit=0))
            assert res.stats.fd_nodes == len(calls) > 0, (name, schema)


# -- counters ----------------------------------------------------------------------

# (encoding, schema, status, models, SolveStats fields in order: decisions,
# propagations, csp_checks, learned, restarts, steps, runs, candidates,
# fd_nodes, core_checks) for
# every bundled encoding with limit=0 and max_alphas_per_model=1; a change
# that should not alter the search must leave every figure as it is
PINNED_COUNTERS = [
    ("is_toy", "black", "sat", 1, (0, 121, 1, 0, 0, 122, 2, 1, 7, 0)),
    ("is_toy", "grey", "sat", 1, (0, 121, 1, 0, 0, 122, 2, 1, 7, 0)),
    ("is_toy", "clear", "sat", 1, (0, 121, 1, 0, 0, 122, 2, 1, 7, 0)),
    ("light", "black", "sat", 1, (4, 22, 1, 0, 0, 30, 2, 1, 2, 0)),
    ("light", "grey", "sat", 1, (4, 22, 1, 0, 0, 30, 2, 1, 2, 0)),
    ("light", "clear", "sat", 1, (4, 22, 3, 0, 0, 30, 2, 1, 6, 0)),
    ("rf_toy", "black", "sat", 1, (8, 912, 6, 5, 5, 939, 2, 6, 71, 65)),
    ("rf_toy", "grey", "sat", 1, (8, 912, 6, 5, 5, 939, 2, 6, 71, 65)),
    ("rf_toy", "clear", "sat", 1, (6, 404, 7, 5, 0, 426, 2, 6, 72, 65)),
    ("riddle", "black", "sat", 1, (3, 129, 2, 1, 1, 138, 2, 2, 5, 3)),
    ("riddle", "grey", "sat", 1, (3, 129, 2, 1, 1, 138, 2, 2, 5, 3)),
    ("riddle", "clear", "sat", 1, (2, 102, 2, 1, 0, 109, 2, 2, 5, 3)),
    ("smm", "black", "sat", 1, (0, 51, 1, 0, 0, 52, 2, 1, 4, 0)),
    ("smm", "grey", "sat", 1, (0, 51, 1, 0, 0, 52, 2, 1, 4, 0)),
    ("smm", "clear", "sat", 1, (0, 51, 1, 0, 0, 52, 2, 1, 4, 0)),
    ("wseq_toy", "black", "sat", 22,
      (315, 3792, 24, 2, 2, 4377, 23, 24, 30, 6)),
    ("wseq_toy", "grey", "sat", 22,
      (315, 3792, 24, 2, 2, 4377, 23, 24, 30, 6)),
    ("wseq_toy", "clear", "sat", 22,
      (301, 3601, 300, 2, 0, 4161, 23, 24, 731, 6)),
    ("wseq_unsat", "black", "unsat", 0, (44, 803, 9, 9, 9, 899, 1, 9, 36, 27)),
    ("wseq_unsat", "grey", "unsat", 0, (44, 803, 9, 9, 9, 899, 1, 9, 36, 27)),
    ("wseq_unsat", "clear", "unsat", 0,
      (12, 180, 16, 9, 0, 223, 1, 8, 53, 26)),
]


def test_bundled_encodings_counters_are_pinned():
    assert sorted({row[0] for row in PINNED_COUNTERS}) == \
        sorted(f.stem for f in ENCODINGS.glob("*.ez"))
    programs = {}
    for name, schema, status, n_models, counters in PINNED_COUNTERS:
        if name not in programs:
            programs[name] = ground_program(
                (ENCODINGS / f"{name}.ez").read_text())
        res = solve_ca(programs[name], SchemaConfig(
            schema=schema, limit=0, max_alphas_per_model=1))
        assert (res.status, len(res.models), res.stats) == \
            (status, n_models, SolveStats(*counters)), (name, schema)


# -- config validation --------------------------------------------------------------

def test_schema_config_validation():
    with pytest.raises(ValueError):
        SchemaConfig(schema="pink")
    with pytest.raises(ValueError):
        SchemaConfig(semantics="soft")
    with pytest.raises(ValueError):
        SchemaConfig(check_freq=0)


@pytest.mark.parametrize("name", ["limit", "max_alphas_per_model",
                                  "step_budget"])
def test_schema_config_rejects_negative_counts(name):
    SchemaConfig(**{name: 0})
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        SchemaConfig(**{name: -1})


# -- verification properties -------------------------------------------------------

def test_every_model_passes_answer_set_and_feasibility_checks():
    for seed in range(80):
        P = random_program(seed)
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1))
                ab = P.asp_abstraction()
                for m in res.models:
                    assert is_answer_set(ab, m.atoms)
                    inst = fd.build_csp(P, m.literals, sem)
                    assert next(fd.solutions(inst), None) is not None


def test_corpus_with_negative_lower_bounds_matches_the_oracle():
    # lower bounds in -3..2: the solver finds the oracle's answer sets under
    # both semantics, and some of its evaluations take a negative value
    negative = 0
    for seed in range(40):
        P = random_program(seed, min_lo=-3)
        for sem in ("weak", "full"):
            try:
                expected = set(oracle.answer_sets(P, sem))
            except oracle.OracleBoundExceeded:
                continue
            res = solve_ca(P, SchemaConfig(semantics=sem, limit=0,
                                           max_alphas_per_model=1))
            assert _atom_sets(res) == expected, (seed, sem)
            negative += any(v < 0 for m in res.models
                            for _, v in m.assignment)
    assert negative > 0


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
    assert oracle.answer_sets(P, "full") == \
        oracle.answer_sets(extended, "full")


def test_full_answer_sets_project_into_weak():
    for seed in range(50):
        P = random_program(seed)
        full = solve_ca(P, SchemaConfig(semantics="full", limit=0,
                                        max_alphas_per_model=1))
        weak = solve_ca(P, SchemaConfig(semantics="weak", limit=0,
                                        max_alphas_per_model=1))
        assert _atom_sets(full) <= _atom_sets(weak), seed


def _same_with_and_without_trace(P, cfg):
    plain = solve_ca(P, cfg)
    traced = solve_ca(P, cfg, collect_trace=True)
    assert (traced.status, traced.models, traced.stats) == \
        (plain.status, plain.models, plain.stats)
    ok, why = oracle.validate_trace(traced.trace, P)
    assert ok, why


@pytest.mark.parametrize("schema", ["black", "grey", "clear"])
def test_tracing_changes_no_answer_or_counter(schema):
    # tracing appends one Unit Propagate literal per step of the search,
    # without it the search appends them to the fixpoint
    for path in sorted(ENCODINGS.glob("*.ez")):
        _same_with_and_without_trace(
            ground_program(path.read_text()),
            SchemaConfig(schema=schema, limit=0, max_alphas_per_model=1))
    for seed in range(80):
        _same_with_and_without_trace(
            random_program(seed),
            SchemaConfig(schema=schema, semantics=("weak", "full")[seed % 2],
                         limit=0))


def test_all_traces_validate():
    for seed in range(40):
        P = random_program(seed)
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1),
                               collect_trace=True)
                ok, why = oracle.validate_trace(res.trace, P)
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
