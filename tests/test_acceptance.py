"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured scale when it completes.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time

import pytest

from ezcasp import fd
from ezcasp.asp import RegularProgram, RuleP, clausify, is_answer_set
from ezcasp.cli import bench, emit_clp
from ezcasp.engine import SchemaConfig, solve_ca
from ezcasp.ground import ground, ground_program, expand_lists
from ezcasp.lang import parse, Const, ListTerm
from ezcasp import oracle

from bruteforce import enumerate_answer_sets, enumerate_csp_solutions
from conftest import (ENCODINGS, LIGHT_EZ, RIDDLE_EZ, make_conflict_pair,
                      make_light_asp, make_night, make_p1, make_window)
from csp_gen import GLOBALS, gen_instance, primitive
from ground_gen import random_program
from test_oracle import _negative_traces


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def _corpus_params(seed):
    """Mixed sizes up to the criterion bounds: <= 10 regular atoms,
    <= 4 constraint atoms, fd domains <= 10 values."""
    if seed % 5 == 4:
        return dict(n_regular=10, n_constraint=4, n_vars=4, n_rules=12,
                    domain_size=9)
    if seed % 5 == 3:
        return dict(n_regular=7, n_constraint=3, n_vars=3, n_rules=9,
                    domain_size=8)
    return dict(n_regular=4, n_constraint=2, n_vars=2, n_rules=6,
                domain_size=6)


def test_criterion_1_paper_examples_exact():
    t0 = time.monotonic()

    # (a) the light-domain regular program has the unique answer set
    light = make_light_asp()
    assert enumerate_answer_sets(light) == [
        frozenset({"lightOn", "switch"})]

    # (b) a <- not not a has answer sets {} and {a}
    nn = RegularProgram.build([("a", [], [], ["a"])])
    assert enumerate_answer_sets(nn) == [frozenset(), frozenset({"a"})]

    # (c) P1 yields M1 and exactly 12 extended answer sets
    p1 = make_p1()
    res = solve_ca(p1, SchemaConfig(semantics="full", limit=0))
    assert len(res.models) == 12
    m1 = frozenset({"switch", "lightOn", "|x >= 12|"})
    assert all(m.atoms == m1 for m in res.models)
    assert [m.assignment_dict()["x"] for m in res.models] == \
        list(range(12, 24))

    # (d) the night/am program: 3 full vs 4 weak answer sets
    night = make_night()
    weak = oracle.answer_sets(night, "weak")
    full = oracle.answer_sets(night, "full")
    assert len(weak) == 4 and len(full) == 3
    assert frozenset({"night", "|x < 6|"}) in weak
    assert frozenset({"night", "|x < 6|"}) not in full

    # (e) the two-denial window program: weak-SAT with {}, full-UNSAT
    window = make_window()
    rw = solve_ca(window, SchemaConfig(semantics="weak", limit=0,
                                       max_alphas_per_model=1))
    rf_ = solve_ca(window, SchemaConfig(semantics="full", limit=0))
    assert rw.status == "sat" and [m.atoms for m in rw.models] == [
        frozenset()]
    assert rf_.status == "unsat"

    # (f) the brothers riddle: unique extended answer set, ages 12/9/6
    riddle = ground_program(RIDDLE_EZ)
    rr = solve_ca(riddle, SchemaConfig(limit=0))
    assert len(rr.models) == 1
    assert rr.models[0].assignment_dict() == {"age(1)": 12, "age(2)": 9,
                                              "age(3)": 6}
    assert "num_brothers(3)" in rr.models[0].atoms

    dt = time.monotonic() - t0
    assert dt < 5
    _report(1, f"six paper examples exact in {dt:.2f}s")


CORPUS_SIZE = 500


def test_criterion_2_schema_equivalence():
    t0 = time.monotonic()
    disagreements = 0
    for seed in range(CORPUS_SIZE):
        P = random_program(seed, **_corpus_params(seed))
        ab = P.asp_abstraction()
        for sem in ("weak", "full"):
            outcomes = {}
            for schema in ("black", "grey", "clear"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1))
                outcomes[schema] = (res.status,
                                    frozenset(m.atoms for m in res.models))
                for m in res.models:
                    assert is_answer_set(ab, m.atoms), (seed, sem, schema)
                    inst = fd.build_csp(P, m.literals, sem)
                    assert next(fd.solutions(inst), None) is not None, \
                        (seed, sem, schema)
            if len(set(outcomes.values())) != 1:
                disagreements += 1
    dt = time.monotonic() - t0
    assert disagreements == 0
    assert dt < 120
    _report(2, f"{CORPUS_SIZE} programs x 3 schemas x 2 semantics, "
               f"0 disagreements, {dt:.1f}s")


def test_criterion_3_oracle_equivalence():
    checked = 0
    mismatches = 0
    for seed in range(CORPUS_SIZE):
        P = random_program(seed, **_corpus_params(seed))
        try:
            expected = {
                "weak": set(oracle.answer_sets(P, "weak")),
                "full": set(oracle.answer_sets(P, "full")),
            }
        except oracle.OracleBoundExceeded:
            continue
        checked += 1
        for sem in ("weak", "full"):
            res = solve_ca(P, SchemaConfig(semantics=sem, limit=0,
                                           max_alphas_per_model=1))
            got = {m.atoms for m in res.models}
            if got != expected[sem]:
                mismatches += 1
    assert mismatches == 0
    assert checked >= CORPUS_SIZE // 2, "corpus mostly out of oracle bounds"
    _report(3, f"{checked}/{CORPUS_SIZE} corpus programs within oracle "
               f"bounds, both semantics, 0 mismatches")


def test_criterion_4_trace_validity():
    total = 0
    for seed in range(100):
        P = random_program(seed, **_corpus_params(seed))
        for schema in ("black", "grey", "clear"):
            for sem in ("weak", "full"):
                res = solve_ca(P, SchemaConfig(schema=schema, semantics=sem,
                                               limit=0,
                                               max_alphas_per_model=1),
                               collect_trace=True)
                ok, why = oracle.validate_trace(res.trace, P)
                assert ok, (seed, schema, sem, why)
                total += 1
    # paper programs too
    for prog, sem in [(make_p1(), "full"), (make_night(), "weak"),
                      (make_window(), "full"),
                      (ground_program(LIGHT_EZ), "weak"),
                      (ground_program(RIDDLE_EZ), "weak")]:
        for schema in ("black", "grey", "clear"):
            res = solve_ca(prog, SchemaConfig(schema=schema, semantics=sem,
                                              limit=0,
                                              max_alphas_per_model=1),
                           collect_trace=True)
            ok, why = oracle.validate_trace(res.trace, prog)
            assert ok, (schema, sem, why)
            total += 1
    # the ten-trace hand-mutated negative suite is fully rejected
    p1 = make_p1()
    conflict = make_conflict_pair()
    rejected = 0
    suite = _negative_traces(p1, conflict)
    assert len(suite) == 10
    for name, records in suite:
        ok, _ = oracle.validate_trace(
            records, conflict if name == "learn-stale" else p1)
        if not ok:
            rejected += 1
    assert rejected == 10
    _report(4, f"{total} emitted traces all valid; 10/10 mutated traces "
               f"rejected")


def _random_regular(rng, n_atoms, n_rules):
    names = [f"a{i}" for i in range(n_atoms)]
    rules = []
    for _ in range(n_rules):
        head = rng.randrange(n_atoms) if rng.random() < 0.85 else None
        pool = list(range(n_atoms))
        rng.shuffle(pool)
        pos = tuple(pool[:rng.randrange(0, 3)])
        neg = tuple(pool[3:3 + rng.randrange(0, 2)])
        nn = tuple(pool[5:5 + rng.randrange(0, 2)])
        rules.append(RuleP(head, pos, neg, nn))
    return RegularProgram(names, rules)


def test_criterion_5_unfounded_and_reduct_correctness():
    # unfounded-set characterization, exhaustively on programs up to 12 atoms:
    # M+ is an answer set iff M is a model and M+ contains no non-empty
    # unfounded subset
    rng = random.Random(2024)
    sizes = [4, 6, 8, 10, 12, 12, 12]
    for n in sizes:
        prog = _random_regular(rng, n, n + 3)
        masks = prog.rule_masks()
        clauses = clausify(prog)
        for x in range(1 << n):
            # live (non-contradicted) bodies per atom under M(x)
            live = {}
            ok_model = True
            for (hm, pm, nm, nn), clause in zip(masks, clauses):
                sat = any((l > 0) == bool((x >> (abs(l) - 1)) & 1)
                          for l in clause)
                if not sat:
                    ok_model = False
                contradicted = (pm & ~x) or (nm & x) or (nn & ~x)
                if hm and not contradicted:
                    live.setdefault(hm.bit_length() - 1, []).append(pm)
            # exhaustive submask search for a non-empty unfounded U <= M+
            found = False
            sub = x
            while sub:
                unfounded = True
                s = sub
                while s and unfounded:
                    a = (s & -s).bit_length() - 1
                    s &= s - 1
                    for pm in live.get(a, []):
                        if not (pm & sub):
                            unfounded = False
                            break
                if unfounded:
                    found = True
                    break
                sub = (sub - 1) & x
            lhs = is_answer_set(prog, prog.atom_set(x))
            rhs = ok_model and not found
            assert lhs == rhs, (n, x)

    # denial-addition biconditional on (Pi, Gamma, M) triples up to 10 atoms
    rng = random.Random(7)
    triples = 0
    for _ in range(25):
        n = rng.randint(3, 10)
        prog = _random_regular(rng, n, n + 2)
        denials = []
        for _ in range(rng.randint(1, 3)):
            pool = list(range(n))
            rng.shuffle(pool)
            denials.append(RuleP(None, tuple(pool[:rng.randrange(0, 2)]),
                                 tuple(pool[2:2 + rng.randrange(0, 2)]), ()))
        extended = prog.extended(denials)
        d_clauses = clausify(RegularProgram(prog.names, denials))
        for x in range(1 << n):
            lhs = is_answer_set(extended, prog.atom_set(x))
            m_models_gamma = all(
                any((l > 0) == bool((x >> (abs(l) - 1)) & 1) for l in c)
                for c in d_clauses)
            rhs = is_answer_set(prog, prog.atom_set(x)) and m_models_gamma
            assert lhs == rhs, (n, x)
            triples += 1
    _report(5, f"unfounded-set characterization on {len(sizes)} programs "
               f"up to 12 atoms; denial-addition biconditional on {triples} "
               f"(program, denials, M) checks")


def test_criterion_6_fd_solver():
    # enumerate-mode equals exhaustive checking, every global >= 50 times
    per_global = 50
    total = 0
    for which in GLOBALS:
        for k in range(per_global):
            inst = gen_instance(20_000 + 1000 * GLOBALS.index(which) + k,
                                force_global=which)
            sols = list(fd.solutions(inst))
            expected = enumerate_csp_solutions(inst)
            assert {tuple(sorted(s.items())) for s in sols} == \
                {tuple(sorted(s.items())) for s in expected}, (which, k)
            total += 1

    # complement xor property on 1e5 sampled evaluations
    rng = random.Random(99)
    names = ["x", "y", "z"]
    checks = 0
    templates = [primitive(rng, names) for _ in range(200)]
    while checks < 100_000:
        c = templates[checks % len(templates)]
        cc = fd.complement(c)
        e = {n: rng.randint(-10, 10) for n in names}
        assert fd.satisfied(c, e) != fd.satisfied(cc, e)
        checks += 1

    # Send+More=Money in under 5 seconds
    t0 = time.monotonic()
    P = ground_program((ENCODINGS / "smm.ez").read_text())
    res = solve_ca(P, SchemaConfig(limit=0))
    dt = time.monotonic() - t0
    assert dt < 5
    assert len(res.models) == 1
    expected = {"v(s)": 9, "v(e)": 5, "v(n)": 6, "v(d)": 7,
                "v(m)": 1, "v(o)": 0, "v(r)": 8, "v(y)": 2}
    assert res.models[0].assignment_dict() == expected
    _report(6, f"{total} random instances ({per_global} per global) equal "
               f"exhaustion; {checks} complement-xor samples; "
               f"Send+More=Money unique in {dt:.2f}s")


def test_criterion_7_appendix_fidelity():
    # lambda_v: [w(a)/2] over {v(1),v(2),v(3),w(a,1),w(a,2),w(b,1)}
    decls_src = ("cspdomain(fd). "
                 "cspvar(v(1),0,9). cspvar(v(2),0,9). cspvar(v(3),0,9). "
                 "cspvar(w(a,1),0,9). cspvar(w(a,2),0,9). cspvar(w(b,1),0,9). "
                 "required(all_different([w(a)/2])). "
                 "required(sum([v/1], =<, 9)).")
    P = ground_program(decls_src)
    by_name = {P.pi.names[cid]: P.gamma[cid] for cid in P.constraint_order}
    wa = by_name["|all_different([w(a,1),w(a,2)])|"]
    assert wa.args[0] == (fd.VarRef("w(a,1)"), fd.VarRef("w(a,2)"))
    vs = by_name["|sum([v(1),v(2),v(3)],leq,9)|"]
    assert vs.args[0] == (fd.VarRef("v(1)"), fd.VarRef("v(2)"),
                          fd.VarRef("v(3)"))

    # lambda_r: [rpp/2] over facts rpp(a,3), rpp(b,1), rpp(c,2) -> [3,1,2]
    prog = parse(
        "rpp(a,3). rpp(b,1). rpp(c,2). required(sum([rpp/2], =<, 9)).")
    out, _ = expand_lists(ground(prog), [])
    assert out.rules[-1].head.args[0].args[0] == ListTerm(
        (Const(3), Const(1), Const(2)))

    # lambda_r with prefix: [rp(a,2)/3] over rp(a,1,3), rp(a,2,1), rp(b,5,7)
    prog2 = parse(
        "rp(a,1,3). rp(a,2,1). rp(b,5,7). "
        "required(sum([rp(a,2)/3], =<, 9)). "
        "required(sum([rp(a)/3], =<, 9)).")
    out2, _ = expand_lists(ground(prog2), [])
    assert out2.rules[-2].head.args[0].args[0] == ListTerm((Const(1),))
    assert out2.rules[-1].head.args[0].args[0] == ListTerm(
        (Const(3), Const(1)))

    # CLP export reproduces the solve/1 clause modulo whitespace
    light = ground_program(LIGHT_EZ)
    res = solve_ca(light, SchemaConfig(limit=1))
    clause = " ".join(emit_clp(light, res.models[0].literals).split())
    assert clause == ("solve([x,V_x]) :- V_x >= 0, V_x =< 23, V_x >= 12, "
                      "labeling([V_x]).")
    _report(7, "lambda_v/lambda_r worked examples bit-exact; CLP solve/1 "
               "clause reproduced")


def _wseq_postcheck(model, alpha):
    weights = {"l1": (2, 1), "l2": (3, 1), "l3": (1, 2)}
    leaf_cost = {"l1": 2, "l2": 1, "l3": 3}
    pos = {}
    green = set()
    for a in model:
        if a.startswith("leafPos("):
            leaf, p = a[8:-1].split(",")
            pos[int(p)] = leaf
        if a.startswith("posColor(") and a.endswith(",green)"):
            green.add(int(a[9:-7]))
    assert sorted(pos) == [0, 1, 2]
    total = 0
    for p in (1, 2):
        leaf = pos[p]
        if p in green:
            w, c = weights[leaf]
            cost = w + c
        else:
            cost = weights[pos[p - 1]][0] + leaf_cost[leaf]
        assert alpha[f"posCost({p})"] == cost
        total += cost
    assert total <= 9
    return total


def _is_postcheck(model, alpha):
    lens = {"j1": 2, "j2": 2, "j3": 1}
    imps = {"j1": 2, "j2": 1, "j3": 3}
    deadlines = {"j1": 2, "j2": 4, "j3": 1}
    jobs = list(lens)
    # no overlap on the same instance
    for a, b in itertools.combinations(jobs, 2):
        if alpha[f"on_instance({a})"] == alpha[f"on_instance({b})"]:
            sa, sb = alpha[f"st(d1,{a})"], alpha[f"st(d1,{b})"]
            assert sa + lens[a] <= sb or sb + lens[b] <= sa
    # penalties are td * importance and within the budget
    total = 0
    for j in jobs:
        end = alpha[f"st(d1,{j})"] + lens[j]
        td = max(0, end - deadlines[j])
        assert alpha[f"penalty({j})"] == td * imps[j]
        total += td * imps[j]
    assert alpha["tot_penalty"] == total and total <= 3
    return total


def _rf_postcheck(model, alpha):
    init = {1: (0, 0), 2: (1, 0), 3: (1, 1)}
    goal = {1: (0, 0), 2: (1, 0), 3: (2, 0)}
    pivots = [a for a in model if a.startswith("pivot(")]
    assert len(pivots) == 1                      # exactly t = 1 moves
    _, idx, direction = pivots[0][6:-1].split(",")
    p = int(idx)
    px, py = init[p]
    after = {}
    for i, (x, y) in init.items():
        if i < p:
            after[i] = (x, y)
        elif direction == "clock":
            after[i] = (px + (y - py), py - (x - px))
        else:
            after[i] = (px - (y - py), py + (x - px))
    assert after == goal                          # goal reached in t moves
    assert len(set(after.values())) == 3          # chain never intersects
    for i in init:
        assert alpha[f"tfoldx(2,{i})"] == after[i][0]
        assert alpha[f"tfoldy(2,{i})"] == after[i][1]


def test_criterion_8_desk_benchmarks(capsys):
    t0 = time.monotonic()
    reports = bench(str(ENCODINGS / "desk.bench"))
    capsys.readouterr()
    assert len(reports) == 9
    outcomes = {}
    for r in reports:
        outcomes.setdefault(r.instance.split("/")[-1], set()).add(r.outcome)
    assert all(len(v) == 1 for v in outcomes.values())
    assert all(v == {"SAT(1)"} for v in outcomes.values())

    checks = {"wseq_toy.ez": _wseq_postcheck, "is_toy.ez": _is_postcheck,
              "rf_toy.ez": _rf_postcheck}
    for name, check in checks.items():
        P = ground_program((ENCODINGS / name).read_text())
        for schema in ("black", "grey", "clear"):
            res = solve_ca(P, SchemaConfig(schema=schema, limit=1))
            assert res.status == "sat", (name, schema)
            m = res.models[0]
            check(m.atoms, m.assignment_dict())

    # the tightened-budget variant is UNSAT under every schema
    for schema in ("black", "grey", "clear"):
        P = ground_program((ENCODINGS / "wseq_unsat.ez").read_text())
        res = solve_ca(P, SchemaConfig(schema=schema, limit=1))
        assert res.status == "unsat", schema

    dt = time.monotonic() - t0
    assert dt < 60
    _report(8, f"wseq/is/rf under 3 schemas agree, domain post-checks pass, "
               f"{dt:.1f}s")
