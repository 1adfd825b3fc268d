import collections
import gc
import pathlib
import types

import pytest

from ezcasp import fd, oracle
from ezcasp import ground as ground_mod
from ezcasp.asp import RuleP
from ezcasp.ground import (GroundError, GroundProgram, VariableDecl,
                           canon_atom, canon_term, display_atom, display_term,
                           expand_lists, ground, ground_program,
                           ground_stages, term_key)
from ezcasp.engine import SchemaConfig, solve_ca
from ezcasp.lang import (GLOBAL_SIGNATURES, Atom, Choice, ChoiceElem,
                         Compound, Const, EzProgram, EzSyntaxError,
                         IntensionalList, Lit, ListTerm, Rule, parse)
from ezcasp.lang import _subterms as lang_subterms

from bruteforce import (brute_ground, enumerate_answer_sets,
                        library_ground_canon)
from conftest import ENCODINGS, LIGHT_EZ, RIDDLE_EZ, perfbench_gen
from ground_gen import random_nonground_source


def _ground_text(text: str) -> EzProgram:
    return ground(parse(text))


# -- instantiation ---------------------------------------------------------------

def test_riddle_rule_grounds_to_three_rules():
    g = _ground_text("""
        index(1). index(2). index(3).
        youngest_brother(2) :- not some.
        some.
        cspdomain(fd).
        cspvar(age(B),1,80) :- index(B).
        required(age(BY) >= 6) :- index(BY), youngest_brother(BY).
    """)
    req = [r for r in g.rules
           if isinstance(r.head, Atom) and r.head.rel == "required"
           and r.body]
    assert len(req) == 3
    bodies = sorted(canon_atom(r.body[0].atom) for r in req)
    assert bodies == ["index(1)", "index(2)", "index(3)"]
    # instances keep their bodies intact (no fact simplification)
    for r in req:
        assert [b.kind for b in r.body] == ["pos", "pos"]


def test_ground_is_fixpoint_on_ground_input():
    src = "a. b :- a, not c. :- b, not a."
    g1 = _ground_text(src)
    g2 = ground(g1)
    assert library_ground_canon(g1) == library_ground_canon(g2)


def test_builtins_evaluated_and_eliminated():
    g = _ground_text("p(1). p(2). q(X,Y) :- p(X), p(Y), X < Y.")
    q = [r for r in g.rules if isinstance(r.head, Atom) and r.head.rel == "q"]
    assert [canon_atom(r.head) for r in q] == ["q(1,2)"]
    assert all(not any(True for b in r.body if not isinstance(b, Lit))
               for b in q for r in q)


def test_equality_binding():
    g = _ground_text("p(1). p(2). q(Y) :- p(X), Y = X + 1.")
    q = sorted(canon_atom(r.head) for r in g.rules
               if isinstance(r.head, Atom) and r.head.rel == "q")
    assert q == ["q(2)", "q(3)"]


def test_range_heads_expand():
    g = _ground_text("length(2). xcoord(-2*N..2*N) :- length(N).")
    xs = {canon_atom(r.head) for r in g.rules
          if isinstance(r.head, Atom) and r.head.rel == "xcoord"}
    assert xs == {f"xcoord({v})" for v in range(-4, 5)}


def test_choice_condition_expansion():
    g = _ground_text("leaf(l1). leaf(l2). location(0). location(1)."
                     "1 { pos(L,N) : location(N) } 1 :- leaf(L).")
    choices = [r for r in g.rules if not isinstance(r.head, (Atom, type(None)))]
    assert len(choices) == 2
    for ch in choices:
        assert ch.head.lower == Const(1) and ch.head.upper == Const(1)
        assert len(ch.head.elems) == 2


def test_unsafe_rule_reports_variable():
    with pytest.raises(GroundError) as e:
        _ground_text("p(1). q(X) :- not p(X).")
    assert "unsafe" in str(e.value) and "X" in str(e.value)


def test_unsafe_head_variable():
    with pytest.raises(GroundError):
        _ground_text("q(X, Y) :- p(X). p(1).")


def test_arithmetic_on_symbolic_term_fails():
    with pytest.raises(GroundError) as e:
        _ground_text("p(a). q(X) :- p(X), X < 3 + foo.")
    assert "non-integer" in str(e.value) or "arith" in str(e.value)


def test_aggregate_over_facts():
    g = _ground_text("w(a,2). w(b,3). ok :- #sum[w(a,2) = 2, w(b,3) = 3] 5.")
    ok = [r for r in g.rules
          if isinstance(r.head, Atom) and r.head.rel == "ok"]
    assert len(ok) == 1 and not ok[0].body
    g2 = _ground_text("w(a,2). w(b,3). ok :- #sum[w(a,2) = 2, w(b,3) = 3] 4.")
    assert not [r for r in g2.rules
                if isinstance(r.head, Atom) and r.head.rel == "ok"]


def test_aggregate_over_nonfactual_atom_rejected():
    with pytest.raises(GroundError) as e:
        _ground_text("{ w }. ok :- #sum[w = 1] 3.")
    assert "non-factual" in str(e.value)
    # w becomes possible only after the aggregate's rule first ran
    with pytest.raises(GroundError) as e:
        _ground_text("ok :- #sum[w = 1] 3. { w }.")
    assert "non-factual" in str(e.value)


def test_bound_list_argument_matches_nothing():
    # a bound pattern unifies constants and compounds only, also when the
    # join is an index lookup
    g = _ground_text("p([1,2]). q(X) :- p(X). r(X) :- q(X), p(X).")
    assert library_ground_canon(g) == {"p([1,2]):-", "q([1,2]):-pos:p([1,2])"}


def test_equality_after_join_admits_list_values():
    # the join binds X to any value and the test compares with `==`, so the
    # equality must not become a binding that turns the join into a lookup
    for value in ("[1,2]", "f([1],a)", "[q/1]"):
        g = _ground_text(f"p({value}). r({value}). q(1). "
                         f"s(X) :- r(Y), p(X), X = Y.")
        assert sum(r.head.rel == "s" for r in g.rules) == 1, value
    g = _ground_text("p(f([1],a)). r([1]). s(X) :- r(Y), p(X), X = f(Y,a).")
    assert sum(r.head.rel == "s" for r in g.rules) == 1


def test_grounding_equivalence_with_bruteforce():
    corpus = [
        "p(1). p(2). p(3). q(X,Y) :- p(X), p(Y), X < Y.",
        "e(a,b). e(b,c). e(c,a). r(X,Y) :- e(X,Y). r(X,Z) :- e(X,Y), r(Y,Z).",
        "n(1). n(2). m(X) :- n(X), not bad(X). bad(2) :- n(2).",
        "f(a). g(b). h(X,Y) :- f(X), g(Y). :- h(X,Y), f(X), g(Y).",
        "p(f(a)). p(f(b)). q(X) :- p(f(X)).",
        "d(1). d(2). { c(X) } :- d(X). e(X) :- d(X), not c(X).",
        # a compound argument bound by earlier joins: one index lookup
        "k(1). k(2). p(f(1,2)). p(f(2,3)). p(f(2,1)). "
        "q(X,Y) :- k(X), k(Y), p(f(X,Y)).",
        # an arithmetic pattern in a bound position
        "n(1). n(2). n(3). n(5). s(X) :- n(X), n(X+1).",
        # transitive closure: r(1,5) is derived in the third fact round
        "e(1,2). e(2,3). e(3,4). e(4,5). "
        "r(X,Y) :- e(X,Y). r(X,Z) :- e(X,Y), r(Y,Z).",
        # a(X) gets its possible atoms only in the second round
        "d(1). d(2). { a(X) } :- b(X). { b(X) } :- d(X). "
        "c(X) :- a(X), d(Y), X < Y.",
        # X > 1 runs between the joins over p and q
        "p(1). p(2). p(3). q(2). q(3). r(X,Y) :- p(X), q(Y), X > 1, X != Y.",
        # integer division; c(X,Y) filters out the divisor 0
        "a(0). a(1). a(2). b(0). b(1). c(1,1). c(2,1). c(2,2). "
        "q(Z) :- a(X), b(Y), c(X,Y), Z = X / Y.",
    ]
    for src in corpus:
        p = parse(src)
        assert library_ground_canon(ground(p)) == brute_ground(p), src


def test_random_nonground_programs_match_the_oracle():
    # grounding either succeeds or rejects the program; every program small
    # enough for the oracle has its weak answer sets under black and clear
    checked = 0
    for seed in range(300):
        try:
            P = ground_program(random_nonground_source(seed))
        except (GroundError, EzSyntaxError):
            continue
        if P.n_atoms > oracle.ATOM_BOUND:
            continue
        expected = oracle.answer_sets(P, "weak")
        for schema in ("black", "clear"):
            res = solve_ca(P, SchemaConfig(schema=schema, limit=0,
                                           max_alphas_per_model=1))
            assert sorted((m.atoms for m in res.models),
                          key=lambda s: tuple(sorted(s))) == expected, \
                (seed, schema)
        checked += 1
    assert checked >= 100


def test_failed_hoisted_run_is_undone_and_redone(monkeypatch):
    # the hoisted order joins b(X,Y) after the division: it adds q(1,5),
    # then divides by zero at a(0), which b(X,Y) filters out in the
    # reference order; the addition, a possible atom and a fact, is undone
    # and the reference-order redo adds q(1,5) again; d(10) is there for
    # brute force, which binds Z only to a term that some atom holds
    from ezcasp.ground import _Table
    pops = []
    pop = _Table.pop
    monkeypatch.setattr(_Table, "pop",
                        lambda self: (pops.append(canon_atom(self.atoms[-1])),
                                      pop(self)))
    p = parse("a(1). a(0). b(1,5). d(10). "
              "q(X,Y) :- a(X), Z = 10 / X, b(X,Y).")
    g = ground(p)
    assert pops == ["q(1,5)", "q(1,5)"]
    assert library_ground_canon(g) == brute_ground(p)
    assert "q(1,5):-pos:a(1),pos:b(1,5)" in library_ground_canon(g)


def test_failed_hoisted_run_is_undone_in_the_index_of_its_table(
        monkeypatch):
    # as above, but r(Y) :- a(X), q(X,Y) looks q up by its first argument
    # before q's rule runs, so the undone addition of q(1,5) leaves that
    # index too; else the redo would list q(1,5) twice there
    from ezcasp.ground import _Table
    pops = []
    pop = _Table.pop
    monkeypatch.setattr(_Table, "pop",
                        lambda self: (pops.append((canon_atom(self.atoms[-1]),
                                                   list(self.indexes))),
                                      pop(self)))
    p = parse("a(1). a(0). b(1,5). d(10). r(Y) :- a(X), q(X,Y). "
              "q(X,Y) :- a(X), Z = 10 / X, b(X,Y).")
    g = ground(p)
    assert sorted(pops) == [("q(1,5)", []), ("q(1,5)", [(0,)])]
    assert library_ground_canon(g) == brute_ground(p)
    assert "r(5):-pos:a(1),pos:q(1,5)" in library_ground_canon(g)


def test_empty_range_in_a_head_gives_no_rule():
    g = _ground_text("p(3..1). q(X, 3..1) :- r(X). r(1). "
                     "s(X, 1..2) :- r(X).")
    assert library_ground_canon(g) == {"r(1):-", "s(1,1):-pos:r(1)",
                                       "s(1,2):-pos:r(1)"}


def test_relation_list_orders_facts_with_list_arguments():
    # integers, then constants, then compounds, then lists by length and
    # items (`term_key`)
    p = ground_program("cspdomain(fd). cspvar(x,0,20). r([2],3). r([1],2). "
                       "r([1,1],4). r(a,7). r(f(1),1). "
                       "required(sum([r/2], <=, x)).")
    assert p.pi.names[p.constraint_order[0]] == "|sum([7,1,2,3,4],leq,x)|"


def test_early_builtin_raises_no_new_error():
    # Z = X / Y runs before c(X,Y) would filter out Y = 0; the grounder
    # must still give the instance that survives the join
    g = _ground_text("a(0). a(1). a(2). b(0). b(1). c(1,1). "
                     "q(Z) :- a(X), b(Y), c(X,Y), Z = X / Y.")
    assert library_ground_canon(g) == {
        "a(0):-", "a(1):-", "a(2):-", "b(0):-", "b(1):-", "c(1,1):-",
        "q(1):-pos:a(1),pos:b(1),pos:c(1,1)"}
    # P1 = P - 1 binds P1 ahead of loc(P1), which has no atoms at all
    g = _ground_text("p(a). l(0). loc(X) :- l(X), X > 5. "
                     "q(P1) :- p(P), loc(P1), P1 = P - 1.")
    assert library_ground_canon(g) == {"l(0):-", "p(a):-"}
    # X > 5 would filter out every tuple, but X / Y fails first
    with pytest.raises(GroundError) as e:
        _ground_text("p(1). p(2). q(0). r(X) :- p(X), q(Y), X / Y > 0, X > 5.")
    assert "division by zero" in str(e.value)


def test_early_builtin_on_symbolic_term_still_fails():
    with pytest.raises(GroundError) as e:
        _ground_text("a(x). b(1). c(x,1). "
                     "q(Z) :- a(X), b(Y), c(X,Y), Z = X + Y.")
    assert "non-integer term x" in str(e.value)
    with pytest.raises(GroundError) as e:
        _ground_text("p(a). loc(0). q(P1) :- p(P), loc(P1), P1 = P - 1.")
    assert "non-integer term a" in str(e.value)


def test_error_while_building_a_body_literal_keeps_message_and_position():
    # a negative literal is no join step: it is first evaluated when the
    # ground rules are emitted
    for src, msg in [
        ("n(1..3).\np(X) :- n(X), not q(X/0).\n{ q(X) } :- n(X).\n",
         "2:1: division by zero in built-in arithmetic"),
        # the first two bindings build, the third fails
        ("n(0..2).\n\nr(X) :- n(X), not s(X), not q(2/(2-X)).\n",
         "3:1: division by zero in built-in arithmetic"),
    ]:
        with pytest.raises(GroundError) as e:
            _ground_text(src)
        assert str(e.value) == msg


def test_built_in_arithmetic_agrees_with_fd_eval_term():
    # the grounder's arithmetic and the CSP side's read one table of
    # integer functions, truncating division included
    def heads(text):
        return {tuple(a.value for a in r.head.args)
                for r in _ground_text(text).rules if r.head.rel == "r"}

    grid = range(-7, 8)
    I = fd.IntConst
    for op, name in (("+", "plus"), ("-", "minus"), ("*", "times"),
                     ("/", "div")):
        nonzero = "B != 0, " if op == "/" else ""
        got = heads(f"n(-7..7). r(A,B,X) :- n(A), n(B), {nonzero}"
                    f"X = A {op} B.")
        assert got == {(a, b, fd.eval_term(fd.Arith(name, (I(a), I(b))), {}))
                       for a in grid for b in grid
                       if op != "/" or b != 0}, op
    assert heads("n(-7..7). r(A,X) :- n(A), X = -A.") == \
        {(a, fd.eval_term(fd.Arith("neg", (I(a),)), {})) for a in grid}
    for a in grid:
        with pytest.raises(GroundError) as e:
            _ground_text(f"z(0). r(X) :- z(B), X = {a} / B.")
        assert str(e.value) == "1:7: division by zero in built-in arithmetic"
        assert fd.eval_term(fd.Arith("div", (I(a), I(0))), {}) is None


def test_definite_rule_over_domain_relations_runs_in_one_pass(monkeypatch):
    # its possible-atom pass would repeat the facts pass: same plan, same
    # final fact tables
    import ezcasp.ground as ground_mod
    calls = collections.Counter()
    instantiate = ground_mod._instantiate

    def counting(steps, state, pos):
        calls[pos] += 1
        return instantiate(steps, state, pos)

    monkeypatch.setattr(ground_mod, "_instantiate", counting)
    p = parse((ENCODINGS / "is_toy.ez").read_text())
    ground(p)
    # every rule of is_toy.ez is definite over domain relations
    assert calls == {r.pos: 1 for r in p.rules}


# -- term order and canonical forms ------------------------------------------------

def test_term_order():
    ints = [Const(-1), Const(3)]
    syms = [Const("a"), Const("b")]
    comp = [Compound("f", (Const(1),)), Compound("f", (Const(1), Const(2))),
            Compound("g", (Const(0),))]
    ordered = sorted([comp[2], syms[1], ints[1], comp[0], ints[0], syms[0],
                      comp[1]], key=term_key)
    assert ordered == ints + syms + comp


def test_display_restores_operators():
    t = Compound("geq", (Const("x"), Const(12)))
    assert display_term(t) == "x >= 12"
    assert display_atom(Atom("required", (t,))) == "required(x >= 12)"
    inner = Compound("or", (Compound("lt", (Const("y"), Const(3))),
                            Compound("neg", (Const("z"),))))
    assert display_term(inner) == "y < 3 \\/ -z"


# -- intensional lists ---------------------------------------------------------------

def _decls(*terms):
    return [VariableDecl(f"cspvar({canon_term(t)})", t, 0, 9) for t in terms]


def _wrap(*rules):
    return EzProgram(tuple(rules))


def test_lambda_v_prefix_expansion():
    decls = _decls(Compound("v", (Const(1),)), Compound("v", (Const(2),)),
                   Compound("v", (Const(3),)),
                   Compound("w", (Const("a"), Const(1))),
                   Compound("w", (Const("a"), Const(2))),
                   Compound("w", (Const("b"), Const(1))))
    prog = _wrap(Rule(Atom("required", (Compound(
        "all_different", (IntensionalList("w", (Const("a"),), 2),)),)), ()))
    out, warnings = expand_lists(ground(prog), decls)
    arg = out.rules[0].head.args[0].args[0]
    assert arg == ListTerm((Compound("w", (Const("a"), Const(1))),
                            Compound("w", (Const("a"), Const(2)))))
    assert not warnings
    # [v/1] expands to all three v variables in lexicographic order
    prog2 = _wrap(Rule(Atom("required", (Compound(
        "all_different", (IntensionalList("v", (), 1),)),)), ()))
    out2, _ = expand_lists(ground(prog2), decls)
    assert out2.rules[0].head.args[0].args[0] == ListTerm(
        (Compound("v", (Const(1),)), Compound("v", (Const(2),)),
         Compound("v", (Const(3),))))


def test_lambda_r_expansion():
    prog = parse(
        "rpp(a,3). rpp(b,1). rpp(c,2). required(sum([rpp/2], =<, 9)).")
    out, _ = expand_lists(ground(prog), [])
    assert out.rules[-1].head.args[0].args[0] == ListTerm(
        (Const(3), Const(1), Const(2)))


def test_lambda_r_prefix_expansion():
    prog = parse(
        "rp(a,1,3). rp(a,2,1). rp(b,5,7)."
        "required(sum([rp(a,2)/3], =<, 9))."
        "required(sum([rp(a)/3], =<, 9)).")
    out, _ = expand_lists(ground(prog), [])
    assert out.rules[-2].head.args[0].args[0] == ListTerm((Const(1),))
    assert out.rules[-1].head.args[0].args[0] == ListTerm((Const(3), Const(1)))


def test_lambda_empty_expansion_warns():
    # declared functor and arity match, but no variable has the prefix
    prog = _wrap(Rule(Atom("required", (Compound(
        "all_different", (IntensionalList("v", (Const(9),), 1),)),)), ()))
    decls = _decls(Compound("v", (Const(1),)), Compound("v", (Const(2),)))
    out, warnings = expand_lists(ground(prog), decls)
    assert out.rules[0].head.args[0].args[0] == ListTerm(())
    assert warnings and "empty expansion" in warnings[0]


def test_lambda_unknown_name_rejected():
    prog = _wrap(Rule(Atom("required", (Compound(
        "all_different", (IntensionalList("nosuch", (), 1),)),)), ()))
    with pytest.raises(GroundError) as e:
        expand_lists(ground(prog), [])
    assert "undeclared" in str(e.value)


def test_nested_intensional_list_rejected():
    with pytest.raises(GroundError) as e:
        ground_program("cspdomain(fd). cspvar(v(1),0,3). cspvar(v(2),0,3). "
                       "required(all_different([[v/1]])).")
    assert "nested intensional list" in str(e.value)


def test_expansion_outputs_are_sorted():
    import random
    rng = random.Random(3)
    terms = [Compound("v", (Const(i),)) for i in rng.sample(range(20), 8)]
    prog = _wrap(Rule(Atom("required", (Compound(
        "all_different", (IntensionalList("v", (), 1),)),)), ()))
    out, _ = expand_lists(ground(prog), _decls(*terms))
    items = out.rules[0].head.args[0].args[0].items
    keys = [term_key(t) for t in items]
    assert keys == sorted(keys)


def _subterms(t):
    yield t
    for a in getattr(t, "args", getattr(t, "items", ())):
        yield from _subterms(a)


def test_list_free_translation_walks_no_required_argument(monkeypatch):
    # list expansion keeps every rule object, and translation neither
    # names nor checks a required-argument or any of its compound subterms
    # other than the declared variables: atoms are keyed by identity, and
    # each declared variable, which is shared with the required-arguments,
    # is named once
    from ezcasp import ground as ground_mod
    g = _ground_text(RIDDLE_EZ)
    decls = ground_mod.collect_var_decls(g)
    out, warnings = expand_lists(g, decls)
    assert len(out.rules) == len(g.rules) and not warnings
    assert all(r is s for r, s in zip(out.rules, g.rules))
    walked = {id(t) for r in g.rules
              if isinstance(r.head, Atom) and r.head.rel == "required"
              for t in _subterms(r.head.args[0])
              if not isinstance(t, Const)}
    assert walked
    calls = {"canon_term": [], "_is_ground": []}
    for fn, seen in calls.items():
        orig = getattr(ground_mod, fn)
        monkeypatch.setattr(ground_mod, fn, lambda t, _f=orig, _s=seen:
                            _s.append(id(t)) or _f(t))
    P = ground_mod.to_ca_program(out, decls)
    assert len(P.constraint_order) == 8
    declared = [id(d.var_term) for d in decls]
    assert len(set(declared)) == 3 and set(declared) <= walked
    assert sorted(calls["canon_term"]) == sorted(declared)
    assert not walked & set(calls["_is_ground"])


def test_expand_lists_rebuilds_only_the_rules_with_lists():
    g = _ground_text("cspdomain(fd). cspvar(v(1),0,3). cspvar(v(2),0,3). "
                     "p([v/1]). required(v(1) > 0). "
                     "required(all_different([v/1])). "
                     "required(all_different(X)) :- p(X).")
    assert len(g.lists) == 2
    out, _ = expand_lists(g, [d for d in _decls(
        Compound("v", (Const(1),)), Compound("v", (Const(2),)))])
    changed = [i for i, (r, s) in enumerate(zip(out.rules, g.rules))
               if r is not s]
    assert changed == list(g.lists)
    expanded = ListTerm((Compound("v", (Const(1),)),
                         Compound("v", (Const(2),))))
    # both rules now have the one table atom as their head
    heads = [out.rules[i].head for i in changed]
    assert heads[0] is heads[1]
    assert heads[0] == Atom("required", (Compound("all_different",
                                                  (expanded,)),))


# -- CA construction -------------------------------------------------------------

def test_e1_linking_denials():
    P = ground_program(LIGHT_EZ)
    assert len(P.constraint_order) == 2
    names = P.pi.names
    for cid in P.constraint_order:
        beta = names[cid]
        req = f"required({beta[1:-1]})"
        denials = [r for r in P.pi.rules if r.head is None
                   and (cid in r.pos or cid in r.neg)]
        assert len(denials) == 2
        kinds = {(tuple(names[a] for a in d.pos),
                  tuple(names[a] for a in d.neg)) for d in denials}
        assert kinds == {((req,), (beta,)), ((beta,), (req,))}
        # constraint atoms never occur in heads
        assert all(r.head != cid for r in P.pi.rules)


def test_pure_asp_program_has_empty_constraint_alphabet():
    P = ground_program("a. b :- a, not c. { c }.")
    assert P.constraint_order == [] and P.gamma == {}


def test_cspvar_ranges_become_declarations():
    P = ground_program(LIGHT_EZ)
    (decl,) = P.var_decls
    assert decl.var == "x" and (decl.lo, decl.hi) == (0, 23)
    # a declaration is active when its cspvar atom is true in M
    m = [decl.atom + 1, P.pi.index["|x >= 12|"] + 1]
    inst = fd.build_csp(P, m, "weak")
    assert (inst.domains["x"].lo, inst.domains["x"].hi) == (0, 23)
    # without the declaration atom the variable falls back to the fd range
    inst2 = fd.build_csp(P, [P.pi.index["|x >= 12|"] + 1], "weak")
    assert inst2.domains["x"].hi == 2 ** 20


def test_riddle_conditional_declarations():
    P = ground_program(RIDDLE_EZ)
    assert len(P.var_decls) == 3
    assert all(d.atom is not None for d in P.var_decls)


@pytest.mark.parametrize("src,fragment", [
    ("cspdomain(q). cspvar(x,0,1). required(x > 0).", "unsupported domain"),
    ("cspdomain(r). cspvar(x,0,1). required(x > 0).", "unsupported domain"),
    ("cspdomain(fd). cspdomain(fd). cspvar(x,0,1).", "duplicate"),
    ("cspvar(x,0,1). required(x > 0).", "missing cspdomain"),
    ("cspdomain(fd). cspvar(x,0,1). required(y > 0).", "undeclared"),
    ("cspdomain(fd). cspvar(x,0,1). a :- required(x > 0).", "heads"),
    ("cspdomain(fd). cspvar(x,1,0).", "lower <= upper"),
    ("cspdomain(fd). cspvar(5,0,1).", "integer"),
])
def test_ca_errors(src, fragment):
    with pytest.raises(GroundError) as e:
        ground_program(src)
    assert fragment in str(e.value)


def test_atoms_shown_alike_are_one_atom():
    # neg(3) and -3 are distinct ground terms shown as -3; the CA program's
    # alphabet is the display names, so both atoms are one atom there
    P = ground_program("p(neg(3)). p(-3). q :- p(neg(3)), p(-3).")
    assert P.pi.names == ("p(-3)", "q")
    (q,) = [r for r in P.pi.rules if r.head == 1]
    assert q.pos == (0,)


@pytest.mark.parametrize("encoding", sorted(ENCODINGS.glob("*.ez")),
                         ids=lambda path: path.stem)
def test_grounding_leaves_no_cycle_of_functions(encoding):
    # the grounder's functions hold no reference to themselves, so what a
    # finished grounding held is freed by reference counting alone
    source = encoding.read_text()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ground_program(source)
        gc.collect()
        cyclic = sorted({f.__qualname__ for f in gc.garbage
                         if isinstance(f, types.FunctionType)
                         and f.__module__.startswith("ezcasp")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


def test_alphabets_disjoint_by_construction():
    # a regular atom spelled like the required-argument's canonical form
    # stays a separate atom: constraint atoms live in the |..| name space
    P = ground_program("cspdomain(fd). cspvar(x,0,5). required(x > 0). "
                       "gt(x,0).")
    names = set(P.pi.names)
    assert "gt(x,0)" in names and "|x > 0|" in names
    assert "required(x > 0)" in names
    assert P.constraint_set == {P.pi.index["|x > 0|"]}
    for cid in P.constraint_order:
        assert all(r.head != cid for r in P.pi.rules)


def test_choice_bounds_compile():
    P = ground_program("d(1). d(2). d(3). 1 { c(X) : d(X) } 2.")
    denials = [r for r in P.pi.rules if r.head is None]
    # lower 1: one all-false denial over 3 elements; upper 2: C(3,3)=1 denial
    lower = [d for d in denials if len(d.neg) == 3]
    upper = [d for d in denials if len(d.pos) == 3]
    assert len(lower) == 1 and len(upper) == 1
    sets = enumerate_answer_sets(P.pi)
    counts = sorted(sum(1 for a in s if a.startswith("c(")) for s in sets)
    assert counts == [1, 1, 1, 2, 2, 2]


def test_choice_bounds_violate_order():
    with pytest.raises(GroundError):
        ground_program("d(1). 2 { c(X) : d(X) } 1.")


@pytest.mark.parametrize("bound", [-1, -2, -5])
def test_choice_upper_bound_below_zero_denies_the_body(bound):
    # no choice meets an upper bound below zero, so the body is denied, as
    # it is for a lower bound above the element count
    P = ground_program(f"p({bound}). {{ a }} X :- p(X).")
    p = P.pi.index[f"p({bound})"]
    assert [r for r in P.pi.rules if r.head is None] == \
        [RuleP(None, (p,), (), ())]
    assert enumerate_answer_sets(P.pi) == []


@pytest.mark.parametrize("src,msg", [
    ("a :- required(x > 1).",
     "1:1: required-atoms may only occur in rule heads"),
    ("{ required(x > 1) }.", "1:1: required not allowed in choice heads"),
    ("n(1..60). 1 { c(X) : n(X) } 2.",
     "1:11: choice bounds too large to compile"),
    # a choice too large to compile is reported after the other errors
    ("n(1..60). 1 { c(X) : n(X) } 2. cspdomain(foo).",
     "1:32: cspdomain argument must be fd, q or r"),
])
def test_rejected_program_reports_message_and_position(src, msg):
    with pytest.raises(GroundError) as e:
        ground_program(src)
    assert str(e.value) == msg


@pytest.mark.parametrize("src", [
    "{ cspdomain(fd) }. cspvar(x,0,3). required(x > 1).",
    "a. cspdomain(fd) :- a.",
    "a. { cspdomain(fd) } :- a.",
])
def test_cspdomain_must_be_a_fact(src):
    # a choice element is never a fact, with or without a body
    with pytest.raises(GroundError, match="cspdomain must be a fact"):
        ground_program(src)


def test_default_range_applies_to_rangeless_declaration():
    P = ground_program("cspdomain(fd). cspvar(x). required(x >= 0).",
                       default_range=(0, 7))
    inst = fd.build_csp(P, [P.pi.index["|x >= 0|"] + 1], "weak")
    assert (inst.domains["x"].lo, inst.domains["x"].hi) == (0, 7)


def test_green_color_rule_two_leaf_hand_enumeration():
    # color-assignment rule on a 2-leaf instance; the non-factual leafPos
    # atoms do not restrict, so the instances are exactly the substitutions
    # admitted by the weight/cost facts and the comparison built-in
    g = _ground_text("""
        leaf(l1). leaf(l2).
        leafWeightCardinality(l1,2,1). leafWeightCardinality(l2,3,1).
        leafCost(l1,2). leafCost(l2,1).
        location(0). location(1).
        1 { leafPos(L,N) : location(N) } 1 :- leaf(L).
        posColor(1,green) :- leafPos(L1,0), leafPos(L2,1),
            leafWeightCardinality(L1,WL,CL), leafWeightCardinality(L2,WR,CR),
            leafCost(L2,W3), W1 = WR + CR, W2 = WL + W3, W1 < W2.
    """)
    instances = set()
    for r in g.rules:
        if isinstance(r.head, Atom) and r.head.rel == "posColor":
            pair = tuple(canon_atom(b.atom) for b in r.body
                         if b.atom.rel == "leafPos")
            instances.add(pair)
    # hand enumeration: W1 = WR+CR, W2 = WL+leafCost(L2); W1 < W2 holds for
    # (L1,L2) in {(l1,l1): 3<4, (l2,l1): 3<5}; fails for (l1,l2): 4<3 and
    # (l2,l2): 4<4
    assert instances == {("leafPos(l1,0)", "leafPos(l1,1)"),
                         ("leafPos(l2,0)", "leafPos(l1,1)")}


def test_aggregate_lower_bound():
    g = _ground_text("w(a). w(b). ok :- 2 #sum[w(a) = 1, w(b) = 1].")
    assert any(isinstance(r.head, Atom) and r.head.rel == "ok"
               for r in g.rules)
    g2 = _ground_text("w(a). ok :- 2 #sum[w(a) = 1].")
    assert not any(isinstance(r.head, Atom) and r.head.rel == "ok"
                   for r in g2.rules)


def test_ca_program_constructor_invariants():
    from ezcasp.asp import RegularProgram
    from ezcasp.ground import CAProgram
    pi = RegularProgram.build([("|c|", [], [], []), (None, ["|c|"], [], [])])
    gamma = {"|c|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(1))}
    with pytest.raises(ValueError):          # constraint atom in a head
        CAProgram(pi, ["|c|"], gamma, domain=(0, 5))
    pi2 = RegularProgram.build([(None, ["|c|"], [], [])])
    with pytest.raises(ValueError):          # gamma not defined on exactly C
        CAProgram(pi2, ["|c|"], {}, domain=(0, 5))


# two required atoms that a printer which bound prefix - as loosely as
# binary - showed alike, as -x / 2 = 0
NEG_DIV = ("cspdomain(fd). cspvar(x,2,9). {a}. "
           "required(-(x/2) = 0) :- a. required((-x)/2 = 0) :- not a.")


def test_required_atoms_under_prefix_minus_are_two_constraint_atoms():
    P = ground_program(NEG_DIV)
    assert [P.pi.names[c] for c in P.constraint_order] == \
        ["|-(x / 2) = 0|", "|-x / 2 = 0|"]
    assert len(set(P.gamma.values())) == 2


def test_constraint_order_lists_each_atom_once():
    # constraint atoms named alike are one atom of the regular part
    from ezcasp.asp import RegularProgram
    from ezcasp.ground import CAProgram
    pi = RegularProgram.build([(None, ["|c|"], [], [])])
    gamma = {"|c|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(1))}
    P = CAProgram(pi, ["|c|", "|c|"], gamma, domain=(0, 5))
    assert P.constraint_order == [pi.index["|c|"]]


def test_ground_fixpoint_with_undefined_positive_atom():
    # an undefined relation in a positive body cannot fire, but the naive
    # ground program keeps the instance; grounding is a fixpoint on it
    src = "a :- ghost. b."
    g1 = _ground_text(src)
    assert library_ground_canon(g1) == {"a:-pos:ghost", "b:-"}
    assert library_ground_canon(ground(g1)) == library_ground_canon(g1)


def test_grounding_equivalence_with_nondomain_sharing():
    # two non-factual atoms sharing a variable: the first (in body order)
    # binds it against the possible atoms, the second does not restrict
    src = ("d(1). d(2). { c(X) } :- d(X). { e(X) } :- d(X). "
           "both(X) :- c(X), e(X).")
    p = parse(src)
    assert library_ground_canon(ground(p)) == brute_ground(p)


# -- CA-program snapshots ----------------------------------------------------------

CA_PROGRAM = pathlib.Path(__file__).resolve().parent / "data" / "ca_program"
DUMP_GROUND_EZ = pathlib.Path(__file__).resolve().parent / "data" / "dump_ground"


def ca_program_text(P) -> str:
    """Everything `to_ca_program` emits, one item per line: the atom table,
    the propositional rules in order (choice-bound and linking denials
    included), the constraint order with gamma, the declarations, the
    suppressed names and the warnings."""
    lines = ["% atoms"]
    lines += [f"{i} {n}" for i, n in enumerate(P.pi.names)]
    lines.append("% rules")
    for r in P.pi.rules:
        body = [str(a) for a in r.pos] + [f"not {a}" for a in r.neg] + \
            [f"not not {a}" for a in r.nneg]
        head = "" if r.head is None else str(r.head)
        lines.append(f"{head} :- {', '.join(body)}.")
    lines.append("% constraint atoms and gamma")
    lines += [f"{cid} {P.gamma[cid]!r}" for cid in P.constraint_order]
    lines.append("% declarations")
    lines += [repr(d) for d in P.var_decls]
    lines.append(f"% domain {P.domain[0]}..{P.domain[1]}")
    lines.append("% suppressed")
    lines += sorted(P.suppressed)
    lines.append("% warnings")
    lines += P.warnings
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "source", sorted(ENCODINGS.glob("*.ez")) + sorted(DUMP_GROUND_EZ.glob("*.ez")),
    ids=lambda p: p.stem)
def test_ca_program_matches_snapshot(source):
    # Atom ids and rule order fix the search; a grounder or translation
    # change must not alter either.  The dump-ground snapshots never move
    # with translation.  These moved once on purpose, when `to_ca_program`
    # began to leave the atoms of facts out of rule bodies, which keeps
    # every answer set (CHANGES.md).  Regenerate with
    # `PYTHONPATH=src:tests python -c "import test_ground as t; t.write_ca_snapshots()"`.
    P = ground_program(source.read_text())
    assert ca_program_text(P) == (CA_PROGRAM / f"{source.stem}.txt").read_text()


def write_ca_snapshots() -> None:
    CA_PROGRAM.mkdir(exist_ok=True)
    for source in sorted(ENCODINGS.glob("*.ez")) + \
            sorted(DUMP_GROUND_EZ.glob("*.ez")):
        (CA_PROGRAM / f"{source.stem}.txt").write_text(
            ca_program_text(ground_program(source.read_text())))


# per argument kind: its text, and the type of what it is built into
_ARG_TEXT = {"term": ("x", fd.VarRef), "term_list": ("[x,y]", tuple),
             "int_list": ("[1,1]", tuple), "comparison": ("eq", str)}


@pytest.mark.parametrize("name", sorted(GLOBAL_SIGNATURES))
def test_global_constraint_arity(name):
    kinds = GLOBAL_SIGNATURES[name]
    args = [_ARG_TEXT[k][0] for k in kinds]

    def required(args):
        return ground_program("cspdomain(fd). cspvar(x,1,2). cspvar(y,1,2). "
                              f"required({name}({', '.join(args)})).")

    P = required(args)
    (g,) = P.gamma.values()
    assert isinstance(g, fd.Global) and g.name == name
    assert [type(a) for a in g.args] == [_ARG_TEXT[k][1] for k in kinds]
    wrong = [args + ["x"]] + ([args[:-1]] if len(args) > 1 else [])
    for bad in wrong:
        with pytest.raises(GroundError,
                           match=f"arity error in global constraint {name}"):
            required(bad)


# -- interned terms ----------------------------------------------------------

def _sched_text() -> str:
    """The text of the first instance of perfbench's `sched` workload."""
    return perfbench_gen().workload("sched", 1)[0].text


def _interning_cases():
    return [(p.stem, p.read_text()) for p in sorted(ENCODINGS.glob("*.ez"))] \
        + [("sched", _sched_text())]


def _program_terms(g):
    """Every atom of g's rules and of its atom table, and every subterm of
    their arguments."""
    atoms = list(g.atoms.values())
    for r in g.rules:
        atoms.extend(ground_mod._head_atoms(r))
        atoms.extend(b.atom for b in r.body)
    return atoms, [s for a in atoms for t in a.args for s in lang_subterms(t)]


@pytest.mark.parametrize("name, text", _interning_cases(),
                         ids=[n for n, _ in _interning_cases()])
def test_equal_ground_terms_are_one_object(name, text):
    expanded, _ = ground_stages(text)
    atoms, terms = _program_terms(expanded)
    by_value = collections.defaultdict(set)
    for t in terms:
        by_value[t].add(id(t))
    assert all(len(ids) == 1 for ids in by_value.values())
    table = expanded.atoms
    assert all(k == id(a) for k, a in table.items())
    assert len(set(table.values())) == len(table)
    assert {id(a) for a in atoms} == table.keys()
    # a second call shares no atom or term with the first
    again, _ = ground_stages(text)
    atoms2, terms2 = _program_terms(again)
    assert not {id(x) for x in atoms + terms} & \
        {id(x) for x in atoms2 + terms2}


def _fresh(t):
    """A copy of the ground term t that shares no object with it."""
    if isinstance(t, Const):
        return Const(t.value)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(map(_fresh, t.args)))
    if isinstance(t, ListTerm):
        return ListTerm(tuple(map(_fresh, t.items)))
    # the table keeps a required atom that list expansion replaced
    return IntensionalList(t.name, tuple(map(_fresh, t.prefix)), t.arity)


def _not_interned(g):
    """g with every term copied apart from every other, and no term table;
    each distinct atom is still one object, as `GroundProgram` requires."""
    new = {k: Atom(a.rel, tuple(map(_fresh, a.args)))
           for k, a in g.atoms.items()}
    rules = []
    for r in g.rules:
        head = r.head
        if isinstance(head, Atom):
            head = new[id(head)]
        elif isinstance(head, Choice):
            head = Choice(head.lower, tuple(ChoiceElem(new[id(e.atom)], ())
                                            for e in head.elems), head.upper)
        rules.append(Rule(head, tuple(Lit(b.kind, new[id(b.atom)])
                                      for b in r.body), r.pos))
    return GroundProgram(tuple(rules), {id(a): a for a in new.values()}, ())


@pytest.mark.parametrize("name, text", _interning_cases(),
                         ids=[n for n, _ in _interning_cases()])
def test_translation_accepts_terms_that_are_not_interned(name, text):
    expanded, _ = ground_stages(text)
    plain = _not_interned(expanded)
    # no term object occurs twice in the atom table: a declared variable,
    # say, is one object in its declaration and another in each constraint
    terms = [s for a in plain.atoms.values() for t in a.args
             for s in lang_subterms(t)]
    assert len({id(t) for t in terms}) == len(terms)
    assert plain == expanded and not plain.terms.ids
    want = ground_mod.to_ca_program(
        expanded, ground_mod.collect_var_decls(expanded))
    got = ground_mod.to_ca_program(plain, ground_mod.collect_var_decls(plain))
    assert ca_program_text(got) == ca_program_text(want)
