import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ezcasp.asp import (Record, RegularProgram, RuleP, clausify,
                        enumerate_answer_sets_bruteforce,
                        greatest_unfounded_set, is_answer_set, rule_clause)

from bruteforce import (all_unfounded_sets, find_unit_step, is_unfounded,
                        unit_propagate)


# -- clausify ----------------------------------------------------------------

def test_clausify_denial_is_unit_clause():
    prog = RegularProgram.build([(None, [], ["pm"], [])])
    assert clausify(prog) == [(1,)]


def test_clausify_fact():
    prog = RegularProgram.build([("a", [], [], [])])
    assert clausify(prog) == [(1,)]


def test_extended_checks_appended_rules_and_shares_the_table():
    prog = RegularProgram.build([("a", ["b"], [], [])])
    ext = prog.extended([RuleP(None, (0,), (1,))])
    assert ext.rules[-1] == RuleP(None, (0,), (1,))
    assert ext.names == prog.names and ext.index is prog.index
    assert prog.rules == (RuleP(0, (1,), ()),)
    with pytest.raises(ValueError):
        prog.extended([RuleP(None, (2,), ())])        # atom id out of range
    with pytest.raises(ValueError):
        prog.extended([RuleP(5, (), ())])             # head id out of range
    with pytest.raises(ValueError):
        prog.extended([RuleP(None, (0, 0), ())])      # duplicate body atom


# keys "a" and "A" are both named "a", and so one atom
_key = st.sampled_from(["a", "A", "b", "B", "c"])
_key_rule = st.tuples(st.one_of(st.none(), _key), st.lists(_key, max_size=3),
                      st.lists(_key, max_size=3), st.lists(_key, max_size=2))


def _first_each(items):
    out = []
    for x in items:
        if x not in out:
            out.append(x)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(_key_rule, max_size=6), st.lists(_key, max_size=2))
@example([("a", [], ["a"], [])], [])                # a head also negated
@example([("b", ["a"], [], ["a"])], [])             # pos overlapping nneg
@example([(None, ["a", "a"], ["b", "b"], ["c", "c"])], [])    # repeats
@example([("a", ["A"], ["b", "B"], ["A"])], ["C"])  # names that merge
def test_build_and_clauses_equal_reference_formulas(rules, extra):
    named = []

    def name(key):
        named.append(key)
        return key.lower()

    prog = RegularProgram.build(rules, extra, name=name)
    # every key is named once, where it first occurs; atoms are numbered
    # in order of their names' first occurrence
    keys = []
    for head, pos, neg, nneg in rules:
        keys += ([] if head is None else [head]) + pos + neg + nneg
    keys += extra
    assert named == _first_each(keys)
    names = _first_each([k.lower() for k in keys])
    assert prog.names == tuple(names)
    assert prog.index == {n: i for i, n in enumerate(names)}

    def ids(part):
        return tuple(_first_each([names.index(k.lower()) for k in part]))

    assert list(prog.rules) == [
        RuleP(None if h is None else names.index(h.lower()),
              ids(pos), ids(neg), ids(nneg))
        for h, pos, neg, nneg in rules]
    RegularProgram(prog.names, prog.rules)          # the checks hold
    # a clause: head, -pos, neg, -nneg, each literal at its first place
    for r in prog.rules:
        lits = ([] if r.head is None else [r.head + 1]) \
            + [-(a + 1) for a in r.pos] + [a + 1 for a in r.neg] \
            + [-(a + 1) for a in r.nneg]
        assert rule_clause(r) == tuple(_first_each(lits))
    assert clausify(prog) == [rule_clause(r) for r in prog.rules]


def test_clausify_normal_rule_truth_table():
    prog = RegularProgram.build([("lightOn", ["switch"], ["am"], [])])
    (clause,) = clausify(prog)
    assert clause == (1, -2, 3)
    for bits in itertools.product([0, 1], repeat=3):
        tv = dict(zip(prog.names, bits))
        body = tv["switch"] and not tv["am"]
        rule_holds = (not body) or tv["lightOn"]
        clause_holds = any((l > 0) == bool(tv[prog.names[abs(l) - 1]])
                           for l in clause)
        assert rule_holds == clause_holds


def test_clausify_double_negation():
    prog = RegularProgram.build([("a", [], [], ["a"])])
    assert clausify(prog) == [(1, -1)]     # tautological choice clause


# -- is_answer_set ------------------------------------------------------------

def test_light_answer_set(light_asp):
    assert is_answer_set(light_asp, ["switch", "lightOn"])
    assert enumerate_answer_sets_bruteforce(light_asp) == [
        frozenset({"lightOn", "switch"})]


def test_not_not_has_two_answer_sets():
    prog = RegularProgram.build([("a", [], [], ["a"])])
    assert is_answer_set(prog, [])
    assert is_answer_set(prog, ["a"])
    assert enumerate_answer_sets_bruteforce(prog) == [frozenset(),
                                                      frozenset({"a"})]


def test_empty_program():
    prog = RegularProgram.build([])
    assert is_answer_set(prog, [])
    assert enumerate_answer_sets_bruteforce(prog) == [frozenset()]


def test_bruteforce_bound():
    prog = RegularProgram.build([(f"a{i}", [], [], []) for i in range(25)])
    with pytest.raises(ValueError, match="atom bound exceeded: 25 > 20"):
        enumerate_answer_sets_bruteforce(prog)


# -- unit propagation ----------------------------------------------------------

def test_unit_propagate_fact():
    m = Record(3)
    unit_propagate(m, [(1,)])
    assert m.literals() == [1]
    assert m.consistent


def test_unit_propagate_fixpoint_unchanged():
    m = Record(2)
    m.append(1)
    unit_propagate(m, [(1, 2)])     # satisfied clause: nothing to do
    assert m.literals() == [1]


def test_unit_propagate_conflict():
    m = Record(1)
    unit_propagate(m, [(1,), (-1,)])
    assert not m.consistent
    assert len(m.literals()) == 2


def test_unit_propagate_chains():
    # a. b :- a. c :- b.  clauses: a, b | !a, c | !b
    m = Record(3)
    unit_propagate(m, [(1,), (2, -1), (3, -2)])
    assert m.literals() == [1, 2, 3]


_clauses = st.lists(
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
        lambda ids: tuple(dict.fromkeys(i if random.Random(sum(ids)).random() < .5
                                        else -i for i in ids))),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.booleans()), max_size=4),
       st.lists(st.lists(st.tuples(st.integers(1, 5), st.booleans()),
                         min_size=1, max_size=3), max_size=8))
def test_unit_propagate_properties(seed_lits, raw_clauses):
    clauses = [tuple(dict.fromkeys(a if s else -a for a, s in c))
               for c in raw_clauses]
    m = Record(5)
    for a, s in seed_lits:
        lit = a if s else -a
        if m.consistent and m.is_unassigned(lit):
            m.append(lit)
    before = list(m.literals())
    unit_propagate(m, clauses)
    after = m.literals()
    # extends its input, adds no decision literals
    assert after[:len(before)] == before
    assert not any(d for _, d in m.entries[len(before):])
    # fixpoint: re-running changes nothing
    if m.consistent:
        unit_propagate(m, clauses)
        assert m.literals() == after
        assert find_unit_step(m, clauses) is None
        # every appended literal was justified: no clause fully falsified
        lits = set(after)
        for c in clauses:
            assert not all(-x in lits for x in c)


# -- records -------------------------------------------------------------------

def test_record_rejects_duplicate_literal():
    m = Record(2)
    m.append(1)
    with pytest.raises(ValueError):
        m.append(1)


def test_record_rejects_decision_on_assigned_atom():
    m = Record(2)
    m.append(1)
    with pytest.raises(ValueError):
        m.append(-1, decided=True)


def test_record_conflict_then_backtrack():
    m = Record(3)
    m.append(1)
    m.append(2, decided=True)
    m.append(-2)        # complement of a decision: inconsistent record
    assert not m.consistent
    flipped = m.backjump_last_decision()
    assert flipped == -2
    assert m.literals() == [1, -2]
    assert m.consistent


def test_record_bot_is_terminal():
    m = Record(1)
    m.append_bot()
    assert not m.consistent
    with pytest.raises(ValueError):
        m.append(1)


# -- unfounded sets --------------------------------------------------------------

def test_unfounded_empty_program():
    prog = RegularProgram.build([])
    assert greatest_unfounded_set(prog, []) == frozenset()


def test_unfounded_loop():
    prog = RegularProgram.build([("a", ["b"], [], []), ("b", ["a"], [], [])])
    gus = greatest_unfounded_set(prog, [])
    assert gus == frozenset({0, 1})
    assert is_unfounded(prog, [], gus)
    # brute force: every unfounded set is a subset of the greatest one
    for u in all_unfounded_sets(prog, []):
        assert u <= gus


def test_unfounded_fact_supported():
    prog = RegularProgram.build([("a", [], [], [])])
    assert greatest_unfounded_set(prog, []) == frozenset()
    assert all_unfounded_sets(prog, []) == [frozenset()]


def test_unfounded_respects_m():
    # a :- b, not c.   with c in M the body is contradicted
    prog = RegularProgram.build([("a", ["b"], ["c"], []),
                                 ("b", [], [], [])])
    assert greatest_unfounded_set(prog, []) == frozenset({2})     # only c
    gus = greatest_unfounded_set(prog, [3])                        # c true
    assert prog.names[0] == "a" and 0 in gus


def _random_program(rng, n_atoms=4, n_rules=5):
    names = [f"a{i}" for i in range(n_atoms)]
    rules = []
    for _ in range(n_rules):
        head = rng.randrange(n_atoms) if rng.random() < 0.8 else None
        pool = list(range(n_atoms))
        rng.shuffle(pool)
        pos = tuple(pool[:rng.randrange(0, 3)])
        neg = tuple(pool[2:2 + rng.randrange(0, 2)])
        nn = tuple(pool[4:4 + rng.randrange(0, 1)])
        rules.append(RuleP(head, pos, neg, nn))
    return RegularProgram(names, rules)


def test_gus_is_greatest_on_random_programs():
    rng = random.Random(7)
    for _ in range(60):
        prog = _random_program(rng)
        lits = [a + 1 if rng.random() < .5 else -(a + 1)
                for a in range(prog.n_atoms) if rng.random() < .6]
        seen = set()
        m = [l for l in lits if abs(l) not in seen and not seen.add(abs(l))]
        gus = greatest_unfounded_set(prog, m)
        assert is_unfounded(prog, m, gus)
        subsets = all_unfounded_sets(prog, m)
        assert frozenset(gus) == max(subsets, key=len)
        for u in subsets:
            assert u <= gus
        # every strict superset of the greatest unfounded set is rejected
        rest = [a for a in range(prog.n_atoms) if a not in gus]
        for extra in rest:
            assert not is_unfounded(prog, m, set(gus) | {extra})


# -- characterization checks (small-scale versions; the acceptance suite runs
#    them at full scale) -------------------------------------------------------

def _complete_literals(prog, x):
    return [(a + 1) if (x >> a) & 1 else -(a + 1)
            for a in range(prog.n_atoms)]


def _is_model(prog, x):
    for clause in clausify(prog):
        if not any((l > 0) == bool((x >> (abs(l) - 1)) & 1) for l in clause):
            return False
    return True


def test_unfounded_characterization_small():
    rng = random.Random(11)
    for _ in range(40):
        prog = _random_program(rng, n_atoms=4, n_rules=5)
        n = prog.n_atoms
        for x in range(1 << n):
            m = _complete_literals(prog, x)
            lhs = is_answer_set(prog, prog.atom_set(x))
            pos_atoms = [a for a in range(n) if (x >> a) & 1]
            has_nonempty_unfounded = any(
                u and set(u) <= set(pos_atoms)
                for u in all_unfounded_sets(prog, m))
            rhs = _is_model(prog, x) and not has_nonempty_unfounded
            assert lhs == rhs, (prog.rules, x)
