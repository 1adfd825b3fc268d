"""Differential tests of the search's propagators against the reference
versions in `ezcasp.asp`: the watched-literal `Propagator` against
`unit_propagate`, and the incremental `UnfoundedCheck` against
`greatest_unfounded_set`."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from ezcasp import oracle
from ezcasp.asp import (Propagator, Record, RegularProgram, RuleP,
                        UnfoundedCheck, clausify, greatest_unfounded_set,
                        unit_propagate)

N = 6

_lit = st.builds(lambda a, s: a if s else -a, st.integers(1, N),
                 st.booleans())
_clause = st.lists(_lit, min_size=1, max_size=3).map(
    lambda lits: tuple(dict.fromkeys(lits)))


def _fixpoint(prop):
    """Propagate to the fixpoint or a conflict, one literal per call."""
    while prop.propagate(1):
        pass


# -- watched-literal unit propagation --------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.lists(_clause, max_size=8),
       st.lists(st.tuples(st.sampled_from((0, 0, 0, 1, 1, 2, 3, 3, 4)),
                          st.integers(0, 63), _clause),
                max_size=40))
def test_watched_propagation_matches_reference(clauses, ops):
    # `a` propagates one literal per call, `c` as far as it goes: both
    # append the same literals in the same order
    a = Record(N)
    prop = Propagator(a, clauses)
    c = Record(N)
    prop_c = Propagator(c, clauses)
    b = Record(N)
    ref = list(clauses)

    def settle():
        if a.consistent:
            _fixpoint(prop)
        prop_c.propagate(2 * N + 1)
        unit_propagate(b, ref)
        assert a.trail == c.trail and a.decisions == c.decisions
        assert a.consistent == b.consistent
        if a.consistent:
            assert set(a.trail) == set(b.trail)
            assert prop.propagate(1) == 0
        assert [a.trail[i] for i in a.decisions] == \
            [b.trail[i] for i in b.decisions]

    settle()
    for kind, k, clause in ops:
        if kind == 0 and a.consistent:                      # Decide
            free = [x for x in range(1, N + 1) if a.is_unassigned(x)]
            if not free:
                continue
            lit = free[(k >> 1) % len(free)] * (1 if k & 1 else -1)
            a.append(lit, decided=True)
            b.append(lit, decided=True)
            c.append(lit, decided=True)
        elif kind == 1 and a.decisions:                     # Backtrack
            if a.consistent:
                a.append_bot()
                b.append_bot()
                c.append_bot()
            assert prop.backjump() == b.backjump_last_decision() == \
                prop_c.backjump()
        elif kind == 2:                                     # Restart
            prop.reset()
            prop_c.reset()
            b.clear()
        elif kind == 3:                                     # learn any clause
            prop.add_clause(clause)
            prop_c.add_clause(clause)
            ref.append(clause)
        elif kind == 4 and a.consistent and a.trail:        # learn a clause
            if k & 1:                                       # M falsifies,
                a.append_bot()                              # after a CSP
                b.append_bot()                              # conflict or not
                c.append_bot()
            # the last decision and up to two more literals of M, as in a
            # learned conflict clause
            picks = a.decisions[-1:] + [k % len(a.trail),
                                        (k // 7) % len(a.trail)]
            falsified = tuple(dict.fromkeys(-a.trail[i] for i in picks))
            prop.add_clause(falsified)
            prop_c.add_clause(falsified)
            ref.append(falsified)
        settle()


def test_learned_clause_propagates_after_later_backjumps():
    # a clause learned at level 3 whose only true literal (after the first
    # backjump) sits on a later level than its false one must become unit
    # again once a second backjump unassigns that literal
    m = Record(4)
    prop = Propagator(m, [])
    for lit in (1, 2, 3):
        m.append(lit, decided=True)
    m.append_bot()
    prop.add_clause((-3, -1))
    assert prop.backjump() == -3            # -3 true at level 2, -1 false
    assert prop.propagate(1) == 0
    m.append_bot()
    assert prop.backjump() == -2            # -3 unassigned again
    assert prop.propagate(1) == 1
    assert (m.trail[-1], prop.reason) == (-3, (-3, -1))
    assert prop.propagate(1) == 0
    assert m.trail == [1, -2, -3]


def test_unit_clauses_are_checked_directly():
    m = Record(2)
    prop = Propagator(m, [(1,), (-1, 2)])
    _fixpoint(prop)
    assert set(m.trail) == {1, 2}
    prop.add_clause((-2,))
    _fixpoint(prop)
    assert not m.consistent
    prop.reset()
    _fixpoint(prop)
    assert not m.consistent and not m.decisions

    # a unit clause learned above level 0 holds again after a backjump
    m = Record(2)
    prop = Propagator(m, [])
    m.append(1, decided=True)
    prop.add_clause((2,))
    _fixpoint(prop)
    assert m.trail == [1, 2]
    m.append_bot()
    prop.backjump()
    _fixpoint(prop)
    assert m.trail == [-1, 2]


# -- the linear unfounded-set check -------------------------------------------------

def _partial_records(rng, n_atoms, count):
    for _ in range(count):
        m = Record(n_atoms)
        for a in rng.sample(range(n_atoms), rng.randint(0, n_atoms)):
            m.append((a + 1) if rng.random() < 0.5 else -(a + 1))
        yield m


def test_unfounded_check_matches_reference_on_corpus():
    rng = random.Random(3)
    for seed in range(80):
        prog = oracle.random_program(seed).asp_abstraction()
        check = UnfoundedCheck(prog)
        for m in _partial_records(rng, prog.n_atoms, 12):
            assert check.greatest(m) == \
                greatest_unfounded_set(prog, m.literals()), seed


def _looping_program(rng, n_atoms=6, n_rules=9):
    """Random rules whose positive bodies often close positive loops."""
    rules = []
    for _ in range(n_rules):
        head = rng.randrange(n_atoms) if rng.random() < 0.9 else None
        body = rng.sample(range(n_atoms), 3)
        rules.append(RuleP(head, tuple(body[:rng.randint(0, 2)]),
                           tuple(body[2:3]) if rng.random() < 0.3 else (),
                           ()))
    return RegularProgram([f"a{i}" for i in range(n_atoms)], rules)


def test_unfounded_check_matches_reference_on_positive_loops():
    # a <- b.  b <- a.  b <- not c.  c <- c: {a, b} is founded only while c
    # is not true, and c is always unfounded
    prog = RegularProgram.build([("a", ["b"], [], []), ("b", ["a"], [], []),
                                 ("b", [], ["c"], []), ("c", ["c"], [], [])])
    check = UnfoundedCheck(prog)
    m = Record(3)
    assert check.greatest(m) == frozenset({2})
    m.append(3)
    assert check.greatest(m) == frozenset({0, 1, 2})

    rng = random.Random(5)
    for _ in range(150):
        prog = _looping_program(rng)
        check = UnfoundedCheck(prog)
        for m in _partial_records(rng, prog.n_atoms, 8):
            assert check.greatest(m) == \
                greatest_unfounded_set(prog, m.literals()), prog.rules


def _search_steps(rng, prog, n_ops):
    """Random Decide, propagate, Backtrack, Restart, Learn and new-run steps
    over one record, propagator and unfounded-set check, kept as the engine
    keeps them for a whole solve.  At every consistent point the check's
    flags must be the complement of `greatest_unfounded_set`, and every
    propagating clause must be one of the program, a blocking denial or a
    learned denial of any run so far."""
    n = prog.n_atoms
    m = Record(n)
    clauses = clausify(prog)
    prop = Propagator(m, clauses)       # which copies them
    check = UnfoundedCheck(prog)

    def agree():
        if m.consistent:
            sup = check.supported(m)
            assert {a for a in range(n) if not sup[a]} == \
                greatest_unfounded_set(prog, m.trail), (prog.rules, m.trail)

    def propagate():
        agree()
        while m.consistent:
            if prop.propagate(1):
                assert prop.reason in clauses
                agree()
                continue
            # one batch of unfounded atoms, as the engine appends them
            atoms = check.pending(m)
            assert atoms == sorted(
                a for a in greatest_unfounded_set(prog, m.trail)
                if m.value(a) != -1)
            if not atoms:
                return
            for a in atoms:
                m.append(-(a + 1))
                agree()
                if not m.consistent:
                    break

    propagate()
    for _ in range(n_ops):
        kind = rng.randrange(5)
        if kind == 0 and m.consistent:                      # Decide
            free = [a for a in range(n) if m.value(a) == 0]
            if free:
                m.append(rng.choice(free) + 1 if rng.random() < 0.5
                         else -(rng.choice(free) + 1), decided=True)
        elif kind == 1 and m.decisions:                     # Backtrack
            if m.consistent:
                m.append_bot()
            check.backjump(m.decisions[-1])
            prop.backjump()
        elif kind == 2 and m.trail and m.consistent:        # Learn a denial
            lits = rng.sample(m.trail, min(len(m.trail), 3))  # M violates
            m.append_bot()
            prop.add_clause(tuple(-x for x in lits))
            clauses.append(tuple(-x for x in lits))
        elif kind == 3:                                     # Restart
            prop.reset()
            check.reset()
        elif kind == 4:                                     # next run
            # the learned clauses stay, and the blocking clause is added
            prop.reset()
            check.reset()
            atoms = rng.sample(range(n), rng.randint(1, n))
            blocking = tuple(a + 1 if rng.random() < 0.5 else -(a + 1)
                             for a in atoms)
            prop.add_clause(blocking)
            clauses.append(blocking)
        propagate()


def test_incremental_unfounded_check_along_random_searches():
    rng = random.Random(11)
    for seed in range(60):
        prog = oracle.random_program(seed).asp_abstraction()
        if prog.n_atoms:
            _search_steps(rng, prog, 40)
    for _ in range(150):
        _search_steps(rng, _looping_program(rng), 40)


def test_unfounded_check_requires_backjump_notice():
    prog = RegularProgram.build([("a", [], ["b"], []), ("b", [], ["a"], [])])
    m = Record(2)
    check = UnfoundedCheck(prog)
    m.append(1, decided=True)
    m.append(-2)
    check.supported(m)
    m.append_bot()
    m.backjump_last_decision()          # the check is not told
    with pytest.raises(ValueError):
        check.supported(m)
