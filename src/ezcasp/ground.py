"""Grounder and CA-program construction.

`ground` instantiates non-constraint variables bottom-up: substitutions are
driven by domain predicates (relations whose atoms are all definitively
derivable facts) and `Var = arithmetic` bindings, built-ins are evaluated and
eliminated, and positive atoms over non-factual relations are kept in the
instances regardless of derivability (they restrict only variables nothing
else binds).  Joins look up hash indexes on their bound argument positions,
a built-in runs as soon as its variables are bound, and the fact and
possible-atom fixpoints re-instantiate a rule only when a relation it reads
has grown; the ground rules come out in the order of the plain nested-loop
instantiation (`_plan_rule`'s reference order).

Ground terms are hash-consed: one `terms._Terms` table per `ground` call
builds every ground term and atom, so that equal ones are one object, and the
possible-atom tables, their join indexes and every cache of the grounder
and of translation key by identity.  A term with a variable or a range is
never interned.  Each ground atom is built once: a head once per binding
of its variables in a rule run, a body literal once per binding of its own
variables at emission; the grounder names none.  `ground` returns a
`GroundProgram`: the rules, an atom table that maps the identity of each
distinct atom to the atom, and the term table.  `expand_lists` replaces
intensional lists by their extensional representation, visiting only the
rules whose required head holds one; `to_ca_program` maps the ground
program to a CA program in one walk over its rules: constraint-variable
declarations, one constraint atom per distinct required atom with its
constraint expression, and the two linking denials per required atom; its
rule bodies leave out the atoms of facts where another literal stays.  The
term table memoizes the display text of each distinct subterm, and
translation builds the constraint expression of each distinct subterm
once.  Display names come from one printer, `display_term`.
`ground_stages` runs the whole pipeline and times its layers.

Safety: every variable of a rule must be bound by a positive non-builtin body
atom or, transitively, by a `Var = arithmetic` built-in over bound variables.
Choice-element and aggregate-item conditions bind their local variables by
matching established facts.

Everything is a pure transformation over immutable inputs, apart from a
ground program's term table, which each `ground` call makes afresh and the
later stages extend.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from . import fd
from .asp import AtomIds, RegularProgram, RuleP
from .lang import (
    AggregateLit, Atom, BuiltinLit, Choice, ChoiceElem, Compound, Const,
    EzProgram, IntensionalList, Lit, ListTerm, OpExpr, RangeTerm, Rule,
    SourcePos, Term, Var, CMP_OPS, GLOBAL_SIGNATURES, LOGIC_OPS,
    _subterms, parse,
)
from .terms import (GroundError, _Terms, canon_atom, canon_term,
                    display_atom, display_term, term_key)

__all__ = [
    "GroundError", "GroundProgram", "VariableDecl", "CAProgram",
    "ground", "expand_lists", "collect_var_decls", "to_ca_program",
    "ground_program", "ground_stages", "canon_term", "canon_atom",
    "term_key", "display_term", "display_atom", "DEFAULT_FD_RANGE",
]

DEFAULT_FD_RANGE = (0, 2 ** 20)

_MAX_POSSIBLE_ATOMS = 200_000
_MAX_CHOICE_COMBOS = 5_000

_LOGIC_FUNCTORS = set(LOGIC_OPS.values())


# ---------------------------------------------------------------------------
# Term utilities
# ---------------------------------------------------------------------------

def _is_ground(t: Term) -> bool:
    return not any(isinstance(s, Var) for s in _subterms(t))


def _vars_in(t: Term) -> Set[str]:
    return {s.name for s in _subterms(t) if isinstance(s, Var)}


def _has_op(t: Term) -> bool:
    """Whether t contains built-in arithmetic, whose evaluation may fail."""
    return any(isinstance(s, OpExpr) for s in _subterms(t))


def _int_of(terms: _Terms, t: Term, what: str,
            pos: Optional[SourcePos] = None,
            env: Optional[Dict[str, Term]] = None) -> int:
    t = terms.eval(t, pos, env)
    if isinstance(t, Const) and isinstance(t.value, int):
        return t.value
    raise GroundError(f"{what} must be an integer, got {display_term(t)}", pos)


def _atom_vars(a: Atom) -> Set[str]:
    return {s.name for t in a.args for s in _subterms(t) if isinstance(s, Var)}


def _match(terms: _Terms, pattern: Term, value: Term,
           env: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """Structural unification of a body pattern against an interned ground
    term.  A bound variable, whose value is interned too, matches its value
    if `_matchable` holds of it, and an arithmetic subterm is evaluated once
    its variables are bound."""
    if isinstance(pattern, Var):
        bound = env.get(pattern.name)
        if bound is not None:
            return env if bound is value and _matchable(bound) else None
        env = dict(env)
        env[pattern.name] = value
        return env
    if isinstance(pattern, OpExpr):
        if not _vars_in(pattern) <= env.keys():
            return None
        pattern = terms.eval(pattern, None, env)
    if isinstance(pattern, Const):
        return env if value.__class__ is Const and \
            pattern.value == value.value else None
    if isinstance(pattern, Compound) and isinstance(value, Compound):
        if pattern.functor != value.functor or len(pattern.args) != len(value.args):
            return None
        for p, v in zip(pattern.args, value.args):
            nxt = _match(terms, p, v, env)
            if nxt is None:
                return None
            env = nxt
        return env
    return None


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def _expand_head_ranges(terms: _Terms, a: Atom, pos: Optional[SourcePos],
                        env: Dict[str, Term]) -> List[Atom]:
    """Expand RangeTerm arguments of a head atom, ground under env, into
    instances, the table's atoms."""
    slots: List[Sequence[Term]] = []
    for t in a.args:
        t = terms.eval(t, pos, env)
        if isinstance(t, RangeTerm):
            lo = _int_of(terms, t.lo, "range bound", pos)
            hi = _int_of(terms, t.hi, "range bound", pos)
            slots.append([terms.const(v) for v in range(lo, hi + 1)])
        else:
            slots.append((t,))
    return [terms.atom(a.rel, combo) for combo in itertools.product(*slots)]


def _matchable(t: Term) -> bool:
    """Whether a bound pattern equal to t can match: `_match` unifies only
    constants and compounds of them."""
    if isinstance(t, Const):
        return True
    return isinstance(t, Compound) and all(_matchable(a) for a in t.args)


def _classify(b: BuiltinLit, bound: Set[str]):
    """A built-in as a test or a `Var = expr` binding, once evaluable."""
    lv, rv = _vars_in(b.lhs), _vars_in(b.rhs)
    if lv | rv <= bound:
        return ("test", b)
    if b.op == "=" and isinstance(b.lhs, Var) \
            and b.lhs.name not in bound and rv <= bound:
        return ("bind", b.lhs.name, b.rhs)
    if b.op == "=" and isinstance(b.rhs, Var) \
            and b.rhs.name not in bound and lv <= bound:
        return ("bind", b.rhs.name, b.lhs)
    return None


def _plan_rule(r: Rule, domain_rels: Set[Tuple[str, int]],
               facts_mode: bool = False) -> List[Tuple[str, object]]:
    """Order body elements so each is evaluable when reached.

    Substitutions are driven by domain predicates (relations whose atoms are
    all established facts) and `Var = arithmetic` bindings; a positive atom
    over a non-domain relation restricts the instantiation only when it still
    carries unbound variables (then it is matched against the possible
    atoms), matching the instantiation shown in the grounding examples where
    non-factual body atoms are kept regardless of derivability.  In
    facts_mode every positive atom must match an established fact.

    This is the reference order: every domain match first, then built-ins
    and the rest.  Negative literals and fully bound non-domain atoms do
    not restrict and get no step.  `_compile` derives the order that runs.
    """
    remaining = list(r.body)
    bound: Set[str] = set()
    steps: List[Tuple[str, object]] = []

    while remaining:
        progressed = False
        # 1) domain-predicate matches (facts restrict the substitution)
        for i, b in enumerate(remaining):
            if isinstance(b, Lit) and b.kind == "pos" and \
                    (facts_mode or
                     (b.atom.rel, len(b.atom.args)) in domain_rels):
                steps.append(("match_fact", b.atom))
                del remaining[i]
                bound |= _atom_vars(b.atom)
                progressed = True
                break
        if progressed:
            continue
        # 2) built-ins, negative literals and aggregates once bound
        for i, b in enumerate(remaining):
            if isinstance(b, BuiltinLit):
                step = _classify(b, bound)
                if step is not None:
                    steps.append(("builtin", b))
                    if step[0] == "bind":
                        bound.add(step[1])
                    progressed = True
            elif isinstance(b, Lit) and b.kind in ("not", "notnot"):
                progressed = _atom_vars(b.atom) <= bound
            elif isinstance(b, AggregateLit):
                outer: Set[str] = set()
                for bnd in (b.lower, b.upper):
                    if bnd is not None:
                        outer |= _vars_in(bnd)
                if outer <= bound:
                    steps.append(("agg", b))
                    progressed = True
            if progressed:
                del remaining[i]
                break
        if progressed:
            continue
        # 3) non-domain positive atoms: fully bound instances are kept
        #    without restricting; unbound variables fall back to matching
        #    the possible atoms
        for i, b in enumerate(remaining):
            if isinstance(b, Lit) and b.kind == "pos":
                if not _atom_vars(b.atom) <= bound:
                    steps.append(("match_possible", b.atom))
                    bound |= _atom_vars(b.atom)
                del remaining[i]
                progressed = True
                break
        if not progressed:
            loose = set()
            for b in remaining:
                if isinstance(b, Lit):
                    loose |= _atom_vars(b.atom)
                elif isinstance(b, BuiltinLit):
                    loose |= _vars_in(b.lhs) | _vars_in(b.rhs)
            offender = sorted(loose - bound)
            raise GroundError(
                f"unsafe rule: variable {offender[0] if offender else '?'} "
                f"cannot be bound", r.pos)

    head_vars: Set[str] = set()
    if isinstance(r.head, Atom):
        head_vars = _atom_vars(r.head)
    elif isinstance(r.head, Choice):
        for bnd in (r.head.lower, r.head.upper):
            if bnd is not None:
                head_vars |= _vars_in(bnd)
        for e in r.head.elems:
            cond_vars: Set[str] = set()
            for c in e.conds:
                cond_vars |= _atom_vars(c)
            # element variables not bound by the local conditions are global
            head_vars |= (_atom_vars(e.atom) - cond_vars)
    unsafe = head_vars - bound
    if unsafe:
        raise GroundError(f"unsafe rule: head variable {sorted(unsafe)[0]} "
                          f"cannot be bound", r.pos)
    return steps


class _Table:
    """The ground atoms of one relation in insertion order, each the
    `_Terms` table's object, with a hash index per tuple of bound argument
    positions that some join looks up, keyed by the identities of the
    arguments there.  Indexes are built on first use and kept up to date as
    atoms are added; an index bucket lists its atoms in insertion order."""

    __slots__ = ("atoms", "members", "indexes")

    def __init__(self) -> None:
        self.atoms: List[Atom] = []
        self.members: Set[int] = set()          # identities of the atoms
        self.indexes: Dict[Tuple[int, ...], Dict[tuple, List[Atom]]] = {}

    @staticmethod
    def _key(a: Atom, positions: Tuple[int, ...]) -> Optional[tuple]:
        key = [a.args[i] for i in positions]
        # an argument that no bound pattern can match is left unindexed
        return tuple(map(id, key)) if all(map(_matchable, key)) else None

    def add(self, a: Atom) -> None:
        self.atoms.append(a)
        self.members.add(id(a))
        for positions, index in self.indexes.items():
            key = self._key(a, positions)
            if key is not None:
                index.setdefault(key, []).append(a)

    def pop(self) -> None:
        """Undo the last `add`."""
        a = self.atoms.pop()
        self.members.discard(id(a))
        for positions, index in self.indexes.items():
            key = self._key(a, positions)
            if key is not None:
                index[key].pop()

    def lookup(self, positions: Tuple[int, ...], key: tuple) -> Sequence[Atom]:
        """The atoms whose arguments at positions are the terms whose
        identities are key."""
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for a in self.atoms:
                k = self._key(a, positions)
                if k is not None:
                    index.setdefault(k, []).append(a)
        return index.get(key, ())


class _GroundState:
    """The interned terms, the possible atoms and the established facts,
    one `_Table` per relation, plus a log of the additions of the current
    rule run, so that it can be undone."""

    def __init__(self, terms: _Terms) -> None:
        self.terms = terms
        self.possible: Dict[Tuple[str, int], _Table] = {}
        self.fact_atoms: Dict[Tuple[str, int], _Table] = {}
        self.count = 0                        # possible atoms
        self.log: List[Tuple[_Table, bool]] = []

    def table(self, rel: str, arity: int, fact: bool) -> _Table:
        tables = self.fact_atoms if fact else self.possible
        t = tables.get((rel, arity))
        if t is None:
            t = tables[(rel, arity)] = _Table()
        return t

    def add(self, a: Atom, fact: bool) -> None:
        """Add a ground atom, the table's object for it."""
        t = self.table(a.rel, len(a.args), False)
        if id(a) not in t.members:
            t.add(a)
            self.log.append((t, False))
            self.count += 1
            if self.count > _MAX_POSSIBLE_ATOMS:
                raise GroundError("grounding did not converge "
                                  "(possible-atom bound exceeded)")
        if fact:
            t = self.table(a.rel, len(a.args), True)
            if id(a) not in t.members:
                t.add(a)
                self.log.append((t, True))

    def rollback(self) -> None:
        """Undo every logged addition."""
        while self.log:
            t, fact = self.log.pop()
            t.pop()
            if not fact:
                self.count -= 1

    def contains(self, a: Atom, fact: bool) -> bool:
        """Whether the table's atom a is possible, or a fact."""
        t = (self.fact_atoms if fact else self.possible).get(
            (a.rel, len(a.args)))
        return t is not None and id(a) in t.members


def _may_fail(step: Tuple[str, object]) -> bool:
    """Whether evaluating a reference step can raise a GroundError."""
    kind, payload = step
    if kind in ("match_fact", "match_possible"):
        return any(_has_op(t) for t in payload.args)
    if kind == "builtin":
        return payload.op not in ("=", "!=") or \
            _has_op(payload.lhs) or _has_op(payload.rhs)
    return True                                   # aggregates


def _compile(steps: List[Tuple[str, object]], state: _GroundState,
             hoist: bool) -> list:
    """Executable steps for `_instantiate`.

    Without `hoist` this is the reference order, and every join scans its
    whole relation.  With it, a built-in runs as soon as its variables are
    bound, and each join looks up the argument positions bound by then.
    Built-ins only filter, so the substitutions come out in the same order.
    A built-in never moves ahead of a step that may fail: a tuple it would
    filter out must still reach the failing step.  Whatever the hoisted
    order fails on in addition, `_RulePlan.run` retries in the reference
    order.

    A `Var = expr` that the reference order tests after the join binding
    the variable becomes a binding ahead of that join (which makes the join
    a lookup) only when `expr` is arithmetic, as in `P1 = P - 1`: the join
    binds any value, lists included, and the test compares with `==`, while
    a lookup finds only the values `_match` can match, integers among them.
    """
    joined: Set[str] = set()          # variables a join binds first
    bound: Set[str] = set()
    for kind, payload in steps:
        if kind == "builtin":
            step = _classify(payload, bound)
            if step[0] == "bind":
                bound.add(step[1])
        elif kind != "agg":
            joined |= _atom_vars(payload) - bound
            bound |= _atom_vars(payload)

    def ready(step) -> bool:
        return step is not None and (
            step[0] == "test" or step[1] not in joined
            or isinstance(step[2], OpExpr))

    pending = list(steps)
    bound = set()
    out = []
    while pending:
        j = 0
        if hoist:
            for k, (kind, payload) in enumerate(pending):
                if k and _may_fail(pending[k - 1]):
                    break
                if kind == "builtin" and ready(_classify(payload, bound)):
                    j = k
                    break
        kind, payload = pending.pop(j)
        if kind == "builtin":
            step = _classify(payload, bound)
            if step[0] == "bind":
                bound.add(step[1])
            out.append(step)
        elif kind == "agg":
            out.append((kind, payload, [_compile_conditions(item.conds, state)
                                        for item in payload.items]))
        else:
            atom: Atom = payload
            positions = tuple(i for i, t in enumerate(atom.args)
                              if hoist and _vars_in(t) <= bound)
            rest = [i for i in range(len(atom.args)) if i not in positions]
            if any(_has_op(atom.args[i]) for i in rest):
                # keep the left-to-right evaluation of the reference match
                positions, rest = (), list(range(len(atom.args)))
            keys = tuple(atom.args[i] for i in positions)
            rest_pats = tuple((i, atom.args[i]) for i in rest)
            table = state.table(atom.rel, len(atom.args),
                                kind == "match_fact")
            out.append(("match", table, positions, keys, rest_pats))
            bound |= _atom_vars(atom)
    return out


def _compile_conditions(conds: Sequence[Atom], state: _GroundState) -> list:
    """`_walk` steps that join conds with the facts, each by a full scan in
    condition order: an index lookup would evaluate a bound arithmetic
    argument even on an empty table."""
    return _compile([("match_fact", c) for c in conds], state, hoist=False)


def _test_builtin(terms: _Terms, b: BuiltinLit, env: Dict[str, Term],
                  pos: Optional[SourcePos]) -> bool:
    # the operands are interned: a built-in holds neither a range nor an
    # unbound variable
    lhs = terms.eval(b.lhs, pos, env)
    rhs = terms.eval(b.rhs, pos, env)
    op = b.op
    if isinstance(lhs, Const) and isinstance(lhs.value, int) and \
            isinstance(rhs, Const) and isinstance(rhs.value, int):
        a, c = lhs.value, rhs.value
    else:
        if op in ("=", "!="):
            return (lhs is rhs) if op == "=" else (lhs is not rhs)
        a, c = term_key(lhs), term_key(rhs)     # total order on ground terms
    return fd._CMP_FUN[CMP_OPS[op]](a, c)


def _instantiate(steps: list, state: _GroundState,
                 pos: Optional[SourcePos]):
    """Yield every substitution admitted by the compiled steps.  A join
    sees its relation as it was when the join was reached."""
    return _walk(steps, 0, {}, state, pos)


def _walk(steps: list, i: int, env: Dict[str, Term], state: _GroundState,
          pos: Optional[SourcePos]):
    """The substitutions extending env that steps i, i+1, ... admit."""
    if i == len(steps):
        yield env
        return
    step = steps[i]
    kind = step[0]
    i += 1
    if kind == "match":
        _, table, positions, keys, rest = step
        terms = state.terms
        cands = table.lookup(positions, tuple(
            [id(terms.eval(t, None, env)) for t in keys])) \
            if positions else table.atoms
        for cand in itertools.islice(cands, len(cands)):
            nxt = env
            for j, p in rest:
                nxt = _match(terms, p, cand.args[j], nxt)
                if nxt is None:
                    break
            if nxt is not None:
                yield from _walk(steps, i, nxt, state, pos)
    elif kind == "bind":
        nxt = dict(env)
        nxt[step[1]] = state.terms.eval(step[2], pos, env)
        yield from _walk(steps, i, nxt, state, pos)
    elif kind == "test":
        if _test_builtin(state.terms, step[1], env, pos):
            yield from _walk(steps, i, env, state, pos)
    elif kind == "agg":
        if _eval_aggregate(step[1], step[2], env, state, pos):
            yield from _walk(steps, i, env, state, pos)
    else:
        raise AssertionError(kind)


def _eval_aggregate(agg: AggregateLit, conds: List[list],
                    env: Dict[str, Term], state: _GroundState,
                    pos: Optional[SourcePos]) -> bool:
    """Whether agg holds under env; `conds` are its items' conditions."""
    terms = state.terms
    total = 0
    for item, steps in zip(agg.items, conds):
        for ienv in _walk(steps, 0, env, state, pos):
            args = [terms.eval(t, pos, ienv) for t in item.atom.args]
            if not all(map(_is_ground, args)):
                raise GroundError("aggregate member not ground", pos)
            a = terms.atom(item.atom.rel, args)
            if state.contains(a, fact=True):
                w = 1 if item.weight is None else \
                    _int_of(terms, item.weight, "aggregate weight", pos, ienv)
                total += w
            elif state.contains(a, fact=False):
                raise GroundError(
                    f"aggregate over non-factual atom {canon_atom(a)}", pos)
    if agg.lower is not None and \
            total < _int_of(terms, agg.lower, "aggregate bound", pos, env):
        return False
    if agg.upper is not None and \
            total > _int_of(terms, agg.upper, "aggregate bound", pos, env):
        return False
    return True


def _head_atoms(r: Rule) -> List[Atom]:
    """The atoms of a rule's head: the atom, or the atoms of the choice
    elements; none for a denial."""
    if isinstance(r.head, Atom):
        return [r.head]
    if isinstance(r.head, Choice):
        return [e.atom for e in r.head.elems]
    return []


def _conditions(r: Rule) -> List[Atom]:
    """The conditions of a rule's choice elements, then those of its
    aggregate items, in order."""
    conds = [c for e in r.head.elems for c in e.conds] \
        if isinstance(r.head, Choice) else []
    return conds + [c for b in r.body if isinstance(b, AggregateLit)
                    for item in b.items for c in item.conds]


class _RulePlan:
    """A rule with its compiled steps, the tables its instantiation reads,
    and the substitutions of its latest run, each with the head instances
    that it added."""

    def __init__(self, rule: Rule, steps: List[Tuple[str, object]],
                 state: _GroundState) -> None:
        self.rule = rule
        self.steps = steps
        self.fast = _compile(steps, state, hoist=True)
        self.elem_conds = [_compile_conditions(e.conds, state)
                           for e in rule.head.elems] \
            if isinstance(rule.head, Choice) else []
        reads = [s[1] for s in self.fast if s[0] == "match"]
        for b in rule.body:
            if isinstance(b, AggregateLit):
                reads.extend(state.table(item.atom.rel, len(item.atom.args),
                                         False) for item in b.items)
        reads.extend(state.table(c.rel, len(c.args), True)
                     for c in _conditions(rule))
        self.reads = reads
        self.seen: Optional[Tuple[int, ...]] = None
        self.head_vars = tuple(sorted(_atom_vars(rule.head))) \
            if isinstance(rule.head, Atom) else ()
        self.required = isinstance(rule.head, Atom) and \
            rule.head.rel == "required"
        self.has_list = state.terms.has_list
        self.lists = self.required and any(map(self.has_list,
                                               rule.head.args))
        self.instances: List[Tuple[Dict[str, Term], List[Atom]]] = []

    def holds_list(self, env: Dict[str, Term]) -> bool:
        """Whether the required head instance under env holds an
        intensional list: the head does, or a variable is bound to a term
        that does.  For a required rule only."""
        return self.lists or any(self.has_list(env[v])
                                 for v in self.head_vars)

    def dirty(self) -> bool:
        """Whether a table this rule reads gained atoms since its last run
        began; if not, running it again would give the same substitutions."""
        return self.seen != tuple(len(t.atoms) for t in self.reads)

    def run(self, state: _GroundState, fact: bool) -> None:
        """Instantiate the rule and add its head instances to the state."""
        self.seen = tuple(len(t.atoms) for t in self.reads)
        state.log.clear()
        try:
            self.instances = self._instances(self.fast, state, fact)
        except GroundError:
            # The hoisted order may fail on a tuple that a join placed
            # earlier in the reference order filters out: undo this run and
            # redo it in the reference order, which fails exactly where the
            # reference grounder fails.
            state.rollback()
            self.instances = self._instances(
                _compile(self.steps, state, hoist=False), state, fact)

    def _instances(self, steps: list, state: _GroundState, fact: bool):
        built: Dict[tuple, List[Atom]] = {}
        return [(env, self._add_heads(env, state, fact, built))
                for env in _instantiate(steps, state, self.rule.pos)]

    def _add_heads(self, env: Dict[str, Term], state: _GroundState,
                   fact: bool, built: Dict[tuple, List[Atom]]
                   ) -> List[Atom]:
        """Add the head instances of one substitution; returns them, choice
        elements in element and condition order.  An atom head is built
        once per binding of its variables in a run (`built`, keyed by the
        identities of the bound terms, which are interned); adding it again
        would change nothing."""
        rule = self.rule
        terms = state.terms
        if isinstance(rule.head, Atom):
            binding = tuple(map(id, map(env.get, self.head_vars)))
            out = built.get(binding)
            if out is None:
                out = built[binding] = _expand_head_ranges(
                    terms, rule.head, rule.pos, env)
                for inst in out:
                    state.add(inst, fact)
            return out
        out = []
        if isinstance(rule.head, Choice):
            for elem, conds in zip(rule.head.elems, self.elem_conds):
                for cenv in _walk(conds, 0, env, state, rule.pos):
                    for inst in _expand_head_ranges(terms, elem.atom,
                                                    rule.pos, cenv):
                        state.add(inst, fact)
                        out.append(inst)
        return out


def _fixpoint(plans: List[_RulePlan], state: _GroundState,
              fact: bool) -> None:
    """Run the rules round after round, in program order, until a round adds
    nothing; a rule runs only when a table it reads has grown."""
    ran = True
    while ran:
        ran = False
        for rp in plans:
            if rp.dirty():
                rp.run(state, fact)
                ran = True


def _reject_required_in_bodies(p: EzProgram) -> None:
    for r in p.rules:
        for b in r.body:
            if isinstance(b, Lit) and b.atom.rel == "required":
                raise GroundError(
                    "required-atoms may only occur in rule heads", r.pos)
            if isinstance(b, AggregateLit):
                for item in b.items:
                    if item.atom.rel == "required" or any(
                            c.rel == "required" for c in item.conds):
                        raise GroundError(
                            "required-atoms may only occur in rule heads",
                            r.pos)
        if isinstance(r.head, Choice):
            for e in r.head.elems:
                if e.atom.rel == "required":
                    raise GroundError(
                        "required not allowed in choice heads", r.pos)
                if any(c.rel == "required" for c in e.conds):
                    raise GroundError(
                        "required-atoms may only occur in rule heads", r.pos)


def _domain_relations(p: EzProgram) -> Set[Tuple[str, int]]:
    """Relations whose atoms are all derivable definitively: at least one
    defining rule, no choice heads, no negation, and positive bodies over
    domain relations only.  Relations never occurring in a head have no
    extension and do not restrict instantiation."""
    heads_of: Dict[Tuple[str, int], List[Rule]] = {}
    for r in p.rules:
        for h in _head_atoms(r):
            key = (h.rel, len(h.args))
            heads_of.setdefault(key, []).append(r)
    domain = set(heads_of)
    changed = True
    while changed:
        changed = False
        for key, rules in heads_of.items():
            if key not in domain:
                continue
            for r in rules:
                bad = isinstance(r.head, Choice)
                for b in r.body:
                    if isinstance(b, Lit):
                        if b.kind != "pos":
                            bad = True
                        elif (b.atom.rel, len(b.atom.args)) not in domain:
                            bad = True
                    elif isinstance(b, AggregateLit):
                        bad = True
                if bad:
                    domain.discard(key)
                    changed = True
                    break
    return domain


def _compute_facts(p: EzProgram, state: _GroundState,
                   domain_rels: Set[Tuple[str, int]]) -> Dict[int, _RulePlan]:
    """Least fixpoint of definite rules: plain atom head, no negation, no
    aggregates, positive body atoms matched against established facts.
    Returns the plans of the definite rules by rule index."""
    definite: Dict[int, _RulePlan] = {}
    for i, r in enumerate(p.rules):
        if not isinstance(r.head, Atom):
            continue
        if any(isinstance(b, Lit) and b.kind in ("not", "notnot")
               for b in r.body):
            continue
        if any(isinstance(b, AggregateLit) for b in r.body):
            continue
        definite[i] = _RulePlan(r, _plan_rule(r, domain_rels,
                                              facts_mode=True), state)
    _fixpoint(list(definite.values()), state, fact=True)
    return definite


_KINDS = ("pos", "not", "notnot")          # body literal kinds, by code


@dataclass(frozen=True)
class GroundProgram(EzProgram):
    """A ground program with its atom table, as `ground` emits it.

    `atoms` maps the identity of each distinct atom to the atom, in order
    of first occurrence, and numbers none: `to_ca_program` numbers the atoms
    it reaches.  Every atom in `rules` is the table's object, so an atom's
    identity is its key.  `lists` holds the index of each rule whose
    required head holds an intensional list.  `terms` holds the interned
    terms and their memos; a program built otherwise gets an empty table,
    and its terms are then interned where a stage needs them to be.
    Programs compare by their rules, as any `EzProgram`."""
    atoms: Dict[int, Atom] = field(compare=False)
    lists: Tuple[int, ...] = field(compare=False)
    terms: _Terms = field(default_factory=_Terms, compare=False, repr=False)


def _no_variables(bound: tuple) -> tuple:
    """The binding of a literal without variables."""
    return ()


def ground(p: EzProgram) -> GroundProgram:
    """Bottom-up instantiation with indexed joins; built-ins evaluated and
    eliminated.

    Established facts are computed first, then the possible atoms, each as
    a fixpoint in which a rule is instantiated again only when a relation
    it reads has gained atoms.  A definite rule over domain relations runs
    in the first pass only.  The ground rules are emitted from each rule's
    last instantiation, each body literal built and named once per binding
    of its variables.  Substitutions are restricted by domain predicates
    (and by non-factual atoms only where they bind otherwise-unbound
    variables); emitted rules keep their instantiated bodies intact.  Every
    ground term and atom is built through one `_Terms` table, so equal ones
    are one object.  Output rules contain only ground atoms and ground
    not/not-not literals, and each distinct atom is entered in the atom
    table once; choice heads keep their (now integer) bounds with expanded
    elements.  Intensional lists are left untouched (see
    expand_lists); the program lists the rules whose required head holds
    one, from the rule's head or the terms its variables are bound to.
    """
    _reject_required_in_bodies(p)
    domain_rels = _domain_relations(p)

    # choice-element and aggregate-item conditions must be factual
    for r in p.rules:
        for c in _conditions(r):
            if (c.rel, len(c.args)) not in domain_rels:
                raise GroundError(
                    f"condition over non-factual relation {c.rel}/"
                    f"{len(c.args)}", r.pos)

    terms = _Terms()
    state = _GroundState(terms)
    definite = _compute_facts(p, state, domain_rels)

    # A definite rule whose positive body is over domain relations has the
    # same plan in both passes and reads only fact tables, which are final
    # now: its last facts-pass run stands, heads included (a fact is also
    # a possible atom).
    plans = [definite[i] if i in definite and all(
                 (b.atom.rel, len(b.atom.args)) in domain_rels
                 for b in r.body if isinstance(b, Lit))
             else _RulePlan(r, _plan_rule(r, domain_rels), state)
             for i, r in enumerate(p.rules)]
    _fixpoint(plans, state, fact=False)

    # emission: each rule's last run saw the final tables.  A body literal
    # is built once per binding of its own variables, and each distinct
    # ground atom is one table entry, keyed by its identity.
    rules: List[Rule] = []
    lists: List[int] = []
    atoms: Dict[int, Atom] = {}
    # one literal object per atom and kind, under the key 3 * id + kind code
    shared: Dict[int, Lit] = {}
    seen: Set[tuple] = set()
    for rp in plans:
        rule = rp.rule
        atom_head = isinstance(rule.head, Atom)
        # A body literal is built once per binding of its own variables,
        # keyed by the identities of the bound terms, which are interned and
        # read once per substitution.
        body_lits = [b for b in rule.body if isinstance(b, Lit)]
        names = sorted(set().union(*[_atom_vars(b.atom) for b in body_lits]))
        where = {v: i for i, v in enumerate(names)}
        lits = []
        for b in body_lits:
            own = sorted(where[v] for v in _atom_vars(b.atom))
            lits.append((b.kind, _KINDS.index(b.kind), b.atom,
                         itemgetter(*own) if own else _no_variables, {}))
        for env, insts in rp.instances:
            if atom_head and not insts:
                continue                    # an empty range in the head
            bound = tuple(map(id, map(env.get, names)))
            keys: List[int] = []
            for kind, code, atom, binding_of, memo in lits:
                binding = binding_of(bound)
                k = memo.get(binding)
                if k is None:
                    a = terms.atom(atom.rel, [terms.eval(t, rule.pos, env)
                                              for t in atom.args])
                    atoms.setdefault(id(a), a)
                    k = memo[binding] = 3 * id(a) + code
                    if k not in shared:
                        shared[k] = Lit(kind, a)
                keys.append(k)
            # (head, key telling it apart)
            heads: List[Tuple[Union[None, Atom, Choice], object]] = []
            if rule.head is None:
                heads.append((None, None))
            elif atom_head:
                for inst in insts:
                    atoms.setdefault(id(inst), inst)
                    heads.append((inst, id(inst)))
            else:
                ch = rule.head
                elems: Dict[int, ChoiceElem] = {}
                for inst in insts:
                    atoms.setdefault(id(inst), inst)
                    if id(inst) not in elems:
                        elems[id(inst)] = ChoiceElem(inst, ())
                lower = None if ch.lower is None else terms.const(_int_of(
                    terms, ch.lower, "choice bound", rule.pos, env))
                upper = None if ch.upper is None else terms.const(_int_of(
                    terms, ch.upper, "choice bound", rule.pos, env))
                if lower is not None and upper is not None and \
                        lower.value > upper.value:
                    raise GroundError("choice bounds violate lower <= upper",
                                      rule.pos)
                heads.append((Choice(lower, tuple(elems.values()), upper),
                              (lower, frozenset(elems), upper)))
            # rules are told apart by their atoms, source position aside
            body_key = tuple(keys)
            ground_body = tuple(map(shared.__getitem__, keys))
            for h, hk in heads:
                key = (hk, body_key)
                if key not in seen:
                    seen.add(key)
                    if rp.required and rp.holds_list(env):
                        lists.append(len(rules))
                    rules.append(Rule(h, ground_body, rule.pos))
    return GroundProgram(tuple(rules), atoms, tuple(lists), terms)


# ---------------------------------------------------------------------------
# Intensional-list expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableDecl:
    """A cspvar declaration: the declaring ground atom, the variable term,
    and its optional range."""
    atom: str
    var_term: Term
    lo: Optional[int]
    hi: Optional[int]


def collect_var_decls(p: EzProgram) -> List[VariableDecl]:
    """All cspvar declarations in head position, in program order."""
    terms = p.terms if isinstance(p, GroundProgram) else _Terms()
    decls: List[VariableDecl] = []
    seen: Set[str] = set()
    for r in p.rules:
        for h in _head_atoms(r):
            if h.rel != "cspvar":
                continue
            if isinstance(r.head, Choice):
                raise GroundError("cspvar not allowed in choice heads", r.pos)
            vt = h.args[0]
            if isinstance(vt, Const) and isinstance(vt.value, int):
                raise GroundError("constraint variable cannot be an integer",
                                  r.pos)
            lo = hi = None
            key = terms.show_atom(h)
            if len(h.args) == 3:
                lo = _int_of(terms, h.args[1], "cspvar lower bound", r.pos)
                hi = _int_of(terms, h.args[2], "cspvar upper bound", r.pos)
                if lo > hi:
                    raise GroundError(
                        f"cspvar range violates lower <= upper: {key}", r.pos)
            if key not in seen:
                seen.add(key)
                decls.append(VariableDecl(key, vt, lo, hi))
    return decls


def expand_lists(p: GroundProgram, decls: Sequence[VariableDecl]
                 ) -> Tuple[GroundProgram, List[str]]:
    """Replace intensional lists in required-arguments by extensional lists.

    ``[f(t..)/k]`` over variables expands to the lexicographically ordered
    declared variables with functor f, arity k and the given prefix;
    ``[r(t..)/k]`` over a relation expands to the k-th arguments of the
    matching facts in lexicographic fact order.  Only the rules in
    `p.lists` are visited; the lists and each expanded required atom are
    built through the program's term table, the atom is entered in a copy
    of the atom table, and every other rule object is kept.  Returns the
    rewritten program (`p` itself when no rule holds a list) and a list of
    warnings for empty expansions.
    """
    if not p.lists:
        return p, []
    terms = p.terms
    expander = _ListExpander(p, decls)
    rules = list(p.rules)
    atoms = dict(p.atoms)
    for k in p.lists:
        r = rules[k]
        args = expander.terms(r.head.args, r.pos)
        if args is not r.head.args:
            a = terms.atom("required", args)
            atoms.setdefault(id(a), a)
            rules[k] = Rule(a, r.body, r.pos)
    return (GroundProgram(tuple(rules), atoms, (), terms),
            expander.warnings)


class _ListExpander:
    """The extensional lists of the intensional lists in the terms of one
    ground program (see `expand_lists`), with the warnings for empty
    expansions.  Members are interned in the program's term table, so that
    they are told apart by identity."""

    def __init__(self, p: GroundProgram,
                 decls: Sequence[VariableDecl]) -> None:
        self.program = p
        self.table = table = p.terms
        self.var_terms = [table.eval(d.var_term) for d in decls]
        self.var_functors = {(t.functor, len(t.args)) for t in self.var_terms
                             if isinstance(t, Compound)}
        self.facts_by_rel: Dict[Tuple[str, int], List[Atom]] = {}
        self.rels: Set[Tuple[str, int]] = set()
        self.warnings: List[str] = []

    def scan_relations(self) -> None:
        """Fill rels and facts_by_rel, on the first list over a relation.
        The relations are those of the atom table, which holds exactly the
        atoms of the rules."""
        p = self.program
        self.rels = {(a.rel, len(a.args)) for a in p.atoms.values()}
        for r in p.rules:
            h = r.head
            if not r.body and h.__class__ is Atom:
                self.facts_by_rel.setdefault((h.rel, len(h.args)),
                                             []).append(h)

    def term(self, t: Term, pos: Optional[SourcePos]) -> Term:
        """t with its intensional lists expanded; t itself if it holds
        none."""
        if isinstance(t, IntensionalList):
            if not all(_is_ground(a) for a in t.prefix):
                raise GroundError("intensional list prefix not ground", pos)
            prefix = tuple([self.table.eval(a, pos) for a in t.prefix])
            if (t.name, t.arity) in self.var_functors:
                members = [v for v in self.var_terms
                           if isinstance(v, Compound) and v.functor == t.name
                           and len(v.args) == t.arity
                           and v.args[:len(prefix)] == prefix]
                members = sorted({id(m): m for m in members}.values(),
                                 key=term_key)
                if not members:
                    self.warnings.append(
                        f"empty expansion of [{t.name}/{t.arity}]")
                return self.table.list(members)
            if not self.rels:
                self.scan_relations()
            if (t.name, t.arity) in self.rels:
                facts = [a for a in self.facts_by_rel.get((t.name, t.arity),
                                                          [])
                         if a.args[:len(prefix)] == prefix]
                facts = sorted({id(a): a for a in facts}.values(),
                               key=lambda a: tuple(term_key(x)
                                                   for x in a.args))
                if not facts:
                    self.warnings.append(
                        f"empty expansion of [{t.name}/{t.arity}]")
                return self.table.list([a.args[t.arity - 1] for a in facts])
            raise GroundError(
                f"intensional list over undeclared functor/relation "
                f"{t.name}/{t.arity}", pos)
        if isinstance(t, Compound):
            args = self.terms(t.args, pos)
            return t if args is t.args else \
                self.table.compound(t.functor, args)
        if isinstance(t, ListTerm):
            if any(isinstance(a, IntensionalList) for a in t.items):
                raise GroundError("nested intensional list", pos)
            items = self.terms(t.items, pos)
            return t if items is t.items else self.table.list(items)
        return t

    def terms(self, ts: tuple, pos: Optional[SourcePos]) -> tuple:
        """The terms expanded; `ts` itself when none holds a list."""
        out = tuple(self.term(a, pos) for a in ts)
        return ts if all(x is y for x, y in zip(out, ts)) else out


# ---------------------------------------------------------------------------
# CA programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CADecl:
    """Variable declaration at the CA level; atom None = unconditional."""
    atom: Optional[int]
    var: str
    lo: Optional[int]
    hi: Optional[int]


class CAProgram:
    """A program with constraint atoms: regular part, constraint alphabet,
    atom-to-constraint map, integer domain, and variable declarations.  The
    names of its constraint atoms are `suppressed` in printed models, and
    `warnings` starts empty."""

    def __init__(self, pi: RegularProgram, constraint_atoms: Sequence[str],
                 gamma: Dict[str, object],
                 domain: Tuple[int, int] = DEFAULT_FD_RANGE,
                 var_decls: Sequence[CADecl] = ()):
        self.pi = pi
        # each atom once, however many of `constraint_atoms` name it
        self.constraint_order: List[int] = list(dict.fromkeys(
            pi.index[a] for a in constraint_atoms))
        self.constraint_set: FrozenSet[int] = frozenset(self.constraint_order)
        self.gamma: Dict[int, object] = {pi.index[a]: g
                                         for a, g in gamma.items()}
        self.domain = domain
        self.var_decls: Tuple[CADecl, ...] = tuple(var_decls)
        self.suppressed = frozenset(constraint_atoms)
        self.warnings: List[str] = []
        # seconds per front-end layer, which `ground_stages` fills in
        self.stage_s: Dict[str, float] = {}
        heads = {r.head for r in pi.rules}
        for cid in self.constraint_order:
            if cid in heads:
                raise ValueError(
                    f"constraint atom {pi.names[cid]} occurs in a head")
        if set(self.gamma) != set(self.constraint_order):
            raise ValueError("gamma must be defined on exactly the "
                             "constraint alphabet")

    @property
    def n_atoms(self) -> int:
        return self.pi.n_atoms

    def asp_abstraction(self) -> RegularProgram:
        extra = [RuleP(c, (), (), (c,)) for c in self.constraint_order]
        return self.pi.extended(extra)

    def with_extra_denials(self, denials: Sequence) -> "CAProgram":
        """Same program with denials appended to the regular part."""
        clone = copy.copy(self)
        clone.pi = self.pi.extended(denials)
        return clone

    def __repr__(self) -> str:
        return (f"CAProgram({self.pi.n_atoms} atoms, "
                f"{len(self.constraint_order)} constraint atoms, "
                f"D={self.domain[0]}..{self.domain[1]})")


class _Gamma:
    """The constraint expressions of the required-arguments of one
    translation.  Each distinct subterm, interned, is built once: the memos
    key by identity, as does `declared`, which maps each declared variable
    term to its reference."""

    def __init__(self, terms: _Terms, declared: Dict[int, "fd.VarRef"]):
        self.terms = terms
        self.declared = declared
        self.constraints: Dict[int, object] = {}
        self.ariths: Dict[int, object] = {}

    def gamma(self, required: Dict[int, Rule]) -> Dict[int, object]:
        """The constraint expression of each required atom's argument, by
        the atom's key."""
        return {key: self.constraint(r.head.args[0])
                for key, r in required.items()}

    def constraint(self, x: Term):
        """The constraint expression of a ground required-argument term."""
        c = self.constraints.get(id(x))
        if c is None:
            c = self.constraints[id(x)] = self._constraint(x)
        return c

    def _constraint(self, x: Term):
        if not isinstance(x, Compound):
            raise GroundError(f"not a constraint: {display_term(x)}")
        f = x.functor
        if f in fd._CMP_FUN:
            if len(x.args) != 2:
                raise GroundError(f"arity error in comparison {f}")
            return fd.Cmp(f, self.arith(x.args[0]), self.arith(x.args[1]))
        if f in _LOGIC_FUNCTORS:
            want = 1 if f == "not" else 2
            if len(x.args) != want:
                raise GroundError(f"arity error in connective {f}")
            return fd.BoolExpr(f, tuple([self.constraint(a)
                                         for a in x.args]))
        kinds = GLOBAL_SIGNATURES.get(f)
        if kinds is not None:
            if len(x.args) != len(kinds):
                raise GroundError(f"arity error in global constraint {f}")
            args = tuple([_GLOBAL_ARGS[k](self, a)
                          for k, a in zip(kinds, x.args)])
            if f == "cumulative" and any(r < 0 for r in args[2]):
                # fd's compulsory-part profile assumes that use only adds up
                raise GroundError(f"cumulative resources must be "
                                  f"nonnegative, got {min(args[2])}")
            return fd.Global(f, args)
        raise GroundError(f"not a constraint: {display_term(x)}")

    def arith(self, x: Term):
        """The arithmetic expression of a ground term."""
        e = self.ariths.get(id(x))
        if e is None:
            e = self.ariths[id(x)] = self._arith(x)
        return e

    def _arith(self, x: Term):
        if isinstance(x, Const) and isinstance(x.value, int):
            return fd.IntConst(x.value)
        if isinstance(x, Compound) and x.functor in fd._ARITH_FUN:
            n = 1 if x.functor == "neg" else 2
            if len(x.args) != n:
                raise GroundError(f"arity error in {x.functor}")
            return fd.Arith(x.functor, tuple([self.arith(a)
                                              for a in x.args]))
        # a term that is not interned is found by its interned copy
        ref = self.declared.get(id(x)) or \
            self.declared.get(id(self.terms.eval(x)))
        if ref is not None:
            return ref
        raise GroundError(
            f"required-argument references undeclared constraint variable "
            f"{display_term(x)}")

    def var_list(self, x: Term) -> tuple:
        if not isinstance(x, ListTerm):
            raise GroundError("expected a list argument")
        return tuple([self.arith(i) for i in x.items])

    def int_list(self, x: Term) -> tuple:
        if not isinstance(x, ListTerm):
            raise GroundError("expected a list argument")
        return tuple([_int_of(self.terms, i, "list element")
                      for i in x.items])

    def cmp_name(self, x: Term) -> str:
        if isinstance(x, Const) and isinstance(x.value, str):
            if x.value in fd.CMP_NAMES:
                return x.value
            if x.value in CMP_OPS:
                return CMP_OPS[x.value]
        raise GroundError(f"expected a comparison operator, got "
                          f"{display_term(x)}")


# the builder of each argument kind of `GLOBAL_SIGNATURES`
_GLOBAL_ARGS = {"term": _Gamma.arith, "term_list": _Gamma.var_list,
                "int_list": _Gamma.int_list, "comparison": _Gamma.cmp_name}


def to_ca_program(p: GroundProgram, decls: Sequence[VariableDecl],
                  default_range: Tuple[int, int] = DEFAULT_FD_RANGE
                  ) -> CAProgram:
    """Translate a ground, list-expanded program into a CA program.

    One walk over the rules checks their heads (the `cspdomain` fact, the
    distinct required atoms) and turns each into propositional rules over
    atom ids: a choice rule into one rule per element and the denials of its
    bounds.  The atoms are keyed by identity, as in `p.atoms`: the program's
    table makes one object per distinct atom, so the distinct required atoms
    are told apart without naming their arguments.  An `asp.AtomIds` table
    numbers the keys in order of first occurrence and names each once, as
    `display_atom` does, from the display texts that the program's term
    table memoizes per distinct subterm; atoms shown alike are one atom, and
    a choice rule's bounds count its elements after that merge.  The
    constraint expressions are built after the walk, each distinct subterm
    once (`_Gamma`), and then the two linking denials of each required atom.
    In a program whose terms are not interned, a declared variable is found
    through its interned copy.

    The walk filters each ground rule's positive body once: a literal whose
    atom is a fact (the head of a body-less atom rule) is left out of every
    propositional rule that keeps another body literal.  With `f.` in the
    program, `h :- f, B` and `h :- B` are strongly equivalent, so every
    answer set is kept, and translation, clausification and the search walk
    fewer literals.  A rule that would be left with an empty body keeps its
    body whole, so no rule loses its body; `p` itself, and so
    `--dump-ground`, is unchanged.  An atom's id moves only where the
    program uses a fact before it states it.
    """
    terms, atoms = p.terms, p.atoms
    # the key of each distinct required atom, with its first rule, and the
    # display name of its argument; its constraint atom has the key ~key
    required: Dict[int, Rule] = {}
    shown: Dict[int, str] = {}

    def name(key: int) -> str:
        if key < 0:
            return f"|{shown[~key]}|"
        a = atoms[key]
        if a.rel == "required":
            s = shown[key] = terms.show(a.args[0])[0]
            return f"required({s})"
        return terms.show_atom(a)

    # constraint and ez atoms live in reserved name spaces (|..| and
    # required(..)), so the three alphabets are disjoint by construction
    ids = AtomIds(name)
    rule = ids.rule
    out: List[RuleP] = []
    domain_args = []
    # a choice too large to compile is reported after the other errors
    too_large: Optional[GroundError] = None
    # the atoms of facts, which every answer set holds
    facts = {id(r.head) for r in p.rules if r.is_fact}
    for r in p.rules:
        pos: List[int] = []
        neg: List[int] = []
        nn: List[int] = []
        for b in r.body:
            kind = b.kind
            if kind == "pos":
                k = id(b.atom)
                if k not in facts:
                    pos.append(k)
            else:
                (neg if kind == "not" else nn).append(id(b.atom))
        # `pos` leaves out the atoms of facts; `whole` is the positive body
        # of a rule with no other literal, kept whole if it holds facts alone
        whole = pos if pos or neg or nn else [id(b.atom) for b in r.body]
        head = r.head
        if head is None:
            out.append(rule(None, whole, neg, nn))
            continue
        if head.__class__ is Atom:
            if head.rel == "required":
                required.setdefault(id(head), r)
            elif head.rel == "cspdomain":
                if not r.is_fact:
                    raise GroundError("cspdomain must be a fact", r.pos)
                domain_args.append((head.args[0], r.pos))
            out.append(rule(id(head), whole, neg, nn))
            continue
        elems = []
        for e in head.elems:
            if e.atom.rel == "cspdomain":
                raise GroundError("cspdomain must be a fact", r.pos)
            k = id(e.atom)
            out.append(rule(k, pos, neg, nn + [k]))
            elems.append(k)
        if too_large is None:
            try:
                out.extend(_bound_denials(r, elems, ids, pos, neg, nn,
                                          whole))
            except GroundError as exc:
                too_large = exc

    # every atom is named: the display texts are needed no more
    terms.shown.clear()
    if len(domain_args) > 1:
        raise GroundError("duplicate cspdomain fact")
    if not domain_args:
        if any(a.reserved for a in p.atoms.values()):
            raise GroundError("missing cspdomain fact")
    else:
        arg, dpos = domain_args[0]
        if not (isinstance(arg, Const) and arg.value in ("fd", "q", "r")):
            raise GroundError("cspdomain argument must be fd, q or r", dpos)
        if arg.value in ("q", "r"):
            raise GroundError(f"unsupported domain {arg.value!r} "
                              f"(only fd is supported)", dpos)

    # constraint alphabet: one atom per distinct required-argument
    for r in required.values():
        if isinstance(r.head.args[0], IntensionalList):
            raise GroundError("unexpanded intensional list", r.pos)
    var_names = [canon_term(d.var_term) for d in decls]
    gamma = _Gamma(terms, {id(terms.eval(d.var_term)): fd.VarRef(v)
                           for d, v in zip(decls, var_names)}
                   ).gamma(required)
    if too_large is not None:
        raise too_large

    for k in required:
        out.append(rule(None, [k], [~k]))
        out.append(rule(None, [~k], [k]))
    pi = ids.program(out)

    # a declaration atom that never materialized in a rule is always active
    ca_decls = [CADecl(pi.index.get(d.atom), v, d.lo, d.hi)
                for d, v in zip(decls, var_names)]
    # required atoms shown alike are one constraint atom, whose constraint
    # is the first one's
    betas: Dict[str, int] = {}
    for k in required:
        betas.setdefault(f"|{shown[k]}|", k)
    return CAProgram(pi, list(betas),
                     {b: gamma[k] for b, k in betas.items()},
                     domain=default_range,
                     var_decls=ca_decls)


def _bound_denials(r: Rule, elems: List[int], ids: AtomIds,
                   pos: List[int], neg: List[int], nn: List[int],
                   whole: List[int]) -> Iterator[RuleP]:
    """The denials of the bounds of choice rule r, over the keys of its
    body (`pos`, `neg`, `nn`) and of its elements (`elems`, already in
    `ids`).  `pos` omits the atoms of facts, and `whole` is the positive
    body of a denial without elements, as `to_ca_program` keeps it.  The
    bounds count atoms, so elements shown alike count once."""
    first: Dict[int, int] = {}
    for k in elems:
        first.setdefault(ids[k], k)
    elems = list(first.values())
    n = len(elems)
    lo = None if r.head.lower is None else r.head.lower.value
    hi = None if r.head.upper is None else r.head.upper.value
    if lo is not None and lo > 0:
        k = n - lo + 1
        if k <= 0:
            yield ids.rule(None, whole, neg, nn)
        else:
            _check_combos(n, k, r.pos)
            for subset in itertools.combinations(elems, k):
                yield ids.rule(None, pos, neg + list(subset), nn)
    if hi is not None and hi < n:
        k = hi + 1
        if k <= 0:                       # a bound below zero denies the body
            yield ids.rule(None, whole, neg, nn)
        else:
            _check_combos(n, k, r.pos)
            for subset in itertools.combinations(elems, k):
                yield ids.rule(None, pos + list(subset), neg, nn)


def _check_combos(n: int, k: int, pos: Optional[SourcePos]) -> None:
    import math
    if math.comb(n, k) > _MAX_CHOICE_COMBOS:
        raise GroundError("choice bounds too large to compile", pos)


def ground_stages(source: Union[str, EzProgram],
                  default_range: Tuple[int, int] = DEFAULT_FD_RANGE
                  ) -> Tuple[EzProgram, CAProgram]:
    """Full pipeline: parse (if text; a program is taken as `parse`
    returns it), ground, expand lists, translate to a CA program.  Returns
    the ground, list-expanded program (what `--dump-ground` prints) and the
    CA program, which carries the expansion warnings and, in `stage_s`, the
    seconds spent in each layer: `parse_s` (parse), `ground_s` (ground)
    and `translate_s` (collect_var_decls, expand_lists and
    to_ca_program)."""
    clock = time.perf_counter
    start = clock()
    p = parse(source) if isinstance(source, str) else source
    parse_s = clock() - start
    # grounding would merge the duplicates before to_ca_program sees them
    n_domain_facts = sum(
        1 for r in p.rules
        if isinstance(r.head, Atom) and r.head.rel == "cspdomain")
    if n_domain_facts > 1:
        raise GroundError("duplicate cspdomain fact")
    grounding = clock()
    g = ground(p)
    translating = clock()
    decls = collect_var_decls(g)
    expanded, warnings = expand_lists(g, decls)
    ca = to_ca_program(expanded, decls, default_range)
    end = clock()
    ca.warnings.extend(warnings)
    ca.stage_s = {"parse_s": parse_s,
                  "ground_s": translating - grounding,
                  "translate_s": end - translating}
    return expanded, ca


def ground_program(source: Union[str, EzProgram],
                   default_range: Tuple[int, int] = DEFAULT_FD_RANGE
                   ) -> CAProgram:
    """The CA program of `ground_stages`."""
    return ground_stages(source, default_range)[1]
