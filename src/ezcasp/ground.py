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
instantiation (`_plan_rule`'s reference order).  Each ground atom is built
and named once: a head once per binding of its variables in a rule run, a
body literal once per binding of its own variables at emission.  `ground`
returns a `GroundProgram`: the rules plus an atom table, in which each
distinct atom is one object with an id in insertion order, entered under
the canonical name the grounder computed.  `expand_lists` replaces
intensional lists by their extensional representation, visiting only the
rules whose required head holds one; `to_ca_program` maps the ground
program to a CA program in one walk over its rules, without naming a
required-argument again: constraint-variable declarations, one constraint
atom per distinct required atom with its constraint expression, and the two
linking denials per required atom.  Display names come from one printer,
`display_term`.  `ground_stages` runs the whole pipeline.

Safety: every variable of a rule must be bound by a positive non-builtin body
atom or, transitively, by a `Var = arithmetic` built-in over bound variables.
Choice-element and aggregate-item conditions bind their local variables by
matching established facts.

Everything is a pure transformation over immutable inputs.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from . import fd
from .asp import AtomIds, RegularProgram, RuleP
from .lang import (
    AggregateLit, Atom, BuiltinLit, Choice, ChoiceElem, Compound, Const,
    EzProgram, IntensionalList, Lit, ListTerm, OpExpr, RangeTerm, Rule,
    SourcePos, Term, Var, ARITH_OPS, CANON_FUNCTORS, CMP_OPS,
    GLOBAL_SIGNATURES, LOGIC_OPS, _print_term, _subterms, display_op,
    needs_parens, parse, preprocess,
)

__all__ = [
    "GroundError", "GroundProgram", "VariableDecl", "CAProgram",
    "ground", "expand_lists", "collect_var_decls", "to_ca_program",
    "ground_program", "ground_stages", "canon_term", "canon_atom",
    "term_key", "display_term", "display_atom", "DEFAULT_FD_RANGE",
]

DEFAULT_FD_RANGE = (0, 2 ** 20)

_MAX_POSSIBLE_ATOMS = 200_000
_MAX_CHOICE_COMBOS = 5_000

_ARITH_FUNCTORS = set(ARITH_OPS.values()) | {"neg"}
_CMP_FUNCTORS = set(CMP_OPS.values())
_LOGIC_FUNCTORS = set(LOGIC_OPS.values())


class GroundError(Exception):
    def __init__(self, msg: str, pos: Optional[SourcePos] = None):
        self.pos = pos
        super().__init__(f"{pos}: {msg}" if pos else msg)


# ---------------------------------------------------------------------------
# Ground-term utilities
# ---------------------------------------------------------------------------

def term_key(t: Term):
    """Lexicographic term order: integers numerically, then symbolic
    constants by name, then compounds by (functor, arity, args)."""
    if isinstance(t, Const):
        if isinstance(t.value, int):
            return (0, t.value)
        return (1, t.value)
    if isinstance(t, Compound):
        return (2, t.functor, len(t.args), tuple(term_key(a) for a in t.args))
    if isinstance(t, ListTerm):
        return (3, len(t.items), tuple(term_key(a) for a in t.items))
    raise GroundError(f"no order for non-ground term {t!r}")


def canon_term(t: Term) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Compound):
        return f"{t.functor}({','.join([canon_term(a) for a in t.args])})"
    if isinstance(t, ListTerm):
        return f"[{','.join([canon_term(a) for a in t.items])}]"
    if isinstance(t, IntensionalList):
        inner = t.name
        if t.prefix:
            inner += f"({','.join(canon_term(a) for a in t.prefix)})"
        return f"[{inner}/{t.arity}]"
    raise GroundError(f"cannot intern non-ground term {t!r}")


def canon_atom(a: Atom) -> str:
    if not a.args:
        return a.rel
    return f"{a.rel}({','.join([canon_term(t) for t in a.args])})"


_SHOWN_OPS = {f: display_op(f) for f in CANON_FUNCTORS}   # read per node


def _shown(t: Term) -> Tuple[str, Optional[str], Optional[int]]:
    """The display text of t, in one pass: canonical operator functors are
    shown as surface operators, parenthesized as the parser reads them, and
    `neg` of an integer as the negative integer.  Also returns the operator
    of t if it is shown as a binary operation, and its value if it is shown
    as an integer."""
    if isinstance(t, Const):
        v = t.value
        return str(v), None, v if isinstance(v, int) else None
    if isinstance(t, Compound):
        f, args = t.functor, t.args
        op = _SHOWN_OPS.get(f)
        if op is not None and len(args) == 2:
            lhs, lop, _ = _shown(args[0])
            rhs, rop, _ = _shown(args[1])
            if lop is not None and needs_parens(lop, op, "left"):
                lhs = f"({lhs})"
            if rop is not None and needs_parens(rop, op, "right"):
                rhs = f"({rhs})"
            return f"{lhs} {op} {rhs}", op, None
        if len(args) == 1 and f in ("neg", "not"):
            arg, aop, v = _shown(args[0])
            if f == "neg" and v is not None:
                return str(-v), None, -v
            if aop is not None and needs_parens(aop, op, "right"):
                arg = f"({arg})"
            return op + arg, None, None
        return f"{f}({','.join([_shown(a)[0] for a in args])})", None, None
    if isinstance(t, ListTerm):
        return f"[{','.join([_shown(a)[0] for a in t.items])}]", None, None
    # no canonical functor is shown inside any other term
    op = t.op if isinstance(t, OpExpr) and len(t.args) == 2 else None
    return _print_term(t), op, None


def display_term(t: Term) -> str:
    """How a term is shown to users: as `_shown` prints it."""
    return _shown(t)[0]


def display_atom(a: Atom) -> str:
    if not a.args:
        return a.rel
    return f"{a.rel}({','.join([_shown(t)[0] for t in a.args])})"


def _is_ground(t: Term) -> bool:
    return not any(isinstance(s, Var) for s in _subterms(t))


def _vars_in(t: Term) -> Set[str]:
    return {s.name for s in _subterms(t) if isinstance(s, Var)}


def _has_op(t: Term) -> bool:
    """Whether t contains built-in arithmetic, whose evaluation may fail."""
    return any(isinstance(s, OpExpr) for s in _subterms(t))


def _eval_term(t: Term, pos: Optional[SourcePos] = None,
               env: Optional[Dict[str, Term]] = None) -> Term:
    """Evaluate built-in arithmetic in a ground term; OpExpr nodes must
    reduce to integers.  With `env`, the variables of t are replaced by
    their bound values, which are ground and evaluated already; a variable
    that `env` does not bind is left as it is."""
    if isinstance(t, Var):
        return t if env is None else env.get(t.name, t)
    if isinstance(t, OpExpr):
        args = [_eval_term(a, pos, env) for a in t.args]
        vals = []
        for a in args:
            if not (isinstance(a, Const) and isinstance(a.value, int)):
                raise GroundError(f"arithmetic on non-integer term "
                                  f"{display_term(a)}", pos)
            vals.append(a.value)
        if t.op == "-" and len(vals) == 1:
            return Const(-vals[0])
        a, b = vals[0], vals[1]
        if t.op == "+":
            return Const(a + b)
        if t.op == "-":
            return Const(a - b)
        if t.op == "*":
            return Const(a * b)
        if t.op == "/":
            if b == 0:
                raise GroundError("division by zero in built-in arithmetic",
                                  pos)
            q = abs(a) // abs(b)
            return Const(q if (a >= 0) == (b >= 0) else -q)
        raise GroundError(f"unknown arithmetic operator {t.op!r}", pos)
    if isinstance(t, Compound):
        return Compound(t.functor,
                        tuple([_eval_term(a, pos, env) for a in t.args]))
    if isinstance(t, ListTerm):
        return ListTerm(tuple([_eval_term(a, pos, env) for a in t.items]))
    if isinstance(t, IntensionalList):
        return IntensionalList(
            t.name, tuple(_eval_term(a, pos, env) for a in t.prefix),
            t.arity)
    if isinstance(t, RangeTerm):
        return RangeTerm(_eval_term(t.lo, pos, env),
                         _eval_term(t.hi, pos, env))
    return t


def _int_of(t: Term, what: str, pos: Optional[SourcePos] = None,
            env: Optional[Dict[str, Term]] = None) -> int:
    t = _eval_term(t, pos, env)
    if isinstance(t, Const) and isinstance(t.value, int):
        return t.value
    raise GroundError(f"{what} must be an integer, got {display_term(t)}", pos)


def _atom_vars(a: Atom) -> Set[str]:
    return {s.name for t in a.args for s in _subterms(t) if isinstance(s, Var)}


def _match(pattern: Term, value: Term, env: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """Structural unification of a body pattern against a ground term.
    A bound variable matches its value if `_matchable` holds of it, and an
    arithmetic subterm is evaluated once its variables are bound."""
    if isinstance(pattern, Var):
        bound = env.get(pattern.name)
        if bound is not None:
            return env if bound == value and _matchable(bound) else None
        env = dict(env)
        env[pattern.name] = value
        return env
    if isinstance(pattern, OpExpr):
        if not _vars_in(pattern) <= env.keys():
            return None
        pattern = _eval_term(pattern, None, env)
    if isinstance(pattern, Const):
        return env if pattern == value else None
    if isinstance(pattern, Compound) and isinstance(value, Compound):
        if pattern.functor != value.functor or len(pattern.args) != len(value.args):
            return None
        for p, v in zip(pattern.args, value.args):
            nxt = _match(p, v, env)
            if nxt is None:
                return None
            env = nxt
        return env
    return None


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def _expand_head_ranges(a: Atom, pos: Optional[SourcePos],
                        env: Dict[str, Term]) -> List[Atom]:
    """Expand RangeTerm arguments of a head atom, ground under env, into
    instances."""
    slots: List[List[Term]] = []
    for t in a.args:
        t = _eval_term(t, pos, env)
        if isinstance(t, RangeTerm):
            lo = _int_of(t.lo, "range bound", pos)
            hi = _int_of(t.hi, "range bound", pos)
            slots.append([Const(v) for v in range(lo, hi + 1)])
        else:
            slots.append([t])
    return [Atom(a.rel, combo) for combo in itertools.product(*slots)]


def _has_list(t: Term) -> bool:
    """Whether t holds an intensional list where `expand_lists` looks: at
    the top or inside compounds and lists."""
    if isinstance(t, IntensionalList):
        return True
    if isinstance(t, Compound):
        return any(_has_list(a) for a in t.args)
    if isinstance(t, ListTerm):
        return any(_has_list(a) for a in t.items)
    return False


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
    """The ground atoms of one relation in insertion order, with a hash
    index per tuple of bound argument positions that some join looks up.
    Indexes are built on first use and kept up to date as atoms are added;
    an index bucket lists its atoms in insertion order."""

    __slots__ = ("atoms", "names", "indexes")

    def __init__(self) -> None:
        self.atoms: List[Atom] = []
        self.names: Set[str] = set()          # canonical names of the atoms
        self.indexes: Dict[Tuple[int, ...], Dict[tuple, List[Atom]]] = {}

    @staticmethod
    def _key(a: Atom, positions: Tuple[int, ...]) -> Optional[tuple]:
        key = tuple(a.args[i] for i in positions)
        # an argument that no bound pattern can match is left unindexed
        return key if all(_matchable(t) for t in key) else None

    def add(self, a: Atom, name: str) -> None:
        self.atoms.append(a)
        self.names.add(name)
        for positions, index in self.indexes.items():
            key = self._key(a, positions)
            if key is not None:
                index.setdefault(key, []).append(a)

    def pop(self, name: str) -> None:
        """Undo the last `add`."""
        a = self.atoms.pop()
        self.names.discard(name)
        for positions, index in self.indexes.items():
            key = self._key(a, positions)
            if key is not None:
                index[key].pop()

    def lookup(self, positions: Tuple[int, ...], key: tuple) -> Sequence[Atom]:
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for a in self.atoms:
                k = self._key(a, positions)
                if k is not None:
                    index.setdefault(k, []).append(a)
        return index.get(key, ())


class _GroundState:
    """Possible atoms and established facts, one `_Table` per relation, plus
    a log of the additions of the current rule run, so that it can be
    undone."""

    def __init__(self) -> None:
        self.possible: Dict[Tuple[str, int], _Table] = {}
        self.fact_atoms: Dict[Tuple[str, int], _Table] = {}
        self.count = 0                        # possible atoms
        self.log: List[Tuple[_Table, str, bool]] = []

    def table(self, rel: str, arity: int, fact: bool) -> _Table:
        tables = self.fact_atoms if fact else self.possible
        t = tables.get((rel, arity))
        if t is None:
            t = tables[(rel, arity)] = _Table()
        return t

    def add(self, a: Atom, fact: bool) -> str:
        """Add a ground atom; returns its canonical name."""
        c = canon_atom(a)
        t = self.table(a.rel, len(a.args), False)
        if c not in t.names:
            t.add(a, c)
            self.log.append((t, c, False))
            self.count += 1
            if self.count > _MAX_POSSIBLE_ATOMS:
                raise GroundError("grounding did not converge "
                                  "(possible-atom bound exceeded)")
        if fact:
            t = self.table(a.rel, len(a.args), True)
            if c not in t.names:
                t.add(a, c)
                self.log.append((t, c, True))
        return c

    def rollback(self) -> None:
        """Undo every logged addition."""
        while self.log:
            t, c, fact = self.log.pop()
            t.pop(c)
            if not fact:
                self.count -= 1

    def contains(self, a: Atom, fact: bool) -> bool:
        t = (self.fact_atoms if fact else self.possible).get(
            (a.rel, len(a.args)))
        return t is not None and canon_atom(a) in t.names


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


def _test_builtin(b: BuiltinLit, env: Dict[str, Term],
                  pos: Optional[SourcePos]) -> bool:
    lhs = _eval_term(b.lhs, pos, env)
    rhs = _eval_term(b.rhs, pos, env)
    op = b.op
    if isinstance(lhs, Const) and isinstance(lhs.value, int) and \
            isinstance(rhs, Const) and isinstance(rhs.value, int):
        a, c = lhs.value, rhs.value
    else:
        if op in ("=", "!="):
            return (lhs == rhs) if op == "=" else (lhs != rhs)
        a, c = term_key(lhs), term_key(rhs)     # total order on ground terms
    return {"=": a == c, "!=": a != c, "<": a < c, "<=": a <= c,
            "=<": a <= c, ">": a > c, ">=": a >= c}[op]


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
        cands = table.lookup(positions, tuple(
            _eval_term(t, None, env) for t in keys)) \
            if positions else table.atoms
        for cand in itertools.islice(cands, len(cands)):
            nxt = env
            for j, p in rest:
                nxt = _match(p, cand.args[j], nxt)
                if nxt is None:
                    break
            if nxt is not None:
                yield from _walk(steps, i, nxt, state, pos)
    elif kind == "bind":
        nxt = dict(env)
        nxt[step[1]] = _eval_term(step[2], pos, env)
        yield from _walk(steps, i, nxt, state, pos)
    elif kind == "test":
        if _test_builtin(step[1], env, pos):
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
    total = 0
    for item, steps in zip(agg.items, conds):
        for ienv in _walk(steps, 0, env, state, pos):
            a = Atom(item.atom.rel,
                     tuple(_eval_term(t, pos, ienv) for t in item.atom.args))
            if not _is_ground_atom(a):
                raise GroundError("aggregate member not ground", pos)
            if state.contains(a, fact=True):
                w = 1 if item.weight is None else \
                    _int_of(item.weight, "aggregate weight", pos, ienv)
                total += w
            elif state.contains(a, fact=False):
                raise GroundError(
                    f"aggregate over non-factual atom {canon_atom(a)}", pos)
    if agg.lower is not None and \
            total < _int_of(agg.lower, "aggregate bound", pos, env):
        return False
    if agg.upper is not None and \
            total > _int_of(agg.upper, "aggregate bound", pos, env):
        return False
    return True


def _is_ground_atom(a: Atom) -> bool:
    return all(_is_ground(t) for t in a.args)


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
    (and their canonical names) that it added."""

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
        self.lists = self.required and any(_has_list(t)
                                           for t in rule.head.args)
        self.instances: List[Tuple[Dict[str, Term],
                                   List[Tuple[Atom, str]]]] = []

    def holds_list(self, env: Dict[str, Term]) -> bool:
        """Whether the required head instance under env holds an
        intensional list: the head does, or a variable is bound to a term
        that does.  For a required rule only."""
        return self.lists or any(_has_list(env[v]) for v in self.head_vars)

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
        built: Dict[tuple, List[Tuple[Atom, str]]] = {}
        return [(env, self._add_heads(env, state, fact, built))
                for env in _instantiate(steps, state, self.rule.pos)]

    def _add_heads(self, env: Dict[str, Term], state: _GroundState,
                   fact: bool, built: Dict[tuple, List[Tuple[Atom, str]]]
                   ) -> List[Tuple[Atom, str]]:
        """Add the head instances of one substitution; returns them with
        their canonical names, choice elements in element and condition
        order.  An atom head is built once per binding of its variables in
        a run (`built`); adding it again would change nothing."""
        rule = self.rule
        if isinstance(rule.head, Atom):
            binding = tuple(map(env.get, self.head_vars))
            out = built.get(binding)
            if out is None:
                out = built[binding] = [
                    (inst, state.add(inst, fact))
                    for inst in _expand_head_ranges(rule.head, rule.pos, env)]
            return out
        out: List[Tuple[Atom, str]] = []
        if isinstance(rule.head, Choice):
            for elem, conds in zip(rule.head.elems, self.elem_conds):
                for cenv in _walk(conds, 0, env, state, rule.pos):
                    for inst in _expand_head_ranges(elem.atom, rule.pos,
                                                    cenv):
                        out.append((inst, state.add(inst, fact)))
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

    `atoms` lists the distinct atoms in order of insertion, an atom's id
    being its position, and `index` maps the canonical name of each to its
    id.  Every atom in `rules` is the table's object for its name, so an
    atom's identity is its key.  `lists` holds the index of each rule whose
    required head holds an intensional list.  Programs compare by their
    rules, as any `EzProgram`."""
    atoms: Tuple[Atom, ...] = field(compare=False)
    index: Dict[str, int] = field(compare=False)
    lists: Tuple[int, ...] = field(compare=False)


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
    variables); emitted rules keep their instantiated bodies intact.  Output
    rules contain only ground atoms and ground not/not-not literals, one
    object per distinct atom, which is entered in the atom table under its
    canonical name; choice heads keep their (now integer) bounds with
    expanded elements.  Intensional lists are left untouched (see
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

    state = _GroundState()
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
    # is built and named once per binding of its own variables, and each
    # distinct ground atom is one object in the output and one table entry.
    rules: List[Rule] = []
    lists: List[int] = []
    atoms: List[Atom] = []
    index: Dict[str, int] = {}

    def enter(a: Atom, name: str) -> int:
        """The id of the atom named `name`; a new atom is entered as a."""
        i = index.get(name)
        if i is None:
            i = index[name] = len(atoms)
            atoms.append(a)
        return i

    # one literal object per atom and kind, under the key 3 * id + kind code
    shared: Dict[int, Lit] = {}
    seen: Set[tuple] = set()
    for rp in plans:
        rule = rp.rule
        atom_head = isinstance(rule.head, Atom)
        # A body literal is built once per binding of its own variables,
        # keyed by the identities of the bound terms, which are read once
        # per substitution.  The rule's substitutions keep the terms alive,
        # and hashing them as terms would walk each one; equal terms that
        # are distinct objects build the atom again, which is then entered
        # once, by its name.
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
                    a = Atom(atom.rel, tuple(_eval_term(t, rule.pos, env)
                                             for t in atom.args))
                    k = memo[binding] = 3 * enter(a, canon_atom(a)) + code
                    if k not in shared:
                        shared[k] = Lit(kind, atoms[k // 3])
                keys.append(k)
            # (head, key telling it apart)
            heads: List[Tuple[Union[None, Atom, Choice], object]] = []
            if rule.head is None:
                heads.append((None, None))
            elif atom_head:
                for inst, c in insts:
                    i = enter(inst, c)
                    heads.append((atoms[i], i))
            else:
                ch = rule.head
                elems: Dict[int, ChoiceElem] = {}
                for inst, c in insts:
                    i = enter(inst, c)
                    if i not in elems:
                        elems[i] = ChoiceElem(atoms[i], ())
                lower = None if ch.lower is None else \
                    Const(_int_of(ch.lower, "choice bound", rule.pos, env))
                upper = None if ch.upper is None else \
                    Const(_int_of(ch.upper, "choice bound", rule.pos, env))
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
    return GroundProgram(tuple(rules), tuple(atoms), index, tuple(lists))


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

    @property
    def var(self) -> str:
        return canon_term(self.var_term)


def collect_var_decls(p: EzProgram) -> List[VariableDecl]:
    """All cspvar declarations in head position, in program order."""
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
            if len(h.args) == 3:
                lo = _int_of(h.args[1], "cspvar lower bound", r.pos)
                hi = _int_of(h.args[2], "cspvar upper bound", r.pos)
                if lo > hi:
                    raise GroundError(
                        f"cspvar range violates lower <= upper: "
                        f"{display_atom(h)}", r.pos)
            key = display_atom(h)
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
    `p.lists` are visited; each expanded required atom is named and
    entered in a copy of the atom table, and every other rule object is
    kept.  Returns the rewritten program (`p` itself when no rule holds a
    list) and a list of warnings for empty expansions.
    """
    if not p.lists:
        return p, []
    expander = _ListExpander(p.rules, decls)
    rules = list(p.rules)
    atoms, index = list(p.atoms), dict(p.index)
    for k in p.lists:
        r = rules[k]
        args = expander.terms(r.head.args, r.pos)
        if args is not r.head.args:
            a = Atom("required", args)
            i = index.setdefault(canon_atom(a), len(atoms))
            if i == len(atoms):
                atoms.append(a)
            rules[k] = Rule(atoms[i], r.body, r.pos)
    return (GroundProgram(tuple(rules), tuple(atoms), index, ()),
            expander.warnings)


class _ListExpander:
    """The extensional lists of the intensional lists in the terms of one
    ground program (see `expand_lists`), with the warnings for empty
    expansions."""

    def __init__(self, rules: Sequence[Rule],
                 decls: Sequence[VariableDecl]) -> None:
        self.rules = rules
        self.var_terms = [d.var_term for d in decls]
        self.var_functors = {(t.functor, len(t.args)) for t in self.var_terms
                             if isinstance(t, Compound)}
        self.facts_by_rel: Dict[Tuple[str, int], List[Atom]] = {}
        self.rels: Set[Tuple[str, int]] = set()
        self.warnings: List[str] = []

    def scan_relations(self) -> None:
        """Fill rels and facts_by_rel, on the first list over a relation."""
        for r in self.rules:
            for h in _head_atoms(r):
                self.rels.add((h.rel, len(h.args)))
                if r.is_fact:
                    self.facts_by_rel.setdefault((h.rel, len(h.args)),
                                                 []).append(h)
            for b in r.body:
                if isinstance(b, Lit):
                    self.rels.add((b.atom.rel, len(b.atom.args)))

    def term(self, t: Term, pos: Optional[SourcePos]) -> Term:
        """t with its intensional lists expanded; t itself if it holds
        none."""
        if isinstance(t, IntensionalList):
            if not all(_is_ground(a) for a in t.prefix):
                raise GroundError("intensional list prefix not ground", pos)
            prefix = tuple(_eval_term(a, pos) for a in t.prefix)
            if (t.name, t.arity) in self.var_functors:
                members = [v for v in self.var_terms
                           if isinstance(v, Compound) and v.functor == t.name
                           and len(v.args) == t.arity
                           and v.args[:len(prefix)] == prefix]
                members = sorted({canon_term(m): m for m in members}.values(),
                                 key=term_key)
                if not members:
                    self.warnings.append(
                        f"empty expansion of [{t.name}/{t.arity}]")
                return ListTerm(tuple(members))
            if not self.rels:
                self.scan_relations()
            if (t.name, t.arity) in self.rels:
                facts = [a for a in self.facts_by_rel.get((t.name, t.arity),
                                                          [])
                         if a.args[:len(prefix)] == prefix]
                facts = sorted({canon_atom(a): a for a in facts}.values(),
                               key=lambda a: tuple(term_key(x)
                                                   for x in a.args))
                if not facts:
                    self.warnings.append(
                        f"empty expansion of [{t.name}/{t.arity}]")
                return ListTerm(tuple(a.args[t.arity - 1] for a in facts))
            raise GroundError(
                f"intensional list over undeclared functor/relation "
                f"{t.name}/{t.arity}", pos)
        if isinstance(t, Compound):
            args = self.terms(t.args, pos)
            return t if args is t.args else Compound(t.functor, args)
        if isinstance(t, ListTerm):
            if any(isinstance(a, IntensionalList) for a in t.items):
                raise GroundError("nested intensional list", pos)
            items = self.terms(t.items, pos)
            return t if items is t.items else ListTerm(items)
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
    atom-to-constraint map, integer domain, and variable declarations."""

    def __init__(self, pi: RegularProgram, constraint_atoms: Sequence[str],
                 gamma: Dict[str, object],
                 domain: Tuple[int, int] = DEFAULT_FD_RANGE,
                 var_decls: Sequence[CADecl] = (),
                 suppressed: FrozenSet[str] = frozenset(),
                 warnings: Sequence[str] = ()):
        self.pi = pi
        self.constraint_order: List[int] = [pi.index[a] for a in constraint_atoms]
        self.constraint_set: FrozenSet[int] = frozenset(self.constraint_order)
        self.gamma: Dict[int, object] = {pi.index[a]: g
                                         for a, g in gamma.items()}
        self.domain = domain
        self.var_decls: Tuple[CADecl, ...] = tuple(var_decls)
        self.suppressed = suppressed          # atom names hidden in ez output
        self.warnings = list(warnings)
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


def _build_constraint_expr(x: Term, declared: Dict[Term, "fd.VarRef"],
                           pos: Optional[SourcePos]):
    """Map a ground required-argument term to a constraint expression;
    `declared` maps each declared variable term to its reference."""
    if not isinstance(x, Compound):
        raise GroundError(f"not a constraint: {display_term(x)}", pos)
    f = x.functor
    if f in _CMP_FUNCTORS:
        if len(x.args) != 2:
            raise GroundError(f"arity error in comparison {f}", pos)
        return fd.Cmp(f, _arith(x.args[0], declared, pos),
                      _arith(x.args[1], declared, pos))
    if f in _LOGIC_FUNCTORS:
        want = 1 if f == "not" else 2
        if len(x.args) != want:
            raise GroundError(f"arity error in connective {f}", pos)
        return fd.BoolExpr(f, tuple(_build_constraint_expr(a, declared, pos)
                                    for a in x.args))
    kinds = GLOBAL_SIGNATURES.get(f)
    if kinds is not None:
        if len(x.args) != len(kinds):
            raise GroundError(f"arity error in global constraint {f}", pos)
        args = tuple(_GLOBAL_ARGS[k](a, declared, pos)
                     for k, a in zip(kinds, x.args))
        if f == "cumulative" and any(r < 0 for r in args[2]):
            # fd's compulsory-part profile assumes that use only adds up
            raise GroundError(f"cumulative resources must be nonnegative, "
                              f"got {min(args[2])}", pos)
        return fd.Global(f, args)
    raise GroundError(f"not a constraint: {display_term(x)}", pos)


def _arith(x: Term, declared: Dict[Term, "fd.VarRef"],
           pos: Optional[SourcePos]):
    """The arithmetic expression of a ground term."""
    if isinstance(x, Const) and isinstance(x.value, int):
        return fd.IntConst(x.value)
    if isinstance(x, Compound) and x.functor in _ARITH_FUNCTORS:
        n = 1 if x.functor == "neg" else 2
        if len(x.args) != n:
            raise GroundError(f"arity error in {x.functor}", pos)
        return fd.Arith(x.functor, tuple(_arith(a, declared, pos)
                                         for a in x.args))
    ref = declared.get(x)
    if ref is not None:
        return ref
    raise GroundError(
        f"required-argument references undeclared constraint variable "
        f"{display_term(x)}", pos)


def _var_list(x: Term, declared: Dict[Term, "fd.VarRef"],
              pos: Optional[SourcePos]) -> tuple:
    if not isinstance(x, ListTerm):
        raise GroundError("expected a list argument", pos)
    return tuple(_arith(i, declared, pos) for i in x.items)


def _int_list(x: Term, declared: Dict[Term, "fd.VarRef"],
              pos: Optional[SourcePos]) -> tuple:
    if not isinstance(x, ListTerm):
        raise GroundError("expected a list argument", pos)
    return tuple(_int_of(i, "list element", pos) for i in x.items)


def _cmp_name(x: Term, declared: Dict[Term, "fd.VarRef"],
              pos: Optional[SourcePos]) -> str:
    if isinstance(x, Const) and isinstance(x.value, str):
        if x.value in fd.CMP_NAMES:
            return x.value
        if x.value in CMP_OPS:
            return CMP_OPS[x.value]
    raise GroundError(f"expected a comparison operator, got "
                      f"{display_term(x)}", pos)


# the builder of each argument kind of `GLOBAL_SIGNATURES`
_GLOBAL_ARGS = {"term": _arith, "term_list": _var_list,
                "int_list": _int_list, "comparison": _cmp_name}


def to_ca_program(p: GroundProgram, decls: Sequence[VariableDecl],
                  default_range: Tuple[int, int] = DEFAULT_FD_RANGE
                  ) -> CAProgram:
    """Translate a ground, list-expanded program into a CA program.

    One walk over the rules checks their heads (the `cspdomain` fact, the
    distinct required atoms) and turns each into propositional rules over
    atom ids: a choice rule into one rule per element and the denials of
    its bounds.  The atoms are keyed by identity, which the program's table
    makes one object per canonical name, so the distinct required atoms
    are told apart without naming their arguments again.  An
    `asp.AtomIds` table numbers the keys in order of first occurrence and
    names each once, with `display_atom`; atoms shown alike are one atom,
    and a choice rule's bounds count its elements after that merge.  The
    constraint expressions are built after the walk, and then the two
    linking denials of each required atom.
    """
    atoms = {id(a): a for a in p.atoms}
    # the key of each distinct required atom, with its first rule, and the
    # display name of its argument; its constraint atom has the key ~key
    required: Dict[int, Rule] = {}
    shown: Dict[int, str] = {}

    def name(key: int) -> str:
        if key < 0:
            return f"|{shown[~key]}|"
        a = atoms[key]
        if a.rel == "required":
            s = shown[key] = display_term(a.args[0])
            return f"required({s})"
        return display_atom(a)

    # constraint and ez atoms live in reserved name spaces (|..| and
    # required(..)), so the three alphabets are disjoint by construction
    ids = AtomIds(name)
    rule = ids.rule
    out: List[RuleP] = []
    domain_args = []
    # a choice too large to compile is reported after the other errors
    too_large: Optional[GroundError] = None
    for r in p.rules:
        pos: List[int] = []
        neg: List[int] = []
        nn: List[int] = []
        for b in r.body:
            kind = b.kind
            (pos if kind == "pos" else neg if kind == "not" else nn).append(
                id(b.atom))
        head = r.head
        if head is None:
            out.append(rule(None, pos, neg, nn))
            continue
        if head.__class__ is Atom:
            if head.rel == "required":
                required.setdefault(id(head), r)
            elif head.rel == "cspdomain":
                if not r.is_fact:
                    raise GroundError("cspdomain must be a fact", r.pos)
                domain_args.append((head.args[0], r.pos))
            out.append(rule(id(head), pos, neg, nn))
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
                out.extend(_bound_denials(r, elems, ids, pos, neg, nn))
            except GroundError as exc:
                too_large = exc

    if len(domain_args) > 1:
        raise GroundError("duplicate cspdomain fact")
    if not domain_args:
        if any(a.reserved for a in p.atoms):
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
    declared = {d.var_term: fd.VarRef(d.var) for d in decls}
    gamma = {key: _build_constraint_expr(r.head.args[0], declared, None)
             for key, r in required.items()}
    if too_large is not None:
        raise too_large

    for k in required:
        out.append(rule(None, [k], [~k]))
        out.append(rule(None, [~k], [k]))
    pi = ids.program(out)

    # a declaration atom that never materialized in a rule is always active
    ca_decls = [CADecl(pi.index.get(d.atom), d.var, d.lo, d.hi)
                for d in decls]
    betas = [f"|{shown[k]}|" for k in required]
    return CAProgram(pi, betas,
                     {b: gamma[k] for b, k in zip(betas, required)},
                     domain=default_range,
                     var_decls=ca_decls, suppressed=frozenset(betas))


def _bound_denials(r: Rule, elems: List[int], ids: AtomIds,
                   pos: List[int], neg: List[int], nn: List[int]
                   ) -> Iterator[RuleP]:
    """The denials of the bounds of choice rule r, over the keys of its
    body (`pos`, `neg`, `nn`) and of its elements (`elems`, already in
    `ids`).  The bounds count atoms, so elements shown alike count once."""
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
            yield ids.rule(None, pos, neg, nn)
        else:
            _check_combos(n, k, r.pos)
            for subset in itertools.combinations(elems, k):
                yield ids.rule(None, pos, neg + list(subset), nn)
    if hi is not None and hi < n:
        k = max(hi + 1, 0)               # a bound below zero denies the body
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
    """Full pipeline: parse (if text), preprocess, ground, expand lists,
    translate to a CA program.  Returns the ground, list-expanded program
    (what `--dump-ground` prints) and the CA program, which carries the
    expansion warnings."""
    p = parse(source) if isinstance(source, str) else source
    # grounding would merge the duplicates before to_ca_program sees them
    n_domain_facts = sum(
        1 for r in p.rules
        if isinstance(r.head, Atom) and r.head.rel == "cspdomain")
    if n_domain_facts > 1:
        raise GroundError("duplicate cspdomain fact")
    p = preprocess(p)
    g = ground(p)
    decls = collect_var_decls(g)
    expanded, warnings = expand_lists(g, decls)
    ca = to_ca_program(expanded, decls, default_range)
    ca.warnings.extend(warnings)
    return expanded, ca


def ground_program(source: Union[str, EzProgram],
                   default_range: Tuple[int, int] = DEFAULT_FD_RANGE
                   ) -> CAProgram:
    """The CA program of `ground_stages`."""
    return ground_stages(source, default_range)[1]
