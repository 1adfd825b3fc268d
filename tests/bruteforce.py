"""Independent brute-force helpers used as oracles by the tests.

These deliberately avoid the library's grounding joins, propagation, and
search: substitutions are enumerated exhaustively, unit propagation rescans
every clause, unfoundedness is checked straight from its definition, and
CSP solutions come from raw assignment product loops.
"""

import itertools
from typing import Sequence

from ezcasp.asp import (Clause, Record, RegularProgram, _answer_set_masks,
                        lit_atom)
from ezcasp.ground import GroundError, canon_atom, canon_term, term_key
from ezcasp.lang import (Atom, BuiltinLit, Choice, Compound, Const, EzProgram,
                         Lit, OpExpr, RangeTerm, Rule, Var)


# ---------------------------------------------------------------------------
# Naive grounding by substitution enumeration
# ---------------------------------------------------------------------------

def _subterms(t):
    yield t
    if isinstance(t, Compound):
        for a in t.args:
            yield from _subterms(a)


def _term_vars(t):
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, (Compound, OpExpr)):
        for a in t.args:
            yield from _term_vars(a)
    elif isinstance(t, RangeTerm):
        yield from _term_vars(t.lo)
        yield from _term_vars(t.hi)


def _rule_vars(r: Rule):
    out = set()
    heads = []
    if isinstance(r.head, Atom):
        heads = [r.head]
    elif isinstance(r.head, Choice):
        heads = [e.atom for e in r.head.elems]
    for a in heads:
        for t in a.args:
            out |= set(_term_vars(t))
    for b in r.body:
        if isinstance(b, Lit):
            for t in b.atom.args:
                out |= set(_term_vars(t))
        elif isinstance(b, BuiltinLit):
            out |= set(_term_vars(b.lhs)) | set(_term_vars(b.rhs))
    return sorted(out)


def _apply(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_apply(a, env) for a in t.args))
    if isinstance(t, OpExpr):
        args = [_apply(a, env) for a in t.args]
        vals = [a.value for a in args
                if isinstance(a, Const) and isinstance(a.value, int)]
        if len(vals) != len(args):
            return None
        if t.op == "-" and len(vals) == 1:
            return Const(-vals[0])
        a, b = vals
        if t.op == "/":
            if b == 0:
                raise GroundError("division by zero in built-in arithmetic")
            q = abs(a) // abs(b)        # truncates toward zero
            return Const(q if (a >= 0) == (b >= 0) else -q)
        return Const({"+": a + b, "-": a - b, "*": a * b}[t.op])
    return t


def _eval_builtin(b: BuiltinLit, env):
    lhs, rhs = _apply(b.lhs, env), _apply(b.rhs, env)
    if lhs is None or rhs is None:
        return False
    if isinstance(lhs, Const) and isinstance(lhs.value, int) and \
            isinstance(rhs, Const) and isinstance(rhs.value, int):
        a, c = lhs.value, rhs.value
    else:
        if b.op in ("=", "!="):
            return (lhs == rhs) if b.op == "=" else (lhs != rhs)
        a, c = term_key(lhs), term_key(rhs)
    return {"=": a == c, "!=": a != c, "<": a < c, "<=": a <= c,
            "=<": a <= c, ">": a > c, ">=": a >= c}[b.op]


def brute_ground(p: EzProgram):
    """All ground rule instances, found by exhausting substitutions over the
    ground terms reachable in the possible-atom fixpoint.

    Mirrors the grounding contract independently: an atom of a domain
    relation (defined, definite, no negation anywhere below it) must match a
    possible atom, a non-domain positive atom restricts only the variables
    no earlier element bound, and fully-bound non-domain atoms are kept
    regardless of derivability.  Handles plain atoms, negation, and
    comparison built-ins, which run after the domain atoms and raise
    GroundError on a division by zero as the grounder does; `=`-binding (of
    a value no atom holds) and choice conditions are outside this oracle's
    scope.  Returns a set of canonical rule strings.
    """
    heads_of = {}
    for r in p.rules:
        heads = [r.head] if isinstance(r.head, Atom) else \
            [e.atom for e in r.head.elems] if isinstance(r.head, Choice) else []
        for h in heads:
            heads_of.setdefault((h.rel, len(h.args)), []).append(r)

    domain_rels = set(heads_of)
    changed = True
    while changed:
        changed = False
        for key, rules in list(heads_of.items()):
            if key not in domain_rels:
                continue
            for r in rules:
                bad = isinstance(r.head, Choice)
                for b in r.body:
                    if isinstance(b, Lit) and (
                            b.kind != "pos" or
                            (b.atom.rel, len(b.atom.args)) not in domain_rels):
                        bad = True
                if bad:
                    domain_rels.discard(key)
                    changed = True
                    break

    possible = set()            # canonical atom strings
    possible_atoms = []

    def add_atom(a: Atom):
        c = canon_atom(a)
        if c not in possible:
            possible.add(c)
            possible_atoms.append(a)
            return True
        return False

    ground_terms = {}

    def register_term(t):
        for s in _subterms(t):
            if not set(_term_vars(s)):
                ground_terms[canon_term(s)] = s

    for r in p.rules:
        heads = [r.head] if isinstance(r.head, Atom) else \
            [e.atom for e in r.head.elems] if isinstance(r.head, Choice) else []
        for a in heads:
            for t in a.args:
                register_term(t)
        for b in r.body:
            if isinstance(b, Lit):
                for t in b.atom.args:
                    register_term(t)

    def candidates():
        out = dict(ground_terms)
        for a in possible_atoms:
            for t in a.args:
                for s in _subterms(t):
                    out[canon_term(s)] = s
        return list(out.values())

    def substitutions(r: Rule):
        vs = _rule_vars(r)
        for combo in itertools.product(candidates(), repeat=len(vs)):
            yield dict(zip(vs, combo))

    def body_ok(r: Rule, env):
        # domain atoms, then built-ins, then non-domain atoms: the grounder's
        # reference order, which decides where a division by zero is raised
        bound = set()
        pos_atoms = [b.atom for b in r.body
                     if isinstance(b, Lit) and b.kind == "pos"]
        non_domain = []
        for a in pos_atoms:
            key = (a.rel, len(a.args))
            inst = Atom(a.rel, tuple(_apply(t, env) for t in a.args))
            if any(t is None for t in inst.args):
                return False
            if key in domain_rels:
                if canon_atom(inst) not in possible:
                    return False
                bound |= set().union(*(set(_term_vars(t)) for t in a.args)) \
                    if a.args else set()
            else:
                non_domain.append((a, inst))
        for b in r.body:
            if isinstance(b, BuiltinLit) and not _eval_builtin(b, env):
                return False
        for a, inst in non_domain:       # body order among non-domain atoms
            avars = set()
            for t in a.args:
                avars |= set(_term_vars(t))
            if avars - bound:
                if canon_atom(inst) not in possible:
                    return False
                bound |= avars
        return True

    changed = True
    while changed:
        changed = False
        for r in p.rules:
            heads = [r.head] if isinstance(r.head, Atom) else \
                [e.atom for e in r.head.elems] \
                if isinstance(r.head, Choice) else []
            if not heads:
                continue
            for env in substitutions(r):
                if not body_ok(r, env):
                    continue
                for h in heads:
                    inst = Atom(h.rel, tuple(_apply(t, env) for t in h.args))
                    if any(t is None for t in inst.args):
                        continue
                    if add_atom(inst):
                        changed = True

    rules_out = set()
    for r in p.rules:
        for env in substitutions(r):
            if not body_ok(r, env):
                continue
            parts = []
            for b in r.body:
                if isinstance(b, Lit):
                    inst = Atom(b.atom.rel,
                                tuple(_apply(t, env) for t in b.atom.args))
                    parts.append(f"{b.kind}:{canon_atom(inst)}")
            if r.head is None:
                h = ""
            elif isinstance(r.head, Atom):
                h = canon_atom(Atom(r.head.rel,
                                    tuple(_apply(t, env)
                                          for t in r.head.args)))
            else:
                elems = sorted(
                    canon_atom(Atom(e.atom.rel,
                                    tuple(_apply(t, env)
                                          for t in e.atom.args)))
                    for e in r.head.elems)
                h = "{" + ";".join(elems) + "}"
            rules_out.add(h + ":-" + ",".join(parts))
    return rules_out


def library_ground_canon(g: EzProgram):
    """Canonicalize the library grounder's output the same way."""
    out = set()
    for r in g.rules:
        parts = [f"{b.kind}:{canon_atom(b.atom)}" for b in r.body
                 if isinstance(b, Lit)]
        if r.head is None:
            h = ""
        elif isinstance(r.head, Atom):
            h = canon_atom(r.head)
        else:
            h = "{" + ";".join(sorted(canon_atom(e.atom)
                                      for e in r.head.elems)) + "}"
        out.add(h + ":-" + ",".join(parts))
    return out


# ---------------------------------------------------------------------------
# Unit propagation by rescanning every clause
# ---------------------------------------------------------------------------

def _clause_status(m: Record, clause: Clause):
    """-> ('sat', None) | ('unit', lit) | ('false', None) | ('open', None)."""
    unassigned = None
    n_open = 0
    for lit in clause:
        v = m.value(lit_atom(lit))
        if v == 0:
            n_open += 1
            unassigned = lit
            if n_open > 1:
                return ("open", None)
        elif (v > 0) == (lit > 0):
            return ("sat", None)
    if n_open == 1:
        return ("unit", unassigned)
    return ("false", None)


def find_unit_step(m: Record, clauses: Sequence[Clause]):
    """First applicable unit-propagation edge under a fixed clause order.

    Returns (lit, clause) to append, preferring conflicts: if some clause is
    fully falsified, its first literal is returned (appending it makes the
    record inconsistent, which is the conflict edge).  None at fixpoint.
    """
    if not m.consistent:
        return None
    unit = None
    for clause in clauses:
        if not clause:
            continue        # empty clauses are rejected before search
        status, lit = _clause_status(m, clause)
        if status == "false":
            return (clause[0], clause)
        if status == "unit" and unit is None:
            unit = (lit, clause)
    return unit


def unit_propagate(m: Record, clauses: Sequence[Clause]) -> Record:
    """Run unit propagation to fixpoint (mutates and returns `m`)."""
    while True:
        step = find_unit_step(m, clauses)
        if step is None:
            return m
        lit, _ = step
        m.append(lit)
        if not m.consistent:
            return m


# ---------------------------------------------------------------------------
# Unfounded sets straight from the definition
# ---------------------------------------------------------------------------

def enumerate_answer_sets(prog: RegularProgram):
    """The answer sets of `prog`, by exhausting the subsets of its atoms
    with `asp`'s answer-set test, in lexicographic order."""
    found = map(prog.atom_set, _answer_set_masks(prog))
    return sorted(found, key=lambda s: tuple(sorted(s)))


def is_unfounded(prog: RegularProgram, m_literals, u) -> bool:
    pos_m = {lit_atom(l) for l in m_literals if l > 0}
    neg_m = {lit_atom(l) for l in m_literals if l < 0}
    for a in u:
        for r in prog.rules:
            if r.head != a:
                continue
            contradicted = (any(x in neg_m for x in r.pos)
                            or any(x in pos_m for x in r.neg)
                            or any(x in neg_m for x in r.nneg))
            if not contradicted and not (set(r.pos) & set(u)):
                return False
    return True


def all_unfounded_sets(prog: RegularProgram, m_literals):
    n = prog.n_atoms
    out = []
    for mask in range(1 << n):
        u = {a for a in range(n) if mask >> a & 1}
        if is_unfounded(prog, m_literals, u):
            out.append(frozenset(u))
    return out


# ---------------------------------------------------------------------------
# Exhaustive CSP solutions
# ---------------------------------------------------------------------------

def enumerate_csp_solutions(inst):
    """Every assignment over the current domains that satisfies every
    constraint, by raw enumeration with the shared satisfied() checker."""
    from ezcasp.fd import satisfied
    names = list(inst.var_order)
    domains = [list(inst.domains[n].values()) for n in names]
    out = []
    for combo in itertools.product(*domains):
        e = dict(zip(names, combo))
        if all(satisfied(c, e) for c in inst.constraints):
            out.append(e)
    return out
