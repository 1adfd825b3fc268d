"""Independent brute-force ground truth and the trace validator.

`answer_sets(program, semantics)` exhausts all atom subsets, for weak and
full semantics, and builds each csp-abstraction from the complete literal
set; CSP feasibility is decided by enumerating every assignment over the
variables' ranges and checking each constraint with the shared ground-truth
`satisfied` predicate (the fd solver's search is never used, so oracle and
solver cannot share search bugs).  Each module bound is tested in one
function, at call time, and raises `OracleBoundExceeded`: `ATOM_BOUND`
atoms in `abstraction_answer_sets`, `ASSIGNMENT_BOUND` assignments in
`csp_feasible_exhaustive`.

`validate_trace` replays an emitted transition trace, re-checking every
edge's guard, restart-safety, that a completed run stops in a
semi-terminal state or Failstate, and the certificates of the learned and
blocking denials.
"""

from __future__ import annotations

import itertools
import random
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from . import fd
from .asp import (Record, RegularProgram, RuleP, _answer_set_masks, clausify,
                  greatest_unfounded_set, lit_atom, rule_clause)
from .engine import _projection_denial, denial_key, state_digest
from .ground import CAProgram

__all__ = [
    "OracleBoundExceeded", "answer_sets", "abstraction_answer_sets",
    "csp_feasible_exhaustive", "exhaustive_solutions", "validate_trace",
    "random_program", "random_ez_source", "is_entailed_denial",
]

ATOM_BOUND = 16
ASSIGNMENT_BOUND = 10_000


class OracleBoundExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Exhaustive answer-set enumeration
# ---------------------------------------------------------------------------

def abstraction_answer_sets(program: CAProgram) -> List[int]:
    """Answer sets (as atom masks) of the asp-abstraction Pi[C]."""
    prog = program.asp_abstraction()
    n = prog.n_atoms
    if n > ATOM_BOUND:
        raise OracleBoundExceeded(
            f"{n} atoms exceeds oracle bound {ATOM_BOUND}")
    return _answer_set_masks(prog)


def exhaustive_solutions(inst: fd.CSPInstance) -> Iterator[Dict[str, int]]:
    """The solutions of `inst` by raw assignment enumeration, checked with
    `fd.satisfied`, in the lexicographic order of `inst.var_order`."""
    names = inst.var_order
    for combo in itertools.product(*(inst.domains[n].values()
                                     for n in names)):
        e = dict(zip(names, combo))
        if all(fd.satisfied(c, e) for c in inst.constraints):
            yield e


def csp_feasible_exhaustive(program: CAProgram, m_literals: Sequence[int],
                            semantics: str) -> bool:
    """Feasibility of the csp-abstraction by raw assignment enumeration."""
    inst = fd.build_csp(program, m_literals, semantics)
    total = inst.assignment_count()
    if total > ASSIGNMENT_BOUND:
        raise OracleBoundExceeded(
            f"{total} assignments exceed oracle bound {ASSIGNMENT_BOUND}")
    return next(exhaustive_solutions(inst), None) is not None


def answer_sets(program: CAProgram, semantics: str) -> List[FrozenSet[str]]:
    """All answer sets under `semantics`, by exhaustion, in lexicographic
    order: the abstraction answer sets whose csp-abstraction, built from
    the complete literal set, has a solution.  Under weak semantics the
    csp-abstraction posts the positive constraint literals only; under
    full semantics it also posts the complements of the negative ones."""
    out = []
    for x in abstraction_answer_sets(program):
        lits = [a + 1 if x >> a & 1 else -(a + 1)
                for a in range(program.n_atoms)]
        if csp_feasible_exhaustive(program, lits, semantics):
            out.append(program.pi.atom_set(x))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def is_entailed_denial(program: CAProgram, denial: RuleP, semantics: str
                       ) -> bool:
    """A denial is entailed (asp- or cp-) iff every answer set of the program
    satisfies its clause; checked by exhaustion."""
    names = program.pi.names
    for ans in answer_sets(program, semantics):
        body_holds = all(names[a] in ans for a in denial.pos) and \
            all(names[a] not in ans for a in denial.neg)
        if body_holds:
            return False
    return True


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------

class _Violation(Exception):
    pass


def _lit_of(s: str, index: Dict[str, int]) -> int:
    if s.startswith("-"):
        return -(index[s[1:]] + 1)
    return index[s] + 1


def _denial_of(d: dict, index: Dict[str, int]) -> RuleP:
    return RuleP(None, tuple(index[a] for a in d["pos"]),
                 tuple(index[a] for a in d["neg"]), ())


# what reading a record that lacks a field, holds a value of another JSON
# type or names an unknown atom raises
_MALFORMED = (KeyError, TypeError, AttributeError)


def _read_edge(rec: dict, index: Dict[str, int]) -> Tuple[object, dict]:
    """The rule of an edge record and the payload fields that the rule
    reads, with names read as atom ids and literals: `lit`, `clause`,
    `unfounded`, `projection`, `denial` and `reason` (kind, projection)."""
    rule, payload = rec["rule"], rec.get("payload", {})
    f: dict = {}
    if rule in ("Decide", "UnitPropagate", "Unfounded", "Backtrack",
                "AspPropagate"):
        f["lit"] = _lit_of(payload["lit"], index)
    if rule == "UnitPropagate":
        f["clause"] = frozenset(_lit_of(s, index) for s in payload["clause"])
    elif rule == "Unfounded":
        f["unfounded"] = {index[a] for a in payload["unfounded"]}
    elif rule == "CPPropagate":
        f["projection"] = [_lit_of(s, index)
                           for s in payload.get("projection", ())]
    elif rule in ("Learn", "LearnT"):
        f["denial"] = _denial_of(payload["denial"], index)
        reason = payload.get("reason")
        if reason is not None:
            f["reason"] = (reason.get("kind"), [_lit_of(s, index)
                                                for s in reason["projection"]])
    return rule, f


def _feasibility(program: CAProgram, lits: Sequence[int], semantics: str
                 ) -> bool:
    """Feasibility of the csp-abstraction: exhaustive up to the oracle's
    assignment bound, by `fd.feasible` above it."""
    try:
        return csp_feasible_exhaustive(program, lits, semantics)
    except OracleBoundExceeded:
        return fd.feasible(fd.build_csp(program, lits, semantics))


def _projection(program: CAProgram, lits: Sequence[int]) -> List[int]:
    """What a CPPropagate payload and a Learn reason must list: M's
    constraint literals in declaration order, then the atoms of M's active
    ranged declarations in declaration order, then the negative literals of
    the false ranged declarations of each variable that has no active one,
    in declaration order."""
    held = set(lits)
    out = [x for c in program.constraint_order for x in (c + 1, -(c + 1))
           if x in held]
    ranged = [d for d in program.var_decls if d.lo is not None]
    out += [d.atom + 1 for d in ranged
            if d.atom is not None and d.atom + 1 in held]
    active = {d.var for d in ranged if d.atom is None or d.atom + 1 in held}
    out += [-(d.atom + 1) for d in ranged
            if d.var not in active and -(d.atom + 1) in held]
    return out


def validate_trace(records: Sequence[dict], program: CAProgram
                   ) -> Tuple[bool, Optional[str]]:
    """Replay a trace and check every edge guard.

    A run's first record must be its start record, which names the
    semantics ("weak" or "full") that judges the run's edges and final
    state, and lists its blocking denials.

    Checks per rule: Decide (literal unassigned, record consistent), Unit
    Propagate (the clause exists and all its other literals are false),
    Unfounded (the reported set is unfounded on M), CP-Propagate (the
    projection is M's, and the csp-abstraction is re-verified infeasible),
    Learn/Learn_t (a reason's projection is M's, freshness, entailment by
    exhaustion on oracle-scale programs, then the certificate: a
    `cp-conflict` reason follows a CPPropagate edge on M and its denial is
    `engine._projection_denial` of its projection under the run's
    semantics, at any size, and a Learn without a reason is rejected where
    entailment was not checked), Backtrack (record inconsistent, no
    decision literal after the flipped one), Fail (inconsistent, no
    decisions), Restart/Restart_t (non-empty record, and
    restart-safety: a dedicated fresh Learn precedes every restart),
    AspPropagate (the literal holds in every answer set that agrees with M,
    by exhaustion; rejected above the oracle's atom bound).  A
    completed run must stop semi-terminal (models) or in Failstate.  A
    trace without a run is valid only when the clausified abstraction holds
    an empty clause.

    Gamma is carried from run to run, as the engine keeps it: run k starts
    with every denial learned in runs 0..k-1, in order, in its store, its
    clauses and its digests; each was checked on its own Learn edge.
    Lambda starts empty in every run.  Once a run is replayed, its start
    record must list, in order, the full-literal denials of the final
    records of the earlier runs that ended in a model (the blocking
    certificate).

    Returns (ok, None) or (False, reason), where a reason found on an edge
    starts with "step <i>:" and the blocking certificate's with
    "run <k>:".  A record that lacks a field, holds a value of another
    JSON type or names an unknown atom is rejected at its step.
    """
    abstraction0 = program.asp_abstraction()
    names = abstraction0.names
    index = abstraction0.index

    runs: Dict[int, List[Tuple[int, dict]]] = {}
    for i, rec in enumerate(records):
        run = rec.get("run", 0) if isinstance(rec, dict) else None
        if not isinstance(run, int):
            return False, (f"step {i}: malformed record: not an object "
                           f"with an integer run")
        runs.setdefault(run, []).append((i, rec))
    # a search runs unless an empty clause decides the program up front
    if not runs and all(clausify(abstraction0)):
        return False, "trace has no run"

    gamma: List[RuleP] = []
    expected: List[RuleP] = []      # the blocking denials of earlier models
    try:
        for run_id in sorted(runs):
            blocking, model = _validate_run(runs[run_id], program, names,
                                            index, gamma)
            # checked after the replay, so that a run is first judged by
            # its own edges and final state
            if list(map(denial_key, blocking)) != list(map(denial_key,
                                                           expected)):
                raise _Violation(f"run {run_id}: blocking denials are not "
                                 f"the earlier models'")
            if model is not None:
                expected.append(_projection_denial(sorted(model, key=abs),
                                                   "full"))
    except _Violation as v:
        return False, str(v)
    return True, None


def _validate_run(entries: List[Tuple[int, dict]], program: CAProgram,
                  names, index, gamma: List[RuleP]
                  ) -> Tuple[List[RuleP], Optional[List[int]]]:
    """Replay one run from Gamma as the earlier runs left it, appending to
    `gamma` what the run learns; returns the run's blocking denials and,
    if it ended in a model, the final record's literals."""
    i, start = entries[0]
    if start.get("event") != "start" or "semantics" not in start:
        raise _Violation(f"step {i}: run does not begin with a start record "
                         f"that names its semantics")
    try:
        blocking = [_denial_of(d, index) for d in start.get("blocking", [])]
    except _MALFORMED as exc:
        raise _Violation(f"step {i}: malformed record: {exc!r}") from None
    semantics = start["semantics"]
    if semantics not in ("weak", "full"):
        raise _Violation(f"step {i}: unknown semantics {semantics!r}")
    run_program = program.with_extra_denials(blocking) if blocking else program
    abstraction = run_program.asp_abstraction()
    program_clauses = frozenset(frozenset(c) for c in clausify(abstraction))
    # the program's clauses and those of the learned denials in gamma and
    # lambda; Learn adds to it and RestartT rebuilds it
    clauses = program_clauses.union(frozenset(rule_clause(d)) for d in gamma)

    m = Record(abstraction.n_atoms)
    lam: List[RuleP] = []
    unused_learns = 0
    failed = False
    end_rec: Optional[dict] = None

    def digest() -> str:
        return state_digest(m, names, [str(denial_key(d)) for d in gamma],
                            [str(denial_key(d)) for d in lam])

    def measure():
        """Per-path termination measure: permanent store growth, then
        temporal store growth, then the decision-segment length vector of M
        (lexicographic, as tuples compare); Failstate is the top element."""
        if failed:
            return (float("inf"),)
        alpha: List[int] = [0]
        for lit, dec in m.entries:
            if dec:
                alpha.append(0)
            else:
                alpha[-1] += 1
        if m.bot:
            alpha[-1] += 1
        return (len(gamma), len(lam), tuple(alpha))

    for i, rec in entries[1:]:
        if rec.get("event") == "end":
            end_rec = rec
            break
        if failed:
            raise _Violation(f"step {i}: edge after Failstate")
        try:
            rule, f = _read_edge(rec, index)
        except _MALFORMED as exc:
            raise _Violation(f"step {i}: malformed record: {exc!r}") from None
        if rec.get("pre") != digest():
            raise _Violation(f"step {i}: pre-state digest mismatch")
        pre_measure = measure()

        lit = f.get("lit")
        if rule == "Decide":
            if not m.consistent:
                raise _Violation(f"step {i}: Decide on inconsistent record")
            if not m.is_unassigned(lit):
                raise _Violation(f"step {i}: Decide on assigned literal")
            m.append(lit, decided=True)
        elif rule == "UnitPropagate":
            clause = f["clause"]
            if not m.consistent:
                raise _Violation(f"step {i}: UnitPropagate on inconsistent "
                                 f"record")
            if clause not in clauses:
                raise _Violation(f"step {i}: clause not in program")
            if lit not in clause:
                raise _Violation(f"step {i}: literal not in clause")
            if any(not m.holds(-x) for x in clause if x != lit):
                raise _Violation(f"step {i}: clause remainder not falsified")
            if m.holds(lit):
                raise _Violation(f"step {i}: literal already in record")
            m.append(lit)
        elif rule == "Unfounded":
            u = f["unfounded"]
            if not m.consistent:
                raise _Violation(f"step {i}: Unfounded on inconsistent record")
            if not u or lit > 0 or lit_atom(lit) not in u:
                raise _Violation(f"step {i}: literal not from unfounded set")
            if not _is_unfounded(abstraction, m, u):
                raise _Violation(f"step {i}: set is not unfounded")
            if m.holds(lit):
                raise _Violation(f"step {i}: literal already in record")
            m.append(lit)
        elif rule == "CPPropagate":
            if not m.consistent:
                raise _Violation(f"step {i}: CPPropagate on inconsistent "
                                 f"record")
            if f["projection"] != _projection(run_program, m.literals()):
                raise _Violation(f"step {i}: projection is not M's")
            if _feasibility(run_program, m.literals(), semantics):
                raise _Violation(f"step {i}: csp-abstraction is feasible")
            m.append_bot()
        elif rule in ("Learn", "LearnT"):
            d = f["denial"]
            kind, projection = f.get("reason", (None, None))
            if projection is not None and \
                    projection != _projection(run_program, m.literals()):
                raise _Violation(f"step {i}: reason projection is not M's")
            key = denial_key(d)
            if key in {denial_key(x) for x in gamma + lam}:
                raise _Violation(f"step {i}: learned denial not fresh")
            entailed = False
            extended = run_program.with_extra_denials(gamma + lam)
            try:
                if not is_entailed_denial(extended, d, semantics):
                    raise _Violation(f"step {i}: learned denial not entailed")
                entailed = True
            except OracleBoundExceeded:
                pass
            if projection is not None and kind == "cp-conflict":
                # only a CPPropagate edge, which re-verified that M's
                # csp-abstraction is infeasible, adds bottom to M
                if not m.bot:
                    raise _Violation(f"step {i}: cp-conflict Learn without "
                                     f"CPPropagate on M")
                cert = _projection_denial(projection, semantics,
                                          run_program.constraint_set)
                if key != denial_key(cert):
                    raise _Violation(f"step {i}: learned denial is not the "
                                     f"projection's")
            elif not entailed:
                raise _Violation(f"step {i}: learned denial has no "
                                 f"certificate")
            (gamma if rule == "Learn" else lam).append(d)
            clauses = clauses | {frozenset(rule_clause(d))}
            unused_learns += 1
        elif rule == "Backtrack":
            if m.consistent:
                raise _Violation(f"step {i}: Backtrack on consistent record")
            if not m.has_decision():
                raise _Violation(f"step {i}: Backtrack without decision")
            flipped = m.backjump_last_decision()
            if flipped != lit:
                raise _Violation(f"step {i}: Backtrack flipped wrong literal")
        elif rule == "Fail":
            if m.consistent:
                raise _Violation(f"step {i}: Fail on consistent record")
            if m.has_decision():
                raise _Violation(f"step {i}: Fail with decision literals")
            failed = True
        elif rule in ("Restart", "RestartT"):
            if not m.entries and not m.bot:
                raise _Violation(f"step {i}: Restart on empty record")
            if unused_learns < 1:
                raise _Violation(f"step {i}: restart without a dedicated "
                                 f"preceding Learn (restart-safety)")
            unused_learns -= 1
            m.clear()
            if rule == "RestartT":
                lam.clear()
                clauses = program_clauses.union(
                    frozenset(rule_clause(d)) for d in gamma)
        elif rule == "AspPropagate":
            try:
                entailed = _asp_entails(run_program, gamma + lam, m, lit)
            except OracleBoundExceeded as exc:
                raise _Violation(f"step {i}: asp entailment not checked: "
                                 f"{exc}") from None
            if not entailed:
                raise _Violation(f"step {i}: literal not asp-entailed")
            if m.holds(lit):
                raise _Violation(f"step {i}: literal already in record")
            m.append(lit)
        else:
            raise _Violation(f"step {i}: unknown rule {rule!r}")

        if rec.get("post") != digest():
            raise _Violation(f"step {i}: post-state digest mismatch")
        if rule not in ("Restart", "RestartT") and \
                not pre_measure < measure():
            raise _Violation(f"step {i}: termination measure did not "
                             f"increase")

    if end_rec is None:
        raise _Violation("run has no end record")
    status = end_rec.get("status")
    if status == "failstate":
        if not failed:
            raise _Violation("failstate end without Fail edge")
    elif status == "model":
        if failed:
            raise _Violation("model end after Fail edge")
        _check_semi_terminal(run_program, abstraction, clauses, m,
                             semantics)
        model = end_rec.get("model", [])
        actual = {names[lit_atom(l)] for l in m.literals() if l > 0}
        if not isinstance(model, list) or \
                not all(isinstance(a, str) for a in model) or \
                set(model) != actual:
            raise _Violation("end record model differs from final record")
        return blocking, m.literals()
    elif status != "budget":
        raise _Violation(f"unknown end status {status!r}")
    return blocking, None


def _is_unfounded(abstraction: RegularProgram, m: Record,
                  u: Set[int]) -> bool:
    pos_m = {lit_atom(l) for l in m.literals() if l > 0}
    neg_m = {lit_atom(l) for l in m.literals() if l < 0}
    for a in u:
        for r in abstraction.rules:
            if r.head != a:
                continue
            contradicted = (any(x in neg_m for x in r.pos)
                            or any(x in pos_m for x in r.neg)
                            or any(x in neg_m for x in r.nneg))
            if not contradicted and not (set(r.pos) & u):
                return False
    return True


def _asp_entails(program: CAProgram, denials: Sequence[RuleP], m: Record,
                 lit: int) -> bool:
    extended = program.with_extra_denials(denials) if denials else program
    masks = abstraction_answer_sets(extended)
    m_pos = {lit_atom(l) for l in m.literals() if l > 0}
    m_neg = {lit_atom(l) for l in m.literals() if l < 0}
    a = lit_atom(lit)
    for x in masks:
        if any(not (x >> b) & 1 for b in m_pos):
            continue
        if any((x >> b) & 1 for b in m_neg):
            continue
        holds = bool((x >> a) & 1) == (lit > 0)
        if not holds:
            return False
    return True


def _check_semi_terminal(run_program: CAProgram, abstraction: RegularProgram,
                         clauses: Sequence[frozenset], m: Record,
                         semantics: str) -> None:
    if not m.consistent:
        raise _Violation("final record inconsistent in a model run")
    if not m.is_complete():
        raise _Violation("final record incomplete (Decide applicable)")
    lits = set(m.literals())
    for clause in clauses:
        if all(-x in lits for x in clause):
            raise _Violation("final record falsifies a clause "
                             "(Unit Propagate applicable)")
    gus = greatest_unfounded_set(abstraction, m.literals())
    if any(m.value(a) > 0 for a in gus):
        raise _Violation("unfounded atom true in final record "
                         "(Unfounded applicable)")
    if not _feasibility(run_program, m.literals(), semantics):
        raise _Violation("final csp-abstraction infeasible "
                         "(CP-Propagate applicable)")


# ---------------------------------------------------------------------------
# Random program corpus
# ---------------------------------------------------------------------------

def random_ez_source(seed: int, n_regular: int = 4, n_constraint: int = 2,
                     n_vars: int = 2, n_rules: int = 6,
                     domain_size: int = 6, min_lo: int = 0) -> str:
    """Deterministic random EZ program: safe, head-restricted required atoms,
    primitive constraints over a few fd variables.  Each variable's lower
    bound is drawn from `min_lo`..2."""
    rng = random.Random(seed)
    if n_rules == 0 and n_regular == 0 and n_constraint == 0:
        return "cspdomain(fd).\n"
    atoms = [f"a{i}" for i in range(max(n_regular, 1))]
    vars_ = [f"v{i}" for i in range(max(n_vars, 1))]
    lines = ["cspdomain(fd)."]
    for v in vars_:
        lo = rng.randint(min_lo, 2)
        hi = lo + rng.randint(1, max(domain_size - 1, 1))
        lines.append(f"cspvar({v},{lo},{hi}).")

    def expr() -> str:
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        kind = rng.randrange(4)
        if kind == 0:
            return f"{rng.choice(vars_)} {op} {rng.randint(0, domain_size)}"
        if kind == 1 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} {op} {b}"
        if kind == 2 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} + {b} {op} {rng.randint(0, 2 * domain_size)}"
        if kind == 3 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} - {b} {op} {rng.randint(-domain_size, domain_size)}"
        return f"{rng.choice(vars_)} {op} {rng.randint(0, domain_size)}"

    exprs = []
    for _ in range(n_constraint):
        e = expr()
        if e not in exprs:
            exprs.append(e)

    def body(avoid: Optional[str] = None) -> str:
        k = rng.randint(1, 2)
        lits = []
        pool = [a for a in atoms if a != avoid] or atoms
        for a in rng.sample(pool, min(k, len(pool))):
            lits.append(rng.choice(["", "not ", "not not "]) + a)
        return ", ".join(lits)

    for _ in range(n_rules):
        kind = rng.randrange(6)
        if kind == 0:
            lines.append(f"{rng.choice(atoms)}.")
        elif kind == 1:
            lines.append("{ " + rng.choice(atoms) + " }.")
        elif kind == 2:
            h = rng.choice(atoms)
            lines.append(f"{h} :- {body(avoid=h)}.")
        elif kind == 3 and exprs:
            e = rng.choice(exprs)
            if rng.random() < 0.5:
                lines.append(f"required({e}).")
            else:
                lines.append(f"required({e}) :- {body()}.")
        elif kind == 4:
            lines.append(f":- {body()}.")
        else:
            h = rng.choice(atoms)
            lines.append(f"{h} :- {body(avoid=h)}.")
    return "\n".join(lines) + "\n"


def random_program(seed: int, n_regular: int = 4, n_constraint: int = 2,
                   n_vars: int = 2, n_rules: int = 6,
                   domain_size: int = 6, min_lo: int = 0) -> CAProgram:
    """Deterministic random CA program (grounded from random_ez_source)."""
    from .ground import ground_program
    return ground_program(random_ez_source(seed, n_regular, n_constraint,
                                           n_vars, n_rules, domain_size,
                                           min_lo))
