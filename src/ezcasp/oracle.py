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
blocking denials.  Its replay loop reads each edge record once
(`_read_edge`), checks the record's state digests and the termination
measure around the edge, and leaves the edge itself to
`_apply(state, rule, fields)`, which checks that one edge's guards on a
`_RunState` (M, Gamma, Lambda, the clause set, the failed flag and the
unused Learn count) and applies it.
"""

from __future__ import annotations

import itertools
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
    "is_entailed_denial",
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
    pos = tuple(index[a] for a in d["pos"])
    neg = tuple(index[a] for a in d["neg"])
    if len(set(pos)) < len(pos) or len(set(neg)) < len(neg):
        raise _Violation("malformed record: denial repeats an atom")
    return RuleP(None, pos, neg, ())


# what reading a record that lacks a field, holds a value of another JSON
# type or names an unknown atom raises
_MALFORMED = (KeyError, TypeError, AttributeError)


def _read_edge(rec: dict, index: Dict[str, int]) -> Tuple[object, dict]:
    """The rule of an edge record and the payload fields that the rule
    reads, with names read as atom ids and literals: `lit`, `clause`,
    `unfounded`, `projection`, `denial` and `reason` (kind, projection,
    core); a reason without a core names its whole projection."""
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
            projection = [_lit_of(s, index) for s in reason["projection"]]
            core = reason.get("core")
            f["reason"] = (reason.get("kind"), projection,
                           projection if core is None else
                           [_lit_of(s, index) for s in core])
    return rule, f


def _feasibility(program: CAProgram, lits: Sequence[int], semantics: str
                 ) -> bool:
    """Feasibility of the csp-abstraction: exhaustive up to the oracle's
    assignment bound, by `fd.solutions` above it; a `_Violation` where it
    needs a complement that `fd` lacks."""
    try:
        return csp_feasible_exhaustive(program, lits, semantics)
    except OracleBoundExceeded:
        inst = fd.build_csp(program, lits, semantics)
        return next(fd.solutions(inst), None) is not None
    except fd.ComplementUnsupported as exc:
        raise _Violation(f"csp-abstraction not checked: {exc}") from None


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
    exhaustion on oracle-scale programs, then the certificate, at any
    size: a `cp-conflict` reason follows a CPPropagate edge on M, its core
    is a subsequence of its projection whose csp-abstraction is
    infeasible, and its denial is `engine._projection_denial` of the core
    under the run's semantics; a reason without a core names its whole
    projection, and a Learn without a reason is rejected where entailment
    was not checked), Backtrack (record inconsistent, no
    decision literal after the flipped one), Fail (inconsistent, no
    decisions), Restart/Restart_t (non-empty record, and
    restart-safety: a dedicated fresh Learn precedes every restart),
    AspPropagate (the literal holds in every answer set that agrees with M,
    by exhaustion; rejected above the oracle's atom bound).  A
    completed run must stop semi-terminal (models) or in Failstate.  A
    trace without a run is valid only when the clausified abstraction holds
    an empty clause.  A csp-abstraction that needs the complement of a
    non-primitive constraint is not checked: a CPPropagate edge or final
    state that needs one is rejected, and a Learn edge rests on its
    certificate, as above the oracle's bounds.

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
    JSON type, names an unknown atom or holds a denial that repeats an
    atom is rejected at its step.
    """
    abstraction0 = program.asp_abstraction()
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
            blocking, model = _validate_run(runs[run_id], program, index,
                                            gamma)
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
                  index: Dict[str, int], gamma: List[RuleP]
                  ) -> Tuple[List[RuleP], Optional[List[int]]]:
    """Replay one run from Gamma as the earlier runs left it, appending to
    `gamma` what the run learns; returns the run's blocking denials and,
    if it ended in a model, the final record's literals."""
    i, start = entries[0]
    end: Optional[dict] = None
    try:
        s = _RunState(start, program, index, gamma)
        for i, rec in entries[1:]:
            if rec.get("event") == "end":
                end = rec
                break
            if s.failed:
                raise _Violation("edge after Failstate")
            try:
                rule, f = _read_edge(rec, index)
            except _MALFORMED as exc:
                raise _Violation(f"malformed record: {exc!r}") from None
            if rec.get("pre") != s.digest():
                raise _Violation("pre-state digest mismatch")
            pre_measure = s.measure()
            _apply(s, rule, f)
            if rec.get("post") != s.digest():
                raise _Violation("post-state digest mismatch")
            if rule not in ("Restart", "RestartT") and \
                    not pre_measure < s.measure():
                raise _Violation("termination measure did not increase")
    except _Violation as v:
        raise _Violation(f"step {i}: {v}") from None

    if end is None:
        raise _Violation("run has no end record")
    status = end.get("status")
    if status == "failstate":
        if not s.failed:
            raise _Violation("failstate end without Fail edge")
    elif status == "model":
        if s.failed:
            raise _Violation("model end after Fail edge")
        s.check_semi_terminal()
        model = end.get("model", [])
        actual = {s.names[lit_atom(l)] for l in s.m.literals() if l > 0}
        if not isinstance(model, list) or \
                not all(isinstance(a, str) for a in model) or \
                set(model) != actual:
            raise _Violation("end record model differs from final record")
        return s.blocking, s.m.literals()
    elif status != "budget":
        raise _Violation(f"unknown end status {status!r}")
    return s.blocking, None


class _RunState:
    """A run's state as the replay reaches it: the record M, the permanent
    store Gamma (the list that the later runs start from), the temporal
    store Lambda, the clause set, whether Failstate is reached, and how many
    Learn edges no restart has used yet."""

    def __init__(self, start: dict, program: CAProgram,
                 index: Dict[str, int], gamma: List[RuleP]):
        if start.get("event") != "start" or "semantics" not in start:
            raise _Violation("run does not begin with a start record that "
                             "names its semantics")
        try:
            self.blocking = [_denial_of(d, index)
                             for d in start.get("blocking", [])]
        except _MALFORMED as exc:
            raise _Violation(f"malformed record: {exc!r}") from None
        self.semantics = start["semantics"]
        if self.semantics not in ("weak", "full"):
            raise _Violation(f"unknown semantics {self.semantics!r}")
        self.program = program.with_extra_denials(self.blocking)
        self.abstraction = self.program.asp_abstraction()
        self.names = self.abstraction.names
        self.program_clauses = frozenset(frozenset(c) for c in
                                         clausify(self.abstraction))
        self.m = Record(self.abstraction.n_atoms)
        self.gamma = gamma
        self.lam: List[RuleP] = []
        # the program's clauses and those of the learned denials in gamma
        # and lambda; Learn adds to it and RestartT rebuilds it
        self.clauses = self.program_clauses.union(
            frozenset(rule_clause(d)) for d in gamma)
        self.failed = False
        self.unused_learns = 0

    def digest(self) -> str:
        return state_digest(self.m, self.names,
                            [str(denial_key(d)) for d in self.gamma],
                            [str(denial_key(d)) for d in self.lam])

    def measure(self):
        """Per-path termination measure: permanent store growth, then
        temporal store growth, then the decision-segment length vector of M
        (lexicographic, as tuples compare); Failstate is the top element."""
        if self.failed:
            return (float("inf"),)
        alpha: List[int] = [0]
        for lit, dec in self.m.entries:
            if dec:
                alpha.append(0)
            else:
                alpha[-1] += 1
        if self.m.bot:
            alpha[-1] += 1
        return (len(self.gamma), len(self.lam), tuple(alpha))

    def check_semi_terminal(self) -> None:
        m = self.m
        if not m.consistent:
            raise _Violation("final record inconsistent in a model run")
        if not m.is_complete():
            raise _Violation("final record incomplete (Decide applicable)")
        lits = set(m.literals())
        for clause in self.clauses:
            if all(-x in lits for x in clause):
                raise _Violation("final record falsifies a clause "
                                 "(Unit Propagate applicable)")
        gus = greatest_unfounded_set(self.abstraction, m.literals())
        if any(m.value(a) > 0 for a in gus):
            raise _Violation("unfounded atom true in final record "
                             "(Unfounded applicable)")
        if not _feasibility(self.program, m.literals(), self.semantics):
            raise _Violation("final csp-abstraction infeasible "
                             "(CP-Propagate applicable)")


# the rules whose edge adds a literal to M; CPPropagate adds bottom
_ADDS = ("Decide", "UnitPropagate", "Unfounded", "AspPropagate")


def _apply(s: _RunState, rule: str, f: dict) -> None:
    """Check one edge's guards on `s`, given its rule and the fields that
    `_read_edge` read, then apply it; a broken guard raises `_Violation`."""
    m, lit = s.m, f.get("lit")
    if rule in _ADDS + ("CPPropagate",) and not m.consistent:
        raise _Violation(f"{rule} on inconsistent record")
    if rule == "Decide":
        if not m.is_unassigned(lit):
            raise _Violation("Decide on assigned literal")
    elif rule == "UnitPropagate":
        clause = f["clause"]
        if clause not in s.clauses:
            raise _Violation("clause not in program")
        if lit not in clause:
            raise _Violation("literal not in clause")
        if any(not m.holds(-x) for x in clause if x != lit):
            raise _Violation("clause remainder not falsified")
    elif rule == "Unfounded":
        u = f["unfounded"]
        if not u or lit > 0 or lit_atom(lit) not in u:
            raise _Violation("literal not from unfounded set")
        if not _is_unfounded(s.abstraction, m, u):
            raise _Violation("set is not unfounded")
    elif rule == "AspPropagate":
        try:
            entailed = _asp_entails(s.program, s.gamma + s.lam, m, lit)
        except OracleBoundExceeded as exc:
            raise _Violation(f"asp entailment not checked: {exc}") from None
        if not entailed:
            raise _Violation("literal not asp-entailed")
    elif rule == "CPPropagate":
        if f["projection"] != _projection(s.program, m.literals()):
            raise _Violation("projection is not M's")
        if _feasibility(s.program, m.literals(), s.semantics):
            raise _Violation("csp-abstraction is feasible")
        m.append_bot()
    elif rule in ("Learn", "LearnT"):
        _learn(s, rule, f)
    elif rule == "Backtrack":
        if m.consistent:
            raise _Violation("Backtrack on consistent record")
        if not m.decisions:
            raise _Violation("Backtrack without decision")
        if m.backjump_last_decision() != lit:
            raise _Violation("Backtrack flipped wrong literal")
    elif rule == "Fail":
        if m.consistent:
            raise _Violation("Fail on consistent record")
        if m.decisions:
            raise _Violation("Fail with decision literals")
        s.failed = True
    elif rule in ("Restart", "RestartT"):
        if not m.entries and not m.bot:
            raise _Violation("Restart on empty record")
        if s.unused_learns < 1:
            raise _Violation("restart without a dedicated preceding Learn "
                             "(restart-safety)")
        s.unused_learns -= 1
        m.clear()
        if rule == "RestartT":
            s.lam.clear()
            s.clauses = s.program_clauses.union(
                frozenset(rule_clause(d)) for d in s.gamma)
    else:
        raise _Violation(f"unknown rule {rule!r}")
    if rule in _ADDS:
        if m.holds(lit):
            raise _Violation("literal already in record")
        m.append(lit, decided=rule == "Decide")


def _learn(s: _RunState, rule: str, f: dict) -> None:
    """`_apply` for a Learn edge, into Gamma, or a Learn_t edge, into
    Lambda."""
    d = f["denial"]
    kind, projection, core = f.get("reason", (None, None, None))
    if projection is not None and \
            projection != _projection(s.program, s.m.literals()):
        raise _Violation("reason projection is not M's")
    key = denial_key(d)
    if key in {denial_key(x) for x in s.gamma + s.lam}:
        raise _Violation("learned denial not fresh")
    entailed = None     # not checked: past a bound, or a complement fd lacks
    try:
        entailed = is_entailed_denial(
            s.program.with_extra_denials(s.gamma + s.lam), d, s.semantics)
    except (OracleBoundExceeded, fd.ComplementUnsupported):
        pass
    if entailed is False:
        raise _Violation("learned denial not entailed")
    if projection is not None and kind == "cp-conflict":
        # only a CPPropagate edge, which re-verified that M's
        # csp-abstraction is infeasible, adds bottom to M
        if not s.m.bot:
            raise _Violation("cp-conflict Learn without CPPropagate on M")
        rest = iter(projection)         # a subsequence, each literal once
        if not all(x in rest for x in core):
            raise _Violation("learned core is not within M's projection")
        if _feasibility(s.program, core, s.semantics):
            raise _Violation("learned core is feasible")
        cert = _projection_denial(core, s.semantics,
                                  s.program.constraint_set)
        if key != denial_key(cert):
            raise _Violation("learned denial is not the core's")
    elif entailed is None:
        raise _Violation("learned denial has no certificate")
    (s.gamma if rule == "Learn" else s.lam).append(d)
    s.clauses = s.clauses | {frozenset(rule_clause(d))}
    s.unused_learns += 1


def _is_unfounded(abstraction: RegularProgram, m: Record,
                  u: Set[int]) -> bool:
    """Whether every rule with its head in `u` has a body literal false in
    M or a positive body atom in `u`."""
    for r in abstraction.rules:
        if r.head in u and not set(r.pos) & u and \
                not any(m.holds(-(x + 1)) for x in r.pos + r.nneg) and \
                not any(m.holds(x + 1) for x in r.neg):
            return False
    return True


def _asp_entails(program: CAProgram, denials: Sequence[RuleP], m: Record,
                 lit: int) -> bool:
    """Whether `lit` holds in every answer set of the abstraction, with
    `denials` added, that agrees with M."""
    def holds(x: int, l: int) -> bool:
        return bool(x >> lit_atom(l) & 1) == (l > 0)
    extended = program.with_extra_denials(denials) if denials else program
    held = m.literals()
    return all(holds(x, lit) for x in abstraction_answer_sets(extended)
               if all(holds(x, l) for l in held))
