"""Transition-system search over CA programs.

States are M||Gamma||Lambda: a record of annotated literals plus permanent and
temporal stores of learned denials.  The driver applies Decide, Fail,
Backtrack, Unit Propagate, Unfounded, CP-Propagate, Learn and
Restart/Restart_t edges, restricted by the selected integration schema:

  black  - the constraint solver is consulted only on complete propagated
           assignments; a failed check learns the entailed denial of a
           conflict core permanently and restarts, clearing temporal
           denials (Restart_t);
  grey   - as black, but the restart preserves the temporal store (Restart);
  clear  - the constraint solver is consulted on partial assignments every
           `check_freq` decisions; conflicts are resolved by chronological
           backtracking and no restarts ever occur.

No edge writes the temporal store, so Lambda stays empty and grey searches
as black does; only the name of the restart edge differs.

Every run starts from the empty record, halts in a semi-terminal state or
Failstate, and (optionally) emits a machine-checkable trace.  The driver
advances one propagation fixpoint per step, not one edge: it appends the
Unit Propagate literals up to the fixpoint or a conflict, then every atom of
one greatest unfounded set that the record does not falsify, in increasing
id order and each as its own Unfounded edge, up to the first clash; only
then does it propagate again, check the CSP or decide.  The closure does not
depend on that order, so decisions, CSP checks, learned denials, restarts,
runs, candidates, fd nodes and models are those of an order that fires one
edge at a time; `propagations` and `steps` can differ where a conflict is
reached after fewer or more edges.  A trace records the same edges in the
same order, one at a time, and the step budget runs out at the same edge
with the trace on or off.  Enumeration of
further answer sets runs the search again on the program extended with a
blocking denial over the previous model's literals.  The runs of one solve
share one record, one propagator, one unfounded-set check and the store
Gamma: a new run resets the record and the check and adds the new blocking
denial, and every denial learned so far stays.  A learned denial is
entailed by the program, and a blocking denial only removes answer sets, so
it stays entailed in every later run (Gebser, Kaufmann, Neumann & Schaub,
"Conflict-driven answer set enumeration", LPNMR 2007).

One solve owns its state exclusively; concurrent solves over a shared
CAProgram are safe.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from . import fd
from .asp import (Propagator, Record, RegularProgram, RuleP, UnfoundedCheck,
                  clausify, lit_atom, rule_clause)
from .ground import CAProgram

__all__ = [
    "SchemaConfig", "SolveResult", "ExtendedAnswerSet", "SolveStats",
    "solve_ca", "BudgetExceeded",
    "denial_key", "DEFAULT_STEP_BUDGET",
]

DEFAULT_STEP_BUDGET = 1_000_000


class BudgetExceeded(Exception):
    pass


@dataclass
class SchemaConfig:
    """Search configuration.

    check_freq: clear-box CSP check frequency in decisions (None = check
    complete assignments only); limit: maximum number of extended answer sets
    (0 = all); max_alphas_per_model: cap on evaluations enumerated per answer
    set (0 = all); step_budget: bound on the transition edges plus the fd
    search nodes of a solve (None = EZCASP_STEP_BUDGET, else
    DEFAULT_STEP_BUDGET).
    """
    schema: str = "black"
    semantics: str = "weak"
    check_freq: Optional[int] = 1
    limit: int = 1
    max_alphas_per_model: int = 0
    step_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.schema not in ("black", "grey", "clear"):
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.semantics not in ("weak", "full"):
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if self.check_freq is not None and self.check_freq < 1:
            raise ValueError("check_freq must be >= 1")
        for name in ("limit", "max_alphas_per_model", "step_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")

    def effective_budget(self) -> int:
        if self.step_budget is not None:
            return self.step_budget
        text = os.environ.get("EZCASP_STEP_BUDGET")
        if text is None:
            return DEFAULT_STEP_BUDGET
        if not text.strip().isdecimal():
            raise ValueError(f"EZCASP_STEP_BUDGET must be an integer >= 0, "
                             f"not {text!r}")
        return int(text)


@dataclass(frozen=True)
class ExtendedAnswerSet:
    """An answer set (its positive atoms and full literal tuple) paired with
    a solution of its csp-abstraction."""
    atoms: FrozenSet[str]
    assignment: Tuple[Tuple[str, int], ...]
    literals: Tuple[int, ...]

    def assignment_dict(self) -> Dict[str, int]:
        return dict(self.assignment)


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    csp_checks: int = 0
    learned: int = 0
    restarts: int = 0
    steps: int = 0             # transition edges
    runs: int = 0
    candidates: int = 0        # complete candidate models submitted to the CSP
    fd_nodes: int = 0          # `fd.propagate` calls: search nodes, core tests
    core_checks: int = 0       # core tests, one `fd.propagate` call each


@dataclass
class SolveResult:
    """`layer_s` holds the wall times of the solve's layers: `clausify_s`
    in `asp.clausify`, called once per solve, and, summed over the solve,
    `fd_build_s` in `fd.build_csp`, `fd_search_s` in advancing
    `fd.solutions` and `fd_core_s` in shrinking the projections of failed
    checks to cores.  They are kept apart from the counters of `stats`,
    which are the same on every run."""
    status: str                        # 'sat' | 'unsat' | 'budget'
    models: List[ExtendedAnswerSet]
    stats: SolveStats
    trace: Optional[List[dict]] = None
    layer_s: Dict[str, float] = field(default_factory=dict)


def denial_key(d: RuleP) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return (tuple(sorted(d.pos)), tuple(sorted(d.neg)))


def _projection_denial(projection: Sequence[int], semantics: str,
                       constraints: FrozenSet[int] = frozenset()) -> RuleP:
    """The denial blocking a projection (see `fd.build_csp`): its body
    holds the positive atoms as-is and the negative ones as not-literals,
    except that under weak semantics the negative literals of the
    constraint atoms `constraints` drop out."""
    pos = tuple(l - 1 for l in projection if l > 0)
    weak = semantics == "weak"
    negs = tuple(-l - 1 for l in projection
                 if l < 0 and not (weak and -l - 1 in constraints))
    return RuleP(None, pos, negs, ())


class _Trace:
    def __init__(self, enabled: bool, names: Tuple[str, ...]):
        self.enabled = enabled
        self.records: List[dict] = []
        self.names = names

    def lit_str(self, lit: int) -> str:
        return ("-" if lit < 0 else "") + self.names[lit_atom(lit)]

    def denial_json(self, d: RuleP) -> dict:
        return {"pos": [self.names[a] for a in d.pos],
                "neg": [self.names[a] for a in d.neg]}

    def start(self, run: int, blocking: Sequence[RuleP],
              cfg: "SchemaConfig") -> None:
        if self.enabled:
            self.records.append({"run": run, "event": "start",
                                 "schema": cfg.schema,
                                 "semantics": cfg.semantics,
                                 "blocking": [self.denial_json(d)
                                              for d in blocking]})

    def edge(self, run: int, rule: str, payload: dict,
             pre: str, post: str) -> None:
        if self.enabled:
            self.records.append({"run": run, "rule": rule, "payload": payload,
                                 "pre": pre, "post": post})

    def end(self, run: int, status: str,
            model: Optional[Sequence[str]] = None) -> None:
        if self.enabled:
            rec = {"run": run, "event": "end", "status": status}
            if model is not None:
                rec["model"] = sorted(model)
            self.records.append(rec)


def state_digest(m: Record, names: Sequence[str], gamma_keys: Sequence[str],
                 lam_keys: Sequence[str]) -> str:
    """Short hash of M||Gamma||Lambda; computed only when tracing."""
    import hashlib                  # only traced solves pay for the import
    parts = []
    for lit, d in m.entries:
        parts.append(("-" if lit < 0 else "") + names[lit_atom(lit)]
                     + ("*" if d else ""))
    if m.bot:
        parts.append("#")
    token = " ".join(parts) + "||" + "|".join(sorted(gamma_keys)) \
        + "||" + "|".join(sorted(lam_keys))
    return hashlib.sha1(token.encode()).hexdigest()[:12]


class _Run:
    """The search state of one solve and its current run, which goes from
    the empty record to a semi-terminal state or Failstate.

    The record, the propagator over the abstraction's clauses and the
    unfounded-set check are built for the first run; `next_run` resets them
    and adds one blocking denial, and the learned denials of Gamma stay in
    the propagator and in `gamma` for every later run.  Unit Propagate
    edges come from the watched-literal propagator over the record's trail,
    appended up to the fixpoint in one call, and Unfounded edges from one
    update of the incremental unfounded-set check per fixpoint; a unit
    propagation that rescans every clause (in the tests) and
    `asp.greatest_unfounded_set` are their reference versions.  The closure
    under both rules does not depend on the order in which they fire, so
    decisions, learned denials and models are those of the reference; only
    the edges up to a conflict may differ.
    A failed CSP check learns the denial of a core of M's projection
    (`_core`), tested on the domains of the checked instance, which the run
    keeps for the Learn that follows.
    With the trace off no state digest or edge payload is computed, and one
    call of the propagator may append literals up to the first edge past
    the step budget; with it on, each call appends one, so that every edge
    gets its own digests and payload.
    """

    def __init__(self, program: CAProgram, cfg: SchemaConfig,
                 stats: SolveStats, trace: _Trace, run_index: int,
                 budget: int):
        self.program = program
        self.cfg = cfg
        self.stats = stats
        self.trace = trace
        self.run = run_index
        self.budget = budget
        self.abstraction: RegularProgram = program.asp_abstraction()
        self.names = self.abstraction.names
        self.m = Record(self.abstraction.n_atoms)
        t0 = time.perf_counter()
        clauses = clausify(self.abstraction)
        self.layer_s = {"clausify_s": time.perf_counter() - t0,
                        "fd_build_s": 0.0, "fd_search_s": 0.0,
                        "fd_core_s": 0.0}
        self.prop = Propagator(self.m, clauses)
        self.unfounded = UnfoundedCheck(self.abstraction)
        # the csp-abstraction of M at the last CSP check
        self.inst = fd.CSPInstance()
        # the indices of the constraints that changed something in its
        # root's propagation, if that failed (`fd.solutions`)
        self.root_active: List[int] = []
        self.charge = _charger(stats, budget)
        # the learned denials of every run so far
        self.gamma: List[RuleP] = []
        self._start_run()

    def _start_run(self) -> None:
        self.decisions_since_check = 0
        # the solutions of the last CSP check, in labeling order; when the
        # run ends in a model, they are the model's evaluations
        self.csp_solutions: Iterator[Dict[str, int]] = iter(())
        self._post: Optional[str] = None    # digest of the current state

    def next_run(self, blocking: RuleP) -> None:
        """Start the next run from the empty record, on the program
        extended with the denial `blocking`; Gamma is kept.
        Blocking and learned denials have no head, so the unfounded-set
        check needs no change."""
        self.run += 1
        self.prop.reset()
        self.unfounded.reset()
        self.prop.add_clause(rule_clause(blocking))
        self._start_run()

    # -- helpers --------------------------------------------------------

    def _digest(self) -> str:
        return state_digest(self.m, self.names,
                            [str(denial_key(d)) for d in self.gamma], ())

    def _pre(self) -> Optional[str]:
        """The pre-state digest of the next edge; None with the trace off.
        Every change of state within a run is an edge, so after the first
        edge it is the post-state digest of the last one."""
        if not self.trace.enabled:
            return None
        if self._post is None:
            self._post = self._digest()
        return self._post

    def _emit(self, rule: str, pre: Optional[str],
              payload: Optional[Callable[[], dict]] = None,
              n: int = 1) -> None:
        """Count `n` edges of `rule` that were just applied; with the trace
        on, `n` is 1 and the edge is recorded."""
        stats = self.stats
        stats.steps += n
        # transition edges and fd search nodes share the step budget
        if stats.steps + stats.fd_nodes > self.budget:
            raise BudgetExceeded()
        if pre is not None:
            self._post = self._digest()
            self.trace.edge(self.run, rule, payload() if payload else {},
                            pre, self._post)

    def _csp_feasible(self) -> bool:
        """Check the csp-abstraction of M, keeping the instance, with its
        projection and domains, for the Learn edge of a failed check."""
        self.stats.csp_checks += 1
        t0 = time.perf_counter()
        inst = self.inst = fd.build_csp(self.program, self.m.trail,
                                        self.cfg.semantics)
        self.layer_s["fd_build_s"] += time.perf_counter() - t0
        self.root_active = []
        search = _timed(fd.solutions(inst, self.charge, self.root_active),
                        self.layer_s)
        first = next(search, None)
        self.csp_solutions = itertools.chain((first,), search)
        return first is not None

    def _lit_strs(self, lits: Sequence[int]) -> List[str]:
        return [self.trace.lit_str(x) for x in lits]

    def _core(self) -> Tuple[int, ...]:
        """A core of the last failed check's projection.  Its literals that
        post a constraint are shrunk by deletion: in projection order, each
        is dropped if one `fd.refuted` call on the domains of the checked
        instance still refutes the constraints of the other kept literals.
        A refuting call, and the check's failed root propagation before the
        first test, also drop at once every literal whose constraint
        changed nothing in it, since the constraints that changed something
        fail alone (`fd.propagate`).  Every declaration literal is kept; a
        negative constraint literal that posts nothing (weak semantics) is
        left out, as its denial leaves it out.  Each test is charged as an
        fd node.  Tests are made only when the root propagation failed on a
        constraint.  When it did not fail, one call does not refute the
        constraints, nor any subset of them, so every constraint literal is
        kept; when a domain of the checked instance was empty, none is.

        Dropping a literal only removes a posted constraint and never
        widens a domain, so the core's csp-abstraction is infeasible, and
        so is that of every record that holds the core's literals."""
        inst = self.inst
        if any(d.empty for d in inst.domains.values()):
            kept = {}
        elif not self.root_active:
            kept = dict(inst.posts)
        else:
            kept = _needed(inst.posts, inst.constraints, self.root_active)
            for lit in list(kept):
                if lit not in kept:
                    continue
                trial = {x: c for x, c in kept.items() if x != lit}
                posted = list(trial.values())
                active: List[int] = []
                self.stats.core_checks += 1
                self.charge()
                if fd.refuted(inst, posted, active):
                    kept = _needed(trial, posted, active)
        constraints = self.program.constraint_set
        return tuple(x for x in inst.projection
                     if x in kept or abs(x) - 1 not in constraints)

    def _learn(self) -> bool:
        """Learn the cp-entailed denial of a core of the last check's
        projection (`_core`); False if it is empty.  It is fresh: the check
        ran at a consistent propagation fixpoint, where M satisfies every
        learned denial, and its body lies in M."""
        t0 = time.perf_counter()
        core = self._core()
        self.layer_s["fd_core_s"] += time.perf_counter() - t0
        d = _projection_denial(core, self.cfg.semantics,
                               self.program.constraint_set)
        if not d.pos and not d.neg:
            return False
        pre = self._pre()
        self.gamma.append(d)
        self.prop.add_clause(rule_clause(d))
        self.stats.learned += 1
        self._emit("Learn", pre, lambda: {
            "denial": self.trace.denial_json(d),
            "reason": {"kind": "cp-conflict",
                       "projection": self._lit_strs(self.inst.projection),
                       "core": self._lit_strs(core)}})
        return True

    def _restart(self) -> None:
        pre = self._pre()
        self.prop.reset()
        self.unfounded.reset()
        rule = "RestartT" if self.cfg.schema == "black" else "Restart"
        self.decisions_since_check = 0
        self.stats.restarts += 1
        self._emit(rule, pre)

    # -- the run --------------------------------------------------------

    def execute(self):
        """-> ('model', Record) | ('failstate',)."""
        cfg, m, prop, stats = self.cfg, self.m, self.prop, self.stats
        unfounded, traced = self.unfounded, self.trace.enabled
        lit_str = self.trace.lit_str
        n_atoms = self.abstraction.n_atoms
        while True:
            if not m.consistent:
                pre = self._pre()
                if m.decisions:
                    unfounded.backjump(m.decisions[-1])
                    flipped = prop.backjump()
                    self._emit("Backtrack", pre,
                               lambda: {"lit": lit_str(flipped)})
                else:
                    self._emit("Fail", pre)
                    return ("failstate",)
                continue

            # Unit Propagate to the fixpoint or a conflict, as far as the
            # budget reaches; one edge per call with the trace on
            pre = self._pre()
            limit = 1 if traced else \
                self.budget + 1 - stats.steps - stats.fd_nodes
            n = prop.propagate(limit)
            if n:
                stats.propagations += n
                self._emit("UnitPropagate", pre, lambda: {
                    "lit": lit_str(m.trail[-1]),
                    "clause": self._lit_strs(prop.reason)}, n)
                if n == limit or not m.consistent:
                    continue

            # the atoms of one greatest unfounded set, each its own edge,
            # up to the first that M holds true
            atoms = unfounded.pending(m)
            for a in atoms:
                pre = self._pre()
                gus = unfounded.greatest(m) if traced else None
                m.append(-(a + 1))
                stats.propagations += 1
                self._emit("Unfounded", pre, lambda: {
                    "lit": lit_str(-(a + 1)),
                    "unfounded": sorted(self.names[x] for x in gus)})
                if m.clash:
                    break
            if atoms:
                continue

            # consistent propagation fixpoint
            complete = m.is_complete()
            if cfg.schema in ("black", "grey"):
                check_now = complete
            else:
                check_now = complete or (
                    cfg.check_freq is not None
                    and self.decisions_since_check >= cfg.check_freq)

            if check_now:
                if complete:
                    stats.candidates += 1
                self.decisions_since_check = 0
                if not self._csp_feasible():
                    pre = self._pre()
                    m.append_bot()
                    self._emit("CPPropagate", pre, lambda: {
                        "projection": self._lit_strs(self.inst.projection)})
                    learned = self._learn()
                    if cfg.schema in ("black", "grey") and learned:
                        self._restart()
                    # otherwise resolve by Backtrack/Fail on the next loop
                    continue
                if complete:
                    return ("model", m)

            pre = self._pre()
            target = m.val.index(0, 1, n_atoms + 1)    # first unassigned atom
            m.append(target, decided=True)
            stats.decisions += 1
            self.decisions_since_check += 1
            self._emit("Decide", pre, lambda: {"lit": lit_str(target)})


def _needed(posts: Dict[int, object], posted: Sequence[object],
            active: Sequence[int]) -> Dict[int, object]:
    """The literals of `posts` whose constraints are among the `active`
    indices of `posted`."""
    ids = {id(posted[i]) for i in active}
    return {x: c for x, c in posts.items() if id(c) in ids}


def _charger(stats: SolveStats, budget: int) -> Callable[[], None]:
    """Charge one fd node to the step budget.  A search outlives its check
    in `csp_solutions`; charging through the stats, not the run, keeps it
    from holding the run in a cycle."""
    def charge() -> None:
        stats.fd_nodes += 1
        if stats.steps + stats.fd_nodes > budget:
            raise BudgetExceeded()
    return charge


def _timed(search: Iterator[Dict[str, int]], layer_s: Dict[str, float]
           ) -> Iterator[Dict[str, int]]:
    """The solutions of `search`, adding the time spent advancing it to
    layer_s["fd_search_s"]."""
    clock = time.perf_counter
    while True:
        t0 = clock()
        try:
            e = next(search, None)
        finally:
            layer_s["fd_search_s"] += clock() - t0
        if e is None:
            return
        yield e


def solve_ca(program: CAProgram, cfg: SchemaConfig,
             collect_trace: bool = False) -> SolveResult:
    """Compute extended answer sets of a CA program under the configured
    integration schema and semantics.

    Enumerates up to cfg.limit extended answer sets (0 = all): evaluations
    are enumerated per answer set in labeling order, by the same fd search
    that found the answer set's CSP feasible, then a new run with a blocking
    denial looks for the next answer set.
    """
    stats = SolveStats()
    names = program.pi.names        # the abstraction adds no atoms
    trace = _Trace(collect_trace, names)
    budget = cfg.effective_budget()
    models: List[ExtendedAnswerSet] = []
    blocking: List[RuleP] = []
    status = "unsat"

    run = _Run(program, cfg, stats, trace, 0, budget)
    # an empty denial, whose clause is empty, is violated by every record;
    # no transition edge can represent the conflict, so the degenerate case
    # is decided up front
    if run.prop.empty_clause:
        return SolveResult("unsat", [], stats,
                           trace.records if collect_trace else None,
                           run.layer_s)
    try:
        while True:
            run_idx = run.run
            stats.runs += 1
            trace.start(run_idx, blocking, cfg)
            outcome = run.execute()
            if outcome[0] == "failstate":
                trace.end(run_idx, "failstate")
                break
            m: Record = outcome[1]
            atoms = frozenset(names[lit_atom(l)] for l in m.literals()
                              if l > 0)
            trace.end(run_idx, "model", model=atoms)
            status = "sat"

            # the run's last CSP check was on this model and found its first
            # evaluation; the same search goes on to the others, up to the
            # caps that are set
            caps = [c for c in (cfg.max_alphas_per_model,
                                cfg.limit and cfg.limit - len(models)) if c]
            sols = itertools.islice(run.csp_solutions,
                                    max(min(caps), 1) if caps else None)
            lits = tuple(m.literals())
            for s in sols:
                models.append(ExtendedAnswerSet(
                    atoms, tuple(sorted(s.items())), lits))
            if cfg.limit and len(models) >= cfg.limit:
                break
            if not m.literals():
                break           # the empty model over no atoms is unique
            blocking.append(_projection_denial(sorted(lits, key=abs), "full"))
            run.next_run(blocking[-1])
    except BudgetExceeded:
        return SolveResult("budget", models, stats,
                           trace.records if collect_trace else None,
                           run.layer_s)

    return SolveResult(status if models else "unsat", models, stats,
                       trace.records if collect_trace else None, run.layer_s)
