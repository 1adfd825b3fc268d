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
           backtracking and no restarts ever occur.  A check on a partial
           assignment first tests the witness, the last evaluation that a
           check of the solve found, and searches only if it fails.

No edge writes the temporal store, so Lambda stays empty and grey searches
as black does; only the name of the restart edge differs.

Every run starts from the empty record and halts in a semi-terminal state
or Failstate.  On request the run writes a machine-checkable trace itself:
a start record, one record per edge whose pre-state digest is the post-state
digest of the edge before, and an end record.  Every run of a trace ends in
a `model`, `failstate` or `budget` record; a run whose model's evaluations
exhaust the step budget keeps its `model` end.  The driver advances one
propagation fixpoint per step, not one edge: it appends the Unit Propagate
literals up to the fixpoint or a conflict, then every atom of one greatest
unfounded set that the record does not falsify, in increasing id order and
each as its own Unfounded edge, up to the first clash; only then does it
propagate again, check the CSP or decide.  The closure does not
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
import time
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from . import fd
from .asp import (Propagator, Record, RegularProgram, RuleP, UnfoundedCheck,
                  clausify, lit_atom, rule_clause)
from .ground import CAProgram
from .records import RecordBase, set_field

__all__ = [
    "SchemaConfig", "SolveResult", "ExtendedAnswerSet", "SolveStats",
    "solve_ca", "BudgetExceeded",
    "denial_key", "DEFAULT_STEP_BUDGET", "LAYERS",
]

DEFAULT_STEP_BUDGET = 1_000_000

# the keys of `SolveResult.layer_s`
LAYERS = ("clausify_s", "unit_s", "unfounded_s", "fd_build_s",
          "fd_search_s", "fd_core_s")


class BudgetExceeded(Exception):
    pass


class SchemaConfig(RecordBase, frozen=False):
    """Search configuration.

    check_freq: clear-box CSP check frequency in decisions (None = check
    complete assignments only); limit: maximum number of extended answer sets
    (0 = all); max_alphas_per_model: cap on evaluations enumerated per answer
    set (0 = all); step_budget: bound on the transition edges plus the fd
    search nodes of a solve.  The library reads no environment variable;
    the command line reads EZCASP_STEP_BUDGET into step_budget.
    """
    _fields = ("schema", "semantics", "check_freq", "limit",
               "max_alphas_per_model", "step_budget")

    def __init__(self, schema: str = "black", semantics: str = "weak",
                 check_freq: Optional[int] = 1, limit: int = 1,
                 max_alphas_per_model: int = 0,
                 step_budget: int = DEFAULT_STEP_BUDGET) -> None:
        self.schema = schema
        self.semantics = semantics
        self.check_freq = check_freq
        self.limit = limit
        self.max_alphas_per_model = max_alphas_per_model
        self.step_budget = step_budget
        if self.schema not in ("black", "grey", "clear"):
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.semantics not in ("weak", "full"):
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if self.check_freq is not None and self.check_freq < 1:
            raise ValueError("check_freq must be >= 1")
        for name in ("limit", "max_alphas_per_model", "step_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class ExtendedAnswerSet(RecordBase):
    """An answer set (its positive atoms and full literal tuple) paired with
    a solution of its csp-abstraction."""
    _fields = ("atoms", "assignment", "literals")

    def __init__(self, atoms: FrozenSet[str],
                 assignment: Tuple[Tuple[str, int], ...],
                 literals: Tuple[int, ...]) -> None:
        set_field(self, "atoms", atoms)
        set_field(self, "assignment", assignment)
        set_field(self, "literals", literals)

    def assignment_dict(self) -> Dict[str, int]:
        return dict(self.assignment)


class SolveStats(RecordBase, frozen=False):
    """The counters of a solve.  `steps` counts transition edges,
    `candidates` the complete candidate models submitted to the CSP,
    `fd_nodes` the `fd.propagate` calls (search nodes and core tests) and
    `core_checks` the core tests, one `fd.propagate` call each."""
    _fields = ("decisions", "propagations", "csp_checks", "learned",
               "restarts", "steps", "runs", "candidates", "fd_nodes",
               "core_checks")

    def __init__(self, decisions: int = 0, propagations: int = 0,
                 csp_checks: int = 0, learned: int = 0, restarts: int = 0,
                 steps: int = 0, runs: int = 0, candidates: int = 0,
                 fd_nodes: int = 0, core_checks: int = 0) -> None:
        self.decisions = decisions
        self.propagations = propagations
        self.csp_checks = csp_checks
        self.learned = learned
        self.restarts = restarts
        self.steps = steps
        self.runs = runs
        self.candidates = candidates
        self.fd_nodes = fd_nodes
        self.core_checks = core_checks


class SolveResult(RecordBase, frozen=False):
    """`layer_s` holds the wall times of the solve's layers, under the keys
    `LAYERS`: `clausify_s` in `asp.clausify`, called once per solve, and,
    summed over the solve, `unit_s` in `Propagator.propagate`,
    `unfounded_s` in `UnfoundedCheck.pending` (and in counting the unit
    propagations just before it), `fd_build_s` in
    `fd.build_csp`, `fd_search_s` in deciding the feasibility of checks
    (testing the witness with `fd.solved_by` and advancing `fd.solutions`)
    and `fd_core_s` in shrinking the projections of failed checks to
    cores.  They are kept apart from the counters of `stats`, which are the
    same on every run.  `status` is 'sat', 'unsat' or 'budget'."""
    _fields = ("status", "models", "stats", "trace", "layer_s")

    def __init__(self, status: str, models: List[ExtendedAnswerSet],
                 stats: SolveStats, trace: Optional[List[dict]] = None,
                 layer_s: Optional[Dict[str, float]] = None) -> None:
        self.status = status
        self.models = models
        self.stats = stats
        self.trace = trace
        self.layer_s = {} if layer_s is None else layer_s


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
    A CSP check on an incomplete M is answered by the witness, the first
    solution of the last check that found one, in any run of the solve,
    when that evaluation solves the checked instance; only otherwise does
    it search (`_csp_feasible`).  Such a check is not an edge, so the
    witness changes no edge of the run, only the fd nodes.
    A failed CSP check learns the denial of a core of M's projection
    (`_core`), tested on the domains of the checked instance, which the run
    keeps for the Learn that follows.
    The run writes its own trace into `records`: a start record, one record
    per edge and an end record, `model`, `failstate` or, when the step
    budget runs out before the run ends, `budget` (`end`).  Every change of
    state within a run is an edge, so the digests chain: the start state's
    is computed once, and each edge's pre-state digest is the post-state
    digest of the one before.  With the trace off `records` is None, no
    state digest or edge payload is computed, and one call of the
    propagator may append literals up to the first edge past the step
    budget; with it on, each call appends one, so that every edge gets its
    own digests and payload.
    """

    def __init__(self, program: CAProgram, cfg: SchemaConfig,
                 stats: SolveStats, traced: bool):
        self.program = program
        self.cfg = cfg
        self.stats = stats
        # the trace's records, None with the trace off
        self.records: Optional[List[dict]] = [] if traced else None
        # the name of the edge that restarts after Learn, None under clear,
        # which never restarts and alone checks partial assignments
        self.restart = {"black": "RestartT", "grey": "Restart"}.get(
            cfg.schema)
        self.check_freq = cfg.check_freq if self.restart is None else None
        self.run = -1                   # the index of the current run
        self.budget = cfg.step_budget
        self.abstraction: RegularProgram = program.asp_abstraction()
        self.names = self.abstraction.names
        self.m = Record(self.abstraction.n_atoms)
        t0 = time.perf_counter()
        clauses = clausify(self.abstraction)
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self.layer_s["clausify_s"] = time.perf_counter() - t0
        self.prop = Propagator(self.m, clauses)
        self.unfounded = UnfoundedCheck(self.abstraction)
        # the csp-abstraction of M at the last CSP check
        self.inst = fd.CSPInstance()
        # the indices of the constraints that changed something in its
        # root's propagation, if that failed (`fd.solutions`)
        self.root_active: List[int] = []
        # the first solution of the last check that found one, in any run
        self.witness: Optional[Dict[str, int]] = None
        self.charge = _charger(stats, self.budget)
        # the learned denials of every run so far
        self.gamma: List[RuleP] = []
        # the denials blocking the models of the earlier runs
        self.blocking: List[RuleP] = []

    def _start_run(self) -> None:
        self.run += 1
        self.stats.runs += 1
        self.decisions_since_check = 0
        # the solutions of the last CSP check that searched, in labeling
        # order; when the run ends in a model, they are the model's
        # evaluations
        self.csp_solutions: Iterator[Dict[str, int]] = iter(())
        if self.records is not None:
            self.records.append({
                "run": self.run, "event": "start",
                "schema": self.cfg.schema, "semantics": self.cfg.semantics,
                "blocking": [self._denial_json(d) for d in self.blocking]})
            self._post = self._digest()     # digest of the current state

    def next_run(self) -> None:
        """Set up the next run from the empty record, on the program
        extended with the denial blocking the model that the run ended in;
        Gamma is kept.  Blocking and learned denials have no head, so the
        unfounded-set check needs no change."""
        d = _projection_denial(sorted(self.m.literals(), key=abs), "full")
        self.blocking.append(d)
        self.prop.reset()
        self.unfounded.reset()
        self.prop.add_clause(rule_clause(d))

    def end(self, status: str, model: Optional[FrozenSet[str]] = None
            ) -> None:
        """Write the end record of the run, unless it has one: the budget
        can run out while the evaluations of its model are enumerated."""
        records = self.records
        if records is not None and records[-1].get("event") != "end":
            rec = {"run": self.run, "event": "end", "status": status}
            if model is not None:
                rec["model"] = sorted(model)
            records.append(rec)

    # -- helpers --------------------------------------------------------

    def _digest(self) -> str:
        return state_digest(self.m, self.names,
                            [str(denial_key(d)) for d in self.gamma], ())

    def _lit_str(self, lit: int) -> str:
        return ("-" if lit < 0 else "") + self.names[lit_atom(lit)]

    def _lit_strs(self, lits: Sequence[int]) -> List[str]:
        return [self._lit_str(x) for x in lits]

    def _denial_json(self, d: RuleP) -> dict:
        return {"pos": [self.names[a] for a in d.pos],
                "neg": [self.names[a] for a in d.neg]}

    def _emit(self, rule: str, payload: Optional[Callable[[], dict]] = None,
              n: int = 1) -> None:
        """Count `n` edges of `rule` that were just applied; with the trace
        on, `n` is 1 and the edge is recorded."""
        stats = self.stats
        stats.steps += n
        # transition edges and fd search nodes share the step budget
        if stats.steps + stats.fd_nodes > self.budget:
            raise BudgetExceeded()
        if self.records is not None:
            pre, self._post = self._post, self._digest()
            self.records.append({"run": self.run, "rule": rule,
                                 "payload": payload() if payload else {},
                                 "pre": pre, "post": self._post})

    def _csp_feasible(self, complete: bool) -> bool:
        """Check the csp-abstraction of M, keeping the instance, with its
        projection and domains, for the Learn edge of a failed check.
        On an incomplete M the check is feasible at once, with no fd node,
        if the witness solves the instance (`fd.solved_by`).  Otherwise,
        and always on a complete M, whose evaluations are enumerated in
        labeling order, it searches, and the first solution found becomes
        the witness."""
        self.stats.csp_checks += 1
        layer_s, clock = self.layer_s, time.perf_counter
        t0 = clock()
        inst = self.inst = fd.build_csp(self.program, self.m.trail,
                                        self.cfg.semantics)
        t1 = clock()
        layer_s["fd_build_s"] += t1 - t0
        self.root_active = []
        if not complete and self.witness is not None:
            solved = fd.solved_by(inst, self.witness)
            layer_s["fd_search_s"] += clock() - t1
            if solved:
                return True
        search = _timed(fd.solutions(inst, self.charge, self.root_active),
                        layer_s)
        first = next(search, None)
        self.csp_solutions = itertools.chain((first,), search)
        if first is None:
            return False
        self.witness = first
        return True

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
        self.gamma.append(d)
        self.prop.add_clause(rule_clause(d))
        self.stats.learned += 1
        self._emit("Learn", lambda: {
            "denial": self._denial_json(d),
            "reason": {"kind": "cp-conflict",
                       "projection": self._lit_strs(self.inst.projection),
                       "core": self._lit_strs(core)}})
        return True

    # -- the run --------------------------------------------------------

    def execute(self) -> Optional[FrozenSet[str]]:
        """Start a run and search to its end: the atoms of the model it
        ends in, whose record is `m`, or None at Failstate."""
        m, prop, stats = self.m, self.prop, self.stats
        unfounded, traced = self.unfounded, self.records is not None
        lit_str, check_freq = self._lit_str, self.check_freq
        layer_s, clock = self.layer_s, time.perf_counter
        n_atoms = self.abstraction.n_atoms
        self._start_run()
        unit_s = unfounded_s = 0.0    # added to layer_s on any exit
        try:
            while True:
                if not m.consistent:
                    if m.decisions:
                        unfounded.backjump(m.decisions[-1])
                        flipped = prop.backjump()
                        self._emit("Backtrack",
                                   lambda: {"lit": lit_str(flipped)})
                    else:
                        self._emit("Fail")
                        self.end("failstate")
                        return None
                    continue

                # Unit Propagate to the fixpoint or a conflict, as far as
                # the budget reaches; one edge per call with the trace on
                limit = 1 if traced else \
                    self.budget + 1 - stats.steps - stats.fd_nodes
                t0 = clock()
                n = prop.propagate(limit)
                t1 = clock()
                unit_s += t1 - t0
                if n:
                    stats.propagations += n
                    self._emit("UnitPropagate", lambda: {
                        "lit": lit_str(m.trail[-1]),
                        "clause": self._lit_strs(prop.reason)}, n)
                    if n == limit or not m.consistent:
                        continue

                # the atoms of one greatest unfounded set, each its own edge,
                # up to the first that M holds true; the clock read after the
                # propagation starts this timing, which so also holds the
                # count of the UnitPropagate edges just above (with the trace
                # on, a propagation that assigns ends the pass)
                atoms = unfounded.pending(m)
                unfounded_s += clock() - t1
                for a in atoms:
                    gus = unfounded.greatest(m) if traced else None
                    m.append(-(a + 1))
                    stats.propagations += 1
                    self._emit("Unfounded", lambda: {
                        "lit": lit_str(-(a + 1)),
                        "unfounded": sorted(self.names[x] for x in gus)})
                    if m.clash:
                        break
                if atoms:
                    continue

                # consistent propagation fixpoint
                complete = m.is_complete()
                if complete or (check_freq is not None and
                                self.decisions_since_check >= check_freq):
                    if complete:
                        stats.candidates += 1
                    self.decisions_since_check = 0
                    if not self._csp_feasible(complete):
                        m.append_bot()
                        self._emit("CPPropagate", lambda: {"projection":
                                   self._lit_strs(self.inst.projection)})
                        if self._learn() and self.restart:
                            prop.reset()
                            unfounded.reset()
                            stats.restarts += 1
                            self._emit(self.restart)
                        # otherwise Backtrack or Fail on the next loop
                        continue
                    if complete:
                        model = frozenset(self.names[lit_atom(l)]
                                          for l in m.literals() if l > 0)
                        self.end("model", model)
                        return model

                # the first unassigned atom
                target = m.val.index(0, 1, n_atoms + 1)
                m.append(target, decided=True)
                stats.decisions += 1
                self.decisions_since_check += 1
                self._emit("Decide", lambda: {"lit": lit_str(target)})
        finally:
            layer_s["unit_s"] += unit_s
            layer_s["unfounded_s"] += unfounded_s


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
    denial looks for the next answer set.  A solve that exceeds the step
    budget has status 'budget' and keeps the models found so far.
    """
    stats = SolveStats()
    models: List[ExtendedAnswerSet] = []
    run = _Run(program, cfg, stats, collect_trace)
    status = "unsat"
    try:
        # an empty denial, whose clause is empty, is violated by every
        # record; no transition edge can represent the conflict, so the
        # degenerate case has no run
        while not run.prop.empty_clause:
            atoms = run.execute()
            if atoms is None:
                break
            status = "sat"
            # the run's last CSP check was on this model and found its first
            # evaluation; the same search goes on to the others, up to the
            # caps that are set
            caps = [c for c in (cfg.max_alphas_per_model,
                                cfg.limit and cfg.limit - len(models)) if c]
            sols = itertools.islice(run.csp_solutions,
                                    max(min(caps), 1) if caps else None)
            lits = tuple(run.m.literals())
            for s in sols:
                models.append(ExtendedAnswerSet(
                    atoms, tuple(sorted(s.items())), lits))
            if cfg.limit and len(models) >= cfg.limit:
                break
            if not lits:
                break           # the empty model over no atoms is unique
            run.next_run()
    except BudgetExceeded:
        status = "budget"
        run.end("budget")
    return SolveResult(status, models, stats, run.records, run.layer_s)
