"""Transition-system search over CA programs.

States are M||Gamma||Lambda: a record of annotated literals plus permanent and
temporal stores of learned denials.  The driver applies Decide, Fail,
Backtrack, Unit Propagate, Unfounded, CP-Propagate, Learn/Learn_t and
Restart/Restart_t edges, restricted by the selected integration schema:

  black  - the constraint solver is consulted only on complete propagated
           assignments; a failed check learns the entailed denial permanently
           and restarts, clearing temporal denials (Restart_t);
  grey   - as black, but the restart preserves the temporal store (Restart);
  clear  - the constraint solver is consulted on partial assignments every
           `check_freq` decisions; conflicts are resolved by chronological
           backtracking and no restarts ever occur.

Every run starts from the empty state, halts in a semi-terminal state or
Failstate, and (optionally) emits a machine-checkable trace.  Enumeration of
further answer sets re-runs the search on the program extended with a
blocking denial over the previous model's literals.

One solver run owns its state exclusively; concurrent runs over a shared
CAProgram are safe.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from . import fd
# find_unit_step and greatest_unfounded_set are the reference versions of the
# search's propagators; they are not called here, but stay importable from
# this module so that span wrappers keyed on its names (perfbench/spans.py)
# keep resolving them
from .asp import (Propagator, Record, RegularProgram, RuleP,  # noqa: F401
                  UnfoundedCheck, clausify, find_unit_step,
                  greatest_unfounded_set, lit_atom, rule_clause)
from .ground import CAProgram

__all__ = [
    "SchemaConfig", "SolveResult", "ExtendedAnswerSet", "SolveStats",
    "solve_ca", "cp_entailed_denial", "constraint_projection",
    "BudgetExceeded",
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
    set (0 = all).
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

    def effective_budget(self) -> int:
        if self.step_budget is not None:
            return self.step_budget
        return int(os.environ.get("EZCASP_STEP_BUDGET", DEFAULT_STEP_BUDGET))


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
    steps: int = 0
    runs: int = 0
    candidates: int = 0        # complete candidate models submitted to the CSP


@dataclass
class SolveResult:
    status: str                        # 'sat' | 'unsat' | 'budget'
    models: List[ExtendedAnswerSet]
    stats: SolveStats
    trace: Optional[List[dict]] = None


def denial_key(d: RuleP) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return (tuple(sorted(d.pos)), tuple(sorted(d.neg)))


def constraint_projection(program: CAProgram, m_literals: Sequence[int],
                          semantics: str) -> Tuple[Tuple[int, ...], RuleP]:
    """M's constraint literals in declaration order, and the denial blocking
    that projection.

    The denial's body holds the positive constraint atoms of M as-is and,
    under full semantics, the negative constraint literals as not-literals.
    """
    m_set = set(m_literals)
    lits = []
    for c in program.constraint_order:
        if (c + 1) in m_set:
            lits.append(c + 1)
        elif -(c + 1) in m_set:
            lits.append(-(c + 1))
    pos = tuple(l - 1 for l in lits if l > 0)
    negs = tuple(-l - 1 for l in lits if l < 0) if semantics == "full" \
        else ()
    return tuple(lits), RuleP(None, pos, negs, ())


def cp_entailed_denial(program: CAProgram, m_literals: Sequence[int],
                       semantics: str) -> RuleP:
    """The denial blocking M's constraint-literal projection.

    By construction every answer set satisfies it while the failing
    assignment does not.  Must only be called when the csp-abstraction of M
    is infeasible.
    """
    inst = fd.build_csp(program, m_literals, semantics)
    if fd.feasible(inst):
        raise ValueError("cp_entailed_denial called on a feasible record")
    return constraint_projection(program, m_literals, semantics)[1]


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
    """One transition-system run from the empty state to a semi-terminal
    state or Failstate.

    Unit Propagate edges come from a watched-literal propagator over the
    record's trail, and Unfounded edges from a linear greatest-unfounded-set
    check; `asp.find_unit_step` and `asp.greatest_unfounded_set` are their
    reference versions.  The closure under both rules does not depend on the
    order in which they fire, so decisions, learned denials and models are
    those of the reference; only the edges up to a conflict may differ.
    With the trace off no state digest or edge payload is computed."""

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
        self.gamma: List[RuleP] = []
        self.gamma_keys: set = set()
        self.lam: List[RuleP] = []
        self.lam_keys: set = set()
        self.m = Record(self.abstraction.n_atoms)
        self.prop = Propagator(self.m, clausify(self.abstraction))
        self.unfounded = UnfoundedCheck(self.abstraction)
        self.decisions_since_check = 0

    # -- helpers --------------------------------------------------------

    def _digest(self) -> str:
        return state_digest(self.m, self.names,
                            [str(denial_key(d)) for d in self.gamma],
                            [str(denial_key(d)) for d in self.lam])

    def _pre(self) -> Optional[str]:
        """The pre-state digest of the next edge; None with the trace off."""
        return self._digest() if self.trace.enabled else None

    def _emit(self, rule: str, pre: Optional[str],
              payload: Optional[Callable[[], dict]] = None) -> None:
        self.stats.steps += 1
        if self.stats.steps > self.budget:
            raise BudgetExceeded()
        if pre is not None:
            self.trace.edge(self.run, rule, payload() if payload else {},
                            pre, self._digest())

    def _csp_feasible(self) -> bool:
        self.stats.csp_checks += 1
        inst = fd.build_csp(self.program, self.m.trail, self.cfg.semantics)
        return fd.feasible(inst)

    def _lit_strs(self, lits: Sequence[int]) -> List[str]:
        return [self.trace.lit_str(x) for x in lits]

    def _learn(self, projection: Tuple[int, ...], d: RuleP) -> bool:
        """Learn the cp-entailed projection denial; False if stale or empty."""
        key = denial_key(d)
        if (not d.pos and not d.neg) or key in self.gamma_keys \
                or key in self.lam_keys:
            return False
        pre = self._pre()
        self.gamma.append(d)
        self.gamma_keys.add(key)
        self.prop.add_clause(rule_clause(d))
        self.stats.learned += 1
        self._emit("Learn", pre, lambda: {
            "denial": self.trace.denial_json(d),
            "reason": {"kind": "cp-conflict",
                       "projection": self._lit_strs(projection)}})
        return True

    def _restart(self) -> None:
        pre = self._pre()
        self.prop.reset()
        if self.cfg.schema == "black":
            self.lam.clear()
            self.lam_keys.clear()
            rule = "RestartT"
        else:
            rule = "Restart"
        self.decisions_since_check = 0
        self.stats.restarts += 1
        self._emit(rule, pre)

    def _unfounded_atom(self) -> Optional[Tuple[int, bytearray]]:
        """The first atom of the greatest unfounded set that M does not
        already falsify, with the supported-atom flags it came from."""
        sup = self.unfounded.supported(self.m)
        val = self.m.val
        a = sup.find(0)
        while a >= 0:
            if val[a + 1] != -1:        # unassigned or positively assigned
                return a, sup
            a = sup.find(0, a + 1)
        return None

    # -- the run --------------------------------------------------------

    def execute(self):
        """-> ('model', Record) | ('failstate',)."""
        cfg, m, prop, stats = self.cfg, self.m, self.prop, self.stats
        lit_str = self.trace.lit_str
        n_atoms = self.abstraction.n_atoms
        while True:
            if not m.consistent:
                pre = self._pre()
                if m.decisions:
                    flipped = prop.backjump()
                    self._emit("Backtrack", pre,
                               lambda: {"lit": lit_str(flipped)})
                else:
                    self._emit("Fail", pre)
                    return ("failstate",)
                continue

            step = prop.step()
            if step is not None:
                lit, clause = step
                pre = self._pre()
                m.append(lit)
                stats.propagations += 1
                self._emit("UnitPropagate", pre, lambda: {
                    "lit": lit_str(lit), "clause": self._lit_strs(clause)})
                continue

            unf = self._unfounded_atom()
            if unf is not None:
                a, sup = unf
                pre = self._pre()
                m.append(-(a + 1))
                stats.propagations += 1
                self._emit("Unfounded", pre, lambda: {
                    "lit": lit_str(-(a + 1)),
                    "unfounded": sorted(self.names[x] for x in range(n_atoms)
                                        if not sup[x])})
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
                    projection, denial = constraint_projection(
                        self.program, m.trail, cfg.semantics)
                    self._emit("CPPropagate", pre, lambda: {
                        "projection": self._lit_strs(projection)})
                    learned = self._learn(projection, denial)
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


def _blocking_denial(m: Record) -> RuleP:
    pos = tuple(sorted(lit_atom(l) for l in m.literals() if l > 0))
    negs = tuple(sorted(lit_atom(l) for l in m.literals() if l < 0))
    return RuleP(None, pos, negs, ())


def solve_ca(program: CAProgram, cfg: SchemaConfig,
             collect_trace: bool = False) -> SolveResult:
    """Compute extended answer sets of a CA program under the configured
    integration schema and semantics.

    Enumerates up to cfg.limit extended answer sets (0 = all): evaluations
    are enumerated per answer set in labeling order, then the search is
    re-launched with a blocking denial to find the next answer set.
    """
    stats = SolveStats()
    names = program.pi.names        # the abstraction adds no atoms
    trace = _Trace(collect_trace, names)
    budget = cfg.effective_budget()
    models: List[ExtendedAnswerSet] = []
    blocking: List[RuleP] = []
    status = "unsat"

    # an empty denial is violated by every record; no transition edge can
    # represent the conflict, so the degenerate case is decided up front
    if any(r.head is None and not (r.pos or r.neg or r.nneg)
           for r in program.pi.rules):
        return SolveResult("unsat", [], stats,
                           trace.records if collect_trace else None)

    try:
        while True:
            run_program = program.with_extra_denials(blocking) if blocking \
                else program
            run_idx = stats.runs
            stats.runs += 1
            trace.start(run_idx, blocking, cfg)
            run = _Run(run_program, cfg, stats, trace, run_idx, budget)
            outcome = run.execute()
            if outcome[0] == "failstate":
                trace.end(run_idx, "failstate")
                break
            m: Record = outcome[1]
            atoms = frozenset(names[lit_atom(l)] for l in m.literals()
                              if l > 0)
            trace.end(run_idx, "model", model=atoms)
            status = "sat"

            inst = fd.build_csp(program, m.literals(), cfg.semantics)
            alpha_cap = None
            if cfg.max_alphas_per_model:
                alpha_cap = cfg.max_alphas_per_model
            if cfg.limit:
                remaining = cfg.limit - len(models)
                alpha_cap = min(alpha_cap, remaining) \
                    if alpha_cap is not None else remaining
            sols, _ = fd.solve(inst, limit=alpha_cap)
            lits = tuple(m.literals())
            for s in sols:
                models.append(ExtendedAnswerSet(
                    atoms, tuple(sorted(s.items())), lits))
            if cfg.limit and len(models) >= cfg.limit:
                break
            if not m.literals():
                break           # the empty model over no atoms is unique
            blocking.append(_blocking_denial(m))
    except BudgetExceeded:
        return SolveResult("budget", models, stats,
                           trace.records if collect_trace else None)

    return SolveResult(status if models else "unsat", models, stats,
                       trace.records if collect_trace else None)
