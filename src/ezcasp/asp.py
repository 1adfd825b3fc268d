"""Propositional regular-program machinery.

Rules are ``a0 <- a1,...,al, not a(l+1),..., not am, not not a(m+1),...``
with `a0` an atom or absent (denial).  This module provides clausification,
the reduct, answer-set checking via the least model of the positive reduct,
records, watched-literal unit propagation and a linear greatest-unfounded-set
check for the search, and a brute-force answer-set enumerator used as an
oracle.  `find_unit_step`, `unit_propagate` and `greatest_unfounded_set` are
the plain reference versions of the search's propagators: they rescan every
clause or rule and serve as independent checks.

Atoms are interned strings; internally they are integer ids and literals are
signed ids (``id+1`` positive, ``-(id+1)`` negative).  Program structures are
immutable after construction and can be shared across threads; a `Record` is
single-owner mutable search state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RuleP", "RegularProgram", "Record", "Clause", "Propagator",
    "UnfoundedCheck", "rule_clause", "clausify", "reduct", "least_model",
    "is_answer_set", "unit_propagate", "find_unit_step",
    "greatest_unfounded_set",
    "enumerate_answer_sets_bruteforce",
    "lit_atom", "lit_sign", "neg",
]

Clause = Tuple[int, ...]


def lit_atom(lit: int) -> int:
    return abs(lit) - 1


def lit_sign(lit: int) -> bool:
    return lit > 0


def neg(lit: int) -> int:
    return -lit


@dataclass(frozen=True)
class RuleP:
    """Ground rule; head is an atom id or None for a denial."""
    head: Optional[int]
    pos: Tuple[int, ...]
    neg: Tuple[int, ...]
    nneg: Tuple[int, ...] = ()


class RegularProgram:
    """Immutable ground program with an ordered atom table."""

    def __init__(self, names: Sequence[str], rules: Sequence[RuleP]):
        self.names: Tuple[str, ...] = tuple(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate atom names")
        self.rules: Tuple[RuleP, ...] = tuple(rules)
        self._check()

    def _check(self) -> None:
        n = len(self.names)
        for r in self.rules:
            for part in (r.pos, r.neg, r.nneg):
                if len(set(part)) != len(part):
                    raise ValueError(f"duplicate atoms in one body part: {r}")
                for a in part:
                    if not 0 <= a < n:
                        raise ValueError(f"atom id out of range: {r}")
            if r.head is not None and not 0 <= r.head < n:
                raise ValueError(f"head id out of range: {r}")

    @classmethod
    def build(cls, rules: Iterable[Tuple[Optional[str], Sequence[str],
                                         Sequence[str], Sequence[str]]],
              extra_atoms: Sequence[str] = ()) -> "RegularProgram":
        """Intern atoms in order of first occurrence and build the program.

        Each rule is (head or None, positive, negated, doubly-negated) over
        atom names; `extra_atoms` forces additional table entries (e.g.
        constraint atoms a caller wants in At even before denials mention
        them).
        """
        names: List[str] = []
        index: Dict[str, int] = {}

        def intern(name: str) -> int:
            if name not in index:
                index[name] = len(names)
                names.append(name)
            return index[name]

        out: List[RuleP] = []
        for head, pos, negs, nneg in rules:
            h = intern(head) if head is not None else None
            out.append(RuleP(
                h,
                tuple(dict.fromkeys(intern(a) for a in pos)),
                tuple(dict.fromkeys(intern(a) for a in negs)),
                tuple(dict.fromkeys(intern(a) for a in nneg)),
            ))
        for a in extra_atoms:
            intern(a)
        return cls(names, out)

    def extended(self, extra: Sequence[RuleP]) -> "RegularProgram":
        return RegularProgram(self.names, tuple(self.rules) + tuple(extra))

    @property
    def n_atoms(self) -> int:
        return len(self.names)

    def atom_set(self, mask: int) -> FrozenSet[str]:
        return frozenset(self.names[i] for i in range(self.n_atoms)
                         if mask >> i & 1)

    def mask_of(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def rule_masks(self) -> List[Tuple[int, int, int, int]]:
        """(head_mask, pos_mask, neg_mask, nneg_mask) per rule; head 0 = denial."""
        out = []
        for r in self.rules:
            hm = 0 if r.head is None else 1 << r.head
            pm = sum(1 << a for a in r.pos)
            nm = sum(1 << a for a in r.neg)
            nn = sum(1 << a for a in r.nneg)
            out.append((hm, pm, nm, nn))
        return out

    def __repr__(self) -> str:
        return f"RegularProgram({self.n_atoms} atoms, {len(self.rules)} rules)"


# ---------------------------------------------------------------------------
# Clausification and reduct
# ---------------------------------------------------------------------------

def rule_clause(r: RuleP) -> Clause:
    """The clause of one rule: head, complemented positive body, negated
    body atoms positive, doubly-negated complemented; no head for denials."""
    lits: List[int] = []
    if r.head is not None:
        lits.append(r.head + 1)
    lits.extend(-(a + 1) for a in r.pos)
    lits.extend(a + 1 for a in r.neg)
    lits.extend(-(a + 1) for a in r.nneg)
    return tuple(dict.fromkeys(lits))


def clausify(prog: RegularProgram) -> List[Clause]:
    """One clause per rule, in rule order (see `rule_clause`)."""
    return [rule_clause(r) for r in prog.rules]


def _body_holds_mask(r: RuleP, x: int) -> bool:
    for a in r.pos:
        if not x >> a & 1:
            return False
    for a in r.neg:
        if x >> a & 1:
            return False
    for a in r.nneg:
        if not x >> a & 1:
            return False
    return True


def reduct(prog: RegularProgram, x_atoms: Iterable[str]) -> List[Tuple[Optional[int], Tuple[int, ...]]]:
    """Positive program: rules whose body X satisfies, reduced to head <- pos."""
    x = prog.mask_of(x_atoms)
    return [(r.head, r.pos) for r in prog.rules if _body_holds_mask(r, x)]


def least_model(positive: Sequence[Tuple[Optional[int], Tuple[int, ...]]]) -> int:
    """Least model (as an atom mask) of a positive program; denial heads
    contribute nothing here (model checking handles them separately)."""
    lm = 0
    changed = True
    while changed:
        changed = False
        for head, pos in positive:
            if head is None:
                continue
            hbit = 1 << head
            if lm & hbit:
                continue
            if all(lm >> a & 1 for a in pos):
                lm |= hbit
                changed = True
    return lm


def _is_answer_set_mask(prog: RegularProgram, x: int) -> bool:
    lm = 0
    # one pass computes both: denial violation check and the positive reduct
    kept: List[Tuple[int, Tuple[int, ...]]] = []
    for r in prog.rules:
        if not _body_holds_mask(r, x):
            continue
        if r.head is None:
            return False
        kept.append((r.head, r.pos))
    changed = True
    while changed:
        changed = False
        for head, pos in kept:
            hbit = 1 << head
            if lm & hbit:
                continue
            if all(lm >> a & 1 for a in pos):
                lm |= hbit
                changed = True
    return lm == x


def is_answer_set(prog: RegularProgram, x_atoms: Iterable[str]) -> bool:
    """True iff X is subset-minimal among models of the clausified reduct,
    decided by the least-model fixpoint of the positive reduct."""
    return _is_answer_set_mask(prog, prog.mask_of(x_atoms))


def enumerate_answer_sets_bruteforce(prog: RegularProgram,
                                     bound: int = 20) -> List[FrozenSet[str]]:
    """All answer sets by exhausting subsets of At; lexicographic order."""
    n = prog.n_atoms
    if n > bound:
        raise ValueError(f"atom bound exceeded: {n} > {bound}")
    found = [prog.atom_set(x) for x in range(1 << n)
             if _is_answer_set_mask(prog, x)]
    return sorted(found, key=lambda s: tuple(sorted(s)))


# ---------------------------------------------------------------------------
# Records and propagation
# ---------------------------------------------------------------------------

class Record:
    """Annotated literal sequence: distinct literals, decision flags, and an
    optional trailing inconsistency (either a complementary pair created by
    the final literal, or an explicit bottom marker).

    The literals are kept in order on `trail`, with the trail positions of
    the decision literals in `decisions`.  `val` is indexed by the signed
    literal itself (negative literals wrap around from the end of the list):
    +1 if the literal holds, -1 if its complement holds, 0 if its atom is
    unassigned.
    """

    def __init__(self, n_atoms: int):
        self.n_atoms = n_atoms
        self.trail: List[int] = []
        self.decisions: List[int] = []
        self.val: List[int] = [0] * (2 * n_atoms + 1)
        self.bot = False
        self.clash = False          # the last literal's complement holds

    def __len__(self) -> int:
        return len(self.trail)

    @property
    def entries(self) -> List[Tuple[int, bool]]:
        """(literal, decided) pairs in record order."""
        dec = set(self.decisions)
        return [(lit, i in dec) for i, lit in enumerate(self.trail)]

    def value(self, atom: int) -> int:
        return self.val[atom + 1]

    def holds(self, lit: int) -> bool:
        return self.val[lit] == 1

    def is_unassigned(self, lit: int) -> bool:
        return self.val[lit] == 0

    @property
    def consistent(self) -> bool:
        return not self.bot and not self.clash

    def is_complete(self) -> bool:
        return len(self.trail) == self.n_atoms and self.consistent

    def literals(self) -> List[int]:
        return list(self.trail)

    def append(self, lit: int, decided: bool = False) -> None:
        if self.bot:
            raise ValueError("cannot extend past bottom")
        if self.clash:
            raise ValueError("cannot extend an inconsistent record")
        v = self.val[lit]
        if v == 1:
            raise ValueError(f"duplicate literal {lit}")
        if decided:
            if v:
                raise ValueError("decision on an assigned atom")
            self.decisions.append(len(self.trail))
        self.trail.append(lit)
        if v:
            self.clash = True       # complement present: M'l, inconsistent
        else:
            self.val[lit] = 1
            self.val[-lit] = -1

    def append_bot(self) -> None:
        if self.bot:
            raise ValueError("bottom already present")
        self.bot = True

    def has_decision(self) -> bool:
        return bool(self.decisions)

    def backjump_last_decision(self) -> int:
        """Chronological backtrack: drop through the most recent decision
        literal, assert its complement (undecided), return that literal."""
        if not self.decisions:
            raise ValueError("no decision literal to backtrack to")
        idx = self.decisions.pop()
        val = self.val
        lit = self.trail[idx]
        for l in self.trail[idx:]:
            if val[l] == 1:         # not the clashing complement
                val[l] = val[-l] = 0
        del self.trail[idx:]
        self.bot = self.clash = False
        self.append(-lit)
        return -lit

    def clear(self) -> None:
        val = self.val
        for l in self.trail:
            val[l] = val[-l] = 0
        self.trail.clear()
        self.decisions.clear()
        self.bot = self.clash = False


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


class Propagator:
    """Unit propagation over a Record with two watched literals per clause.

    Each clause of length two or more watches two of its literals (kept at
    positions 0 and 1 of a private copy).  `step` walks the record's trail
    from a propagation head; for each literal it visits only the clauses
    that watch its complement, moves the watch to a literal that is not
    false, or else reports the clause as unit (its other watch is
    unassigned) or falsified.  Clauses of length one are checked directly.
    The caller appends the literal `step` returns, so every propagation is
    one Unit Propagate edge; `backjump` and `reset` replace the record's own
    Backtrack and clear so that the head and the pending units follow them.

    The closure reached by `step` is the one `unit_propagate` reaches over
    the same clauses, though the literals may come in a different order.
    That rests on chronological backtracking, and on decisions being
    appended only at the fixpoint (after `step` returned None): a false
    watch whose clause is kept because the other watch is true was then
    falsified no earlier in the decision levels than that watch became
    true.  A clause added to a
    non-empty record can break that (its only true literal may sit on a
    later level than all its false ones); such clauses are re-attached
    after each backjump until their watches are safe again.
    """

    def __init__(self, m: Record, clauses: Iterable[Clause] = ()):
        self.m = m
        self.clauses: List[Clause] = []
        self._lits: List[List[int]] = []
        self._watches: List[List[int]] = [[] for _ in m.val]
        self._units: List[int] = []
        self._unit_next = 0
        self._queue: List[Tuple[int, int]] = []
        self._fragile: List[int] = []
        self._head = 0
        for c in clauses:
            self.add_clause(c)

    def add_clause(self, clause: Clause) -> None:
        """Add a clause; allowed at any point of the search."""
        ci = len(self.clauses)
        self.clauses.append(clause)
        c = list(clause)
        self._lits.append(c)
        if len(c) == 1:
            self._units.append(ci)
        elif c:                     # empty clauses are rejected before search
            if not self.m.trail:
                self._watches[c[0]].append(ci)
                self._watches[c[1]].append(ci)
            elif not self._attach(ci):
                self._fragile.append(ci)

    def step(self) -> Optional[Tuple[int, Clause]]:
        """The next unit-propagation edge (literal, clause), or None at the
        fixpoint.  A falsified clause comes back with one of its literals:
        appending it makes the record inconsistent, the conflict edge."""
        m = self.m
        if m.bot or m.clash:
            return None
        val, queue, trail = m.val, self._queue, m.trail
        while True:
            while queue:
                lit, ci = queue.pop()
                if val[lit] != 1:
                    return lit, self.clauses[ci]
            if self._head == len(trail):
                break
            self._head += 1
            conflict = self._visit(-trail[self._head - 1])
            if conflict is not None:
                return conflict
        units = self._units
        while self._unit_next < len(units):
            clause = self.clauses[units[self._unit_next]]
            if val[clause[0]] != 1:
                return clause[0], clause
            self._unit_next += 1
        return None

    def _visit(self, f: int) -> Optional[Tuple[int, Clause]]:
        """Visit the clauses watching `f`, which has just become false."""
        wl = self._watches[f]
        val, lits, watches = self.m.val, self._lits, self._watches
        i = j = 0
        n = len(wl)
        while i < n:
            ci = wl[i]
            i += 1
            c = lits[ci]
            other = c[0]
            if other == f:
                other = c[0] = c[1]
                c[1] = f
            if val[other] == 1:
                wl[j] = ci
                j += 1
                continue
            for k in range(2, len(c)):
                x = c[k]
                if val[x] != -1:
                    c[1] = x
                    c[k] = f
                    watches[x].append(ci)
                    break
            else:
                wl[j] = ci
                j += 1
                if val[other] == -1:
                    del wl[j:i]
                    return other, self.clauses[ci]
                self._queue.append((other, ci))
        del wl[j:]
        return None

    def _attach(self, ci: int) -> bool:
        """Watch two literals of clause `ci` on a non-empty record: literals
        that are not false first, then false ones by latest trail position.
        Queues the clause if it is unit or falsified.  True iff the watches
        stay valid on any later backjump."""
        m = self.m
        val = m.val
        pos: Dict[int, int] = {}
        for i, lit in enumerate(m.trail):
            pos.setdefault(abs(lit), i)
        c = self._lits[ci]
        end = len(m.trail)
        c.sort(key=lambda x: pos[abs(x)] if val[x] == -1 else end,
               reverse=True)
        w0, w1 = c[0], c[1]
        self._watches[w0].append(ci)
        self._watches[w1].append(ci)
        if val[w1] != -1:
            return True
        if val[w0] != 1:
            self._queue.append((w0, ci))
            return False
        # w0 true, everything else false: safe unless w0 was set on a later
        # decision level than w1 was falsified
        return (bisect_right(m.decisions, pos[abs(w0)])
                <= bisect_right(m.decisions, pos[abs(w1)]))

    def backjump(self) -> int:
        """Backtrack on the record (see `Record.backjump_last_decision`)."""
        m = self.m
        if m.decisions:
            self._head = min(self._head, m.decisions[-1])
        flipped = m.backjump_last_decision()
        self._queue.clear()
        self._unit_next = 0
        fragile, self._fragile = self._fragile, []
        for ci in fragile:
            c = self._lits[ci]
            self._watches[c[0]].remove(ci)
            self._watches[c[1]].remove(ci)
            if not self._attach(ci):
                self._fragile.append(ci)
        return flipped

    def reset(self) -> None:
        """Clear the record; every watch is then on an unassigned literal."""
        self.m.clear()
        self._head = self._unit_next = 0
        self._queue.clear()
        self._fragile.clear()


# ---------------------------------------------------------------------------
# Unfounded sets
# ---------------------------------------------------------------------------

def greatest_unfounded_set(prog: RegularProgram,
                           m_literals: Iterable[int]) -> FrozenSet[int]:
    """Largest U such that every body of every a in U is contradicted by M or
    depends positively on U; computed as the complement of the fixpoint of
    externally supported atoms."""
    pos_in_m = set()
    neg_in_m = set()
    for lit in m_literals:
        (pos_in_m if lit > 0 else neg_in_m).add(lit_atom(lit))
    if pos_in_m & neg_in_m:
        raise ValueError("M must be consistent")

    def contradicted(r: RuleP) -> bool:
        return (any(a in neg_in_m for a in r.pos)
                or any(a in pos_in_m for a in r.neg)
                or any(a in neg_in_m for a in r.nneg))

    live: Dict[int, List[Tuple[int, ...]]] = {}
    for r in prog.rules:
        if r.head is None or contradicted(r):
            continue
        live.setdefault(r.head, []).append(r.pos)

    supported: set = set()
    changed = True
    while changed:
        changed = False
        for a, bodies in live.items():
            if a in supported:
                continue
            if any(all(p in supported for p in pos) for pos in bodies):
                supported.add(a)
                changed = True
    return frozenset(range(prog.n_atoms)) - supported


class UnfoundedCheck:
    """Greatest unfounded sets of one program over changing records.

    The non-denial rules are indexed once, by positive body atom.  Each call
    then finds the supported atoms with a body counter per rule and a
    worklist: a rule fires when its positive body is supported and no body
    literal is contradicted by the record, which takes time linear in the
    program.  The greatest unfounded set is the complement.
    """

    def __init__(self, prog: RegularProgram):
        rules = [r for r in prog.rules if r.head is not None]
        self.n_atoms = prog.n_atoms
        self._head = [r.head for r in rules]
        self._npos = [len(r.pos) for r in rules]
        # a rule is contradicted when one of these literals holds
        self._block = [tuple(-(a + 1) for a in r.pos)
                       + tuple(a + 1 for a in r.neg)
                       + tuple(-(a + 1) for a in r.nneg) for r in rules]
        self._facts = [i for i, r in enumerate(rules) if not r.pos]
        self._by_pos: List[List[int]] = [[] for _ in range(prog.n_atoms)]
        for i, r in enumerate(rules):
            for a in r.pos:
                self._by_pos[a].append(i)

    def supported(self, m: Record) -> bytearray:
        """1 for each atom outside the greatest unfounded set on consistent
        `m`, 0 for each atom in it."""
        val, head, block, by_pos = m.val, self._head, self._block, self._by_pos
        count = self._npos[:]
        sup = bytearray(self.n_atoms)
        work = self._facts[:]
        while work:
            ri = work.pop()
            a = head[ri]
            if sup[a]:
                continue
            for x in block[ri]:
                if val[x] == 1:
                    break
            else:
                sup[a] = 1
                for rj in by_pos[a]:
                    count[rj] -= 1
                    if not count[rj]:
                        work.append(rj)
        return sup

    def greatest(self, m: Record) -> FrozenSet[int]:
        sup = self.supported(m)
        return frozenset(a for a in range(self.n_atoms) if not sup[a])
