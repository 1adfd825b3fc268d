"""Propositional regular-program machinery.

Rules are ``a0 <- a1,...,al, not a(l+1),..., not am, not not a(m+1),...``
with `a0` an atom or absent (denial).  This module provides clausification,
answer-set checking via the least model of the positive reduct, records,
the search's watched-literal unit propagation and incremental
greatest-unfounded-set check (both follow one record through its backjumps
and resets), and the exhaustive enumeration of answer-set masks that the
oracle reads.
`greatest_unfounded_set` is the plain reference version of the
unfounded-set check: it rescans every rule, and the trace validator reads
it.

Atoms are interned strings; internally they are integer ids and literals are
signed ids (``id+1`` positive, ``-(id+1)`` negative).  Program structures are
immutable after construction and can be shared across threads; a `Record` is
single-owner mutable search state.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import invert
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    NamedTuple, Optional, Sequence, Tuple)

__all__ = [
    "RuleP", "RegularProgram", "AtomIds", "Record", "Clause", "Propagator",
    "UnfoundedCheck", "rule_clause", "clausify", "is_answer_set",
    "greatest_unfounded_set", "lit_atom",
]

Clause = Tuple[int, ...]


def lit_atom(lit: int) -> int:
    return abs(lit) - 1


class RuleP(NamedTuple):
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
        self._check(self.rules)

    def _check(self, rules: Sequence[RuleP]) -> None:
        n = len(self.names)
        for r in rules:
            for part in (r.pos, r.neg, r.nneg):
                if len(set(part)) != len(part):
                    raise ValueError(f"duplicate atoms in one body part: {r}")
                for a in part:
                    if not 0 <= a < n:
                        raise ValueError(f"atom id out of range: {r}")
            if r.head is not None and not 0 <= r.head < n:
                raise ValueError(f"head id out of range: {r}")

    @classmethod
    def build(cls, rules: Iterable[Tuple[Optional[Hashable],
                                         Sequence[Hashable],
                                         Sequence[Hashable],
                                         Sequence[Hashable]]],
              extra_atoms: Sequence[Hashable] = (),
              name: Optional[Callable[[Hashable], str]] = None
              ) -> "RegularProgram":
        """Intern atoms in order of first occurrence and build the program.

        Each rule is (head or None, positive, negated, doubly-negated) over
        atoms; `extra_atoms` forces additional table entries (e.g.
        constraint atoms a caller wants in At even before denials mention
        them).  An atom is its name, or, with `name`, any key that `name`
        maps to its name.  One pass over the rules names each key where it
        first occurs and numbers it by its name (see `AtomIds`), so keys
        with the same name are one atom, and drops the atoms that then
        repeat within a body part.
        """
        ids = AtomIds(name)
        out = [ids.rule(*r) for r in rules]
        for a in extra_atoms:
            ids[a]                      # enters a new key
        return ids.program(out)

    def extended(self, extra: Sequence[RuleP]) -> "RegularProgram":
        """The program with rules appended; only they are checked, and the
        atom table and its index are shared."""
        extra = tuple(extra)
        self._check(extra)
        out = type(self).__new__(type(self))
        out.names, out.index = self.names, self.index
        out.rules = self.rules + extra
        return out

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


class AtomIds(dict):
    """Atom keys to atom ids, numbered in order of first occurrence.

    A key that is looked up for the first time is named, once: by `name`,
    or, without it, the key is its own name.  It gets the id of its name,
    a new id if the name is new, so keys with the same name are one atom.
    """

    def __init__(self, name: Optional[Callable[[Hashable], str]] = None):
        super().__init__()
        self.name = name
        self.names: Dict[str, int] = {}         # name -> id, in id order

    def __missing__(self, key: Hashable) -> int:
        i = self[key] = self.names.setdefault(
            key if self.name is None else self.name(key), len(self.names))
        return i

    def rule(self, head: Optional[Hashable], pos: Sequence[Hashable],
             neg: Sequence[Hashable], nneg: Sequence[Hashable] = ()
             ) -> RuleP:
        """The rule over atom ids.  Keys are looked up in the order head,
        positive, negated, doubly negated; an atom that repeats within a
        body part is kept at its first place."""
        return RuleP(None if head is None else self[head],
                     self.part(pos), self.part(neg), self.part(nneg))

    def part(self, keys: Sequence[Hashable]) -> Tuple[int, ...]:
        """The ids of the keys, each once, in order of first occurrence."""
        if len(keys) < 2:
            return (self[keys[0]],) if keys else ()
        return tuple(dict.fromkeys([self[k] for k in keys]))

    def program(self, rules: Sequence[RuleP]) -> RegularProgram:
        """The program of `rules`, over the atoms of this table; the rules
        come from `rule`, so the checks of `RegularProgram` hold by
        construction."""
        prog = RegularProgram.__new__(RegularProgram)
        prog.names, prog.index = tuple(self.names), self.names
        prog.rules = tuple(rules)
        return prog


# ---------------------------------------------------------------------------
# Clausification and answer-set checking
# ---------------------------------------------------------------------------

_succ = (1).__add__                     # a + 1, the positive literal of a


def rule_clause(r: RuleP) -> Clause:
    """The clause of one rule: head, complemented positive body, negated
    body atoms positive, doubly-negated complemented; no head for denials.
    A literal that repeats is kept at its first place.  Each body part
    holds an atom once, so only a head that is also negated, or a positive
    atom that is also doubly negated, can repeat one; only those rules are
    looked through for repeats."""
    head, pos, neg, nneg = r
    # ~a is -(a + 1), the negative literal of a
    if head is None:
        lits = (*map(invert, pos), *map(_succ, neg), *map(invert, nneg))
    else:
        lits = (head + 1, *map(invert, pos), *map(_succ, neg),
                *map(invert, nneg))
        if head in neg:
            return tuple(dict.fromkeys(lits))
    return tuple(dict.fromkeys(lits)) if nneg else lits


def clausify(prog: RegularProgram) -> List[Clause]:
    """One clause per rule, in rule order (see `rule_clause`)."""
    return list(map(rule_clause, prog.rules))


def _is_answer_set_mask(masks: Sequence[Tuple[int, int, int, int]],
                        x: int) -> bool:
    """Whether the atom mask `x` is an answer set of the program whose
    `rule_masks` are `masks`: no denial body holds in X, and X is the least
    model of the positive reduct."""
    # one pass computes both: denial violation check and the positive reduct
    kept: List[Tuple[int, int]] = []
    for hm, pm, nm, nn in masks:
        if (x & pm) == pm and (x & nm) == 0 and (x & nn) == nn:
            if hm == 0:
                return False
            kept.append((hm, pm))
    lm = 0
    changed = True
    while changed:
        changed = False
        for hm, pm in kept:
            if not (lm & hm) and (lm & pm) == pm:
                lm |= hm
                changed = True
    return lm == x


def is_answer_set(prog: RegularProgram, x_atoms: Iterable[str]) -> bool:
    """True iff X is subset-minimal among models of the clausified reduct,
    decided by the least-model fixpoint of the positive reduct."""
    return _is_answer_set_mask(prog.rule_masks(), prog.mask_of(x_atoms))


def _answer_set_masks(prog: RegularProgram) -> List[int]:
    """The answer sets of `prog` as atom masks, in increasing order, by
    exhausting the subsets of At."""
    masks = prog.rule_masks()
    return [x for x in range(1 << prog.n_atoms)
            if _is_answer_set_mask(masks, x)]


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


class Propagator:
    """Unit propagation over a Record with two watched literals per clause.

    Each clause of length two or more watches two of its literals (kept at
    positions 0 and 1 of a private copy).  `propagate` walks the record's
    trail from a propagation head; for each literal it visits only the
    clauses that watch its complement, moves the watch to a literal that is
    not false, or else finds the clause unit (its other watch is
    unassigned) or falsified, and appends the literal the clause gives.
    Clauses of length one are checked directly.  Every literal appended is
    one Unit Propagate edge; a limit of one makes one edge per call.
    `backjump` and `reset` replace the record's own Backtrack and clear so
    that the head and the pending units follow them.

    The closure reached by `propagate` is the one reached by rescanning
    every clause until none is unit, though the literals may come in a
    different order.  That rests on chronological backtracking, and on
    decisions being appended only at the fixpoint (after `propagate`
    appended fewer literals than its limit): a false watch whose clause is
    kept because the other watch is true was then falsified no earlier in
    the decision levels than that watch became true.  A clause added to a
    non-empty record can break that (its only true literal may sit on a
    later level than all its false ones); such clauses are re-attached after
    each backjump until their watches are safe again.

    The initial clauses are given on the empty record and attached in one
    pass, each watching its first two literals; that pass also notes
    whether one of them is empty (`empty_clause`).  `add_clause` adds one
    clause at any later point.  An initial clause whose first two literals
    are a and -a, such as the clause `a | -a` of `a :- not not a` (the rule
    of each choice element and constraint atom), can never be unit or
    falsified, so it is kept in `clauses` but watches nothing.
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
        self.reason: Optional[Clause] = None
        if m.trail or m.bot:
            raise ValueError("initial clauses are added on the empty record")
        # whether one of the initial clauses is empty, which no record
        # satisfies; the search rejects such a program before it starts
        self.empty_clause = False
        # on the empty record every clause watches its first two literals
        self.clauses = list(clauses)
        lits, watches, units = self._lits, self._watches, self._units
        for ci, clause in enumerate(self.clauses):
            c = list(clause)
            lits.append(c)
            if len(c) > 1:
                if c[0] != -c[1]:
                    watches[c[0]].append(ci)
                    watches[c[1]].append(ci)
            elif c:
                units.append(ci)
            else:
                self.empty_clause = True

    def add_clause(self, clause: Clause) -> None:
        """Add a clause; allowed at any point of the search."""
        ci = len(self.clauses)
        self.clauses.append(clause)
        self._lits.append(list(clause))
        if len(clause) == 1:
            self._units.append(ci)
        elif clause and not self._attach(ci):   # empty: rejected earlier
            self._fragile.append(ci)

    def propagate(self, limit: int) -> int:
        """Append unit-propagation literals to the record until the fixpoint,
        until a literal that makes the record inconsistent (the conflict
        edge: a falsified clause gives one of its literals), or until
        `limit` literals are appended; returns how many were appended.
        `reason` is then the clause of the last one.  Calls with any limits
        append the same literals in the same order."""
        m = self.m
        if m.bot or m.clash:
            return 0
        val, trail, queue = m.val, m.trail, self._queue
        lits, watches, clauses = self._lits, self._watches, self.clauses
        units = self._units
        head = self._head
        n = 0
        while True:
            while queue:
                lit, ci = queue.pop()
                if val[lit] != 1:
                    m.append(lit)
                    n += 1
                    if m.clash or n == limit:
                        self._head = head
                        self.reason = clauses[ci]
                        return n
            if head < len(trail):
                # visit the clauses watching the literal that has just
                # become false: move the watch to a literal that is not
                # false, or else the clause is unit (its other watch is
                # unassigned) or falsified
                f = -trail[head]
                head += 1
                wl = watches[f]
                i = j = 0
                nw = len(wl)
                while i < nw:
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
                            m.append(other)
                            self._head = head
                            self.reason = clauses[ci]
                            return n + 1
                        queue.append((other, ci))
                del wl[j:]
                continue
            while self._unit_next < len(units):
                clause = clauses[units[self._unit_next]]
                if val[clause[0]] != 1:
                    break
                self._unit_next += 1
            else:
                self._head = head
                return n
            m.append(clause[0])
            n += 1
            if m.clash or n == limit:
                self._head = head
                self.reason = clause
                return n

    def _attach(self, ci: int) -> bool:
        """Watch two literals of clause `ci`: literals that are not false
        first, in clause order, then false ones by latest trail position.
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
    """Greatest unfounded sets of one program over a changing record.

    Every atom outside the greatest unfounded set has a source: one of its
    non-denial rules that no literal of the record blocks and whose positive
    body atoms all have sources, with no cycle among them.  The check keeps a
    source rule per atom (or none), the number of true blocking literals per
    rule and the number of unsourced positive body atoms per rule, and
    `supported` brings them up to date with the trail literals it has not
    seen yet:

    - a literal that blocks an atom's source rule takes the source away from
      that atom and, transitively, from every atom whose source rule has a
      sourceless atom in its positive body; these atoms are then sourced
      again bottom-up wherever a rule allows;
    - `backjump` forgets the literals past a trail position, and the rules
      they had blocked become candidate sources again;
    - `reset` restores the state of the empty record, computed once by a
      worklist when the check is built.

    After each call the sourced atoms are the least fixpoint that
    `greatest_unfounded_set` complements.  `pending` lists the unsourced
    atoms that the record does not falsify; it looks only at the atoms that
    lost their source or their false literal since its last call, and at
    those it returned then.  The search calls `backjump` and
    `reset` alongside the record's own; a call with another record than the
    last one starts from the empty-record state.
    """

    def __init__(self, prog: RegularProgram):
        n = self.n_atoms = prog.n_atoms
        head: List[int] = []                # the non-denial rules' heads
        n_open: List[int] = []
        by_head: List[List[int]] = [[] for _ in range(n)]
        by_pos: List[List[int]] = [[] for _ in range(n)]
        # the rules each literal blocks, indexed like `Record.val`; a rule
        # listed twice under one literal is counted twice when it holds
        blocks: List[List[int]] = [[] for _ in range(2 * n + 1)]
        work: List[int] = []                # the rules without positive body
        for h, pos, neg, nneg in prog.rules:
            if h is None:
                continue
            i = len(head)
            head.append(h)
            n_open.append(len(pos))
            by_head[h].append(i)
            if pos:
                for a in pos:
                    by_pos[a].append(i)
                    blocks[-a - 1].append(i)
            else:
                work.append(i)
            for a in neg:
                blocks[a + 1].append(i)
            for a in nneg:
                blocks[-a - 1].append(i)
        self._head, self._n_open = head, n_open
        self._by_head, self._by_pos, self._blocks = by_head, by_pos, blocks
        self._n_blocked = [0] * len(head)
        self._src = [-1] * n
        self._sup = bytearray(n)
        self._seen: List[int] = []          # the trail literals processed
        self._unblocked: List[int] = []     # candidates after a backjump
        self._m: Optional[Record] = None
        self._grow(work)
        # a superset of the unsourced atoms that the record does not
        # falsify: the atoms that lost their source or their false literal
        # since `pending` last kept those it returned
        self._pending = {a for a in range(n) if not self._sup[a]}
        self._empty = (self._src[:], self._n_open[:], bytes(self._sup),
                       frozenset(self._pending))

    def _grow(self, work: List[int]) -> None:
        """Source the head of each rule in `work` that is unblocked and has
        a sourced positive body, and of every rule that this completes."""
        head, src, sup = self._head, self._src, self._sup
        n_blocked, n_open, by_pos = self._n_blocked, self._n_open, self._by_pos
        while work:
            ri = work.pop()
            a = head[ri]
            if sup[a] or n_blocked[ri] or n_open[ri]:
                continue
            sup[a] = 1
            src[a] = ri
            for rj in by_pos[a]:
                n_open[rj] -= 1
                if not n_open[rj]:
                    work.append(rj)

    def supported(self, m: Record) -> bytearray:
        """1 for each atom outside the greatest unfounded set on consistent
        `m`, 0 for each atom in it.  The flags belong to the check and change
        with its next update."""
        if m is not self._m:
            self._m = m
            self.reset()
        trail, seen = m.trail, self._seen
        if len(seen) > len(trail) or \
                (seen and trail[len(seen) - 1] != seen[-1]):
            raise ValueError("record backtracked without a backjump or reset")
        work, self._unblocked = self._unblocked, []
        if len(seen) < len(trail):
            head, src, sup = self._head, self._src, self._sup
            n_blocked, n_open = self._n_blocked, self._n_open
            blocks, by_pos, by_head = self._blocks, self._by_pos, self._by_head
            lost: List[int] = []
            for lit in trail[len(seen):]:
                for ri in blocks[lit]:
                    n_blocked[ri] += 1
                    a = head[ri]
                    if src[a] == ri:
                        src[a] = -1
                        sup[a] = 0
                        lost.append(a)
            seen.extend(trail[len(seen):])
            for a in lost:                  # grows while it is walked
                for rj in by_pos[a]:
                    n_open[rj] += 1
                    b = head[rj]
                    if src[b] == rj:
                        src[b] = -1
                        sup[b] = 0
                        lost.append(b)
            for a in lost:
                work.extend(by_head[a])
            self._pending.update(lost)
        self._grow(work)
        return self._sup

    def backjump(self, pos: int) -> None:
        """Forget the record's literals from trail position `pos` on."""
        seen = self._seen
        n_blocked, blocks, unblocked = \
            self._n_blocked, self._blocks, self._unblocked
        for lit in seen[pos:]:
            for ri in blocks[lit]:
                n_blocked[ri] -= 1
                if not n_blocked[ri]:
                    unblocked.append(ri)
        self._pending.update(-lit - 1 for lit in seen[pos:] if lit < 0)
        del seen[pos:]

    def reset(self) -> None:
        """Return to the state of the empty record."""
        src, n_open, sup, pending = self._empty
        self._src[:] = src
        self._n_open[:] = n_open
        self._sup[:] = sup
        self._n_blocked = [0] * len(self._n_blocked)
        self._seen.clear()
        self._unblocked.clear()
        self._pending = set(pending)

    def pending(self, m: Record) -> List[int]:
        """The atoms of the greatest unfounded set on consistent `m` that
        `m` does not falsify, in increasing id order, from one update."""
        sup = self.supported(m)
        val = m.val
        pending = self._pending
        out = [a for a in pending if not sup[a] and val[a + 1] != -1]
        pending.clear()
        if out:
            out.sort()
            pending.update(out)
        return out

    def greatest(self, m: Record) -> FrozenSet[int]:
        sup = self.supported(m)
        return frozenset(a for a in range(self.n_atoms) if not sup[a])
