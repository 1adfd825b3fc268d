"""Embedded finite-domain constraint solver.

Constraint expressions are trees of integer arithmetic, comparisons, reified
logical connectives and global constraints (the catalog: all_different,
all_distinct, assignment, circuit, count, cumulative, disjoint2, element,
minimum, maximum, scalar_product, serialized, sum).

One walker, `_subexprs`, lists an expression and everything inside it;
`vars_of` and the occurrence count of the compiled comparisons read it.

The ground-truth checker `satisfied` defines the semantics of every
constraint; search verifies each leaf with it, so propagators only need to be
sound (never remove a value that belongs to some solution), never complete.
`solved_by` tests a given evaluation against an instance with the same
checker, without a search.
Propagation strength: bounds consistency for linear comparisons and
sum/scalar_product, pairwise disequality for all_different, Hall-interval
bounds for all_distinct, time-table filtering for cumulative (serialized is
cumulative with unit resources), light dedicated filters for the remaining
globals, and three-valued filtering for reified formulas.

Propagation is event-driven (Schulte & Stuckey, "Efficient constraint
propagation engines", TOPLAS 2008): each variable has a watch list of the
constraints that mention it, and a constraint is filtered again only after a
domain it watches narrowed.  A filter that narrows a domain queues every
watcher of that variable, itself included, so the queue empties at a common
fixpoint of all constraints.  Following the same paper, a propagator is
compiled once and each run only reads domains: every comparison node
carries its linear and interval forms (`Cmp.form`), built with the node,
and its complement, built on first use; every global node carries its
reading (`Global.reading`), built on first use: the constraint it is read
as, its arguments in that reading and whether its lists fit, which the
checker and the filter both dispatch on; every `sum` and `scalar_product`
node carries the linear form of its sum minus its target (`Global.form`),
built with the node.  The other global filters narrow only plain-variable
items, and read every other item, index, target, count value or limit as
its interval under the live domains (`_ival`).  A reified `or` is
evaluated once per run, in one left-to-right pass over its disjuncts, with
nested `or`s flattened once per node (`BoolExpr.disjuncts`), that decides
between failure, entailment and the single open disjunct to enforce.  An
`or` found entailed stays entailed under narrowing, so it is put to sleep
on a trail (`_Trail`): propagation neither queues nor filters it again
until the trail is undone past the node where it fell asleep.  Outside a
search, a `propagate` call runs on a trail of its own that is never
undone.  Cumulative filtering builds one profile of compulsory parts per
run and lifts each job's part out of it in turn.

Search is a generator (`solutions`) over an explicit stack of choice points,
so its depth is not bounded by the interpreter's recursion limit.  It works
on one copy of the instance, trailing each domain change and undoing it on
backtracking; a caller can charge each search node to a budget.  Labeling
is deterministic: leftmost unfixed variable in declaration order, ascending
values, binary x=v / x!=v branching, each branch propagating from the
variable just branched on.  Every solution is a leaf that `satisfied`
accepts, and any sound propagator leaves the same leaves, so solutions come
in the lexicographic order of `var_order` whatever order the queue runs in.
A `CSPInstance` is single-owner mutable during search; independent instances
may be solved on separate threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import add, attrgetter, mul, neg, sub
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

__all__ = [
    "IntConst", "VarRef", "Arith", "Cmp", "BoolExpr", "Global", "ConstraintExpr",
    "Domain", "CSPInstance", "FdError", "ComplementUnsupported",
    "satisfied", "solved_by", "eval_term", "complement", "propagate",
    "solutions", "refuted", "vars_of", "build_csp", "CMP_NAMES",
]

_CMP_FUN = {
    "lt": lambda a, b: a < b,
    "leq": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "geq": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "neq": lambda a, b: a != b,
}
CMP_NAMES = tuple(_CMP_FUN)


def _div(a: int, b: int) -> int:
    """Integer division truncating toward zero; ZeroDivisionError if b is 0."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


# the integer function of each arithmetic operation, which the grounder's
# built-in arithmetic shares
_ARITH_FUN = {"plus": add, "minus": sub, "times": mul, "div": _div,
              "neg": neg}

_CMP_COMPLEMENT = {"lt": "geq", "geq": "lt", "leq": "gt", "gt": "leq",
                   "eq": "neq", "neq": "eq"}


class FdError(Exception):
    pass


class ComplementUnsupported(FdError):
    """Raised when a negated constraint literal maps to a global constraint
    or reified formula; only primitive comparisons have complements here."""


# ---------------------------------------------------------------------------
# Expression model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Arith:
    """op in {plus, minus, times, div, neg}; div truncates toward zero."""
    op: str
    args: tuple


class _Constraint:
    """Base of the constraint node types.  Nodes are immutable and shared
    by every CSP built from one program, so their variables are collected
    once per node."""

    @cached_property
    def variables(self) -> FrozenSet[str]:
        return frozenset(vars_of(self))


@dataclass(frozen=True)
class Cmp(_Constraint):
    """Comparison lhs op rhs, compiled once when the node is built.

    Its `form` is (lin, const, diff).  lin is the linear form of lhs - rhs
    as (variable, coefficient) pairs without zero coefficients, and const
    its constant; lin is None if a side is not linear.  diff is set when
    each side is linear with each variable once: the pairs of lhs followed
    by the negated pairs of rhs, so that const plus their interval is
    exactly the interval of lhs - rhs that `_ival` gives; otherwise None.
    diff is lin itself when the two are equal."""
    op: str
    lhs: "ConstraintExpr"
    rhs: "ConstraintExpr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", _compile_cmp(self))

    @cached_property
    def complement(self) -> "Cmp":
        """The complementary comparison, built once per node."""
        return Cmp(_CMP_COMPLEMENT[self.op], self.lhs, self.rhs)


@dataclass(frozen=True)
class BoolExpr(_Constraint):
    """Reified connective: op in {or, and, xor, impl, iff, not}."""
    op: str
    args: tuple

    @cached_property
    def disjuncts(self) -> tuple:
        """The arguments of an `or` with nested `or`s flattened, left to
        right, built once per node: or(or(a, b), c) gives (a, b, c)."""
        out = []
        for a in self.args:
            if isinstance(a, BoolExpr) and a.op == "or":
                out.extend(a.disjuncts)
            else:
                out.append(a)
        return tuple(out)


@dataclass(frozen=True)
class Global(_Constraint):
    """Global constraint; args are tuples of terms, ints, or comparison-op
    names, per the catalog's signature for `name`.

    A `sum` or `scalar_product` is compiled once when the node is built.
    Its `form` is (lin, const): the linear form of the weighted sum of the
    items minus the target, as (variable, coefficient) pairs with repeated
    variables merged and zero coefficients dropped, and its constant; lin
    is None if an item or the target is not linear, or if the lists of a
    `scalar_product` differ in length.  Any other global has
    form None."""
    name: str
    args: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", _compile_sum(self)
                           if self.name in _SUMS else None)

    @cached_property
    def reading(self) -> Tuple[str, tuple, bool]:
        """(name, args, fits), built once per node: the constraint the node
        is read as, its arguments in that reading and whether its lists
        fit.  `serialized` is read as `cumulative` with unit resources and
        limit 1, `sum` as `scalar_product` with unit coefficients, and any
        other global as itself.  The lists fit when the list arguments have
        equal lengths (the paired lists of assignment, cumulative,
        disjoint2 and scalar_product) and those of minimum and maximum have
        an item; nothing satisfies a node whose lists do not fit."""
        name, args = self.name, self.args
        if name == "serialized":
            name, args = "cumulative", (*args, (1,) * len(args[1]), 1)
        elif name == "sum":
            name, args = "scalar_product", ((1,) * len(args[0]), *args)
        lengths = {len(a) for a in args if isinstance(a, tuple)}
        fits = len(lengths) <= 1 and not (
            name in ("minimum", "maximum") and 0 in lengths)
        return name, args, fits


ConstraintExpr = object


def _subexprs(c) -> list:
    """c and every expression inside it, breadth first: the arguments of an
    operation, a connective or a global constraint, the items of a tuple
    argument and the sides of a comparison."""
    out = [c]
    for x in out:                       # the loop reads what it appends
        kids = _KIDS.get(x.__class__)
        if kids is not None:
            out.extend(kids(x))
    return out


# the children of each kind of node that has any
_KIDS = {Arith: attrgetter("args"), BoolExpr: attrgetter("args"),
         Global: attrgetter("args"), Cmp: attrgetter("lhs", "rhs"),
         tuple: tuple}


def vars_of(c) -> Set[str]:
    return {x.name for x in _subexprs(c) if isinstance(x, VarRef)}


# ---------------------------------------------------------------------------
# Ground-truth semantics
# ---------------------------------------------------------------------------

def eval_term(t, e: Dict[str, int]) -> Optional[int]:
    """Integer value of an arithmetic term; None on division by zero."""
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, VarRef):
        return e[t.name]
    if isinstance(t, int):
        return t
    if isinstance(t, Arith):
        fun = _ARITH_FUN.get(t.op)
        if fun is not None:
            vals = [eval_term(a, e) for a in t.args]
            if None in vals:
                return None
            try:
                return fun(*vals)
            except ZeroDivisionError:
                return None
    raise FdError(f"not an arithmetic term: {t!r}")


def _values(items, e) -> Optional[List[int]]:
    vals = []
    for it in items:
        v = eval_term(it, e)
        if v is None:
            return None
        vals.append(v)
    return vals


def _sat_global(g: Global, e: Dict[str, int]) -> bool:
    name, args, fits = g.reading
    if not fits:
        return False
    if name in ("all_different", "all_distinct"):
        vals = _values(args[0], e)
        return vals is not None and len(set(vals)) == len(vals)
    if name == "assignment":
        xs, ys = _values(args[0], e), _values(args[1], e)
        if xs is None or ys is None:
            return False
        n = len(xs)
        if any(not 1 <= v <= n for v in xs + ys):
            return False
        return all((xs[i] == j + 1) == (ys[j] == i + 1)
                   for i in range(n) for j in range(n))
    if name == "circuit":
        vs = _values(args[0], e)
        if vs is None:
            return False
        n = len(vs)
        if any(not 1 <= v <= n for v in vs) or len(set(vs)) != n:
            return False
        # the cycle of the permutation through node 1 has all n nodes
        steps, cur = 0, 1
        for steps in range(1, n + 1):
            cur = vs[cur - 1]
            if cur == 1:
                break
        return steps == n
    if name == "count":
        m = eval_term(args[0], e)
        vals = _values(args[1], e)
        target = eval_term(args[3], e)
        if m is None or vals is None or target is None:
            return False
        return _CMP_FUN[args[2]](sum(1 for v in vals if v == m), target)
    if name == "cumulative":
        starts = _values(args[0], e)
        durs, ress = args[1], args[2]
        limit = eval_term(args[3], e)
        if starts is None or limit is None:
            return False
        for t in _active_times(starts, durs):
            used = sum(r for s, d, r in zip(starts, durs, ress)
                       if s <= t < s + d)
            if used > limit:
                return False
        return True
    if name == "disjoint2":
        xs, ys = _values(args[0], e), _values(args[2], e)
        ws, hs = args[1], args[3]
        if xs is None or ys is None:
            return False
        n = len(xs)
        for i in range(n):
            for j in range(i + 1, n):
                x_olap = xs[i] < xs[j] + ws[j] and xs[j] < xs[i] + ws[i]
                y_olap = ys[i] < ys[j] + hs[j] and ys[j] < ys[i] + hs[i]
                if x_olap and y_olap and ws[i] > 0 and hs[i] > 0 \
                        and ws[j] > 0 and hs[j] > 0:
                    return False
        return True
    if name == "element":
        i = eval_term(args[0], e)
        vals = _values(args[1], e)
        tgt = eval_term(args[2], e)
        if i is None or vals is None or tgt is None:
            return False
        return 1 <= i <= len(vals) and vals[i - 1] == tgt
    if name in ("minimum", "maximum"):
        m = eval_term(args[0], e)
        vals = _values(args[1], e)
        if m is None or vals is None:
            return False
        return m == (min(vals) if name == "minimum" else max(vals))
    if name == "scalar_product":
        coeffs, items, op, target = args
        vals = _values((*items, target), e)     # the target's value last
        return vals is not None and _CMP_FUN[op](
            sum(map(mul, coeffs, vals)) - vals[-1], 0)
    raise FdError(f"unknown global constraint {name!r}")


def _active_times(starts: List[int], durs: List[int]) -> Iterator[int]:
    times = set()
    for s, d in zip(starts, durs):
        for t in range(s, s + d):
            times.add(t)
    return iter(sorted(times))


def satisfied(c, e: Dict[str, int]) -> bool:
    """Ground-truth check of a constraint under a total evaluation.

    Used both by search (leaf verification) and by the brute-force oracle;
    this function *is* the constraint semantics.
    """
    if isinstance(c, Cmp):
        l, r = eval_term(c.lhs, e), eval_term(c.rhs, e)
        if l is None or r is None:
            return False
        return _CMP_FUN[c.op](l, r)
    if isinstance(c, BoolExpr):
        op = c.op
        if op == "not":
            return not satisfied(c.args[0], e)
        vals = [satisfied(a, e) for a in c.args]
        if op == "or":
            return any(vals)
        if op == "and":
            return all(vals)
        if op == "xor":
            return vals[0] != vals[1]
        if op == "impl":
            return (not vals[0]) or vals[1]
        if op == "iff":
            return vals[0] == vals[1]
        raise FdError(f"unknown connective {op!r}")
    if isinstance(c, Global):
        return _sat_global(c, e)
    raise FdError(f"not a constraint: {c!r}")


def solved_by(csp: CSPInstance, e: Dict[str, int]) -> bool:
    """Whether `e`, with each variable of `csp` that it lacks set to the
    lower bound of its domain, solves `csp`: every value lies in its domain
    and every constraint is `satisfied`.  `csp` is not modified."""
    full = {}
    for v, d in csp.domains.items():
        x = e.get(v, d.lo)
        if not d.contains(x):
            return False
        full[v] = x
    return all(satisfied(c, full) for c in csp.constraints)


def complement(c) -> Cmp:
    """Complement of a primitive comparison: exactly one of c and
    complement(c) holds under any evaluation."""
    if isinstance(c, Cmp):
        return c.complement
    raise ComplementUnsupported(
        f"complement of non-primitive constraint unsupported: {c!r}")


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class Domain:
    """Integer interval with removed interior values ("holes")."""

    __slots__ = ("lo", "hi", "holes")

    def __init__(self, lo: int, hi: int, holes: Optional[Set[int]] = None):
        self.lo = lo
        self.hi = hi
        self.holes: Set[int] = holes or set()
        self._normalize()

    def _normalize(self) -> None:
        while self.lo <= self.hi and self.lo in self.holes:
            self.holes.discard(self.lo)
            self.lo += 1
        while self.lo <= self.hi and self.hi in self.holes:
            self.holes.discard(self.hi)
            self.hi -= 1
        if self.holes:
            self.holes = {v for v in self.holes if self.lo < v < self.hi}

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def fixed(self) -> bool:
        return self.lo == self.hi

    def size(self) -> int:
        return 0 if self.empty else self.hi - self.lo + 1 - len(self.holes)

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi and v not in self.holes

    def set_min(self, v: int) -> bool:
        if v <= self.lo:
            return False
        self.lo = v
        self._normalize()
        return True

    def set_max(self, v: int) -> bool:
        if v >= self.hi:
            return False
        self.hi = v
        self._normalize()
        return True

    def remove(self, v: int) -> bool:
        if not self.contains(v):
            return False
        if v == self.lo or v == self.hi:
            self.holes.add(v)
            self._normalize()
        else:
            self.holes.add(v)
        return True

    def intersect_range(self, lo: int, hi: int) -> bool:
        changed = self.set_min(lo)
        changed |= self.set_max(hi)
        return changed

    def values(self) -> Iterator[int]:
        v = self.lo
        while v <= self.hi:
            if v not in self.holes:
                yield v
            v += 1

    def copy(self) -> "Domain":
        d = Domain.__new__(Domain)
        d.lo, d.hi, d.holes = self.lo, self.hi, set(self.holes)
        return d

    def __repr__(self) -> str:
        if self.empty:
            return "Domain(empty)"
        h = f" \\ {sorted(self.holes)}" if self.holes else ""
        return f"Domain({self.lo}..{self.hi}{h})"


# ---------------------------------------------------------------------------
# CSP instances
# ---------------------------------------------------------------------------

class CSPInstance:
    """Variables in declaration order, their current domains, constraints.

    Constraints are added with `post`; the watch lists are built from them
    on first use and dropped by `post`.  An instance that `build_csp` made
    also holds the `projection` it was built from and, in `posts`, the
    constraint that each projection literal posts, for those that post one,
    in projection order."""

    def __init__(self):
        self.var_order: List[str] = []
        self.domains: Dict[str, Domain] = {}
        self.constraints: List[object] = []
        self.projection: Tuple[int, ...] = ()
        self.posts: Dict[int, object] = {}
        self._watch: Optional[Dict[str, Tuple[int, ...]]] = None
        self._trail: Optional[_Trail] = None      # set on a search's copy

    def add_var(self, name: str, lo: int, hi: int) -> None:
        """Add a new variable ranging over lo..hi."""
        self.var_order.append(name)
        self.domains[name] = Domain(lo, hi)

    def post(self, c) -> None:
        self.constraints.append(c)
        self._watch = None

    def watch_lists(self) -> Dict[str, Tuple[int, ...]]:
        """Per variable, the indices of the constraints that mention it, in
        ascending order."""
        if self._watch is None:
            watch: Dict[str, List[int]] = {}
            for i, c in enumerate(self.constraints):
                for v in c.variables:
                    watch.setdefault(v, []).append(i)
            self._watch = {v: tuple(ix) for v, ix in watch.items()}
        return self._watch

    def copy(self) -> "CSPInstance":
        inst = CSPInstance()
        inst.var_order = list(self.var_order)
        inst.domains = {n: d.copy() for n, d in self.domains.items()}
        inst.constraints = list(self.constraints)
        return inst

    def evaluation(self) -> Dict[str, int]:
        return {n: d.lo for n, d in self.domains.items()}

    def assignment_count(self) -> int:
        total = 1
        for d in self.domains.values():
            total *= max(d.size(), 0)
        return total

    def __repr__(self) -> str:
        return (f"CSPInstance({len(self.var_order)} vars, "
                f"{len(self.constraints)} constraints)")


# ---------------------------------------------------------------------------
# Interval arithmetic and linearization
# ---------------------------------------------------------------------------

def _ival(t, dom: Dict[str, Domain]) -> Tuple[int, int]:
    if isinstance(t, IntConst):
        return (t.value, t.value)
    if isinstance(t, int):
        return (t, t)
    if isinstance(t, VarRef):
        d = dom[t.name]
        return (d.lo, d.hi)
    if isinstance(t, Arith):
        if t.op == "neg":
            lo, hi = _ival(t.args[0], dom)
            return (-hi, -lo)
        a, b = _ival(t.args[0], dom), _ival(t.args[1], dom)
        if t.op == "plus":
            return (a[0] + b[0], a[1] + b[1])
        if t.op == "minus":
            return (a[0] - b[1], a[1] - b[0])
        if t.op == "times":
            corners = [x * y for x in a for y in b]
            return (min(corners), max(corners))
        if t.op == "div":
            if b[0] <= 0 <= b[1]:
                # divisor range includes zero; no useful bound
                big = max(abs(a[0]), abs(a[1]))
                return (-big, big)
            corners = [_div(x, y) for x in a for y in b]
            return (min(corners), max(corners))
    raise FdError(f"not an arithmetic term: {t!r}")


def _linearize(t) -> Optional[Tuple[Dict[str, int], int]]:
    """Flatten into (coefficients, constant); None if non-linear."""
    if isinstance(t, IntConst):
        return ({}, t.value)
    if isinstance(t, int):
        return ({}, t)
    if isinstance(t, VarRef):
        return ({t.name: 1}, 0)
    if isinstance(t, Arith):
        if t.op == "neg":
            sub = _linearize(t.args[0])
            if sub is None:
                return None
            return ({k: -v for k, v in sub[0].items()}, -sub[1])
        a, b = _linearize(t.args[0]), _linearize(t.args[1])
        if t.op in ("plus", "minus") and a is not None and b is not None:
            sign = 1 if t.op == "plus" else -1
            coeffs = dict(a[0])
            for k, v in b[0].items():
                coeffs[k] = coeffs.get(k, 0) + sign * v
            return ({k: v for k, v in coeffs.items() if v},
                    a[1] + sign * b[1])
        if t.op == "times" and a is not None and b is not None:
            if not a[0]:
                scale, lin = a[1], b
            elif not b[0]:
                scale, lin = b[1], a
            else:
                return None
            return ({k: scale * v for k, v in lin[0].items()},
                    scale * lin[1])
    return None


def _compile_cmp(c: Cmp) -> tuple:
    """The compiled form of a comparison (see `Cmp.form`)."""
    lhs, rhs = _linearize(c.lhs), _linearize(c.rhs)
    if lhs is None or rhs is None:
        return None, 0, None
    coeffs = dict(lhs[0])
    for k, v in rhs[0].items():
        coeffs[k] = coeffs.get(k, 0) - v
    lin = tuple((k, v) for k, v in coeffs.items() if v)
    diff = None
    # a side whose coefficients cover each occurrence once has an exact
    # interval; a repeated variable or a dropped zero coefficient does not.
    # No side has more coefficients than occurrences, so comparing the
    # totals compares each side.
    refs = len([x for x in _subexprs(c) if isinstance(x, VarRef)])
    if len(lhs[0]) + len(rhs[0]) == refs:
        diff = tuple(lhs[0].items()) + \
            tuple((k, -v) for k, v in rhs[0].items())
        if diff == lin:
            diff = lin
    return lin, lhs[1] - rhs[1], diff


_SUMS = ("sum", "scalar_product")


def _compile_sum(g: Global) -> tuple:
    """The compiled form of a `sum` or `scalar_product` (see `Global`), in
    one pass over its items, so a long list needs no deep recursion."""
    _, args, fits = g.reading
    if not fits:
        return None, 0
    coeffs, items, _, target = args
    merged: Dict[str, int] = {}
    const = 0
    for c, t in zip((*coeffs, -1), (*items, target)):
        lin = _linearize(t)
        if lin is None:
            return None, 0
        for k, v in lin[0].items():
            merged[k] = merged.get(k, 0) + c * v
        const += c * lin[1]
    return tuple((k, v) for k, v in merged.items() if v), const


def _decide(op: str, lo: int, hi: int) -> Optional[bool]:
    """Three-valued truth of `d op 0` for an integer d known to lie in
    [lo, hi]: True if it holds for every such d, False if for none."""
    if op == "lt":
        return True if hi < 0 else (False if lo >= 0 else None)
    if op == "leq":
        return True if hi <= 0 else (False if lo > 0 else None)
    if op == "gt":
        return True if lo > 0 else (False if hi <= 0 else None)
    if op == "geq":
        return True if lo >= 0 else (False if hi < 0 else None)
    if op == "eq":
        if lo == hi == 0:
            return True
        return False if hi < 0 or lo > 0 else None
    if hi < 0 or lo > 0:        # neq
        return True
    return False if lo == hi == 0 else None


class _Trail:
    """Domain states and asleep constraints saved during search, restored
    on backtracking.

    The search is cut into segments at its choice points.  A domain is saved
    before its first possible change in a segment, so undoing the trail to
    the start of a segment restores every domain the segment changed.  A
    constraint that propagation finds entailed is asleep (`asleep`, by
    constraint index) and listed in `slept`, so undoing wakes every
    constraint that fell asleep in the segments it undoes.  Segment 0,
    before the first choice point, is never undone and saves no domain;
    outside a search, a `propagate` call runs on a trail of its own that
    stays at segment 0."""

    def __init__(self, n_constraints: int):
        self.entries: List[Tuple[Domain, int, int, Set[int]]] = []
        self.saved: Dict[str, int] = {}     # variable -> segment of its save
        self.segment = 0
        self.asleep = bytearray(n_constraints)
        self.slept: List[int] = []

    def save(self, name: str, d: Domain) -> None:
        if self.segment and self.saved.get(name) != self.segment:
            self.saved[name] = self.segment
            self.entries.append((d, d.lo, d.hi, set(d.holes)))

    def mark(self) -> Tuple[int, int]:
        """Start a segment; returns the positions that undo it."""
        self.segment += 1
        return len(self.entries), len(self.slept)

    def undo(self, pos: Tuple[int, int]) -> None:
        """Restore the domains and the asleep constraints to their state at
        `pos`; starts a segment."""
        entries, slept, asleep = self.entries, self.slept, self.asleep
        while len(entries) > pos[0]:
            d, lo, hi, holes = entries.pop()
            d.lo, d.hi, d.holes = lo, hi, holes
        while len(slept) > pos[1]:
            asleep[slept.pop()] = 0
        self.segment += 1


class _Store:
    """Mutable propagation context over a CSPInstance's domains; `touched`
    lists the variables whose domains narrowed, in order, with repeats.
    A domain is saved on the trail before it may change."""

    def __init__(self, domains: Dict[str, Domain], trail: _Trail):
        self.domains = domains
        self.trail = trail
        self.touched: List[str] = []
        self.failed = False

    def dom(self, name: str) -> Domain:
        return self.domains[name]

    def _writable(self, name: str) -> Domain:
        d = self.domains[name]
        self.trail.save(name, d)
        return d

    def note(self, changed: bool, name: str) -> None:
        if changed:
            self.touched.append(name)
            if self.domains[name].empty:
                self.failed = True

    # each guard is the condition under which the Domain method changes the
    # domain, so that only a change is trailed
    def set_min(self, name: str, v: int) -> None:
        if v > self.domains[name].lo:
            self.note(self._writable(name).set_min(v), name)

    def set_max(self, name: str, v: int) -> None:
        if v < self.domains[name].hi:
            self.note(self._writable(name).set_max(v), name)

    def remove(self, name: str, v: int) -> None:
        if self.domains[name].contains(v):
            self.note(self._writable(name).remove(v), name)

    def intersect_range(self, name: str, lo: int, hi: int) -> None:
        d = self.domains[name]
        if lo > d.lo or hi < d.hi:
            self.note(self._writable(name).intersect_range(lo, hi), name)


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

def _filter_linear(st: _Store, coeffs: Sequence[Tuple[str, int]],
                   const: int, op: str) -> None:
    """Bounds consistency for sum(coeff * var) + const  op  0, over
    (variable, coefficient) pairs with distinct variables and nonzero
    coefficients."""
    doms = st.domains
    if op == "neq":
        unfixed = [(n, c) for n, c in coeffs if not doms[n].fixed]
        if not unfixed:
            total = const + sum(c * doms[n].lo for n, c in coeffs)
            if total == 0:
                st.failed = True
            return
        if len(unfixed) == 1:
            n, c = unfixed[0]
            rest = const + sum(k * doms[m].lo for m, k in coeffs if m != n)
            if rest % c == 0:
                st.remove(n, -rest // c)
        return

    # each bound as s * sum(coeff * var) <= k: s = 1 bounds the sum from
    # above and s = -1 from below
    bounds = []
    if op in ("leq", "lt", "eq"):
        bounds.append((1, -const - (op == "lt")))
    if op in ("geq", "gt", "eq"):
        bounds.append((-1, const - (op == "gt")))
    for s, k in bounds:
        terms = [(n, s * c) for n, c in coeffs]
        mins = [c * doms[n].lo if c > 0 else c * doms[n].hi
                for n, c in terms]
        slack = k - sum(mins)
        if slack < 0:
            st.failed = True
            return
        for (n, c), a in zip(terms, mins):
            # c * var may exceed its least value a by at most the slack
            if c > 0:
                st.set_max(n, (slack + a) // c)
            else:
                st.set_min(n, -(-(slack + a) // c))
            if st.failed:
                return


def _filter_cmp(st: _Store, c: Cmp) -> None:
    lin, const, _ = c.form
    if lin is not None:
        _filter_linear(st, lin, const, c.op)
    # non-linear: forward interval check only
    elif _definitely(c, st) is False:
        st.failed = True


def _disjuncts(st: _Store, args: tuple, sat: bool
               ) -> Tuple[Optional[bool], object]:
    """One left-to-right pass over the disjuncts `args`, where a disjunct
    holds when its truth is `sat`, stopping at the first that holds.
    Returns the truth of the disjunction (`sat`, `not sat` when every
    disjunct is refuted, None when open) and, when open, its only open
    disjunct or None if there are several."""
    open_arg = None
    n_open = 0
    for a in args:
        v = _definitely(a, st)
        if v is sat:
            return sat, None
        if v is None:
            n_open += 1
            open_arg = a
    if not n_open:
        return not sat, None
    return None, open_arg if n_open == 1 else None


def _definitely(c, st: _Store) -> Optional[bool]:
    """Three-valued truth of a constraint under current domains.

    A comparison is decided by the interval of lhs - rhs: read from its
    compiled form when each side is linear with each variable once, and
    otherwise from the `_ival` intervals of the sides.  `or` and `and` are
    decided in one pass that stops at the first disjunct that holds
    (`_disjuncts`)."""
    if isinstance(c, Cmp):
        _, lo, diff = c.form
        doms = st.domains
        try:
            if diff is None:
                llo, lhi = _ival(c.lhs, doms)
                rlo, rhi = _ival(c.rhs, doms)
                lo, hi = llo - rhi, lhi - rlo
            else:
                hi = lo
                for n, k in diff:
                    d = doms[n]
                    if k >= 0:
                        lo += k * d.lo
                        hi += k * d.hi
                    else:
                        lo += k * d.hi
                        hi += k * d.lo
        except KeyError:
            return None
        return _decide(c.op, lo, hi)
    if isinstance(c, BoolExpr):
        op = c.op
        if op == "or":
            return _disjuncts(st, c.disjuncts, True)[0]
        if op == "and":
            return _disjuncts(st, c.args, False)[0]
        vals = [_definitely(a, st) for a in c.args]
        if op == "not":
            return None if vals[0] is None else (not vals[0])
        if op == "xor":
            if None in vals:
                return None
            return vals[0] != vals[1]
        if op == "impl":
            if vals[0] is False or vals[1] is True:
                return True
            if vals[0] is True and vals[1] is False:
                return False
            return None
        if op == "iff":
            if None in vals:
                return None
            return vals[0] == vals[1]
    if isinstance(c, Global):
        doms = st.domains
        names = c.variables
        if all(doms[n].fixed for n in names):
            return satisfied(c, {n: doms[n].lo for n in names})
        return None
    raise FdError(f"not a constraint: {c!r}")


def _require(st: _Store, c, want: bool) -> None:
    """Enforce c (or its negation): implication-based reified filtering.

    A negated comparison enforces its cached complement.  The
    non-conjunctive case of `or` and `and` (`or` wanted true, `and` wanted
    false) evaluates each disjunct at most once, in the pass of
    `_disjuncts`: it fails when every disjunct is refuted and enforces the
    only open one."""
    if isinstance(c, Cmp):
        _filter_cmp(st, c if want else c.complement)
        return
    if isinstance(c, Global):
        if want:
            _filter_global(st, c)
        else:
            if _definitely(c, st) is True:
                st.failed = True
        return
    if isinstance(c, BoolExpr):
        op = c.op
        args = c.disjuncts if op == "or" else c.args
        if op == "not":
            _require(st, args[0], not want)
            return
        conjunctive = (op == "and") if want else (op == "or")
        if conjunctive:
            for a in args:
                _require(st, a, want)
                if st.failed:
                    return
            return
        if op in ("or", "and"):
            val, only = _disjuncts(st, args, want)
            if val is (not want):
                st.failed = True
            elif only is not None:
                _require(st, only, want)
            return
        if op == "impl":
            if want:
                va = _definitely(args[0], st)
                vb = _definitely(args[1], st)
                if va is True:
                    _require(st, args[1], True)
                elif vb is False:
                    _require(st, args[0], False)
            else:
                _require(st, args[0], True)
                if not st.failed:
                    _require(st, args[1], False)
            return
        if op in ("iff", "xor"):
            same = (op == "iff") == want
            va = _definitely(args[0], st)
            vb = _definitely(args[1], st)
            if va is not None and vb is None:
                _require(st, args[1], va if same else not va)
            elif vb is not None and va is None:
                _require(st, args[0], vb if same else not vb)
            elif va is not None and vb is not None:
                if (va == vb) != same:
                    st.failed = True
            return
    raise FdError(f"not a constraint: {c!r}")


# -- global-constraint filters ------------------------------------------------

def _filter_pairwise_diseq(st: _Store, names: Sequence[object]) -> None:
    for i, a in enumerate(names):
        if not isinstance(a, VarRef):
            continue
        da = st.dom(a.name)
        if not da.fixed:
            continue
        for j, b in enumerate(names):
            if i == j:
                continue
            if isinstance(b, VarRef):
                st.remove(b.name, da.lo)
            if st.failed:
                return


def _filter_all_distinct(st: _Store, names: Sequence[object]) -> None:
    _filter_pairwise_diseq(st, names)
    if st.failed:
        return
    doms = [(st.dom(v.name), v.name) for v in names if isinstance(v, VarRef)]
    bounds = sorted({d.lo for d, _ in doms} | {d.hi for d, _ in doms})
    for a in bounds:
        for b in bounds:
            if b < a:
                continue
            inside = [(d, n) for d, n in doms if a <= d.lo and d.hi <= b]
            cap = b - a + 1
            if len(inside) > cap:
                st.failed = True
                return
            if len(inside) == cap:
                for d, n in doms:
                    if (d, n) in inside:
                        continue
                    if a <= d.lo <= b:
                        st.set_min(n, b + 1)
                    if a <= d.hi <= b:
                        st.set_max(n, a - 1)
                    if st.failed:
                        return


def _filter_cumulative(st: _Store, starts, durs, ress, limit) -> None:
    """Time-table filtering over one profile of the compulsory parts.  Each
    job is filtered against the profile less the parts of every job with
    the same start variable, which are then added back from the narrowed
    domain."""
    lim_hi = _ival(limit, st.domains)[1]
    parts: Dict[str, List[Tuple[int, int]]] = {}    # start -> running jobs
    for s, d, r in zip(starts, durs, ress):
        if isinstance(s, VarRef):
            jobs = parts.setdefault(s.name, [])
            if d > 0:
                jobs.append((d, r))
    if not parts or all(d <= 0 for d in durs):
        return      # no start to narrow, or no time at which a task runs
    prof: Dict[int, int] = {}

    def place(name: str, sign: int) -> None:
        sd = st.dom(name)
        for d, r in parts[name]:
            for t in range(sd.hi, sd.lo + d):       # compulsory part
                prof[t] = prof.get(t, 0) + sign * r

    for name in parts:
        place(name, 1)
    peak = max(prof.values(), default=0)
    if peak > lim_hi:
        st.failed = True
        return
    if isinstance(limit, VarRef):
        st.set_min(limit.name, peak)
        if st.failed:
            return
        if limit.name in parts:         # its compulsory parts may have grown
            prof.clear()
            for name in parts:
                place(name, 1)

    for s, d, r in zip(starts, durs, ress):
        if not isinstance(s, VarRef) or d <= 0 or r <= 0:
            continue
        name = s.name
        place(name, -1)
        sd = st.dom(name)
        # raise the earliest start past overloaded cells
        lo = sd.lo
        moved = True
        while moved and lo <= sd.hi:
            moved = False
            for t in range(lo, lo + d):
                if prof.get(t, 0) + r > lim_hi:
                    lo = t + 1
                    moved = True
                    break
        st.set_min(name, lo)
        if st.failed:
            return
        sd = st.dom(name)
        hi = sd.hi
        moved = True
        while moved and hi >= sd.lo:
            moved = False
            for t in range(hi, hi + d):
                if prof.get(t, 0) + r > lim_hi:
                    hi = t - d
                    moved = True
                    break
        st.set_max(name, hi)
        if st.failed:
            return
        place(name, 1)


def _filter_global(st: _Store, g: Global) -> None:
    """Filter a global constraint.  Only plain-variable items are narrowed;
    any other item, and every index, target, count value or limit, is read
    as its `_ival` interval under the live domains."""
    name, args, fits = g.reading
    if not fits:
        st.failed = True                    # as `_sat_global` rejects it
        return
    doms = st.domains
    if name == "all_different":
        _filter_pairwise_diseq(st, args[0])
    elif name == "all_distinct":
        _filter_all_distinct(st, args[0])
    elif name == "assignment":
        xs, ys = args
        n = len(xs)
        for v in xs + ys:
            if isinstance(v, VarRef):
                st.intersect_range(v.name, 1, n)
                if st.failed:
                    return
        for i, x in enumerate(xs):
            if isinstance(x, VarRef) and doms[x.name].fixed:
                y = ys[doms[x.name].lo - 1]
                if isinstance(y, VarRef):
                    st.intersect_range(y.name, i + 1, i + 1)
                if st.failed:
                    return
        _filter_pairwise_diseq(st, xs)
        if not st.failed:
            _filter_pairwise_diseq(st, ys)
    elif name == "circuit":
        vs = args[0]
        n = len(vs)
        for i, v in enumerate(vs):
            if isinstance(v, VarRef):
                st.intersect_range(v.name, 1, n)
                if n > 1:
                    st.remove(v.name, i + 1)
                if st.failed:
                    return
        _filter_pairwise_diseq(st, vs)
        if st.failed or n <= 1:
            return
        # a closed chain of fixed successors shorter than n is a subtour
        succ = {}
        for i, v in enumerate(vs):
            if isinstance(v, VarRef) and doms[v.name].fixed:
                succ[i + 1] = doms[v.name].lo
        for start in succ:
            cur, steps = start, 0
            while cur in succ and steps <= n:
                cur = succ[cur]
                steps += 1
                if cur == start:
                    if steps < n:
                        st.failed = True
                    return
    elif name == "count":
        m, vs, op, target = args
        mval, mhi = _ival(m, doms)
        if mval != mhi:
            return
        lower = upper = 0
        for v in vs:
            lo, hi = _ival(v, doms)
            if doms[v.name].contains(mval) if isinstance(v, VarRef) \
                    else lo <= mval <= hi:
                upper += 1
                if lo == hi:
                    lower += 1
        tlo, thi = _ival(target, doms)
        # some count in [lower, upper] and target in [tlo, thi] satisfy op
        if _decide(op, lower - thi, upper - tlo) is False:
            st.failed = True
            return
        if op == "eq" and tlo == thi:
            if lower == tlo:
                for v in vs:
                    if isinstance(v, VarRef) and not doms[v.name].fixed:
                        st.remove(v.name, mval)
                        if st.failed:
                            return
            elif upper == tlo:
                for v in vs:
                    if isinstance(v, VarRef) and doms[v.name].contains(mval) \
                            and not doms[v.name].fixed:
                        st.intersect_range(v.name, mval, mval)
                        if st.failed:
                            return
    elif name == "cumulative":
        _filter_cumulative(st, *args)
    elif name == "disjoint2":
        xs, ws, ys, hs = args
        n = len(xs)
        for i in range(n):
            for j in range(i + 1, n):
                if min(ws[i], hs[i], ws[j], hs[j]) <= 0:
                    continue
                xi, xj = _ival(xs[i], doms), _ival(xs[j], doms)
                yi, yj = _ival(ys[i], doms), _ival(ys[j], doms)
                x_sep = xi[0] + ws[i] <= xj[1] or xj[0] + ws[j] <= xi[1]
                y_sep = yi[0] + hs[i] <= yj[1] or yj[0] + hs[j] <= yi[1]
                if not x_sep and not y_sep:
                    st.failed = True
                    return
    elif name == "element":
        idx, vs, tgt = args
        n = len(vs)
        if isinstance(idx, VarRef):
            st.intersect_range(idx.name, 1, n)
            if st.failed:
                return
            d_idx = doms[idx.name]
        else:
            klo, khi = _ival(idx, doms)
            d_idx = Domain(max(klo, 1), min(khi, n))
            if d_idx.empty:
                st.failed = True
                return
        tlo, thi = _ival(tgt, doms)
        if isinstance(idx, VarRef):
            for i in list(d_idx.values()):
                vlo, vhi = _ival(vs[i - 1], doms)
                if vhi < tlo or vlo > thi:
                    st.remove(idx.name, i)
                    if st.failed:
                        return
        if d_idx.fixed:
            v = vs[d_idx.lo - 1]
            if isinstance(v, VarRef):
                st.intersect_range(v.name, tlo, thi)
                if st.failed:
                    return
            vlo, vhi = _ival(v, doms)
        else:
            rngs = [_ival(vs[i - 1], doms) for i in d_idx.values()]
            vlo, vhi = min(r[0] for r in rngs), max(r[1] for r in rngs)
        if isinstance(tgt, VarRef):
            st.intersect_range(tgt.name, vlo, vhi)
    elif name in ("minimum", "maximum"):
        m, vs = args
        rngs = [_ival(v, doms) for v in vs]
        pick = min if name == "minimum" else max
        mlo, mhi = pick(r[0] for r in rngs), pick(r[1] for r in rngs)
        if isinstance(m, VarRef):
            st.intersect_range(m.name, mlo, mhi)
            if st.failed:
                return
        mval_lo, mval_hi = _ival(m, doms)
        if mval_hi < mlo or mval_lo > mhi:
            st.failed = True
            return
        for v in vs:
            if isinstance(v, VarRef):
                if name == "minimum":
                    st.set_min(v.name, mval_lo)
                else:
                    st.set_max(v.name, mval_hi)
                if st.failed:
                    return
    elif name == "scalar_product":
        coeffs, items, op, target = args
        lin, const = g.form
        if lin is not None:
            _filter_linear(st, lin, const, op)
            return
        # a non-linear item or target: forward interval check only
        lo = hi = 0
        for c, t in zip((*coeffs, -1), (*items, target)):
            a, b = _ival(t, doms)
            lo += min(c * a, c * b)
            hi += max(c * a, c * b)
        if _decide(op, lo, hi) is False:
            st.failed = True
    else:
        raise FdError(f"unknown global constraint {name!r}")


def propagate(csp: CSPInstance, changed: Optional[Iterable[str]] = None,
              active: Optional[List[int]] = None) -> bool:
    """Filter the constraints to a common fixpoint; False on inconsistency.

    The queue starts from every constraint when `changed` is None, and
    otherwise from the watchers of the variables in `changed`, whose domains
    narrowed since `csp` was last at a fixpoint.  Never removes a value that
    belongs to a solution; reports inconsistency only when some domain
    empties or a constraint is interval-refuted.  Filters read the compiled
    forms of comparisons, sums and scalar products; a reified `or` is
    refuted, found entailed or enforced by one pass over its flattened
    disjuncts, which evaluates each at most once, and any other formula is
    first tested with `_definitely`.  An `or` found entailed sleeps, so it
    is not queued again: on the trail of `csp`'s search, until the search
    backtracks past the current node, and otherwise, on a trail of this
    call's own, for the rest of the call.

    `active`, if given, receives the index of each filter run that narrowed
    a domain or refuted its constraint.  When the call fails, the
    constraints listed fail alone: every filter is monotone, and the others
    changed nothing.
    """
    domains, constraints = csp.domains, csp.constraints
    watch = csp.watch_lists()
    trail = csp._trail or _Trail(len(constraints))
    st = _Store(domains, trail)
    touched = st.touched
    asleep, slept = trail.asleep, trail.slept
    if changed is None:
        if any(d.empty for d in domains.values()):
            return False
        queue = deque(range(len(constraints)))
        queued = bytearray(b"\x01") * len(constraints)
    else:
        touched.extend(changed)
        if any(domains[v].empty for v in touched):
            return False
        queue = deque()
        queued = bytearray(asleep)      # an asleep constraint is never queued
    while True:
        for v in touched:
            for j in watch.get(v, ()):
                if not queued[j]:
                    queued[j] = 1
                    queue.append(j)
        touched.clear()
        if not queue:
            return True
        i = queue.popleft()
        queued[i] = 0
        c = constraints[i]
        if isinstance(c, Cmp):
            _filter_cmp(st, c)
        elif isinstance(c, BoolExpr):
            if c.op == "or":
                # refuted, entailed or enforced by one pass
                val, only = _disjuncts(st, c.disjuncts, True)
                if val:
                    asleep[i] = queued[i] = 1
                    slept.append(i)
                elif val is False:
                    st.failed = True
                elif only is not None:
                    _require(st, only, True)
            elif _definitely(c, st) is False:
                st.failed = True
            else:
                _require(st, c, True)
        elif isinstance(c, Global):
            _filter_global(st, c)
        else:
            raise FdError(f"not a constraint: {c!r}")
        if active is not None and (touched or st.failed):
            active.append(i)
        if st.failed:
            return False


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def solutions(csp: CSPInstance,
              charge: Optional[Callable[[], None]] = None,
              active: Optional[List[int]] = None
              ) -> Iterator[Dict[str, int]]:
    """The solutions of `csp`, one at a time, in labeling order.

    Depth-first search with propagation at every node, on one copy of `csp`
    whose domain changes are trailed; `csp` itself is not modified.  Each
    open x = v branch is a choice point on an explicit stack, and
    backtracking undoes the trail to it, waking the constraints that fell
    asleep since, and goes on with x != v.  Solutions come in labeling
    order: leftmost unfixed variable in declaration order, ascending values,
    binary x=v / x!=v branching.  `charge`, if given, is called before each
    node's `propagate` call; an exception it raises ends the search.
    `active`, if given, is passed to the root's `propagate` call and
    emptied again if that call does not fail.
    """
    work = csp.copy()
    trail = work._trail = _Trail(len(work.constraints))
    doms, order = work.domains, work.var_order
    choices: List[tuple] = []       # (trail positions, x, v, k)
    changed: Optional[Tuple[str, ...]] = None
    k = 0                           # every variable before order[k] is fixed
    while True:
        if charge is not None:
            charge()
        if propagate(work, changed, active):
            if active:
                active.clear()          # filled only by a failed root
            active = None
            while k < len(order) and doms[order[k]].fixed:
                k += 1
            if k < len(order):
                x = order[k]
                v = doms[x].lo
                choices.append((trail.mark(), x, v, k))
                trail.save(x, doms[x])
                doms[x].intersect_range(v, v)
                changed = (x,)
                continue
            e = work.evaluation()
            if all(satisfied(c, e) for c in work.constraints):
                yield e
        if not choices:
            return
        pos, x, v, k = choices.pop()
        trail.undo(pos)
        trail.save(x, doms[x])
        doms[x].remove(v)
        changed = (x,)


def refuted(csp: CSPInstance, constraints: Sequence,
            active: Optional[List[int]] = None) -> bool:
    """Whether one `propagate` call refutes `constraints` on copies of the
    domains of `csp`, which is not modified; `active` as for `propagate`."""
    work = CSPInstance()
    work.domains = {n: d.copy() for n, d in csp.domains.items()}
    work.constraints = list(constraints)
    return not propagate(work, None, active)


# ---------------------------------------------------------------------------
# csp-abstractions of CA programs
# ---------------------------------------------------------------------------

def build_csp(program, m_literals: Iterable[int], semantics: str = "weak"
              ) -> CSPInstance:
    """The csp-abstraction of M: the CSP induced by its constraint literals.

    The instance's `projection` holds M's constraint literals, positive and
    negative, in declaration order, under either semantics, then the atoms
    of M's active ranged declarations, which narrow the domains, in
    declaration order, then the negative literals of the false ranged
    declarations of every variable that has no active ranged declaration,
    in declaration order.  weak: post gamma(c) for the positive constraint
    literals only; full: additionally post complement(gamma(c)) for each
    negative one, and post each distinct constraint once, where it first
    occurs.  Variables are those with an active declaration (declaration
    atom in M, or unconditional), in declaration order, then any variable
    referenced by a posted constraint.  A variable ranges over the
    intersection of its active ranged declarations; one without any ranges
    over the program domain (the default range), widened to cover each of
    its ranged declarations that M leaves unassigned.  With a complete M
    that is the program domain; on a partial M, no declaration that M later
    makes true can give the variable values outside it.

    Raises ComplementUnsupported, naming the constraint atom, under full
    semantics when a negated literal maps to a global constraint or reified
    formula.
    """
    if semantics not in ("weak", "full"):
        raise ValueError(f"unknown semantics {semantics!r}")
    full = semantics == "full"
    m_set = set(m_literals)

    projection: List[int] = []
    posts: Dict[int, object] = {}
    for cid in program.constraint_order:
        lit = cid + 1
        if lit in m_set:
            projection.append(lit)
            posts[lit] = program.gamma[cid]
        elif -lit in m_set:
            projection.append(-lit)
            if full:
                try:
                    posts[-lit] = complement(program.gamma[cid])
                except ComplementUnsupported:
                    # named as the user wrote it, as its atom is shown
                    raise ComplementUnsupported(
                        f"complement of non-primitive constraint "
                        f"unsupported: {program.pi.names[cid]}") from None
    posted = list(posts.values())
    if full:
        # a complement can equal another posted constraint; each is posted once
        posted = list(dict.fromkeys(posted))

    ranges: Dict[str, Optional[Tuple[int, int]]] = {}
    for decl in program.var_decls:
        if decl.atom is not None:
            if decl.atom + 1 not in m_set:
                continue
            if decl.lo is not None:
                projection.append(decl.atom + 1)
        r = ranges.setdefault(decl.var, None)
        if decl.lo is not None:
            ranges[decl.var] = (decl.lo, decl.hi) if r is None else \
                (max(r[0], decl.lo), min(r[1], decl.hi))

    # A variable with no active ranged declaration ranges over the program
    # domain, widened to the ranged declarations that M leaves open, which
    # could only replace it by a range inside the widened one; the false
    # ones join the projection.
    lo, hi = program.domain
    wide: Dict[str, Tuple[int, int]] = {}
    for decl in program.var_decls:
        if decl.lo is None or ranges.get(decl.var) is not None:
            continue
        if -(decl.atom + 1) in m_set:
            projection.append(-(decl.atom + 1))
        else:
            w = wide.get(decl.var, (lo, hi))
            wide[decl.var] = (min(w[0], decl.lo), max(w[1], decl.hi))

    inst = CSPInstance()
    inst.projection = tuple(projection)
    inst.posts = posts
    for v, r in ranges.items():
        inst.add_var(v, *(r or wide.get(v, (lo, hi))))
    for c in posted:
        for v in sorted(c.variables):
            if v not in inst.domains:
                inst.add_var(v, *wide.get(v, (lo, hi)))
        inst.post(c)
    return inst
