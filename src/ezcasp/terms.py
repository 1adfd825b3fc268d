"""Ground terms, hash-consed: the term table of one grounding, with the
evaluation of built-in arithmetic, canonical names, display texts and the
term order.

`_Terms` is the table.  It builds every ground term and atom that the
grounder makes, so equal ones are one object, and it memoizes the display
text and whether it holds an intensional list of each distinct interned
subterm.  Canonical names are not memoized: a grounding names only its
declared variables, each once.
`canon_term`, `canon_atom`, `display_term`, `display_atom` and `term_key`
accept any ground term; `display_term` and `display_atom` make a table for
the one call.
`ezcasp.ground` re-exports the public names.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple, Union

from .lang import (
    Atom, Compound, Const, IntensionalList, ListTerm, OpExpr, RangeTerm,
    SourcePos, Term, Var, CANON_FUNCTORS, _print_term, display_op,
    needs_parens,
)

__all__ = ["GroundError", "canon_term", "canon_atom", "term_key",
           "display_term", "display_atom"]


class GroundError(Exception):
    def __init__(self, msg: str, pos: Optional[SourcePos] = None):
        self.pos = pos
        super().__init__(f"{pos}: {msg}" if pos else msg)


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


def _name(t: Term) -> str:
    """The canonical name of a ground term."""
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Compound):
        return f"{t.functor}({','.join([_name(a) for a in t.args])})"
    if isinstance(t, ListTerm):
        return f"[{','.join([_name(a) for a in t.items])}]"
    if isinstance(t, IntensionalList):
        inner = t.name
        if t.prefix:
            inner += f"({','.join([_name(a) for a in t.prefix])})"
        return f"[{inner}/{t.arity}]"
    raise GroundError(f"cannot intern non-ground term {t!r}")


def canon_term(t: Term) -> str:
    """The canonical name of a ground term (`_name`)."""
    return _name(t)


def canon_atom(a: Atom) -> str:
    if not a.args:
        return a.rel
    return f"{a.rel}({','.join([_name(t) for t in a.args])})"


_SHOWN_OPS = {f: display_op(f) for f in CANON_FUNCTORS}   # read per node


def _shown(t: Term, sub) -> Tuple[str, Optional[str], Optional[int]]:
    """The display text of t: canonical operator functors are shown as
    surface operators, parenthesized as the parser reads them, and `neg` of
    an integer as the negative integer.  Also returns the operator of t if
    it is shown as a binary operation, and its value if it is shown as an
    integer.  `sub` gives the same for each child."""
    if isinstance(t, Const):
        v = t.value
        return str(v), None, v if isinstance(v, int) else None
    if isinstance(t, Compound):
        f, args = t.functor, t.args
        op = _SHOWN_OPS.get(f)
        if op is not None and len(args) == 2:
            lhs, lop, _ = sub(args[0])
            rhs, rop, _ = sub(args[1])
            if lop is not None and needs_parens(lop, op, "left"):
                lhs = f"({lhs})"
            if rop is not None and needs_parens(rop, op, "right"):
                rhs = f"({rhs})"
            return f"{lhs} {op} {rhs}", op, None
        if len(args) == 1 and f in ("neg", "not"):
            arg, aop, v = sub(args[0])
            if f == "neg" and v is not None:
                return str(-v), None, -v
            if aop is not None:     # binds tighter than every binary op
                arg = f"({arg})"
            return op + arg, None, None
        return f"{f}({','.join([sub(a)[0] for a in args])})", None, None
    if isinstance(t, ListTerm):
        return f"[{','.join([sub(a)[0] for a in t.items])}]", None, None
    # no canonical functor is shown inside any other term
    op = t.op if isinstance(t, OpExpr) and len(t.args) == 2 else None
    return _print_term(t), op, None


def display_term(t: Term) -> str:
    """How a term is shown to users: as `_shown` prints it."""
    return _Terms().show(t)[0]


def display_atom(a: Atom) -> str:
    return _Terms().show_atom(a)


class _Terms:
    """The ground terms of one grounding, one object per distinct term, and
    memos of their display texts and whether they hold an intensional list.

    A constant is keyed by its value (integers and symbols never compare
    equal), a compound by its functor and the identities of its arguments,
    a list by the identities of its items, an intensional list by its name
    and arity and the identities of its prefix, and an atom, in a table of
    its own, by its relation and the identities of its arguments.  `eval`
    builds every term through the table; a term with a variable or a range
    is never interned.  The memos key by identity and keep only interned
    terms, which the table keeps alive, so an identity never outlives its
    term; `display_term` and `display_atom` make a table for one call,
    which memoizes nothing."""

    __slots__ = ("terms", "atoms", "ids", "shown", "lists")

    def __init__(self) -> None:
        self.terms: Dict[object, Term] = {}
        self.atoms: Dict[tuple, Atom] = {}
        self.ids: Set[int] = set()            # identities of interned terms
        self.shown: Dict[int, Tuple[str, Optional[str], Optional[int]]] = {}
        self.lists: Dict[int, bool] = {}

    def const(self, v: Union[int, str]) -> Const:
        c = self.terms.get(v)
        if c is None:
            c = self.terms[v] = Const(v)
            self.ids.add(id(c))
        return c

    def _new(self, key: tuple, t: Term) -> Term:
        """t, which has no entry, interned under key if its children are
        (key[1:] holds their identities); otherwise t as it is."""
        if self.ids.issuperset(key[1:]):
            self.terms[key] = t
            self.ids.add(id(t))
        return t

    def eval(self, t: Term, pos: Optional[SourcePos] = None,
             env: Optional[Dict[str, Term]] = None) -> Term:
        """t with built-in arithmetic evaluated, built through the table;
        OpExpr nodes must reduce to integers.  With `env`, the variables of
        t are replaced by their bound values, which are ground and
        evaluated already; a variable that `env` does not bind is left as
        it is."""
        cls = t.__class__
        if cls is Var:
            return t if env is None else env.get(t.name, t)
        if cls is Compound:
            # the arguments, variables and constants without a call
            terms = self.terms
            args = []
            for a in t.args:
                cls = a.__class__
                if cls is Var and env is not None:
                    args.append(env.get(a.name, a))
                elif cls is Const:
                    c = terms.get(a.value)
                    args.append(c if c is not None else self.const(a.value))
                else:
                    args.append(self.eval(a, pos, env))
            return self.compound(t.functor, args)
        if cls is Const:
            return self.const(t.value)
        if cls is OpExpr:
            return self.const(self._arith(t, pos, env))
        if cls is ListTerm:
            return self.list([self.eval(a, pos, env) for a in t.items])
        if cls is IntensionalList:
            prefix = [self.eval(a, pos, env) for a in t.prefix]
            key = ((t.name, t.arity), *map(id, prefix))
            c = self.terms.get(key)
            return c if c is not None else self._new(
                key, IntensionalList(t.name, tuple(prefix), t.arity))
        if cls is RangeTerm:
            return RangeTerm(self.eval(t.lo, pos, env),
                             self.eval(t.hi, pos, env))
        return t

    def _arith(self, t: OpExpr, pos: Optional[SourcePos],
               env: Optional[Dict[str, Term]]) -> int:
        """The integer value of a built-in arithmetic operation."""
        vals = []
        for a in [self.eval(a, pos, env) for a in t.args]:
            if not (isinstance(a, Const) and isinstance(a.value, int)):
                raise GroundError(f"arithmetic on non-integer term "
                                  f"{display_term(a)}", pos)
            vals.append(a.value)
        if t.op == "-" and len(vals) == 1:
            return -vals[0]
        a, b = vals[0], vals[1]
        if t.op == "+":
            return a + b
        if t.op == "-":
            return a - b
        if t.op == "*":
            return a * b
        if t.op == "/":
            if b == 0:
                raise GroundError("division by zero in built-in arithmetic",
                                  pos)
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        raise GroundError(f"unknown arithmetic operator {t.op!r}", pos)

    def list(self, items: Sequence[Term]) -> ListTerm:
        key = (ListTerm, *map(id, items))
        c = self.terms.get(key)
        return c if c is not None else self._new(key, ListTerm(tuple(items)))

    def compound(self, functor: str, args: Sequence[Term]) -> Compound:
        key = (functor, *map(id, args))
        c = self.terms.get(key)
        return c if c is not None else \
            self._new(key, Compound(functor, tuple(args)))

    def atom(self, rel: str, args: Sequence[Term]) -> Atom:
        """The table's atom rel(args).  Each argument comes from `eval`, so
        one that is not interned holds a range or a variable, and naming the
        atom then fails as `canon_atom` does."""
        key = (rel, *map(id, args))
        a = self.atoms.get(key)
        if a is None:
            if not self.ids.issuperset(key[1:]):
                canon_atom(Atom(rel, tuple(args)))
            a = self.atoms[key] = Atom(rel, tuple(args))
        return a

    def show(self, t: Term) -> Tuple[str, Optional[str], Optional[int]]:
        """The display text of t, with its operator and value (`_shown`)."""
        r = self.shown.get(id(t))
        if r is None:
            r = _shown(t, self.show)
            if id(t) in self.ids:
                self.shown[id(t)] = r
        return r

    def has_list(self, t: Term) -> bool:
        """Whether t holds an intensional list where `expand_lists` looks:
        at the top or inside compounds and lists."""
        r = self.lists.get(id(t))
        if r is None:
            if isinstance(t, IntensionalList):
                r = True
            elif isinstance(t, Compound):
                r = any(map(self.has_list, t.args))
            elif isinstance(t, ListTerm):
                r = any(map(self.has_list, t.items))
            else:
                r = False
            if id(t) in self.ids:
                self.lists[id(t)] = r
        return r

    def show_atom(self, a: Atom) -> str:
        if not a.args:
            return a.rel
        return f"{a.rel}({','.join([self.show(t)[0] for t in a.args])})"
