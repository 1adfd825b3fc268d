"""EZ language front end: data model, parser, printer.

The surface language is rule-based: `.`-terminated rules, `%` line comments,
`:-` between head and body.  Heads are atoms, cardinality choices
``L { a : cond } U`` or absent (denials).  Bodies mix atoms, `not` / `not not`
literals, built-in comparisons (``X < Y``, ``W = WR + CR``) and the lparse-style
``#sum[ a = w : cond ] U`` aggregate.  The reserved relations `cspdomain`,
`cspvar` and `required` drive the constraint side; inside a `required(...)`
argument the full expression grammar is available (arithmetic, comparisons,
reified connectives, extensional/intensional lists, global constraints), and
the parser builds each operator application there as its canonical functor:
``required(v > 2)`` is read as ``required(gt(v,2))``.  Outside required,
operators stay `OpExpr`s, which the grounder evaluates as built-ins.

`_subterms` is the one walker over the children of a term; every traversal
of the grounder that needs all of them goes through it.  `_tokenize` scans
the text with one compiled pattern and gives each token as a tuple (kind,
text, line, col); an integer is a run of decimal digits.  The parser builds
a `SourcePos` only for a rule or an error, and reads every separated list
with one helper, `_Parser._seq`.

Everything here is pure and operates on immutable values; parse and
pretty_print may be called concurrently from any number of threads.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Optional, Union

from .records import RecordBase, set_field

__all__ = [
    "Const", "Var", "Compound", "OpExpr", "ListTerm", "IntensionalList",
    "RangeTerm", "Term",
    "Atom", "Lit", "BuiltinLit", "AggItem", "AggregateLit", "BodyElement",
    "ChoiceElem", "Choice", "Rule", "EzProgram",
    "EzSyntaxError", "SourcePos",
    "parse", "pretty_print", "print_rule", "needs_parens",
    "CMP_OPS", "ARITH_OPS", "LOGIC_OPS", "CANON_FUNCTORS",
    "canonical_functor", "display_op", "GLOBAL_SIGNATURES",
    "GLOBAL_CONSTRAINTS",
    "RESERVED_RELATIONS",
]

RESERVED_RELATIONS = ("cspdomain", "cspvar", "required")

# The kind of each argument of a global constraint: a term, a list of
# terms, a list of integers or a comparison operator.
GLOBAL_SIGNATURES = {
    "all_different": ("term_list",),
    "all_distinct": ("term_list",),
    "assignment": ("term_list", "term_list"),
    "circuit": ("term_list",),
    "count": ("term", "term_list", "comparison", "term"),
    "cumulative": ("term_list", "int_list", "int_list", "term"),
    "disjoint2": ("term_list", "int_list", "term_list", "int_list"),
    "element": ("term", "term_list", "term"),
    "minimum": ("term", "term_list"),
    "maximum": ("term", "term_list"),
    "scalar_product": ("int_list", "term_list", "comparison", "term"),
    "serialized": ("term_list", "int_list"),
    "sum": ("term_list", "comparison", "term"),
}
GLOBAL_CONSTRAINTS = frozenset(GLOBAL_SIGNATURES)

# Surface operator -> canonical prefix functor, applied by the parser
# inside required-arguments only.
CMP_OPS = {"<": "lt", "<=": "leq", "=<": "leq", ">": "gt", ">=": "geq",
           "=": "eq", "==": "eq", "!=": "neq"}
ARITH_OPS = {"+": "plus", "-": "minus", "*": "times", "/": "div"}
LOGIC_OPS = {"\\/": "or", "/\\": "and", "\\": "xor", "xor": "xor",
             "->": "impl", "<-": "impl", "<->": "iff", "!": "not"}

CANON_FUNCTORS = frozenset(CMP_OPS.values()) | frozenset(ARITH_OPS.values()) \
    | frozenset(LOGIC_OPS.values()) | {"neg"}

_DISPLAY = {"lt": "<", "leq": "=<", "gt": ">", "geq": ">=", "eq": "=",
            "neq": "!=", "plus": "+", "minus": "-", "times": "*", "div": "/",
            "or": "\\/", "and": "/\\", "xor": "xor", "impl": "->",
            "iff": "<->", "not": "!", "neg": "-"}


def canonical_functor(op: str) -> str:
    for table in (CMP_OPS, ARITH_OPS, LOGIC_OPS):
        if op in table:
            return table[op]
    raise EzSyntaxError(f"unknown operator {op!r}")


def display_op(functor: str) -> Optional[str]:
    return _DISPLAY.get(functor)


class SourcePos(RecordBase):
    _fields = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0) -> None:
        set_field(self, "line", line)
        set_field(self, "col", col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class EzSyntaxError(Exception):
    """Lexical, syntactic or reserved-relation arity error, with position."""

    def __init__(self, msg: str, pos: Optional[SourcePos] = None):
        self.pos = pos
        super().__init__(f"{pos}: {msg}" if pos else msg)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Const(RecordBase):
    _fields = ("value",)

    def __init__(self, value: Union[int, str]) -> None:
        set_field(self, "value", value)


class Var(RecordBase):
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)


class Compound(RecordBase):
    _fields = ("functor", "args")

    def __init__(self, functor: str, args: tuple) -> None:
        set_field(self, "functor", functor)
        set_field(self, "args", args)


class OpExpr(RecordBase):
    """Raw operator application as written in the source (infix or prefix),
    outside required-arguments: built-in arithmetic the grounder evaluates
    (the parser builds canonical `Compound`s inside required).  `op` is the
    normalized surface token ('>=', '+', '\\/', 'xor', '<-', '!', ...);
    unary minus and `!` have one argument.
    """
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple) -> None:
        set_field(self, "op", op)
        set_field(self, "args", args)


class ListTerm(RecordBase):
    _fields = ("items",)

    def __init__(self, items: tuple) -> None:
        set_field(self, "items", items)


class IntensionalList(RecordBase):
    """``[name(prefix...)/arity]``; expanded by the grounder."""
    _fields = ("name", "prefix", "arity")

    def __init__(self, name: str, prefix: tuple, arity: int) -> None:
        set_field(self, "name", name)
        set_field(self, "prefix", prefix)
        set_field(self, "arity", arity)


class RangeTerm(RecordBase):
    _fields = ("lo", "hi")

    def __init__(self, lo: "Term", hi: "Term") -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)


Term = Union[Const, Var, Compound, OpExpr, ListTerm, IntensionalList, RangeTerm]


def _subterms(t: Term) -> list:
    """t and every term inside it, breadth first: the arguments of a
    compound or an operation, the items of a list, the prefix of an
    intensional list and the bounds of a range."""
    out = [t]
    for x in out:                       # the loop reads what it appends
        kids = _KIDS.get(x.__class__)
        if kids is not None:
            out.extend(kids(x))
    return out


# the children of each kind of term that has any
_KIDS = {Compound: attrgetter("args"), OpExpr: attrgetter("args"),
         ListTerm: attrgetter("items"), IntensionalList: attrgetter("prefix"),
         RangeTerm: attrgetter("lo", "hi")}


# ---------------------------------------------------------------------------
# Atoms, literals, rules
# ---------------------------------------------------------------------------

class Atom(RecordBase):
    _fields = ("rel", "args")

    def __init__(self, rel: str, args: tuple = ()) -> None:
        set_field(self, "rel", rel)
        set_field(self, "args", args)

    @property
    def reserved(self) -> bool:
        return self.rel in RESERVED_RELATIONS


class Lit(RecordBase):
    """Body literal: kind is 'pos', 'not' or 'notnot'."""
    _fields = ("kind", "atom")

    def __init__(self, kind: str, atom: Atom) -> None:
        set_field(self, "kind", kind)
        set_field(self, "atom", atom)


class BuiltinLit(RecordBase):
    """Built-in comparison (or `=`-binding) between arithmetic terms."""
    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Term, rhs: Term) -> None:
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class AggItem(RecordBase):
    _fields = ("atom", "weight", "conds")

    def __init__(self, atom: Atom, weight: Optional[Term],
                 conds: tuple) -> None:
        set_field(self, "atom", atom)
        set_field(self, "weight", weight)
        set_field(self, "conds", conds)


class AggregateLit(RecordBase):
    """lparse-style body sum ``L #sum[ a=w : d ] U`` (either bound optional)."""
    _fields = ("lower", "items", "upper")

    def __init__(self, lower: Optional[Term], items: tuple,
                 upper: Optional[Term]) -> None:
        set_field(self, "lower", lower)
        set_field(self, "items", items)
        set_field(self, "upper", upper)


BodyElement = Union[Lit, BuiltinLit, AggregateLit]


class ChoiceElem(RecordBase):
    _fields = ("atom", "conds")

    def __init__(self, atom: Atom, conds: tuple) -> None:
        set_field(self, "atom", atom)
        set_field(self, "conds", conds)


class Choice(RecordBase):
    _fields = ("lower", "elems", "upper")

    def __init__(self, lower: Optional[Term], elems: tuple,
                 upper: Optional[Term]) -> None:
        set_field(self, "lower", lower)
        set_field(self, "elems", elems)
        set_field(self, "upper", upper)


class Rule(RecordBase):
    """A rule; its source position `pos` is not compared."""
    _fields = ("head", "body", "pos")
    _compared = ("head", "body")

    def __init__(self, head: Union[None, Atom, Choice], body: tuple,
                 pos: SourcePos = SourcePos()) -> None:
        set_field(self, "head", head)
        set_field(self, "body", body)
        set_field(self, "pos", pos)

    @property
    def is_fact(self) -> bool:
        """An atom head without a body; a choice rule is never a fact."""
        return isinstance(self.head, Atom) and not self.body


class EzProgram(RecordBase):
    _fields = ("rules",)

    def __init__(self, rules: tuple) -> None:
        set_field(self, "rules", rules)

    def __len__(self) -> int:
        return len(self.rules)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_MULTI = [":-", "..", "<->", "<-", "->", "<=", "=<", ">=", "!=", "==", "\\/", "/\\"]
_SINGLE = "=<>!\\+-*/()[]{},.;:"

# One token per match, after the blanks and the comment before it.  The
# alternatives are tried in order: an integer is a run of decimal digits
# (what `int` reads), a word starts with a letter or `_`, and a
# multi-character operator wins over its first character.  A word that
# starts with a lowercase ASCII letter is an identifier and one that starts
# with an uppercase ASCII letter or `_` a variable; any other word is
# classified by its first character.
_TOKEN = re.compile(
    r"[ \t\r]*(?:%[^\n]*)?(?:(?P<nl>\n)|(?P<int>\d+)|(?P<ident>[a-z]\w*)"
    r"|(?P<var>[A-Z_]\w*)|(?P<word>\w+)|(?P<hash>#[^\W\d_]*)|(?P<punct>"
    + "|".join(map(re.escape, _MULTI)) + "|[" + re.escape(_SINGLE) + "])"
    r"|(?P<eof>\Z)|(?P<bad>.))", re.DOTALL)
_PLAIN = frozenset(("int", "ident", "var", "punct"))


def _tokenize(text: str) -> list:
    """The tokens of text, each a tuple (kind, text, line, col), the kind
    'int', 'ident', 'var', 'punct' or 'eof'.  Columns count characters;
    the 'eof' token of a text that ends in a comment is where the comment
    starts."""
    toks = []
    append = toks.append
    line, start = 1, 0                  # the current line and its offset
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _PLAIN:
            append((kind, m[kind], line, m.start(kind) - start + 1))
            continue
        if kind == "nl":
            line += 1
            start = m.end()
            continue
        if kind == "eof":
            end = text.find("%", m.start())
            append(("eof", "", line,
                    (len(text) if end < 0 else end) - start + 1))
            return toks
        i = m.start(kind)
        word = m[kind]
        if kind == "word" and word[0].isalpha():
            append(("var" if word[0].isupper() else "ident", word, line,
                    i - start + 1))
            continue
        if kind == "hash":
            # `#` and the letters after it; `_TOKEN` also reads digits that
            # are not decimal (such as `²`) into the run, and the first of
            # them starts no token
            n = 1
            while n < len(word) and word[n].isalpha():
                n += 1
            if n == len(word):
                append(("punct", word, line, i - start + 1))
                continue
            i += n
        raise EzSyntaxError(f"unexpected character {text[i]!r}",
                            SourcePos(line, i - start + 1))
    raise AssertionError("no end-of-text match")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding powers for the expression grammar inside required-arguments.
# Conventional precedence; comparisons are non-associative.
_INFIX_BP = {
    "<->": (10, 11),
    "->": (21, 20), "<-": (21, 20),          # right-assoc
    "\\/": (30, 31),
    "\\": (40, 41), "xor": (40, 41),
    "/\\": (50, 51),
    "<": (70, 71), "<=": (70, 71), "=<": (70, 71), ">": (70, 71), ">=": (70, 71),
    "=": (70, 71), "==": (70, 71), "!=": (70, 71),
    "+": (80, 81), "-": (80, 81),
    "*": (90, 91), "/": (90, 91),
}
_CMP_TOKENS = frozenset(CMP_OPS)


def _pos(t: tuple) -> SourcePos:
    """The position of a token."""
    return SourcePos(t[2], t[3])


class _Parser:
    """Recursive descent over the tokens of `_tokenize`; t[0] is a token's
    kind and t[1] its text.  While it reads the argument of a `required`
    atom (`required` is set), it builds each operator application as its
    canonical compound: ``v > 2`` as ``gt(v,2)``, unary minus as `neg`, `!`
    as `not` and ``a <- b`` as ``impl(b,a)``; elsewhere as an `OpExpr`,
    where `!`, a connective, is a syntax error."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.required = False

    # -- token helpers ------------------------------------------------

    def peek(self, k: int = 0) -> tuple:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.i]
        return t[1] == text and t[0] in ("punct", "ident")

    def expect(self, text: str) -> tuple:
        t = self.next()
        if t[1] != text:
            raise EzSyntaxError(f"expected {text!r}, found {t[1]!r}", _pos(t))
        return t

    def _seq(self, item, seps=(",",)) -> list:
        """One or more items read by `item`, separated by any of `seps`."""
        items = [item()]
        while self.toks[self.i][1] in seps:
            self.next()
            items.append(item())
        return items

    # -- program ------------------------------------------------------

    def program(self) -> EzProgram:
        rules = []
        while self.toks[self.i][0] != "eof":
            rules.append(self.rule())
        return EzProgram(tuple(rules))

    def rule(self) -> Rule:
        pos = _pos(self.peek())
        head: Union[None, Atom, Choice]
        if self.at(":-"):
            head = None
        else:
            head = self.head()
        body: tuple = ()
        if self.at(":-"):
            self.next()
            if not self.at("."):        # `:-.` is an empty denial
                body = tuple(self.body())
        self.expect(".")
        return Rule(head, body, pos)

    def head(self) -> Union[Atom, Choice]:
        t = self.peek()
        if t[1] == "{" or (t[0] in ("int", "var") and self.peek(1)[1] == "{"):
            return self.choice()
        return self.atom()

    def choice(self) -> Choice:
        lower = None
        if self.peek()[0] in ("int", "var"):
            lower = self._bound(self.next())
        self.expect("{")
        elems = self._seq(self.choice_elem, (",", ";"))
        self.expect("}")
        upper = None
        if self.peek()[0] in ("int", "var"):
            upper = self._bound(self.next())
        return Choice(lower, tuple(elems), upper)

    def _bound(self, t: tuple) -> Term:
        return Const(int(t[1])) if t[0] == "int" else Var(t[1])

    def choice_elem(self) -> ChoiceElem:
        a = self.atom()
        conds = []
        while self.at(":"):
            self.next()
            conds.append(self.atom())
        return ChoiceElem(a, tuple(conds))

    # -- bodies ---------------------------------------------------------

    def body(self) -> list:
        return self._seq(self.body_element)

    def body_element(self) -> BodyElement:
        t = self.peek()
        if t[0] == "ident" and t[1] == "not":
            self.next()
            if self.peek()[:2] == ("ident", "not"):
                self.next()
                return Lit("notnot", self.atom())
            return Lit("not", self.atom())
        if t[0] == "ident" and t[1] == "required":
            return Lit("pos", self.atom())      # its argument read as in heads
        if t[1] in ("#sum", "["):
            return self.aggregate(lower=None)
        if t[0] in ("int", "var") and self.peek(1)[1] in ("#sum", "["):
            lower = self._bound(self.next())
            return self.aggregate(lower)
        lhs = self.arith_expr()
        op = self.peek()[1]
        if op in _CMP_TOKENS:
            self.next()
            rhs = self.arith_expr()
            return BuiltinLit("=" if op == "==" else op, lhs, rhs)
        return Lit("pos", self._term_to_atom(lhs, t))

    def aggregate(self, lower: Optional[Term]) -> AggregateLit:
        if self.at("#sum"):
            self.next()
        self.expect("[")
        items = [] if self.at("]") else self._seq(self.agg_item)
        self.expect("]")
        upper = None
        if self.peek()[0] in ("int", "var"):
            upper = self._bound(self.next())
        return AggregateLit(lower, tuple(items), upper)

    def agg_item(self) -> AggItem:
        a = self.atom()
        weight = None
        if self.at("="):
            self.next()
            weight = self.arith_expr()
        conds = []
        while self.at(":"):
            self.next()
            conds.append(self.atom())
        return AggItem(a, weight, tuple(conds))

    # -- atoms ----------------------------------------------------------

    def atom(self) -> Atom:
        t = self.next()
        if t[0] != "ident":
            raise EzSyntaxError(f"expected atom, found {t[1]!r}", _pos(t))
        rel = t[1]
        args: tuple = ()
        if self.at("("):
            self.next()
            if rel == "required":
                self.required = True
                args = (self.expr(0),)
                self.required = False
            else:
                args = tuple(self._seq(self.term_arg))
            self.expect(")")
        if rel in RESERVED_RELATIONS:
            _check_reserved(rel, args, t)
        return Atom(rel, args)

    def _term_to_atom(self, t: Term, tok: tuple) -> Atom:
        """The atom of a body term read at token tok."""
        if isinstance(t, Const) and isinstance(t.value, str):
            a = Atom(t.value)
        elif isinstance(t, Compound):
            a = Atom(t.functor, t.args)
        else:
            raise EzSyntaxError("expected an atom in rule body", _pos(tok))
        if a.rel in RESERVED_RELATIONS:
            _check_reserved(a.rel, a.args, tok)
        return a

    # -- plain terms (atom arguments outside required) -------------------

    def term_arg(self) -> Term:
        t = self.arith_expr()
        if self.at(".."):
            self.next()
            return RangeTerm(t, self.arith_expr())
        return t

    def arith_expr(self) -> Term:
        return self.expr(75)            # comparisons and connectives excluded

    # -- full expression grammar (required arguments) --------------------

    def expr(self, min_bp: int) -> Term:
        lhs = self._prefix()
        while True:
            t = self.toks[self.i]
            bp = _INFIX_BP.get(t[1])
            if t[0] == "ident" and t[1] == "xor":
                bp = _INFIX_BP["xor"]
            if bp is None or bp[0] < min_bp:
                return lhs
            self.next()
            rhs = self.expr(bp[1])
            lhs = self._op(t[1], (lhs, rhs))

    def _op(self, op: str, args: tuple) -> Term:
        """Operator op applied to args: its canonical compound inside a
        required-argument, an `OpExpr` elsewhere."""
        if not self.required:
            return OpExpr(op, args)
        if op == "<-":
            return Compound("impl", args[::-1])
        if op == "-" and len(args) == 1:
            return Compound("neg", args)
        return Compound(canonical_functor(op), args)

    def _prefix(self) -> Term:
        t = self.next()
        kind, text = t[0], t[1]
        if kind == "int":
            return Const(int(text))
        if kind == "var":
            return Var(text)
        if kind == "ident":
            if self.at("("):
                self.next()
                args = self._seq(self._expr_arg)
                self.expect(")")
                return Compound(text, tuple(args))
            return Const(text)
        if text == "-":
            inner = self.expr(100)
            if isinstance(inner, Const) and isinstance(inner.value, int):
                return Const(-inner.value)
            return self._op("-", (inner,))
        if text == "!":
            if not self.required:
                raise EzSyntaxError("'!' outside a required argument",
                                    _pos(t))
            return self._op("!", (self.expr(60),))
        if text == "(":
            e = self.expr(0)
            self.expect(")")
            return e
        if text == "[":
            return self._list()
        raise EzSyntaxError(f"unexpected token {text!r} in expression",
                            _pos(t))

    def _expr_arg(self) -> Term:
        # A bare comparison operator is legal in global-constraint argument
        # position, e.g. sum([x,y], =<, 5); it denotes the relation itself.
        t = self.peek()
        if t[1] in _CMP_TOKENS and self.peek(1)[1] in (",", ")"):
            self.next()
            return Const(CMP_OPS[t[1]])
        return self.expr(0)

    def _list(self) -> Term:
        if self.at("]"):
            self.next()
            return ListTerm(())
        # Intensional form: single element  name[(prefix)] / arity
        save = self.i
        if self.peek()[0] == "ident":
            name = self.next()[1]
            prefix: tuple = ()
            ok = True
            if self.at("("):
                self.next()
                items = self._seq(lambda: self.expr(0))
                if self.at(")"):
                    self.next()
                    prefix = tuple(items)
                else:
                    ok = False
            if ok and self.at("/") and self.peek(1)[0] == "int":
                self.next()
                arity = int(self.next()[1])
                self.expect("]")
                return IntensionalList(name, prefix, arity)
            self.i = save
        items = self._seq(lambda: self.expr(0))
        self.expect("]")
        return ListTerm(tuple(items))


def _check_reserved(rel: str, args: tuple, tok: tuple) -> None:
    """The arity check of a reserved relation's atom read at token tok."""
    if rel == "cspdomain" and len(args) != 1:
        raise EzSyntaxError("cspdomain takes exactly 1 argument", _pos(tok))
    if rel == "cspvar" and len(args) not in (1, 3):
        raise EzSyntaxError("cspvar takes 1 or 3 arguments", _pos(tok))
    if rel == "required" and len(args) != 1:
        raise EzSyntaxError("required takes exactly 1 argument", _pos(tok))


def parse(text: str) -> EzProgram:
    """Parse EZ source text into an AST with source positions attached, the
    argument of each `required` atom in canonical functors."""
    return _Parser(text).program()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _print_term(t: Term) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Compound):
        return f"{t.functor}({','.join(_print_term(a) for a in t.args)})"
    if isinstance(t, OpExpr):
        if len(t.args) == 1:
            # a prefix operator binds tighter than every binary one
            arg = _print_term(t.args[0])
            if isinstance(t.args[0], OpExpr) and len(t.args[0].args) == 2:
                arg = f"({arg})"
            return t.op + arg
        lhs = _print_paren(t.args[0], t.op, "left")
        rhs = _print_paren(t.args[1], t.op, "right")
        return f"{lhs} {t.op} {rhs}"
    if isinstance(t, ListTerm):
        return f"[{','.join(_print_term(a) for a in t.items)}]"
    if isinstance(t, IntensionalList):
        if t.prefix:
            inner = f"{t.name}({','.join(_print_term(a) for a in t.prefix)})"
        else:
            inner = t.name
        return f"[{inner}/{t.arity}]"
    if isinstance(t, RangeTerm):
        return f"{_print_term(t.lo)}..{_print_term(t.hi)}"
    raise TypeError(f"not a term: {t!r}")


def _op_level(op: str) -> int:
    return _INFIX_BP.get(op, (100, 100))[0]


_RIGHT_ASSOC = frozenset({"->", "<-"})


@lru_cache(maxsize=None)
def needs_parens(child_op: str, parent_op: str, side: str) -> bool:
    """Whether an operand that is a binary `child_op` expression needs
    parentheses on the given side ('left' or 'right') of `parent_op`."""
    child, parent = _op_level(child_op), _op_level(parent_op)
    if child == parent:
        return side != ("right" if parent_op in _RIGHT_ASSOC else "left")
    return child < parent


def _print_paren(t: Term, parent_op: str, side: str) -> str:
    s = _print_term(t)
    if isinstance(t, OpExpr) and len(t.args) == 2 and \
            needs_parens(t.op, parent_op, side):
        return f"({s})"
    return s


def _print_atom(a: Atom) -> str:
    if not a.args:
        return a.rel
    return f"{a.rel}({','.join(_print_term(t) for t in a.args)})"


def _print_body_element(b: BodyElement) -> str:
    if isinstance(b, Lit):
        prefix = {"pos": "", "not": "not ", "notnot": "not not "}[b.kind]
        return prefix + _print_atom(b.atom)
    if isinstance(b, BuiltinLit):
        return f"{_print_term(b.lhs)} {b.op} {_print_term(b.rhs)}"
    if isinstance(b, AggregateLit):
        items = ",".join(
            _print_atom(it.atom)
            + (f" = {_print_term(it.weight)}" if it.weight is not None else "")
            + "".join(f" : {_print_atom(c)}" for c in it.conds)
            for it in b.items)
        s = f"#sum[{items}]"
        if b.lower is not None:
            s = f"{_print_term(b.lower)} {s}"
        if b.upper is not None:
            s = f"{s} {_print_term(b.upper)}"
        return s
    raise TypeError(f"not a body element: {b!r}")


def print_rule(r: Rule, head: Optional[str] = None) -> str:
    """Render one rule as EZ text; `head`, when given, is printed in place
    of its atom head."""
    parts = []
    if isinstance(r.head, Atom):
        parts.append(_print_atom(r.head) if head is None else head)
    elif isinstance(r.head, Choice):
        elems = "; ".join(
            _print_atom(e.atom) + "".join(f" : {_print_atom(c)}" for c in e.conds)
            for e in r.head.elems)
        s = "{ " + elems + " }"
        if r.head.lower is not None:
            s = f"{_print_term(r.head.lower)} {s}"
        if r.head.upper is not None:
            s = f"{s} {_print_term(r.head.upper)}"
        parts.append(s)
    if r.body:
        parts.append(":- " + ", ".join(_print_body_element(b) for b in r.body))
    elif r.head is None:
        parts.append(":-")
    return " ".join(parts) + "."


def pretty_print(p: EzProgram) -> str:
    """Render a program as re-parseable EZ text (round-trips through parse)."""
    return "\n".join(print_rule(r) for r in p.rules) + ("\n" if p.rules else "")
