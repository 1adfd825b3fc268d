import pytest
from hypothesis import given, settings, strategies as st

from ezcasp.ground import display_atom
from ezcasp.lang import (Atom, BuiltinLit, Compound, Const, EzProgram,
                         EzSyntaxError, IntensionalList, ListTerm, OpExpr,
                         Rule, Var, CANON_FUNCTORS, _tokenize, parse,
                         pretty_print, print_rule)

from conftest import LIGHT_EZ, RIDDLE_EZ, SMM_EZ


def test_parse_light_program():
    p = parse(LIGHT_EZ)
    assert len(p) == 8
    csp_dom = [r for r in p.rules
               if isinstance(r.head, Atom) and r.head.rel == "cspdomain"]
    csp_var = [r for r in p.rules
               if isinstance(r.head, Atom) and r.head.rel == "cspvar"]
    assert len(csp_dom) == 1 and csp_dom[0].is_fact
    assert len(csp_var) == 1 and csp_var[0].head.args == (
        Const("x"), Const(0), Const(23))


def test_parse_empty():
    p = parse("")
    assert len(p) == 0


def test_parse_intensional_list_global():
    p = parse("required(all_different([v/1])).")
    (rule,) = p.rules
    arg = rule.head.args[0]
    assert arg == Compound("all_different",
                           (IntensionalList("v", (), 1),))


def test_parse_positions():
    p = parse("a.\nb :- a.\n")
    assert p.rules[0].pos.line == 1
    assert p.rules[1].pos.line == 2


@pytest.mark.parametrize("bad,fragment", [
    ("cspdomain(fd,q).", "cspdomain"),
    ("cspvar(x).cspvar(x,1).", "cspvar"),
    ("required(x, y).", "expected"),
    ("a :- b", "expected"),
    ("a :- 3 < .", "unexpected"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(EzSyntaxError) as e:
        parse(bad)
    assert fragment in str(e.value)


def test_integers_are_runs_of_decimal_digits():
    assert parse("p(٣).") == parse("p(3).")
    with pytest.raises(EzSyntaxError) as e:
        parse("p(²).")
    assert str(e.value) == "1:3: unexpected character '²'"


def test_parse_error_reports_position():
    with pytest.raises(EzSyntaxError) as e:
        parse("a.\nb :- ,")
    assert e.value.pos is not None and e.value.pos.line == 2


# the parser reads the argument of a required atom in canonical functors

def test_preprocess_gt():
    p = parse("required(v > 2).")
    assert p.rules[0].head.args[0] == Compound("gt", (Const("v"), Const(2)))


def test_preprocess_idempotent_on_canonical_input():
    assert parse("required(gt(v,2)).") == parse("required(v > 2).")


def test_preprocess_or_geq_lt():
    q = parse("required(x >= 12 \\/ y < 3).")
    expected = Compound("or", (Compound("geq", (Const("x"), Const(12))),
                               Compound("lt", (Const("y"), Const(3)))))
    assert q.rules[0].head.args[0] == expected


def test_preprocess_leaves_body_builtins_alone():
    # outside required, operators stay built-ins that the grounder evaluates
    (rule,) = parse("a(X+1) :- b(X), X < 3.").rules
    assert rule.head.args == (OpExpr("+", (Var("X"), Const(1))),)
    assert rule.body[1] == BuiltinLit("<", Var("X"), Const(3))


def _eq(name, value):
    return Compound("eq", (Const(name), Const(value)))


def test_preprocess_connective_aliases():
    q = parse(
        "required(a = 1 /\\ b = 2 \\/ !(c = 3) -> d = 1 <-> e = 2 \\ f = 3).")
    assert q.rules[0].head.args[0] == Compound("iff", (
        Compound("impl", (
            Compound("or", (Compound("and", (_eq("a", 1), _eq("b", 2))),
                            Compound("not", (_eq("c", 3),)))),
            _eq("d", 1))),
        Compound("xor", (_eq("e", 2), _eq("f", 3)))))


def test_reverse_implication_swaps_arguments():
    q = parse("required(a = 1 <- b = 2).")
    assert q.rules[0].head.args[0] == Compound("impl", (_eq("b", 2),
                                                        _eq("a", 1)))


def test_required_atoms_in_bodies_are_canonical():
    # the grounder rejects them, but they read as in heads
    neg = Compound("neg", (Const("v"),))
    for src in ("a :- required(-v > 2).", "a :- not required(-v > 2).",
                "a :- not not required(-v > 2)."):
        (lit,) = parse(src).rules[0].body
        assert lit.atom == Atom("required", (Compound("gt",
                                                      (neg, Const(2))),))


def test_pretty_print_empty():
    assert pretty_print(EzProgram(())) == ""


CORPUS = [
    LIGHT_EZ,
    RIDDLE_EZ,
    SMM_EZ,
    "xcoord(-2*N..2*N) :- length(N).",
    "1 { leafPos(L,N) : location(N) } 1 :- leaf(L).",
    "acceptable :- #sum[w(P,W) = W : pos(P)] 9, budget(9).",
    "required(sum([posCost/1], =<, MV)) :- max_total_weight(MV).",
    "required(cumulative([st/1],[d/2],[res/2],4)).",
    "required(count(2,[x,y],>=,1)).",
    "a :- not not a.",
    ":- p, not q, not not r.",
    "required(p(1) = 2 <- (q(1) = 0 /\\ q(2) = 1)) :- f(1).",
]


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_corpus(src):
    p = parse(src)
    assert parse(pretty_print(p)) == p


def test_prefix_minus_keeps_its_binary_operand_parenthesized():
    # prefix - binds tighter than * and /, so -(Y/2) is not -Y / 2
    for body, shown in [("-(Y/2)", "-(Y / 2)"), ("-(Y*2)", "-(Y * 2)"),
                        ("(-Y)/2", "-Y / 2")]:
        p = parse(f"q(7). p(X) :- q(Y), X = {body}.")
        assert f"X = {shown}." in pretty_print(p)
        assert parse(pretty_print(p)) == p


@pytest.mark.parametrize("src", CORPUS)
def test_preprocess_idempotent_corpus(src):
    # a required head shown with surface operators, as `--dump-ground`
    # shows it, reads back to its canonical form
    for r in parse(src).rules:
        if isinstance(r.head, Atom) and r.head.rel == "required":
            (back,) = parse(print_rule(r, display_atom(r.head))).rules
            assert back == r


def _canonical_only(t):
    if isinstance(t, OpExpr):
        return False
    if isinstance(t, Compound):
        return all(_canonical_only(a) for a in t.args)
    if isinstance(t, ListTerm):
        return all(_canonical_only(a) for a in t.items)
    return True


@pytest.mark.parametrize("src", CORPUS)
def test_no_raw_operators_after_preprocess(src):
    for r in parse(src).rules:
        if isinstance(r.head, Atom) and r.head.rel == "required":
            assert _canonical_only(r.head.args[0])


# -- generated expression round-trips ---------------------------------------
# Each strategy draws a pair: a surface tree, as a required-argument is
# written, and the canonical tree that the parser reads it into.

_names = st.sampled_from(["x", "y", "foo", "v"])

_CANON = {"+": "plus", "-": "minus", "*": "times",
          "<": "lt", "<=": "leq", ">": "gt", ">=": "geq", "=": "eq",
          "!=": "neq", "\\/": "or", "/\\": "and", "xor": "xor",
          "->": "impl", "<->": "iff", "!": "not"}


def _op(op, *pairs):
    surface = OpExpr(op, tuple(s for s, _ in pairs))
    args = tuple(c for _, c in pairs)
    if op == "<-":
        return surface, Compound("impl", args[::-1])
    return surface, Compound(_CANON[op], args)


def _terms():
    leaves = st.one_of(
        st.integers(-20, 20).map(Const),
        _names.map(Const),
        st.sampled_from(["X", "Y"]).map(Var),
    ).map(lambda t: (t, t))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]),
                      children, children).map(lambda t: _op(*t)),
            st.tuples(_names, st.lists(children, min_size=1, max_size=3)).map(
                lambda t: (Compound(t[0], tuple(s for s, _ in t[1])),
                           Compound(t[0], tuple(c for _, c in t[1])))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _exprs():
    cmp = st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
                    _terms(), _terms()).map(lambda t: _op(*t))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["\\/", "/\\", "xor", "->", "<-",
                                       "<->"]),
                      children, children).map(lambda t: _op(*t)),
            children.map(lambda c: _op("!", c)),
        )

    return st.recursive(cmp, extend, max_leaves=6)


def _required(expr):
    return EzProgram((Rule(Atom("required", (expr,)), ()),))


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_required_expression_round_trip(pair):
    surface, canonical = map(_required, pair)
    assert parse(pretty_print(surface)) == canonical
    assert parse(pretty_print(canonical)) == canonical


def test_canonical_functor_set_is_closed():
    for name in ("lt", "leq", "gt", "geq", "eq", "neq", "plus", "minus",
                 "times", "div", "or", "and", "xor", "impl", "iff", "not",
                 "neg"):
        assert name in CANON_FUNCTORS


# -- tokenizer pins ----------------------------------------------------------
# (kind, text, line, col) of every token, or the error text, for inputs at
# the edges of the lexical grammar.  Columns count characters, a tab or a
# carriage return as one; the end-of-file token of a text that ends inside
# a comment sits where the comment starts.

TOKEN_PINS = [
    ("a.\tb :-\tc.\r\nd.\r\n",
     [("ident", "a", 1, 1), ("punct", ".", 1, 2), ("ident", "b", 1, 4),
      ("punct", ":-", 1, 6), ("ident", "c", 1, 9), ("punct", ".", 1, 10),
      ("ident", "d", 2, 1), ("punct", ".", 2, 2), ("eof", "", 3, 1)]),
    ("p(1). % trailing comment",
     [("ident", "p", 1, 1), ("punct", "(", 1, 2), ("int", "1", 1, 3),
      ("punct", ")", 1, 4), ("punct", ".", 1, 5), ("eof", "", 1, 7)]),
    ("p.\n%only\n",
     [("ident", "p", 1, 1), ("punct", ".", 1, 2), ("eof", "", 3, 1)]),
    ("n :- #sum[a = 1, b] 2.",
     [("ident", "n", 1, 1), ("punct", ":-", 1, 3), ("punct", "#sum", 1, 6),
      ("punct", "[", 1, 10), ("ident", "a", 1, 11), ("punct", "=", 1, 13),
      ("int", "1", 1, 15), ("punct", ",", 1, 16), ("ident", "b", 1, 18),
      ("punct", "]", 1, 19), ("int", "2", 1, 21), ("punct", ".", 1, 22),
      ("eof", "", 1, 23)]),
    ("a :- # b.",
     [("ident", "a", 1, 1), ("punct", ":-", 1, 3), ("punct", "#", 1, 6),
      ("ident", "b", 1, 8), ("punct", ".", 1, 9), ("eof", "", 1, 10)]),
    ("#", [("punct", "#", 1, 1), ("eof", "", 1, 2)]),
    (":- .. <-> <- -> <= =< >= != == \\/ /\\",
     [("punct", ":-", 1, 1), ("punct", "..", 1, 4), ("punct", "<->", 1, 7),
      ("punct", "<-", 1, 11), ("punct", "->", 1, 14), ("punct", "<=", 1, 17),
      ("punct", "=<", 1, 20), ("punct", ">=", 1, 23), ("punct", "!=", 1, 26),
      ("punct", "==", 1, 29), ("punct", "\\/", 1, 32),
      ("punct", "/\\", 1, 35), ("eof", "", 1, 37)]),
    ("=<>!\\+-*/()[]{},.;:",
     [("punct", "=<", 1, 1), ("punct", ">", 1, 3), ("punct", "!", 1, 4),
      ("punct", "\\", 1, 5), ("punct", "+", 1, 6), ("punct", "-", 1, 7),
      ("punct", "*", 1, 8), ("punct", "/", 1, 9), ("punct", "(", 1, 10),
      ("punct", ")", 1, 11), ("punct", "[", 1, 12), ("punct", "]", 1, 13),
      ("punct", "{", 1, 14), ("punct", "}", 1, 15), ("punct", ",", 1, 16),
      ("punct", ".", 1, 17), ("punct", ";", 1, 18), ("punct", ":", 1, 19),
      ("eof", "", 1, 20)]),
    ("p(1..3).",
     [("ident", "p", 1, 1), ("punct", "(", 1, 2), ("int", "1", 1, 3),
      ("punct", "..", 1, 4), ("int", "3", 1, 6), ("punct", ")", 1, 7),
      ("punct", ".", 1, 8), ("eof", "", 1, 9)]),
    ("_x. é(1). Éa. 1a.",
     [("var", "_x", 1, 1), ("punct", ".", 1, 3), ("ident", "é", 1, 5),
      ("punct", "(", 1, 6), ("int", "1", 1, 7), ("punct", ")", 1, 8),
      ("punct", ".", 1, 9), ("var", "Éa", 1, 11), ("punct", ".", 1, 13),
      ("int", "1", 1, 15), ("ident", "a", 1, 16), ("punct", ".", 1, 17),
      ("eof", "", 1, 18)]),
    ("p(٣).",
     [("ident", "p", 1, 1), ("punct", "(", 1, 2), ("int", "٣", 1, 3),
      ("punct", ")", 1, 4), ("punct", ".", 1, 5), ("eof", "", 1, 6)]),
    ("x @ y", "1:3: unexpected character '@'"),
    # `int` does not read `²`, which `str.isdigit` accepts
    ("p(²).", "1:3: unexpected character '²'"),
    ("p(1²).", "1:4: unexpected character '²'"),
    ("#a² b", "1:3: unexpected character '²'"),
    ("\n  $", "2:3: unexpected character '$'"),
]


def _stream(text: str):
    """The tokens of text as (kind, text, line, col), or the error text."""
    try:
        return _tokenize(text)
    except EzSyntaxError as exc:
        return str(exc)


@pytest.mark.parametrize("text,want", TOKEN_PINS)
def test_tokenizer_pins(text, want):
    assert _stream(text) == want
