"""The contract of the records: repr, equality, hashing, immutability and
construction, as the package's records have always had them.  The expected
reprs were taken from the dataclass-based records these replaced."""

import importlib
import pkgutil

import pytest

import ezcasp
from ezcasp.cli import RunReport
from ezcasp.engine import (ExtendedAnswerSet, SchemaConfig, SolveResult,
                           SolveStats)
from ezcasp.fd import Arith, BoolExpr, Cmp, Global, IntConst, VarRef
from ezcasp.ground import CADecl, GroundProgram, VariableDecl
from ezcasp.lang import (AggItem, AggregateLit, Atom, BuiltinLit, Choice,
                         ChoiceElem, Compound, Const, EzProgram,
                         IntensionalList, Lit, ListTerm, OpExpr, RangeTerm,
                         Rule, SourcePos, Var)
from ezcasp.records import RecordBase
from ezcasp.terms import _Terms

A = Atom("a")
FACT = Rule(A, ())
LT = Cmp("lt", VarRef("v"), IntConst(3))
STATS = ("SolveStats(decisions=0, propagations=0, csp_checks=0, learned=0, "
         "restarts=0, steps=0, runs=0, candidates=0, fd_nodes=0, "
         "core_checks=0)")

# each record class: a function making one instance, and its repr
CASES = {
    "SourcePos": (lambda: SourcePos(3, 4), "SourcePos(line=3, col=4)"),
    "Const": (lambda: Const("x"), "Const(value='x')"),
    "Var": (lambda: Var("X"), "Var(name='X')"),
    "Compound": (lambda: Compound("f", (Const(1),)),
                 "Compound(functor='f', args=(Const(value=1),))"),
    "OpExpr": (lambda: OpExpr("+", (Var("X"), Const(1))),
               "OpExpr(op='+', args=(Var(name='X'), Const(value=1)))"),
    "ListTerm": (lambda: ListTerm((Const(1), Const("a"))),
                 "ListTerm(items=(Const(value=1), Const(value='a')))"),
    "IntensionalList": (lambda: IntensionalList("q", (Const(2),), 2),
                        "IntensionalList(name='q', prefix=(Const(value=2),),"
                        " arity=2)"),
    "RangeTerm": (lambda: RangeTerm(Const(1), Var("N")),
                  "RangeTerm(lo=Const(value=1), hi=Var(name='N'))"),
    "Atom": (lambda: Atom("p", (Const(1), Var("X"))),
             "Atom(rel='p', args=(Const(value=1), Var(name='X')))"),
    "Lit": (lambda: Lit("not", A),
            "Lit(kind='not', atom=Atom(rel='a', args=()))"),
    "BuiltinLit": (lambda: BuiltinLit("<", Var("X"), Const(2)),
                   "BuiltinLit(op='<', lhs=Var(name='X'), "
                   "rhs=Const(value=2))"),
    "AggItem": (lambda: AggItem(A, Const(2), (Lit("pos", Atom("b")),)),
                "AggItem(atom=Atom(rel='a', args=()), weight=Const(value=2),"
                " conds=(Lit(kind='pos', atom=Atom(rel='b', args=())),))"),
    "AggregateLit": (lambda: AggregateLit(None, (AggItem(A, None, ()),),
                                          Const(3)),
                     "AggregateLit(lower=None, items=(AggItem(atom=Atom("
                     "rel='a', args=()), weight=None, conds=()),), "
                     "upper=Const(value=3))"),
    "ChoiceElem": (lambda: ChoiceElem(A, ()),
                   "ChoiceElem(atom=Atom(rel='a', args=()), conds=())"),
    "Choice": (lambda: Choice(Const(1), (ChoiceElem(A, ()),), None),
               "Choice(lower=Const(value=1), elems=(ChoiceElem(atom=Atom("
               "rel='a', args=()), conds=()),), upper=None)"),
    "Rule": (lambda: Rule(A, (Lit("pos", Atom("b")),), SourcePos(2, 1)),
             "Rule(head=Atom(rel='a', args=()), body=(Lit(kind='pos', "
             "atom=Atom(rel='b', args=())),), pos=SourcePos(line=2, col=1))"),
    "EzProgram": (lambda: EzProgram((FACT,)),
                  "EzProgram(rules=(Rule(head=Atom(rel='a', args=()), "
                  "body=(), pos=SourcePos(line=0, col=0)),))"),
    "IntConst": (lambda: IntConst(3), "IntConst(value=3)"),
    "VarRef": (lambda: VarRef("v"), "VarRef(name='v')"),
    "Arith": (lambda: Arith("plus", (VarRef("v"), IntConst(1))),
              "Arith(op='plus', args=(VarRef(name='v'), IntConst(value=1)))"),
    "Cmp": (lambda: Cmp("lt", VarRef("v"), IntConst(3)),
            "Cmp(op='lt', lhs=VarRef(name='v'), rhs=IntConst(value=3))"),
    "BoolExpr": (lambda: BoolExpr("or", (LT, LT.complement)),
                 "BoolExpr(op='or', args=(Cmp(op='lt', lhs=VarRef(name='v'),"
                 " rhs=IntConst(value=3)), Cmp(op='geq', lhs=VarRef("
                 "name='v'), rhs=IntConst(value=3))))"),
    "Global": (lambda: Global("sum", ((VarRef("a"), VarRef("b")), "leq",
                                      IntConst(4))),
               "Global(name='sum', args=((VarRef(name='a'), VarRef(name='b'"
               ")), 'leq', IntConst(value=4)))"),
    "GroundProgram": (lambda: GroundProgram((FACT,), {1: A}, (0,)),
                      "GroundProgram(rules=(Rule(head=Atom(rel='a', "
                      "args=()), body=(), pos=SourcePos(line=0, col=0)),), "
                      "atoms={1: Atom(rel='a', args=())}, lists=(0,))"),
    "VariableDecl": (lambda: VariableDecl("cspvar(v,0,3)", Const("v"), 0, 3),
                     "VariableDecl(atom='cspvar(v,0,3)', var_term=Const("
                     "value='v'), lo=0, hi=3)"),
    "CADecl": (lambda: CADecl(None, "v", 0, 3),
               "CADecl(atom=None, var='v', lo=0, hi=3)"),
    "SchemaConfig": (lambda: SchemaConfig(),
                     "SchemaConfig(schema='black', semantics='weak', "
                     "check_freq=1, limit=1, max_alphas_per_model=0, "
                     "step_budget=1000000)"),
    "ExtendedAnswerSet": (lambda: ExtendedAnswerSet(frozenset({"a"}),
                                                    (("v", 1),), (1, -2)),
                          "ExtendedAnswerSet(atoms=frozenset({'a'}), "
                          "assignment=(('v', 1),), literals=(1, -2))"),
    "SolveStats": (lambda: SolveStats(), STATS),
    "SolveResult": (lambda: SolveResult("sat", [], SolveStats()),
                    f"SolveResult(status='sat', models=[], stats={STATS}, "
                    f"trace=None, layer_s={{}})"),
    "RunReport": (lambda: RunReport("x.ez", "black", "weak", "SAT(1)", 0.5),
                  f"RunReport(instance='x.ez', schema='black', "
                  f"semantics='weak', outcome='SAT(1)', wall_time=0.5, "
                  f"stats={STATS}, layer_s={{'clausify_s': 0.0, 'unit_s': "
                  f"0.0, 'unfounded_s': 0.0, 'fd_build_s': 0.0, "
                  f"'fd_search_s': 0.0, 'fd_core_s': 0.0}})"),
}
MUTABLE = {"SchemaConfig", "SolveStats", "SolveResult", "RunReport"}


def _record_classes():
    """Every class of the package built on RecordBase that has fields."""
    for info in pkgutil.iter_modules(ezcasp.__path__):
        if info.name != "__main__":
            importlib.import_module(f"ezcasp.{info.name}")
    out, todo = set(), [RecordBase]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls._fields:
            out.add(cls.__name__)
    return out


def test_every_record_class_has_a_case():
    assert _record_classes() == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_record_repr_equality_and_hash(name):
    make, text = CASES[name]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    assert a != object() and a != None             # noqa: E711
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(
            getattr(a, f) for f in a._compared))


@pytest.mark.parametrize("name", sorted(set(CASES) - MUTABLE))
def test_immutable_record_rejects_assignment(name):
    a = CASES[name][0]()
    first = a._fields[0]
    value = getattr(a, first)
    for change in (lambda: setattr(a, first, value),
                   lambda: setattr(a, "other", 1),
                   lambda: delattr(a, first)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(a, first) is value and repr(a) == CASES[name][1]


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_record_takes_assignment(name):
    a = CASES[name][0]()
    first = a._fields[0]
    setattr(a, first, "changed")
    assert getattr(a, first) == "changed" and a != CASES[name][0]()


def test_records_of_other_classes_differ():
    assert Const("x") != Var("x") and Var("x") != Const("x")
    assert IntConst(1) != Const(1) and len({Const(1), IntConst(1)}) == 2
    assert EzProgram((FACT,)) != GroundProgram((FACT,), {}, ())
    assert Atom("a") != Atom("b") and Atom("a", (Const(1),)) != Atom("a")


def test_uncompared_fields_leave_equality_and_hash():
    body = (Lit("pos", Atom("b")),)
    here, there = Rule(A, body, SourcePos(1, 1)), Rule(A, body,
                                                       SourcePos(9, 9))
    assert here == there and hash(here) == hash(there)
    assert here != Rule(A, (), SourcePos(1, 1))
    one = GroundProgram((FACT,), {1: A}, (0,))
    other = GroundProgram((FACT,), {}, (), _Terms())
    assert one == other and hash(one) == hash(other)
    assert one.terms is not other.terms
    assert one != GroundProgram((FACT, FACT), {1: A}, (0,))


def test_keyword_construction_and_defaults():
    assert Atom("a") == Atom(rel="a", args=()) and Atom("a").args == ()
    rule = Rule(A, ())
    assert rule.pos == SourcePos() == SourcePos(0, 0)
    assert Rule(head=A, body=(), pos=SourcePos(3, 1)) == rule
    cfg = SchemaConfig(limit=0)
    assert (cfg.schema, cfg.semantics, cfg.check_freq, cfg.limit,
            cfg.max_alphas_per_model, cfg.step_budget) == \
        ("black", "weak", 1, 0, 0, 1_000_000)
    assert SchemaConfig(**{**vars(cfg), "schema": "clear"}).schema == "clear"
    assert SolveResult("unsat", [], SolveStats()).layer_s == {}
    assert SolveStats(decisions=2) == SolveStats(2)


@pytest.mark.parametrize("field, value, message", [
    ("schema", "white", "unknown schema 'white'"),
    ("semantics", "strong", "unknown semantics 'strong'"),
    ("check_freq", 0, "check_freq must be >= 1"),
    ("limit", -1, "limit must be >= 0"),
    ("max_alphas_per_model", -1, "max_alphas_per_model must be >= 0"),
    ("step_budget", -1, "step_budget must be >= 0"),
])
def test_schema_config_rejects(field, value, message):
    with pytest.raises(ValueError) as info:
        SchemaConfig(**{field: value})
    assert str(info.value) == message


def test_stats_keys_keep_their_order():
    assert list(vars(SolveStats())) == [
        "decisions", "propagations", "csp_checks", "learned", "restarts",
        "steps", "runs", "candidates", "fd_nodes", "core_checks"]


def test_derived_attributes_are_kept_apart_from_the_fields():
    # `form` and the cached properties live in the instance's dict but are
    # neither shown nor compared
    c = Cmp("lt", VarRef("v"), IntConst(3))
    assert c.form is not None and c.variables == frozenset({"v"})
    assert c.complement.complement == c and "form" not in repr(c)
    assert Global("sum", ((VarRef("a"),), "eq", IntConst(1))).form \
        is not None
