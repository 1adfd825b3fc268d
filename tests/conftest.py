import pathlib
import sys

import pytest

from ezcasp import fd
from ezcasp.asp import RegularProgram
from ezcasp.ground import CAProgram

ENCODINGS = pathlib.Path(__file__).resolve().parent.parent / "src" / "ezcasp" / "encodings"



def perfbench_gen():
    """The benchmark's instance generators, `perfbench/gen.py`."""
    path = str(ENCODINGS.parents[2] / "perfbench")
    sys.path.insert(0, path)
    try:
        import gen
    finally:
        sys.path.remove(path)
    return gen


LIGHT_EZ = (ENCODINGS / "light.ez").read_text()
RIDDLE_EZ = (ENCODINGS / "riddle.ez").read_text()
SMM_EZ = (ENCODINGS / "smm.ez").read_text()

# Programs whose ranged declarations are conditional, for the default range
# 0..9.  In the first two, making `a` true narrows x to a range that no
# constraint allows, so a check that fails with `a` true must not block the
# constraint literals alone.  In the third, `a` false leaves x on the
# default range, which the constraint excludes, so a check that fails with
# `a` false must not block them alone either.
CONDITIONAL_DECLS = [
    "cspdomain(fd). {a}. cspvar(x,0,3). cspvar(x,5,9) :- a. "
    "required(x >= 0).",
    "cspdomain(fd). {a}. cspvar(x,5,9) :- a. required(x < 3).",
    "cspdomain(fd). {b}. a :- not b. cspvar(x,-5,-1) :- a. "
    "required(x < 0).",
]


def make_light_asp() -> RegularProgram:
    """The light-domain regular program: {switch}. lightOn :- switch, not am.
    :- not lightOn. {am}."""
    return RegularProgram.build([
        ("switch", [], [], ["switch"]),
        ("lightOn", ["switch"], ["am"], []),
        (None, [], ["lightOn"], []),
        ("am", [], [], ["am"]),
    ])


def make_p1() -> CAProgram:
    """The light-domain CA program: the regular part plus denials tying the
    constraint atoms |x < 12| and |x >= 12| to am/pm hours; x in 0..23."""
    pi = RegularProgram.build([
        ("switch", [], [], ["switch"]),
        ("lightOn", ["switch"], ["am"], []),
        (None, [], ["lightOn"], []),
        ("am", [], [], ["am"]),
        (None, ["|x < 12|"], ["am"], []),
        (None, ["am", "|x >= 12|"], [], []),
    ])
    gamma = {"|x < 12|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(12)),
             "|x >= 12|": fd.Cmp("geq", fd.VarRef("x"), fd.IntConst(12))}
    return CAProgram(pi, ["|x < 12|", "|x >= 12|"], gamma, domain=(0, 23))


def make_p2() -> CAProgram:
    """P1 extended with {pm}, a denial forcing |x >= 12| to imply pm, and a
    denial ruling |x < 12| out."""
    pi = RegularProgram.build([
        ("switch", [], [], ["switch"]),
        ("lightOn", ["switch"], ["am"], []),
        (None, [], ["lightOn"], []),
        ("am", [], [], ["am"]),
        (None, ["|x < 12|"], ["am"], []),
        (None, ["am", "|x >= 12|"], [], []),
        ("pm", [], [], ["pm"]),
        (None, ["|x >= 12|"], ["pm"], []),
        (None, ["|x < 12|"], [], []),
    ])
    gamma = {"|x < 12|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(12)),
             "|x >= 12|": fd.Cmp("geq", fd.VarRef("x"), fd.IntConst(12))}
    return CAProgram(pi, ["|x < 12|", "|x >= 12|"], gamma, domain=(0, 23))


def make_night() -> CAProgram:
    """night :- |x < 6|.  am :- |x < 12|.  (x in 0..23)"""
    pi = RegularProgram.build([
        ("night", ["|x < 6|"], [], []),
        ("am", ["|x < 12|"], [], []),
    ])
    gamma = {"|x < 6|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(6)),
             "|x < 12|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(12))}
    return CAProgram(pi, ["|x < 6|", "|x < 12|"], gamma, domain=(0, 23))


def make_window() -> CAProgram:
    """:- |x < 12|.  :- |x > 10|.  (x in 0..23): weak-SAT, full-UNSAT."""
    pi = RegularProgram.build([
        (None, ["|x < 12|"], [], []),
        (None, ["|x > 10|"], [], []),
    ])
    gamma = {"|x < 12|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(12)),
             "|x > 10|": fd.Cmp("gt", fd.VarRef("x"), fd.IntConst(10))}
    return CAProgram(pi, ["|x < 12|", "|x > 10|"], gamma, domain=(0, 23))


def make_conflict_pair() -> CAProgram:
    """b.  :- not c1.  gamma(c1) = x >= 12, gamma(c2) = x < 5 on 0..23:
    deciding c2 true forces a constraint conflict."""
    pi = RegularProgram.build(
        [("b", [], [], []),
         (None, [], ["|x >= 12|"], [])],
        extra_atoms=["|x < 5|"])
    gamma = {"|x >= 12|": fd.Cmp("geq", fd.VarRef("x"), fd.IntConst(12)),
             "|x < 5|": fd.Cmp("lt", fd.VarRef("x"), fd.IntConst(5))}
    return CAProgram(pi, ["|x >= 12|", "|x < 5|"], gamma, domain=(0, 23))


@pytest.fixture
def p1():
    return make_p1()


@pytest.fixture
def p2():
    return make_p2()


@pytest.fixture
def night():
    return make_night()


@pytest.fixture
def window():
    return make_window()


@pytest.fixture
def light_asp():
    return make_light_asp()
