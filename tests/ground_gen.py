"""Seeded random EZ programs: the ground corpus and non-ground programs.

`random_ez_source` writes a small ground program over a few fd variables,
and `random_program` grounds it; the oracle, engine, propagation and
translation tests draw their seeded corpus from them.

`random_nonground_source` writes a program for differential tests of the
grounder.  It holds facts of p/1, q/2 and s/1 over integers, symbols and
compounds, and rules over them that join, match arithmetic patterns such as
``q(X+1,Y)``, bind and divide (``Z = X / Y``), compare, negate, sum with
weights and variable bounds, and choose with variable bounds.  Some
programs are rejected by the grounder (a division by zero, arithmetic on a
symbol, an unsafe rule); none may make it fail any other way.  Derived
relations are few and take one argument, so that many programs stay within
the oracle's atom bound.
"""

import random
from typing import Optional

from ezcasp.ground import CAProgram, ground_program

_INTS = ["-2", "-1", "0", "1", "2", "3"]
_OTHERS = ["a", "b", "f(1)", "f(a)", "g(1,b)"]
_OPS = ["<", "<=", ">", ">=", "=", "!="]
_DERIVED = ["r", "t", "u"]


def _const(rng: random.Random) -> str:
    return rng.choice(_INTS if rng.random() < 0.7 else _OTHERS)


def _rule(rng: random.Random) -> str:
    h = rng.choice(_DERIVED)
    k = rng.randrange(12)
    if k == 0:
        return f"{h}(X) :- p(X), not {rng.choice(_DERIVED)}(X)."
    if k == 1:
        return f"{h}(Y) :- q(X+{rng.randint(1, 2)},Y), p(X)."
    if k == 2:
        return f"{h}(Y) :- p(X), q(X-1,Y)."
    if k == 3:
        return f"{h}(Z) :- p(X), p(Y), Z = X / Y."
    if k == 4:
        return f"{h}(X) :- p(X), s(Y), X {rng.choice(_OPS)} Y."
    if k == 5:
        return (f"{h}(X) :- p(X), p(N), "
                f"N #sum[ q(X,Y) = Y : s(Y) ] {rng.randint(0, 3)}.")
    if k == 6:
        return f"{h}(X) :- p(X), #sum[ q(X,Y) : s(Y) : p(Y) ] N, s(N)."
    if k == 7:
        return f"N {{ {h}(X) : p(X) }} :- s(N)."
    if k == 8:
        return f"{{ {h}(X) : s(X) }} N :- p(N)."
    if k == 9:
        return f":- {h}(X), {rng.choice(_DERIVED)}(X)."
    if k == 10:
        return f"{h}(X) :- q(X,Y), not p(Y), Y {rng.choice(_OPS)} 1."
    return f"{h}(Z) :- p(X), Z = X * {rng.randint(-1, 2)} + 1, not s(Z)."


def random_nonground_source(seed: int) -> str:
    """Deterministic random non-ground EZ program (see the module text)."""
    rng = random.Random(seed)
    lines = [f"p({_const(rng)})." for _ in range(rng.randint(1, 3))]
    lines += [f"q({_const(rng)},{_const(rng)})."
              for _ in range(rng.randint(0, 3))]
    lines += [f"s({_const(rng)})." for _ in range(rng.randint(1, 2))]
    lines += [_rule(rng) for _ in range(rng.randint(1, 4))]
    return "\n".join(lines) + "\n"


def random_ez_source(seed: int, n_regular: int = 4, n_constraint: int = 2,
                     n_vars: int = 2, n_rules: int = 6,
                     domain_size: int = 6, min_lo: int = 0) -> str:
    """Deterministic random EZ program: safe, head-restricted required atoms,
    primitive constraints over a few fd variables.  Each variable's lower
    bound is drawn from `min_lo`..2."""
    rng = random.Random(seed)
    if n_rules == 0 and n_regular == 0 and n_constraint == 0:
        return "cspdomain(fd).\n"
    atoms = [f"a{i}" for i in range(max(n_regular, 1))]
    vars_ = [f"v{i}" for i in range(max(n_vars, 1))]
    lines = ["cspdomain(fd)."]
    for v in vars_:
        lo = rng.randint(min_lo, 2)
        hi = lo + rng.randint(1, max(domain_size - 1, 1))
        lines.append(f"cspvar({v},{lo},{hi}).")

    def expr() -> str:
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        kind = rng.randrange(4)
        if kind == 0:
            return f"{rng.choice(vars_)} {op} {rng.randint(0, domain_size)}"
        if kind == 1 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} {op} {b}"
        if kind == 2 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} + {b} {op} {rng.randint(0, 2 * domain_size)}"
        if kind == 3 and len(vars_) > 1:
            a, b = rng.sample(vars_, 2)
            return f"{a} - {b} {op} {rng.randint(-domain_size, domain_size)}"
        return f"{rng.choice(vars_)} {op} {rng.randint(0, domain_size)}"

    exprs = []
    for _ in range(n_constraint):
        e = expr()
        if e not in exprs:
            exprs.append(e)

    def body(avoid: Optional[str] = None) -> str:
        k = rng.randint(1, 2)
        lits = []
        pool = [a for a in atoms if a != avoid] or atoms
        for a in rng.sample(pool, min(k, len(pool))):
            lits.append(rng.choice(["", "not ", "not not "]) + a)
        return ", ".join(lits)

    for _ in range(n_rules):
        kind = rng.randrange(6)
        if kind == 0:
            lines.append(f"{rng.choice(atoms)}.")
        elif kind == 1:
            lines.append("{ " + rng.choice(atoms) + " }.")
        elif kind == 2:
            h = rng.choice(atoms)
            lines.append(f"{h} :- {body(avoid=h)}.")
        elif kind == 3 and exprs:
            e = rng.choice(exprs)
            if rng.random() < 0.5:
                lines.append(f"required({e}).")
            else:
                lines.append(f"required({e}) :- {body()}.")
        elif kind == 4:
            lines.append(f":- {body()}.")
        else:
            h = rng.choice(atoms)
            lines.append(f"{h} :- {body(avoid=h)}.")
    return "\n".join(lines) + "\n"


def random_program(seed: int, n_regular: int = 4, n_constraint: int = 2,
                   n_vars: int = 2, n_rules: int = 6,
                   domain_size: int = 6, min_lo: int = 0) -> CAProgram:
    """Deterministic random CA program (grounded from random_ez_source)."""
    return ground_program(random_ez_source(seed, n_regular, n_constraint,
                                           n_vars, n_rules, domain_size,
                                           min_lo))
