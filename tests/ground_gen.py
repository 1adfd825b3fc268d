"""Seeded random non-ground EZ programs for differential tests of the grounder.

A program holds facts of p/1, q/2 and s/1 over integers, symbols and
compounds, and rules over them that join, match arithmetic patterns such as
``q(X+1,Y)``, bind and divide (``Z = X / Y``), compare, negate, sum with
weights and variable bounds, and choose with variable bounds.  Some
programs are rejected by the grounder (a division by zero, arithmetic on a
symbol, an unsafe rule); none may make it fail any other way.  Derived
relations are few and take one argument, so that many programs stay within
the oracle's atom bound.
"""

import random

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
