"""Snapshot of `fd.propagate` fixpoints: the result and every domain.

The snapshot covers the `csp_gen` instances of seeds 0-999, at the root and
after each of up to two seeded value removals, and hand-written cases for
each reified connective.  Propagation must reach exactly these fixpoints,
failed ones included.  Regenerate the files with

    PYTHONPATH=src:tests python tests/test_fd_fixpoints.py
"""

import pathlib
import random

from ezcasp.fd import (Arith, BoolExpr, Cmp, CSPInstance, Global, IntConst,
                       VarRef, complement, propagate)

from csp_gen import gen_instance

DATA = pathlib.Path(__file__).resolve().parent / "data" / "fd_fixpoints"
V, I, C, G, B, A = VarRef, IntConst, Cmp, Global, BoolExpr, Arith


def fixpoint_text(ok: bool, inst: CSPInstance) -> str:
    parts = ["ok" if ok else "failed"]
    for n in inst.var_order:
        d = inst.domains[n]
        holes = ",".join(str(v) for v in sorted(d.holes))
        parts.append(f"{n}={d.lo}..{d.hi}" + (f"\\{holes}" if holes else ""))
    return " ".join(parts)


def csp_gen_lines():
    """Per seed: the root fixpoint, then the fixpoints after removing a
    seeded value of a seeded unfixed variable, twice or until failure."""
    for seed in range(1000):
        inst = gen_instance(seed)
        ok = propagate(inst)
        yield f"{seed} root {fixpoint_text(ok, inst)}"
        rng = random.Random(f"fixpoint:{seed}")
        for step in (1, 2):
            unfixed = [n for n in inst.var_order
                       if inst.domains[n].size() > 1]
            if not ok or not unfixed:
                break
            x = rng.choice(unfixed)
            v = rng.choice(list(inst.domains[x].values()))
            inst.domains[x].remove(v)
            ok = propagate(inst, [x])
            yield f"{seed} remove{step} {x}!={v} {fixpoint_text(ok, inst)}"


def _instance(ranges, *constraints) -> CSPInstance:
    inst = CSPInstance()
    for name, lo, hi in ranges:
        inst.add_var(name, lo, hi)
    for c in constraints:
        inst.post(c)
    return inst


x, y, z = V("x"), V("y"), V("z")
XY = [("x", 0, 10), ("y", 0, 9)]
XYZ = XY + [("z", 0, 9)]


def cases():
    """Fresh instances, one per hand-written case."""
    return {
        "or_one_open": _instance(XY, B("or", (C("geq", x, I(12)),
                                              C("lt", y, I(3))))),
        "or_last_open_of_three": _instance(XYZ, B("or", (
            C("gt", x, I(10)), C("lt", y, I(0)),
            C("eq", z, A("plus", (x, y)))))),
        "or_all_refuted": _instance(XY, B("or", (C("geq", x, I(12)),
                                                 C("geq", y, I(10))))),
        "or_entailed_after_open": _instance(XY, B("or", (
            C("lt", x, y), C("leq", y, I(9)), C("gt", x, I(20))))),
        "or_two_open": _instance(XY, B("or", (C("lt", x, I(3)),
                                              C("gt", y, I(7))))),
        "or_neq_open": _instance([("x", 4, 4), ("y", 0, 9)], B("or", (
            C("neq", x, y), C("gt", x, I(5))))),
        "and_inside_or": _instance(XY, B("or", (
            B("and", (C("geq", x, I(12)), C("eq", y, I(1)))),
            B("and", (C("leq", x, I(3)), C("geq", y, I(2))))))),
        "and_inside_or_both_open": _instance(XY, B("or", (
            B("and", (C("geq", x, I(6)), C("eq", y, I(1)))),
            B("and", (C("leq", x, I(3)), C("geq", y, I(2))))))),
        "or_inside_and": _instance(XYZ, B("and", (
            C("leq", z, I(4)),
            B("or", (C("gt", z, I(5)), C("lt", x, y)))))),
        "or_inside_or": _instance(XYZ, B("or", (
            C("gt", x, I(10)),
            B("or", (C("gt", y, I(9)), C("eq", z, I(4))))))),
        "not_cmp": _instance(XY, B("not", (C("lt", x, I(5)),))),
        "not_or": _instance(XY, B("not", (B("or", (C("lt", x, I(5)),
                                                    C("gt", y, I(2)))),))),
        "not_and_one_open": _instance([("x", 3, 3), ("y", 0, 9)], B("not", (
            B("and", (C("lt", x, I(5)), C("gt", y, I(2)))),))),
        "not_and_refuted": _instance([("x", 3, 3), ("y", 4, 9)], B("not", (
            B("and", (C("lt", x, I(5)), C("gt", y, I(2)))),))),
        "impl_forward": _instance([("x", 5, 9), ("y", 0, 9)], B("impl", (
            C("gt", x, I(4)), C("eq", y, I(2))))),
        "impl_backward": _instance([("x", 0, 9), ("y", 3, 5)], B("impl", (
            C("gt", x, I(4)), C("eq", y, I(2))))),
        "not_impl": _instance(XY, B("not", (B("impl", (C("gt", x, I(4)),
                                                       C("eq", y, I(2)))),))),
        "iff_forward": _instance([("x", 5, 9), ("y", 0, 9)], B("iff", (
            C("gt", x, I(4)), C("gt", y, I(4))))),
        "iff_backward": _instance([("x", 0, 9), ("y", 0, 3)], B("iff", (
            C("gt", x, I(4)), C("gt", y, I(4))))),
        "iff_refuted": _instance([("x", 5, 9), ("y", 0, 3)], B("iff", (
            C("gt", x, I(4)), C("gt", y, I(4))))),
        "xor_forward": _instance([("x", 5, 9), ("y", 0, 9)], B("xor", (
            C("gt", x, I(4)), C("gt", y, I(4))))),
        "xor_refuted": _instance([("x", 5, 9), ("y", 6, 9)], B("xor", (
            C("gt", x, I(4)), C("gt", y, I(4))))),
        "global_inside_or_refuted": _instance(
            [("x", 2, 2), ("y", 2, 2), ("z", 0, 9)],
            B("or", (G("all_different", ((x, y),)), C("gt", z, I(5))))),
        "global_inside_or_open": _instance(
            [("x", 2, 2), ("y", 0, 9), ("z", 0, 9)],
            B("or", (C("gt", z, I(9)), G("sum", ((x, y), "eq", I(5)))))),
        "global_under_not": _instance(
            [("x", 2, 2), ("y", 3, 3)],
            B("not", (G("all_different", ((x, y),)),))),
        "repeated_variable_top": _instance(
            XY, C("gt", A("minus", (x, x)), I(0))),
        "repeated_variable_in_or_open": _instance(XY, B("or", (
            C("geq", A("minus", (x, x)), I(1)), C("lt", y, I(3))))),
        "repeated_variable_in_or_fixed": _instance(
            [("x", 4, 4), ("y", 0, 9)],
            B("or", (C("geq", A("minus", (x, x)), I(1)), C("lt", y, I(3))))),
        "repeated_variable_across_sides": _instance(XY, B("or", (
            C("lt", x, A("plus", (x, I(1)))), C("lt", y, I(3))))),
        "nonlinear_in_or": _instance(XYZ, B("or", (
            C("gt", A("times", (x, y)), I(95)), C("lt", z, I(2))))),
        "division_in_or": _instance(XYZ, B("or", (
            C("gt", A("div", (x, I(2))), I(5)),
            C("eq", z, A("div", (y, I(3))))))),
        "scaled_side_in_or": _instance(XYZ, B("or", (
            C("lt", A("times", (I(0), x)), I(0)),
            C("geq", A("times", (A("minus", (y, I(2))), I(3))),
              A("neg", (z,)))))),
        "complement_posted": _instance(XY, complement(C("lt", x, I(5))),
                                       complement(C("neq", y, I(3)))),
    }


def case_lines():
    for name, inst in cases().items():
        ok = propagate(inst)
        yield f"{name} {fixpoint_text(ok, inst)}"


def test_csp_gen_fixpoints_match_snapshot():
    assert list(csp_gen_lines()) == \
        (DATA / "csp_gen.txt").read_text().splitlines()


def test_connective_fixpoints_match_snapshot():
    assert list(case_lines()) == \
        (DATA / "connectives.txt").read_text().splitlines()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "csp_gen.txt").write_text("\n".join(csp_gen_lines()) + "\n")
    (DATA / "connectives.txt").write_text("\n".join(case_lines()) + "\n")
