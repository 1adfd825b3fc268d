"""Snapshot of `fd.propagate` fixpoints: the result and every domain.

The snapshot covers the `csp_gen` instances of seeds 0-999, at the root and
after each of up to two seeded value removals, and hand-written cases for
each reified connective and for global constraints with constant
arguments.  Propagation must reach exactly these fixpoints,
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
        # global constraints with constant items, values, indices, targets
        # and limits, and sums whose coefficients merge
        "all_different_const_item": _instance(
            [("x", 3, 3), ("y", 2, 4)], G("all_different", ((x, I(3), y),))),
        "all_distinct_const_item": _instance(
            [("x", 0, 1), ("y", 0, 1), ("z", 0, 2)],
            G("all_distinct", ((x, I(1), y, z),))),
        "count_const_value_upper": _instance(
            XYZ, G("count", (I(2), (x, I(2), y, z), "eq", I(2)))),
        "count_const_value_lower": _instance(
            [("x", 2, 2), ("y", 0, 9), ("z", 1, 3)],
            G("count", (I(2), (x, I(2), y, z), "eq", I(2)))),
        "count_const_value_fix": _instance(
            [("x", 0, 1), ("y", 1, 3), ("z", 2, 4)],
            G("count", (I(2), (x, I(2), y, z), "geq", I(3)))),
        "count_const_value_refuted": _instance(
            [("x", 0, 1), ("y", 3, 9)],
            G("count", (I(2), (x, I(5), y), "gt", I(0)))),
        "element_const_index_and_target": _instance(
            XYZ, G("element", (I(2), (x, y, z), I(4)))),
        "element_const_index_const_item": _instance(
            XY, G("element", (I(2), (x, I(7), y), I(4)))),
        "element_const_index_out_of_range": _instance(
            XY, G("element", (I(4), (x, y, I(1)), I(4)))),
        "element_var_index_const_items": _instance(
            [("x", 0, 9), ("y", 0, 9), ("z", 0, 9)],
            G("element", (x, (I(5), I(3), y, I(8)), I(3)))),
        "element_var_index_var_target": _instance(
            [("x", 0, 9), ("y", 2, 4)],
            G("element", (x, (I(5), I(3), I(9)), y))),
        "minimum_const_items": _instance(
            XY, G("minimum", (x, (I(6), y, I(4))))),
        "maximum_const_value": _instance(
            XY, G("maximum", (I(5), (x, y, I(2))))),
        "maximum_const_value_refuted": _instance(
            [("x", 6, 9), ("y", 0, 9)], G("maximum", (I(5), (x, y)))),
        "cumulative_const_limit": _instance(
            [("x", 0, 3), ("y", 0, 3), ("z", 2, 2)],
            G("cumulative", ((x, y, z), (2, 2, 2), (1, 2, 2), I(3)))),
        "cumulative_const_start": _instance(
            [("x", 0, 4), ("y", 0, 4)],
            G("cumulative", ((x, I(2), y), (2, 2, 1), (2, 2, 1), I(3)))),
        "serialized_const_start": _instance(
            [("x", 0, 4), ("y", 0, 4)],
            G("serialized", ((I(1), x, y), (2, 2, 1)))),
        "disjoint2_const_items": _instance(
            [("x", 0, 1), ("y", 0, 1)],
            G("disjoint2", ((x, I(0)), (2, 2), (y, I(0)), (2, 2)))),
        "sum_const_items": _instance(
            XY, G("sum", ((x, I(3), y, I(-1)), "leq", I(6)))),
        "sum_repeated_variable": _instance(
            XY, G("sum", ((x, y, x), "leq", I(7)))),
        "sum_variable_target": _instance(
            [("x", 0, 4), ("y", 0, 3), ("z", 0, 20)],
            G("sum", ((x, y), "eq", z))),
        "sum_target_in_list": _instance(
            XY, G("sum", ((x, y), "geq", y))),
        "sum_neq_const_items": _instance(
            [("x", 2, 2), ("y", 0, 9)],
            G("sum", ((x, I(3), y), "neq", I(9)))),
        "scalar_product_cancel": _instance(
            XYZ, G("scalar_product", ((2, 1, -2, 3), (x, y, x, I(1)), "geq",
                                      I(10)))),
        "scalar_product_zero_coefficient": _instance(
            XYZ, G("scalar_product", ((0, 2, -1), (x, y, z), "eq", I(4)))),
        "scalar_product_all_cancel": _instance(
            XY, G("scalar_product", ((1, -1), (x, x), "lt", I(0)))),
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
