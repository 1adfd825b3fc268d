import functools
import itertools
import random

import pytest

from ezcasp.fd import (Arith, BoolExpr, Cmp, ComplementUnsupported,
                       CSPInstance, Domain, Global, IntConst, VarRef,
                       build_csp, complement, eval_term, propagate,
                       refuted, satisfied, solutions, vars_of)
from ezcasp.lang import GLOBAL_CONSTRAINTS

from bruteforce import enumerate_csp_solutions
from conftest import make_p1
from csp_gen import (GLOBALS, gen_instance, global_constraint, primitive,
                     reified)

V, I, C, G, B, A = VarRef, IntConst, Cmp, Global, BoolExpr, Arith


def _sols_set(sols):
    return {tuple(sorted(s.items())) for s in sols}


# -- domains -------------------------------------------------------------------

def test_domain_basics():
    d = Domain(0, 9)
    assert d.size() == 10 and d.min if False else True
    d.remove(5)
    assert not d.contains(5) and d.size() == 9
    d.set_min(4)
    assert d.lo == 4
    d.remove(4)
    assert d.lo == 6      # skips the hole at 5
    d.set_max(6)
    assert d.fixed and list(d.values()) == [6]
    d.remove(6)
    assert d.empty


def test_domain_huge_range_stays_cheap():
    d = Domain(0, 2 ** 20)
    d.set_min(2 ** 20 - 3)
    d.remove(2 ** 20 - 2)
    assert list(d.values()) == [2 ** 20 - 3, 2 ** 20 - 1, 2 ** 20]


# -- evaluation / satisfied -----------------------------------------------------

def test_eval_division_truncates_toward_zero():
    assert eval_term(A("div", (I(-7), I(2))), {}) == -3
    assert eval_term(A("div", (I(7), I(-2))), {}) == -3
    assert eval_term(A("div", (I(7), I(0))), {}) is None
    assert not satisfied(C("eq", A("div", (I(1), I(0))), I(0)), {})


def test_sum_examples():
    g = G("sum", ((V("x"), V("y")), "leq", I(5)))
    assert satisfied(g, {"x": 2, "y": 3})
    assert not satisfied(g, {"x": 3, "y": 3})


def test_circuit_examples():
    assert satisfied(G("circuit", ((I(2), I(3), I(1)),)), {})
    assert not satisfied(G("circuit", ((I(2), I(1), I(3)),)), {})


def _cycle_decomposition_is_single(perm):
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        return False
    seen = set()
    cur, count = 1, 0
    while cur not in seen:
        seen.add(cur)
        cur = perm[cur - 1]
        count += 1
    return count == n and cur == 1


def test_circuit_cross_validated_by_cycle_decomposition():
    for perm in itertools.permutations(range(1, 5)):
        mine = satisfied(G("circuit", (tuple(I(v) for v in perm),)), {})
        assert mine == _cycle_decomposition_is_single(list(perm))


def test_element_example():
    g = G("element", (I(2), (V("x"), V("y"), V("z")), I(7)))
    assert satisfied(g, {"x": 1, "y": 7, "z": 0})
    assert not satisfied(g, {"x": 7, "y": 1, "z": 0})
    assert not satisfied(G("element", (I(4), (V("x"),), I(1))), {"x": 1})


def test_assignment_semantics():
    g = G("assignment", ((V("a"), V("b")), (V("c"), V("d"))))
    assert satisfied(g, {"a": 2, "b": 1, "c": 2, "d": 1})
    assert satisfied(g, {"a": 1, "b": 2, "c": 1, "d": 2})
    assert not satisfied(g, {"a": 2, "b": 1, "c": 1, "d": 2})


def test_minimum_maximum():
    assert satisfied(G("minimum", (I(1), (V("x"), V("y")))), {"x": 1, "y": 3})
    assert satisfied(G("maximum", (I(3), (V("x"), V("y")))), {"x": 1, "y": 3})
    assert not satisfied(G("minimum", (I(2), (V("x"), V("y")))),
                         {"x": 1, "y": 3})


def test_count_semantics():
    g = G("count", (I(2), (V("x"), V("y"), V("z")), "geq", I(2)))
    assert satisfied(g, {"x": 2, "y": 2, "z": 0})
    assert not satisfied(g, {"x": 2, "y": 1, "z": 0})


def test_scalar_product():
    g = G("scalar_product", ((2, -1), (V("x"), V("y")), "eq", I(3)))
    assert satisfied(g, {"x": 2, "y": 1})
    assert not satisfied(g, {"x": 1, "y": 1})


def test_serialized_and_disjoint2():
    s = G("serialized", ((V("a"), V("b")), (2, 2)))
    assert satisfied(s, {"a": 0, "b": 2})
    assert not satisfied(s, {"a": 0, "b": 1})
    d = G("disjoint2", ((V("x1"), V("x2")), (2, 2), (V("y1"), V("y2")), (2, 2)))
    assert satisfied(d, {"x1": 0, "x2": 2, "y1": 0, "y2": 0})
    assert not satisfied(d, {"x1": 0, "x2": 1, "y1": 0, "y2": 1})
    # lists of unequal lengths are unsatisfied
    assert not satisfied(G("serialized", ((V("a"), V("b")), (2,))),
                         {"a": 0, "b": 2})
    assert not satisfied(G("disjoint2", ((V("x1"), V("x2")), (2, 2),
                                         (V("y1"), V("y2")), (2,))),
                         {"x1": 0, "x2": 2, "y1": 0, "y2": 0})


def _serialized_pairwise(starts, durs):
    """The reference: no two jobs of positive duration overlap."""
    n = len(starts)
    return not any(durs[i] > 0 and durs[j] > 0
                   and starts[i] < starts[j] + durs[j]
                   and starts[j] < starts[i] + durs[i]
                   for i in range(n) for j in range(i + 1, n))


def test_serialized_is_cumulative_with_unit_resources():
    rng = random.Random("serialized")
    seen = set()
    for _ in range(2000):
        n = rng.randint(0, 4)
        starts = [rng.randint(-3, 5) for _ in range(n)]
        durs = tuple(rng.randint(-2, 3) for _ in range(n))
        names = [f"s{i}" for i in range(n)]
        want = _serialized_pairwise(starts, durs)
        g = G("serialized", (tuple(map(V, names)), durs))
        assert satisfied(g, dict(zip(names, starts))) == want, (starts, durs)
        seen.add(want)
    assert seen == {True, False}


# -- complement ------------------------------------------------------------------

def test_complement_examples():
    assert complement(C("lt", V("x"), I(12))) == C("geq", V("x"), I(12))
    assert complement(C("eq", V("x"), V("y"))) == C("neq", V("x"), V("y"))
    c = C("leq", A("plus", (A("times", (I(2), V("x"))), I(3))), V("y"))
    cc = complement(c)
    for xv, yv in itertools.product(range(11), repeat=2):
        e = {"x": xv, "y": yv}
        assert satisfied(c, e) != satisfied(cc, e)


def test_complement_rejects_non_primitive():
    with pytest.raises(ComplementUnsupported):
        complement(G("sum", ((V("x"),), "leq", I(1))))
    with pytest.raises(ComplementUnsupported):
        complement(B("or", (C("lt", V("x"), I(1)), C("gt", V("x"), I(3)))))


def test_complement_xor_property_sampled():
    rng = random.Random(5)
    names = ["x", "y", "z"]
    for _ in range(300):
        c = primitive(rng, names)
        cc = complement(c)
        e = {n: rng.randint(-10, 10) for n in names}
        assert satisfied(c, e) != satisfied(cc, e)


# -- propagation -----------------------------------------------------------------

def test_propagate_bounds():
    inst = CSPInstance()
    inst.add_var("x", 0, 23)
    inst.post(C("geq", V("x"), I(12)))
    assert propagate(inst)
    assert (inst.domains["x"].lo, inst.domains["x"].hi) == (12, 23)


def test_propagate_pigeonhole_singleton():
    inst = CSPInstance()
    inst.add_var("a", 1, 1)
    inst.add_var("b", 1, 1)
    inst.post(G("all_different", ((V("a"), V("b")),)))
    assert not propagate(inst)


def test_cumulative_worked_example():
    # three unit jobs with resources 3,2,1 under limit 4 on starts 0..1:
    # the two heavy jobs can never run together
    inst = CSPInstance()
    for n in ("sa", "sb", "sc"):
        inst.add_var(n, 0, 1)
    inst.post(G("cumulative", ((V("sa"), V("sb"), V("sc")), (1, 1, 1),
                               (3, 2, 1), I(4))))
    sols = list(solutions(inst))
    oracle = enumerate_csp_solutions(inst)
    assert _sols_set(sols) == _sols_set(oracle)
    assert sols and all(s["sa"] != s["sb"] for s in sols)


def _cumulative_per_job_profile(st, starts, durs, ress, limit):
    """Reference time-table filter: the profile of the others is rebuilt
    from the live domains for each job, leaving out every job whose start
    is the same variable."""
    from ezcasp.fd import _ival
    lim_hi = _ival(limit, st.domains)[1]
    jobs = [(s.name, d, r) for s, d, r in zip(starts, durs, ress)
            if isinstance(s, VarRef)]
    if not jobs or all(d <= 0 for d in durs):
        return

    def profile(exclude):
        prof = {}
        for name, d, r in jobs:
            if name == exclude or d <= 0:
                continue
            sd = st.dom(name)
            for t in range(sd.hi, sd.lo + d):
                prof[t] = prof.get(t, 0) + r
        return prof

    peak = max(profile(None).values(), default=0)
    if peak > lim_hi:
        st.failed = True
        return
    if isinstance(limit, VarRef):
        st.set_min(limit.name, peak)
        if st.failed:
            return
    for name, d, r in jobs:
        if d <= 0 or r <= 0:
            continue
        others = profile(name)
        lo = st.dom(name).lo
        moved = True
        while moved and lo <= st.dom(name).hi:
            moved = False
            for t in range(lo, lo + d):
                if others.get(t, 0) + r > lim_hi:
                    lo, moved = t + 1, True
                    break
        st.set_min(name, lo)
        if st.failed:
            return
        hi = st.dom(name).hi
        moved = True
        while moved and hi >= st.dom(name).lo:
            moved = False
            for t in range(hi, hi + d):
                if others.get(t, 0) + r > lim_hi:
                    hi, moved = t - d, True
                    break
        st.set_max(name, hi)
        if st.failed:
            return


def _cumulative_cases(rng):
    """Random cumulatives over x, y and the limit variable l: repeated
    starts, constant starts, and a constant or variable limit, which may
    also be a start."""
    x, y, l = V("x"), V("y"), V("l")
    starts = rng.choice([(x, x, y), (x, y, x, I(2)), (x, l, y), (y, x, x)])
    durs = tuple(rng.randint(0, 3) for _ in starts)
    ress = tuple(rng.randint(-1, 3) for _ in starts)
    limit = rng.choice([l, l, I(rng.randint(0, 4)), A("plus", (l, I(1)))])
    inst = CSPInstance()
    for n in "xyl":
        lo = rng.randint(0, 3)
        inst.add_var(n, lo, lo + rng.randint(0, 4))
    inst.post(G("cumulative", (starts, durs, ress, limit)))
    return inst


def test_cumulative_one_profile_equals_per_job_profiles(monkeypatch):
    from ezcasp import fd
    from test_fd_fixpoints import fixpoint_text
    # raising the limit l, also a start, lengthens l's compulsory part to
    # 2..4, which leaves x only 0..1
    grown = CSPInstance()
    grown.add_var("l", 0, 2)
    grown.add_var("x", 0, 3)
    grown.post(G("cumulative", ((V("l"), V("x")), (3, 1), (2, 1), V("l"))))
    cases = [grown] + [_cumulative_cases(random.Random(f"cumulative:{seed}"))
                       for seed in range(400)]
    checked = 0
    for seed, inst in enumerate(cases):
        g = inst.constraints[0]
        # one run of each filter
        runs = []
        for filt in (fd._filter_cumulative, _cumulative_per_job_profile):
            copy = inst.copy()
            st = fd._Store(copy.domains)
            filt(st, *g.args)
            runs.append(fixpoint_text(not st.failed, copy))
        assert runs[0] == runs[1], (seed, g)
        # the propagation fixpoints
        one = inst.copy()
        ok = propagate(one)
        monkeypatch.setattr(fd, "_filter_cumulative",
                            _cumulative_per_job_profile)
        ref = inst.copy()
        assert fixpoint_text(ok, one) == fixpoint_text(propagate(ref), ref)
        monkeypatch.undo()
        checked += runs[0] != fixpoint_text(True, inst)
        if inst is grown:
            assert runs[0] == "ok l=2..2 x=0..1"
    assert checked > 100        # most cases narrow or fail


def test_propagation_safety_on_random_instances():
    for seed in range(150):
        inst = gen_instance(seed)
        sols = enumerate_csp_solutions(inst)
        copy = inst.copy()
        ok = propagate(copy)
        if not ok:
            assert not sols
            continue
        for s in sols:
            for name, value in s.items():
                assert copy.domains[name].contains(value), (seed, name, s)


# -- search -----------------------------------------------------------------------

def test_enumerate_twelve_solutions():
    inst = CSPInstance()
    inst.add_var("x", 0, 23)
    inst.post(C("geq", V("x"), I(12)))
    sols = list(solutions(inst))
    assert [s["x"] for s in sols] == list(range(12, 24))


def test_single_value_no_constraints():
    inst = CSPInstance()
    inst.add_var("x", 5, 5)
    assert list(solutions(inst)) == [{"x": 5}]


def test_first_mode():
    inst = CSPInstance()
    inst.add_var("x", 0, 9)
    assert next(solutions(inst)) == {"x": 0}


def test_unsat_reports_exhausted():
    inst = CSPInstance()
    inst.add_var("x", 0, 3)
    inst.post(C("gt", V("x"), I(9)))
    assert list(solutions(inst)) == []


def test_send_more_money():
    letters = "sendmory"
    inst = CSPInstance()
    for L in letters:
        inst.add_var(L, 0, 9)

    def lin(pairs):
        t = None
        for n, c in pairs:
            term = A("times", (I(c), V(n)))
            t = term if t is None else A("plus", (t, term))
        return t

    lhs = lin([("s", 1000), ("e", 100), ("n", 10), ("d", 1),
               ("m", 1000), ("o", 100), ("r", 10), ("e", 1)])
    rhs = lin([("m", 10000), ("o", 1000), ("n", 100), ("e", 10), ("y", 1)])
    inst.post(C("eq", lhs, rhs))
    inst.post(C("neq", V("s"), I(0)))
    inst.post(C("neq", V("m"), I(0)))
    inst.post(G("all_different", (tuple(V(L) for L in letters),)))
    assert list(solutions(inst)) == [
        {"s": 9, "e": 5, "n": 6, "d": 7, "m": 1, "o": 0, "r": 8, "y": 2}]


def test_solver_equals_bruteforce_on_random_instances():
    for seed in range(200):
        inst = gen_instance(seed)
        sols = list(solutions(inst))
        assert _sols_set(sols) == _sols_set(enumerate_csp_solutions(inst)), seed


@pytest.mark.parametrize("which", GLOBALS)
def test_solver_equals_bruteforce_per_global(which):
    for seed in range(12):
        inst = gen_instance(10_000 + seed, force_global=which)
        sols = list(solutions(inst))
        assert _sols_set(sols) == _sols_set(enumerate_csp_solutions(inst)), \
            (which, seed)


def test_solutions_are_the_bruteforce_ones_in_lexicographic_order():
    # any sound propagator leaves the same leaves in the same order, which
    # is what lets the propagation order change freely
    for which in GLOBALS:
        for seed in range(8):
            inst = gen_instance(20_000 + seed, force_global=which)
            oracle = sorted(enumerate_csp_solutions(inst),
                            key=lambda e: [e[n] for n in inst.var_order])
            assert list(solutions(inst)) == oracle, (which, seed)


def test_catalog_matches_the_language():
    # a global missing here would escape the per-global tests above
    assert set(GLOBALS) == GLOBAL_CONSTRAINTS


# items, indices, targets, values and limits that are not plain variables:
# arithmetic over variables, constants and an undefined constant
X, Y, Z = V("x"), V("y"), V("z")
X1, Y1 = A("plus", (X, I(1))), A("plus", (Y, I(1)))
Y2 = A("times", (I(2), Y))
XY = A("times", (X, Y))
UNDEF = A("div", (I(1), I(0)))
NON_VARIABLE_ARGS = {
    "sum_arith": G("sum", ((X1, Y2, Z), "eq", I(7))),
    "sum_const": G("sum", ((X, I(3), Z), "leq", I(5))),
    "sum_arith_target": G("sum", ((X, Z), "geq", Y2)),
    "sum_nonlinear": G("sum", ((XY, Z), "eq", I(5))),
    "sum_undefined": G("sum", ((X, UNDEF), "eq", I(3))),
    "scalar_product_arith": G("scalar_product", ((2, -1, 1), (X1, Y2, Z),
                                                 "geq", I(3))),
    "scalar_product_const": G("scalar_product", ((1, 2), (I(3), Z), "eq",
                                                 X1)),
    "scalar_product_undefined": G("scalar_product", ((1, 1), (X, UNDEF),
                                                     "leq", I(9))),
    "count_arith": G("count", (I(2), (X1, Y2, Z), "eq", I(1))),
    "count_arith_value": G("count", (X1, (Y, Z, I(2)), "geq", I(2))),
    "count_const_arith_target": G("count", (I(3), (X, I(3), Z), "eq", Y2)),
    "count_variable_target": G("count", (I(1), (X,), "eq", Y)),
    "count_undefined": G("count", (I(1), (X, UNDEF), "eq", I(1))),
    "count_undefined_value": G("count", (UNDEF, (X, Y), "eq", I(0))),
    "element_arith": G("element", (I(2), (X1, Y2, Z), I(4))),
    "element_const": G("element", (X, (I(3), Y2, Z), Z)),
    "element_arith_index": G("element", (Y1, (X, I(2), Z), X)),
    "element_undefined": G("element", (I(1), (X, UNDEF), I(0))),
    "element_undefined_index": G("element", (UNDEF, (X, Y), I(1))),
    "minimum_arith": G("minimum", (X, (Y1, Y2, Z))),
    "maximum_arith_value": G("maximum", (X1, (Y, I(2), Z))),
    "minimum_undefined": G("minimum", (I(1), (X, UNDEF))),
    "maximum_undefined_value": G("maximum", (UNDEF, (X, Y))),
    "cumulative_arith_limit": G("cumulative", ((X, Y, Z), (2, 2, 1),
                                               (1, 1, 2), Y1)),
    "cumulative_arith_start": G("cumulative", ((X1, Y, Z), (2, 2, 1),
                                               (1, 2, 1), I(2))),
    "cumulative_const_limit": G("cumulative", ((X, Y), (2, 1), (1, 1), I(1))),
    "cumulative_undefined_limit": G("cumulative", ((X, Y), (2, 2), (1, 1),
                                                   UNDEF)),
    "cumulative_nothing_runs": G("cumulative", ((X, Y), (0, 0), (1, 1),
                                                I(-1))),
    "serialized_arith_start": G("serialized", ((X1, Z), (2, 2))),
    "disjoint2_arith": G("disjoint2", ((X1, Y), (2, 2), (Z, Y2), (1, 2))),
    "disjoint2_const": G("disjoint2", ((X, I(1)), (2, 2), (Y, I(0)), (2, 2))),
    "disjoint2_undefined": G("disjoint2", ((X, UNDEF), (1, 1), (Y, Z),
                                           (1, 1))),
}


@pytest.mark.parametrize("name", NON_VARIABLE_ARGS)
def test_globals_with_non_variable_args_equal_bruteforce(name):
    inst = CSPInstance()
    for n, hi in (("x", 3), ("y", 2), ("z", 4)):
        inst.add_var(n, 0, hi)
    inst.post(NON_VARIABLE_ARGS[name])
    oracle = sorted(enumerate_csp_solutions(inst),
                    key=lambda e: [e[n] for n in inst.var_order])
    assert list(solutions(inst)) == oracle


def test_sum_is_compiled_once_per_node(monkeypatch):
    from ezcasp import fd
    g = G("scalar_product", ((2, 1, -2, 3), (X, Y, X, X1), "geq", Z))
    assert g.form == ((("x", 3), ("y", 1), ("z", -1)), 3)
    assert G("sum", ((XY, Z), "eq", I(5))).form == (None, 0)
    calls = []
    linearize = fd._linearize
    monkeypatch.setattr(fd, "_linearize",
                        lambda t: calls.append(t) or linearize(t))
    inst = CSPInstance()
    for n in ("x", "y", "z"):
        inst.add_var(n, 0, 9)
    inst.post(g)
    assert len(list(itertools.islice(solutions(inst), 3))) == 3
    assert calls == []


def test_long_sum_needs_no_recursion():
    n = 2000
    inst = CSPInstance()
    for i in range(n):
        inst.add_var(f"x{i}", 0, 1)
    inst.add_var("t", n, 2 * n)
    g = G("sum", (tuple(A("plus", (V(f"x{i}"), I(0))) if i % 2 else
                        V(f"x{i}") for i in range(n)), "eq", V("t")))
    assert len(g.form[0]) == n + 1
    inst.post(g)
    assert next(solutions(inst)) == dict({f"x{i}": 1 for i in range(n)}, t=n)


def test_long_chain_needs_no_recursion():
    n = 1200
    inst = CSPInstance()
    for i in range(n):
        inst.add_var(f"x{i}", 0, 1)
    for i in range(n - 1):
        inst.post(C("leq", V(f"x{i}"), V(f"x{i + 1}")))
    assert next(solutions(inst)) == {f"x{i}": 0 for i in range(n)}


def test_propagate_from_changed_variables():
    inst = CSPInstance()
    for n in ("x", "y", "z"):
        inst.add_var(n, 0, 9)
    inst.post(C("lt", V("x"), V("y")))
    inst.post(C("lt", V("y"), V("z")))
    assert propagate(inst)
    assert [(inst.domains[n].lo, inst.domains[n].hi) for n in "xyz"] == \
        [(0, 7), (1, 8), (2, 9)]
    inst.domains["x"].set_min(5)
    assert propagate(inst, ["x"])
    assert [(inst.domains[n].lo, inst.domains[n].hi) for n in "xyz"] == \
        [(5, 7), (6, 8), (7, 9)]
    inst.domains["z"].set_max(6)
    assert not propagate(inst, ["z"])


def test_constraints_active_in_a_failed_propagation_fail_alone():
    # a failed propagate call lists the constraints whose filters narrowed
    # a domain or refuted; posted alone on the same domains, they fail too
    failed = 0
    for seed in range(300):
        inst = gen_instance(seed)
        rng = random.Random(seed)
        names = list(inst.domains)
        for _ in range(4):
            inst.post(rng.choice([primitive, reified, global_constraint])(
                rng, names))
        active = []
        if propagate(inst.copy(), None, active):
            continue
        failed += 1
        assert refuted(inst, [inst.constraints[i] for i in active])
    assert failed > 50, failed


def test_all_different_and_all_distinct_agree():
    for seed in range(40):
        inst = gen_instance(seed, force_global="all_different")
        twin = inst.copy()
        twin.constraints = [
            Global("all_distinct", c.args)
            if isinstance(c, Global) and c.name == "all_different" else c
            for c in twin.constraints]
        assert _sols_set(solutions(inst)) == _sols_set(solutions(twin))


# -- reified filtering ---------------------------------------------------------

def test_reified_or_forces_remaining_branch():
    inst = CSPInstance()
    inst.add_var("x", 0, 10)
    inst.add_var("y", 0, 9)
    inst.post(B("or", (C("geq", V("x"), I(12)), C("lt", V("y"), I(3)))))
    assert propagate(inst)
    assert inst.domains["y"].hi == 2


def _nested_or(disjuncts, nesting):
    """One `or` over the disjuncts: flat, as left-nested binary `or`s, or
    as an `or` of all but the last and the last."""
    if nesting == "flat":
        return B("or", tuple(disjuncts))
    if nesting == "left":
        return functools.reduce(lambda a, b: B("or", (a, b)), disjuncts)
    return B("or", (B("or", tuple(disjuncts[:-1])), disjuncts[-1]))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_reified_or_evaluates_each_disjunct_once(monkeypatch, k):
    # one run of the filter each, on a flat `or` and on nested ones: every
    # disjunct open, every disjunct refuted, all but the last open (so the
    # inner `or` is the only open disjunct of the outer), the first
    # disjunct entailed
    from ezcasp import fd
    names = [f"x{i}" for i in range(k)]
    shapes = [
        (True, [C("gt", V(n), I(3)) for n in names]),
        (False, [C("gt", V(n), I(9)) for n in names]),
        (True, [C("geq", V(names[0]), I(0))] +
         [C("gt", V(n), I(3)) for n in names[1:]]),
    ]
    if k > 2:   # with one open disjunct, enforcing it runs the filter again
        shapes.insert(2, (True, [C("gt", V(n), I(3)) for n in names[:-1]] +
                          [C("gt", V(names[-1]), I(9))]))
    seen = []
    definitely = fd._definitely

    def counted(c, st):
        seen.append(c)
        return definitely(c, st)

    monkeypatch.setattr(fd, "_definitely", counted)
    for nesting in ("flat", "left", "inner"):
        for ok, disjuncts in shapes:
            inst = CSPInstance()
            for n in names:
                inst.add_var(n, 0, 9)
            inst.post(_nested_or(disjuncts, nesting))
            seen.clear()
            assert propagate(inst) is ok
            assert seen and all(seen.count(d) <= 1 for d in disjuncts), \
                (nesting, seen)
        assert seen == [disjuncts[0]]


def _random_formula(rng, names, depth):
    """A random formula of `or`s, some nested, under `and` and `not`."""
    if depth == 0 or rng.random() < 0.3:
        return primitive(rng, names)
    op = rng.choice(["or", "or", "or", "and", "not"])
    if op == "not":
        return B("not", (_random_formula(rng, names, depth - 1),))
    return B(op, tuple(_random_formula(rng, names, depth - 1)
                       for _ in range(rng.randint(1, 3))))


def _flat(c):
    """c with every `or` inside an `or` spliced into it."""
    if not isinstance(c, BoolExpr):
        return c
    args = []
    for a in map(_flat, c.args):
        if c.op == "or" and isinstance(a, BoolExpr) and a.op == "or":
            args.extend(a.args)
        else:
            args.append(a)
    return B(c.op, tuple(args))


def test_nested_and_flat_ors_reach_equal_fixpoints():
    from test_fd_fixpoints import fixpoint_text
    nested_seen = 0
    for seed in range(300):
        rng = random.Random(f"nested-or:{seed}")
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        cs = [_random_formula(rng, names, 3) for _ in range(rng.randint(1, 3))]
        flat = [_flat(c) for c in cs]
        nested_seen += flat != cs
        los = [rng.randint(-2, 2) for _ in names]
        ranges = [(n, lo, lo + rng.randint(0, 6)) for n, lo in zip(names, los)]
        pair = []
        for posted in (cs, flat):
            inst = CSPInstance()
            for r in ranges:
                inst.add_var(*r)
            for c in posted:
                inst.post(c)
            pair.append(inst)
        texts = [fixpoint_text(propagate(inst), inst) for inst in pair]
        assert texts[0] == texts[1], (seed, cs)
        if texts[0].startswith("ok"):
            x = rng.choice(names)
            for inst in pair:
                inst.domains[x].set_min(inst.domains[x].lo + 1)
            texts = [fixpoint_text(propagate(inst, [x]), inst)
                     for inst in pair]
            assert texts[0] == texts[1], (seed, cs)
        assert list(solutions(pair[0])) == list(solutions(pair[1])), seed
    assert nested_seen > 100


def test_entailed_or_wakes_on_backtracking(monkeypatch):
    # or(x = 0, z >= 3) is entailed under x = 0 and must narrow z under
    # x != 0; or(y = 1, z <= 1) likewise one choice deeper
    from ezcasp import fd
    x, y, z = V("x"), V("y"), V("z")
    inst = CSPInstance()
    for n, hi in (("x", 2), ("y", 2), ("z", 4)):
        inst.add_var(n, 0, hi)
    inst.post(B("or", (C("eq", x, I(0)), C("geq", z, I(3)))))
    inst.post(B("or", (C("eq", y, I(1)), C("leq", z, I(1)))))
    leaves = []
    check = fd.satisfied

    def counted(c, e):
        ok = check(c, e)
        if c in inst.constraints:           # not the disjuncts inside
            leaves.append(ok)
        return ok

    monkeypatch.setattr(fd, "satisfied", counted)
    oracle = sorted(enumerate_csp_solutions(inst),
                    key=lambda e: [e[n] for n in inst.var_order])
    leaves.clear()
    assert list(solutions(inst)) == oracle
    # propagation leaves only solutions here: a constraint that slept past
    # its backtrack would let z take values the leaf check rejects
    assert leaves and all(leaves)
    assert len(oracle) == 2 + 5 + 2 + 2 + 2


def test_propagate_sleeps_for_one_call_outside_search():
    inst = CSPInstance()
    inst.add_var("x", 0, 0)
    inst.add_var("y", 0, 9)
    inst.post(B("or", (C("eq", V("x"), I(0)), C("geq", V("y"), I(4)))))
    assert propagate(inst) and inst.domains["y"].lo == 0
    inst.domains["x"] = Domain(1, 3)        # no longer entailed
    assert propagate(inst, ["x"]) and inst.domains["y"].lo == 4


def test_reified_implication_is_material():
    c = B("impl", (C("eq", V("a"), I(1)), C("eq", V("b"), I(2))))
    assert satisfied(c, {"a": 0, "b": 0})
    assert satisfied(c, {"a": 1, "b": 2})
    assert not satisfied(c, {"a": 1, "b": 0})


# -- csp-abstractions -----------------------------------------------------------

def test_build_csp_p1_full():
    p1 = make_p1()
    # M = {|x>=12|, -|x<12|, lightOn, ...}: both constraints coincide on
    # x>=12, which is posted once
    lt_id = p1.pi.index["|x < 12|"]
    geq_id = p1.pi.index["|x >= 12|"]
    light_id = p1.pi.index["lightOn"]
    m = [geq_id + 1, -(lt_id + 1), light_id + 1]
    inst = build_csp(p1, m, "full")
    assert inst.var_order == ["x"]
    assert (inst.domains["x"].lo, inst.domains["x"].hi) == (0, 23)
    assert inst.constraints == [p1.gamma[geq_id]]
    assert [s["x"] for s in solutions(inst)] == list(range(12, 24))


def test_build_csp_weak_drops_negative_literals():
    p1 = make_p1()
    lt_id = p1.pi.index["|x < 12|"]
    geq_id = p1.pi.index["|x >= 12|"]
    m = [geq_id + 1, -(lt_id + 1)]
    weak = build_csp(p1, m, "weak")
    full = build_csp(p1, m, "full")
    # here the complement coincides with the posted constraint, which is
    # posted once, so the solution sets agree; verify by exhaustive
    # comparison on 0..23
    assert weak.constraints == full.constraints == [p1.gamma[geq_id]]
    assert _sols_set(enumerate_csp_solutions(weak)) == \
        _sols_set(enumerate_csp_solutions(full))
    # dropping a *different* negative literal does change the solutions
    m2 = [-(geq_id + 1), -(lt_id + 1)]
    weak2 = build_csp(p1, m2, "weak")
    full2 = build_csp(p1, m2, "full")
    assert enumerate_csp_solutions(weak2) and \
        not enumerate_csp_solutions(full2)


def test_build_csp_projection_in_declaration_order():
    p1 = make_p1()
    lt_id = p1.pi.index["|x < 12|"]
    geq_id = p1.pi.index["|x >= 12|"]
    light = p1.pi.index["lightOn"] + 1
    # both constraint literals negative, given against declaration order
    m = [-(geq_id + 1), light, -(lt_id + 1)]
    weak = build_csp(p1, m, "weak")
    full = build_csp(p1, m, "full")
    # weak semantics records the negative literals but posts none of them
    assert weak.projection == (-(lt_id + 1), -(geq_id + 1))
    assert weak.constraints == [] and weak.var_order == []
    assert full.projection == weak.projection
    assert full.constraints == [complement(p1.gamma[lt_id]),
                                complement(p1.gamma[geq_id])]
    # an unassigned constraint atom is not in the projection
    inst = build_csp(p1, [geq_id + 1, light], "weak")
    assert inst.projection == (geq_id + 1,)
    assert inst.constraints == [p1.gamma[geq_id]]
    assert build_csp(p1, [light], "full").projection == ()


def test_build_csp_no_constraint_literals():
    p1 = make_p1()
    inst = build_csp(p1, [p1.pi.index["lightOn"] + 1], "full")
    assert inst.constraints == [] and inst.var_order == []


def test_build_csp_complement_unsupported():
    from ezcasp.asp import RegularProgram
    from ezcasp.ground import CAProgram
    pi = RegularProgram.build([(None, [], ["|g|"], [])])
    gamma = {"|g|": G("sum", ((V("x"),), "leq", I(3)))}
    p = CAProgram(pi, ["|g|"], gamma, domain=(0, 5))
    cid = p.pi.index["|g|"]
    with pytest.raises(ComplementUnsupported):
        build_csp(p, [-(cid + 1)], "full")
    # weak semantics never needs complements
    inst = build_csp(p, [-(cid + 1)], "weak")
    assert inst.constraints == []


def test_vars_of():
    e = B("or", (C("lt", A("plus", (V("a"), V("b"))), I(3)),
                 G("sum", ((V("c"),), "leq", I(1)))))
    assert vars_of(e) == {"a", "b", "c"}
