"""Tests of the benchmark's own parts: generators, witnesses, checker and
span accounting.  Run with `python3 -m pytest perfbench -q`."""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from check import model_error, verdict_errors  # noqa: E402
from ezcasp.engine import SchemaConfig, solve_ca  # noqa: E402
from ezcasp.ground import ground_program  # noqa: E402


def _solve(text, limit=1, schema="black"):
    program = ground_program(text)
    return program, solve_ca(program, SchemaConfig(schema=schema,
                                                   limit=limit))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    for seed in (0, 1, 17):
        a = [i.job() for i in gen.workload(name, seed)]
        b = [i.job() for i in gen.workload(name, seed)]
        assert a == b
    texts = {tuple(i.text for i in gen.workload(name, s)) for s in range(6)}
    assert len(texts) > 1


def _wseq_witness_denials(w):
    order, green = w["order"], w["green"]
    out = [f":- not leafPos(l{leaf + 1},{q})." for q, leaf in enumerate(order)]
    for p in range(1, len(order)):
        out.append(f":- {'not ' if green[p] else ''}posColor({p},green).")
    return "\n".join(out) + "\n"


def _cost(model):
    return sum(v for var, v in model.assignment if var.startswith("posCost"))


@pytest.mark.parametrize("make", [lambda r: gen.wseq_sat(r, 5),
                                  gen.wseq_enum])
def test_wseq_witness_satisfies_its_instance(make):
    inst = make(random.Random(3))
    program, res = _solve(inst.text + _wseq_witness_denials(inst.witness))
    assert res.status == "sat"
    assert _cost(res.models[0]) == inst.witness["cost"]
    m = res.models[0]
    assert model_error(program, m.atoms, m.assignment_dict()) is None


def test_sched_witness_satisfies_its_instance():
    inst = gen.sched(random.Random(5), 6, 2)
    w = inst.witness
    pins = "".join(f"required(st(d1,j{j + 1:02d}) = {s}).\n"
                   f"required(on_instance(j{j + 1:02d}) = {k}).\n"
                   for j, (s, k) in enumerate(zip(w["start"], w["instance"])))
    program, res = _solve(inst.text + pins)
    assert res.status == "sat"
    assert res.models[0].assignment_dict()["tot_penalty"] == w["penalty"]


def test_known_verdicts_and_model_counts_hold():
    inst = gen.wseq_enum(random.Random(1))
    program, res = _solve(inst.text, limit=0)
    models = [(m.atoms, m.assignment) for m in res.models]
    assert verdict_errors(program, res.status, "sat", models,
                          inst.models) == []
    tight = gen.wseq_tight(random.Random(1), "clear")
    program, res = _solve(tight.text, schema="clear")
    assert verdict_errors(program, res.status, tight.verdict, []) == []


def test_checker_rejects_corrupted_models():
    inst = gen.wseq_sat(random.Random(2), 4)
    program, res = _solve(inst.text)
    m = res.models[0]
    alpha = m.assignment_dict()
    assert model_error(program, m.atoms, alpha) is None

    wrong = dict(alpha, **{"posCost(1)": alpha["posCost(1)"] + 1})
    assert model_error(program, m.atoms, wrong) is not None
    out_of_range = dict(alpha, **{"posCost(1)": 99})
    assert model_error(program, m.atoms, out_of_range) is not None
    dropped = set(m.atoms) - {next(a for a in m.atoms
                                   if a.startswith("leafPos("))}
    assert model_error(program, dropped, alpha) is not None

    models = [(m.atoms, m.assignment)] * 2
    assert "duplicate model" in verdict_errors(program, "sat", "sat", models)
    assert verdict_errors(program, "sat", "unsat", models[:1])
    assert verdict_errors(program, "budget", "sat", [])


def test_self_time_subtracts_direct_children():
    s = [["outer", 0.0, 10.0, -1, 0, None],
         ["inner", 1.0, 4.0, 0, 0, True],
         ["leaf", 2.0, 3.0, 1, 0, None],
         ["inner", 5.0, 6.0, 0, 0, False]]
    out = spans.summarize(s)
    assert out["outer"]["self_s"] == pytest.approx(6.0)
    assert out["inner"]["self_s"] == pytest.approx(3.0)
    assert out["inner"]["calls"] == 2 and out["inner"]["true"] == 1


def test_tracer_reports_missing_names_and_restores(monkeypatch):
    from ezcasp import fd
    original = fd.propagate
    monkeypatch.setattr(spans, "TARGETS",
                        [("ezcasp.fd", "propagate"),
                         ("ezcasp.fd", "no_such_function")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fd.propagate is not original
        program, res = _solve(gen.wseq_sat(random.Random(0), 3).text)
    finally:
        tracer.uninstall()
    assert fd.propagate is original
    assert tracer.missing == ["fd.no_such_function"]
    assert res.status == "sat"
    assert {s[spans.NAME] for s in tracer.spans} == {"fd.propagate"}
