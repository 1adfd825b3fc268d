import json
import pathlib
import subprocess
import sys

import pytest

from ezcasp.cli import (EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, bench, emit_clp,
                        format_model, main)
from ezcasp.engine import LAYERS, SchemaConfig, solve_ca
from ezcasp.ground import ground_program

from conftest import CONDITIONAL_DECLS, ENCODINGS, LIGHT_EZ


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LIGHT = ENCODINGS / "light.ez"
RIDDLE = ENCODINGS / "riddle.ez"


def test_light_default_output(capsys):
    code, out, _ = run_cli(capsys, LIGHT)
    assert code == EXIT_SAT
    assert out == ("{ cspdomain(fd), cspvar(x,0,23), lightOn, "
                   "required(x >= 12), switch, x=12 }\n")


def test_light_enumerates_twelve(capsys):
    code, out, _ = run_cli(capsys, LIGHT, "-n", "0")
    lines = out.strip().split("\n")
    assert code == EXIT_SAT and len(lines) == 12
    assert lines[0].endswith("x=12 }") and lines[-1].endswith("x=23 }")


def test_riddle_unique_line(capsys):
    code, out, _ = run_cli(capsys, RIDDLE, "-n", "0")
    lines = out.strip().split("\n")
    assert code == EXIT_SAT and len(lines) == 1
    assert "age(1)=12" in lines[0] and "age(2)=9" in lines[0] \
        and "age(3)=6" in lines[0]


def test_empty_program(tmp_path, capsys):
    f = tmp_path / "empty.ez"
    f.write_text("")
    code, out, _ = run_cli(capsys, f, "-n", "0")
    assert code == EXIT_SAT and out == "{}\n"


def test_unsat_exit_code(tmp_path, capsys):
    f = tmp_path / "u.ez"
    f.write_text(":- not a. {b}.")
    code, out, _ = run_cli(capsys, f)
    assert code == EXIT_UNSAT and out == "UNSAT\n"


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.ez"
    f.write_text("a :- b")
    code, out, err = run_cli(capsys, f)
    assert code == EXIT_ERROR and "error" in err


def test_non_decimal_digit_is_one_error_line(tmp_path, capsys):
    # `²` is a digit to `str.isdigit` but not to `int`; a decimal digit of
    # another script is read as an integer
    f = tmp_path / "sup.ez"
    f.write_text("p(²).", encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "ezcasp", str(f)],
                       capture_output=True, text=True, encoding="utf-8")
    assert (r.returncode, r.stdout, r.stderr) == (
        EXIT_ERROR, "", f"error: {f}: 1:3: unexpected character '²'\n")
    f.write_text("p(٣).", encoding="utf-8")
    assert run_cli(capsys, f) == (EXIT_SAT, "{ p(3) }\n", "")


@pytest.mark.parametrize("source, col", [
    ("p(!1).", 3),
    ("p(-(!1)).", 5),
    ("q(1). p(X) :- q(X), X < !1.", 25),
])
def test_bang_outside_required_is_one_error_line(tmp_path, source, col):
    f = tmp_path / "bang.ez"
    f.write_text(source)
    r = subprocess.run([sys.executable, "-m", "ezcasp", str(f)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (
        EXIT_ERROR, "",
        f"error: {f}: 1:{col}: '!' outside a required argument\n")


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "no-such-file.ez")
    assert code == EXIT_ERROR and "error" in err


def test_unknown_flag():
    with pytest.raises(SystemExit):
        main(["--frobnicate"])


def test_output_determinism(capsys):
    a = run_cli(capsys, LIGHT, "-n", "0", "--schema", "clear")
    b = run_cli(capsys, LIGHT, "-n", "0", "--schema", "clear")
    assert a == b


def test_schemas_agree_via_cli(capsys):
    outs = {}
    for schema in ("black", "grey", "clear"):
        code, out, _ = run_cli(capsys, LIGHT, "-n", "0", "--schema", schema)
        outs[schema] = (code, out)
    assert len(set(outs.values())) == 1


def test_semantics_flag(tmp_path, capsys):
    # a program whose weak and full behavior differ needs constraint atoms
    # in bodies and is not expressible in EZ text; exercise the flag only
    code, out, _ = run_cli(capsys, LIGHT, "--semantics", "full")
    assert code == EXIT_SAT and "x=12" in out


def test_dump_ground(capsys):
    code, out, _ = run_cli(capsys, LIGHT, "--dump-ground")
    assert code == 0
    assert "required(x >= 12) :- not am." in out
    assert "% constraint atoms:" in out and "|x >= 12|" in out
    # the dump (sans comments) re-parses and resolves identically
    text = "\n".join(line for line in out.splitlines()
                     if not line.startswith("%"))
    P1 = ground_program(text)
    P2 = ground_program(LIGHT_EZ)
    r1 = solve_ca(P1, SchemaConfig(limit=0))
    r2 = solve_ca(P2, SchemaConfig(limit=0))
    assert [m.assignment for m in r1.models] == \
        [m.assignment for m in r2.models]


def test_dump_ground_rejects_what_solving_rejects(tmp_path, capsys):
    # grounding merges the two facts, so the check must run before it
    f = tmp_path / "dup.ez"
    f.write_text("cspdomain(fd). cspdomain(fd). cspvar(x,0,3). "
                 "required(x > 1).")
    for extra in ((), ("--dump-ground",)):
        code, out, err = run_cli(capsys, f, *extra)
        assert code == EXIT_ERROR and out == ""
        assert "duplicate cspdomain fact" in err


def test_dump_trace_validates_in_separate_process(tmp_path):
    trace = tmp_path / "light.trace"
    cmd = [sys.executable, "-m", "ezcasp", str(LIGHT),
           "--dump-trace", str(trace)]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == EXIT_SAT
    r2 = subprocess.run([sys.executable, "-m", "ezcasp", str(LIGHT),
                         "--validate-trace", str(trace)],
                        capture_output=True, text=True)
    assert r2.returncode == 0 and "trace ok" in r2.stdout


def test_python_m_ezcasp_prints_what_main_prints(capsys):
    r = subprocess.run([sys.executable, "-m", "ezcasp", str(LIGHT)],
                       capture_output=True, text=True)
    assert r.returncode == EXIT_SAT == 10
    assert (r.returncode, r.stdout, r.stderr) == run_cli(capsys, LIGHT)


def test_validate_trace_rejects_tampered_file(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    code, _, _ = run_cli(capsys, LIGHT, "--dump-trace", trace)
    assert code == EXIT_SAT
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for rec in records:
        if rec.get("rule") == "UnitPropagate":
            rec["payload"]["lit"] = "-" + rec["payload"]["lit"]
            break
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, out, _ = run_cli(capsys, LIGHT, "--validate-trace", trace)
    assert code == EXIT_ERROR and "trace invalid" in out


def test_validate_trace_rejects_a_malformed_record(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    assert run_cli(capsys, LIGHT, "--dump-trace", trace)[0] == EXIT_SAT
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    k = next(k for k, rec in enumerate(records) if rec.get("rule") == "Decide")
    records[k]["payload"]["lit"] = "nosuchatom"
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert run_cli(capsys, LIGHT, "--validate-trace", trace) == (
        EXIT_ERROR,
        f"trace invalid: step {k}: malformed record: KeyError('nosuchatom')\n",
        "")


def test_validate_trace_rejects_asp_propagate_above_the_oracle_bound(
        tmp_path, capsys):
    from test_oracle import _asp_propagate_first
    trace = tmp_path / "t.trace"
    assert run_cli(capsys, RIDDLE, "--dump-trace", trace)[0] == EXIT_SAT
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    k = _asp_propagate_first(records, ground_program(RIDDLE.read_text()))
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert run_cli(capsys, RIDDLE, "--validate-trace", trace) == (
        EXIT_ERROR, f"trace invalid: step {k}: asp entailment not checked: "
                    f"33 atoms exceeds oracle bound 16\n", "")


def test_validate_trace_rejects_a_csp_check_without_a_complement(
        tmp_path, capsys):
    # under full semantics the trace's model with `a` false needs the
    # complement of a global constraint, which fd lacks: one line, no
    # traceback
    src = tmp_path / "g.ez"
    src.write_text("cspdomain(fd). cspvar(x,0,2). {a}. "
                   "required(sum([x],eq,1)) :- a.")
    trace = tmp_path / "g.trace"
    assert run_cli(capsys, src, "-n", "0", "--dump-trace", trace)[0] == \
        EXIT_SAT
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    for rec in records:
        if rec.get("event") == "start":
            rec["semantics"] = "full"
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, out, err = run_cli(capsys, src, "--validate-trace", trace)
    assert (code, err) == (EXIT_ERROR, "") and out.startswith(
        "trace invalid: csp-abstraction not checked: complement of "
        "non-primitive constraint unsupported: |sum([x],eq,1)|") and \
        out.count("\n") == 1


def test_validate_trace_rejects_a_trace_without_a_run(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    assert run_cli(capsys, LIGHT, "--validate-trace", empty) == \
        (EXIT_ERROR, "trace invalid: trace has no run\n", "")
    # an empty clause decides the program before any run, so its trace is
    # empty and valid
    src = tmp_path / "e.ez"
    src.write_text("3 { a; b }.")
    trace = tmp_path / "e.trace"
    assert run_cli(capsys, src, "--dump-trace", trace)[0] == EXIT_UNSAT
    assert trace.read_text() == ""
    assert run_cli(capsys, src, "--validate-trace", trace) == \
        (0, "trace ok\n", "")


def test_empty_denial_is_unsat(tmp_path, capsys):
    # the choice bound 3 over two elements compiles to an empty denial
    src = tmp_path / "e.ez"
    src.write_text("3 { a; b }.")
    assert run_cli(capsys, src, "--oracle") == (EXIT_UNSAT, "UNSAT\n", "")
    for schema in ("black", "grey", "clear"):
        assert run_cli(capsys, src, "--schema", schema) == \
            (EXIT_UNSAT, "UNSAT\n", ""), schema


def test_emit_clp_reproduces_paper_clause(tmp_path, capsys):
    out_file = tmp_path / "light.clp"
    code, _, _ = run_cli(capsys, LIGHT, "--emit-clp", out_file)
    assert code == EXIT_SAT
    text = " ".join(out_file.read_text().split())
    assert text == ("solve([x,V_x]) :- V_x >= 0, V_x =< 23, V_x >= 12, "
                    "labeling([V_x]).")


def test_emit_clp_arithmetic_disjunction_and_global(tmp_path, capsys):
    # v(1) and v_1 both clean to V_v_1, so the second one is numbered
    src = tmp_path / "g.ez"
    src.write_text("cspdomain(fd). cspvar(x,0,3). cspvar(y,0,3). "
                   "cspvar(v(1),0,3). cspvar(v_1,0,3).\n"
                   "required(x + y > 4).\n"
                   "required(-x < 0 \\/ y = 1).\n"
                   "required(sum([x,y,v(1),v_1], =<, 7)).\n")
    out_file = tmp_path / "g.clp"
    assert run_cli(capsys, src, "--emit-clp", out_file)[0] == EXIT_SAT
    assert out_file.read_text() == (
        "solve([x,V_x,y,V_y,v(1),V_v_1,v_1,V_v_1_2]) :- V_x >= 0, "
        "V_x =< 3, V_y >= 0, V_y =< 3, V_v_1 >= 0, V_v_1 =< 3, "
        "V_v_1_2 >= 0, V_v_1_2 =< 3, V_x + V_y > 4, "
        "or(-(V_x) < 0, V_y = 1), sum([V_x,V_y,V_v_1,V_v_1_2],leq,7), "
        "labeling([V_x,V_y,V_v_1,V_v_1_2]).\n")


def test_emit_clp_no_constraints():
    P = ground_program("a.")
    res = solve_ca(P, SchemaConfig(limit=1))
    clause = emit_clp(P, res.models[0].literals)
    assert clause == "solve([]) :- labeling([])."


def test_emit_clp_two_variables_declaration_order(tmp_path):
    P = ground_program("cspdomain(fd). cspvar(y,0,3). cspvar(x,1,2). "
                       "required(y > 0). required(x < 2).")
    res = solve_ca(P, SchemaConfig(limit=1))
    clause = emit_clp(P, res.models[0].literals)
    # golden: variables in declaration order, ranges first, then the posted
    # constraints in gamma declaration order
    assert clause == ("solve([y,V_y,x,V_x]) :- V_y >= 0, V_y =< 3, "
                      "V_x >= 1, V_x =< 2, V_y > 0, V_x < 2, "
                      "labeling([V_y,V_x]).")


def test_emit_clp_follows_full_semantics(tmp_path, capsys):
    # a is never true, so the constraint atom is false; under full semantics
    # its complement is posted, and the clause must admit only x=0 and x=1,
    # as the solver's models do
    src = tmp_path / "neg.ez"
    src.write_text("cspdomain(fd). cspvar(x,0,3). { a }. :- a. "
                   "required(x >= 2) :- a.\n")
    out_file = tmp_path / "neg.clp"
    code, out, _ = run_cli(capsys, src, "--semantics", "full", "-n", "0",
                           "--emit-clp", out_file)
    assert code == EXIT_SAT
    assert [line.split()[-2] for line in out.strip().split("\n")] == [
        "x=0", "x=1"]
    text = " ".join(out_file.read_text().split())
    assert text == ("solve([x,V_x]) :- V_x >= 0, V_x =< 3, V_x < 2, "
                    "labeling([V_x]).")
    # under weak semantics the same model posts nothing
    code, _, _ = run_cli(capsys, src, "-n", "0", "--emit-clp", out_file)
    assert code == EXIT_SAT
    assert " ".join(out_file.read_text().split()) == (
        "solve([x,V_x]) :- V_x >= 0, V_x =< 3, labeling([V_x]).")


@pytest.mark.parametrize("source", [
    LIGHT_EZ,
    # the complement comes first in declaration order
    "cspdomain(fd). cspvar(x,0,23). { am }. :- am. "
    "required(x < 12) :- am. required(x >= 12) :- not am.",
])
def test_emit_clp_posts_a_repeated_complement_once(tmp_path, capsys, source):
    # under full semantics the false |x < 12| posts x >= 12, which the true
    # |x >= 12| posts too
    src = tmp_path / "p.ez"
    src.write_text(source)
    out_file = tmp_path / "p.clp"
    code, _, _ = run_cli(capsys, src, "--semantics", "full",
                         "--emit-clp", out_file)
    assert code == EXIT_SAT
    assert " ".join(out_file.read_text().split()) == (
        "solve([x,V_x]) :- V_x >= 0, V_x =< 23, V_x >= 12, "
        "labeling([V_x]).")


def test_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, LIGHT, "--oracle", "-n", "0")
    assert code == EXIT_SAT
    assert out.count("\n") == 1 and "x=12" in out and "lightOn" in out


def test_oracle_flag_unsat(tmp_path, capsys):
    f = tmp_path / "u.ez"
    f.write_text(":- not a. {b}.")
    code, out, _ = run_cli(capsys, f, "--oracle")
    assert code == EXIT_UNSAT and out == "UNSAT\n"


@pytest.mark.parametrize("items", ["x+1,y", "x,1/0"])
def test_sum_over_arithmetic_items_matches_oracle(tmp_path, capsys, items):
    # y's range leaves one solution, so the solver prints what the oracle
    # prints: its one model per answer set
    f = tmp_path / "s.ez"
    f.write_text("cspdomain(fd). cspvar(x,0,5). cspvar(y,4,5). "
                 f"required(sum([{items}],eq,5)).")
    solved = run_cli(capsys, f, "-n", "0")
    assert solved == run_cli(capsys, f, "--oracle", "-n", "0")
    assert solved[1].count("\n") == 1


@pytest.mark.parametrize("source", CONDITIONAL_DECLS)
def test_conditional_declarations_match_oracle(tmp_path, capsys, source):
    # a clear-box check on a partial record widens a variable to its open
    # declarations, and the core of a failed check is tested on those
    # domains, so no learned core blocks a record that a later declaration
    # makes feasible
    f = tmp_path / "c.ez"
    f.write_text(source)
    trace = tmp_path / "c.trace"
    learned = 0
    for sem in ("weak", "full"):
        opts = ("--default-range", "0..9", "--semantics", sem,
                "--check-freq", "1")
        code, oracle_out, _ = run_cli(capsys, f, *opts, "--oracle", "-n", "0")
        assert code == EXIT_SAT
        expected = oracle_out.splitlines()
        for schema in ("black", "grey", "clear"):
            code, out, _ = run_cli(capsys, f, *opts, "--schema", schema,
                                   "-n", "0", "--dump-trace", trace)
            assert code == EXIT_SAT, (schema, sem)
            lines = out.splitlines()
            # the oracle prints the first evaluation of each answer set
            assert set(expected) <= set(lines), (schema, sem)
            assert {x.rsplit(", ", 1)[0] for x in lines} == \
                {x.rsplit(", ", 1)[0] for x in expected}, (schema, sem)
            assert run_cli(capsys, f, *opts, "--validate-trace", trace) == \
                (0, "trace ok\n", ""), (schema, sem)
            learned += trace.read_text().count('"rule": "Learn"')
    assert learned


def test_choice_upper_bound_below_zero_is_unsat(tmp_path, capsys):
    f = tmp_path / "n.ez"
    f.write_text("p(-2). { a } X :- p(X).")
    assert run_cli(capsys, f, "-n", "0") == (EXIT_UNSAT, "UNSAT\n", "")
    assert run_cli(capsys, f, "--oracle") == (EXIT_UNSAT, "UNSAT\n", "")


def test_default_range_flag(tmp_path, capsys):
    f = tmp_path / "r.ez"
    f.write_text("cspdomain(fd). cspvar(x). required(x >= 2).")
    code, out, _ = run_cli(capsys, f, "--default-range", "0..3", "-n", "0")
    assert code == EXIT_SAT
    assert out.count("\n") == 2       # x in {2,3}


def test_check_freq_and_default_range_flags(capsys):
    clear = run_cli(capsys, LIGHT, "--schema", "clear", "-n", "0")
    assert run_cli(capsys, LIGHT, "--schema", "clear", "-n", "0",
                   "--check-freq", "none") == clear
    assert clear[0] == EXIT_SAT and clear[1].count("\n") == 12
    for flag, value, message in [
            ("--check-freq", "0", "check frequency must be >= 1"),
            ("--default-range", "5..1", "expected LO <= HI")]:
        with pytest.raises(SystemExit) as e:
            main([str(LIGHT), flag, value])
        assert e.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"ezcasp: error: argument {flag}: {message}\n")


def test_negative_count_is_rejected(capsys):
    with pytest.raises(SystemExit) as e:
        main([str(LIGHT), "-n", "-1"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ezcasp: error: argument -n: count must be >= 0\n")


@pytest.mark.parametrize("value", ["abc", "-5", "\u00b2"])
def test_bad_step_budget_variable_is_one_error_line(tmp_path, capsys,
                                                    monkeypatch, value):
    monkeypatch.setenv("EZCASP_STEP_BUDGET", value)
    # a benchmark run stops before its first row
    spec = tmp_path / "s.bench"
    spec.write_text(f"{LIGHT}\tblack\n{LIGHT}\tclear\n")
    for args in ((LIGHT,), ("--bench", spec)):
        assert run_cli(capsys, *args) == (
            EXIT_ERROR, "", f"error: EZCASP_STEP_BUDGET must be an integer "
                            f">= 0, not {value!r}\n")


def test_step_budget_env_override(capsys, monkeypatch):
    # the command line reads the variable; the library reads none
    monkeypatch.setenv("EZCASP_STEP_BUDGET", "3")
    assert run_cli(capsys, LIGHT, "--semantics", "full", "-n", "0") == (
        EXIT_ERROR, "", "step budget exceeded\n")
    res = solve_ca(ground_program(LIGHT.read_text()),
                   SchemaConfig(semantics="full", limit=0))
    assert res.status == "sat" and len(res.models) == 12


@pytest.mark.parametrize("flag", ["--emit-clp", "--dump-trace"])
def test_unwritable_output_file_is_one_error_line(tmp_path, capsys, flag):
    code, _, err = run_cli(capsys, LIGHT, flag, tmp_path / "no" / "x")
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1


def test_format_model():
    assert format_model([], []) == "{}"
    assert format_model(["b", "a"], [("x", 1)]) == "{ a, b, x=1 }"
    assert format_model(["b", "|c|"], [], suppressed={"|c|"}) == "{ b }"


# -- bench ---------------------------------------------------------------------------

def test_bench_spec(tmp_path, capsys):
    spec = tmp_path / "toy.bench"
    spec.write_text(f"{LIGHT}\tblack\n{LIGHT}\tgrey\n{LIGHT}\tclear\n")
    reports = bench(str(spec))
    captured = capsys.readouterr()
    assert len(reports) == 3
    assert all(r.outcome == "SAT(1)" for r in reports)
    assert "schema" in captured.out and "black" in captured.out


def test_bench_empty_spec(tmp_path, capsys):
    spec = tmp_path / "empty.bench"
    spec.write_text("")
    code = main(["--bench", str(spec)])
    assert code == 0
    assert bench(str(spec)) == []


def test_bench_records_per_row_failures(tmp_path, capsys):
    bad = tmp_path / "bad.ez"
    bad.write_text("a :- b")          # syntax error
    spec = tmp_path / "s.bench"
    spec.write_text(f"{bad}\tblack\n{LIGHT}\tblack\n")
    reports = bench(str(spec))
    capsys.readouterr()
    assert reports[0].outcome.startswith("ERROR") \
        and reports[1].outcome == "SAT(1)"


def test_bench_spec_line_without_schema_is_an_error_row(tmp_path, capsys):
    spec = tmp_path / "s.bench"
    spec.write_text(f"{LIGHT}\n{LIGHT}\tblack\n")
    reports = bench(str(spec))
    assert "ERROR: unknown schema ''" in capsys.readouterr().out
    assert [(r.schema, r.outcome) for r in reports] == [
        ("", "ERROR: unknown schema ''"), ("black", "SAT(1)")]


def test_bench_rows_unsat_and_budget(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "s.bench"
    spec.write_text(f"{ENCODINGS / 'wseq_unsat.ez'}\tclear\n")
    assert [r.outcome for r in bench(str(spec))] == ["UNSAT"]
    monkeypatch.setenv("EZCASP_STEP_BUDGET", "10")
    assert [r.outcome for r in bench(str(spec))] == ["BUDGET"]
    out = capsys.readouterr().out
    assert "UNSAT" in out and "BUDGET" in out


def test_bench_json_rows(tmp_path, capsys):
    spec = tmp_path / "s.bench"
    spec.write_text(f"{LIGHT}\tblack\n")
    out_json = tmp_path / "rows.jsonl"
    code = main(["--bench", str(spec), "--bench-json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    rows = [json.loads(line) for line in out_json.read_text().splitlines()]
    assert rows[0]["schema"] == "black" and rows[0]["outcome"] == "SAT(1)"
    # every counter of the solve's SolveStats, then its search layers
    res = solve_ca(ground_program(LIGHT.read_text()), SchemaConfig(limit=1))
    assert list(rows[0])[5:] == [*vars(res.stats), *res.layer_s]
    assert list(res.layer_s) == list(LAYERS)
    assert rows[0]["steps"] > 0 and rows[0]["runs"] == 1
    assert all(rows[0][k] >= 0 for k in LAYERS)
    assert rows[0]["fd_build_s"] > 0 and rows[0]["unit_s"] > 0
    # a row whose solve failed has the same columns, at zero
    spec.write_text(f"{LIGHT}\tpink\n")
    main(["--bench", str(spec), "--bench-json", str(out_json)])
    capsys.readouterr()
    row = json.loads(out_json.read_text())
    assert row["outcome"].startswith("ERROR") and list(row) == list(rows[0])
    assert not any(row[k] for k in LAYERS)


def test_desk_bench_schemas_agree(capsys):
    reports = bench(str(ENCODINGS / "desk.bench"))
    capsys.readouterr()
    assert len(reports) == 9
    by_instance = {}
    for r in reports:
        by_instance.setdefault(r.instance, set()).add(r.outcome)
    assert all(len(v) == 1 for v in by_instance.values())
    assert all(r.outcome == "SAT(1)" for r in reports)


def test_complement_unsupported_is_cli_error(tmp_path, capsys):
    f = tmp_path / "g.ez"
    f.write_text("cspdomain(fd). cspvar(x,1,2). cspvar(y,1,2). { pick }. "
                 "required(all_different([x,y])) :- pick.")
    # the constraint is named as its atom is shown, not by its repr
    assert run_cli(capsys, f, "--semantics", "full", "-n", "0") == (
        EXIT_ERROR, "", "error: complement of non-primitive constraint "
                        "unsupported: |all_different([x,y])|\n")


@pytest.mark.parametrize("schema", ["black", "clear"])
def test_required_atoms_under_prefix_minus_trace_validates(tmp_path, capsys,
                                                           schema):
    # shown alike, the two atoms were one constraint atom listed twice, and
    # the learned denial repeated it
    f = tmp_path / "n.ez"
    f.write_text("cspdomain(fd). cspvar(x,2,9). {a}. "
                 "required(-(x/2) = 0) :- a. required((-x)/2 = 0) :- not a.")
    trace = tmp_path / "n.trace"
    assert run_cli(capsys, f, "--schema", schema, "-n", "0",
                   "--dump-trace", trace) == (EXIT_UNSAT, "UNSAT\n", "")
    assert run_cli(capsys, f, "--validate-trace", trace) == \
        (0, "trace ok\n", "")


def test_oracle_complement_unsupported_is_cli_error(tmp_path, capsys):
    f = tmp_path / "g.ez"
    f.write_text("cspdomain(fd). cspvar(x,0,3). {a}. "
                 "required(x > 2 \\/ x < 1) :- a. required(x = 2) :- not a.")
    code, out, err = run_cli(capsys, f, "--oracle", "--semantics", "full",
                             "-n", "0")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and "complement" in err


def test_budget_covers_fd_labeling_via_cli(tmp_path, capsys, monkeypatch):
    # 35 edges, but refuting the pigeonhole takes 239 fd search nodes
    f = tmp_path / "ph.ez"
    f.write_text("cspdomain(fd). i(1..6). cspvar(x(I),1,5) :- i(I). "
                 "required(all_different([x/1])).")
    monkeypatch.setenv("EZCASP_STEP_BUDGET", "100")
    code, out, err = run_cli(capsys, f)
    assert code == EXIT_ERROR and out == ""
    assert err == "step budget exceeded\n"
    monkeypatch.setenv("EZCASP_STEP_BUDGET", "274")
    code, out, _ = run_cli(capsys, f)
    assert code == EXIT_UNSAT and out == "UNSAT\n"


def test_dumped_empty_denial_reparses(tmp_path, capsys):
    # the ground program of `:- 1 < 2.` is the empty denial `:-.`
    f = tmp_path / "e.ez"
    f.write_text("a :- 1 < 2. :- 1 < 2.")
    code, out, _ = run_cli(capsys, f, "--dump-ground")
    assert code == 0 and ":-." in out.splitlines()
    dumped = tmp_path / "dumped.ez"
    dumped.write_text(out)
    assert run_cli(capsys, dumped) == run_cli(capsys, f) == \
        (EXIT_UNSAT, "UNSAT\n", "")


# -- ground-program snapshots ------------------------------------------------------

DUMP_GROUND = pathlib.Path(__file__).resolve().parent / "data" / "dump_ground"


@pytest.mark.parametrize(
    "source", sorted(ENCODINGS.glob("*.ez")) + sorted(DUMP_GROUND.glob("*.ez")),
    ids=lambda p: p.stem)
def test_dump_ground_matches_snapshot(capsys, source):
    # The rule order of the ground program fixes the atom table and so the
    # search; a grounder change must not reorder either.  Regenerate with
    # `python -m ezcasp SOURCE --dump-ground > tests/data/dump_ground/NAME.txt`.
    code, out, _ = run_cli(capsys, source, "--dump-ground")
    assert code == 0
    assert out == (DUMP_GROUND / f"{source.stem}.txt").read_text()


@pytest.mark.parametrize("constraint", [
    "assignment([x,y],[z])",      # lists of different lengths
    "serialized([x,y,z],[1,2])",
    "disjoint2([x,y,z],[1,1],[x,y,z],[1,1,1])",
    # read up to the shorter list, each would hold (x=1, y=2; x=y=1)
    "cumulative([x,y,z],[1,1],[1,1],1)",
    "scalar_product([1,1],[x,y,z],eq,2)",
    "circuit([x,1/0])",           # an undefined item
])
def test_global_edge_cases_match_oracle(tmp_path, capsys, constraint):
    f = tmp_path / "g.ez"
    f.write_text("cspdomain(fd). cspvar(x,1,2). cspvar(y,1,2). "
                 f"cspvar(z,1,2). required({constraint}).")
    solved = run_cli(capsys, f, "-n", "0")
    assert solved == run_cli(capsys, f, "--oracle", "-n", "0")
    assert solved == (EXIT_UNSAT, "UNSAT\n", "")


@pytest.mark.parametrize("source, model", [
    ("required(circuit([])).", "required(circuit([])), x=0 }"),
    # an intensional list that expands to nothing only warns
    ("{q(1)}. required(circuit([q/1])).", "q(1), required(circuit([])), x=0 }"),
], ids=["literal", "intensional"])
def test_empty_circuit_holds(tmp_path, capsys, source, model):
    f = tmp_path / "c.ez"
    f.write_text("cspdomain(fd). cspvar(x,0,3). " + source)
    runs = [run_cli(capsys, f, "--schema", schema)
            for schema in ("black", "grey", "clear")]
    runs.append(run_cli(capsys, f, "--oracle"))
    # a solve shows the grounder's warning before it solves
    warning = f"warning: {f}: empty expansion of [q/1]\n" \
        if "q/1" in source else ""
    assert runs == [(EXIT_SAT, "{ cspdomain(fd), cspvar(x,0,3), " + model +
                     "\n", warning)] * 4
    # so do a trace's validation and a benchmark row, which names the
    # instance's path
    trace = tmp_path / "t.jsonl"
    assert run_cli(capsys, f, "--dump-trace", trace)[0] == EXIT_SAT
    assert run_cli(capsys, f, "--validate-trace", trace) == \
        (0, "trace ok\n", warning)
    spec = tmp_path / "spec.txt"
    spec.write_text("c.ez\tblack\n")
    code, out, err = run_cli(capsys, "--bench", spec)
    assert (code, err) == (0, warning) and "SAT(1)" in out
    code, out, _ = run_cli(capsys, f, "--dump-ground")
    assert code == 0 and "required(circuit([]))." in out
    assert ("% warning: empty expansion of [q/1]" in out) == ("q/1" in source)


_DOMAIN = "cspdomain(fd). cspvar(x,0,3). "
# the shapes whose nesting grows with n, each with a size at which
# `python -m ezcasp` printed a RecursionError traceback before the CLI
# caught it
DEEP_TERMS = {
    "builtin-sum": (329, lambda n: "p(X) :- X = " + "+".join(["1"] * n) + "."),
    "constraint-sum": (334, lambda n: _DOMAIN + "required(" +
                       "+".join(["x"] * n) + " >= 3)."),
    "disjunction": (329, lambda n: _DOMAIN + "required(" +
                    " \\/ ".join(["x = 1"] * n) + ")."),
    "nested-function": (250, lambda n: "p(" + "f(" * n + "1" + ")" * n +
                        ")."),
}


@pytest.mark.parametrize("shape, n", [
    *((shape, n) for shape, (n, _) in DEEP_TERMS.items()),
    *((shape, 10_000) for shape in DEEP_TERMS),
])
def test_deep_term_is_an_error_not_a_traceback(tmp_path, capsys, shape, n):
    f = tmp_path / "deep.ez"
    f.write_text(DEEP_TERMS[shape][1](n))
    for flags in ((), ("--dump-ground",)):
        assert run_cli(capsys, f, *flags) == \
            (EXIT_ERROR, "", f"error: {f}: term nesting too deep\n")


def test_negative_cumulative_resource_is_rejected(tmp_path, capsys):
    # x=y=0 would be a solution, but fd's cumulative filter assumes
    # nonnegative use, so the grounder rejects the constraint
    f = tmp_path / "c.ez"
    f.write_text("cspdomain(fd). cspvar(x,0,0). cspvar(y,0,1). "
                 "required(cumulative([x,y],[2,2],[2,-2],0)).")
    solved = run_cli(capsys, f, "-n", "0")
    assert solved == run_cli(capsys, f, "--oracle", "-n", "0")
    code, out, err = solved
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {f}: cumulative resources must be nonnegative, " \
        "got -2\n"


@pytest.mark.parametrize("source, models", [
    ("1 { p(-3) ; p(neg(3)) ; p(4) } 1.", ["{ p(-3) }", "{ p(4) }"]),
    ("1 { p(-3) ; p(neg(3)) } 1.", ["{ p(-3) }"]),
    ("q(-3). q(neg(3)). 1 { p(X) : q(X) } 1.", ["{ p(-3), q(-3) }"]),
])
def test_choice_bounds_count_atoms_shown_alike_once(tmp_path, capsys, source,
                                                     models):
    # p(-3) and p(neg(3)) are one atom of the CA program, so a bound
    # counts them once: choosing it is choosing one element
    f = tmp_path / "c.ez"
    f.write_text(source)
    solved = run_cli(capsys, f, "-n", "0")
    assert solved == run_cli(capsys, f, "--oracle", "-n", "0")
    assert solved == (EXIT_SAT, "".join(m + "\n" for m in models), "")


@pytest.mark.parametrize("path, n", [(LIGHT, "0"), (RIDDLE, "1")])
def test_stats_file(tmp_path, capsys, path, n):
    plain = run_cli(capsys, path, "-n", n)
    stats = tmp_path / "stats.json"
    assert run_cli(capsys, path, "-n", n, "--stats", stats) == plain
    written = json.loads(stats.read_text())
    program = ground_program(path.read_text())
    res = solve_ca(program, SchemaConfig(limit=int(n)))
    assert written["atoms"] == program.n_atoms
    assert written["rules"] == len(program.pi.rules)
    assert written["stats"] == vars(res.stats)
    assert written["ground_stages_s"] > 0 and written["solve_ca_s"] > 0
    layers = [written[k] for k in ("parse_s", "ground_s", "translate_s")]
    assert all(t >= 0 for t in layers)
    assert sum(layers) <= written["ground_stages_s"]
    search = {k: written[k] for k in LAYERS}
    assert all(t >= 0 for t in search.values())
    assert sum(search.values()) <= written["solve_ca_s"]
    # every solve here propagates and checks a CSP, so the unit, unfounded
    # and both fd layers take time; only riddle's learns a denial, and
    # shrinking its projection tests a core
    assert res.stats.csp_checks and all(
        search[k] for k in ("unit_s", "unfounded_s", "fd_build_s",
                            "fd_search_s"))
    assert bool(search["fd_core_s"]) == bool(res.stats.core_checks) == \
        (path == RIDDLE)
    assert set(res.layer_s) == {"clausify_s", "unit_s", "unfounded_s",
                                "fd_build_s", "fd_search_s", "fd_core_s"}


def test_stats_file_on_unsat_and_unwritable(tmp_path, capsys):
    f = tmp_path / "u.ez"
    f.write_text("a. :- a.")
    stats = tmp_path / "stats.json"
    assert run_cli(capsys, f, "--stats", stats) == (EXIT_UNSAT, "UNSAT\n", "")
    written = json.loads(stats.read_text())
    assert written["stats"]["runs"] == 1
    assert written["fd_build_s"] == written["fd_search_s"] == \
        written["fd_core_s"] == 0                                   # no check
    assert written["clausify_s"] >= 0
    code, out, err = run_cli(capsys, f, "--stats", tmp_path / "no" / "s.json")
    assert code == EXIT_ERROR and out == "" and err.startswith("error: ")
