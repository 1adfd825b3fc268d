"""Command-line front end and benchmark harness.

Usage:
    ezcasp FILE [options]           solve an EZ program
    ezcasp --bench SPEC [options]   run a benchmark spec (instance<TAB>schema
                                    per line)

Exit status: 10 = SAT, 20 = UNSAT, 1 = error or budget exceeded.

With `--stats FILE`, a solve also writes FILE as JSON: `atoms` and `rules`
of the CA program, the wall times `ground_stages_s` (EZ text to CA program)
and `solve_ca_s` (the search), the wall times of the front-end layers within
`ground_stages_s` under the names of perfbench's layers, `parse_s` (parse,
which also canonicalizes required-arguments), `ground_s` (ground) and
`translate_s` (collect_var_decls, expand_lists and to_ca_program), the wall
times of the search's layers within `solve_ca_s`, `clausify_s`
(asp.clausify, once per solve), `fd_build_s` (fd.build_csp),
`fd_search_s` (advancing fd.solutions) and `fd_core_s` (shrinking the
projections of failed checks to cores), and `stats`, the solve's
`SolveStats` counters, `core_checks` among them.

Answer sets print one per line as '{ atom, ..., var=value, ... }': atoms
sorted lexicographically with bare constraint atoms suppressed, then variable
bindings sorted by variable name.  The step budget bounds the transition
edges and the fd search nodes of a solve together; it can be overridden with
the EZCASP_STEP_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import fd
from .engine import SchemaConfig, SolveStats, solve_ca
from .ground import (CAProgram, DEFAULT_FD_RANGE, GroundError, display_atom,
                     ground_stages)
from .lang import Atom, EzSyntaxError, display_op, print_rule

__all__ = ["main", "emit_clp", "bench", "RunReport", "format_model"]

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def format_model(atoms: Sequence[str], assignment: Sequence[Tuple[str, int]],
                 suppressed=frozenset()) -> str:
    shown = sorted(a for a in atoms if a not in suppressed)
    parts = shown + [f"{v}={x}" for v, x in sorted(assignment)]
    if not parts:
        return "{}"
    return "{ " + ", ".join(parts) + " }"


# ---------------------------------------------------------------------------
# CLP-text export
# ---------------------------------------------------------------------------

_CLP_CMP = {"lt": "<", "leq": "=<", "gt": ">", "geq": ">=", "eq": "=",
            "neq": "\\="}


def _clp_var(name: str, table: Dict[str, str]) -> str:
    if name not in table:
        base = "V_" + re.sub(r"[^0-9A-Za-z_]+", "_", name).strip("_")
        cand = base
        k = 1
        while cand in table.values():
            k += 1
            cand = f"{base}_{k}"
        table[name] = cand
    return table[name]


def _clp_term(t, table: Dict[str, str]) -> str:
    if isinstance(t, fd.IntConst):
        return str(t.value)
    if isinstance(t, int):
        return str(t)
    if isinstance(t, fd.VarRef):
        return _clp_var(t.name, table)
    if isinstance(t, fd.Arith):
        if t.op == "neg":
            return f"-({_clp_term(t.args[0], table)})"
        return (f"{_clp_term(t.args[0], table)} {display_op(t.op)} "
                f"{_clp_term(t.args[1], table)}")
    raise ValueError(f"not a CLP term: {t!r}")


def _clp_constraint(c, table: Dict[str, str]) -> str:
    if isinstance(c, fd.Cmp):
        return (f"{_clp_term(c.lhs, table)} {_CLP_CMP[c.op]} "
                f"{_clp_term(c.rhs, table)}")
    if isinstance(c, fd.BoolExpr):
        args = ", ".join(_clp_constraint(a, table) for a in c.args)
        return f"{c.op}({args})"
    if isinstance(c, fd.Global):
        rendered = []
        for a in c.args:
            if isinstance(a, tuple):
                rendered.append(
                    "[" + ",".join(_clp_term(x, table) for x in a) + "]")
            elif isinstance(a, str):
                rendered.append(a)
            else:
                rendered.append(_clp_term(a, table))
        return f"{c.name}({','.join(rendered)})"
    raise ValueError(f"not a constraint: {c!r}")


def emit_clp(program: CAProgram, m_literals: Sequence[int],
             semantics: str = "weak") -> str:
    """Translate the csp-abstraction of an answer set (`fd.build_csp` under
    `semantics`) into a Prolog-style solve/1 clause: ranges first, then
    posted constraints in declaration order, then labeling over all
    variables."""
    inst = fd.build_csp(program, m_literals, semantics)
    table: Dict[str, str] = {}
    goals: List[str] = []
    for name in inst.var_order:
        v = _clp_var(name, table)
        dom = inst.domains[name]
        goals += [f"{v} >= {dom.lo}", f"{v} =< {dom.hi}"]
    goals += [_clp_constraint(c, table) for c in inst.constraints]
    head = ",".join(f"{name},{table[name]}" for name in inst.var_order)
    lab = ",".join(table[name] for name in inst.var_order)
    goals.append(f"labeling([{lab}])")
    return f"solve([{head}]) :- {', '.join(goals)}."


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    instance: str
    schema: str
    semantics: str
    outcome: str             # 'SAT(n)' | 'UNSAT' | 'BUDGET' | 'ERROR: ...'
    wall_time: float
    stats: SolveStats = field(default_factory=SolveStats)

    def row(self) -> dict:
        return {
            "instance": self.instance, "schema": self.schema,
            "semantics": self.semantics, "outcome": self.outcome,
            "wall_time": round(self.wall_time, 4), **vars(self.stats),
        }


def bench(spec_path: str, semantics: str = "weak",
          default_range: Tuple[int, int] = DEFAULT_FD_RANGE,
          out=None, json_path: Optional[str] = None) -> List[RunReport]:
    """Run every instance x schema pair in the spec file; failures are
    recorded per row and the run continues."""
    import os.path
    from .ground import ground_program
    if out is None:
        out = sys.stdout
    reports: List[RunReport] = []
    base = os.path.dirname(os.path.abspath(spec_path))
    with open(spec_path) as f:
        rows = [line.strip() for line in f
                if line.strip() and not line.strip().startswith("#")]
    for line in rows:
        parts = line.split("\t") if "\t" in line else line.split()
        instance, schema = parts[0], parts[1] if len(parts) > 1 else ""
        path = instance if os.path.isabs(instance) \
            else os.path.join(base, instance)
        t0 = time.monotonic()
        try:
            cfg = SchemaConfig(schema=schema, semantics=semantics, limit=1,
                               max_alphas_per_model=1)
            with open(path) as f:
                program = ground_program(f.read(), default_range)
            res = solve_ca(program, cfg)
            if res.status == "sat":
                outcome = f"SAT({len(res.models)})"
            elif res.status == "unsat":
                outcome = "UNSAT"
            else:
                outcome = "BUDGET"
            reports.append(RunReport(instance, schema, semantics, outcome,
                                     time.monotonic() - t0, res.stats))
        except Exception as exc:               # per-row failure, keep going
            reports.append(RunReport(instance, schema, semantics,
                                     f"ERROR: {exc}",
                                     time.monotonic() - t0))
    _print_bench_table(reports, out)
    if json_path:
        with open(json_path, "w") as f:
            for r in reports:
                f.write(json.dumps(r.row()) + "\n")
    return reports


def _print_bench_table(reports: List[RunReport], out) -> None:
    headers = ["instance", "schema", "outcome", "time", "dec", "prop",
               "csp", "learn", "restart"]
    rows = [[r.instance, r.schema, r.outcome, f"{r.wall_time:.2f}s",
             *(str(getattr(r.stats, k)) for k in
               ("decisions", "propagations", "csp_checks", "learned",
                "restarts"))] for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    print(fmt(headers), file=out)
    print(fmt(["-" * w for w in widths]), file=out)
    for row in rows:
        print(fmt(row), file=out)


# ---------------------------------------------------------------------------
# Main entry point
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> Tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("expected LO..HI")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("expected LO <= HI")
    return lo, hi


def _check_freq(text: str):
    if text == "none":
        return None
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("check frequency must be >= 1")
    return v


def _count(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("count must be >= 0")
    return v


def _write(path: str, text: str) -> bool:
    """Write text to the file at path; False, after one error line, if it
    cannot be written."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ezcasp",
        description="Constraint answer set solver for EZ programs.")
    ap.add_argument("file", nargs="?", help="EZ program file")
    ap.add_argument("--schema", choices=["black", "grey", "clear"],
                    default="black", help="integration schema (default black)")
    ap.add_argument("--semantics", choices=["weak", "full"], default="weak",
                    help="csp-abstraction semantics (default weak)")
    ap.add_argument("-n", type=_count, default=1, metavar="N",
                    help="enumerate up to N extended answer sets (0 = all)")
    ap.add_argument("--check-freq", type=_check_freq, default=1, metavar="K",
                    help="clear-box CSP check frequency in decisions "
                         "(or 'none' for complete assignments only)")
    ap.add_argument("--default-range", type=_parse_range,
                    default=DEFAULT_FD_RANGE, metavar="LO..HI",
                    help="fd range for range-free variable declarations")
    ap.add_argument("--dump-ground", action="store_true",
                    help="print the ground CA program and exit")
    ap.add_argument("--dump-trace", metavar="FILE",
                    help="write the transition trace as JSON lines")
    ap.add_argument("--emit-clp", metavar="FILE",
                    help="write the CLP translation of the first answer set")
    ap.add_argument("--stats", metavar="FILE",
                    help="after solving, write the solve counters, the atom "
                         "and rule counts and the wall times of grounding "
                         "and search as JSON")
    ap.add_argument("--validate-trace", metavar="FILE",
                    help="validate a trace file against the program and exit")
    ap.add_argument("--oracle", action="store_true",
                    help="run the brute-force oracle instead of the solver")
    ap.add_argument("--bench", metavar="SPEC",
                    help="run a benchmark spec file (instance<TAB>schema "
                         "per line)")
    ap.add_argument("--bench-json", metavar="FILE",
                    help="also write benchmark rows as JSON lines")
    return ap


def _dump_ground_text(source: str, default_range) -> str:
    expanded, program = ground_stages(source, default_range)
    # a required head is shown as in the constraint atoms' names
    lines = [print_rule(r, display_atom(r.head))
             if isinstance(r.head, Atom) and r.head.rel == "required"
             else print_rule(r) for r in expanded.rules]
    names = program.pi.names
    if program.constraint_order:
        lines.append("% constraint atoms:")
        for cid in program.constraint_order:
            lines.append(f"%   {names[cid]}")
    for w in program.warnings:
        lines.append(f"% warning: {w}")
    return "\n".join(line for line in lines if line) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)

    if args.bench:
        try:
            bench(args.bench, semantics=args.semantics,
                  default_range=args.default_range,
                  json_path=args.bench_json)
            return 0
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR

    if not args.file:
        ap.print_usage(sys.stderr)
        return EXIT_ERROR

    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if args.dump_ground:
            sys.stdout.write(_dump_ground_text(source, args.default_range))
            return 0
        from .ground import ground_program
        start = time.perf_counter()
        program = ground_program(source, args.default_range)
        ground_s = time.perf_counter() - start
    except (EzSyntaxError, GroundError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # the parser and the term walkers recurse once per nesting level
        print(f"error: {args.file}: term nesting too deep", file=sys.stderr)
        return EXIT_ERROR

    if args.validate_trace:
        from .oracle import validate_trace
        try:
            with open(args.validate_trace) as f:
                records = [json.loads(line) for line in f if line.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        ok, why = validate_trace(records, program)
        print("trace ok" if ok else f"trace invalid: {why}")
        return 0 if ok else EXIT_ERROR

    if args.oracle:
        return _run_oracle(program, args)

    cfg = SchemaConfig(schema=args.schema, semantics=args.semantics,
                       check_freq=args.check_freq, limit=args.n)
    try:
        cfg.step_budget = cfg.effective_budget()
    except ValueError as exc:                  # EZCASP_STEP_BUDGET
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        start = time.perf_counter()
        res = solve_ca(program, cfg, collect_trace=bool(args.dump_trace))
        solve_s = time.perf_counter() - start
    except fd.ComplementUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.stats and not _write(args.stats, json.dumps(
            {"atoms": program.n_atoms, "rules": len(program.pi.rules),
             "ground_stages_s": round(ground_s, 6),
             "solve_ca_s": round(solve_s, 6),
             **{k: round(v, 6) for k, v in
                {**program.stage_s, **res.layer_s}.items()},
             "stats": vars(res.stats)}, indent=1) + "\n"):
        return EXIT_ERROR

    if args.dump_trace and res.trace is not None and not _write(
            args.dump_trace,
            "".join(json.dumps(rec) + "\n" for rec in res.trace)):
        return EXIT_ERROR

    if res.status == "budget":
        print("step budget exceeded", file=sys.stderr)
        return EXIT_ERROR
    if res.status == "unsat":
        print("UNSAT")
        return EXIT_UNSAT

    for m in res.models:
        print(format_model(m.atoms, m.assignment, program.suppressed))
    if args.emit_clp and res.models and not _write(
            args.emit_clp, emit_clp(program, res.models[0].literals,
                                    args.semantics) + "\n"):
        return EXIT_ERROR
    return EXIT_SAT


def _run_oracle(program: CAProgram, args) -> int:
    from .oracle import OracleBoundExceeded, answer_sets, exhaustive_solutions
    try:
        sets = answer_sets(program, args.semantics)
    except (OracleBoundExceeded, fd.ComplementUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not sets:
        print("UNSAT")
        return EXIT_UNSAT
    shown = sets if args.n == 0 else sets[:args.n]
    for s in shown:
        lits = [(program.pi.index[a] + 1) for a in s]
        lits += [-(i + 1) for i in range(program.n_atoms)
                 if program.pi.names[i] not in s]
        inst = fd.build_csp(program, lits, args.semantics)
        alpha = next(exhaustive_solutions(inst), {})
        print(format_model(s, sorted(alpha.items()), program.suppressed))
    return EXIT_SAT


if __name__ == "__main__":
    sys.exit(main())
