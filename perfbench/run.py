"""Layered benchmark for ezcasp on scaled instance families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instance set from the seed (outside every timed
metric), then runs repetitions one after another until S seconds have
passed (at least MIN_REPS).  Each repetition is a fresh interpreter
(perfbench/rep.py) that imports ezcasp and solves the set from EZ text to
verdict, one instance at a time, with the calls the CLI makes.  Every
answer is checked independently (perfbench/check.py); a crash, a budget-out,
a wrong verdict, a model that fails the check or a disagreement between
schemas counts as a failed solve.

--trace 0 reports the end-to-end metrics, medians over repetitions:
  wall_rel     wall_s / ref_s, the gated form of wall_s
  setup_s      `import ezcasp` in the repetition's fresh interpreter
  peak_rss_mb  peak resident memory of the repetition's process
and prints, ungated:
  wall_s       instance set from EZ text to verdict, tracing off
  ref_s        a fixed pure-Python loop timed around each instance of the
               same repetition (perfbench/rep.py: reference_s)
On a shared host the speed of the CPU drifts by a third within minutes,
which moves wall_s of identical work by as much between runs; wall_rel
cancels that drift and keeps the run-to-run spread near 5%.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/spans.py, medians over traced repetitions,
and the tracing overhead (traced wall_s minus untraced wall_s).  The spans
of the last traced repetition are written under .perfbench/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give each metric with quartiles and sample
count, and failed_frac.  Instances and metrics are documented in
perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_REPS = 3
# Past --seconds, repetitions start only to reach MIN_REPS and only until
# DEADLINE_S; with REP_TIMEOUT_S per repetition a regressed program still
# ends a default-length run in well under three minutes.
DEADLINE_S = 40
REP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from gen import WORKLOADS, workload  # noqa: E402


def run_rep(jobs_json: str, spans_path: str = "") -> dict:
    """One repetition in a fresh interpreter; raises on crash or timeout."""
    cmd = [sys.executable, "-s", str(HERE / "rep.py")]
    if spans_path:
        cmd.append(spans_path)
    env = {k: v for k, v in os.environ.items()
           if k not in ("EZCASP_STEP_BUDGET", "PYTHONPATH")}
    proc = subprocess.run(cmd, input=jobs_json, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-2000:] or
                           f"exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_metrics(rep: dict) -> dict:
    """Per-layer numbers of one traced repetition, as (value, unit)."""
    layers, stats = rep["layers"], rep["stats"]

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    feasible = layers.get("fd.feasible", {})
    solve_s = layers.get("engine.solve_ca", {}).get("total_s", 0.0)
    m = {
        "lang.parse_s": (self_s("ground.parse", "ground.preprocess"), "s"),
        "ground.ground_s": (self_s("ground.ground"), "s"),
        "ground.translate_s": (self_s("ground.collect_var_decls",
                                      "ground.expand_lists",
                                      "ground.to_ca_program"), "s"),
        "ground.atoms": (stats["atoms"], "count"),
        "ground.rules": (stats["rules"], "count"),
    }
    for metric, span in (("asp.unit", "engine.find_unit_step"),
                         ("asp.unfounded", "engine.greatest_unfounded_set"),
                         ("asp.clausify", "engine.clausify"),
                         ("fd.build", "fd.build_csp"),
                         ("fd.propagate", "fd.propagate"),
                         ("fd.search", "fd.solve"),
                         ("engine.digest", "engine.state_digest")):
        m[metric + "_s"] = (self_s(span), "s")
        m[metric + "_calls"] = (calls(span), "count")
    m["fd.feasible_ratio"] = (feasible.get("true", 0) /
                              feasible["calls"] if feasible else 0.0,
                              "ratio")
    m["engine.self_s"] = (self_s("engine.solve_ca"), "s")
    for counter in ("decisions", "propagations", "csp_checks", "learned",
                    "restarts", "runs", "candidates"):
        m["engine." + counter] = (stats.get(counter, 0), "count")
    m["engine.edges"] = (stats.get("steps", 0), "count")
    m["engine.edges_per_s"] = (stats.get("steps", 0) / solve_s
                               if solve_s else 0.0, "1/s")
    m["trace.wall_s"] = (rep["wall_s"], "s")
    return m


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ezcasp" / "__init__.py").is_file():
        print(f"error: no ezcasp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    instances = workload(args.workload, args.seed)
    jobs_json = json.dumps([i.job() for i in instances])
    spans_path = ""
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = str(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    # compile bytecode once, so no repetition pays for it
    subprocess.run([sys.executable, "-s", "-c",
                    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r});"
                    " import ezcasp.cli"], check=True, cwd=ROOT)

    plain, traced = [], []
    attempted = failed = 0
    errors = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and (len(plain) >= MIN_REPS
                                        or elapsed >= DEADLINE_S):
            break
        for into, path in ((plain, ""), (traced, spans_path)):
            if into is traced and not args.trace:
                continue
            attempted += len(instances)
            try:
                rep = run_rep(jobs_json, path)
            except (RuntimeError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as exc:
                failed += len(instances)
                errors.append(f"repetition failed: {exc}")
                continue
            into.append(rep)
            for r in rep["results"]:
                if r["errors"]:
                    failed += 1
                    errors.append(f"{r['name']}: {'; '.join(r['errors'])}")

    for e in dict.fromkeys(errors):
        print(f"FAILED {e}", file=sys.stderr)

    rows, info = {}, {}
    if not args.trace and plain:
        rows["wall_rel"] = ([r["wall_s"] / r["ref_s"] for r in plain],
                            "refloop")
        for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MiB")):
            rows[name] = ([r[name] for r in plain], unit)
        for name in ("wall_s", "ref_s"):
            info[name] = ([r[name] for r in plain], "s")
    elif traced:
        per_rep = [layer_metrics(r) for r in traced]
        rows = {name: ([m[name][0] for m in per_rep], unit)
                for name, (_, unit) in per_rep[0].items()}
        if plain:
            rows["trace.overhead_s"] = (
                [statistics.median(rows["trace.wall_s"][0])
                 - statistics.median(r["wall_s"] for r in plain)], "s")
        missing = traced[0]["missing"]
        if missing:
            print("missing wrapped functions (reported as 0): "
                  + ", ".join(missing))

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(instances)} instances per repetition, {len(plain)} "
          f"untraced and {len(traced)} traced repetitions")
    print(f"{'metric':24} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12}"
          "   n")
    metrics = {}
    for name, (values, unit) in {**rows, **info}.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:24} {unit:7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3}")
        if name in rows:
            metrics[name] = {"value": med, "unit": unit}
    print(f"{'failed_frac':24} {'ratio':7} {failed / attempted:12.6g}"
          f"   ({failed} of {attempted} solves)")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
