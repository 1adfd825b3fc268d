"""One repetition of a workload, run in a fresh interpreter.

Reads the instance set as JSON on stdin and solves each instance through the
calls the CLI makes (`ground_program`, `solve_ca`, `format_model`), one at a
time.  Every answer is checked after its timed interval, and a reference
loop (`reference_s`) is timed around each instance.  Prints one JSON object
on stdout.

    python3 perfbench/rep.py [SPANS_FILE] < instances.json

With SPANS_FILE, the public functions of each module are wrapped, their
spans are written to SPANS_FILE and per-layer numbers are added to the
output.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REF_LOOPS = 100_000


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    On a shared host the CPU's speed can drift by a third within tens of
    seconds, so the benchmark gates on wall time divided by the median of
    this, timed around each instance of the same repetition."""
    start = time.perf_counter()
    d = {}
    for k in range(REF_LOOPS):
        d[k % 1000] = d.get(k % 1000, 0) + k
    return time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ezcasp  # noqa: F401  -- the set-up every CLI call pays
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import statistics
    from ezcasp import cli, engine
    from ezcasp import ground as ground_mod
    from check import verdict_errors
    from spans import Tracer, summarize

    jobs = json.load(sys.stdin)
    spans_path = sys.argv[1] if len(sys.argv) > 1 else ""
    tracer = Tracer() if spans_path else None
    wall_s = 0.0
    results = []
    stats = {"atoms": 0, "rules": 0}
    by_text = {}
    refs = []
    for i, job in enumerate(jobs):
        refs += [reference_s(), reference_s()]
        if tracer:
            tracer.instance = i
            tracer.install()
        t = time.perf_counter()
        try:
            program = ground_mod.ground_program(job["text"])
            cfg = engine.SchemaConfig(schema=job["schema"],
                                      limit=job["limit"])
            res = engine.solve_ca(program, cfg)
            shown = [cli.format_model(m.atoms, m.assignment,
                                      program.suppressed)
                     for m in res.models]
        except Exception as exc:            # a crash is a failed solve
            results.append({"name": job["name"],
                            "errors": [f"{type(exc).__name__}: {exc}"]})
            continue
        finally:
            wall_s += time.perf_counter() - t
            if tracer:
                tracer.uninstall()

        models = [(m.atoms, m.assignment) for m in res.models]
        errors = verdict_errors(program, res.status, job["verdict"], models,
                                job["models"])
        answer = (res.status, frozenset(shown))
        first = by_text.setdefault(job["text"], answer)
        if first != answer:
            errors.append("schemas disagree on the same program")
        results.append({"name": job["name"], "errors": errors})
        stats["atoms"] += program.n_atoms
        stats["rules"] += len(program.pi.rules)
        for key, value in vars(res.stats).items():
            stats[key] = stats.get(key, 0) + value
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs += [reference_s(), reference_s()]

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "ref_s": statistics.median(refs), "results": results,
           "stats": stats}
    if tracer:
        tracer.write(spans_path)
        out["layers"] = summarize(tracer.spans)
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
