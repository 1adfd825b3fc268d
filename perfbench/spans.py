"""Spans recorded around the public functions of each ezcasp module.

The tracer replaces module attributes from outside the program, under the
name each caller resolves at call time (the engine calls `find_unit_step`
through its own module globals, the fd search calls `propagate` through
`ezcasp.fd`, and so on).  Spans are kept in memory and written at the end,
one JSON list per line: [name, start, end, parent span index or -1,
instance index, result if the call returned a bool else null].  A name that
no longer exists is reported as missing, not as an error.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List

# (module, attribute): the span name is "<last module part>.<attribute>"
TARGETS = [
    ("ezcasp.ground", "ground_program"),
    ("ezcasp.ground", "parse"),
    ("ezcasp.ground", "preprocess"),
    ("ezcasp.ground", "ground"),
    ("ezcasp.ground", "collect_var_decls"),
    ("ezcasp.ground", "expand_lists"),
    ("ezcasp.ground", "to_ca_program"),
    ("ezcasp.engine", "solve_ca"),
    ("ezcasp.engine", "find_unit_step"),
    ("ezcasp.engine", "greatest_unfounded_set"),
    ("ezcasp.engine", "clausify"),
    ("ezcasp.engine", "state_digest"),
    ("ezcasp.fd", "build_csp"),
    ("ezcasp.fd", "feasible"),
    ("ezcasp.fd", "solve"),
    ("ezcasp.fd", "propagate"),
    ("ezcasp.cli", "format_model"),
]

NAME, START, END, PARENT, INSTANCE, RESULT = range(6)


class Tracer:
    """Wraps TARGETS while installed; one span per wrapped call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.instance = -1
        self.missing: List[str] = []
        self._saved: List[tuple] = []
        self._stack: List[int] = []

    def install(self) -> None:
        self.missing = []
        for modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            name = f"{modname.rsplit('.', 1)[1]}.{attr}"
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    tracer.instance, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if result is True or result is False:
                span[RESULT] = result
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time, self time and true results."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true": 0})
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
        row["true"] += s[RESULT] is True
    return dict(out)
