"""Independent check of solver output.

A model is accepted only if its atoms form an answer set of the program's
ASP abstraction and its assignment satisfies, within the declared ranges,
every constraint that the atoms post.  The literals are rebuilt from the
atoms, so the check never trusts the solver's own literal tuple.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ezcasp import fd
from ezcasp.asp import is_answer_set


def model_error(program, atoms: Iterable[str],
                assignment: Dict[str, int]) -> Optional[str]:
    """None if (atoms, assignment) is an extended answer set under the weak
    semantics the CLI defaults to, else why not."""
    atoms = frozenset(atoms)
    abstraction = program.asp_abstraction()
    unknown = atoms - set(abstraction.names)
    if unknown:
        return f"unknown atoms {sorted(unknown)[:3]}"
    if not is_answer_set(abstraction, atoms):
        return "atoms are not an answer set of the ASP abstraction"
    literals = [(i + 1) if name in atoms else -(i + 1)
                for i, name in enumerate(abstraction.names)]
    inst = fd.build_csp(program, literals, "weak")
    if set(assignment) != set(inst.domains):
        return "assignment does not bind exactly the active variables"
    for var, dom in inst.domains.items():
        if not dom.contains(assignment[var]):
            return f"{var}={assignment[var]} outside its declared range"
    for c in inst.constraints:
        if not fd.satisfied(c, assignment):
            return f"assignment violates a posted constraint: {c!r}"[:200]
    return None


def verdict_errors(program, status: str, known: str,
                   models: Sequence[Tuple[Sequence[str],
                                          Sequence[Tuple[str, int]]]],
                   known_models: Optional[int] = None) -> List[str]:
    """Every reason the solver's answer to one instance is wrong;
    known_models, when given, is the exact number of models expected."""
    errors: List[str] = []
    if status not in ("sat", "unsat"):
        errors.append(f"status {status}")
    elif status != known:
        errors.append(f"verdict {status}, known {known}")
    if status == "sat" and not models:
        errors.append("sat without a model")
    if known_models is not None and len(models) != known_models:
        errors.append(f"{len(models)} models, known {known_models}")
    seen = set()
    for atoms, assignment in models:
        key = (frozenset(atoms), tuple(sorted(assignment)))
        if key in seen:
            errors.append("duplicate model")
        seen.add(key)
        why = model_error(program, atoms, dict(assignment))
        if why:
            errors.append(why)
    return errors
