"""The translation from EZ text to CA program, pinned on a random corpus.

For every case, `tests/data/translation/digests.txt` holds a digest of the
`--dump-ground` text and one of `test_ground.ca_program_text` (atom table,
rules, constraint order with gamma, declarations, suppressed names and
warnings).  `tests/data/translation/clauses.txt` holds, for the same cases,
a digest of the clauses of the program's ASP abstraction in order, one per
rule (`asp.clausify`).  The cases are `oracle.random_ez_source` seeds
0-499, seeds 250-499 with `min_lo=-3`, `ground_gen.random_nonground_source`
seeds 0-999 (the pinned programs with multi-atom choice and aggregate
conditions, arithmetic patterns and division errors), plus every bundled
encoding.  A change to grounding, translation or clausification must leave
every digest as it is.  Regenerate both files with
`PYTHONPATH=src:tests python tests/test_translation.py`.
"""

import hashlib
import pathlib

from ezcasp.asp import clausify
from ezcasp.cli import _dump_ground_text
from ezcasp.ground import DEFAULT_FD_RANGE, GroundError, ground_program
from ezcasp.lang import EzSyntaxError
from ezcasp.oracle import random_ez_source

from conftest import ENCODINGS
from ground_gen import random_nonground_source
from test_ground import DUMP_GROUND_EZ, ca_program_text

DATA = pathlib.Path(__file__).resolve().parent / "data" / "translation"
DIGESTS = DATA / "digests.txt"
CLAUSES = DATA / "clauses.txt"

N_SEEDS = 500
N_NONGROUND_SEEDS = 1000


def cases():
    """(name, EZ source) of every pinned case."""
    for seed in range(N_SEEDS):
        min_lo = -3 if seed >= N_SEEDS // 2 else 0
        yield f"random-{seed}-{min_lo}", random_ez_source(seed, min_lo=min_lo)
    for seed in range(N_NONGROUND_SEEDS):
        yield f"nonground-{seed}", random_nonground_source(seed)
    for source in sorted(ENCODINGS.glob("*.ez")) + \
            sorted(DUMP_GROUND_EZ.glob("*.ez")):
        yield source.stem, source.read_text()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def digest_line(name: str, source: str) -> str:
    try:
        dump = _dump_ground_text(source, DEFAULT_FD_RANGE)
        ca = ca_program_text(ground_program(source))
    except (EzSyntaxError, GroundError) as exc:
        dump = ca = f"error: {exc}"
    return f"{name} {_digest(dump)} {_digest(ca)}"


def clause_line(name: str, source: str) -> str:
    try:
        program = ground_program(source)
    except (EzSyntaxError, GroundError):
        return f"{name} error"
    clauses = clausify(program.asp_abstraction())
    text = "\n".join(" ".join(map(str, c)) for c in clauses)
    return f"{name} {len(clauses)} {_digest(text)}"


def _assert_pinned(path: pathlib.Path, line) -> None:
    pinned = path.read_text().splitlines()
    now = [line(name, source) for name, source in cases()]
    assert len(now) == len(pinned)
    changed = [p.split()[0] for p, n in zip(pinned, now) if p != n]
    assert not changed, f"{len(changed)} cases changed: {changed[:10]}"


def test_translation_matches_pinned_digests():
    _assert_pinned(DIGESTS, digest_line)


def test_clauses_match_pinned_digests():
    _assert_pinned(CLAUSES, clause_line)


def write_digests() -> None:
    DATA.mkdir(exist_ok=True)
    for path, line in ((DIGESTS, digest_line), (CLAUSES, clause_line)):
        path.write_text("".join(line(name, source) + "\n"
                                for name, source in cases()))


if __name__ == "__main__":
    write_digests()
