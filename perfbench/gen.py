"""Seeded instance generators for the benchmark workloads.

Each generator takes a `random.Random` seeded from the workload seed and
returns an `Instance`: EZ text, the schema to solve it under, the model
limit, and the verdict known from construction.  The solver only ever sees
the EZ text.  Witnesses are kept on the instance so the tests can check that
they really satisfy the instance.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

WSEQ_RULES = """\
1 { leafPos(L,N) : location(N) } 1 :- leaf(L).
:- leafPos(L1,N), leafPos(L2,N), leaf(L1), leaf(L2), location(N), L1 != L2.
{ posColor(P,green) } :- coloredPos(P).
cspdomain(fd).
cspvar(posCost(P),0,20) :- coloredPos(P).
required(posCost(P) = W) :-
    posColor(P,green), coloredPos(P), leafPos(L,P), leaf(L),
    leafWeightCardinality(L,WR,CR), W = WR + CR.
required(posCost(P) = W) :-
    not posColor(P,green), coloredPos(P), location(P1), P1 = P - 1,
    leafPos(L1,P1), leafPos(L2,P), leaf(L1), leaf(L2),
    leafWeightCardinality(L1,WL,CL), leafCost(L2,WR), W = WL + WR.
required(sum([posCost/1], =<, MV)) :- max_total_weight(MV).
"""

SCHED_RULES = """\
cspdomain(fd).
cspvar(st(D,J),0,H) :- job_device(J,D), horizon(H).
cspvar(on_instance(J),1,N) :- job(J), job_device(J,D), instances(D,N).
cspvar(penalty(J),0,50) :- job(J).
cspvar(tot_penalty,0,50).
required(cumulative([st(D)/2],
                    [operation_len_by_dev(D)/3],
                    [operation_res_by_dev(D)/3],
                    N)) :- instances(D,N).
required((on_instance(J1) != on_instance(J2)) \\/
         (st(D,J2) >= st(D,J1) + Len1) \\/
         (st(D,J1) >= st(D,J2) + Len2)) :-
    instances(D,N), N > 1,
    job_device(J1,D), job_device(J2,D), J1 != J2,
    job_len(J1,Len1), job_len(J2,Len2).
required((st(D,J) + Len =< Dl /\\ penalty(J) = 0) \\/
         (st(D,J) + Len > Dl /\\ penalty(J) = (st(D,J) + Len - Dl) * Imp)) :-
    job_device(J,D), job_len(J,Len), deadline(J,Dl), job_importance(J,Imp).
required(sum([penalty/1], =, tot_penalty)).
required(tot_penalty =< K) :- max_total_penalty(K).
"""


@dataclass
class Instance:
    """One benchmark instance; `verdict` is 'sat' or 'unsat'."""
    name: str
    text: str
    schema: str
    limit: int
    verdict: str
    witness: Dict[str, object] = field(default_factory=dict)
    models: Optional[int] = None       # exact model count, when known

    def job(self) -> dict:
        """What a repetition needs; the verdict is read only by the check
        that follows each solve."""
        return {"name": self.name, "text": self.text, "schema": self.schema,
                "limit": self.limit, "verdict": self.verdict,
                "models": self.models}


# ---------------------------------------------------------------------------
# Weighted sequence
# ---------------------------------------------------------------------------

@dataclass
class Wseq:
    weight: List[int]          # leafWeightCardinality(l_i, weight, card)
    card: List[int]
    cost: List[int]            # leafCost(l_i, cost)
    budget: int

    @property
    def n(self) -> int:
        return len(self.weight)

    def position_cost(self, order: List[int], green: List[bool], p: int
                      ) -> int:
        """Cost of position p >= 1 with leaf order[q] at location q."""
        leaf = order[p]
        if green[p]:
            return self.weight[leaf] + self.card[leaf]
        return self.weight[order[p - 1]] + self.cost[leaf]

    def total_cost(self, order: List[int], green: List[bool]) -> int:
        return sum(self.position_cost(order, green, p)
                   for p in range(1, self.n))

    def text(self) -> str:
        n = self.n
        lines = [" ".join(f"leaf(l{i + 1})." for i in range(n)),
                 " ".join(f"location({q})." for q in range(n)),
                 " ".join(f"coloredPos({p})." for p in range(1, n))]
        for i in range(n):
            lines.append(f"leafWeightCardinality(l{i + 1},{self.weight[i]},"
                         f"{self.card[i]}). leafCost(l{i + 1},{self.cost[i]}).")
        lines.append(f"max_total_weight({self.budget}).")
        return "\n".join(lines) + "\n" + WSEQ_RULES


def candidates(n: int) -> Iterator[Tuple[List[int], List[bool]]]:
    """Every (leaf order, colors) pair; location 0 has no color."""
    for order in itertools.permutations(range(n)):
        for green in itertools.product((False, True), repeat=n - 1):
            yield list(order), [False, *green]


def _shuffled(rng: random.Random, triples, budget: int) -> Wseq:
    """Leaves get a seeded permutation of (weight, card, cost) triples."""
    triples = list(triples)
    rng.shuffle(triples)
    return Wseq(*(list(t) for t in zip(*triples)), budget)


def wseq_sat(rng: random.Random, n: int) -> Instance:
    """Budget 4n.  Weights in 1..2 keep every position at cost <= 4, so the
    random witness below (and every other candidate) fits the budget."""
    w = Wseq(*([rng.randint(1, 2) for _ in range(n)] for _ in range(3)),
             4 * n)
    order = list(range(n))
    rng.shuffle(order)
    green = [False] + [rng.random() < 0.5 for _ in range(1, n)]
    return Instance(f"wseq-sat-n{n}", w.text(), "black", 1, "sat",
                    {"order": order, "green": green,
                     "cost": w.total_cost(order, green)})


# The work of an UNSAT proof or a full enumeration depends on how many
# distinct cost projections the weights allow.  Random weights make it vary
# fourfold between seeds, so the seed permutes a fixed set of triples: the
# multiset of candidate costs stays the same and only the search order moves.
TIGHT_TRIPLES = [(1, 2, 1), (2, 1, 2), (1, 2, 1), (2, 1, 2)]
ENUM_TRIPLES = [(1, 1, 2), (2, 3, 1), (3, 2, 3)]


def wseq_tight(rng: random.Random, schema: str) -> Instance:
    """Budget 2(n-1) - 1.  Every weight, cardinality and cost is at least
    1, so every colored position costs at least 2: UNSAT by construction."""
    n = len(TIGHT_TRIPLES)
    w = _shuffled(rng, TIGHT_TRIPLES, 2 * (n - 1) - 1)
    return Instance(f"wseq-tight-n{n}-{schema}", w.text(), schema, 1,
                    "unsat", {"min_cost": 2 * (n - 1)})


def wseq_enum(rng: random.Random) -> Instance:
    """All answer sets at budget 4(n-1), halfway between the tight bound
    2(n-1) and the loose bound 6(n-1) of weights in 1..3.  Each candidate
    within budget is one answer set with one evaluation, so the number of
    models is known; the cheapest candidate is the witness."""
    n = len(ENUM_TRIPLES)
    w = _shuffled(rng, ENUM_TRIPLES, 4 * (n - 1))
    costs = [(w.total_cost(o, g), o, g) for o, g in candidates(n)]
    cost, order, green = min(costs)
    return Instance(f"wseq-enum-n{n}", w.text(), "black", 0, "sat",
                    {"order": order, "green": green, "cost": cost},
                    models=sum(c <= w.budget for c, _, _ in costs))


# ---------------------------------------------------------------------------
# Incremental scheduling
# ---------------------------------------------------------------------------

@dataclass
class Sched:
    length: List[int]
    importance: List[int]
    deadline: List[int]
    instances: int
    horizon: int = 0
    budget: int = 0

    def penalty(self, j: int, start: int) -> int:
        return max(0, start + self.length[j] - self.deadline[j]) \
            * self.importance[j]

    def text(self) -> str:
        lines = [f"device(d1). instances(d1,{self.instances})."]
        for j in range(len(self.length)):
            job = f"j{j + 1:02d}"             # zero-padded: sorts as numbered
            lines.append(
                f"job({job}). job_device({job},d1). "
                f"job_len({job},{self.length[j]}). "
                f"job_importance({job},{self.importance[j]}). "
                f"deadline({job},{self.deadline[j]}). "
                f"operation_len_by_dev(d1,{job},{self.length[j]}). "
                f"operation_res_by_dev(d1,{job},1).")
        lines.append(f"horizon({self.horizon}).")
        lines.append(f"max_total_penalty({self.budget}).")
        return "\n".join(lines) + "\n" + SCHED_RULES


def list_schedule(s: Sched) -> Tuple[List[int], List[int]]:
    """Earliest-deadline-first list schedule: (start, instance) per job."""
    free = [0] * s.instances
    start = [0] * len(s.length)
    where = [0] * len(s.length)
    for j in sorted(range(len(s.length)), key=lambda j: (s.deadline[j], j)):
        k = min(range(s.instances), key=lambda k: (free[k], k))
        start[j], where[j] = free[k], k + 1
        free[k] += s.length[j]
    return start, where


def sched(rng: random.Random, jobs: int, instances: int) -> Instance:
    """Jobs of length 1..3, importance 1..3 and deadlines around the average
    load, numbered in deadline order.  The budget is the penalty of the
    earliest-deadline-first witness schedule, so the instance is SAT by
    construction.  Numbering in deadline order makes the fd labeling (which
    follows declaration order) meet the witness without deep backtracking;
    random numbering makes the search time heavy-tailed across seeds."""
    while True:
        length = [rng.randint(1, 3) for _ in range(jobs)]
        load = -(-sum(length) // instances)
        deadline = sorted(rng.randint(1, load + 2) for _ in range(jobs))
        s = Sched(length, [rng.randint(1, 3) for _ in range(jobs)],
                  deadline, instances)
        start, where = list_schedule(s)
        penalties = [s.penalty(j, start[j]) for j in range(jobs)]
        if sum(penalties) <= 50:        # the encoding caps tot_penalty at 50
            break
    s.horizon = max(st + ln for st, ln in zip(start, length))
    s.budget = sum(penalties)
    return Instance(f"sched-j{jobs}-i{instances}", s.text(), "black", 1,
                    "sat",
                    {"start": start, "instance": where,
                     "penalty": s.budget})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _tight_pairs(rng: random.Random) -> List[Instance]:
    out = []
    for _ in range(TIGHT_PAIRS):
        black = wseq_tight(rng, "black")
        out += [black, Instance(black.name.replace("black", "clear"),
                                black.text, "clear", 1, "unsat",
                                black.witness)]
    return out


# Sizes keep one repetition at a few seconds on a 2-core machine.
SAT_N, SAT_COUNT = 10, 3
TIGHT_PAIRS = 3
SCHED_JOBS, SCHED_INSTANCES, SCHED_COUNT = 12, 3, 8
ENUM_COUNT = 4

WORKLOADS = {
    "wseq-sat": lambda rng: [wseq_sat(rng, SAT_N) for _ in range(SAT_COUNT)],
    "wseq-tight": _tight_pairs,
    "sched": lambda rng: [sched(rng, SCHED_JOBS, SCHED_INSTANCES)
                          for _ in range(SCHED_COUNT)],
    "wseq-enum": lambda rng: [wseq_enum(rng) for _ in range(ENUM_COUNT)],
}


def workload(name: str, seed: int) -> List[Instance]:
    """The instance set of a workload; the same seed gives the same text."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
