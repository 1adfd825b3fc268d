"""Constraint answer set solver with an EZ-language front end.

Pipeline: parse (which reads each required-argument into canonical functors)
-> ground -> CA program -> transition-system search (black / grey /
clear-box) backed by an embedded finite-domain solver.
"""

from .lang import parse, pretty_print, EzProgram, EzSyntaxError
from .ground import ground_program, CAProgram, GroundError
from .asp import RegularProgram, is_answer_set
from .fd import CSPInstance, build_csp, satisfied, complement
from .engine import SchemaConfig, solve_ca, SolveResult, ExtendedAnswerSet

__all__ = [
    "parse", "pretty_print", "EzProgram", "EzSyntaxError",
    "ground_program", "CAProgram", "GroundError",
    "RegularProgram", "is_answer_set",
    "CSPInstance", "build_csp", "satisfied", "complement",
    "SchemaConfig", "solve_ca", "SolveResult", "ExtendedAnswerSet",
]

__version__ = "0.1.0"
