"""Two-level logic: expressions, cubes, covers, Quine–McCluskey, truth tables, factoring."""

from repro.logic.cover import Cover
from repro.logic.cube import DASH, ONE, ZERO, Cube, merge_adjacent
from repro.logic.expr import BoolExpr, parse_expr
from repro.logic.factoring import factor, literal_kernels, weak_divide
from repro.logic.qm import prime_implicants, primes_of_truth_table

__all__ = [
    "BoolExpr",
    "parse_expr",
    "Cube",
    "Cover",
    "ZERO",
    "ONE",
    "DASH",
    "merge_adjacent",
    "factor",
    "literal_kernels",
    "weak_divide",
    "prime_implicants",
    "primes_of_truth_table",
]
