"""Deterministic rewrite-limited automata.

Two interchangeable engines over one machine model: a literal reference
interpreter and a linear-time engine that folds frozen tape segments into
composable description maps.  Plus a machine zoo, a differential harness
and step-count benchmarks; their helpers live in the submodules.
"""
from .model import Automaton, DLimit, Transition, validate_automaton
from .fmt import FormatError, parse_machine, serialize_machine
from .outcome import BudgetExceeded, RunOutcome
from .naive import run_naive
from .linear import run_linear
from .difftest import compare_run

__version__ = "0.1.0"
