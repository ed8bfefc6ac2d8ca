"""Dynamics of rank-two Artin groups via mass automata.

Classify any word in the two-generator Artin group with an n-letter
braid relation as periodic, reducible or pseudo-Anosov, and compute its
mass growth h_t exactly: linear for periodic braids, piecewise linear
for reducible ones, and log of a Perron-Frobenius eigenvalue of a 2x2
matrix over a Laurent ring with fusion-ring coefficients otherwise.
"""

from .automaton import MassAutomaton, PathWitness, build, path_matrix, pf_eigenvalue, recognize, zero_pattern
from .braidword import (
    BraidWord,
    NormalForm,
    TwistLetter,
    WordSyntaxError,
    burau,
    coxeter_matrix,
    parse_word,
    positive_roots,
    to_normal_form,
)
from .classify import (
    ClassificationResult,
    LinearGrowth,
    LogPFGrowth,
    PiecewiseGrowth,
    classify,
    estimate_growth,
    growth_periodic,
    growth_reducible,
)
from .fusion import FusionVec, MassPoly, chebyshev, eval_mass, fuse, mass_mul, pf_dim, ring_mul
from .twistcalc import SemistableUnit, gamma_on_unit, letter_support

__all__ = [
    "BraidWord",
    "ClassificationResult",
    "FusionVec",
    "LinearGrowth",
    "LogPFGrowth",
    "MassAutomaton",
    "MassPoly",
    "NormalForm",
    "PathWitness",
    "PiecewiseGrowth",
    "SemistableUnit",
    "TwistLetter",
    "WordSyntaxError",
    "build",
    "burau",
    "chebyshev",
    "classify",
    "coxeter_matrix",
    "estimate_growth",
    "eval_mass",
    "fuse",
    "gamma_on_unit",
    "growth_periodic",
    "growth_reducible",
    "letter_support",
    "mass_mul",
    "parse_word",
    "path_matrix",
    "pf_dim",
    "pf_eigenvalue",
    "positive_roots",
    "recognize",
    "ring_mul",
    "to_normal_form",
    "zero_pattern",
]

__version__ = "0.1.0"
