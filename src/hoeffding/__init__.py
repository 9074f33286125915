"""Exact arithmetic for exchangeable sequences over finite alphabets:
law families whose cylinder probabilities are products of their
predictive rules, Hoeffding decompositions of symmetric statistics, and
the combinatorial criterion for Hoeffding decomposability, all over
rational numbers so that the expected zeros are exact zeros.

The package exports the four entry points of the README's Library
section; everything else lives in the submodules (``exactnum``, ``laws``,
``decomp``, ``characterization``, ``linalg``, ``urnsim``, ``cli``).
"""

from .characterization import verify_hd
from .decomp import decompose, u_statistic
from .laws import parse_law

__version__ = "0.1.0"

__all__ = ["decompose", "parse_law", "u_statistic", "verify_hd", "__version__"]
