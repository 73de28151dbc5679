"""kfractions: a desk-scale laboratory for Kloosterman sums and the
trilinear/bilinear forms built from Kloosterman fractions a*mbar/n.

Submodules
----------
arith       exact integer and mod-1 rational arithmetic, reciprocity identities
ksums       complete Kloosterman sums in batches: kloosterman_batch at one c, kloosterman_fast_batch
            (block-major) at one c or one c per element; kloosterman_brute and kloosterman_fast are
            their one-element cases; Weil; inverses_mod
characters  the unit group's grid (unit_grid: units in grid order, their inverses; grid_index:
            residues to grid points for many moduli) and Dirichlet characters as its frequencies
incomplete  incomplete sums with side conditions, bound envelopes, completion majorant
forms       the phase tensor, extremal search, bound envelopes, amplifier machinery
apps        determinant-equation counts and equidistribution of a0/m fractions
verify      one verification suite per experiment subcommand
records     experiment records, CSV/JSON persistence, seed derivation
cli         the `kfractions` command-line runner
"""

from . import apps, arith, characters, forms, incomplete, ksums, records, verify
from .arith import Mod1Fraction, factorize, gcd_infty, jacobi, mod_inverse, squarefull_split
from .forms import CoefficientVector, DyadicRange, FormSpec, extremal_search
from .ksums import KloostermanParams, kloosterman_brute, kloosterman_fast, ramanujan, weil_bound

__version__ = "0.1.0"

__all__ = [
    "apps",
    "arith",
    "characters",
    "forms",
    "incomplete",
    "ksums",
    "records",
    "verify",
    "Mod1Fraction",
    "factorize",
    "gcd_infty",
    "jacobi",
    "mod_inverse",
    "squarefull_split",
    "CoefficientVector",
    "DyadicRange",
    "FormSpec",
    "extremal_search",
    "KloostermanParams",
    "kloosterman_brute",
    "kloosterman_fast",
    "ramanujan",
    "weil_bound",
    "__version__",
]
