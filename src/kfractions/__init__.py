"""kfractions: a desk-scale laboratory for Kloosterman sums and the
trilinear/bilinear forms built from Kloosterman fractions a*mbar/n.

The package exports its submodules only; import each name from its submodule
(``from kfractions.ksums import kloosterman_brute``).

Integers enter by one rule, `arith.as_int`: specs, kernels, suites and searches
make each integer argument (numpy's too, never a bool) a Python int once and
refuse 7.5, nan, inf or a value out of range by a ValueError naming it, as
`arith.as_ints` does arrays and `arith.as_nonneg` eps.  Before a step runs,
`arith.check_bytes` holds it to `BYTE_CAP` and `check_int64` to the int64 range.

Submodules
----------
arith       exact integer and mod-1 rational arithmetic, reciprocity identities
ksums       complete Kloosterman sums in batches at one c or one c per element: kloosterman_batch and
            kloosterman_fast_batch (block-major); kloosterman_brute and kloosterman_fast are
            their one-element cases; Weil; inverses_mod
characters  the unit group's grid (unit_grid: units in grid order, no inverse array; grid_index:
            residues to grid points for many moduli) and Dirichlet characters as its frequencies
incomplete  incomplete sums with side conditions, bound envelopes, completion majorant
forms       the phase tensor, extremal search, bound envelopes, amplifier machinery
apps        determinant-equation counts and equidistribution of a0/m fractions
verify      one verification suite per experiment subcommand
records     experiment records, CSV/JSON persistence, seed derivation
cli         the `kfractions` command-line runner
"""

from . import apps, arith, characters, forms, incomplete, ksums, records, verify

__version__ = "0.1.0"

__all__ = ["apps", "arith", "characters", "forms", "incomplete", "ksums", "records", "verify", "__version__"]
