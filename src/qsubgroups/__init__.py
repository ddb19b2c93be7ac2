"""Exact computation of quantum subgroup data for twisted multiparameter
quantum groups at odd roots of unity.

The package is organized bottom-up:

    exact    rationals, the cyclotomic field Q(eps), the Hermite normal
             form mod ell, kernels and linear systems over Z/ell
    lie      Cartan matrices, weight/root lattices, the invariant form,
             positive roots
    twist    the twisting map phi, its validation and derived operators
    cocycle  deformation exponents, the dual-group 2-cocycle and its
             group-algebra realization
    torus    subgroups and characters of (Z/ell)^n, kernels and
             annihilators, Hopf-subalgebra triples
    datum    twisted subgroup data, dimensions, partial order,
             enumeration and structural predicates
    cli      machine-readable command-line front end

All public values are immutable and all functions pure.  The package
re-exports each module's __all__, the one list of its public names.
"""

from .exact import *
from .lie import *
from .twist import *
from .cocycle import *
from .torus import *
from .datum import *

__version__ = "0.1.0"
