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

All public values are immutable and all functions pure.
"""

from .exact import (
    CyclotomicNumber,
    IntMatrix,
    Rational,
    cyclotomic_polynomial,
    euler_phi,
    hermite_normal_form,
    kernel_mod,
    root_of_unity_power,
)
from .lie import (
    Basis,
    CartanDatum,
    LatticeElement,
    Root,
    alpha_to_omega,
    bilinear_form,
    cartan_matrix,
    omega_to_alpha,
    positive_roots,
    roots_supported,
    symmetrizers,
)
from .twist import (
    TwistMap,
    apply_phi,
    build_twist,
    c3_parameter_matrix,
    enumerate_valid_twists,
    kbar_exponent,
    ktilde_exponent,
    r_operator,
    require_twist,
    zero_twist,
)
from .cocycle import (
    Bidegree,
    GroupTwoCocycle,
    chi_exponent,
    deformation_exponent,
    sigma_inverse_exponent,
    twist_J,
    twist_J_group_algebra,
)
from .torus import (
    Character,
    SigmaGenerator,
    TorusSubgroup,
    Triple,
    analyze_triple,
    annihilator,
    enumerate_subgroups,
    n_phi_from_sigma,
    s_phi_matrix,
    sigma_order_identity,
    t_hat_I_complement,
    t_phi_I,
    validate_triple,
)
from .datum import (
    INFINITE,
    DualHom,
    FiniteAbelianGroup,
    OpaqueGroup,
    TorusEmbedding,
    TwistedSubgroupDatum,
    datum_equiv,
    datum_leq,
    dim_A,
    dim_H,
    enumerate_triples,
    obstruction_check,
    predicates,
    validate_datum,
)

__version__ = "0.1.0"
