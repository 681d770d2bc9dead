"""Orthogonally a-Jensen mappings on finite Hilbert C*-modules.

The package builds block matrix C*-algebras and free modules over them,
samples orthogonal vector pairs, checks the Jensen functional equation and
the identities it implies, and solves the a-biadditive kernel. The decompose
command prints, for one mapping label, the entries verify gives it for the
decomposition checks (DECOMPOSE_CHECKS); it does not split the mapping.
"""
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    ModuleSpace,
    ModuleVector,
    act,
    adjoint,
    module_norm,
    unit,
    validate_coefficient,
    vec_add,
    vec_neg,
    vec_residual,
    vec_scale,
    vec_sub,
    vector_from_obj,
    zero,
)
from .hilbert import (
    disjoint_support_sampler,
    inner_product,
    sample_pairs,
    sample_vector,
)
from .identities import (
    CHECK_IDS,
    check_orthogonal_jensen,
)
from .mappings import (
    Linear,
    Mapping,
    compose_jensen,
    inclusion_pair,
    interleave_pair,
    kernel_constraint_residual,
    mapping_from_obj,
    solve_abiadditive_kernel,
    validate_pair,
)

__version__ = "0.13.0"

__all__ = [
    "AlgebraElement",
    "AlgebraShape",
    "CHECK_IDS",
    "Linear",
    "Mapping",
    "ModuleSpace",
    "ModuleVector",
    "act",
    "adjoint",
    "check_orthogonal_jensen",
    "compose_jensen",
    "disjoint_support_sampler",
    "inclusion_pair",
    "inner_product",
    "interleave_pair",
    "kernel_constraint_residual",
    "mapping_from_obj",
    "module_norm",
    "sample_pairs",
    "sample_vector",
    "solve_abiadditive_kernel",
    "unit",
    "validate_coefficient",
    "validate_pair",
    "vec_add",
    "vec_neg",
    "vec_residual",
    "vec_scale",
    "vec_sub",
    "vector_from_obj",
    "zero",
]
