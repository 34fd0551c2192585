"""Exact certificates for minimal planar homologically fibered surfaces in lens spaces."""

from .errors import DomainError, IntegrityError, NotInvertibleError, ResourceError
from .lens import (
    NOT_A_LENS_SPACE,
    THREE_SPHERE,
    BezoutPair,
    LensSpace,
    SpecialCase,
    bezout,
    normalize,
    same_homeomorphism_class,
)
from .numtheory import (
    Factorization,
    factor,
    is_prime,
    jacobi,
    mod_inv,
    sqrt_mod,
    sqrt_mod_prime,
)
from .quadform import QuadForm, construct_representing_form, solvable_congruence
from .solver import (
    ConstructionTrace,
    PrimeShift,
    find_prime_shift,
    minimal_planar_boundaries,
    solve_n2,
    solve_n3,
)
from .witness import (
    Certificate,
    Witness,
    assemble_matrix,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    det_exact,
    pad,
    verify,
)

__version__ = "0.16.0"

__all__ = [
    "BezoutPair",
    "Certificate",
    "ConstructionTrace",
    "DomainError",
    "Factorization",
    "IntegrityError",
    "LensSpace",
    "NOT_A_LENS_SPACE",
    "NotInvertibleError",
    "PrimeShift",
    "QuadForm",
    "ResourceError",
    "SpecialCase",
    "THREE_SPHERE",
    "Witness",
    "assemble_matrix",
    "bezout",
    "certificate_from_dict",
    "certificate_from_json",
    "certificate_to_dict",
    "certificate_to_json",
    "construct_representing_form",
    "det_exact",
    "factor",
    "find_prime_shift",
    "is_prime",
    "jacobi",
    "minimal_planar_boundaries",
    "mod_inv",
    "normalize",
    "pad",
    "same_homeomorphism_class",
    "solvable_congruence",
    "solve_n2",
    "solve_n3",
    "sqrt_mod",
    "sqrt_mod_prime",
    "verify",
]
