"""The package's public surface, pinned so a stale export or an unused knob
cannot creep back unnoticed."""

from __future__ import annotations

import inspect

import lenshf


def test_public_surface_is_exactly_the_solver_kernel():
    assert sorted(lenshf.__all__) == [
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
    for name in lenshf.__all__:
        getattr(lenshf, name)
    signatures = {
        "is_prime": ["m"],
        "factor": ["m", "stop"],
        "find_prime_shift": ["lens", "pair"],
        "solve_n2": ["lens", "fact"],
        "solve_n3": ["lens"],
        "minimal_planar_boundaries": ["lens", "fact"],
    }
    for name, params in signatures.items():
        assert list(inspect.signature(getattr(lenshf, name)).parameters) == params, name
    for name, option in (("solve_n2", "fact"), ("minimal_planar_boundaries", "fact"), ("factor", "stop")):
        param = inspect.signature(getattr(lenshf, name)).parameters[option]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY and param.default is None, name
