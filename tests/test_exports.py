"""The package's public surface, pinned so a stale export or an unused knob
cannot creep back unnoticed."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

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


def test_the_package_ships_only_what_the_library_and_the_cli_run():
    # the brute-force oracles are test code and live in tests/oracle.py
    assert sorted(info.name for info in pkgutil.iter_modules(lenshf.__path__)) == [
        "__main__", "cli", "errors", "lens", "numtheory", "quadform", "solver", "witness",
    ]


def _annotated_callables(module):
    """Each function and each method of each class defined in module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr):
                    yield attr.__qualname__, attr


def test_every_annotation_resolves():
    # annotations are strings (from __future__ import annotations), so a name
    # missing from a module shows only when something evaluates them
    checked, unresolved = 0, []
    for info in pkgutil.iter_modules(lenshf.__path__):
        module = importlib.import_module(f"lenshf.{info.name}")
        for qualname, func in _annotated_callables(module):
            checked += 1
            try:
                typing.get_type_hints(func)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{qualname}: {exc}")
    assert checked > 50 and not unresolved, unresolved
