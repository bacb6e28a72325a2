"""Exact-arithmetic toolkit for finite-dimensional BiHom-alternative algebras.

Every public name below is loaded from its submodule on first use (PEP 562), so
`import bihomalt` and the CLI import only the modules they read; `from bihomalt
import validate` and `import bihomalt; bihomalt.validate` work as before.
"""

import importlib

# submodule -> the names it exports here
_EXPORTS = {
    "algebra": ("AlgebraMap", "AlgebraReport", "BiHomAlgebra", "associator", "is_morphism", "validate", "yau_twist"),
    "cohomology": ("Cochain", "ComplexReport", "cochain_space", "complex_report", "delta1", "delta2", "delta3"),
    "deformation": (
        "DeformationReport",
        "FormalIsomorphism",
        "TruncatedDeformation",
        "check_deformation",
        "check_equivalence",
        "diamond",
        "extend_one_order",
        "gauge",
        "null_deformation",
        "obstruction",
        "trivialize",
    ),
    "errors": ("BihomError", "InputError", "InternalError", "MathCheckError", "PreconditionError"),
    "exactnum": ("Matrix", "Scalar", "Subspace", "rank_nullspace", "solve", "subspace_ops"),
    "extension": ("annihilator", "central_extension", "t_star_theta_extension", "t_theta_extension"),
    "genderiv": (
        "OperatorSpace",
        "TwistExponents",
        "bracket",
        "centroid_space",
        "commutant",
        "derivation_space",
        "generalized_derivation_space",
        "quasi_centroid_space",
        "quasi_derivation_space",
        "sgder_decompose",
        "sgder_space",
    ),
    "representation": (
        "Representation",
        "RepresentationReport",
        "adjoint",
        "coadjoint",
        "dual",
        "semidirect",
        "validate_representation",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
