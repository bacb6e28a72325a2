"""Exact-arithmetic toolkit for finite-dimensional BiHom-alternative algebras."""

from .algebra import (
    AlgebraMap,
    AlgebraReport,
    BiHomAlgebra,
    associator,
    is_morphism,
    validate,
    yau_twist,
)
from .cohomology import Cochain, ComplexReport, cochain_space, complex_report, delta1, delta2, delta3
from .deformation import (
    DeformationReport,
    FormalIsomorphism,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    diamond,
    extend_one_order,
    gauge,
    null_deformation,
    obstruction,
    trivialize,
)
from .errors import BihomError, InputError, InternalError, MathCheckError, PreconditionError
from .exactnum import Matrix, Scalar, Subspace, rank_nullspace, solve, subspace_ops
from .extension import (
    annihilator,
    central_extension,
    t_star_theta_extension,
    t_theta_extension,
)
from .genderiv import (
    OperatorSpace,
    TwistExponents,
    bracket,
    centroid_space,
    commutant,
    derivation_space,
    generalized_derivation_space,
    quasi_centroid_space,
    quasi_derivation_space,
    sgder_decompose,
    sgder_space,
)
from .representation import (
    Representation,
    RepresentationReport,
    adjoint,
    coadjoint,
    dual,
    semidirect,
    validate_representation,
)

__version__ = "0.1.0"
