"""Central, T_theta and T*_theta extensions.

A T_theta extension lets a bimodule V act on A⊕V, with theta a 2-cocycle
correction; a central extension is the T_theta extension over the trivial
module (V acted on trivially and fixed pointwise by the extended twists),
and the T*_theta variant is the same construction through the dual
bimodule.  All three build E_θ = A⊕V once and read every condition off one
walk of it (`representation._walk_sum`, named by `algebra._sectors`): the
representation report first, where θ does not enter, then the V-output at
inputs in A, θ's twist compatibility and the cocycle conditions.  A failure
names the violated condition with a witness.  No product with an input in V
has an A-component, so the A-output of the same walk is that of the base
algebra: an accepted E_θ has the validation report of A.
"""

from __future__ import annotations

from .algebra import BiHomAlgebra, _reported
from .cohomology import Cochain
from .errors import InputError, MathCheckError, PreconditionError
from .exactnum import Matrix, Subspace, _sparse_rows, nullspace_of_sparse_rows
from .representation import Representation, RepresentationReport, _walk_sum, adjoint, dual


def annihilator(alg: BiHomAlgebra) -> Subspace:
    """{a : a·A = A·a = 0}, the kernel of every adjoint action, as e_i·a = l(e_i)a and a·e_i = r(e_i)a."""
    ad = adjoint(alg)
    return nullspace_of_sparse_rows(_sparse_rows(row for m in (*ad.l, *ad.r) for row in m.rows), alg.dim)


def _as_cochain2(alg_dim: int, mod_dim: int, tensor) -> Cochain:
    if isinstance(tensor, Cochain):
        if tensor.degree != 2 or tensor.alg_dim != alg_dim or tensor.mod_dim != mod_dim:
            raise InputError("bilinear tensor shape does not match the construction")
        return tensor
    return Cochain.from_nested(2, alg_dim, mod_dim, tensor)


def central_extension(alg: BiHomAlgebra, v_dim: int, omega) -> BiHomAlgebra:
    """(x+u)·(y+v) = x·y + omega(x,y), twists extending alpha/beta by the identity.

    This is the T_theta extension over the trivial module (l = r = 0, identity
    twists on V), checked by the same conditions: invariance under both
    twists, then the left and right conditions, which here polarize
        omega(beta(x)·alpha(x), beta(y)) = omega(alpha beta(x), alpha(x)·y)
        omega(x·beta(y), alpha beta(y)) = omega(alpha(x), beta(y)·alpha(y)).
    """
    if v_dim < 1:
        raise InputError("extension fiber dimension must be positive")
    zero, one = Matrix.zero(v_dim, v_dim), Matrix.identity(v_dim)
    trivial = Representation(alg.dim, v_dim, [zero] * alg.dim, [zero] * alg.dim, one, one)
    return _checked_extension(alg, trivial, omega, _CENTRAL_CONDITIONS)


_CENTRAL_CONDITIONS = {
    "alpha": ("alpha_invariance", "alpha-invariance of omega fails"),
    "beta": ("beta_invariance", "beta-invariance of omega fails"),
    "left": ("left_condition", "left mixed condition on omega fails"),
    "right": ("right_condition", "right mixed condition on omega fails"),
}

_T_THETA_CONDITIONS = {
    "alpha": ("twist_compatibility", "theta is not twist-compatible"),
    "beta": ("twist_compatibility", "theta is not twist-compatible"),
    "left": ("left_cocycle", "left cocycle condition on theta fails"),
    "right": ("right_cocycle", "right cocycle condition on theta fails"),
}


def _checked_extension(alg: BiHomAlgebra, rep: Representation, theta, conditions) -> BiHomAlgebra:
    """E_θ = block_sum(alg, rep, theta), or an error naming the first failure.

    The representation comes first (the `RepresentationReport` of the same
    walk), then the smaller twist witness, α⊕φ first on a tie, then the left
    and the right condition.
    """
    ext, found = _walk_sum(alg, rep, _as_cochain2(alg.dim, rep.mod_dim, theta))
    if not _reported(RepresentationReport, found).ok:
        raise PreconditionError("coefficients are not a valid representation")
    for keys in (("alpha", "beta"), ("left",), ("right",)):
        failed = [(found[key], key) for key in keys if key in found]
        if failed:
            witness, key = min(failed)  # "alpha" < "beta" breaks a tie
            condition, message = conditions[key]
            raise MathCheckError(message, condition=condition, witness=witness)
    return ext


def t_theta_extension(alg: BiHomAlgebra, rep: Representation, theta) -> BiHomAlgebra:
    """(x+u)∘(y+v) = x·y + l(x)v + r(y)u + theta(x,y) on A⊕V, twists alpha+phi, beta+psi; rep must be valid."""
    return _checked_extension(alg, rep, theta, _T_THETA_CONDITIONS)


def t_star_theta_extension(alg: BiHomAlgebra, rep: Representation, theta_star) -> BiHomAlgebra:
    """T_theta extension through the dual bimodule: actions r*, l* on V*.

    The twists of the algebra and of rep must be invertible; theta_star maps
    into V*.
    """
    dual_rep = dual(alg, rep)
    return t_theta_extension(alg, dual_rep, theta_star)
