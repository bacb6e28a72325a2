"""Central, T_theta and T*_theta extensions.

A T_theta extension lets a bimodule V act on A⊕V, with theta a 2-cocycle
correction; a central extension is the T_theta extension over the trivial
module (V acted on trivially and fixed pointwise by the extended twists),
and the T*_theta variant is the same construction through the dual
bimodule.  All three check theta against the twists, then read the left and
right cocycle conditions off the algebra they return: they are the V-output
of its two alternative laws at inputs in A, classified on the one law
pairing of `algebra`.  A failure names the violated condition with a
witness.  The other sectors of those laws are the laws of A and the module
axioms, which `validate` and `validate_representation` read off the same
pairing, so the assembled algebra passes the full two-sided validation
whenever the base algebra does.
"""

from __future__ import annotations

from .algebra import BiHomAlgebra, _alternative_witness, _law_failures
from .cohomology import Cochain, twist_witness
from .errors import InputError, MathCheckError, PreconditionError
from .exactnum import Matrix, Subspace, nullspace_of_sparse_rows
from .representation import (
    Representation,
    block_sum,
    dual,
    validate_representation,
)


def annihilator(alg: BiHomAlgebra) -> Subspace:
    """{a : a·A = A·a = 0}, computed as one nullspace."""
    n = alg.dim
    rows = []
    for i in range(n):
        for k in range(n):
            right = {p: alg.mu[p][i][k] for p in range(n) if alg.mu[p][i][k] != 0}
            if right:
                rows.append(right)
            left = {p: alg.mu[i][p][k] for p in range(n) if alg.mu[i][p][k] != 0}
            if left:
                rows.append(left)
    return nullspace_of_sparse_rows(rows, n)


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
    "phi": ("alpha_invariance", "alpha-invariance of omega fails"),
    "psi": ("beta_invariance", "beta-invariance of omega fails"),
    "left": ("left_condition", "left mixed condition on omega fails"),
    "right": ("right_condition", "right mixed condition on omega fails"),
}

_T_THETA_CONDITIONS = {
    "phi": ("twist_compatibility", "theta is not twist-compatible"),
    "psi": ("twist_compatibility", "theta is not twist-compatible"),
    "left": ("left_cocycle", "left cocycle condition on theta fails"),
    "right": ("right_cocycle", "right cocycle condition on theta fails"),
}


def _witnesses(alg: BiHomAlgebra, rep: Representation, theta: Cochain, ext: BiHomAlgebra):
    """Each T_theta condition in checking order, with its first failing basis tuple or None."""
    w_phi = twist_witness(theta, alg.alpha, rep.phi)
    w_psi = twist_witness(theta, alg.beta, rep.psi)
    if w_phi is not None and w_psi is not None and w_psi < w_phi:
        w_phi = None  # the psi failure comes first in basis-pair order
    yield "phi", w_phi
    yield "psi", w_psi
    n = alg.dim
    # the V-output, at inputs in A only
    yield "left", _alternative_witness(ext, False, _law_failures("left", False, n), n).get("left")
    yield "right", _alternative_witness(ext, True, _law_failures("right", True, n), n).get("right")


def _checked_extension(alg: BiHomAlgebra, rep: Representation, theta, conditions) -> BiHomAlgebra:
    """block_sum(alg, rep, theta), or MathCheckError naming the first failed condition."""
    theta = _as_cochain2(alg.dim, rep.mod_dim, theta)
    ext = block_sum(alg, rep, theta)
    for key, witness in _witnesses(alg, rep, theta, ext):
        if witness is not None:
            condition, message = conditions[key]
            raise MathCheckError(message, condition=condition, witness=witness)
    return ext


def t_theta_extension(alg: BiHomAlgebra, rep: Representation, theta) -> BiHomAlgebra:
    """(x+u)∘(y+v) = x·y + l(x)v + r(y)u + theta(x,y) on A⊕V, twists alpha+phi, beta+psi."""
    if not validate_representation(alg, rep).ok:
        raise PreconditionError("coefficients are not a valid representation")
    return _checked_extension(alg, rep, theta, _T_THETA_CONDITIONS)


def t_star_theta_extension(alg: BiHomAlgebra, rep: Representation, theta_star) -> BiHomAlgebra:
    """T_theta extension through the dual bimodule: actions r*, l* on V*.

    The twists of the algebra and of rep must be invertible; theta_star maps
    into V*.
    """
    dual_rep = dual(alg, rep)
    return t_theta_extension(alg, dual_rep, theta_star)
