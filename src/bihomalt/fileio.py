"""JSON file formats and their (de)serialization.

  .bha  algebra       {"dim", "mu", "alpha", "beta"}
  .bhr  representation {"alg_dim", "mod_dim", "l", "r", "phi", "psi"}
  .bhc  cochain       {"degree", "alg_dim", "mod_dim", "tensor"[, "target"]}
  .bhd  deformation   {"algebra": <.bha object>, "terms": [tensor, ...]}

Every scalar is a rational literal: an integer or a string "p" / "p/q" with
q > 0.  mu[i][j][k] is the e_k-coefficient of e_i·e_j; matrices are row-major
and act on column coordinate vectors; cochain tensors nest by input index
with the output coordinates innermost.  Emitted documents always use string
literals, so byte-identical output is reproducible.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .algebra import BiHomAlgebra
from .errors import InputError
from .exactnum import Matrix, format_rational, parse_rational

if TYPE_CHECKING:  # the parsers import these themselves, so loading an algebra loads no other module
    from .cohomology import Cochain
    from .deformation import FormalIsomorphism, TruncatedDeformation
    from .representation import Representation


def _fail(path: str, message: str):
    raise InputError(f"{path}: {message}")


def _expect_dict(obj, path: str, keys) -> dict:
    """obj as a JSON object holding every one of keys; the first one missing is named."""
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    for key in keys:
        if key not in obj:
            _fail(path, f"missing key {key!r}")
    return obj


def _expect_list(obj, path: str, length=None) -> list:
    if not isinstance(obj, list):
        _fail(path, "expected a JSON array")
    if length is not None and len(obj) != length:
        _fail(path, f"expected {length} entries, found {len(obj)}")
    return obj


def _expect_int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        _fail(path, "expected an integer")
    return obj


def _scalars(items: list, path: str) -> list:
    """Each entry of a JSON array parsed as a rational; a bad one is named as path[k]."""
    out = []
    for k, e in enumerate(items):
        try:
            out.append(parse_rational(e))
        except InputError as exc:
            _fail(f"{path}[{k}]", str(exc))  # the path is built only for the entry that fails
    return out


def _rationals(obj, path: str, shape) -> list:
    """A nested JSON array of rationals as nested lists, of length shape[k] at depth k (None: any)."""
    items = _expect_list(obj, path, shape[0])
    if len(shape) == 1:
        return _scalars(items, path)
    return [_rationals(child, f"{path}[{i}]", shape[1:]) for i, child in enumerate(items)]


def _literals(node) -> list:
    """A nested array of rationals as the same nesting of string literals."""
    if node and isinstance(node[0], (list, tuple)):
        return [_literals(child) for child in node]
    return [format_rational(e) for e in node]


def parse_matrix(obj, path: str, nrows: int, ncols: int) -> Matrix:
    return Matrix(_rationals(obj, path, (nrows, ncols)))


def matrix_to_json(m: Matrix) -> list:
    return _literals(m.rows)


def parse_algebra(obj: Any, path: str = "algebra") -> BiHomAlgebra:
    obj = _expect_dict(obj, path, ("dim", "mu", "alpha", "beta"))
    dim = _expect_int(obj["dim"], f"{path}.dim")
    if dim < 1:
        _fail(f"{path}.dim", "must be positive")
    mu = _rationals(obj["mu"], f"{path}.mu", (dim, dim, dim))
    alpha = parse_matrix(obj["alpha"], f"{path}.alpha", dim, dim)
    beta = parse_matrix(obj["beta"], f"{path}.beta", dim, dim)
    return BiHomAlgebra(dim, mu, alpha, beta)


def algebra_to_json(alg: BiHomAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "mu": _literals(alg.mu),
        "alpha": matrix_to_json(alg.alpha),
        "beta": matrix_to_json(alg.beta),
    }


def parse_representation(obj: Any, path: str = "representation") -> Representation:
    from .representation import Representation

    obj = _expect_dict(obj, path, ("alg_dim", "mod_dim", "l", "r", "phi", "psi"))
    n = _expect_int(obj["alg_dim"], f"{path}.alg_dim")
    m = _expect_int(obj["mod_dim"], f"{path}.mod_dim")
    if n < 1 or m < 1:
        _fail(path, "dimensions must be positive")
    for key in ("l", "r"):  # both action lists are checked before any of their entries
        _expect_list(obj[key], f"{path}.{key}", n)
    l, r = ([Matrix(rows) for rows in _rationals(obj[key], f"{path}.{key}", (n, m, m))] for key in ("l", "r"))
    phi = parse_matrix(obj["phi"], f"{path}.phi", m, m)
    psi = parse_matrix(obj["psi"], f"{path}.psi", m, m)
    return Representation(n, m, l, r, phi, psi)


def representation_to_json(rep: Representation) -> dict:
    return {
        "alg_dim": rep.alg_dim,
        "mod_dim": rep.mod_dim,
        "l": _literals([m.rows for m in rep.l]),
        "r": _literals([m.rows for m in rep.r]),
        "phi": matrix_to_json(rep.phi),
        "psi": matrix_to_json(rep.psi),
    }


def parse_cochain(obj: Any, path: str = "cochain") -> tuple[Cochain, str]:
    """Returns the cochain and its target tag ("module" or "dual")."""
    from .cohomology import Cochain

    obj = _expect_dict(obj, path, ("degree", "alg_dim", "mod_dim", "tensor"))
    degree = _expect_int(obj["degree"], f"{path}.degree")
    n = _expect_int(obj["alg_dim"], f"{path}.alg_dim")
    m = _expect_int(obj["mod_dim"], f"{path}.mod_dim")
    if degree < 1 or degree > 4:
        _fail(f"{path}.degree", "must be between 1 and 4")
    if n < 1 or m < 1:
        _fail(path, "dimensions must be positive")
    target = obj.get("target", "module")
    if target not in ("module", "dual"):
        _fail(f"{path}.target", "must be 'module' or 'dual'")
    tensor = _rationals(obj["tensor"], f"{path}.tensor", (n,) * degree + (m,))
    return Cochain.from_nested(degree, n, m, tensor), target


def parse_deformation(obj: Any, path: str = "deformation") -> TruncatedDeformation:
    from .cohomology import Cochain
    from .deformation import TruncatedDeformation

    obj = _expect_dict(obj, path, ("algebra", "terms"))
    alg = parse_algebra(obj["algebra"], f"{path}.algebra")
    n = alg.dim
    terms = _rationals(obj["terms"], f"{path}.terms", (None, n, n, n))
    return TruncatedDeformation(alg, [Cochain.from_nested(2, n, n, t) for t in terms])


def deformation_to_json(defm: TruncatedDeformation) -> dict:
    return {
        "algebra": algebra_to_json(defm.alg),
        "terms": _literals([t.nested() for t in defm.terms]),
    }


def isomorphism_to_json(iso: FormalIsomorphism) -> dict:
    return {"terms": _literals([m.rows for m in iso.terms])}


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # e.g. an integer literal beyond the digit limit
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def load_algebra(path: str) -> BiHomAlgebra:
    return parse_algebra(load_json_file(path), path)


def load_representation(path: str) -> Representation:
    return parse_representation(load_json_file(path), path)


def load_cochain(path: str) -> tuple[Cochain, str]:
    return parse_cochain(load_json_file(path), path)


def load_deformation(path: str) -> TruncatedDeformation:
    return parse_deformation(load_json_file(path), path)
