"""Command-line front end.

One command per invocation; the result is a single JSON report on stdout:

    {"status": "pass" | "fail" | "error", "command": ..., "payload": ..., "diagnostics": [...]}

Exit codes: 0 pass, 1 a mathematical check failed (with witnesses in the
payload), 2 unreadable input, schema violation, unmet precondition or an
argument the command does not read, 3 an internal error (a defect in the
library, reported as "internal error: <Type>: <message>" with no traceback).
Reports carry exact rational strings and no timestamps, so identical inputs
produce byte-identical output.  A result with an integer longer than the
interpreter's digit limit for integer-string conversion is reported as an
error with exit 2, naming its digit count and the limit.  When stdout is a
pipe that nobody reads, the report is dropped silently: nothing goes to
stderr and the exit code is still the report's own.

A process pays only for its verb: this module imports what reading an
algebra needs, and each command imports the rest of the library it runs.
`main()` freezes the heap (`gc.freeze`) on the way out, so the interpreter's
exit does not collect the cycles of every loaded module one by one; exit
handlers and stream flushes still run.  `run()` is the in-process entry
point and freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# fileio needs algebra, exactnum and errors; each command below imports the rest of the library it runs
from . import fileio
from .algebra import validate
from .errors import InputError, MathCheckError, PreconditionError

PASS, FAIL, ERROR, INTERNAL = 0, 1, 2, 3

_KIND_NAMES = {
    "der": "Der",
    "qder": "QDer",
    "gder": "GDer",
    "sgder": "SGDer",
    "cent": "Centroid",
    "qcent": "QuasiCentroid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomalt",
        description="Exact computations on BiHom-alternative algebras given by rational structure constants.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check the defining identities of an algebra file")
    p.add_argument("algebra")

    p = sub.add_parser("rep", help="representation operations")
    p.add_argument("subverb", choices=["validate", "dual", "coadjoint", "semidirect"])
    p.add_argument("algebra")
    p.add_argument("representation", nargs="?")

    p = sub.add_parser("cohomology", help="cocycle/coboundary/cohomology dimensions")
    p.add_argument("--degree", type=int, choices=[2, 3], required=True)
    p.add_argument("algebra")
    p.add_argument("representation", nargs="?")

    p = sub.add_parser("deform", help="formal deformation checks")
    p.add_argument("subverb", choices=["check", "extend", "trivialize"])
    p.add_argument("deformation")
    p.add_argument("--max-order", type=int, default=None)

    p = sub.add_parser("extend", help="central / T / T* extensions")
    p.add_argument("subverb", choices=["central", "ttheta", "tstar"])
    p.add_argument("algebra")
    p.add_argument("cocycle")
    p.add_argument("representation", nargs="?")

    p = sub.add_parser("derivations", help="derivation-type operator spaces")
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("algebra")

    return parser


def _rep_or_adjoint(alg, path):
    from .representation import adjoint

    if path is None:
        return adjoint(alg)
    return fileio.load_representation(path)


def _cmd_validate(args):
    alg = fileio.load_algebra(args.algebra)
    report = validate(alg)
    diagnostics = [
        f"{name} at {tuple(w)}" for name, w in sorted(report.witnesses.items())
    ]
    status = "pass" if report.ok else "fail"
    return status, {"report": report.as_dict()}, diagnostics


def _cmd_rep(args):
    from .representation import _require_valid, dual, semidirect, validate_representation

    alg = fileio.load_algebra(args.algebra)
    if args.subverb == "validate":
        rep = _rep_or_adjoint(alg, args.representation)
        report = validate_representation(alg, rep)
        diagnostics = [f"{name} at {tuple(w)}" for name, w in sorted(report.witnesses.items())]
        return ("pass" if report.ok else "fail"), {"report": report.as_dict()}, diagnostics
    if args.subverb in ("dual", "coadjoint"):
        # the coadjoint is the dual of the adjoint; the dual of an invalid input would be a vacuous pass
        rep = _rep_or_adjoint(alg, args.representation)
        _require_valid(alg, rep, "the dual")
        return "pass", {"representation": fileio.representation_to_json(dual(alg, rep))}, []
    rep = _rep_or_adjoint(alg, args.representation)
    product = semidirect(alg, rep)
    report = validate(product)
    payload = {"algebra": fileio.algebra_to_json(product), "report": report.as_dict()}
    return ("pass" if report.ok else "fail"), payload, []


def _cmd_cohomology(args):
    from .cohomology import complex_report

    alg = fileio.load_algebra(args.algebra)
    rep = _rep_or_adjoint(alg, args.representation)
    report = complex_report(alg, rep, args.degree)
    return "pass", report.as_dict(), []


def _cmd_deform(args):
    from .deformation import TruncatedDeformation, check_deformation, extend_one_order, trivialize

    defm = fileio.load_deformation(args.deformation)
    if args.subverb == "check":
        report = check_deformation(defm)
        diagnostics = [
            f"order {k} fails at {tuple(w)}" for k, w in sorted(report.witnesses.items())
        ]
        return ("pass" if report.ok else "fail"), {"report": report.as_dict()}, diagnostics
    if args.subverb == "extend":
        term = extend_one_order(defm)
        if term is None:
            return "fail", {"extended": False}, ["obstruction class is nonzero"]
        extended = TruncatedDeformation(defm.alg, [*defm.terms, term])
        payload = {
            "extended": True,
            "deformation": fileio.deformation_to_json(extended),
        }
        return "pass", payload, []
    max_order = args.max_order if args.max_order is not None else max(defm.order, 1)
    iso = trivialize(defm, max_order)
    if iso is None:
        return "fail", {"trivial": False, "max_order": max_order}, [
            "a nonzero term is not a degree-2 coboundary"
        ]
    payload = {
        "trivial": True,
        "max_order": max_order,
        "isomorphism": fileio.isomorphism_to_json(iso),
    }
    return "pass", payload, []


def _cmd_extend(args):
    from .extension import central_extension, t_star_theta_extension, t_theta_extension

    alg = fileio.load_algebra(args.algebra)
    cochain, target = fileio.load_cochain(args.cocycle)
    if cochain.degree != 2:
        raise InputError(f"{args.cocycle}: extension cocycles must have degree 2")
    rep = None if args.subverb == "central" else _rep_or_adjoint(alg, args.representation)
    name, expected = {"central": ("central", "module"), "ttheta": ("T", "module"), "tstar": ("T*", "dual")}[args.subverb]
    if target != expected:
        raise InputError(f"{args.cocycle}: {name} extension expects a cocycle with target '{expected}'")
    # a failed extension condition raises MathCheckError, reported by run()
    if args.subverb == "central":
        product = central_extension(alg, cochain.mod_dim, cochain)
    elif args.subverb == "ttheta":
        product = t_theta_extension(alg, rep, cochain)
    else:
        product = t_star_theta_extension(alg, rep, cochain)
    # equal to validate(product): no product with an input in V has an A-component, and every V-output was checked above
    report = validate(alg)
    payload = {
        "accepted": True,
        "algebra": fileio.algebra_to_json(product),
        "report": report.as_dict(),
    }
    return ("pass" if report.ok else "fail"), payload, []


def _cmd_derivations(args):
    from .genderiv import space_of_kind

    alg = fileio.load_algebra(args.algebra)
    space = space_of_kind(alg, _KIND_NAMES[args.kind], args.k, args.l)
    payload = {
        "kind": space.kind,
        "k": args.k,
        "l": args.l,
        "dim": space.dim,
        "basis": [fileio.matrix_to_json(m) for m in space.basis],
    }
    return "pass", payload, []


# the argument each of these commands accepts from its parser but never reads
_UNREAD = {
    "rep coadjoint": "representation",
    "extend central": "representation",
    "deform check": "--max-order",
    "deform extend": "--max-order",
}

_COMMANDS = {
    "validate": _cmd_validate,
    "rep": _cmd_rep,
    "cohomology": _cmd_cohomology,
    "deform": _cmd_deform,
    "extend": _cmd_extend,
    "derivations": _cmd_derivations,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.verb if not hasattr(args, "subverb") else f"{args.verb} {args.subverb}"
    try:
        unread = _UNREAD.get(command)
        value = unread and getattr(args, unread.lstrip("-").replace("-", "_"))
        if value is not None:
            raise InputError(f"{command} takes no {unread} argument (got {value})")
        status, payload, diagnostics = _COMMANDS[args.verb](args)
        code = PASS if status == "pass" else FAIL
    except (InputError, PreconditionError) as exc:
        status, payload, diagnostics, code = "error", {}, [str(exc)], ERROR
    except MathCheckError as exc:
        payload = {
            "accepted": False,
            "condition": exc.condition,
            "witness": list(exc.witness) if isinstance(exc.witness, (tuple, list)) else exc.witness,
        }
        status, diagnostics, code = "fail", [str(exc)], FAIL
    except Exception as exc:  # InternalError or any other defect: one report, no traceback
        status, payload, code = "error", {}, INTERNAL
        diagnostics = [f"internal error: {type(exc).__name__}: {exc}"]
    report = {
        "status": status,
        "command": command,
        "payload": payload,
        "diagnostics": diagnostics,
    }
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # nobody reads the report: send what is left to devnull, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main():
    try:
        sys.exit(run(sys.argv[1:]))
    finally:
        # the exit then skips collecting every loaded module's cycles; atexit handlers and flushes still run
        gc.freeze()


if __name__ == "__main__":
    main()
