"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.installed()` replaces each public function of every bihomalt module,
in every module namespace that binds it (so `bihomalt.cohomology.rank_nullspace`
and `bihomalt.exactnum.rank_nullspace` are both wrapped), plus a few methods.
Each call becomes a span kept in memory: name, start, end, parent span and job
id.  A layer is the module that defines the function.  Argument and result
sizes (matrix shapes, non-zero counts, ranks, bit lengths) are taken by probes
whose own time is measured and left out of every span's self time.

The per-element primitives (`Cochain.evaluate`, `BiHomAlgebra.product`,
`Matrix.apply` and the vector helpers below) are never wrapped: they run
millions of times per job, and wrapping them would measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from fractions import Fraction

LAYERS = ("cli", "fileio", "algebra", "representation", "cohomology", "exactnum", "deformation", "extension", "genderiv")

PER_ELEMENT = {
    "exactnum.parse_rational",
    "exactnum.format_rational",
    "exactnum.vector",
    "exactnum.zero_vector",
    "exactnum.unit_vector",
    "exactnum.vec_add",
    "exactnum.vec_sub",
    "exactnum.vec_scale",
    "exactnum.vec_is_zero",
    "exactnum.support",
    "algebra.apply_bilinear",
    "algebra.associator",
}

# methods worth a span of their own: (module, class, method)
METHODS = (
    ("exactnum", "Matrix", "inverse"),
    ("exactnum", "Matrix", "power"),
    ("exactnum", "Subspace", "coefficients_of"),
    ("exactnum", "Subspace", "from_spanning"),
    ("exactnum", "Subspace", "intersection"),
)

# functions with a self-time metric of their own, by span name -> metric stem.
# A named function's self time also takes in the unnamed same-layer helpers it
# calls (for instance space_of_kind takes in derivation_space and friends).
NAMED = {
    "cohomology.delta_matrix_on_basis": "cohomology.delta_matrix_on_basis",
    "cohomology.complex_report": "cohomology.complex_report",
    "cohomology.cochain_space": "cohomology.cochain_space",
    "exactnum.rank_nullspace": "exactnum.rank_nullspace",
    "exactnum.nullspace_of_sparse_rows": "exactnum.nullspace_of_sparse_rows",
    "exactnum.solve": "exactnum.solve",
    "exactnum.Subspace.coefficients_of": "exactnum.Subspace.coefficients_of",
    "deformation.check_deformation": "deformation.check_deformation",
    "deformation.gauge": "deformation.gauge",
    "deformation.trivialize": "deformation.trivialize",
    "deformation.extend_one_order": "deformation.extend_one_order",
    "genderiv.space_of_kind": "genderiv.space_of_kind",
    "algebra.validate": "algebra.validate",
    "representation.validate_representation": "representation.validate_representation",
    "fileio.load_algebra": "fileio.load",
    "fileio.load_representation": "fileio.load",
    "fileio.load_cochain": "fileio.load",
    "fileio.load_deformation": "fileio.load",
    "fileio.algebra_to_json": "fileio.dump",
    "fileio.representation_to_json": "fileio.dump",
    "fileio.cochain_to_json": "fileio.dump",
    "fileio.deformation_to_json": "fileio.dump",
    "fileio.isomorphism_to_json": "fileio.dump",
    "fileio.matrix_to_json": "fileio.dump",
}

COUNTED = ("exactnum.rank_nullspace", "exactnum.nullspace_of_sparse_rows", "exactnum.solve", "exactnum.Subspace.coefficients_of")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "probe_s", "stats")

    def __init__(self, name, layer, parent, job):
        self.name, self.layer, self.parent, self.job = name, layer, parent, job
        self.start = self.end = 0.0
        self.probe_s = 0.0
        self.stats = None

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "probe_s": self.probe_s,
            "stats": self.stats,
        }


# -- argument / result probes --------------------------------------------------------------


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _scan(values):
    """(non-zero count, largest bit length) over an iterable of Fractions."""
    nnz = bits = 0
    for x in values:
        if x:
            nnz += 1
            b = _bits(x)
            if b > bits:
                bits = b
    return nnz, bits


def _matrix_entries(m):
    return (x for row in m.rows for x in row)


def _subspace_entries(s):
    return (x for v in s.basis for x in v)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None
        self.solve_lhs: set = set()
        self.probe_s = 0.0  # all probe time, root spans' probes included
        self._basis_scan: dict = {}  # id(Subspace) -> (subspace, (nnz, bits))

    # -- wrapping ---------------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, layer, parent, tracer.job)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if probe is not None:
                t0 = time.perf_counter()
                span.stats = probe(tracer, args, kwargs, result)
                spent = time.perf_counter() - t0
                tracer.probe_s += spent
                # the probe ran inside the parent's interval: keep it out of its self time
                if parent is not None:
                    tracer.spans[parent].probe_s += spent
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function and the listed methods; restore them on exit."""
        import bihomalt

        modules = [bihomalt] + [importlib.import_module(f"bihomalt.{m}") for m in LAYERS]
        wrappers = {}
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("bihomalt."):
                    continue
                layer = owner.split(".", 1)[1]
                name = f"{layer}.{obj.__name__}"
                if layer not in LAYERS or name in PER_ELEMENT:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, layer, obj)
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"bihomalt.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            patched.append((cls, meth, raw))
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self._wrap(name, layer, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, layer, raw))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- accounting -----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations and the probes run inside it."""
        own = [s.end - s.start - s.probe_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def traced_wall(self) -> float:
        """Time inside root spans, net of probe time: the quantity the self times partition."""
        return sum(s.end - s.start for s in self.spans if s.parent is None) - sum(s.probe_s for s in self.spans)

    def _owner(self, index):
        """The named function a span's self time is credited to, if any."""
        span = self.spans[index]
        while True:
            if span.name in NAMED:
                return NAMED[span.name]
            if span.parent is None or self.spans[span.parent].layer != span.layer:
                return None
            span = self.spans[span.parent]

    def metrics(self) -> dict:
        own = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for stem in set(NAMED.values()):
            out[f"{stem}.self_s"] = 0.0
        for name in COUNTED:
            out[f"{name}.calls"] = 0
            out[f"{name}.nnz_in"] = 0
        out.update(
            {
                "cohomology.delta_matrix_on_basis.entries": 0,
                "cohomology.delta_matrix_on_basis.nnz": 0,
                "cohomology.cochain_space.rows": 0,
                "cohomology.cochain_space.unknowns": 0,
                "exactnum.rank": 0,
                "exactnum.max_bits": 0,
                "deformation.diamond.calls": 0,
                "genderiv.space_of_kind.unknowns": 0,
            }
        )
        for i, span in enumerate(self.spans):
            out[f"{span.layer}.self_s"] += own[i]
            out[f"{span.layer}.calls"] += 1
            owner = self._owner(i)
            if owner is not None:
                out[f"{owner}.self_s"] += own[i]
            if span.name in COUNTED:
                out[f"{span.name}.calls"] += 1
            if span.name == "deformation.diamond":
                out["deformation.diamond.calls"] += 1
            stats = span.stats or {}
            for key, value in stats.items():
                if key == "bits":
                    out["exactnum.max_bits"] = max(out["exactnum.max_bits"], value)
                elif key == "rank":
                    out["exactnum.rank"] += value
                elif key == "nnz_in":
                    out[f"{span.name}.nnz_in"] += value
                elif key == "unknowns" and span.name == "exactnum.nullspace_of_sparse_rows":
                    if self._under(i, "genderiv.space_of_kind"):
                        out["genderiv.space_of_kind.unknowns"] += value
                else:
                    out[f"{span.name}.{key}"] += value
        solves = out["exactnum.solve.calls"]
        out["exactnum.solve.lhs_distinct_frac"] = len(self.solve_lhs) / solves if solves else 0.0
        return out

    def _under(self, index, name):
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def _basis_stats(self, subspace):
        hit = self._basis_scan.get(id(subspace))
        if hit is None or hit[0] is not subspace:
            hit = (subspace, _scan(_subspace_entries(subspace)))
            self._basis_scan[id(subspace)] = hit
        return hit[1]


def _probe_delta_matrix(tracer, args, kwargs, result):
    matrix = result[0]
    nnz, _ = _scan(_matrix_entries(matrix))
    return {"entries": matrix.nrows * matrix.ncols, "nnz": nnz}


def _probe_cochain_space(tracer, args, kwargs, result):
    alg, rep, degree = args[:3]
    unknowns = rep.mod_dim * alg.dim**degree
    return {"rows": 2 * unknowns, "unknowns": unknowns}


def _probe_rank_nullspace(tracer, args, kwargs, result):
    nnz, bits_in = _scan(_matrix_entries(args[0]))
    rank, kernel = result
    _, bits_out = _scan(_subspace_entries(kernel))
    return {"nnz_in": nnz, "rank": rank, "bits": max(bits_in, bits_out)}


def _probe_nullspace_rows(tracer, args, kwargs, result):
    rows, ncols = args[0], args[1] if len(args) > 1 else kwargs["ncols"]
    nnz, bits_in = _scan(x for row in rows for x in row.values())
    _, bits_out = _scan(_subspace_entries(result))
    return {"nnz_in": nnz, "rank": ncols - result.dim, "unknowns": ncols, "bits": max(bits_in, bits_out)}


def _probe_solve(tracer, args, kwargs, result):
    m, b = args[0], args[1]
    nnz_m, bits_m = _scan(_matrix_entries(m))
    nnz_b, bits_b = _scan(Fraction(x) for x in b)
    tracer.solve_lhs.add((m.nrows, m.ncols, hash(m)))
    bits_out = _scan(result)[1] if result is not None else 0
    return {"nnz_in": nnz_m + nnz_b, "bits": max(bits_m, bits_b, bits_out)}


def _probe_coefficients_of(tracer, args, kwargs, result):
    subspace, v = args[0], args[1]
    nnz_basis, bits_basis = tracer._basis_stats(subspace)
    nnz_v, bits_v = _scan(Fraction(x) for x in v)
    bits_out = _scan(result)[1] if result is not None else 0
    return {"nnz_in": nnz_basis + nnz_v, "bits": max(bits_basis, bits_v, bits_out)}


_PROBES = {
    "cohomology.delta_matrix_on_basis": _probe_delta_matrix,
    "cohomology.cochain_space": _probe_cochain_space,
    "exactnum.rank_nullspace": _probe_rank_nullspace,
    "exactnum.nullspace_of_sparse_rows": _probe_nullspace_rows,
    "exactnum.solve": _probe_solve,
    "exactnum.Subspace.coefficients_of": _probe_coefficients_of,
}


def span_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds a span adds to one call: a wrapped no-op timed against the bare no-op, median of rounds."""

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration.noop", "calibration", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return sorted(costs)[rounds // 2]


def per_layer_names() -> list[str]:
    """Every metric `Tracer.metrics` emits, plus the two the traced run adds."""
    return sorted(Tracer().metrics()) + ["cli.import_s", "trace.overhead_frac"]


def summarize(tracers) -> dict:
    """Median self times and the first pass's counts over several traced passes."""
    per_pass = [t.metrics() for t in tracers]
    out = {}
    for key in per_pass[0]:
        values = sorted(p[key] for p in per_pass)
        out[key] = values[len(values) // 2] if key.endswith("_s") else per_pass[0][key]
    return out
