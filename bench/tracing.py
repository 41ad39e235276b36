"""Span tracing and operation counting for in-process ``pca`` runs.

The wrappers live here, in the benchmark, and are installed from outside
around each layer's public functions and the public methods of its
classes; nothing under ``src/`` is edited.  A module that did
``from .linalg import solve`` holds its own reference, so a wrapper is
bound under the name in every ``pca.*`` namespace that bound the original.
``uninstall`` puts every original back, so untraced passes run unwrapped
code.

Spans are kept in memory as ``[layer, name, start, end, parent, job,
bookkeeping seconds]`` lists and written out by the caller after the
traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "fileio", "algebra", "linalg", "poly", "radical",
          "wedderburn", "separability", "malcev", "tower")

# spans whose inclusive time is the load-time and derived-object validation
VALIDATORS = {"FinAlg.verify", "AlgHom.verify", "Ideal.__init__"}
# calls whose matrix argument is measured
SHAPED = {"rref", "nullspace", "solve", "solve_many"}
FIELD_OPS = ("add", "sub", "mul", "inv", "div")
FIELD_CLASSES = {"Rationals": "rationals", "PrimeField": "primefield",
                 "RationalFunctionField": "ratfunc",
                 "SimpleExtension": "extension"}

# Methods called so often, for so little work each, that a span around
# them would cost more than the work and swamp the timings; their time
# counts to the calling layer.
UNTRACED_METHODS = {
    "FinAlg": {"zero_element", "basis_element", "add", "sub", "scale",
               "mul", "product_basis", "trace_left_mult"},
    "Matrix": {"column", "columns", "apply"},
    "Subspace": {"is_zero", "reduce", "contains", "coords", "from_coords"},
    "Poly": {"is_zero", "lc"},
}
UNTRACED_FUNCTIONS = {"vec_add", "vec_sub", "vec_neg", "vec_scale",
                      "vec_is_zero", "zero_vec", "unit_vec"}


def _pca_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "pca" or name.startswith("pca.")]


def _targets():
    """(layer, qualified name, owner, attribute) of each traced callable.

    The owner is the defining module for functions and the class for
    methods; module-level functions are also rebound in other modules."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"pca.{layer}")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj) and name not in UNTRACED_FUNCTIONS:
                out.append((layer, name, mod, name))
            elif inspect.isclass(obj):
                skip = UNTRACED_METHODS.get(name, set())
                for attr, member in sorted(vars(obj).items()):
                    if attr in skip or (attr.startswith("_")
                                        and attr != "__init__"):
                        continue
                    if inspect.isfunction(member):
                        out.append((layer, f"{name}.{attr}", obj, attr))
    return out


class Tracer:
    """Records one span per traced call, plus the layer counters that
    need a look at arguments or results."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counters = {}
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        targets = _targets()          # imports every layer first
        modules = _pca_modules()
        for layer, qual, owner, attr in targets:
            original = vars(owner)[attr]
            wrapped = self._wrap(layer, qual, original)
            if inspect.isclass(owner):
                self._rebind(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, name, original, wrapped)

    def _rebind(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, qual, fn):
        before, after = self._hooks().get(qual, (None, None))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, qual, clock(), 0.0, stack[-1] if stack else -1,
                    self.job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                args = before(args)
                span[6] = clock() - span[2]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
                # bookkeeping after the call is charged to no layer
                span[6] += clock() - span[3]
                span[3] = clock()
            return result
        return traced

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _shape(self, field, rows, cols):
        parent = self.spans[self.stack[-2]][1] if len(self.stack) > 1 else ""
        if parent in SHAPED:
            return        # already counted at the outer call
        self.peak("linalg.max_rows", len(rows))
        self.peak("linalg.max_cols", cols)
        is_zero = field.is_zero
        self.count("linalg.nnz_in",
                   sum(1 for r in rows for c in r if not is_zero(c)))

    def _hooks(self):
        """qualified name -> (before, after); ``before`` sees and may
        replace the arguments, ``after`` sees arguments and result."""
        def matrix_arg(args):
            M = args[0]
            self._shape(M.field, M.data, M.cols)
            return args

        def subspace_init(args):
            if len(args) < 4:
                return args
            # materialize the vectors so an iterator is not used up here
            obj, field, ambient, vectors, *rest = args
            vectors = [tuple(v) for v in vectors]
            self._shape(field, vectors, ambient)
            return (obj, field, ambient, vectors, *rest)

        def bytes_in(args):
            self.count("fileio.bytes_in", os.path.getsize(args[0]))
            return args

        def bytes_out(args, _):
            self.count("fileio.bytes_out", os.path.getsize(args[0]))

        def radical_method(_, result):
            self.count(f"radical.{result.method}")

        hooks = {name: (matrix_arg, None) for name in SHAPED}
        hooks.update({"Subspace.__init__": (subspace_init, None),
                      "load_json": (bytes_in, None),
                      "digest_file": (bytes_in, None),
                      "save_canonical": (None, bytes_out),
                      "radical": (None, radical_method)})
        return hooks


def summarize(spans, wall):
    """Per-layer self time and call counts, validation and render time,
    and the part of the wall time that no layer accounts for.

    A span's self time is its duration minus its children's durations and
    minus the tracer's own bookkeeping in it.  Children of one span never
    overlap because the program has one thread, so the self times and the
    unattributed remainder add up to ``wall``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    out = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("self_s", "calls")}
    validate = render = 0.0
    validate_calls = 0
    for i, (layer, qual, start, end, parent, _, hook) in enumerate(spans):
        out[f"{layer}.self_s"] += (end - start) - child[i] - hook
        out[f"{layer}.calls"] += 1
        if qual in VALIDATORS:
            validate_calls += 1
            # inclusive time, unless an enclosing validation already has it
            p = parent
            while p >= 0 and spans[p][1] not in VALIDATORS:
                p = spans[p][4]
            if p < 0:
                validate += end - start
        if qual == "render_report":
            render += end - start
    out["algebra.validate_s"] = validate
    out["algebra.validate_calls"] = validate_calls
    out["cli.render_s"] = render
    out["unattributed_s"] = wall - sum(out[f"{layer}.self_s"]
                                       for layer in LAYERS)
    return out


class OpCounter:
    """Counts add, sub, mul, inv and div calls on each Field class."""

    def __init__(self):
        self.counts = {kind: 0 for kind in FIELD_CLASSES.values()}
        self._undo = []

    def install(self):
        fields = importlib.import_module("pca.fields")
        for cls_name, kind in FIELD_CLASSES.items():
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                original = getattr(cls, op)
                had_own = op in vars(cls)
                setattr(cls, op, self._wrap(kind, original))
                self._undo.append((cls, op, original if had_own else None))

    def _wrap(self, kind, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[kind] += 1
            return fn(*args)
        return counted

    def uninstall(self):
        for cls, op, original in reversed(self._undo):
            if original is None:
                delattr(cls, op)
            else:
                setattr(cls, op, original)
        self._undo.clear()
