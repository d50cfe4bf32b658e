"""Span recorder for the traced run, kept in the benchmark's own files.

``instrument(recorder)`` wraps each layer's public functions: every
attribute of every loaded ``cmtk`` module that is the very same function
object is rebound to the wrapper, which also catches names copied by
``from .seqcore import difference_table``.  A named function that does
not exist raises at once.  Spans (name, start, end, parent, op id, info)
stay in memory until the run ends; only calls made inside an operation
are recorded, so output checks that call the library stay out of the
numbers.  ``layer_metrics`` turns the spans into per-layer figures: a
layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

LAYER_FUNCTIONS = {
    "seqcore": ("difference_table", "binomial_transform", "euler_transform",
                "inverse_euler_transform"),
    "classify": ("certify", "atom_at_zero", "is_minimal", "degenerate_classify"),
    "moments": ("invert_cm", "invert_ca", "evaluate", "extend_from_integer_samples"),
    "newton": ("series_from_samples", "eval_series"),
    "funcops": ("apply_operator", "cm_limit_decompose", "bf_limit_decompose",
                "lattice_check", "subaffine_check"),
    "bernstein": ("check_bf_via_theta", "check_selfdecomposable", "extract_triplet",
                  "egf_validate"),
    "cli": ("main",),
}
LAYER_METHODS = {"webster": {"WebsterSolution": ("result",)}}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info = None


class Recorder:
    def __init__(self):
        self.spans = []
        self.counting = False
        self._cells = []
        self._stack = []
        self._op = None

    def begin_op(self, index, kind):
        self._op = index
        span = Span("op", None, index)
        span.info = kind
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        self.spans[self._stack.pop()].end = end
        self._op = None

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark around work that has no library
        function boundary of its own (composed-handle evaluation)."""
        if self._op is None:
            yield
            return
        span = Span(name, self._stack[-1], self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count_calls(self, handle, counter):
        """Count evaluations of a function handle's underlying callable,
        for handles built while ``counting`` is set.

        ``FunctionHandle.calls`` cannot serve: ``reset_budget`` zeroes it in
        the middle of an operation."""
        if not self.counting:
            return
        fn = handle.fn
        cell = [0]
        self._cells.append((counter, cell))

        def counted(x):
            cell[0] += 1
            return fn(x)

        handle.fn = counted

    @property
    def counters(self):
        out = Counter()
        for name, cell in self._cells:
            out[name] += cell[0]
        return out

    def wrap(self, name, fn, describe=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._op is None:
                return fn(*args, **kwargs)
            span = Span(name, rec._stack[-1], rec._op)
            before = describe.before(args, kwargs) if describe else None
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if describe:
                span.info = describe.after(before, args, kwargs, out)
            return out

        return wrapper


# -- what each wrapped call records -----------------------------------------------

def _bits(values):
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


class _Table:
    @staticmethod
    def before(args, kwargs):
        return None

    @staticmethod
    def after(_, args, kwargs, table):
        a = args[0]
        K, depth = table.last_index, table.depth
        entries = (depth + 1) * (K + 1) - depth * (depth + 1) // 2
        bits = _bits(a.values) if table.mode == "exact" else 0
        # the values tuple lives as long as its op, so its id names the sequence
        return (table.mode, entries, (id(a.values), depth), bits)


class _Certify:
    before = _Table.before

    @staticmethod
    def after(_, args, kwargs, cert):
        K = len(args[0].values) - 1
        n_start = 0 if cert.kind == "cm" else 1
        n_end = cert.witness[0] if cert.witness is not None else cert.depth
        scanned = sum(K - n + 1 for n in range(n_start, n_end + 1))
        return (scanned, cert.undecidable)


class _Invert:
    before = _Table.before

    @staticmethod
    def after(_, args, kwargs, out):
        model, fit = out
        measure = getattr(model, "measure", model)
        active = sum(1 for _, w in measure.atoms if w > 0.0)
        return (fit.grid_size, active, fit.kkt_gap, fit.residual)


class _EvalSeries:
    before = _Table.before

    @staticmethod
    def after(_, args, kwargs, value):
        return value.n_terms


class _WebsterResult:
    """Classifies each evaluation as the first on its solution (prepare
    plus a base point), a new base point, or a cached base point."""

    def __init__(self):
        self.bases = weakref.WeakKeyDictionary()

    def before(self, args, kwargs):
        solution, x = args[0], float(args[1])
        b = x - max(0, math.ceil(x) - 1)
        seen = self.bases.setdefault(solution, set())
        kind = "first" if not seen else ("cached" if b in seen else "new_base")
        seen.add(b)
        return kind

    @staticmethod
    def after(kind, args, kwargs, result):
        return (kind, result.n_terms)


def _describers():
    return {
        "seqcore.difference_table": _Table,
        "classify.certify": _Certify,
        "moments.invert_cm": _Invert,
        "moments.invert_ca": _Invert,
        "newton.eval_series": _EvalSeries,
        "webster.WebsterSolution.result": _WebsterResult(),
    }


def instrument(recorder):
    """Rebind every traced function; returns a callable that restores them."""
    for layer in (*LAYER_FUNCTIONS, *LAYER_METHODS):
        importlib.import_module(f"cmtk.{layer}")
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cmtk" or name.startswith("cmtk."))]
    describers = _describers()
    undo = []
    for layer, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"cmtk.{layer}"]
        for name in names:
            if not hasattr(module, name):
                raise RuntimeError(f"traced function cmtk.{layer}.{name} does not exist")
            original = getattr(module, name)
            span_name = f"{layer}.{name}"
            wrapper = recorder.wrap(span_name, original, describers.get(span_name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        undo.append((m, attr, original))
    for layer, classes in LAYER_METHODS.items():
        module = sys.modules[f"cmtk.{layer}"]
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                if name not in vars(cls):
                    raise RuntimeError(f"traced method cmtk.{layer}.{cls_name}.{name} does not exist")
                original = vars(cls)[name]
                span_name = f"{layer}.{cls_name}.{name}"
                setattr(cls, name, recorder.wrap(span_name, original, describers.get(span_name)))
                undo.append((cls, name, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- per-layer figures ----------------------------------------------------------------

def self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, counters, n_ops):
    """Per-layer figures of one traced run.  Times and counts are per
    operation unless the name says otherwise (``*_max``, ``*_ratio``,
    ``*_share``, per-fit or per-call means)."""
    selft = self_times(spans)
    total = Counter()
    calls = Counter()
    for s, st in zip(spans, selft):
        total[s.name] += st
        calls[s.name] += 1

    def per_op_ms(*names):
        return 1e3 * sum(total[n] for n in names) / n_ops

    tables = [s.info for s in spans if s.name == "seqcore.difference_table"]
    certs = [s.info for s in spans if s.name == "classify.certify"]
    fits = [s.info for s in spans if s.name in ("moments.invert_cm", "moments.invert_ca")]
    webster = [(s.info, s.end - s.start) for s in spans if s.name == "webster.WebsterSolution.result"]
    exact_ms = 1e3 * sum(st for s, st in zip(spans, selft)
                         if s.name == "seqcore.difference_table" and s.info[0] == "exact")
    float_ms = 1e3 * sum(st for s, st in zip(spans, selft)
                         if s.name == "seqcore.difference_table" and s.info[0] == "float")
    distinct = len({(s.op, s.info[2]) for s in spans if s.name == "seqcore.difference_table"})
    scanned = sum(c[0] for c in certs)

    def webster_mean(kind):
        times = [dt for (k, _), dt in webster if k == kind]
        return 1e3 * sum(times) / len(times) if times else 0.0

    def transform_ms():
        names = ("seqcore.binomial_transform", "seqcore.euler_transform",
                 "seqcore.inverse_euler_transform")
        return 1e3 * sum(s.end - s.start for s in spans if s.name in names) / n_ops

    return {
        "seqcore.exact_table_ms": exact_ms / n_ops,
        "seqcore.float_table_ms": float_ms / n_ops,
        "seqcore.tables_built": len(tables) / n_ops,
        "seqcore.table_reuse_ratio": distinct / len(tables) if tables else 0.0,
        "seqcore.entries_built": sum(t[1] for t in tables) / n_ops,
        "seqcore.max_entry_bits": max((t[3] for t in tables), default=0),
        "seqcore.transform_ms": transform_ms(),
        "classify.scan_ms": per_op_ms("classify.certify"),
        "classify.entries_scanned": scanned / n_ops,
        "classify.certify_calls": calls["classify.certify"] / n_ops,
        "classify.minimal_ms": per_op_ms("classify.is_minimal", "classify.atom_at_zero"),
        "classify.degenerate_ms": per_op_ms("classify.degenerate_classify"),
        "classify.undecidable_share": sum(c[1] for c in certs) / scanned if scanned else 0.0,
        "moments.nnls_ms": per_op_ms("moments.invert_cm", "moments.invert_ca"),
        "moments.grid_points": sum(f[0] + 1 for f in fits) / len(fits) if fits else 0.0,
        "moments.active_atoms": sum(f[1] for f in fits) / len(fits) if fits else 0.0,
        "moments.kkt_gap_max": max((f[2] for f in fits), default=0.0),
        "moments.residual_max": max((f[3] for f in fits), default=0.0),
        "moments.evaluate_ms": per_op_ms("moments.evaluate"),
        "newton.build_ms": per_op_ms("newton.series_from_samples"),
        "newton.eval_ms": per_op_ms("newton.eval_series"),
        "newton.terms_evaluated": sum(s.info for s in spans if s.name == "newton.eval_series") / n_ops,
        "webster.first_eval_ms": webster_mean("first"),
        "webster.new_base_ms": webster_mean("new_base"),
        "webster.cached_eval_ms": webster_mean("cached"),
        "webster.g_evals": counters["webster.g_evals"] / n_ops,
        "webster.terms": sum(t for (_, t), _ in webster) / len(webster) if webster else 0.0,
        "funcops.handle_evals": counters["funcops.handle_evals"] / n_ops,
        "funcops.lattice_ms": per_op_ms("funcops.lattice_check"),
        "funcops.decompose_ms": per_op_ms("funcops.cm_limit_decompose", "funcops.bf_limit_decompose"),
        "funcops.operator_ms": per_op_ms("funcops.apply_operator", "funcops.operator"),
        "funcops.subaffine_ms": per_op_ms("funcops.subaffine_check"),
        "bernstein.theta_ms": per_op_ms("bernstein.check_bf_via_theta"),
        "bernstein.selfdec_ms": per_op_ms("bernstein.check_selfdecomposable"),
        "bernstein.extract_ms": per_op_ms("bernstein.extract_triplet"),
        "bernstein.egf_ms": per_op_ms("bernstein.egf_validate"),
        "cli.main_self_ms": per_op_ms("cli.main"),
        "op.unattributed_ms": per_op_ms("op"),
    }
