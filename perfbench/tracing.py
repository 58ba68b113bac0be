"""Wrappers the traced run installs around dyntwist's layers.

Two independent instruments, installed one at a time:

* ``SpanTracer`` records a span (name, start, end, parent, command id)
  around each call of the functions in ``SPANS``.  Those functions run a
  few hundred times per pass, so the spans cost little.
* ``OpCounter`` counts the scalar kernel's operations (millions per pass)
  and the sizes seen by elimination and dense products.  Its wrappers are
  too costly to share a pass with the spans.

A wrapped function is replaced in every ``dyntwist`` namespace that holds
it, since modules import one another's functions with ``from``; a method is
replaced once on its class.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function or Class.method, span name)
SPANS = [
    ("dyntwist.linalg", "sparse_solve", "linalg.sparse_solve"),
    ("dyntwist.linalg", "_sparse_rref", "linalg.rref"),
    ("dyntwist.linalg", "Matrix.__mul__", "linalg.matmul"),
    ("dyntwist.linalg", "inverse", "linalg.inverse"),
    ("dyntwist.linalg", "solve", "linalg.solve"),
    ("dyntwist.linalg", "_dense_to_sparse_rows", "linalg.dense_to_sparse"),
    ("dyntwist.linalg", "kron", "linalg.kron"),
    ("dyntwist.linalg", "Matrix.apply", "linalg.apply"),
    ("dyntwist.datum", "MonomialDatum._select_weights", "datum.select_weights"),
    ("dyntwist.datum", "AdjunctionEngine.xi_inverse", "datum.xi_inverse"),
    ("dyntwist.datum", "AdjunctionEngine.obstruction_element", "datum.obstruction"),
    ("dyntwist.datum", "AdjunctionEngine.compute_i", "datum.compute_i"),
    ("dyntwist.datum", "AdjunctionEngine.contract_obstruction", "datum.contract_obstruction"),
    ("dyntwist.rep", "tensor_action", "rep.tensor_action"),
    ("dyntwist.rep", "tensor_reps", "rep.tensor_reps"),
    ("dyntwist.rep", "intertwiner_basis", "rep.intertwiner_basis"),
    ("dyntwist.monomial", "make_t_module", "monomial.make_t_module"),
    ("dyntwist.twist", "invert_element", "twist.invert_element"),
    ("dyntwist.twist", "verify_twist", "twist.verify_twist"),
    ("dyntwist.twist", "build_twisted_galois", "twist.twisted_galois"),
    ("dyntwist.comod", "is_h_simple", "comod.is_h_simple"),
    ("dyntwist.comod", "canonical_map", "comod.canonical_map"),
    ("dyntwist.stab", "yan_zhu_stabilizer", "stab.yan_zhu"),
    ("dyntwist.stab", "stab_hom_realized", "stab.hom_realized"),
    ("dyntwist.hopf", "verify_hopf", "hopf.verify_hopf"),
    ("dyntwist.polys", "factor_rational", "polys.factor_rational"),
    ("dyntwist.cli", "read_json", "cli.read"),
    ("dyntwist.cli", "write_json", "cli.write"),
]
SPAN_NAMES = [name for _, _, name in SPANS]

SAMPLE_EVERY = 61    # keep every 61st multiplication's operands ...
SAMPLE_LIMIT = 4096  # ... up to this many pairs per field degree


class _Patcher:
    def __init__(self):
        self._undo = []

    def patch(self, module: str, target: str, make):
        """Replace ``target`` of ``module`` by ``make(original)`` everywhere."""
        mod = importlib.import_module(module)
        if "." in target:
            cls_name, attr = target.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            self._set(owner, attr, make(orig))
            return
        orig = getattr(mod, target)
        wrapper = make(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "dyntwist" or name.startswith("dyntwist.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTracer(_Patcher):
    """Spans at each layer boundary, kept in memory."""

    def __init__(self):
        super().__init__()
        self.spans: list = []   # (name, start, end, parent index, command id)
        self._stack: list = []
        self.command = -1

    def install(self):
        for module, target, name in SPANS:
            self.patch(module, target, functools.partial(self._wrap, name))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.command)
                stack.pop()
        return wrapper

    def run_command(self, command_id: int, name: str, fn):
        """Call fn() inside a root span for one command."""
        self.command = command_id
        return self._wrap(name, fn)()

    def totals(self) -> dict:
        """Per span name: inclusive seconds, self seconds and calls.

        Self time is a span's duration minus the time its direct children
        cover.  A span nested in a span of the same name adds to the calls
        and self time but not again to the inclusive time.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += end - start
        return out

    def dump(self, path: str):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _nnz(m) -> int:
    # reads coefficients directly so the scalar counters stay untouched
    return sum(1 for row in m.data for v in row if any(v.coeffs))


class OpCounter(_Patcher):
    """Operation counts of the scalar, elimination and product layers."""

    def __init__(self):
        super().__init__()
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)  # field degree -> [(a, b)]

    def install(self):
        c = self.counts
        self.patch("dyntwist.scalar", "Cyclo.__mul__", self._mul)
        self.patch("dyntwist.scalar", "Cyclo.__add__", functools.partial(self._count, "add"))
        self.patch("dyntwist.scalar", "Cyclo.__sub__", functools.partial(self._count, "add"))
        self.patch("dyntwist.scalar", "Cyclo.inverse", functools.partial(self._count, "inverse"))

        def is_zero(fn):
            def wrapper(self):
                r = fn(self)
                c["is_zero"] += 1
                if r:
                    c["is_zero_hit"] += 1
                return r
            return wrapper
        self.patch("dyntwist.scalar", "Cyclo.is_zero", is_zero)

        def rref(fn):
            def wrapper(rows, ncols, order):
                c["rref_rows_in"] += sum(1 for r in rows if r)
                c["rref_nnz_in"] += sum(len(r) for r in rows)
                pivots = fn(rows, ncols, order)
                c["rref_nnz_out"] += sum(len(r) for r in pivots.values())
                return pivots
            return wrapper
        self.patch("dyntwist.linalg", "_sparse_rref", rref)

        def matmul(fn):
            def wrapper(a, b):
                if hasattr(b, "data"):
                    c["matmul_entries"] += a.rows * a.cols + b.rows * b.cols
                    c["matmul_nnz"] += _nnz(a) + _nnz(b)
                return fn(a, b)
            return wrapper
        self.patch("dyntwist.linalg", "Matrix.__mul__", matmul)

        def t_cached(fn):
            def wrapper(engine, v):
                c["t_calls"] += 1
                if any(held is v for held, _ in engine._t_cache):
                    c["t_hits"] += 1
                return fn(engine, v)
            return wrapper
        self.patch("dyntwist.datum", "AdjunctionEngine.t", t_cached)

        def read_json(fn):
            def wrapper(path):
                c["bytes_read"] += os.path.getsize(path)
                return fn(path)
            return wrapper
        self.patch("dyntwist.cli", "read_json", read_json)

        def write_json(fn):
            def wrapper(path, doc):
                fn(path, doc)
                c["bytes_written"] += os.path.getsize(path)
            return wrapper
        self.patch("dyntwist.cli", "write_json", write_json)

    def _count(self, key, fn):
        c = self.counts

        def wrapper(*args):
            c[key] += 1
            return fn(*args)
        return wrapper

    def _mul(self, fn):
        c, samples = self.counts, self.samples

        def wrapper(a, b):
            c["mul"] += 1
            if c["mul"] % SAMPLE_EVERY == 0 and hasattr(b, "coeffs"):
                pool = samples[len(a.coeffs)]
                if len(pool) < SAMPLE_LIMIT:
                    pool.append((a, b))
            return fn(a, b)
        return wrapper


def mul_ns(pairs, repeats: int = 5) -> float:
    """Median nanoseconds per Cyclo multiplication over the operand pairs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        times.append((time.perf_counter() - start) / len(pairs) * 1e9)
    return statistics.median(times)
