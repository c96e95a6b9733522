"""Per-layer tracing from outside the engine.

The tracer replaces named jetcalc functions and methods by timing wrappers
at every module or class attribute that binds them (``euler`` and
``nullspace`` are imported by name into several modules, ``DiffExpr.__mul__``
is also bound as ``__rmul__``), and puts the originals back on
``uninstall``.  Every wrapped call adds to an exact call count and to the
layer's self time: its duration minus the time spent in wrapped calls it
made.  Calls to the layers named in ``HOT`` are only counted and timed;
every other call is also recorded as a span (name, start, end, parent span,
case id), kept in memory and written out once by ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import types

# layer name -> (module, attribute path) of the function or method it wraps
LAYERS = {
    "algebra.total_derivative": ("jetcalc.algebra", "DiffExpr.total_derivative"),
    "algebra.euler": ("jetcalc.algebra", "euler"),
    "algebra.mul": ("jetcalc.algebra", "DiffExpr.__mul__"),
    "algebra.substitute": ("jetcalc.algebra", "DiffExpr.substitute"),
    "algebra.parse": ("jetcalc.algebra", "parse"),
    "presentations.normal_form": ("jetcalc.presentations", "Presentation.normal_form"),
    "presentations.lin_apply": ("jetcalc.presentations", "Presentation.lin_apply"),
    "presentations.adj_apply": ("jetcalc.presentations", "Presentation.adj_apply"),
    "presentations.linearization": ("jetcalc.presentations", "Presentation.linearization"),
    "presentations.make_presentation": ("jetcalc.presentations", "make_presentation"),
    "presentations.reduce": ("jetcalc.presentations", "Presentation.reduce"),
    "linalg.nullspace": ("jetcalc.linalg", "nullspace"),
    "operators.compose": ("jetcalc.operators", "CDiffOp.compose"),
    "operators.adjoint": ("jetcalc.operators", "CDiffOp.adjoint"),
    "operators.apply": ("jetcalc.operators", "CDiffOp.apply"),
    "operators.linearize": ("jetcalc.operators", "linearize"),
    "hamiltonian.is_hamiltonian": ("jetcalc.hamiltonian", "is_hamiltonian"),
    "hamiltonian.schouten_pairing": ("jetcalc.hamiltonian", "schouten_pairing"),
    "hamiltonian.schouten_on_equation": ("jetcalc.hamiltonian", "schouten_on_equation"),
    "hamiltonian.verify_bivector_on_equation":
        ("jetcalc.hamiltonian", "verify_bivector_on_equation"),
    "coverings.verify_flat": ("jetcalc.coverings", "verify_flat"),
    "coverings.solve_fiberlinear": ("jetcalc.coverings", "solve_fiberlinear"),
    # jsonschema validation as the CLI reaches it (``jsonschema.validate``)
    "cli.validate": ("jsonschema", "validate"),
    "cli.run_task": ("jetcalc.cli", "run_task"),
}

# Layers called often enough (up to millions of times per run) that keeping a
# span per call would cost more memory and time than the work it measures.
HOT = frozenset({"algebra.total_derivative", "algebra.mul", "algebra.substitute",
                 "algebra.euler", "algebra.parse", "presentations.normal_form",
                 "operators.apply", "operators.compose", "operators.adjoint",
                 "operators.linearize", "presentations.linearization"})

SPAN_FIELDS = ["name", "start_s", "end_s", "parent", "case"]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def _namespaces():
    """The jetcalc modules and the classes they define."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "jetcalc" or mod_name.startswith("jetcalc.")):
            continue
        yield mod
        yield from (v for v in vars(mod).values()
                    if inspect.isclass(v) and v.__module__ == mod_name)


def _bindings(original, owner, attr):
    """`(owner, attr)` and every jetcalc (namespace, name) bound to `original`."""
    found = {(id(owner), attr): (owner, attr)}
    for space in _namespaces():
        for name, value in list(vars(space).items()):
            if value is original:
                found[(id(space), name)] = (space, name)
    return list(found.values())


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and getattr(value, "_bench_wrapper", False)


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.spans = []
        self.case = None
        self.covered_s = 0.0       # time inside outermost wrapped calls
        self.nullspace = {"rows": 0, "cols": 0, "nnz": 0, "nullity": 0}
        self.hamiltonian_true = 0
        self._stack = []
        self._patched = []         # (namespace, name, original)

    # -- installation ------------------------------------------------------

    def install(self):
        # resolve everything first: importing a module (jetcalc.cli) after
        # patching would bind wrappers there that uninstall does not know of
        targets = {name: _resolve(*where) for name, where in LAYERS.items()}
        for name, (owner, attr, original) in targets.items():
            inner = original
            if name == "linalg.nullspace":
                inner = self._nullspace_stats(original)
            elif name == "hamiltonian.is_hamiltonian":
                inner = self._verdict_stats(original)
            wrapper = self._wrap(name, inner)
            for space, bound_name in _bindings(original, owner, attr):
                self._patched.append((space, bound_name, original))
                setattr(space, bound_name, wrapper)

    def uninstall(self):
        for space, name, original in reversed(self._patched):
            setattr(space, name, original)

    def restored(self) -> bool:
        """True when every patched binding holds its original object again
        and no wrapper is left in any jetcalc namespace."""
        if any(vars(space)[name] is not original for space, name, original in self._patched):
            return False
        spaces = [importlib.import_module("jsonschema"), *_namespaces()]
        return not any(_is_wrapper(v) for space in spaces for v in vars(space).values())

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        clock = time.perf_counter
        record = name not in HOT
        tracer = self

        def wrapper(*args, **kwargs):
            # frame: [time inside wrapped children, id of the nearest span]
            parent = stack[-1][1] if stack else None
            if record:
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, span_id]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.covered_s += duration
                if record:
                    spans[span_id] = (name, start, end, parent, tracer.case)

        wrapper._bench_wrapper = True
        return wrapper

    def _nullspace_stats(self, nullspace):
        stats = self.nullspace

        def counted(rows, ncols):
            rows = list(rows)
            basis = nullspace(rows, ncols)
            stats["rows"] += len(rows)
            stats["cols"] += ncols
            stats["nnz"] += sum(len(r) for r in rows)
            stats["nullity"] += len(basis)
            return basis
        return counted

    def _verdict_stats(self, is_hamiltonian):
        def counted(op):
            verdict = is_hamiltonian(op)
            self.hamiltonian_true += bool(verdict)
            return verdict
        return counted

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall_s, untraced_wall_s) -> dict:
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1000.0, "ms")
        for key, value in self.nullspace.items():
            out[f"linalg.nullspace.{key}"] = (value, "count")
        cols = self.nullspace["cols"]
        out["linalg.nullity_ratio"] = (self.nullspace["nullity"] / cols if cols else 0.0,
                                       "ratio")
        verdicts = self.calls["hamiltonian.is_hamiltonian"]
        out["hamiltonian.hamiltonian_share"] = (
            self.hamiltonian_true / verdicts if verdicts else 0.0, "ratio")
        out["trace.coverage"] = (self.covered_s / traced_wall_s, "ratio")
        out["trace.overhead_ratio"] = (traced_wall_s / untraced_wall_s, "ratio")
        return out

    def write_spans(self, path, header: dict):
        spans = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({**header, "fields": SPAN_FIELDS, "spans": spans}, fh)
