"""Span recorder for the traced benchmark run.

The benchmark never edits taufact.  It wraps public functions where their
callers look them up: a name is replaced in every taufact module that binds
it (``engine`` imports ``vector_partitions`` itself, so the engine's binding
is wrapped too), and public methods are replaced on their class.  Only
public names are touched, so the recorder keeps working when private
helpers or the process-global atom memo change.

Each call becomes a span ``(name, start, end, parent, case, busy, self,
items)`` kept in memory.  A generator (``vector_partitions``,
``find_primes_in_class``) is one span whose busy time is the sum of the
intervals spent inside its ``next`` calls, so work the consumer does between
items is not billed to the generator.  Self time is busy time minus the
busy time of the span's children; it is kept as the spans close, so the
self times of a span tree add up to its root's busy time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, kind); kind "fn", "gen" or "method".
TARGETS = (
    ("taufact.partitions", "vector_partitions", "partitions.vector_partitions", "gen"),
    ("taufact.engine", "elasticity", "engine.elasticity", "fn"),
    ("taufact.engine", "is_tau_atom", "engine.is_tau_atom", "fn"),
    ("taufact.engine", "enumerate_tau_factorizations", "engine.enumerate", "fn"),
    ("taufact.quotient", "reduce", "quotient.reduce", "fn"),
    ("taufact.quotient", "classify", "quotient.classify", "fn"),
    ("taufact.quotient", "classify_order4", "quotient.classify_order4", "fn"),
    ("taufact.quotient", "cayley_table", "quotient.cayley_table", "fn"),
    ("taufact.quotient", "find_primes_in_class", "quotient.find_primes_in_class", "gen"),
    ("taufact.quotient", "find_prime_in_class", "quotient.find_prime_in_class", "fn"),
    ("taufact.rings", "build_factored", "rings.build_factored", "fn"),
    ("taufact.rings", "verify_prime", "rings.verify_prime", "fn"),
    ("taufact.rings", "expand", "rings.expand", "fn"),
    ("taufact.poly", "Poly.__mul__", "poly.mul", "method"),
    ("taufact.syntax", "parse_ideal", "syntax.parse_ideal", "fn"),
    ("taufact.syntax", "parse_primes_spec", "syntax.parse_primes_spec", "fn"),
    ("taufact.syntax", "parse_element", "syntax.parse_element", "fn"),
    ("taufact.syntax", "parse_poly", "syntax.parse_poly", "fn"),
    ("taufact.predictors", "PredictionContext.predict", "predictors.predict", "method"),
    ("taufact.predictors", "prediction_context", "predictors.prediction_context", "fn"),
    ("taufact.cli", "main", "cli.main", "fn"),
)

# Metric -> span names whose outermost spans give its busy time.
BUSY_METRICS = {
    "partitions.busy_s": ("partitions.vector_partitions",),
    "engine.elasticity_busy_s": ("engine.elasticity",),
    "engine.enumerate_busy_s": ("engine.enumerate",),
    "quotient.reduce_busy_s": ("quotient.reduce",),
    "quotient.classify_busy_s": ("quotient.classify", "quotient.classify_order4"),
    "quotient.cayley_busy_s": ("quotient.cayley_table",),
    "quotient.prime_search_busy_s": (
        "quotient.find_primes_in_class", "quotient.find_prime_in_class",
    ),
    "rings.build_factored_busy_s": ("rings.build_factored",),
    "rings.expand_busy_s": ("rings.expand",),
    "poly.mul_busy_s": ("poly.mul",),
    "syntax.parse_busy_s": (
        "syntax.parse_ideal", "syntax.parse_primes_spec",
        "syntax.parse_element", "syntax.parse_poly",
    ),
    "predictors.busy_s": ("predictors.predict",),
    "predictors.context_busy_s": ("predictors.prediction_context",),
}

CALL_METRICS = {
    "engine.elasticity_calls": "engine.elasticity",
    "engine.atom_checks": "engine.is_tau_atom",
    "quotient.reduce_calls": "quotient.reduce",
    "rings.build_factored_calls": "rings.build_factored",
    "rings.verify_prime_calls": "rings.verify_prime",
    "rings.expand_calls": "rings.expand",
    "poly.mul_calls": "poly.mul",
    "predictors.predict_calls": "predictors.predict",
}

NAME, START, END, PARENT, CASE, BUSY, SELF, ITEMS = range(8)


class Tracer:
    """Records spans in memory while installed; ``case`` tags new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.records: list = []
        self.stack: list = []  # open frames: [span id, child busy, busy, items]
        self.case = None
        self.max_coeff_bits = 0
        self.factorizations = 0
        self._restore: list = []

    # -- spans opened by the benchmark itself -------------------------------

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code; yields its id."""
        idx = self._index(name)
        parent = self.stack[-1] if self.stack else None
        sid = len(self.records)
        self.records.append(None)
        frame = [sid, 0.0, 0.0, 0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            if self.stack.pop() is not frame:
                raise RuntimeError("spans closed out of order")
            busy = end - start
            if parent is not None:
                parent[1] += busy
            self.records[sid] = (
                idx, start, end, parent[0] if parent is not None else -1,
                self.case, busy, busy - frame[1], 0,
            )

    # -- wrapping public functions -------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists, importing its module first so that
        modules imported later bind the wrappers."""
        for module_name, attr, span, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                wrapper = self._wrap_fn(span, orig)
                for name, value in list(cls.__dict__.items()):
                    if value is orig:  # __rmul__ is the same function
                        self._patch(cls, name, orig, wrapper)
            else:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                wrap = self._wrap_gen if kind == "gen" else self._wrap_fn
                wrapper = wrap(span, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and (mod_name == "taufact" or mod_name.startswith("taufact.")):
                        if mod.__dict__.get(attr) is orig:
                            self._patch(mod, attr, orig, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr, orig, wrapper):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _on_result(self, span: str):
        if span == "poly.mul":
            def on_result(result):
                coeffs = getattr(result, "coeffs", None)
                if coeffs:
                    bits = max(abs(c) for c in coeffs).bit_length()
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits
            return on_result
        if span == "engine.elasticity":
            def on_result(report):
                self.factorizations += report.factorization_count
            return on_result
        if span == "engine.enumerate":
            def on_result(found):
                self.factorizations += len(found)
            return on_result
        return None

    def _wrap_fn(self, span: str, fn):
        idx = self._index(span)
        records, stack, clock = self.records, self.stack, time.perf_counter
        on_result = self._on_result(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(records)
            records.append(None)
            frame = [sid, 0.0, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[1] += busy
                records[sid] = (
                    idx, start, end, parent[0] if parent is not None else -1,
                    tracer.case, busy, busy - frame[1], 0,
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_gen(self, span: str, fn):
        idx = self._index(span)
        records, stack, clock = self.records, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            frame = None
            first = last = 0.0
            parent_id = -1
            case = tracer.case
            try:
                while True:
                    parent = stack[-1] if stack else None
                    if frame is None:
                        frame = [len(records), 0.0, 0.0, 0]
                        records.append(None)
                        parent_id = parent[0] if parent is not None else -1
                    stack.append(frame)
                    start = clock()
                    if not first:
                        first = start
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        last = clock()
                        stack.pop()
                        seg = last - start
                        frame[2] += seg
                        if parent is not None:
                            parent[1] += seg
                    frame[3] += 1
                    yield item
            finally:
                it.close()
                if frame is not None:
                    records[frame[0]] = (
                        idx, first, last, parent_id, case,
                        frame[2], frame[2] - frame[1], frame[3],
                    )

        return traced

    # -- reduction to per-layer metrics --------------------------------------

    def metrics(self, root: int) -> tuple[dict, dict]:
        """Per-layer metrics over every recorded span, and the self-time
        account of the span tree under ``root`` (the timed phase)."""
        names = self.names
        records = self.records
        if any(r is None for r in records):
            raise RuntimeError("a span was never closed")
        by_name = defaultdict(list)
        for sid, rec in enumerate(records):
            by_name[names[rec[NAME]]].append(sid)

        def outermost_busy(span_names):
            wanted = {names.index(n) for n in span_names if n in names}
            total = 0.0
            for n in span_names:
                for sid in by_name.get(n, ()):
                    parent = records[sid][PARENT]
                    while parent >= 0 and records[parent][NAME] not in wanted:
                        parent = records[parent][PARENT]
                    if parent < 0:
                        total += records[sid][BUSY]
            return total

        out = {}
        for metric, span_names in BUSY_METRICS.items():
            out[metric] = outermost_busy(span_names)
        for metric, span in CALL_METRICS.items():
            out[metric] = len(by_name.get(span, ()))

        partitions = by_name.get("partitions.vector_partitions", ())
        yielded = sum(records[sid][ITEMS] for sid in partitions)
        out["partitions.yielded"] = yielded
        atom_calls = by_name.get("engine.is_tau_atom", ())
        enumerating = {records[sid][PARENT] for sid in partitions}
        hits = sum(1 for sid in atom_calls if sid not in enumerating)
        out["engine.atom_memo_hit_ratio"] = hits / len(atom_calls) if atom_calls else 0.0
        out["engine.resolvable_ratio"] = self.factorizations / yielded if yielded else 0.0
        out["poly.max_coeff_bits"] = self.max_coeff_bits

        in_root = _descendants(records, root)
        layer_self = Counter()
        for sid in in_root:
            layer_self[names[records[sid][NAME]].split(".")[0]] += records[sid][SELF]
        out["engine.self_s"] = float(layer_self["engine"])
        out["cli.render_self_s"] = float(layer_self["cli"])
        out["bench.self_s"] = float(layer_self["bench"])
        return out, dict(layer_self)

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcase\tbusy\tself\titems\n")
            for sid, r in enumerate(self.records):
                fh.write(
                    f"{sid}\t{self.names[r[NAME]]}\t{r[START]!r}\t{r[END]!r}\t"
                    f"{r[PARENT]}\t{r[CASE]}\t{r[BUSY]!r}\t{r[SELF]!r}\t{r[ITEMS]}\n"
                )


def _descendants(records, root: int) -> list[int]:
    """Span ids in the subtree of ``root``; parents precede children."""
    inside = {root}
    out = [root]
    for sid in range(root + 1, len(records)):
        if records[sid][PARENT] in inside:
            inside.add(sid)
            out.append(sid)
    return out
