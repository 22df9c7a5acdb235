"""In-memory span recorder wrapped around the program's public functions.

Tracing works by module-attribute replacement: every binding of a
target function in the ``g2cm`` modules (and, for ``sympy.*``, the
attribute on the sympy module that the program calls through) is
replaced by a wrapper that records a span, and ``restore`` puts the
originals back.  Nothing inside the program changes.

A span is (id, parent id, name, start ns, end ns, item id).  Self time
is computed from the span tree as each span closes: its duration minus
the durations of its direct children.  Spans are kept in memory up to a
cap and written out when the run ends; the per-layer totals count every
span, kept or not.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from g2cm.errors import G2CMError

SPAN_CAP = 50_000

# (module, attribute, span name); a dotted attribute names a method.
TARGETS = (
    ("g2cm.cm_field", "validate_field", "cm_field.validate_field"),
    ("g2cm.cm_field", "relative_norm", "cm_field.relative_norm"),
    ("g2cm.frobenius", "char_poly_closed", "frobenius.char_poly_closed"),
    ("g2cm.frobenius", "char_poly_product", "frobenius.char_poly_product"),
    ("g2cm.frobenius", "weil_validate", "frobenius.weil_validate"),
    ("g2cm.sylow", "analyze", "sylow.analyze"),
    ("g2cm.sylow", "verify_lemma2", "sylow.verify_lemma2"),
    ("g2cm.cli", "main", "cli.main"),
    ("g2cm.oracle", "GenusTwoCurve.__init__", "oracle.curve_init"),
    ("g2cm.oracle", "enumerate_jacobian", "oracle.enumerate_jacobian"),
    ("g2cm.oracle", "enumerate_divisors", "oracle.enumerate_divisors"),
    ("g2cm.oracle", "count_points", "oracle.count_points"),
    ("g2cm.oracle", "char_poly_from_counts", "oracle.char_poly_from_counts"),
    ("sympy", "isprime", "sympy.isprime"),
    ("sympy", "factorint", "sympy.factorint"),
    ("sympy", "divisors", "sympy.divisors"),
)

#: Span names as reported; count_points is split by its k argument.
LAYERS = tuple(
    n for _, _, name in TARGETS
    for n in ((name + ".k1", name + ".k2") if name == "oracle.count_points"
              else (name,))
) + ("item",)

#: Layers that reject input, with how a rejection shows besides a
#: G2CMError: a CLI exit code 2 or a Weil report that is not all_ok.
REJECTING = {
    "cm_field.validate_field": None,
    "frobenius.char_poly_product": None,
    "frobenius.weil_validate": lambda report: not report.all_ok(),
    "sylow.analyze": None,
    "cli.main": lambda code: code == 2,
}


class Recorder:
    """Collects spans for the items of one traced phase."""

    def __init__(self):
        self.active = False
        self.items = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.last_divisors = None
        self._stack: list[list] = []  # [id, name, start, child ns]
        self._next_id = 0
        self._restore: list[tuple] = []

    # ---------------------------------------------------------- spans
    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        st = self.stats.setdefault(name, [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else None, name,
                               start, end, self.items))
        else:
            self.dropped += 1

    def begin_item(self) -> None:
        self.active = True
        self._item = self._open("item")

    def end_item(self) -> None:
        self._close(self._item)
        self.active = False
        self.items += 1

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------- wrapping
    def _wrap(self, fn, name):
        rec = self
        rejects = REJECTING.get(name)
        is_count = name == "oracle.count_points"
        is_enum = name == "oracle.enumerate_divisors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            n = name
            if is_count:
                n = f"{name}.k{args[1] if len(args) > 1 else kwargs['k']}"
            frame = rec._open(n)
            try:
                result = fn(*args, **kwargs)
            except G2CMError:
                rec.add(n + ".rejected", 1)
                raise
            finally:
                rec._close(frame)
            if rejects is not None and rejects(result):
                rec.add(n + ".rejected", 1)
            if is_enum:
                rec.add("oracle.divisors_enumerated", len(result))
                rec.last_divisors = result
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target by its wrapper."""
        own = [m for k, m in sys.modules.items()
               if k == "g2cm" or k.startswith("g2cm.")]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = getattr(cls, meth)
                self._set(cls, meth, self._wrap(fn, name))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, name)
            for m in [module] + own:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -------------------------------------------------------- output
    def layer_metrics(self) -> dict[str, float]:
        """Per-item calls, total and self ms for every layer."""
        n = max(self.items, 1)
        out = {}
        for layer in LAYERS:
            calls, total, self_ns = self.stats.get(layer, (0, 0, 0))
            out[f"{layer}.calls"] = calls / n
            out[f"{layer}.total_ms"] = total / 1e6 / n
            out[f"{layer}.self_ms"] = self_ns / 1e6 / n
        for layer in REJECTING:
            out[f"{layer}.rejected"] = self.counts.get(layer + ".rejected", 0) / n
        main_calls = self.stats.get("cli.main", (0,))[0]
        out["cli.json_bytes"] = (self.counts.get("cli.json_bytes", 0)
                                 / max(main_calls, 1))
        out["oracle.divisors_enumerated"] = (
            self.counts.get("oracle.divisors_enumerated", 0) / n)
        ops = self.counts.get("oracle.cantor_add.ops", 0)
        out["oracle.cantor_add.us"] = (
            self.counts.get("oracle.cantor_add.ns", 0) / 1e3 / ops if ops else 0.0)
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                     spans_dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
