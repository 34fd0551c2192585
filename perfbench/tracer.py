"""Per-layer tracing by wrapping lenshf's public functions from outside.

A function is wrapped under every lenshf module name that binds it, because
the package reaches most of them through `from` imports (solver and cli
hold their own references to factor, is_prime, verify, ...), through module
globals (factor calls is_prime, verify calls det_exact) or through module
attributes (quadform calls numtheory.sqrt_mod).  Patching only the defining
module would miss most calls.

Each wrapped call records a span (name, start, end, parent span, space id)
and adds to per-function counters: calls, self time (its duration minus the
time of wrapped calls made inside it) and calls per direct parent.  Spans
stay in memory up to a cap and are written out when the run ends; the
counters are exact for every call.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# The layers, as module -> public functions that are wrapped.
LAYERS = {
    "cli": ("main",),
    "solver": ("minimal_planar_boundaries", "solve_n2", "solve_n3", "find_prime_shift"),
    "numtheory": ("factor", "is_prime", "sqrt_mod", "sqrt_mod_prime"),
    "lens": ("bezout",),
    "quadform": ("construct_representing_form",),
    "witness": ("verify", "det_exact", "certificate_to_json", "certificate_from_json"),
}

SPAN_CAP = 200_000


class Tracer:
    """Wraps the LAYERS functions of the imported lenshf package while
    active (inside `with`), and restores them on exit; the counters and
    spans add up over every time it is entered."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list = []  # (name, start, end, parent index, space id)
        self.dropped_spans = 0
        self.space_id = -1
        # Open frames: [name, span index or -1, child time]
        self._stack: list[list] = []
        # (module, attribute, original, wrapper) for every binding
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sys.modules.items() if key == "lenshf" or key.startswith("lenshf.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"lenshf.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                self._bindings += [(module, attr, original, wrapper) for module in modules
                                   for attr, value in vars(module).items() if value is original]

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        calls, self_s, edges = self.calls, self.self_s, self.edges
        calls[name] = 0
        self_s[name] = 0.0

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1
            index = len(spans)
            if index < SPAN_CAP:
                spans.append(None)  # filled in at exit; the index is the span's id
            else:
                index = -1
                self.dropped_spans += 1
            frame = [name, index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if index >= 0:
                    spans[index] = (name, start, end, -1 if parent is None else parent[1], self.space_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        """One JSON line per span, in call order; `parent` is the line index
        of the enclosing span, -1 for a root."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, space in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "space": space}) + "\n")
