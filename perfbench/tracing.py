"""Per-layer tracing from outside the program.

Tracer.install() replaces the public functions of each rigidtori module
(and a few public methods of its classes) by wrappers, both as module
attributes and under every name another rigidtori module imported them by.
Each wrapped call records a span (name, start, end, parent, request id) in
memory; a layer's self time is its spans' time minus the time their child
spans cover.  Cyclotomic arithmetic is counted, never timed: it runs
millions of times, and its time stays in the calling layer's self time.
Nothing is recorded outside begin_request()/end_request(), so the
benchmark's own output checks do not count.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "schemas", "groups", "characters", "cyclotomic", "linalg",
          "hodge", "polarize", "polyfields", "deform")

# Public methods traced as spans, per layer module and class.
METHODS = {
    "groups": {"FiniteGroup": ("__init__", "from_permutations",
                               "conjugacy_classes")},
    "characters": {"CharacterTable": ("verify", "verify_columns",
                                      "central_idempotent", "decompose")},
    "hodge": {"IntegralRepresentation": ("__init__", "from_generators"),
              "ExactHodgeStructure": ("__init__", "hodge_character",
                                      "restricted_action", "j_matrix_float")},
    "polyfields": {"PolynomialField": ("__init__", "root_box", "evaluate_box",
                                       "sign_imag", "pair_data",
                                       "imaginary_subspace",
                                       "element_is_purely_imaginary")},
}

# CyclotomicNumber methods that are only counted.
COUNTED = {"__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
           "embed": "embed", "sign_imag": "sign", "sign_real": "sign"}


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.spans = []          # (name id, start, end, parent, request)
        self.stack = []          # [span index, name id, child time]
        self.request = None
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.inclusive = {}      # span name -> total time
        self.counts = dict.fromkeys(
            ("mul", "inverse", "embed", "sign", "table_calls", "table_repeats",
             "found", "newton_iterations"), 0)
        self.kernel_max_bits = 0
        self.seen_tables = set()
        self._restore = []

    # -- request scope ------------------------------------------------------

    def begin_request(self, request_id):
        self.request = request_id

    def end_request(self):
        self.request = None

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"rigidtori.{name}")
                   for name in LAYERS}
        hooks = self._post_hooks()
        replaced = {}
        for layer, module in modules.items():
            if layer == "cyclotomic":
                continue
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    span = f"{layer}.{name}"
                    wrapper = self._span_wrapper(layer, span, fn,
                                                 hooks.get(span))
                    replaced[id(fn)] = (fn, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name in methods:
                    raw = cls.__dict__[name]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    wrapper = self._span_wrapper(
                        layer, f"{layer}.{cls_name}.{name}", fn)
                    self._set(cls, name, staticmethod(wrapper) if static
                              else wrapper)
        number = modules["cyclotomic"].CyclotomicNumber
        for name, counter in COUNTED.items():
            self._set(number, name, self._count_wrapper(counter,
                                                        number.__dict__[name]))
        for module in [m for n, m in sys.modules.items()
                       if n == "rigidtori" or n.startswith("rigidtori.")]:
            for name, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    self._set(module, name, replaced[id(value)][1])

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore = []

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, layer, span_name, fn, post=None):
        """A span around fn; post(args, result) runs after a normal return."""
        name_id = len(self.names)
        self.names.append(span_name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.request is None or (stack and stack[-1][1] == name_id):
                return fn(*args, **kwargs)  # untraced, or direct recursion
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name_id, start, end, parent,
                                       tracer.request)
                tracer.self_s[layer] += duration - frame[2]
                tracer.calls[layer] += 1
                tracer.inclusive[span_name] = (
                    tracer.inclusive.get(span_name, 0.0) + duration)
                if stack:
                    stack[-1][2] += duration
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_hooks(self):
        def character_table(args, result):
            self.counts["table_calls"] += 1
            key = args[0].table
            if key in self.seen_tables:
                self.counts["table_repeats"] += 1
            self.seen_tables.add(key)

        def integer_kernel(args, result):
            for row in result:
                for x in row:
                    self.kernel_max_bits = max(self.kernel_max_bits,
                                               int(x).bit_length())

        def newton_solve(args, result):
            self.counts["newton_iterations"] += result[1]["iterations"]

        def find_projective_neighbor(args, result):
            self.counts["found"] += 1

        return {"characters.character_table": character_table,
                "linalg.integer_kernel": integer_kernel,
                "deform.newton_solve": newton_solve,
                "deform.find_projective_neighbor": find_projective_neighbor}

    # -- results ------------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric name -> [value, unit]."""
        c = self.counts
        inc = self.inclusive
        searches = self.calls_of("deform.find_projective_neighbor")
        return {
            "cli.self_s": [self.self_s["cli"], "s"],
            "schemas.calls": [self.calls["schemas"], "count"],
            "schemas.self_s": [self.self_s["schemas"], "s"],
            "groups.calls": [self.calls["groups"], "count"],
            "groups.self_s": [self.self_s["groups"], "s"],
            "characters.table_calls": [c["table_calls"], "count"],
            "characters.self_s": [self.self_s["characters"], "s"],
            "characters.repeat_ratio": [
                c["table_repeats"] / c["table_calls"] if c["table_calls"]
                else 0.0, "ratio"],
            "cyclotomic.mul_calls": [c["mul"], "count"],
            "cyclotomic.inverse_calls": [c["inverse"], "count"],
            "cyclotomic.embed_per_sign": [
                c["embed"] / c["sign"] if c["sign"] else 0.0, "ratio"],
            "linalg.calls": [self.calls["linalg"], "count"],
            "linalg.self_s": [self.self_s["linalg"], "s"],
            "linalg.integer_kernel_max_bits": [self.kernel_max_bits, "bits"],
            "hodge.calls": [self.calls["hodge"], "count"],
            "hodge.self_s": [self.self_s["hodge"], "s"],
            "hodge.brute_force_s": [
                inc.get("hodge.brute_force_hom_dimension", 0.0), "s"],
            "polarize.calls": [self.calls["polarize"], "count"],
            "polarize.self_s": [self.self_s["polarize"], "s"],
            "polarize.verify_s": [
                inc.get("polarize.verify_polarization", 0.0), "s"],
            "polyfields.calls": [self.calls["polyfields"], "count"],
            "polyfields.self_s": [self.self_s["polyfields"], "s"],
            "polyfields.root_box_calls": [
                self.calls_of("polyfields.PolynomialField.root_box"), "count"],
            "polyfields.root_box_s": [
                inc.get("polyfields.PolynomialField.root_box", 0.0), "s"],
            "deform.calls": [self.calls["deform"], "count"],
            "deform.self_s": [self.self_s["deform"], "s"],
            "deform.found_ratio": [
                c["found"] / searches if searches else 0.0, "ratio"],
            "deform.newton_iterations": [c["newton_iterations"], "count"],
        }

    def calls_of(self, span_name):
        name_id = self.names.index(span_name)
        return sum(1 for s in self.spans if s[0] == name_id)

    def write_spans(self, path):
        """Spans as {"names": [...], "spans": [[name id, start, end,
        parent span index, request id], ...]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in self.spans]}, fh)
