"""Spans around the public functions of each ``ivhfss`` module.

The tracer replaces module attributes with wrappers, in every ``ivhfss``
module that binds the function, and puts the originals back on
``uninstall``.  Kernel calls run into the millions, so spans are not
stored one by one: each is folded on exit into a per-(function, parent)
aggregate of calls, total time and self time.  Self time is a span's
duration minus the time covered by its child spans.

A function that no longer exists is recorded in ``absent`` and reported
as an absent metric; nothing here fails because the program changed shape.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

KERNEL_FUNCTIONS = (
    "sort_element", "dedup_element", "zip_combine", "combine_aligned",
    "combine_pairwise", "complement_element", "ring_sum_element",
    "ring_product_element", "operator_element",
)
ALL_PAIRS_KERNELS = ("combine_pairwise", "ring_sum_element", "ring_product_element", "operator_element")
# layer -> (module to import, public functions to wrap)
LAYERS = {
    "intervals": ("ivhfss.intervals", ("construct_interval", "rank_compare")),
    "elements": ("ivhfss.elements", (
        "canonicalize", "combine", "complement", "ring_sum", "ring_product",
        "apply_operator", "score",
    )),
    "softsets": ("ivhfss.softsets", (
        "soft_union", "soft_intersection", "soft_complement", "soft_ring_sum",
        "soft_ring_product", "soft_apply_operator", "is_subset", "family_union",
        "make_soft_set",
    )),
    "io": ("ivhfss.io", ("parse_document", "serialize_document")),
    "cli": ("ivhfss.cli", ("main",)),
    "laws.checker": ("ivhfss.laws.checker", ("check_law", "replay")),
    "laws.generators": ("ivhfss.laws.generators", (
        "rng_for", "grid_elements", "random_element", "random_soft", "random_param_sets",
    )),
}
LAW_BUILDERS = ("build_raw", "build_public")


def kernel_module():
    """Whichever module ``ivhfss.backend.kernels`` names, else the Python kernels."""
    try:
        return importlib.import_module("ivhfss.backend").kernels
    except (ImportError, AttributeError):
        pass
    try:
        return importlib.import_module("ivhfss._kernels_py")
    except ImportError:
        return None


def _import(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans as [name, time covered by children], under a root sentinel
        self.stack: list[list] = [[None, 0.0]]
        self._by_name: dict[str, dict] = {}  # name -> parent -> [calls, total_s, self_s]
        self.samples: dict[str, list] = {}  # name -> [(label, seconds)]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # --- wrappers ---

    def span(self, name, fn, label=None, probe=None):
        """Wrap ``fn`` so each call is a span named ``name``.

        ``label(args)`` keeps each call's duration under that label;
        ``probe(args, result)`` sees every call's arguments and result.
        """
        stack, clock = self.stack, self.clock
        by_parent = self._by_name.setdefault(name, {})
        samples = self.samples.setdefault(name, []) if label else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = by_parent.get(parent[0])
                if rec is None:
                    rec = by_parent[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if samples is not None:
                    samples.append((label(args), elapsed))
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def counter(self, name, fn, probe=None):
        """Wrap ``fn`` so its calls are counted (and probed) but not timed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    # --- installing ---

    def patch(self, module, attr, make_wrapper, metric):
        """Replace ``module.attr`` in every ivhfss module that binds the same object."""
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(metric)
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ivhfss" or mod_name.startswith("ivhfss.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        kernels = kernel_module()
        for fn_name in KERNEL_FUNCTIONS:
            name = f"kernels.{fn_name}"
            probe = self._dedup_probe if fn_name in ALL_PAIRS_KERNELS else None
            self.patch(kernels, fn_name, lambda f, n=name, p=probe: self.span(n, f, probe=p), name)
        self.patch(kernels, "rank_key", lambda f: self.counter("kernels.rank_key", f), "kernels.rank_key")

        for layer, (mod_name, functions) in LAYERS.items():
            module = _import(mod_name)
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                self.patch(module, fn_name, lambda f, n=name: self._layer_span(n, f), name)

        evaluate = _import("ivhfss.laws.evaluate")
        if evaluate is None:
            self.absent.append("laws.evaluate")
        else:
            for fn_name, fn in list(vars(evaluate).items()):
                if callable(fn) and getattr(fn, "__module__", None) == evaluate.__name__ \
                        and not fn_name.startswith("_") and not isinstance(fn, type):
                    self.patch(evaluate, fn_name, lambda f: self.span("laws.evaluate", f), "laws.evaluate")

        checker = _import("ivhfss.laws.checker")
        # the checker's private validity test: the only place invalid operand tuples show
        self.patch(checker, "_valid", lambda f: self.counter("laws.tuples_checked", f, self._valid_probe), "laws.valid_ratio")
        self.patch(_import("ivhfss.laws.registry"), "registry", self._wrap_registry, "laws.registry")
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- layer specifics ---

    def _layer_span(self, name, fn):
        if name == "laws.checker.check_law":
            return self.span(name, fn, label=lambda args: getattr(args[0], "law_id", "?"))
        if name.startswith("io."):
            return self.span(name, fn, probe=self._io_probe(name))
        return self.span(name, fn)

    def _dedup_probe(self, args, result):
        self.counts["kernels.pairs_in"] += len(args[-2]) * len(args[-1])
        self.counts["kernels.intervals_out"] += len(result)

    def _valid_probe(self, args, result):
        self.counts["laws.tuples_valid"] += bool(result)

    def _io_probe(self, name):
        def probe(args, result):
            data = args[0] if name.endswith("parse_document") else result
            self.counts[f"{name}.bytes"] += len(data)
        return probe

    def _wrap_registry(self, registry):
        @functools.wraps(registry)
        def traced_registry(*args, **kwargs):
            laws = registry(*args, **kwargs)
            out = []
            for law in laws:
                law_id = getattr(law, "law_id", "?")
                changes = {
                    field: self.span(f"laws.registry.{field}@{law_id}", getattr(law, field))
                    for field in LAW_BUILDERS
                    if callable(getattr(law, field, None))
                }
                if changes and dataclasses.is_dataclass(law):
                    law = dataclasses.replace(law, **changes)
                out.append(law)
            for field in LAW_BUILDERS:
                name = f"laws.registry.{field}"
                if not any(callable(getattr(law, field, None)) for law in laws) and name not in self.absent:
                    self.absent.append(name)
            return type(laws)(out) if isinstance(laws, (list, tuple)) else out
        return traced_registry

    # --- reading ---

    @property
    def agg(self) -> dict[tuple, list]:
        """(name, parent name or None) -> [calls, total_s, self_s]."""
        return {
            (name, parent): rec
            for name, by_parent in self._by_name.items()
            for parent, rec in by_parent.items()
        }

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out
