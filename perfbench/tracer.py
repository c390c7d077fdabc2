"""Span tracing for the riordan modules, installed from outside the package.

`Tracer.install` replaces the public functions and methods of
``riordan.fps``, ``riordan.group``, ``riordan.lie``, ``riordan.flows`` and
``riordan.cli`` with wrappers that record one span per call:
``[name, start, end, parent, op]``.  Spans stay in memory until the run
writes them out.  Nothing under ``src/`` is edited; every module attribute
and module-level dict value that refers to a wrapped object is rebound, so
calls through ``from .x import y`` names are traced too.

The clock the spans use excludes the tracer's own bookkeeping after a call
(coefficient bit-heights), so that work is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("fps", "group", "lie", "flows", "cli")

#: Metric name -> (module, qualified name) of the functions reported one by one.
NAMED = {
    "fps.mul": ("fps", "Fps.__mul__"),
    "fps.reciprocal": ("fps", "Fps.reciprocal"),
    "fps.compose": ("fps", "Fps.compose"),
    "fps.compositional_inverse": ("fps", "Fps.compositional_inverse"),
    "fps.pow_rational": ("fps", "Fps.pow_rational"),
    "fps.exp": ("fps", "Fps.exp"),
    "group.trimatrix_mul": ("group", "TriMatrix.mul"),
    "group.to_matrix": ("group", "RiordanMatrix.to_matrix"),
    "group.riordan_mul": ("group", "RiordanMatrix.__mul__"),
    "group.inverse": ("group", "RiordanMatrix.inverse"),
    "group.a_sequence": ("group", "RiordanMatrix.a_sequence"),
    "group.apply": ("group", "RiordanMatrix.apply"),
    "lie.exp_truncated_oracle": ("lie", "exp_truncated_oracle"),
    "lie.exp_monomial": ("lie", "exp_monomial"),
    "lie.conj_transport": ("lie", "conj_transport"),
    "lie.characteristic_solution": ("lie", "characteristic_solution"),
    "flows.project_flow": ("flows", "project_flow"),
    "flows.rk4_integrate": ("flows", "rk4_integrate"),
    "flows.check_time_reversal": ("flows", "check_time_reversal"),
}

# Operator methods are traced like public methods; other dunders
# (construction, indexing, hashing) are too small and too frequent.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__",
}
# Per-coefficient helpers, untraced for the same reason: their time belongs
# to the series or matrix operation that calls them.
_ELEMENTWISE = {("fps", "as_fraction"), ("group", "TriMatrix.entry")}


def coeff_bits(series) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs
    )


class Tracer:
    """Holds the spans of one process and installs the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.paused = 0.0
        self.max_bits = 0
        self.absent: list[str] = []
        self._fps_type = None

    def _wrap(self, name: str, func, record_bits: bool):
        tracer = self
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, perf_counter() - tracer.paused, None,
                    stack[-1] if stack else None, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter() - tracer.paused
                stack.pop()
            if record_bits and type(result) is tracer._fps_type:
                t0 = perf_counter()
                tracer.max_bits = max(tracer.max_bits, coeff_bits(result))
                tracer.paused += perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every public callable of the five modules, in place."""
        modules = {layer: importlib.import_module(f"riordan.{layer}") for layer in LAYERS}
        self._fps_type = getattr(modules["fps"], "Fps", None)
        by_qualname = {where: metric for metric, where in NAMED.items()}
        replaced = {}  # id(original) -> wrapper

        def wrapper_for(layer, func):
            if (layer, func.__qualname__) in _ELEMENTWISE:
                return func
            key = id(func)
            if key not in replaced:
                name = by_qualname.get((layer, func.__qualname__), f"{layer}.{func.__qualname__}")
                replaced[key] = self._wrap(name, func, record_bits=layer == "fps")
            return replaced[key]

        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    setattr(mod, attr, wrapper_for(layer, value))
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for name, member in list(vars(value).items()):
                        if name.startswith("_") and name not in _OPERATORS:
                            continue
                        if inspect.isfunction(member):
                            setattr(value, name, wrapper_for(layer, member))
                        elif isinstance(member, classmethod):
                            setattr(value, name, classmethod(wrapper_for(layer, member.__func__)))
        # Rebind imported names and dict entries (e.g. a command table).  The
        # wrappers keep their originals alive, so the ids stay unique.
        for mod in (importlib.import_module("riordan"), *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]
        self.absent = sorted(
            metric for metric, (layer, qualname) in NAMED.items()
            if not _resolves(modules[layer], qualname)
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "max_coeff_bits": self.max_bits,
                       "absent": self.absent}, fh)


def _resolves(mod, qualname: str) -> bool:
    obj = mod
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict:
    """{name: [calls, self_s]} for spans, by function and by layer."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        for key in (name, name.split(".", 1)[0]):
            entry = totals.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += own
    return totals
