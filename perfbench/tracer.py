"""Spans around every public function and method of the library, installed
from outside: the library's source is not touched.

Each public function, public method and constructor of a traced module is
replaced by a wrapper at every name it is bound to: in its own module, in
the ``infobalance`` package namespace, in the other modules that import it
and in module-level dicts such as ``families.FAMILIES``.  While tracing is
on, a wrapper records a span (name, start, end, parent span, op id) and the
work counters derived from the shapes of its arguments.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "objects",
    "dilation",
    "tensors",
    "measures",
    "recovery",
    "encodings",
    "families",
    "serialize",
    "cli",
)

_perf = time.perf_counter


def _entropy_flops(args, kwargs) -> int:
    return len(args[0] if args else kwargs["matrix"]) ** 3


def _partial_trace_bytes(args, kwargs) -> int:
    return (args[0] if args else kwargs["state"]).matrix.nbytes


def _dilate_bytes(args, kwargs) -> int:
    instr = args[0] if args else kwargs["instr"]
    inp = args[1] if len(args) > 1 else kwargs["inp"]
    side = inp.r_dim * instr.d_out * instr.max_multiplicity * instr.n_outcomes
    return 16 * side * side


#: work computed from the argument shapes of each call: span name ->
#: (counter name, function of the call's arguments)
COUNTERS = {
    "tensors.entropy_bits": ("flops", _entropy_flops),
    "tensors.partial_trace": ("bytes_in", _partial_trace_bytes),
    "dilation.dilate": ("bytes", _dilate_bytes),
}


class Tracer:
    def __init__(self, observers: dict | None = None) -> None:
        #: callbacks run on the return value of a span name, e.g. to read
        #: the residuals of every balance report, including the CLI's
        self.observers = observers or {}
        self.active = False
        self.names: list[str] = ["op"]
        self.spans: list[tuple | None] = []
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name, (None, None))[1]
        observer = self.observers.get(name)
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if counter is not None:
                counts[name] += counter(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
            if observer is not None:
                observer(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every public function, method and constructor of MODULES."""
        modules = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        replacement: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._install_class(obj, f"{short}.{attr}")
        for namespace in [package] + modules:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in replacement:
                    self._set(namespace, attr, replacement[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacement:
                            self._restore.append((obj, key, value))
                            obj[key] = replacement[id(value)]

    def _install_class(self, cls, name: str) -> None:
        for attr, obj in list(vars(cls).items()):
            # a dataclass's generated __init__ only assigns fields and calls
            # __post_init__, so the constructor span goes where the work is
            if attr == "__post_init__" or (
                attr == "__init__" and not dataclasses.is_dataclass(cls)
            ):
                self._set(cls, attr, self._wrap(obj, name))
            elif not attr.startswith("_") and inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, f"{name}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------------

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Trace one benchmark op under a root span named ``op``."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.active = True
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            self.active = False
            self.stack.pop()
            self.spans[index] = (0, start, end, -1, op_id)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per span name, and the summed duration of the op spans."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        wall = 0.0
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            totals[self.names[name_id]] += (end - start) - child[i]
            if parent < 0:
                wall += end - start
        return totals, wall

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": self.names[name_id], "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
