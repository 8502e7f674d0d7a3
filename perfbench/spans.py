"""Spans recorded from outside the package, around calls into its layers.

`Tracer.installed()` replaces the layer-boundary functions listed in LAYERS
with wrappers, in every `butterfly_dft` module that holds a reference to
them, and puts the originals back on exit. Each call records a span: name,
start, end, the span that was open when it began (its parent) and the trace
it belongs to (one benchmark operation). Spans stay in memory until
`write_json` is called at the end of a run. Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

PACKAGE = "butterfly_dft"

# The timed layer boundaries. `oracle.kernel` is left out: it is the
# elementwise exponential inside `window_kernel` and `butterfly_init`, called
# once per channel during set-up, and a span per call would swamp both.
LAYERS = {
    "operator": ("apply_batch", "forward", "layer_apply", "layer_backward"),
    "factors": ("butterfly_init", "materialize"),
    "oracle": ("dense_kernel", "window_kernel"),
    "metrics": ("rel_error", "matrix_norm"),
    "dataset": ("fresh_batch", "generate"),
    "training": ("gradient", "loss", "evaluate", "Adam.step"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tag(span_name: str, args, kwargs) -> str | None:
    """Sub-name of a span: the factor of a layer call, the norm's p."""
    if span_name in ("operator.layer_apply", "operator.layer_backward"):
        return _arg(args, kwargs, 1, "name")
    if span_name == "metrics.matrix_norm":
        p = _arg(args, kwargs, 1, "p")
        return "pinf" if p in (np.inf, "inf") else f"p{p}"
    return None


@dataclass
class Span:
    id: int
    parent: int | None
    trace: object
    name: str
    tag: str | None
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace: object = None
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, self.trace, name, tag,
                 time.perf_counter_ns())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name, _tag(span_name, args, kwargs)):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every call to a LAYERS function through a span."""
        originals = {}  # id(original) -> (original, wrapper)
        undo = []
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for name in names:
                if "." in name:  # a method: patch it on its class
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(fn, f"{mod_name}.{name}"))
                    undo.append((cls, meth, fn))
                else:
                    fn = getattr(mod, name)
                    originals[id(fn)] = (fn, self._wrap(fn, f"{mod_name}.{name}"))
        # Modules that imported a function by name hold their own reference.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its child spans."""
        own = {s.id: s.duration_ns for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration_ns
        return own

    def write_json(self, path: str, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, f)
