"""In-memory call spans around the public functions of bosewave's modules.

The tracer wraps every public function of the traced modules (the plain
functions named in each module's ``__all__``) and installs the wrapper at
every name that binds the original: the defining module, any module that
imported it by name (``simulate.validate``) and the package's re-exports
(``bosewave.acoustic_root``).  Internal calls go through those module
globals, so nested calls are recorded too.

A span is ``[function id, start, end, parent span, operation]``.  Spans stay
in memory until :meth:`Tracer.write` dumps them as JSON lines.  A layer's
self time is its span's duration minus the durations of its direct child
spans; nested spans of one thread never overlap, so that is exactly the
part of the interval no child covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "analysis", "dispersion", "simulate", "model")


class Tracer:
    """Wraps the public functions of ``<package>.<layer>`` for each layer.

    ``observers`` maps a span name such as ``"dispersion.solve_roots"`` to a
    callable ``(tracer, args, kwargs, result)`` run after each successful
    call; it updates ``counters`` at the layer boundary.
    """

    def __init__(self, package: str, observers=None):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = -1
        self._stack = [-1]
        self._observers = dict(observers or {})
        self._sites = []   # (module, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._sites.append((module, attr) + wrappers[id(value)])

    def _wrap(self, name: str, fn):
        fn_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        observe = self._observers.pop(name, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fn_id, 0.0, 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def summary(self, first: int, last: int, scale) -> dict:
        """``{name: (calls, self seconds)}`` over the spans first..last-1.

        A span's self time is multiplied by ``scale[operation]``.
        """
        child = {}
        for span in self.spans[first:last]:
            if span[3] >= first:
                child[span[3]] = child.get(span[3], 0.0) + span[2] - span[1]
        out = {name: [0, 0.0] for name in self.names}
        for k, span in enumerate(self.spans[first:last], start=first):
            entry = out[self.names[span[0]]]
            entry[0] += 1
            entry[1] += (span[2] - span[1] - child.get(k, 0.0)) * scale[span[4]]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for k, (fn_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": k, "parent": parent, "op": op,
                                     "name": self.names[fn_id],
                                     "start": start, "end": end}) + "\n")
