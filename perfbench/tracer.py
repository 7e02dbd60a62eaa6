"""Call spans recorded from outside the library.

``Tracer.install`` wraps every public function of each layer module (its
``__all__``, or its public functions when it has none) and rebinds the
wrapper wherever the package binds that name, so a call such as
``convergence_scan`` -> ``classify`` records a span whose parent is the
caller's span.  Classes count as work when they define ``__post_init__``
(validation on construction); that method is wrapped in place.  Spans stay
in memory until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layer modules, named as in the package; ``errors`` and ``tolerances`` do no
# work and get no spans.
LAYERS = ("symplectic", "channels", "teleportation", "dilation", "fidelity",
          "convergence", "peeling", "capacity", "cli")
PACKAGE = "bosonic_telesim"
# prefix of the stderr line on which a traced CLI process reports its spans
SPANS_MARKER = "PERFBENCH_SPANS "


def public_names(mod):
    names = getattr(mod, "__all__", None)
    if names is not None:
        return list(names)
    return [n for n, v in vars(mod).items()
            if not n.startswith("_") and inspect.isfunction(v)
            and v.__module__ == mod.__name__]


class Tracer:
    """Span recorder.  ``spans`` holds ``(name, op_id, parent, duration_s,
    self_s)`` tuples; self time is the span's duration minus that of its
    direct child spans."""

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                spans.append((name, self.op_id, parent and parent[0], dur, dur - frame[1]))

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in public_names(mod):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__",
                              self._wrap(obj.__post_init__, f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self):
        """``{span name: [calls, self_s, [duration_s, ...]]}``."""
        out = {}
        for name, _op, _parent, dur, self_s in self.spans:
            entry = out.setdefault(name, [0, 0.0, []])
            entry[0] += 1
            entry[1] += self_s
            entry[2].append(dur)
        return out


def merge(into, summary):
    """Add one span summary (as from :meth:`Tracer.summary`) into another."""
    for name, (calls, self_s, durs) in summary.items():
        entry = into.setdefault(name, [0, 0.0, []])
        entry[0] += calls
        entry[1] += self_s
        entry[2].extend(durs)
    return into
