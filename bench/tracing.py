"""Span tracing of uniscat's public functions, installed from outside.

The program itself carries no tracing.  `Tracer.install` replaces every
public function of the traced modules (their ``__all__`` entries that are
plain functions), ``cli.main``, and the two `PotentialSpec` query methods
with timing wrappers.  A module that imported a function by name holds its
own reference, so each replacement is made in every loaded ``uniscat``
module that refers to the original object.

A span records (name, start, end, parent span, operation, count).  The
count is filled for the two exact counters:

* ``xfermat.evolve_transfer``: the slice count of the returned operator;
* ``born.closed_form_f_left``: the number of angles it was asked for.

Spans are only recorded while `enabled` is true, so checks that call the
same functions between operations do not pollute the figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

TRACED_MODULES = ("xfermat", "empower", "born", "construct", "potentials")
TRACED_METHODS = (("potentials", "PotentialSpec", "value"), ("potentials", "PotentialSpec", "ft"))

_COUNTERS = {
    "xfermat.evolve_transfer": lambda args, kwargs, result: int(result.slices),
    "born.closed_form_f_left": lambda args, kwargs, result: int(
        np.size(kwargs["theta"] if "theta" in kwargs else args[1])
    ),
}

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Collects spans from wrapped uniscat functions; see the module doc."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = -1
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        package = sys.modules["uniscat"]
        targets = []
        for short in TRACED_MODULES:
            module = sys.modules[f"uniscat.{short}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets.append((f"{short}.{name}", obj))
        targets.append(("cli.main", sys.modules["uniscat.cli"].main))
        loaded = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith("uniscat."))
        ]
        for label, original in targets:
            wrapper = self._wrap(label, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"uniscat.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, label, fn):
        counter = _COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [label, perf_counter(), 0.0, parent, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name busy seconds, call counts and counter sums, plus the
        two derived figures: the self time of ``cli.main`` (its time minus
        that of its direct traced children) and the angles handed to the
        closed-form amplitude from inside ``empower.screen_power``."""
        busy, calls, counts = {}, {}, {}
        child = [0.0] * len(self.spans)
        for span in self.spans:
            dur = span[END] - span[START]
            name = span[NAME]
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + span[COUNT]
            if span[PARENT] >= 0:
                child[span[PARENT]] += dur
        cli_self = sum(
            s[END] - s[START] - child[i]
            for i, s in enumerate(self.spans)
            if s[NAME] == "cli.main"
        )
        points = sum(
            s[COUNT]
            for s in self.spans
            if s[NAME] == "born.closed_form_f_left"
            and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == "empower.screen_power"
        )
        return {
            "busy": busy,
            "calls": calls,
            "counts": counts,
            "cli_self": cli_self,
            "integrand_points": points,
        }

    def dump(self, path, meta):
        """Write the spans as JSON: a name table and one row per span,
        [name index, start us, duration us, parent, operation, count]."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [
                index[s[NAME]],
                round((s[START] - t0) * 1e6, 1),
                round((s[END] - s[START]) * 1e6, 1),
                s[PARENT],
                s[OP],
                s[COUNT],
            ]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names, "spans": rows}, fh)
            fh.write("\n")
