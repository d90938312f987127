"""In-memory spans around the public functions of inls_lab.

The tracer wraps a function at every binding a caller can reach it through:
module attributes of every loaded ``inls_lab`` module (``cli.evolve`` and
``evolution.evolve`` alike) and module-level dicts such as
``verify.SUITES``.  Each call records one span ``(id, name, start, end,
parent, meta)``; spans are kept in a list and written out once, at the end.
Self times are derived afterwards from the parent links.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None):
        """Return fn wrapped in a span; annotate(result, args, kwargs) may
        add a dict of facts about the call (its size, rows produced)."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to whatever the main
                # thread had open when it handed the work over
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            meta = annotate(result, args, kwargs) if annotate else None
            spans.append((sid, name, start, end, parent, meta))
            return result

        return traced

    def install(self, module, attr: str, name: str, annotate=None) -> None:
        """Wrap module.attr and rebind every inls_lab reference to it."""
        self.patch(module, attr, lambda fn: self.wrap(name, fn, annotate))

    def patch(self, module, attr: str, wrapper) -> None:
        """Replace module.attr by wrapper(module.attr) at every inls_lab
        reference to it; uninstall puts the original back."""
        original = getattr(module, attr)
        replacement = wrapper(original)
        for mod in _rebind_targets(module):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patched.append((mod, key, original))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._patched.append((value, k, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()


def _rebind_targets(module):
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "inls_lab" or n.startswith("inls_lab."))]
    if module not in mods:
        mods.append(module)
    return mods


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def union(intervals) -> list[tuple[float, float]]:
    """The disjoint (start, end) intervals covering a set of intervals."""
    merged: list[list[float]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    return sum(e - s for s, e in union(intervals))


def children_of(spans) -> dict:
    kids: dict = {}
    for sp in spans:
        kids.setdefault(sp[4], []).append(sp)
    return kids


def self_time(span, kids) -> float:
    """Span duration minus the part of it its child spans cover."""
    covered = union_length(
        (max(c[2], span[2]), min(c[3], span[3])) for c in kids.get(span[0], ())
    )
    return (span[3] - span[2]) - covered
