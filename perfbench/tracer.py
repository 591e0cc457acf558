"""In-memory span tracer that wraps functions at the names callers look up.

A span records (name, parent, start, end).  A layer's self time is its
span's duration minus the part covered by its child spans.  Wrappers only
time, count and forward: arguments and results pass through untouched,
so traced outputs are bit-identical to untraced ones.  `restore()` puts
every original object back.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, float, float]] = []  # name_id, parent, t0, t1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span_index, time covered by children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counts = defaultdict(float)
        self._patches: list[tuple[object, object, object, bool]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), parent, _clock(), 0.0))
        self._stack.append([len(self.spans) - 1, 0.0])

    def close(self, ok: bool = True) -> None:
        t1 = _clock()
        idx, child = self._stack.pop()
        nid, parent, t0, _ = self.spans[idx]
        self.spans[idx] = (nid, parent, t0, t1)
        name = self.names[nid]
        self.calls[name] += 1
        self.total_s[name] += t1 - t0
        self.self_s[name] += (t1 - t0) - child
        if not ok:
            self.failed[name] += 1
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def active(self, name: str) -> bool:
        """True when a span called `name` is open on the current stack."""
        nid = self._name_ids.get(name)
        return any(self.spans[idx][0] == nid for idx, _ in self._stack)

    def wrap(self, fn, name: str, count=None, span: bool = True):
        """Wrapper that applies `count` and, unless span=False, opens a span.

        count(args, kwargs) returns {counter: increment}; counters are
        stored as '<name>.<counter>'.  A call that raises or returns a
        non-finite float is counted as failed and the exception propagates.
        """
        def wrapper(*args, **kwargs):
            if count is not None:
                for key, inc in count(args, kwargs).items():
                    self.counts[f"{name}.{key}"] += inc
            if not span:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(ok=False)
                raise
            self.close(ok=not (isinstance(out, float) and not math.isfinite(out)))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, wrapper)

    def patch_item(self, owner: dict, key, wrapper) -> None:
        self._patches.append((owner, key, owner[key], True))
        owner[key] = wrapper

    def restore(self) -> bool:
        """Undo every patch, last first; True when all originals are back."""
        for owner, key, orig, is_item in reversed(self._patches):
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        ok = all((owner[key] if is_item else getattr(owner, key)) is orig
                 for owner, key, orig, is_item in self._patches)
        self._patches.clear()
        return ok
