"""Outside-in span tracer.

The tracer wraps functions and methods of an already imported package from
the outside: the program itself is not edited.  Each call of a wrapped name
records one span (kind, start, end, parent span) in flat in-memory arrays,
so that a traced run of several hundred thousand calls stays small; the
spans are written out once, when the run ends.

A module that did `from .operators import image_gradient` holds its own
reference to the function, so a name is patched in every module that
refers to the original object, not only where it is defined.
"""

from __future__ import annotations

import array
import json
import sys
import time


class Tracer:
    """Spans of wrapped calls, kept as parallel arrays indexed by span id."""

    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.value = array.array("q")  # one count per span, e.g. pairs or bytes
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # targets not found, counts not computable

    def _kind_id(self, name: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_ids[name]

    def wrap(self, kind: str, fn, value=None):
        """Return fn wrapped to record a span of the given kind per call.

        `value(args, kwargs, result)` computes the span's count after the
        span has ended, so its cost is not charged to the span.  A count
        that cannot be computed is left at 0 and the kind is listed in
        `missing`, so that a changed call signature does not fail the call.
        """
        kid = self._kind_id(kind)
        clock = time.perf_counter_ns
        kinds, parents, starts, ends, values = self.kind, self.parent, self.start, self.end, self.value
        stack, missing = self._stack, self.missing

        def traced(*args, **kwargs):
            i = len(starts)
            kinds.append(kid)
            parents.append(stack[-1])
            values.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if value is not None:
                try:
                    values[i] = int(value(args, kwargs, result))
                except Exception:
                    missing.add(f"count of {kind}")
            return result

        traced.__name__ = getattr(fn, "__name__", kind)
        traced.__qualname__ = getattr(fn, "__qualname__", kind)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def patch_function(self, kind: str, module_name: str, name: str, value=None, scope=("regselect",)):
        """Wrap module_name.name in that module and in every module of `scope`
        that holds a reference to the same function object."""
        module = sys.modules.get(module_name)
        original = getattr(module, name, None) if module is not None else None
        if original is None:
            self.missing.add(f"{module_name}.{name}")
            return
        wrapped = self.wrap(kind, original, value)
        owners = [module] + [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod is not module
            and any(mod_name == root or mod_name.startswith(root + ".") for root in scope)
        ]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if obj is original:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapped)

    def patch_method(self, kind: str, module_name: str, class_name: str, name: str, value=None):
        """Wrap a method on its class, where every instance looks it up."""
        cls = getattr(sys.modules.get(module_name), class_name, None)
        original = vars(cls).get(name) if cls is not None else None
        if original is None:
            self.missing.add(f"{module_name}.{class_name}.{name}")
            return
        self._patches.append((cls, name, original))
        setattr(cls, name, self.wrap(kind, original, value))

    def unpatch(self):
        """Restore every patched name, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, kind: str, fn, *args, **kwargs):
        """Run fn inside one root span of the given kind."""
        return self.wrap(kind, fn)(*args, **kwargs)

    def self_times(self) -> list[int]:
        """Self time of every span in ns: its duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path):
        """Write all spans as JSON: kind names plus one [kind, parent, start_ns,
        end_ns, value] row per span, start and end relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        rows = zip(self.kind, self.parent, self.start, self.end, self.value)
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"kinds": ' + json.dumps(self.kinds) + ', "spans": [')
            for i, (k, p, s, e, v) in enumerate(rows):
                f.write(("," if i else "") + f"[{k},{p},{s - t0},{e - t0},{v}]")
            f.write("]}\n")
