"""Spans and counters recorded around the library's public functions.

The tracer patches every public function and public method of the named
modules from outside the library, so the library carries no timing code.
Spans are kept in memory in columnar arrays and written as JSON at the end
of the run.
"""

import functools
import importlib
import inspect
import json
import time
import uuid
from array import array


class Tracer:
    """Records one span per call of a wrapped function, plus counters."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.request = 0
        self.requests = ["setup"]
        self.counters = {}
        self.wrapped = []
        self._names = []
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._undo = []

    def start_request(self, label):
        """Label the spans that follow, e.g. one driver call."""
        self.requests.append(label)
        self.request = len(self.requests) - 1

    def mark(self):
        """Span count so far, to split a later summary into phases."""
        return len(self._start)

    def _wrap(self, name, fn, hook):
        nid = len(self._names)
        self._names.append(name)
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self, package, layers, hooks):
        """Wrap the public functions and methods of package.<layer> modules.

        hooks maps a wrapped name to f(counters, args, result), run after
        each call.
        """
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in layers]
        replaced = {}
        for layer, mod in zip(layers, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._patch(mod, attr, name, obj,
                                                hooks.get(name))
                elif inspect.isclass(obj):
                    for m_attr, m_obj in list(vars(obj).items()):
                        if not m_attr.startswith("_") and \
                                inspect.isfunction(m_obj):
                            name = f"{layer}.{attr}.{m_attr}"
                            self._patch(obj, m_attr, name, m_obj,
                                        hooks.get(name))
        # names re-exported by the package or imported by another module
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])

    def _patch(self, owner, attr, name, fn, hook):
        wrapper = self._wrap(name, fn, hook)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        self.wrapped.append(name)
        return wrapper

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def summary(self, since=0, until=None):
        """Per wrapped name: [calls, self seconds] over spans since:until.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings in one thread.
        """
        until = self.mark() if until is None else until
        out = {name: [0, 0.0] for name in self.wrapped}
        names, parents = self._name, self._parent
        for sid in range(since, until):
            dur = self._end[sid] - self._start[sid]
            entry = out[self._names[names[sid]]]
            entry[0] += 1
            entry[1] += dur
            parent = parents[sid]
            if parent >= 0:
                out[self._names[names[parent]]][1] -= dur
        return out

    def write(self, path):
        """Write every span as columns: name, parent, start, end, request."""
        t0 = self._start[0] if self._start else 0.0
        doc = {
            "run_id": self.run_id,
            "clock": "time.perf_counter, seconds from the first span",
            "names": self._names,
            "requests": self.requests,
            "spans": {
                "name": list(self._name),
                "parent": list(self._parent),
                "request": list(self._request),
                "start": [round(t - t0, 9) for t in self._start],
                "end": [round(t - t0, 9) for t in self._end],
            },
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
